//! Command-line arguments:
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.

use crate::workloads::Workload;

/// Parsed arguments of one benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Target wall length of the timed window, seconds.
    pub seconds: u64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
}

/// Parses the arguments that follow the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn full_argument_set() {
        let a = parse(argv(
            "--workload store_chaos --seed 18446744073709551615 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::StoreChaos);
        assert_eq!(a.seed, u64::MAX);
        assert_eq!(a.seconds, 12);
        assert!(a.trace);
    }

    #[test]
    fn defaults_and_order() {
        let a = parse(argv("--seed 7 --workload city_lookalike")).unwrap();
        assert_eq!(a.workload, Workload::CityLookalike);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10);
        assert!(!a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(
            parse(argv("--workload city_lookalike")).is_err(),
            "seed required"
        );
        assert!(parse(argv("--seed 1")).is_err(), "workload required");
        assert!(parse(argv("--workload nope --seed 1")).is_err());
        assert!(parse(argv("--workload grid1000_churn --seed -3")).is_err());
        assert!(parse(argv("--workload grid1000_churn --seed x")).is_err());
        assert!(parse(argv("--workload grid1000_churn --seed 1 --trace 2")).is_err());
        assert!(parse(argv("--workload grid1000_churn --seed 1 --seconds 0")).is_err());
        assert!(parse(argv("--workload grid1000_churn --seed")).is_err());
        assert!(parse(argv("--workload grid1000_churn --seed 1 --bogus 1")).is_err());
    }
}
