//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a provenance line, then as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check fails or the run panics, 2 on bad arguments.

use coral_perfbench::{check_finite, cli, provenance_line, result_line, run, trace, workloads};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = std::panic::catch_unwind(|| run::run(&args, workloads::Scale::Full));
    let mut out = match outcome {
        Ok(out) => out,
        Err(_) => {
            let mut out = run::Outcome {
                failed: 1,
                ..run::Outcome::default()
            };
            out.failed_checks.push("the run panicked".into());
            out
        }
    };
    check_finite(&mut out);
    if args.trace && !out.spans.is_empty() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&out.spans)))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for c in &out.failed_checks {
        eprintln!("perfbench: check failed: {c}");
    }
    println!("{}", provenance_line(&out));
    println!("{}", result_line(&out));
    if out.failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
