//! Parallel camera-stepping baseline — writes `BENCH_parallel.json`.
//!
//! Runs the open-traffic workload over 5-, 37-, 150- and 1000-camera
//! deployments with the deterministic stepper at several worker counts,
//! in both dense and sparse (event-driven) stepping modes, and records,
//! per configuration: simulated ticks per wall-clock second, wall-clock
//! speedup vs the sequential run of the same mode, and *schedule
//! speedup* — the parallelism actually extracted from the tick, computed
//! from the stepper's own per-worker busy counters as
//!
//! ```text
//! schedule_speedup = (Σ worker busy + commit) / (critical path + commit)
//! ```
//!
//! The two measures answer different questions. Schedule speedup is a
//! property of the schedule itself (how much work ran concurrently versus
//! the longest dependency chain) and is meaningful on any host, including
//! single-core CI boxes where threads time-slice one CPU and wall-clock
//! speedup necessarily hovers near 1. On a host with ≥ `threads` free
//! cores, wall-clock speedup converges to schedule speedup.
//!
//! Sparse stepping adds a third axis: with a fixed vehicle population,
//! dense per-tick cost grows with the camera count (every camera projects
//! every vehicle), while sparse cost grows with the *active* camera count
//! (the occupancy index early-outs the idle majority). The headline
//! `dense_vs_sparse` field is the sparse/dense throughput ratio at one
//! worker on the largest deployment that ran both modes. Sparse stepping
//! visits only cameras with work in both the analysis and the ordered
//! commit phase, so the ratio is bounded by the per-tick work it cannot
//! remove (the active cameras' vision work, traffic and occupancy
//! updates) and by the control plane the window still runs — the
//! analysis-phase `busy_us` and `commit_us` columns show the raw
//! reductions.
//!
//! `CORAL_SPEEDUP_SECS` scales the simulated duration;
//! `CORAL_SPEEDUP_ONLY=<cameras>` restricts the camera axis to one
//! deployment (smoke mode — skips writing `BENCH_parallel.json`).

use coral_bench::{campus_specs, corridor_specs, grid_specs, ExperimentLog};
use coral_core::{CameraSpec, CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::{IntersectionId, RoadNetwork};
use coral_sim::{PoissonArrivals, SimTime};
use coral_vision::DetectorNoise;
use std::time::Instant;

struct Sample {
    cameras: usize,
    threads: usize,
    sparse: bool,
    ticks: u64,
    wall_s: f64,
    ticks_per_sec: f64,
    wall_speedup: f64,
    schedule_speedup: f64,
    busy_us: u64,
    critical_us: u64,
    commit_us: u64,
    cameras_stepped: u64,
    cameras_skipped: u64,
}

fn deployment(cameras: usize) -> (RoadNetwork, Vec<CameraSpec>, Vec<IntersectionId>) {
    match cameras {
        5 => {
            let (net, specs) = corridor_specs(5);
            (net, specs, vec![IntersectionId(0), IntersectionId(4)])
        }
        37 => {
            let (net, specs) = campus_specs();
            (net, specs, [0, 6, 35, 41].map(IntersectionId).to_vec())
        }
        150 => {
            let (net, specs) = grid_specs(10, 15);
            (net, specs, [0, 14, 135, 149].map(IntersectionId).to_vec())
        }
        1000 => {
            let (net, specs) = grid_specs(25, 40);
            (net, specs, [0, 39, 960, 999].map(IntersectionId).to_vec())
        }
        other => panic!("no deployment defined for {other} cameras"),
    }
}

fn run(cameras: usize, threads: usize, sparse: bool, sim_secs: u64) -> Sample {
    let (net, specs, entries) = deployment(cameras);
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        parallelism: threads,
        sparse_stepping: sparse,
        // This experiment measures the tick core. At their default
        // cadences the cloud-side control loops dominate the big
        // deployments — heartbeat-driven MDCS recomputes (~7 per tick at
        // 150 cameras, ~48 at 1000) and the 200 ms liveness sweep (whose
        // cost grows with cameras × graph size) — and drown the stepping
        // signal; exp_failover measures that path. Quiet both here.
        heartbeat_interval: coral_sim::SimDuration::from_secs(600),
        liveness_check_period: coral_sim::SimDuration::from_secs(600),
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    sys.set_arrivals(PoissonArrivals::new(0.5, entries, 10, 1234));
    // Warm-up: the t=0 join burst (every camera announces itself, each
    // triggering an MDCS recompute — ~10 wall seconds at 1000 cameras)
    // floods the cloud links with topology updates whose deliveries keep
    // trickling in for several more simulated seconds. Warm in 1-sim-sec
    // slices until a slice delivers no further updates, so the timed
    // window measures the steady-state tick loop. All counters are read
    // as deltas across the window.
    let topo_delivered = |sys: &CoralPieSystem| {
        sys.observability()
            .registry()
            .counter_value(
                "runtime_messages_delivered_total",
                &[("kind", "topology_update")],
            )
            .unwrap_or(0)
    };
    let mut warm_secs = 0u64;
    loop {
        warm_secs += 1;
        let before = topo_delivered(&sys);
        sys.run_until(SimTime::from_secs(warm_secs));
        if topo_delivered(&sys) == before || warm_secs >= 30 {
            break;
        }
    }
    let counter = |sys: &CoralPieSystem, name: &str| {
        sys.observability()
            .registry()
            .counter_value(name, &[])
            .unwrap_or(0)
    };
    let ticks0 = counter(&sys, "core_tick_total");
    let busy0 = counter(&sys, "core_step_busy_us_total");
    let critical0 = counter(&sys, "core_step_critical_us_total");
    let commit0 = counter(&sys, "core_step_commit_us_total");
    let stepped0 = counter(&sys, "core_cameras_stepped_total");
    let skipped0 = counter(&sys, "core_cameras_skipped_total");
    let start = Instant::now();
    sys.run_until(SimTime::from_secs(warm_secs + sim_secs));
    let wall_s = start.elapsed().as_secs_f64();
    sys.finish();

    let ticks = counter(&sys, "core_tick_total") - ticks0;
    let busy_us = counter(&sys, "core_step_busy_us_total") - busy0;
    let critical_us = counter(&sys, "core_step_critical_us_total") - critical0;
    let commit_us = counter(&sys, "core_step_commit_us_total") - commit0;
    let schedule_speedup = if critical_us + commit_us > 0 {
        (busy_us + commit_us) as f64 / (critical_us + commit_us) as f64
    } else {
        1.0
    };
    Sample {
        cameras,
        threads,
        sparse,
        ticks,
        wall_s,
        ticks_per_sec: ticks as f64 / wall_s.max(1e-9),
        wall_speedup: 1.0, // filled in against the sequential run below
        schedule_speedup,
        busy_us,
        critical_us,
        commit_us,
        cameras_stepped: counter(&sys, "core_cameras_stepped_total") - stepped0,
        cameras_skipped: counter(&sys, "core_cameras_skipped_total") - skipped0,
    }
}

fn json_row(s: &Sample) -> String {
    let active_fraction = if s.cameras_stepped + s.cameras_skipped > 0 {
        s.cameras_stepped as f64 / (s.cameras_stepped + s.cameras_skipped) as f64
    } else {
        1.0
    };
    format!(
        "    {{\"cameras\": {}, \"threads\": {}, \"mode\": \"{}\", \
         \"ticks\": {}, \"wall_s\": {:.3}, \"ticks_per_sec\": {:.1}, \
         \"wall_speedup\": {:.3}, \"schedule_speedup\": {:.3}, \
         \"busy_us\": {}, \"critical_us\": {}, \"commit_us\": {}, \
         \"active_fraction\": {:.4}}}",
        s.cameras,
        s.threads,
        if s.sparse { "sparse" } else { "dense" },
        s.ticks,
        s.wall_s,
        s.ticks_per_sec,
        s.wall_speedup,
        s.schedule_speedup,
        s.busy_us,
        s.critical_us,
        s.commit_us,
        active_fraction
    )
}

fn main() {
    let sim_secs: u64 = std::env::var("CORAL_SPEEDUP_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let only: Option<usize> = std::env::var("CORAL_SPEEDUP_ONLY")
        .ok()
        .and_then(|v| v.parse().ok());
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut log = ExperimentLog::new(
        "parallel_speedup",
        &[
            "cameras",
            "threads",
            "mode",
            "ticks_per_sec",
            "wall_speedup",
            "schedule_speedup",
        ],
    );
    let camera_axis: Vec<usize> = [5usize, 37, 150, 1000]
        .into_iter()
        .filter(|c| only.is_none_or(|o| o == *c))
        .collect();
    let mut samples: Vec<Sample> = Vec::new();
    for &cameras in &camera_axis {
        // The 1000-camera rows exist to prove scale (sparse stepping keeps
        // per-tick cost bounded by the active set, dense by the full
        // roster); they run at fewer worker counts and a shorter simulated
        // span so the whole experiment stays bounded.
        let (modes, threads_axis, secs): (&[bool], &[usize], u64) = if cameras >= 1000 {
            (&[false, true], &[1, 4], (sim_secs / 4).max(2))
        } else {
            (&[false, true], &[1, 2, 4, 8], sim_secs)
        };
        for &sparse in modes {
            let mut baseline_wall = 0.0f64;
            for &threads in threads_axis {
                let mut s = run(cameras, threads, sparse, secs);
                if threads == 1 {
                    baseline_wall = s.wall_s;
                }
                s.wall_speedup = baseline_wall / s.wall_s.max(1e-9);
                log.row(&[
                    s.cameras.to_string(),
                    s.threads.to_string(),
                    if sparse { "sparse" } else { "dense" }.to_string(),
                    format!("{:.1}", s.ticks_per_sec),
                    format!("{:.3}", s.wall_speedup),
                    format!("{:.3}", s.schedule_speedup),
                ]);
                samples.push(s);
            }
        }
    }
    log.finish();

    let find = |cameras: usize, threads: usize, sparse: bool| {
        samples
            .iter()
            .find(|s| s.cameras == cameras && s.threads == threads && s.sparse == sparse)
    };

    // Headline sparse-vs-dense ratio at one worker, on the largest
    // deployment that ran both modes — where the idle majority (and so
    // the structural advantage of event-driven stepping) is biggest.
    let dense_vs_sparse =
        [1000, 150, 37, 5]
            .into_iter()
            .find_map(|c| match (find(c, 1, false), find(c, 1, true)) {
                (Some(d), Some(s)) => Some((c, s.ticks_per_sec / d.ticks_per_sec.max(1e-9))),
                _ => None,
            });

    if only.is_none() {
        let (ratio_cameras, ratio) = dense_vs_sparse.unwrap_or((0, 0.0));
        let rows: Vec<String> = samples.iter().map(json_row).collect();
        let json = format!(
            "{{\n  \"experiment\": \"parallel_speedup\",\n  \
             \"host_cpus\": {host_cpus},\n  \"sim_seconds\": {sim_secs},\n  \
             \"dense_vs_sparse\": {ratio:.3},\n  \
             \"dense_vs_sparse_cameras\": {ratio_cameras},\n  \
             \"note\": \"schedule_speedup = (sum of per-worker busy time + sequential \
             commit) / (critical path + sequential commit), from the stepper's \
             per-worker counters; it measures the concurrency the schedule \
             exposes and equals wall_speedup on a host with >= threads free \
             cores. On a single-core host wall_speedup stays near 1 by \
             construction. mode=sparse uses the occupancy-index early-out; \
             dense scans every camera. dense_vs_sparse is the sparse/dense \
             ticks_per_sec ratio at dense_vs_sparse_cameras cameras, 1 \
             worker. active_fraction is stepped/(stepped+skipped) \
             camera-ticks. Heartbeat and liveness cadences are quieted so \
             the rows measure the tick core, not the cloud control loops \
             (see exp_failover for those), and each row warms past the t=0 \
             join storm until its topology-update deliveries drain before \
             the timed window opens.\",\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
        println!("\nwrote BENCH_parallel.json ({host_cpus} host cpus)");
    } else {
        println!("\nCORAL_SPEEDUP_ONLY set: smoke mode, BENCH_parallel.json not written");
    }

    if let Some(headline) = find(37, 4, false) {
        println!(
            "37 cameras / 4 workers (dense): schedule speedup {:.2}x, wall {:.2}x",
            headline.schedule_speedup, headline.wall_speedup
        );
        // On a host with fewer free cores than workers, time-slicing
        // inflates per-item busy (and so the critical path) — measured
        // 1.9x on a 1-cpu container vs 2.1+ with real cores — so the
        // floor leaves headroom below the nominal 2x.
        assert!(
            headline.schedule_speedup >= 1.7,
            "37-camera tick must expose >= 1.7x parallelism at 4 workers \
             (got {:.2}x)",
            headline.schedule_speedup
        );
    }
    if let Some(s) = find(37, 8, true) {
        println!(
            "37 cameras / 8 workers (sparse): schedule speedup {:.2}x",
            s.schedule_speedup
        );
        // The sparse active set (~8 of 37 cameras) must still fan across
        // the pool: measured 2.8x on a 1-cpu host.
        assert!(
            s.schedule_speedup >= 2.0,
            "sparse 37-camera tick must keep >= 2x schedule parallelism at \
             8 workers (got {:.2}x)",
            s.schedule_speedup
        );
    }
    if let Some((cameras, ratio)) = dense_vs_sparse {
        println!("{cameras} cameras / 1 worker: sparse vs dense throughput {ratio:.2}x");
        if cameras >= 1000 {
            // The floor leaves wide margin for CI noise below the
            // measured ratio (BENCH_parallel.json); the analysis phase
            // itself shrinks several-fold, asserted separately below.
            assert!(
                ratio >= 1.2,
                "sparse stepping must beat dense wall throughput by >= 1.2x \
                 on the {cameras}-camera deployment (got {ratio:.2}x)"
            );
            if let (Some(d), Some(s)) = (find(cameras, 1, false), find(cameras, 1, true)) {
                assert!(
                    s.busy_us * 10 < d.busy_us * 7,
                    "sparse analysis busy time must be < 70% of dense at \
                     {cameras} cameras (got {} vs {} us)",
                    s.busy_us,
                    d.busy_us
                );
            }
        }
    }
    if let Some(big) = find(1000, 1, true) {
        println!(
            "1000 cameras / 1 worker (sparse): {:.1} ticks/s over {} ticks, \
             active fraction {:.4}",
            big.ticks_per_sec,
            big.ticks,
            big.cameras_stepped as f64 / (big.cameras_stepped + big.cameras_skipped).max(1) as f64
        );
        assert!(big.ticks > 0, "1000-camera deployment must complete ticks");
    }
}
