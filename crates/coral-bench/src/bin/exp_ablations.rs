//! **Ablations** — the design choices the paper motivates qualitatively,
//! quantified:
//!
//! 1. §4.1.5 "choice of vision algorithms": every-frame detection + SORT
//!    vs detect-every-k + correlation-filter tracking (track fragmentation
//!    on hard motion patterns).
//! 2. §4.1.2 `max_age`: de-duplication fidelity under detector misses.
//! 3. §4.1.4 lazy vs eager candidate-pool pruning: re-identification
//!    recall when premature matches occur.
//! 4. §5.4 heartbeat-interval sweep: recovery time vs control traffic.

use coral_bench::report::f2s;
use coral_bench::{corridor_specs, ExperimentLog};
use coral_core::{CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::IntersectionId;
use coral_sim::{FailureSchedule, PoissonArrivals, SimDuration, SimTime};
use coral_vision::{
    BoundingBox, DetectAndTrack, DetectAndTrackConfig, DetectorNoise, SortConfig, SortTracker,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard motion library: (name, box path) pairs stressing the trackers.
fn motion_paths() -> Vec<(&'static str, Vec<BoundingBox>)> {
    let straight: Vec<BoundingBox> = (0..40)
        .map(|t| BoundingBox::from_center(10.0 + 5.0 * t as f64, 60.0, 36.0, 22.0).unwrap())
        .collect();
    let turning: Vec<BoundingBox> = (0..40)
        .map(|t| {
            if t < 20 {
                BoundingBox::from_center(10.0 + 6.0 * t as f64, 60.0, 36.0, 22.0).unwrap()
            } else {
                BoundingBox::from_center(
                    10.0 + 6.0 * 19.0,
                    60.0 + 6.0 * (t - 19) as f64,
                    36.0,
                    22.0,
                )
                .unwrap()
            }
        })
        .collect();
    let mut x = 10.0f64;
    let mut v = 4.0f64;
    let accelerating: Vec<BoundingBox> = (0..50)
        .map(|_| {
            x += v;
            v = (v + 0.25).min(10.0);
            BoundingBox::from_center(x, 60.0, 12.0, 8.0).unwrap()
        })
        .collect();
    let approaching: Vec<BoundingBox> = (0..30)
        .map(|t| {
            let s = 14.0 + 5.0 * t as f64;
            BoundingBox::from_center(120.0 + 2.0 * t as f64, 80.0, s, s * 0.6).unwrap()
        })
        .collect();
    vec![
        ("straight", straight),
        ("turning", turning),
        ("accelerating", accelerating),
        ("approaching", approaching),
    ]
}

fn ablation_tracking() {
    let mut log = ExperimentLog::new(
        "ablation_tracking",
        &["motion", "sort_ids", "dnt_k5_ids", "dnt_k10_ids"],
    );
    for (name, path) in motion_paths() {
        let mut sort = SortTracker::new(SortConfig::default());
        let mut sort_ids = std::collections::HashSet::new();
        for bb in &path {
            for st in sort.update(&[*bb]).active {
                sort_ids.insert(st.id);
            }
        }
        let dnt_ids = |k: u32| {
            let mut dnt = DetectAndTrack::new(DetectAndTrackConfig {
                detect_every: k,
                ..DetectAndTrackConfig::default()
            });
            let mut ids = std::collections::HashSet::new();
            for bb in &path {
                let objs = [*bb];
                let out = if dnt.is_detection_frame() {
                    dnt.advance(Some(&objs), &objs)
                } else {
                    dnt.advance(None, &objs)
                };
                for st in out.active {
                    ids.insert(st.id);
                }
            }
            ids.len()
        };
        log.row(&[
            name.to_string(),
            sort_ids.len().to_string(),
            dnt_ids(5).to_string(),
            dnt_ids(10).to_string(),
        ]);
    }
    log.finish();
    println!("(1 id = the vehicle kept one identity; more = fragmentation)");
}

fn ablation_max_age() {
    // One vehicle, 40 frames, detector missing each frame w.p. 0.25:
    // count the events (expired tracks) emitted per passage.
    let mut log = ExperimentLog::new("ablation_max_age", &["max_age", "mean_events_per_passage"]);
    for max_age in [0u32, 1, 3, 5, 8] {
        let mut total_events = 0usize;
        const TRIALS: u64 = 40;
        for seed in 0..TRIALS {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sort = SortTracker::new(SortConfig {
                max_age,
                ..SortConfig::default()
            });
            let mut events = 0usize;
            for t in 0..40 {
                let dets: Vec<BoundingBox> = if rng.gen::<f64>() < 0.25 {
                    Vec::new() // detector miss
                } else {
                    vec![BoundingBox::from_center(10.0 + 5.0 * t as f64, 60.0, 36.0, 22.0).unwrap()]
                };
                events += sort.update(&dets).expired.len();
            }
            events += sort.flush().len();
            total_events += events;
        }
        log.row(&[
            max_age.to_string(),
            f2s(total_events as f64 / TRIALS as f64),
        ]);
    }
    log.finish();
    println!("(1.00 = perfect de-duplication; the paper uses max_age = 3)");
}

fn ablation_pool_pruning() {
    // Identical runs, lazy vs eager pool pruning, with realistic noise so
    // premature matches occur.
    let run = |eager: bool| {
        let (net, specs) = corridor_specs(5);
        let config = SystemConfig {
            node: NodeConfig {
                detector_noise: DetectorNoise {
                    miss_rate: 0.03,
                    clutter_rate: 0.05,
                    jitter_px: 1.5,
                    ..DetectorNoise::default()
                },
                eager_pool_prune: eager,
                ..NodeConfig::default()
            },
            ..SystemConfig::default()
        };
        let mut sys = CoralPieSystem::new(net, &specs, config);
        sys.set_arrivals(PoissonArrivals::new(
            0.20,
            vec![IntersectionId(0), IntersectionId(4)],
            4,
            99,
        ));
        sys.run_until(SimTime::from_secs(180));
        sys.finish();
        coral_eval::report(&sys).reid
    };
    let lazy = run(false);
    let eager = run(true);
    let mut log = ExperimentLog::new(
        "ablation_pool_pruning",
        &[
            "policy",
            "reid_tp",
            "reid_fp",
            "reid_fn",
            "reid_recall",
            "reid_f2",
        ],
    );
    for (name, acc) in [("lazy (paper)", lazy), ("eager", eager)] {
        log.row(&[
            name.to_string(),
            acc.tp.to_string(),
            acc.fp.to_string(),
            acc.fn_.to_string(),
            f2s(acc.recall()),
            f2s(acc.f2()),
        ]);
    }
    log.finish();
    println!("(the paper keeps matched entries until the pool grows too large)");
}

fn ablation_heartbeat_sweep() {
    let mut log = ExperimentLog::new(
        "ablation_heartbeat",
        &[
            "interval_s",
            "mean_recovery_s",
            "max_recovery_s",
            "heartbeats_sent",
        ],
    );
    for hb in [1u64, 2, 5, 10] {
        let (net, specs) = corridor_specs(8);
        let config = SystemConfig {
            heartbeat_interval: SimDuration::from_secs(hb),
            ..SystemConfig::default()
        };
        let mut sys = CoralPieSystem::new(net, &specs, config);
        sys.run_until(SimTime::from_secs(hb * 3));
        let cams: Vec<_> = sys.alive().iter().copied().collect();
        let schedule = FailureSchedule::kill_successively(
            &cams,
            3,
            SimTime::from_secs(hb * 4),
            SimDuration::from_secs(hb * 4),
            5,
        );
        sys.set_failures(&schedule);
        sys.run_until(SimTime::from_secs(hb * 20 + 60));
        let rec: Vec<f64> = sys
            .telemetry()
            .recoveries
            .iter()
            .map(|r| r.duration().as_secs_f64())
            .collect();
        let beats: u64 = sys
            .alive()
            .iter()
            .map(|&c| sys.node(c).unwrap().connection().stats().heartbeats_sent)
            .sum();
        let mean = rec.iter().sum::<f64>() / rec.len().max(1) as f64;
        let max = rec.iter().fold(0.0f64, |a, &b| a.max(b));
        log.row(&[hb.to_string(), f2s(mean), f2s(max), beats.to_string()]);
    }
    log.finish();
    println!("(faster healing costs proportionally more control traffic)");
}

fn main() {
    ablation_tracking();
    ablation_max_age();
    ablation_pool_pruning();
    ablation_heartbeat_sweep();
}
