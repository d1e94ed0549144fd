//! Criterion benchmark for the health engine at deployment scale: the
//! default rule set over 1000 `node_last_heartbeat_ms` gauges, the series
//! the once-per-sim-second DES sweep reads on a 1000-camera grid. The
//! engine resolves its series on the first evaluation; each timed
//! evaluation is a steady-state one (no new series, no verdict change).

use coral_core::obs::{default_health_rules, subject_for};
use coral_obs::{HealthEngine, Journal, Registry};
use coral_topology::CameraId;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_health_eval(c: &mut Criterion) {
    let registry = Registry::new();
    let journal = Journal::new();
    let now_ms = 60_000u64;
    for cam in 0..1000u32 {
        registry
            .gauge(
                "node_last_heartbeat_ms",
                &[("camera", &subject_for(CameraId(cam)))],
            )
            // Beats spread over the last 2 s heartbeat interval.
            .set((now_ms - u64::from(cam % 2_000)) as i64);
    }
    let mut engine = HealthEngine::new(default_health_rules(2_000, 2, 5_000, true));
    engine.evaluate(&registry, Some(&journal), now_ms);
    c.bench_function("health_eval_1000_cameras", |b| {
        b.iter(|| engine.evaluate(&registry, Some(&journal), now_ms));
    });
}

criterion_group!(benches, bench_health_eval);
criterion_main!(benches);
