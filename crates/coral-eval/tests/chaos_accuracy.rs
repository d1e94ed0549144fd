//! Chaos-accuracy regression (satellite of the PR-3 reliability layer):
//! under the standard chaos configuration — 5% drop, 1% duplicate, with
//! at-least-once delivery on — end-to-end identity accuracy must stay
//! within a pinned tolerance of the fault-free baseline, and duplicate
//! deliveries must never inflate true-positive counts.

use coral_eval::{replay_and_evaluate, Scenario};
use std::collections::BTreeMap;

/// IDF1 may degrade at most this much under 5% drop + 1% duplicate: the
/// retry layer recovers dropped informs, so chaos should cost identity
/// continuity almost nothing on a five-camera corridor.
const CHAOS_IDF1_TOLERANCE: f64 = 0.10;

#[test]
fn chaos_keeps_idf1_near_the_fault_free_baseline() {
    let baseline = replay_and_evaluate(&Scenario::corridor(5, 5, 42));
    let chaos = replay_and_evaluate(&Scenario::corridor(5, 5, 42).with_faults(0.05, 0.01));

    assert!(
        chaos.idf1() >= baseline.idf1() - CHAOS_IDF1_TOLERANCE,
        "chaos degraded IDF1 past tolerance: fault-free {} vs chaos {} ({:?})",
        baseline.idf1(),
        chaos.idf1(),
        chaos.score,
    );
    assert!(
        chaos.mota() >= baseline.mota() - CHAOS_IDF1_TOLERANCE,
        "chaos degraded MOTA past tolerance: fault-free {} vs chaos {}",
        baseline.mota(),
        chaos.mota(),
    );
    // Whatever was lost must be attributed — and to the stages chaos can
    // actually break (transport / re-id), with ≤1% unattributed.
    assert!(
        chaos.attribution.unattributed_fraction() <= 0.01,
        "{:?}",
        chaos.attribution
    );
}

#[test]
fn duplicate_delivery_never_inflates_true_positives() {
    // Duplicates only (no drops): at-least-once redelivery plus a 10%
    // duplicate rate hammers the idempotent-ingest path.
    let scenario = Scenario::corridor(5, 5, 7).with_faults(0.0, 0.10);
    let sys = scenario.run();
    let report = coral_eval::evaluate(&scenario.name, 7, &sys);

    // 1-1 matching: matches can never exceed ground-truth visits, in
    // aggregate or per (camera, vehicle).
    assert!(report.score.matches <= report.score.gt_intervals);

    // The graph must hold at most one vertex per (camera, vehicle) visit:
    // duplicated informs/events must not mint extra vertices.
    let mut visits: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for iv in sys.ground_truth().intervals() {
        *visits.entry((iv.camera.0, iv.vehicle.0)).or_default() += 1;
    }
    sys.storage().with_graph(|g| {
        let mut vertices: BTreeMap<(u32, u64), usize> = BTreeMap::new();
        for v in g.vertices() {
            if let Some(gt) = v.ground_truth {
                *vertices.entry((v.camera.0, gt.0)).or_default() += 1;
            }
        }
        for (key, &n) in &vertices {
            let gt_visits = visits.get(key).copied().unwrap_or(0);
            assert!(
                n <= gt_visits,
                "duplicates minted vertices: {n} vertices for {gt_visits} visits of {key:?}"
            );
        }
    });

    // Per-camera event accuracy: TP per camera is capped by the camera's
    // ground-truth visit count.
    let mut visits_per_cam: BTreeMap<u32, u64> = BTreeMap::new();
    for iv in sys.ground_truth().intervals() {
        *visits_per_cam.entry(iv.camera.0).or_default() += 1;
    }
    for (cam, acc) in &coral_eval::report(&sys).detection {
        assert!(
            acc.tp <= visits_per_cam.get(&cam.0).copied().unwrap_or(0),
            "camera {cam}: duplicate deliveries inflated TP ({acc:?})"
        );
    }
}
