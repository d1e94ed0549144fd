//! Property-based invariants for the candidate pool.

use coral_core::CandidatePool;
use coral_net::DetectionEvent;
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, TrackId};
use proptest::prelude::*;

fn event(cam: u32, track: u64) -> DetectionEvent {
    DetectionEvent {
        camera: CameraId(cam),
        timestamp_ms: track,
        heading: None,
        bearing_deg: None,
        signature: ColorHistogram::uniform(2),
        track: TrackId(track),
        vertex: None,
        ground_truth: None,
    }
}

/// A pool operation script.
#[derive(Debug, Clone)]
enum Op {
    Add(u32, u64),
    MarkLocal(u32, u64),
    MarkRemote(u32, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..4, 0u64..30).prop_map(|(c, t)| Op::Add(c, t)),
            (0u32..4, 0u64..30).prop_map(|(c, t)| Op::MarkLocal(c, t)),
            (0u32..4, 0u64..30).prop_map(|(c, t)| Op::MarkRemote(c, t)),
        ],
        0..120,
    )
}

proptest! {
    #[test]
    fn pool_invariants_hold_for_any_script(ops in arb_ops(), threshold in 1usize..40) {
        let mut pool = CandidatePool::new(threshold);
        for op in &ops {
            match *op {
                Op::Add(c, t) => pool.add(event(c, t), t),
                Op::MarkLocal(c, t) => {
                    pool.mark_matched_local(event(c, t).event_id());
                }
                Op::MarkRemote(c, t) => {
                    pool.mark_matched_remote(event(c, t).event_id());
                }
            }
            // Size never exceeds the GC threshold after an add settles.
            prop_assert!(pool.len() <= threshold.max(1));
            prop_assert!(pool.unmatched_len() <= pool.len());
            let stats = pool.stats();
            // Conservation: everything received is pooled, pruned, or was
            // a duplicate refresh.
            prop_assert!(stats.received >= pool.len() as u64);
            prop_assert!(stats.matched() <= stats.received);
            let frac = pool.spurious_fraction();
            prop_assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn eager_pool_never_holds_matched_entries(ops in arb_ops(), threshold in 1usize..40) {
        let mut pool = CandidatePool::new_eager(threshold);
        for op in &ops {
            match *op {
                Op::Add(c, t) => pool.add(event(c, t), t),
                Op::MarkLocal(c, t) => {
                    pool.mark_matched_local(event(c, t).event_id());
                }
                Op::MarkRemote(c, t) => {
                    pool.mark_matched_remote(event(c, t).event_id());
                }
            }
            prop_assert!(pool.entries().iter().all(|c| !c.matched));
            prop_assert_eq!(pool.unmatched_len(), pool.len());
        }
    }
}
