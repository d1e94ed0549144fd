//! Property-based invariants for the run-level accuracy metrics.

use coral_core::Passage;
use coral_eval::{event_detection_accuracy, transitions_from_passages, Accuracy};
use coral_topology::CameraId;
use coral_vision::GroundTruthId;
use proptest::prelude::*;

proptest! {
    #[test]
    fn f_beta_is_finite_and_bounded_for_any_positive_beta(
        tp in 0u64..1_000_000,
        fp in 0u64..1_000_000,
        fn_ in 0u64..1_000_000,
        beta in 1e-6f64..64.0,
    ) {
        let acc = Accuracy { tp, fp, fn_ };
        let f = acc.f_beta(beta);
        prop_assert!(!f.is_nan(), "f_beta({beta}) is NaN for {acc:?}");
        prop_assert!((0.0..=1.0).contains(&f), "f_beta({beta}) = {f} for {acc:?}");
    }

    #[test]
    fn accuracy_merge_is_commutative_and_associative(
        a in (0u64..1000, 0u64..1000, 0u64..1000),
        b in (0u64..1000, 0u64..1000, 0u64..1000),
        c in (0u64..1000, 0u64..1000, 0u64..1000),
    ) {
        let acc = |(tp, fp, fn_)| Accuracy { tp, fp, fn_ };
        // Named fn, not a closure: rustc 1.95 at opt-level 1 miscompiles
        // closures that mutate and return a by-value `mut` parameter.
        fn merged(mut x: Accuracy, y: Accuracy) -> Accuracy {
            x.merge(y);
            x
        }
        // Commutative: a ∪ b == b ∪ a.
        prop_assert_eq!(merged(acc(a), acc(b)), merged(acc(b), acc(a)));
        // Associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        prop_assert_eq!(
            merged(merged(acc(a), acc(b)), acc(c)),
            merged(acc(a), merged(acc(b), acc(c)))
        );
    }

    #[test]
    fn f_beta_bounds_and_monotonicity(tp in 0u64..50, fp in 0u64..50, fn_ in 0u64..50) {
        let acc = Accuracy { tp, fp, fn_ };
        for beta in [0.5, 1.0, 2.0] {
            let f = acc.f_beta(beta);
            prop_assert!((0.0..=1.0).contains(&f), "f_{beta} = {f}");
        }
        // Adding a true positive never lowers any score.
        let better = Accuracy { tp: tp + 1, fp, fn_ };
        prop_assert!(better.f2() >= acc.f2() - 1e-12);
        prop_assert!(better.precision() >= acc.precision() - 1e-12);
        prop_assert!(better.recall() >= acc.recall() - 1e-12);
        // Adding a false negative never raises recall or F2.
        let worse = Accuracy { tp, fp, fn_: fn_ + 1 };
        prop_assert!(worse.recall() <= acc.recall() + 1e-12);
        prop_assert!(worse.f2() <= acc.f2() + 1e-12);
    }

    #[test]
    fn detection_accuracy_conserves_counts(
        passages in proptest::collection::vec((0u32..4, 0u64..8, 0u64..1000), 0..30),
        events in proptest::collection::vec((0u32..4, proptest::option::of(0u64..8)), 0..30),
    ) {
        let passages: Vec<Passage> = passages
            .into_iter()
            .map(|(c, v, t)| Passage {
                camera: CameraId(c),
                vehicle: GroundTruthId(v),
                entered_ms: t,
            })
            .collect();
        let events: Vec<(CameraId, Option<GroundTruthId>)> = events
            .into_iter()
            .map(|(c, v)| (CameraId(c), v.map(GroundTruthId)))
            .collect();
        let per_cam = event_detection_accuracy(&passages, &events);
        let mut total = Accuracy::default();
        for acc in per_cam.values() {
            total.merge(*acc);
        }
        // Every event is a TP or FP; every passage is a TP or FN.
        prop_assert_eq!(total.tp + total.fp, events.len() as u64);
        prop_assert_eq!(total.tp + total.fn_, passages.len() as u64);
    }

    #[test]
    fn transitions_respect_time_order_and_count(
        passages in proptest::collection::vec((0u32..5, 0u64..6, 0u64..100_000), 0..40),
    ) {
        let passages: Vec<Passage> = passages
            .into_iter()
            .map(|(c, v, t)| Passage {
                camera: CameraId(c),
                vehicle: GroundTruthId(v),
                entered_ms: t,
            })
            .collect();
        let transitions = transitions_from_passages(&passages);
        // At most passages-1 transitions per vehicle.
        for v in 0..6u64 {
            let p_count = passages
                .iter()
                .filter(|p| p.vehicle == GroundTruthId(v))
                .count();
            let t_count = transitions
                .iter()
                .filter(|t| t.vehicle == GroundTruthId(v))
                .count();
            prop_assert!(t_count <= p_count.saturating_sub(1));
        }
        // Transitions never link a camera to itself.
        prop_assert!(transitions.iter().all(|t| t.from != t.to));
    }
}
