//! Property-based invariants for the vision substrate.

use coral_vision::{
    hungarian, kalman, BoundingBox, ColorHistogram, Frame, HistogramConfig, SortConfig, SortTracker,
};
use proptest::prelude::*;

fn arb_bbox() -> impl Strategy<Value = BoundingBox> {
    (0.0f64..500.0, 0.0f64..400.0, 1.0f64..80.0, 1.0f64..60.0)
        .prop_map(|(x, y, w, h)| BoundingBox::new(x, y, x + w, y + h).unwrap())
}

fn arb_histogram() -> impl Strategy<Value = ColorHistogram> {
    // Random pixel content in a small frame.
    proptest::collection::vec(0u8..=255, 8 * 8 * 3).prop_map(|data| {
        let frame = Frame::from_raw(8, 8, data).unwrap();
        let bbox = BoundingBox::new(0.0, 0.0, 8.0, 8.0).unwrap();
        ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default())
    })
}

proptest! {
    #[test]
    fn iou_bounds_and_symmetry(a in arb_bbox(), b in arb_bbox()) {
        let ab = a.iou(&b);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - b.iou(&a)).abs() < 1e-12);
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_area_never_exceeds_either(a in arb_bbox(), b in arb_bbox()) {
        if let Some(inter) = a.intersection(&b) {
            prop_assert!(inter.area() <= a.area() + 1e-9);
            prop_assert!(inter.area() <= b.area() + 1e-9);
        }
    }

    #[test]
    fn bbox_z_roundtrip(b in arb_bbox()) {
        let z = kalman::bbox_to_z(&b);
        let back = kalman::z_to_bbox(z[0], z[1], z[2], z[3]);
        prop_assert!(b.iou(&back) > 0.999, "roundtrip degraded: {b} -> {back}");
    }

    #[test]
    fn histogram_is_a_distribution(h in arb_histogram()) {
        let sum: f64 = h.bins().iter().map(|&(_, v)| v).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(h.bins().iter().all(|&(_, v)| v > 0.0));
    }

    #[test]
    fn bhattacharyya_is_a_bounded_semimetric(a in arb_histogram(), b in arb_histogram()) {
        let d = a.bhattacharyya_distance(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - b.bhattacharyya_distance(&a).unwrap()).abs() < 1e-12);
        prop_assert!(a.bhattacharyya_distance(&a).unwrap() < 1e-6);
    }

    #[test]
    fn hungarian_assignment_is_valid_and_optimal(
        rows in 1usize..5, cols in 1usize..5, seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let cost: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let assignment = hungarian::assign(&cost);
        // Validity: distinct columns, exactly min(rows, cols) assigned.
        let assigned: Vec<usize> = assignment.iter().flatten().copied().collect();
        let mut dedup = assigned.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), assigned.len());
        prop_assert_eq!(assigned.len(), rows.min(cols));
        // Optimality vs exhaustive search.
        let got = hungarian::total_cost(&cost, &assignment);
        let best = brute_force(&cost);
        prop_assert!((got - best).abs() < 1e-9, "got {got} best {best}");
    }

    #[test]
    fn sort_never_reports_more_tracks_than_detections(
        n_frames in 1usize..20, dets_per_frame in 0usize..6, seed in 0u64..200,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sort = SortTracker::new(SortConfig::default());
        for _ in 0..n_frames {
            let dets: Vec<BoundingBox> = (0..dets_per_frame)
                .map(|_| {
                    BoundingBox::from_center(
                        rng.gen_range(20.0..300.0),
                        rng.gen_range(20.0..200.0),
                        30.0,
                        20.0,
                    )
                    .unwrap()
                })
                .collect();
            let out = sort.update(&dets);
            prop_assert!(out.active.len() <= dets.len());
            // Active track ids are unique within a frame.
            let mut ids: Vec<_> = out.active.iter().map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), out.active.len());
        }
    }

    #[test]
    fn sort_expiry_conserves_tracks(seed in 0u64..200) {
        // Every reported track eventually expires exactly once (via miss
        // aging or flush).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sort = SortTracker::new(SortConfig::default());
        let mut reported = std::collections::HashSet::new();
        let mut expired = Vec::new();
        for t in 0..30 {
            let dets: Vec<BoundingBox> = if t % 7 < 4 {
                (0..2)
                    .map(|k| {
                        BoundingBox::from_center(
                            50.0 + 100.0 * k as f64 + rng.gen_range(-2.0..2.0),
                            60.0,
                            30.0,
                            20.0,
                        )
                        .unwrap()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let out = sort.update(&dets);
            for st in &out.active {
                reported.insert(st.id);
            }
            expired.extend(out.expired.iter().map(|e| e.id));
        }
        expired.extend(sort.flush().iter().map(|e| e.id));
        let expired_set: std::collections::HashSet<_> = expired.iter().copied().collect();
        prop_assert_eq!(expired_set.len(), expired.len(), "double expiry");
        prop_assert_eq!(expired_set, reported, "every reported track expires once");
    }
}

fn brute_force(cost: &[Vec<f64>]) -> f64 {
    let n = cost.len();
    let m = cost[0].len();
    if n > m {
        let t: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..n).map(|i| cost[i][j]).collect())
            .collect();
        return brute_force(&t);
    }
    let cols: Vec<usize> = (0..m).collect();
    let mut best = f64::INFINITY;
    permute(&cols, n, &mut Vec::new(), &mut |perm| {
        let c: f64 = perm.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
        if c < best {
            best = c;
        }
    });
    best
}

fn permute(pool: &[usize], k: usize, cur: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
    if cur.len() == k {
        f(cur);
        return;
    }
    for &c in pool {
        if !cur.contains(&c) {
            cur.push(c);
            permute(pool, k, cur, f);
            cur.pop();
        }
    }
}
