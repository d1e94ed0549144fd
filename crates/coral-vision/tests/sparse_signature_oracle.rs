//! Oracle tests for the sparse signature: the Bhattacharyya merge-join
//! over non-zero bins must reproduce, bit for bit, the dense index-order
//! sum over all `bins³` cells that it replaced. That dense definition
//! lives only here, as the reference. Also checked: dense → sparse →
//! dense round-trips exactly, and accumulating sparse signatures equals
//! accumulating their dense bins. `PROPTEST_CASES` raises the case count
//! (read by this file; the proptest stub ignores it).

use coral_vision::{ColorHistogram, SignatureAccumulator};
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Reference Bhattacharyya coefficient: `sqrt(p[i]·q[i])` summed over
/// every dense cell in index order, clamped to 1.
fn dense_coefficient(p: &[f64], q: &[f64]) -> f64 {
    p.iter()
        .zip(q)
        .fold(0.0, |acc, (a, b)| acc + (a * b).sqrt())
        .min(1.0)
}

fn dense_distance(p: &[f64], q: &[f64]) -> f64 {
    (1.0 - dense_coefficient(p, q)).max(0.0).sqrt()
}

/// The dense bins of `h`, zero where no pair is stored.
fn to_dense(h: &ColorHistogram) -> Vec<f64> {
    let mut dense = vec![0.0; h.bins_per_channel().pow(3)];
    for &(i, v) in h.bins() {
        dense[i] = v;
    }
    dense
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A normalised dense signature over `bins_per_channel³` cells, shaped by
/// `shape`:
/// - 0: the uniform histogram, every bin non-zero;
/// - 1: every bin non-zero, random values;
/// - 2: about `density` of the bins non-zero;
/// - 3: as 2, with half the values scaled by 1e-160 so products of two
///   of them underflow.
///
/// The bin at `at` (modulo the cell count) is always non-zero.
fn dense_signature(
    bins_per_channel: usize,
    shape: u8,
    draws: &[f64],
    density: f64,
    at: usize,
) -> Vec<f64> {
    let cells = bins_per_channel.pow(3);
    if shape == 0 {
        return vec![1.0 / cells as f64; cells];
    }
    let raw: Vec<f64> = (0..cells)
        .map(|i| {
            let d = draws[i];
            let kept = shape == 1 || i == at % cells || d < density;
            let v = if kept { d + 1e-3 } else { 0.0 };
            if shape == 3 && i % 2 == 1 {
                v * 1e-160
            } else {
                v
            }
        })
        .collect();
    let total: f64 = raw.iter().sum();
    raw.iter().map(|v| v / total).collect()
}

fn arb_dense(bins_per_channel: usize) -> impl Strategy<Value = Vec<f64>> {
    (
        0u8..4,
        proptest::collection::vec(0.0f64..1.0, 512),
        0.0f64..1.0,
        0usize..512,
    )
        .prop_map(move |(shape, draws, density, at)| {
            dense_signature(bins_per_channel, shape, &draws, density, at)
        })
}

fn arb_pair() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (1usize..=8).prop_flat_map(|b| (Just(b), arb_dense(b), arb_dense(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Coefficient and distance bits equal the dense reference, in both
    /// argument orders.
    #[test]
    fn sparse_distance_matches_dense_oracle((b, p, q) in arb_pair()) {
        let (hp, hq) = (
            ColorHistogram::from_bins(b, p.clone()).unwrap(),
            ColorHistogram::from_bins(b, q.clone()).unwrap(),
        );
        for (x, y, dx, dy) in [(&hp, &hq, &p, &q), (&hq, &hp, &q, &p)] {
            prop_assert_eq!(
                x.bhattacharyya_coefficient(y).map(f64::to_bits),
                Some(dense_coefficient(dx, dy).to_bits())
            );
            prop_assert_eq!(
                x.bhattacharyya_distance(y).map(f64::to_bits),
                Some(dense_distance(dx, dy).to_bits())
            );
        }
    }

    /// Dense → sparse → dense is exact, and the sparse form holds exactly
    /// the non-zero bins, ascending.
    #[test]
    fn dense_round_trip_is_exact((b, p, _q) in arb_pair()) {
        let h = ColorHistogram::from_bins(b, p.clone()).unwrap();
        prop_assert_eq!(bits(&to_dense(&h)), bits(&p));
        prop_assert_eq!(h.bins().len(), p.iter().filter(|&&v| v > 0.0).count());
        prop_assert!(h.bins().windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert_eq!(ColorHistogram::from_sparse(b, h.bins().to_vec()), Ok(h));
    }

    /// Accumulating sparse signatures gives the same mean signature as
    /// accumulating their dense bins.
    #[test]
    fn sparse_accumulation_matches_dense((b, p, q) in arb_pair()) {
        let (mut sparse, mut dense) = (SignatureAccumulator::new(), SignatureAccumulator::new());
        for d in [&p, &q, &p] {
            sparse.add(&ColorHistogram::from_bins(b, d.clone()).unwrap());
            dense.add_bins(d, b);
        }
        prop_assert_eq!(sparse.signature(), dense.signature());
        let mean = sparse.signature().unwrap();
        prop_assert!(mean.bins().iter().all(|&(_, v)| v > 0.0));
    }
}

#[test]
fn uniform_is_every_bin_and_matches_the_oracle() {
    for b in 1..=8usize {
        let cells = b.pow(3);
        let u = ColorHistogram::uniform(b);
        let dense = vec![1.0 / cells as f64; cells];
        assert_eq!(u.bins().len(), cells);
        assert_eq!(ColorHistogram::from_bins(b, dense.clone()), Ok(u.clone()));
        assert_eq!(
            u.bhattacharyya_distance(&u).map(f64::to_bits),
            Some(dense_distance(&dense, &dense).to_bits())
        );
    }
}

#[test]
fn different_bins_per_channel_are_not_comparable() {
    for (a, b) in [(1, 2), (8, 4), (3, 8)] {
        let (ha, hb) = (ColorHistogram::uniform(a), ColorHistogram::uniform(b));
        assert_eq!(ha.bhattacharyya_distance(&hb), None);
        assert_eq!(hb.bhattacharyya_coefficient(&ha), None);
    }
}
