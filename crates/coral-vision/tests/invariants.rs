//! Deterministic invariant tests for the hot vision kernels: Hungarian
//! optimality, Bhattacharyya symmetry/range, and Kalman covariance
//! positive-semidefiniteness over long tracks. These pin fixed seeds so
//! they run identically everywhere; the `proptest_*` suites explore the
//! same invariants over randomized inputs.

use coral_vision::hungarian::{assign, total_cost};
use coral_vision::{BoundingBox, ColorHistogram, Frame, HistogramConfig, KalmanBoxFilter};

/// Minimal deterministic PRNG (PCG-style LCG) so these tests need no
/// external randomness source.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }
}

/// Exhaustive optimal assignment cost (reference implementation).
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

/// Checks that `p` is symmetric, finite, and positive-semidefinite up to
/// numerical tolerance — by Cholesky-factoring `P + εI` with
/// `ε = 1e-9·(1 + tr P)`. Success proves every eigenvalue of `P` is
/// ≥ −ε, i.e. any negativity is pure floating-point round-off.
fn check_covariance_psd(p: &[[f64; 7]; 7]) -> Result<(), String> {
    let mut a = [[0.0f64; 7]; 7];
    for i in 0..7 {
        for j in 0..7 {
            if !p[i][j].is_finite() {
                return Err(format!("non-finite P[{i}][{j}] = {}", p[i][j]));
            }
            let scale = 1.0 + p[i][i].abs().max(p[j][j].abs());
            if (p[i][j] - p[j][i]).abs() > 1e-6 * scale {
                return Err(format!(
                    "asymmetry at ({i},{j}): {} vs {}",
                    p[i][j], p[j][i]
                ));
            }
            a[i][j] = 0.5 * (p[i][j] + p[j][i]);
        }
    }
    let trace: f64 = (0..7).map(|i| a[i][i]).sum();
    if trace < 0.0 {
        return Err(format!("negative trace {trace}"));
    }
    let eps = 1e-9 * (1.0 + trace);
    let mut l = [[0.0f64; 7]; 7];
    for i in 0..7 {
        for j in 0..=i {
            let mut s = a[i][j] + if i == j { eps } else { 0.0 };
            s -= l[i]
                .iter()
                .zip(&l[j])
                .take(j)
                .map(|(x, y)| x * y)
                .sum::<f64>();
            if i == j {
                if s <= 0.0 {
                    return Err(format!("not PSD: Cholesky pivot {s} at row {i}"));
                }
                l[i][i] = s.sqrt();
            } else {
                l[i][j] = s / l[j][j];
            }
        }
    }
    Ok(())
}

#[test]
fn hungarian_matches_brute_force_on_seeded_matrices() {
    let mut rng = Lcg(0x5eed_cafe);
    for round in 0..200 {
        let n = rng.usize_in(1, 6);
        let m = rng.usize_in(1, 6);
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| rng.range(0.0, 100.0)).collect())
            .collect();
        let a = assign(&cost);
        assert_eq!(a.len(), n, "round {round}: one slot per row");
        let assigned: Vec<usize> = a.iter().flatten().copied().collect();
        let mut dedup = assigned.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            assigned.len(),
            "round {round}: columns must be distinct"
        );
        assert_eq!(
            assigned.len(),
            n.min(m),
            "round {round}: matching must be maximum"
        );
        let got = total_cost(&cost, &a);
        let best = brute_force(&cost);
        assert!(
            (got - best).abs() < 1e-9,
            "round {round}: {n}x{m} solver cost {got} vs optimal {best}"
        );
    }
}

fn seeded_histogram(rng: &mut Lcg) -> ColorHistogram {
    let data: Vec<u8> = (0..8 * 8 * 3)
        .map(|_| (rng.next_u64() & 0xff) as u8)
        .collect();
    let frame = Frame::from_raw(8, 8, data).unwrap();
    let bbox = BoundingBox::new(0.0, 0.0, 8.0, 8.0).unwrap();
    ColorHistogram::extract(&frame, &bbox, &HistogramConfig::default())
}

#[test]
fn bhattacharyya_symmetry_and_range_on_seeded_histograms() {
    let mut rng = Lcg(0xb477_ac44);
    for round in 0..100 {
        let a = seeded_histogram(&mut rng);
        let b = seeded_histogram(&mut rng);
        let ab = a.bhattacharyya_distance(&b).unwrap();
        let ba = b.bhattacharyya_distance(&a).unwrap();
        assert!(
            (0.0..=1.0).contains(&ab),
            "round {round}: distance {ab} out of [0,1]"
        );
        assert!(
            (ab - ba).abs() < 1e-12,
            "round {round}: asymmetric {ab} vs {ba}"
        );
        assert!(
            a.bhattacharyya_distance(&a).unwrap() < 1e-6,
            "round {round}: self-distance must vanish"
        );
        let coef = a.bhattacharyya_coefficient(&b).unwrap();
        assert!(
            (0.0..=1.0).contains(&coef),
            "round {round}: coefficient {coef} out of [0,1]"
        );
        // Distance and coefficient are the same comparison on two scales.
        assert!(
            (ab - (1.0 - coef).max(0.0).sqrt()).abs() < 1e-12,
            "round {round}: d={ab} inconsistent with BC={coef}"
        );
    }
}

#[test]
fn bhattacharyya_uniform_extremes() {
    let u = ColorHistogram::uniform(8);
    assert!(u.bhattacharyya_distance(&u).unwrap() < 1e-12);
    assert!((u.bhattacharyya_coefficient(&u).unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn kalman_covariance_stays_psd_over_long_seeded_track() {
    let mut rng = Lcg(0x7ac_e1e7);
    let mut filter =
        KalmanBoxFilter::new(&BoundingBox::from_center(320.0, 240.0, 60.0, 40.0).unwrap());
    let (mut cx, mut cy) = (320.0f64, 240.0f64);
    for step in 0..500 {
        filter.predict();
        // Mostly-observed random walk with occasional long occlusions, the
        // regime where covariance inflation is largest.
        let occluded = rng.unit() < 0.2;
        if !occluded {
            cx = (cx + rng.range(-8.0, 8.0)).clamp(30.0, 610.0);
            cy = (cy + rng.range(-6.0, 6.0)).clamp(30.0, 450.0);
            let w = rng.range(20.0, 90.0);
            let h = rng.range(14.0, 70.0);
            filter.update(&BoundingBox::from_center(cx, cy, w, h).unwrap());
        }
        if let Err(why) = check_covariance_psd(&filter.covariance()) {
            panic!("step {step}: {why}");
        }
    }
}
