//! Host-speed normalisation.
//!
//! On a shared two-vCPU host the CPU itself runs 25–40% faster or slower
//! from one few-second stretch to the next (a fixed loop's time moves that
//! much while nothing else runs in the guest), and thread CPU time moves
//! with wall time, so no clock hides it. The benchmark therefore times a
//! fixed reference computation next to the work it measures — after every
//! frame period, every set-up slice and every 64 queries — and rescales
//! measured times by `REFERENCE_US / (reference time)`: the time the work
//! would have taken with the reference at its nominal speed. Queries take
//! the rolling median of the recent samples; a set-up takes the median of
//! the samples around it, and frame periods the median over the window.
//! Raw times are reported beside the normalised ones.

use std::collections::VecDeque;
use std::time::Instant;

/// Nominal time of one reference computation, µs. The kernel is sized to
/// take about this long on a 2.1 GHz core with an idle sibling, so
/// normalised times read close to raw ones on a quiet host.
pub const REFERENCE_US: f64 = 150.0;

/// Dependent loads per reference computation.
const STEPS: usize = 20_000;

/// Reference samples the rolling median spans.
const WINDOW: usize = 9;

/// Times the reference computation and keeps a rolling median of it.
#[derive(Debug)]
pub struct SpeedTracker {
    table: Vec<u64>,
    recent: VecDeque<f64>,
    samples: Vec<f64>,
}

impl Default for SpeedTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedTracker {
    /// A tracker over a 1 MiB table.
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let table = (0..1 << 17)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self {
            table,
            recent: VecDeque::with_capacity(WINDOW),
            samples: Vec::new(),
        }
    }

    /// One reference computation: a chain of dependent table loads mixed
    /// with multiplies, so it slows with the core the way the system's
    /// pointer chasing and arithmetic do.
    fn reference(&self) -> u64 {
        let mask = self.table.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(self.table[(x >> 43) as usize & mask]);
        }
        x
    }

    /// Times one reference computation and returns the current scale
    /// factor, `REFERENCE_US / median(last WINDOW samples)`.
    pub fn sample(&mut self) -> f64 {
        // Touch the whole table first, untimed: the timed pass then
        // measures the core and its caches, not what the work before it
        // left in them (which would tie the reference to the program).
        std::hint::black_box(self.table.iter().fold(0u64, |a, &v| a ^ v));
        let t = Instant::now();
        std::hint::black_box(self.reference());
        let us = t.elapsed().as_secs_f64() * 1e6;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(us);
        self.samples.push(us);
        self.factor()
    }

    /// The current scale factor (1 before the first sample).
    pub fn factor(&self) -> f64 {
        if self.recent.is_empty() {
            return 1.0;
        }
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        REFERENCE_US / v[v.len() / 2]
    }

    /// Every sample taken, µs.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_a_rolling_median() {
        let mut t = SpeedTracker::new();
        assert_eq!(t.factor(), 1.0);
        for us in [50.0, 400.0, 50.0, 200.0, 200.0] {
            t.recent.push_back(us);
        }
        // Median of {50, 50, 200, 200, 400} is 200.
        assert_eq!(t.factor(), REFERENCE_US / 200.0);
        let f = t.sample();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(t.samples().len(), 1);
        for _ in 0..20 {
            t.sample();
        }
        assert_eq!(t.recent.len(), WINDOW, "the window stays bounded");
    }
}
