//! Core-speed calibration. In a shared sandbox the vCPU's speed moves by
//! a quarter for seconds to minutes at a time (turbo budget, SMT
//! neighbours), so the same code measures 33 ms or 42 ms per tick
//! depending on when it ran. A fixed, latency-bound integer loop sees the
//! same factor. The harness runs it (untimed) before and after every
//! step and divides the step's wall time by the loop's slowdown against
//! [`REFERENCE_MS`]: end-to-end times are in *reference-core*
//! milliseconds. The raw wall-clock figures are printed beside them.
//!
//! The loop touches no memory, so contention for cache or DRAM bandwidth
//! is not corrected — that noise stays in the numbers.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What one [`sample`] takes on the machine the bounds in
/// `BENCHMARK.json` were measured on, in its fast state. On other
/// hardware every normalised figure shifts by one constant factor, which
/// cancels when two commits are compared on the same machine.
pub const REFERENCE_MS: f64 = 0.215;

const ITERATIONS: u32 = 150_000;

/// Time one run of the calibration loop, in milliseconds: a dependent
/// multiply–add–xorshift chain, about six cycles an iteration whatever
/// the compiler does with it.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Slowdown of the core over `samples`: their median over the reference.
/// A median, so one sample that was pre-empted does not count.
pub fn slowdown_of(samples: &[f64]) -> f64 {
    median(samples).expect("at least one calibration sample") / REFERENCE_MS
}

/// Slowdown of the core around step `k`, given `samples[2k]` taken just
/// before step `k` and `samples[2k + 1]` just after it: over the four
/// nearest samples (the step's own pair and one neighbour on each side,
/// fewer at the ends).
pub fn slowdown(samples: &[f64], k: usize) -> f64 {
    let lo = (2 * k).saturating_sub(1);
    let hi = (2 * k + 3).min(samples.len());
    slowdown_of(&samples[lo..hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_local_median_over_the_reference() {
        let r = REFERENCE_MS;
        // three steps: (before, after) pairs
        let samples = [r, r, 9.0 * r, r, 2.0 * r, 2.0 * r];
        assert!(
            (slowdown(&samples, 0) - 1.0).abs() < 1e-12,
            "first: its pair + the next before"
        );
        assert!(
            (slowdown(&samples, 1) - 1.5).abs() < 1e-12,
            "[r, 9r, r, 2r]: the 9r is ignored"
        );
        assert!(
            (slowdown(&samples, 2) - 2.0).abs() < 1e-12,
            "last: window clipped to [r, 2r, 2r]"
        );
    }

    #[test]
    fn sample_takes_time() {
        assert!(sample() > 0.0);
    }
}
