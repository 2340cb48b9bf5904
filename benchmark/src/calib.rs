//! Machine-speed correction.
//!
//! The sandbox this benchmark runs in changes speed under the program:
//! a fixed loop takes 100 %, 128 % or 146 % of its best time for seconds
//! to minutes at a stretch (CPU time moves with wall time, so it is the
//! core that slows, not the scheduler that steals). No run length the
//! contract allows averages that out, and it would drown every bound.
//!
//! So the harness carries its own clock: a fixed floating-point kernel
//! of the same kind as the program's (dense `f32` matrix–vector
//! products), run right next to everything that is timed. A time is
//! reported as `measured × NOMINAL_S ÷ kernel time measured beside it`
//! — the time it would have taken had the kernel run at its nominal
//! speed throughout. The kernel is the benchmark's own code, so no
//! change to the program can move it; raw times and the speed factors
//! are kept in `out/result.json`.

use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the reference machine at its usual
/// speed. Only a scale: both sides of a comparison share it.
pub const NOMINAL_S: f64 = 0.002;

const N: usize = 64;
const ROUNDS: usize = 1500;

/// Seconds one run of the kernel takes right now.
pub fn slice() -> f64 {
    let w: Vec<f32> = (0..N * N)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f32 / 1000.0 - 0.5)
        .collect();
    let w = black_box(w);
    let mut x = vec![1.0f32; N];
    let mut y = vec![0.0f32; N];
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for (row, out) in w.chunks_exact(N).zip(y.iter_mut()) {
            let dot: f32 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            *out = dot * 0.03 + 0.1;
        }
        std::mem::swap(&mut x, &mut y);
    }
    black_box(&x);
    started.elapsed().as_secs_f64()
}

/// How slow the machine is right now: kernel time over nominal, the
/// median of three runs (1.0 = nominal, 1.3 = 30 % slower).
pub fn slowdown() -> f64 {
    let mut runs = [slice(), slice(), slice()];
    runs.sort_by(f64::total_cmp);
    runs[1] / NOMINAL_S
}

/// The machine changed speed under a measurement when the readings on
/// either side of it differ by more than this share.
pub const STEADY_WITHIN: f64 = 0.05;

/// How far a set of slowdown readings disagree: the highest over the
/// lowest, minus one.
pub fn disagreement(readings: &[f64]) -> f64 {
    let lo = readings.iter().copied().fold(f64::MAX, f64::min);
    let hi = readings.iter().copied().fold(0.0, f64::max);
    hi / lo - 1.0
}

/// Runs `f` between two speed readings; returns its result, its raw
/// seconds, and the two readings (divide by their mean to correct).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, [f64; 2]) {
    let before = slowdown();
    let started = Instant::now();
    let out = f();
    let raw_s = started.elapsed().as_secs_f64();
    (out, raw_s, [before, slowdown()])
}

/// Corrected seconds of `f`, for callers that do not need the readings.
pub fn corrected<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, raw_s, [before, after]) = timed(f);
    (out, raw_s * 2.0 / (before + after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_the_range_of_the_readings() {
        assert!(disagreement(&[1.00, 1.04, 1.02]) <= STEADY_WITHIN);
        assert!(disagreement(&[1.00, 1.06]) > STEADY_WITHIN);
        assert!((disagreement(&[1.30, 1.00, 1.01, 1.02]) - 0.30).abs() < 1e-12);
        assert_eq!(disagreement(&[1.6]), 0.0);
    }

    #[test]
    fn the_kernel_takes_time_and_stays_finite() {
        let s = slice();
        assert!(s > 0.0 && s.is_finite());
    }
}
