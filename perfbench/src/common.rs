//! Helpers shared by the workloads: repetition loops and bitwise comparison.

use std::hint::black_box;
use std::time::Instant;

use pfp_ehr::{generate_cohort, Cohort, CohortConfig};
use pfp_math::rng::derive_seed;
use pfp_math::Matrix;

/// Set-up runs per workload run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Cohorts per run on `cv-train`, `census-whatif` and `train-streamed`,
/// each generated from its own seed derived from `--seed`.  What one cohort
/// costs moves with the cohort (a CV's pass count, a suite's step count, a
/// streamed train's largest shard, by about 10%); one operation runs on
/// every cohort, so that movement is averaged within a run instead of
/// showing between runs.
pub const COHORTS: usize = 3;

/// Operations per run at least, so every repeat is checked against the
/// first.
pub const MIN_RUNS: usize = 2;

/// The seeds of a run's cohorts.
pub fn cohort_seeds(seed: u64) -> Vec<u64> {
    (0..COHORTS as u64).map(|k| derive_seed(seed, k)).collect()
}

/// Threads for training and load generation: the host's core count the
/// workloads were sized for.  Fixed, so runs on larger hosts stay comparable.
pub const THREADS: usize = 2;

/// Run `f` at least `min` times and then until `budget_s` seconds have
/// passed since the first call; returns each call's wall time with its
/// output.
pub fn repeat_for<T>(budget_s: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<(f64, T)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        let v = f();
        out.push((t.elapsed().as_secs_f64(), v));
    }
    out
}

/// Time a replay of one kernel call: at least 5 calls, then until 0.2 s or
/// 2000 calls.  `f` does any per-call reset itself and returns the seconds
/// of its timed section (see [`since`]).
pub fn replay(mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (times.len() < 2000 && start.elapsed().as_secs_f64() < 0.2) {
        times.push(f());
    }
    times
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Wall time of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Run `f`; returns its output and the peak heap growth during the call,
/// in MiB above the live heap at its start, as the tracking global
/// allocator counts it.  Process-wide: helper threads' allocations count.
pub fn with_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let base = pfp_bench::mem::current_bytes();
    pfp_bench::mem::reset_peak();
    let out = f();
    let peak = pfp_bench::mem::peak_bytes().saturating_sub(base);
    (out, peak as f64 / (1024.0 * 1024.0))
}

/// Seconds as milliseconds.
pub fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// Run a workload's set-up [`SETUP_REPS`] times.  `f` returns its output and
/// the seconds it spent generating the cohort.  Returns the last output,
/// each run's total seconds and each run's generation seconds.
pub fn setup<T>(mut f: impl FnMut() -> (T, f64)) -> (T, Vec<f64>, Vec<f64>) {
    let mut total = Vec::new();
    let mut generate = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let ((out, gen_s), s) = timed(&mut f);
        total.push(s);
        generate.push(gen_s);
        last = Some(out);
    }
    (last.expect("SETUP_REPS > 0"), total, generate)
}

/// Generate a cohort, returning it with the seconds it took.
pub fn generate(config: &CohortConfig) -> (Cohort, f64) {
    timed(|| generate_cohort(config))
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn same_matrix(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && same_bits(a.as_slice(), b.as_slice())
}

/// FNV-1a over the bits of `values`: a short fingerprint for the log, so two
/// runs at one seed can be compared by eye.
pub fn fingerprint<'a>(values: impl IntoIterator<Item = &'a f64>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
