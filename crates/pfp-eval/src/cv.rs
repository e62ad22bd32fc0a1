//! K-fold cross-validation (Section 4.1: 10-fold CV over the training data).
//!
//! Folds are split by patient.  Training of the per-fold models is embarrassingly
//! parallel, so the harness runs folds on `std::thread::scope` threads — but
//! since DMCP training is itself sample-parallel (`TrainConfig::threads`),
//! running all folds at once would oversubscribe the machine with
//! `folds × inner-threads` workers.  [`cross_validate_warm`] therefore caps
//! how many folds are in flight at once.  Fold results are always collected
//! in fold order, so the concurrency cap never changes which validation
//! split a report belongs to.

use pfp_baselines::FlowPredictor;
use pfp_core::{Dataset, WarmStart};
use serde::{Deserialize, Serialize};

use crate::metrics::{evaluate, AccuracyReport};

/// Aggregated cross-validation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CvResult {
    /// One report per fold (validation accuracy).
    pub fold_reports: Vec<AccuracyReport>,
    /// Mean of the per-fold reports.
    pub mean: AccuracyReport,
}

impl CvResult {
    /// Standard deviation of the overall destination accuracy across folds.
    pub fn overall_cu_std(&self) -> f64 {
        let accs: Vec<f64> = self.fold_reports.iter().map(|r| r.overall_cu).collect();
        pfp_math::stats::std_dev(&accs)
    }

    /// Standard deviation of the overall duration accuracy across folds.
    pub fn overall_duration_std(&self) -> f64 {
        let accs: Vec<f64> = self
            .fold_reports
            .iter()
            .map(|r| r.overall_duration)
            .collect();
        pfp_math::stats::std_dev(&accs)
    }
}

/// Run `k`-fold cross-validation, training with `train_fn` on each fold's
/// training split and evaluating on its validation split, with ADMM
/// warm-start state carried across folds.
///
/// `train_fn` receives the fold's training split plus the warm state carried
/// over from earlier folds (`None` for the very first wave), and returns the
/// trained predictor together with the state to carry forward (`None` keeps
/// the current carry).  Fold models differ only in which ~`1/k` of the
/// patients are held out, so the previous fold's `(Θ, Y, ρ, step)` is close
/// to the next fold's solution and cuts its passes-to-tolerance.  A cold CV
/// is a `train_fn` that always returns `None`: no state is ever carried, and
/// every fold sees `None`.
///
/// Folds run in waves of `max_concurrent_folds` scoped threads, and every
/// fold in a wave seeds from the carry left by the *previous* wave (the last
/// fold, in fold order, that returned a state).  With
/// `max_concurrent_folds = 1` this is strict fold-to-fold chaining; with a
/// larger cap the folds inside one wave share a seed, so the cap changes
/// which seed each fold sees (never the validation split or the stopping
/// tolerances).  For a cold CV the cap only changes scheduling, never the
/// result (given a deterministic `train_fn`).
///
/// ```no_run
/// use pfp_baselines::{DmcpPredictor, MethodId};
/// use pfp_core::TrainConfig;
/// use pfp_eval::cv::cross_validate_warm;
/// # let dataset: pfp_core::Dataset = unimplemented!();
///
/// // Cold 10-fold CV, two folds at a time, each training on one thread.
/// let config = TrainConfig::paper_default().with_threads(1);
/// let result = cross_validate_warm(&dataset, 10, 7, 2, |train, _| {
///     (DmcpPredictor::train(train, &config, MethodId::Dmcp), None)
/// });
/// ```
pub fn cross_validate_warm<P, F>(
    dataset: &Dataset,
    k: usize,
    seed: u64,
    max_concurrent_folds: usize,
    train_fn: F,
) -> CvResult
where
    P: FlowPredictor + Send,
    F: Fn(&Dataset, Option<&WarmStart>) -> (P, Option<WarmStart>) + Sync,
{
    let folds = dataset.k_folds(k, seed);
    let max_concurrent = max_concurrent_folds.max(1);
    let mut fold_reports: Vec<AccuracyReport> = Vec::with_capacity(folds.len());
    let mut carry: Option<WarmStart> = None;
    for wave in folds.chunks(max_concurrent) {
        let carry_ref = carry.as_ref();
        let wave_results: Vec<(AccuracyReport, Option<WarmStart>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = wave
                .iter()
                .map(|(train, val)| {
                    let train_fn = &train_fn;
                    scope.spawn(move || {
                        let (model, state) = train_fn(train, carry_ref);
                        (evaluate(&model, val), state)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fold thread panicked"))
                .collect()
        });
        for (report, state) in wave_results {
            if state.is_some() {
                carry = state;
            }
            fold_reports.push(report);
        }
    }

    let mean = AccuracyReport::average(&fold_reports);
    CvResult { fold_reports, mean }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_baselines::MarkovPredictor;
    use pfp_ehr::{generate_cohort, CohortConfig};

    /// A cold fold trainer: fits Markov and never carries a state.
    fn cold(train: &Dataset, _: Option<&WarmStart>) -> (MarkovPredictor, Option<WarmStart>) {
        (MarkovPredictor::train(train), None)
    }

    #[test]
    fn cross_validation_produces_one_report_per_fold() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(141)));
        let result = cross_validate_warm(&ds, 4, 9, 4, cold);
        assert_eq!(result.fold_reports.len(), 4);
        for r in &result.fold_reports {
            assert!(r.num_samples > 0);
            assert!((0.0..=1.0).contains(&r.overall_cu));
        }
        assert!((0.0..=1.0).contains(&result.mean.overall_cu));
        assert!(result.overall_cu_std() < 0.5);
        assert!(result.overall_duration_std() < 0.5);
    }

    #[test]
    fn fold_validation_sets_partition_the_samples() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(142)));
        let result = cross_validate_warm(&ds, 5, 11, 5, cold);
        let total: usize = result.fold_reports.iter().map(|r| r.num_samples).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn fold_concurrency_cap_does_not_change_the_result() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(143)));
        let cold_checked = |train: &Dataset, carry: Option<&WarmStart>| {
            assert!(carry.is_none(), "nobody returned a state, so none arrives");
            cold(train, carry)
        };
        let all_at_once = cross_validate_warm(&ds, 4, 9, 4, cold_checked);
        let one_at_a_time = cross_validate_warm(&ds, 4, 9, 1, cold_checked);
        let two_waves = cross_validate_warm(&ds, 4, 9, 2, cold_checked);
        for (a, b) in all_at_once
            .fold_reports
            .iter()
            .zip(one_at_a_time.fold_reports.iter())
        {
            assert_eq!(a.num_samples, b.num_samples);
            assert!((a.overall_cu - b.overall_cu).abs() < 1e-15);
        }
        assert!((all_at_once.mean.overall_cu - two_waves.mean.overall_cu).abs() < 1e-15);
    }

    #[test]
    fn warm_state_is_carried_across_waves_not_within_them() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(145)));
        let dummy = || pfp_core::WarmStart {
            theta: pfp_math::Matrix::zeros(2, 3),
            y: pfp_math::Matrix::zeros(2, 3),
            rho: 1.0,
            step: 0.5,
        };
        for (cap, expected_seeded) in [(1usize, 3usize), (4, 0), (2, 2)] {
            let seeded = AtomicUsize::new(0);
            cross_validate_warm(&ds, 4, 9, cap, |train, carry| {
                if carry.is_some() {
                    seeded.fetch_add(1, Ordering::SeqCst);
                }
                (MarkovPredictor::train(train), Some(dummy()))
            });
            assert_eq!(
                seeded.load(Ordering::SeqCst),
                expected_seeded,
                "cap={cap}: every fold after the first wave should see a carry"
            );
        }
    }
}
