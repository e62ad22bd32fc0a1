//! `census-whatif`: closed-loop census forecasts for the baseline and the
//! four what-if scenarios of `repro_whatif`.
//!
//! Each forecast's rollouts run on one thread and walk the per-sample
//! `SparseVec` path: re-featurize the history, then score it.  The fused CSR
//! pass is absent.  One operation forecasts the suite on several cohorts,
//! two forecasts at a time: with one core left idle, the host's other load
//! moved single-threaded suite times by up to 1.8× within a run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pfp_baselines::{DmcpPredictor, GenerativePredictor, MethodId};
use pfp_core::dataset::RawSample;
use pfp_core::{Dataset, TrainConfig};
use pfp_ehr::departments::CareUnit;
use pfp_ehr::CohortConfig;
use pfp_eval::census::{census_errors_f64, CENSUS_DAYS};
use pfp_eval::metrics::evaluate;
use pfp_eval::scenario::{
    actual_census, forecast_census, AdmissionModel, CensusForecast, ForecastConfig, Perturbation,
    Scenario,
};

use crate::common::{
    cohort_seeds, fingerprint, generate, ms, repeat_for, replay, same_bits, setup, since, timed,
    with_peak, COHORTS, MIN_RUNS, THREADS,
};
use crate::json::Json;
use crate::outcome::Outcome;
use crate::trace::{TimedPredictor, Tracer};
use crate::RunConfig;

pub const SCALE: f64 = 0.05;
pub const ROLLOUTS: usize = 8;
const TEST_FRACTION: f64 = 0.2;
/// Rollout inputs kept for the featurize and scoring replays.
const CAPTURE: usize = 2_000;

/// The baseline plus the what-if suite of `repro_whatif`.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::baseline(),
        Scenario::named("surge-2x").with(Perturbation::AdmissionSurge { scale: 2.0 }),
        Scenario::named("micu-closed").with(Perturbation::UnitClosure {
            cu: CareUnit::Micu.index(),
        }),
        Scenario::named("nicu-slow-discharge").with(Perturbation::LosShift {
            cu: CareUnit::Nicu.index(),
            factor: 1.5,
        }),
        Scenario::named("winter-crunch")
            .with(Perturbation::AdmissionSurge { scale: 1.5 })
            .with(Perturbation::UnitClosure {
                cu: CareUnit::Ccu.index(),
            })
            .with(Perturbation::LosShift {
                cu: CareUnit::Gw.index(),
                factor: 1.25,
            }),
    ]
}

fn forecast_bits(f: &CensusForecast) -> Vec<f64> {
    f.mean
        .iter()
        .chain(&f.lo)
        .chain(&f.hi)
        .flatten()
        .copied()
        .collect()
}

fn same_suite(a: &[CensusForecast], b: &[CensusForecast]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| same_bits(&forecast_bits(x), &forecast_bits(y)))
}

/// The five forecasts of one what-if suite.
fn run_suite(
    predictor: &dyn GenerativePredictor,
    test: &Dataset,
    suite: &[Scenario],
    config: &ForecastConfig,
) -> Vec<CensusForecast> {
    suite
        .iter()
        .map(|s| forecast_census(predictor, test, s, config))
        .collect()
}

/// One cohort's trained model, held-out patients and forecast settings.
/// Every forecast of the suite on every cohort, spread over [`THREADS`]
/// threads that each take the next (cohort, scenario) pair when they finish
/// one.  Each forecast runs on one thread.  Returns the forecasts by cohort.
fn run_suites(cohorts: &[Trained], suite: &[Scenario]) -> Vec<Vec<CensusForecast>> {
    let jobs = cohorts.len() * suite.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CensusForecast>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs {
                    break;
                }
                let c = &cohorts[j / suite.len()];
                let f = forecast_census(&c.predictor, &c.test, &suite[j % suite.len()], &c.config);
                *slots[j].lock().expect("a forecast panicked") = Some(f);
            });
        }
    });
    let mut all = slots.into_iter().map(|s| {
        s.into_inner()
            .expect("a forecast panicked")
            .expect("every job ran")
    });
    cohorts
        .iter()
        .map(|_| all.by_ref().take(suite.len()).collect())
        .collect()
}

struct Trained {
    predictor: DmcpPredictor,
    test: Dataset,
    patients: usize,
    config: ForecastConfig,
}

fn build(seed: u64) -> (Vec<Trained>, Vec<f64>, Vec<f64>) {
    setup(|| {
        let mut gen_s = 0.0;
        let trained = cohort_seeds(seed)
            .into_iter()
            .map(|seed| {
                let (cohort, s) = generate(&CohortConfig::scaled(SCALE, seed));
                gen_s += s;
                let dataset = Dataset::from_cohort(&cohort);
                let (train, test) = dataset.split_holdout(TEST_FRACTION, seed);
                let config = TrainConfig {
                    seed,
                    ..TrainConfig::paper_default().with_threads(THREADS)
                };
                let predictor = DmcpPredictor::train(&train, &config, MethodId::Sdmcp);
                let config = ForecastConfig {
                    rollouts: ROLLOUTS,
                    seed,
                    admissions: Some(AdmissionModel::for_cohort(test.patients.len(), CENSUS_DAYS)),
                    ..ForecastConfig::default()
                };
                Trained {
                    predictor,
                    test,
                    patients: cohort.patients.len(),
                    config,
                }
            })
            .collect();
        (trained, gen_s)
    })
}

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (cohorts, setup_s, gen_s) = build(cfg.seed);
    let suite = scenarios();
    let list =
        |f: fn(&Trained) -> usize| Json::Arr(cohorts.iter().map(|c| Json::int(f(c))).collect());
    out.param("scale", Json::Num(SCALE));
    out.param("cohorts", Json::int(COHORTS));
    out.param("patients", list(|c| c.patients));
    out.param("test_patients", list(|c| c.test.patients.len()));
    out.param("rollouts", Json::int(ROLLOUTS));
    out.param("forecasts", Json::int(suite.len()));
    out.param("method", Json::str("SDMCP"));

    match tracer {
        None => {
            out.timing("setup_s", "s", &setup_s);
            let runs = repeat_for(cfg.seconds, MIN_RUNS, || {
                with_peak(|| run_suites(&cohorts, &suite))
            });
            out.operations += runs.len() * COHORTS * suite.len();
            let times: Vec<f64> = runs.iter().map(|(t, _)| *t).collect();
            out.timing("latency_ms", "ms", &ms(&times));
            let peaks: Vec<f64> = runs.iter().map(|(_, (_, p))| *p).collect();
            out.timing("peak_mib", "MiB", &peaks);
            // Check-only, outside every timer: the held-out accuracy of the
            // models the rollouts sample from, and the baseline forecast's
            // census error.
            let mean =
                |f: &dyn Fn(&Trained) -> f64| cohorts.iter().map(f).sum::<f64>() / COHORTS as f64;
            out.value(
                "ac_cu",
                "ratio",
                mean(&|c| evaluate(&c.predictor, &c.test).overall_cu),
            );
            let firsts = &runs[0].1 .0;
            let err_c = cohorts
                .iter()
                .zip(firsts)
                .map(|(c, first)| {
                    let actual: Vec<Vec<f64>> = actual_census(&c.test, c.config.horizon_days)
                        .iter()
                        .map(|row| row.iter().map(|&v| v as f64).collect())
                        .collect();
                    census_errors_f64(&actual, &first[0].mean).1
                })
                .sum::<f64>()
                / COHORTS as f64;
            out.diagnostic("err_c", "ratio", err_c, None);
            let bits: Vec<f64> = firsts
                .iter()
                .flat_map(|f| f.iter())
                .flat_map(forecast_bits)
                .collect();
            out.check(
                "census.repeat_bitwise",
                runs.iter()
                    .all(|(_, (r, _))| r.iter().zip(firsts).all(|(a, b)| same_suite(a, b))),
                format!(
                    "{} runs over {COHORTS} cohorts; forecasts {}",
                    runs.len(),
                    fingerprint(&bits)
                ),
            );
        }
        Some(tracer) => {
            // The traced suite runs on the first cohort.
            let Trained {
                predictor,
                test,
                config,
                ..
            } = &cohorts[0];
            out.timing("ehr.generate_s", "s", &gen_s);
            let (plain, plain_s) = timed(|| run_suite(predictor, test, &suite, config));
            let timed_predictor = TimedPredictor::new(predictor, tracer, CAPTURE);
            let root = tracer.start();
            timed_predictor.set_parent(Some(root.id));
            let (traced, traced_s) = timed(|| run_suite(&timed_predictor, test, &suite, config));
            tracer.finish(root, "scenario.suite", None);
            out.operations += 2 * suite.len();
            out.check(
                "census.traced_matches_untraced",
                same_suite(&traced, &plain),
                "forecasts through the timing decorator vs the bare predictor",
            );
            out.value("trace.overhead_ms", "ms", (traced_s - plain_s) * 1e3);
            out.value(
                "trace.overhead_pct",
                "%",
                100.0 * (traced_s - plain_s) / plain_s,
            );
            out.count("scenario.steps", timed_predictor.calls());
            out.value("scenario.predict_s", "s", timed_predictor.busy_s());
            out.value("scenario.self_s", "s", traced_s - timed_predictor.busy_s());
            replays(&mut out, predictor, &timed_predictor.take_captured());
        }
    }
    out
}

/// One level down: the two halves of `predict_distribution` on captured
/// rollout inputs — re-featurizing the history, then scoring the vector.
fn replays(out: &mut Outcome, predictor: &DmcpPredictor, samples: &[RawSample]) {
    let model = predictor.model();
    let featurizer = model.featurizer();
    let features: Vec<_> = samples
        .iter()
        .map(|s| featurizer.featurize(&s.profile, &s.history, s.t_eval, s.t_prev))
        .collect();
    let mut next = 0;
    let featurize = replay(|| {
        let s = &samples[next % samples.len()];
        next += 1;
        let t = Instant::now();
        std::hint::black_box(featurizer.featurize(&s.profile, &s.history, s.t_eval, s.t_prev));
        since(t)
    });
    let prob = replay(|| {
        let f = &features[next % features.len()];
        next += 1;
        let t = Instant::now();
        std::hint::black_box(model.probabilities(f));
        since(t)
    });
    let us = |v: Vec<f64>| v.into_iter().map(|s| s * 1e6).collect::<Vec<_>>();
    out.timing("features.featurize_us", "us", &us(featurize));
    out.timing("model.prob_us", "us", &us(prob));
}
