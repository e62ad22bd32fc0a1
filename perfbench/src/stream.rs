//! `train-streamed`: out-of-core DMCP training over regenerated cohort
//! shards.  The only workload with the cohort generator (`pfp-ehr`) inside
//! the training loop: every objective pass regenerates and re-featurizes
//! the cohort shard by shard.

use std::time::Instant;

use pfp_baselines::{DmcpPredictor, MethodId};
use pfp_core::stream::{for_each_patient_sample, StreamingDmcpObjective};
use pfp_core::{
    initial_theta, train, train_streamed, Dataset, DmcpModel, HistoryFeaturizer, SolverMode,
    TrainConfig,
};
use pfp_ehr::{CohortConfig, CohortShards};
use pfp_eval::metrics::evaluate;
use pfp_math::Matrix;
use pfp_optim::admm::solve_group_lasso;
use pfp_optim::SmoothObjective;

use crate::common::{
    cohort_seeds, fingerprint, generate, ms, repeat_for, replay, same_matrix, setup, since, timed,
    with_peak, COHORTS, MIN_RUNS, THREADS,
};
use crate::json::Json;
use crate::outcome::Outcome;
use crate::trace::{TimedObjective, Tracer};
use crate::RunConfig;

pub const SCALE: f64 = 0.03;
pub const SHARD_SIZE: usize = 256;

/// A fixed budget of 8 outer × 25 inner iterations (tolerance 0 disables
/// early stopping), so `latency_ms` measures the out-of-core pass and not the
/// solver's convergence, which `cv-train` covers.
fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        tolerance: 0.0,
        ..TrainConfig::fast()
            .with_solver(SolverMode::FixedBudget)
            .with_threads(THREADS)
    }
}

/// One cohort: its configuration, and check-only data kept outside every
/// timer — the materialized dataset and `train()`'s Θ on it.
struct Instance {
    cohort: CohortConfig,
    config: TrainConfig,
    dataset: Dataset,
    reference: Matrix,
    patients: usize,
    transitions: usize,
}

/// The same train driven from the benchmark: the streaming objective
/// wrapped in [`TimedObjective`], solved cold.
fn train_traced(
    cohort: &CohortConfig,
    config: &TrainConfig,
    tracer: &Tracer,
) -> (Matrix, Vec<f64>, StreamingDmcpObjective) {
    let root = tracer.start();
    let (objective, _) = tracer.span("stream.build", Some(root.id), || {
        StreamingDmcpObjective::new(cohort, config.feature_map, SHARD_SIZE)
            .with_threads(config.threads)
    });
    let solve = tracer.start();
    let timed_objective = TimedObjective::new(objective, tracer, Some(solve.id));
    let (rows, cols) = timed_objective.shape();
    let result = solve_group_lasso(
        &timed_objective,
        initial_theta(rows, cols, config),
        &config.admm_config(),
    );
    tracer.finish(solve, "admm.solve", Some(root.id));
    tracer.finish(root, "stream.train", None);
    let pass_s = timed_objective.pass_seconds();
    (result.theta, pass_s, timed_objective.into_inner())
}

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let seeds = cohort_seeds(cfg.seed);
    // Set-up generates the cohorts, which are also the materialized
    // references' input.
    let (cohorts, setup_s, gen_s) = setup(|| {
        let mut gen_s = 0.0;
        let cohorts: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let (cohort, s) = generate(&CohortConfig::scaled(SCALE, seed));
                gen_s += s;
                cohort
            })
            .collect();
        (cohorts, gen_s)
    });
    let instances: Vec<Instance> = cohorts
        .into_iter()
        .zip(&seeds)
        .map(|(cohort, &seed)| {
            let config = train_config(seed);
            let dataset = Dataset::from_cohort(&cohort);
            let reference = train(&dataset, &config).theta;
            Instance {
                cohort: CohortConfig::scaled(SCALE, seed),
                config,
                dataset,
                reference,
                patients: cohort.patients.len(),
                transitions: cohort.total_transitions(),
            }
        })
        .collect();
    let list =
        |f: fn(&Instance) -> usize| Json::Arr(instances.iter().map(|i| Json::int(f(i))).collect());
    out.param("scale", Json::Num(SCALE));
    out.param("cohorts", Json::int(COHORTS));
    out.param("patients", list(|i| i.patients));
    out.param("transitions", list(|i| i.transitions));
    out.param("shard_size", Json::int(SHARD_SIZE));
    out.param("threads", Json::int(THREADS));

    match tracer {
        None => {
            out.timing("setup_s", "s", &setup_s);
            let runs = repeat_for(cfg.seconds, MIN_RUNS, || {
                with_peak(|| {
                    instances
                        .iter()
                        .map(|i| train_streamed(&i.cohort, &i.config, SHARD_SIZE))
                        .collect::<Vec<DmcpModel>>()
                })
            });
            out.operations += runs.len() * COHORTS;
            let times: Vec<f64> = runs.iter().map(|(t, _)| *t).collect();
            out.timing("latency_ms", "ms", &ms(&times));
            let peaks: Vec<f64> = runs.iter().map(|(_, (_, p))| *p).collect();
            out.timing("peak_mib", "MiB", &peaks);
            // Check-only, outside every timer: each streamed model's accuracy
            // on the cohort it was trained on, averaged over the cohorts.
            let accuracy: f64 = runs[0]
                .1
                 .0
                .iter()
                .zip(&instances)
                .map(|(model, i)| {
                    let predictor = DmcpPredictor::from_model(model.clone(), MethodId::Dmcp);
                    evaluate(&predictor, &i.dataset).overall_cu
                })
                .sum();
            out.value("ac_cu", "ratio", accuracy / COHORTS as f64);
            out.check(
                "stream.matches_materialized_bitwise",
                runs.iter().all(|(_, (models, _))| {
                    models
                        .iter()
                        .zip(&instances)
                        .all(|(model, i)| same_matrix(&model.theta, &i.reference))
                }),
                format!(
                    "{} operations of {COHORTS} streamed trains vs train(); theta {}",
                    runs.len(),
                    fingerprint(instances.iter().flat_map(|i| i.reference.as_slice()))
                ),
            );
        }
        Some(tracer) => {
            // The traced train runs on the first cohort.
            let Instance {
                cohort,
                config,
                reference,
                ..
            } = &instances[0];
            out.timing("ehr.generate_s", "s", &gen_s);
            let (plain, plain_s) = timed(|| train_streamed(cohort, config, SHARD_SIZE).theta);
            let ((traced, pass_s, objective), traced_s) =
                timed(|| train_traced(cohort, config, tracer));
            out.operations += 2;
            out.check(
                "stream.traced_matches_untraced",
                same_matrix(&traced, &plain) && same_matrix(&plain, reference),
                "bench-driven streaming objective + solve_group_lasso vs train_streamed vs train()",
            );
            out.value("trace.overhead_ms", "ms", (traced_s - plain_s) * 1e3);
            out.value(
                "trace.overhead_pct",
                "%",
                100.0 * (traced_s - plain_s) / plain_s,
            );
            out.count("stream.passes", pass_s.len());
            out.timing("stream.pass_ms", "ms", &ms(&pass_s));
            replays(&mut out, cohort, &objective);
        }
    }
    out
}

/// One level down: a full generator sweep over the shards, then the
/// featurization of the same patients.
fn replays(out: &mut Outcome, cohort: &CohortConfig, objective: &StreamingDmcpObjective) {
    let regen = replay(|| {
        let t = Instant::now();
        for shard in CohortShards::new(cohort, SHARD_SIZE) {
            std::hint::black_box(shard);
        }
        since(t)
    });
    let featurizer = HistoryFeaturizer::new(
        objective.kind(),
        cohort.features.profile,
        cohort.features.time_varying_dim(),
    );
    let shards: Vec<_> = CohortShards::new(cohort, SHARD_SIZE).collect();
    let featurize = replay(|| {
        let t = Instant::now();
        for p in shards.iter().flat_map(|s| &s.patients) {
            for_each_patient_sample(p, &featurizer, |f, _, _| {
                std::hint::black_box(f);
            });
        }
        since(t)
    });
    out.timing("ehr.regen_ms", "ms", &ms(&regen));
    out.timing("stream.featurize_ms", "ms", &ms(&featurize));
}
