//! `cv-train`: 5-fold warm-chained cross-validation of DMCP.
//!
//! The fused loss pass takes most of the solve time here, so this workload
//! carries the kernel (`core::loss` over `pfp-math::csr` and `softmax`), the
//! worker pool and the ADMM layers.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use pfp_baselines::{DmcpPredictor, MethodId};
use pfp_core::loss::DmcpObjective;
use pfp_core::{initial_theta, train_warm, Dataset, DmcpModel, PlateauStop, Sample, TrainConfig};
use pfp_ehr::CohortConfig;
use pfp_eval::cv::cross_validate_warm;
use pfp_eval::metrics::{evaluate, AccuracyReport};
use pfp_math::softmax::{cross_entropy, softmax_in_place};
use pfp_math::{CsrMatrix, Matrix};
use pfp_optim::admm::{solve_group_lasso, solve_group_lasso_warm};
use pfp_optim::prox::prox_group_lasso_in_place;
use pfp_optim::SmoothObjective;

use crate::common::{
    cohort_seeds, fingerprint, generate, ms, repeat_for, replay, same_matrix, setup, since, timed,
    with_peak, COHORTS, MIN_RUNS, THREADS,
};
use crate::json::Json;
use crate::outcome::Outcome;
use crate::trace::{self_time_ns, TimedObjective, Tracer};
use crate::RunConfig;

pub const SCALE: f64 = 0.1;
pub const FOLDS: usize = 5;

/// The trainer configuration the CV drivers use: paper defaults with the
/// objective-plateau stopping rule, at [`THREADS`] threads.
fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        ..TrainConfig::paper_default()
            .with_threads(THREADS)
            .with_plateau(Some(PlateauStop::default()))
    }
}

/// One CV's outputs: the mean accuracies and each fold's final Θ.
struct CvOutput {
    mean: AccuracyReport,
    thetas: Vec<Matrix>,
}

impl CvOutput {
    fn same_as(&self, other: &CvOutput) -> bool {
        self.mean.overall_cu.to_bits() == other.mean.overall_cu.to_bits()
            && self.mean.overall_duration.to_bits() == other.mean.overall_duration.to_bits()
            && self.thetas.len() == other.thetas.len()
            && self
                .thetas
                .iter()
                .zip(&other.thetas)
                .all(|(a, b)| same_matrix(a, b))
    }
}

/// The production path: `cross_validate_warm` over `train_warm`, folds
/// chained one at a time.
fn run_cv(ds: &Dataset, config: &TrainConfig, seed: u64) -> CvOutput {
    let thetas = Mutex::new(Vec::new());
    let result = cross_validate_warm(ds, FOLDS, seed, 1, |train, carry| {
        let report =
            train_warm(train, config, carry).expect("carried state matches the fold shape");
        thetas
            .lock()
            .expect("a fold panicked")
            .push(report.model.theta.clone());
        (
            DmcpPredictor::from_model(report.model, MethodId::Dmcp),
            Some(report.warm_start),
        )
    });
    CvOutput {
        mean: result.mean,
        thetas: thetas.into_inner().expect("a fold panicked"),
    }
}

/// Per-fold numbers of the traced CV.
struct FoldTrace {
    pass_s: Vec<f64>,
    outer: usize,
    inner: usize,
    solve_self_s: f64,
    featurize_s: f64,
    eval_s: f64,
}

/// The same CV driven from the benchmark: featurize, build the objective,
/// solve and evaluate each fold through public functions, with the
/// objective wrapped in [`TimedObjective`].  Must give the same Θ and
/// accuracies as [`run_cv`] bit for bit.  Also returns fold 1's samples.
fn run_cv_traced(
    ds: &Dataset,
    config: &TrainConfig,
    seed: u64,
    tracer: &Tracer,
) -> (CvOutput, Vec<FoldTrace>, Vec<Sample>) {
    let root = tracer.start();
    let mut reports = Vec::new();
    let mut thetas = Vec::new();
    let mut traces = Vec::new();
    let mut fold1_samples = Vec::new();
    let mut carry = None;
    let admm = config.admm_config();
    for (i, (train, val)) in ds.k_folds(FOLDS, seed).into_iter().enumerate() {
        let fold = tracer.start();
        let kind = config
            .feature_map
            .unwrap_or_else(|| train.default_mcp_kind());
        let (samples, featurize) =
            tracer.span("cv.featurize", Some(fold.id), || train.featurize(kind));
        let (samples, weights) =
            config
                .imbalance
                .apply(samples, train.num_cus, train.num_durations, config.seed);
        let m = train.profile_dim + train.service_dim;
        let solve = tracer.start();
        let objective = TimedObjective::new(
            DmcpObjective::new(
                &samples,
                weights.as_deref(),
                m,
                train.num_cus,
                train.num_durations,
            )
            .with_threads(config.threads),
            tracer,
            Some(solve.id),
        );
        let result = match &carry {
            None => {
                let (rows, cols) = objective.shape();
                solve_group_lasso(&objective, initial_theta(rows, cols, config), &admm)
            }
            Some(w) => solve_group_lasso_warm(&objective, &admm, w)
                .expect("carried state matches the fold shape"),
        };
        tracer.finish(solve, "admm.solve", Some(fold.id));
        let spans = tracer.spans();
        let solve_span = spans
            .iter()
            .find(|s| s.id == solve.id)
            .expect("solve span recorded");
        let children: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(solve.id))
            .collect();
        let solve_self_s = self_time_ns(solve_span, &children) as f64 * 1e-9;

        let model = DmcpModel {
            theta: result.theta.clone(),
            selection: result.x.clone(),
            kind,
            profile_dim: train.profile_dim,
            service_dim: train.service_dim,
            num_cus: train.num_cus,
            num_durations: train.num_durations,
        };
        let predictor = DmcpPredictor::from_model(model, MethodId::Dmcp);
        let (report, eval) = tracer.span("cv.eval", Some(fold.id), || evaluate(&predictor, &val));
        tracer.finish(fold, "cv.fold", Some(root.id));

        traces.push(FoldTrace {
            pass_s: objective.pass_seconds(),
            outer: result.outer_iterations,
            inner: result.inner_iterations,
            solve_self_s,
            featurize_s: featurize.as_secs_f64(),
            eval_s: eval.as_secs_f64(),
        });
        drop(objective);
        reports.push(report);
        carry = Some(result.warm_start());
        thetas.push(result.theta);
        if i == 0 {
            fold1_samples = samples;
        }
    }
    tracer.finish(root, "cv", None);
    let mean = AccuracyReport::average(&reports);
    (CvOutput { mean, thetas }, traces, fold1_samples)
}

/// One cohort's dataset with the seed that made it.
struct Instance {
    seed: u64,
    ds: Dataset,
    patients: usize,
}

fn build(seed: u64) -> (Vec<Instance>, Vec<f64>, Vec<f64>) {
    setup(|| {
        let mut gen_s = 0.0;
        let instances = cohort_seeds(seed)
            .into_iter()
            .map(|seed| {
                let (cohort, s) = generate(&CohortConfig::scaled(SCALE, seed));
                gen_s += s;
                Instance {
                    seed,
                    ds: Dataset::from_cohort(&cohort),
                    patients: cohort.patients.len(),
                }
            })
            .collect();
        (instances, gen_s)
    })
}

pub fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (instances, setup_s, gen_s) = build(cfg.seed);
    let list =
        |f: fn(&Instance) -> usize| Json::Arr(instances.iter().map(|i| Json::int(f(i))).collect());
    out.param("scale", Json::Num(SCALE));
    out.param("cohorts", Json::int(COHORTS));
    out.param("patients", list(|i| i.patients));
    out.param("samples", list(|i| i.ds.len()));
    out.param("folds", Json::int(FOLDS));
    out.param("threads", Json::int(THREADS));
    out.param("gamma", Json::Num(train_config(cfg.seed).gamma));

    match tracer {
        None => {
            out.timing("setup_s", "s", &setup_s);
            let runs = repeat_for(cfg.seconds, MIN_RUNS, || {
                with_peak(|| {
                    instances
                        .iter()
                        .map(|inst| run_cv(&inst.ds, &train_config(inst.seed), inst.seed))
                        .collect::<Vec<_>>()
                })
            });
            out.operations += runs.len() * COHORTS * FOLDS;
            let times: Vec<f64> = runs.iter().map(|(t, _)| *t).collect();
            out.timing("latency_ms", "ms", &ms(&times));
            let peaks: Vec<f64> = runs.iter().map(|(_, (_, p))| *p).collect();
            out.timing("peak_mib", "MiB", &peaks);
            let first = &runs[0].1 .0;
            let mean = |f: fn(&CvOutput) -> f64| first.iter().map(f).sum::<f64>() / COHORTS as f64;
            out.value("ac_cu", "ratio", mean(|r| r.mean.overall_cu));
            out.diagnostic("ac_dur", "ratio", mean(|r| r.mean.overall_duration), None);
            let repeats = runs
                .iter()
                .all(|(_, (r, _))| r.iter().zip(first).all(|(a, b)| a.same_as(b)));
            out.check(
                "cv.repeat_bitwise",
                repeats,
                format!(
                    "{} runs over {COHORTS} cohorts; theta {}",
                    runs.len(),
                    fingerprint(
                        first
                            .iter()
                            .flat_map(|r| &r.thetas)
                            .flat_map(|t| t.as_slice())
                    )
                ),
            );
        }
        Some(tracer) => {
            // The traced CV runs on the first cohort.
            let Instance { seed, ds, .. } = &instances[0];
            let (seed, config) = (*seed, train_config(*seed));
            out.timing("ehr.generate_s", "s", &gen_s);
            let (plain, plain_s) = timed(|| run_cv(ds, &config, seed));
            let ((traced, folds, fold1), traced_s) =
                timed(|| run_cv_traced(ds, &config, seed, tracer));
            out.operations += 2 * FOLDS;
            out.check(
                "cv.traced_matches_untraced",
                traced.same_as(&plain),
                "bench-driven objective + solve_group_lasso[_warm] vs train_warm: theta, ac_cu, ac_dur",
            );
            out.value("trace.overhead_ms", "ms", (traced_s - plain_s) * 1e3);
            out.value(
                "trace.overhead_pct",
                "%",
                100.0 * (traced_s - plain_s) / plain_s,
            );

            let pass_s: Vec<f64> = folds
                .iter()
                .flat_map(|f| f.pass_s.iter().copied())
                .collect();
            let busy_s: f64 = pass_s.iter().sum();
            out.count("loss.passes", pass_s.len());
            out.timing("loss.pass_ms", "ms", &ms(&pass_s));
            out.value("loss.busy_s", "s", busy_s);
            out.count("admm.outer_iters", folds.iter().map(|f| f.outer).sum());
            out.count("admm.inner_iters", folds.iter().map(|f| f.inner).sum());
            out.value(
                "admm.self_s",
                "s",
                folds.iter().map(|f| f.solve_self_s).sum(),
            );
            out.count("cv.cold_passes", folds[0].pass_s.len());
            out.count(
                "cv.warm_passes",
                folds[1..].iter().map(|f| f.pass_s.len()).sum(),
            );
            out.value(
                "cv.featurize_s",
                "s",
                folds.iter().map(|f| f.featurize_s).sum(),
            );
            out.value("cv.eval_s", "s", folds.iter().map(|f| f.eval_s).sum());
            replays(&mut out, ds, &config, &fold1, &traced.thetas[0]);
        }
    }
    out
}

/// One level down: replay the fused pass's three stages, the pool and the
/// prox at fold 1's final Θ on fold 1's CSR packing.
fn replays(
    out: &mut Outcome,
    ds: &Dataset,
    config: &TrainConfig,
    samples: &[Sample],
    theta: &Matrix,
) {
    let m = ds.profile_dim + ds.service_dim;
    let (c, d) = (ds.num_cus, ds.num_durations);
    let k = c + d;
    let csr = CsrMatrix::from_rows(m, samples.iter().map(|s| &s.features));
    let n = csr.rows();

    let mut block = vec![0.0; n * k];
    let scores = replay(|| {
        block.fill(0.0);
        let t = Instant::now();
        csr.accumulate_scores_range(theta, 0..n, &mut block);
        since(t)
    });
    let scored = block.clone();
    let softmax_times = replay(|| {
        block.copy_from_slice(&scored);
        let t = Instant::now();
        let mut loss = 0.0;
        for (row, s) in block.chunks_exact_mut(k).zip(samples) {
            let (cu, dur) = row.split_at_mut(c);
            loss += cross_entropy(cu, s.cu_label) + cross_entropy(dur, s.duration_label);
            softmax_in_place(cu);
            softmax_in_place(dur);
        }
        black_box(loss);
        since(t)
    });
    let mut grad = Matrix::zeros(m, k);
    let scatter = replay(|| {
        grad.fill(0.0);
        let t = Instant::now();
        csr.scatter_gradient_range(&block, 0..n, &mut grad);
        since(t)
    });
    out.timing("csr.scores_ms", "ms", &ms(&scores));
    out.timing("softmax.ms", "ms", &ms(&softmax_times));
    out.timing("csr.scatter_ms", "ms", &ms(&scatter));
    let (nnz, rows, kk) = (csr.nnz() as f64, n as f64, k as f64);
    // Scores read each nonzero (value + u32 index), one Θ row per nonzero
    // and write the score block; the scatter reads the same CSR and the
    // residual block and reads and writes one gradient row per nonzero.
    out.computed("csr.flops", "flop", 2.0 * nnz * kk * 2.0);
    out.computed(
        "csr.bytes",
        "B",
        2.0 * (nnz * 12.0 + (rows + 1.0) * 8.0 + rows * kk * 8.0) + nnz * kk * 8.0 * 3.0,
    );

    let pass_ms = |threads: usize| {
        let objective = DmcpObjective::new(samples, None, m, c, d).with_threads(threads);
        let mut g = Matrix::zeros(m, k);
        ms(&replay(|| {
            let t = Instant::now();
            black_box(objective.value_and_gradient(theta, &mut g));
            since(t)
        }))
    };
    let t1 = out.timing("pool.pass_ms.t1", "ms", &pass_ms(1));
    let t2 = out.timing("pool.pass_ms.t2", "ms", &pass_ms(2));
    out.value("pool.efficiency", "ratio", t1 / (2.0 * t2));

    let tau = config.gamma / config.rho;
    let mut v = theta.clone();
    let prox = replay(|| {
        v.as_mut_slice().copy_from_slice(theta.as_slice());
        let t = Instant::now();
        prox_group_lasso_in_place(&mut v, tau);
        since(t)
    });
    out.timing(
        "admm.prox_us",
        "us",
        &prox.into_iter().map(|s| s * 1e6).collect::<Vec<_>>(),
    );
}
