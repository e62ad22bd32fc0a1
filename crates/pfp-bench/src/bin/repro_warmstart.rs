//! Warm-start proof: carrying ADMM exit state across CV folds and along a
//! γ-continuation path.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro_warmstart -- --scale 0.05 --fast
//! ```
//!
//! Two solve chains, each measured warm vs cold with the counting objective
//! (`pfp_bench::CountingObjective`), under the objective-plateau stopping
//! criterion the sweep/CV drivers use:
//!
//! 1. **Cross-validation** — `k` folds; the warm chain seeds each fold from
//!    the previous fold's exit state (`WarmStart`), the cold baseline trains
//!    every fold from the seeded θ₀.
//! 2. **γ-continuation** — the Fig. 8 multiplier grid in ascending order;
//!    the warm chain carries state from the previous γ, the cold baseline
//!    retrains every point from scratch.
//!
//! Plateau-stopped solves are path-dependent — the warm and cold
//! trajectories stop at slightly different points of the same flat valley,
//! up to ~1e-3 apart in objective, in either direction — so comparing two
//! plateau exits can never support a 1e-6 claim.  The honest apples-to-apples
//! count is **passes-to-cold's-objective**, the same accounting
//! `repro_fused_speedup` uses for the adaptive solver:
//!
//! * the cold solve runs with the plateau criterion (the production
//!   configuration); `cold_passes` is what it executed;
//! * the warm solve runs *un-plateaued* (outer cap only) as a probe, and
//!   `warm_passes` is the number of fused objective passes before its trace
//!   first reached the cold solve's final objective + 1e-6;
//! * the probe's prefix up to that outer iteration is then replayed
//!   (deterministic solver, identical trajectory) to obtain the warm model
//!   **at the reach point** — so the evaluated warm model matches the cold
//!   objective within 1e-6 by construction — and the chain carries that
//!   point's exit state to the next solve.  Replay passes are measurement
//!   instrumentation, not chain cost: a production consumer runs the warm
//!   solve once with its own stopping rule.
//!
//! The first solve of each chain has no state to inherit and is counted at
//! full cold cost on both sides.
//!
//! **Asserts** (the CI regression gate):
//! * every warm solve reaches the cold solve's final objective within 1e-6
//!   inside the outer cap (`metrics_match`, also checking accuracy deltas —
//!   see below), and
//! * the warm chains spend strictly fewer passes than the cold baselines,
//!   with ≥ 30% fewer in total on non-`--fast` runs.
//!
//! Accuracy is quantized — one flipped argmax on an `n`-sample validation
//! split moves the metric by `1/n` — so near-tie predictions can flip
//! between two models sitting at the same objective level.  `metrics_match`
//! therefore bounds the per-solve accuracy delta by `CU_TOLERANCE` instead
//! of demanding bitwise-equal argmaxes; the objective itself must match to
//! 1e-6.  Everything goes to `BENCH_warmstart.json`.

use pfp_baselines::{DmcpPredictor, MethodId};
use pfp_bench::{render_table, Args, CountingObjective};
use pfp_core::loss::DmcpObjective;
use pfp_core::{initial_theta, Dataset, DmcpModel, PlateauStop, Sample, TrainConfig, WarmStart};
use pfp_ehr::generate_cohort;
use pfp_eval::metrics::evaluate;
use pfp_optim::admm::{solve_group_lasso, solve_group_lasso_warm, AdmmResult};

/// Max tolerated |warm − cold| overall-CU accuracy per solve.  Accuracy is
/// quantized at `1/n_validation`; this allows a handful of near-tie flips on
/// the small validation splits without letting a genuinely different model
/// through (the objective must still match to 1e-6).
const CU_TOLERANCE: f64 = 0.05;

/// One solve of a chain: the featurized training samples, the validation
/// split to score on, and the exact trainer configuration.
struct SolveSpec<'a> {
    label: String,
    samples: &'a [Sample],
    val: &'a Dataset,
    config: TrainConfig,
    kind: pfp_core::FeatureMapKind,
    profile_dim: usize,
    service_dim: usize,
    num_cus: usize,
    num_durations: usize,
}

/// Warm-vs-cold outcome of one solve.
struct SolveRecord {
    label: String,
    cold_passes: usize,
    /// Passes until the warm trace reached the cold final objective + 1e-6
    /// (`None` = never reached it → metrics mismatch).
    warm_passes: Option<usize>,
    /// Passes the un-plateaued warm probe executed before the outer cap
    /// (measurement instrumentation — a production consumer runs the warm
    /// solve once with its own stopping rule and pays `warm_passes`).
    warm_executed: usize,
    cold_final: f64,
    warm_final: f64,
    cold_cu: f64,
    warm_cu: f64,
    cold_plateau_stopped: bool,
}

fn model_from(result: &AdmmResult, spec: &SolveSpec) -> DmcpModel {
    DmcpModel {
        theta: result.theta.clone(),
        selection: result.x.clone(),
        kind: spec.kind,
        profile_dim: spec.profile_dim,
        service_dim: spec.service_dim,
        num_cus: spec.num_cus,
        num_durations: spec.num_durations,
    }
}

fn accuracy_of(result: &AdmmResult, spec: &SolveSpec) -> f64 {
    let predictor = DmcpPredictor::from_model(model_from(result, spec), MethodId::Dmcp);
    evaluate(&predictor, spec.val).overall_cu
}

/// Run the chain cold (every solve from θ₀) and warm (state carried from the
/// previous solve), counting fused passes with the counting decorator.
fn run_chain(specs: &[SolveSpec], threads: usize) -> Vec<SolveRecord> {
    let mut carry: Option<WarmStart> = None;
    let mut records = Vec::with_capacity(specs.len());
    for spec in specs {
        let rows = spec.profile_dim + spec.service_dim;
        let cols = spec.num_cus + spec.num_durations;
        let admm = spec.config.admm_config();

        let counting = CountingObjective::new(
            DmcpObjective::new(spec.samples, None, rows, spec.num_cus, spec.num_durations)
                .with_threads(threads),
        );
        let theta0 = initial_theta(rows, cols, &spec.config);
        let cold = solve_group_lasso(&counting, theta0, &admm);
        assert!(cold.theta.is_finite());
        assert_eq!(
            counting.passes(),
            cold.evaluations,
            "driver accounting must match the observed calls"
        );
        assert_eq!(
            counting.value_calls() + counting.gradient_calls(),
            0,
            "the accelerated path must go through the fused entry point only"
        );
        let cold_final = *cold.objective_trace.last().unwrap();
        let cold_cu = accuracy_of(&cold, spec);

        // The first solve of the chain has no state to inherit: the warm
        // chain pays full cold cost for it (the solves are identical, so the
        // cold result is reused rather than recomputed).
        let Some(w) = carry.as_ref() else {
            carry = Some(cold.warm_start());
            records.push(SolveRecord {
                label: spec.label.clone(),
                cold_passes: cold.evaluations,
                warm_passes: Some(cold.evaluations),
                warm_executed: cold.evaluations,
                cold_final,
                warm_final: cold_final,
                cold_cu,
                warm_cu: cold_cu,
                cold_plateau_stopped: cold.plateau_stopped,
            });
            continue;
        };

        // Probe: un-plateaued warm solve (outer cap only), to find where its
        // trace first reaches the cold objective + 1e-6.
        let mut probe_config = admm;
        probe_config.plateau = None;
        let counting_probe = CountingObjective::new(
            DmcpObjective::new(spec.samples, None, rows, spec.num_cus, spec.num_durations)
                .with_threads(threads),
        );
        let probe = solve_group_lasso_warm(&counting_probe, &probe_config, w)
            .expect("carried state matches the objective shape");
        assert!(probe.theta.is_finite());
        assert_eq!(counting_probe.passes(), probe.evaluations);
        let probe_evaluations = probe.evaluations;
        let reached = probe.passes_to_reach(cold_final + 1e-6);

        // Replay the probe's prefix up to the reach point (the solver is
        // deterministic, so truncating the outer cap reproduces the same
        // trajectory) to get the model and exit state *at* the reach point.
        // When the target was never reached, fall back to the full probe so
        // the chain and the report stay well-defined; the record's
        // `warm_passes: None` fails the metrics gate either way.
        let reach = match reached {
            Some((_, outer)) => {
                let mut reach_config = probe_config;
                reach_config.max_outer_iters = outer.max(1);
                let reach = solve_group_lasso_warm(
                    &DmcpObjective::new(spec.samples, None, rows, spec.num_cus, spec.num_durations)
                        .with_threads(threads),
                    &reach_config,
                    w,
                )
                .expect("carried state matches the objective shape");
                assert_eq!(
                    reach.objective_trace.as_slice(),
                    &probe.objective_trace[..reach.objective_trace.len()],
                    "the replay must retrace the probe's trajectory"
                );
                reach
            }
            None => probe,
        };

        records.push(SolveRecord {
            label: spec.label.clone(),
            cold_passes: cold.evaluations,
            warm_passes: reached.map(|(passes, _)| passes),
            warm_executed: probe_evaluations,
            cold_final,
            warm_final: *reach.objective_trace.last().unwrap(),
            cold_cu,
            warm_cu: accuracy_of(&reach, spec),
            cold_plateau_stopped: cold.plateau_stopped,
        });
        carry = Some(reach.warm_start());
    }
    records
}

struct ChainSummary {
    cold_passes: usize,
    warm_passes: usize,
    warm_executed: usize,
    objectives_matched: bool,
    max_cu_delta: f64,
}

fn summarize(records: &[SolveRecord]) -> ChainSummary {
    ChainSummary {
        cold_passes: records.iter().map(|r| r.cold_passes).sum(),
        warm_passes: records.iter().filter_map(|r| r.warm_passes).sum(),
        warm_executed: records.iter().map(|r| r.warm_executed).sum(),
        objectives_matched: records.iter().all(|r| r.warm_passes.is_some()),
        max_cu_delta: records
            .iter()
            .map(|r| (r.warm_cu - r.cold_cu).abs())
            .fold(0.0, f64::max),
    }
}

fn print_chain(title: &str, records: &[SolveRecord]) {
    let header: Vec<String> = [
        "solve",
        "cold passes",
        "warm passes",
        "probe executed",
        "objective gap",
        "ΔAC_C",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!(
                    "{}{}",
                    r.cold_passes,
                    if r.cold_plateau_stopped {
                        " (plateau)"
                    } else {
                        ""
                    }
                ),
                r.warm_passes
                    .map_or("unreached".to_string(), |p| p.to_string()),
                r.warm_executed.to_string(),
                format!("{:+.2e}", r.warm_final - r.cold_final),
                format!("{:+.4}", r.warm_cu - r.cold_cu),
            ]
        })
        .collect();
    println!("{title}:\n");
    print!("{}", render_table(&header, &rows));
    println!();
}

fn records_json(records: &[SolveRecord]) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "      {{\"solve\": \"{}\", \"cold_passes\": {}, \"warm_passes\": {}, \
                 \"warm_executed\": {}, \"cold_final\": {:.9}, \"warm_final\": {:.9}, \
                 \"cold_cu\": {:.4}, \"warm_cu\": {:.4}}}",
                r.label,
                r.cold_passes,
                r.warm_passes.map_or("null".to_string(), |p| p.to_string()),
                r.warm_executed,
                r.cold_final,
                r.warm_final,
                r.cold_cu,
                r.warm_cu,
            )
        })
        .collect();
    rows.join(",\n")
}

fn main() {
    let args = Args::parse();
    let cohort = generate_cohort(&args.cohort_config());
    let dataset = Dataset::from_cohort(&cohort);
    let threads = args.resolved_threads();

    // The sweep/CV driver configuration: plateau stopping on.  The residual
    // dual tolerance scales with ρ‖Y‖, which sits near zero in the
    // weakly-determined small-γ regime, so without the plateau criterion
    // these solves run to the outer cap and the comparison would only
    // measure the cap.
    let mut config = args.train_config();
    config.plateau = Some(PlateauStop::default());
    config.max_outer_iters = if args.fast { 120 } else { 500 };
    // The chains run at γ = 5e-2, the upper end of the Fig. 8 grid: there the
    // regulariser determines the optimum well enough that the plateau
    // criterion fires inside the cap on both chains, which is the regime
    // where "warm matches cold" is even well-defined.  At the paper's
    // γ = 1e-3 the solves are cap-limited and a warm start strictly
    // *improves* the objective at equal budget instead of matching it.
    config.gamma = 5e-2;

    let k = 5;
    let gamma_multipliers: &[f64] = &[0.1, 1.0, 10.0];

    println!(
        "Warm-start benchmark — {} patients, {} samples, k = {k} folds, \
         γ grid ×{:?}, threads = {threads}\n",
        cohort.patients.len(),
        dataset.len(),
        gamma_multipliers,
    );

    // --- 1. Cross-validation: fold i seeds from fold i−1's exit state. ---
    let folds = dataset.k_folds(k, args.seed);
    let fold_data: Vec<_> = folds
        .iter()
        .map(|(train, _)| {
            let kind = train.default_mcp_kind();
            (train.featurize(kind), kind)
        })
        .collect();
    let cv_specs: Vec<SolveSpec> = folds
        .iter()
        .zip(fold_data.iter())
        .enumerate()
        .map(|(i, ((train, val), (samples, kind)))| SolveSpec {
            label: format!("fold {}", i + 1),
            samples,
            val,
            config,
            kind: *kind,
            profile_dim: train.profile_dim,
            service_dim: train.service_dim,
            num_cus: train.num_cus,
            num_durations: train.num_durations,
        })
        .collect();
    let cv_records = run_chain(&cv_specs, threads);
    print_chain("Cross-validation (state carried fold-to-fold)", &cv_records);

    // --- 2. γ-continuation: ascending grid, state carried γ-to-γ. ---
    let (gamma_train, gamma_test) = dataset.split_holdout(0.2, args.seed);
    let kind = gamma_train.default_mcp_kind();
    let gamma_samples = gamma_train.featurize(kind);
    let base_gamma = config.gamma;
    let gamma_specs: Vec<SolveSpec> = gamma_multipliers
        .iter()
        .map(|&m| SolveSpec {
            label: format!("gamma x{m}"),
            samples: &gamma_samples,
            val: &gamma_test,
            config: config.with_gamma(base_gamma * m),
            kind,
            profile_dim: gamma_train.profile_dim,
            service_dim: gamma_train.service_dim,
            num_cus: gamma_train.num_cus,
            num_durations: gamma_train.num_durations,
        })
        .collect();
    let gamma_records = run_chain(&gamma_specs, threads);
    print_chain("γ-continuation (ascending grid)", &gamma_records);

    // --- 3. Gates. ---
    let cv = summarize(&cv_records);
    let gp = summarize(&gamma_records);
    let cold_passes = cv.cold_passes + gp.cold_passes;
    let warm_passes = cv.warm_passes + gp.warm_passes;
    let passes_ratio = cold_passes as f64 / warm_passes as f64;
    let metrics_match = cv.objectives_matched
        && gp.objectives_matched
        && cv.max_cu_delta <= CU_TOLERANCE
        && gp.max_cu_delta <= CU_TOLERANCE;

    println!(
        "Totals: cold {cold_passes} passes, warm {warm_passes} passes to the cold objective \
         ({passes_ratio:.2}× fewer); max ΔAC_C = {:.4} (CV) / {:.4} (γ path).\n",
        cv.max_cu_delta, gp.max_cu_delta,
    );

    assert!(
        cv.objectives_matched && gp.objectives_matched,
        "every warm solve must reach the cold solve's final objective within 1e-6"
    );
    assert!(
        cv.max_cu_delta <= CU_TOLERANCE && gp.max_cu_delta <= CU_TOLERANCE,
        "warm accuracy drifted beyond {CU_TOLERANCE}: CV {:.4}, γ {:.4}",
        cv.max_cu_delta,
        gp.max_cu_delta,
    );
    // CI regression gate: carrying state may never cost more passes than the
    // cold baseline it replaces.
    assert!(
        warm_passes < cold_passes,
        "warm chains must spend fewer passes than cold ({warm_passes} vs {cold_passes})"
    );
    if !args.fast {
        assert!(
            (warm_passes as f64) <= 0.7 * cold_passes as f64,
            "warm chains must save ≥30% of passes (got {passes_ratio:.2}×: \
             {warm_passes} vs {cold_passes})"
        );
    }

    // --- 4. Machine-readable record. ---
    let json = format!(
        "{{\n  \"bench\": \"warmstart\",\n  \"patients\": {},\n  \"samples\": {},\n  \
         \"threads\": {threads},\n  \"folds\": {k},\n  \
         \"gamma_multipliers\": {gamma_multipliers:?},\n  \
         \"metrics_match\": {metrics_match},\n  \
         \"cold_passes\": {cold_passes},\n  \"warm_passes\": {warm_passes},\n  \
         \"passes_ratio\": {passes_ratio:.4},\n  \"cu_tolerance\": {CU_TOLERANCE},\n  \
         \"cv\": {{\n    \"cold_passes\": {},\n    \"warm_passes\": {},\n    \
         \"warm_executed\": {},\n    \"max_cu_delta\": {:.6},\n    \"solves\": [\n{}\n    ]\n  }},\n  \
         \"gamma_path\": {{\n    \"cold_passes\": {},\n    \"warm_passes\": {},\n    \
         \"warm_executed\": {},\n    \"max_cu_delta\": {:.6},\n    \"solves\": [\n{}\n    ]\n  }}\n}}\n",
        cohort.patients.len(),
        dataset.len(),
        cv.cold_passes,
        cv.warm_passes,
        cv.warm_executed,
        cv.max_cu_delta,
        records_json(&cv_records),
        gp.cold_passes,
        gp.warm_passes,
        gp.warm_executed,
        gp.max_cu_delta,
        records_json(&gamma_records),
    );
    std::fs::write("BENCH_warmstart.json", &json).expect("failed to write BENCH_warmstart.json");
    println!("Wrote BENCH_warmstart.json.");
}
