//! Closed-loop what-if census reproduction: the trained DMCP rolled forward
//! as a generative model (`pfp-eval::scenario`), compared against the Markov
//! fallback, plus a seeded what-if scenario suite.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro_whatif -- \
//!     --scale 0.05 --rollouts 24
//! ```
//!
//! Three gates, all recorded to `BENCH_census.json`:
//!
//! 1. **Forecast skill** — the trained DMCP's closed-loop baseline forecast
//!    (pure replay of the held-out admissions, the paper's census setting)
//!    must beat the Markov chains' under the occupancy-weighted `Err_C`
//!    (`dmcp_beats_markov`).
//! 2. **Determinism** — the entire suite is run twice at the same seed and
//!    the reports must match bitwise (`deterministic`); rollout seeds are
//!    derived per-index so this holds regardless of evaluation order.
//! 3. **Coverage** — the what-if suite runs the baseline plus at least three
//!    perturbation scenarios end-to-end: an admission surge, a unit closure,
//!    an LOS shift, and a combined "winter crunch".
//!
//! What-if scenarios are scored against the *baseline forecast mean* — the
//! census divergence a capacity planner would act on — while the baseline
//! itself is scored against the actual held-out census (see EXPERIMENTS.md
//! for the scenario definitions and the `Err_C` weighting deviation).

use std::time::Instant;

use pfp_baselines::{DmcpPredictor, FlowPredictor, GenerativePredictor, MarkovPredictor, MethodId};
use pfp_bench::{render_table, Args};
use pfp_core::Dataset;
use pfp_ehr::departments::{CareUnit, NUM_CARE_UNITS};
use pfp_ehr::generate_cohort;
use pfp_eval::census::{census_errors_f64, census_f64, CENSUS_DAYS};
use pfp_eval::scenario::{
    actual_census, evaluate_scenarios, forecast_census, AdmissionModel, CensusForecast,
    ForecastConfig, Perturbation, Scenario, WhatIfReport,
};

/// The fixed what-if suite: one of each perturbation kind plus a compound.
fn scenarios() -> Vec<Scenario> {
    vec![
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

/// Render a `[cu][day]` mean-occupancy grid as a table.
fn census_table(title: &str, mean: &[Vec<f64>]) -> String {
    let mut header: Vec<String> = vec!["unit".to_string()];
    header.extend((1..=CENSUS_DAYS).map(|d| format!("day {d}")));
    let rows: Vec<Vec<String>> = (0..NUM_CARE_UNITS)
        .map(|cu| {
            let mut row = vec![CareUnit::from_index(cu).abbrev().to_string()];
            row.extend(mean[cu].iter().map(|v| format!("{v:.1}")));
            row
        })
        .collect();
    format!("{title}\n{}", render_table(&header, &rows))
}

fn main() {
    let (args, extras) = Args::parse_with_extras(&["--rollouts"]);
    let rollouts: usize = extras.get_or("--rollouts", 24);
    assert!(rollouts >= 1, "--rollouts must be at least 1");

    let cohort = generate_cohort(&args.cohort_config());
    let dataset = Dataset::from_cohort(&cohort);
    let (train, test) = dataset.split_holdout(0.2, args.seed);
    println!(
        "What-if run: {} train / {} test patients, {} rollouts, seed {}, {} training",
        train.patients.len(),
        test.patients.len(),
        rollouts,
        args.seed,
        if args.fast { "fast" } else { "paper-default" }
    );

    let t0 = Instant::now();
    let dmcp = DmcpPredictor::train(&train, &args.train_config(), MethodId::Sdmcp);
    let markov = MarkovPredictor::train(&train);
    let train_s = t0.elapsed().as_secs_f64();
    println!("trained SDMCP + Markov in {train_s:.2} s");

    // Gate 1: forecast skill.  Pure replay of the held-out admissions (no
    // synthetic admission stream), scored against the actual census.
    let gate_config = ForecastConfig {
        rollouts,
        seed: args.seed,
        ..ForecastConfig::default()
    };
    let actual = census_f64(&actual_census(&test, CENSUS_DAYS));
    let t1 = Instant::now();
    let gate = |p: &dyn GenerativePredictor| -> (CensusForecast, f64) {
        let f = forecast_census(p, &test, &Scenario::baseline(), &gate_config);
        let (_, err) = census_errors_f64(&actual, &f.mean);
        (f, err)
    };
    let (dmcp_forecast, err_dmcp) = gate(&dmcp);
    let (_, err_markov) = gate(&markov);
    let dmcp_beats_markov = err_dmcp < err_markov;
    println!(
        "baseline Err_C vs actual: SDMCP = {err_dmcp:.3}, Markov = {err_markov:.3} \
         (dmcp_beats_markov = {dmcp_beats_markov})"
    );

    // Gates 2 + 3: the what-if suite (with a Hawkes admission stream so
    // surges have something to scale), run twice for the determinism check.
    let suite_config = ForecastConfig {
        rollouts,
        seed: args.seed,
        admissions: Some(AdmissionModel::for_cohort(test.patients.len(), CENSUS_DAYS)),
        ..ForecastConfig::default()
    };
    let suite = scenarios();
    let run_suite = || -> WhatIfReport { evaluate_scenarios(&dmcp, &test, &suite, &suite_config) };
    let report = run_suite();
    let deterministic = report == run_suite() && dmcp_forecast == gate(&dmcp).0;
    let forecast_s = t1.elapsed().as_secs_f64();
    println!("forecasts + determinism double-run in {forecast_s:.2} s");

    println!();
    println!(
        "{}",
        census_table("actual census (held-out patients):", &actual)
    );
    println!(
        "{}",
        census_table(
            "baseline forecast mean (with admission stream):",
            &report.baseline.forecast.mean
        )
    );
    for s in &report.scenarios {
        println!(
            "{}",
            census_table(
                &format!("scenario {:?} forecast mean:", s.scenario.name),
                &s.forecast.mean
            )
        );
    }

    let header: Vec<String> = ["scenario", "Err_C vs baseline", "patient-days"]
        .map(String::from)
        .to_vec();
    let baseline_days = report.baseline.forecast.total_patient_days();
    let mut rows = vec![vec![
        "baseline".to_string(),
        "-".to_string(),
        format!("{baseline_days:.1}"),
    ]];
    rows.extend(report.scenarios.iter().map(|s| {
        vec![
            s.scenario.name.clone(),
            format!("{:.3}", s.overall_error),
            format!("{:.1}", s.forecast.total_patient_days()),
        ]
    }));
    println!("{}", render_table(&header, &rows));

    let scenario_json: Vec<String> = report
        .scenarios
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"err_vs_baseline\": {:.6}, \"patient_days\": {:.3}}}",
                s.scenario.name,
                s.overall_error,
                s.forecast.total_patient_days()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"census\",\n  \"scale\": {},\n  \"seed\": {},\n  \
         \"fast\": {},\n  \"threads\": {},\n  \"rollouts\": {rollouts},\n  \
         \"horizon_days\": {CENSUS_DAYS},\n  \"test_patients\": {},\n  \
         \"method\": \"{}\",\n  \
         \"err_c_dmcp\": {err_dmcp:.6},\n  \"err_c_markov\": {err_markov:.6},\n  \
         \"dmcp_beats_markov\": {dmcp_beats_markov},\n  \
         \"deterministic\": {deterministic},\n  \
         \"baseline_err_with_admissions\": {:.6},\n  \
         \"baseline_patient_days\": {baseline_days:.3},\n  \
         \"train_s\": {train_s:.3},\n  \"forecast_s\": {forecast_s:.3},\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        args.scale,
        args.seed,
        args.fast,
        args.threads,
        test.patients.len(),
        dmcp.method().label(),
        report.baseline.overall_error,
        scenario_json.join(",\n"),
    );
    std::fs::write("BENCH_census.json", &json).expect("failed to write BENCH_census.json");
    println!("Wrote BENCH_census.json.");

    assert!(
        deterministic,
        "what-if suite is not reproducible at a fixed seed"
    );
    assert!(
        dmcp_beats_markov,
        "trained DMCP baseline Err_C ({err_dmcp:.3}) must beat the Markov \
         fallback's ({err_markov:.3})"
    );
}
