//! Reproduce every table and figure of the paper from one cohort, in paper
//! order, cheapest first.
//!
//! Table 1, Table 2, Figure 2 and Figure 3 need only the cohort, so they
//! print before any training starts.  The 12-method comparison then runs
//! once and feeds Tables 4–6 (the data behind Figures 5 and 6).  Figure 7
//! (group-lasso feature selection), Figure 8 (γ/ρ robustness) and the
//! joint-vs-decoupled classifier comparison of Section 4.1 follow.
//!
//! ```text
//! cargo run -p pfp-bench --bin repro_paper --release -- --scale 0.05
//! cargo run -p pfp-bench --bin repro_paper --release -- --scale 0.01 --fast  # smoke, ~2 s
//! ```

use pfp_baselines::MethodId;
use pfp_bench::table::{fmt2, fmt3};
use pfp_bench::{render_table, Args};
use pfp_core::Dataset;
use pfp_ehr::departments::{duration_label, CareUnit, NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{generate_cohort, Cohort};
use pfp_eval::experiments::{
    fig2_report, fig3_report, fig7_report, fig8_report, joint_overfit_report, method_comparison,
    table1_report, table2_report, ComparisonConfig, MethodResult,
};

/// Print a section title, set off by blank lines from the previous table.
fn title(text: &str) {
    println!("\n{text}\n");
}

fn strings(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

fn table1(cohort: &Cohort, scale: f64) {
    let report = table1_report(cohort);
    println!(
        "Table 1 — cohort statistics (synthetic cohort, {} patients, scale {scale})",
        report.num_patients
    );
    println!("Paper columns are the published MIMIC-II extract (30,685 patients).\n");
    let header = strings(&[
        "dept",
        "#patients",
        "#trans",
        "mean days",
        "paper #patients",
        "paper #trans",
        "paper days",
    ]);
    let rows: Vec<Vec<String>> = report
        .measured
        .iter()
        .zip(report.paper.iter())
        .map(|(m, p)| {
            vec![
                CareUnit::from_index(m.cu).abbrev().to_string(),
                m.patients.to_string(),
                m.transitions.to_string(),
                fmt2(m.mean_duration_days),
                p.0.to_string(),
                p.1.to_string(),
                fmt2(p.2),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &rows));
}

fn table2(cohort: &Cohort) {
    let report = table2_report(cohort);
    title("Table 2 — feature-domain proportions per department (measured | paper)");
    let header = strings(&[
        "dept",
        "profile",
        "treatment",
        "nursing",
        "medication",
        "paper prof",
        "paper treat",
        "paper nurs",
        "paper med",
    ]);
    let rows: Vec<Vec<String>> = report
        .measured
        .iter()
        .zip(report.paper.iter())
        .map(|(m, p)| {
            let mut row = vec![CareUnit::from_index(m.cu).abbrev().to_string()];
            row.extend(m.proportions.iter().chain(p.iter()).map(|&x| fmt3(x)));
            row
        })
        .collect();
    print!("{}", render_table(&header, &rows));
}

fn fig2(cohort: &Cohort) {
    let report = fig2_report(cohort);
    title(&format!(
        "Figure 2 — department distribution per duration class (paper reports correlation ≈ 0.20; measured = {:.2})",
        report.correlation
    ));
    let mut header = vec!["dept".to_string()];
    header.extend((0..NUM_DURATION_CLASSES).map(duration_label));
    let rows: Vec<Vec<String>> = (0..NUM_CARE_UNITS)
        .map(|cu| {
            let mut row = vec![CareUnit::from_index(cu).abbrev().to_string()];
            row.extend((0..NUM_DURATION_CLASSES).map(|d| fmt3(report.per_duration_class[d][cu])));
            row
        })
        .collect();
    print!("{}", render_table(&header, &rows));
}

/// Figure 3 is a fixed 1-D illustration: it does not depend on the cohort.
fn fig3() {
    let report = fig3_report(71);
    title(&format!(
        "Figure 3 — conditional intensity of each point-process family\nevent times: {:?}",
        report.event_times
    ));

    let mut header = vec!["t (days)".to_string()];
    header.extend(report.series.iter().map(|(label, _)| label.clone()));
    let rows: Vec<Vec<String>> = report
        .times
        .iter()
        .enumerate()
        .step_by(5)
        .map(|(i, &t)| {
            let mut row = vec![format!("{t:.1}")];
            row.extend(report.series.iter().map(|(_, values)| fmt3(values[i])));
            row
        })
        .collect();
    print!("{}", render_table(&header, &rows));

    // Coarse ASCII sparkline per model so the qualitative shapes are visible
    // in a terminal (Poisson: steps; Hawkes: decaying spikes; self-correcting:
    // ramps; mutually-correcting: rise and fall between events).
    println!();
    for (label, values) in &report.series {
        let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
        let bars: String = values
            .iter()
            .step_by(2)
            .map(|&v| {
                let level = (v / max * 7.0).round() as usize;
                char::from_u32(0x2581 + level.min(7) as u32).unwrap_or('█')
            })
            .collect();
        println!("{label:>22}: {bars}");
    }
}

/// One per-method table (Tables 4–6): a row per entry of `classes`, then the
/// `overall_label` row, and one column per method.  `metric` picks a
/// method's per-class values and its overall value.
fn method_table(
    results: &[MethodResult],
    row_label: &str,
    classes: &[String],
    overall_label: &str,
    metric: fn(&MethodResult) -> (&[f64], f64),
) -> String {
    let mut header = vec![row_label.to_string()];
    header.extend(results.iter().map(|r| r.method.label().to_string()));
    let mut rows: Vec<Vec<String>> = classes
        .iter()
        .enumerate()
        .map(|(i, class)| {
            let mut row = vec![class.clone()];
            row.extend(results.iter().map(|r| fmt3(metric(r).0[i])));
            row
        })
        .collect();
    let mut overall = vec![overall_label.to_string()];
    overall.extend(results.iter().map(|r| fmt3(metric(r).1)));
    rows.push(overall);
    render_table(&header, &rows)
}

fn comparison_tables(results: &[MethodResult]) {
    let units: Vec<String> = (0..NUM_CARE_UNITS)
        .map(|cu| CareUnit::from_index(cu).abbrev().to_string())
        .collect();
    let durations: Vec<String> = (0..NUM_DURATION_CLASSES).map(duration_label).collect();

    title("Table 4 — destination-CU prediction accuracy (AC_c per department, AC_C overall)");
    print!(
        "{}",
        method_table(results, "dept", &units, "ALL (AC_C)", |r| {
            (&r.accuracy.per_cu, r.accuracy.overall_cu)
        })
    );
    title("Table 5 — duration-day prediction accuracy (AC_d per class, AC_D overall)");
    print!(
        "{}",
        method_table(results, "duration", &durations, "ALL (AC_D)", |r| {
            (&r.accuracy.per_duration, r.accuracy.overall_duration)
        })
    );
    title("Table 6 — relative census-simulation error (Err_c per department, Err_C overall)");
    print!(
        "{}",
        method_table(results, "dept", &units, "ALL (Err_C)", |r| {
            (&r.census.per_cu_error, r.census.overall_error)
        })
    );
}

fn fig7(dataset: &Dataset, config: &ComparisonConfig, cohort: &Cohort) {
    let report = fig7_report(dataset, &config.train, cohort.features());
    title(&format!(
        "Figure 7 — feature selection by the group lasso (trained as SDMCP)\n\
         overall fraction of suppressed feature dimensions: {:.3}",
        report.sparsity
    ));
    let header = strings(&[
        "domain",
        "#features",
        "#selected",
        "mean |theta_m|",
        "max |theta_m|",
    ]);
    let rows: Vec<Vec<String>> = report
        .domains
        .iter()
        .map(|(label, count, selected, mean, max)| {
            vec![
                label.clone(),
                count.to_string(),
                selected.to_string(),
                fmt3(*mean),
                fmt3(*max),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &rows));
}

fn fig8(dataset: &Dataset, config: &ComparisonConfig) {
    let multipliers = [0.01, 0.1, 1.0, 10.0, 100.0];
    let report = fig8_report(dataset, config, &multipliers);
    let sweep_rows = |sweep: &[(f64, f64, f64)]| -> Vec<Vec<String>> {
        sweep
            .iter()
            .map(|&(m, a, d)| vec![format!("{m}"), fmt3(a), fmt3(d)])
            .collect()
    };

    title("Figure 8(a) — accuracy vs γ multiplier (log grid around the default γ)");
    let header = strings(&["gamma ×", "AC_C", "AC_D"]);
    print!(
        "{}",
        render_table(&header, &sweep_rows(&report.gamma_sweep))
    );
    title("Figure 8(b) — accuracy vs ρ");
    let header = strings(&["rho", "AC_C", "AC_D"]);
    print!("{}", render_table(&header, &sweep_rows(&report.rho_sweep)));
}

fn joint_overfit(dataset: &Dataset, config: &ComparisonConfig) {
    let report = joint_overfit_report(dataset, config);
    title(
        "Joint (C·D classes) vs decoupled (C + D classes) classifier\n\
         (the paper reports the joint model's pair accuracy stays below 0.31)",
    );
    let header = strings(&["model", "pair accuracy", "#parameters"]);
    let rows = vec![
        vec![
            "joint".to_string(),
            fmt3(report.joint_pair_accuracy),
            report.joint_parameters.to_string(),
        ],
        vec![
            "decoupled".to_string(),
            fmt3(report.decoupled_pair_accuracy),
            report.decoupled_parameters.to_string(),
        ],
    ];
    print!("{}", render_table(&header, &rows));
}

fn main() {
    let args = Args::parse();
    let cohort = generate_cohort(&args.cohort_config());

    // Cohort-only artifacts: no training.
    table1(&cohort, args.scale);
    table2(&cohort);
    fig2(&cohort);
    fig3();

    let dataset = Dataset::from_cohort(&cohort);
    let mut config = ComparisonConfig::standard(args.seed);
    config.train = args.train_config();
    println!(
        "\nMethod comparison on a synthetic cohort of {} patients ({} transition samples), scale {}",
        cohort.patients.len(),
        dataset.len(),
        args.scale
    );
    let results = method_comparison(&dataset, &MethodId::ALL, &config);
    comparison_tables(&results);

    fig7(&dataset, &config, &cohort);
    fig8(&dataset, &config);
    joint_overfit(&dataset, &config);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_eval::census::CensusResult;
    use pfp_eval::metrics::AccuracyReport;

    fn result(method: MethodId, per_cu: [f64; 2], overall_cu: f64) -> MethodResult {
        let mut accuracy = AccuracyReport::zeros(2, 1);
        accuracy.per_cu = per_cu.to_vec();
        accuracy.overall_cu = overall_cu;
        MethodResult {
            method,
            accuracy,
            census: CensusResult {
                actual: Vec::new(),
                simulated: Vec::new(),
                per_cu_error: vec![0.0; 2],
                overall_error: 0.0,
            },
        }
    }

    #[test]
    fn method_table_has_a_row_per_class_plus_all_and_a_column_per_method() {
        let results = [
            result(MethodId::Mc, [0.5, 0.25], 0.4),
            result(MethodId::Dmcp, [0.12345, 1.0], 0.6789),
        ];
        let classes = strings(&["ICU", "Ward"]);
        let table = method_table(&results, "dept", &classes, "ALL (AC_C)", |r| {
            (&r.accuracy.per_cu, r.accuracy.overall_cu)
        });
        let lines: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Header, rule, one row per class, then the overall row.
        assert_eq!(lines.len(), 2 + classes.len() + 1);
        assert_eq!(
            lines[0],
            ["dept", MethodId::Mc.label(), MethodId::Dmcp.label()]
        );
        assert_eq!(lines[2], ["ICU", "0.500", "0.123"]);
        assert_eq!(lines[3], ["Ward", "0.250", "1.000"]);
        assert_eq!(lines[4], ["ALL", "(AC_C)", "0.400", "0.679"]);
    }
}
