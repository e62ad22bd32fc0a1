//! Smoke tests for every experiment runner: each table/figure report function
//! must run end-to-end on a tiny cohort and produce well-formed output.

use patient_flow::baselines::MethodId;
use patient_flow::core::{Dataset, TrainConfig};
use patient_flow::ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::experiments::{
    fig2_report, fig3_report, fig7_report, fig8_report, joint_overfit_report, method_comparison,
    table1_report, table2_report, ComparisonConfig,
};

fn cohort() -> patient_flow::ehr::Cohort {
    generate_cohort(&CohortConfig::tiny(401))
}

#[test]
fn table1_and_table2_reports_are_well_formed() {
    let c = cohort();
    let t1 = table1_report(&c);
    assert_eq!(t1.measured.len(), NUM_CARE_UNITS);
    assert_eq!(t1.paper.len(), NUM_CARE_UNITS);
    let t2 = table2_report(&c);
    for row in &t2.measured {
        let sum: f64 = row.proportions.iter().sum();
        assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
    }
}

#[test]
fn fig2_correlation_is_weak_like_the_paper() {
    let report = fig2_report(&cohort());
    assert!(report.correlation.abs() < 0.5);
    assert_eq!(report.per_duration_class.len(), NUM_DURATION_CLASSES);
}

#[test]
fn fig3_report_produces_four_positive_series() {
    let r = fig3_report(50);
    assert_eq!(r.series.len(), 4);
    for (_, values) in &r.series {
        assert!(values.iter().all(|v| *v >= 0.0 && v.is_finite()));
    }
}

#[test]
fn full_method_comparison_covers_all_twelve_methods() {
    let dataset = Dataset::from_cohort(&cohort());
    let config = ComparisonConfig::fast(402);
    let results = method_comparison(&dataset, &MethodId::ALL, &config);
    assert_eq!(results.len(), 12);
    for r in &results {
        assert_eq!(r.accuracy.per_cu.len(), NUM_CARE_UNITS);
        assert_eq!(r.accuracy.per_duration.len(), NUM_DURATION_CLASSES);
        assert!(r.census.overall_error.is_finite());
    }
}

#[test]
fn fig7_fig8_and_joint_reports_run_on_tiny_cohorts() {
    let c = cohort();
    let dataset = Dataset::from_cohort(&c);
    let f7 = fig7_report(&dataset, &TrainConfig::fast(), c.features());
    assert_eq!(f7.domains.len(), 4);

    let cfg = ComparisonConfig::fast(403);
    let f8 = fig8_report(&dataset, &cfg, &[0.1, 1.0]);
    assert_eq!(f8.gamma_sweep.len(), 2);
    assert_eq!(f8.rho_sweep.len(), 2);

    let joint = joint_overfit_report(&dataset, &cfg);
    assert!(joint.joint_parameters > joint.decoupled_parameters);
}
