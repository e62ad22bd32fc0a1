//! Quickstart: generate a synthetic cohort, train the paper's DMCP model, and
//! evaluate it on held-out patients.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use patient_flow::baselines::{DmcpPredictor, MethodId};
use patient_flow::core::{Dataset, DmcpModel, TrainConfig};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::metrics::{evaluate, overall_cu_accuracy, overall_duration_accuracy};

fn main() {
    // 1. A synthetic MIMIC-II-like cohort (see pfp-ehr for the substitution
    //    argument). `small` is ~1,200 patients; use CohortConfig::paper_scale
    //    for the full 30,685-patient setting.
    let cohort = generate_cohort(&CohortConfig::small(42));
    println!(
        "cohort: {} patients, {} transitions, {} features",
        cohort.patients.len(),
        cohort.total_transitions(),
        cohort.features().total_dim()
    );

    // 2. Extract transition samples and hold out 10% of patients.
    let dataset = Dataset::from_cohort(&cohort);
    let (train, test) = dataset.split_holdout(0.1, 42);
    println!(
        "train: {} samples, test: {} samples",
        train.len(),
        test.len()
    );

    // 3. Train the discriminative mutually-correcting process model.
    let config = TrainConfig::paper_default();
    let model = DmcpModel::train(&train, &config);
    println!(
        "trained DMCP: {} feature dimensions, {} selected by the group lasso ({:.1}% suppressed)",
        model.num_features(),
        model.num_selected(),
        100.0 * model.sparsity()
    );

    // 4. Evaluate: overall and per-department destination accuracy plus
    //    duration accuracy.
    let acc_cu = overall_cu_accuracy(&model, &test);
    let acc_dur = overall_duration_accuracy(&model, &test);
    println!("overall destination accuracy AC_C = {acc_cu:.3}");
    println!("overall duration accuracy    AC_D = {acc_dur:.3}");

    let predictor = DmcpPredictor::from_model(model, MethodId::Dmcp);
    let report = evaluate(&predictor, &test);
    println!("\nper-department accuracy:");
    for (cu, acc) in report.per_cu.iter().enumerate() {
        println!(
            "  {:<6} {:.3}",
            patient_flow::ehr::departments::CareUnit::from_index(cu).abbrev(),
            acc
        );
    }
}
