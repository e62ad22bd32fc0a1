//! Hospital-resource planning scenario: forecast the next week's per-unit
//! patient census for a set of newly admitted patients — the paper's
//! motivating application (anticipating over-crowding and scheduling
//! conflicts).
//!
//! ```text
//! cargo run --example hospital_census --release
//! ```

use patient_flow::baselines::{DmcpPredictor, MarkovPredictor, MethodId};
use patient_flow::core::{Dataset, TrainConfig};
use patient_flow::ehr::departments::{CareUnit, NUM_CARE_UNITS};
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::census::{simulate_census, CENSUS_DAYS};

fn main() {
    let cohort = generate_cohort(&CohortConfig::small(7));
    let dataset = Dataset::from_cohort(&cohort);
    let (train, test) = dataset.split_holdout(0.2, 7);
    println!(
        "planning horizon: {CENSUS_DAYS} days, {} newly admitted patients to forecast",
        test.patients.len()
    );

    let dmcp = DmcpPredictor::train(&train, &TrainConfig::paper_default(), MethodId::Sdmcp);
    let markov = MarkovPredictor::train(&train);

    let dmcp_census = simulate_census(&dmcp, &test);
    let mc_census = simulate_census(&markov, &test);

    println!("\nday-3 census forecast (actual | SDMCP | Markov chain):");
    for cu in 0..NUM_CARE_UNITS {
        println!(
            "  {:<6} {:>4} | {:>4} | {:>4}",
            CareUnit::from_index(cu).abbrev(),
            dmcp_census.actual[cu][2],
            dmcp_census.simulated[cu][2],
            mc_census.simulated[cu][2],
        );
    }

    println!("\nrelative simulation error per unit (SDMCP vs Markov chain):");
    for cu in 0..NUM_CARE_UNITS {
        println!(
            "  {:<6} {:.3} vs {:.3}",
            CareUnit::from_index(cu).abbrev(),
            dmcp_census.per_cu_error[cu],
            mc_census.per_cu_error[cu]
        );
    }
    println!(
        "\noverall Err_C: SDMCP = {:.3}, Markov chain = {:.3}",
        dmcp_census.overall_error, mc_census.overall_error
    );
}
