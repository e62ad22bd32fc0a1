//! Miniature version of the paper's main experiment (Tables 4–6): train a
//! representative subset of methods and print their destination / duration
//! accuracy and census-simulation error side by side.
//!
//! ```text
//! cargo run --example method_comparison --release
//! ```

use patient_flow::baselines::MethodId;
use patient_flow::core::Dataset;
use patient_flow::ehr::{generate_cohort, CohortConfig};
use patient_flow::eval::experiments::{method_comparison, ComparisonConfig};

fn main() {
    let cohort = generate_cohort(&CohortConfig::small(55));
    let dataset = Dataset::from_cohort(&cohort);
    let config = ComparisonConfig::standard(55);

    let methods = [
        MethodId::Mc,
        MethodId::Ctmc,
        MethodId::Lr,
        MethodId::Hp,
        MethodId::Mpp,
        MethodId::Dmcp,
        MethodId::Sdmcp,
    ];
    let results = method_comparison(&dataset, &methods, &config);

    println!("{:<8} {:>8} {:>8} {:>8}", "method", "AC_C", "AC_D", "Err_C");
    for r in &results {
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>8.3}",
            r.method.label(),
            r.accuracy.overall_cu,
            r.accuracy.overall_duration,
            r.census.overall_error
        );
    }
    println!(
        "\nExpected shape (paper): MC/CTMC ≪ LR < HP/MPP < DMCP ≤ SDMCP on accuracy,\n\
         and SDMCP lowest on the census simulation error."
    );
}
