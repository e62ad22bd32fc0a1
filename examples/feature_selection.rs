//! Feature-selection scenario: sweep the group-lasso weight γ and watch which
//! EHR feature domains survive, reproducing the qualitative story of Figure 7
//! (treatments dominate; profile/nursing/medication are partially selected).
//!
//! ```text
//! cargo run --example feature_selection --release
//! ```

use patient_flow::core::{Dataset, DmcpModel, TrainConfig};
use patient_flow::ehr::features::FeatureDomain;
use patient_flow::ehr::{generate_cohort, CohortConfig};

fn main() {
    let cohort = generate_cohort(&CohortConfig::small(33));
    let dataset = Dataset::from_cohort(&cohort);
    let dict = *cohort.features();
    let base = TrainConfig::paper_default();

    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "gamma", "selected", "profile", "treatment", "nursing", "medication"
    );
    for multiplier in [0.0, 0.1, 1.0, 10.0, 50.0] {
        let config = base.with_gamma(base.gamma * multiplier);
        let model = DmcpModel::train(&dataset, &config);
        let selected: std::collections::HashSet<usize> =
            model.selected_features().into_iter().collect();
        let count_in = |domain: FeatureDomain| {
            (0..dict.total_dim())
                .filter(|&i| dict.domain_of_combined(i) == domain && selected.contains(&i))
                .count()
        };
        println!(
            "{:>10.4} {:>10} {:>10} {:>10} {:>10} {:>10}",
            config.gamma,
            model.num_selected(),
            count_in(FeatureDomain::Profile),
            count_in(FeatureDomain::Treatment),
            count_in(FeatureDomain::Nursing),
            count_in(FeatureDomain::Medication),
        );
    }
    println!("\nLarger γ suppresses more feature groups; the surviving ones are shared by the\ndestination and duration heads, which is the joint selection the paper advocates.");
}
