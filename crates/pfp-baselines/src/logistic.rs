//! Checks of the logistic-regression (LR) baseline: the DMCP learner trained
//! as `DmcpPredictor::train(_, _, MethodId::Lr)`, i.e. with the
//! [`FeatureMapKind::CurrentOnly`](pfp_core::FeatureMapKind::CurrentOnly)
//! feature map (history-independent) and the group lasso disabled.

#[cfg(test)]
mod tests {
    use crate::predictor::{DmcpPredictor, FlowPredictor, MethodId};
    use pfp_core::features::FeatureMapKind;
    use pfp_core::{Dataset, TrainConfig};
    use pfp_ehr::{generate_cohort, CohortConfig};

    #[test]
    fn logistic_baseline_ignores_history() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(101)));
        let lr = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Lr);
        assert_eq!(lr.method(), MethodId::Lr);
        assert_eq!(lr.model().kind, FeatureMapKind::CurrentOnly);
    }
}
