//! Checks of the modulated-Poisson (MPP) and self-correcting (SCP/SSCP)
//! discriminative baselines: the DMCP learner trained as
//! `DmcpPredictor::train(_, _, MethodId::X)` with the feature maps of Table 3
//! (`g = 1, h = 1` for MPP; `g = t, h = 1` for SCP) and no group lasso.

#[cfg(test)]
mod tests {
    use crate::predictor::{DmcpPredictor, FlowPredictor, MethodId};
    use pfp_core::features::FeatureMapKind;
    use pfp_core::{Dataset, TrainConfig};
    use pfp_ehr::{generate_cohort, CohortConfig};

    #[test]
    fn mpp_and_scp_use_their_feature_maps() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(111)));
        let mpp = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Mpp);
        let scp = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Scp);
        assert_eq!(mpp.model().kind, FeatureMapKind::ModulatedPoisson);
        assert_eq!(scp.model().kind, FeatureMapKind::SelfCorrecting);
        assert_eq!(mpp.method(), MethodId::Mpp);
        assert_eq!(scp.method(), MethodId::Scp);
    }

    #[test]
    fn sscp_combines_scp_with_synthetic_preprocessing() {
        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(112)));
        let sscp = DmcpPredictor::train(&ds, &TrainConfig::fast(), MethodId::Sscp);
        assert_eq!(sscp.method(), MethodId::Sscp);
        assert_eq!(sscp.model().kind, FeatureMapKind::SelfCorrecting);
    }
}
