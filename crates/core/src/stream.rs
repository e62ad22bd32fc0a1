//! Sharded and out-of-core training: the two ways to feed the DMCP engine
//! without materializing the cohort.
//!
//! The materialized path ([`crate::dataset::Dataset`] →
//! [`DmcpObjective::new`](crate::loss::DmcpObjective::new)) holds the whole
//! cohort several times over: `Vec<PatientRecord>`, the raw samples (each
//! with its own cloned history), the featurized samples, *and* the CSR
//! packing.  At paper scale and beyond that is the memory ceiling.  This
//! module feeds the one [`DmcpEngine`] from the
//! seeded, resumable [`CohortShards`] generator instead:
//!
//! * [`ShardedSamples`] — the cohort's featurized samples packed into
//!   per-shard CSR blocks plus label vectors and the feature layout, built by
//!   streaming patients through the featurizer (peak transient: one patient
//!   shard).  [`DmcpObjective::from_shards`](crate::loss::DmcpObjective::from_shards)
//!   folds the engine over the retained blocks; nothing else of the cohort is
//!   kept.
//! * [`Regenerated`] / [`StreamingDmcpObjective`] — true out-of-core: retains
//!   **no** sample data at all, only an 8-byte-per-patient sample-offset
//!   index.  Every pass regenerates and re-featurizes patients shard by shard
//!   into one reused scratch [`SampleShard`] per thread, so peak memory is
//!   O(shard), independent of the cohort size, at the cost of regenerating
//!   the cohort per pass.
//!
//! Both reproduce the materialized objective **bitwise at a fixed thread
//! count**, for any shard size: the engine's chunks never depend on where the
//! blocks are cut (see the determinism contract in [`crate::loss`];
//! property-tested in `tests/shard_equivalence.rs`).  Training over either
//! source goes through the one [`fit`].

use std::ops::Range;

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{CohortConfig, CohortShards, PatientRecord};
use pfp_math::parallel::intersect_ranges;
use pfp_math::SparseVec;

use crate::dataset::Sample;
use crate::features::{FeatureMapKind, HistoryFeaturizer, HistoryStay, EVAL_OFFSET_DAYS};
use crate::imbalance::ImbalanceStrategy;
pub use crate::loss::SampleShard;
use crate::loss::{DmcpEngine, SampleSource};
use crate::model::DmcpModel;
use crate::train::{fit, TrainConfig};

/// Featurize every transition sample of one patient, in transition order,
/// without materializing `RawSample`s: `visit(features, cu_label,
/// duration_label)` is called once per transition.
///
/// Produces exactly the features
/// [`extract_patient_samples`](crate::dataset::extract_patient_samples) +
/// [`HistoryFeaturizer::featurize`] would — the history prefix passed for
/// transition `i` is identical content in identical order — so the streamed
/// features match the materialized ones bitwise.  The full history is built
/// once per patient and sliced per transition, instead of re-cloning a
/// growing prefix per sample.
pub fn for_each_patient_sample(
    patient: &PatientRecord,
    featurizer: &HistoryFeaturizer,
    mut visit: impl FnMut(SparseVec, usize, usize),
) {
    let transitions = patient.transitions();
    if transitions.is_empty() {
        return;
    }
    let history: Vec<HistoryStay> = patient
        .stays
        .iter()
        .map(|s| HistoryStay {
            entry_time: s.entry_time,
            services: s.services.clone(),
        })
        .collect();
    for t in &transitions {
        let current = t.from_stay;
        let t_prev = if current == 0 {
            0.0
        } else {
            patient.stays[current - 1].entry_time
        };
        let t_eval = patient.stays[current].entry_time + EVAL_OFFSET_DAYS;
        let features = featurizer.featurize(&patient.profile, &history[..=current], t_eval, t_prev);
        visit(features, t.destination, t.duration_class);
    }
}

/// A cohort's featurized samples as shard blocks, plus the feature layout
/// they were featurized under.  Built either from already-featurized samples
/// ([`from_samples`](Self::from_samples)) or by streaming a cohort config
/// through the generator and featurizer without ever materializing patient or
/// sample vectors ([`stream_cohort`](Self::stream_cohort)).
#[derive(Debug, Clone)]
pub struct ShardedSamples {
    shards: Vec<SampleShard>,
    featurizer: HistoryFeaturizer,
    num_cus: usize,
    num_durations: usize,
    total_samples: usize,
}

impl ShardedSamples {
    /// Pack samples featurized by `featurizer` into shard blocks of at most
    /// `shard_size` samples.
    ///
    /// # Panics
    /// Panics if `shard_size == 0`, a label is out of range, or a feature
    /// vector's dimension differs from `featurizer.total_dim()`.
    pub fn from_samples(
        samples: &[Sample],
        shard_size: usize,
        featurizer: HistoryFeaturizer,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        assert!(
            num_cus >= 1 && num_durations >= 1,
            "need at least one class per head"
        );
        let shards = samples
            .chunks(shard_size)
            .enumerate()
            .map(|(i, block)| {
                SampleShard::pack(
                    i * shard_size,
                    block,
                    featurizer.total_dim(),
                    num_cus,
                    num_durations,
                )
            })
            .collect();
        Self {
            shards,
            featurizer,
            num_cus,
            num_durations,
            total_samples: samples.len(),
        }
    }

    /// Stream the cohort of `config` into featurized shard blocks of (at
    /// most) the samples of `shard_size` patients each, without ever holding
    /// more than one patient shard in memory.
    ///
    /// `kind` overrides the feature map; `None` selects the paper default
    /// (mutually-correcting with σ = cohort mean dwell time, computed in a
    /// streaming pre-pass that sums dwell times in exactly
    /// [`pfp_ehr::stats::mean_dwell_days`]' order, so σ — and therefore every
    /// feature — matches the materialized
    /// [`Dataset`](crate::dataset::Dataset) path bitwise).
    pub fn stream_cohort(
        config: &CohortConfig,
        kind: Option<FeatureMapKind>,
        shard_size: usize,
    ) -> Self {
        let featurizer = cohort_featurizer(config, kind, shard_size);
        let mut shards = Vec::new();
        let mut total_samples = 0usize;
        for patient_shard in CohortShards::new(config, shard_size) {
            let mut shard = SampleShard::empty(total_samples, featurizer.total_dim());
            for patient in &patient_shard.patients {
                for_each_patient_sample(patient, &featurizer, |features, cu, dur| {
                    shard.push(&features, cu, dur);
                });
            }
            total_samples += shard.len();
            shards.push(shard);
        }
        Self {
            shards,
            featurizer,
            num_cus: NUM_CARE_UNITS,
            num_durations: NUM_DURATION_CLASSES,
            total_samples,
        }
    }

    /// Total number of samples across all shards.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// The shard blocks, in sample order.
    pub fn shards(&self) -> &[SampleShard] {
        &self.shards
    }

    /// The featurizer the samples were built with (kind and block layout).
    pub fn featurizer(&self) -> HistoryFeaturizer {
        self.featurizer
    }

    /// The feature map the samples were featurized under.
    pub fn kind(&self) -> FeatureMapKind {
        self.featurizer.kind
    }

    /// Feature dimension `M`.
    pub fn num_features(&self) -> usize {
        self.featurizer.total_dim()
    }

    /// Number of destination classes `C`.
    pub fn num_cus(&self) -> usize {
        self.num_cus
    }

    /// Number of duration classes `D`.
    pub fn num_durations(&self) -> usize {
        self.num_durations
    }

    /// Per-joint-class `(c, d)` sample counts, streamed over the shard
    /// labels.  Same counts as
    /// [`crate::imbalance::joint_class_counts`] on the materialized samples.
    pub fn joint_class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_cus * self.num_durations];
        for shard in &self.shards {
            for (&c, &d) in shard.cu_labels.iter().zip(&shard.duration_labels) {
                counts[c as usize * self.num_durations + d as usize] += 1;
            }
        }
        counts
    }

    /// The weighted-data (WDMCP) per-sample weights, `w_i = 1 / ln(1 +
    /// #{(c_i, d_i)})`, in global sample order — bitwise the same values as
    /// [`crate::imbalance::sample_weights`] on the materialized samples.
    pub fn sample_weights(&self) -> Vec<f64> {
        let counts = self.joint_class_counts();
        let mut weights = Vec::with_capacity(self.total_samples);
        for shard in &self.shards {
            for (&c, &d) in shard.cu_labels.iter().zip(&shard.duration_labels) {
                let n = counts[c as usize * self.num_durations + d as usize].max(1);
                weights.push(1.0 / (1.0 + n as f64).ln());
            }
        }
        weights
    }
}

/// The featurizer for a generated cohort: `kind`, or the paper default whose
/// σ is the cohort mean dwell time, summed in a streaming pre-pass in exactly
/// [`pfp_ehr::stats::mean_dwell_days`]' order (patients in id order, stays in
/// chronological order), one patient shard in memory at a time.
fn cohort_featurizer(
    config: &CohortConfig,
    kind: Option<FeatureMapKind>,
    shard_size: usize,
) -> HistoryFeaturizer {
    let kind = kind.unwrap_or_else(|| {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for shard in CohortShards::new(config, shard_size) {
            for p in &shard.patients {
                for s in &p.stays {
                    sum += s.dwell_days;
                    count += 1;
                }
            }
        }
        let mean = if count == 0 { 1.0 } else { sum / count as f64 };
        FeatureMapKind::MutuallyCorrecting {
            sigma: mean.max(0.5),
        }
    });
    HistoryFeaturizer::new(
        kind,
        config.features.profile,
        config.features.time_varying_dim(),
    )
}

/// The out-of-core sample source: regenerates and re-featurizes the cohort
/// from its seed on **every** pass, `shard_size` patients per block,
/// retaining only an 8-byte-per-patient sample-offset index between passes.
///
/// Peak memory is O(shard_size) — one scratch block per worker thread,
/// reused across blocks — regardless of the cohort size.  The price is one
/// cohort generation + featurization per pass; this is the memory-bound end
/// of the trade-off, [`ShardedSamples`] (retained blocks) the speed-bound
/// end.  Block boundaries fall at patient granularity, which the engine's
/// determinism contract makes unobservable.
pub struct Regenerated {
    config: CohortConfig,
    featurizer: HistoryFeaturizer,
    shard_size: usize,
    /// `sample_offsets[p]` = number of samples contributed by patients
    /// `0..p`; length `num_patients + 1`.  The only retained per-patient
    /// state.
    sample_offsets: Vec<usize>,
}

impl SampleSource for Regenerated {
    fn total_samples(&self) -> usize {
        *self.sample_offsets.last().expect("non-empty offsets")
    }

    fn for_each_block(
        &self,
        range: Range<usize>,
        mut visit: impl FnMut(&SampleShard, Range<usize>),
    ) {
        let mut block = SampleShard::empty(range.start, self.featurizer.total_dim());
        // First patient whose sample range ends after `range` starts.
        let first = self.sample_offsets[1..].partition_point(|&end| end <= range.start);
        let mut patients_in_block = 0usize;
        for p in first..self.config.num_patients {
            let p_range = self.sample_offsets[p]..self.sample_offsets[p + 1];
            if p_range.start >= range.end {
                break;
            }
            let overlap = intersect_ranges(&range, &p_range);
            if overlap.is_empty() {
                continue;
            }
            let (record, _) = pfp_ehr::generate_patient_record(&self.config, p);
            let mut s_idx = p_range.start;
            for_each_patient_sample(&record, &self.featurizer, |features, cu, dur| {
                if overlap.contains(&s_idx) {
                    block.push(&features, cu, dur);
                }
                s_idx += 1;
            });
            patients_in_block += 1;
            if patients_in_block >= self.shard_size {
                visit(&block, 0..block.len());
                block.reset(block.range().end);
                patients_in_block = 0;
            }
        }
        if !block.is_empty() {
            visit(&block, 0..block.len());
        }
    }
}

/// The engine over a regenerated cohort: true out-of-core training.
///
/// Per-sample weights are not supported (they would require a per-pass
/// streaming re-count); train with [`ImbalanceStrategy::None`].
pub type StreamingDmcpObjective = DmcpEngine<'static, Regenerated>;

impl StreamingDmcpObjective {
    /// Build the objective for the cohort of `config`, streaming two
    /// pre-passes (σ, then the sample-offset index) with at most
    /// `shard_size` patients in memory at a time.
    ///
    /// `kind` overrides the feature map; `None` selects the paper default.
    ///
    /// # Panics
    /// Panics if the cohort yields zero transition samples or
    /// `shard_size == 0`.
    pub fn new(config: &CohortConfig, kind: Option<FeatureMapKind>, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let featurizer = cohort_featurizer(config, kind, shard_size);
        let mut sample_offsets = Vec::with_capacity(config.num_patients + 1);
        sample_offsets.push(0);
        let mut total = 0usize;
        for shard in CohortShards::new(config, shard_size) {
            for p in &shard.patients {
                total += p.num_transitions();
                sample_offsets.push(total);
            }
        }
        let source = Regenerated {
            config: config.clone(),
            featurizer,
            shard_size,
            sample_offsets,
        };
        DmcpEngine::build(
            source,
            None,
            featurizer.total_dim(),
            NUM_CARE_UNITS,
            NUM_DURATION_CLASSES,
        )
    }

    /// The featurizer every pass re-runs (kind and block layout) — the one
    /// to [`fit`] this objective with.
    pub fn featurizer(&self) -> HistoryFeaturizer {
        self.source().featurizer
    }

    /// The feature map in use.
    pub fn kind(&self) -> FeatureMapKind {
        self.source().featurizer.kind
    }
}

/// Train a [`DmcpModel`] fully out-of-core: the cohort of `cohort_config`
/// never exists in memory, only `shard_size`-patient windows of it.
///
/// Reproduces `train(&Dataset::from_cohort(&generate_cohort(cohort_config)),
/// config)` bitwise at a fixed thread count.
///
/// # Panics
/// Panics if `config.imbalance` is not [`ImbalanceStrategy::None`] (weighted
/// and synthetic strategies need materialized samples or retained labels —
/// fit [`DmcpObjective::from_shards`](crate::loss::DmcpObjective::from_shards)
/// for weighted) or the cohort has no
/// transitions.
pub fn train_streamed(
    cohort_config: &CohortConfig,
    config: &TrainConfig,
    shard_size: usize,
) -> DmcpModel {
    assert!(
        config.imbalance == ImbalanceStrategy::None,
        "out-of-core training supports ImbalanceStrategy::None only"
    );
    let objective = StreamingDmcpObjective::new(cohort_config, config.feature_map, shard_size)
        .with_threads(config.threads);
    fit(&objective, objective.featurizer(), config, None)
        .expect("cold start cannot fail")
        .model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::loss::DmcpObjective;
    use crate::train::train;
    use pfp_ehr::generate_cohort;
    use pfp_math::{CsrMatrix, Matrix};
    use pfp_optim::SmoothObjective;

    fn fixture() -> (Dataset, Vec<Sample>) {
        let cohort = generate_cohort(&CohortConfig::tiny(17));
        let ds = Dataset::from_cohort(&cohort);
        let samples = ds.featurize(ds.default_mcp_kind());
        (ds, samples)
    }

    #[test]
    fn streamed_features_match_materialized_featurization_bitwise() {
        let cohort = generate_cohort(&CohortConfig::tiny(17));
        let ds = Dataset::from_cohort(&cohort);
        let kind = ds.default_mcp_kind();
        let materialized = ds.featurize(kind);
        let featurizer = ds.featurizer(kind);
        let mut streamed = Vec::new();
        for p in &cohort.patients {
            for_each_patient_sample(p, &featurizer, |features, cu, dur| {
                streamed.push((features, cu, dur));
            });
        }
        assert_eq!(streamed.len(), materialized.len());
        for ((f, cu, dur), m) in streamed.iter().zip(&materialized) {
            assert_eq!(f, &m.features, "features must match bitwise");
            assert_eq!((*cu, *dur), (m.cu_label, m.duration_label));
        }
    }

    #[test]
    fn stream_cohort_matches_from_samples_packing() {
        let (ds, samples) = fixture();
        let streamed = ShardedSamples::stream_cohort(&CohortConfig::tiny(17), None, 40);
        assert_eq!(streamed.total_samples(), samples.len());
        assert_eq!(streamed.num_features(), ds.total_feature_dim());
        // Same σ as the materialized dataset pre-pass.
        assert_eq!(streamed.kind(), ds.default_mcp_kind());
        assert_eq!(
            streamed.featurizer().profile_dim + streamed.featurizer().service_dim,
            ds.total_feature_dim()
        );
        // Row-for-row identical content (shard boundaries differ: stream
        // shards are per-patient, from_samples shards are per-sample).
        let mut global = 0usize;
        for shard in streamed.shards() {
            assert_eq!(shard.start, global);
            for local in 0..shard.len() {
                let s = &samples[global];
                let (idx, val) = shard.csr.row(local);
                assert_eq!(idx, s.features.indices());
                assert_eq!(val, s.features.values());
                assert_eq!(shard.cu_labels[local] as usize, s.cu_label);
                assert_eq!(shard.duration_labels[local] as usize, s.duration_label);
                global += 1;
            }
        }
        assert_eq!(global, samples.len());
    }

    #[test]
    fn sharded_objective_matches_materialized_bitwise_in_serial() {
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let theta = Matrix::from_fn(m, ds.num_cus + ds.num_durations, |r, c| {
            0.01 * ((r % 13) as f64) - 0.02 * (c as f64)
        });
        let mut grad_ref = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        for shard_size in [1usize, 7, samples.len(), samples.len() + 1] {
            let sharded = ShardedSamples::from_samples(
                &samples,
                shard_size,
                ds.featurizer(ds.default_mcp_kind()),
                ds.num_cus,
                ds.num_durations,
            );
            let obj = DmcpObjective::from_shards(&sharded, None);
            let mut grad = Matrix::zeros(m, ds.num_cus + ds.num_durations);
            let value = obj.value_and_gradient(&theta, &mut grad);
            assert_eq!(value.to_bits(), value_ref.to_bits(), "shard={shard_size}");
            assert_eq!(grad, grad_ref, "shard={shard_size}");
            assert_eq!(value.to_bits(), obj.value(&theta).to_bits());
            let mut grad_only = Matrix::zeros(m, ds.num_cus + ds.num_durations);
            obj.gradient(&theta, &mut grad_only);
            assert_eq!(grad_only, grad_ref);
            assert_eq!(
                obj.row_curvature_bounds(),
                reference.row_curvature_bounds(),
                "shard={shard_size}"
            );
        }
    }

    #[test]
    fn streaming_objective_matches_materialized_bitwise_in_serial() {
        let cohort_config = CohortConfig::tiny(17);
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let theta = Matrix::from_fn(m, ds.num_cus + ds.num_durations, |r, c| {
            0.015 * ((r % 11) as f64) - 0.01 * (c as f64)
        });
        let mut grad_ref = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        for shard_size in [1usize, 32, 1000] {
            let obj = StreamingDmcpObjective::new(&cohort_config, None, shard_size);
            assert_eq!(obj.total_samples(), samples.len());
            let mut grad = Matrix::zeros(m, ds.num_cus + ds.num_durations);
            let value = obj.value_and_gradient(&theta, &mut grad);
            assert_eq!(value.to_bits(), value_ref.to_bits(), "shard={shard_size}");
            assert_eq!(grad, grad_ref, "shard={shard_size}");
            assert_eq!(
                obj.row_curvature_bounds(),
                reference.row_curvature_bounds(),
                "shard={shard_size}"
            );
        }
    }

    #[test]
    fn sharded_weights_match_imbalance_module() {
        let (ds, samples) = fixture();
        let featurizer = ds.featurizer(ds.default_mcp_kind());
        let sharded =
            ShardedSamples::from_samples(&samples, 7, featurizer, ds.num_cus, ds.num_durations);
        let expected = crate::imbalance::sample_weights(&samples, ds.num_cus, ds.num_durations);
        let got = sharded.sample_weights();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
        assert_eq!(
            sharded.joint_class_counts(),
            crate::imbalance::joint_class_counts(&samples, ds.num_cus, ds.num_durations)
        );
    }

    #[test]
    fn empty_sample_shards_are_skipped_in_the_fold() {
        // Hand-build shards with an empty block in the middle (a patient
        // shard of single-stay patients).
        let (ds, samples) = fixture();
        let m = ds.total_feature_dim();
        let mut sharded = ShardedSamples::from_samples(
            &samples,
            samples.len(),
            ds.featurizer(ds.default_mcp_kind()),
            ds.num_cus,
            ds.num_durations,
        );
        // Split shard 0 into [0..k), an empty shard, [k..n).
        let only = sharded.shards.remove(0);
        let k = samples.len() / 2;
        let mut first = SampleShard {
            start: 0,
            csr: CsrMatrix::with_dim(m),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        let mut second = SampleShard {
            start: k,
            csr: CsrMatrix::with_dim(m),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        for (i, s) in samples.iter().enumerate().take(only.len()) {
            let target = if i < k { &mut first } else { &mut second };
            target.csr.push_row(&s.features);
            target.cu_labels.push(only.cu_labels[i]);
            target.duration_labels.push(only.duration_labels[i]);
        }
        let empty = SampleShard {
            start: k,
            csr: CsrMatrix::with_dim(m),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        };
        sharded.shards = vec![first, empty, second];
        let obj = DmcpObjective::from_shards(&sharded, None);
        let reference = DmcpObjective::new(&samples, None, m, ds.num_cus, ds.num_durations);
        let theta = Matrix::from_fn(m, ds.num_cus + ds.num_durations, |r, c| {
            0.01 * (r as f64 % 7.0) + 0.005 * (c as f64)
        });
        let mut grad = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let mut grad_ref = Matrix::zeros(m, ds.num_cus + ds.num_durations);
        let value = obj.value_and_gradient(&theta, &mut grad);
        let value_ref = reference.value_and_gradient(&theta, &mut grad_ref);
        assert_eq!(value.to_bits(), value_ref.to_bits());
        assert_eq!(grad, grad_ref);
    }

    #[test]
    fn model_fitted_on_sample_shards_equals_train_model() {
        // A shard set built from featurized samples carries the featurizer's
        // layout, so the model fitted on it is `train()`'s model in every
        // field and scores real samples.
        let (ds, samples) = fixture();
        let kind = FeatureMapKind::MutuallyCorrecting { sigma: 3.0 };
        let config = TrainConfig::fast().with_feature_map(kind);
        let expected = train(&ds, &config);
        let samples_k = ds.featurize(kind);
        assert_eq!(samples_k.len(), samples.len());
        for shard_size in [1usize, 7, samples.len()] {
            let sharded = ShardedSamples::from_samples(
                &samples_k,
                shard_size,
                ds.featurizer(kind),
                ds.num_cus,
                ds.num_durations,
            );
            let objective = DmcpObjective::from_shards(&sharded, None);
            let model = fit(&objective, sharded.featurizer(), &config, None)
                .unwrap()
                .model;
            assert_eq!(model.theta, expected.theta, "shard={shard_size}");
            assert_eq!(model.selection, expected.selection);
            assert_eq!(model.kind, expected.kind);
            assert_eq!(model.profile_dim, expected.profile_dim);
            assert_eq!(model.service_dim, expected.service_dim);
            assert_eq!(model.num_cus, expected.num_cus);
            assert_eq!(model.num_durations, expected.num_durations);
            assert_eq!(model.num_features(), model.theta.rows());
            for s in samples_k.iter().take(20) {
                assert_eq!(model.predict(&s.features), expected.predict(&s.features));
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn sharded_objective_rejects_zero_samples() {
        let featurizer = HistoryFeaturizer::new(FeatureMapKind::CurrentOnly, 1, 2);
        let sharded = ShardedSamples::from_samples(&[], 4, featurizer, 2, 2);
        let _ = DmcpObjective::from_shards(&sharded, None);
    }

    #[test]
    #[should_panic(expected = "out-of-core training supports")]
    fn train_streamed_rejects_weighted_imbalance() {
        let _ = train_streamed(
            &CohortConfig::tiny(1),
            &TrainConfig::fast().with_imbalance(ImbalanceStrategy::Weighted),
            64,
        );
    }
}
