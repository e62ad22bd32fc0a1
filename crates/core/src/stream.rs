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
//! * [`Spilled`] / [`StreamingDmcpObjective`] — true out-of-core: the same
//!   per-shard blocks, featurized **once** and appended to a scratch file
//!   under [`std::env::temp_dir`]; memory keeps only a block index.  Every
//!   pass reads the blocks back through a fixed buffer into one reused
//!   scratch [`SampleShard`] per thread, validating them as it goes, so peak
//!   memory is O(shard), independent of the cohort size, at the cost of one
//!   sequential file read per pass.
//!
//! Both reproduce the materialized objective **bitwise at a fixed thread
//! count**, for any shard size: the engine's chunks never depend on where the
//! blocks are cut (see the determinism contract in [`crate::loss`];
//! property-tested in `tests/shard_equivalence.rs`).  Training over either
//! source goes through the one [`fit`].

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pfp_ehr::departments::{NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{CohortConfig, CohortShards, PatientRecord};
use pfp_math::parallel::intersect_ranges;
use pfp_math::{CsrMatrix, SparseVec};

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
        for_each_featurized_shard(config, &featurizer, shard_size, |shard| {
            let next = SampleShard::empty(shard.range().end, featurizer.total_dim());
            shards.push(std::mem::replace(shard, next));
        });
        let total_samples = shards.last().map_or(0, |s| s.range().end);
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

/// Stream the cohort of `config` through `featurizer`, `shard_size` patients
/// at a time, handing each patient shard's samples to `visit` as one block
/// (empty when the shard has no transitions).  The block is reset after each
/// visit, so its buffers are reused unless `visit` takes them.
fn for_each_featurized_shard(
    config: &CohortConfig,
    featurizer: &HistoryFeaturizer,
    shard_size: usize,
    mut visit: impl FnMut(&mut SampleShard),
) {
    let mut shard = SampleShard::empty(0, featurizer.total_dim());
    for patient_shard in CohortShards::new(config, shard_size) {
        for patient in &patient_shard.patients {
            for_each_patient_sample(patient, featurizer, |features, cu, dur| {
                shard.push(&features, cu, dur);
            });
        }
        visit(&mut shard);
        shard.reset(shard.range().end);
    }
}

/// Size of the fixed buffer a spill file is written and read through.
const SPILL_BUFFER_BYTES: usize = 64 * 1024;

/// Names spill files uniquely within the process (the pid separates
/// processes).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One non-empty block of a spill file: global samples `start..start + rows`
/// with `nnz` stored nonzeros, written `offset` bytes into the file.
#[derive(Debug, Clone, Copy)]
struct SpillBlock {
    start: usize,
    rows: usize,
    nnz: usize,
    offset: u64,
}

impl SpillBlock {
    /// The block's size on disk: `indptr` (`rows + 1` × u64), the column
    /// indices (`nnz` × u32), the values (`nnz` × f64), then the destination
    /// and duration labels (`rows` × u32 each), all little-endian.
    fn bytes(&self) -> u64 {
        (8 * (self.rows + 1) + 12 * self.nnz + 8 * self.rows) as u64
    }

    fn range(&self) -> Range<usize> {
        self.start..self.start + self.rows
    }
}

/// The out-of-core sample source: the cohort's featurized shard blocks,
/// written once to a scratch file under [`std::env::temp_dir`] and read back
/// block by block on every pass.
///
/// In memory it keeps only a block index of `(start, rows, nnz, byte
/// offset)`; a pass streams the blocks it needs through a fixed 64 KiB
/// buffer into one scratch [`SampleShard`] per worker thread, so peak
/// memory is O(shard) regardless of the cohort size.
/// Every read re-validates the file (exact byte count, monotone `indptr`
/// ending at `nnz`, indices `< M`, finite values, labels `< C` and `< D`)
/// and panics, naming the file, on any mismatch.  Dropping the source
/// deletes the file.
pub struct Spilled {
    path: PathBuf,
    featurizer: HistoryFeaturizer,
    blocks: Vec<SpillBlock>,
    /// The file's exact length in bytes.
    bytes: u64,
}

impl Spilled {
    /// Featurize the cohort of `config` once, `shard_size` patients per
    /// block, appending every non-empty block to a new spill file.
    fn create(config: &CohortConfig, featurizer: HistoryFeaturizer, shard_size: usize) -> Self {
        let (path, file) = loop {
            let path = std::env::temp_dir().join(format!(
                "pfp-spill-{}-{}.bin",
                std::process::id(),
                SPILL_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(file) => break (path, file),
                // A stale file from an earlier process with the same pid.
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("cannot create spill file {}: {e}", path.display()),
            }
        };
        // The source owns the file from here on, so a failed write still
        // deletes it.
        let mut spilled = Spilled {
            path,
            featurizer,
            blocks: Vec::new(),
            bytes: 0,
        };
        let mut out = BufWriter::with_capacity(SPILL_BUFFER_BYTES, file);
        for_each_featurized_shard(config, &featurizer, shard_size, |shard| {
            if shard.is_empty() {
                return;
            }
            let block = SpillBlock {
                start: shard.start,
                rows: shard.len(),
                nnz: shard.csr.nnz(),
                offset: spilled.bytes,
            };
            write_block(&mut out, shard).unwrap_or_else(|e| spilled.fail(e));
            spilled.bytes += block.bytes();
            spilled.blocks.push(block);
        });
        out.into_inner()
            .map_err(|e| e.into_error())
            .unwrap_or_else(|e| spilled.fail(e));
        spilled
    }

    fn fail(&self, reason: impl std::fmt::Display) -> ! {
        panic!("spill file {}: {reason}", self.path.display())
    }

    /// Open the file positioned at `offset`, after checking its length.
    fn open_at(&self, offset: u64) -> SpillReader<'_> {
        let mut file = File::open(&self.path).unwrap_or_else(|e| self.fail(e));
        let len = file.metadata().unwrap_or_else(|e| self.fail(e)).len();
        if len != self.bytes {
            self.fail(format!("is {len} bytes, expected {}", self.bytes));
        }
        file.seek(SeekFrom::Start(offset))
            .unwrap_or_else(|e| self.fail(e));
        SpillReader {
            source: self,
            file,
            buf: vec![0; SPILL_BUFFER_BYTES],
            pos: 0,
            end: 0,
        }
    }
}

impl Drop for Spilled {
    fn drop(&mut self) {
        // Nothing useful can be done if the file is already gone.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Append one block in the [`SpillBlock::bytes`] layout.
fn write_block(out: &mut impl Write, shard: &SampleShard) -> io::Result<()> {
    let (indptr, indices, values) = shard.csr.as_parts();
    for &p in indptr {
        out.write_all(&(p as u64).to_le_bytes())?;
    }
    for &i in indices {
        out.write_all(&i.to_le_bytes())?;
    }
    for &v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    for &label in shard.cu_labels.iter().chain(&shard.duration_labels) {
        out.write_all(&label.to_le_bytes())?;
    }
    Ok(())
}

/// A sequential little-endian decoder over one open spill file, reading
/// through a fixed buffer (`buf[pos..end]` is read but not yet decoded).
struct SpillReader<'a> {
    source: &'a Spilled,
    file: File,
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl SpillReader<'_> {
    /// Decode the next `n` `W`-byte values onto `out`.
    fn read<const W: usize, T>(&mut self, n: usize, out: &mut Vec<T>, decode: fn([u8; W]) -> T) {
        let mut left = n;
        while left > 0 {
            if self.end - self.pos < W {
                self.refill(W);
            }
            let take = ((self.end - self.pos) / W).min(left);
            let bytes = &self.buf[self.pos..self.pos + take * W];
            out.extend(
                bytes
                    .chunks_exact(W)
                    .map(|c| decode(c.try_into().expect("W-byte chunk"))),
            );
            self.pos += take * W;
            left -= take;
        }
    }

    /// Move the undecoded tail to the front and read until at least `need`
    /// bytes are buffered.
    fn refill(&mut self, need: usize) {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while self.end < need {
            match self.file.read(&mut self.buf[self.end..]) {
                Ok(0) => self.source.fail("ends before its last block"),
                Ok(k) => self.end += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.source.fail(e),
            }
        }
    }

    /// Decode `block` into `shard`, reusing its buffers, and validate it.
    fn read_block(&mut self, block: &SpillBlock, shard: &mut SampleShard) {
        let (mut indptr, mut indices, mut values) = std::mem::take(&mut shard.csr).into_parts();
        indptr.clear();
        indices.clear();
        values.clear();
        shard.cu_labels.clear();
        shard.duration_labels.clear();
        self.read(block.rows + 1, &mut indptr, |b| {
            usize::try_from(u64::from_le_bytes(b)).unwrap_or(usize::MAX)
        });
        self.read(block.nnz, &mut indices, u32::from_le_bytes);
        self.read(block.nnz, &mut values, f64::from_le_bytes);
        self.read(block.rows, &mut shard.cu_labels, u32::from_le_bytes);
        self.read(block.rows, &mut shard.duration_labels, u32::from_le_bytes);
        let fail = |what: String| {
            self.source
                .fail(format!("block at sample {}: {what}", block.start))
        };
        if let Some(k) = values.iter().position(|v| !v.is_finite()) {
            fail(format!("non-finite value {} at nonzero {k}", values[k]));
        }
        for (name, labels, classes) in [
            ("destination", &shard.cu_labels, NUM_CARE_UNITS),
            ("duration", &shard.duration_labels, NUM_DURATION_CLASSES),
        ] {
            if let Some(r) = labels.iter().position(|&l| l as usize >= classes) {
                fail(format!(
                    "{name} label {} at row {r} is not < {classes}",
                    labels[r]
                ));
            }
        }
        let m = self.source.featurizer.total_dim();
        shard.csr = CsrMatrix::from_parts(m, indptr, indices, values)
            .unwrap_or_else(|e| fail(e.to_string()));
        shard.start = block.start;
    }
}

impl SampleSource for Spilled {
    fn total_samples(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.range().end)
    }

    fn for_each_block(
        &self,
        range: Range<usize>,
        mut visit: impl FnMut(&SampleShard, Range<usize>),
    ) {
        if range.is_empty() {
            return;
        }
        let first = self
            .blocks
            .partition_point(|b| b.range().end <= range.start);
        let blocks = &self.blocks[first..];
        let Some(head) = blocks.first().filter(|b| b.start < range.end) else {
            return;
        };
        let mut reader = self.open_at(head.offset);
        let mut shard = SampleShard::empty(head.start, self.featurizer.total_dim());
        for block in blocks.iter().take_while(|b| b.start < range.end) {
            reader.read_block(block, &mut shard);
            let overlap = intersect_ranges(&range, &block.range());
            visit(
                &shard,
                overlap.start - block.start..overlap.end - block.start,
            );
        }
    }
}

/// The engine over a spilled cohort: true out-of-core training.
///
/// Per-sample weights are not supported (they would require a streaming
/// re-count over the labels); train with [`ImbalanceStrategy::None`].
pub type StreamingDmcpObjective = DmcpEngine<'static, Spilled>;

impl StreamingDmcpObjective {
    /// Build the objective for the cohort of `config`: a streaming σ
    /// pre-pass, then one sweep that featurizes `shard_size` patients at a
    /// time and spills each block to a scratch file under
    /// [`std::env::temp_dir`].  At most one patient shard and one sample
    /// block are in memory at a time.
    ///
    /// `kind` overrides the feature map; `None` selects the paper default.
    ///
    /// # Panics
    /// Panics if the cohort yields zero transition samples or
    /// `shard_size == 0`; if the spill file cannot be created or written;
    /// and, on any later evaluation, if it cannot be read or no longer holds
    /// exactly what was written (wrong length, broken CSR layout, non-finite
    /// value, label out of range).  Every I/O or corruption panic names the
    /// file.
    pub fn new(config: &CohortConfig, kind: Option<FeatureMapKind>, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard_size must be positive");
        let featurizer = cohort_featurizer(config, kind, shard_size);
        DmcpEngine::build(
            Spilled::create(config, featurizer, shard_size),
            None,
            featurizer.total_dim(),
            NUM_CARE_UNITS,
            NUM_DURATION_CLASSES,
        )
    }

    /// The featurizer the spilled samples were built with (kind and block
    /// layout) — the one to [`fit`] this objective with.
    pub fn featurizer(&self) -> HistoryFeaturizer {
        self.source().featurizer
    }

    /// The feature map in use.
    pub fn kind(&self) -> FeatureMapKind {
        self.source().featurizer.kind
    }
}

/// Train a [`DmcpModel`] fully out-of-core: the cohort of `cohort_config`
/// never exists in memory, only `shard_size`-patient windows of it and its
/// spilled sample blocks.
///
/// Reproduces `train(&Dataset::from_cohort(&generate_cohort(cohort_config)),
/// config)` bitwise at a fixed thread count.
///
/// # Panics
/// Panics if `config.imbalance` is not [`ImbalanceStrategy::None`] (weighted
/// and synthetic strategies need materialized samples or retained labels —
/// fit [`DmcpObjective::from_shards`](crate::loss::DmcpObjective::from_shards)
/// for weighted), the cohort has no transitions, or the spill file fails
/// (I/O error or corruption, see [`StreamingDmcpObjective::new`]); the file
/// is deleted as the panic unwinds.
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

    /// `value_and_gradient` of `objective` at a fixed Θ, as bits.
    fn evaluate_bits(objective: &impl SmoothObjective) -> (u64, Matrix) {
        let (rows, cols) = objective.shape();
        let theta = Matrix::from_fn(rows, cols, |r, c| {
            0.01 * ((r % 5) as f64) - 0.003 * c as f64
        });
        let mut grad = Matrix::zeros(rows, cols);
        let value = objective.value_and_gradient(&theta, &mut grad);
        (value.to_bits(), grad)
    }

    #[test]
    fn spill_file_lives_exactly_as_long_as_the_objective() {
        let obj = StreamingDmcpObjective::new(&CohortConfig::tiny(17), None, 16);
        let path = obj.source().path.clone();
        assert!(path.starts_with(std::env::temp_dir()));
        assert!(path.is_file(), "{} missing while alive", path.display());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), obj.source().bytes);
        drop(obj);
        assert!(!path.exists(), "{} left behind after drop", path.display());
    }

    #[test]
    fn spill_file_is_deleted_when_a_panic_unwinds_through_fit() {
        let mut path = None;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let obj = StreamingDmcpObjective::new(&CohortConfig::tiny(17), None, 16);
            path = Some(obj.source().path.clone());
            std::fs::File::options()
                .write(true)
                .open(&obj.source().path)
                .unwrap()
                .set_len(8)
                .unwrap();
            fit(&obj, obj.featurizer(), &TrainConfig::fast(), None)
        }));
        assert!(result.is_err(), "fit on a truncated spill file must panic");
        let path = path.expect("objective was built");
        assert!(
            !path.exists(),
            "{} left behind by the unwind",
            path.display()
        );
    }

    #[test]
    fn concurrent_objectives_use_distinct_files_and_match_materialized_bitwise() {
        let (ds, samples) = fixture();
        let reference = DmcpObjective::new(
            &samples,
            None,
            ds.total_feature_dim(),
            ds.num_cus,
            ds.num_durations,
        );
        let a = StreamingDmcpObjective::new(&CohortConfig::tiny(17), None, 8);
        let b = StreamingDmcpObjective::new(&CohortConfig::tiny(17), None, 8).with_threads(2);
        assert_ne!(a.source().path, b.source().path);
        let expected = evaluate_bits(&reference);
        assert_eq!(evaluate_bits(&a), expected);
        assert_eq!(evaluate_bits(&b), evaluate_bits(&reference.with_threads(2)));
        // Interleaved passes leave both files intact.
        assert_eq!(evaluate_bits(&a), expected);
    }

    /// Run `f` (which must panic), check that its message names `path`,
    /// then re-raise the message so `#[should_panic]` can match the reason.
    fn repanic_naming(path: &std::path::Path, f: impl FnOnce()) {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("reading a corrupt spill file must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains(&path.display().to_string()),
            "panic message does not name the file: {message}"
        );
        panic!("{message}");
    }

    #[test]
    #[should_panic(expected = "bytes, expected")]
    fn truncated_spill_file_panics_naming_the_path() {
        let obj = StreamingDmcpObjective::new(&CohortConfig::tiny(17), None, 16);
        let path = obj.source().path.clone();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_len(obj.source().bytes - 1).unwrap();
        repanic_naming(&path, || {
            evaluate_bits(&obj);
        });
    }

    #[test]
    #[should_panic(expected = "destination label 4294967295 at row 0 is not <")]
    fn out_of_range_spilled_label_panics_naming_the_path() {
        use std::io::{Seek, SeekFrom, Write};
        let obj = StreamingDmcpObjective::new(&CohortConfig::tiny(17), None, 16);
        let path = obj.source().path.clone();
        let block = obj.source().blocks[0];
        // The first destination label follows indptr, indices and values.
        let label_offset = block.offset + (8 * (block.rows + 1) + 12 * block.nnz) as u64;
        let mut file = std::fs::File::options().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(label_offset)).unwrap();
        file.write_all(&u32::MAX.to_le_bytes()).unwrap();
        drop(file);
        repanic_naming(&path, || {
            evaluate_bits(&obj);
        });
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
