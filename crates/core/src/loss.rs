//! The discriminative loss of Eq. 6, its gradient, and the one engine that
//! evaluates it.
//!
//! With the log-linear intensities `λ_c = exp(θ_c⊤ f)` and
//! `λ_d = exp(θ_d⊤ f)`, the conditional probabilities
//! `p(c | t, H_t)` and `p(d | t, H_t)` are softmaxes over the linear scores,
//! and the loss is the sum of the two categorical cross-entropies.  The
//! parameter matrix stacks both heads: `Θ ∈ R^{M×(C+D)}`, columns `0..C` for
//! the destination head, columns `C..C+D` for the duration head.
//!
//! The loss implemented here is the *mean* over samples (the paper uses the
//! sum; the mean keeps gradient magnitudes independent of the cohort size, so
//! the same learning rate and regularisation weight work from the tiny test
//! cohorts up to the paper-scale one — the γ values quoted in EXPERIMENTS.md
//! are on this normalised scale).
//!
//! Optional per-sample weights implement the "weighted data" imbalance
//! strategy (`w_i = 1 / log(1 + #{(c,d)})`, Section 3.3).
//!
//! # One engine, two sample sources
//!
//! [`DmcpEngine`] is the only [`SmoothObjective`] over DMCP samples.  It is
//! generic over a [`SampleSource`] that hands it CSR blocks of samples in
//! global sample order, and there are exactly two sources:
//!
//! * [`Retained`] — CSR shard blocks kept in memory.  [`DmcpObjective`] is
//!   the engine over them: a materialized cohort is packed as **one** block
//!   ([`DmcpObjective::new`]); a [`ShardedSamples`]
//!   set is borrowed block by block ([`DmcpObjective::from_shards`]).
//! * [`Spilled`](crate::stream::Spilled) — CSR shard blocks featurized once
//!   and kept on disk: every pass reads them back block by block from a
//!   scratch file
//!   ([`StreamingDmcpObjective`](crate::stream::StreamingDmcpObjective)).
//!
//! # Fused, batched evaluation
//!
//! `value`, `gradient` and `value_and_gradient` all run the same fused fold.
//! Each block is evaluated as one `CSR × Θ` scores pass, one softmax/residual
//! sweep over the packed score block (accumulating the cross-entropy), and
//! one `CSRᵀ` scatter — three linear passes over contiguous arrays, with both
//! row kernels register-blocked over the `C + D` outputs.  The sweep computes
//! one log-sum-exp per head and reuses it for the loss and the softmax
//! ([`softmax_cross_entropy_in_place`]): one max sweep, two `exp` sweeps and
//! one `ln` per head instead of two, three and two.  The batched kernel
//! performs the same floating-point operations in the same order as the
//! per-sample reference walk ([`value_and_gradient_unbatched`]), so the two
//! agree bitwise in serial (property-tested in
//! `tests/parallel_equivalence.rs`).
//!
//! # Parallel accumulation and determinism
//!
//! Both the loss and its gradient are means over independent per-sample
//! terms, so [`DmcpEngine::with_threads`] splits the global sample range into
//! per-thread chunks ([`pfp_math::parallel::chunk_ranges`]), folds each chunk
//! over the blocks it crosses into a thread-local dense buffer, and combines
//! the partials with a fixed-order tree reduction
//! ([`pfp_math::parallel::tree_reduce_matrices`]).  The chunk closures run on
//! a persistent [`WorkerPool`] created once per engine (i.e. once per solve),
//! so repeated evaluations pay a channel send rather than a thread spawn.
//! The contract:
//!
//! * **Fixed thread count ⇒ bitwise-deterministic results, for any source
//!   and any block size.**  Chunk boundaries and the reduction order are pure
//!   functions of `(total samples, threads)`, [`WorkerPool::run`] returns
//!   chunk results in submission order, and the fused kernel carries its
//!   loss accumulator across block boundaries — so where the blocks are cut
//!   changes *where* the work is segmented but not a single floating-point
//!   operation (property-tested in `tests/shard_equivalence.rs`).
//!   `threads == 1` is *exactly* the serial path.
//! * **Across thread counts ⇒ agreement to rounding only.** Different
//!   chunkings sum in different orders; the results agree to ≲1e-12
//!   (enforced by the `parallel_equivalence` property tests), not bitwise.

use std::borrow::Cow;
use std::ops::Range;

use pfp_math::parallel::{
    chunk_ranges, intersect_ranges, resolve_threads, tree_reduce_matrices, tree_reduce_sums,
    WorkerPool,
};
use pfp_math::softmax::softmax_cross_entropy_in_place;
use pfp_math::{CsrMatrix, Matrix};
use pfp_optim::SmoothObjective;

use crate::dataset::Sample;
use crate::stream::ShardedSamples;

/// The fused batched kernel: one `CSR × Θ` scores pass over `rows`, one
/// softmax/residual sweep (accumulating the weighted, un-normalised
/// cross-entropy into `*loss`), one `CSRᵀ` scatter into `grad`.
///
/// `rows` indexes into `csr`; `label_of` / `weight_of` map a csr row index to
/// its `(cu, duration)` labels and sample weight.  Carrying `loss` as an
/// accumulator — instead of returning it — is what makes a chunk *segmented*
/// across several blocks bitwise-identical to the same chunk evaluated as one
/// block: the loss additions, each row's softmax, and the scatter updates
/// happen in the same order either way (per-row score equality across
/// sub-ranges is property-tested in `pfp-math`'s csr module).
#[allow(clippy::too_many_arguments)]
fn fused_csr_block(
    csr: &CsrMatrix,
    theta: &Matrix,
    rows: Range<usize>,
    num_cus: usize,
    num_durations: usize,
    norm: f64,
    label_of: impl Fn(usize) -> (usize, usize),
    weight_of: impl Fn(usize) -> f64,
    grad: &mut Matrix,
    loss: &mut f64,
) {
    // The packed score block (`rows.len() × (C+D)`, ~325 KB at fig-2 scale)
    // is reused across evaluations via a thread-local buffer: the serial path
    // and each persistent `WorkerPool` worker allocate it once per solve
    // instead of once per evaluation.  Zeroing (`fill`) is a memset, far
    // cheaper than a fresh large allocation.
    thread_local! {
        static SCORE_BLOCK: std::cell::RefCell<Vec<f64>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    SCORE_BLOCK.with(|cell| {
        let mut block = cell.borrow_mut();
        let k = num_cus + num_durations;
        block.clear();
        block.resize(rows.len() * k, 0.0);
        csr.accumulate_scores_range(theta, rows.clone(), &mut block);
        for (local, i) in rows.clone().enumerate() {
            let (cu_label, duration_label) = label_of(i);
            let w = weight_of(i);
            *loss += w * residual_in_place(
                &mut block[local * k..(local + 1) * k],
                num_cus,
                cu_label,
                duration_label,
                w / norm,
            );
        }
        csr.scatter_gradient_range(&block, rows, grad);
    })
}

/// Turn one sample's scores `Θ⊤ f` (destination head first) into its
/// softmax residuals scaled by `wn`, in place, and return its unweighted
/// two-head cross-entropy.  Each head's loss and softmax share one
/// log-sum-exp ([`softmax_cross_entropy_in_place`]).  A single-class duration
/// head contributes neither loss nor gradient.
fn residual_in_place(
    scores: &mut [f64],
    num_cus: usize,
    cu_label: usize,
    duration_label: usize,
    wn: f64,
) -> f64 {
    let (cu_scores, dur_scores) = scores.split_at_mut(num_cus);
    let mut l = softmax_cross_entropy_in_place(cu_scores, cu_label);
    for (c, out) in cu_scores.iter_mut().enumerate() {
        *out = wn * (*out - if c == cu_label { 1.0 } else { 0.0 });
    }
    if dur_scores.len() > 1 {
        l += softmax_cross_entropy_in_place(dur_scores, duration_label);
        for (d, out) in dur_scores.iter_mut().enumerate() {
            *out = wn * (*out - if d == duration_label { 1.0 } else { 0.0 });
        }
    } else {
        dur_scores[0] = 0.0;
    }
    l
}

/// The fused evaluation as a per-sample walk over the individual
/// [`pfp_math::SparseVec`]s, bypassing the CSR packing and the thread pool.
///
/// This is the reference the engine's batched kernel is verified against
/// (bitwise, in the property suites) and the "before" side of the batched
/// kernel timings in `repro_fused_speedup`; solvers never call it.  Returns
/// the mean loss and overwrites `grad` with its gradient.
pub fn value_and_gradient_unbatched(
    samples: &[Sample],
    weights: Option<&[f64]>,
    num_cus: usize,
    theta: &Matrix,
    grad: &mut Matrix,
) -> f64 {
    let norm = total_weight(samples.len(), weights);
    grad.fill(0.0);
    let mut scores = vec![0.0; theta.cols()];
    let mut loss = 0.0;
    for (i, s) in samples.iter().enumerate() {
        scores.fill(0.0);
        s.features.accumulate_scores(theta, &mut scores);
        let w = weights.map_or(1.0, |w| w[i]);
        loss += w * residual_in_place(&mut scores, num_cus, s.cu_label, s.duration_label, w / norm);
        s.features.scatter_gradient(&scores, grad);
    }
    loss / norm
}

/// Normalising constant Σ_i w_i (or the sample count when unweighted).
fn total_weight(len: usize, weights: Option<&[f64]>) -> f64 {
    match weights {
        Some(w) => w.iter().sum::<f64>().max(1e-12),
        None => len as f64,
    }
}

/// One CSR block of samples plus their labels.  Row `i` of `csr` is global
/// sample `start + i`.
#[derive(Debug, Clone)]
pub struct SampleShard {
    /// Global index of this shard's first sample.
    pub start: usize,
    /// Feature rows of the shard's samples.
    pub csr: CsrMatrix,
    /// Destination labels (parallel to the CSR rows).
    pub cu_labels: Vec<u32>,
    /// Duration-class labels (parallel to the CSR rows).
    pub duration_labels: Vec<u32>,
}

impl SampleShard {
    /// An empty block whose first row will be global sample `start`.
    pub(crate) fn empty(start: usize, num_features: usize) -> Self {
        Self {
            start,
            csr: CsrMatrix::with_dim(num_features),
            cu_labels: Vec::new(),
            duration_labels: Vec::new(),
        }
    }

    /// Pack featurized samples into one block starting at global sample
    /// `start`.
    ///
    /// # Panics
    /// Panics if a label is out of range or a feature vector has the wrong
    /// dimension.
    pub(crate) fn pack(
        start: usize,
        samples: &[Sample],
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        let mut shard = Self::empty(start, num_features);
        for s in samples {
            assert_eq!(s.features.dim(), num_features, "feature dimension mismatch");
            assert!(s.cu_label < num_cus, "destination label out of range");
            assert!(
                s.duration_label < num_durations,
                "duration label out of range"
            );
            shard.push(&s.features, s.cu_label, s.duration_label);
        }
        shard
    }

    /// Append one sample's row and labels.
    pub(crate) fn push(
        &mut self,
        features: &pfp_math::SparseVec,
        cu_label: usize,
        duration_label: usize,
    ) {
        self.csr.push_row(features);
        self.cu_labels.push(cu_label as u32);
        self.duration_labels.push(duration_label as u32);
    }

    /// Drop all rows, keeping the allocations, and restart at global sample
    /// `start`.
    pub(crate) fn reset(&mut self, start: usize) {
        self.start = start;
        self.csr.clear_rows();
        self.cu_labels.clear();
        self.duration_labels.clear();
    }

    /// Number of samples in the shard.
    pub fn len(&self) -> usize {
        self.csr.rows()
    }

    /// Whether the shard holds no samples (possible: a patient shard whose
    /// patients all have single-stay trajectories yields zero transitions).
    pub fn is_empty(&self) -> bool {
        self.csr.rows() == 0
    }

    /// The global sample range this shard covers.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.len()
    }
}

/// Where the engine's samples come from: CSR blocks handed out in global
/// sample order.
pub trait SampleSource: Sync {
    /// Total number of samples `N`.
    fn total_samples(&self) -> usize;

    /// Call `visit(block, rows)` for every block overlapping the global
    /// sample range `range`, in sample order, where `rows` is the overlap in
    /// the block's local row indices.  The blocks tile `range` exactly.
    fn for_each_block(&self, range: Range<usize>, visit: impl FnMut(&SampleShard, Range<usize>));
}

/// Retained CSR shard blocks: owned (a materialized cohort packed as one
/// block) or borrowed from a [`ShardedSamples`] set.
pub struct Retained<'a>(Cow<'a, [SampleShard]>);

impl SampleSource for Retained<'_> {
    fn total_samples(&self) -> usize {
        self.0.last().map_or(0, |s| s.range().end)
    }

    fn for_each_block(
        &self,
        range: Range<usize>,
        mut visit: impl FnMut(&SampleShard, Range<usize>),
    ) {
        let first = self.0.partition_point(|s| s.range().end <= range.start);
        for shard in &self.0[first..] {
            if shard.start >= range.end {
                break;
            }
            let overlap = intersect_ranges(&range, &shard.range());
            if !overlap.is_empty() {
                visit(
                    shard,
                    overlap.start - shard.start..overlap.end - shard.start,
                );
            }
        }
    }
}

/// The multinomial two-head cross-entropy objective, folded over the CSR
/// blocks of a [`SampleSource`].  See the module docs for the evaluation
/// scheme and the determinism contract.
pub struct DmcpEngine<'a, S> {
    source: S,
    weights: Option<&'a [f64]>,
    num_features: usize,
    num_cus: usize,
    num_durations: usize,
    /// Worker threads for loss/gradient accumulation (≥ 1; 1 = serial).
    threads: usize,
    /// Normalising constant Σ_i w_i (or the sample count when unweighted),
    /// cached at construction so evaluations do not pay an O(n) sum per call.
    total_weight: f64,
    /// Persistent workers, created once per engine (`None` on the serial
    /// path) and reused by every evaluation of a solve.
    pool: Option<WorkerPool>,
}

/// The engine over retained CSR blocks: a materialized cohort or a
/// [`ShardedSamples`] set.
pub type DmcpObjective<'a> = DmcpEngine<'a, Retained<'a>>;

impl<'a> DmcpObjective<'a> {
    /// Build the objective over featurized samples, packed once into a
    /// single CSR block.
    ///
    /// # Panics
    /// Panics if `samples` is empty, a label is out of range, a feature vector
    /// has the wrong dimension, or `weights` (when given) has the wrong length.
    pub fn new(
        samples: &[Sample],
        weights: Option<&'a [f64]>,
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        let block = SampleShard::pack(0, samples, num_features, num_cus, num_durations);
        DmcpEngine::build(
            Retained(Cow::Owned(vec![block])),
            weights,
            num_features,
            num_cus,
            num_durations,
        )
    }

    /// Build the objective over a shard set's retained blocks, borrowing
    /// them.  Reproduces [`new`](Self::new) on the same samples bitwise at a
    /// fixed thread count, for any shard size.
    ///
    /// # Panics
    /// Panics if the shard set holds zero samples, or `weights` (when given)
    /// has the wrong length or a negative entry.
    pub fn from_shards(shards: &'a ShardedSamples, weights: Option<&'a [f64]>) -> Self {
        DmcpEngine::build(
            Retained(Cow::Borrowed(shards.shards())),
            weights,
            shards.num_features(),
            shards.num_cus(),
            shards.num_durations(),
        )
    }
}

impl<'a, S: SampleSource> DmcpEngine<'a, S> {
    /// Wrap a source, validating the weights.
    ///
    /// # Panics
    /// Panics if the source holds zero samples, or `weights` (when given) has
    /// the wrong length or a negative entry.
    pub(crate) fn build(
        source: S,
        weights: Option<&'a [f64]>,
        num_features: usize,
        num_cus: usize,
        num_durations: usize,
    ) -> Self {
        assert!(
            num_cus >= 1 && num_durations >= 1,
            "need at least one class per head"
        );
        let n = source.total_samples();
        assert!(n > 0, "cannot build an objective over zero samples");
        if let Some(w) = weights {
            assert_eq!(w.len(), n, "weights length mismatch");
            assert!(w.iter().all(|&x| x >= 0.0), "weights must be non-negative");
        }
        Self {
            source,
            weights,
            num_features,
            num_cus,
            num_durations,
            threads: 1,
            total_weight: total_weight(n, weights),
            pool: None,
        }
    }

    /// Shard loss/gradient accumulation over `threads` worker threads.
    ///
    /// `0` resolves to the available parallelism; any other value is used
    /// as-is (capped at the sample count — a cohort smaller than the thread
    /// count simply runs one sample per thread).  The [`WorkerPool`] is
    /// spawned here, **once**; every subsequent evaluation of the ADMM solve
    /// reuses the same workers.  See the module docs for the determinism
    /// contract.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        // A pool wider than the chunk count would leave workers permanently
        // idle: chunk_ranges caps the chunks at the sample count.
        let workers = self.threads.min(self.source.total_samples());
        self.pool = (workers > 1).then(|| WorkerPool::new(workers));
        self
    }

    /// The resolved worker-thread count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sample source the engine folds over.
    pub(crate) fn source(&self) -> &S {
        &self.source
    }

    /// Total number of samples `N`.
    pub fn total_samples(&self) -> usize {
        self.source.total_samples()
    }

    /// Feature dimension `M`.
    pub(crate) fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of destination classes `C`.
    pub(crate) fn num_cus(&self) -> usize {
        self.num_cus
    }

    /// Number of duration classes `D`.
    pub(crate) fn num_durations(&self) -> usize {
        self.num_durations
    }

    /// Number of output columns `C + D`.
    pub fn num_outputs(&self) -> usize {
        self.num_cus + self.num_durations
    }

    fn weight(&self, i: usize) -> f64 {
        self.weights.map_or(1.0, |w| w[i])
    }

    /// Fold the fused kernel over the blocks a global chunk crosses, carrying
    /// the loss accumulator so the chunk is bitwise-equal to an un-segmented
    /// evaluation of the same sample range.  Returns the weighted loss, not
    /// yet normalised.
    fn fold_chunk(&self, theta: &Matrix, chunk: Range<usize>, grad: &mut Matrix) -> f64 {
        let mut loss = 0.0;
        self.source.for_each_block(chunk, |block, rows| {
            fused_csr_block(
                &block.csr,
                theta,
                rows,
                self.num_cus,
                self.num_durations,
                self.total_weight,
                |i| {
                    (
                        block.cu_labels[i] as usize,
                        block.duration_labels[i] as usize,
                    )
                },
                |i| self.weight(block.start + i),
                grad,
                &mut loss,
            );
        });
        loss
    }

    /// The fused fold behind all three evaluation entry points: per-thread
    /// chunks on the persistent pool, partials tree-reduced in chunk order.
    fn fold(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        let n = self.source.total_samples();
        let chunks = chunk_ranges(n, self.threads);
        let pool = match &self.pool {
            Some(pool) if chunks.len() > 1 => pool,
            _ => {
                grad.fill(0.0);
                return self.fold_chunk(theta, 0..n, grad) / self.total_weight;
            }
        };
        let (rows, cols) = grad.shape();
        let task = |chunk: Range<usize>| {
            let mut partial = Matrix::zeros(rows, cols);
            let loss = self.fold_chunk(theta, chunk, &mut partial);
            (loss, partial)
        };
        let task = &task;
        let partials = pool.run(chunks.into_iter().map(|c| move || task(c)).collect());
        let (losses, grads): (Vec<f64>, Vec<Matrix>) = partials.into_iter().unzip();
        *grad = tree_reduce_matrices(grads).expect("at least one gradient chunk");
        tree_reduce_sums(losses) / self.total_weight
    }
}

impl<S: SampleSource> SmoothObjective for DmcpEngine<'_, S> {
    fn value(&self, theta: &Matrix) -> f64 {
        let mut scratch = Matrix::zeros(self.num_features, self.num_outputs());
        self.fold(theta, &mut scratch)
    }

    fn gradient(&self, theta: &Matrix, grad: &mut Matrix) {
        self.fold(theta, grad);
    }

    fn value_and_gradient(&self, theta: &Matrix, grad: &mut Matrix) -> f64 {
        self.fold(theta, grad)
    }

    fn shape(&self) -> (usize, usize) {
        (self.num_features, self.num_outputs())
    }

    fn row_curvature_bounds(&self) -> Option<Vec<f64>> {
        // Per head, the Hessian w.r.t. Θ is the weighted mean of
        // H_softmax ⊗ f fᵀ with ‖H_softmax‖ ≤ ½, so the diagonal entry for
        // feature row r is bounded by ½ · mean_w f_r². Using it as a per-row
        // step preconditioner is what keeps one learning-rate schedule usable
        // across feature maps whose blocks differ in scale by the day-valued
        // g(t) factor: binary service features keep the full step while the
        // day-scaled profile rows get proportionally smaller ones.
        let mut sums = vec![0.0; self.num_features];
        self.source
            .for_each_block(0..self.source.total_samples(), |block, rows| {
                for local in rows {
                    let w = self.weight(block.start + local);
                    let (indices, values) = block.csr.row(local);
                    for (&idx, &v) in indices.iter().zip(values) {
                        sums[idx as usize] += w * v * v;
                    }
                }
            });
        let norm = self.total_weight;
        Some(sums.into_iter().map(|s| 0.5 * s / norm).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfp_math::SparseVec;

    fn toy_samples() -> Vec<Sample> {
        // Feature 0 active => class 0; feature 1 active => class 1.
        // Duration mirrors the destination.
        vec![
            Sample {
                patient_id: 0,
                features: SparseVec::binary(3, vec![0]),
                cu_label: 0,
                duration_label: 0,
            },
            Sample {
                patient_id: 1,
                features: SparseVec::binary(3, vec![0]),
                cu_label: 0,
                duration_label: 0,
            },
            Sample {
                patient_id: 2,
                features: SparseVec::binary(3, vec![1]),
                cu_label: 1,
                duration_label: 1,
            },
            Sample {
                patient_id: 3,
                features: SparseVec::binary(3, vec![1]),
                cu_label: 1,
                duration_label: 1,
            },
        ]
    }

    #[test]
    fn zero_parameters_give_uniform_cross_entropy() {
        let samples = toy_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 2);
        let theta = Matrix::zeros(3, 4);
        let expected = 2.0 * (2.0_f64).ln(); // ln 2 per head
        assert!((obj.value(&theta) - expected).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let samples = toy_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 2);
        let theta = Matrix::from_fn(3, 4, |r, c| 0.1 * (r as f64) - 0.05 * (c as f64));
        let mut grad = Matrix::zeros(3, 4);
        obj.gradient(&theta, &mut grad);
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..4 {
                let mut plus = theta.clone();
                plus.add_at(r, c, eps);
                let mut minus = theta.clone();
                minus.add_at(r, c, -eps);
                let fd = (obj.value(&plus) - obj.value(&minus)) / (2.0 * eps);
                assert!(
                    (fd - grad.get(r, c)).abs() < 1e-5,
                    "grad mismatch at ({r},{c}): fd={fd}, analytic={}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn training_signal_points_towards_separating_solution() {
        let samples = toy_samples();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 2);
        let theta = Matrix::zeros(3, 4);
        let mut grad = Matrix::zeros(3, 4);
        obj.gradient(&theta, &mut grad);
        // Moving against the gradient should increase θ[0][0] (feature 0 → class 0).
        assert!(grad.get(0, 0) < 0.0);
        assert!(grad.get(1, 0) > 0.0);
        // Feature 2 never appears: its gradient row is exactly zero.
        assert_eq!(grad.row(2), &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn weights_rescale_sample_influence() {
        let samples = toy_samples();
        // Give all weight to the class-0 samples.
        let weights = vec![1.0, 1.0, 0.0, 0.0];
        let obj = DmcpObjective::new(&samples, Some(&weights), 3, 2, 2);
        let theta = Matrix::zeros(3, 4);
        let mut grad = Matrix::zeros(3, 4);
        obj.gradient(&theta, &mut grad);
        // Feature 1 only appears in zero-weight samples: no gradient.
        assert_eq!(grad.row(1), &[0.0, 0.0, 0.0, 0.0]);
        assert!(grad.get(0, 0) < 0.0);
    }

    #[test]
    fn single_class_duration_head_contributes_nothing() {
        let samples: Vec<Sample> = toy_samples()
            .into_iter()
            .map(|mut s| {
                s.duration_label = 0;
                s
            })
            .collect();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 1);
        let theta = Matrix::zeros(3, 3);
        assert!((obj.value(&theta) - (2.0_f64).ln()).abs() < 1e-12);
        let mut grad = Matrix::zeros(3, 3);
        obj.gradient(&theta, &mut grad);
        for r in 0..3 {
            assert_eq!(
                grad.get(r, 2),
                0.0,
                "degenerate head must have zero gradient"
            );
        }
    }

    #[test]
    fn sharded_gradient_and_value_match_serial_within_rounding() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64));
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let mut grad_serial = Matrix::zeros(3, 4);
        serial.gradient(&theta, &mut grad_serial);
        for threads in [2, 3, 4] {
            let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(threads);
            let mut grad_sharded = Matrix::zeros(3, 4);
            sharded.gradient(&theta, &mut grad_sharded);
            assert!(
                grad_sharded.sub(&grad_serial).max_abs() <= 1e-12,
                "threads={threads}: max abs gradient diff {}",
                grad_sharded.sub(&grad_serial).max_abs()
            );
            assert!(
                (sharded.value(&theta) - serial.value(&theta)).abs() <= 1e-12,
                "threads={threads}: loss diff"
            );
        }
    }

    #[test]
    fn fused_evaluation_matches_separate_calls_bitwise_in_serial() {
        let samples = toy_samples();
        let weights = [1.0, 0.5, 2.0, 0.25];
        for weights in [None, Some(&weights[..])] {
            let obj = DmcpObjective::new(&samples, weights, 3, 2, 2);
            let theta = Matrix::from_fn(3, 4, |r, c| 0.4 * (r as f64) - 0.3 * (c as f64));
            let mut grad_sep = Matrix::zeros(3, 4);
            obj.gradient(&theta, &mut grad_sep);
            let value_sep = obj.value(&theta);
            let mut grad_fused = Matrix::zeros(3, 4);
            let value_fused = obj.value_and_gradient(&theta, &mut grad_fused);
            assert_eq!(grad_fused, grad_sep, "fused gradient must match bitwise");
            assert_eq!(
                value_fused.to_bits(),
                value_sep.to_bits(),
                "fused value must match bitwise"
            );
        }
    }

    #[test]
    fn batched_csr_evaluation_matches_unbatched_per_sample_bitwise() {
        let samples = toy_samples();
        let weights = [1.0, 0.5, 2.0, 0.25];
        for weights in [None, Some(&weights[..])] {
            let obj = DmcpObjective::new(&samples, weights, 3, 2, 2);
            let theta = Matrix::from_fn(3, 4, |r, c| 0.6 * (r as f64) - 0.1 * (c as f64));
            let mut grad_batched = Matrix::zeros(3, 4);
            let value_batched = obj.value_and_gradient(&theta, &mut grad_batched);
            let mut grad_unbatched = Matrix::zeros(3, 4);
            let value_unbatched =
                value_and_gradient_unbatched(&samples, weights, 2, &theta, &mut grad_unbatched);
            assert_eq!(
                grad_batched, grad_unbatched,
                "batched CSR gradient must match the per-sample walk bitwise"
            );
            assert_eq!(value_batched.to_bits(), value_unbatched.to_bits());
        }
    }

    #[test]
    fn batched_csr_evaluation_handles_single_class_duration_head() {
        let samples: Vec<Sample> = toy_samples()
            .into_iter()
            .map(|mut s| {
                s.duration_label = 0;
                s
            })
            .collect();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 1);
        let theta = Matrix::from_fn(3, 3, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64));
        let mut grad_batched = Matrix::zeros(3, 3);
        let value_batched = obj.value_and_gradient(&theta, &mut grad_batched);
        let mut grad_unbatched = Matrix::zeros(3, 3);
        let value_unbatched =
            value_and_gradient_unbatched(&samples, None, 2, &theta, &mut grad_unbatched);
        assert_eq!(grad_batched, grad_unbatched);
        assert_eq!(value_batched.to_bits(), value_unbatched.to_bits());
    }

    #[test]
    fn fused_evaluation_handles_single_class_duration_head() {
        let samples: Vec<Sample> = toy_samples()
            .into_iter()
            .map(|mut s| {
                s.duration_label = 0;
                s
            })
            .collect();
        let obj = DmcpObjective::new(&samples, None, 3, 2, 1);
        let theta = Matrix::from_fn(3, 3, |r, c| 0.2 * (r as f64) + 0.1 * (c as f64));
        let mut grad_sep = Matrix::zeros(3, 3);
        obj.gradient(&theta, &mut grad_sep);
        let mut grad_fused = Matrix::zeros(3, 3);
        let value_fused = obj.value_and_gradient(&theta, &mut grad_fused);
        assert_eq!(grad_fused, grad_sep);
        assert_eq!(value_fused.to_bits(), obj.value(&theta).to_bits());
    }

    #[test]
    fn fused_sharded_matches_fused_serial_within_rounding() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64));
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let mut grad_serial = Matrix::zeros(3, 4);
        let value_serial = serial.value_and_gradient(&theta, &mut grad_serial);
        for threads in [2, 3, 4, 64] {
            let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(threads);
            let mut grad_sharded = Matrix::zeros(3, 4);
            let value_sharded = sharded.value_and_gradient(&theta, &mut grad_sharded);
            assert!(
                grad_sharded.sub(&grad_serial).max_abs() <= 1e-12,
                "threads={threads}: fused gradient drift"
            );
            assert!(
                (value_sharded - value_serial).abs() <= 1e-12,
                "threads={threads}: fused value drift"
            );
        }
    }

    #[test]
    fn sharded_objective_reuses_one_pool_across_evaluations() {
        // Many evaluations on one sharded objective must all agree with the
        // serial result — exercising pool reuse across an ADMM-solve-like
        // call pattern rather than a single evaluation.
        let samples = toy_samples();
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(3);
        for k in 0..20 {
            let theta = Matrix::from_fn(3, 4, |r, c| 0.05 * (k as f64) + 0.1 * ((r + c) as f64));
            let mut a = Matrix::zeros(3, 4);
            let mut b = Matrix::zeros(3, 4);
            let va = serial.value_and_gradient(&theta, &mut a);
            let vb = sharded.value_and_gradient(&theta, &mut b);
            assert!(b.sub(&a).max_abs() <= 1e-12, "round {k}");
            assert!((va - vb).abs() <= 1e-12, "round {k}");
        }
    }

    #[test]
    fn more_threads_than_samples_degenerates_to_one_sample_per_shard() {
        let samples = toy_samples(); // 4 samples
        let theta = Matrix::from_fn(3, 4, |r, c| 0.1 * (r + c) as f64);
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let sharded = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(64);
        let mut a = Matrix::zeros(3, 4);
        let mut b = Matrix::zeros(3, 4);
        serial.gradient(&theta, &mut a);
        sharded.gradient(&theta, &mut b);
        assert!(b.sub(&a).max_abs() <= 1e-12);
    }

    #[test]
    fn fixed_thread_count_is_bitwise_deterministic() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.7 * (r as f64) - 0.4 * (c as f64));
        let run = || {
            let obj = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(3);
            let mut grad = Matrix::zeros(3, 4);
            obj.gradient(&theta, &mut grad);
            (grad, obj.value(&theta))
        };
        let (g1, v1) = run();
        let (g2, v2) = run();
        assert_eq!(g1, g2, "same thread count must be bitwise reproducible");
        assert!(v1 == v2, "loss must be bitwise reproducible");
    }

    #[test]
    fn one_thread_is_exactly_the_serial_path() {
        let samples = toy_samples();
        let theta = Matrix::from_fn(3, 4, |r, c| 0.2 * (r as f64) + 0.1 * (c as f64));
        let serial = DmcpObjective::new(&samples, None, 3, 2, 2);
        let explicit = DmcpObjective::new(&samples, None, 3, 2, 2).with_threads(1);
        let mut a = Matrix::zeros(3, 4);
        let mut b = Matrix::zeros(3, 4);
        serial.gradient(&theta, &mut a);
        explicit.gradient(&theta, &mut b);
        assert_eq!(a, b);
        assert!(serial.value(&theta) == explicit.value(&theta));
    }

    /// FNV-1a over the little-endian bytes of every entry's bit pattern.
    fn fingerprint(m: &Matrix) -> u64 {
        m.as_slice()
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The fused pass pinned to recorded bits: any change to the
    /// floating-point operations of the kernels, the residual or the
    /// reduction fails here, even where a batched-vs-unbatched comparison
    /// could not see it (both sides share `residual_in_place`).  Covers the blocked `C + D = 16`
    /// width at 1 and 2 threads, unweighted and with WDMCP weights, a
    /// generic width (`C + D = 3`), and a full `train`.
    #[test]
    fn fused_pass_matches_golden_bits() {
        use crate::imbalance::sample_weights;
        use crate::{train, Dataset, TrainConfig};
        use pfp_ehr::{generate_cohort, CohortConfig};

        let ds = Dataset::from_cohort(&generate_cohort(&CohortConfig::tiny(5)));
        let samples = ds.featurize(ds.default_mcp_kind());
        let (m, c, d) = (ds.total_feature_dim(), ds.num_cus, ds.num_durations);
        let weights = sample_weights(&samples, c, d);
        let theta = Matrix::from_fn(m, c + d, |r, k| ((r * 31 + k * 7) % 13) as f64 * 0.05 - 0.3);
        let mut got = Vec::new();
        for threads in [1, 2] {
            for w in [None, Some(&weights[..])] {
                let obj = DmcpObjective::new(&samples, w, m, c, d).with_threads(threads);
                let mut grad = Matrix::zeros(m, c + d);
                let value = obj.value_and_gradient(&theta, &mut grad);
                got.push((value.to_bits(), fingerprint(&grad)));
            }
        }

        let generic: Vec<Sample> = toy_samples()
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                s.features = SparseVec::from_pairs(3, vec![(0, 0.5 + i as f64), (2, -1.25)]);
                s.duration_label = 0;
                s
            })
            .collect();
        let obj = DmcpObjective::new(&generic, None, 3, 2, 1);
        let theta = Matrix::from_fn(3, 3, |r, k| 0.3 * (r as f64) - 0.2 * (k as f64));
        let mut grad = Matrix::zeros(3, 3);
        let value = obj.value_and_gradient(&theta, &mut grad);
        got.push((value.to_bits(), fingerprint(&grad)));

        let model = train(&ds, &TrainConfig::fast());

        assert_eq!(
            got,
            [
                (0x401b_c7c8_14cd_e1ef, 0xc80d_5233_2f4c_5cdd), // 1 thread
                (0x401b_e0ab_ba2e_dc0b, 0xd6b3_9e84_fd94_3883), // 1 thread, WDMCP
                (0x401b_c7c8_14cd_e1e9, 0x6f7f_5b50_f84b_1692), // 2 threads
                (0x401b_e0ab_ba2e_dc09, 0xada2_bfc8_76f0_86b3), // 2 threads, WDMCP
                (0x3fe9_ab39_216d_88f3, 0x9440_1447_0f7c_0c94), // C + D = 3
            ]
        );
        assert_eq!(fingerprint(&model.theta), 0xe501_1254_2e05_1c1a);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn rejects_empty_sample_set() {
        let samples: Vec<Sample> = vec![];
        let _ = DmcpObjective::new(&samples, None, 3, 2, 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let samples = vec![Sample {
            patient_id: 0,
            features: SparseVec::binary(2, vec![0]),
            cu_label: 5,
            duration_label: 0,
        }];
        let _ = DmcpObjective::new(&samples, None, 2, 2, 2);
    }
}
