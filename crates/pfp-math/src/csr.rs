//! Sample-major compressed-sparse-row matrix over a cohort's feature vectors.
//!
//! The DMCP objective walks every sample's sparse feature vector twice per
//! evaluation (scores `Θ⊤ f_i`, then the gradient scatter).  Stored as one
//! [`SparseVec`] per sample, each walk chases a separate pair of heap
//! allocations; packing the cohort into one CSR matrix once per solve makes
//! each evaluation two linear passes over three contiguous arrays — one
//! `CSR × Θ` scores pass and one `CSRᵀ` scatter — with the row kernels
//! register-blocked over the output columns.
//!
//! The kernels perform **exactly the same floating-point operations in the
//! same order** as the per-[`SparseVec`] kernels
//! ([`SparseVec::accumulate_scores`] / [`SparseVec::scatter_gradient`]) on
//! the same rows, so batched results match the per-sample path bitwise.

use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::dense::Matrix;
use crate::sparse::SparseVec;

/// Immutable sample-major CSR matrix: row `i` holds sample `i`'s sparse
/// feature vector over `dim` feature columns.
///
/// ```
/// use pfp_math::{CsrMatrix, Matrix, SparseVec};
///
/// let rows = vec![
///     SparseVec::from_pairs(3, vec![(0, 1.0), (2, 2.0)]),
///     SparseVec::from_pairs(3, vec![(1, -1.0)]),
/// ];
/// let csr = CsrMatrix::from_rows(3, rows.iter());
/// assert_eq!((csr.rows(), csr.dim(), csr.nnz()), (2, 3, 3));
///
/// let theta = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let mut scores = vec![0.0; 4];
/// csr.accumulate_scores_range(&theta, 0..2, &mut scores);
/// assert_eq!(scores, vec![11.0, 14.0, -3.0, -4.0]); // [Θ⊤f_0, Θ⊤f_1]
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    dim: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

/// Why [`CsrMatrix::from_parts`] rejected its arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `indptr` is empty, does not start at 0 (`row == 0`), or decreases
    /// into offset `row`.
    Indptr {
        /// The first offending `indptr` position.
        row: usize,
    },
    /// `indptr` does not end at the nonzero count, or the index and value
    /// arrays differ in length.
    Nnz {
        /// The last `indptr` offset.
        indptr_end: usize,
        /// Length of the index array.
        indices: usize,
        /// Length of the value array.
        values: usize,
    },
    /// A column index is `≥ dim`.
    IndexOutOfRange {
        /// Position of the index in the index array.
        position: usize,
        /// The offending index.
        index: u32,
        /// The matrix's column count.
        dim: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::Indptr { row } => {
                write!(f, "indptr is not monotone from 0 at offset {row}")
            }
            CsrError::Nnz {
                indptr_end,
                indices,
                values,
            } => write!(
                f,
                "indptr ends at {indptr_end} but there are {indices} indices and {values} values"
            ),
            CsrError::IndexOutOfRange {
                position,
                index,
                dim,
            } => write!(
                f,
                "column index {index} at nonzero {position} is not < {dim}"
            ),
        }
    }
}

impl std::error::Error for CsrError {}

impl Default for CsrMatrix {
    /// An empty 0-row, 0-column matrix.  (A derived `Default` would leave
    /// `indptr` empty, making `rows()` underflow on a defaulted value.)
    fn default() -> Self {
        Self::with_dim(0)
    }
}

impl CsrMatrix {
    /// An empty matrix over `dim` feature columns with zero rows, ready for
    /// incremental [`push_row`](Self::push_row) construction.
    ///
    /// This is the serve-path micro-batcher's entry point: one buffer is
    /// created per service, each flush packs its batch via `push_row`, and
    /// [`clear_rows`](Self::clear_rows) resets it without dropping capacity.
    /// A matrix that never receives a row (a timer flush racing with zero
    /// accumulated requests) is valid: `rows() == 0` and the range kernels
    /// are no-ops on it.
    pub fn with_dim(dim: usize) -> Self {
        Self {
            dim,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append one sparse row (batch-of-k construction).
    ///
    /// Equivalent to having included the row in [`from_rows`](Self::from_rows):
    /// the stored layout, and therefore every kernel result, is identical.
    ///
    /// # Panics
    /// Panics if the row's dimensionality differs from this matrix's `dim`.
    pub fn push_row(&mut self, row: &SparseVec) {
        assert_eq!(row.dim(), self.dim, "row dimensionality mismatch");
        self.indices.extend_from_slice(row.indices());
        self.values.extend_from_slice(row.values());
        self.indptr.push(self.indices.len());
    }

    /// Drop all rows, keeping `dim` and the allocated capacity, so one buffer
    /// can be reused across micro-batch flushes (and across streaming shard
    /// repacks) without per-batch allocation.
    ///
    /// Re-establishes the leading `indptr` sentinel explicitly rather than
    /// truncating to it: a value whose `indptr` is empty (e.g. deserialized
    /// from hostile input) would otherwise stay sentinel-less, and every
    /// subsequent [`push_row`](Self::push_row) would record offsets against a
    /// missing base, corrupting the row layout.
    pub fn clear_rows(&mut self) {
        self.indices.clear();
        self.values.clear();
        self.indptr.clear();
        self.indptr.push(0);
    }

    /// Pack sparse rows (each of dimensionality `dim`) into CSR form.
    ///
    /// # Panics
    /// Panics if a row's dimensionality differs from `dim`.
    pub fn from_rows<'a>(dim: usize, rows: impl IntoIterator<Item = &'a SparseVec>) -> Self {
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for row in rows {
            assert_eq!(row.dim(), dim, "row dimensionality mismatch");
            indices.extend_from_slice(row.indices());
            values.extend_from_slice(row.values());
            indptr.push(indices.len());
        }
        Self {
            dim,
            indptr,
            indices,
            values,
        }
    }

    /// Rebuild a matrix from its three arrays — the inverse of
    /// [`into_parts`](Self::into_parts) — checking every structural
    /// invariant the kernels index by, so arrays read back from outside the
    /// process cannot make a kernel read out of bounds.
    ///
    /// # Errors
    /// [`CsrError`] if `indptr` is empty, does not start at 0, decreases, or
    /// does not end at the nonzero count; if `indices` and `values` differ in
    /// length; or if an index is `≥ dim`.
    pub fn from_parts(
        dim: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, CsrError> {
        if indptr.first() != Some(&0) {
            return Err(CsrError::Indptr { row: 0 });
        }
        if let Some(row) = indptr.windows(2).position(|w| w[1] < w[0]) {
            return Err(CsrError::Indptr { row: row + 1 });
        }
        let end = *indptr.last().expect("checked non-empty");
        if end != indices.len() || indices.len() != values.len() {
            return Err(CsrError::Nnz {
                indptr_end: end,
                indices: indices.len(),
                values: values.len(),
            });
        }
        if let Some(position) = indices.iter().position(|&i| i as usize >= dim) {
            return Err(CsrError::IndexOutOfRange {
                position,
                index: indices[position],
                dim,
            });
        }
        Ok(Self {
            dim,
            indptr,
            indices,
            values,
        })
    }

    /// The three arrays: `indptr` (`rows + 1` offsets from 0), then the
    /// column indices and values of every row, concatenated.
    pub fn as_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Move the three arrays out, so a buffer can be refilled in place and
    /// re-checked with [`from_parts`](Self::from_parts).
    pub fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        (self.indptr, self.indices, self.values)
    }

    /// Number of rows (samples).
    ///
    /// Robust to a deserialized value with an empty `indptr` (reported as
    /// zero rows rather than underflowing).
    #[inline]
    pub fn rows(&self) -> usize {
        self.indptr.len().saturating_sub(1)
    }

    /// Number of feature columns.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row `i` as parallel `(indices, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[span.clone()], &self.values[span])
    }

    /// Batched scores pass: for every row `i` in `range`, accumulate
    /// `out[local·K + k] += Σ_j v_ij · theta[col_ij][k]` where
    /// `local = i − range.start` and `K = theta.cols()`.
    ///
    /// `out` must hold `range.len() · K` entries and is **accumulated into**
    /// (callers zero it).  The inner multiply-accumulate is register-blocked
    /// over the output columns: for the workspace-wide `K = 16` (and the
    /// small-cohort `K = 4` / `K = 8` shapes) the accumulator lives in a
    /// fixed-size stack array across a row's whole nonzero walk, so scores
    /// stay in registers instead of round-tripping through `out` per entry.
    ///
    /// # Panics
    /// Panics (debug) on shape mismatches.
    pub fn accumulate_scores_range(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(theta.rows(), self.dim);
        debug_assert_eq!(out.len(), range.len() * theta.cols());
        match theta.cols() {
            4 => self.scores_blocked::<4>(theta, range, out),
            8 => self.scores_blocked::<8>(theta, range, out),
            16 => self.scores_blocked::<16>(theta, range, out),
            _ => self.scores_generic(theta, range, out),
        }
    }

    fn scores_blocked<const K: usize>(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        let data = theta.as_slice();
        for (local, i) in range.enumerate() {
            let (indices, values) = self.row(i);
            let mut acc = [0.0f64; K];
            for (&col, &v) in indices.iter().zip(values) {
                let row = &data[col as usize * K..col as usize * K + K];
                for k in 0..K {
                    acc[k] += v * row[k];
                }
            }
            let dst = &mut out[local * K..(local + 1) * K];
            for (o, a) in dst.iter_mut().zip(acc) {
                *o += a;
            }
        }
    }

    fn scores_generic(&self, theta: &Matrix, range: Range<usize>, out: &mut [f64]) {
        let cols = theta.cols();
        let data = theta.as_slice();
        for (local, i) in range.enumerate() {
            let (indices, values) = self.row(i);
            let dst = &mut out[local * cols..(local + 1) * cols];
            for (&col, &v) in indices.iter().zip(values) {
                let row = &data[col as usize * cols..col as usize * cols + cols];
                for (o, &t) in dst.iter_mut().zip(row) {
                    *o += v * t;
                }
            }
        }
    }

    /// Batched transpose-scatter pass: for every row `i` in `range`, scatter
    /// `grad[col_ij][k] += v_ij · contrib[local·K + k]` — the `CSRᵀ ×
    /// residual` half of a log-linear gradient, one contiguous walk over the
    /// whole range.
    ///
    /// Rows are processed in increasing order and each row's updates land in
    /// the same order as [`SparseVec::scatter_gradient`] would produce, so
    /// the batched gradient is bitwise identical to the per-sample loop.
    /// Register-blocked like [`accumulate_scores_range`](Self::accumulate_scores_range):
    /// for `K = 4 / 8 / 16` the row's `contrib` slice is held in a fixed-size
    /// stack array across its nonzero walk and every gradient row is a
    /// fixed-width `K`-lane update, which the compiler unrolls and vectorises.
    ///
    /// # Panics
    /// Panics (debug) on shape mismatches.
    pub fn scatter_gradient_range(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        debug_assert_eq!(grad.rows(), self.dim);
        debug_assert_eq!(contrib.len(), range.len() * grad.cols());
        match grad.cols() {
            4 => self.scatter_blocked::<4>(contrib, range, grad),
            8 => self.scatter_blocked::<8>(contrib, range, grad),
            16 => self.scatter_blocked::<16>(contrib, range, grad),
            _ => self.scatter_generic(contrib, range, grad),
        }
    }

    fn scatter_blocked<const K: usize>(
        &self,
        contrib: &[f64],
        range: Range<usize>,
        grad: &mut Matrix,
    ) {
        let data = grad.as_mut_slice();
        for (local, i) in range.enumerate() {
            let (indices, values) = self.row(i);
            let c: [f64; K] = contrib[local * K..(local + 1) * K]
                .try_into()
                .expect("a K-wide residual row");
            for (&col, &v) in indices.iter().zip(values) {
                let row: &mut [f64; K] = (&mut data[col as usize * K..col as usize * K + K])
                    .try_into()
                    .expect("a K-wide gradient row");
                for k in 0..K {
                    row[k] += v * c[k];
                }
            }
        }
    }

    fn scatter_generic(&self, contrib: &[f64], range: Range<usize>, grad: &mut Matrix) {
        let cols = grad.cols();
        let data = grad.as_mut_slice();
        for (local, i) in range.enumerate() {
            let (indices, values) = self.row(i);
            let c = &contrib[local * cols..(local + 1) * cols];
            for (&col, &v) in indices.iter().zip(values) {
                let row = &mut data[col as usize * cols..col as usize * cols + cols];
                for (g, &ck) in row.iter_mut().zip(c) {
                    *g += v * ck;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<SparseVec> {
        vec![
            SparseVec::from_pairs(5, vec![(0, 1.5), (3, -2.0)]),
            SparseVec::new(5), // empty row
            SparseVec::from_pairs(5, vec![(1, 0.5), (2, 1.0), (4, 3.0)]),
            SparseVec::from_pairs(5, vec![(4, -1.0)]),
        ]
    }

    #[test]
    fn from_rows_preserves_layout_and_counts() {
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.dim(), 5);
        assert_eq!(csr.nnz(), 6);
        for (i, r) in rows.iter().enumerate() {
            let (idx, val) = csr.row(i);
            assert_eq!(idx, r.indices());
            assert_eq!(val, r.values());
        }
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn from_rows_rejects_mismatched_dim() {
        let rows = [SparseVec::new(3)];
        let _ = CsrMatrix::from_rows(5, rows.iter());
    }

    /// Batched kernels must match the per-SparseVec kernels **bitwise** for
    /// every output width, including the register-blocked 4/8/16 fast paths.
    #[test]
    fn batched_kernels_match_per_sample_kernels_bitwise() {
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        for cols in [1usize, 3, 4, 7, 8, 16] {
            let theta = Matrix::from_fn(5, cols, |r, c| {
                0.37 * (r as f64 + 1.0) - 0.21 * (c as f64 + 1.0)
            });
            // Scores: batched vs per-sample.
            let mut batched = vec![0.0; rows.len() * cols];
            csr.accumulate_scores_range(&theta, 0..rows.len(), &mut batched);
            for (i, r) in rows.iter().enumerate() {
                let mut expected = vec![0.0; cols];
                r.accumulate_scores(&theta, &mut expected);
                for (b, e) in batched[i * cols..(i + 1) * cols].iter().zip(&expected) {
                    assert_eq!(b.to_bits(), e.to_bits(), "cols={cols} row={i}");
                }
            }
            // Scatter: batched vs per-sample.
            let contrib: Vec<f64> = (0..rows.len() * cols)
                .map(|k| 0.11 * (k as f64) - 0.4)
                .collect();
            let mut grad_batched = Matrix::zeros(5, cols);
            csr.scatter_gradient_range(&contrib, 0..rows.len(), &mut grad_batched);
            let mut grad_per_sample = Matrix::zeros(5, cols);
            for (i, r) in rows.iter().enumerate() {
                r.scatter_gradient(&contrib[i * cols..(i + 1) * cols], &mut grad_per_sample);
            }
            assert_eq!(grad_batched, grad_per_sample, "cols={cols}");
        }
    }

    /// A range cut into two sub-ranges does the same work as the whole range,
    /// bitwise, for both kernels and on the generic and blocked widths — the
    /// segmentation the engine's shard equivalence relies on.
    #[test]
    fn sub_ranges_cover_the_same_work_as_the_full_range() {
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        let n = rows.len();
        for cols in [3usize, 4, 8, 16] {
            let theta = Matrix::from_fn(5, cols, |r, c| (r * cols + c) as f64 * 0.1);
            let mut full = vec![0.0; n * cols];
            csr.accumulate_scores_range(&theta, 0..n, &mut full);
            let mut split = vec![0.0; n * cols];
            csr.accumulate_scores_range(&theta, 0..2, &mut split[..2 * cols]);
            csr.accumulate_scores_range(&theta, 2..n, &mut split[2 * cols..]);
            assert_eq!(full, split, "scores, cols={cols}");

            let contrib: Vec<f64> = (0..n * cols).map(|k| 0.3 - 0.07 * k as f64).collect();
            let mut grad_full = Matrix::zeros(5, cols);
            csr.scatter_gradient_range(&contrib, 0..n, &mut grad_full);
            let mut grad_split = Matrix::zeros(5, cols);
            csr.scatter_gradient_range(&contrib[..2 * cols], 0..2, &mut grad_split);
            csr.scatter_gradient_range(&contrib[2 * cols..], 2..n, &mut grad_split);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad_full), bits(&grad_split), "scatter, cols={cols}");
        }
    }

    #[test]
    fn incremental_push_row_matches_from_rows_exactly() {
        let rows = sample_rows();
        let packed = CsrMatrix::from_rows(5, rows.iter());
        let mut incremental = CsrMatrix::with_dim(5);
        for r in &rows {
            incremental.push_row(r);
        }
        assert_eq!(incremental, packed);
        // Clearing and repacking reuses the buffer and lands on the same
        // layout — the serve batcher's per-flush cycle.
        incremental.clear_rows();
        assert_eq!(incremental.rows(), 0);
        assert_eq!(incremental.nnz(), 0);
        assert_eq!(incremental.dim(), 5);
        for r in &rows {
            incremental.push_row(r);
        }
        assert_eq!(incremental, packed);
    }

    /// Streaming shard training repacks one buffer over and over with
    /// *varying* row counts.  Across ≥3 clear+repack cycles the layout must
    /// match a fresh `from_rows` pack exactly, no stale `indptr` entries may
    /// survive a shrink (4 rows → 1 row → 3 rows), and the allocations must
    /// be reused, not reallocated, once capacity has grown to the high-water
    /// mark.
    #[test]
    fn repeated_clear_and_repack_cycles_preserve_capacity_and_layout() {
        let rows = sample_rows();
        let mut buf = CsrMatrix::with_dim(5);
        for r in &rows {
            buf.push_row(r);
        }
        let indices_cap = buf.indices.capacity();
        let values_cap = buf.values.capacity();
        let indptr_cap = buf.indptr.capacity();
        // Cycle through shrinking and growing row counts (all ≤ the first
        // pack, so the high-water capacities must never change).
        for cycle_rows in [&rows[..1], &rows[..3], &rows[..], &rows[..2]] {
            buf.clear_rows();
            assert_eq!((buf.rows(), buf.nnz(), buf.dim()), (0, 0, 5));
            for r in cycle_rows {
                buf.push_row(r);
            }
            let expected = CsrMatrix::from_rows(5, cycle_rows.iter());
            assert_eq!(buf, expected);
            assert_eq!(buf.indptr.len(), cycle_rows.len() + 1);
            assert_eq!(buf.indices.capacity(), indices_cap, "indices reallocated");
            assert_eq!(buf.values.capacity(), values_cap, "values reallocated");
            assert_eq!(buf.indptr.capacity(), indptr_cap, "indptr reallocated");
        }
    }

    /// Regression: `clear_rows` on a value whose `indptr` is empty (possible
    /// via deserialization — `rows()` tolerates it) must re-establish the
    /// leading 0 sentinel.  The old `truncate(1)` implementation left the
    /// vector empty, so the next `push_row` recorded an end offset with no
    /// base and every row lookup was shifted.
    #[test]
    fn clear_rows_restores_sentinel_on_empty_indptr() {
        let mut m = CsrMatrix {
            dim: 5,
            indptr: Vec::new(),
            indices: Vec::new(),
            values: Vec::new(),
        };
        assert_eq!(m.rows(), 0);
        m.clear_rows();
        assert_eq!(m.indptr, vec![0]);
        let row = SparseVec::from_pairs(5, vec![(1, 0.5), (4, -2.0)]);
        m.push_row(&row);
        assert_eq!(m.rows(), 1);
        let (idx, val) = m.row(0);
        assert_eq!(idx, row.indices());
        assert_eq!(val, row.values());
    }

    #[test]
    #[should_panic(expected = "row dimensionality mismatch")]
    fn push_row_rejects_mismatched_dim() {
        let mut m = CsrMatrix::with_dim(5);
        m.push_row(&SparseVec::new(3));
    }

    /// The micro-batcher edge cases: a zero-request flush and a batch of one
    /// must not panic or divide by zero, and must score exactly like the
    /// per-sample walk.
    #[test]
    fn zero_row_and_one_row_batches_score_like_the_per_sample_walk() {
        let theta = Matrix::from_fn(5, 4, |r, c| 0.3 * (r as f64) - 0.11 * (c as f64));

        // 0-row batch: all kernels are no-ops on the empty row range.
        let empty = CsrMatrix::with_dim(5);
        assert_eq!(empty.rows(), 0);
        let mut out: Vec<f64> = Vec::new();
        empty.accumulate_scores_range(&theta, 0..0, &mut out);
        assert!(out.is_empty());
        let mut grad = Matrix::zeros(5, 4);
        empty.scatter_gradient_range(&[], 0..0, &mut grad);
        assert_eq!(grad, Matrix::zeros(5, 4));

        // 1-row batch: bitwise identical to the single SparseVec kernel.
        let row = SparseVec::from_pairs(5, vec![(1, 0.5), (4, -2.0)]);
        let mut single = CsrMatrix::with_dim(5);
        single.push_row(&row);
        assert_eq!(single.rows(), 1);
        let mut batched = vec![0.0; 4];
        single.accumulate_scores_range(&theta, 0..1, &mut batched);
        let mut expected = vec![0.0; 4];
        row.accumulate_scores(&theta, &mut expected);
        for (b, e) in batched.iter().zip(&expected) {
            assert_eq!(b.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn default_is_a_valid_empty_matrix() {
        let m = CsrMatrix::default();
        assert_eq!((m.rows(), m.dim(), m.nnz()), (0, 0, 0));
    }

    #[test]
    fn empty_matrix_and_empty_range_are_no_ops() {
        let csr = CsrMatrix::from_rows(3, std::iter::empty());
        assert_eq!(csr.rows(), 0);
        assert_eq!(csr.nnz(), 0);
        let rows = sample_rows();
        let csr = CsrMatrix::from_rows(5, rows.iter());
        let theta = Matrix::zeros(5, 2);
        let mut out: Vec<f64> = Vec::new();
        csr.accumulate_scores_range(&theta, 1..1, &mut out);
        let mut grad = Matrix::zeros(5, 2);
        csr.scatter_gradient_range(&[], 1..1, &mut grad);
        assert_eq!(grad, Matrix::zeros(5, 2));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_broken_arrays() {
        let rows = sample_rows();
        let packed = CsrMatrix::from_rows(5, rows.iter());
        let (indptr, indices, values) = packed.clone().into_parts();
        assert_eq!(packed.as_parts(), (&indptr[..], &indices[..], &values[..]));
        let rebuilt = CsrMatrix::from_parts(5, indptr.clone(), indices.clone(), values.clone());
        assert_eq!(rebuilt.as_ref(), Ok(&packed));

        let err = |indptr: Vec<usize>, indices: Vec<u32>, values: Vec<f64>| {
            CsrMatrix::from_parts(5, indptr, indices, values).unwrap_err()
        };
        assert_eq!(err(vec![], vec![], vec![]), CsrError::Indptr { row: 0 });
        assert_eq!(
            err(vec![1, 1], vec![0], vec![1.0]),
            CsrError::Indptr { row: 0 }
        );
        assert_eq!(
            err(vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 2.0]),
            CsrError::Indptr { row: 2 }
        );
        assert_eq!(
            err(vec![0, 2], vec![0, 1, 2], vec![1.0, 2.0, 3.0]),
            CsrError::Nnz {
                indptr_end: 2,
                indices: 3,
                values: 3
            }
        );
        assert_eq!(
            err(vec![0, 2], vec![0, 1], vec![1.0]),
            CsrError::Nnz {
                indptr_end: 2,
                indices: 2,
                values: 1
            }
        );
        let mut bad = indices;
        bad[4] = 5;
        assert_eq!(
            err(indptr, bad, values),
            CsrError::IndexOutOfRange {
                position: 4,
                index: 5,
                dim: 5
            }
        );
    }
}
