//! # pfp-core
//!
//! The paper's primary contribution: the **mutually-correcting process**
//! model of patient flow and its **discriminative learning algorithm (DMCP)**.
//!
//! A patient's transition history is summarised by the history-dependent
//! feature map (Eq. 4)
//!
//! ```text
//! f_t = [ f_0ᵀ · g(t),  ( Σ_{t_i < t} h(t, t_i) · f_i )ᵀ ]ᵀ ∈ R^M
//! ```
//!
//! with `g(t) = t − t_I` and `h(t,t') = exp(−(t−t')²/σ²)` for the
//! mutually-correcting process.  The conditional intensities are log-linear,
//! `λ_c(t) = exp(θ_cᵀ f_t)`, `λ_d(t) = exp(θ_dᵀ f_t)`, so learning the
//! conditional distributions `p(c | t, H_t)` and `p(d | t, H_t)` is a pair of
//! multinomial logistic regressions sharing the parameter matrix
//! `Θ ∈ R^{M×(C+D)}` (Eq. 5–6), regularised by a row-wise group lasso and
//! solved with ADMM (Algorithm 1).
//!
//! Modules:
//! * [`features`] — the history featurizer (also covers the MPP/SCP feature
//!   maps used by the baselines, so the kernel choice is the only difference).
//! * [`dataset`] — feature/label pairs extracted from patient records.
//! * [`loss`] — the cross-entropy loss of Eq. 6 and its gradient, evaluated
//!   by one engine ([`loss::DmcpEngine`]) over a sample source: retained CSR
//!   blocks ([`loss::DmcpObjective`]) or blocks spilled once to a scratch
//!   file and read back per pass ([`StreamingDmcpObjective`]).  Every evaluation is one fused batched
//!   fold, optionally over a persistent worker pool
//!   ([`loss::DmcpEngine::with_threads`]), bitwise-deterministic for a fixed
//!   thread count.
//! * [`train`](mod@train) — Algorithm 1: ADMM + group lasso.  [`fit`] solves
//!   any built objective; [`train()`], [`train_warm`] and
//!   [`train_streamed`] compose over it.  [`TrainConfig::threads`] selects
//!   the sample-parallel accumulation width.
//! * [`model`] — the trained [`DmcpModel`]: conditional probabilities,
//!   prediction, intensity evaluation, census simulation hooks.
//! * [`imbalance`] — the weighted / hierarchical / synthetic pre-processing
//!   strategies of Section 3.3.
//! * [`joint`] — the joint `C·D`-class classifier the paper reports as an
//!   over-fitting straw man.
//! * [`stream`] — the bounded-memory sample sources: featurized shard blocks
//!   streamed from the cohort generator ([`ShardedSamples`]) and true
//!   out-of-core blocks spilled to disk ([`StreamingDmcpObjective`]); both
//!   reproduce the materialized path bitwise.

pub mod dataset;
pub mod features;
pub mod imbalance;
pub mod joint;
pub mod loss;
pub mod model;
pub mod stream;
pub mod train;

pub use dataset::{Dataset, Sample};
pub use features::{FeatureMapKind, HistoryFeaturizer, McpConfig};
pub use imbalance::ImbalanceStrategy;
pub use loss::{DmcpEngine, DmcpObjective};
pub use model::DmcpModel;
pub use pfp_optim::admm::{PlateauStop, WarmStart, WarmStartError};
pub use stream::{train_streamed, ShardedSamples, StreamingDmcpObjective};
pub use train::{fit, initial_theta, train, train_warm, SolverMode, TrainConfig, TrainReport};
