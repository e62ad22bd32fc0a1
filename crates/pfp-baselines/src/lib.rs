//! # pfp-baselines
//!
//! The seven baseline predictors of Section 4.1, behind one
//! [`FlowPredictor`] trait so the evaluation harness can treat every method
//! uniformly:
//!
//! * **MC** — two independent first-order Markov chains (destination CU and
//!   duration category), count-based transition matrices.
//! * **VAR** — vector auto-regression on one-hot state vectors, ridge-
//!   regularised least squares.
//! * **CTMC** — continuous-time Markov chain with an estimated rate matrix;
//!   destination from jump probabilities, duration from expected holding
//!   times.
//! * **HP** — generatively-trained multivariate Hawkes process; prediction by
//!   integrating the intensity over day-long windows.
//! * **LR / MPP / SCP** — the DMCP learner itself with a simpler feature map
//!   and no group lasso: current features only (history-independent
//!   multinomial logistic regression), the modulated-Poisson map and the
//!   self-correcting map.  They isolate the contribution of the
//!   mutually-correcting kernel and of the joint feature selection.
//!
//! DMCP itself (and its W/H/S imbalance variants) lives in `pfp-core`; the
//! [`predictor`] module's [`DmcpPredictor`] adapts every DMCP-family method —
//! LR, MPP and SCP included — to the same trait via
//! `DmcpPredictor::train(dataset, config, MethodId::X)`.

pub mod ctmc;
pub mod hawkes_baseline;
#[cfg(test)]
mod logistic;
pub mod markov;
#[cfg(test)]
mod pp_discriminative;
pub mod predictor;
pub mod var;

pub use ctmc::CtmcPredictor;
pub use hawkes_baseline::HawkesPredictor;
pub use markov::{MarkovFallback, MarkovPredictor};
pub use predictor::{DmcpPredictor, FlowPredictor, GenerativePredictor, MethodId, Prediction};
pub use var::VarPredictor;
