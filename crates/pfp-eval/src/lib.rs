//! # pfp-eval
//!
//! Evaluation harness for the patient-flow reproduction: the metrics of
//! Section 4.1, cross-validation, the patient-census simulation behind the
//! relative-simulation-error metric, and the experiment runners that
//! regenerate every table and figure of the paper.
//!
//! Modules:
//! * [`metrics`] — per-class accuracy `AC_c` / `AC_d`, overall `AC_C` /
//!   `AC_D`, confusion matrices.
//! * [`census`] — 7-day patient-census simulation and the relative
//!   simulation error `Err_c` / `Err_C`.
//! * [`scenario`] — closed-loop Monte-Carlo census forecasting (the trained
//!   model rolled forward generatively) and the what-if engine: admission
//!   surges, unit closures, LOS shifts, scored with `Err_c` / `Err_C`.
//! * [`cv`] — 10-fold cross-validation with fold-parallel training.
//! * [`experiments`] — one function per paper table/figure returning a
//!   serialisable report (used by the `pfp-bench` reproduction binaries).

pub mod census;
pub mod cv;
pub mod experiments;
pub mod metrics;
pub mod scenario;
