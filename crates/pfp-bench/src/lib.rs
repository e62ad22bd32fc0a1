//! # pfp-bench
//!
//! `repro_paper`, which regenerates every table and figure of the paper in
//! one run, and the five gated serving, scaling, census and convergence
//! harnesses (`src/bin/repro_*.rs`).
//!
//! This library crate only hosts the tiny bits shared by those binaries (and
//! by the workspace's integration tests): a dependency-free command-line
//! flag parser, plain-text table rendering, the evaluation-counting
//! objective decorator used by the convergence regression gates, and the
//! heap-tracking allocator behind the bounded-memory gates ([`mem`]).

pub mod cli;
pub mod counting;
pub mod mem;
pub mod table;

pub use cli::Args;
pub use counting::CountingObjective;
pub use table::render_table;
