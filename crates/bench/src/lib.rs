//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6).
//!
//! Each `figN_*` function runs the corresponding experiment over the
//! Table 1 scenarios and returns structured rows; the `reproduce` binary
//! prints them in the paper's layout. Absolute numbers come from real
//! work on a simulator, so the *shapes* — who wins, by what rough
//! factor, where the outliers are — are the reproduction target, as
//! recorded in EXPERIMENTS.md. The seven CI gate suites and the rule
//! each of their metrics must satisfy are one table, [`gates::SUITES`].

#![deny(unsafe_code)]

pub mod experiments;
pub mod gates;
pub mod micro;
pub mod report;

pub use experiments::*;
pub use micro::*;
pub use report::*;
