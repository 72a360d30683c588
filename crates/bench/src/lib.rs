//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6).
//!
//! Each experiment runs its workload over the Table 1 scenarios (or its
//! own) and builds, where it measures, the tables the `reproduce` binary
//! prints in the paper's layout and the flat metrics a gate suite
//! holds to its rules ([`report::Report`]). Absolute numbers come from
//! real work on a simulator, so the *shapes* — who wins, by what rough
//! factor, where the outliers are — are the reproduction target, as
//! recorded in EXPERIMENTS.md. The paper experiments are one list,
//! [`experiments::PAPER`]; the seven CI gate suites and the rule each of
//! their metrics must satisfy are one table, [`gates::SUITES`].

#![deny(unsafe_code)]

pub mod experiments;
pub mod gates;
mod micro;
pub mod report;
