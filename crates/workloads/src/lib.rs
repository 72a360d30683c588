//! Table 1 application scenarios for the DejaView reproduction.
//!
//! Each scenario reproduces the load *shape* of one of the paper's
//! evaluation workloads — display command mix, accessibility text
//! volume, file system activity, process churn, and memory dirtying —
//! by doing real work through a [`dejaview::DejaView`] server's
//! interfaces. The [`run_scenario`] driver advances virtual time and
//! runs the checkpoint machinery at the §6 cadence (once per second for
//! application benchmarks, the policy for the desktop trace).

#![deny(unsafe_code)]

pub mod cat;
pub mod common;
pub mod desktop;
pub mod gzip;
pub mod make;
pub mod octave;
pub mod scenario;
pub mod untar;
pub mod video;
pub mod web;

pub use cat::CatScenario;
pub use common::{corpus_sentence, TermWindow};
pub use desktop::DesktopScenario;
pub use gzip::GzipScenario;
pub use make::MakeScenario;
pub use octave::OctaveScenario;
pub use scenario::{run_scenario, CheckpointMode, RunOptions, RunSummary, Scenario};
pub use untar::UntarScenario;
pub use video::VideoScenario;
pub use web::WebScenario;

/// Creates one application scenario by Table 1 name; `None` for unknown
/// names.
pub fn scenario_by_name(name: &str, scale: f64) -> Option<Box<dyn Scenario>> {
    Some(match name {
        "web" => Box::new(WebScenario::new(scale)) as Box<dyn Scenario>,
        "video" => Box::new(VideoScenario::new(scale)),
        "untar" => Box::new(UntarScenario::new(scale)),
        "gzip" => Box::new(GzipScenario::new(scale)),
        "make" => Box::new(MakeScenario::new(scale)),
        "octave" => Box::new(OctaveScenario::new(scale)),
        "cat" => Box::new(CatScenario::new(scale)),
        "desktop" => Box::new(DesktopScenario::new(scale)),
        _ => return None,
    })
}
