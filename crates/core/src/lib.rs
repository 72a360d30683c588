//! DejaView: a personal virtual computer recorder.
//!
//! A from-scratch reproduction of the SOSP 2007 DejaView system: a
//! desktop recorder with "What You Search Is What You've Seen"
//! semantics. The [`DejaView`] server continuously records three
//! coordinated streams of a live desktop session —
//!
//! * the **display** (THINC-style command log + keyframes, `dv-record`),
//! * all **on-screen text with context** (accessibility capture into a
//!   full-text interval index, `dv-access` + `dv-index`), and
//! * the **execution state** (policy-driven, low-downtime checkpoints of
//!   the whole virtual execution environment coordinated with file
//!   system snapshots, `dv-checkpoint` + `dv-vee` + `dv-lsfs`)
//!
//! — and lets the user **play back**, **browse**, **search**, and
//! **revive** any past moment, including multiple concurrently revived,
//! diverging sessions.
//!
//! # Example
//!
//! ```
//! use dejaview::{Config, DejaView};
//! use dv_display::Rect;
//! use dv_index::RankOrder;
//! use dv_time::Duration;
//!
//! let mut dv = DejaView::new(Config::default());
//! let clock = dv.clock();
//!
//! // An application draws and exposes text.
//! let app = dv.desktop_mut().register_app("editor");
//! let root = dv.desktop_mut().root(app).unwrap();
//! let win = dv.desktop_mut().add_node(app, root, dv_access::Role::Window, "notes");
//! dv.desktop_mut().add_node(app, win, dv_access::Role::Paragraph, "remember the milk");
//! dv.driver_mut().fill_rect(Rect::new(0, 0, 1024, 768), 0x336699);
//!
//! // Time passes; the policy takes a checkpoint.
//! clock.advance(Duration::from_secs(1));
//! dv.policy_tick().unwrap();
//!
//! // WYSIWYS search returns a screenshot portal.
//! let results = dv.search("milk", RankOrder::Chronological).unwrap();
//! assert_eq!(results.len(), 1);
//!
//! // ...through which the session can be revived (from the nearest
//! // checkpoint at or before the requested time).
//! let session = dv.take_me_back(dv.now()).unwrap();
//! assert!(dv.session(session).is_ok());
//! ```

#![deny(unsafe_code)]

pub mod archive;
pub mod config;
pub mod error;
pub mod server;
pub mod session;
pub mod sink;
pub mod stats;
pub mod ui;

pub use archive::ArchiveError;
pub use config::Config;
pub use dv_obs::{Obs, ObsSnapshot};
pub use dv_vidx::{VidxStats, VisualHit};
pub use error::ServerError;
pub use server::{DejaView, PolicyTick, SearchResult};
pub use session::{BranchFs, RevivedSession};
pub use sink::{role_tag, IndexSink};
pub use stats::{StorageBreakdown, StorageRates};
pub use ui::ViewerUi;
