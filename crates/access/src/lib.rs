//! Accessibility substrate and text-capture daemon for DejaView.
//!
//! Implements §4.2 of the paper: applications expose [`AccessibleTree`]s
//! on a [`Desktop`] bus that delivers mutation events synchronously; the
//! [`CaptureDaemon`] mirrors the trees incrementally (avoiding expensive
//! full traversals), extracts displayed text with its context —
//! application, window title, role, focus — and feeds visibility
//! intervals to the text index. It also implements the explicit
//! annotation path (select text + key combination).

#![deny(unsafe_code)]

pub mod daemon;
pub mod mirror;
pub mod naive;
pub mod registry;
pub mod tree;

pub use daemon::{CaptureDaemon, TextInstance, TextSink};
pub use mirror::{MirrorNode, MirrorTree};
pub use naive::NaiveCaptureDaemon;
pub use registry::{AccessEvent, AccessListener, AppId, Desktop, SharedListener};
pub use tree::{AccessibleNode, AccessibleTree, NodeId, Role};
