//! Revived sessions.
//!
//! "When the user revives a past session, an additional viewer window is
//! used to access the revived session, using a model similar to the tabs
//! commonplace in today's web browsers. A revived session operates as a
//! normal desktop session; its new execution can diverge from the
//! sequence of events that occurred in the original recording" (§2).

use dv_checkpoint::{Checkpointer, ReviveReport};
use dv_display::Screenshot;
use dv_lsfs::{Lsfs, ReadOnlyFs, SharedFs, UnionFs};
use dv_time::Timestamp;
use dv_vee::{Vee, VeeResult, Vpid};

/// The branchable file system view a revived session runs on: a fresh
/// writable log-structured layer unioned over a read-only snapshot
/// stack (one layer per revive generation).
pub type BranchFs = SharedFs<UnionFs<Box<dyn ReadOnlyFs>, Lsfs>>;

/// One revived desktop session.
pub struct RevivedSession {
    /// Session id (unique per server).
    pub id: u64,
    /// The checkpoint counter it was revived from.
    pub counter: u64,
    /// The session time the checkpoint was taken at.
    pub revived_from: Timestamp,
    /// The session's virtual execution environment.
    pub vee: Vee,
    /// The branch file system (also reachable as `vee.fs`).
    pub fs: BranchFs,
    /// The read-only layer stack under the branch, kept cloneable so
    /// this session can itself be revived from (§5.2).
    pub lower: Box<dyn ReadOnlyFs>,
    /// The screen the session's viewer window opened on: the display
    /// as recorded at the checkpoint.
    pub screen: Screenshot,
    /// Statistics from the revive itself.
    pub report: ReviveReport,
    /// This session's own checkpoint engine: a revived session "retains
    /// DejaView's ability to continuously checkpoint session state and
    /// later revive it" (§5.2).
    pub engine: Checkpointer,
}

impl RevivedSession {
    /// Enables or disables network access for one application by name.
    /// Returns how many processes matched.
    pub fn set_app_network(&mut self, app: &str, enabled: bool) -> usize {
        let vpids: Vec<Vpid> = self
            .vee
            .processes()
            .filter(|p| p.name == app)
            .map(|p| p.vpid)
            .collect();
        let count = vpids.len();
        for vpid in vpids {
            if let Ok(p) = self.vee.process_mut(vpid) {
                p.net_allowed = enabled;
            }
        }
        count
    }

    /// Launches a new application inside the revived session; per §5.2,
    /// new applications get network access by default.
    pub fn launch(&mut self, parent: Option<Vpid>, name: &str) -> VeeResult<Vpid> {
        self.vee.spawn(parent, name)
    }
}

#[cfg(test)]
mod tests {
    // RevivedSession construction requires the full server; its behavior
    // is exercised by the server tests and the integration suite.
}
