//! Pruned replay: the one way a framebuffer jumps forward through the
//! command log.
//!
//! Both the playback engine's seek (§4.3) and the recorder's keyframe
//! catch-up bring a framebuffer from one log position to a later one
//! and show nobody the frames in between, so both read only the headers
//! in range, drop what a newer command overwrote by the
//! [`OverwritePass`] rule, and decode and apply just the survivors.

use dv_display::{CodecError, CommandMeta, Framebuffer, OverwritePass};
use dv_time::Timestamp;

use crate::log::CommandLog;

/// What one [`PrunedReplay::run`] did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Replayed {
    /// Offset of the first entry past the replayed range.
    pub next: u64,
    /// Command headers read (attempted work).
    pub scanned: u64,
    /// Commands decoded and applied after pruning (useful work).
    pub applied: u64,
}

/// A pruned replay's scratch, kept between runs so a replay allocates
/// nothing once warm.
#[derive(Default)]
pub(crate) struct PrunedReplay {
    /// `(log offset, header)` of the commands in range.
    scan: Vec<(u64, CommandMeta)>,
    pass: OverwritePass,
}

impl PrunedReplay {
    /// Takes `fb` from the screen just before the entry at `from` to the
    /// screen after the last entry timed at or before `until`; the result
    /// is pixel-identical to applying every entry in between.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the range does not hold valid entries. A bad
    /// header is found before `fb` is touched.
    pub(crate) fn run(
        &mut self,
        log: &CommandLog,
        from: u64,
        until: Timestamp,
        fb: &mut Framebuffer,
    ) -> Result<Replayed, CodecError> {
        // Headers only: a command fully overwritten by a newer one (and
        // not read in between) is never decoded, let alone applied.
        self.scan.clear();
        let mut next = from;
        while let Some((time, meta, after)) = log.peek_at(next)? {
            if time > until {
                break;
            }
            self.scan.push((next, meta));
            next = after;
        }
        let scanned = self.scan.len() as u64;
        self.pass.prune(&mut self.scan, |&(_, meta)| meta);
        for &(at, _) in &self.scan {
            let (_, cmd, _) = log.read_at(at)?.ok_or(CodecError::UnexpectedEof)?;
            fb.apply(&cmd);
        }
        Ok(Replayed {
            next,
            scanned,
            applied: self.scan.len() as u64,
        })
    }
}
