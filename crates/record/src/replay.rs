//! Pruned replay: the one way a framebuffer jumps forward through the
//! command log.
//!
//! Both the playback engine's seek (§4.3) and the recorder's keyframe
//! catch-up bring a framebuffer from one log position to a later one
//! and show nobody the frames in between, so both read only the headers
//! in range, drop what a newer command overwrote by the
//! [`OverwritePass`] rule, and decode and apply just the survivors.
//! A seek that starts from a base — a keyframe, decoded or as its
//! stored runs, or a frame a screenshot still holds — writes from it
//! only what the survivors do not paint over first ([`CoveragePass`]).
//! The survivors are written through a [`ScrollRing`], so a scroll
//! moves a row origin, not rows.

use dv_display::{
    CodecError, CommandMeta, CoveragePass, Framebuffer, OverwritePass, Pixel, RingRows, Screenshot,
    ScrollRing,
};
use dv_obs::{names, Obs};
use dv_time::Timestamp;

use crate::log::CommandLog;
use crate::screenshot::ScreenshotRuns;

/// The screen a [`PrunedReplay::run`] starts from, when not its own.
pub(crate) enum Base<'a> {
    /// A cached keyframe, or a frame's own pixels a screenshot holds.
    Frame(Screenshot),
    /// A keyframe's checked spans, decoded straight into the frame.
    Runs(ScreenshotRuns<'a>),
}

/// What one [`PrunedReplay::run`] did.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Replayed {
    /// Offset of the first entry past the replayed range.
    pub next: u64,
    /// Command headers read (attempted work).
    pub scanned: u64,
    /// Commands decoded and applied after pruning (useful work).
    pub applied: u64,
    /// Pixels copied or decoded from the base.
    pub restored: u64,
    /// Rows the survivors' scrolls wrote.
    pub rows: RingRows,
}

/// A pruned replay's scratch, kept between runs so a replay allocates
/// nothing once warm.
#[derive(Default)]
pub(crate) struct PrunedReplay {
    /// `(log offset, header)` of the commands in range.
    scan: Vec<(u64, CommandMeta)>,
    pass: OverwritePass,
    cover: CoveragePass,
    /// A frame handed back, for a replay whose framebuffer a
    /// screenshot still holds to write into.
    pub(crate) spare: Option<Vec<Pixel>>,
}

impl PrunedReplay {
    /// Takes `fb` from the screen just before the entry at `from` to the
    /// screen after the last entry timed at or before `until`; the result
    /// is pixel-identical to applying every entry in between.
    ///
    /// The screen before `from` is `base` when there is one and `fb`
    /// otherwise, replayed in place. From a base, `fb` is rebased on it
    /// ([`Framebuffer::rebase`], [`Framebuffer::rebase_runs`]), into its
    /// own buffer or the spare, skipping the blocks the survivors paint
    /// over first when that is at least half of them. Runs are always
    /// decoded so, or, with neither buffer, into a new one. A frame is
    /// copied so too when `fb` is held elsewhere, a survivor is to land
    /// and there is a spare; otherwise `fb` shares it and the first
    /// survivor to land copies it whole into a new buffer.
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
        base: Option<Base<'_>>,
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
        let mut restored = 0;
        // The base `fb` shares instead of being rebased.
        let mut shared = None;
        if let Some(base) = base {
            let meta = |&(_, meta): &(u64, CommandMeta)| meta;
            let painted = self.cover.cover(fb.width(), fb.height(), &self.scan, meta);
            // Copying around what the survivors paint pays once they
            // paint over half the frame. Below that, one copy of the
            // whole base measured as fast, and it leaves the lines the
            // survivors then write in cache.
            let skip = painted * 2 >= self.cover.blocks();
            if !skip {
                // An empty run paints nothing over: a rebase copies all.
                self.cover.cover(fb.width(), fb.height(), &[], meta);
            }
            match base {
                Base::Runs(runs) => restored = runs.write_into(fb, &self.cover, &mut self.spare),
                // A frame held elsewhere needs another buffer for a
                // survivor to land in: the spare beats a new one.
                Base::Frame(base) => match (skip || (fb.is_shared() && !self.scan.is_empty()))
                    .then(|| fb.rebase(&base, &self.cover, &mut self.spare))
                    .flatten()
                {
                    Some(copied) => restored = copied,
                    None => {
                        *fb = Framebuffer::from_screenshot(&base);
                        shared = Some(base);
                    }
                },
            }
        }
        let mut ring = ScrollRing::new(fb);
        for &(at, _) in &self.scan {
            let (_, cmd, _) = log.read_at(at)?.ok_or(CodecError::UnexpectedEof)?;
            ring.apply(&cmd);
        }
        let rows = ring.finish();
        // The first survivor to land on a shared base copied it whole.
        if let Some(base) = shared.filter(|_| !fb.is_shared()) {
            restored = base.pixels.len() as u64;
        }
        Ok(Replayed {
            next,
            scanned,
            applied: self.scan.len() as u64,
            restored,
            rows,
        })
    }
}

/// Counts the rows a replay's scroll ring wrote into `obs`.
pub(crate) fn count_rows(obs: &Obs, rows: RingRows) {
    obs.add(names::RECORD_REPLAY_RING_ROWS, rows.written);
    obs.add(names::RECORD_REPLAY_COPY_ROWS, rows.per_command);
}
