//! Virtual (headless) display outputs.
//!
//! One recorded session can drive several independently-sized remote
//! screens at once — a full-resolution desktop viewer, a half-scale
//! PDA, a magnified projector. Each [`VirtualOutput`] is a headless
//! framebuffer at its own rational [`ScaleFactor`] of the session
//! geometry, kept current by applying the *scaled form* of every live
//! display command ([`scale_command`]). Because a remote viewer at the
//! same scale applies exactly the same scaled command stream, the
//! output's framebuffer is the authoritative answer to "what should
//! that viewer's screen hash to" — it is both the source of catch-up
//! keyframes and the convergence oracle for tests.
//!
//! An [`OutputPool`] groups outputs behind a single [`CommandSink`],
//! so it can be attached to a [`VirtualDisplayDriver`]
//! (`attach_sink`) and fan every submitted command across all
//! registered geometries. An empty pool costs one short-lived lock
//! per command batch and nothing else.
//!
//! [`VirtualDisplayDriver`]: crate::driver::VirtualDisplayDriver

use dv_time::Timestamp;

use crate::command::DisplayCommand;
use crate::driver::CommandSink;
use crate::framebuffer::{Framebuffer, Screenshot};
use crate::scale::{scale_command, scale_screenshot, ScaleFactor};

/// A headless screen at one scale of the session geometry.
pub struct VirtualOutput {
    scale: ScaleFactor,
    fb: Framebuffer,
}

impl VirtualOutput {
    /// Creates an output at `scale`, seeded from a snapshot of the
    /// session screen (so an output registered mid-session starts from
    /// the current truth, not a black screen).
    pub fn new(scale: ScaleFactor, seed: &Screenshot) -> Self {
        VirtualOutput {
            scale,
            fb: Framebuffer::from_screenshot(&scale_screenshot(seed, scale)),
        }
    }

    /// The output's pixel geometry.
    pub fn size(&self) -> (u32, u32) {
        (self.fb.width(), self.fb.height())
    }

    /// Snapshot of the output's current screen.
    pub fn snapshot(&self) -> Screenshot {
        self.fb.snapshot()
    }

    /// Content hash of the output's screen, comparable with a
    /// same-scale viewer's framebuffer hash.
    pub fn fingerprint(&self) -> u64 {
        self.fb.content_hash()
    }

    /// Applies the scaled form of one session-geometry command.
    pub fn apply(&mut self, cmd: &DisplayCommand) {
        self.fb.apply(&scale_command(cmd, self.scale));
    }
}

/// A set of virtual outputs fed from one command stream.
#[derive(Default)]
pub struct OutputPool {
    outputs: Vec<VirtualOutput>,
}

impl OutputPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        OutputPool::default()
    }

    /// Registers an output at `scale` seeded from `seed`, unless one
    /// at that exact scale already exists. Scales are compared
    /// structurally (1/2 and 2/4 are distinct outputs).
    pub fn ensure(&mut self, scale: ScaleFactor, seed: &Screenshot) {
        if self.get(scale).is_none() {
            self.outputs.push(VirtualOutput::new(scale, seed));
        }
    }

    /// The output at exactly `scale`, if registered.
    pub fn get(&self, scale: ScaleFactor) -> Option<&VirtualOutput> {
        self.outputs.iter().find(|o| o.scale == scale)
    }
}

impl CommandSink for OutputPool {
    fn submit(&mut self, _ts: Timestamp, cmd: &DisplayCommand) {
        for out in &mut self.outputs {
            out.apply(cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::rgb;
    use crate::rect::Rect;

    fn seed(w: u32, h: u32) -> Screenshot {
        Framebuffer::new(w, h).snapshot()
    }

    #[test]
    fn outputs_take_their_geometry_from_the_scale() {
        let seed = seed(320, 240);
        let half = VirtualOutput::new(ScaleFactor::new(1, 2), &seed);
        assert_eq!(half.size(), (160, 120));
        let up = VirtualOutput::new(ScaleFactor::new(3, 2), &seed);
        assert_eq!(up.size(), (480, 360));
    }

    #[test]
    fn seeding_starts_from_the_current_screen() {
        let mut fb = Framebuffer::new(8, 8);
        fb.apply(&DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 8, 8),
            color: rgb(10, 20, 30),
        });
        let out = VirtualOutput::new(ScaleFactor::ONE, &fb.snapshot());
        assert_eq!(out.fingerprint(), fb.content_hash());
    }

    #[test]
    fn identity_output_tracks_the_session_exactly() {
        let mut fb = Framebuffer::new(16, 16);
        let mut out = VirtualOutput::new(ScaleFactor::ONE, &fb.snapshot());
        let cmds = [
            DisplayCommand::SolidFill {
                rect: Rect::new(1, 2, 5, 4),
                color: rgb(200, 0, 0),
            },
            DisplayCommand::SolidFill {
                rect: Rect::new(4, 4, 8, 8),
                color: rgb(0, 200, 0),
            },
        ];
        for cmd in &cmds {
            fb.apply(cmd);
            out.apply(cmd);
        }
        assert_eq!(out.fingerprint(), fb.content_hash());
    }

    #[test]
    fn scaled_output_matches_a_scaled_command_replay() {
        // The invariant a same-scale remote viewer relies on: applying
        // scale_command(cmd) to a from-scaled-seed framebuffer is
        // exactly what the output does internally.
        let session = seed(20, 10);
        let scale = ScaleFactor::new(1, 2);
        let mut out = VirtualOutput::new(scale, &session);
        let mut viewer = Framebuffer::from_screenshot(&scale_screenshot(&session, scale));
        let cmd = DisplayCommand::SolidFill {
            rect: Rect::new(2, 2, 10, 6),
            color: rgb(9, 9, 9),
        };
        out.apply(&cmd);
        viewer.apply(&scale_command(&cmd, scale));
        assert_eq!(out.fingerprint(), viewer.content_hash());
    }

    #[test]
    fn pool_fans_one_stream_to_every_geometry() {
        let session = seed(32, 32);
        let mut pool = OutputPool::new();
        pool.ensure(ScaleFactor::ONE, &session);
        pool.ensure(ScaleFactor::new(1, 2), &session);
        pool.ensure(ScaleFactor::new(1, 2), &session); // dedup
        assert_eq!(pool.outputs.len(), 2);
        let cmd = DisplayCommand::SolidFill {
            rect: Rect::new(0, 0, 16, 16),
            color: rgb(1, 2, 3),
        };
        pool.submit(Timestamp::from_millis(1), &cmd);
        for out in &pool.outputs {
            let mut fresh = VirtualOutput::new(out.scale, &session);
            fresh.apply(&cmd);
            assert_eq!(out.fingerprint(), fresh.fingerprint());
        }
        assert_ne!(
            pool.get(ScaleFactor::ONE).unwrap().fingerprint(),
            pool.get(ScaleFactor::new(1, 2)).unwrap().fingerprint(),
            "different geometries hash differently"
        );
    }
}
