//! The stateless client viewer.
//!
//! "All persistent display state is maintained by the display server;
//! clients are simple and stateless" (§3). The [`Viewer`] applies the
//! command stream to a local framebuffer for display and forwards user
//! input back toward the server. A viewer can be attached to the live
//! session, to a playback stream, or to a revived session — DejaView
//! opens one viewer window per session, like browser tabs (§2).

use dv_time::Timestamp;

use crate::command::DisplayCommand;
use crate::driver::CommandSink;
use crate::framebuffer::{Framebuffer, Screenshot};

/// A user input event forwarded from the viewer to the server.
///
/// Per the paper's privacy stance, input is *not* recorded — "only the
/// changes it effects on the display are kept" (§2) — but the checkpoint
/// policy observes whether keyboard input happened, and the annotation
/// mechanism reacts to a key combination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InputEvent {
    /// A key press of a printable character, with modifier state.
    Key {
        /// The character produced.
        ch: char,
        /// Whether Ctrl was held.
        ctrl: bool,
        /// Whether Alt was held.
        alt: bool,
    },
    /// Pointer motion to absolute screen coordinates.
    MouseMove {
        /// X coordinate.
        x: u32,
        /// Y coordinate.
        y: u32,
    },
    /// A mouse button transition at the given position.
    MouseButton {
        /// X coordinate.
        x: u32,
        /// Y coordinate.
        y: u32,
        /// Button index (0 = left).
        button: u8,
        /// `true` on press, `false` on release.
        pressed: bool,
    },
}

impl InputEvent {
    /// Returns whether this is keyboard input (the signal the checkpoint
    /// policy's text-editing rule watches).
    pub fn is_keyboard(&self) -> bool {
        matches!(self, InputEvent::Key { .. })
    }
}

/// Cumulative viewer statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewerStats {
    /// Commands applied.
    pub commands: u64,
    /// Wire bytes received.
    pub bytes: u64,
    /// Input events queued for the server.
    pub inputs: u64,
}

/// A stateless display client.
pub struct Viewer {
    fb: Framebuffer,
    stats: ViewerStats,
    pending_input: Vec<InputEvent>,
    last_command_at: Option<Timestamp>,
}

impl Viewer {
    /// Creates a viewer with a local `width` x `height` framebuffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        Viewer::with(Framebuffer::new(width, height))
    }

    /// Creates a viewer showing `shot`, sharing its pixels until the
    /// first command lands.
    pub fn from_screenshot(shot: &Screenshot) -> Self {
        Viewer::with(Framebuffer::from_screenshot(shot))
    }

    fn with(fb: Framebuffer) -> Self {
        Viewer {
            fb,
            stats: ViewerStats::default(),
            pending_input: Vec::new(),
            last_command_at: None,
        }
    }

    /// Returns what the viewer currently displays.
    pub fn screenshot(&self) -> Screenshot {
        self.fb.snapshot()
    }

    /// Returns the local framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> ViewerStats {
        self.stats
    }

    /// Returns the session time of the most recent command.
    pub fn last_command_at(&self) -> Option<Timestamp> {
        self.last_command_at
    }

    /// Queues a user input event for the server to collect.
    pub fn send_input(&mut self, event: InputEvent) {
        self.stats.inputs += 1;
        self.pending_input.push(event);
    }

    /// Drains queued input events; called by the server's input path.
    pub fn take_input(&mut self) -> Vec<InputEvent> {
        std::mem::take(&mut self.pending_input)
    }
}

impl CommandSink for Viewer {
    fn submit(&mut self, ts: Timestamp, cmd: &DisplayCommand) {
        self.fb.apply(cmd);
        self.stats.commands += 1;
        self.stats.bytes += cmd.wire_size() as u64;
        self.last_command_at = Some(ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    #[test]
    fn viewer_mirrors_command_stream() {
        let mut viewer = Viewer::new(32, 32);
        viewer.submit(
            Timestamp::from_millis(5),
            &DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 4, 4),
                color: 3,
            },
        );
        assert_eq!(viewer.framebuffer().pixel(2, 2), 3);
        assert_eq!(viewer.stats().commands, 1);
        assert_eq!(viewer.last_command_at(), Some(Timestamp::from_millis(5)));
    }

    #[test]
    fn input_queue_drains() {
        let mut viewer = Viewer::new(8, 8);
        viewer.send_input(InputEvent::Key {
            ch: 'a',
            ctrl: false,
            alt: false,
        });
        viewer.send_input(InputEvent::MouseMove { x: 1, y: 2 });
        let events = viewer.take_input();
        assert_eq!(events.len(), 2);
        assert!(events[0].is_keyboard());
        assert!(!events[1].is_keyboard());
        assert!(viewer.take_input().is_empty());
    }

    #[test]
    fn a_viewer_opened_on_a_screenshot_shares_its_pixels() {
        let mut a = Viewer::new(8, 8);
        a.submit(
            Timestamp::ZERO,
            &DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 4, 4),
                color: 5,
            },
        );
        let shot = a.screenshot();
        let mut b = Viewer::from_screenshot(&shot);
        assert!(std::sync::Arc::ptr_eq(&b.screenshot().pixels, &shot.pixels));
        b.submit(
            Timestamp::ZERO,
            &DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 8, 8),
                color: 1,
            },
        );
        assert_eq!(b.framebuffer().pixel(0, 0), 1);
        assert_eq!(shot.pixels[0], 5, "the screenshot is left as it was");
    }
}
