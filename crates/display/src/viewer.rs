//! What a viewer sends back: user input.
//!
//! "All persistent display state is maintained by the display server;
//! clients are simple and stateless" (§3). A viewer applies the
//! command stream to a framebuffer of its own — dv-net's `NetClient`
//! over the wire, a [`VirtualOutput`](crate::output::VirtualOutput)
//! headless — and forwards user input toward the server as
//! [`InputEvent`]s.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_key_is_keyboard_input() {
        let key = InputEvent::Key {
            ch: 'a',
            ctrl: false,
            alt: false,
        };
        assert!(key.is_keyboard());
        assert!(!InputEvent::MouseMove { x: 1, y: 2 }.is_keyboard());
        let click = InputEvent::MouseButton {
            x: 1,
            y: 2,
            button: 0,
            pressed: true,
        };
        assert!(!click.is_keyboard());
    }
}
