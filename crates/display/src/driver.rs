//! The virtual display driver.
//!
//! DejaView interposes at "the standard video driver interface, a
//! well-defined, low-level, device-dependent layer" (§3): instead of
//! driving real hardware, the [`VirtualDisplayDriver`] translates drawing
//! requests into protocol commands, applies them to an authoritative
//! software framebuffer, and duplicates the command stream to any number
//! of attached sinks — the live viewer and the display recorder.
//!
//! The driver also tracks a damage region since it was last sampled; the
//! checkpoint policy uses this to decide whether enough of the screen
//! changed to warrant a checkpoint (§5.1.3).

use std::sync::Arc;

use parking_lot::Mutex;

use dv_obs::{names, Obs};
use dv_time::{SharedClock, Timestamp};

use crate::command::{DisplayCommand, Pixel, YuvFrame};
use crate::font;
use crate::framebuffer::{Framebuffer, Screenshot};
use crate::rect::{Rect, Region};

/// A consumer of the driver's command stream.
///
/// Implemented by the viewer (immediate display) and the display recorder
/// (logging). Commands arrive in generation order with their session
/// timestamps.
pub trait CommandSink: Send {
    /// Delivers one command generated at session time `ts`.
    fn submit(&mut self, ts: Timestamp, cmd: &DisplayCommand);
}

/// A shared, lockable sink handle so the server can keep using a sink
/// (e.g. the recorder) after attaching it to the driver.
pub type SharedSink = Arc<Mutex<dyn CommandSink>>;

/// Commands generated since creation, by kind. Their number and wire
/// bytes are the `display.driver_*` counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Raw pixel update commands.
    pub raw: u64,
    /// Screen-to-screen copies.
    pub copies: u64,
    /// Solid and pattern fills.
    pub fills: u64,
    /// Glyph (text) commands.
    pub glyphs: u64,
    /// Video frames.
    pub video_frames: u64,
}

/// The virtual display driver.
pub struct VirtualDisplayDriver {
    clock: SharedClock,
    fb: Framebuffer,
    sinks: Vec<SharedSink>,
    damage: Region,
    stats: DriverStats,
    obs: Obs,
}

impl VirtualDisplayDriver {
    /// Creates a driver for a `width` x `height` virtual screen.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32, clock: SharedClock) -> Self {
        VirtualDisplayDriver {
            clock,
            fb: Framebuffer::new(width, height),
            sinks: Vec::new(),
            damage: Region::new(),
            stats: DriverStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Installs the observability handle: command generation is counted
    /// into the `display.driver_*` metrics. Kept to two counter bumps so
    /// the per-command hot path stays at its wire cost.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Attaches a sink; it receives every subsequent command.
    pub fn attach_sink(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }

    /// Returns the screen width in pixels.
    pub fn width(&self) -> u32 {
        self.fb.width()
    }

    /// Returns the screen height in pixels.
    pub fn height(&self) -> u32 {
        self.fb.height()
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Returns the authoritative framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Takes a full-screen snapshot of the current display.
    pub fn snapshot(&self) -> Screenshot {
        self.fb.snapshot()
    }

    /// Returns and resets the damage accumulated since the last call.
    ///
    /// The checkpoint policy samples this once per evaluation interval.
    pub fn take_damage(&mut self) -> Region {
        std::mem::take(&mut self.damage)
    }

    /// Fills a rectangle with a solid color.
    pub fn fill_rect(&mut self, rect: Rect, color: Pixel) {
        self.submit(DisplayCommand::SolidFill { rect, color });
    }

    /// Puts raw pixel data on the screen.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != rect.area()`.
    pub fn put_image(&mut self, rect: Rect, pixels: Vec<Pixel>) {
        assert_eq!(
            pixels.len() as u64,
            rect.area(),
            "raw payload must match its rectangle"
        );
        self.submit(DisplayCommand::Raw {
            rect,
            pixels: Arc::new(pixels),
        });
    }

    /// Copies `rect`-sized screen contents from `(src_x, src_y)`.
    pub fn copy_area(&mut self, src_x: u32, src_y: u32, rect: Rect) {
        self.submit(DisplayCommand::CopyArea { src_x, src_y, rect });
    }

    /// Renders one line of text at `(x, y)` using the built-in font and
    /// returns the rectangle it covered.
    pub fn draw_text(&mut self, x: u32, y: u32, text: &str, fg: Pixel, bg: Pixel) -> Rect {
        let (bits, w, h) = font::render_line(text);
        if w == 0 {
            return Rect::default();
        }
        let rect = Rect::new(x, y, w, h);
        self.submit(DisplayCommand::Glyph {
            rect,
            bits: Arc::new(bits),
            fg,
            bg,
        });
        rect
    }

    /// Displays a video frame scaled into `rect`.
    pub fn video_frame(&mut self, rect: Rect, frame: YuvFrame) {
        self.submit(DisplayCommand::Video {
            rect,
            frame: Arc::new(frame),
        });
    }

    /// Applies a pre-built command: updates the framebuffer, damage
    /// tracking and counts, then fans it out to all sinks.
    pub fn submit(&mut self, cmd: DisplayCommand) {
        // A frame without pixels shows nothing, and the codec refuses to
        // decode one: it must not reach the sinks that encode what they
        // are given (the record, the wire).
        if matches!(&cmd, DisplayCommand::Video { frame, .. } if frame.is_empty()) {
            return;
        }
        let ts = self.clock.now();
        self.fb.apply(&cmd);
        self.damage
            .add(cmd.rect().intersect(&self.fb.screen_rect()));
        self.obs.incr(names::DISPLAY_DRIVER_COMMANDS);
        self.obs
            .add(names::DISPLAY_DRIVER_BYTES, cmd.wire_size() as u64);
        match &cmd {
            DisplayCommand::Raw { .. } => self.stats.raw += 1,
            DisplayCommand::CopyArea { .. } => self.stats.copies += 1,
            DisplayCommand::SolidFill { .. } | DisplayCommand::PatternFill { .. } => {
                self.stats.fills += 1
            }
            DisplayCommand::Glyph { .. } => self.stats.glyphs += 1,
            DisplayCommand::Video { .. } => self.stats.video_frames += 1,
        }
        for sink in &self.sinks {
            sink.lock().submit(ts, &cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_time::SimClock;

    type Log = Arc<Mutex<Vec<(Timestamp, DisplayCommand)>>>;

    struct Collector {
        cmds: Log,
    }

    impl CommandSink for Collector {
        fn submit(&mut self, ts: Timestamp, cmd: &DisplayCommand) {
            self.cmds.lock().push((ts, cmd.clone()));
        }
    }

    fn driver_with_sink() -> (VirtualDisplayDriver, Log, SimClock) {
        let clock = SimClock::new();
        let mut driver = VirtualDisplayDriver::new(64, 64, clock.shared());
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let sink: SharedSink = Arc::new(Mutex::new(Collector { cmds: log.clone() }));
        driver.attach_sink(sink);
        (driver, log, clock)
    }

    /// Installs a registry on `driver` and returns it.
    fn counted(driver: &mut VirtualDisplayDriver) -> Obs {
        let obs = Obs::sim();
        driver.set_obs(obs.clone());
        obs
    }

    #[test]
    fn video_frame_without_pixels_reaches_no_sink() {
        let (mut driver, log, _clock) = driver_with_sink();
        let obs = counted(&mut driver);
        driver.video_frame(Rect::new(0, 0, 8, 8), YuvFrame::from_luma(0, 3, Vec::new()));
        assert!(log.lock().is_empty());
        assert_eq!(obs.counter(names::DISPLAY_DRIVER_COMMANDS), 0);
    }

    #[test]
    fn commands_fan_out_with_timestamps() {
        let (mut driver, log, clock) = driver_with_sink();
        driver.fill_rect(Rect::new(0, 0, 4, 4), 1);
        clock.advance(dv_time::Duration::from_millis(10));
        driver.fill_rect(Rect::new(4, 4, 4, 4), 2);
        let cmds = log.lock();
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].0, Timestamp::ZERO);
        assert_eq!(cmds[1].0, Timestamp::from_millis(10));
    }

    #[test]
    fn framebuffer_tracks_draws() {
        let (mut driver, _sink, _clock) = driver_with_sink();
        driver.fill_rect(Rect::new(1, 1, 2, 2), 42);
        assert_eq!(driver.framebuffer().pixel(1, 1), 42);
        assert_eq!(driver.framebuffer().pixel(0, 0), 0);
    }

    #[test]
    fn damage_accumulates_and_resets() {
        let (mut driver, _sink, _clock) = driver_with_sink();
        driver.fill_rect(Rect::new(0, 0, 8, 8), 1);
        driver.fill_rect(Rect::new(0, 0, 8, 8), 2);
        let damage = driver.take_damage();
        assert_eq!(damage.area(), 64, "overlapping damage counted once");
        assert_eq!(driver.take_damage().area(), 0);
    }

    #[test]
    fn damage_clamped_to_screen() {
        let (mut driver, _sink, _clock) = driver_with_sink();
        driver.fill_rect(Rect::new(60, 60, 10, 10), 1);
        assert_eq!(driver.take_damage().area(), 16);
    }

    #[test]
    fn draw_text_emits_glyphs() {
        let (mut driver, _sink, _clock) = driver_with_sink();
        let rect = driver.draw_text(4, 4, "hi", 0xFFFFFF, 0);
        assert_eq!(rect, Rect::new(4, 4, 16, 8));
        assert_eq!(driver.stats().glyphs, 1);
    }

    #[test]
    fn stats_count_kinds_and_bytes() {
        let (mut driver, _sink, _clock) = driver_with_sink();
        let obs = counted(&mut driver);
        driver.fill_rect(Rect::new(0, 0, 2, 2), 1);
        driver.put_image(Rect::new(0, 0, 2, 2), vec![1, 2, 3, 4]);
        driver.copy_area(0, 0, Rect::new(5, 5, 2, 2));
        let stats = driver.stats();
        assert_eq!(obs.counter(names::DISPLAY_DRIVER_COMMANDS), 3);
        assert_eq!(stats.fills, 1);
        assert_eq!(stats.raw, 1);
        assert_eq!(stats.copies, 1);
        assert!(obs.counter(names::DISPLAY_DRIVER_BYTES) > 0);
    }

    #[test]
    #[should_panic(expected = "raw payload")]
    fn put_image_validates_payload() {
        let (mut driver, _sink, _clock) = driver_with_sink();
        driver.put_image(Rect::new(0, 0, 2, 2), vec![1]);
    }
}
