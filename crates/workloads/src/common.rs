//! Shared scenario infrastructure: a terminal-window helper, word
//! generation, and synthetic data.

use rand::rngs::StdRng;
use rand::Rng;

use dejaview::DejaView;
use dv_access::{AppId, NodeId, Role};
use dv_display::{rgb, Rect};

/// A small vocabulary so captured text is realistic and searchable.
pub const WORDS: &[&str] = &[
    "kernel",
    "driver",
    "module",
    "object",
    "symbol",
    "build",
    "linker",
    "header",
    "source",
    "config",
    "patch",
    "branch",
    "commit",
    "merge",
    "review",
    "paper",
    "draft",
    "figure",
    "table",
    "section",
    "latency",
    "throughput",
    "storage",
    "display",
    "record",
    "index",
    "search",
    "session",
    "checkpoint",
    "snapshot",
    "restore",
    "revive",
    "desktop",
    "window",
    "browser",
    "editor",
    "terminal",
    "archive",
    "compress",
    "extract",
    "buffer",
    "memory",
    "process",
    "thread",
    "signal",
    "socket",
    "network",
    "packet",
    "server",
    "client",
    "virtual",
    "machine",
    "schedule",
    "meeting",
    "deadline",
    "notes",
    "report",
    "inbox",
    "message",
    "reply",
    "forward",
    "attach",
    "download",
    "upload",
    "install",
    "update",
];

/// Returns `n` pseudo-random words joined by spaces.
pub fn words(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Generates `len` bytes with a run/noise mix (compresses partially,
/// like log text).
pub fn loggy_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        if rng.gen_bool(0.5) {
            let run = rng.gen_range(8usize..64).min(len - out.len());
            let b = rng.gen_range(b' '..b'z');
            out.extend(std::iter::repeat_n(b, run));
        } else {
            let n = rng.gen_range(4usize..32).min(len - out.len());
            for _ in 0..n {
                out.push(rng.gen_range(b' '..b'z'));
            }
        }
    }
    out
}

/// Line height used by terminal windows.
pub const LINE_HEIGHT: u32 = 8;

/// A terminal-style application window: registers on the accessibility
/// bus and renders scrolling text lines through the display driver.
pub struct TermWindow {
    /// The owning application on the bus.
    pub app: AppId,
    /// The window node.
    pub window: NodeId,
    /// The terminal output node whose text tracks the last line.
    pub output: NodeId,
    /// On-screen area.
    pub rect: Rect,
    fg: u32,
    bg: u32,
}

impl TermWindow {
    /// Opens a terminal window: registers the application, creates its
    /// accessible window/output nodes, and paints the background.
    pub fn open(dv: &mut DejaView, app_name: &str, title: &str, rect: Rect) -> Self {
        let desktop = dv.desktop_mut();
        let app = desktop.register_app(app_name);
        let root = desktop.root(app).expect("registered");
        let window = desktop.add_node(app, root, Role::Window, title);
        let output = desktop.add_node(app, window, Role::Terminal, "");
        desktop.focus(app);
        let bg = rgb(12, 12, 16);
        dv.driver_mut().fill_rect(rect, bg);
        TermWindow {
            app,
            window,
            output,
            rect,
            fg: rgb(220, 220, 220),
            bg,
        }
    }

    /// Prints one line: scrolls the window contents up and renders the
    /// line at the bottom, and updates the accessible output text.
    pub fn println(&self, dv: &mut DejaView, line: &str) {
        let r = self.rect;
        if r.h > LINE_HEIGHT {
            // Scroll up by one line with a screen-to-screen copy.
            dv.driver_mut().copy_area(
                r.x,
                r.y + LINE_HEIGHT,
                Rect::new(r.x, r.y, r.w, r.h - LINE_HEIGHT),
            );
        }
        let base_y = r.y + r.h - LINE_HEIGHT;
        dv.driver_mut()
            .fill_rect(Rect::new(r.x, base_y, r.w, LINE_HEIGHT), self.bg);
        let max_chars = (r.w / 8) as usize;
        let clipped: String = line.chars().take(max_chars).collect();
        dv.driver_mut()
            .draw_text(r.x, base_y, &clipped, self.fg, self.bg);
        dv.desktop_mut().set_text(self.app, self.output, line);
    }

    /// Prints a burst of lines with a single scroll jump, the way a
    /// terminal repaints under fast output (one copy + n glyph rows).
    pub fn print_lines(&self, dv: &mut DejaView, lines: &[String]) {
        if lines.is_empty() {
            return;
        }
        let r = self.rect;
        let jump = (lines.len() as u32 * LINE_HEIGHT).min(r.h);
        if r.h > jump {
            dv.driver_mut()
                .copy_area(r.x, r.y + jump, Rect::new(r.x, r.y, r.w, r.h - jump));
        }
        dv.driver_mut()
            .fill_rect(Rect::new(r.x, r.y + r.h - jump, r.w, jump), self.bg);
        let max_chars = (r.w / 8) as usize;
        let shown = lines.len().min((r.h / LINE_HEIGHT) as usize);
        for (i, line) in lines[lines.len() - shown..].iter().enumerate() {
            let y = r.y + r.h - jump + i as u32 * LINE_HEIGHT;
            let clipped: String = line.chars().take(max_chars).collect();
            dv.driver_mut()
                .draw_text(r.x, y, &clipped, self.fg, self.bg);
            dv.desktop_mut().set_text(self.app, self.output, line);
        }
    }
}

/// Deterministic corpus sentence `i`: a reproducible mix of vocabulary
/// words plus a unique marker term. Every sentence is distinct (so a
/// capture-time redundancy filter never collapses two of them) while
/// sharing searchable vocabulary across the whole corpus — the shape an
/// index benchmark needs to produce both broad and narrow queries.
pub fn corpus_sentence(i: u64, words_per_sentence: usize) -> String {
    let mut out = String::new();
    let mut x = i
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xA076_1D64_78BD_642F);
    for _ in 0..words_per_sentence {
        // xorshift64: cheap, seedless, identical on every platform.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.push_str(WORDS[(x % WORDS.len() as u64) as usize]);
        out.push(' ');
    }
    out.push_str(&format!("m{i:06}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejaview::Config;
    use rand::SeedableRng;

    #[test]
    fn words_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(words(&mut a, 10), words(&mut b, 10));
    }

    #[test]
    fn loggy_bytes_have_requested_length() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(loggy_bytes(&mut rng, 10_000).len(), 10_000);
    }

    #[test]
    fn term_window_draws_and_captures() {
        let mut dv = DejaView::new(Config {
            width: 320,
            height: 200,
            ..Config::default()
        });
        let term = TermWindow::open(&mut dv, "xterm", "xterm - shell", Rect::new(0, 0, 320, 200));
        term.println(&mut dv, "compiling kernel module");
        term.println(&mut dv, "done");
        // The display saw fills, a copy (scroll) and glyphs.
        let stats = dv.driver_mut().stats();
        assert!(stats.copies >= 1);
        assert!(stats.glyphs >= 2);
        // The index captured the text.
        dv.clock().advance(dv_time::Duration::from_secs(1));
        let index = dv.index();
        let mut guard = index.lock();
        guard.advance_horizon(dv_time::Timestamp::from_secs(1));
        assert_eq!(guard.term_instances("compiling").len(), 1);
    }
}
