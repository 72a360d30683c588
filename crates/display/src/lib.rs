//! THINC-like virtual display for DejaView.
//!
//! This crate is the display substrate of the DejaView reproduction
//! (paper §3 and §4): a display protocol command set, a software
//! framebuffer they apply to and the scroll ring a replay writes
//! through, a virtual display driver that intercepts drawing at the
//! video-driver interface and fans commands out to viewer and recorder
//! sinks, command queueing/merging and the coverage pass a seek uses to
//! skip what it repaints, resolution scaling and the headless outputs
//! built on it, a wire codec, and the input events a viewer sends back.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dv_display::{OutputPool, Rect, ScaleFactor, VirtualDisplayDriver};
//! use dv_time::SimClock;
//! use parking_lot::Mutex;
//!
//! let clock = SimClock::new();
//! let mut driver = VirtualDisplayDriver::new(640, 480, clock.shared());
//! // A headless screen at the session's own size, and one at half.
//! let half = ScaleFactor::new(1, 2);
//! let outputs = Arc::new(Mutex::new(OutputPool::new()));
//! outputs.lock().ensure(ScaleFactor::ONE, &driver.snapshot());
//! outputs.lock().ensure(half, &driver.snapshot());
//! driver.attach_sink(outputs.clone());
//!
//! driver.fill_rect(Rect::new(0, 0, 640, 480), dv_display::rgb(32, 32, 32));
//! driver.draw_text(10, 10, "hello dejaview", 0xFFFFFF, 0);
//!
//! // The identity output mirrors the server's screen exactly.
//! let pool = outputs.lock();
//! assert_eq!(
//!     pool.get(ScaleFactor::ONE).unwrap().fingerprint(),
//!     driver.snapshot().content_hash(),
//! );
//! assert_eq!(pool.get(half).unwrap().size(), (320, 240));
//! ```

#![deny(unsafe_code)]

pub mod codec;
pub mod command;
pub mod coverage;
pub mod driver;
pub mod font;
pub mod framebuffer;
pub mod output;
pub mod queue;
pub mod rect;
pub mod scale;
pub mod viewer;
pub mod wire;

pub use codec::{
    decode_command, decode_pixels, encode_command, encode_command_vec, encode_pixels, peek_command,
    CodecError, HEADER_LEN,
};
pub use command::{rgb, CommandMeta, DisplayCommand, Pattern, Pixel, YuvFrame};
pub use coverage::CoveragePass;
pub use driver::{CommandSink, DriverStats, SharedSink, VirtualDisplayDriver};
pub use framebuffer::{Framebuffer, RingRows, Screenshot, ScrollRing, Span};
pub use output::{OutputPool, VirtualOutput};
pub use queue::{CommandQueue, OverwritePass, QueuedCommand};
pub use rect::{Rect, Region};
pub use scale::{resample_screenshot, scale_command, scale_screenshot, ScaleFactor};
pub use viewer::InputEvent;
pub use wire::{decode_input, encode_input, ByteChannel, ChannelClosed};
