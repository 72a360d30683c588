//! The viewer wire protocol.
//!
//! "By allowing display output to be redirected anywhere, this approach
//! also enables the desktop to be accessed both locally and remotely"
//! (§3). The same command encoding used for the on-disk record carries
//! the live stream to remote viewers: a [`StreamEncoder`] is a
//! [`CommandSink`] that frames commands into a byte channel, and a
//! [`RemoteViewer`] consumes bytes — in arbitrary chunks, as a network
//! would deliver them — and drives a stateless [`Viewer`].

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use dv_time::Timestamp;

use crate::codec::{decode_command, encode_command, CodecError, HEADER_LEN};
use crate::command::DisplayCommand;
use crate::driver::CommandSink;
use crate::viewer::{InputEvent, Viewer};

/// Error returned by [`ByteChannel::recv_into`] once the peer has
/// closed the channel and every buffered byte has been drained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChannelClosed;

impl std::fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte channel closed by peer")
    }
}

impl std::error::Error for ChannelClosed {}

#[derive(Default)]
struct ChannelState {
    queue: VecDeque<u8>,
    closed: bool,
}

/// A byte channel between server and viewer (a TCP socket stand-in).
///
/// The channel has explicit lifecycle semantics: after
/// [`close`](ByteChannel::close), buffered bytes still drain, but
/// [`recv_into`](ByteChannel::recv_into) on an empty closed channel
/// reports [`ChannelClosed`] instead of an empty read — so a consumer
/// can distinguish "no bytes yet" from "peer gone". Bytes sent after
/// close are discarded.
#[derive(Clone, Default)]
pub struct ByteChannel {
    inner: Arc<Mutex<ChannelState>>,
}

impl ByteChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        ByteChannel::default()
    }

    /// Appends bytes to the channel. Bytes sent after
    /// [`close`](ByteChannel::close) are dropped, mirroring a write to a
    /// half-closed socket; returns how many bytes were accepted.
    pub fn send(&self, bytes: &[u8]) -> usize {
        let mut state = self.inner.lock();
        if state.closed {
            return 0;
        }
        state.queue.extend(bytes);
        bytes.len()
    }

    /// Moves up to `buf.len()` buffered bytes to the front of `buf` and
    /// returns how many, or [`ChannelClosed`] once the channel is closed
    /// *and* fully drained. `Ok(0)` means "no bytes yet, try again".
    pub fn recv_into(&self, buf: &mut [u8]) -> Result<usize, ChannelClosed> {
        let mut state = self.inner.lock();
        if state.queue.is_empty() {
            return if state.closed {
                Err(ChannelClosed)
            } else {
                Ok(0)
            };
        }
        let take = buf.len().min(state.queue.len());
        // The ring's contents are at most two runs: copy each whole.
        let (head, tail) = state.queue.as_slices();
        let from_head = take.min(head.len());
        buf[..from_head].copy_from_slice(&head[..from_head]);
        buf[from_head..take].copy_from_slice(&tail[..take - from_head]);
        state.queue.drain(..take);
        Ok(take)
    }

    /// Closes the channel: no further bytes are accepted, and readers
    /// see EOF once the buffer drains.
    pub fn close(&self) {
        self.inner.lock().closed = true;
    }

    /// Returns whether the channel has been closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Returns the number of buffered bytes.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Returns whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }
}

/// A [`CommandSink`] that frames the command stream onto a byte channel:
/// `[time u64 LE][encoded command]` per event, the record format reused
/// as the wire format.
pub struct StreamEncoder {
    channel: ByteChannel,
    sent: u64,
}

impl StreamEncoder {
    /// Creates an encoder writing to `channel`.
    pub fn new(channel: ByteChannel) -> Self {
        StreamEncoder { channel, sent: 0 }
    }

    /// Returns how many commands have been sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl CommandSink for StreamEncoder {
    fn submit(&mut self, ts: Timestamp, cmd: &DisplayCommand) {
        let mut frame = Vec::with_capacity(8 + cmd.wire_size());
        frame.extend_from_slice(&ts.as_nanos().to_le_bytes());
        encode_command(cmd, &mut frame);
        self.channel.send(&frame);
        self.sent += 1;
    }
}

/// A remote viewer: buffers incoming bytes, decodes complete frames, and
/// applies them to its local framebuffer.
pub struct RemoteViewer {
    /// The stateless viewer being driven.
    pub viewer: Viewer,
    buffer: Vec<u8>,
    received: u64,
}

impl RemoteViewer {
    /// Creates a remote viewer with a `width` x `height` framebuffer.
    pub fn new(width: u32, height: u32) -> Self {
        RemoteViewer {
            viewer: Viewer::new(width, height),
            buffer: Vec::new(),
            received: 0,
        }
    }

    /// Returns how many commands have been applied.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Feeds a chunk of bytes (any framing the transport produced) and
    /// applies every complete command it completes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is corrupt; the viewer
    /// should disconnect.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<usize, CodecError> {
        self.buffer.extend_from_slice(bytes);
        let mut applied = 0;
        // Consumed bytes leave the buffer once, after the loop: a burst
        // of small commands must not shift the rest down per command.
        let mut consumed = 0;
        let outcome = loop {
            let pending = &self.buffer[consumed..];
            if pending.len() < 8 + HEADER_LEN {
                break Ok(());
            }
            let ts = Timestamp::from_nanos(u64::from_le_bytes(
                pending[..8].try_into().expect("8 bytes"),
            ));
            let mut slice = &pending[8..];
            let before = slice.len();
            match decode_command(&mut slice) {
                Ok(cmd) => {
                    consumed += 8 + (before - slice.len());
                    self.viewer.submit(ts, &cmd);
                    self.received += 1;
                    applied += 1;
                }
                Err(CodecError::UnexpectedEof) => break Ok(()), // Partial frame.
                Err(e) => break Err(e),
            }
        };
        self.buffer.drain(..consumed);
        outcome.map(|()| applied)
    }

    /// Pumps all currently available bytes from a channel.
    ///
    /// # Errors
    ///
    /// Propagates stream corruption.
    pub fn pump(&mut self, channel: &ByteChannel) -> Result<usize, CodecError> {
        Ok(self.poll(channel)?.applied)
    }

    /// Pumps all currently available bytes from a channel, reporting
    /// whether the peer is gone. Unlike [`pump`](RemoteViewer::pump),
    /// which cannot distinguish "no bytes yet" from a closed channel,
    /// `poll` surfaces EOF so a viewer loop can stop instead of
    /// spinning on empty reads.
    ///
    /// # Errors
    ///
    /// Propagates stream corruption.
    pub fn poll(&mut self, channel: &ByteChannel) -> Result<PumpStatus, CodecError> {
        let mut applied = 0;
        let mut chunk = [0u8; 1400]; // MTU-ish chunks.
        loop {
            match channel.recv_into(&mut chunk) {
                Ok(0) => {
                    return Ok(PumpStatus {
                        applied,
                        eof: false,
                    })
                }
                Ok(n) => applied += self.feed(&chunk[..n])?,
                Err(ChannelClosed) => return Ok(PumpStatus { applied, eof: true }),
            }
        }
    }
}

/// What one [`RemoteViewer::poll`] pass over a channel produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PumpStatus {
    /// Complete commands applied during this pass.
    pub applied: usize,
    /// Whether the channel reported EOF (peer gone, buffer drained).
    pub eof: bool,
}

/// Encodes one input event for the viewer-to-server direction of the
/// wire (input is forwarded, never recorded — §2).
pub fn encode_input(event: &InputEvent, out: &mut Vec<u8>) {
    match event {
        InputEvent::Key { ch, ctrl, alt } => {
            out.push(1);
            out.extend_from_slice(&(*ch as u32).to_le_bytes());
            out.push(*ctrl as u8);
            out.push(*alt as u8);
        }
        InputEvent::MouseMove { x, y } => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
            out.extend_from_slice(&y.to_le_bytes());
        }
        InputEvent::MouseButton {
            x,
            y,
            button,
            pressed,
        } => {
            out.push(3);
            out.extend_from_slice(&x.to_le_bytes());
            out.extend_from_slice(&y.to_le_bytes());
            out.push(*button);
            out.push(*pressed as u8);
        }
    }
}

/// Decodes one input event from the front of `buf`, advancing it.
/// Returns `Ok(None)` when the buffer holds only a partial frame.
pub fn decode_input(buf: &mut &[u8]) -> Result<Option<InputEvent>, CodecError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let tag = buf[0];
    let event = match tag {
        1 => {
            if buf.len() < 7 {
                return Ok(None);
            }
            let code = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes"));
            let ch = char::from_u32(code).ok_or(CodecError::BadPayload("invalid char"))?;
            let event = InputEvent::Key {
                ch,
                ctrl: buf[5] != 0,
                alt: buf[6] != 0,
            };
            *buf = &buf[7..];
            event
        }
        2 => {
            if buf.len() < 9 {
                return Ok(None);
            }
            let event = InputEvent::MouseMove {
                x: u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")),
                y: u32::from_le_bytes(buf[5..9].try_into().expect("4 bytes")),
            };
            *buf = &buf[9..];
            event
        }
        3 => {
            if buf.len() < 11 {
                return Ok(None);
            }
            let event = InputEvent::MouseButton {
                x: u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")),
                y: u32::from_le_bytes(buf[5..9].try_into().expect("4 bytes")),
                button: buf[9],
                pressed: buf[10] != 0,
            };
            *buf = &buf[11..];
            event
        }
        other => return Err(CodecError::BadTag(other)),
    };
    Ok(Some(event))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::VirtualDisplayDriver;
    use crate::rect::Rect;
    use dv_time::SimClock;

    #[test]
    fn remote_viewer_mirrors_driver_exactly() {
        let clock = SimClock::new();
        let mut driver = VirtualDisplayDriver::new(64, 64, clock.shared());
        let channel = ByteChannel::new();
        driver.attach_sink(Arc::new(Mutex::new(StreamEncoder::new(channel.clone()))));

        driver.fill_rect(Rect::new(0, 0, 64, 64), 0x223344);
        driver.draw_text(4, 4, "remote desktop", 0xFFFFFF, 0);
        driver.copy_area(0, 0, Rect::new(32, 32, 16, 16));

        let mut remote = RemoteViewer::new(64, 64);
        let applied = remote.pump(&channel).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(
            remote.viewer.screenshot().content_hash(),
            driver.snapshot().content_hash()
        );
        assert!(channel.is_empty());
    }

    #[test]
    fn fragmented_delivery_reassembles() {
        let clock = SimClock::new();
        let mut driver = VirtualDisplayDriver::new(32, 32, clock.shared());
        let channel = ByteChannel::new();
        driver.attach_sink(Arc::new(Mutex::new(StreamEncoder::new(channel.clone()))));
        for i in 0..10u32 {
            driver.fill_rect(Rect::new(i, 0, 1, 32), i + 1);
        }
        // Deliver one byte at a time: worst-case fragmentation.
        let mut remote = RemoteViewer::new(32, 32);
        let mut byte = [0u8; 1];
        while channel.recv_into(&mut byte) == Ok(1) {
            remote.feed(&byte).unwrap();
        }
        assert_eq!(remote.received(), 10);
        assert_eq!(
            remote.viewer.screenshot().content_hash(),
            driver.snapshot().content_hash()
        );
    }

    #[test]
    fn corrupt_stream_is_detected() {
        let channel = ByteChannel::new();
        let mut encoder = StreamEncoder::new(channel.clone());
        encoder.submit(
            Timestamp::ZERO,
            &DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 4, 4),
                color: 1,
            },
        );
        let mut bytes = vec![0u8; channel.len()];
        assert_eq!(channel.recv_into(&mut bytes), Ok(bytes.len()));
        bytes[8] = 99; // Clobber the command tag.
        let mut remote = RemoteViewer::new(8, 8);
        assert!(remote.feed(&bytes).is_err());
    }

    #[test]
    fn input_events_round_trip_the_wire() {
        let events = [
            InputEvent::Key {
                ch: 'ф',
                ctrl: true,
                alt: false,
            },
            InputEvent::MouseMove { x: 800, y: 600 },
            InputEvent::MouseButton {
                x: 10,
                y: 20,
                button: 2,
                pressed: true,
            },
        ];
        let mut wire = Vec::new();
        for event in &events {
            encode_input(event, &mut wire);
        }
        let mut slice = wire.as_slice();
        let mut decoded = Vec::new();
        while let Some(event) = decode_input(&mut slice).unwrap() {
            decoded.push(event);
        }
        assert_eq!(decoded, events);
        // Partial frames wait for more bytes; bad tags error.
        let mut partial = &wire[..3];
        assert_eq!(decode_input(&mut partial).unwrap(), None);
        let bad = [9u8, 0, 0];
        let mut bad_slice = &bad[..];
        assert!(decode_input(&mut bad_slice).is_err());
    }

    #[test]
    fn closed_channel_drains_then_reports_eof() {
        let channel = ByteChannel::new();
        let mut encoder = StreamEncoder::new(channel.clone());
        encoder.submit(
            Timestamp::ZERO,
            &DisplayCommand::SolidFill {
                rect: Rect::new(0, 0, 4, 4),
                color: 7,
            },
        );
        let mut remote = RemoteViewer::new(8, 8);
        // Open and empty: "no bytes yet".
        let pumped = remote.poll(&channel).unwrap();
        assert_eq!(
            pumped,
            PumpStatus {
                applied: 1,
                eof: false
            }
        );
        channel.close();
        // Writes after close are discarded.
        assert_eq!(channel.send(&[1, 2, 3]), 0);
        assert!(channel.is_closed());
        // Closed and drained: EOF, not an empty read.
        assert_eq!(channel.recv_into(&mut [0u8; 16]), Err(ChannelClosed));
        let pumped = remote.poll(&channel).unwrap();
        assert_eq!(
            pumped,
            PumpStatus {
                applied: 0,
                eof: true
            }
        );
    }

    /// A read that spans the ring's wrap point takes both runs, in
    /// order, across any interleaving of writes and partial reads.
    #[test]
    fn recv_into_spans_the_ring_wrap() {
        let channel = ByteChannel::new();
        let mut sent = 0u32;
        let mut received = 0u32;
        let mut wrapped_reads = 0;
        let mut buf = [0u8; 64];
        // Writes outpace reads a little, so the ring's head walks
        // around its buffer while the contents stay short of a regrow.
        for round in 0..400usize {
            let burst: Vec<u8> = (0..17 + round % 23)
                .map(|_| {
                    sent += 1;
                    sent as u8
                })
                .collect();
            assert_eq!(channel.send(&burst), burst.len());
            let wrapped = !channel.inner.lock().queue.as_slices().1.is_empty();
            let want = 13 + round % 29;
            let got = channel.recv_into(&mut buf[..want]).unwrap();
            assert_eq!(got, want.min((sent - received) as usize));
            wrapped_reads += usize::from(wrapped && got > 0);
            for &byte in &buf[..got] {
                received += 1;
                assert_eq!(byte, received as u8, "byte {received} out of order");
            }
        }
        assert!(wrapped_reads > 0, "no read ever met a wrapped ring");
        // The rest drains in order, then the channel is merely empty.
        while let Ok(got @ 1..) = channel.recv_into(&mut buf) {
            for &byte in &buf[..got] {
                received += 1;
                assert_eq!(byte, received as u8);
            }
        }
        assert_eq!(received, sent);
        assert_eq!(channel.recv_into(&mut buf), Ok(0));
    }

    #[test]
    fn recv_into_reports_close_only_once_drained() {
        let channel = ByteChannel::new();
        channel.send(b"last words");
        channel.close();
        let mut buf = [0u8; 4];
        // A zero-length read of a channel with bytes left is not EOF.
        assert_eq!(channel.recv_into(&mut []), Ok(0));
        let mut drained = Vec::new();
        while let Ok(got) = channel.recv_into(&mut buf) {
            drained.extend_from_slice(&buf[..got]);
        }
        assert_eq!(drained, b"last words");
        assert_eq!(channel.recv_into(&mut buf), Err(ChannelClosed));
        assert_eq!(channel.recv_into(&mut []), Err(ChannelClosed));
    }

    /// A burst of commands in one `feed` is consumed in one pass; what
    /// precedes a corrupt command is applied and leaves the buffer.
    #[test]
    fn feed_applies_a_burst_up_to_a_corrupt_command() {
        let channel = ByteChannel::new();
        let mut encoder = StreamEncoder::new(channel.clone());
        for i in 0..3u32 {
            encoder.submit(
                Timestamp::ZERO,
                &DisplayCommand::SolidFill {
                    rect: Rect::new(i, 0, 1, 1),
                    color: i + 1,
                },
            );
        }
        let mut bytes = vec![0u8; channel.len()];
        assert_eq!(channel.recv_into(&mut bytes), Ok(bytes.len()));
        let one = bytes.len() / 3;
        bytes[2 * one + 8] = 99; // Clobber the third command's tag.
        let mut remote = RemoteViewer::new(8, 8);
        assert_eq!(remote.feed(&bytes), Err(CodecError::BadTag(99)));
        assert_eq!(remote.received(), 2);
        assert_eq!(
            remote.buffer.len(),
            one,
            "the applied commands left the buffer"
        );
        assert_eq!(remote.viewer.screenshot().pixels[..3], [1, 2, 0]);
    }

    #[test]
    fn close_with_buffered_bytes_still_delivers_them() {
        let channel = ByteChannel::new();
        let mut encoder = StreamEncoder::new(channel.clone());
        for i in 0..4u32 {
            encoder.submit(
                Timestamp::ZERO,
                &DisplayCommand::SolidFill {
                    rect: Rect::new(i, 0, 1, 1),
                    color: i,
                },
            );
        }
        channel.close();
        let mut remote = RemoteViewer::new(8, 8);
        let pumped = remote.poll(&channel).unwrap();
        assert_eq!(
            pumped,
            PumpStatus {
                applied: 4,
                eof: true
            }
        );
    }

    #[test]
    fn multiple_viewers_share_one_session() {
        // The same session can be viewed locally and remotely at once.
        let clock = SimClock::new();
        let mut driver = VirtualDisplayDriver::new(16, 16, clock.shared());
        let local = Arc::new(Mutex::new(Viewer::new(16, 16)));
        let channel = ByteChannel::new();
        driver.attach_sink(local.clone());
        driver.attach_sink(Arc::new(Mutex::new(StreamEncoder::new(channel.clone()))));
        driver.fill_rect(Rect::new(2, 2, 8, 8), 5);
        let mut remote = RemoteViewer::new(16, 16);
        remote.pump(&channel).unwrap();
        let expected = driver.snapshot().content_hash();
        assert_eq!(local.lock().screenshot().content_hash(), expected);
        assert_eq!(remote.viewer.screenshot().content_hash(), expected);
    }
}
