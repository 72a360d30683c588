//! The viewer wire protocol.
//!
//! "By allowing display output to be redirected anywhere, this approach
//! also enables the desktop to be accessed both locally and remotely"
//! (§3). The same command encoding used for the on-disk record carries
//! the live stream to remote viewers. This module holds the two pieces
//! of that wire the remote-access service (dv-net) is built on: the
//! [`ByteChannel`] its loopback transport moves bytes through, and the
//! codec for the viewer-to-server direction ([`encode_input`] /
//! [`decode_input`]).

use std::collections::VecDeque;
use std::sync::Arc;

use dv_fault::Reader;
use parking_lot::Mutex;

use crate::codec::CodecError;
use crate::viewer::InputEvent;

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

    /// Returns whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }
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
    let mut r = Reader::new(buf);
    match read_input(&mut r) {
        Ok(event) => {
            *buf = r.rest();
            Ok(Some(event))
        }
        Err(CodecError::UnexpectedEof) => Ok(None),
        Err(e) => Err(e),
    }
}

fn read_input(r: &mut Reader<'_>) -> Result<InputEvent, CodecError> {
    Ok(match r.u8()? {
        1 => {
            let (code, ctrl, alt) = (r.u32()?, r.u8()?, r.u8()?);
            InputEvent::Key {
                ch: char::from_u32(code).ok_or(CodecError::BadPayload("invalid char"))?,
                ctrl: ctrl != 0,
                alt: alt != 0,
            }
        }
        2 => InputEvent::MouseMove {
            x: r.u32()?,
            y: r.u32()?,
        },
        3 => InputEvent::MouseButton {
            x: r.u32()?,
            y: r.u32()?,
            button: r.u8()?,
            pressed: r.u8()? != 0,
        },
        other => return Err(CodecError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut buf = [0u8; 4];
        // Open and empty is "no bytes yet", not EOF.
        assert_eq!(channel.recv_into(&mut buf), Ok(0));
        channel.send(b"last words");
        channel.close();
        // Writes after close are discarded.
        assert_eq!(channel.send(&[1, 2, 3]), 0);
        assert!(channel.is_closed());
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
}
