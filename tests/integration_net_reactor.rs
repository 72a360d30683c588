//! dv-net reactor, fan-out, and lifecycle-accounting integration.
//!
//! Regressions pinned here (each failed before its fix):
//!
//! - A `Bye` departure appears in `PollReport.dropped` exactly like a
//!   transport EOF does — departure accounting must not silently skip
//!   protocol-level goodbyes.
//! - A duplicate `Hello` from an already-admitted client is ignored;
//!   it used to count the client against capacity a second time and
//!   reject it at a full server.
//! - Entering the closing state resets the send-retry budget, so a
//!   client that stalled *before* its goodbye still gets the full
//!   farewell flush budget in `reap`.
//!
//! Tentpole behaviors:
//!
//! - The readiness reactor skips idle connections entirely (no recv,
//!   no send), visible in the `net.conn_visits` / `net.conn_skips`
//!   counters.
//! - Fan-out encodes each tapped command exactly once per active
//!   output scale no matter how many viewers share it
//!   (`net.encodes_per_batch` == `net.live_batches` with any number of
//!   identity viewers).
//! - Viewers that fall behind in the same poll share one catch-up
//!   keyframe per output scale, whatever keyframe each last received.
//! - Viewers attached at different scales each converge to their own
//!   virtual output's fingerprint.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dejaview::{Config, DejaView};
use dv_display::Rect;
use dv_net::{
    decode_message, encode_frame_vec, encode_message_vec, FrameDecoder, LoopbackTransport, Message,
    NetClient, NetConfig, NetService, Transport, TransportError, PROTOCOL_VERSION,
};
use dv_obs::names;
use dv_time::Duration;

const W: u32 = 96;
const H: u32 = 64;

fn service_with(config: NetConfig) -> NetService {
    NetService::new(
        DejaView::new(Config {
            width: W,
            height: H,
            ..Config::default()
        }),
        config,
    )
}

fn service() -> NetService {
    service_with(NetConfig::default())
}

/// Interleaves client and service polls until traffic settles.
fn converge(svc: &mut NetService, clients: &mut [NetClient<LoopbackTransport>]) {
    for _ in 0..40 {
        for c in clients.iter_mut() {
            let _ = c.poll();
        }
        svc.poll();
    }
}

/// A deterministic splash of drawing, distinct per `salt`.
fn draw(svc: &mut NetService, salt: u32) {
    let d = svc.dv_mut().driver_mut();
    d.fill_rect(
        Rect::new(salt % 40, (salt * 7) % 30, 16 + salt % 9, 12 + salt % 5),
        0x00112233u32.wrapping_mul(salt | 1),
    );
    d.draw_text(
        (salt * 3) % 50,
        (salt * 11) % 40,
        "live",
        0xFFFFFF,
        0x000000,
    );
    svc.dv_mut().clock().advance(Duration::from_millis(40));
}

/// Transport wrapper that stalls (send returns `Ok(0)`) while tokens
/// remain, then behaves normally — for scripting exact stall runs.
struct StallableTransport {
    inner: LoopbackTransport,
    stalls: Arc<AtomicUsize>,
}

impl Transport for StallableTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        let n = self.stalls.load(Ordering::Relaxed);
        if n > 0 {
            self.stalls.store(n - 1, Ordering::Relaxed);
            return Ok(0);
        }
        self.inner.send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        self.inner.recv(buf)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn is_open(&self) -> bool {
        self.inner.is_open()
    }

    fn readiness(&mut self) -> dv_net::Readiness {
        self.inner.readiness()
    }
}

#[test]
fn bye_departure_is_reported_exactly_once() {
    let mut svc = service();
    let (server_end, client_end) = LoopbackTransport::pair();
    let id = svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "polite")];
    converge(&mut svc, &mut clients);
    assert!(clients[0].is_welcomed());

    clients[0].bye();
    let mut drops = Vec::new();
    for _ in 0..20 {
        let _ = clients[0].poll();
        drops.extend(svc.poll().dropped);
    }
    assert_eq!(
        drops,
        vec![(id, dv_net::DropReason::Graceful)],
        "a Bye departure must be reported exactly once, as Graceful"
    );
    assert_eq!(svc.client_count(), 0, "client not reaped after Bye");
}

#[test]
fn duplicate_hello_from_admitted_client_is_ignored() {
    // max_clients = 1: before the fix, the admitted client's own
    // retransmitted Hello counted *itself* against capacity and got it
    // rejected from a server it was the sole occupant of.
    let mut svc = service_with(NetConfig {
        max_clients: 1,
        ..NetConfig::default()
    });
    let (server_end, mut wire) = LoopbackTransport::pair();
    svc.accept(server_end);

    let hello = encode_frame_vec(&encode_message_vec(&Message::Hello {
        version: PROTOCOL_VERSION,
        name: "anxious".to_string(),
    }));
    for _ in 0..2 {
        let mut off = 0;
        while off < hello.len() {
            off += wire.send(&hello[off..]).unwrap();
        }
        for _ in 0..10 {
            svc.poll();
        }
    }

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        match wire.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => dec.feed(&buf[..n]),
        }
    }
    let mut welcomes = 0;
    while let Some(payload) = dec.next_frame().unwrap() {
        match decode_message(payload).unwrap() {
            Message::Welcome { .. } => welcomes += 1,
            Message::Reject { reason } => {
                panic!("admitted client rejected on duplicate Hello: {reason}")
            }
            _ => {}
        }
    }
    assert_eq!(welcomes, 1, "duplicate Hello must not re-send Welcome");
    assert_eq!(svc.client_count(), 1, "admitted client was dropped");
}

#[test]
fn farewell_flush_gets_a_fresh_retry_budget() {
    let mut svc = service_with(NetConfig {
        max_send_retries: 3,
        retry_backoff: Duration::from_millis(1),
        ..NetConfig::default()
    });
    let stalls = Arc::new(AtomicUsize::new(0));
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(StallableTransport {
        inner: server_end,
        stalls: stalls.clone(),
    });
    let mut clients = vec![NetClient::connect(client_end, "laggard")];
    clients[0].attach_live();
    converge(&mut svc, &mut clients);
    assert!(clients[0].is_welcomed());

    // Burn the retry budget down to its limit (but not past it) with
    // scripted pre-close stalls: live data pending, three polls, three
    // stalls, retries == max_send_retries.
    stalls.store(3, Ordering::Relaxed);
    draw(&mut svc, 77);
    for _ in 0..3 {
        svc.poll();
        svc.dv_mut().clock().advance(Duration::from_millis(10));
    }
    assert_eq!(stalls.load(Ordering::Relaxed), 0, "stalls never consumed");
    assert_eq!(
        svc.client_info()[0].retries,
        3,
        "test setup must leave the client at its retry limit"
    );

    // Now the goodbye: one more scripted stall during the farewell
    // flush. With the inherited budget (the bug) that stall pushed
    // retries past the limit and the corpse was torn down with the
    // farewell (and the pending frames) undelivered.
    let before = clients[0].stats().frames_received;
    stalls.store(1, Ordering::Relaxed);
    svc.shutdown();
    for _ in 0..20 {
        svc.poll();
        svc.dv_mut().clock().advance(Duration::from_millis(10));
        let _ = clients[0].poll();
    }
    assert_eq!(svc.client_count(), 0, "closing client never reaped");
    assert!(
        clients[0].stats().frames_received > before,
        "farewell was never flushed: pre-close stalls truncated the reap budget"
    );
    assert!(clients[0].is_closed(), "client never saw the goodbye");
}

#[test]
fn idle_viewers_are_skipped_not_polled() {
    let mut svc = service();
    let mut clients: Vec<NetClient<LoopbackTransport>> = (0..8)
        .map(|i| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            let mut c = NetClient::connect(client_end, &format!("couch-{i}"));
            c.attach_live();
            c
        })
        .collect();
    converge(&mut svc, &mut clients);
    for c in &clients {
        assert!(c.is_welcomed());
    }

    // Everything is drained and nobody speaks: every connection is
    // skipped on both the inbound and outbound edge, and none is
    // visited.
    let obs = svc.dv().obs().clone();
    let visits = obs.counter(names::NET_CONN_VISITS);
    let skips = obs.counter(names::NET_CONN_SKIPS);
    for _ in 0..5 {
        svc.poll();
    }
    assert_eq!(
        obs.counter(names::NET_CONN_VISITS),
        visits,
        "idle connections were visited"
    );
    assert_eq!(
        obs.counter(names::NET_CONN_SKIPS),
        skips + 5 * 8 * 2,
        "idle connections not skipped on both edges"
    );

    // The moment one draws, everyone is live again.
    draw(&mut svc, 9);
    svc.poll();
    converge(&mut svc, &mut clients);
    let local = svc.dv().screen_fingerprint();
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.fingerprint(), Some(local), "client {i} diverged");
    }
}

#[test]
fn one_encode_per_batch_regardless_of_fanout() {
    let mut svc = service();
    let mut clients: Vec<NetClient<LoopbackTransport>> = (0..16)
        .map(|i| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            let mut c = NetClient::connect(client_end, &format!("mirror-{i}"));
            c.attach_live();
            c
        })
        .collect();
    converge(&mut svc, &mut clients);

    let obs = svc.dv().obs().clone();
    let batches0 = obs.counter(names::NET_LIVE_BATCHES);
    let encodes0 = obs.counter(names::NET_ENCODES_PER_BATCH);
    for salt in 400..410 {
        draw(&mut svc, salt);
        svc.poll();
        for c in clients.iter_mut() {
            let _ = c.poll();
        }
    }
    let batches = obs.counter(names::NET_LIVE_BATCHES) - batches0;
    let encodes = obs.counter(names::NET_ENCODES_PER_BATCH) - encodes0;
    assert!(batches > 0, "no live batches flowed");
    assert_eq!(
        encodes, batches,
        "a batch fanned out to 16 identity viewers must encode exactly once"
    );

    converge(&mut svc, &mut clients);
    let local = svc.dv().screen_fingerprint();
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.fingerprint(), Some(local), "client {i} diverged");
    }
}

#[test]
fn one_catch_up_keyframe_per_scale_is_shared_by_every_lagging_viewer() {
    let mut svc = service_with(NetConfig {
        send_queue_frames: 4,
        ..NetConfig::default()
    });
    for salt in 0..6 {
        draw(&mut svc, salt);
    }
    let attach = |svc: &mut NetService, name: &str, half: bool| {
        let (server_end, client_end) = LoopbackTransport::pair();
        svc.accept(server_end);
        let mut c = NetClient::connect(client_end, name);
        if half {
            c.attach_scaled(1, 2);
        } else {
            c.attach_live();
        }
        c
    };
    let mut clients = vec![
        attach(&mut svc, "early-0", false),
        attach(&mut svc, "early-1", false),
        attach(&mut svc, "half", true),
    ];
    converge(&mut svc, &mut clients);
    // The screen is cleared before the last identity viewer attaches,
    // so the identity viewers hold keyframes of different moments.
    svc.dv_mut()
        .driver_mut()
        .fill_rect(Rect::new(0, 0, W, H), 0x0020_4060);
    draw(&mut svc, 10);
    converge(&mut svc, &mut clients);
    clients.push(attach(&mut svc, "late", false));
    converge(&mut svc, &mut clients);
    let identity = [0, 1, 3];
    let keyframes = |clients: &[NetClient<LoopbackTransport>]| {
        identity.map(|i| clients[i].stats().keyframes_applied)
    };
    let before = keyframes(&clients);

    // Six commands tapped before one poll overflow every viewer's
    // 4-frame bound; that poll catches all four up.
    let obs = svc.dv().obs().clone();
    let coalesces = obs.counter(names::NET_COALESCE_EVENTS);
    let encodes = obs.counter(names::NET_KEYFRAME_ENCODES);
    for salt in 20..23 {
        draw(&mut svc, salt);
    }
    svc.poll();
    assert_eq!(obs.counter(names::NET_COALESCE_EVENTS) - coalesces, 4);
    assert_eq!(
        obs.counter(names::NET_KEYFRAME_ENCODES) - encodes,
        2,
        "one keyframe for the three identity viewers, one for the half-scale viewer"
    );
    converge(&mut svc, &mut clients);

    assert_eq!(keyframes(&clients), before.map(|k| k + 1));
    let local = svc.dv().screen_fingerprint();
    for i in identity {
        assert_eq!(clients[i].fingerprint(), Some(local), "viewer {i} diverged");
    }
    assert_eq!(clients[2].fingerprint(), svc.output_fingerprint(1, 2));
}

#[test]
fn scaled_viewers_converge_to_their_virtual_outputs() {
    let mut svc = service();
    for salt in 0..8 {
        draw(&mut svc, salt);
    }

    let scales: [(u32, u32); 2] = [(1, 2), (3, 4)];
    let mut clients = Vec::new();
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut full = NetClient::connect(client_end, "full-size");
    full.attach_live();
    clients.push(full);
    for (num, den) in scales {
        let (server_end, client_end) = LoopbackTransport::pair();
        svc.accept(server_end);
        let mut c = NetClient::connect(client_end, &format!("scaled-{num}-{den}"));
        c.attach_scaled(num, den);
        clients.push(c);
    }
    converge(&mut svc, &mut clients);

    // The session keeps drawing; every geometry tracks its own truth.
    for salt in 500..520 {
        draw(&mut svc, salt);
        svc.poll();
        for c in clients.iter_mut() {
            let _ = c.poll();
        }
    }
    converge(&mut svc, &mut clients);

    assert_eq!(
        clients[0].fingerprint(),
        Some(svc.dv().screen_fingerprint()),
        "identity viewer diverged"
    );
    for (i, (num, den)) in scales.iter().enumerate() {
        let c = &clients[i + 1];
        let size = svc
            .output_size(*num, *den)
            .expect("scaled attach must register a virtual output");
        let fb = c.framebuffer().expect("scaled viewer never got a screen");
        assert_eq!(
            (fb.width(), fb.height()),
            size,
            "viewer {num}/{den} geometry"
        );
        assert_eq!(
            c.fingerprint(),
            svc.output_fingerprint(*num, *den),
            "viewer at {num}/{den} diverged from its virtual output"
        );
        assert!(
            c.stats().commands_applied > 0,
            "scaled viewer {num}/{den} saw no live commands"
        );
    }
    // Distinct geometries really are distinct screens.
    assert_ne!(svc.output_size(1, 2), svc.output_size(3, 4));
}
