//! dv-net integration: many concurrent remote viewers over the
//! deterministic loopback transport, against one live DejaView session.
//!
//! The claims under test, end to end:
//!
//! - A fan-out of clients attaching **mid-session** each converge to a
//!   framebuffer whose fingerprint is byte-for-byte the server's local
//!   view, and they track it through further live drawing.
//! - Input events ride the wire back: a remote keystroke reaches the
//!   server's desktop (the annotation key combo consumes the current
//!   selection).
//! - Playback seeks and text-index searches multiplex over the same
//!   connection as the live stream and agree with the server's own
//!   answers.
//! - An injected transport failure on ONE client surfaces in the
//!   dv-obs trace ring AND the retry/reset counters while every other
//!   client stays correct — the blast radius of a bad link is that
//!   link.

mod common;

use dejaview::{Config, DejaView};
use dv_display::viewer::InputEvent;
use dv_display::Rect;
use dv_fault::{sites, FaultPlan, IoFault};
use dv_index::RankOrder;
use dv_net::{
    decode_message, encode_frame_vec, encode_message_vec, FrameDecoder, LoopbackTransport, Message,
    NetClient, NetConfig, NetService, Transport, VisualProbe, WireHit, MAX_SEARCH_HITS,
    PROTOCOL_VERSION,
};
use dv_obs::names;
use dv_time::{Duration, Timestamp};

const W: u32 = 96;
const H: u32 = 64;

fn service() -> NetService {
    NetService::new(
        DejaView::new(Config {
            width: W,
            height: H,
            ..Config::default()
        }),
        NetConfig::default(),
    )
}

/// Interleaves client and service polls until traffic settles.
fn converge(svc: &mut NetService, clients: &mut [NetClient<LoopbackTransport>]) {
    for _ in 0..40 {
        for c in clients.iter_mut() {
            // Faulty clients may die mid-converge; that is the point
            // of some of these tests, not a harness failure.
            let _ = c.poll();
        }
        svc.poll();
    }
}

/// Writes all of `bytes` to a raw wire end, however it chunks them.
fn send_all(wire: &mut LoopbackTransport, bytes: &[u8]) {
    let mut off = 0;
    while off < bytes.len() {
        off += wire.send(&bytes[off..]).unwrap();
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

#[test]
fn sixteen_clients_attach_mid_session_and_track_the_screen() {
    let mut svc = service();

    // The session is already underway before anyone connects.
    for salt in 0..12 {
        draw(&mut svc, salt);
    }

    let mut clients: Vec<NetClient<LoopbackTransport>> = (0..16)
        .map(|i| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            let mut c = NetClient::connect(client_end, &format!("viewer-{i}"));
            c.attach_live();
            c
        })
        .collect();
    converge(&mut svc, &mut clients);

    let local = svc.dv().screen_fingerprint();
    for (i, c) in clients.iter().enumerate() {
        assert!(c.is_welcomed(), "client {i} not welcomed");
        assert_eq!(
            c.fingerprint(),
            Some(local),
            "client {i} diverged after mid-session attach"
        );
        assert!(
            c.stats().keyframes_applied >= 1,
            "client {i} never got its attach keyframe"
        );
    }

    // The session keeps drawing; every viewer tracks it live.
    for salt in 100..130 {
        draw(&mut svc, salt);
        svc.poll();
        for c in clients.iter_mut() {
            let _ = c.poll();
        }
    }
    converge(&mut svc, &mut clients);

    let local = svc.dv().screen_fingerprint();
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.fingerprint(), Some(local), "client {i} diverged live");
        assert!(
            c.stats().commands_applied > 0,
            "client {i} saw only keyframes; live deltas never flowed"
        );
    }
    assert_eq!(svc.client_count(), 16);
}

#[test]
fn attach_with_pending_scroll_commands_does_not_replay_them() {
    let mut svc = service();
    for salt in 0..6 {
        draw(&mut svc, salt);
    }
    svc.poll(); // drain the tap so only post-connect damage is pending

    // The Hello + AttachLive frames are on the wire, waiting to be
    // handled in the same service poll that fans out the tap.
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut c = NetClient::connect(client_end, "scroller");
    c.attach_live();
    let _ = c.poll();

    // Non-idempotent damage lands in the tap BEFORE that poll runs:
    // CopyArea reads the screen it scrolls, so replaying it on top of
    // a keyframe that already embodies it corrupts the remote view.
    let d = svc.dv_mut().driver_mut();
    d.fill_rect(Rect::new(4, 4, 30, 20), 0xDEADBEEF);
    d.copy_area(4, 4, Rect::new(10, 10, 24, 14));
    d.copy_area(0, 0, Rect::new(2, 2, 40, 30));
    svc.dv_mut().clock().advance(Duration::from_millis(5));

    let mut clients = vec![c];
    converge(&mut svc, &mut clients);
    assert_eq!(
        clients[0].fingerprint(),
        Some(svc.dv().screen_fingerprint()),
        "commands tapped before the attach keyframe were replayed on top of it"
    );

    // And the viewer keeps tracking live scrolls from here on.
    let d = svc.dv_mut().driver_mut();
    d.copy_area(1, 1, Rect::new(0, 0, 50, 40));
    svc.dv_mut().clock().advance(Duration::from_millis(5));
    converge(&mut svc, &mut clients);
    assert_eq!(
        clients[0].fingerprint(),
        Some(svc.dv().screen_fingerprint()),
        "viewer lost the live scroll stream after attach"
    );
}

#[test]
fn remote_input_round_trips_to_the_desktop() {
    let mut svc = service();
    let app = svc.dv_mut().desktop_mut().register_app("editor");
    let root = svc.dv_mut().desktop_mut().root(app).unwrap();
    svc.dv_mut()
        .desktop_mut()
        .set_selection(app, root, "ship it friday");
    assert!(svc.dv_mut().desktop_mut().selection().is_some());

    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "typist")];
    converge(&mut svc, &mut clients);
    assert!(clients[0].is_welcomed());

    // The annotation combo, pressed remotely, consumes the selection
    // server-side — proof the event crossed the wire into dv.input().
    clients[0].send_input(&InputEvent::Key {
        ch: 'a',
        ctrl: true,
        alt: true,
    });
    converge(&mut svc, &mut clients);
    assert!(
        svc.dv_mut().desktop_mut().selection().is_none(),
        "remote keystroke never reached the desktop"
    );
}

#[test]
fn seek_and_search_rpcs_agree_with_the_server() {
    let mut svc = service();
    let app = svc.dv_mut().desktop_mut().register_app("notes");
    let root = svc.dv_mut().desktop_mut().root(app).unwrap();
    svc.dv_mut()
        .desktop_mut()
        .add_node(app, root, dv_access::Role::Paragraph, "deadline friday");
    for salt in 0..10 {
        draw(&mut svc, salt);
    }
    let mid = Timestamp::ZERO + Duration::from_millis(200);
    for salt in 50..60 {
        draw(&mut svc, salt);
    }

    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "historian")];
    converge(&mut svc, &mut clients);

    // Seek: the remote reconstruction is the server's reconstruction.
    let req = clients[0].seek(mid);
    converge(&mut svc, &mut clients);
    let remote_shot = clients[0]
        .take_seek_reply(req)
        .expect("seek reply never arrived");
    let local_shot = svc.dv_mut().browse(mid).unwrap();
    assert_eq!(remote_shot.content_hash(), local_shot.content_hash());

    // Search: same hits, same order, as asking the server directly.
    let req = clients[0].search("deadline", RankOrder::Chronological);
    converge(&mut svc, &mut clients);
    let remote_hits = clients[0]
        .take_search_reply(req)
        .expect("search reply never arrived");
    let local_hits = svc
        .dv_mut()
        .search("deadline", RankOrder::Chronological)
        .unwrap();
    assert_eq!(remote_hits.len(), local_hits.len());
    assert!(!remote_hits.is_empty(), "indexed text not found over RPC");
    for (r, l) in remote_hits.iter().zip(&local_hits) {
        assert_eq!(r.time, l.hit.time);
        assert_eq!(r.snippet, l.hit.snippet);
        assert_eq!(r.matches as usize, l.hit.matches);
    }

    // A failed RPC comes back as an Error reply, not a dead connection.
    let req = clients[0].search("time:notanumber deadline", RankOrder::Chronological);
    converge(&mut svc, &mut clients);
    assert!(clients[0].take_rpc_error(req).is_some());
    assert!(!clients[0].is_closed());

    // Graceful goodbye: the server forgets the client.
    clients[0].bye();
    converge(&mut svc, &mut clients);
    assert_eq!(svc.client_count(), 0);
}

#[test]
fn search_rpc_answers_from_the_index_without_building_portals() {
    let mut svc = service();
    let app = svc.dv_mut().desktop_mut().register_app("notes");
    let root = svc.dv_mut().desktop_mut().root(app).unwrap();
    svc.dv_mut()
        .desktop_mut()
        .add_node(app, root, dv_access::Role::Paragraph, "deadline friday");
    for salt in 0..10 {
        draw(&mut svc, salt);
    }
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "searcher")];
    converge(&mut svc, &mut clients);

    let seeks = |svc: &NetService| {
        let obs = svc.dv().obs();
        obs.counter(names::RECORD_SEEK_RESUMED) + obs.counter(names::RECORD_SEEK_KEYFRAME_LOADS)
    };
    let before = seeks(&svc);
    let req = clients[0].search("deadline", RankOrder::Chronological);
    converge(&mut svc, &mut clients);
    let remote_hits = clients[0]
        .take_search_reply(req)
        .expect("search reply never arrived");
    assert_eq!(seeks(&svc), before, "the search RPC seeked the record");

    let query = dv_index::parse_query("deadline").unwrap();
    let local_hits = svc
        .dv_mut()
        .search_hits(&query, RankOrder::Chronological)
        .unwrap();
    assert!(!local_hits.is_empty(), "indexed text not found");
    let expected: Vec<WireHit> = local_hits
        .into_iter()
        .map(|h| WireHit {
            time: h.time,
            until: h.until,
            persistence: h.persistence,
            matches: h.matches as u32,
            snippet: h.snippet,
            apps: h.apps,
        })
        .collect();
    assert_eq!(remote_hits, expected);

    // The counters do see a portal being built: a local `search` does.
    svc.dv_mut()
        .search("deadline", RankOrder::Chronological)
        .unwrap();
    assert!(seeks(&svc) > before, "a portal build went uncounted");
}

#[test]
fn visual_rpcs_agree_with_the_server() {
    let mut svc = service();
    // Three distinct recorded scenes, one keyframe each.
    for round in 0..3u32 {
        for salt in round * 10..round * 10 + 5 {
            draw(&mut svc, salt);
        }
        svc.dv_mut().clock().advance(Duration::from_secs(1));
        svc.dv_mut().force_keyframe();
        svc.dv_mut().policy_tick().unwrap();
    }
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "visual-historian")];
    converge(&mut svc, &mut clients);

    // Probe by moment: "when did the screen look like it did at t?"
    let t = svc.dv_mut().now();
    let req = clients[0].visual_query(VisualProbe::At(t), 4);
    converge(&mut svc, &mut clients);
    let remote = clients[0]
        .take_visual_reply(req)
        .expect("visual reply never arrived");
    let local = svc.dv_mut().visual_hits_at_time(t, 4).unwrap();
    assert_eq!(remote.len(), local.len());
    assert!(!remote.is_empty(), "recorded scenes not found over RPC");
    for (r, l) in remote.iter().zip(&local) {
        assert_eq!(
            (r.id, r.distance, r.first, r.last),
            (l.id, l.distance, l.first, l.last)
        );
        assert_eq!(r.thumb, l.thumb);
    }
    // The best hit is the probed moment itself, and its wire thumbnail
    // decodes into the configured geometry.
    assert_eq!(remote[0].distance, 0);
    let thumb = dv_record::decode_screenshot(&remote[0].thumb).expect("thumb decodes");
    assert_eq!((thumb.width, thumb.height), (64, 48));

    // Probe by image: shipping the screenshot itself gives the same
    // answer as naming its moment.
    let probe_shot = svc.dv_mut().browse(t).unwrap();
    let req = clients[0].visual_query(VisualProbe::Thumb(probe_shot), 4);
    converge(&mut svc, &mut clients);
    let by_image = clients[0]
        .take_visual_reply(req)
        .expect("image-probe reply never arrived");
    assert_eq!(by_image, remote);

    // With the visual index disabled the RPC fails as an Error reply,
    // not a dead connection.
    let mut svc2 = NetService::new(
        DejaView::new(Config {
            width: W,
            height: H,
            enable_visual_index: false,
            ..Config::default()
        }),
        NetConfig::default(),
    );
    let (server_end, client_end) = LoopbackTransport::pair();
    svc2.accept(server_end);
    let mut blind = vec![NetClient::connect(client_end, "blind")];
    converge(&mut svc2, &mut blind);
    let req = blind[0].visual_query(VisualProbe::At(Timestamp::ZERO), 1);
    converge(&mut svc2, &mut blind);
    assert!(blind[0].take_rpc_error(req).is_some());
    assert!(!blind[0].is_closed());
}

#[test]
fn transport_faults_on_one_client_leave_the_rest_untouched() {
    let mut svc = service();
    for salt in 0..8 {
        draw(&mut svc, salt);
    }

    // Four clean viewers and one whose link stalls probabilistically,
    // then resets for good.
    let mut clients: Vec<NetClient<LoopbackTransport>> = (0..4)
        .map(|i| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            let mut c = NetClient::connect(client_end, &format!("healthy-{i}"));
            c.attach_live();
            c
        })
        .collect();
    let plane = FaultPlan::new(common::seed_for("net-faulty-client"))
        .probability(sites::NET_SEND, 0.25, IoFault::LatencySpike)
        .from_nth(sites::NET_SEND, 60, IoFault::TornWrite)
        .build();
    let (server_end, client_end) = LoopbackTransport::faulty_pair(&plane);
    svc.accept(server_end);
    let mut faulty = NetClient::connect(client_end, "doomed");
    faulty.attach_live();
    clients.push(faulty);
    converge(&mut svc, &mut clients);

    // Keep the session busy until the injected reset lands, collecting
    // every drop the service reports along the way.
    let mut drops: Vec<(u64, dv_net::DropReason)> = Vec::new();
    for salt in 200..260 {
        draw(&mut svc, salt);
        drops.extend(svc.poll().dropped);
        for c in clients.iter_mut() {
            let _ = c.poll();
        }
    }
    converge(&mut svc, &mut clients);

    // One client dying is reported exactly once, with one reason — a
    // drop must not be re-reported by a later pipeline stage.
    let mut drop_ids: Vec<u64> = drops.iter().map(|(id, _)| *id).collect();
    drop_ids.sort_unstable();
    drop_ids.dedup();
    assert_eq!(
        drop_ids.len(),
        drops.len(),
        "duplicate drop reports: {drops:?}"
    );

    // The doomed client is gone; its failure is observable both as
    // trace events and as counters.
    assert_eq!(svc.client_count(), 4, "faulty client not reaped");
    assert!(plane.injected_at(sites::NET_SEND) > 0, "no fault fired");
    let obs = svc.dv().obs().clone();
    assert!(
        obs.counter(names::NET_SEND_RETRIES) > 0,
        "stalls never retried"
    );
    assert!(obs.counter(names::NET_RESETS) > 0, "reset not counted");
    let events = obs.events();
    assert!(
        events.iter().any(|e| e.name == names::EV_NET_RETRY),
        "no retry event traced"
    );
    assert!(
        events.iter().any(|e| e.name == names::EV_NET_DISCONNECT),
        "no disconnect event traced"
    );

    // Everyone else is byte-for-byte correct.
    let local = svc.dv().screen_fingerprint();
    for (i, c) in clients.iter().take(4).enumerate() {
        assert!(!c.is_closed(), "healthy client {i} dropped");
        assert_eq!(c.fingerprint(), Some(local), "healthy client {i} diverged");
    }
}

#[test]
fn unhandshaken_connection_hits_the_handshake_deadline() {
    let mut svc = service();
    let (server_end, _held_open) = LoopbackTransport::pair();
    svc.accept(server_end);
    assert_eq!(svc.client_count(), 1);

    // Half the idle budget elapses with no Hello: the silent socket is
    // dropped, not parked forever outside the idle scan.
    svc.dv_mut().clock().advance(Duration::from_secs(31)); // idle_timeout default 60s
    let report = svc.poll();
    assert!(
        report
            .dropped
            .iter()
            .any(|(_, r)| *r == dv_net::DropReason::Idle),
        "handshake deadline never fired: {report:?}"
    );
    assert_eq!(svc.client_count(), 0, "silent connection lingered");
}

#[test]
fn accept_backlog_is_bounded_at_twice_max_clients() {
    let mut svc = NetService::new(
        DejaView::new(Config {
            width: W,
            height: H,
            ..Config::default()
        }),
        NetConfig {
            max_clients: 2,
            ..NetConfig::default()
        },
    );
    let mut clients: Vec<NetClient<LoopbackTransport>> = (0..10)
        .map(|i| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            NetClient::connect(client_end, &format!("flood-{i}"))
        })
        .collect();
    converge(&mut svc, &mut clients);

    // Capacity admits two; everyone else was turned away, whether at
    // the Hello (slots 3-4 of the backlog) or straight at accept.
    let welcomed = clients.iter().filter(|c| c.is_welcomed()).count();
    assert_eq!(welcomed, 2, "capacity check admitted the wrong number");
    assert_eq!(
        svc.client_count(),
        2,
        "rejected connections were not reaped"
    );
    assert!(
        clients.iter().filter(|c| c.is_closed()).count() >= 8,
        "turned-away clients never learned their fate"
    );
}

#[test]
fn rpcs_before_the_handshake_are_ignored() {
    let mut svc = service();
    for salt in 0..4 {
        draw(&mut svc, salt);
    }
    let (server_end, mut wire) = LoopbackTransport::pair();
    svc.accept(server_end);

    // Seek + Search straight away, no Hello: neither runs nor replies.
    let mut bytes = encode_frame_vec(&encode_message_vec(&Message::Seek {
        req_id: 7,
        t: Timestamp::ZERO,
    }));
    bytes.extend(encode_frame_vec(&encode_message_vec(&Message::Search {
        req_id: 8,
        order: RankOrder::Chronological,
        query: "live".to_string(),
    })));
    send_all(&mut wire, &bytes);
    for _ in 0..10 {
        svc.poll();
    }

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        match wire.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => dec.feed(&buf[..n]),
        }
    }
    assert_eq!(
        dec.next_frame().unwrap(),
        None,
        "server answered an RPC from an un-handshaken client"
    );
    assert_eq!(svc.client_count(), 1, "connection should survive, parked");
}

/// Regression: a server may send any well-framed rectangle. One whose
/// right edge passes `u32::MAX` used to overflow in the client's clip —
/// a panic in a debug build, a wrapped rectangle in a release build.
#[test]
fn client_clips_commands_past_the_coordinate_space() {
    use dv_display::DisplayCommand;
    let (mut wire, client_end) = LoopbackTransport::pair();
    let mut client = NetClient::connect(client_end, "far-right");
    let command = |cmd| Message::Command {
        ts: Timestamp::ZERO,
        cmd,
    };
    let messages = [
        Message::Welcome {
            version: PROTOCOL_VERSION,
            width: W,
            height: H,
        },
        command(DisplayCommand::SolidFill {
            rect: Rect::new(u32::MAX, 0, 2, 1),
            color: 9,
        }),
        command(DisplayCommand::CopyArea {
            src_x: u32::MAX - 1,
            src_y: 0,
            rect: Rect::new(0, 0, 4, 4),
        }),
        command(DisplayCommand::SolidFill {
            rect: Rect::new(10, 2, u32::MAX - 5, 1),
            color: 7,
        }),
    ];
    let mut bytes = Vec::new();
    for msg in &messages {
        bytes.extend(encode_frame_vec(&encode_message_vec(msg)));
    }
    send_all(&mut wire, &bytes);
    assert_eq!(client.poll().unwrap(), messages.len());
    let fb = client.framebuffer().expect("welcomed");
    for x in 0..W {
        assert_eq!(fb.pixel(x, 2), if x < 10 { 0 } else { 7 }, "column {x}");
    }
    assert!(fb.read_rect(&Rect::new(0, 0, W, 2)).iter().all(|&p| p == 0));
    assert!(fb.read_rect(&Rect::new(0, 3, W, H)).iter().all(|&p| p == 0));
}

/// Sends a `Hello` at `version` to a new service and returns the reason
/// of the `Reject` it answers with; asserts the client is gone.
fn rejected_hello(version: u16) -> String {
    let mut svc = service();
    let (server_end, mut wire) = LoopbackTransport::pair();
    svc.accept(server_end);

    let hello = encode_frame_vec(&encode_message_vec(&Message::Hello {
        version,
        name: "time traveler".to_string(),
    }));
    let mut off = 0;
    while off < hello.len() {
        off += wire.send(&hello[off..]).unwrap();
    }
    for _ in 0..10 {
        svc.poll();
    }

    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        match wire.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => dec.feed(&buf[..n]),
        }
    }
    let reply = dec
        .next_frame()
        .unwrap()
        .expect("no reply to bad handshake");
    assert_eq!(svc.client_count(), 0, "rejected client lingered");
    match decode_message(reply).unwrap() {
        Message::Reject { reason } => reason,
        other => panic!("expected Reject, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_rejected_cleanly() {
    assert!(rejected_hello(PROTOCOL_VERSION + 1).contains("version"));
}

/// Version 5 keyframes may hold literal spans, which a version-4 peer
/// would refuse as over-long runs: a version-4 client is turned away at
/// the handshake, not at its first keyframe.
#[test]
fn a_version_4_hello_is_refused() {
    assert_eq!(PROTOCOL_VERSION, 5);
    let reason = rejected_hello(4);
    assert!(
        reason.contains("protocol version 4 unsupported"),
        "{reason}"
    );
}

#[test]
fn oversize_cross_shard_search_truncates_by_global_rank() {
    let mut svc = service();
    let tidx = svc.dv_mut().tidx().expect("sharded index is on by default");

    // A little display activity so per-hit screenshot portals have a
    // record to reconstruct from.
    for salt in 0..3 {
        draw(&mut svc, salt);
    }
    let app = svc.dv_mut().desktop_mut().register_app("log");
    let root = svc.dv_mut().desktop_mut().root(app).unwrap();

    // More disjoint hits than the reply cap. Hit i persists
    // (2 + TOTAL-1-i) ms, so the earliest states — the ones landing in
    // the OLDEST shards — persist longest.
    const TOTAL: usize = MAX_SEARCH_HITS + 40;
    let mut counter = 1;
    for i in 0..TOTAL {
        let text = format!("marker t{i}");
        let node =
            svc.dv_mut()
                .desktop_mut()
                .add_node(app, root, dv_access::Role::Paragraph, &text);
        let persist = Duration::from_millis(2 + (TOTAL - 1 - i) as u64);
        svc.dv_mut().clock().advance(persist);
        svc.dv_mut().desktop_mut().remove_subtree(app, node);
        svc.dv_mut().clock().advance(Duration::from_millis(1));
        // Seal every 128 states so the hits span many immutable
        // segments rather than one big open shard.
        if (i + 1) % 128 == 0 {
            tidx.log().seal(counter).expect("seal");
            counter += 1;
        }
    }
    assert!(
        tidx.log().layout().live.len() >= 4,
        "test setup must spread hits across sealed shards"
    );

    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "archivist")];
    converge(&mut svc, &mut clients);

    // PersistenceAscending ranks the SHORTEST-lived states first —
    // exactly the ones in the NEWEST shards. A truncation by per-shard
    // arrival order (oldest shard first) would keep the longest-lived
    // hits instead, so every kept hit proves global ranking.
    let req = clients[0].search("marker", RankOrder::PersistenceAscending);
    converge(&mut svc, &mut clients);
    if let Some(err) = clients[0].take_rpc_error(req) {
        panic!("search failed over RPC: {err}");
    }
    assert!(!clients[0].is_closed(), "client connection died");
    let hits = clients[0]
        .take_search_reply(req)
        .expect("search reply never arrived");
    assert_eq!(
        hits.len(),
        MAX_SEARCH_HITS,
        "reply must truncate at the cap"
    );
    let cutoff = Duration::from_millis(2 + (MAX_SEARCH_HITS - 1) as u64);
    for h in &hits {
        assert!(
            h.persistence <= cutoff,
            "truncation kept a low-rank (long-lived, early-shard) hit: {:?}",
            h.persistence
        );
    }
    for pair in hits.windows(2) {
        assert!(
            pair[0].persistence <= pair[1].persistence,
            "reply is not in global rank order"
        );
    }

    // The persistence-weighted order rides the wire too (tag 4): with
    // one match per interval the weighted score IS the persistence, so
    // the same oversize query comes back descending.
    let req = clients[0].search("marker", RankOrder::PersistenceWeighted);
    converge(&mut svc, &mut clients);
    let hits = clients[0]
        .take_search_reply(req)
        .expect("weighted search reply never arrived");
    assert_eq!(hits.len(), MAX_SEARCH_HITS);
    for pair in hits.windows(2) {
        assert!(
            pair[0].persistence >= pair[1].persistence,
            "weighted reply is not descending by score"
        );
    }
}

#[test]
fn shutdown_counts_the_farewell_among_the_frames_sent() {
    let mut svc = service();
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "leaver")];
    clients[0].attach_live();
    converge(&mut svc, &mut clients);

    svc.shutdown();
    for _ in 0..40 {
        svc.poll();
        let _ = clients[0].poll();
        if clients[0].is_closed() {
            break;
        }
    }
    assert!(
        clients[0].is_closed(),
        "the farewell never closed the client"
    );
    assert_eq!(
        svc.dv().obs().counter(names::NET_FRAMES_SENT),
        clients[0].stats().frames_received,
        "a frame the client received was never counted as sent"
    );
}

#[test]
fn a_detached_viewer_keeps_its_connection_and_catches_up_on_reattach() {
    let mut svc = service();
    draw(&mut svc, 1);
    let (server_end, client_end) = LoopbackTransport::pair();
    svc.accept(server_end);
    let mut clients = vec![NetClient::connect(client_end, "napper")];
    clients[0].attach_live();
    converge(&mut svc, &mut clients);
    assert_eq!(
        clients[0].fingerprint(),
        Some(svc.dv().screen_fingerprint())
    );

    clients[0].detach();
    converge(&mut svc, &mut clients);
    let before = clients[0].stats().frames_received;
    for salt in 2..8 {
        draw(&mut svc, salt);
        svc.poll();
        let _ = clients[0].poll();
    }
    converge(&mut svc, &mut clients);
    assert_eq!(
        clients[0].stats().frames_received,
        before,
        "a detached viewer still received the live stream"
    );
    assert!(!clients[0].is_closed(), "detach dropped the connection");
    assert_eq!(svc.client_count(), 1);
    assert_ne!(
        clients[0].fingerprint(),
        Some(svc.dv().screen_fingerprint())
    );

    // The connection still answers RPCs while detached.
    let req = clients[0].seek(Timestamp::ZERO + Duration::from_millis(40));
    converge(&mut svc, &mut clients);
    assert!(clients[0].take_seek_reply(req).is_some(), "seek unanswered");

    // Attaching again requests a keyframe of the current screen.
    clients[0].attach_live();
    converge(&mut svc, &mut clients);
    assert_eq!(
        clients[0].fingerprint(),
        Some(svc.dv().screen_fingerprint())
    );
}
