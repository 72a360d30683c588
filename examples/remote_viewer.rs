//! Remote viewing and the viewer UI widgets (§2, §3).
//!
//! DejaView's client-server split means "the desktop can be accessed
//! both locally and remotely". This example serves a live session
//! through dv-net to two remote viewers over the in-memory loopback
//! transport (MTU-sized chunks) — one full size, one at half scale for
//! a smaller device — sends a keystroke back, then drives the Figure 1
//! widgets — search button, slider, take-me-back — against the same
//! session.
//!
//! Run with: `cargo run --example remote_viewer`

use dejaview::{Config, DejaView, ViewerUi};
use dv_access::Role;
use dv_display::{rgb, InputEvent, Rect};
use dv_index::RankOrder;
use dv_net::{LoopbackTransport, NetClient, NetConfig, NetService};
use dv_time::Duration;

/// Interleaves viewer and service polls until traffic settles.
fn converge(svc: &mut NetService, viewers: &mut [NetClient<LoopbackTransport>]) {
    for _ in 0..40 {
        for viewer in viewers.iter_mut() {
            viewer.poll().expect("healthy link");
        }
        svc.poll();
    }
}

fn main() {
    let mut svc = NetService::new(DejaView::new(Config::default()), NetConfig::default());
    let clock = svc.dv().clock();

    // A session produces output before anyone connects.
    let app = svc.dv_mut().desktop_mut().register_app("dashboard");
    let root = svc.dv_mut().desktop_mut().root(app).unwrap();
    let win = svc
        .dv_mut()
        .desktop_mut()
        .add_node(app, root, Role::Window, "metrics - dashboard");
    let column = |svc: &mut NetService, i: u32| {
        let dv = svc.dv_mut();
        dv.driver_mut().fill_rect(
            Rect::new(i * 128, 0, 128, 768),
            rgb(30 + 20 * i as u8, 60, 90),
        );
        dv.desktop_mut().add_node(
            app,
            win,
            Role::Paragraph,
            &format!("metric {i}: throughput nominal"),
        );
        dv.driver_mut()
            .draw_text(i * 128 + 8, 16, &format!("metric {i}"), 0xFFFFFF, 0);
        clock.advance(Duration::from_millis(500));
        if i % 2 == 1 {
            dv.policy_tick().unwrap();
        }
    };
    for i in 0..4 {
        column(&mut svc, i);
    }

    // Two viewers attach mid-session: each is brought up to date with
    // a keyframe of its own geometry, then follows the live stream.
    let mut viewers: Vec<NetClient<LoopbackTransport>> = ["desk", "pda"]
        .iter()
        .map(|name| {
            let (server_end, client_end) = LoopbackTransport::pair();
            svc.accept(server_end);
            NetClient::connect(client_end, name)
        })
        .collect();
    viewers[0].attach_live();
    viewers[1].attach_scaled(1, 2);
    converge(&mut svc, &mut viewers);
    for i in 4..8 {
        column(&mut svc, i);
        svc.poll();
    }
    converge(&mut svc, &mut viewers);
    for viewer in &viewers {
        let stats = viewer.stats();
        println!(
            "viewer applied {} keyframe(s) and {} live commands",
            stats.keyframes_applied, stats.commands_applied
        );
    }
    assert_eq!(
        viewers[0].fingerprint(),
        Some(svc.dv().screen_fingerprint()),
        "remote display must match the server exactly"
    );
    let pda = viewers[1]
        .framebuffer()
        .expect("scaled viewer has a screen");
    assert_eq!((pda.width(), pda.height()), (512, 384));
    assert_eq!(
        viewers[1].fingerprint(),
        svc.output_fingerprint(1, 2),
        "scaled display must match the server's half-size output"
    );
    println!("both remote framebuffers match the server: OK");

    // Input rides the wire back: the annotation combo, pressed on the
    // remote keyboard, tags the server-side selection.
    svc.dv_mut()
        .desktop_mut()
        .set_selection(app, win, "throughput nominal");
    viewers[0].send_input(&InputEvent::Key {
        ch: 'a',
        ctrl: true,
        alt: true,
    });
    converge(&mut svc, &mut viewers);
    assert!(svc.dv_mut().desktop_mut().selection().is_none());
    println!("remote keystroke annotated the selection: OK");

    // The Figure 1 widgets drive the same session.
    let dv = svc.dv_mut();
    let mut ui = ViewerUi::new();
    let results = ui
        .search_button(dv, "metric throughput", RankOrder::Chronological)
        .unwrap();
    println!("search button: {} gallery entries", results.len());
    let shot = ui.open_result(dv, 0).unwrap();
    println!(
        "opened result 0 at {} ({}x{} screenshot)",
        ui.position(dv),
        shot.width,
        shot.height
    );
    // Revive requires a checkpoint at or before the displayed time; the
    // text first appeared before the first checkpoint, so slide forward
    // to a recorded moment past it.
    ui.slider_seek(dv, dv_time::Timestamp::from_secs(3))
        .unwrap();
    let session = ui.take_me_back_button(dv).unwrap();
    println!(
        "take me back: revived session {} from checkpoint {}",
        session,
        dv.session(session).unwrap().counter
    );
}
