//! Remote viewing and the viewer UI widgets (§2, §3).
//!
//! DejaView's client-server split means "the desktop can be accessed
//! both locally and remotely". This example streams a live session over
//! a byte channel to a remote viewer (with MTU-sized fragmentation),
//! then drives the Figure 1 widgets — search button, slider, take-me-
//! back — against the same session.
//!
//! Run with: `cargo run --example remote_viewer`

use std::sync::Arc;

use dejaview::{Config, DejaView, ViewerUi};
use dv_access::Role;
use dv_display::{rgb, ByteChannel, Rect, RemoteViewer, StreamEncoder};
use dv_index::RankOrder;
use dv_time::Duration;
use parking_lot::Mutex;

fn main() {
    let mut dv = DejaView::new(Config::default());
    let clock = dv.clock();

    // Attach a wire encoder next to the recorder: the same command
    // stream now feeds the record and the "network".
    let channel = ByteChannel::new();
    dv.driver_mut()
        .attach_sink(Arc::new(Mutex::new(StreamEncoder::new(channel.clone()))));

    // A session produces output.
    let app = dv.desktop_mut().register_app("dashboard");
    let root = dv.desktop_mut().root(app).unwrap();
    let win = dv
        .desktop_mut()
        .add_node(app, root, Role::Window, "metrics - dashboard");
    for i in 0..8u32 {
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
    }
    println!("queued {} bytes on the wire", channel.len());

    // The remote viewer takes the bytes off the channel in MTU-sized
    // chunks, as a network would deliver them, and ends up
    // pixel-identical to the server's screen.
    let mut remote = RemoteViewer::new(1024, 768);
    let mut packet = [0u8; 1400];
    let mut applied = 0;
    while let Ok(n @ 1..) = channel.recv_into(&mut packet) {
        applied += remote.feed(&packet[..n]).unwrap();
    }
    println!("remote viewer applied {applied} commands");
    assert_eq!(
        remote.viewer.screenshot().content_hash(),
        dv.driver_mut().snapshot().content_hash(),
        "remote display must match the server exactly"
    );
    println!("remote framebuffer matches the server: OK");

    // The Figure 1 widgets drive the same session.
    let mut ui = ViewerUi::new();
    let results = ui
        .search_button(&mut dv, "metric throughput", RankOrder::Chronological)
        .unwrap();
    println!("search button: {} gallery entries", results.len());
    let shot = ui.open_result(&mut dv, 0).unwrap();
    println!(
        "opened result 0 at {} ({}x{} screenshot)",
        ui.position(&dv),
        shot.width,
        shot.height
    );
    // Revive requires a checkpoint at or before the displayed time; the
    // text first appeared before the first checkpoint, so slide forward
    // to a recorded moment past it.
    ui.slider_seek(&mut dv, dv_time::Timestamp::from_secs(3))
        .unwrap();
    let session = ui.take_me_back_button(&mut dv).unwrap();
    println!(
        "take me back: revived session {} from checkpoint {}",
        session,
        dv.session(session).unwrap().counter
    );
}
