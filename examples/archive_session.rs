//! Session archives: records outlive the recorder (§1's premise that
//! everything a user has seen is kept, which requires surviving
//! restarts).
//!
//! Records a session, saves everything — display record, text index,
//! checkpoint store, file system log — to one archive, "restarts" into
//! a fresh server, and shows that browse, search, revive, and continued
//! recording all work on the reopened history.
//!
//! Run with: `cargo run --example archive_session`

use dejaview::{Config, DejaView};
use dv_access::Role;
use dv_display::{rgb, Rect};
use dv_index::RankOrder;
use dv_lsfs::Filesystem;
use dv_time::{Duration, Timestamp};
use dv_vee::Prot;

fn main() {
    // --- Day one: record a session. -------------------------------------
    let mut dv = DejaView::new(Config::default());
    let clock = dv.clock();
    let init = dv.init_vpid();
    dv.vee_mut().spawn(Some(init), "editor").unwrap();
    dv.vee_mut().fs.mkdir_all("/home/user").unwrap();
    dv.vee_mut()
        .fs
        .write_all("/home/user/thesis.txt", b"chapter one: introduction")
        .unwrap();

    let app = dv.desktop_mut().register_app("editor");
    let root = dv.desktop_mut().root(app).unwrap();
    let win = dv
        .desktop_mut()
        .add_node(app, root, Role::Window, "thesis.txt - editor");
    dv.desktop_mut()
        .add_node(app, win, Role::Paragraph, "chapter one introduction draft");
    dv.driver_mut()
        .fill_rect(Rect::new(0, 0, 1024, 768), rgb(20, 24, 28));
    dv.driver_mut()
        .draw_text(20, 20, "chapter one: introduction", 0xFFFFFF, 0);
    clock.advance(Duration::from_secs(1));
    dv.policy_tick().unwrap();

    let archive = dv.save_archive().unwrap();
    println!(
        "archived {} bytes after {} of recording ({} checkpoints)",
        archive.len(),
        dv.now(),
        dv.engine().images().count()
    );
    drop(dv); // The recorder "shuts down".

    // --- Day two: reopen the archive in a fresh server. -----------------
    let mut dv = DejaView::load_archive(Config::default(), &archive).unwrap();
    println!("restored; session clock resumes at {}", dv.now());

    // Browse the archived display record.
    let shot = dv.browse(Timestamp::from_millis(500)).unwrap();
    println!("browse t=0.5s: {}x{} screenshot", shot.width, shot.height);

    // Search the archived index.
    let results = dv
        .search("\"chapter one\" introduction", RankOrder::Chronological)
        .unwrap();
    println!("phrase search: {} hit(s)", results.len());

    // Revive from the archived checkpoint: process forest + files.
    let sid = dv.take_me_back(Timestamp::from_secs(1)).unwrap();
    let session = dv.session(sid).unwrap();
    println!(
        "revived session {} from archived checkpoint {}: thesis.txt = {:?}",
        sid,
        session.counter,
        String::from_utf8_lossy(&session.vee.fs.read_all("/home/user/thesis.txt").unwrap())
    );

    // And recording continues into the same history: a process started
    // after the restore is checkpointed — in full, as the restored
    // engine has no dirty-page state to chain onto — and revives with
    // exactly the memory it wrote.
    let init = dv.init_vpid();
    let app = dv.vee_mut().spawn(Some(init), "notes").unwrap();
    let addr = dv.vee_mut().mmap(app, 16 << 10, Prot::ReadWrite).unwrap();
    dv.vee_mut()
        .mem_write(app, addr, b"written after the restore")
        .unwrap();
    dv.driver_mut()
        .fill_rect(Rect::new(0, 0, 1024, 768), rgb(60, 24, 28));
    dv.clock().advance(Duration::from_secs(1));
    let report = dv.policy_tick().unwrap().report.expect("active display");
    let written = dv.vee().mem_read(app, addr, 16 << 10).unwrap();
    let sid = dv.revive_counter(report.counter).unwrap();
    let revived = dv.session(sid).unwrap().vee.mem_read(app, addr, 16 << 10);
    assert!(report.full, "the first checkpoint after a restore is full");
    assert!(
        revived.unwrap() == written,
        "the revive reads back what was written"
    );
    println!(
        "continued recording: checkpoint #{} (full) taken after restore revives the new process's memory",
        report.counter
    );
}
