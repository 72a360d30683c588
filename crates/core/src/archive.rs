//! Session archives: DejaView records across restarts.
//!
//! "Leveraging continued exponential improvements in storage capacity,
//! DejaView records what a user has seen" (§1) — which presumes the
//! records outlive the recorder process. A *session archive* bundles
//! everything needed to reopen a record: the display record (command
//! log, keyframes, timeline), the open text shard and the open visual
//! strip (each in its sealed-segment payload form), the checkpoint
//! image store — which also holds every sealed index segment and
//! manifest — and the session file system's journaled log. The
//! checkpoint history is not a section: the restored engine rebuilds
//! it from the images in the store, under the blob prefix the header
//! names, and its first checkpoint is full. A restored server can
//! browse, search, **and revive** from the archived history, then
//! continue recording into it.
//!
//! Live runtime state — revived sessions, open descriptors, the
//! accessibility mirror — is not archived; it is rebuilt as applications
//! register, exactly as after a reboot of the original system.

use dv_fault::{Put, ReadError, Reader};
use dv_lsfs::Lsfs;
use dv_obs::names;
use dv_record::{decode_record, encode_record};
use dv_time::Timestamp;

use crate::config::Config;
use crate::error::ServerError;
use crate::server::DejaView;

/// `DVARC001` archives lack the open-strip section and `DVARC002`
/// ones carry an engine-metadata section; both are rejected.
const MAGIC: &[u8; 8] = b"DVARC003";

/// An archive decoding error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArchiveError(pub &'static str);

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session archive error: {}", self.0)
    }
}

impl std::error::Error for ArchiveError {}

impl From<ArchiveError> for ServerError {
    fn from(e: ArchiveError) -> Self {
        dv_lsfs::SegmentError::Failed(e.to_string()).into()
    }
}

impl From<ReadError> for ArchiveError {
    fn from(e: ReadError) -> Self {
        ArchiveError(e.as_str())
    }
}

impl DejaView {
    /// Serializes the session's records into an archive.
    ///
    /// # Errors
    ///
    /// Propagates file system errors from the final sync.
    pub fn save_archive(&mut self) -> Result<Vec<u8>, ServerError> {
        // Deferred checkpoint commits must land before the store is
        // exported, or the archive would miss images still in flight.
        self.flush_checkpoints()?;
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u32(self.screen_size().0);
        out.put_u32(self.screen_size().1);
        out.put_u64(self.now().as_nanos());
        out.put_str_u32(self.engine().blob_prefix());
        // Display record.
        let record_bytes = {
            let record = self.record();
            let store = record.read();
            encode_record(&store)
        };
        out.put_bytes_u64(&record_bytes);
        // The open buffers no seal has made durable yet, under the
        // server's retry policy: the text shard with its horizon at save
        // time (its flush passes the fault plane), then the visual strip
        // (empty when recall is off).
        for at in 0..self.logs().len() {
            let section =
                self.with_retry("index-flush", names::SERVER_INDEX_FLUSH_RETRIES, |dv| {
                    dv.sync_text_horizon();
                    dv.logs()[at]
                        .1
                        .map_or(Ok(Vec::new()), |log| log.export_open())
                })?;
            out.put_bytes_u64(&section);
        }
        // Checkpoint images and sealed segments.
        let blob_bytes = self.store_mut().export();
        out.put_bytes_u64(&blob_bytes);
        // Session file system.
        let fs_bytes = self.session_fs_handle().with(|fs| fs.save())?;
        out.put_bytes_u64(&fs_bytes);
        Ok(out)
    }

    /// Reopens an archived session: a fresh server (built from `config`,
    /// with the archive's screen size and clock position) whose display
    /// record, text index, visual strips, checkpoint history, and file
    /// system are restored. The returned server can browse, search, revive, and
    /// continue recording. Its engine rebuilds the history from the
    /// archived images ([`Checkpointer::reopen`]), so its first
    /// checkpoint is full.
    ///
    /// [`Checkpointer::reopen`]: dv_checkpoint::Checkpointer::reopen
    ///
    /// # Errors
    ///
    /// Returns an error if any archive section is corrupt.
    pub fn load_archive(mut config: Config, buf: &[u8]) -> Result<DejaView, ServerError> {
        let mut r = Reader::new(buf);
        let archive = |e: ReadError| ServerError::from(ArchiveError::from(e));
        r.magic(MAGIC).map_err(archive)?;
        config.width = r.u32().map_err(archive)?;
        config.height = r.u32().map_err(archive)?;
        // Every component sizes a framebuffer from these two fields, so
        // they are checked before any component is built.
        let plausible = 1..=dv_record::MAX_SCREEN_SIDE;
        if !plausible.contains(&config.width) || !plausible.contains(&config.height) {
            return Err(ArchiveError("implausible screen size").into());
        }
        let now = Timestamp::from_nanos(r.u64().map_err(archive)?);
        let blob_prefix = r.str_u32().map_err(archive)?;

        let record = decode_record(r.bytes_u64().map_err(archive)?)
            .map_err(|_| ArchiveError("corrupt display record"))?;
        let open_buffers = [
            r.bytes_u64().map_err(archive)?,
            r.bytes_u64().map_err(archive)?,
        ];
        let blob_bytes = r.bytes_u64().map_err(archive)?;
        let fs = Lsfs::load(r.bytes_u64().map_err(archive)?)
            .map_err(|_| ArchiveError("corrupt file system"))?;
        r.finish().map_err(archive)?;

        let mut dv = DejaView::with_clock(config, dv_time::SimClock::starting_at(now));
        dv.install_record(record);
        if dv.store_mut().import(blob_bytes).is_none() {
            return Err(ArchiveError("corrupt checkpoint store").into());
        }
        dv.install_session_fs(fs);
        // Checkpoint images, sealed text and visual segments and their
        // manifests travel inside the blob store export: rebuild the
        // checkpoint history from the images, and both index layouts
        // from the newest manifests so queries span the archive, then
        // the open buffers beside them.
        dv.reopen_checkpoints(blob_prefix);
        for ((_, log), open) in dv.logs().into_iter().zip(open_buffers) {
            let Some(log) = log else { continue };
            log.recover_latest()?;
            if !open.is_empty() {
                log.restore_open(open)?;
            }
        }
        // The accessibility state that would close the open shard's
        // instances is not archived: whatever was on screen at the save
        // leaves it there, as at a reboot.
        dv.index().lock().close_all(now);
        Ok(dv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_access::Role;
    use dv_display::Rect;
    use dv_index::RankOrder;
    use dv_lsfs::Filesystem;
    use dv_time::Duration;
    use dv_vee::Vpid;

    fn recorded_server() -> DejaView {
        recorded_server_with(Config::default())
    }

    fn recorded_server_with(config: Config) -> DejaView {
        let mut dv = DejaView::new(config);
        let init = dv.init_vpid();
        dv.vee_mut().spawn(Some(init), "editor").unwrap();
        dv.vee_mut().fs.mkdir_all("/home").unwrap();
        dv.vee_mut()
            .fs
            .write_all("/home/doc", b"archived draft")
            .unwrap();
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        let win = dv.desktop_mut().add_node(app, root, Role::Window, "w");
        dv.desktop_mut()
            .add_node(app, win, Role::Paragraph, "archive target phrase");
        dv.driver_mut()
            .fill_rect(Rect::new(0, 0, 1024, 768), 0x445566);
        dv.clock().advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        dv.driver_mut()
            .fill_rect(Rect::new(0, 0, 512, 768), 0x778899);
        dv.clock().advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        dv
    }

    #[test]
    fn archive_restores_browse_search_and_revive() {
        let mut original = recorded_server();
        let archive = original.save_archive().unwrap();
        let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();

        // Browse reproduces the recorded screen.
        let a = original.browse(Timestamp::from_millis(1_500)).unwrap();
        let b = restored.browse(Timestamp::from_millis(1_500)).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());

        // Search works over the archived index.
        let hits = restored
            .search("archive phrase", RankOrder::Chronological)
            .unwrap();
        assert_eq!(hits.len(), 1);

        // Revive works from archived checkpoints + file system.
        let sid = restored.take_me_back(Timestamp::from_secs(2)).unwrap();
        let session = restored.session(sid).unwrap();
        assert_eq!(
            session.vee.fs.read_all("/home/doc").unwrap(),
            b"archived draft"
        );
        assert_eq!(session.vee.process(Vpid(2)).unwrap().name, "editor");
    }

    /// A stored image says whether it is compressed, so an archive
    /// written under `engine.compress` revives under a reader whose
    /// config never mentions it (this used to fail with
    /// `BadImage("bad magic")`).
    #[test]
    fn compressed_archive_revives_under_a_default_config() {
        let mut original = recorded_server_with(Config {
            engine: dv_checkpoint::EngineConfig {
                compress: true,
                ..dv_checkpoint::EngineConfig::default()
            },
            ..Config::default()
        });
        let archive = original.save_archive().unwrap();
        let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
        let sid = restored.take_me_back(Timestamp::from_secs(2)).unwrap();
        let session = restored.session(sid).unwrap();
        assert_eq!(
            session.vee.fs.read_all("/home/doc").unwrap(),
            b"archived draft"
        );
        assert_eq!(session.vee.process(Vpid(2)).unwrap().name, "editor");
    }

    /// The header's screen size reaches every framebuffer constructor,
    /// so a damaged one is refused before anything is built: a zero
    /// side used to panic, a huge one to overflow `width * height` or
    /// abort on the allocation.
    #[test]
    fn implausible_screen_sizes_are_refused() {
        let archive = recorded_server().save_archive().unwrap();
        for (at, bytes) in [
            (8, 0u32.to_le_bytes()),
            (12, 0u32.to_le_bytes()),
            (8, u32::MAX.to_le_bytes()),
            (12, 0x0001_0000u32.to_le_bytes()),
        ] {
            let mut damaged = archive.clone();
            damaged[at..at + 4].copy_from_slice(&bytes);
            assert!(DejaView::load_archive(Config::default(), &damaged).is_err());
        }
    }

    /// The open visual strip — keyframes no seal has made durable —
    /// travels in the archive like the open text shard, and its id
    /// allocator continues instead of restarting at 0.
    #[test]
    fn archive_carries_the_open_visual_strip() {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            ..Config::default()
        });
        dv.driver_mut().fill_rect(Rect::new(0, 0, 64, 64), 0x101010);
        dv.driver_mut().fill_rect(Rect::new(8, 8, 24, 24), 0xFF0000);
        dv.clock().advance(Duration::from_secs(1));
        dv.policy_tick().unwrap();
        dv.force_keyframe();
        let probe = dv.browse(Timestamp::from_secs(1)).unwrap();
        let before = dv.visual_hits(&probe, 4).unwrap();
        let open_before = dv.vidx().unwrap().stats().open_instances;
        assert!(!before.is_empty() && open_before > 0, "nothing sealed yet");

        let archive = dv.save_archive().unwrap();
        let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
        assert_eq!(restored.visual_hits(&probe, 4).unwrap(), before);
        assert_eq!(restored.vidx().unwrap().stats().open_instances, open_before);
        // A new scene allocates past every restored instance id.
        restored
            .driver_mut()
            .fill_rect(Rect::new(32, 32, 24, 24), 0x00FF00);
        restored.clock().advance(Duration::from_secs(1));
        restored.force_keyframe();
        let fresh = restored.browse(restored.now()).unwrap();
        let hit = restored.visual_hits(&fresh, 1).unwrap().remove(0);
        assert_eq!(hit.distance, 0);
        assert!(
            before.iter().all(|h| h.id < hit.id),
            "{before:?} vs {hit:?}"
        );
    }

    /// The open text shard — instances no seal has made durable yet —
    /// travels in the archive like the open strip, and the capture
    /// daemon's allocator continues past every restored id, open or
    /// sealed.
    #[test]
    fn archive_carries_the_open_text_shard() {
        let mut dv = DejaView::new(Config {
            width: 64,
            height: 64,
            index_shard_window: Duration::from_secs(1),
            ..Config::default()
        });
        let app = dv.desktop_mut().register_app("editor");
        let root = dv.desktop_mut().root(app).unwrap();
        let closed = dv
            .desktop_mut()
            .add_node(app, root, Role::Paragraph, "sealed phrase");
        dv.clock().advance(Duration::from_secs(1));
        dv.desktop_mut().remove_subtree(app, closed);
        dv.clock().advance(Duration::from_secs(1));
        dv.checkpoint_now().unwrap();
        dv.desktop_mut()
            .add_node(app, root, Role::Paragraph, "open phrase");
        dv.clock().advance(Duration::from_secs(1));
        let tidx = dv.tidx().unwrap();
        assert_eq!(tidx.log().layout().live.len(), 1, "the closed one sealed");
        let open_ids = |dv: &DejaView| -> Vec<u64> {
            let mut ids: Vec<u64> = dv.index().lock().all_instances().map(|i| i.id).collect();
            ids.sort_unstable();
            ids
        };
        let open_before = open_ids(&dv);
        let every_id = tidx.log().with_shards(
            None,
            |_| true,
            |shards| {
                let all = shards.iter().flat_map(|shard| shard.all_instances());
                all.map(|i| i.id).max()
            },
        );
        let max_before = every_id.unwrap().expect("instances were captured");
        assert!(!open_before.is_empty() && open_before.last() == Some(&max_before));

        let archive = dv.save_archive().unwrap();
        let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
        assert_eq!(open_ids(&restored), open_before);
        for phrase in ["open phrase", "sealed phrase"] {
            let query = dv_index::parse_query(phrase).unwrap();
            let hits = restored.search_hits(&query, RankOrder::Chronological);
            assert_eq!(hits.unwrap().len(), 1, "{phrase}");
        }
        // A new capture allocates past every restored instance id.
        let app = restored.desktop_mut().register_app("editor");
        let root = restored.desktop_mut().root(app).unwrap();
        restored
            .desktop_mut()
            .add_node(app, root, Role::Paragraph, "fresh phrase");
        let index = restored.index();
        let fresh = index.lock().all_instances().map(|i| i.id).max().unwrap();
        assert!(fresh > max_before, "{fresh} after {max_before}");
        assert!(index
            .lock()
            .instance(fresh)
            .is_some_and(|i| i.text.contains("fresh")));
    }

    #[test]
    fn restored_server_continues_recording() {
        let mut original = recorded_server();
        let archive = original.save_archive().unwrap();
        let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
        // The clock resumed where the archive left off; new activity
        // appends to the same record with increasing counters.
        assert_eq!(restored.now(), Timestamp::from_secs(2));
        restored
            .driver_mut()
            .fill_rect(Rect::new(0, 0, 1024, 768), 0xABCDEF);
        restored.clock().advance(Duration::from_secs(1));
        let tick = restored.policy_tick().unwrap();
        let report = tick.report.expect("checkpoint");
        assert_eq!(report.counter, 3, "counter continues after restore");
        // And the new moment is browsable.
        let shot = restored.browse(Timestamp::from_secs(3)).unwrap();
        assert!(shot.pixels.contains(&0xABCDEF));
    }

    /// Live accessibility state is not archived, so text on screen at
    /// the save leaves the screen there, and so does focus: the restored
    /// session's applications register again and show what they show.
    #[test]
    fn text_open_at_the_save_closes_at_the_saved_horizon() {
        let shows = |dv: &mut DejaView, text: &str| {
            let app = dv.desktop_mut().register_app("editor");
            let root = dv.desktop_mut().root(app).unwrap();
            let win = dv.desktop_mut().add_node(app, root, Role::Window, "w");
            dv.desktop_mut().add_node(app, win, Role::Paragraph, text);
            app
        };
        let mut original = DejaView::new(Config::default());
        let app = shows(&mut original, "alpha line");
        original.desktop_mut().focus(app);
        original.clock().advance(Duration::from_secs(1));
        original.policy_tick().unwrap();
        let archive = original.save_archive().unwrap();
        let mut restored = DejaView::load_archive(Config::default(), &archive).unwrap();
        restored.clock().advance(Duration::from_secs(2));
        shows(&mut restored, "beta line");
        restored.clock().advance(Duration::from_secs(7));
        restored.policy_tick().unwrap();

        let hits = |dv: &mut DejaView, query: &str| {
            let query = dv_index::parse_query(query).unwrap();
            let hits = dv.search_hits(&query, RankOrder::Chronological).unwrap();
            hits.iter().map(|h| (h.time, h.until)).collect::<Vec<_>>()
        };
        let secs = Timestamp::from_secs;
        assert_eq!(hits(&mut restored, "alpha"), [(secs(0), secs(1))]);
        assert_eq!(hits(&mut restored, "beta"), [(secs(3), secs(10))]);
        assert_eq!(hits(&mut restored, "focused: alpha"), [(secs(0), secs(1))]);
        assert_eq!(hits(&mut restored, "focused: beta"), []);
    }

    #[test]
    fn corrupt_archives_are_rejected() {
        let mut original = recorded_server();
        let archive = original.save_archive().unwrap();
        assert!(DejaView::load_archive(Config::default(), b"junk").is_err());
        // The previous formats (no open-strip section, an engine
        // section) are refused by their magic, not misparsed.
        for old in [b"DVARC001", b"DVARC002"] {
            let mut old_magic = archive.clone();
            old_magic[..8].copy_from_slice(old);
            assert!(DejaView::load_archive(Config::default(), &old_magic).is_err());
        }
        assert!(DejaView::load_archive(Config::default(), &archive[..archive.len() / 3]).is_err());
        let mut extra = archive.clone();
        extra.push(0);
        assert!(DejaView::load_archive(Config::default(), &extra).is_err());
    }
}
