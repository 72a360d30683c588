//! Session archives: DejaView records across restarts.
//!
//! "Leveraging continued exponential improvements in storage capacity,
//! DejaView records what a user has seen" (§1) — which presumes the
//! records outlive the recorder process. A *session archive* bundles
//! everything needed to reopen a record: the display record (command
//! log, keyframes, timeline), the open text shard and the open visual
//! strip (each in its sealed-segment payload form), the checkpoint
//! image store — which also holds every sealed index segment and
//! manifest — and the engine's image metadata, and the session file
//! system's journaled log. A restored server can browse, search, **and revive**
//! from the archived history, then continue recording into it.
//!
//! Live runtime state — revived sessions, open descriptors, the
//! accessibility mirror — is not archived; it is rebuilt as applications
//! register, exactly as after a reboot of the original system.

use bytes::{Buf, BufMut};

use dv_lsfs::Lsfs;
use dv_record::{decode_record, encode_record};
use dv_time::Timestamp;

use crate::config::Config;
use crate::error::ServerError;
use crate::server::DejaView;

/// `DVARC001` archives lack the open-strip section and are rejected.
const MAGIC: &[u8; 8] = b"DVARC002";

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

fn put_section(out: &mut Vec<u8>, data: &[u8]) {
    out.put_u64_le(data.len() as u64);
    out.extend_from_slice(data);
}

fn get_section<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], ArchiveError> {
    if buf.len() < 8 {
        return Err(ArchiveError("truncated section length"));
    }
    let len = buf.get_u64_le() as usize;
    if buf.len() < len {
        return Err(ArchiveError("truncated section"));
    }
    let (data, rest) = buf.split_at(len);
    *buf = rest;
    Ok(data)
}

impl DejaView {
    /// Serializes the session's records into an archive.
    ///
    /// # Errors
    ///
    /// Propagates file system errors from the final sync.
    pub fn save_archive(&mut self) -> Result<Vec<u8>, ServerError> {
        // Deferred checkpoint commits must land before the store and the
        // engine metadata are exported, or the archive would reference
        // images that are still in flight.
        self.flush_checkpoints()?;
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u32_le(self.screen_size().0);
        out.put_u32_le(self.screen_size().1);
        out.put_u64_le(self.now().as_nanos());
        // Display record.
        let record_bytes = {
            let record = self.record();
            let store = record.read();
            encode_record(&store)
        };
        put_section(&mut out, &record_bytes);
        // The two open buffers no seal has made durable yet: the text
        // shard, flushed through the fault plane with the server's
        // retry policy, and the visual strip (empty when recall is off).
        let index_bytes = self.flush_index_with_retry()?;
        put_section(&mut out, &index_bytes);
        let strip_bytes = self.vidx().map_or(Vec::new(), |v| v.export_open());
        put_section(&mut out, &strip_bytes);
        // Checkpoint blobs + engine metadata.
        let blob_bytes = self.store_mut().export();
        put_section(&mut out, &blob_bytes);
        let engine_bytes = self.engine().export_meta();
        put_section(&mut out, &engine_bytes);
        // Session file system.
        let fs_bytes = self.session_fs_handle().with(|fs| fs.save())?;
        put_section(&mut out, &fs_bytes);
        Ok(out)
    }

    /// Reopens an archived session: a fresh server (built from `config`,
    /// with the archive's screen size and clock position) whose display
    /// record, text index, checkpoint history, and file system are
    /// restored. The returned server can browse, search, revive, and
    /// continue recording.
    ///
    /// # Errors
    ///
    /// Returns an error if any archive section is corrupt.
    pub fn load_archive(mut config: Config, mut buf: &[u8]) -> Result<DejaView, ServerError> {
        if buf.len() < 8 || &buf[..8] != MAGIC {
            return Err(ArchiveError("bad magic").into());
        }
        buf.advance(8);
        if buf.len() < 16 {
            return Err(ArchiveError("truncated header").into());
        }
        config.width = buf.get_u32_le();
        config.height = buf.get_u32_le();
        // Every component sizes a framebuffer from these two fields, so
        // they are checked before any component is built.
        let plausible = 1..=dv_record::MAX_SCREEN_SIDE;
        if !plausible.contains(&config.width) || !plausible.contains(&config.height) {
            return Err(ArchiveError("implausible screen size").into());
        }
        let now = Timestamp::from_nanos(buf.get_u64_le());

        let record_bytes = get_section(&mut buf)?;
        let record =
            decode_record(record_bytes).map_err(|_| ArchiveError("corrupt display record"))?;
        let index_bytes = get_section(&mut buf)?;
        let index =
            dv_index::decode_index(index_bytes).map_err(|_| ArchiveError("corrupt text index"))?;
        let strip_bytes = get_section(&mut buf)?;
        let blob_bytes = get_section(&mut buf)?.to_vec();
        let engine_bytes = get_section(&mut buf)?.to_vec();
        let fs_bytes = get_section(&mut buf)?;
        let fs = Lsfs::load(fs_bytes).map_err(|_| ArchiveError("corrupt file system"))?;
        if !buf.is_empty() {
            return Err(ArchiveError("trailing bytes").into());
        }

        let mut dv = DejaView::with_clock(config, dv_time::SimClock::starting_at(now));
        dv.install_record(record);
        dv.install_index(index);
        if dv.store_mut().import(&blob_bytes).is_none() {
            return Err(ArchiveError("corrupt checkpoint store").into());
        }
        if dv.engine_mut().import_meta(&engine_bytes).is_none() {
            return Err(ArchiveError("corrupt engine metadata").into());
        }
        dv.install_session_fs(fs);
        // Sealed text and visual segments and their manifests travel
        // inside the blob store export; rebuild both layouts from the
        // newest manifests so queries span the archive.
        dv.recover_indexes(strip_bytes)?;
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

    #[test]
    fn corrupt_archives_are_rejected() {
        let mut original = recorded_server();
        let archive = original.save_archive().unwrap();
        assert!(DejaView::load_archive(Config::default(), b"junk").is_err());
        // The previous format (no open-strip section) is refused by
        // its magic, not misparsed.
        let mut old_magic = archive.clone();
        old_magic[..8].copy_from_slice(b"DVARC001");
        assert!(DejaView::load_archive(Config::default(), &old_magic).is_err());
        assert!(DejaView::load_archive(Config::default(), &archive[..archive.len() / 3]).is_err());
        let mut extra = archive.clone();
        extra.push(0);
        assert!(DejaView::load_archive(Config::default(), &extra).is_err());
    }
}
