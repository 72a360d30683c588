//! The bridge from the capture daemon to the text index.
//!
//! Includes FOCAL-style capture-time filtering: a text state whose
//! content fingerprint is already visible on screen is skipped before
//! it ever reaches the index, so a workload that re-renders the same
//! screen costs no index growth (the lineage is FOCAL's
//! redundant-state suppression; see PAPERS.md). Suppressed captures
//! coalesce into the one indexed representative of their fingerprint,
//! which stays open until the *last* capture showing that content
//! hides — so visible content is always searchable even when several
//! nodes showed the same text.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dv_access::{AppId, Role, TextInstance, TextSink};
use dv_index::{IndexedInstance, TextIndex};
use dv_obs::{names, Obs};
use dv_time::Timestamp;

/// Returns the index tag for an accessibility role — the "special
/// properties about the text (e.g. if it is a menu item or an HTML
/// link)" §4.2 captures.
pub fn role_tag(role: Role) -> &'static str {
    match role {
        Role::Application => "application",
        Role::Window => "window",
        Role::Document => "document",
        Role::Paragraph => "paragraph",
        Role::MenuItem => "menuitem",
        Role::Link => "link",
        Role::Button => "button",
        Role::TextInput => "textinput",
        Role::Label => "label",
        Role::Terminal => "terminal",
    }
}

/// Content fingerprint of a captured text state (FNV-1a over the
/// fields that determine what the user saw).
fn fingerprint(instance: &TextInstance) -> u64 {
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = eat(h, &instance.app.0.to_le_bytes());
    h = eat(h, instance.window.as_bytes());
    h = eat(h, &[instance.role as u8]);
    eat(h, instance.text.as_bytes())
}

/// The live captures sharing one content fingerprint: the indexed
/// representative and how many shown-but-not-yet-hidden captures
/// (including the representative) it stands in for.
struct FpGroup {
    rep: u64,
    members: usize,
}

/// A [`TextSink`] writing into a shared [`TextIndex`].
pub struct IndexSink {
    index: Arc<Mutex<TextIndex>>,
    /// Fingerprint → its live group. An incoming state matching a live
    /// fingerprint is redundant: that content is already on screen and
    /// indexed.
    live: HashMap<u64, FpGroup>,
    /// Capture id → the fingerprint group it belongs to (suppressed
    /// ids included, so their hide events keep the group's count
    /// honest).
    by_id: HashMap<u64, u64>,
    obs: Obs,
}

impl IndexSink {
    /// Creates a sink over the shared index.
    pub fn new(index: Arc<Mutex<TextIndex>>) -> Self {
        IndexSink {
            index,
            live: HashMap::new(),
            by_id: HashMap::new(),
            obs: Obs::disabled(),
        }
    }

    /// Installs the observability handle (`tidx.filtered` /
    /// `tidx.ingested` accounting).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}

impl TextSink for IndexSink {
    fn text_shown(&mut self, instance: TextInstance) {
        // Annotations are deliberate user actions, never redundant.
        if !instance.annotation {
            let fp = fingerprint(&instance);
            if let Some(group) = self.live.get_mut(&fp) {
                // Identical content is already visible — a re-capture
                // of the same node, or a second node showing the same
                // text. The representative keeps covering it.
                group.members += 1;
                self.by_id.insert(instance.id, fp);
                self.obs.incr(names::TIDX_FILTERED);
                return;
            }
            self.live.insert(
                fp,
                FpGroup {
                    rep: instance.id,
                    members: 1,
                },
            );
            self.by_id.insert(instance.id, fp);
        }
        self.obs.incr(names::TIDX_INGESTED);
        self.index.lock().add_instance(IndexedInstance {
            id: instance.id,
            app_id: instance.app.0,
            app: instance.app_name,
            window: instance.window,
            role: role_tag(instance.role).to_string(),
            text: instance.text,
            shown: instance.time,
            hidden: None,
            annotation: instance.annotation,
        });
    }

    fn text_hidden(&mut self, id: u64, time: Timestamp) {
        if let Some(fp) = self.by_id.remove(&id) {
            if let Some(group) = self.live.get_mut(&fp) {
                group.members -= 1;
                if group.members > 0 {
                    // The same content is still on screen via another
                    // live capture; the representative stays open so
                    // visible content remains searchable.
                    return;
                }
                let rep = group.rep;
                self.live.remove(&fp);
                self.index.lock().close_instance(rep, time);
                return;
            }
        }
        self.index.lock().close_instance(id, time);
    }

    fn focus_changed(&mut self, app: AppId, time: Timestamp) {
        self.index.lock().focus_change(app.0, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_feeds_the_index() {
        let index = Arc::new(Mutex::new(TextIndex::new()));
        let mut sink = IndexSink::new(index.clone());
        sink.text_shown(TextInstance {
            id: 1,
            time: Timestamp::from_secs(1),
            app: AppId(7),
            app_name: "firefox".into(),
            window: "tab".into(),
            role: Role::Link,
            text: "click here".into(),
            annotation: false,
        });
        sink.text_hidden(1, Timestamp::from_secs(5));
        sink.focus_changed(AppId(7), Timestamp::from_secs(2));
        let index = index.lock();
        let hits = index.term_instances("click");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].app, "firefox");
        assert_eq!(hits[0].role, "link");
        assert_eq!(hits[0].hidden, Some(Timestamp::from_secs(5)));
        assert_eq!(index.focus_history(), &[(7, Timestamp::from_secs(2))]);
    }

    fn shown(id: u64, secs: u64, text: &str) -> TextInstance {
        TextInstance {
            id,
            time: Timestamp::from_secs(secs),
            app: AppId(7),
            app_name: "firefox".into(),
            window: "tab".into(),
            role: Role::Paragraph,
            text: text.into(),
            annotation: false,
        }
    }

    #[test]
    fn redundant_states_are_filtered_at_capture_time() {
        let index = Arc::new(Mutex::new(TextIndex::new()));
        let obs = Obs::wall(dv_time::SimClock::new().shared());
        let mut sink = IndexSink::new(index.clone());
        sink.set_obs(obs.clone());
        // The same display state re-captured three times: one instance.
        sink.text_shown(shown(1, 1, "same content"));
        sink.text_shown(shown(2, 2, "same content"));
        sink.text_shown(shown(3, 3, "same content"));
        // Different content indexes normally.
        sink.text_shown(shown(4, 4, "new content"));
        assert_eq!(index.lock().stats().instances, 2);
        assert_eq!(obs.counter(names::TIDX_FILTERED), 2);
        assert_eq!(obs.counter(names::TIDX_INGESTED), 2);
        // Hiding the last copy retires its fingerprint: the re-shown
        // state is a new visibility interval, not a redundant capture.
        sink.text_hidden(4, Timestamp::from_secs(5));
        sink.text_shown(shown(5, 6, "new content"));
        assert_eq!(index.lock().stats().instances, 3);
        // Closing a filtered instance id is harmless (the daemon may
        // hide an instance the filter never indexed).
        sink.text_hidden(2, Timestamp::from_secs(7));
        assert_eq!(obs.counter(names::TIDX_FILTERED), 2);
    }

    /// Two distinct nodes showing identical content coalesce into one
    /// indexed instance that stays open until the *last* copy hides —
    /// visible content must never become unsearchable because an
    /// identical sibling was filtered.
    #[test]
    fn duplicate_content_stays_visible_until_the_last_copy_hides() {
        let index = Arc::new(Mutex::new(TextIndex::new()));
        let mut sink = IndexSink::new(index.clone());
        sink.text_shown(shown(1, 1, "dup content"));
        sink.text_shown(shown(2, 1, "dup content"));
        // The first node hides; the duplicate is still on screen.
        sink.text_hidden(1, Timestamp::from_secs(5));
        {
            let idx = index.lock();
            let hits = idx.term_instances("dup");
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].hidden, None, "content is still on screen");
        }
        // The last copy hiding closes the coalesced instance there.
        sink.text_hidden(2, Timestamp::from_secs(9));
        let idx = index.lock();
        assert_eq!(
            idx.term_instances("dup")[0].hidden,
            Some(Timestamp::from_secs(9))
        );
    }

    /// The filter keys per fingerprint, not on the single most recent
    /// capture, so a multi-node screen re-captured wholesale still
    /// dedups every node.
    #[test]
    fn interleaved_nodes_filter_independently() {
        let index = Arc::new(Mutex::new(TextIndex::new()));
        let obs = Obs::wall(dv_time::SimClock::new().shared());
        let mut sink = IndexSink::new(index.clone());
        sink.set_obs(obs.clone());
        sink.text_shown(shown(1, 1, "pane left"));
        sink.text_shown(shown(2, 1, "pane right"));
        // A re-capture of the whole screen: both states are redundant
        // even though neither was the most recent capture.
        sink.text_shown(shown(3, 2, "pane left"));
        sink.text_shown(shown(4, 2, "pane right"));
        assert_eq!(index.lock().stats().instances, 2);
        assert_eq!(obs.counter(names::TIDX_FILTERED), 2);
    }

    #[test]
    fn role_tags_are_distinct() {
        let all = [
            Role::Application,
            Role::Window,
            Role::Document,
            Role::Paragraph,
            Role::MenuItem,
            Role::Link,
            Role::Button,
            Role::TextInput,
            Role::Label,
            Role::Terminal,
        ];
        let tags: std::collections::HashSet<&str> = all.iter().map(|r| role_tag(*r)).collect();
        assert_eq!(tags.len(), all.len());
    }
}
