//! The text-capture daemon.
//!
//! The daemon is the bridge from the accessibility bus to the text index
//! (§4.2): it consumes synchronous events, keeps its [`MirrorTree`]
//! exact, and emits *text visibility intervals* to a [`TextSink`] — when
//! text appears on screen, when it changes, and when it disappears.
//! "By indexing the full state of the desktop's text over time, DejaView
//! is able to access the temporal relationships and state transitions of
//! all displayed text."

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dv_obs::{names, Obs};
use dv_time::{SharedClock, Timestamp};

use crate::mirror::MirrorTree;
use crate::registry::{AccessEvent, AccessListener, AppId};
use crate::tree::{AccessibleTree, NodeId, Role};

/// A text-visibility start record handed to the sink.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TextInstance {
    /// Unique instance id; the matching `text_hidden` carries the same.
    pub id: u64,
    /// When the text appeared.
    pub time: Timestamp,
    /// Owning application.
    pub app: AppId,
    /// Application name ("the name and type of the application that
    /// generated the text").
    pub app_name: String,
    /// Enclosing window title.
    pub window: String,
    /// The component's role (menu item, link, ... — the paper's "special
    /// properties about the text").
    pub role: Role,
    /// The visible text.
    pub text: String,
    /// Whether this is an explicit user annotation.
    pub annotation: bool,
}

/// The consumer of captured text intervals — in the full system, the
/// indexer.
pub trait TextSink: Send {
    /// Text became visible.
    fn text_shown(&mut self, instance: TextInstance);
    /// The instance with `id` stopped being visible at `time`.
    fn text_hidden(&mut self, id: u64, time: Timestamp);
    /// Window focus moved to `app` at `time`.
    fn focus_changed(&mut self, app: AppId, time: Timestamp);
}

/// The capture daemon: an [`AccessListener`] maintaining the mirror and
/// feeding the index.
pub struct CaptureDaemon<S: TextSink> {
    mirror: MirrorTree,
    clock: SharedClock,
    sink: S,
    live: HashMap<(AppId, NodeId), u64>,
    instance_counter: Arc<AtomicU64>,
    obs: Obs,
}

impl<S: TextSink> CaptureDaemon<S> {
    /// Creates a daemon feeding `sink`.
    pub fn new(clock: SharedClock, sink: S) -> Self {
        CaptureDaemon::with_instance_counter(clock, sink, Arc::new(AtomicU64::new(1)))
    }

    /// Creates a daemon whose instance ids come from a shared counter,
    /// so ids stay unique when an archived index (with prior ids) is
    /// reopened.
    pub fn with_instance_counter(
        clock: SharedClock,
        sink: S,
        instance_counter: Arc<AtomicU64>,
    ) -> Self {
        CaptureDaemon {
            mirror: MirrorTree::new(),
            clock,
            sink,
            live: HashMap::new(),
            instance_counter,
            obs: Obs::disabled(),
        }
    }

    /// Installs the observability handle: mirror updates are timed and
    /// emitted intervals counted into the `text.*` metrics.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn emit_shown(
        &mut self,
        app: AppId,
        node: NodeId,
        role: Role,
        text: &str,
        annotation: bool,
        now: Timestamp,
    ) {
        if text.trim().is_empty() {
            return;
        }
        let id = self.instance_counter.fetch_add(1, Ordering::Relaxed);
        let instance = TextInstance {
            id,
            time: now,
            app,
            app_name: self.mirror.app_name(app).unwrap_or("").to_string(),
            window: self.mirror.window_title(app, node),
            role,
            text: text.to_string(),
            annotation,
        };
        self.sink.text_shown(instance);
        self.obs.incr(names::TEXT_SHOWN);
        if annotation {
            self.obs.incr(names::TEXT_ANNOTATIONS);
        } else {
            self.live.insert((app, node), id);
        }
    }

    fn emit_hidden(&mut self, app: AppId, node: NodeId, now: Timestamp) {
        if let Some(id) = self.live.remove(&(app, node)) {
            self.sink.text_hidden(id, now);
            self.obs.incr(names::TEXT_HIDDEN);
        }
    }
}

impl<S: TextSink> AccessListener for CaptureDaemon<S> {
    fn on_event(&mut self, tree: Option<&AccessibleTree>, event: &AccessEvent) {
        self.obs.incr(names::TEXT_EVENTS);
        let _span = self.obs.span("text", names::TEXT_MIRROR_APPLY);
        let now = self.clock.now();
        match event {
            AccessEvent::AppRegistered { app } => {
                if let Some(tree) = tree {
                    self.mirror.mirror_app(*app, tree);
                    // Surface any text the app registered with.
                    let initial: Vec<(NodeId, Role, String)> = self
                        .mirror
                        .iter()
                        .filter(|n| n.app == *app && !n.text.trim().is_empty())
                        .filter(|n| n.role != Role::Application && n.role != Role::Window)
                        .map(|n| (n.id, n.role, n.text.clone()))
                        .collect();
                    for (node, role, text) in initial {
                        self.emit_shown(*app, node, role, &text, false, now);
                    }
                }
            }
            AccessEvent::AppUnregistered { app } => {
                for node in self.mirror.remove_app(*app) {
                    self.emit_hidden(*app, node.id, now);
                }
            }
            AccessEvent::NodeAdded { app, node } => {
                if let Some(tree) = tree {
                    if let Some(mirrored) = self.mirror.mirror_added(*app, *node, tree) {
                        let (role, text) = (mirrored.role, mirrored.text.clone());
                        if role != Role::Application && role != Role::Window {
                            self.emit_shown(*app, *node, role, &text, false, now);
                        }
                    }
                }
            }
            AccessEvent::NodeRemoved { app, node } => {
                for removed in self.mirror.mirror_removed(*app, *node) {
                    self.emit_hidden(*app, removed.id, now);
                }
            }
            AccessEvent::TextChanged { app, node } => {
                if let Some(tree) = tree {
                    if let Some((_old, new)) = self.mirror.mirror_text_changed(*app, *node, tree) {
                        self.emit_hidden(*app, *node, now);
                        let role = self
                            .mirror
                            .node(*app, *node)
                            .map(|n| n.role)
                            .unwrap_or(Role::Label);
                        if role != Role::Application && role != Role::Window {
                            self.emit_shown(*app, *node, role, &new, false, now);
                        }
                    }
                }
            }
            AccessEvent::FocusGained { app } => {
                self.sink.focus_changed(*app, now);
            }
            AccessEvent::SelectionAnnotated { app, node, text } => {
                let text = text.clone();
                self.emit_shown(*app, *node, Role::Label, &text, true, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Desktop;
    use dv_time::SimClock;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A sink recording everything it is told.
    #[derive(Default)]
    struct RecordingSink {
        shown: Vec<TextInstance>,
        hidden: Vec<(u64, Timestamp)>,
        focus: Vec<(AppId, Timestamp)>,
    }

    impl TextSink for Arc<Mutex<RecordingSink>> {
        fn text_shown(&mut self, instance: TextInstance) {
            self.lock().shown.push(instance);
        }
        fn text_hidden(&mut self, id: u64, time: Timestamp) {
            self.lock().hidden.push((id, time));
        }
        fn focus_changed(&mut self, app: AppId, time: Timestamp) {
            self.lock().focus.push((app, time));
        }
    }

    fn setup() -> (Desktop, SimClock, Arc<Mutex<RecordingSink>>) {
        let clock = SimClock::new();
        let sink = Arc::new(Mutex::new(RecordingSink::default()));
        let daemon = CaptureDaemon::new(clock.shared(), sink.clone());
        let mut desktop = Desktop::new();
        desktop.register_listener(Arc::new(Mutex::new(daemon)));
        (desktop, clock, sink)
    }

    #[test]
    fn text_lifecycle_produces_interval_events() {
        let (mut desktop, clock, sink) = setup();
        let app = desktop.register_app("editor");
        let root = desktop.root(app).unwrap();
        let win = desktop.add_node(app, root, Role::Window, "doc - editor");
        clock.advance(dv_time::Duration::from_secs(1));
        let para = desktop.add_node(app, win, Role::Paragraph, "hello world");
        clock.advance(dv_time::Duration::from_secs(5));
        desktop.set_text(app, para, "goodbye world");
        clock.advance(dv_time::Duration::from_secs(2));
        desktop.remove_subtree(app, para);

        let s = sink.lock();
        assert_eq!(s.shown.len(), 2);
        assert_eq!(s.shown[0].text, "hello world");
        assert_eq!(s.shown[0].time, Timestamp::from_secs(1));
        assert_eq!(s.shown[0].window, "doc - editor");
        assert_eq!(s.shown[0].app_name, "editor");
        assert_eq!(s.shown[1].text, "goodbye world");
        // The first instance hides when the text changes, the second
        // when the node is removed.
        assert_eq!(s.hidden.len(), 2);
        assert_eq!(s.hidden[0], (s.shown[0].id, Timestamp::from_secs(6)));
        assert_eq!(s.hidden[1], (s.shown[1].id, Timestamp::from_secs(8)));
    }

    #[test]
    fn window_titles_do_not_index_as_content() {
        let (mut desktop, _clock, sink) = setup();
        let app = desktop.register_app("term");
        let root = desktop.root(app).unwrap();
        desktop.add_node(app, root, Role::Window, "terminal one");
        assert!(sink.lock().shown.is_empty());
    }

    #[test]
    fn focus_events_forwarded() {
        let (mut desktop, clock, sink) = setup();
        let a = desktop.register_app("a");
        let b = desktop.register_app("b");
        desktop.focus(a);
        clock.advance(dv_time::Duration::from_secs(3));
        desktop.focus(b);
        let s = sink.lock();
        assert_eq!(
            s.focus,
            vec![(a, Timestamp::ZERO), (b, Timestamp::from_secs(3))]
        );
    }

    #[test]
    fn annotations_are_flagged() {
        let (mut desktop, _clock, sink) = setup();
        let app = desktop.register_app("editor");
        let root = desktop.root(app).unwrap();
        let win = desktop.add_node(app, root, Role::Window, "w");
        let para = desktop.add_node(app, win, Role::Paragraph, "meeting notes friday");
        desktop.annotate_selection(app, para, "friday");
        let s = sink.lock();
        let ann: Vec<&TextInstance> = s.shown.iter().filter(|i| i.annotation).collect();
        assert_eq!(ann.len(), 1);
        assert_eq!(ann[0].text, "friday");
    }

    #[test]
    fn app_exit_hides_all_text() {
        let (mut desktop, _clock, sink) = setup();
        let app = desktop.register_app("a");
        let root = desktop.root(app).unwrap();
        let win = desktop.add_node(app, root, Role::Window, "w");
        desktop.add_node(app, win, Role::Paragraph, "one");
        desktop.add_node(app, win, Role::Paragraph, "two");
        desktop.unregister_app(app);
        let s = sink.lock();
        assert_eq!(s.shown.len(), 2);
        assert_eq!(s.hidden.len(), 2);
    }

    #[test]
    fn app_registering_with_existing_text_is_captured() {
        let clock = SimClock::new();
        let sink = Arc::new(Mutex::new(RecordingSink::default()));
        let daemon = CaptureDaemon::new(clock.shared(), sink.clone());
        let mut desktop = Desktop::new();
        // App registers BEFORE the daemon attaches; daemon must pick up
        // its state when mirroring later apps... here we attach first and
        // grow the app afterwards, then register a second app with
        // pre-existing content to exercise the registration scan.
        desktop.register_listener(Arc::new(Mutex::new(daemon)));
        let _a = desktop.register_app("first");
        let b = desktop.register_app("second");
        let root = desktop.root(b).unwrap();
        let win = desktop.add_node(b, root, Role::Window, "w");
        desktop.add_node(b, win, Role::Paragraph, "preexisting");
        assert_eq!(sink.lock().shown.len(), 1);
    }

    #[test]
    fn empty_text_not_indexed() {
        let (mut desktop, _clock, sink) = setup();
        let app = desktop.register_app("a");
        let root = desktop.root(app).unwrap();
        let win = desktop.add_node(app, root, Role::Window, "w");
        desktop.add_node(app, win, Role::Paragraph, "   ");
        desktop.add_node(app, win, Role::Paragraph, "");
        assert!(sink.lock().shown.is_empty());
    }
}
