//! The desktop accessibility registry.
//!
//! "At startup time, the daemon registers with the desktop environment
//! and asks it to deliver events when new text is displayed or existing
//! text on the screen changes" (§4.2). The [`Desktop`] is that
//! environment: applications register their accessible trees with it,
//! mutate them through it, and every mutation is delivered
//! *synchronously* to all listeners — "applications block until event
//! delivery is finished", so listener time is charged to the application
//! and is tracked.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dv_time::Duration;

use crate::tree::{AccessibleTree, NodeId, Role};

/// An application identifier on the accessibility bus.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AppId(pub u32);

/// An accessibility event, delivered synchronously after the tree
/// mutation it describes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AccessEvent {
    /// An application registered with the desktop.
    AppRegistered {
        /// The new application.
        app: AppId,
    },
    /// An application disappeared.
    AppUnregistered {
        /// The departed application.
        app: AppId,
    },
    /// A component was added.
    NodeAdded {
        /// Owning application.
        app: AppId,
        /// The new component.
        node: NodeId,
    },
    /// A component (and its subtree) was removed. The event names only
    /// the subtree root; consumers with a mirror know the descendants.
    NodeRemoved {
        /// Owning application.
        app: AppId,
        /// The removed subtree root.
        node: NodeId,
    },
    /// A component's text changed.
    TextChanged {
        /// Owning application.
        app: AppId,
        /// The changed component.
        node: NodeId,
    },
    /// Window focus moved to this application.
    FocusGained {
        /// The newly focused application.
        app: AppId,
    },
    /// The user selected `text` and pressed the annotation key combo —
    /// the explicit-annotation path of §4.4.
    SelectionAnnotated {
        /// Owning application.
        app: AppId,
        /// Component holding the selection.
        node: NodeId,
        /// The selected text.
        text: String,
    },
}

/// A synchronous accessibility event consumer.
pub trait AccessListener: Send {
    /// Handles one event. `tree` is the current tree of the affected
    /// application, if it still exists; queries against it are charged
    /// to the tree's cost model.
    fn on_event(&mut self, tree: Option<&AccessibleTree>, event: &AccessEvent);
}

/// A shared listener handle.
pub type SharedListener = Arc<Mutex<dyn AccessListener>>;

/// The desktop accessibility bus.
pub struct Desktop {
    apps: HashMap<AppId, AccessibleTree>,
    listeners: Vec<SharedListener>,
    next_app: u32,
    focused: Option<AppId>,
    selection: Option<(AppId, NodeId, String)>,
    delivery_time: Duration,
    events_delivered: u64,
}

impl Desktop {
    /// Creates an empty desktop.
    pub fn new() -> Self {
        Desktop {
            apps: HashMap::new(),
            listeners: Vec::new(),
            next_app: 1,
            focused: None,
            selection: None,
            delivery_time: Duration::ZERO,
            events_delivered: 0,
        }
    }

    /// Registers a listener; it receives all subsequent events.
    pub fn register_listener(&mut self, listener: SharedListener) {
        self.listeners.push(listener);
    }

    /// Registers an application, creating its accessible tree.
    pub fn register_app(&mut self, name: &str) -> AppId {
        let app = AppId(self.next_app);
        self.next_app += 1;
        self.apps.insert(app, AccessibleTree::new(name));
        self.deliver(Some(app), &AccessEvent::AppRegistered { app });
        app
    }

    /// Unregisters an application, dropping its tree.
    pub fn unregister_app(&mut self, app: AppId) {
        // Deliver before dropping so listeners can still inspect state
        // they mirrored; the tree itself is already gone from the bus's
        // perspective, matching a crashed application.
        self.apps.remove(&app);
        if self.focused == Some(app) {
            self.focused = None;
        }
        if matches!(self.selection, Some((a, _, _)) if a == app) {
            self.selection = None;
        }
        self.deliver(None, &AccessEvent::AppUnregistered { app });
    }

    /// Returns the application's tree.
    pub fn tree(&self, app: AppId) -> Option<&AccessibleTree> {
        self.apps.get(&app)
    }

    /// Returns the registered applications.
    pub fn apps(&self) -> Vec<AppId> {
        let mut ids: Vec<AppId> = self.apps.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Returns `(events_delivered, total_synchronous_delivery_time)` —
    /// the overhead charged to applications.
    pub fn delivery_stats(&self) -> (u64, Duration) {
        (self.events_delivered, self.delivery_time)
    }

    /// Sets the per-access IPC delay on every application tree.
    pub fn set_access_delay(&mut self, delay: Option<Duration>) {
        for tree in self.apps.values_mut() {
            tree.set_access_delay(delay);
        }
    }

    fn deliver(&mut self, app: Option<AppId>, event: &AccessEvent) {
        let start = Instant::now();
        let tree = app.and_then(|a| self.apps.get(&a));
        for listener in &self.listeners {
            listener.lock().on_event(tree, event);
        }
        self.delivery_time += Duration::from_nanos(start.elapsed().as_nanos() as u64);
        self.events_delivered += 1;
    }

    /// Adds a component to an application's tree.
    ///
    /// # Panics
    ///
    /// Panics if the application is not registered.
    pub fn add_node(&mut self, app: AppId, parent: NodeId, role: Role, text: &str) -> NodeId {
        let tree = self.apps.get_mut(&app).expect("app registered");
        let node = tree.add_node(parent, role, text);
        self.deliver(Some(app), &AccessEvent::NodeAdded { app, node });
        node
    }

    /// Changes a component's text.
    ///
    /// # Panics
    ///
    /// Panics if the application is not registered.
    pub fn set_text(&mut self, app: AppId, node: NodeId, text: &str) {
        let tree = self.apps.get_mut(&app).expect("app registered");
        let old = tree.set_text(node, text);
        if old != text {
            self.deliver(Some(app), &AccessEvent::TextChanged { app, node });
        }
    }

    /// Removes a component subtree.
    ///
    /// # Panics
    ///
    /// Panics if the application is not registered.
    pub fn remove_subtree(&mut self, app: AppId, node: NodeId) {
        let tree = self.apps.get_mut(&app).expect("app registered");
        tree.remove_subtree(node);
        self.deliver(Some(app), &AccessEvent::NodeRemoved { app, node });
    }

    /// Moves window focus to an application.
    ///
    /// # Panics
    ///
    /// Panics if the application is not registered.
    pub fn focus(&mut self, app: AppId) {
        assert!(self.apps.contains_key(&app), "app registered");
        if self.focused != Some(app) {
            self.focused = Some(app);
            self.deliver(Some(app), &AccessEvent::FocusGained { app });
        }
    }

    /// Records the user's current text selection (mouse selection is
    /// delivered by the accessibility infrastructure, §4.4).
    ///
    /// # Panics
    ///
    /// Panics if the application is not registered.
    pub fn set_selection(&mut self, app: AppId, node: NodeId, text: &str) {
        assert!(self.apps.contains_key(&app), "app registered");
        self.selection = Some((app, node, text.to_string()));
    }

    /// Returns the current selection, if any.
    pub fn selection(&self) -> Option<(AppId, NodeId, &str)> {
        self.selection
            .as_ref()
            .map(|(app, node, text)| (*app, *node, text.as_str()))
    }

    /// Annotates the current selection — the path taken when the user
    /// presses the annotation key combination (§4.4). Returns whether a
    /// selection existed.
    pub fn annotate_current_selection(&mut self) -> bool {
        match self.selection.take() {
            Some((app, node, text)) if self.apps.contains_key(&app) => {
                self.annotate_selection(app, node, &text);
                true
            }
            _ => false,
        }
    }

    /// Reports a text selection plus annotation key combo.
    ///
    /// # Panics
    ///
    /// Panics if the application is not registered.
    pub fn annotate_selection(&mut self, app: AppId, node: NodeId, text: &str) {
        assert!(self.apps.contains_key(&app), "app registered");
        self.deliver(
            Some(app),
            &AccessEvent::SelectionAnnotated {
                app,
                node,
                text: text.to_string(),
            },
        );
    }

    /// Returns the root node of an application's tree.
    pub fn root(&self, app: AppId) -> Option<NodeId> {
        self.apps.get(&app).map(|t| t.root())
    }
}

impl Default for Desktop {
    fn default() -> Self {
        Desktop::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        events: Vec<AccessEvent>,
    }

    impl AccessListener for Recorder {
        fn on_event(&mut self, _tree: Option<&AccessibleTree>, event: &AccessEvent) {
            self.events.push(event.clone());
        }
    }

    fn desktop_with_recorder() -> (Desktop, Arc<Mutex<Recorder>>) {
        let mut desktop = Desktop::new();
        let recorder = Arc::new(Mutex::new(Recorder { events: Vec::new() }));
        desktop.register_listener(recorder.clone());
        (desktop, recorder)
    }

    #[test]
    fn events_delivered_in_order() {
        let (mut desktop, recorder) = desktop_with_recorder();
        let app = desktop.register_app("term");
        let root = desktop.root(app).unwrap();
        let win = desktop.add_node(app, root, Role::Window, "term");
        desktop.set_text(app, win, "term - running");
        desktop.focus(app);
        let events = recorder.lock().events.clone();
        assert_eq!(events.len(), 4);
        assert!(matches!(events[0], AccessEvent::AppRegistered { .. }));
        assert!(matches!(events[1], AccessEvent::NodeAdded { .. }));
        assert!(matches!(events[2], AccessEvent::TextChanged { .. }));
        assert!(matches!(events[3], AccessEvent::FocusGained { .. }));
    }

    #[test]
    fn unchanged_text_delivers_no_event() {
        let (mut desktop, recorder) = desktop_with_recorder();
        let app = desktop.register_app("a");
        let root = desktop.root(app).unwrap();
        let n = desktop.add_node(app, root, Role::Label, "same");
        let before = recorder.lock().events.len();
        desktop.set_text(app, n, "same");
        assert_eq!(recorder.lock().events.len(), before);
    }

    #[test]
    fn focus_is_tracked_and_deduplicated() {
        let (mut desktop, recorder) = desktop_with_recorder();
        let a = desktop.register_app("a");
        let b = desktop.register_app("b");
        desktop.focus(a);
        desktop.focus(a);
        desktop.focus(b);
        assert_eq!(desktop.focused, Some(b));
        let focus_events = recorder
            .lock()
            .events
            .iter()
            .filter(|e| matches!(e, AccessEvent::FocusGained { .. }))
            .count();
        assert_eq!(focus_events, 2);
    }

    #[test]
    fn unregister_clears_focus_and_tree() {
        let (mut desktop, _recorder) = desktop_with_recorder();
        let a = desktop.register_app("a");
        desktop.focus(a);
        desktop.unregister_app(a);
        assert_eq!(desktop.focused, None);
        assert!(desktop.tree(a).is_none());
        assert!(desktop.apps().is_empty());
    }

    #[test]
    fn selection_plus_combo_annotates() {
        let (mut desktop, recorder) = desktop_with_recorder();
        let app = desktop.register_app("editor");
        let root = desktop.root(app).unwrap();
        let node = desktop.add_node(app, root, Role::Paragraph, "meeting notes friday 3pm");
        desktop.set_selection(app, node, "friday 3pm");
        assert_eq!(desktop.selection().map(|(_, _, t)| t), Some("friday 3pm"));
        assert!(desktop.annotate_current_selection());
        // Selection is consumed.
        assert!(!desktop.annotate_current_selection());
        let events = recorder.lock().events.clone();
        assert!(events.iter().any(|e| matches!(
            e,
            AccessEvent::SelectionAnnotated { text, .. } if text == "friday 3pm"
        )));
    }

    #[test]
    fn unregister_clears_selection() {
        let (mut desktop, _recorder) = desktop_with_recorder();
        let app = desktop.register_app("a");
        let root = desktop.root(app).unwrap();
        let node = desktop.add_node(app, root, Role::Label, "x");
        desktop.set_selection(app, node, "x");
        desktop.unregister_app(app);
        assert!(desktop.selection().is_none());
        assert!(!desktop.annotate_current_selection());
    }

    #[test]
    fn delivery_stats_accumulate() {
        let (mut desktop, _recorder) = desktop_with_recorder();
        let app = desktop.register_app("a");
        let root = desktop.root(app).unwrap();
        desktop.add_node(app, root, Role::Label, "x");
        let (count, _time) = desktop.delivery_stats();
        assert_eq!(count, 2);
    }
}
