//! The naive capture daemon — the design §4.2 rejects.
//!
//! Without the mirror tree, a capture daemon must re-traverse the
//! application's *real* accessible tree on every event to know what is
//! on screen — paying one charged IPC access per component, per event.
//! The paper: traversal "can take a couple seconds and destroy
//! interactive responsiveness". This implementation exists so the
//! ablation benchmark can measure exactly that cost against
//! [`crate::CaptureDaemon`]'s incremental mirror.

use std::collections::HashMap;

use dv_time::{SharedClock, Timestamp};

use crate::daemon::{TextInstance, TextSink};
use crate::registry::{AccessEvent, AccessListener, AppId};
use crate::tree::{AccessibleTree, NodeId, Role};

/// A mirror-less capture daemon: full tree traversal per event.
pub struct NaiveCaptureDaemon<S: TextSink> {
    clock: SharedClock,
    sink: S,
    /// Last-seen text per component, diffed against each traversal.
    seen: HashMap<(AppId, NodeId), (u64, String)>,
    next_instance: u64,
}

impl<S: TextSink> NaiveCaptureDaemon<S> {
    /// Creates a naive daemon feeding `sink`.
    pub fn new(clock: SharedClock, sink: S) -> Self {
        NaiveCaptureDaemon {
            clock,
            sink,
            seen: HashMap::new(),
            next_instance: 1,
        }
    }

    fn rescan(&mut self, app: AppId, tree: &AccessibleTree, now: Timestamp) {
        // The expensive part: walk the whole real tree, charged per
        // component access.
        let nodes = tree.full_traversal();
        let mut present: HashMap<NodeId, (Role, String)> = HashMap::new();
        let app_name = nodes
            .iter()
            .find(|n| n.parent.is_none())
            .map(|n| n.text.clone())
            .unwrap_or_default();
        let window = nodes
            .iter()
            .find(|n| n.role == Role::Window)
            .map(|n| n.text.clone())
            .unwrap_or_else(|| app_name.clone());
        for node in nodes {
            if node.role == Role::Application || node.role == Role::Window {
                continue;
            }
            present.insert(node.id, (node.role, node.text));
        }
        // Close instances that vanished or changed.
        let gone: Vec<(AppId, NodeId)> = self
            .seen
            .keys()
            .filter(|(a, n)| {
                *a == app
                    && present.get(n).map(|(_, t)| t) != self.seen.get(&(*a, *n)).map(|(_, t)| t)
            })
            .copied()
            .collect();
        for key in gone {
            let (id, _) = self.seen.remove(&key).expect("key from seen");
            self.sink.text_hidden(id, now);
        }
        // Open instances for new text.
        for (node, (role, text)) in present {
            if text.trim().is_empty() || self.seen.contains_key(&(app, node)) {
                continue;
            }
            let id = self.next_instance;
            self.next_instance += 1;
            self.seen.insert((app, node), (id, text.clone()));
            self.sink.text_shown(TextInstance {
                id,
                time: now,
                app,
                app_name: app_name.clone(),
                window: window.clone(),
                role,
                text,
                annotation: false,
            });
        }
    }
}

impl<S: TextSink> AccessListener for NaiveCaptureDaemon<S> {
    fn on_event(&mut self, tree: Option<&AccessibleTree>, event: &AccessEvent) {
        let now = self.clock.now();
        match event {
            AccessEvent::AppRegistered { app }
            | AccessEvent::NodeAdded { app, .. }
            | AccessEvent::NodeRemoved { app, .. }
            | AccessEvent::TextChanged { app, .. } => {
                if let Some(tree) = tree {
                    self.rescan(*app, tree, now);
                }
            }
            AccessEvent::AppUnregistered { app } => {
                let gone: Vec<(AppId, NodeId)> = self
                    .seen
                    .keys()
                    .filter(|(a, _)| a == app)
                    .copied()
                    .collect();
                for key in gone {
                    let (id, _) = self.seen.remove(&key).expect("key from seen");
                    self.sink.text_hidden(id, now);
                }
            }
            AccessEvent::FocusGained { app } => self.sink.focus_changed(*app, now),
            AccessEvent::SelectionAnnotated { app, node: _, text } => {
                let id = self.next_instance;
                self.next_instance += 1;
                self.sink.text_shown(TextInstance {
                    id,
                    time: now,
                    app: *app,
                    app_name: String::new(),
                    window: String::new(),
                    role: Role::Label,
                    text: text.clone(),
                    annotation: true,
                });
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

    #[derive(Default)]
    struct CountingSink {
        shown: Vec<TextInstance>,
        hidden: Vec<(u64, Timestamp)>,
    }

    impl TextSink for Arc<Mutex<CountingSink>> {
        fn text_shown(&mut self, instance: TextInstance) {
            self.lock().shown.push(instance);
        }
        fn text_hidden(&mut self, id: u64, time: Timestamp) {
            self.lock().hidden.push((id, time));
        }
        fn focus_changed(&mut self, _app: AppId, _time: Timestamp) {}
    }

    #[test]
    fn naive_daemon_captures_the_same_text_at_higher_cost() {
        let clock = SimClock::new();
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        let daemon = NaiveCaptureDaemon::new(clock.shared(), sink.clone());
        let mut desktop = Desktop::new();
        desktop.register_listener(Arc::new(Mutex::new(daemon)));
        let app = desktop.register_app("editor");
        let root = desktop.root(app).unwrap();
        let win = desktop.add_node(app, root, Role::Window, "w");
        let para = desktop.add_node(app, win, Role::Paragraph, "line one");
        desktop.add_node(app, win, Role::Paragraph, "line two");
        desktop.set_text(app, para, "line one edited");
        let s = sink.lock();
        // Same semantic capture as the mirror daemon: three shown
        // instances (two originals + the edit) and one hidden.
        assert_eq!(s.shown.len(), 3);
        assert_eq!(s.hidden.len(), 1);
        drop(s);
        // The cost: every event re-traversed the whole tree. With 4-5
        // nodes and 5 events the naive daemon pays ~20 charged accesses
        // where the mirror daemon pays ~1 per event.
        let accesses = desktop.tree(app).unwrap().accesses();
        assert!(
            accesses > 10,
            "naive traversals should dominate: {accesses}"
        );
    }
}
