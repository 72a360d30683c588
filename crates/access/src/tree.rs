//! Accessible trees.
//!
//! Modern desktops expose UI content to assistive technology as a tree of
//! accessible components per application (§4.2). DejaView's text capture
//! is built on this interface. Two properties of the real infrastructure
//! matter for the design and are modelled here:
//!
//! * every component access crosses into the application (a round of
//!   context switches) — the tree counts accesses, and can optionally
//!   charge a real per-access delay so benchmarks can show why the
//!   daemon's mirror tree exists;
//! * full-tree traversal is therefore "extremely expensive ... and can
//!   destroy interactive responsiveness".

use std::cell::Cell;
use std::collections::HashMap;

use dv_time::Duration;

/// A component identifier, unique within one application's tree.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u64);

/// The role of an accessible component.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// The application root.
    Application,
    /// A top-level window; its text is the window title.
    Window,
    /// A document area (editor buffer, rendered web page).
    Document,
    /// A paragraph or text block.
    Paragraph,
    /// A menu item (one of the paper's special text properties).
    MenuItem,
    /// A hyperlink (one of the paper's special text properties).
    Link,
    /// A push button.
    Button,
    /// An editable text field.
    TextInput,
    /// A static label.
    Label,
    /// Terminal output area.
    Terminal,
}

/// One accessible component.
#[derive(Clone, Debug)]
pub struct AccessibleNode {
    /// The component's identifier.
    pub id: NodeId,
    /// Its role.
    pub role: Role,
    /// The text it currently displays (empty for structural nodes).
    pub text: String,
    /// Parent component, `None` for the root.
    pub parent: Option<NodeId>,
    /// Child components in order.
    pub children: Vec<NodeId>,
}

/// One application's accessible tree.
///
/// Reads go through [`AccessibleTree::node`], which charges the access
/// cost model; the capture daemon is careful to touch as few components
/// as possible.
#[derive(Debug)]
pub struct AccessibleTree {
    nodes: HashMap<NodeId, AccessibleNode>,
    root: NodeId,
    next_id: u64,
    accesses: Cell<u64>,
    access_delay: Option<Duration>,
}

impl AccessibleTree {
    /// Creates a tree containing an application root named `app_name`.
    pub fn new(app_name: &str) -> Self {
        let root = NodeId(1);
        let mut nodes = HashMap::new();
        nodes.insert(
            root,
            AccessibleNode {
                id: root,
                role: Role::Application,
                text: app_name.to_string(),
                parent: None,
                children: Vec::new(),
            },
        );
        AccessibleTree {
            nodes,
            root,
            next_id: 2,
            accesses: Cell::new(0),
            access_delay: None,
        }
    }

    /// Charges a real delay on every component access, modelling the
    /// context-switch cost of the real accessibility IPC.
    pub fn set_access_delay(&mut self, delay: Option<Duration>) {
        self.access_delay = delay;
    }

    /// Returns the root component.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns how many component accesses have been charged.
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Reads one component, charging the access cost.
    pub fn node(&self, id: NodeId) -> Option<&AccessibleNode> {
        self.accesses.set(self.accesses.get() + 1);
        if let Some(delay) = self.access_delay {
            // Spin rather than sleep: the modelled IPC round trip is in
            // the tens of microseconds, far below timer resolution.
            let deadline = std::time::Instant::now() + delay.to_std();
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
        self.nodes.get(&id)
    }

    /// Reads one component without charging the cost model; reserved for
    /// tests and invariant checks.
    #[cfg(test)]
    pub(crate) fn node_uncharged(&self, id: NodeId) -> Option<&AccessibleNode> {
        self.nodes.get(&id)
    }

    /// Adds a child component, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist.
    pub fn add_node(&mut self, parent: NodeId, role: Role, text: &str) -> NodeId {
        assert!(self.nodes.contains_key(&parent), "parent must exist");
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(
            id,
            AccessibleNode {
                id,
                role,
                text: text.to_string(),
                parent: Some(parent),
                children: Vec::new(),
            },
        );
        self.nodes
            .get_mut(&parent)
            .expect("parent exists")
            .children
            .push(id);
        id
    }

    /// Replaces a component's text, returning the old text.
    ///
    /// # Panics
    ///
    /// Panics if the component does not exist.
    pub fn set_text(&mut self, id: NodeId, text: &str) -> String {
        let node = self.nodes.get_mut(&id).expect("node must exist");
        std::mem::replace(&mut node.text, text.to_string())
    }

    /// Removes a component and its entire subtree, returning the removed
    /// ids (preorder).
    ///
    /// # Panics
    ///
    /// Panics if the component does not exist or is the root.
    pub fn remove_subtree(&mut self, id: NodeId) -> Vec<NodeId> {
        assert_ne!(id, self.root, "cannot remove the application root");
        let parent = self
            .nodes
            .get(&id)
            .expect("node must exist")
            .parent
            .expect("non-root has a parent");
        let siblings = &mut self.nodes.get_mut(&parent).expect("parent exists").children;
        siblings.retain(|&c| c != id);
        let mut removed = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(node) = self.nodes.remove(&cur) {
                stack.extend(node.children.iter().copied());
                removed.push(cur);
            }
        }
        removed
    }

    /// Performs a full traversal through the charged interface, returning
    /// every component in preorder. This is the expensive operation the
    /// mirror tree exists to avoid.
    pub fn full_traversal(&self) -> Vec<AccessibleNode> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if let Some(node) = self.node(id) {
                let node = node.clone();
                stack.extend(node.children.iter().rev().copied());
                out.push(node);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (AccessibleTree, NodeId, NodeId, NodeId) {
        let mut tree = AccessibleTree::new("editor");
        let win = tree.add_node(tree.root(), Role::Window, "untitled - editor");
        let doc = tree.add_node(win, Role::Document, "");
        let para = tree.add_node(doc, Role::Paragraph, "hello world");
        (tree, win, doc, para)
    }

    #[test]
    fn construction_builds_structure() {
        let (tree, win, doc, para) = sample();
        assert_eq!(tree.nodes.len(), 4);
        let win_node = tree.node(win).unwrap();
        assert_eq!(win_node.parent, Some(tree.root()));
        assert_eq!(win_node.children, vec![doc]);
        assert_eq!(tree.node(para).unwrap().text, "hello world");
    }

    #[test]
    fn accesses_are_charged() {
        let (tree, win, _, _) = sample();
        let before = tree.accesses();
        tree.node(win);
        tree.node(win);
        assert_eq!(tree.accesses(), before + 2);
    }

    #[test]
    fn set_text_returns_old() {
        let (mut tree, _, _, para) = sample();
        let old = tree.set_text(para, "goodbye");
        assert_eq!(old, "hello world");
        assert_eq!(tree.node(para).unwrap().text, "goodbye");
    }

    #[test]
    fn remove_subtree_removes_descendants() {
        let (mut tree, win, doc, para) = sample();
        let removed = tree.remove_subtree(doc);
        assert!(removed.contains(&doc) && removed.contains(&para));
        assert_eq!(tree.nodes.len(), 2);
        assert!(tree.node(para).is_none());
        assert!(tree.node(win).unwrap().children.is_empty());
    }

    #[test]
    fn full_traversal_is_preorder_and_expensive() {
        let (tree, win, doc, para) = sample();
        let before = tree.accesses();
        let all = tree.full_traversal();
        let ids: Vec<NodeId> = all.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![tree.root(), win, doc, para]);
        assert_eq!(tree.accesses() - before, 4, "one charged access per node");
    }

    #[test]
    #[should_panic(expected = "root")]
    fn removing_root_panics() {
        let (mut tree, _, _, _) = sample();
        let root = tree.root();
        tree.remove_subtree(root);
    }
}
