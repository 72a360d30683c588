//! The daemon's mirror of the desktop's accessible state.
//!
//! Traversing a real accessible tree is expensive, so the capture daemon
//! keeps "a number of data structures that exactly mirror the accessible
//! state of the desktop ... a hash table maps accessible components to
//! nodes in the mirror tree" (§4.2). The mirror is updated incrementally
//! from events, touching only the changed component of the real tree,
//! and can be traversed "at a tiny fraction of the cost".

use std::collections::HashMap;

use crate::registry::AppId;
use crate::tree::{AccessibleTree, NodeId, Role};

/// One mirrored component.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MirrorNode {
    /// Owning application.
    pub app: AppId,
    /// The mirrored component id.
    pub id: NodeId,
    /// Its role.
    pub role: Role,
    /// Its text.
    pub text: String,
    /// Mirrored parent.
    pub parent: Option<NodeId>,
    /// Mirrored children in order.
    pub children: Vec<NodeId>,
}

/// The mirror of every application's accessible tree.
#[derive(Debug, Default)]
pub struct MirrorTree {
    nodes: HashMap<(AppId, NodeId), MirrorNode>,
    roots: HashMap<AppId, NodeId>,
    app_names: HashMap<AppId, String>,
    queries: u64,
}

impl MirrorTree {
    /// Creates an empty mirror.
    pub fn new() -> Self {
        MirrorTree::default()
    }

    /// Returns the mirrored node for a component.
    pub fn node(&self, app: AppId, id: NodeId) -> Option<&MirrorNode> {
        self.nodes.get(&(app, id))
    }

    /// Returns the registered application name.
    pub fn app_name(&self, app: AppId) -> Option<&str> {
        self.app_names.get(&app).map(String::as_str)
    }

    /// Mirrors a newly registered application with one full (expensive)
    /// traversal of its real tree.
    pub fn mirror_app(&mut self, app: AppId, tree: &AccessibleTree) {
        for node in tree.full_traversal() {
            self.queries += 1;
            if node.parent.is_none() {
                self.roots.insert(app, node.id);
                self.app_names.insert(app, node.text.clone());
            }
            self.nodes.insert(
                (app, node.id),
                MirrorNode {
                    app,
                    id: node.id,
                    role: node.role,
                    text: node.text,
                    parent: node.parent,
                    children: node.children,
                },
            );
        }
    }

    /// Mirrors one added component by querying just that component.
    ///
    /// Returns the mirrored node, or `None` if the real component has
    /// already disappeared again.
    pub fn mirror_added(
        &mut self,
        app: AppId,
        id: NodeId,
        tree: &AccessibleTree,
    ) -> Option<&MirrorNode> {
        self.queries += 1;
        let node = tree.node(id)?;
        let mirrored = MirrorNode {
            app,
            id,
            role: node.role,
            text: node.text.clone(),
            parent: node.parent,
            children: node.children.clone(),
        };
        if let Some(parent) = node.parent {
            if let Some(p) = self.nodes.get_mut(&(app, parent)) {
                if !p.children.contains(&id) {
                    p.children.push(id);
                }
            }
        }
        self.nodes.insert((app, id), mirrored);
        Some(&self.nodes[&(app, id)])
    }

    /// Updates one component's text by querying just that component,
    /// returning `(old_text, new_text)`.
    pub fn mirror_text_changed(
        &mut self,
        app: AppId,
        id: NodeId,
        tree: &AccessibleTree,
    ) -> Option<(String, String)> {
        self.queries += 1;
        let new_text = tree.node(id)?.text.clone();
        let node = self.nodes.get_mut(&(app, id))?;
        let old = std::mem::replace(&mut node.text, new_text.clone());
        Some((old, new_text))
    }

    /// Removes a component subtree using only mirrored structure — no
    /// queries against the real tree — returning the removed nodes.
    pub fn mirror_removed(&mut self, app: AppId, id: NodeId) -> Vec<MirrorNode> {
        if let Some(node) = self.nodes.get(&(app, id)) {
            if let Some(parent) = node.parent {
                if let Some(p) = self.nodes.get_mut(&(app, parent)) {
                    p.children.retain(|&c| c != id);
                }
            }
        }
        let mut removed = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(node) = self.nodes.remove(&(app, cur)) {
                stack.extend(node.children.iter().copied());
                removed.push(node);
            }
        }
        removed
    }

    /// Removes an entire application from the mirror, returning its
    /// nodes.
    pub fn remove_app(&mut self, app: AppId) -> Vec<MirrorNode> {
        self.app_names.remove(&app);
        match self.roots.remove(&app) {
            Some(root) => self.mirror_removed(app, root),
            None => Vec::new(),
        }
    }

    /// Walks mirrored parents to the nearest [`Role::Window`] ancestor
    /// and returns its title; falls back to the application name. This
    /// is the cheap lookup that replaces walking the real tree.
    pub fn window_title(&self, app: AppId, mut id: NodeId) -> String {
        loop {
            match self.nodes.get(&(app, id)) {
                Some(node) if node.role == Role::Window => return node.text.clone(),
                Some(node) => match node.parent {
                    Some(parent) => id = parent,
                    None => break,
                },
                None => break,
            }
        }
        self.app_name(app).unwrap_or("").to_string()
    }

    /// Iterates every mirrored node.
    pub fn iter(&self) -> impl Iterator<Item = &MirrorNode> {
        self.nodes.values()
    }

    /// Verifies the mirror exactly matches a real tree (test oracle);
    /// returns `false` on any divergence.
    pub fn matches(&self, app: AppId, tree: &AccessibleTree) -> bool {
        let real = tree.full_traversal();
        let mirrored: Vec<&MirrorNode> = self.nodes.values().filter(|n| n.app == app).collect();
        if real.len() != mirrored.len() {
            return false;
        }
        for node in real {
            match self.nodes.get(&(app, node.id)) {
                Some(m) => {
                    if m.role != node.role
                        || m.text != node.text
                        || m.parent != node.parent
                        || m.children != node.children
                    {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> (AccessibleTree, AppId) {
        let mut tree = AccessibleTree::new("app");
        let win = tree.add_node(tree.root(), Role::Window, "main");
        tree.add_node(win, Role::Paragraph, "text a");
        tree.add_node(win, Role::Paragraph, "text b");
        (tree, AppId(1))
    }

    #[test]
    fn mirror_app_matches_tree() {
        let (tree, app) = build();
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        assert!(mirror.matches(app, &tree));
        assert_eq!(mirror.app_name(app), Some("app"));
    }

    #[test]
    fn incremental_add_and_text_change() {
        let (mut tree, app) = build();
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        let win = tree.node_uncharged(NodeId(2)).unwrap().id;
        let new_node = tree.add_node(win, Role::Link, "click me");
        mirror.mirror_added(app, new_node, &tree);
        assert!(mirror.matches(app, &tree));
        tree.set_text(new_node, "clicked");
        let (old, new) = mirror.mirror_text_changed(app, new_node, &tree).unwrap();
        assert_eq!((old.as_str(), new.as_str()), ("click me", "clicked"));
        assert!(mirror.matches(app, &tree));
    }

    #[test]
    fn removal_uses_only_mirrored_structure() {
        let (mut tree, app) = build();
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        let before_queries = mirror.queries;
        tree.remove_subtree(NodeId(2)); // The window and both paragraphs.
        let removed = mirror.mirror_removed(app, NodeId(2));
        assert_eq!(removed.len(), 3);
        assert!(mirror.matches(app, &tree));
        assert_eq!(
            mirror.queries, before_queries,
            "removal must not query the real tree"
        );
    }

    #[test]
    fn window_title_walks_mirror() {
        let (tree, app) = build();
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        assert_eq!(mirror.window_title(app, NodeId(3)), "main");
        assert_eq!(mirror.window_title(app, NodeId(1)), "app");
    }

    #[test]
    fn incremental_updates_are_cheap() {
        let (mut tree, app) = build();
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        let full_cost = mirror.queries;
        let win = NodeId(2);
        for i in 0..100 {
            let n = tree.add_node(win, Role::Paragraph, &format!("line {i}"));
            mirror.mirror_added(app, n, &tree);
        }
        let incremental_cost = mirror.queries - full_cost;
        assert_eq!(incremental_cost, 100, "one query per added node");
        assert!(mirror.matches(app, &tree));
    }

    #[test]
    fn remove_app_clears_everything() {
        let (tree, app) = build();
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        let removed = mirror.remove_app(app);
        assert_eq!(removed.len(), 4);
        assert!(mirror.nodes.is_empty());
        assert_eq!(mirror.app_name(app), None);
    }
}
