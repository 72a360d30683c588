//! The persistent inode table.
//!
//! Inode numbers are dense and never reused, so the table is a radix
//! tree over their bits: sixteen-way nodes behind `Arc`, inodes by value
//! in the leaves, empty subtrees absent, and only as many levels as the
//! highest number needs (a fifteen-inode file system is one leaf).
//! Cloning a table copies the root pointer; a mutation copies the
//! still-shared nodes on the path to its slot (`Arc::make_mut`) and
//! nothing else, so a snapshot costs what is written after it.
//!
//! A node never changes position (growing hangs the old root under slot
//! 0 of a new one), which lets the log cleaner walk tables that share
//! structure by node identity (DESIGN.md §18).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::lsfs::LsInode;

/// Index bits per level. A leaf copy bumps two reference counts per
/// resident inode, so wider leaves cost more per touched path than
/// they save in depth.
const BITS: u32 = 4;
const FANOUT: usize = 1 << BITS;

/// The set of nodes a walk over several tables has already covered.
pub(crate) type Seen = HashSet<*const Node>;

/// Old node → rebuilt node, across the tables of one `map` pass.
pub(crate) type Rebuilt = HashMap<*const Node, Arc<Node>>;

// A branch is allocated at a leaf's size, but one node in seventeen is
// a branch; boxing the leaf array instead would put a second pointer
// hop on every lookup.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub(crate) enum Node {
    Branch([Option<Arc<Node>>; FANOUT]),
    Leaf([Option<LsInode>; FANOUT]),
}

fn slot(ino: u64, level: u32) -> usize {
    (ino >> (BITS * level)) as usize & (FANOUT - 1)
}

/// A persistent map from inode number to [`LsInode`].
#[derive(Clone, Debug, Default)]
pub(crate) struct InodeTable {
    root: Option<Arc<Node>>,
    /// Branch levels above the leaves.
    height: u32,
}

impl InodeTable {
    fn covers(&self, ino: u64) -> bool {
        ino.checked_shr(BITS * (self.height + 1)).unwrap_or(0) == 0
    }

    pub(crate) fn get(&self, ino: u64) -> Option<&LsInode> {
        let mut node = self.root.as_deref().filter(|_| self.covers(ino))?;
        let mut level = self.height;
        loop {
            match node {
                Node::Branch(kids) => {
                    node = kids[slot(ino, level)].as_deref()?;
                    level -= 1;
                }
                Node::Leaf(slots) => return slots[slot(ino, 0)].as_ref(),
            }
        }
    }

    /// Borrows an inode for writing, un-sharing the path to it.
    pub(crate) fn get_mut(&mut self, ino: u64) -> Option<&mut LsInode> {
        let covered = self.covers(ino);
        let mut node = Arc::make_mut(self.root.as_mut().filter(|_| covered)?);
        let mut level = self.height;
        loop {
            match node {
                Node::Branch(kids) => {
                    node = Arc::make_mut(kids[slot(ino, level)].as_mut()?);
                    level -= 1;
                }
                Node::Leaf(slots) => return slots[slot(ino, 0)].as_mut(),
            }
        }
    }

    pub(crate) fn insert(&mut self, ino: u64, inode: LsInode) -> Option<LsInode> {
        while !self.covers(ino) {
            if let Some(old) = self.root.take() {
                let mut kids: [Option<Arc<Node>>; FANOUT] = Default::default();
                kids[0] = Some(old);
                self.root = Some(Arc::new(Node::Branch(kids)));
            }
            self.height += 1;
        }
        let mut link = &mut self.root;
        let mut level = self.height;
        loop {
            let fresh = move || match level {
                0 => Arc::new(Node::Leaf(Default::default())),
                _ => Arc::new(Node::Branch(Default::default())),
            };
            match Arc::make_mut(link.get_or_insert_with(fresh)) {
                Node::Branch(kids) => {
                    link = &mut kids[slot(ino, level)];
                    level -= 1;
                }
                Node::Leaf(slots) => return slots[slot(ino, 0)].replace(inode),
            }
        }
    }

    /// Removes an inode; a node left without entries goes with it.
    pub(crate) fn remove(&mut self, ino: u64) -> Option<LsInode> {
        // Looked up first so that a miss copies no path.
        self.get(ino)?;
        let (out, emptied) = remove_in(self.root.as_mut()?, ino, self.height);
        if emptied {
            *self = InodeTable::default();
        }
        out
    }

    /// Calls `f` on every inode, in inode order.
    pub(crate) fn for_each<'a>(&'a self, f: impl FnMut(u64, &'a LsInode)) {
        self.for_each_unseen(&mut Seen::new(), f);
    }

    /// Calls `f` on the inodes of every node not yet in `seen`, adding
    /// the nodes it enters: over tables that share structure, each
    /// distinct node is visited once.
    pub(crate) fn for_each_unseen<'a>(
        &'a self,
        seen: &mut Seen,
        mut f: impl FnMut(u64, &'a LsInode),
    ) {
        if let Some(root) = &self.root {
            walk(root, 0, self.height, seen, &mut f);
        }
    }

    /// Returns this table with `f` applied to every inode. Each distinct
    /// node is rebuilt once per `rebuilt` map, so tables that shared a
    /// node before the pass share its twin after it. The mapped tables
    /// must outlive the pass (the map is keyed by their node addresses).
    pub(crate) fn map(&self, rebuilt: &mut Rebuilt, f: &mut impl FnMut(&mut LsInode)) -> Self {
        InodeTable {
            root: self.root.as_ref().map(|root| map_node(root, rebuilt, f)),
            height: self.height,
        }
    }
}

fn remove_in(link: &mut Arc<Node>, ino: u64, level: u32) -> (Option<LsInode>, bool) {
    match Arc::make_mut(link) {
        Node::Leaf(slots) => {
            let out = slots[slot(ino, 0)].take();
            (out, slots.iter().all(Option::is_none))
        }
        Node::Branch(kids) => {
            let kid = &mut kids[slot(ino, level)];
            let child = kid.as_mut().expect("the caller found the inode");
            let (out, emptied) = remove_in(child, ino, level - 1);
            if emptied {
                *kid = None;
            }
            (out, kids.iter().all(Option::is_none))
        }
    }
}

fn walk<'a>(
    node: &'a Arc<Node>,
    base: u64,
    level: u32,
    seen: &mut Seen,
    f: &mut impl FnMut(u64, &'a LsInode),
) {
    if !seen.insert(Arc::as_ptr(node)) {
        return;
    }
    match &**node {
        Node::Branch(kids) => {
            for (i, kid) in kids.iter().enumerate() {
                if let Some(kid) = kid {
                    walk(kid, base | (i as u64) << (BITS * level), level - 1, seen, f);
                }
            }
        }
        Node::Leaf(slots) => {
            for (i, inode) in slots.iter().enumerate() {
                if let Some(inode) = inode {
                    f(base | i as u64, inode);
                }
            }
        }
    }
}

fn map_node(
    node: &Arc<Node>,
    rebuilt: &mut Rebuilt,
    f: &mut impl FnMut(&mut LsInode),
) -> Arc<Node> {
    if let Some(done) = rebuilt.get(&Arc::as_ptr(node)) {
        return done.clone();
    }
    let mut twin = (**node).clone();
    match &mut twin {
        Node::Branch(kids) => {
            for kid in kids.iter_mut().flatten() {
                *kid = map_node(kid, rebuilt, f);
            }
        }
        Node::Leaf(slots) => slots.iter_mut().flatten().for_each(&mut *f),
    }
    let twin = Arc::new(twin);
    rebuilt.insert(Arc::as_ptr(node), twin.clone());
    twin
}

impl std::ops::Index<u64> for InodeTable {
    type Output = LsInode;

    fn index(&self, ino: u64) -> &LsInode {
        self.get(ino).expect("inode exists")
    }
}

#[cfg(test)]
impl InodeTable {
    /// The identities of this table's nodes.
    pub(crate) fn node_set(&self) -> Seen {
        let mut seen = Seen::new();
        self.for_each_unseen(&mut seen, |_, _| {});
        seen
    }

    /// Tables (and parent nodes) holding this table's root.
    pub(crate) fn root_holders(&self) -> usize {
        self.root.as_ref().map_or(0, Arc::strong_count)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;
    use crate::vfs::FileType;

    fn inode(size: u64) -> LsInode {
        LsInode {
            ftype: FileType::Regular,
            size,
            blocks: Arc::new(Vec::new()),
            children: Arc::new(BTreeMap::new()),
            nlink: 1,
            mtime: dv_time::Timestamp::ZERO,
        }
    }

    fn entries(table: &InodeTable) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        table.for_each(|ino, inode| out.push((ino, inode.size)));
        out
    }

    /// The nodes a table of this height needs for `keys` and no more:
    /// one per distinct key prefix at every level.
    fn minimal_nodes(keys: impl Iterator<Item = u64> + Clone, height: u32) -> usize {
        (0..=height)
            .map(|level| {
                keys.clone()
                    .map(|k| k.checked_shr(BITS * (level + 1)).unwrap_or(0))
                    .collect::<BTreeSet<u64>>()
                    .len()
            })
            .sum()
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Update(u64, u64),
        RemoveRange(u64, u64),
        Snapshot,
    }

    /// Dense low numbers (what a file system allocates), a mid range
    /// that spans several branch levels, and sparse numbers up to the
    /// top bit.
    fn arb_key() -> impl Strategy<Value = u64> {
        prop_oneof![
            4 => 0..48u64,
            3 => 0..5_000u64,
            1 => (any::<u64>(), 0..64u32).prop_map(|(k, s)| k >> s),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (arb_key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            3 => arb_key().prop_map(Op::Remove),
            3 => (arb_key(), any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
            1 => (arb_key(), 1..40u64).prop_map(|(k, n)| Op::RemoveRange(k, n)),
            2 => Just(Op::Snapshot),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The table is a map, its clones are frozen at the moment they
        /// were taken, it holds no node it does not need, and the two
        /// identity walks see every retained version exactly.
        #[test]
        fn table_matches_a_hash_map_and_clones_stay_frozen(
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let mut table = InodeTable::default();
            let mut model: HashMap<u64, u64> = HashMap::new();
            let mut retained: Vec<(InodeTable, HashMap<u64, u64>)> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => {
                        let old = table.insert(k, inode(v)).map(|i| i.size);
                        prop_assert_eq!(old, model.insert(k, v));
                    }
                    Op::Remove(k) => {
                        let old = table.remove(k).map(|i| i.size);
                        prop_assert_eq!(old, model.remove(&k));
                    }
                    Op::Update(k, v) => {
                        let slot = table.get_mut(k);
                        prop_assert_eq!(slot.is_some(), model.contains_key(&k));
                        if let Some(slot) = slot {
                            slot.size = v;
                            model.insert(k, v);
                        }
                    }
                    Op::RemoveRange(k, n) => {
                        for k in k..k.saturating_add(n) {
                            let old = table.remove(k).map(|i| i.size);
                            prop_assert_eq!(old, model.remove(&k));
                        }
                    }
                    Op::Snapshot => retained.push((table.clone(), model.clone())),
                }
                prop_assert_eq!(
                    table.node_set().len(),
                    if model.is_empty() { 0 } else { minimal_nodes(model.keys().copied(), table.height) },
                    "a node without entries was kept after {:?}", op
                );
            }
            retained.push((table, model));

            let sorted = |model: &HashMap<u64, u64>| {
                let mut want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                want.sort_unstable();
                want
            };
            for (table, model) in &retained {
                prop_assert_eq!(entries(table), sorted(model));
                for op in &ops {
                    if let Op::Insert(k, _) | Op::Remove(k) | Op::Update(k, _) = *op {
                        prop_assert_eq!(table.get(k).map(|i| i.size), model.get(&k).copied());
                    }
                }
            }

            // One walk over all versions: every entry of every version,
            // each distinct node entered once.
            let mut seen = Seen::new();
            let mut visited = BTreeSet::new();
            let mut visits = 0usize;
            for (table, _) in &retained {
                table.for_each_unseen(&mut seen, |ino, inode| {
                    visited.insert((ino, inode.size));
                    visits += 1;
                });
            }
            let union: BTreeSet<(u64, u64)> =
                retained.iter().flat_map(|(_, m)| m.iter().map(|(k, v)| (*k, *v))).collect();
            prop_assert_eq!(&visited, &union);
            let solo: usize = retained.iter().map(|(t, _)| entries(t).len()).sum();
            prop_assert!(visits <= solo);

            // One rewrite over all versions keeps the sharing.
            let mut rebuilt = Rebuilt::new();
            let mut bump = |inode: &mut LsInode| inode.size = inode.size.wrapping_add(1);
            let twins: Vec<InodeTable> =
                retained.iter().map(|(t, _)| t.map(&mut rebuilt, &mut bump)).collect();
            let mut twin_nodes = Seen::new();
            for (twin, (_, model)) in twins.iter().zip(&retained) {
                let want: Vec<(u64, u64)> =
                    sorted(model).into_iter().map(|(k, v)| (k, v.wrapping_add(1))).collect();
                prop_assert_eq!(entries(twin), want);
                twin_nodes.extend(twin.node_set());
            }
            prop_assert_eq!(twin_nodes.len(), seen.len());
        }
    }

    #[test]
    fn a_small_table_is_one_leaf_and_a_write_after_a_clone_copies_one_path() {
        let mut table = InodeTable::default();
        for ino in 1..FANOUT as u64 {
            table.insert(ino, inode(ino));
        }
        assert_eq!(table.node_set().len(), 1, "fifteen inodes fit one leaf");
        for ino in FANOUT as u64..10_000 {
            table.insert(ino, inode(ino));
        }
        assert_eq!(table.height, 3);
        let frozen = table.clone();
        assert_eq!(frozen.node_set(), table.node_set());
        table.get_mut(7_777).unwrap().size = 0;
        let (old, new) = (frozen.node_set(), table.node_set());
        assert_eq!(
            old.difference(&new).count(),
            4,
            "root, two branches, one leaf"
        );
        assert_eq!(new.difference(&old).count(), 4);
        assert_eq!(frozen.get(7_777).unwrap().size, 7_777);
        // A second write on the same path copies nothing more.
        table.get_mut(7_778).unwrap().size = 0;
        assert_eq!(table.node_set(), new);
    }

    #[test]
    fn misses_copy_nothing_and_the_top_inode_number_fits() {
        let mut table = InodeTable::default();
        table.insert(1, inode(1));
        let frozen = table.clone();
        assert!(table.remove(2).is_none());
        assert!(table.remove(1 << 40).is_none());
        assert!(table.get_mut(1 << 40).is_none());
        assert_eq!(table.node_set(), frozen.node_set());
        table.insert(u64::MAX, inode(9));
        assert_eq!(table.get(u64::MAX).unwrap().size, 9);
        assert_eq!(entries(&table), vec![(1, 1), (u64::MAX, 9)]);
        assert_eq!(table.remove(u64::MAX).unwrap().size, 9);
        assert_eq!(
            table.node_set().len(),
            16,
            "the emptied branch chain is gone, the height stays"
        );
        assert_eq!(table.remove(1).unwrap().size, 1);
        assert_eq!(table.node_set().len(), 0);
        assert_eq!(table.height, 0);
    }
}
