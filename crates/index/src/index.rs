//! The text index.
//!
//! Stores every *text instance* — one piece of text visible on screen
//! over one interval of time, with its context — plus the window-focus
//! history, and maintains an inverted index from terms to instances.
//! This is the role PostgreSQL + Tsearch2 play in the original (§6).

use std::collections::HashMap;

use dv_obs::{names, Obs};
use dv_time::{Duration, Timestamp};

use crate::interval::{Interval, IntervalSet};
use crate::tokenizer::{for_each_token, is_stopword};

/// How long a point annotation is considered "visible" for queries.
const ANNOTATION_WINDOW_MS: u64 = 1;

/// One indexed text-visibility instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IndexedInstance {
    /// Unique instance id (assigned by the capture daemon).
    pub id: u64,
    /// Numeric application id, used to join with focus history.
    pub app_id: u32,
    /// Application name.
    pub app: String,
    /// Enclosing window title.
    pub window: String,
    /// Component role tag ("paragraph", "link", "menuitem", ...).
    pub role: String,
    /// The visible text.
    pub text: String,
    /// When the text appeared.
    pub shown: Timestamp,
    /// When it disappeared; `None` while still visible.
    pub hidden: Option<Timestamp>,
    /// Whether this is an explicit user annotation (a point event).
    pub annotation: bool,
}

/// The visibility interval of `instance` in a record that ends at
/// `horizon`: an open instance closes at the horizon, and an annotation
/// widens to a small query window.
pub(crate) fn visibility(instance: &IndexedInstance, horizon: Timestamp) -> Interval {
    let after = |ms| instance.shown.saturating_add(Duration::from_millis(ms));
    if instance.annotation {
        return Interval::new(instance.shown, after(ANNOTATION_WINDOW_MS));
    }
    let end = instance.hidden.unwrap_or(horizon);
    // An instance shown at the horizon is visible for an in-progress
    // moment; give it a minimal non-empty interval.
    let end = if end <= instance.shown { after(1) } else { end };
    Interval::new(instance.shown, end)
}

/// Storage accounting for the index (Figure 4's index series).
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Instances indexed.
    pub instances: u64,
    /// Total postings entries.
    pub postings: u64,
    /// Distinct terms.
    pub terms: u64,
    /// Approximate on-disk bytes (text + context + postings).
    pub bytes: u64,
}

/// The interval-aware inverted text index.
///
/// # Examples
///
/// ```
/// use dv_index::{IndexedInstance, TextIndex};
/// use dv_time::Timestamp;
///
/// let mut index = TextIndex::new();
/// index.add_instance(IndexedInstance {
///     id: 1,
///     app_id: 1,
///     app: "editor".into(),
///     window: "notes".into(),
///     role: "paragraph".into(),
///     text: "remember the milk".into(),
///     shown: Timestamp::from_secs(10),
///     hidden: None,
///     annotation: false,
/// });
/// index.close_instance(1, Timestamp::from_secs(30));
/// let hits = index.term_instances("milk");
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TextIndex {
    instances: HashMap<u64, IndexedInstance>,
    postings: HashMap<String, Vec<u64>>,
    focus_history: Vec<(u32, Timestamp)>,
    horizon: Timestamp,
    bytes: u64,
    obs: Obs,
    /// Where the tokenizer folds a token that is not lowercase ASCII;
    /// kept so that folding stops allocating once it is large enough.
    fold: String,
}

impl TextIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        TextIndex::default()
    }

    /// Installs the observability handle: indexed bytes and flushes
    /// report into the `index.*` metrics.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The installed observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn observe(&mut self, t: Timestamp) {
        self.horizon = self.horizon.max(t);
    }

    /// Indexes a new text instance, in one pass over its text.
    ///
    /// Each token is looked up by `&str`; only a term the index has not
    /// seen is tested against the stopwords and given a key of its own.
    /// A posting list is in id order as instances are added, so a term
    /// that repeats within this instance finds this instance's id at
    /// its tail and is skipped: that is the per-instance dedup. An id
    /// is expected once per index (the capture daemon allocates them).
    pub fn add_instance(&mut self, instance: IndexedInstance) {
        let bytes_before = self.bytes;
        self.observe(instance.shown);
        if let Some(hidden) = instance.hidden {
            self.observe(hidden);
        }
        let id = instance.id;
        let (postings, bytes) = (&mut self.postings, &mut self.bytes);
        for_each_token(&instance.text, &mut self.fold, |term| {
            match postings.get_mut(term) {
                Some(ids) if ids.last() == Some(&id) => return,
                Some(ids) => ids.push(id),
                None if is_stopword(term) => return,
                None => {
                    postings.insert(term.to_owned(), vec![id]);
                }
            }
            *bytes += term.len() as u64 + 8;
        });
        self.bytes +=
            (instance.text.len() + instance.app.len() + instance.window.len() + 32) as u64;
        self.instances.insert(instance.id, instance);
        self.obs.add(names::INDEX_BYTES, self.bytes - bytes_before);
    }

    /// Marks an instance as hidden at `t`. Unknown ids are ignored (the
    /// daemon may report hides for text filtered at indexing time).
    pub fn close_instance(&mut self, id: u64, t: Timestamp) {
        self.observe(t);
        if let Some(instance) = self.instances.get_mut(&id) {
            if instance.hidden.is_none() {
                instance.hidden = Some(t);
            }
        }
    }

    /// Ends at `t` every instance still shown and the focus still held,
    /// as when every application goes away at once: from `t` the focus
    /// history names app id 0, which no application has.
    pub fn close_all(&mut self, t: Timestamp) {
        self.observe(t);
        for instance in self.instances.values_mut() {
            instance.hidden.get_or_insert(t);
        }
        if self.focus_history.last().is_some_and(|&(app, _)| app != 0) {
            self.focus_history.push((0, t));
        }
    }

    /// Records that `app_id` gained window focus at `t`.
    pub fn focus_change(&mut self, app_id: u32, t: Timestamp) {
        self.observe(t);
        self.focus_history.push((app_id, t));
    }

    /// Advances the index's notion of "now"; open instances are treated
    /// as visible up to the horizon.
    pub fn advance_horizon(&mut self, t: Timestamp) {
        self.observe(t);
    }

    /// Returns the latest time the index knows about.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// Returns the visibility interval of an instance, closing open
    /// instances at the horizon and widening annotations to a small
    /// query window.
    pub fn visibility(&self, instance: &IndexedInstance) -> Interval {
        visibility(instance, self.horizon)
    }

    /// Returns the instances whose text contains `term` (already
    /// normalized), in indexing order.
    pub fn term_instances(&self, term: &str) -> Vec<&IndexedInstance> {
        match self.postings.get(term) {
            Some(ids) => ids.iter().filter_map(|id| self.instances.get(id)).collect(),
            None => Vec::new(),
        }
    }

    /// Returns every indexed instance (for "match any" queries).
    pub fn all_instances(&self) -> impl Iterator<Item = &IndexedInstance> {
        self.instances.values()
    }

    /// Returns an instance by id.
    pub fn instance(&self, id: u64) -> Option<&IndexedInstance> {
        self.instances.get(&id)
    }

    /// Returns the intervals during which `app_id` held window focus.
    pub fn focus_intervals(&self, app_id: u32) -> IntervalSet {
        let mut intervals = Vec::new();
        for (i, (app, start)) in self.focus_history.iter().enumerate() {
            if *app != app_id {
                continue;
            }
            let end = self
                .focus_history
                .get(i + 1..)
                .and_then(|rest| rest.iter().find(|(other, _)| other != app))
                .map(|(_, t)| *t)
                .unwrap_or(self.horizon);
            intervals.push(Interval::new(*start, end));
        }
        IntervalSet::from_intervals(intervals)
    }

    /// Returns the largest instance id in the index (0 when empty); a
    /// reopened index's producers must allocate above this.
    pub fn max_instance_id(&self) -> u64 {
        self.instances.keys().copied().max().unwrap_or(0)
    }

    /// Returns the raw focus-change history `(app_id, gained_at)`.
    pub fn focus_history(&self) -> &[(u32, Timestamp)] {
        &self.focus_history
    }

    /// Returns storage accounting.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            instances: self.instances.len() as u64,
            postings: self.postings.values().map(|v| v.len() as u64).sum(),
            terms: self.postings.len() as u64,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(
        id: u64,
        app: &str,
        text: &str,
        shown_ms: u64,
        hidden_ms: Option<u64>,
    ) -> IndexedInstance {
        IndexedInstance {
            id,
            app_id: app.len() as u32,
            app: app.into(),
            window: format!("{app} window"),
            role: "paragraph".into(),
            text: text.into(),
            shown: Timestamp::from_millis(shown_ms),
            hidden: hidden_ms.map(Timestamp::from_millis),
            annotation: false,
        }
    }

    #[test]
    fn postings_find_instances_by_term() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, "editor", "alpha beta", 0, Some(100)));
        index.add_instance(inst(2, "term", "beta gamma", 50, Some(150)));
        assert_eq!(index.term_instances("alpha").len(), 1);
        assert_eq!(index.term_instances("beta").len(), 2);
        assert_eq!(index.term_instances("gamma")[0].id, 2);
        assert!(index.term_instances("delta").is_empty());
    }

    #[test]
    fn duplicate_terms_index_once_per_instance() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, "a", "word word word", 0, None));
        assert_eq!(index.term_instances("word").len(), 1);
        assert_eq!(index.stats().postings, 1);
    }

    #[test]
    fn open_instances_run_to_horizon() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, "a", "open text", 100, None));
        index.advance_horizon(Timestamp::from_millis(5_000));
        let instance = index.instance(1).unwrap();
        let iv = index.visibility(instance);
        assert_eq!(iv.start, Timestamp::from_millis(100));
        assert_eq!(iv.end, Timestamp::from_millis(5_000));
    }

    #[test]
    fn close_instance_fixes_interval() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, "a", "text", 100, None));
        index.close_instance(1, Timestamp::from_millis(300));
        index.advance_horizon(Timestamp::from_millis(9_000));
        let iv = index.visibility(index.instance(1).unwrap());
        assert_eq!(iv.end, Timestamp::from_millis(300));
        // Double-close is ignored.
        index.close_instance(1, Timestamp::from_millis(500));
        assert_eq!(
            index.visibility(index.instance(1).unwrap()).end,
            Timestamp::from_millis(300)
        );
    }

    #[test]
    fn annotations_are_point_events() {
        let mut index = TextIndex::new();
        let mut a = inst(1, "a", "tagged", 100, None);
        a.annotation = true;
        index.add_instance(a);
        index.advance_horizon(Timestamp::from_secs(100));
        let iv = index.visibility(index.instance(1).unwrap());
        assert_eq!(iv.start, Timestamp::from_millis(100));
        assert_eq!(iv.end, Timestamp::from_millis(101));
    }

    #[test]
    fn focus_intervals_follow_history() {
        let mut index = TextIndex::new();
        index.focus_change(1, Timestamp::from_millis(0));
        index.focus_change(2, Timestamp::from_millis(100));
        index.focus_change(1, Timestamp::from_millis(200));
        index.advance_horizon(Timestamp::from_millis(300));
        let f1 = index.focus_intervals(1);
        assert_eq!(f1.intervals().len(), 2);
        assert!(f1.contains(Timestamp::from_millis(50)));
        assert!(!f1.contains(Timestamp::from_millis(150)));
        assert!(f1.contains(Timestamp::from_millis(250)));
        let f2 = index.focus_intervals(2);
        assert!(f2.contains(Timestamp::from_millis(150)));
        assert!(index.focus_intervals(99).intervals().is_empty());
    }

    #[test]
    fn consecutive_focus_events_for_same_app_merge() {
        let mut index = TextIndex::new();
        index.focus_change(1, Timestamp::from_millis(0));
        index.focus_change(1, Timestamp::from_millis(50));
        index.focus_change(2, Timestamp::from_millis(100));
        index.advance_horizon(Timestamp::from_millis(200));
        let f1 = index.focus_intervals(1);
        assert_eq!(f1.intervals().len(), 1);
        assert_eq!(f1.intervals()[0].end, Timestamp::from_millis(100));
    }

    #[test]
    fn stats_accumulate() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, "a", "one two", 0, None));
        index.add_instance(inst(2, "b", "two three", 0, None));
        let stats = index.stats();
        assert_eq!(stats.instances, 2);
        assert_eq!(stats.terms, 3);
        assert_eq!(stats.postings, 4);
        assert!(stats.bytes > 0);
    }
}
