//! Query evaluation and result ranking.
//!
//! Evaluation turns a [`Query`] into the [`IntervalSet`] of times at
//! which it is satisfied; each maximal interval becomes a search hit
//! that the DejaView client renders as a screenshot portal, "ordered
//! according to several user-defined criteria ... chronological ordering,
//! persistence information (ie. how long the text was on the screen),
//! number of times the words appear" (§4.4).
//!
//! A query runs over a set of **shards**, oldest first: complete
//! [`TextIndex`]es over consecutive windows of time (dv-tidx's sealed
//! segments, then its open shard). A single index is the one-shard
//! case. An instance that stayed visible across a seal appears in
//! consecutive shards with the same id and its original `shown` time,
//! so the union of its per-shard visibility intervals is exactly its
//! global visibility. Leaves (`Term`/`Phrase`/`Any`) therefore union
//! their [`IntervalSet`]s across shards, while the boolean structure —
//! `And`/`Or`/`Not`/`During` and the context modifiers — is applied
//! once. `Not` in particular complements against the one global
//! horizon, never per shard: a per-shard complement would claim times a
//! later shard knows nothing about.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use dv_time::{Duration, Timestamp};

use crate::index::{visibility, IndexedInstance, TextIndex};
use crate::interval::{Interval, IntervalSet};
use crate::query::Query;

/// Context filters accumulated while descending the query tree.
#[derive(Clone, Default, Debug)]
struct Ctx {
    app: Option<String>,
    window: Option<String>,
    focused: bool,
    annotated: bool,
}

impl Ctx {
    fn admits(&self, instance: &IndexedInstance) -> bool {
        if let Some(app) = &self.app {
            if !instance.app.to_lowercase().contains(app) {
                return false;
            }
        }
        if let Some(window) = &self.window {
            if !instance.window.to_lowercase().contains(window) {
                return false;
            }
        }
        if self.annotated && !instance.annotation {
            return false;
        }
        true
    }
}

/// Evaluates a query over the shards to the set of times it is
/// satisfied.
pub fn evaluate(shards: &[&TextIndex], query: &Query) -> IntervalSet {
    eval(shards, horizon(shards), query, &Ctx::default())
}

/// The latest time any shard knows about.
fn horizon(shards: &[&TextIndex]) -> Timestamp {
    shards
        .iter()
        .map(|s| s.horizon())
        .max()
        .unwrap_or(Timestamp::ZERO)
}

/// Unions the times of every admitted instance `leaf` picks out of each
/// shard, each visible up to its own shard's horizon.
fn leaf_union<'a, I>(
    shards: &[&'a TextIndex],
    ctx: &Ctx,
    leaf: impl Fn(&'a TextIndex) -> I,
) -> IntervalSet
where
    I: IntoIterator<Item = &'a IndexedInstance>,
{
    let mut acc = IntervalSet::new();
    for shard in shards {
        for instance in leaf(shard).into_iter().filter(|i| ctx.admits(i)) {
            let visible = IntervalSet::from_intervals([shard.visibility(instance)]);
            let times = if ctx.focused {
                visible.intersect(&shard.focus_intervals(instance.app_id))
            } else {
                visible
            };
            acc = acc.union(&times);
        }
    }
    acc
}

fn eval(shards: &[&TextIndex], horizon: Timestamp, query: &Query, ctx: &Ctx) -> IntervalSet {
    let sub = |q| eval(shards, horizon, q, ctx);
    let narrowed = |q, narrow: &dyn Fn(&mut Ctx)| {
        let mut ctx = ctx.clone();
        narrow(&mut ctx);
        eval(shards, horizon, q, &ctx)
    };
    match query {
        Query::Any => leaf_union(shards, ctx, |s| s.all_instances()),
        Query::Term(term) => leaf_union(shards, ctx, |s| s.term_instances(term)),
        Query::Phrase(words) => {
            // Candidates come from the first word's postings; adjacency
            // is verified against the instance text.
            let Some(first) = words.first() else {
                return IntervalSet::new();
            };
            leaf_union(shards, ctx, |s| {
                s.term_instances(first)
                    .into_iter()
                    .filter(|i| contains_phrase(&i.text, words))
            })
        }
        Query::And(a, b) => sub(a).intersect(&sub(b)),
        Query::Or(a, b) => sub(a).union(&sub(b)),
        Query::Not(q) => sub(q).complement(Timestamp::ZERO, horizon),
        Query::App(name, q) => narrowed(q, &|c| c.app = Some(name.clone())),
        Query::Window(title, q) => narrowed(q, &|c| c.window = Some(title.clone())),
        Query::Focused(q) => narrowed(q, &|c| c.focused = true),
        Query::Annotated(q) => narrowed(q, &|c| c.annotated = true),
        Query::During { from, to, q } => sub(q).clip(*from, *to),
    }
}

/// One search result: a maximal interval over which the query held.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SearchHit {
    /// When the query first became satisfied.
    pub time: Timestamp,
    /// When it stopped being satisfied.
    pub until: Timestamp,
    /// How long the matching text persisted.
    pub persistence: Duration,
    /// Number of matching text instances overlapping the interval.
    pub matches: usize,
    /// A text snippet from a matching instance.
    pub snippet: String,
    /// Applications contributing matches.
    pub apps: Vec<String>,
}

/// Result orderings from §4.4.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RankOrder {
    /// Oldest hit first.
    #[default]
    Chronological,
    /// Most recent hit first.
    ReverseChronological,
    /// Briefest-on-screen first — "a user could be less interested in
    /// those parts of the record when certain text was always visible,
    /// and more interested in the records where the text appeared only
    /// briefly".
    PersistenceAscending,
    /// Most matching instances first.
    MatchCount,
    /// Highest persistence-weighted score first (ScreenTrack-style):
    /// content that stayed on screen longest, weighted by how many
    /// instances matched, is what the user most likely remembers.
    PersistenceWeighted,
}

/// Evaluates a query over the shards and builds ranked hits.
pub fn search(shards: &[&TextIndex], query: &Query, order: RankOrder) -> Vec<SearchHit> {
    let horizon = horizon(shards);
    let satisfied = eval(shards, horizon, query, &Ctx::default());
    let candidates = candidates(shards, query);
    let mut hits: Vec<SearchHit> = satisfied
        .intervals()
        .iter()
        .map(|iv| build_hit(*iv, &candidates, horizon))
        .collect();
    rank_by(&mut hits, order, |h| h);
    hits
}

/// Sorts any carrier of a hit (the hit itself, or a `(tenant, hit)`
/// pair when merging tenants) by the rank under `order` of the
/// [`SearchHit`] that `hit` projects out. A stable sort, so equal-ranked
/// items keep their input order — merge in tenant order for
/// deterministic results.
pub fn rank_by<T>(items: &mut [T], order: RankOrder, hit: impl Fn(&T) -> &SearchHit) {
    match order {
        RankOrder::Chronological => items.sort_by_key(|t| hit(t).time),
        RankOrder::ReverseChronological => items.sort_by_key(|t| Reverse(hit(t).time)),
        RankOrder::PersistenceAscending => items.sort_by_key(|t| hit(t).persistence),
        RankOrder::MatchCount => items.sort_by_key(|t| Reverse(hit(t).matches)),
        RankOrder::PersistenceWeighted => items.sort_by_key(|t| {
            let h = hit(t);
            Reverse(h.persistence.as_nanos() as u128 * h.matches.max(1) as u128)
        }),
    }
}

/// The instances a hit can credit: those holding a positive query term
/// (every instance when the query has none), deduplicated by id, in
/// order of appearance. Shards are oldest first, so a carried
/// instance's newest copy — the one that saw its hide, if any — wins.
fn candidates<'a>(shards: &[&'a TextIndex], query: &Query) -> Vec<&'a IndexedInstance> {
    let mut terms = Vec::new();
    collect_terms(query, &mut terms);
    let mut by_id = BTreeMap::new();
    for shard in shards {
        if terms.is_empty() {
            by_id.extend(shard.all_instances().map(|i| (i.id, i)));
        }
        for term in &terms {
            by_id.extend(shard.term_instances(term).into_iter().map(|i| (i.id, i)));
        }
    }
    let mut out: Vec<&IndexedInstance> = by_id.into_values().collect();
    out.sort_by_key(|i| (i.shown, i.id));
    out
}

/// Returns whether `text` contains the words adjacently (ignoring
/// stopwords, matching the indexing-side normalization), streaming the
/// text's tokens: `open[k]` says the last `k` tokens are the first `k`
/// words.
fn contains_phrase(text: &str, words: &[String]) -> bool {
    let Some(last) = words.len().checked_sub(1) else {
        return false;
    };
    let mut open = vec![false; words.len()];
    open[0] = true;
    let mut found = false;
    crate::tokenizer::for_each_token(text, &mut String::new(), |token| {
        if found || crate::tokenizer::is_stopword(token) {
            return;
        }
        found = open[last] && words[last] == token;
        for k in (1..=last).rev() {
            open[k] = open[k - 1] && words[k - 1] == token;
        }
    });
    found
}

/// The positive terms a query can match snippets against, in query
/// order.
fn collect_terms<'q>(query: &'q Query, out: &mut Vec<&'q str>) {
    match query {
        Query::Any => {}
        Query::Term(t) => out.push(t),
        Query::Phrase(words) => out.extend(words.iter().map(String::as_str)),
        Query::And(a, b) | Query::Or(a, b) => {
            collect_terms(a, out);
            collect_terms(b, out);
        }
        // Text under a NOT is what must be absent; it contributes no
        // snippet material.
        Query::Not(_) => {}
        Query::App(_, q)
        | Query::Window(_, q)
        | Query::Focused(q)
        | Query::Annotated(q)
        | Query::During { q, .. } => collect_terms(q, out),
    }
}

/// Builds the hit for one satisfied interval, crediting every candidate
/// visible (up to the global `horizon`) during it.
fn build_hit(iv: Interval, candidates: &[&IndexedInstance], horizon: Timestamp) -> SearchHit {
    let mut snippet = String::new();
    let mut apps: Vec<String> = Vec::new();
    let mut matches = 0;
    for instance in candidates {
        let vis = visibility(instance, horizon);
        if vis.start < iv.end && iv.start < vis.end {
            matches += 1;
            if snippet.is_empty() {
                snippet = snippet_of(&instance.text);
            }
            if !apps.contains(&instance.app) {
                apps.push(instance.app.clone());
            }
        }
    }
    SearchHit {
        time: iv.start,
        until: iv.end,
        persistence: iv.end.saturating_since(iv.start),
        matches,
        snippet,
        apps,
    }
}

/// Truncates instance text to a display snippet.
fn snippet_of(text: &str) -> String {
    const MAX: usize = 120;
    if text.len() <= MAX {
        return text.to_string();
    }
    let mut end = MAX;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &text[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexedInstance;
    use crate::query::parse_query;

    fn inst(
        id: u64,
        app_id: u32,
        app: &str,
        window: &str,
        text: &str,
        shown_ms: u64,
        hidden_ms: Option<u64>,
    ) -> IndexedInstance {
        IndexedInstance {
            id,
            app_id,
            app: app.into(),
            window: window.into(),
            role: "paragraph".into(),
            text: text.into(),
            shown: Timestamp::from_millis(shown_ms),
            hidden: hidden_ms.map(Timestamp::from_millis),
            annotation: false,
        }
    }

    /// Builds the paper's running example: a web page and a paper open
    /// at overlapping times in different applications.
    fn sample_index() -> TextIndex {
        let mut index = TextIndex::new();
        index.add_instance(inst(
            1,
            1,
            "firefox",
            "conference site - firefox",
            "virtual machines conference program",
            1_000,
            Some(8_000),
        ));
        index.add_instance(inst(
            2,
            2,
            "acroread",
            "dejaview.pdf - acroread",
            "personal virtual computer recorder paper",
            5_000,
            Some(20_000),
        ));
        index.add_instance(inst(
            3,
            2,
            "acroread",
            "dejaview.pdf - acroread",
            "evaluation section checkpoint latency",
            9_000,
            Some(12_000),
        ));
        index.focus_change(1, Timestamp::from_millis(0));
        index.focus_change(2, Timestamp::from_millis(6_000));
        index.advance_horizon(Timestamp::from_millis(30_000));
        index
    }

    fn eval_str(index: &TextIndex, q: &str) -> IntervalSet {
        evaluate(&[index], &parse_query(q).unwrap())
    }

    #[test]
    fn single_term_matches_visibility_window() {
        let index = sample_index();
        let set = eval_str(&index, "conference");
        assert!(set.contains(Timestamp::from_millis(1_000)));
        assert!(set.contains(Timestamp::from_millis(7_999)));
        assert!(!set.contains(Timestamp::from_millis(8_000)));
    }

    #[test]
    fn and_requires_temporal_overlap() {
        let index = sample_index();
        // "the time when she started reading a paper ... a particular
        // web page was open at the same time": both visible in 5s..8s.
        let set = eval_str(&index, "conference paper");
        assert_eq!(set.intervals().len(), 1);
        assert_eq!(set.intervals()[0].start, Timestamp::from_millis(5_000));
        assert_eq!(set.intervals()[0].end, Timestamp::from_millis(8_000));
    }

    #[test]
    fn or_unions_times() {
        let index = sample_index();
        let set = eval_str(&index, "conference OR evaluation");
        assert!(set.contains(Timestamp::from_millis(2_000)));
        assert!(set.contains(Timestamp::from_millis(10_000)));
        assert!(!set.contains(Timestamp::from_millis(25_000)));
    }

    #[test]
    fn not_complements_within_horizon() {
        let index = sample_index();
        let set = eval_str(&index, "paper -conference");
        // Paper visible 5s..20s, conference visible 1s..8s.
        assert!(!set.contains(Timestamp::from_millis(6_000)));
        assert!(set.contains(Timestamp::from_millis(9_000)));
    }

    #[test]
    fn app_filter_restricts_source() {
        let index = sample_index();
        let set = eval_str(&index, "app:acroread virtual");
        // "virtual" appears in both apps; only acroread's counts.
        assert!(!set.contains(Timestamp::from_millis(2_000)));
        assert!(set.contains(Timestamp::from_millis(10_000)));
    }

    #[test]
    fn window_filter_restricts_titles() {
        let index = sample_index();
        let set = eval_str(&index, "window:dejaview checkpoint");
        assert!(set.contains(Timestamp::from_millis(9_500)));
        let none = eval_str(&index, "window:inbox checkpoint");
        assert!(none.intervals().is_empty());
    }

    #[test]
    fn focused_restricts_to_focus_intervals() {
        let index = sample_index();
        // Firefox text while firefox had focus: 1s..6s only.
        let set = eval_str(&index, "focused: conference");
        assert!(set.contains(Timestamp::from_millis(2_000)));
        assert!(!set.contains(Timestamp::from_millis(7_000)));
    }

    #[test]
    fn time_range_clips() {
        let index = sample_index();
        let set = eval_str(&index, "from:6 to:7 conference");
        assert_eq!(set.intervals().len(), 1);
        assert_eq!(set.intervals()[0].start, Timestamp::from_secs(6));
        assert_eq!(set.intervals()[0].end, Timestamp::from_secs(7));
    }

    #[test]
    fn search_builds_ranked_hits() {
        let index = sample_index();
        let q = parse_query("virtual").unwrap();
        let hits = search(&[&index], &q, RankOrder::Chronological);
        assert_eq!(hits.len(), 1, "overlapping visibilities merge");
        let hit = &hits[0];
        assert_eq!(hit.time, Timestamp::from_millis(1_000));
        assert_eq!(hit.matches, 2);
        assert!(hit.apps.contains(&"firefox".to_string()));
        assert!(hit.apps.contains(&"acroread".to_string()));
        assert!(!hit.snippet.is_empty());
    }

    #[test]
    fn persistence_ranking_puts_brief_text_first() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, 1, "a", "w", "needle long", 0, Some(100_000)));
        index.add_instance(inst(2, 1, "a", "w", "needle brief", 200_000, Some(201_000)));
        index.advance_horizon(Timestamp::from_millis(300_000));
        let q = parse_query("needle").unwrap();
        let hits = search(&[&index], &q, RankOrder::PersistenceAscending);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].time, Timestamp::from_millis(200_000), "brief first");
    }

    #[test]
    fn persistence_weighted_ranking_puts_long_lived_matches_first() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, 1, "a", "w", "needle brief", 0, Some(1_000)));
        index.add_instance(inst(2, 1, "a", "w", "needle long", 10_000, Some(110_000)));
        index.advance_horizon(Timestamp::from_millis(200_000));
        let q = parse_query("needle").unwrap();
        let hits = search(&[&index], &q, RankOrder::PersistenceWeighted);
        assert_eq!(hits.len(), 2);
        assert_eq!(
            hits[0].time,
            Timestamp::from_millis(10_000),
            "long-lived match outranks the brief one"
        );
    }

    #[test]
    fn match_count_ranking() {
        let mut index = TextIndex::new();
        index.add_instance(inst(1, 1, "a", "w", "solo needle", 0, Some(10)));
        index.add_instance(inst(2, 1, "a", "w", "needle one", 100, Some(200)));
        index.add_instance(inst(3, 1, "a", "w", "needle two", 150, Some(200)));
        index.advance_horizon(Timestamp::from_millis(300));
        let q = parse_query("needle").unwrap();
        let hits = search(&[&index], &q, RankOrder::MatchCount);
        assert_eq!(hits[0].matches, 2);
        assert_eq!(hits[1].matches, 1);
    }

    #[test]
    fn phrase_queries_require_adjacency() {
        let mut index = TextIndex::new();
        index.add_instance(inst(
            1,
            1,
            "a",
            "w",
            "virtual computer recorder demo",
            0,
            Some(100),
        ));
        index.add_instance(inst(
            2,
            1,
            "a",
            "w",
            "recorder for a virtual computer",
            200,
            Some(300),
        ));
        index.advance_horizon(Timestamp::from_millis(400));
        // "computer recorder" is adjacent only in the first instance.
        let q = parse_query("\"computer recorder\"").unwrap();
        let set = evaluate(&[&index], &q);
        assert!(set.contains(Timestamp::from_millis(50)));
        assert!(!set.contains(Timestamp::from_millis(250)));
        // Individual terms match both.
        let q = parse_query("computer recorder").unwrap();
        let set = evaluate(&[&index], &q);
        assert!(set.contains(Timestamp::from_millis(250)));
    }

    #[test]
    fn phrases_skip_stopwords_like_indexing() {
        let mut index = TextIndex::new();
        index.add_instance(inst(
            1,
            1,
            "a",
            "w",
            "state of the art recorder",
            0,
            Some(100),
        ));
        index.advance_horizon(Timestamp::from_millis(200));
        // Indexing drops "of"/"the"; the phrase matcher does too.
        let q = parse_query("\"state art recorder\"").unwrap();
        assert!(evaluate(&[&index], &q).contains(Timestamp::from_millis(10)));
    }

    #[test]
    fn phrase_with_context_filter() {
        let index = sample_index();
        let q = parse_query("app:acroread \"computer recorder\"").unwrap();
        let set = evaluate(&[&index], &q);
        assert!(set.contains(Timestamp::from_millis(10_000)));
        let q = parse_query("app:firefox \"computer recorder\"").unwrap();
        assert!(evaluate(&[&index], &q).intervals().is_empty());
    }

    #[test]
    fn snippet_truncates_long_text() {
        let long = "x".repeat(500);
        assert!(snippet_of(&long).chars().count() <= 121);
        assert!(snippet_of("short").eq("short"));
    }
}
