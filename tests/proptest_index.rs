//! Property tests for the text index and the accessibility mirror.
//!
//! * Query evaluation must agree with a naive per-instant scan of the
//!   text record ("is the query satisfied at time t?") for arbitrary
//!   indexed content and query shapes — over one index and over the
//!   same record cut into time shards by a `TidxEngine`.
//! * The capture daemon's mirror tree must stay an exact replica of the
//!   real accessible trees under arbitrary event sequences (§4.2).
//! * One-pass indexing must build exactly the postings, stats and
//!   phrase answers of the pipeline it replaced, and must not allocate
//!   per token.

#[path = "common/alloc.rs"]
mod alloc;

use std::collections::HashMap;

use proptest::prelude::*;

use dv_access::{AccessibleTree, AppId, MirrorTree, NodeId, Role};
use dv_fault::FaultPlane;
use dv_index::{
    evaluate, parse_query, IndexedInstance, Interval, IntervalSet, Query, RankOrder, TextIndex,
};
use dv_lsfs::SharedBlobStore;
use dv_obs::Obs;
use dv_tidx::TidxEngine;
use dv_time::Timestamp;

// ---------------------------------------------------------------------
// Index evaluation vs naive oracle.
// ---------------------------------------------------------------------

const VOCAB: &[&str] = &["alpha", "beta", "gamma", "delta"];
const APPS: &[&str] = &["firefox", "editor"];
const HORIZON_MS: u64 = 1_000;

#[derive(Clone, Debug)]
struct Spec {
    app_idx: usize,
    words: Vec<usize>,
    shown: u64,
    len: u64,
    annotation: bool,
}

fn arb_instance() -> impl Strategy<Value = Spec> {
    (
        0..APPS.len(),
        prop::collection::vec(0..VOCAB.len(), 1..4),
        0..HORIZON_MS - 10,
        1..300u64,
        prop::bool::weighted(0.1),
    )
        .prop_map(|(app_idx, words, shown, len, annotation)| Spec {
            app_idx,
            words,
            shown,
            len,
            annotation,
        })
}

fn arb_query() -> impl Strategy<Value = Query> {
    let term = prop_oneof![
        (0..VOCAB.len()).prop_map(|i| Query::Term(VOCAB[i].to_string())),
        (0..VOCAB.len(), 0..VOCAB.len())
            .prop_map(|(a, b)| { Query::Phrase(vec![VOCAB[a].to_string(), VOCAB[b].to_string()]) }),
    ];
    term.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Query::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Query::Or(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|q| Query::Not(Box::new(q))),
            (0..APPS.len(), inner.clone())
                .prop_map(|(i, q)| Query::App(APPS[i].to_string(), Box::new(q))),
            inner.clone().prop_map(|q| Query::Annotated(Box::new(q))),
            (0..HORIZON_MS, 0..HORIZON_MS, inner.clone()).prop_map(|(a, b, q)| {
                let (from, to) = if a <= b { (a, b) } else { (b, a) };
                Query::During {
                    from: Timestamp::from_millis(from),
                    to: Timestamp::from_millis(to),
                    q: Box::new(q),
                }
            }),
        ]
    })
}

fn build_index(specs: &[Spec]) -> (TextIndex, Vec<IndexedInstance>) {
    let mut index = TextIndex::new();
    let mut instances = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let text: Vec<&str> = spec.words.iter().map(|&w| VOCAB[w]).collect();
        let instance = IndexedInstance {
            id: i as u64 + 1,
            app_id: spec.app_idx as u32,
            app: APPS[spec.app_idx].to_string(),
            window: format!("{} window", APPS[spec.app_idx]),
            role: "paragraph".to_string(),
            text: text.join(" "),
            shown: Timestamp::from_millis(spec.shown),
            hidden: Some(Timestamp::from_millis(spec.shown + spec.len)),
            annotation: spec.annotation,
        };
        index.add_instance(instance.clone());
        instances.push(instance);
    }
    index.advance_horizon(Timestamp::from_millis(HORIZON_MS));
    (index, instances)
}

/// Feeds `instances` to a sharded engine the way the capture daemon
/// does — each added open when shown and closed when hidden, in time
/// order — and seals the open shard at every time in `seals`
/// (ascending, counters 1, 2, …). An instance still visible at a seal
/// is carried into the next shard and closed there.
fn build_sharded(instances: &[IndexedInstance], seals: &[u64]) -> TidxEngine {
    let engine = TidxEngine::new(
        Default::default(),
        Default::default(),
        SharedBlobStore::in_memory(),
        FaultPlane::disabled(),
        Obs::disabled(),
        Default::default(),
    );
    let mut events: Vec<(Timestamp, &IndexedInstance, bool)> = instances
        .iter()
        .flat_map(|i| [(i.shown, i, true), (i.hidden.expect("closed"), i, false)])
        .collect();
    events.sort_by_key(|&(t, ..)| t);
    let mut events = events.into_iter().peekable();
    let open = engine.log().open();
    let apply = |(t, instance, shown): (Timestamp, &IndexedInstance, bool)| {
        if shown {
            open.lock().add_instance(IndexedInstance {
                hidden: None,
                ..instance.clone()
            });
        } else {
            open.lock().close_instance(instance.id, t);
        }
    };
    for (counter, &ms) in (1..).zip(seals) {
        let seal = Timestamp::from_millis(ms);
        while let Some(event) = events.next_if(|&(t, ..)| t < seal) {
            apply(event);
        }
        open.lock().advance_horizon(seal);
        engine.log().seal(counter).expect("an in-memory seal");
    }
    events.for_each(apply);
    open.lock()
        .advance_horizon(Timestamp::from_millis(HORIZON_MS));
    engine
}

/// `evaluate` over the engine's shards: every live segment, oldest
/// first, then the open shard.
fn evaluate_sharded(engine: &TidxEngine, query: &Query) -> IntervalSet {
    let shards = engine
        .log()
        .with_shards(None, |_| true, |shards| evaluate(shards, query));
    shards.expect("readable")
}

/// The oracle: is `q` satisfied at `t`, by definition?
fn naive_satisfied(
    index: &TextIndex,
    instances: &[IndexedInstance],
    q: &Query,
    t: Timestamp,
    app: Option<&str>,
    annotated: bool,
) -> bool {
    match q {
        Query::Any => instances
            .iter()
            .any(|i| visible(index, i, t) && ctx_ok(i, app, annotated)),
        Query::Term(term) => instances.iter().any(|i| {
            i.text.split(' ').any(|w| w == term)
                && visible(index, i, t)
                && ctx_ok(i, app, annotated)
        }),
        Query::And(a, b) => {
            naive_satisfied(index, instances, a, t, app, annotated)
                && naive_satisfied(index, instances, b, t, app, annotated)
        }
        Query::Or(a, b) => {
            naive_satisfied(index, instances, a, t, app, annotated)
                || naive_satisfied(index, instances, b, t, app, annotated)
        }
        Query::Not(inner) => !naive_satisfied(index, instances, inner, t, app, annotated),
        Query::App(name, inner) => {
            naive_satisfied(index, instances, inner, t, Some(name), annotated)
        }
        Query::Annotated(inner) => naive_satisfied(index, instances, inner, t, app, true),
        Query::During { from, to, q } => {
            t >= *from && t < *to && naive_satisfied(index, instances, q, t, app, annotated)
        }
        Query::Phrase(words) => instances.iter().any(|i| {
            let tokens: Vec<&str> = i.text.split(' ').collect();
            tokens.len() >= words.len()
                && tokens
                    .windows(words.len())
                    .any(|w| w.iter().zip(words).all(|(a, b)| a == b))
                && visible(index, i, t)
                && ctx_ok(i, app, annotated)
        }),
        Query::Window(..) | Query::Focused(..) => unreachable!("not generated"),
    }
}

fn visible(index: &TextIndex, i: &IndexedInstance, t: Timestamp) -> bool {
    index.visibility(i).contains(t)
}

fn ctx_ok(i: &IndexedInstance, app: Option<&str>, annotated: bool) -> bool {
    if let Some(app) = app {
        if !i.app.to_lowercase().contains(app) {
            return false;
        }
    }
    if annotated && !i.annotation {
        return false;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interval-algebra evaluation agrees with the naive per-instant
    /// oracle at sampled times (including interval boundaries), over
    /// one index and over the same record sealed into one to four time
    /// shards: both `evaluate` over the shards and the hit intervals of
    /// the engine's search.
    #[test]
    fn evaluation_matches_naive_scan(
        specs in prop::collection::vec(arb_instance(), 0..8),
        query in arb_query(),
        probes in prop::collection::vec(0..HORIZON_MS, 8),
        seals in prop::collection::vec(1..HORIZON_MS, 0..4),
    ) {
        let (index, instances) = build_index(&specs);
        let satisfied = evaluate(&[&index], &query);
        let mut seals = seals;
        seals.sort_unstable();
        seals.dedup();
        let engine = build_sharded(&instances, &seals);
        let sharded = evaluate_sharded(&engine, &query);
        let hits = engine.search(&query, RankOrder::Chronological).expect("in memory");
        prop_assert_eq!(
            &hits,
            &dv_index::search(&[&index], &query, RankOrder::Chronological),
            "hits diverged at seals {:?}", seals
        );
        // Probe at random times plus every boundary.
        let mut times: Vec<u64> = probes;
        for spec in &specs {
            times.push(spec.shown);
            times.push(spec.shown + spec.len);
            times.push(spec.shown.saturating_sub(1));
        }
        for ms in times {
            if ms >= HORIZON_MS {
                continue;
            }
            let t = Timestamp::from_millis(ms);
            let expected = naive_satisfied(&index, &instances, &query, t, None, false);
            prop_assert_eq!(
                satisfied.contains(t),
                expected,
                "query {:?} at t={}ms", query, ms
            );
            prop_assert_eq!(
                sharded.contains(t),
                expected,
                "query {:?} at t={}ms over seals {:?}", query, ms, seals
            );
            prop_assert_eq!(
                hits.iter().any(|h| h.time <= t && t < h.until),
                expected,
                "hits of {:?} at t={}ms over seals {:?}", query, ms, seals
            );
        }
    }

    /// Interval set algebra laws: union/intersect/complement behave like
    /// pointwise boolean algebra.
    #[test]
    fn interval_algebra_is_boolean(
        a in prop::collection::vec((0..1_000u64, 1..100u64), 0..6),
        b in prop::collection::vec((0..1_000u64, 1..100u64), 0..6),
        probes in prop::collection::vec(0..1_200u64, 16),
    ) {
        let mk = |pairs: &[(u64, u64)]| {
            IntervalSet::from_intervals(pairs.iter().map(|&(s, l)| {
                Interval::new(Timestamp::from_millis(s), Timestamp::from_millis(s + l))
            }))
        };
        let sa = mk(&a);
        let sb = mk(&b);
        let horizon = Timestamp::from_millis(1_200);
        let union = sa.union(&sb);
        let inter = sa.intersect(&sb);
        let comp = sa.complement(Timestamp::ZERO, horizon);
        for ms in probes {
            let t = Timestamp::from_millis(ms);
            prop_assert_eq!(union.contains(t), sa.contains(t) || sb.contains(t));
            prop_assert_eq!(inter.contains(t), sa.contains(t) && sb.contains(t));
            if t < horizon {
                prop_assert_eq!(comp.contains(t), !sa.contains(t));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mirror fidelity under random event sequences.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum TreeOp {
    Add {
        parent_seed: usize,
        role_seed: usize,
        text_seed: usize,
    },
    SetText {
        node_seed: usize,
        text_seed: usize,
    },
    Remove {
        node_seed: usize,
    },
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        3 => (any::<usize>(), 0..4usize, any::<usize>())
            .prop_map(|(parent_seed, role_seed, text_seed)| TreeOp::Add {
                parent_seed,
                role_seed,
                text_seed
            }),
        2 => (any::<usize>(), any::<usize>())
            .prop_map(|(node_seed, text_seed)| TreeOp::SetText { node_seed, text_seed }),
        1 => any::<usize>().prop_map(|node_seed| TreeOp::Remove { node_seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The mirror stays an exact replica under arbitrary add/set/remove
    /// sequences, using only incremental updates.
    #[test]
    fn mirror_stays_exact(ops in prop::collection::vec(arb_tree_op(), 1..60)) {
        let app = AppId(1);
        let mut tree = AccessibleTree::new("app");
        let mut mirror = MirrorTree::new();
        mirror.mirror_app(app, &tree);
        let roles = [Role::Paragraph, Role::Link, Role::MenuItem, Role::Label];
        let mut live: Vec<NodeId> = vec![tree.root()];
        for op in &ops {
            match op {
                TreeOp::Add { parent_seed, role_seed, text_seed } => {
                    let parent = live[parent_seed % live.len()];
                    let node = tree.add_node(
                        parent,
                        roles[*role_seed],
                        &format!("text {}", text_seed % 7),
                    );
                    mirror.mirror_added(app, node, &tree);
                    live.push(node);
                }
                TreeOp::SetText { node_seed, text_seed } => {
                    let node = live[node_seed % live.len()];
                    tree.set_text(node, &format!("updated {}", text_seed % 11));
                    mirror.mirror_text_changed(app, node, &tree);
                }
                TreeOp::Remove { node_seed } => {
                    let node = live[node_seed % live.len()];
                    if node == tree.root() {
                        continue;
                    }
                    let removed = tree.remove_subtree(node);
                    mirror.mirror_removed(app, node);
                    live.retain(|n| !removed.contains(n));
                }
            }
            prop_assert!(mirror.matches(app, &tree), "mirror drift after {:?}", op);
        }
    }
}

// ---------------------------------------------------------------------
// One-pass indexing vs the reference pipeline.
// ---------------------------------------------------------------------

/// Fragments a captured text is built from: lowercase and capitalized
/// ASCII, digits, stopwords, scripts without case, and chars whose
/// lowercase is longer than themselves (`İ` → `i̇`) or a different
/// letter (`ẞ` → `ß`, `Σ` → `σ`).
const FRAGMENTS: &[&str] = &[
    "alpha",
    "Beta",
    "GAMMA",
    "the",
    "Of",
    "42",
    "x7",
    "İ",
    "ẞ",
    "Σ",
    "ǅ",
    "naïve",
    "Straße",
    "İstanbul",
    "日本",
    "ﬁle",
    "٣",
    "½",
    "x²",
];
const SEPARATORS: &[&str] = &[" ", "-", ", ", "\n", "_", "…", "\u{0}"];

fn arb_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        3 => (0..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i].to_string()),
        2 => (0..SEPARATORS.len()).prop_map(|i| SEPARATORS[i].to_string()),
        // Any char at all, invalid scalars as U+FFFD.
        1 => any::<u32>().prop_map(|c| {
            char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string()
        }),
        1 => any::<u8>().prop_map(|b| char::from(b & 0x7f).to_string()),
    ];
    prop::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// The tokenizer before the one-pass visitor: a char at a time, each
/// lowercased by `char::to_lowercase`.
fn reference_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// The indexed words of `text` by the reference pipeline.
fn reference_words(text: &str) -> Vec<String> {
    reference_tokens(text)
        .into_iter()
        .filter(|t| !dv_index::tokenizer::is_stopword(t))
        .collect()
}

/// Instance `n` (from 0) of a one-pass test: visible alone over
/// `[10n, 10n + 5)` ms, so a query's answer at `10n` is this instance's.
fn text_instance(n: usize, text: &str) -> IndexedInstance {
    IndexedInstance {
        id: n as u64 + 1,
        app_id: 1,
        app: "editor".to_string(),
        window: format!("window {n}"),
        role: "paragraph".to_string(),
        text: text.to_string(),
        shown: Timestamp::from_millis(n as u64 * 10),
        hidden: Some(Timestamp::from_millis(n as u64 * 10 + 5)),
        annotation: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `add_instance` in one pass builds the postings of `tokenize` →
    /// drop stopwords → sort → dedup → push, term by term and in id
    /// order, with the same `stats()`; and a phrase check streaming
    /// tokens answers as adjacency over the reference words does.
    #[test]
    fn one_pass_indexing_matches_the_reference_pipeline(
        texts in prop::collection::vec(arb_text(), 1..6),
        picks in prop::collection::vec((0..6usize, 0..24usize, 1..4usize), 0..6),
    ) {
        let mut index = TextIndex::new();
        let mut postings: HashMap<String, Vec<u64>> = HashMap::new();
        let mut bytes = 0u64;
        let mut words = Vec::new();
        for (n, text) in texts.iter().enumerate() {
            let instance = text_instance(n, text);
            prop_assert_eq!(dv_index::tokenizer::tokenize(text), reference_tokens(text));
            let mut terms = reference_words(text);
            words.push(terms.clone());
            terms.sort_unstable();
            terms.dedup();
            for term in terms {
                bytes += term.len() as u64 + 8;
                postings.entry(term).or_default().push(instance.id);
            }
            bytes += (text.len() + instance.app.len() + instance.window.len() + 32) as u64;
            index.add_instance(instance);
        }
        let stats = index.stats();
        prop_assert_eq!(stats.terms, postings.len() as u64);
        prop_assert_eq!(stats.postings, postings.values().map(|v| v.len() as u64).sum::<u64>());
        prop_assert_eq!(stats.bytes, bytes);
        for (term, ids) in &postings {
            let found: Vec<u64> = index.term_instances(term).iter().map(|i| i.id).collect();
            prop_assert_eq!(&found, ids, "postings of {:?}", term);
        }
        // Phrases cut from the instances' own words, and so often found
        // in one instance and not another.
        index.advance_horizon(Timestamp::from_millis(texts.len() as u64 * 10));
        for &(from, start, len) in &picks {
            let source = &words[from % words.len()];
            if source.is_empty() {
                continue;
            }
            let start = start % source.len();
            let phrase = source[start..source.len().min(start + len)].to_vec();
            let satisfied = evaluate(&[&index], &Query::Phrase(phrase.clone()));
            for (n, words) in words.iter().enumerate() {
                let expected = words.windows(phrase.len()).any(|w| w == &phrase[..]);
                prop_assert_eq!(
                    satisfied.contains(Timestamp::from_millis(n as u64 * 10)),
                    expected,
                    "phrase {:?} in {:?}", phrase, texts[n]
                );
            }
        }
    }
}

/// A paragraph of 27 words in 192 bytes, as a page shows it: some
/// capitalized, some repeated, four of them stopwords.
const PARAGRAPH: &str = "The Quarterly report draft covers storage latency, \
    checkpoint throughput and the index budget of our Virtual desktop \
    recorder; reviewers asked whether search latency holds while storage grows.";

/// Indexing text whose words are all indexed already takes no
/// allocation per token: each term is found by `&str`, the instance
/// moves into the index, and a capitalized token is folded into a
/// buffer the index keeps. Under a `String` per token each add would
/// make at least one call per token.
#[test]
fn add_instance_allocates_nothing_per_token() {
    assert_eq!(
        (
            PARAGRAPH.len(),
            dv_index::tokenizer::tokenize(PARAGRAPH).len()
        ),
        (192, 27)
    );
    let mut index = TextIndex::new();
    // 65 copies: every posting list has grown to hold 128 ids, so the
    // adds below push without growing one.
    for n in 0..65 {
        index.add_instance(text_instance(n, PARAGRAPH));
    }
    let adds: Vec<IndexedInstance> = (65..128).map(|n| text_instance(n, PARAGRAPH)).collect();
    let count = adds.len() as u64;
    let before = alloc::calls();
    for instance in adds {
        index.add_instance(instance);
    }
    let calls = alloc::calls() - before;
    assert!(
        calls < count,
        "{calls} allocation calls for {count} adds of a 27-token paragraph"
    );
    assert_eq!(index.term_instances("storage").len(), 128);
}

// ---------------------------------------------------------------------
// Query-parser error paths.
// ---------------------------------------------------------------------

/// Strings the parser must reject, at least one strategy arm per
/// `ParseError` construction site in `dv_index::parse_query`.
fn arb_malformed_query() -> impl Strategy<Value = String> {
    const WORDS: &[&str] = &["alpha", "beta", "gamma", "query", "x7"];
    const BAD_KEYS: &[&str] = &["zzz", "tag", "color", "shape"];
    const MOD_KEYS: &[&str] = &["app", "window", "focused", "from", "to"];
    const BAD_TIMES: &[&str] = &["abc", "-1", "-0.5", "inf", "nan", "1e999", "12x", ""];
    const PUNCT: &[&str] = &["...", "!!!", "?;", ",."];
    const STOPS: &[&str] = &["the", "of", "A", "is", "With"];
    prop_oneof![
        // Whitespace-only input: no group survives -> "empty query".
        (0..3usize).prop_map(|n| " ".repeat(n)),
        // Unknown modifier key.
        (0..BAD_KEYS.len(), 0..WORDS.len())
            .prop_map(|(k, v)| format!("{}:{}", BAD_KEYS[k], WORDS[v])),
        // Negating a modifier is meaningless.
        (0..MOD_KEYS.len(), 0..WORDS.len())
            .prop_map(|(k, v)| format!("-{}:{}", MOD_KEYS[k], WORDS[v])),
        // Malformed, negative, or non-finite time values.
        (0..2usize, 0..BAD_TIMES.len()).prop_map(|(k, v)| format!(
            "alpha {}:{}",
            ["from", "to"][k],
            BAD_TIMES[v]
        )),
        // Unterminated quote.
        (0..WORDS.len()).prop_map(|w| format!("\"{}", WORDS[w])),
        // Phrases that tokenize to nothing (stopwords / punctuation).
        Just("\"the of a\"".to_string()),
        Just("\"...\"".to_string()),
        // Terms that normalize to nothing.
        (0..PUNCT.len()).prop_map(|p| PUNCT[p].to_string()),
        // Unquoted atoms of stopwords alone, as the quoted form above:
        // plain, negated, joined by punctuation or as an annotation.
        (0..STOPS.len(), 0..STOPS.len(), 0..4usize).prop_map(|(a, b, shape)| {
            let (a, b) = (STOPS[a], STOPS[b]);
            match shape {
                0 => a.to_string(),
                1 => format!("-{a}"),
                2 => format!("{a}-{b}"),
                _ => format!("annotation:{a}"),
            }
        }),
    ]
}

proptest! {
    /// Every malformed shape is rejected with an error, never a panic
    /// and never a silently-empty accepted query.
    #[test]
    fn malformed_queries_are_rejected(q in arb_malformed_query()) {
        prop_assert!(
            parse_query(&q).is_err(),
            "parser accepted malformed query {:?}",
            q
        );
    }
}

// ---------------------------------------------------------------------
// IntervalSet merge properties.
// ---------------------------------------------------------------------

fn arb_interval_set() -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec((0..HORIZON_MS, 1..50u64), 0..8).prop_map(|pairs| {
        IntervalSet::from_intervals(pairs.into_iter().map(|(start, len)| {
            Interval::new(
                Timestamp::from_millis(start),
                Timestamp::from_millis(start + len),
            )
        }))
    })
}

/// A normalized set's intervals are non-empty, sorted, and separated by
/// real gaps (adjacent intervals must have been coalesced).
fn check_normalized(set: &IntervalSet) -> Result<(), String> {
    for iv in set.intervals() {
        if iv.start >= iv.end {
            return Err(format!("empty interval {iv:?} in output"));
        }
    }
    for pair in set.intervals().windows(2) {
        if pair[0].end >= pair[1].start {
            return Err(format!(
                "overlapping or adjacent intervals {pair:?} in output"
            ));
        }
    }
    Ok(())
}

proptest! {
    /// Union is associative and commutative — the order a sharded query
    /// merges per-shard leaf results in cannot change the answer.
    #[test]
    fn interval_union_is_associative(
        a in arb_interval_set(),
        b in arb_interval_set(),
        c in arb_interval_set(),
    ) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    /// Every algebra operation yields a normalized set: no empty, no
    /// overlapping, no merely-adjacent intervals.
    #[test]
    fn interval_operations_normalize_their_output(
        a in arb_interval_set(),
        b in arb_interval_set(),
    ) {
        check_normalized(&a)?;
        check_normalized(&a.union(&b))?;
        check_normalized(&a.intersect(&b))?;
        check_normalized(&a.complement(
            Timestamp::ZERO,
            Timestamp::from_millis(HORIZON_MS + 100),
        ))?;
        check_normalized(&a.clip(
            Timestamp::from_millis(10),
            Timestamp::from_millis(HORIZON_MS / 2),
        ))?;
    }
}
