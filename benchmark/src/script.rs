//! Seeded session scripts and their oracle.
//!
//! A [`Session`] is everything one desktop session will do, fully
//! materialised from the seed before anything is timed: the draw ops,
//! text edits, VEE ops, input probes, seek times, queries, revive
//! targets, and the answers the generator expects. The program under
//! test only ever sees the generated inputs. Image and memory payloads
//! are references into pre-built pools, so playing a step costs no
//! generation work.
//!
//! The oracle is a plain model, not the program: [`TextModel`] keeps
//! every text state as a `Vec` entry and answers a query by scanning
//! them.

use std::collections::HashMap;
use std::sync::Arc;

use dv_access::Role;
use dv_display::{rgb, InputEvent, Pixel, Rect, YuvFrame};

use crate::rng::Rng;

pub const NS_PER_SEC: u64 = 1_000_000_000;

/// Filler vocabulary for captured text. Common enough that an unscoped
/// search for one of them hits all over a session, which is why query
/// generation always scopes them to a time window.
const WORDS: &[&str] = &[
    "kernel",
    "driver",
    "module",
    "object",
    "symbol",
    "build",
    "linker",
    "header",
    "source",
    "config",
    "patch",
    "branch",
    "commit",
    "merge",
    "review",
    "paper",
    "draft",
    "figure",
    "table",
    "section",
    "latency",
    "throughput",
    "storage",
    "display",
    "record",
    "index",
    "search",
    "session",
    "checkpoint",
    "snapshot",
    "restore",
    "revive",
    "desktop",
    "window",
    "browser",
    "editor",
    "terminal",
    "archive",
    "compress",
    "extract",
    "buffer",
    "memory",
    "process",
    "thread",
    "signal",
    "socket",
    "network",
    "packet",
    "server",
    "client",
    "virtual",
    "machine",
    "schedule",
    "meeting",
    "deadline",
    "notes",
    "report",
    "inbox",
    "message",
    "reply",
    "forward",
    "attach",
    "download",
    "upload",
    "install",
    "update",
    "budget",
    "invoice",
    "travel",
    "flight",
    "hotel",
    "agenda",
    "minutes",
    "proposal",
    "grant",
    "reviewer",
    "camera",
    "ready",
    "poster",
    "slides",
    "outline",
    "chapter",
    "appendix",
    "theorem",
    "lemma",
    "proof",
    "dataset",
    "metric",
    "baseline",
    "ablation",
    "variance",
    "median",
    "quartile",
    "sample",
    "trace",
    "profile",
    "cache",
    "queue",
    "worker",
    "tenant",
    "quota",
    "shard",
    "segment",
    "manifest",
    "journal",
    "replay",
    "cursor",
    "viewport",
    "glyph",
    "bitmap",
    "palette",
    "shader",
    "texture",
    "volume",
    "channel",
    "codec",
    "frame",
    "bitrate",
    "subtitle",
    "chapterlist",
    "playlist",
    "bookmark",
    "history",
    "password",
    "account",
    "profilepage",
    "settings",
    "shortcut",
];

/// One operation of a step. Indices refer to the session's tables.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Fill {
        rect: Rect,
        color: Pixel,
    },
    Image {
        rect: Rect,
        tile: u32,
    },
    Video {
        rect: Rect,
        frame: u32,
    },
    Copy {
        src_x: u32,
        src_y: u32,
        rect: Rect,
    },
    Glyphs {
        x: u32,
        y: u32,
        text: String,
        fg: Pixel,
        bg: Pixel,
    },
    SetText {
        node: u16,
        text: String,
    },
    Focus {
        app: u16,
    },
    Input(InputEvent),
    /// Forks a short-lived process into `slot` under process `parent`.
    Spawn {
        slot: u16,
        parent: u16,
        name: &'static str,
    },
    Exit {
        slot: u16,
    },
    /// Maps a fresh region for the process in `slot`.
    Mmap {
        region: u16,
        slot: u16,
        len: u64,
    },
    /// Writes `len` bytes of the payload pool, starting at `pool_off`,
    /// to `offset` inside a mapped region.
    MemWrite {
        region: u16,
        offset: u64,
        pool_off: u32,
        len: u32,
    },
    FileWrite {
        path: String,
        pool_off: u32,
        len: u32,
    },
    /// The per-second marker a revive must expose: a memory word and a
    /// file, both holding `value`.
    Marker {
        value: u64,
    },
}

/// One input probe: a key press whose echo the viewer must show.
#[derive(Clone, Debug, PartialEq)]
pub struct Probe {
    pub ch: char,
    pub x: u32,
    pub y: u32,
    pub node: u16,
    pub text: String,
}

/// One closed-loop step: its ops run at session time `at_ns`, then the
/// clock moves to the next step's time.
#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    pub at_ns: u64,
    pub ops: (u32, u32),
    /// Index into [`Session::probes`] when this step carries a probe.
    pub probe: Option<u32>,
    /// The player notes the screen fingerprint after this step, for
    /// the browse oracle.
    pub note: bool,
    /// A checkpoint tick follows this step (after the clock moved).
    pub tick: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct AppSpec {
    pub name: &'static str,
}

/// An accessible node created at set-up, under `parent` (a node index)
/// or, for windows, under the application root.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    pub app: u16,
    pub role: Role,
    pub parent: Option<u16>,
    pub text: String,
}

/// A long-lived process spawned at set-up (slot 0 is the session's
/// init process and is not listed).
#[derive(Clone, Debug, PartialEq)]
pub struct ProcSpec {
    pub name: &'static str,
    pub parent: u16,
}

/// A memory region mapped at set-up.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionSpec {
    pub slot: u16,
    pub len: u64,
}

/// A search and the hit intervals the model expects, as
/// `(start_ns, end_ns)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchCase {
    pub query: String,
    pub expect: Vec<(u64, u64)>,
}

/// The mix a session plays; also names its workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Office,
    Video,
    Build,
}

/// Sizes of one session. The four workloads and the host's tenants
/// differ only in these numbers.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub mix: Mix,
    pub screen: (u32, u32),
    /// Session length in whole virtual seconds.
    pub secs: u64,
    pub probes: usize,
    /// Seeks whose target is a step the player notes the screen of.
    pub notes: usize,
    /// Reads of each kind one run issues, each exactly once.
    pub searches: usize,
    pub seeks: usize,
    pub revives: usize,
    /// Needle families planted in the session's text.
    pub families: usize,
    /// Times one run plays the whole record back. A pass grows with
    /// `--seconds` as the record does, so the count does not.
    pub playback_passes: usize,
    /// Video region (video mix only).
    pub video: (u32, u32),
    pub fps: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    pub mix: Mix,
    pub screen: (u32, u32),
    pub secs: u64,
    pub apps: Vec<AppSpec>,
    pub nodes: Vec<NodeSpec>,
    pub procs: Vec<ProcSpec>,
    pub regions: Vec<RegionSpec>,
    /// Total region slots, including those mapped by `Op::Mmap`.
    pub region_slots: u16,
    /// Total process slots, including those filled by `Op::Spawn`.
    pub proc_slots: u16,
    pub tiles: Vec<Arc<Vec<Pixel>>>,
    pub frames: Vec<Arc<YuvFrame>>,
    pub pool: Arc<Vec<u8>>,
    pub ops: Vec<Op>,
    pub steps: Vec<Step>,
    pub probes: Vec<Probe>,
    /// Steps per window of the record-rate median: a whole number of
    /// the script's activity cycles, so windows hold like work.
    pub window_steps: usize,
    /// Times of the steps whose screen the player notes.
    pub noted: Vec<u64>,
    pub seeks: Vec<u64>,
    pub searches: Vec<SearchCase>,
    pub revives: Vec<u64>,
    pub playback_passes: usize,
    /// The text oracle, kept so a host can ask what a query should
    /// return part-way through the session.
    pub model: TextModel,
    planted: Vec<(String, u64)>,
}

impl Session {
    pub fn end_ns(&self) -> u64 {
        self.secs * NS_PER_SEC
    }

    /// FNV-1a over the debug rendering of the whole script and oracle,
    /// pools included: two sessions are byte-identical iff equal here.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.eat(format!("{:?}", (self.mix, self.screen, self.secs)).as_bytes());
        h.eat(format!("{:?}{:?}{:?}", self.apps, self.nodes, self.procs).as_bytes());
        h.eat(format!("{:?}{:?}", self.regions, self.probes).as_bytes());
        h.eat(format!("{:?}{:?}", self.ops, self.steps).as_bytes());
        h.eat(format!("{:?}{:?}{:?}", self.seeks, self.searches, self.revives).as_bytes());
        for t in &self.tiles {
            for p in t.iter() {
                h.eat(&p.to_le_bytes());
            }
        }
        for f in &self.frames {
            h.eat(&f.y);
        }
        h.eat(&self.pool);
        h.0
    }
}

#[cfg(test)]
struct Fnv(u64);

#[cfg(test)]
impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------
// The text oracle.

#[derive(Clone, Debug, PartialEq)]
struct TextState {
    app: &'static str,
    /// Index into [`TextModel::titles`].
    window: u32,
    /// Interned tokens, in text order.
    tokens: Vec<u32>,
    shown: u64,
    hidden: u64,
}

/// Reference model of what text was on screen when: every state a node
/// ever held, with the application and window title it was shown
/// under. Words are interned and each keeps the list of states that
/// contain it, so a query looks only at the states holding its first
/// word.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TextModel {
    states: Vec<TextState>,
    /// Per node: current text and the index of its open state.
    current: Vec<(String, Option<usize>)>,
    word_ids: HashMap<String, u32>,
    /// Per word id: the states containing it, oldest first.
    holders: Vec<Vec<u32>>,
    title_ids: HashMap<String, u32>,
    /// Lower-cased window titles, by id.
    titles: Vec<String>,
}

/// What a generated query constrains.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Words that must appear adjacently (one word: a plain term).
    pub words: Vec<String>,
    pub app: Option<String>,
    pub window: Option<String>,
    pub during: Option<(u64, u64)>,
}

impl QuerySpec {
    pub fn term(word: &str) -> Self {
        QuerySpec {
            words: vec![word.to_string()],
            app: None,
            window: None,
            during: None,
        }
    }

    /// The query in the program's string syntax.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(app) = &self.app {
            out.push_str(&format!("app:{app} "));
        }
        if let Some(window) = &self.window {
            out.push_str(&format!("window:{window} "));
        }
        if let Some((from, to)) = self.during {
            out.push_str(&format!(
                "from:{} to:{} ",
                from / NS_PER_SEC,
                to / NS_PER_SEC
            ));
        }
        if self.words.len() == 1 {
            out.push_str(&self.words[0]);
        } else {
            out.push_str(&format!("\"{}\"", self.words.join(" ")));
        }
        out
    }
}

fn word(rng: &mut Rng) -> &'static str {
    rng.pick::<&str>(WORDS)
}

fn tokens_of(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
}

impl TextModel {
    fn set(
        &mut self,
        node: usize,
        indexed: bool,
        app: &'static str,
        window: &str,
        text: &str,
        at: u64,
    ) {
        if self.current.len() <= node {
            self.current.resize(node + 1, (String::new(), None));
        }
        if self.current[node].0 == text {
            return;
        }
        if let Some(open) = self.current[node].1.take() {
            debug_assert!(self.states[open].shown < at, "text shown for no time");
            self.states[open].hidden = at;
        }
        self.current[node].0 = text.to_string();
        if !indexed || text.trim().is_empty() {
            return;
        }
        let state = self.states.len() as u32;
        let mut tokens = Vec::new();
        for token in tokens_of(text) {
            let next = self.word_ids.len() as u32;
            let id = *self.word_ids.entry(token).or_insert(next);
            if id == next {
                self.holders.push(Vec::new());
            }
            if self.holders[id as usize].last() != Some(&state) {
                self.holders[id as usize].push(state);
            }
            tokens.push(id);
        }
        let title = window.to_lowercase();
        let window = match self.title_ids.get(&title) {
            Some(&id) => id,
            None => {
                self.titles.push(title.clone());
                self.title_ids.insert(title, self.titles.len() as u32 - 1);
                self.titles.len() as u32 - 1
            }
        };
        self.states.push(TextState {
            app,
            window,
            tokens,
            shown: at,
            hidden: u64::MAX,
        });
        self.current[node].1 = Some(state as usize);
    }

    /// The states containing `word`, oldest first.
    fn holding(&self, word: &str) -> impl Iterator<Item = &TextState> {
        self.word_ids
            .get(word)
            .map_or(&[][..], |&id| &self.holders[id as usize])
            .iter()
            .map(|&i| &self.states[i as usize])
    }

    /// Application name and first window-title word of one state, picked
    /// at random, that showed `token` before `now`.
    fn shown_under(&self, token: &str, now: u64, rng: &mut Rng) -> (String, String) {
        let holders: Vec<&TextState> = self.holding(token).filter(|s| s.shown < now).collect();
        let s = rng.pick(&holders);
        let word = tokens_of(&self.titles[s.window as usize])
            .next()
            .unwrap_or_default();
        (s.app.to_string(), word)
    }

    /// The maximal intervals over which `q` held as seen at session
    /// time `now`, oldest first; text still visible then ends at `now`.
    pub fn hits(&self, q: &QuerySpec, now: u64) -> Vec<(u64, u64)> {
        let ids: Option<Vec<u32>> = q
            .words
            .iter()
            .map(|w| self.word_ids.get(w).copied())
            .collect();
        let Some(ids) = ids else {
            return Vec::new();
        };
        // Cheap tests first: a common word is held by tens of thousands
        // of states, and only a few of them overlap a query's window.
        let (from, to) = q.during.unwrap_or((0, u64::MAX));
        let mut spans: Vec<(u64, u64)> = self
            .holding(&q.words[0])
            .take_while(|s| s.shown < now.min(to))
            .filter(|s| s.shown < s.hidden && s.hidden > from)
            .filter(|s| q.app.as_ref().is_none_or(|a| s.app.contains(a.as_str())))
            .filter(|s| {
                q.window
                    .as_ref()
                    .is_none_or(|w| self.titles[s.window as usize].contains(w.as_str()))
            })
            .filter(|s| s.tokens.windows(ids.len()).any(|w| w == ids))
            .map(|s| (s.shown, s.hidden.min(now)))
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (start, end) in spans {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        match q.during {
            None => merged,
            Some((from, to)) => merged
                .into_iter()
                .map(|(s, e)| (s.max(from), e.min(to)))
                .filter(|(s, e)| s < e)
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// The script builder shared by the three mixes.

struct Builder {
    rng: Rng,
    shape: Shape,
    apps: Vec<AppSpec>,
    nodes: Vec<NodeSpec>,
    /// Window node of each app.
    windows: Vec<u16>,
    procs: Vec<ProcSpec>,
    regions: Vec<RegionSpec>,
    region_slots: u16,
    proc_slots: u16,
    ops: Vec<Op>,
    steps: Vec<Step>,
    step_start: u32,
    now_ns: u64,
    model: TextModel,
    /// Needle plants still to come, the earliest last: `(due, token)`.
    plant_slots: Vec<(u64, String)>,
    planted: Vec<(String, u64)>,
    pool_len: u32,
}

/// How far a slider drag moves from the last position at most.
const DRAG_NS: u64 = 60 * NS_PER_SEC;

/// How long one beacon word stays in the probes' echo text.
const BEACON_NS: u64 = 10 * NS_PER_SEC;

/// Bytes in the payload pool for memory and file writes.
const POOL_LEN: u32 = 4 << 20;

impl Builder {
    fn new(seed: u64, shape: Shape) -> Self {
        Builder {
            rng: Rng::new(seed),
            shape,
            apps: Vec::new(),
            nodes: Vec::new(),
            windows: Vec::new(),
            procs: Vec::new(),
            regions: Vec::new(),
            region_slots: 0,
            proc_slots: 1,
            ops: Vec::new(),
            steps: Vec::new(),
            step_start: 0,
            now_ns: 0,
            model: TextModel::default(),
            plant_slots: Vec::new(),
            planted: Vec::new(),
            pool_len: POOL_LEN,
        }
    }

    fn app(&mut self, name: &'static str, title: &str) -> u16 {
        let app = self.apps.len() as u16;
        self.apps.push(AppSpec { name });
        self.nodes.push(NodeSpec {
            app,
            role: Role::Window,
            parent: None,
            text: title.to_string(),
        });
        let window = self.nodes.len() as u16 - 1;
        self.windows.push(window);
        self.model
            .set(window as usize, false, name, title, title, 0);
        app
    }

    fn node(&mut self, app: u16, role: Role, text: &str) -> u16 {
        let window = self.windows[app as usize];
        self.nodes.push(NodeSpec {
            app,
            role,
            parent: Some(window),
            text: text.to_string(),
        });
        let node = self.nodes.len() as u16 - 1;
        let title = self.model.current[window as usize].0.clone();
        self.model.set(
            node as usize,
            true,
            self.apps[app as usize].name,
            &title,
            text,
            0,
        );
        node
    }

    fn proc(&mut self, name: &'static str, parent: u16) -> u16 {
        self.procs.push(ProcSpec { name, parent });
        self.proc_slots += 1;
        self.proc_slots - 1
    }

    fn region(&mut self, slot: u16, len: u64) -> u16 {
        self.regions.push(RegionSpec { slot, len });
        self.region_slots += 1;
        self.region_slots - 1
    }

    fn set_text(&mut self, node: u16, text: String) {
        let spec = &self.nodes[node as usize];
        let indexed = spec.role != Role::Window;
        let app = self.apps[spec.app as usize].name;
        let title = self.model.current[self.windows[spec.app as usize] as usize]
            .0
            .clone();
        self.model
            .set(node as usize, indexed, app, &title, &text, self.now_ns);
        self.ops.push(Op::SetText { node, text });
    }

    fn words(&mut self, n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(word(&mut self.rng));
        }
        out
    }

    /// `n` filler words, with the next scheduled needle spliced in once
    /// it is due.
    fn prose(&mut self, n: usize) -> String {
        let mut text = self.words(n);
        // The first text of a session always carries a needle, so there
        // is something to search for from the start.
        let due = self
            .plant_slots
            .last()
            .is_some_and(|(at, _)| *at <= self.now_ns || self.planted.is_empty());
        if due {
            let (_, token) = self.plant_slots.pop().expect("a slot is due");
            // Half the plants put a filler word between a family's two
            // halves, so the phrase query has decoys to reject.
            let (a, b) = token.split_at(token.len() / 2);
            let filler = word(&mut self.rng);
            if self.rng.chance(0.5) {
                text = format!("{text} {token} {a}x {b}x");
            } else {
                text = format!("{text} {token} {a}x {filler} {b}x");
            }
            if !self.planted.iter().any(|(t, _)| *t == token) {
                self.planted.push((token, self.now_ns));
            }
        }
        text
    }

    fn pool_slice(&mut self, len: u32) -> u32 {
        self.rng.below((self.pool_len - len) as u64) as u32 & !0xFFF
    }

    fn mem_write(&mut self, region: u16, offset: u64, len: u32) {
        let pool_off = self.pool_slice(len);
        self.ops.push(Op::MemWrite {
            region,
            offset,
            pool_off,
            len,
        });
    }

    /// Closes the current step; the next one starts `dt_ns` later. A
    /// step that ends on a whole second is followed by a tick and
    /// writes that second's marker first.
    fn end_step(&mut self, dt_ns: u64) {
        let next = self.now_ns + dt_ns;
        let tick = next.is_multiple_of(NS_PER_SEC);
        if tick {
            self.ops.push(Op::Marker {
                value: next / NS_PER_SEC,
            });
        }
        let end = self.ops.len() as u32;
        self.steps.push(Step {
            at_ns: self.now_ns,
            ops: (self.step_start, end),
            probe: None,
            note: false,
            tick,
        });
        self.step_start = end;
        self.now_ns = next;
    }

    /// Schedules the needle families: unique tokens planted one to five
    /// times each, so a needle query has that many hits at most. Every
    /// count comes up equally often whatever the seed, so the spread of
    /// hits per query is a fixed shape, and the plants fall due at
    /// stratified times, families shuffled, so every seed spreads its
    /// hits over the history alike.
    fn schedule_needles(&mut self) {
        let mut plants = Vec::new();
        for f in 0..self.shape.families {
            let tag = self.rng.below(26 * 26) as u32;
            let token = format!(
                "zq{}{}{:03}",
                (b'a' + (tag / 26) as u8) as char,
                (b'a' + (tag % 26) as u8) as char,
                f
            );
            plants.extend(std::iter::repeat_n(token, 1 + f % 5));
        }
        self.rng.shuffle(&mut plants);
        let end = self.shape.secs * NS_PER_SEC;
        let due = self.rng.stratified(plants.len(), 0, end);
        self.plant_slots = due.into_iter().zip(plants).rev().collect();
    }

    /// Spreads probes and fingerprint notes evenly over the steps, then
    /// derives seeks, searches and revive targets.
    fn finish(
        mut self,
        echo: u16,
        echo_at: (u32, u32),
        window_steps: usize,
        tiles: Vec<Arc<Vec<Pixel>>>,
        frames: Vec<Arc<YuvFrame>>,
    ) -> Session {
        let shape = self.shape;
        let n = self.steps.len();
        let mut probes = Vec::with_capacity(shape.probes);
        for k in 0..shape.probes {
            let step = ((k * n + n / 2) / shape.probes).min(n - 1);
            let ch = (b'a' + self.rng.below(26) as u8) as char;
            // Besides the key, the echo shows a beacon word that changes
            // every ten seconds and is the same in every session: what a
            // host searches for to get one hit from each tenant.
            let beacon = self.steps[step].at_ns / BEACON_NS;
            probes.push(Probe {
                ch,
                x: echo_at.0 + 8 * (k as u32 % 32),
                y: echo_at.1,
                node: echo,
                text: format!("k{k}{ch} hb{beacon}"),
            });
            self.steps[step].probe = Some(k as u32);
        }
        // The echo node's states are part of the text record too.
        for step in &self.steps {
            if let Some(k) = step.probe {
                let p = &probes[k as usize];
                let spec = &self.nodes[p.node as usize];
                let app = self.apps[spec.app as usize].name;
                let title = &self.nodes[self.windows[spec.app as usize] as usize].text;
                self.model
                    .set(p.node as usize, true, app, title, &p.text, step.at_ns);
            }
        }
        let end = shape.secs * NS_PER_SEC;
        let mut rng = self.rng.fork(1);
        // Three seeks in ten jump anywhere in the history (further than
        // the playback and search caches reach); each jump is followed
        // by a slider drag of two or three seeks that stay within a
        // minute of the last position. Jumps land on the start of a
        // step, and the first `notes` of them on a step whose screen
        // the player notes, so the browse oracle has a fingerprint to
        // compare.
        let jumps = (shape.seeks * 3).div_ceil(10);
        let mut anchors = rng.stratified(jumps, NS_PER_SEC, end);
        for at in &mut anchors {
            let step = self.steps.partition_point(|s| s.at_ns <= *at) - 1;
            *at = self.steps[step].at_ns.max(NS_PER_SEC);
        }
        rng.shuffle(&mut anchors);
        let mut noted: Vec<u64> = anchors[..shape.notes.min(jumps)].to_vec();
        noted.sort_unstable();
        noted.dedup();
        for step in &mut self.steps {
            step.note = noted.binary_search(&step.at_ns).is_ok();
        }
        let mut drags = rng.stratified(shape.seeks - jumps, 0, 2 * DRAG_NS);
        rng.shuffle(&mut drags);
        let mut drags = drags.into_iter();
        let mut seeks = Vec::with_capacity(shape.seeks);
        for (k, &anchor) in anchors.iter().enumerate() {
            seeks.push(anchor);
            let mut at = anchor;
            for drag in drags.by_ref().take(2 + usize::from(k % 3 == 2)) {
                at = (at + drag).saturating_sub(DRAG_NS).clamp(NS_PER_SEC, end);
                seeks.push(at);
            }
        }
        let mut rng = self.rng.fork(2);
        let mut revives = rng.stratified(shape.revives, 5 * NS_PER_SEC, end);
        rng.shuffle(&mut revives);
        let mut session = Session {
            mix: shape.mix,
            screen: shape.screen,
            secs: shape.secs,
            apps: self.apps,
            nodes: self.nodes,
            procs: self.procs,
            regions: self.regions,
            region_slots: self.region_slots,
            proc_slots: self.proc_slots,
            tiles,
            frames,
            pool: Arc::new(pool_bytes(self.rng.fork(3), POOL_LEN as usize)),
            ops: self.ops,
            steps: self.steps,
            probes,
            window_steps,
            noted,
            seeks,
            searches: Vec::new(),
            revives,
            playback_passes: shape.playback_passes,
            model: self.model,
            planted: self.planted,
        };
        let mut rng = self.rng.fork(4);
        while session.searches.len() < shape.searches {
            let kind = session.searches.len();
            let spec = session.query(&mut rng, kind, end);
            session.searches.push(SearchCase {
                expect: session.model.hits(&spec, end),
                query: spec.render(),
            });
        }
        session
    }
}

impl Session {
    /// A query whose cost is structural: it has between one and ten
    /// hits in the model as seen at `now`. `kind` rotates through a
    /// planted needle, a needle scoped to an application, a needle
    /// scoped to a window-title word, a quoted phrase of a needle's two
    /// halves, and a common word inside a time window.
    ///
    /// # Panics
    ///
    /// Panics if no needle was planted before `now` or no candidate in
    /// a few hundred draws lands in the hit range: both mean the
    /// workload's sizes no longer fit its generator.
    pub fn query(&self, rng: &mut Rng, kind: usize, now: u64) -> QuerySpec {
        let planted: Vec<&str> = self
            .planted
            .iter()
            .filter(|(_, at)| *at < now)
            .map(|(t, _)| t.as_str())
            .collect();
        assert!(!planted.is_empty(), "no needle planted before {now} ns");
        for attempt in 0..400 {
            // Needles take turns: over a query list every family, and
            // with it every hit count, comes up equally often, and the
            // same hits never come round again soon enough to sit in
            // the program's screenshot caches.
            let needle = planted[(kind + attempt) % planted.len()];
            // A kind with no candidate in range gives way to the next;
            // the plain needle always has one.
            let spec = match (kind + attempt / 40) % 5 {
                0 => QuerySpec::term(needle),
                1 => QuerySpec {
                    app: Some(self.model.shown_under(needle, now, rng).0),
                    ..QuerySpec::term(needle)
                },
                2 => QuerySpec {
                    window: Some(self.model.shown_under(needle, now, rng).1),
                    ..QuerySpec::term(needle)
                },
                3 => {
                    let (a, b) = needle.split_at(needle.len() / 2);
                    QuerySpec {
                        words: vec![format!("{a}x"), format!("{b}x")],
                        ..QuerySpec::term("")
                    }
                }
                _ => {
                    let width = rng.range(20, 120) * NS_PER_SEC;
                    let from =
                        rng.below(now.saturating_sub(width).max(1)) / NS_PER_SEC * NS_PER_SEC;
                    QuerySpec {
                        during: Some((from, from + width)),
                        ..QuerySpec::term(word(rng))
                    }
                }
            };
            if (1..=10).contains(&self.model.hits(&spec, now).len()) {
                return spec;
            }
        }
        panic!("no query of kind {kind} with 1..=10 hits at {now} ns");
    }
}

/// Payload bytes with a run/noise mix, so checkpoint images and file
/// data compress partially, like real heaps and logs.
fn pool_bytes(mut rng: Rng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let word = rng.next_u64();
        let n = (8 + (word >> 8) % 56) as usize;
        let n = n.min(len - out.len());
        if word & 1 == 0 {
            out.extend(std::iter::repeat_n((word >> 16) as u8, n));
        } else {
            for i in 0..n {
                out.push((word >> ((i % 8) * 8)) as u8 ^ i as u8);
            }
        }
    }
    out
}

/// A `w` x `h` tile of banded noise: rows alternate between flat runs
/// and per-pixel noise, so keyframes neither collapse nor explode under
/// run-length encoding.
fn tile(rng: &mut Rng, w: u32, h: u32) -> Arc<Vec<Pixel>> {
    let mut px = Vec::with_capacity((w * h) as usize);
    let base = rng.next_u64() as u32 & 0x00FF_FFFF;
    for y in 0..h {
        let noisy = (y / 8) % 2 == 0;
        let mut word = rng.next_u64();
        for x in 0..w {
            if noisy {
                if x % 2 == 0 {
                    word = word.rotate_left(13) ^ (x as u64).wrapping_mul(0x9E37_79B9);
                }
                px.push((word >> ((x % 2) * 24)) as u32 & 0x00FF_FFFF);
            } else {
                px.push(base.wrapping_add((y / 8) * 0x0001_0101));
            }
        }
    }
    Arc::new(px)
}

fn video_frame(rng: &mut Rng, w: u32, h: u32, n: u32) -> Arc<YuvFrame> {
    let salt = rng.next_u64() as u32;
    let luma = (0..w * h)
        .map(|i| {
            let (x, y) = (i % w, i / w);
            (((x + n * 3) ^ (y + n)).wrapping_add(salt >> (y % 7)) & 0xFF) as u8
        })
        .collect();
    Arc::new(YuvFrame::from_luma(w, h, luma))
}

const FG: Pixel = rgb(230, 230, 230);
const TERM_BG: Pixel = rgb(12, 12, 16);
const LINE_H: u32 = 8;
/// Heap of each office application; a page load dirties 32 KiB of it.
const OFFICE_HEAP: u64 = 1 << 20;
/// Paragraphs (and drawn lines) of one page load in the office mix.
const PAGE_LINES: u32 = 12;

fn clip(text: &str, max_chars: u32) -> String {
    text.chars().take(max_chars as usize).collect()
}

// ---------------------------------------------------------------------
// The three mixes.

/// Seconds of one cycle of the office mix. The recorder takes a
/// keyframe every 600 s, so a seek replays between none and five of
/// the cycles' bursts of activity: the cost of a seek falls on five
/// levels, an odd number, and its median and 90th percentile each sit
/// in the middle of a level, not on the edge between two. (With six
/// cycles to a keyframe the median seek flipped between the third and
/// the fourth level from seed to seed, 4.7 against 5.6 ms.)
pub const OFFICE_CYCLE: u64 = 120;

/// Typing, window switches and text-heavy page loads on a 120-second
/// cycle: 20 s of active use (a window repaint and a page of text per
/// second), 70 s of reading with small scrolls, 18 s of typing, 12 s
/// idle. One step per virtual second.
fn office(seed: u64, shape: Shape) -> Session {
    let mut b = Builder::new(seed, shape);
    let (w, h) = shape.screen;
    let (ww, wh) = (w / 2, (h - 16) / 2);
    let names = ["firefox", "openoffice", "thunderbird", "acroread"];
    let mut rects = Vec::new();
    let mut paras: Vec<Vec<u16>> = Vec::new();
    let mut heaps = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let title = format!("{} - {name}", b.words(2));
        let app = b.app(name, &title);
        rects.push(Rect::new((i as u32 % 2) * ww, (i as u32 / 2) * wh, ww, wh));
        let mut nodes = Vec::new();
        // Paragraphs start empty: text replaced at the instant it was
        // shown would have been on screen for no time at all.
        for _ in 0..PAGE_LINES {
            nodes.push(b.node(app, Role::Paragraph, ""));
        }
        paras.push(nodes);
        let slot = b.proc(name, 0);
        heaps.push(b.region(slot, OFFICE_HEAP));
    }
    let panel = b.app("panel", "desktop panel");
    let echo = b.node(panel, Role::TextInput, "");
    let clock = b.node(panel, Role::Label, "09:00");
    let status = b.node(1, Role::Label, "words 0");
    let body = paras[1][0];

    let mut trng = b.rng.fork(10);
    let tiles: Vec<_> = (0..8).map(|_| tile(&mut trng, 64, 64)).collect();
    b.schedule_needles();

    let (mut cur, mut color) = (0usize, 0u32);
    let mut order = [0usize, 1, 2, 3];
    let mut editor_text = String::new();
    let mut typed = 0u32;
    for sec in 0..shape.secs {
        match sec % OFFICE_CYCLE {
            0..=19 => {
                // A window switch every fifth second repaints the whole
                // window; every second loads a page of text into it.
                if sec % 5 == 0 {
                    // Four switches a burst, each window once, in a
                    // drawn order: what a seek has to repaint depends
                    // on how many bursts it replays, not on which
                    // windows the seed happened to favour.
                    if sec % OFFICE_CYCLE == 0 {
                        b.rng.shuffle(&mut order);
                    }
                    cur = order[(sec % OFFICE_CYCLE / 5) as usize];
                    color = b.rng.next_u64() as u32 & 0x00FF_FFFF;
                    b.ops.push(Op::Focus { app: cur as u16 });
                    b.ops.push(Op::Fill {
                        rect: rects[cur],
                        color,
                    });
                    b.ops.push(Op::Image {
                        rect: Rect::new(rects[cur].x + ww - 80, rects[cur].y + 8, 64, 64),
                        tile: b.rng.below(8) as u32,
                    });
                }
                let r = rects[cur];
                let title = format!("{} - {}", b.words(2), names[cur]);
                b.set_text(b.windows[cur], title);
                b.ops.push(Op::Fill {
                    rect: Rect::new(r.x, r.y + 80, ww, PAGE_LINES * 10),
                    color,
                });
                for j in 0..PAGE_LINES {
                    let text = b.prose(30);
                    b.ops.push(Op::Glyphs {
                        x: r.x + 8,
                        y: r.y + 80 + j * 10,
                        text: clip(&text, (ww - 96) / 8),
                        fg: FG,
                        bg: color,
                    });
                    b.set_text(paras[cur][j as usize], text);
                }
                let off = b.rng.below(OFFICE_HEAP - (32 << 10)) & !0xFFF;
                b.mem_write(heaps[cur], off, 32 << 10);
                b.ops.push(Op::Input(InputEvent::MouseButton {
                    x: r.x + 5,
                    y: r.y + 5,
                    button: 0,
                    pressed: true,
                }));
            }
            20..=89 => {
                let r = rects[0];
                b.ops.push(Op::Copy {
                    src_x: r.x,
                    src_y: r.y + 16,
                    rect: Rect::new(r.x, r.y, ww, 56),
                });
                if sec % 5 == 0 {
                    let text = b.prose(24);
                    b.ops.push(Op::Glyphs {
                        x: r.x + 8,
                        y: r.y + 48,
                        text: clip(&text, (ww - 16) / 8),
                        fg: FG,
                        bg: 0,
                    });
                    let j = b.rng.below(PAGE_LINES as u64) as usize;
                    b.set_text(paras[0][j], text);
                }
                if sec % 11 == 0 {
                    b.ops
                        .push(Op::Input(InputEvent::MouseMove { x: 10, y: 10 }));
                }
            }
            90..=107 => {
                let word = word(&mut b.rng).to_string();
                editor_text.push(' ');
                editor_text.push_str(&word);
                if editor_text.len() > 400 {
                    let cut = editor_text.len() - 400;
                    let cut = cut + editor_text[cut..].find(' ').unwrap_or(0);
                    editor_text.drain(..cut);
                }
                typed += 1;
                let r = rects[1];
                b.ops.push(Op::Glyphs {
                    x: r.x + 8 + 8 * ((typed * 2) % ((ww - 80) / 8)),
                    y: r.y + 40,
                    text: clip(&word, 8),
                    fg: FG,
                    bg: rgb(30, 40, 50),
                });
                b.set_text(body, editor_text.clone());
                b.set_text(status, format!("words {typed}"));
                for ch in word.chars().take(6) {
                    b.ops.push(Op::Input(InputEvent::Key {
                        ch,
                        ctrl: false,
                        alt: false,
                    }));
                }
            }
            _ => {
                if sec % 10 == 0 {
                    let text = format!("{:02}:{:02}", 9 + sec / 3600, (sec / 60) % 60);
                    b.ops.push(Op::Glyphs {
                        x: w - 48,
                        y: h - 12,
                        text: text.clone(),
                        fg: FG,
                        bg: 0,
                    });
                    b.set_text(clock, text);
                }
            }
        }
        b.end_step(NS_PER_SEC);
    }
    b.finish(echo, (8, h - 12), OFFICE_CYCLE as usize, tiles, Vec::new())
}

/// Seconds of one cycle of the video mix, how many of them play video,
/// and the scroll steps in each of the others.
pub const VIDEO_CYCLE: u64 = 20;
const VIDEO_SECS: u64 = 2;
const SCROLLS_PER_SEC: u64 = 2;

/// Video in a fixed region alternating with document scrolling, on a
/// 20-second cycle: 2 s of video (one frame per step) and 18 s of
/// reading, two scroll steps a second (`copy_area` plus a fresh strip
/// of pixels). Almost no text: a subtitle per second of video and a
/// page label per second of reading.
fn video(seed: u64, shape: Shape) -> Session {
    let mut b = Builder::new(seed, shape);
    let (w, h) = shape.screen;
    let (vw, vh) = shape.video;
    let vrect = Rect::new((w - vw) / 2, (h - 16 - vh) / 2, vw, vh);
    let player = b.app("mplayer", "clip 0 - mplayer");
    let subtitle = b.node(player, Role::Label, "");
    let reader = b.app("evince", "manual.pdf - evince");
    let page = b.node(reader, Role::Label, "page 1");
    let panel = b.app("panel", "desktop panel");
    let echo = b.node(panel, Role::TextInput, "");
    let slot = b.proc("mplayer", 0);
    let decode = b.region(slot, (vw * vh) as u64 + 4096);

    // The document window: a little larger than the video.
    let strip_h = 32;
    let doc = Rect::new(
        vrect.x - 32,
        vrect.y - 16,
        vw + 64,
        (vh + 32) / strip_h * strip_h,
    );
    let mut trng = b.rng.fork(10);
    let tiles: Vec<_> = (0..8).map(|_| tile(&mut trng, doc.w, strip_h)).collect();
    let frames: Vec<_> = (0..24).map(|n| video_frame(&mut trng, vw, vh, n)).collect();
    b.schedule_needles();

    let mut frame_no = 0u32;
    let mut page_no = 1u32;
    for sec in 0..shape.secs {
        if sec % VIDEO_CYCLE < VIDEO_SECS {
            if sec % VIDEO_CYCLE == 0 {
                b.ops.push(Op::Focus { app: player });
                let title = format!("clip {} {} - mplayer", sec / VIDEO_CYCLE, b.words(1));
                b.set_text(b.windows[player as usize], title);
                b.ops.push(Op::Fill {
                    rect: Rect::new(vrect.x - 8, vrect.y - 16, vw + 16, vh + 24),
                    color: rgb(40, 40, 48),
                });
            }
            for f in 0..shape.fps {
                b.ops.push(Op::Video {
                    rect: vrect,
                    frame: frame_no % frames.len() as u32,
                });
                frame_no += 1;
                b.ops.push(Op::MemWrite {
                    region: decode,
                    offset: 0,
                    pool_off: (frame_no % 8) * (vw * vh).next_multiple_of(4096),
                    len: vw * vh,
                });
                if f == 0 {
                    let text = b.prose(3);
                    b.set_text(subtitle, text);
                }
                let at = sec * NS_PER_SEC + (f + 1) * NS_PER_SEC / shape.fps;
                b.end_step(at - b.now_ns);
            }
        } else {
            if sec % VIDEO_CYCLE == VIDEO_SECS {
                b.ops.push(Op::Focus { app: reader });
                b.ops.push(Op::Fill {
                    rect: doc,
                    color: rgb(250, 250, 245),
                });
            }
            for f in 0..SCROLLS_PER_SEC {
                b.ops.push(Op::Copy {
                    src_x: doc.x,
                    src_y: doc.y + strip_h,
                    rect: Rect::new(doc.x, doc.y, doc.w, doc.h - strip_h),
                });
                let t = b.rng.below(tiles.len() as u64) as u32;
                b.ops.push(Op::Image {
                    rect: Rect::new(doc.x, doc.bottom() - strip_h, doc.w, strip_h),
                    tile: t,
                });
                if f == 0 {
                    page_no += 1;
                    let text = format!("page {page_no} {}", b.prose(2));
                    b.set_text(page, text);
                }
                b.end_step(NS_PER_SEC / SCROLLS_PER_SEC);
            }
        }
    }
    let window = VIDEO_SECS * shape.fps + (VIDEO_CYCLE - VIDEO_SECS) * SCROLLS_PER_SEC;
    b.finish(echo, (8, h - 12), window as usize, tiles, frames)
}

/// Steps per virtual second of the build mix, and files per step.
const BUILD_STEPS_PER_SEC: u64 = 20;
const FILES_PER_STEP: u32 = 12;
/// Steps after which the build starts overwriting its object files.
const REBUILD_AFTER: u64 = 512;

/// An untar-then-make shaped session, twenty steps a second: each step
/// forks a compiler that maps and fills fresh memory, writes twelve
/// small files (overwriting those of 512 steps ago) and dirties the
/// linker's long-lived heap; the previous step's compiler exits. Every
/// fourth step scrolls one line of terminal output.
fn build(seed: u64, shape: Shape) -> Session {
    let mut b = Builder::new(seed, shape);
    let (w, h) = shape.screen;
    // An 80x24 terminal.
    let term_rect = Rect::new(0, 0, 640.min(w), (h - 16).min(24 * LINE_H));
    let w = term_rect.w;
    let term = b.app("xterm", "make -j1 vmlinux - xterm");
    let output = b.node(term, Role::Terminal, "");
    let panel = b.app("panel", "desktop panel");
    let echo = b.node(panel, Role::TextInput, "");
    let make = b.proc("make", 0);
    let ld = b.proc("ld", make);
    let ld_heap_len = 4u64 << 20;
    let ld_heap = b.region(ld, ld_heap_len);
    // Two compiler slots and regions, used alternately so one compiler
    // is always alive across a checkpoint.
    let cc = [b.proc_slots, b.proc_slots + 1];
    b.proc_slots += 2;
    let cc_mem = [b.region_slots, b.region_slots + 1];
    b.region_slots += 2;
    b.schedule_needles();

    let dirs = [
        "arch", "block", "drivers", "fs", "kernel", "mm", "net", "lib",
    ];
    for i in 0..shape.secs * BUILD_STEPS_PER_SEC {
        let k = (i % 2) as usize;
        if i >= 2 {
            b.ops.push(Op::Exit { slot: cc[k] });
        }
        b.ops.push(Op::Spawn {
            slot: cc[k],
            parent: make,
            name: "cc1",
        });
        b.ops.push(Op::Mmap {
            region: cc_mem[k],
            slot: cc[k],
            len: 1 << 20,
        });
        b.mem_write(cc_mem[k], 0, 128 << 10);
        let dir = dirs[(i % REBUILD_AFTER) as usize % dirs.len()];
        for j in 0..FILES_PER_STEP {
            let len = b.rng.range(512, 4096) as u32;
            let pool_off = b.pool_slice(len);
            b.ops.push(Op::FileWrite {
                path: format!("/usr/src/build/{dir}/unit_{}_{j}.o", i % REBUILD_AFTER),
                pool_off,
                len,
            });
        }
        let off = (i * (16 << 10)) % ld_heap_len;
        b.mem_write(ld_heap, off, 16 << 10);
        if i % 4 == 0 {
            b.ops.push(Op::Copy {
                src_x: 0,
                src_y: LINE_H,
                rect: Rect::new(0, 0, w, term_rect.h - LINE_H),
            });
            b.ops.push(Op::Fill {
                rect: Rect::new(0, term_rect.h - LINE_H, w, LINE_H),
                color: TERM_BG,
            });
            let line = if i % 28 == 12 {
                format!("{dir}/unit_{i}.c: warning: {}", b.prose(4))
            } else {
                format!("  CC      {dir}/unit_{i}.o")
            };
            b.ops.push(Op::Glyphs {
                x: 0,
                y: term_rect.h - LINE_H,
                text: clip(&line, w / 8),
                fg: FG,
                bg: TERM_BG,
            });
            b.set_text(output, line);
        }
        b.end_step(NS_PER_SEC / BUILD_STEPS_PER_SEC);
    }
    let window = 10 * BUILD_STEPS_PER_SEC as usize;
    b.finish(echo, (8, h - 12), window, Vec::new(), Vec::new())
}

/// Generates the session `shape` describes from `seed`.
pub fn session(seed: u64, shape: Shape) -> Session {
    match shape.mix {
        Mix::Office => office(seed, shape),
        Mix::Video => video(seed, shape),
        Mix::Build => build(seed, shape),
    }
}

// ---------------------------------------------------------------------
// The host script: eight tenants and the reads issued beside them.

/// A read issued while recording continues.
#[derive(Clone, Debug, PartialEq)]
pub enum Read {
    /// `search_all`, then a browse per hit. `expect` is the model's
    /// `(tenant, start_ns, end_ns)` over every tenant, oldest first.
    Search {
        query: String,
        expect: Vec<(u8, u64, u64)>,
    },
    Browse {
        tenant: u8,
        at_ns: u64,
    },
    Revive {
        tenant: u8,
        at_ns: u64,
    },
    /// `visual_all` with this tenant's live screen as the probe.
    Visual {
        tenant: u8,
    },
    Compact,
    Gc,
}

/// One thing the host player does, in session-time order.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    Step {
        tenant: u8,
        step: u32,
    },
    /// Every tenant is checkpointed at this whole second.
    Ticks {
        at_ns: u64,
    },
    Read(Read),
}

#[derive(Clone, Debug, PartialEq)]
pub struct HostScript {
    pub tenants: Vec<Session>,
    pub events: Vec<Event>,
    /// Virtual seconds per window of the record-rate median.
    pub window_secs: u64,
}

/// Seconds of recording before the first read, so there is history to
/// read.
const HOST_READS_FROM: u64 = 10;

/// Searches, browses and revives issued after each second's checkpoints.
const HOST_READS_PER_SEC: u64 = 2;

/// The next point of a golden-ratio sequence in `[0, 1)`: any run of
/// its points is spread evenly, which independent draws are not.
fn along(at: &mut f64) -> f64 {
    *at = (*at + 0.618_033_988_749_895) % 1.0;
    *at
}

/// Merges the tenants' steps by session time and schedules the reads:
/// after every second's checkpoints two searches, browses and revives,
/// and every fourth second a visual query and a maintenance call
/// (index compaction and storage GC in turn).
pub fn host(seed: u64, shapes: &[Shape]) -> HostScript {
    let tenants: Vec<Session> = shapes
        .iter()
        .enumerate()
        .map(|(t, shape)| session(seed.wrapping_mul(64) + t as u64 + 1, *shape))
        .collect();
    let secs = tenants[0].secs;
    let n = tenants.len() as u64;
    let mut rng = Rng::new(seed).fork(20);
    let (mut browse_at, mut revive_at) = (rng.unit(), rng.unit());
    let mut cursor = vec![0usize; tenants.len()];
    let mut events = Vec::new();
    let mut reads = 0u64;
    for sec in 0..secs {
        let boundary = (sec + 1) * NS_PER_SEC;
        let mut due: Vec<(u64, u8, u32)> = Vec::new();
        for (t, s) in tenants.iter().enumerate() {
            while cursor[t] < s.steps.len() && s.steps[cursor[t]].at_ns < boundary {
                due.push((s.steps[cursor[t]].at_ns, t as u8, cursor[t] as u32));
                cursor[t] += 1;
            }
        }
        due.sort_unstable();
        events.extend(
            due.into_iter()
                .map(|(_, tenant, step)| Event::Step { tenant, step }),
        );
        events.push(Event::Ticks { at_ns: boundary });
        if sec + 1 < HOST_READS_FROM {
            continue;
        }
        let now = boundary;
        for _ in 0..HOST_READS_PER_SEC {
            // Search: three in five ask for a past beacon word, which
            // every tenant showed once, so the median and the 90th
            // percentile search both do the same amount of work on
            // every seed; the others are built from one tenant's text
            // and answered by all.
            let spec = if reads % 5 < 3 {
                let past = now / BEACON_NS;
                QuerySpec::term(&format!("hb{}", reads * 3 % past))
            } else {
                let owner = &tenants[(reads % n) as usize];
                // Two in every five reads come here; number them 0, 1,
                // 2, .. so they rotate through all the kinds.
                let kind = (reads / 5 * 2 + reads % 5 - 3) as usize;
                loop {
                    let spec = owner.query(&mut rng, kind, now);
                    let total: usize = tenants.iter().map(|s| s.model.hits(&spec, now).len()).sum();
                    if total <= 10 {
                        break spec;
                    }
                }
            };
            let mut expect: Vec<(u8, u64, u64)> = tenants
                .iter()
                .enumerate()
                .flat_map(|(t, s)| {
                    s.model
                        .hits(&spec, now)
                        .into_iter()
                        .map(move |(a, b)| (t as u8, a, b))
                })
                .collect();
            expect.sort_unstable_by_key(|&(t, a, _)| (a, t));
            events.push(Event::Read(Read::Search {
                query: spec.render(),
                expect,
            }));
            // Browse and revive targets step through the history so
            // far by the golden ratio: however far the session has
            // come, the targets of a tenant so far cover it evenly,
            // and with it every distance to a keyframe and every
            // place in a checkpoint chain. One browse in three goes to
            // the latest noted step instead, for the oracle.
            let tenant = ((reads + 3) % n) as u8;
            let noted = &tenants[tenant as usize].noted;
            let latest = noted.partition_point(|&t| t < now);
            let at_ns = if reads.is_multiple_of(3) && latest > 0 {
                noted[(reads / 3) as usize % latest]
            } else {
                NS_PER_SEC + (along(&mut browse_at) * (now - NS_PER_SEC) as f64) as u64
            };
            events.push(Event::Read(Read::Browse { tenant, at_ns }));
            events.push(Event::Read(Read::Revive {
                tenant: ((reads + 5) % n) as u8,
                at_ns: 2 * NS_PER_SEC
                    + (along(&mut revive_at) * (now - 2 * NS_PER_SEC) as f64) as u64,
            }));
            reads += 1;
        }
        if sec % 4 == 0 {
            events.push(Event::Read(Read::Visual {
                tenant: ((sec / 4) % n) as u8,
            }));
            events.push(Event::Read(if sec % 8 == 0 {
                Read::Compact
            } else {
                Read::Gc
            }));
        }
    }
    HostScript {
        tenants,
        events,
        window_secs: VIDEO_CYCLE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mix: Mix) -> Shape {
        Shape {
            mix,
            screen: (320, 240),
            secs: 120,
            probes: 40,
            notes: 8,
            searches: 10,
            seeks: 30,
            revives: 10,
            families: 8,
            playback_passes: 1,
            video: (160, 120),
            fps: 12,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_script_and_oracle() {
        for mix in [Mix::Office, Mix::Video, Mix::Build] {
            let a = session(7, small(mix));
            let b = session(7, small(mix));
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
            let c = session(8, small(mix));
            assert_ne!(a.digest(), c.digest(), "{mix:?}: the seed must matter");
        }
    }

    #[test]
    fn host_script_is_deterministic_and_reads_have_answers() {
        let shapes: Vec<Shape> = [Mix::Office, Mix::Video, Mix::Build]
            .into_iter()
            .map(|mix| Shape {
                secs: 30,
                probes: 10,
                ..small(mix)
            })
            .collect();
        let a = host(11, &shapes);
        assert_eq!(a, host(11, &shapes));
        assert_ne!(a, host(12, &shapes));
        let mut searches = 0;
        for e in &a.events {
            if let Event::Read(Read::Search { expect, .. }) = e {
                searches += 1;
                assert!((1..=10).contains(&expect.len()));
            }
        }
        assert_eq!(
            searches as u64,
            (30 - (HOST_READS_FROM - 1)) * HOST_READS_PER_SEC
        );
        let steps = a
            .events
            .iter()
            .filter(|e| matches!(e, Event::Step { .. }))
            .count();
        assert_eq!(
            steps,
            a.tenants.iter().map(|s| s.steps.len()).sum::<usize>()
        );
    }

    #[test]
    fn every_query_has_one_to_ten_oracle_hits() {
        for mix in [Mix::Office, Mix::Video, Mix::Build] {
            let s = session(3, small(mix));
            assert_eq!(s.searches.len(), 10);
            for case in &s.searches {
                assert!((1..=10).contains(&case.expect.len()), "{case:?}");
                assert!(case.expect.windows(2).all(|w| w[0].1 < w[1].0));
            }
        }
    }

    #[test]
    fn steps_are_ordered_and_ticks_fall_on_whole_seconds() {
        for mix in [Mix::Office, Mix::Video, Mix::Build] {
            let s = session(5, small(mix));
            assert!(s.steps.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
            assert_eq!(s.steps.iter().filter(|x| x.tick).count() as u64, s.secs);
            assert_eq!(s.steps.iter().filter(|x| x.probe.is_some()).count(), 40);
            assert!(s.steps.iter().filter(|x| x.note).count() >= 6);
            assert!(s.seeks.iter().all(|&t| t >= NS_PER_SEC && t <= s.end_ns()));
        }
    }

    #[test]
    fn model_merges_touching_states_and_clips_to_the_window() {
        let mut m = TextModel::default();
        m.set(0, true, "editor", "notes", "alpha beta", 10);
        m.set(0, true, "editor", "notes", "beta gamma", 20);
        m.set(0, true, "editor", "notes", "delta", 30);
        m.set(1, true, "browser", "news", "beta", 50);
        let beta = QuerySpec::term("beta");
        assert_eq!(m.hits(&beta, 60), vec![(10, 30), (50, 60)]);
        assert_eq!(m.hits(&beta, 50), vec![(10, 30)]);
        assert_eq!(m.hits(&beta, 25), vec![(10, 25)]);
        let scoped = QuerySpec {
            app: Some("brow".into()),
            ..QuerySpec::term("beta")
        };
        assert_eq!(m.hits(&scoped, 60), vec![(50, 60)]);
        let phrase = QuerySpec {
            words: vec!["beta".into(), "gamma".into()],
            ..QuerySpec::term("")
        };
        assert_eq!(m.hits(&phrase, 60), vec![(20, 30)]);
        let windowed = QuerySpec {
            during: Some((15, 25)),
            ..QuerySpec::term("beta")
        };
        assert_eq!(m.hits(&windowed, 60), vec![(15, 25)]);
    }
}
