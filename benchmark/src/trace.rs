//! Benchmark-side spans.
//!
//! With `--trace 1` the player wraps every call into a layer's public
//! functions in a span; spans stay in memory and are written out with
//! the layer table when the run ends. Nothing here reaches into the
//! program: a layer's time is what its public calls took, seen from
//! outside, and its self time is that minus the spans nested inside.

use std::fmt::Write as _;
use std::time::Instant;

/// The crate a span's call goes into. `Harness` marks the envelope of
/// one user operation (a step, probe, seek, search, revive): its self
/// time is the player's own bookkeeping between calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Harness,
    Core,
    Display,
    Record,
    Access,
    Tidx,
    Vidx,
    Vee,
    Checkpoint,
    Cas,
    Net,
    Host,
}

impl Layer {
    pub const ALL: [Layer; 12] = [
        Layer::Harness,
        Layer::Core,
        Layer::Display,
        Layer::Record,
        Layer::Access,
        Layer::Tidx,
        Layer::Vidx,
        Layer::Vee,
        Layer::Checkpoint,
        Layer::Cas,
        Layer::Net,
        Layer::Host,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Core => "core",
            Layer::Display => "display",
            Layer::Record => "record",
            Layer::Access => "access",
            Layer::Tidx => "tidx",
            Layer::Vidx => "vidx",
            Layer::Vee => "vee",
            Layer::Checkpoint => "checkpoint",
            Layer::Cas => "cas",
            Layer::Net => "net",
            Layer::Host => "host",
        }
    }
}

/// The timed phases of a run, in order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Record,
    Flush,
    Browse,
    Search,
    Revive,
    Playback,
    /// Sink-isolated replays and the extra probes of a traced run.
    Extra,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Record,
        Phase::Flush,
        Phase::Browse,
        Phase::Search,
        Phase::Revive,
        Phase::Playback,
        Phase::Extra,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Record => "record",
            Phase::Flush => "flush",
            Phase::Browse => "browse",
            Phase::Search => "search",
            Phase::Revive => "revive",
            Phase::Playback => "playback",
            Phase::Extra => "extra",
        }
    }
}

/// One recorded span. Ids start at 1; `parent == 0` means top level.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Ties the spans of one user operation together.
    pub op: u32,
    pub phase: Phase,
}

/// Handle to an open envelope span, closed with [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// Collects spans when enabled; costs one branch per call otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    phase: Phase,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            phase: Phase::Record,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(0),
            op: self.op,
            phase: self.phase,
        });
        self.open.push(id);
        id
    }

    fn pop(&mut self, id: u32) {
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Opens the envelope of a new user operation.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(0);
        }
        self.op += 1;
        Open(self.push(Layer::Harness, name))
    }

    /// Closes an envelope opened by [`Tracer::begin_op`].
    pub fn end(&mut self, open: Open) {
        if self.on {
            self.pop(open.0);
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.push(layer, name);
        let out = f();
        self.pop(id);
        out
    }

    /// Total duration in seconds of the spans `pick` selects.
    pub fn busy_s(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }
}

/// Self time of every span, in span order: its duration minus the part
/// of its interval that its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One row of the layer table.
#[derive(Clone, Debug)]
pub struct LayerRow {
    pub phase: Phase,
    pub layer: Layer,
    pub spans: u64,
    pub busy_s: f64,
    pub self_s: f64,
}

/// Busy and self time per phase and layer, skipping empty cells.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times_ns(spans);
    let mut rows = Vec::new();
    for phase in Phase::ALL {
        for layer in Layer::ALL {
            let mut row = LayerRow {
                phase,
                layer,
                spans: 0,
                busy_s: 0.0,
                self_s: 0.0,
            };
            for (s, self_ns) in spans.iter().zip(&selfs) {
                if s.phase == phase && s.layer == layer {
                    row.spans += 1;
                    row.busy_s += (s.end_ns - s.start_ns) as f64 / 1e9;
                    row.self_s += *self_ns as f64 / 1e9;
                }
            }
            if row.spans > 0 {
                rows.push(row);
            }
        }
    }
    rows
}

/// Self time of `layer` in `phase`, in seconds.
pub fn layer_self_s(rows: &[LayerRow], phase: Phase, layer: Layer) -> f64 {
    rows.iter()
        .find(|r| r.phase == phase && r.layer == layer)
        .map_or(0.0, |r| r.self_s)
}

/// Share of `wall_s` in `phase` that no layer's span accounts for: the
/// wall minus the self time of every span outside the harness.
pub fn unattributed_frac(rows: &[LayerRow], phase: Phase, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    let attributed: f64 = rows
        .iter()
        .filter(|r| r.phase == phase && r.layer != Layer::Harness)
        .map(|r| r.self_s)
        .sum();
    ((wall_s - attributed) / wall_s).max(0.0)
}

/// Renders spans and the layer table as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], rows: &[LayerRow]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 1024);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"layers\":["
    );
    for (i, r) in rows.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"phase\":\"{}\",\"layer\":\"{}\",\"spans\":{},\"busy_s\":{:.9},\"self_s\":{:.9}}}",
            r.phase.name(),
            r.layer.name(),
            r.spans,
            r.busy_s,
            r.self_s
        );
    }
    out.push_str("],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"phase\":\"{}\"}}",
            s.id,
            s.layer.name(),
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            s.op,
            s.phase.name()
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            layer,
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            phase: Phase::Record,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, Layer::Harness, 0, 100, 0),
            span(2, Layer::Display, 10, 40, 1),
            span(3, Layer::Access, 50, 70, 1),
            // A grandchild shortens its parent, not its grandparent.
            span(4, Layer::Tidx, 55, 65, 3),
            // Overlapping siblings are covered once.
            span(5, Layer::Net, 60, 90, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 10, 30]);
    }

    #[test]
    fn unattributed_is_wall_minus_layer_self_time() {
        let spans = vec![
            span(1, Layer::Harness, 0, 1_000_000_000, 0),
            span(2, Layer::Display, 0, 600_000_000, 1),
            span(3, Layer::Record, 100_000_000, 300_000_000, 2),
        ];
        let rows = layer_table(&spans);
        assert!((layer_self_s(&rows, Phase::Record, Layer::Display) - 0.4).abs() < 1e-9);
        assert!((layer_self_s(&rows, Phase::Record, Layer::Record) - 0.2).abs() < 1e-9);
        assert!((unattributed_frac(&rows, Phase::Record, 1.0) - 0.4).abs() < 1e-9);
        assert_eq!(unattributed_frac(&rows, Phase::Browse, 0.0), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let op = tr.begin_op("step");
        assert_eq!(tr.span(Layer::Display, "fill", || 7), 7);
        tr.end(op);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_and_numbers_ops() {
        let mut tr = Tracer::new(true);
        let op = tr.begin_op("step");
        tr.span(Layer::Display, "fill", || ());
        tr.end(op);
        let op = tr.begin_op("step");
        tr.end(op);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (0, 1, 0));
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
