//! Profiling export: JSON serialization and the per-stream breakdown.
//!
//! The JSON format is hand-rolled (the build is offline, no serde) and
//! deterministic: maps are `BTreeMap`-ordered, events are in ring
//! order, and floating-point ratios are printed with a fixed precision
//! — two runs that perform the same operations produce byte-identical
//! exports. This mirrors the flat `BENCH_ci.json` style used by the
//! `reproduce` harness.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::HistogramSnapshot;
use crate::trace::TraceEvent;

/// A full copy of the registry plus the trace ring at one instant.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObsSnapshot {
    /// All counters, name-ordered.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, name-ordered.
    pub gauges: BTreeMap<String, u64>,
    /// All histogram snapshots, name-ordered.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Ring contents, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring before this snapshot.
    pub dropped_events: u64,
}

/// Aggregated busy time for one stream of the recorder.
#[derive(Clone, PartialEq, Debug)]
struct StreamBreakdown {
    /// Stream name (first dot-separated component of the metric name).
    pub stream: String,
    /// Total spans recorded across the stream's histograms.
    pub spans: u64,
    /// Total busy time across the stream's histograms, in nanoseconds.
    pub busy_nanos: u64,
    /// This stream's fraction of all instrumented busy time (0..=1).
    pub share: f64,
}

/// Preferred ordering of the recording streams in reports.
const STREAM_ORDER: [&str; 7] = [
    "display",
    "text",
    "index",
    "checkpoint",
    "lsfs",
    "net",
    "fault",
];

impl ObsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Events with the given name, oldest first.
    pub fn events_named<'a>(&'a self, name: &str) -> Vec<&'a TraceEvent> {
        self.events.iter().filter(|e| e.name == name).collect()
    }

    /// Merges another snapshot into this one: counters, gauges, and
    /// dropped-event counts are summed (saturating), histograms are
    /// merged bucket-wise via [`HistogramSnapshot::merge`], and
    /// `other`'s events are appended after this snapshot's. Like the
    /// histogram merge, the operation is associative, so a host-level
    /// rollup folded over per-tenant snapshots equals any
    /// re-association of the same fold.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (name, h) in &other.histograms {
            let merged = match self.histograms.get(name) {
                Some(mine) => mine.merge(h),
                None => *h,
            };
            self.histograms.insert(name.clone(), merged);
        }
        self.events.extend(other.events.iter().cloned());
        self.dropped_events = self.dropped_events.saturating_add(other.dropped_events);
    }

    /// Aggregates histogram time by stream (the leading dot-separated
    /// component of each histogram name), in report order.
    fn stream_breakdown(&self) -> Vec<StreamBreakdown> {
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (name, h) in &self.histograms {
            let stream = name.split('.').next().unwrap_or(name);
            let entry = agg.entry(stream).or_insert((0, 0));
            entry.0 = entry.0.saturating_add(h.count);
            entry.1 = entry.1.saturating_add(h.sum_nanos);
        }
        let total: u64 = agg.values().map(|(_, busy)| *busy).sum();
        let mut rows: Vec<StreamBreakdown> = agg
            .into_iter()
            .map(|(stream, (spans, busy))| StreamBreakdown {
                stream: stream.to_string(),
                spans,
                busy_nanos: busy,
                share: if total == 0 {
                    0.0
                } else {
                    busy as f64 / total as f64
                },
            })
            .collect();
        rows.sort_by_key(|r| {
            STREAM_ORDER
                .iter()
                .position(|s| *s == r.stream)
                .unwrap_or(STREAM_ORDER.len())
        });
        rows
    }

    /// Renders the per-stream overhead breakdown as an aligned table.
    pub fn render_breakdown(&self) -> String {
        let rows = self.stream_breakdown();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>12} {:>10} {:>7}",
            "stream", "spans", "busy ms", "mean us", "share"
        );
        for r in &rows {
            let mean_us = if r.spans == 0 {
                0.0
            } else {
                r.busy_nanos as f64 / r.spans as f64 / 1_000.0
            };
            let _ = writeln!(
                out,
                "{:<12} {:>8} {:>12.3} {:>10.1} {:>6.1}%",
                r.stream,
                r.spans,
                r.busy_nanos as f64 / 1e6,
                mean_us,
                r.share * 100.0
            );
        }
        if rows.is_empty() {
            out.push_str("(no spans recorded)\n");
        }
        out
    }

    /// Serializes the snapshot to deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"counters\": {");
        append_u64_map(&mut out, &self.counters);
        out.push_str("  \"gauges\": {");
        append_u64_map(&mut out, &self.gauges);

        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum_nanos\": {}, \"min_nanos\": {}, \"max_nanos\": {}, \"buckets\": [",
                escape_json(name),
                h.count,
                h.sum_nanos,
                if h.count == 0 { 0 } else { h.min_nanos },
                h.max_nanos
            );
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"shares\": {");
        let rows = self.stream_breakdown();
        let mut first = true;
        for r in &rows {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {:.6}", escape_json(&r.stream), r.share);
        }
        out.push_str(if rows.is_empty() { "},\n" } else { "\n  },\n" });

        out.push_str("  \"events\": [");
        let mut first = true;
        for e in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"seq\": {}, \"time_nanos\": {}, \"stream\": \"{}\", \"name\": \"{}\", \"detail\": \"{}\", \"duration_nanos\": {}}}",
                e.seq,
                e.time.as_nanos(),
                escape_json(e.stream),
                escape_json(e.name),
                escape_json(&e.detail),
                e.duration_nanos
            );
        }
        out.push_str(if self.events.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        let _ = writeln!(out, "  \"dropped_events\": {}", self.dropped_events);
        out.push_str("}\n");
        out
    }
}

fn append_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{}\": {}", escape_json(k), v);
    }
    out.push_str(if map.is_empty() { "},\n" } else { "\n  },\n" });
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_time::Timestamp;

    fn hist(count: u64, sum: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            count,
            sum_nanos: sum,
            min_nanos: 1,
            max_nanos: sum,
            ..Default::default()
        }
    }

    #[test]
    fn breakdown_groups_by_stream_prefix() {
        let mut snap = ObsSnapshot::default();
        snap.histograms.insert("lsfs.sync".into(), hist(2, 200));
        snap.histograms.insert("lsfs.blob_put".into(), hist(1, 100));
        snap.histograms
            .insert("checkpoint.capture".into(), hist(1, 700));
        let rows = snap.stream_breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stream, "checkpoint", "report order");
        assert_eq!(rows[1].stream, "lsfs");
        assert_eq!(rows[1].spans, 3);
        assert_eq!(rows[1].busy_nanos, 300);
        assert!((rows[1].share - 0.3).abs() < 1e-9);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let mut snap = ObsSnapshot::default();
        snap.counters.insert("a.b".into(), 3);
        snap.events.push(TraceEvent {
            seq: 0,
            time: Timestamp::from_nanos(5),
            stream: "fault",
            name: "fault.injected",
            detail: "say \"hi\"\n".into(),
            duration_nanos: 0,
        });
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"a.b\": 3"));
        assert!(a.contains("say \\\"hi\\\"\\n"));
        assert!(a.contains("\"dropped_events\": 0"));
    }

    #[test]
    fn empty_snapshot_serializes() {
        let snap = ObsSnapshot::default();
        let json = snap.to_json();
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(snap.render_breakdown().lines().count(), 2);
    }
}
