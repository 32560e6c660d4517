//! Point-in-time views of a [`Recorder`](crate::Recorder): the span tree,
//! counters, gauges and histograms, with text and JSON renderers.

use crate::{json, BUCKET_BOUNDS_NS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated timings for one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span closed.
    pub count: u64,
    /// Total time inside the span (including children), nanoseconds.
    pub total_ns: u64,
    /// Longest single occurrence, nanoseconds.
    pub max_ns: u64,
}

/// One histogram's frozen state; bucket `i` counts observations `<=`
/// [`BUCKET_BOUNDS_NS`]`[i]`, with a final overflow bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

/// Everything a [`Recorder`](crate::Recorder) knows, frozen. Span keys are
/// `/`-joined paths (`workspace.reanalyze/infer.param{name=threads}`), so
/// iterating the `BTreeMap` walks the tree depth-first.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub spans: BTreeMap<String, SpanStat>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// The stats for an exact span path, if it was recorded.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// Total closings across every span whose path ends with component
    /// `name` (label suffix `{...}` ignored) — for "did `infer.range` run
    /// anywhere in the tree" queries.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(path, _)| {
                let last = path.rsplit('/').next().unwrap_or(path);
                let last = last.split('{').next().unwrap_or(last);
                last == name
            })
            .map(|(_, s)| s.count)
            .sum()
    }

    /// A counter's value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The deterministic projection of the snapshot: every span path with
    /// its count, every counter with its value, every histogram with its
    /// observation count — and **no** timings, gauges or bucket contents,
    /// which are scheduling- and clock-dependent. Two runs of the same
    /// workload must produce equal signatures.
    pub fn counts_signature(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.spans {
            let _ = writeln!(out, "span {path} x{}", stat.count);
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "histogram {name} n={}", h.count);
        }
        out
    }

    /// The human rendering: an indented span tree with counts and
    /// timings, then counters, gauges and histograms.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for (path, stat) in &self.spans {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(path);
                let _ = writeln!(
                    out,
                    "  {:indent$}{name}  x{}  total {}  max {}",
                    "",
                    stat.count,
                    fmt_ns(stat.total_ns),
                    fmt_ns(stat.max_ns),
                    indent = depth * 2,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {name}  n={}  mean {}  [{}]",
                    h.count,
                    fmt_ns(mean),
                    h.buckets
                        .iter()
                        .map(|b| b.to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }

    /// The machine rendering: one JSON object with `spans`, `counters`,
    /// `gauges` and `histograms` keys; round-trips through
    /// [`json::Json::parse`].
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"spans\":{");
        for (i, (path, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                json::quote(path),
                stat.count,
                stat.total_ns,
                stat.max_ns,
            );
        }
        out.push_str("},\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json::quote(name), value);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json::quote(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"bounds_ns\":[{}],\"buckets\":[{}]}}",
                json::quote(name),
                h.count,
                h.sum,
                BUCKET_BOUNDS_NS
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                h.buckets
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        out.push_str("}}");
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use crate::{counter, install, json, observe, span, Recorder};
    use std::sync::Arc;

    fn sample() -> crate::TelemetrySnapshot {
        let rec = Arc::new(Recorder::new());
        {
            let _g = install(&rec);
            let _a = span("check.batch");
            {
                let _b = span!("check.file", file = "a.conf");
            }
            counter("check.diagnostics", 3);
            observe("check.file_ns", 42_000);
        }
        rec.snapshot()
    }

    #[test]
    fn text_rendering_indents_by_depth() {
        let text = sample().render_text();
        assert!(text.contains("spans:"), "{text}");
        assert!(text.contains("  check.batch  x1"), "{text}");
        assert!(text.contains("    check.file{file=a.conf}  x1"), "{text}");
        assert!(text.contains("check.diagnostics = 3"), "{text}");
        assert!(text.contains("check.file_ns  n=1"), "{text}");
    }

    #[test]
    fn json_rendering_parses_back() {
        let rendered = sample().render_json();
        let doc = json::Json::parse(&rendered).expect("snapshot JSON parses");
        let spans = doc.get("spans").expect("spans key");
        assert!(spans
            .get("check.batch/check.file{file=a.conf}")
            .and_then(|s| s.get("count"))
            .and_then(|c| c.as_f64())
            .is_some_and(|c| c == 1.0));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("check.diagnostics"))
                .and_then(|c| c.as_f64()),
            Some(3.0)
        );
    }

    #[test]
    fn counts_signature_excludes_timings() {
        let a = sample().counts_signature();
        let b = sample().counts_signature();
        assert_eq!(a, b, "identical workloads must sign identically");
        assert!(!a.contains("total"), "no timings in the signature");
    }

    #[test]
    fn span_count_matches_suffix_ignoring_labels() {
        let snap = sample();
        assert_eq!(snap.span_count("check.file"), 1);
        assert_eq!(snap.span_count("check.batch"), 1);
        assert_eq!(snap.span_count("absent"), 0);
    }

    #[test]
    fn a_label_with_slashes_stays_one_node() {
        let rec = Arc::new(Recorder::new());
        {
            let _g = install(&rec);
            let _a = span("workspace.reanalyze");
            let _b = span!("workspace.module", module = "fleet/src/m0000.c");
            let _c = span!("check.file", file = "50%/x");
        }
        let snap = rec.snapshot();
        let module = "workspace.reanalyze/workspace.module{module=fleet%2Fsrc%2Fm0000.c}";
        assert_eq!(snap.span(module).map(|s| s.count), Some(1));
        assert!(snap
            .span(&format!("{module}/check.file{{file=50%25%2Fx}}"))
            .is_some());
        assert_eq!(snap.span_count("workspace.module"), 1);
        assert_eq!(snap.span_count("check.file"), 1);

        let text = snap.render_text();
        let depths: Vec<(usize, &str)> = text
            .lines()
            .skip(1)
            .map_while(|l| l.strip_prefix("  "))
            .map(|l| {
                let name = l.trim_start();
                (l.len() - name.len(), name.split("  ").next().unwrap())
            })
            .collect();
        assert_eq!(
            depths,
            [
                (0, "workspace.reanalyze"),
                (2, "workspace.module{module=fleet%2Fsrc%2Fm0000.c}"),
                (4, "check.file{file=50%25%2Fx}"),
            ],
            "{text}"
        );
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = crate::TelemetrySnapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.render_text(), "(no telemetry recorded)\n");
        assert!(json::Json::parse(&snap.render_json()).is_ok());
    }
}
