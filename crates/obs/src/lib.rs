//! `spex-obs` — structured telemetry for the SPEX stack (std only).
//!
//! The paper's pitch is that *systems* should explain failures instead of
//! leaving users to guess; this crate applies that standard to the checker
//! itself. It provides:
//!
//! * a lightweight **span** API ([`span()`] / [`span!`]) — guard objects
//!   over monotonic clocks that aggregate into a tree of timings keyed by
//!   `/`-joined paths (`workspace.reanalyze/infer.param{name=threads}/
//!   infer.range`);
//! * a **metrics registry** — counters, gauges and histograms with fixed
//!   bucket boundaries ([`BUCKET_BOUNDS_NS`]);
//! * a thread-safe in-memory [`Recorder`] that owns both, and a
//!   [`TelemetrySnapshot`] with human-text and JSON renderers.
//!
//! # Enablement model: zero-cost when off
//!
//! Nothing here is process-global state that silently accumulates: a
//! recorder only sees events from threads that explicitly [`install`]ed
//! it. When no recorder is installed on the current thread, every entry
//! point degrades to a branch on one relaxed atomic load — no clock read,
//! no allocation, no lock. The [`probe`] lineage counters let tests assert
//! exactly that (the same style as `Module::clone_count()` in `spex-ir`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(spex_obs::Recorder::new());
//! {
//!     let _session = spex_obs::install(&recorder);
//!     let _outer = spex_obs::span("load");
//!     {
//!         let _inner = spex_obs::span!("parse", file = "a.conf");
//!         spex_obs::counter("files.parsed", 1);
//!     }
//! }
//! let snap = recorder.snapshot();
//! assert_eq!(snap.span("load").unwrap().count, 1);
//! assert_eq!(snap.span("load/parse{file=a.conf}").unwrap().count, 1);
//! assert_eq!(snap.counter("files.parsed"), 1);
//! ```

pub mod json;
mod snapshot;

pub use snapshot::{HistogramSnapshot, SpanStat, TelemetrySnapshot};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fixed histogram bucket boundaries, in nanoseconds: 1µs, 10µs, 100µs,
/// 1ms, 10ms, 100ms, 1s, 10s (plus an implicit overflow bucket). Fixed
/// boundaries keep snapshots mergeable and comparisons across runs
/// meaningful.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// How many threads currently have a recorder installed (process-wide
/// fast-path switch: zero means every telemetry call is a no-op).
static ACTIVE_INSTALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// The per-thread telemetry context: where events go, and the span path
/// the thread is currently inside.
struct ThreadCtx {
    recorder: Arc<Recorder>,
    path: Vec<String>,
}

/// Lineage counters for the no-op guarantee (the `clone_count()` pattern):
/// thread-local tallies of work the telemetry layer actually did, so tests
/// can assert the disabled path recorded nothing and allocated nothing.
pub mod probe {
    use std::cell::Cell;

    thread_local! {
        static SPANS_RECORDED: Cell<u64> = const { Cell::new(0) };
        static LABELS_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    }

    /// Spans this thread has recorded into any recorder, ever.
    pub fn thread_spans_recorded() -> u64 {
        SPANS_RECORDED.with(|c| c.get())
    }

    /// Span-label strings this thread has formatted (each one is a heap
    /// allocation; the disabled path must never format).
    pub fn thread_labels_allocated() -> u64 {
        LABELS_ALLOCATED.with(|c| c.get())
    }

    pub(crate) fn note_span_recorded() {
        SPANS_RECORDED.with(|c| c.set(c.get() + 1));
    }

    pub(crate) fn note_label_allocated() {
        LABELS_ALLOCATED.with(|c| c.set(c.get() + 1));
    }
}

/// Whether telemetry is live on the *current thread* — i.e. a recorder is
/// [`install`]ed here. The first check is one relaxed atomic load, so
/// calling this in a hot loop with telemetry off costs nothing measurable.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_INSTALLS.load(Ordering::Relaxed) > 0
        && CURRENT.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

/// Installs `recorder` as the current thread's telemetry sink until the
/// returned guard drops (restoring whatever was installed before, so
/// installs nest). Spans opened under the install aggregate into the
/// recorder, starting at the top of its span tree; worker threads must
/// install separately — thread-locals do not cross `spawn` — and do so
/// with [`install_under`] to nest below the span that fanned out.
#[must_use = "telemetry stops when the install guard drops"]
pub fn install(recorder: &Arc<Recorder>) -> InstallGuard {
    install_under(recorder, Vec::new())
}

/// Like [`install`], but spans opened under this install nest below
/// `path` — the caller's [`current_path`], handed to a pool worker along
/// with the recorder, so work fanned out from a span stays inside it at
/// every thread count.
#[must_use = "telemetry stops when the install guard drops"]
pub fn install_under(recorder: &Arc<Recorder>, path: Vec<String>) -> InstallGuard {
    let prev = CURRENT
        .try_with(|c| {
            c.borrow_mut().replace(ThreadCtx {
                recorder: Arc::clone(recorder),
                path,
            })
        })
        .unwrap_or(None);
    ACTIVE_INSTALLS.fetch_add(1, Ordering::SeqCst);
    InstallGuard { prev }
}

/// The span path the current thread is inside (empty when none is open
/// or no recorder is installed here), for [`install_under`].
pub fn current_path() -> Vec<String> {
    CURRENT
        .try_with(|c| c.borrow().as_ref().map(|ctx| ctx.path.clone()))
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// The recorder installed on the current thread, if any — for handing the
/// sink across a worker-pool boundary (thread-locals do not cross `spawn`,
/// so a pool must capture the caller's recorder and [`current_path`] and
/// [`install_under`] them on each worker).
pub fn current_recorder() -> Option<Arc<Recorder>> {
    CURRENT
        .try_with(|c| c.borrow().as_ref().map(|ctx| Arc::clone(&ctx.recorder)))
        .unwrap_or(None)
}

/// Reverts an [`install`] on drop.
pub struct InstallGuard {
    prev: Option<ThreadCtx>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let _ = CURRENT.try_with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
        ACTIVE_INSTALLS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Opens a span named `name` under the current thread's span path; the
/// returned guard records the elapsed time into the recorder when it
/// drops. A no-op guard (no clock read, no allocation) when telemetry is
/// disabled. Use the [`span!`] macro to attach `key = value` labels
/// without paying for formatting when disabled.
#[must_use = "a span measures until its guard drops"]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    span_owned(name.to_string())
}

/// Like [`span()`], from an already-owned label (the `span!` macro's entry
/// point; callers must have checked [`enabled`]).
#[must_use = "a span measures until its guard drops"]
pub fn span_owned(name: String) -> SpanGuard {
    let pushed = CURRENT
        .try_with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.path.push(name);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    SpanGuard {
        start: pushed.then(Instant::now),
    }
}

/// A measuring (or no-op) span; see [`span()`].
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// An inert guard (the disabled arm of [`span!`]).
    pub fn noop() -> SpanGuard {
        SpanGuard { start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let _ = CURRENT.try_with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                let path = ctx.path.join("/");
                ctx.recorder.record_span(&path, elapsed);
                ctx.path.pop();
                probe::note_span_recorded();
            }
        });
    }
}

/// Formats `name{k=v,...}` for a labelled span (enabled path only; counts
/// against [`probe::thread_labels_allocated`]). Values are escaped with
/// `LabelValue`, so a label can never split the `/`-joined span path.
#[doc(hidden)]
pub fn format_label(name: &str, fields: &[(&str, &dyn std::fmt::Display)]) -> String {
    probe::note_label_allocated();
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=");
        let _ = write!(LabelValue(&mut out), "{v}");
    }
    out.push('}');
    out
}

/// Writes a span label value with `%` escaped as `%25` and `/` as `%2F`:
/// a value such as a file path stays one component of its span path.
struct LabelValue<'a>(&'a mut String);

impl std::fmt::Write for LabelValue<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for c in s.chars() {
            match c {
                '%' => self.0.push_str("%25"),
                '/' => self.0.push_str("%2F"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Opens a span, optionally labelled: `span!("infer.param", name = p)`
/// yields the path component `infer.param{name=threads}`, and a value
/// `etc/a.conf` yields `{file=etc%2Fa.conf}`. Labels are formatted only
/// when telemetry is enabled — the disabled arm is a branch and an inert
/// guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span_owned($crate::format_label(
                $name,
                &[$((stringify!($key), &$value as &dyn ::std::fmt::Display)),+],
            ))
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

fn with_recorder(f: impl FnOnce(&Recorder)) {
    let _ = CURRENT.try_with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            f(&ctx.recorder);
        }
    });
}

/// Adds `delta` to the counter `name` (no-op when disabled). Counters are
/// monotonic and deterministic for a deterministic workload — snapshot
/// comparisons rely on that; scheduling-dependent measurements belong in
/// gauges or histograms instead.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.add_counter(name, delta));
}

/// Sets the gauge `name` to `value` (last write wins; no-op when
/// disabled). Gauges hold point-in-time observations — worker
/// utilization, queue sizes — that may legitimately differ between
/// otherwise identical runs.
#[inline]
pub fn gauge(name: &str, value: i64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.set_gauge(name, value));
}

/// Records one observation into the histogram `name` (no-op when
/// disabled). Buckets follow [`BUCKET_BOUNDS_NS`]; values are
/// conventionally nanoseconds but any u64 works (queue depths, sizes).
#[inline]
pub fn observe(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.observe(name, value));
}

/// Sugar: records a [`Duration`] into histogram `name` in nanoseconds.
#[inline]
pub fn observe_duration(name: &str, d: Duration) {
    observe(name, d.as_nanos().min(u64::MAX as u128) as u64);
}

/// `Instant::now()` only when telemetry is enabled — pair with
/// [`observe_elapsed`] to time a region without guard objects.
#[inline]
pub fn clock() -> Option<Instant> {
    enabled().then(Instant::now)
}

/// Completes a [`clock`] measurement into histogram `name`.
#[inline]
pub fn observe_elapsed(name: &str, start: Option<Instant>) {
    if let Some(start) = start {
        observe_duration(name, start.elapsed());
    }
}

/// One histogram: fixed buckets ([`BUCKET_BOUNDS_NS`]) plus an overflow
/// bucket, with count and sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Histogram {
    pub buckets: [u64; BUCKET_BOUNDS_NS.len() + 1],
    pub count: u64,
    pub sum: u64,
}

impl Histogram {
    fn record(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

#[derive(Default)]
struct RecorderState {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The thread-safe in-memory aggregation sink (see the module docs).
/// Shared as `Arc<Recorder>`; every mutation takes one mutex — cheap at
/// span granularity, and contention-free in the common one-installed-
/// thread case.
#[derive(Default)]
pub struct Recorder {
    state: Mutex<RecorderState>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn record_span(&self, path: &str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let mut state = self.state.lock().unwrap();
        let stat = match state.spans.get_mut(path) {
            Some(stat) => stat,
            None => state.spans.entry(path.to_string()).or_default(),
        };
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(ns);
        stat.max_ns = stat.max_ns.max(ns);
    }

    fn add_counter(&self, name: &str, delta: u64) {
        let mut state = self.state.lock().unwrap();
        match state.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                state.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn set_gauge(&self, name: &str, value: i64) {
        let mut state = self.state.lock().unwrap();
        state.gauges.insert(name.to_string(), value);
    }

    fn observe(&self, name: &str, value: u64) {
        let mut state = self.state.lock().unwrap();
        match state.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                state.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let state = self.state.lock().unwrap();
        TelemetrySnapshot {
            spans: state.spans.clone(),
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            buckets: h.buckets.to_vec(),
                            count: h.count,
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Forgets everything recorded so far.
    pub fn reset(&self) {
        *self.state.lock().unwrap() = RecorderState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_cost_nothing_and_record_nothing() {
        let spans_before = probe::thread_spans_recorded();
        let labels_before = probe::thread_labels_allocated();
        {
            let _s = span("never");
            let _l = span!("never", key = 42);
            counter("c", 1);
            gauge("g", 1);
            observe("h", 1);
            assert!(clock().is_none());
        }
        assert_eq!(probe::thread_spans_recorded(), spans_before);
        assert_eq!(probe::thread_labels_allocated(), labels_before);
    }

    #[test]
    fn spans_nest_into_a_path_tree() {
        let rec = Arc::new(Recorder::new());
        {
            let _g = install(&rec);
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span!("c", n = 1);
            }
        }
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.spans.keys().map(|s| s.as_str()).collect();
        assert_eq!(paths, vec!["a", "a/b", "a/b/c{n=1}"]);
        assert!(snap.span("a").unwrap().total_ns >= snap.span("a/b").unwrap().total_ns);
    }

    #[test]
    fn installs_nest_and_restore() {
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        let _g1 = install(&outer);
        {
            let _g2 = install(&inner);
            counter("x", 1);
        }
        counter("x", 2);
        assert_eq!(inner.snapshot().counter("x"), 1);
        assert_eq!(outer.snapshot().counter("x"), 2);
    }

    #[test]
    fn metrics_aggregate() {
        let rec = Arc::new(Recorder::new());
        {
            let _g = install(&rec);
            counter("jobs", 3);
            counter("jobs", 2);
            gauge("depth", 7);
            gauge("depth", 4);
            observe("lat", 500);
            observe("lat", 5_000_000_000_000);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("jobs"), 5);
        assert_eq!(snap.gauges.get("depth"), Some(&4));
        let h = snap.histograms.get("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[0], 1, "500ns lands in the first bucket");
        assert_eq!(
            h.buckets[BUCKET_BOUNDS_NS.len()],
            1,
            "83 minutes lands in the overflow bucket"
        );
    }

    #[test]
    fn worker_threads_record_only_when_they_install() {
        let rec = Arc::new(Recorder::new());
        let rec2 = Arc::clone(&rec);
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = install(&rec2);
                counter("from.worker", 1);
            });
            s.spawn(|| {
                counter("from.worker", 100); // no install: dropped
            });
        });
        assert_eq!(rec.snapshot().counter("from.worker"), 1);
    }
}
