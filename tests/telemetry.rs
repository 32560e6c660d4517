//! Integration tests for the `spex-obs` telemetry subsystem as wired
//! through the public API: zero-cost no-op when disabled, full span/metric
//! coverage of the inference and checking paths when enabled, and
//! deterministic count signatures across identical runs.

use spex::check::CheckSession;
use spex::conf::Dialect;
use spex::obs;
use spex::Workspace;

const ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

/// Two parameters, each used by its own function (same fixture as the
/// workspace tests, so the expected pass counts are known).
const BASE: &str = r#"
    int threads = 4;
    int nap = 30;
    struct opt { char* name; int* var; };
    struct opt options[] = { { "threads", &threads }, { "nap", &nap } };
    void startup() {
        if (threads < 1) { exit(1); }
        if (threads > 16) { exit(1); }
    }
    void napper() { sleep(nap); }
"#;

fn workspace_over(source: &str) -> Workspace {
    let mut ws = Workspace::new("Test", Dialect::KeyValue);
    ws.add_module("main.c", source, ANN).unwrap();
    ws
}

/// The no-op guarantee: a workspace that never enabled telemetry records
/// no spans and allocates no span labels anywhere in a cold run, a warm
/// run, or a check — asserted with the thread-local probe counters (the
/// same lineage-counter style PR 3 used for clone counts).
#[test]
fn disabled_workspace_records_nothing() {
    let mut ws = workspace_over(BASE);
    let spans_before = obs::probe::thread_spans_recorded();
    let labels_before = obs::probe::thread_labels_allocated();

    ws.reanalyze();
    let probed = format!("{BASE}\nvoid probe() {{ exit(1); }}\n");
    ws.update_module("main.c", &probed).unwrap();
    ws.reanalyze();
    assert!(!ws.check_text("threads = 99\n").is_empty());

    assert_eq!(
        obs::probe::thread_spans_recorded(),
        spans_before,
        "disabled telemetry must record zero spans"
    );
    assert_eq!(
        obs::probe::thread_labels_allocated(),
        labels_before,
        "disabled telemetry must allocate zero span labels"
    );
    assert!(ws.telemetry().is_empty(), "no recorder, empty snapshot");
}

/// The coverage guarantee: one instrumented cold-run + warm-run + check
/// leaves spans for all five inference passes, the shared artifacts
/// (mapping, taint, dataflow preparation), the workspace entry points and
/// the check path, plus the pass/cache/diagnostic counters the snapshot
/// renderers expose.
#[test]
fn snapshot_covers_all_passes_and_check_path() {
    let mut ws = workspace_over(BASE);
    ws.enable_telemetry();
    ws.reanalyze();

    // Cold run: two parameters, so every per-parameter pass ran twice.
    let snap = ws.telemetry();
    for pass in [
        "infer.basic_type",
        "infer.semantic_type",
        "infer.range",
        "infer.control_dep",
        "infer.value_rel",
    ] {
        assert!(
            snap.span_count(pass) > 0,
            "missing span for {pass}:\n{}",
            snap.render_text()
        );
    }
    assert_eq!(snap.span_count("infer.param"), 2, "one span per parameter");
    assert_eq!(snap.span_count("infer.taint"), 2, "one slice per parameter");
    assert!(snap.span_count("infer.mapping") > 0);
    assert!(snap.span_count("dataflow.prepare") > 0);
    assert!(snap.span_count("dataflow.taint") > 0);
    assert_eq!(snap.span_count("workspace.reanalyze"), 1);
    // One fold per reanalyze, under it.
    assert_eq!(snap.span_count("workspace.fold"), 1);
    let fold = "workspace.reanalyze/workspace.fold";
    assert!(snap.spans.contains_key(fold), "{}", snap.render_text());
    assert_eq!(snap.counter("infer.pass.basic_type"), 2);
    assert_eq!(snap.counter("infer.pass.range"), 2);

    // Warm run after an isolated edit: the cache counters surface.
    let probed = format!("{BASE}\nvoid probe() {{ exit(1); }}\n");
    ws.update_module("main.c", &probed).unwrap();
    ws.reanalyze();
    let snap = ws.telemetry();
    assert_eq!(snap.span_count("workspace.update_module"), 1);
    assert_eq!(snap.span_count("workspace.fold"), 2);
    assert_eq!(snap.counter("infer.cache.mapping.hits"), 1);
    assert_eq!(snap.counter("infer.cache.taint.hits"), 2);
    // Counters are cumulative: the two misses are the cold run's slices;
    // the warm run added none.
    assert_eq!(snap.counter("infer.cache.taint.misses"), 2);

    // Checking: per-file span, per-kind timing histograms, diagnostics
    // counters keyed by stable code.
    assert!(!ws.check_text("threads = 99\nnap = 10\n").is_empty());
    let snap = ws.telemetry();
    assert_eq!(snap.span_count("check.file"), 1);
    assert_eq!(snap.counter("check.files"), 1);
    assert_eq!(snap.counter("check.settings"), 2);
    assert!(snap.counter("check.diagnostics") > 0);
    assert!(snap.counter("check.diag.SPEX-R003") > 0, "range violation");

    // Both renderers agree the data is there.
    let text = snap.render_text();
    assert!(text.contains("workspace.reanalyze"), "{text}");
    assert!(text.contains("check.diagnostics"), "{text}");
    let json = snap.render_json();
    obs::json::Json::parse(&json).expect("snapshot JSON parses");
}

/// The determinism guarantee: two identical single-threaded runs produce
/// byte-identical count signatures (span paths and counts, counters,
/// histogram observation counts — everything except wall-clock timings
/// and scheduling-dependent gauges).
#[test]
fn identical_runs_have_identical_counts_signature() {
    let run = || {
        let mut ws = workspace_over(BASE);
        ws.enable_telemetry();
        ws.reanalyze();
        let probed = format!("{BASE}\nvoid probe() {{ exit(1); }}\n");
        ws.update_module("main.c", &probed).unwrap();
        ws.reanalyze();
        ws.check_text("threads = 99\nnap = 10\n");
        ws.telemetry().counts_signature()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "identical runs must count identically");
}

/// Pool metrics: a multi-threaded batch check under an attached recorder
/// reports run/job counters and per-grab queue-depth samples whose counts
/// are independent of how the jobs landed on workers.
#[test]
fn pool_metrics_count_jobs_deterministically() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();
    let recorder = std::sync::Arc::new(obs::Recorder::new());
    let session = CheckSession::new(ws.db())
        .with_threads(4)
        .with_recorder(std::sync::Arc::clone(&recorder));
    let files: Vec<(String, String)> = (0..16)
        .map(|i| (format!("{i}.conf"), "threads = 99\n".to_string()))
        .collect();
    let report = session.check_texts(&files);
    assert_eq!(report.files.len(), 16);

    let snap = recorder.snapshot();
    assert_eq!(snap.counter("pool.runs"), 1);
    assert_eq!(snap.counter("pool.jobs"), 16);
    assert_eq!(snap.span_count("check.file"), 16, "one span per file");
    assert_eq!(snap.counter("check.files"), 16);
    let depth = snap
        .histograms
        .get("pool.queue.depth")
        .expect("queue depth sampled");
    assert_eq!(depth.count, 16, "one sample per job grab");
}

/// The reaction counters are published once, from the same counts the
/// report carries: a cold run classifies every parameter (all misses),
/// and a warm run after an isolated edit serves the stale slices' verdicts
/// from the cache. Two modules, so the pool path is the one measured.
#[test]
fn react_cache_counters_match_the_report_once() {
    let aux = BASE.replace("threads", "workers").replace("nap", "pause");
    let mut ws = Workspace::new("Test", Dialect::KeyValue).with_threads(2);
    ws.enable_telemetry();
    ws.add_modules(&[("main.c", BASE, ANN), ("aux.c", aux.as_str(), ANN)])
        .unwrap();
    let cold = ws.reanalyze();
    let snap = ws.telemetry();
    assert_eq!(cold.passes.react_runs, 4, "every parameter is classified");
    assert_eq!(cold.passes.react_cache_hits, 0);
    assert_eq!(snap.counter("react.cache.misses"), 4);
    assert_eq!(snap.counter("react.cache.hits"), 0);

    let probed = format!("{BASE}\nvoid probe() {{ exit(1); }}\n");
    ws.update_module("main.c", &probed).unwrap();
    let warm = ws.reanalyze();
    assert!(warm.passes.react_cache_hits > 0, "{:?}", warm.passes);
    let snap = ws.telemetry();
    assert_eq!(
        snap.counter("react.cache.misses"),
        (cold.passes.react_runs + warm.passes.react_runs) as u64
    );
    assert_eq!(
        snap.counter("react.cache.hits"),
        warm.passes.react_cache_hits as u64
    );
}

/// Work a pool job does nests under the span that fanned it out, at any
/// thread count: each module's analysis sits under `workspace.reanalyze`,
/// and the span tree and every count come out the same at 1, 2 and 8
/// threads.
#[test]
fn pool_jobs_nest_under_the_callers_span() {
    let run = |threads: usize| {
        let mut ws = Workspace::new("Test", Dialect::KeyValue)
            .with_threads(threads)
            .with_telemetry();
        let second = BASE.replace("threads", "workers").replace("nap", "pause");
        ws.add_modules(&[("a.c", BASE, ANN), ("b.c", second.as_str(), ANN)])
            .unwrap();
        ws.reanalyze();
        ws.telemetry()
    };
    for threads in [1, 2] {
        let snap = run(threads);
        let modules: Vec<&String> = snap
            .spans
            .keys()
            .filter(|path| path.contains("workspace.module{"))
            .collect();
        assert!(!modules.is_empty(), "{}", snap.render_text());
        for path in modules {
            assert!(
                path.starts_with("workspace.reanalyze/"),
                "{path} at {threads} threads"
            );
        }
    }
    let one = run(1).counts_signature();
    assert_eq!(one, run(2).counts_signature());
    assert_eq!(one, run(8).counts_signature());
}
