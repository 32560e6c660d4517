//! The incremental workspace session end to end.
//!
//! A `Workspace` is the redesigned primary entry point: it owns sources,
//! annotations and a persisted constraint database, keys functions by
//! their tokens to know what an edit dirtied, and re-infers only that — so constraint
//! checking is cheap enough to run on *every* change, which is the only
//! regime where "the system, not the user, catches the misconfiguration"
//! actually holds.
//!
//! ```text
//! cargo run --example workspace_incremental
//! ```

use spex::conf::Dialect;
use spex::Workspace;

const ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

const V1_SOURCE: &str = r#"
    int listener_threads = 16;
    int idle_timeout = 60;
    struct opt { char* name; int* var; };
    struct opt options[] = {
        { "listener-threads", &listener_threads },
        { "idle-timeout", &idle_timeout }
    };
    void startup() {
        if (listener_threads < 1) { exit(1); }
        if (listener_threads > 16) { exit(1); }
    }
    void reaper() { sleep(idle_timeout); }
"#;

/// The next release tightens the reaper: timeouts above ten minutes are
/// now rejected. Only `reaper` changed.
const V2_SOURCE: &str = r#"
    int listener_threads = 16;
    int idle_timeout = 60;
    struct opt { char* name; int* var; };
    struct opt options[] = {
        { "listener-threads", &listener_threads },
        { "idle-timeout", &idle_timeout }
    };
    void startup() {
        if (listener_threads < 1) { exit(1); }
        if (listener_threads > 16) { exit(1); }
    }
    void reaper() {
        if (idle_timeout > 600) { exit(1); }
        sleep(idle_timeout);
    }
"#;

fn main() {
    // Release 1: the initial analysis is necessarily full. Telemetry is
    // opt-in per workspace; enabled here so the run can be replayed from
    // its span tree below.
    let mut ws = Workspace::new("demo", Dialect::KeyValue).with_telemetry();
    ws.add_module("main.c", V1_SOURCE, ANN).expect("v1 parses");
    let r = ws.reanalyze();
    println!(
        "release 1: analyzed {} module(s), {} parameter(s), {} pass invocations",
        r.modules_analyzed,
        r.params_reinferred,
        r.passes.total(),
    );

    let conf = "listener-threads = 8\nidle-timeout = 86400\n";
    println!(
        "  `idle-timeout = 86400` under release 1: {} diagnostic(s)",
        ws.check_text(conf).len()
    );

    // Release 2: one function changed; the item-key diff knows which.
    let diff = ws.update_module("main.c", V2_SOURCE).expect("v2 parses");
    println!("\nrelease 2 edit dirties: {:?}", diff.changed);
    let r = ws.reanalyze();
    println!(
        "release 2: re-inferred {} of 2 parameter(s) ({} pass invocations — \
         work proportional to the change)",
        r.params_reinferred,
        r.passes.total(),
    );

    // The pass-level cache made the warm run cheap: the edit touched only
    // `reaper`, so `listener-threads`'s taint slice and the mapping
    // extraction were served from the pass cache, and the stored module
    // was shared into the analysis, never deep-cloned.
    println!(
        "  pass cache: {} slice hit(s), {} slice recompute(s), {} mapping hit(s); \
         module deep-clones: {}",
        r.passes.taint_cache_hits,
        r.passes.taint_runs,
        r.passes.mapping_cache_hits,
        ws.module_clones(),
    );
    let cache_ok = r.passes.taint_cache_hits >= 1
        && r.passes.mapping_cache_hits >= 1
        && ws.module_clones() == 0;
    println!(
        "  pass-cache self-check: {}",
        if cache_ok { "OK" } else { "FAILED" }
    );

    // The same config is now caught before deployment. Checking runs on
    // a borrowed session over the workspace's database, which is its own
    // parameter index: the database was not cloned for this (or any)
    // check.
    for d in ws.check_text(conf) {
        println!("  {d}");
    }
    println!("  (db clones during checking: {})", ws.db().clone_count());

    // Machine consumers get the same findings as coded JSON Lines.
    let report = ws.check_texts(&[("staging.conf".to_string(), conf.to_string())]);
    print!(
        "\nas JSON Lines:\n{}",
        report.render(&spex::JsonLinesRenderer)
    );

    // Everything above left a trace: the telemetry snapshot is the whole
    // session as a span tree (what ran, how often, how long) plus the
    // pass/cache/diagnostic counters — the text rendering is the
    // "explain what my edit cost" view.
    let snap = ws.telemetry();
    print!("\ntelemetry:\n{}", snap.render_text());
    let passes_covered = [
        "infer.basic_type",
        "infer.semantic_type",
        "infer.range",
        "infer.control_dep",
        "infer.value_rel",
    ]
    .iter()
    .all(|p| snap.span_count(p) > 0);
    let telemetry_ok = passes_covered
        && snap.span_count("workspace.reanalyze") == 2
        && snap.span_count("check.file") > 0
        && snap.counter("check.diagnostics") > 0;
    println!(
        "telemetry self-check: {}",
        if telemetry_ok { "OK" } else { "FAILED" }
    );

    // The database persists (v2 format, with provenance) for the fleet's
    // checkers; a v1-era file would migrate transparently on load.
    let path = std::env::temp_dir().join("workspace_incremental.spexdb");
    ws.save_db(&path).expect("db saves");
    let reloaded = spex::check::ConstraintDb::load(&path).expect("db loads");
    println!(
        "\npersisted {} constraints for {} parameter(s) to {}",
        reloaded.constraint_count(),
        reloaded.params.len(),
        path.display()
    );
    std::fs::remove_file(&path).ok();
}
