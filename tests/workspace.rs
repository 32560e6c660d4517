//! Integration tests for the incremental `Workspace` API: scoped
//! re-inference equivalence, `v1 → v2` database lifecycle, sharded merge,
//! and streaming batch checking.

use spex::check::ConstraintDb;
use spex::conf::Dialect;
use spex::Workspace;
use std::sync::Arc;

const ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

/// [`ANN`]'s table plus a comparison-based parser, `handle_config`.
const TWO_ANNS: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }\n\
                        { @PARSER = handle_config\n @PAR = $name\n @VAR = $value }";

/// Two parameters, each used by its own function, so a change to one
/// function dirties exactly one parameter's slice.
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

/// `napper` edited: `nap` gains an upper bound; `startup` is untouched.
const EDITED: &str = r#"
    int threads = 4;
    int nap = 30;
    struct opt { char* name; int* var; };
    struct opt options[] = { { "threads", &threads }, { "nap", &nap } };
    void startup() {
        if (threads < 1) { exit(1); }
        if (threads > 16) { exit(1); }
    }
    void napper() {
        if (nap > 600) { exit(1); }
        sleep(nap);
    }
"#;

/// `startup` edited relative to [`BASE`] (lower bound 1 → 2); everything
/// else — including source layout, so constraint spans match — is
/// unchanged. Used by the multi-module ordering test.
const MAIN_V2: &str = r#"
    int threads = 4;
    int nap = 30;
    struct opt { char* name; int* var; };
    struct opt options[] = { { "threads", &threads }, { "nap", &nap } };
    void startup() {
        if (threads < 2) { exit(1); }
        if (threads > 16) { exit(1); }
    }
    void napper() { sleep(nap); }
"#;

/// A second module constraining the same `threads` parameter.
const NET: &str = r#"
    int threads = 4;
    struct opt { char* name; int* var; };
    struct opt options[] = { { "threads", &threads } };
    void serve() { if (threads > 64) { exit(1); } }
"#;

fn workspace_over(source: &str) -> Workspace {
    let mut ws = Workspace::new("Test", Dialect::KeyValue);
    ws.add_module("main.c", source, ANN).unwrap();
    ws
}

/// The tentpole acceptance criterion: after editing one function,
/// `reanalyze` re-runs the per-parameter inference passes only for the
/// dirty function's parameter (asserted via pass-invocation counters), and
/// the incrementally updated database equals a from-scratch full analysis
/// of the edited source.
#[test]
fn incremental_reanalysis_is_scoped_and_equivalent_to_full() {
    let mut ws = workspace_over(BASE);
    let full = ws.reanalyze();
    assert_eq!(full.params_reinferred, 2);
    assert_eq!(full.passes.basic_type, 2, "full run infers every param");
    assert_eq!(full.passes.range, 2);

    let diff = ws.update_module("main.c", EDITED).unwrap();
    assert_eq!(diff.changed, vec!["napper".to_string()]);
    assert_eq!(ws.dirty_modules(), vec!["main.c"]);

    let incr = ws.reanalyze();
    assert_eq!(incr.params_reinferred, 1, "only `nap` is dirty");
    assert_eq!(incr.passes.basic_type, 1, "one param → one pass invocation");
    assert_eq!(incr.passes.semantic_type, 1);
    assert_eq!(incr.passes.range, 1);

    // The incremental database is byte-for-byte the full re-analysis.
    let mut fresh = workspace_over(EDITED);
    fresh.reanalyze();
    assert_eq!(ws.db(), fresh.db());
    assert_eq!(ws.db().save_to_string(), fresh.db().save_to_string());

    // And the new constraint is actually live in the checker.
    assert!(ws.check_text("nap = 30\n").is_empty());
    assert!(!ws.check_text("nap = 9999\n").is_empty());
}

/// A control dependency can be *inherited*: the guard lives in a caller
/// the dependent parameter's own slice never touches. Editing that caller
/// must still re-infer the dependent, or the db keeps an obsolete
/// dependency a full re-analysis would not produce.
#[test]
fn editing_a_caller_reinfers_inherited_control_deps() {
    const GUARDED: &str = r#"
        int fsync_on = 1;
        int commit_siblings = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = {
            { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings }
        };
        void flush() {
            if (commit_siblings > 0) { sleep(commit_siblings); }
        }
        void main_loop() {
            if (fsync_on) { flush(); }
        }
    "#;
    // `main_loop` edited: the guard is gone; `flush` is untouched.
    const UNGUARDED: &str = r#"
        int fsync_on = 1;
        int commit_siblings = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = {
            { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings }
        };
        void flush() {
            if (commit_siblings > 0) { sleep(commit_siblings); }
        }
        void main_loop() {
            flush();
        }
    "#;
    let dep_warnings = |ws: &Workspace| {
        ws.check_text("commit_siblings = 5\nfsync = 0\n")
            .into_iter()
            .filter(|d| d.category() == "control-dep")
            .count()
    };
    let mut ws = workspace_over(GUARDED);
    ws.reanalyze();
    assert_eq!(
        dep_warnings(&ws),
        1,
        "guarded build warns about the disabled controller"
    );

    let diff = ws.update_module("main.c", UNGUARDED).unwrap();
    assert_eq!(diff.changed, vec!["main_loop".to_string()]);
    ws.reanalyze();

    let mut fresh = workspace_over(UNGUARDED);
    fresh.reanalyze();
    assert_eq!(
        ws.db(),
        fresh.db(),
        "incremental db must drop the inherited dependency"
    );
    assert_eq!(dep_warnings(&ws), 0);
}

/// The dual case: the edit *removes the call* to the function the
/// dependent lives in. The old call graph reached it, the new one does
/// not — the closure over previous call edges must still re-infer it.
#[test]
fn removing_a_call_edge_reinfers_formerly_inherited_deps() {
    const GUARDED: &str = r#"
        int fsync_on = 1;
        int commit_siblings = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = {
            { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings }
        };
        void flush() {
            if (commit_siblings > 0) { sleep(commit_siblings); }
        }
        void main_loop() {
            if (fsync_on) { flush(); }
        }
    "#;
    // `main_loop` edited: it no longer calls `flush` at all.
    const CALL_REMOVED: &str = r#"
        int fsync_on = 1;
        int commit_siblings = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = {
            { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings }
        };
        void flush() {
            if (commit_siblings > 0) { sleep(commit_siblings); }
        }
        void main_loop() {
            if (fsync_on) { exit(0); }
        }
    "#;
    let mut ws = workspace_over(GUARDED);
    ws.reanalyze();

    let diff = ws.update_module("main.c", CALL_REMOVED).unwrap();
    assert_eq!(diff.changed, vec!["main_loop".to_string()]);
    ws.reanalyze();

    let mut fresh = workspace_over(CALL_REMOVED);
    fresh.reanalyze();
    assert_eq!(
        ws.db(),
        fresh.db(),
        "a removed call edge must still re-infer the formerly reached callee"
    );
    assert!(!ws
        .check_text("commit_siblings = 5\nfsync = 0\n")
        .iter()
        .any(|d| d.category() == "control-dep"));
}

/// Editing nothing (or only comments) is free.
#[test]
fn no_op_edits_reinfer_nothing() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();
    let diff = ws
        .update_module("main.c", &format!("// audit note\n{BASE}"))
        .unwrap();
    assert!(diff.is_empty());
    let r = ws.reanalyze();
    assert_eq!(r.modules_analyzed, 0);
    assert_eq!(r.passes.total(), 0);
}

/// Renders a database in the legacy v1 format, as a pre-workspace
/// deployment would have written it.
fn as_v1(db: &ConstraintDb) -> String {
    let mut out = String::new();
    for (i, line) in db.save_to_string().lines().enumerate() {
        if i == 0 {
            out.push_str("spex-constraint-db v1\n");
        } else if line.starts_with("c ") {
            out.push_str(line.rsplit_once(" | ").unwrap().0);
            out.push('\n');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The db-lifecycle acceptance criterion: a `v1` database loads, migrates
/// and merges into a `v2` database losslessly.
#[test]
fn v1_db_loads_migrates_and_merges_losslessly() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();
    let v1_text = as_v1(ws.db());
    assert_eq!(v1_text.lines().next(), Some("spex-constraint-db v1"));

    // Load: the v1 payload arrives intact, with empty provenance (the
    // file carries the canonical save order, so compare against that).
    let migrated = ConstraintDb::load_from_str(&v1_text).expect("v1 loads");
    assert_eq!(migrated.constraint_count(), ws.db().constraint_count());
    let mut canonical = ws.db().clone();
    canonical.canonicalize();
    for (theirs, ours) in migrated.params.iter().zip(canonical.params.iter()) {
        assert_eq!(theirs.name, ours.name);
        assert_eq!(theirs.constraints, ours.constraints);
        assert!(theirs.provenance.iter().all(String::is_empty));
    }

    // Merge into a v2 database: everything lands, nothing conflicts.
    let mut v2 = ConstraintDb::new("Test", Dialect::KeyValue);
    let report = v2.merge(&migrated).expect("same system merges");
    assert_eq!(report.added, migrated.constraint_count());
    assert!(report.conflicts.is_empty());
    assert_eq!(v2.constraint_count(), ws.db().constraint_count());

    // Re-saving writes the current format, round-trippable.
    let rewritten = v2.save_to_string();
    assert_eq!(rewritten.lines().next(), Some("spex-constraint-db v2"));
    assert_eq!(ConstraintDb::load_from_str(&rewritten).unwrap(), v2);

    // A migrated db also seeds a workspace directly (the upgrade path).
    let ws2 = Workspace::from_db(migrated);
    assert!(!ws2.check_text("threads = 64\n").is_empty());
}

/// Resuming from a persisted database and re-analyzing a module must
/// garbage-collect constraints for parameters the module no longer maps —
/// a restart must behave like a continuous session.
#[test]
fn from_db_resume_garbage_collects_unmapped_params() {
    // Session 1: `old_opt` is mapped and constrained; persist the db.
    let mut ws = Workspace::new("Test", Dialect::KeyValue);
    ws.add_module(
        "main.c",
        r#"
        int old_opt = 4;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "old_opt", &old_opt } };
        void startup() { if (old_opt > 16) { exit(1); } }
        "#,
        ANN,
    )
    .unwrap();
    ws.reanalyze();
    let persisted = ConstraintDb::load_from_str(&ws.db().save_to_string()).unwrap();

    // Session 2: resume from the db; main.c no longer maps old_opt.
    let mut resumed = Workspace::from_db(persisted);
    resumed.add_module("main.c", BASE, ANN).unwrap();
    resumed.reanalyze();
    assert!(
        resumed.db().param("old_opt").is_none(),
        "stale constraints must not survive the resumed re-analysis"
    );
    let ds = resumed.check_text("old_opt = 64\n");
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].category(), "unknown-key");

    // Matches a continuous session over the same final source (orders
    // may differ between a resumed and a continuous history; the
    // canonical serialization may not).
    let mut fresh = workspace_over(BASE);
    fresh.reanalyze();
    assert_eq!(resumed.db().save_to_string(), fresh.db().save_to_string());
}

/// Removing a module right after resuming from a persisted database (no
/// intervening reanalyze) must still purge its provenance-tagged
/// constraints.
#[test]
fn from_db_then_remove_module_purges_provenance() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();
    let persisted = ConstraintDb::load_from_str(&ws.db().save_to_string()).unwrap();

    let mut resumed = Workspace::from_db(persisted);
    resumed.add_module("main.c", BASE, ANN).unwrap();
    resumed.remove_module("main.c").unwrap();
    assert_eq!(resumed.db().constraint_count(), 0);
    assert!(resumed.db().param("threads").is_none());
}

/// A parameter two modules map survives removing either one of them and
/// goes with the second; what is left equals a fresh analysis of the
/// remaining module.
#[test]
fn parameter_mapped_by_two_modules_goes_with_the_second() {
    let mut ws = workspace_over(BASE);
    ws.add_module("net.c", NET, ANN).unwrap();
    ws.reanalyze();

    ws.remove_module("main.c").unwrap();
    assert!(ws.db().param("threads").is_some(), "net.c still maps it");
    assert!(ws.db().param("nap").is_none(), "only main.c mapped it");
    let mut net_only = Workspace::new("Test", Dialect::KeyValue);
    net_only.add_module("net.c", NET, ANN).unwrap();
    net_only.reanalyze();
    assert_eq!(ws.db().save_to_string(), net_only.db().save_to_string());

    ws.remove_module("net.c").unwrap();
    assert!(ws.db().param("threads").is_none(), "no module maps it");
    assert_eq!(ws.db().params.len(), 0);
}

/// Two modules map `ya` through a `@PARSER` arm. Edits in place drop the
/// arm from one module, where `ya` keeps the other's constraints, and then
/// from the other, where `ya` leaves the db. After each step the warm db
/// and reaction verdicts equal a fresh workspace's, at 1 and 4 threads.
#[test]
fn a_parameter_unmapped_by_one_edit_at_a_time_leaves_with_the_last() {
    const PARSER_ANN: &str = "{ @PARSER = handle_config\n @PAR = $name\n @VAR = $value }";
    // On one line, so dropping it moves no other line.
    const ARM: &str = "if (strcmp(name, \"ya\") == 0) { ya = atoi(value); return 1; }";
    let module = |other: &str, bound: u32| {
        format!(
            r#"
            int {other} = 0;
            int ya = 0;
            int handle_config(char* name, char* value) {{
                if (strcmp(name, "{other}") == 0) {{ {other} = atoi(value); return 1; }}
                {ARM}
                return 0;
            }}
            void worker() {{ if (ya > {bound}) {{ exit(1); }} sleep({other}); }}
            "#
        )
    };
    let (a, b) = (module("x", 8), module("z", 64));
    let steps = [
        [a.clone(), b.clone()],
        [a.replace(ARM, ""), b.clone()],
        [a.replace(ARM, ""), b.replace(ARM, "")],
    ];
    // Each edit: the module it edits, and where `ya`'s constraints come
    // from after it (`None`: `ya` is not in the db).
    let edits = [
        ("a.c", &steps[1][0], Some(vec!["b.c".to_string()])),
        ("b.c", &steps[2][1], None),
    ];
    let state = |ws: &Workspace| {
        (
            ws.db().save_to_string(),
            format!("{:?}", ws.reaction_findings()),
        )
    };
    let ya_from = |ws: &Workspace| {
        let mut from: Vec<String> = ws.db().param("ya")?.provenance.clone();
        from.sort();
        from.dedup();
        Some(from)
    };
    for threads in [1, 4] {
        let analyzed = |[a, b]: &[String; 2]| {
            let mut ws = Workspace::new("Test", Dialect::KeyValue).with_threads(threads);
            ws.add_modules(&[("a.c", a, PARSER_ANN), ("b.c", b, PARSER_ANN)])
                .unwrap();
            ws.reanalyze();
            ws
        };
        let mut ws = analyzed(&steps[0]);
        assert_eq!(ya_from(&ws), Some(vec!["a.c".into(), "b.c".into()]));
        for (step, (name, source, from)) in edits.iter().enumerate() {
            let worker = |ws: &Workspace| Arc::clone(&ws.module(name).unwrap().functions[1]);
            let before = worker(&ws);
            let diff = ws.update_module(name, source).unwrap();
            assert_eq!(diff.changed, vec!["handle_config".to_string()]);
            assert!(Arc::ptr_eq(&before, &worker(&ws)), "the item path");
            ws.reanalyze();
            let at = format!("edit {step} at {threads} threads");
            assert_eq!(ya_from(&ws), *from, "{at}");
            assert_eq!(state(&ws), state(&analyzed(&steps[step + 1])), "{at}");
        }
    }
}

/// Sharded analysis: two workspaces analyzing different modules of the
/// same system combine via `merge`, keeping per-shard provenance.
#[test]
fn sharded_databases_merge_with_provenance() {
    let mut shard_a = Workspace::new("Test", Dialect::KeyValue);
    shard_a
        .add_module(
            "net.c",
            r#"
            int port = 8080;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "port", &port } };
            void serve() { listen(0, port); }
            "#,
            ANN,
        )
        .unwrap();
    shard_a.reanalyze();

    let mut shard_b = workspace_over(BASE);
    shard_b.reanalyze();

    let mut combined = shard_a.into_db();
    let report = combined.merge(shard_b.db()).unwrap();
    assert_eq!(report.params_added, 2);
    assert!(combined.param("port").is_some());
    let threads = combined.param("threads").unwrap();
    assert!(threads.provenance.iter().all(|m| m == "main.c"));
    assert!(combined
        .param("port")
        .unwrap()
        .provenance
        .iter()
        .all(|m| m == "net.c"));
}

/// Streaming validation: a config tree checks with deterministic order
/// and per-file reports, straight off the workspace.
#[test]
fn check_paths_streams_a_config_tree() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();

    let root = std::env::temp_dir().join("spex_ws_check_paths");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("hosts")).unwrap();
    std::fs::write(root.join("base.conf"), "threads = 8\nnap = 30\n").unwrap();
    std::fs::write(root.join("hosts/h1.conf"), "threads = 64\n").unwrap();
    std::fs::write(root.join("hosts/h2.conf"), "threds = 8\n").unwrap();

    let report = ws.check_paths(std::slice::from_ref(&root)).unwrap();
    assert_eq!(report.stats.files, 3);
    assert_eq!(report.stats.clean_files, 1);
    assert_eq!(report.stats.flagged_files, 2);
    assert!(report.files[0].file.ends_with("base.conf"));
    assert!(report.files[0].is_clean());
    assert!(report.files[1].file.ends_with("h1.conf"));
    assert!(report.files[2].file.ends_with("h2.conf"));
    assert_eq!(report.files[2].diagnostics[0].category(), "unknown-key");
    assert_eq!(report.exit_code(), 1, "a flagged tree gates the deploy");
    std::fs::remove_dir_all(&root).ok();
}

/// The borrowed-engine acceptance criterion: checking performs **zero**
/// `ConstraintDb` clones across any number of `check_text`/`check_paths`
/// calls, before and after the database changes.
#[test]
fn cached_checking_performs_zero_db_clones() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();

    let root = std::env::temp_dir().join("spex_ws_zero_clone");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    for i in 0..8 {
        std::fs::write(
            root.join(format!("h{i}.conf")),
            if i % 2 == 0 {
                "threads = 8\n"
            } else {
                "threads = 99\n"
            },
        )
        .unwrap();
    }

    let clones_before = ws.db().clone_count();

    for _ in 0..3 {
        let report = ws.check_paths(std::slice::from_ref(&root)).unwrap();
        assert_eq!(report.stats.files, 8);
        assert_eq!(report.stats.flagged_files, 4);
    }
    for _ in 0..20 {
        assert_eq!(ws.check_text("threads = 99\n").len(), 1);
    }
    ws.check_texts(&[("a".to_string(), "threads = 1\n".to_string())]);

    assert_eq!(
        ws.db().clone_count(),
        clones_before,
        "checking must never copy the database"
    );

    // A real change is live at the next check.
    ws.update_module("main.c", EDITED).unwrap();
    ws.reanalyze();
    assert!(!ws.check_text("nap = 9999\n").is_empty());
    ws.check_text("nap = 30\n");
    assert_eq!(
        ws.db().clone_count(),
        clones_before,
        "reanalysis does not clone the checking db either"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The pass-cache acceptance criterion, part 1: `reanalyze` — first full
/// run, warm incremental runs and no-op runs alike — never deep-clones a
/// stored `Module` (the analysis borrows it), asserted via the lineage
/// clone counter mirroring PR 3's `ConstraintDb::clone_count`.
#[test]
fn reanalyze_performs_zero_module_deep_clones() {
    let mut ws = workspace_over(BASE);
    assert_eq!(ws.module_clones(), 0);
    ws.reanalyze();
    assert_eq!(ws.module_clones(), 0, "the full analysis borrows");

    ws.update_module("main.c", EDITED).unwrap();
    ws.reanalyze();
    assert_eq!(ws.module_clones(), 0, "the incremental analysis borrows");

    ws.update_module("main.c", &format!("// note\n{EDITED}"))
        .unwrap();
    ws.reanalyze();
    assert_eq!(ws.module_clones(), 0, "a no-op reanalyze touches nothing");
}

/// The pass-cache acceptance criterion, part 2: after an edit that adds an
/// isolated function (same item keys for everything else), the warm
/// `reanalyze` serves every cacheable artifact — the mapping extraction
/// and every parameter's taint slice — from the pass cache: 100% hits,
/// zero recomputations, zero inference passes.
#[test]
fn no_op_edit_yields_full_cache_hits() {
    let mut ws = workspace_over(BASE);
    let cold = ws.reanalyze();
    assert_eq!(cold.passes.mapping_extractions, 1, "cold run extracts");
    assert_eq!(cold.passes.taint_runs, 2, "cold run slices both params");
    assert_eq!(cold.passes.summary_runs, 2, "cold run summarizes both fns");
    assert_eq!(cold.passes.mapping_cache_hits, 0);
    assert_eq!(cold.passes.taint_cache_hits, 0);
    assert_eq!(cold.passes.summary_cache_hits, 0);

    // An added function no parameter's flow touches: everything cacheable
    // must hit.
    let probed = format!("{BASE}\nvoid probe() {{ exit(1); }}\n");
    let diff = ws.update_module("main.c", &probed).unwrap();
    assert_eq!(diff.added, vec!["probe".to_string()]);
    let warm = ws.reanalyze();
    assert_eq!(warm.passes.mapping_cache_hits, 1, "mapping reused");
    assert_eq!(warm.passes.taint_cache_hits, 2, "both slices reused");
    assert_eq!(warm.passes.mapping_extractions, 0);
    assert_eq!(warm.passes.taint_runs, 0);
    assert_eq!(warm.passes.summary_runs, 1, "only the added fn summarized");
    assert_eq!(warm.passes.summary_cache_hits, 2, "old components reused");
    assert_eq!(warm.passes.cached_fraction(), Some(1.0), "100% cache hits");
    assert_eq!(warm.passes.total(), 0, "no inference pass re-ran");
    assert_eq!(warm.params_reinferred, 0);

    // A comment-only edit changes no key and does not even analyze.
    let diff = ws
        .update_module("main.c", &format!("// audit\n{probed}"))
        .unwrap();
    assert!(diff.is_empty());
    let noop = ws.reanalyze();
    assert_eq!(noop.modules_analyzed, 0);

    // The caches never went stale: the incremental database still equals
    // a from-scratch analysis of the final source.
    let mut fresh = workspace_over(&probed);
    fresh.reanalyze();
    assert_eq!(ws.db(), fresh.db());
}

/// A warm edit that touches one function recomputes only the slices the
/// edit can reach and reuses the rest, while still converging on the
/// from-scratch database.
#[test]
fn warm_edit_reuses_unaffected_slices() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();

    // `napper` edited: `nap`'s slice must be recomputed, `threads`'s
    // (disjoint functions, disjoint globals) must be reused.
    ws.update_module("main.c", EDITED).unwrap();
    let warm = ws.reanalyze();
    assert_eq!(warm.passes.taint_cache_hits, 1, "`threads` slice reused");
    assert_eq!(warm.passes.taint_runs, 1, "`nap` slice recomputed");
    assert_eq!(
        warm.passes.mapping_cache_hits, 1,
        "no mapping pattern touched"
    );
    assert_eq!(warm.params_reinferred, 1);

    let mut fresh = workspace_over(EDITED);
    fresh.reanalyze();
    assert_eq!(ws.db(), fresh.db());
    assert_eq!(ws.db().save_to_string(), fresh.db().save_to_string());
}

/// The pass cache keeps one merged mapping per module, extracted whole. A
/// `@PARSER` naming a function the module does not define fails, and a
/// failing annotation empties the mapping. Appending the parser takes the
/// item path and extracts the mapping anew, mapping both parameters; a
/// `startup` edit, which no annotation reads, reuses it; an edit to the
/// parser extracts it once more, table and parser alike. After each step
/// the warm db and reaction verdicts equal a fresh workspace's, at 1 and 4
/// threads.
#[test]
fn editing_a_parser_reextracts_the_mapping_once() {
    const NO_PARSER: &str = r#"
        int threads = 4;
        int nap = 30;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "threads", &threads } };
        void startup() {
            if (threads < 1) { exit(1); }
            if (nap > 600) { exit(1); }
            sleep(nap);
        }
    "#;
    const PARSER: &str = r#"
        int handle_config(char* name, char* value) {
            if (strcmp(name, "nap") == 0) { nap = atoi(value); return 1; }
            return 0;
        }
    "#;
    let appended = format!("{NO_PARSER}{PARSER}");
    let startup_edited = appended.replace("threads < 1", "threads < 2");
    let parser_edited = startup_edited.replace("return 1;", "return 2;");
    let state = |ws: &Workspace| {
        (
            ws.db().save_to_string(),
            format!("{:?}", ws.reaction_findings()),
        )
    };
    // Each edit, the function it changes or appends, and the mapping's
    // `[extractions, hits]`.
    let edits = [
        (&appended, "handle_config", [1, 0]),
        (&startup_edited, "startup", [0, 1]),
        (&parser_edited, "handle_config", [1, 0]),
    ];
    for threads in [1, 4] {
        let analyzed = |source: &str| {
            let mut ws = Workspace::new("Test", Dialect::KeyValue).with_threads(threads);
            ws.add_module("main.c", source, TWO_ANNS).unwrap();
            ws.reanalyze();
            ws
        };
        let mut ws = analyzed(NO_PARSER);
        assert_eq!(
            ws.db().params.len(),
            0,
            "the failing annotation maps nothing"
        );
        for (source, edited, mapping) in &edits {
            let at = format!("{edited} at {threads} threads");
            let before = ws.module("main.c").unwrap().functions.clone();
            let diff = ws.update_module("main.c", source).unwrap();
            assert_eq!([diff.changed, diff.added].concat(), [*edited], "{at}");
            let after = &ws.module("main.c").unwrap().functions;
            let kept = before
                .iter()
                .zip(after.iter())
                .filter(|(a, b)| Arc::ptr_eq(a, b));
            assert_eq!(kept.count(), after.len() - 1, "the item path {at}");
            let report = ws.reanalyze();
            let passes = report.passes;
            let counts = [passes.mapping_extractions, passes.mapping_cache_hits];
            assert_eq!(counts, *mapping, "{at}");
            assert_eq!(report.params_total, 2, "{at}");
            assert_eq!(state(&ws), state(&analyzed(source)), "{at}");
        }
    }
}

/// The cache's soundness edge: an *added* function can expand an existing
/// slice (here, by loading a parameter's backing global), so that slice
/// must be recomputed even though no previously touched function changed.
#[test]
fn warm_edit_opening_a_new_channel_recomputes_the_slice() {
    let mut ws = workspace_over(BASE);
    ws.reanalyze();
    assert!(
        ws.check_text("threads = 10\n").is_empty(),
        "10 ≤ 16 is fine"
    );

    // `extra` tightens the bound on `threads` from a brand-new function:
    // the old slice never touched `extra`, but the fresh one must.
    let extended = format!("{BASE}\nvoid extra() {{ if (threads > 8) {{ exit(1); }} }}\n");
    let diff = ws.update_module("main.c", &extended).unwrap();
    assert_eq!(diff.added, vec!["extra".to_string()]);
    let warm = ws.reanalyze();
    assert_eq!(
        warm.passes.taint_runs, 1,
        "`threads` slice must miss the cache (new load of its global)"
    );
    assert_eq!(warm.passes.taint_cache_hits, 1, "`nap` is unaffected");
    assert_eq!(warm.params_reinferred, 1);

    // The tightened range is live and equal to a from-scratch analysis.
    assert_eq!(ws.check_text("threads = 10\n").len(), 1);
    let mut fresh = workspace_over(&extended);
    fresh.reanalyze();
    assert_eq!(ws.db(), fresh.db());
    assert_eq!(ws.db().save_to_string(), fresh.db().save_to_string());
}

/// The symmetric soundness edge: an edit that *removes* a channel must
/// also invalidate the slice it fed. Here `wire` holds the only address
/// of `check_thr`, which `dispatch`'s indirect call reaches with the
/// tainted `threads`; emptying `wire` severs that edge, so the cached
/// (larger) slice — and the `> 8` bound it carried — must not be reused.
#[test]
fn warm_edit_removing_a_channel_recomputes_the_slice() {
    let wired = r#"
        int threads = 4;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "threads", &threads } };
        void check_thr(int t) { if (t > 8) { exit(1); } }
        void wire() { fnptr p = check_thr; p(0); }
        void dispatch(fnptr f) { f(threads); }
    "#;
    let unwired = r#"
        int threads = 4;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "threads", &threads } };
        void check_thr(int t) { if (t > 8) { exit(1); } }
        void wire() { }
        void dispatch(fnptr f) { f(threads); }
    "#;
    let mut ws = workspace_over(wired);
    ws.reanalyze();
    assert_eq!(
        ws.check_text("threads = 10\n").len(),
        1,
        "the wired bound flags 10 > 8"
    );

    // `wire` edited: the old form took `check_thr`'s address (an arity-1
    // indirect target), so `threads`'s slice must miss even though no
    // slice-touched function changed and the *new* `wire` is inert.
    let diff = ws.update_module("main.c", unwired).unwrap();
    assert_eq!(diff.changed, vec!["wire".to_string()]);
    let warm = ws.reanalyze();
    assert_eq!(
        warm.passes.taint_runs, 1,
        "`threads` slice must be recomputed after the channel was removed"
    );

    // The stale bound is gone and the database equals a from-scratch run.
    assert!(ws.check_text("threads = 10\n").is_empty());
    let mut fresh = workspace_over(unwired);
    fresh.reanalyze();
    assert_eq!(ws.db(), fresh.db());
    assert_eq!(ws.db().save_to_string(), fresh.db().save_to_string());
    assert_eq!(ws.module_clones(), 0);
}

/// The reaction-pass acceptance criterion: a warm `reanalyze` re-runs the
/// static reaction classifier only for dirty-slice parameters; everything
/// else is served from the per-module finding cache (and the cached
/// verdicts stay correct).
#[test]
fn warm_reanalyze_reclassifies_only_dirty_slices() {
    use spex::check::ReactionClass;

    let mut ws = workspace_over(BASE);
    let cold = ws.reanalyze();
    assert_eq!(cold.passes.react_runs, 2, "cold run classifies every param");
    assert_eq!(cold.passes.react_cache_hits, 0);

    // BASE: `threads` is exit-guarded, `nap` flows into `sleep` unchecked.
    let class_of = |ws: &Workspace, param: &str| {
        ws.reaction_findings()
            .iter()
            .find(|(_, f)| f.param == param)
            .map(|(_, f)| f.class)
            .unwrap()
    };
    assert_eq!(class_of(&ws, "threads"), ReactionClass::CheckedWithMessage);
    assert_eq!(class_of(&ws, "nap"), ReactionClass::LateDetection);
    let report = ws.reaction_report();
    assert_eq!(report.stats.errors, 1, "one late detection");
    assert!(report
        .files
        .iter()
        .flat_map(|f| &f.diagnostics)
        .any(|d| { d.param == "nap" && d.code.as_str() == "SPEX-V003" && d.origin.is_some() }));

    // `napper` edited: only `nap`'s slice is dirty, so only `nap` is
    // reclassified; `threads` keeps its cached verdict.
    ws.update_module("main.c", EDITED).unwrap();
    let warm = ws.reanalyze();
    assert_eq!(warm.passes.react_runs, 1, "`nap` reclassified");
    assert_eq!(warm.passes.react_cache_hits, 1, "`threads` verdict reused");
    assert_eq!(
        class_of(&ws, "nap"),
        ReactionClass::CheckedWithMessage,
        "the new dominating guard flips the verdict"
    );
    assert_eq!(class_of(&ws, "threads"), ReactionClass::CheckedWithMessage);
    assert_eq!(ws.reaction_report().stats.errors, 0);

    // An isolated added function dirties no slice: every verdict cached.
    ws.update_module(
        "main.c",
        &format!("{EDITED}\nvoid probe() {{ exit(1); }}\n"),
    )
    .unwrap();
    let warm = ws.reanalyze();
    assert_eq!(warm.passes.react_runs, 0, "no slice dirty, no classify");
    assert_eq!(warm.passes.react_cache_hits, 2, "both verdicts reused");
}

/// The multi-module ordering guarantee: an incrementally updated
/// workspace and a from-scratch one can hold the same constraints in
/// different in-memory orders (re-inferred constraints are appended at
/// the end of an entry), but their canonical serializations are
/// byte-identical — so fleet distribution and content-addressed caching
/// see one artifact.
#[test]
fn incremental_multi_module_db_serializes_byte_identical_to_fresh() {
    let build = |main: &str| {
        let mut ws = Workspace::new("Test", Dialect::KeyValue);
        ws.add_module("main.c", main, ANN).unwrap();
        ws.add_module("net.c", NET, ANN).unwrap();
        ws.reanalyze();
        ws
    };

    // Incremental history: analyze, then edit main.c (the module the
    // from-scratch order lists *first*). Its re-inferred constraints are
    // appended at the end of the shared `threads` entry, after net.c's.
    let mut incremental = build(BASE);
    incremental.update_module("main.c", MAIN_V2).unwrap();
    let r = incremental.reanalyze();
    assert!(r.params_reinferred >= 1);

    // From-scratch history over the same final sources.
    let fresh = build(MAIN_V2);

    let entry_order = |ws: &Workspace| ws.db().param("threads").unwrap().provenance.clone();
    assert_ne!(
        entry_order(&incremental),
        entry_order(&fresh),
        "the histories really interleave the entry differently in memory"
    );
    let a = incremental.db().save_to_string();
    let b = fresh.db().save_to_string();
    assert_eq!(a, b, "canonical save order is history-independent");

    // And the canonical bytes round-trip.
    let back = ConstraintDb::load_from_str(&a).unwrap();
    assert_eq!(back.save_to_string(), a);
}

/// Inserting a function between a caller and its callee shifts the
/// callee's index. The caller's source names its callee, so its key is
/// unchanged; reusing its previous allocation would keep `Callee::Func`
/// ids that now name the inserted function. Such an edit
/// re-infers the module whole instead, and the warm db stays equal to a
/// fresh one through the insertion and a later edit of the callee.
#[test]
fn a_function_inserted_mid_module_leaves_no_stale_callee_ids() {
    const CALLS: &str = r#"
        int port = 8080;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "port", &port } };
        void startup() { check_port(port); }
        void check_port(int v) { if (v < 1 || v > 65535) { exit(1); } }
    "#;
    let inserted = CALLS.replace("void check_port", "void zzz() { }\n        void check_port");
    let tightened = inserted.replace("v > 65535", "v > 1000");
    let fresh = |source: &str| {
        let mut ws = workspace_over(source);
        ws.reanalyze();
        ws.db().save_to_string()
    };
    let mut ws = workspace_over(CALLS);
    ws.reanalyze();
    for source in [&inserted, &tightened] {
        ws.update_module("main.c", source).unwrap();
        ws.reanalyze();
        assert_eq!(ws.db().save_to_string(), fresh(source), "{source}");
    }
    assert_eq!(
        ws.check_text("port = 5000\n").len(),
        1,
        "the new bound holds"
    );
    assert_eq!(ws.function_clones(), 0);
}

/// A module function named like a builtin takes the calls by that name,
/// yet the caller's source, and so its key, names both alike.
/// Appending one after its callers, or removing one defined last, keeps
/// every other function's index; the callers must still be lowered again,
/// or they keep calling the builtin, or a function id past the end.
#[test]
fn a_function_named_like_a_builtin_coming_or_going_relowers_its_callers() {
    const CALLS: &str = r#"
        char* port_text = "8080";
        int port = 8080;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "port", &port } };
        void startup() {
            port = atoi(port_text);
            if (port < 1 || port > 65535) { exit(1); }
        }
    "#;
    let appended = format!("{CALLS}    int atoi(char* s) {{ return 0; }}\n");
    let lowered = |source: &str| {
        let program = spex::lang::parse_program(source).unwrap();
        format!("{:?}", spex::ir::lower_program(&program).unwrap().functions)
    };
    let fresh = |source: &str| {
        let mut ws = workspace_over(source);
        ws.reanalyze();
        ws.db().save_to_string()
    };
    let mut ws = workspace_over(CALLS);
    ws.reanalyze();
    for source in [appended.as_str(), CALLS] {
        ws.update_module("main.c", source).unwrap();
        let stored = format!("{:?}", ws.module("main.c").unwrap().functions);
        assert_eq!(stored, lowered(source), "{source}");
        ws.reanalyze();
        assert_eq!(ws.db().save_to_string(), fresh(source), "{source}");
    }
    assert_eq!(ws.function_clones(), 0);
}

/// Edits `before` into `after` and back in a warm workspace, at 1 and at
/// 4 threads, and asserts that after each step the database and the
/// reaction verdicts equal a fresh workspace's over the same source.
fn assert_warm_equals_fresh(before: &str, after: &str, anns: &str) {
    assert_ne!(before, after, "the edit must change the source");
    let analyzed = |source: &str, threads: usize| {
        let mut ws = Workspace::new("Test", Dialect::KeyValue).with_threads(threads);
        ws.add_module("main.c", source, anns).unwrap();
        ws.reanalyze();
        ws
    };
    let state = |ws: &Workspace| {
        (
            ws.db().save_to_string(),
            format!("{:?}", ws.reaction_findings()),
        )
    };
    for threads in [1, 4] {
        for (from, to) in [(before, after), (after, before)] {
            let mut ws = analyzed(from, threads);
            ws.update_module("main.c", to).unwrap();
            ws.reanalyze();
            assert_eq!(
                state(&ws),
                state(&analyzed(to, threads)),
                "at {threads} threads:{from}→{to}"
            );
            assert_eq!(ws.function_clones(), 0);
        }
    }
}

// Edits whose effect reaches other parameters through an artifact the
// core recomputes, not through the edited function's callees.

/// `a` flows into `mode` only after the edit, and `mode` guards `b`'s use
/// in `worker`, which nobody edits: `a`'s recomputed slice grows into it.
#[test]
fn a_slice_growing_into_an_unedited_guard_reinfers_the_guarded_parameter() {
    const STORED: &str = r#"
        int a = 0;
        int b = 5;
        int mode = 0;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "a", &a }, { "b", &b } };
        void setup() { mode = 0; }
        void worker() { if (mode == 1) { sleep(b); } }
    "#;
    assert_warm_equals_fresh(STORED, &STORED.replace("mode = 0; }", "mode = a; }"), ANN);
}

/// `bail` starts exiting: the unedited caller's `if (b > 10)` becomes a
/// range check on `b`.
#[test]
fn a_helper_that_starts_exiting_reinfers_its_callers_checks() {
    const BAIL: &str = r#"
        int b = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "b", &b } };
        void bail() { }
        void startup() {
            if (b > 10) { bail(); }
            sleep(b);
        }
    "#;
    assert_warm_equals_fresh(
        BAIL,
        &BAIL.replace("bail() { }", "bail() { exit(1); }"),
        ANN,
    );
}

/// `die` starts exiting under the check of a validator `port` is passed
/// to, so the validator's summary gains a check.
#[test]
fn a_validator_whose_helper_starts_exiting_reinfers_what_it_validates() {
    const DIE: &str = r#"
        int port = 8080;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "port", &port } };
        void die() { }
        void check_port(int v) { if (v > 100) { die(); } }
        void startup() {
            check_port(port);
            listen(0, port);
        }
    "#;
    assert_warm_equals_fresh(DIE, &DIE.replace("die() { }", "die() { exit(1); }"), ANN);
}

/// A new parser arm maps `ya`, the global that guards `b`'s use; the
/// reverse edit unmaps it.
#[test]
fn a_parser_arm_mapping_a_guard_reinfers_the_guarded_parameter() {
    const PARSER: &str = r#"
        int b = 5;
        int x = 0;
        int ya = 0;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "b", &b } };
        int handle_config(char* name, char* value) {
            if (strcmp(name, "x") == 0) { x = atoi(value); return 1; }
            return 0;
        }
        void worker() { if (ya) { sleep(b); } }
    "#;
    // On one line: a function the edit moves would keep its old spans.
    let arm = "if (strcmp(name, \"ya\") == 0) { ya = atoi(value); return 1; } return 0;";
    assert_warm_equals_fresh(PARSER, &PARSER.replace("return 0;", arm), TWO_ANNS);
}

/// `valid`'s return transfer changes: the guard `if (valid(a))` in the
/// unedited `startup` is a dependency of `b`, whose slice never enters
/// `valid`.
#[test]
fn a_predicate_helper_edit_reinfers_the_dependencies_it_guards() {
    const VALID: &str = r#"
        int a = 1;
        int b = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "a", &a }, { "b", &b } };
        int valid(int v) { return v > 0 && v < 100; }
        void startup() { if (valid(a)) { sleep(b); } }
    "#;
    assert_warm_equals_fresh(VALID, &VALID.replace("v > 0", "v > 5"), ANN);
}

/// A call's result is typed by its callee's return type. When `widen`
/// returns `int` instead of `long`, the cast in `startup`, whose tokens
/// did not change, stops converting `c`, so `startup` must be lowered
/// again even though its source is the same.
#[test]
fn a_return_type_edit_relowers_the_callers() {
    const WIDEN: &str = r#"
        int c = 4;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "c", &c } };
        long widen(int v) { return v; }
        void startup() {
            int n = (int) widen(c);
            sleep(n);
        }
    "#;
    assert_warm_equals_fresh(WIDEN, &WIDEN.replace("long widen", "int widen"), ANN);
}

// Edits at the edge of the item path: an appended function takes it, and
// a removed or renamed function leaves it. Either way the warm db equals a
// fresh one.

/// The benchmark's `move_check` edit: a range check leaves `startup` for
/// an appended helper. Only `startup` and the helper are lowered; every
/// other function keeps its allocation.
#[test]
fn a_check_moved_into_an_appended_helper_takes_the_item_path() {
    let moved = BASE.replace("if (threads > 16) { exit(1); }", "chk_threads(threads);")
        + "    void chk_threads(int v) { if (v > 16) { exit(1); } }\n";
    let mut ws = workspace_over(BASE);
    ws.reanalyze();
    let before = ws.module("main.c").unwrap().functions.clone();
    let diff = ws.update_module("main.c", &moved).unwrap();
    assert_eq!(diff.changed, vec!["startup".to_string()]);
    assert_eq!(diff.added, vec!["chk_threads".to_string()]);
    assert!(diff.removed.is_empty());
    let after = &ws.module("main.c").unwrap().functions;
    let kept: Vec<bool> = (before.iter().zip(after.iter()))
        .map(|(a, b)| Arc::ptr_eq(a, b))
        .collect();
    assert_eq!(kept, [false, true], "only `startup` is lowered again");
    assert_warm_equals_fresh(BASE, &moved, ANN);
}

#[test]
fn removing_the_last_function_equals_a_fresh_analysis() {
    assert_warm_equals_fresh(
        BASE,
        &BASE.replace("void napper() { sleep(nap); }", ""),
        ANN,
    );
}

#[test]
fn renaming_a_function_in_place_equals_a_fresh_analysis() {
    assert_warm_equals_fresh(BASE, &BASE.replace("void napper()", "void sleeper()"), ANN);
}

/// A parameter's type changes and the return type stays: the item path
/// lowers the callee alone, and its caller keeps its allocation.
#[test]
fn a_signature_edit_that_keeps_the_return_type_takes_the_item_path() {
    const SIG: &str = r#"
        int nap = 30;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "nap", &nap } };
        void nap_for(int s) { if (s > 600) { exit(1); } sleep(s); }
        void napper() { nap_for(nap); }
    "#;
    let widened = SIG.replace("nap_for(int s)", "nap_for(long s)");
    let mut ws = workspace_over(SIG);
    ws.reanalyze();
    let before = ws.module("main.c").unwrap().functions.clone();
    let diff = ws.update_module("main.c", &widened).unwrap();
    assert_eq!(diff.changed, vec!["nap_for".to_string()]);
    assert!(Arc::ptr_eq(
        &before[1],
        &ws.module("main.c").unwrap().functions[1]
    ));
    assert_warm_equals_fresh(SIG, &widened, ANN);
}
