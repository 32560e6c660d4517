//! Determinism and zero-copy contracts of the parallel analysis path.
//!
//! The tentpole guarantee: fanning the inference passes across the worker
//! pool — at parameter granularity inside one module, at module
//! granularity across a workspace — must be invisible in the output.
//! Byte-identical persisted constraints, identical pass counters, at any
//! thread count. And the shared-function IR must make warmth free: a warm
//! reanalyze generation copies no function bodies at all.

use spex::check::Workspace;
use spex::conf::Dialect;
use spex::core::infer::PassCounts;
use spex::systems::fleet::{generate_fleet, FleetSpec};
use spex::systems::BuiltSystem;
use spex::JsonLinesRenderer;

/// Cold-analyzes one catalog system, applies a warm probe edit, and
/// returns the persisted database bytes plus pass counters of both
/// generations.
fn catalog_run(name: &str, threads: usize) -> (String, PassCounts, String, PassCounts) {
    let spec = spex::systems::system_by_name(name).unwrap();
    let built = BuiltSystem::build(spec);
    let mut ws = Workspace::new(name, built.gen.dialect).with_threads(threads);
    ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
        .unwrap();
    let cold = ws.reanalyze();
    let cold_db = ws.db().save_to_string();

    let edited = format!(
        "{}\nvoid spex_par_probe() {{ exit(1); }}\n",
        built.gen.source
    );
    ws.update_module("gen.c", &edited).unwrap();
    let warm = ws.reanalyze();
    (cold_db, cold.passes, ws.db().save_to_string(), warm.passes)
}

#[test]
fn catalog_analysis_is_byte_identical_across_thread_counts() {
    for name in ["OpenLDAP", "Apache"] {
        let baseline = catalog_run(name, 1);
        assert!(
            baseline.1.summary_runs > 0,
            "{name}: cold run must compute function summaries"
        );
        assert!(
            baseline.3.summary_cache_hits > 0,
            "{name}: warm probe edit must reuse clean SCC summaries"
        );
        for threads in [2, 8] {
            let run = catalog_run(name, threads);
            assert_eq!(
                run.0, baseline.0,
                "{name}: cold ConstraintDb differs at {threads} threads"
            );
            assert_eq!(
                run.1, baseline.1,
                "{name}: cold PassCounts differ at {threads} threads"
            );
            assert_eq!(
                run.2, baseline.2,
                "{name}: warm ConstraintDb differs at {threads} threads"
            );
            assert_eq!(
                run.3, baseline.3,
                "{name}: warm PassCounts differ at {threads} threads"
            );
        }
    }
}

/// Module-granularity fan-out: a workspace holding many small modules
/// (the fleet regime) persists the same bytes and the same reaction
/// verdicts however its dirty modules land on workers, and whether its
/// modules arrive one `add_module` at a time or as one `add_modules`
/// batch whose front ends run on the pool.
#[test]
fn fleet_workspace_is_byte_identical_across_thread_counts() {
    let spec = FleetSpec {
        modules: 12,
        configs_per_module: 1,
        seed: 0xf1ee7,
    };
    let fleet = generate_fleet(&spec);
    let run = |threads: usize, batch: bool| {
        let mut ws = Workspace::new("Fleet", Dialect::KeyValue).with_threads(threads);
        if batch {
            let modules: Vec<_> = fleet
                .iter()
                .map(|m| (&m.name, &m.source, &m.annotations))
                .collect();
            ws.add_modules(&modules).unwrap();
        } else {
            for m in &fleet {
                ws.add_module(&m.name, &m.source, &m.annotations).unwrap();
            }
        }
        let report = ws.reanalyze();
        (
            ws.db().save_to_string(),
            report.passes,
            report.params_total,
            ws.reaction_report().render(&JsonLinesRenderer),
        )
    };
    let baseline = run(1, false);
    assert!(baseline.2 > 0, "the fleet must yield parameters");
    assert!(
        baseline.1.react_runs > 0,
        "the fleet must classify reactions"
    );
    for threads in [1, 2, 8] {
        assert_eq!(
            run(threads, true),
            baseline,
            "add_modules at {threads} threads"
        );
        if threads > 1 {
            assert_eq!(run(threads, false), baseline, "at {threads} threads");
        }
    }
}

/// The zero-copy contract end to end: cold analysis, warm edits and
/// re-analysis at several thread counts never copy a function body or
/// deep-clone a module.
#[test]
fn no_function_bodies_are_copied_at_any_thread_count() {
    let spec = spex::systems::system_by_name("VSFTP").unwrap();
    let built = BuiltSystem::build(spec);
    for threads in [1, 4] {
        let mut ws = Workspace::new("VSFTP", built.gen.dialect).with_threads(threads);
        ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
            .unwrap();
        ws.reanalyze();
        for round in 0..2 {
            let edited = format!(
                "{}\nvoid spex_zero_copy_probe() {{ exit({round}); }}\n",
                built.gen.source
            );
            ws.update_module("gen.c", &edited).unwrap();
            ws.reanalyze();
        }
        assert_eq!(
            ws.function_clones(),
            0,
            "function bodies copied at {threads} threads"
        );
        assert_eq!(ws.module_clones(), 0, "module cloned at {threads} threads");
    }
}
