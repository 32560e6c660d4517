//! Benchmarks for the SPEX pipeline (std-only harness; the build
//! environment has no network access for Criterion).
//!
//! One group per evaluation artifact:
//! * `frontend` — lexing/parsing/lowering throughput on generated systems;
//! * `inference` — full constraint inference per system (Table 11's
//!   workload);
//! * `inject` — SPEX-INJ campaign over one system (Table 5's workload),
//!   including the §3.1 optimization ablation (stop-at-first-failure and
//!   shortest-test-first on/off), and a Storage-A campaign whose runs
//!   resume from the pristine config prefix;
//! * `mapping` — the annotation toolkits alone;
//! * `summaries` — interprocedural function summaries: cold whole-module
//!   evaluation vs warm SCC-incremental reuse after a one-function edit;
//! * `react` — static reaction classification (`spex-react`) latency per
//!   system and per-parameter throughput over the catalog;
//! * `check` — `spex-check` single-file validation latency and batch
//!   validation throughput over the persisted constraint databases.
//!
//! Run all with `cargo bench`, or filter: `cargo bench --bench spex_bench
//! -- check`. Pass `--json` to append every result to the per-group
//! `BENCH_<group>.json` trajectory files at the workspace root (see
//! `spex_bench::harness::Runner::write_trajectory`).

use spex_bench::harness::{black_box, Runner};
use spex_bench::make_target;
use spex_check::{CheckSession, ConstraintDb, Workspace};
use spex_core::{Annotation, Spex};
use spex_dataflow::{AnalyzedModule, Condensation, ModuleSummaries, TaintEngine};
use spex_inj::{genrule, standard_rules, CampaignOptions, InjectionCampaign};
use spex_systems::BuiltSystem;

fn bench_frontend(r: &Runner) {
    let spec = spex_systems::system_by_name("OpenLDAP").unwrap();
    let gen = spex_systems::generate(&spec);
    r.bench("frontend/parse_openldap", || {
        spex_lang::parse_program(&gen.source).unwrap()
    });
    let program = spex_lang::parse_program(&gen.source).unwrap();
    r.bench("frontend/lower_openldap", || {
        spex_ir::lower_program(&program).unwrap()
    });
    let module = spex_ir::lower_program(&program).unwrap();
    r.bench_with_setup(
        "frontend/ssa_openldap",
        || module.clone(),
        AnalyzedModule::build,
    );
}

fn bench_inference(r: &Runner) {
    for name in ["OpenLDAP", "Apache", "VSFTP"] {
        let spec = spex_systems::system_by_name(name).unwrap();
        let built = BuiltSystem::build(spec);
        let anns = Annotation::parse(&built.gen.annotations).unwrap();
        r.bench_with_setup(
            &format!("inference/spex_analyze_{name}"),
            || built.module.clone(),
            |m| Spex::analyze(m, &anns),
        );
    }
}

fn bench_taint(r: &Runner) {
    let spec = spex_systems::system_by_name("Apache").unwrap();
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let am = AnalyzedModule::build(built.module.clone());
    let params = spex_core::mapping::extract_mappings(&am, &anns).unwrap();
    let engine = TaintEngine::new(&am);
    r.bench("taint/per_param_apache_x16", || {
        for p in params.iter().take(16) {
            black_box(engine.run(&p.roots));
        }
    });
}

fn bench_injection(r: &Runner) {
    let spec = spex_systems::system_by_name("OpenLDAP").unwrap();
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let analysis = Spex::analyze(built.module.clone(), &anns);
    let constraints: Vec<_> = analysis.all_constraints().cloned().collect();
    let misconfigs = genrule::generate_all(&standard_rules(), &constraints);
    let slice = &misconfigs[..misconfigs.len().min(40)];

    // The §3.1 optimizations, individually ablated.
    let variants = [
        (
            "optimized",
            CampaignOptions {
                stop_at_first_failure: true,
                sort_tests_by_cost: true,
            },
        ),
        (
            "no_early_stop",
            CampaignOptions {
                stop_at_first_failure: false,
                sort_tests_by_cost: true,
            },
        ),
        (
            "no_sort",
            CampaignOptions {
                stop_at_first_failure: true,
                sort_tests_by_cost: false,
            },
        ),
        (
            "naive",
            CampaignOptions {
                stop_at_first_failure: false,
                sort_tests_by_cost: false,
            },
        ),
    ];
    for (label, options) in variants {
        r.bench(&format!("inject/campaign_openldap_{label}"), || {
            let campaign = InjectionCampaign::new(make_target(&built)).with_options(options);
            black_box(campaign.run(slice))
        });
    }

    // Storage-A has the longest config phase (125 settings): one campaign
    // walks the template once and resumes each run from the first setting
    // it changes. The self-check asserts the batch equals one-at-a-time
    // `run_one` calls, each of which walks its own prefix.
    const SAMPLE: usize = 40;
    let name = format!("inject/campaign_storage_a_x{SAMPLE}");
    if r.selected(&name) {
        let built = BuiltSystem::build(spex_systems::system_by_name("Storage-A").unwrap());
        let anns = Annotation::parse(&built.gen.annotations).unwrap();
        let analysis = Spex::analyze(built.module.clone(), &anns);
        let constraints: Vec<_> = analysis.all_constraints().cloned().collect();
        let misconfigs = genrule::generate_all(&standard_rules(), &constraints);
        let step = (misconfigs.len() / SAMPLE).max(1);
        let sample: Vec<_> = misconfigs.into_iter().step_by(step).take(SAMPLE).collect();
        let campaign = InjectionCampaign::new(make_target(&built));
        r.bench(&name, || black_box(campaign.run(&sample)));
        let batch = campaign.run(&sample);
        let one_by_one: Vec<_> = sample.iter().map(|m| campaign.run_one(m)).collect();
        assert_eq!(batch.len(), SAMPLE);
        assert!(
            batch == one_by_one,
            "a campaign must equal its runs one by one"
        );
        println!(
            "{name} self-check: OK ({SAMPLE} runs equal run_one, {} vulnerabilities)",
            batch
                .iter()
                .filter(|o| o.reaction.is_vulnerability())
                .count(),
        );
    }
}

fn bench_mapping(r: &Runner) {
    let spec = spex_systems::system_by_name("Squid").unwrap();
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let am = AnalyzedModule::build(built.module.clone());
    r.bench("mapping/extraction_squid", || {
        spex_core::mapping::extract_mappings(&am, &anns).unwrap()
    });
}

fn bench_summaries(r: &Runner) {
    // Interprocedural summaries, cold vs warm: the SCC-incremental path
    // must make a single-function edit cheap — only the dirty component
    // and its transitive callers re-summarize, every other component is
    // reused by clone.
    let spec = spex_systems::system_by_name("OpenLDAP").unwrap();
    let built = BuiltSystem::build(spec);
    let am = AnalyzedModule::build(built.module.clone());
    r.bench("summaries/compute_cold_openldap", || {
        black_box(ModuleSummaries::compute(&am))
    });

    if r.selected("summaries/incremental_warm_openldap") {
        let (prev, cold) = ModuleSummaries::compute(&am);
        let n = am.module.functions.len();
        assert_eq!(cold.runs, n, "cold evaluation summarizes every function");
        // Dirty the last-emitted component (a call-graph root, so it has
        // no dependents): the warm path re-runs exactly that component —
        // the steady-state regime an editor loop runs in.
        let scc = Condensation::build(&am.callgraph);
        let mut dirty = vec![false; n];
        for f in scc.components.last().expect("non-empty module") {
            dirty[f.index()] = true;
        }
        const ROUNDS: usize = 30;
        let mut total = 0u128;
        let mut best = u128::MAX;
        let mut warm_stats = None;
        for _ in 0..ROUNDS {
            let start = std::time::Instant::now();
            let (_, stats) = black_box(ModuleSummaries::compute_incremental(
                &am,
                Some((&prev, &dirty)),
            ));
            let dt = start.elapsed().as_nanos();
            total += dt;
            best = best.min(dt);
            warm_stats = Some(stats);
        }
        let warm = warm_stats.expect("ROUNDS > 0");
        assert!(warm.hits > 0, "warm evaluation must reuse clean components");
        assert!(warm.runs < n, "warm evaluation must not re-run everything");
        assert_eq!(warm.runs + warm.hits, n, "every function accounted for");
        r.record(
            "summaries/incremental_warm_openldap",
            total / ROUNDS as u128,
            best,
            ROUNDS,
        );
        println!(
            "summaries/incremental_warm self-check: OK \
             ({} of {n} summaries reused, {} re-run)",
            warm.hits, warm.runs,
        );
    }
}

fn bench_react(r: &Runner) {
    // Static reaction classification (`spex-react`) must stay cheap
    // relative to inference: it only re-walks the taint slices the
    // analysis already computed, so the whole catalog classifies in the
    // time one injection test takes to run.
    let mut analyses = Vec::new();
    for name in ["OpenLDAP", "Apache", "VSFTP"] {
        let spec = spex_systems::system_by_name(name).unwrap();
        let built = BuiltSystem::build(spec);
        let anns = Annotation::parse(&built.gen.annotations).unwrap();
        let analysis = Spex::analyze(built.module.clone(), &anns);
        r.bench(&format!("react/classify_analysis_{name}"), || {
            black_box(spex_react::classify_analysis(&analysis))
        });
        analyses.push(analysis);
    }

    // Throughput over the whole catalog, recorded as per-parameter
    // latency so it lands in the trajectory next to the latency benches.
    if r.selected("react/classify_per_param") {
        let params: usize = analyses
            .iter()
            .map(|a| spex_react::classify_analysis(a).len())
            .sum();
        assert!(params > 0, "catalog must yield classifiable parameters");
        const ROUNDS: usize = 20;
        let mut total = 0u128;
        let mut best = u128::MAX;
        for _ in 0..ROUNDS {
            let start = std::time::Instant::now();
            for a in &analyses {
                black_box(spex_react::classify_analysis(a));
            }
            let dt = start.elapsed().as_nanos();
            total += dt;
            best = best.min(dt);
        }
        let mean = total / ROUNDS as u128;
        let (mean_pp, best_pp) = (mean / params as u128, best / params as u128);
        r.record("react/classify_per_param", mean_pp, best_pp, ROUNDS);
        let params_per_sec = 1_000_000_000u128 / mean_pp.max(1);
        println!(
            "react/classify_per_param self-check: OK \
             ({params} params, {params_per_sec} params/sec, {mean_pp} ns/param)"
        );
    }
}

fn bench_check(r: &Runner) {
    // Persist constraint databases once (the infer → persist → check
    // split is exactly what the benchmark measures: validation must not
    // pay for inference).
    let mut dbs = Vec::new();
    for name in ["OpenLDAP", "Apache", "MySQL"] {
        let spec = spex_systems::system_by_name(name).unwrap();
        let built = BuiltSystem::build(spec);
        let anns = Annotation::parse(&built.gen.annotations).unwrap();
        let analysis = Spex::analyze(built.module.clone(), &anns);
        let db = ConstraintDb::from_analysis(name, built.gen.dialect, &analysis);
        dbs.push((db, built.gen.template_conf.clone()));
    }

    // Database persistence round-trip.
    let (db0, template0) = &dbs[0];
    let text = db0.save_to_string();
    r.bench("check/db_save_openldap", || db0.save_to_string());
    r.bench("check/db_load_openldap", || {
        ConstraintDb::load_from_str(&text).unwrap()
    });

    // Single-file validation latency, clean and corrupt, on the borrowed
    // session (construction builds nothing; no db copy).
    let session = CheckSession::new(db0);
    r.bench("check/single_file_clean_openldap", || {
        black_box(session.check_text(template0))
    });
    let corrupt = format!("{template0}listener-threads 9999999\nno_such_param on\n");
    r.bench("check/single_file_corrupt_openldap", || {
        black_box(session.check_text(&corrupt))
    });
    r.bench("check/session_construction_openldap", || {
        black_box(CheckSession::new(db0).check_text("x 1\n"))
    });

    // Batch throughput: a fleet of config files, one session per system.
    let mut fleets: Vec<(&ConstraintDb, Vec<(String, String)>)> = Vec::new();
    for (db, template) in &dbs {
        let system = db.system.clone();
        let files: Vec<(String, String)> = (0..200)
            .map(|i| {
                (
                    format!("{system}/{i}.conf"),
                    if i % 4 == 0 {
                        format!("{template}bogus_key_{i} 1\n")
                    } else {
                        template.clone()
                    },
                )
            })
            .collect();
        fleets.push((db, files));
    }
    let parallel: Vec<(CheckSession<'_>, &Vec<(String, String)>)> = fleets
        .iter()
        .map(|(db, files)| (CheckSession::new(db), files))
        .collect();
    let serial: Vec<(CheckSession<'_>, &Vec<(String, String)>)> = fleets
        .iter()
        .map(|(db, files)| (CheckSession::new(db).with_threads(1), files))
        .collect();
    r.bench("check/batch_600_files_parallel", || {
        for (session, files) in &parallel {
            black_box(session.check_texts(files));
        }
    });
    r.bench("check/batch_600_files_1_thread", || {
        for (session, files) in &serial {
            black_box(session.check_texts(files));
        }
    });
}

fn bench_workspace(r: &Runner) {
    // Incremental re-inference: the whole point of the workspace is that a
    // small edit costs proportionally less than a full re-analysis.
    let spec = spex_systems::system_by_name("OpenLDAP").unwrap();
    let built = BuiltSystem::build(spec);

    r.bench_with_setup(
        "workspace/full_reanalyze_openldap",
        || {
            let mut ws = Workspace::new("OpenLDAP", built.gen.dialect);
            ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
                .unwrap();
            ws
        },
        |mut ws| black_box(ws.reanalyze()),
    );

    // An edit that adds one fresh function: the item-key diff marks only
    // it dirty, so re-analysis re-runs mapping and taint but skips every
    // unaffected parameter's inference passes.
    let edited = format!(
        "{}\nvoid spex_bench_probe() {{ exit(1); }}\n",
        built.gen.source
    );
    r.bench_with_setup(
        "workspace/incremental_reanalyze_openldap",
        || {
            let mut ws = Workspace::new("OpenLDAP", built.gen.dialect);
            ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
                .unwrap();
            ws.reanalyze();
            ws.update_module("gen.c", &edited).unwrap();
            ws
        },
        |mut ws| black_box(ws.reanalyze()),
    );

    // Steady-state warm re-analysis: the workspace keeps its pass-level
    // cache across generations, so a trivial edit (an added function no
    // parameter's flow touches) re-prepares only that function and serves
    // the mapping extraction and every taint slice from the cache — the
    // regime `check on every edit` actually runs in. The self-check below
    // asserts the cache really hit and the stored module was never
    // deep-cloned (the same way PR 3 asserted zero db clones).
    {
        let mut ws = Workspace::new("OpenLDAP", built.gen.dialect);
        ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
            .unwrap();
        ws.reanalyze();
        let variants = [
            format!(
                "{}\nvoid spex_warm_probe() {{ exit(1); }}\n",
                built.gen.source
            ),
            format!(
                "{}\nvoid spex_warm_probe() {{ exit(2); }}\n",
                built.gen.source
            ),
        ];
        let ws = std::cell::RefCell::new(ws);
        let flip = std::cell::Cell::new(0usize);
        let last = std::cell::Cell::new(spex_core::infer::PassCounts::default());
        r.bench_with_setup(
            "workspace/reanalyze_warm",
            || {
                // Editing (parse, lower, diff) is setup; only the warm
                // re-analysis itself is measured.
                ws.borrow_mut()
                    .update_module("gen.c", &variants[flip.get() % 2])
                    .unwrap();
                flip.set(flip.get() + 1);
            },
            |()| {
                let report = ws.borrow_mut().reanalyze();
                last.set(report.passes);
                black_box(report)
            },
        );
        if r.selected("workspace/reanalyze_warm") {
            let ws = ws.borrow();
            let last = last.get();
            assert_eq!(
                ws.module_clones(),
                0,
                "warm reanalyze must not clone the module"
            );
            assert_eq!(
                ws.function_clones(),
                0,
                "warm reanalyze must not copy any function body \
                 (the zero-copy Arc-sharing contract)"
            );
            assert!(
                last.taint_cache_hits > 0 && last.taint_runs == 0,
                "warm reanalyze must serve every slice from the cache \
                 (hits {}, runs {})",
                last.taint_cache_hits,
                last.taint_runs,
            );
            assert_eq!(last.mapping_extractions, 0, "mapping must be cached");
            println!(
                "workspace/reanalyze_warm self-check: OK ({} slice hits, {} mapping hits, \
                 0 module clones, 0 function clones)",
                last.taint_cache_hits, last.mapping_cache_hits,
            );
        }
    }

    // Storage-A (239 KB, 1,199 items), generated once for the four
    // `*_storage_a` rows; its source with two one-line `test_smoke` bodies;
    // and how many of an earlier generation's functions its module still
    // shares.
    let storage_a = std::cell::OnceCell::new();
    let storage_a = || {
        let spec = spex_systems::system_by_name("Storage-A").unwrap();
        storage_a.get_or_init(|| spex_systems::generate(&spec))
    };
    let smoke_variants = |gen: &spex_systems::GenOutput| {
        let smoke = "int test_smoke() { return 0; }";
        assert_eq!(gen.source.matches(smoke).count(), 1);
        [1, 2].map(|pad| {
            gen.source.replace(
                smoke,
                &format!("int test_smoke() {{ int pad = {pad}; return 0; }}"),
            )
        })
    };
    let kept = |before: &[std::sync::Arc<spex_ir::Function>], ws: &Workspace| {
        let after = &ws.module("gen.c").unwrap().functions;
        let shared = before.iter().zip(after);
        shared.filter(|(a, b)| std::sync::Arc::ptr_eq(a, b)).count()
    };

    // An edit re-parses and re-lowers only the function items it changed:
    // `update_module` alone, alternating two one-line `test_smoke` bodies.
    // The self-check asserts the item path's contract: the diff names
    // `test_smoke` alone, and every other function keeps its allocation.
    if r.selected("workspace/update_storage_a") {
        let gen = storage_a();
        let variants = smoke_variants(gen);
        let mut ws = Workspace::new("Storage-A", gen.dialect);
        ws.add_module("gen.c", &variants[1], &gen.annotations)
            .unwrap();
        let before = ws.module("gen.c").unwrap().functions.clone();
        let diff = ws.update_module("gen.c", &variants[0]).unwrap();
        assert_eq!(diff.changed, vec!["test_smoke".to_string()]);
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        let kept = kept(&before, &ws);
        assert_eq!(kept, before.len() - 1, "only test_smoke is rebuilt");
        assert_eq!(ws.module_clones() + ws.function_clones(), 0);
        println!(
            "workspace/update_storage_a self-check: OK (diff [\"test_smoke\"], {kept} of {} \
             functions keep their Arc)",
            before.len()
        );
        let ws = std::cell::RefCell::new(ws);
        let flip = std::cell::Cell::new(1usize);
        r.bench("workspace/update_storage_a", || {
            let source = &variants[flip.get() % 2];
            flip.set(flip.get() + 1);
            black_box(ws.borrow_mut().update_module("gen.c", source).unwrap())
        });
    }

    // A warm `reanalyze` after an edit no parameter's flow reaches: the
    // one-line `test_smoke` edit above is setup, and only `reanalyze` is
    // timed. The self-check asserts it re-infers nothing, reuses the
    // cached mapping and every reaction verdict, and leaves the db as it
    // was.
    if r.selected("workspace/reanalyze_storage_a") {
        let gen = storage_a();
        let variants = smoke_variants(gen);
        let mut ws = Workspace::new("Storage-A", gen.dialect);
        ws.add_module("gen.c", &variants[1], &gen.annotations)
            .unwrap();
        ws.reanalyze();
        let db = ws.db().save_to_string();
        ws.update_module("gen.c", &variants[0]).unwrap();
        let warm = ws.reanalyze();
        assert_eq!(warm.params_reinferred, 0, "no flow reaches test_smoke");
        assert_eq!(warm.passes.react_cache_hits, warm.params_total);
        let p = warm.passes;
        assert_eq!([p.mapping_cache_hits, p.mapping_extractions], [1, 0]);
        assert_eq!(ws.db().save_to_string(), db, "the db is unchanged");
        println!(
            "workspace/reanalyze_storage_a self-check: OK (0 of {} parameters re-inferred, {} \
             verdicts reused, 1 mapping hit, 0 extractions, db unchanged)",
            warm.params_total, warm.passes.react_cache_hits
        );
        let ws = std::cell::RefCell::new(ws);
        let flip = std::cell::Cell::new(1usize);
        r.bench_with_setup(
            "workspace/reanalyze_storage_a",
            || {
                let source = &variants[flip.get() % 2];
                flip.set(flip.get() + 1);
                ws.borrow_mut().update_module("gen.c", source).unwrap();
            },
            |()| black_box(ws.borrow_mut().reanalyze()),
        );
    }

    // The whole-module path, always cold: `update_module` alone, toggling
    // an appended global, so every update parses and lowers every item.
    // The self-check asserts that no function keeps its allocation and
    // that the next `reanalyze` re-infers every parameter.
    if r.selected("workspace/update_storage_a_whole") {
        let gen = storage_a();
        let variants = [
            gen.source.clone(),
            format!("{}\nint bench_probe_g = 0;\n", gen.source),
        ];
        let mut ws = Workspace::new("Storage-A", gen.dialect);
        ws.add_module("gen.c", &variants[0], &gen.annotations)
            .unwrap();
        ws.reanalyze();
        let before = ws.module("gen.c").unwrap().functions.clone();
        let diff = ws.update_module("gen.c", &variants[1]).unwrap();
        assert!(diff.is_empty(), "{diff:?}");
        assert_eq!(kept(&before, &ws), 0, "the whole path keeps no Arc");
        let cold = ws.reanalyze();
        assert_eq!(cold.params_reinferred, cold.params_total, "dirty whole");
        assert_eq!(ws.module_clones() + ws.function_clones(), 0);
        println!(
            "workspace/update_storage_a_whole self-check: OK (no function keeps its Arc, all \
             {} parameters re-inferred)",
            cold.params_total
        );
        let ws = std::cell::RefCell::new(ws);
        let flip = std::cell::Cell::new(0usize);
        r.bench("workspace/update_storage_a_whole", || {
            let source = &variants[flip.get() % 2];
            flip.set(flip.get() + 1);
            black_box(ws.borrow_mut().update_module("gen.c", source).unwrap())
        });
    }

    // An appended function takes the item path: each iteration appends
    // `void bench_probe() { }` (the item path lowers it alone) and removes
    // it again (the whole path). The self-check asserts that the append
    // reports `bench_probe` added and keeps every other function's
    // allocation.
    if r.selected("workspace/update_storage_a_append") {
        let gen = storage_a();
        let appended = format!("{}\nvoid bench_probe() {{ }}\n", gen.source);
        let mut ws = Workspace::new("Storage-A", gen.dialect);
        ws.add_module("gen.c", &gen.source, &gen.annotations)
            .unwrap();
        let before = ws.module("gen.c").unwrap().functions.clone();
        let diff = ws.update_module("gen.c", &appended).unwrap();
        let probe = vec!["bench_probe".to_string()];
        assert_eq!(
            (diff.changed, diff.added, diff.removed),
            (vec![], probe, vec![])
        );
        let kept = kept(&before, &ws);
        assert_eq!(kept, before.len(), "only bench_probe is new");
        assert_eq!(ws.module_clones() + ws.function_clones(), 0);
        println!(
            "workspace/update_storage_a_append self-check: OK (diff [\"bench_probe\"] added, \
             {kept} functions keep their Arc)"
        );
        ws.update_module("gen.c", &gen.source).unwrap();
        let ws = std::cell::RefCell::new(ws);
        r.bench("workspace/update_storage_a_append", || {
            let mut ws = ws.borrow_mut();
            black_box(ws.update_module("gen.c", &appended).unwrap());
            black_box(ws.update_module("gen.c", &gen.source).unwrap())
        });
    }

    // The borrowed session: repeated `check_paths` off one workspace must
    // pay per-file work only — no per-call O(db) copy (compare with
    // `check/session_construction_*`, which a session over the indexed
    // database makes as cheap).
    let mut ws = Workspace::new("OpenLDAP", built.gen.dialect);
    ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
        .unwrap();
    ws.reanalyze();
    let fleet = std::env::temp_dir().join("spex_bench_check_cached");
    let _ = std::fs::remove_dir_all(&fleet);
    std::fs::create_dir_all(&fleet).expect("fleet dir");
    for i in 0..32 {
        let text = if i % 4 == 0 {
            format!("{}bogus_key_{i} 1\n", built.gen.template_conf)
        } else {
            built.gen.template_conf.clone()
        };
        std::fs::write(fleet.join(format!("host{i:02}.conf")), text).expect("fleet file");
    }
    let clones_before = ws.db().clone_count();
    r.bench("workspace/check_cached", || {
        black_box(ws.check_paths(std::slice::from_ref(&fleet)).unwrap())
    });
    if r.selected("workspace/check_cached") {
        assert_eq!(
            ws.db().clone_count(),
            clones_before,
            "checking must not clone the db"
        );
    }
    std::fs::remove_dir_all(&fleet).ok();
}

fn bench_telemetry(r: &Runner) {
    // Telemetry must be pay-for-what-you-use: a workspace that never
    // enabled it takes the one-branch no-op path (no clocks, no
    // allocations, no recorded spans), and an instrumented workspace stays
    // within a few percent of it. Interleave the two warm-reanalyze loops
    // so both see the same machine state, take best-of-N, and assert both
    // properties.
    if !r.selected("workspace/telemetry_overhead") {
        return;
    }
    let spec = spex_systems::system_by_name("OpenLDAP").unwrap();
    let built = BuiltSystem::build(spec);
    let variants = [
        format!(
            "{}\nvoid spex_obs_probe() {{ exit(1); }}\n",
            built.gen.source
        ),
        format!(
            "{}\nvoid spex_obs_probe() {{ exit(2); }}\n",
            built.gen.source
        ),
    ];
    let make_ws = |telemetry: bool| {
        let mut ws = Workspace::new("OpenLDAP", built.gen.dialect);
        if telemetry {
            ws.enable_telemetry();
        }
        ws.add_module("gen.c", &built.gen.source, &built.gen.annotations)
            .unwrap();
        ws.reanalyze();
        ws
    };
    let mut plain = make_ws(false);
    let mut instrumented = make_ws(true);

    const ROUNDS: usize = 30;
    // [disabled, enabled] nanoseconds.
    let mut best = [u128::MAX; 2];
    let mut total = [0u128; 2];
    for round in 0..ROUNDS {
        for (slot, ws) in [(0usize, &mut plain), (1, &mut instrumented)] {
            ws.update_module("gen.c", &variants[round % 2]).unwrap();
            let spans_before = spex_obs::probe::thread_spans_recorded();
            let start = std::time::Instant::now();
            black_box(ws.reanalyze());
            let dt = start.elapsed().as_nanos();
            if slot == 0 {
                assert_eq!(
                    spex_obs::probe::thread_spans_recorded(),
                    spans_before,
                    "a workspace without telemetry must record zero spans"
                );
            }
            best[slot] = best[slot].min(dt);
            total[slot] += dt;
        }
    }
    let (disabled, enabled) = (best[0], best[1]);
    // < 5% relative, plus a small absolute floor so a sub-millisecond
    // baseline doesn't turn scheduler jitter into a failure.
    let budget = disabled + disabled / 20 + 25_000;
    assert!(
        enabled <= budget,
        "telemetry overhead too high: enabled best {enabled} ns vs disabled best {disabled} ns"
    );
    let snap = instrumented.telemetry();
    assert!(!snap.is_empty(), "instrumented workspace recorded nothing");
    assert!(
        snap.span_count("workspace.reanalyze") >= ROUNDS as u64,
        "every warm reanalyze must leave a span"
    );
    r.record(
        "workspace/telemetry_overhead_disabled",
        total[0] / ROUNDS as u128,
        disabled,
        ROUNDS,
    );
    r.record(
        "workspace/telemetry_overhead_enabled",
        total[1] / ROUNDS as u128,
        enabled,
        ROUNDS,
    );
    println!(
        "workspace/telemetry_overhead self-check: OK \
         (enabled best {enabled} ns vs disabled best {disabled} ns, \
         {} spans recorded)",
        snap.span_count("workspace.reanalyze"),
    );
}

fn bench_fleet(r: &Runner) {
    // Fleet-scale throughput: thousands of generated modules analyzed
    // through one workspace, then ~100k staged config files checked
    // against the merged constraint database. The self-check asserts the
    // tentpole contract — the parallel run's persisted database is
    // byte-identical to the serial baseline's, and (given ≥4 cores) at
    // least 2× faster at 4 threads.
    if !r.selected("fleet") {
        return;
    }
    let spec = spex_systems::fleet::FleetSpec {
        modules: std::env::var("SPEX_FLEET_MODULES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2048),
        ..Default::default()
    };
    let fleet = spex_systems::fleet::generate_fleet(&spec);
    println!(
        "fleet: {} modules, {} parameters, {} config files",
        fleet.len(),
        fleet.iter().map(|m| m.params).sum::<usize>(),
        fleet.len() * spec.configs_per_module,
    );

    // Building the workspace (parse and lower) is setup; only
    // cold full inference over every module is measured, best-of-N per
    // thread count so scheduler noise cannot flip the comparison.
    const ROUNDS: usize = 3;
    let run_at = |threads: usize| -> (u128, u128, String) {
        let mut best = u128::MAX;
        let mut total = 0u128;
        let mut db = String::new();
        for _ in 0..ROUNDS {
            let mut ws =
                Workspace::new("Fleet", spex_conf::Dialect::KeyValue).with_threads(threads);
            for m in &fleet {
                ws.add_module(&m.name, &m.source, &m.annotations).unwrap();
            }
            let start = std::time::Instant::now();
            black_box(ws.reanalyze());
            let dt = start.elapsed().as_nanos();
            best = best.min(dt);
            total += dt;
            db = ws.db().save_to_string();
        }
        (total / ROUNDS as u128, best, db)
    };
    let (serial_mean, serial_best, serial_db) = run_at(1);
    let (par_mean, par_best, par_db) = run_at(4);
    r.record(
        "fleet/analyze_corpus_1_thread",
        serial_mean,
        serial_best,
        ROUNDS,
    );
    r.record("fleet/analyze_corpus_4_threads", par_mean, par_best, ROUNDS);

    assert_eq!(
        serial_db, par_db,
        "parallel fleet analysis must persist a byte-identical database"
    );
    let speedup = serial_best as f64 / par_best.max(1) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "fleet analysis at 4 threads must be ≥2× the serial baseline \
             (got {speedup:.2}× on {cores} cores)"
        );
    }
    let analyses_per_sec = |ns: u128| fleet.len() as u128 * 1_000_000_000 / ns.max(1);
    println!(
        "fleet/throughput self-check: OK (db byte-identical; \
         {} analyses/sec serial, {} at 4 threads, {speedup:.2}x speedup{})",
        analyses_per_sec(serial_best),
        analyses_per_sec(par_best),
        if cores >= 4 {
            ""
        } else {
            "; speedup assert skipped, <4 cores"
        },
    );

    // Checking: the deployment corpus against the merged database, through
    // the same borrowed-session batch path deployments use.
    let mut ws = Workspace::new("Fleet", spex_conf::Dialect::KeyValue).with_threads(4);
    for m in &fleet {
        ws.add_module(&m.name, &m.source, &m.annotations).unwrap();
    }
    ws.reanalyze();
    let corpus = spex_systems::fleet::config_corpus(&fleet, &spec);
    let session = CheckSession::new(ws.db()).with_threads(4);
    let mut check_best = u128::MAX;
    let mut check_total = 0u128;
    let mut flagged = 0usize;
    for _ in 0..ROUNDS {
        let start = std::time::Instant::now();
        let report = black_box(session.check_texts(&corpus));
        check_best = check_best.min(start.elapsed().as_nanos());
        check_total += start.elapsed().as_nanos();
        flagged = report.stats.flagged_files;
    }
    r.record(
        "fleet/check_corpus_4_threads",
        check_total / ROUNDS as u128,
        check_best,
        ROUNDS,
    );
    assert!(
        flagged >= fleet.len(),
        "every unknown-key corruption must be flagged ({flagged} flagged)"
    );
    println!(
        "fleet/check self-check: OK ({} checks/sec at 4 threads, {flagged} files flagged)",
        corpus.len() as u128 * 1_000_000_000 / check_best.max(1),
    );
}

fn main() {
    let r = Runner::from_args();
    bench_frontend(&r);
    bench_inference(&r);
    bench_taint(&r);
    bench_injection(&r);
    bench_mapping(&r);
    bench_summaries(&r);
    bench_react(&r);
    bench_check(&r);
    bench_workspace(&r);
    bench_telemetry(&r);
    bench_fleet(&r);
    r.write_trajectory();
}
