//! Integration tests for `spex-check`: the infer → persist → check
//! pipeline over the seven generated subject systems.
//!
//! The acceptance bar mirrors the paper's goal for proactive validation:
//! each system's pristine default configuration must check clean, while
//! ≥ 90% of the configurations corrupted by the SPEX-INJ generation rules
//! must be flagged — without ever re-running inference (the borrowed
//! [`CheckSession`] only sees the persisted [`ConstraintDb`]). On top,
//! every emitted diagnostic must carry a stable `SPEX-Rxxx` code that
//! round-trips through the JSON Lines renderer.

use spex::check::{CheckSession, ConstraintDb, JsonLinesRenderer, Report, Severity, StaticEnv};
use spex::core::{Annotation, DiagCode, Spex};
use spex::inject::{genrule, standard_rules, Misconfig};
use spex::systems::{all_systems, BuiltSystem, SystemSpec};
use std::sync::OnceLock;

/// One catalog system, built and analysed once for every test here.
struct Analysed {
    built: BuiltSystem,
    /// The database straight from the analysis.
    inferred: ConstraintDb,
    /// The database the checker runs from: every documented parameter
    /// noted, then saved and loaded back.
    db: ConstraintDb,
    /// The deployment-environment model the checker needs.
    env: StaticEnv,
}

/// The 7 catalog systems, analysed on first use.
fn catalog() -> &'static [Analysed] {
    static CATALOG: OnceLock<Vec<Analysed>> = OnceLock::new();
    CATALOG.get_or_init(|| all_systems().into_iter().map(infer_and_persist).collect())
}

/// One system of the shared catalog.
fn system(name: &str) -> &'static Analysed {
    catalog()
        .iter()
        .find(|a| a.built.spec.name == name)
        .unwrap_or_else(|| panic!("{name} is not a catalog system"))
}

/// Builds one system, runs inference once, and persists the constraints
/// plus the deployment-environment model the checker needs.
fn infer_and_persist(spec: SystemSpec) -> Analysed {
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).expect("annotations parse");
    let analysis = Spex::analyze(built.module.clone(), &anns);
    let inferred = ConstraintDb::from_analysis(built.spec.name, built.gen.dialect, &analysis);
    let mut db = inferred.clone();
    // The full parameter universe is known from the system's documentation
    // (here: the spec); parameters inference did not reach are still legal
    // keys.
    db.note_params(built.spec.params.iter().map(|p| p.name.as_str()));

    // Mirror the modelled world of `BuiltSystem::world` (§4's harness):
    // port 80 occupied, the template's files and dirs present, the stock
    // users/groups/hosts known.
    let mut env = StaticEnv::new();
    env.occupy_port(80);
    for (f, _) in &built.gen.world_files {
        env.add_file(f);
    }
    for d in &built.gen.world_dirs {
        env.add_dir(d);
    }
    for u in ["root", "nobody", "daemon"] {
        env.add_user(u);
    }
    for g in ["root", "daemon"] {
        env.add_group(g);
    }
    env.add_host("localhost");

    // The save/load round-trip is part of the contract: the checker runs
    // from the persisted form, never from the in-memory analysis.
    let db = ConstraintDb::load_from_str(&db.save_to_string()).expect("db round-trips");
    Analysed {
        built,
        inferred,
        db,
        env,
    }
}

/// Applies one generated misconfiguration to the template config.
fn corrupt(built: &BuiltSystem, m: &Misconfig) -> String {
    let mut conf = spex::conf::ConfFile::parse(&built.gen.template_conf, built.gen.dialect);
    conf.set(&m.param, &m.value);
    for (p, v) in &m.also_set {
        conf.set(p, v);
    }
    conf.serialize()
}

#[test]
fn constraint_db_round_trips_losslessly_for_every_system() {
    for Analysed {
        built,
        inferred: db,
        ..
    } in catalog()
    {
        let text = db.save_to_string();
        let back = ConstraintDb::load_from_str(&text).unwrap();
        let mut want = db.clone();
        want.canonicalize();
        assert_eq!(
            want, back,
            "{}: save/load changed the database",
            built.spec.name
        );
        assert_eq!(
            text,
            back.save_to_string(),
            "{}: re-serialization is not stable",
            built.spec.name
        );
        assert!(
            db.constraint_count() > 0,
            "{}: empty database",
            built.spec.name
        );
    }
}

#[test]
fn pristine_defaults_check_clean_and_corrupted_configs_are_flagged() {
    let mut total = 0usize;
    let mut flagged = 0usize;
    let mut per_system: Vec<(String, usize, usize)> = Vec::new();

    for Analysed { built, db, env, .. } in catalog() {
        let system = built.spec.name.to_string();
        let session = CheckSession::new(db).with_env(env);

        // File 0: the pristine template; then the corrupted corpus —
        // every SPEX-INJ generation rule applied to the persisted
        // constraints, one corrupted file per misconfiguration (capped
        // per system to keep the suite fast; the cap is far above the
        // statistical noise floor).
        let constraints: Vec<_> = db
            .params
            .iter()
            .flat_map(|p| p.constraints.iter().cloned())
            .collect();
        let misconfigs = genrule::generate_all(&standard_rules(), &constraints);
        assert!(
            misconfigs.len() >= 20,
            "{system}: too few generated misconfigurations ({})",
            misconfigs.len()
        );
        let cap = 400;
        let step = (misconfigs.len() / cap).max(1);
        let sampled: Vec<&Misconfig> = misconfigs.iter().step_by(step).collect();

        let mut files: Vec<(String, String)> =
            vec![("default.conf".into(), built.gen.template_conf.clone())];
        files.extend(
            sampled
                .iter()
                .enumerate()
                .map(|(i, m)| (format!("corrupt_{i}.conf"), corrupt(built, m))),
        );
        let report = session.check_texts(&files);
        assert_eq!(report.stats.files, files.len());

        // Pristine template: zero diagnostics.
        assert!(
            report.files[0].is_clean(),
            "{system}: pristine default config flagged: {:#?}",
            report.files[0].diagnostics
        );

        let system_flagged = report.files[1..]
            .iter()
            .filter(|r| !r.diagnostics.is_empty())
            .count();
        total += sampled.len();
        flagged += system_flagged;
        per_system.push((system, sampled.len(), sampled.len() - system_flagged));

        // The aggregate stats agree with the per-file reports.
        assert_eq!(report.stats.flagged_files, system_flagged);
        assert_eq!(report.stats.clean_files, files.len() - system_flagged);
    }

    // Corrupted corpus: ≥ 90% flagged overall.
    let rate = flagged as f64 / total as f64;
    assert!(
        rate >= 0.90,
        "only {flagged}/{total} = {rate:.3} of corrupted configs flagged; \
         per system (name, corrupted, missed): {per_system:?}"
    );
}

/// The 0.3 acceptance criterion: every diagnostic emitted anywhere in the
/// workspace carries a stable `SPEX-Rxxx` code, and the code round-trips
/// through the JSON Lines renderer byte-identically.
#[test]
fn every_diagnostic_code_round_trips_through_the_json_renderer() {
    use spex::check::json::Json;
    let mut codes_seen = std::collections::BTreeSet::new();
    for Analysed { built, db, env, .. } in catalog() {
        let session = CheckSession::new(db).with_env(env);

        let constraints: Vec<_> = db
            .params
            .iter()
            .flat_map(|p| p.constraints.iter().cloned())
            .collect();
        let misconfigs = genrule::generate_all(&standard_rules(), &constraints);
        let step = (misconfigs.len() / 60).max(1);
        let files: Vec<(String, String)> = misconfigs
            .iter()
            .step_by(step)
            .enumerate()
            .map(|(i, m)| (format!("c{i}.conf"), corrupt(built, m)))
            .collect();
        let report = session.check_texts(&files);

        // Structured side: every diagnostic's code parses back.
        for (_, d) in report.findings() {
            assert_eq!(DiagCode::parse(d.code.as_str()), Some(d.code));
            codes_seen.insert(d.code.as_str());
        }

        // Rendered side: the JSON Lines output validates and yields the
        // exact same code sequence.
        let jsonl = report.render(&JsonLinesRenderer);
        let validated = JsonLinesRenderer::validate(&jsonl)
            .unwrap_or_else(|e| panic!("{}: invalid JSON Lines: {e}", built.spec.name));
        assert_eq!(validated, report.findings().count());
        let rendered_codes: Vec<String> = jsonl
            .lines()
            .filter_map(|l| {
                let obj = Json::parse(l).ok()?;
                if obj.get("type")?.as_str()? != "finding" {
                    return None;
                }
                Some(obj.get("code")?.as_str()?.to_string())
            })
            .collect();
        let structured_codes: Vec<String> = report
            .findings()
            .map(|(_, d)| d.code.as_str().to_string())
            .collect();
        assert_eq!(rendered_codes, structured_codes, "{}", built.spec.name);
    }
    assert!(
        codes_seen.len() >= 4,
        "the corpus should exercise most of the code namespace, saw {codes_seen:?}"
    );
}

#[test]
fn checker_pinpoints_line_value_code_and_provenance() {
    let Analysed { built, db, env, .. } = system("OpenLDAP");

    // Corrupt one known range parameter in place.
    let mut conf = spex::conf::ConfFile::parse(&built.gen.template_conf, built.gen.dialect);
    let victim = db
        .params
        .iter()
        .find(|p| {
            p.constraints
                .iter()
                .any(|c| matches!(c.kind, spex::core::ConstraintKind::Range(_)))
        })
        .expect("a range-constrained parameter");
    conf.set(&victim.name, "99999999");
    let line = conf.line_of(&victim.name).unwrap();

    let diags = CheckSession::new(db).with_env(env).check(&conf);
    let d = diags
        .iter()
        .find(|d| d.param == victim.name && d.code == DiagCode::Range)
        .unwrap_or_else(|| panic!("no range diagnostic for {}: {diags:#?}", victim.name));
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.category(), "data-range");
    assert_eq!(d.line, Some(line));
    assert_eq!(d.value, "99999999");
    assert!(d.origin.is_some(), "range diagnostics carry provenance");
    let rendered = d.to_string();
    assert!(rendered.contains(&victim.name), "{rendered}");
    assert!(rendered.contains("99999999"), "{rendered}");
    assert!(rendered.contains("SPEX-R003"), "{rendered}");
}

#[test]
fn unknown_key_suggestions_survive_persistence() {
    let Analysed { built, db, .. } = system("VSFTP");
    let known = db.param_names().next().unwrap().to_string();
    let typo = format!("{}x", &known[..known.len() - 1]);
    let text = match built.gen.dialect {
        spex::conf::Dialect::KeyValue => format!("{typo} = 1\n"),
        _ => format!("{typo} 1\n"),
    };
    let diags = CheckSession::new(db).check_text(&text);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].code, DiagCode::UnknownKey);
    let suggestion = diags[0].suggestion.as_deref().expect("a did-you-mean");
    assert!(
        suggestion.contains(&known) || suggestion.contains("did you mean"),
        "{suggestion}"
    );
}

/// Batch checking through the session is deterministic across thread
/// counts: the same files produce byte-identical reports whether one
/// worker or eight drain the queue.
#[test]
fn batch_report_is_identical_across_thread_counts() {
    let Analysed { built, db, env, .. } = system("Apache");
    let broken = format!("{}zzz_unknown_key 1\n", built.gen.template_conf);
    let files: Vec<(String, String)> = (0..16)
        .map(|i| (format!("conf-{i:02}"), broken.clone()))
        .collect();

    let serial: Report = CheckSession::new(db)
        .with_env(env)
        .with_threads(1)
        .check_texts(&files);
    for threads in [2, 8] {
        let parallel: Report = CheckSession::new(db)
            .with_env(env)
            .with_threads(threads)
            .check_texts(&files);
        assert_eq!(parallel.files, serial.files, "at {threads} threads");
        assert_eq!(parallel.stats, serial.stats);
    }
}
