//! End-to-end integration tests: front-end → IR → inference → injection →
//! design detection, on both hand-written systems and the generated
//! subject systems.

use spex::core::{evaluate_accuracy, Annotation, ConstraintKind, Spex};
use spex::design::DesignReport;
use spex::inject::{
    genrule, standard_rules, CampaignReport, InjectionCampaign, Reaction, TestTarget,
};
use spex::systems::BuiltSystem;
use std::collections::HashMap;

/// A compact hand-written server exercising every constraint kind at once.
const FULL_SERVER: &str = r#"
    int worker_threads = 8;
    int min_len = 4;
    int max_len = 84;
    int use_tls = 1;
    int tls_timeout = 30;
    char* cert_file = "/etc/app/cert.pem";
    int listen_port = 8443;
    int relok = 0;
    int scratch[65];

    struct opt_int { char* name; int* var; };
    struct opt_str { char* name; char** var; };
    struct opt_int int_options[] = {
        { "worker_threads", &worker_threads },
        { "min_len", &min_len },
        { "max_len", &max_len },
        { "use_tls", &use_tls },
        { "tls_timeout", &tls_timeout },
        { "listen_port", &listen_port },
    };
    struct opt_str str_options[] = {
        { "cert_file", &cert_file },
    };

    int handle_config(char* name, char* value) {
        int i;
        for (i = 0; i < 6; i++) {
            if (strcmp(int_options[i].name, name) == 0) {
                *(int_options[i].var) = atoi(value);
                return 0;
            }
        }
        for (i = 0; i < 1; i++) {
            if (strcmp(str_options[i].name, name) == 0) {
                *(str_options[i].var) = strdup(value);
                return 0;
            }
        }
        return 0;
    }

    int startup() {
        scratch[worker_threads] = 1;
        if (use_tls != 0) {
            sleep(tls_timeout);
            if (open(cert_file, 0) < 0) {
                fprintf(stderr, "cannot open cert_file %s", cert_file);
                exit(1);
            }
        }
        int s = socket(0, 0, 0);
        if (bind(s, listen_port) < 0) {
            fprintf(stderr, "cannot bind listen_port %d", listen_port);
            exit(1);
        }
        listen(s, 16);
        int len = 12;
        relok = 0;
        if (len >= min_len && len < max_len) {
            relok = 1;
        }
        return 0;
    }

    int test_lengths() { return relok == 0; }
    int test_smoke() { return 0; }
"#;

const FULL_ANN: &str = "{ @STRUCT = int_options\n @PAR = [opt_int, 1]\n @VAR = [opt_int, 2] }\n\
                        { @STRUCT = str_options\n @PAR = [opt_str, 1]\n @VAR = [opt_str, 2] }";

fn analyze_full_server() -> spex::core::SpexAnalysis {
    let program = spex::lang::parse_program(FULL_SERVER).unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    let anns = Annotation::parse(FULL_ANN).unwrap();
    Spex::analyze(module, &anns)
}

#[test]
fn infers_all_five_constraint_kinds() {
    let analysis = analyze_full_server();
    let categories: std::collections::HashSet<&str> = analysis
        .all_constraints()
        .map(|c| c.kind.category())
        .collect();
    assert!(categories.contains("basic-type"));
    assert!(categories.contains("semantic-type"));
    assert!(categories.contains("control-dep"));
    assert!(categories.contains("value-rel"));
}

#[test]
fn semantic_types_match_the_apis() {
    let analysis = analyze_full_server();
    let sem_of = |p: &str| -> Vec<String> {
        analysis
            .param(p)
            .unwrap()
            .constraints
            .iter()
            .filter_map(|c| match &c.kind {
                ConstraintKind::SemanticType(s) => Some(s.to_string()),
                _ => None,
            })
            .collect()
    };
    assert!(sem_of("cert_file").contains(&"FILE".to_string()));
    assert!(sem_of("listen_port").contains(&"PORT".to_string()));
    assert!(sem_of("tls_timeout").contains(&"TIME(s)".to_string()));
}

#[test]
fn dependency_on_tls_flag_is_found() {
    let analysis = analyze_full_server();
    let dep = analysis
        .all_constraints()
        .find_map(|c| match &c.kind {
            ConstraintKind::ControlDep(d) if d.controller == "use_tls" => Some(d.clone()),
            _ => None,
        })
        .expect("a control dependency on use_tls");
    assert!(dep.dependent == "tls_timeout" || dep.dependent == "cert_file");
}

fn full_server_target(module: &spex::ir::Module) -> TestTarget<'_> {
    let mut param_globals = HashMap::new();
    for p in [
        "worker_threads",
        "min_len",
        "max_len",
        "use_tls",
        "tls_timeout",
        "listen_port",
    ] {
        param_globals.insert(p.to_string(), p.to_string());
    }
    TestTarget {
        name: "full-server".into(),
        module,
        dialect: spex::conf::Dialect::KeyValue,
        template_conf: "worker_threads = 8\nlisten_port = 8443\n".into(),
        config_entry: "handle_config".into(),
        startup: "startup".into(),
        tests: vec![
            spex::inject::TestCase {
                name: "lengths".into(),
                func: "test_lengths".into(),
                cost: 2,
            },
            spex::inject::TestCase {
                name: "smoke".into(),
                func: "test_smoke".into(),
                cost: 1,
            },
        ],
        world: Box::new(|| {
            let mut w = spex::vm::World::default();
            w.occupy_port(80);
            w.add_file("/etc/app/cert.pem", "cert");
            w.add_dir("/etc/app");
            w
        }),
        param_globals,
    }
}

#[test]
fn injection_exposes_crash_and_functional_failure() {
    let program = spex::lang::parse_program(FULL_SERVER).unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    let analysis = {
        let anns = Annotation::parse(FULL_ANN).unwrap();
        Spex::analyze(module.clone(), &anns)
    };
    let constraints: Vec<_> = analysis.all_constraints().cloned().collect();
    let misconfigs = genrule::generate_all(&standard_rules(), &constraints);
    assert!(!misconfigs.is_empty());

    let campaign = InjectionCampaign::new(full_server_target(&module));
    let outcomes = campaign.run(&misconfigs);
    let report = CampaignReport::from_outcomes(&outcomes);

    // The unchecked scratch index crashes on overflowing thread counts.
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o.reaction, Reaction::Crash(_))),
        "expected a crash among {:?}",
        report.by_reaction
    );
    // The min/max violation fails the functional test without pinpointing.
    assert!(
        outcomes
            .iter()
            .any(|o| o.reaction == Reaction::FunctionalFailure),
        "expected a functional failure among {:?}",
        report.by_reaction
    );
    // The checked port/file parameters produce pinpointing good reactions.
    assert!(report.good_reactions > 0);
}

#[test]
fn generated_openldap_full_pipeline() {
    let spec = spex::systems::system_by_name("OpenLDAP").unwrap();
    let built = BuiltSystem::build(spec);
    // Generated code passes the IR verifier.
    let program = spex::lang::parse_program(&built.gen.source).unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    assert!(spex::ir::verify::verify_module(&module).is_empty());

    // Inference covers (nearly) all parameters and matches ground truth
    // away from the planted alias noise.
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let analysis = Spex::analyze(built.module.clone(), &anns);
    assert!(analysis.reports.len() >= built.spec.param_count() * 9 / 10);
    let constraints: Vec<_> = analysis.all_constraints().cloned().collect();
    let acc = evaluate_accuracy(&constraints, &built.gen.truth);
    assert!(
        acc.overall() > 0.85,
        "accuracy {:.2} by {:?}",
        acc.overall(),
        acc.by_category
    );

    // A valid default configuration starts and passes its tests.
    let mut vm = spex::vm::Vm::new(&built.module, built.world());
    for (name, value) in
        spex::conf::ConfFile::parse(&built.gen.template_conf, built.gen.dialect).settings()
    {
        let r = vm
            .call(
                "handle_config",
                &[spex::vm::Value::str(name), spex::vm::Value::str(value)],
            )
            .unwrap();
        assert_eq!(r, spex::vm::Value::Int(0), "default {name} rejected");
    }
    assert_eq!(vm.call("startup", &[]).unwrap(), spex::vm::Value::Int(0));
    for t in &built.gen.tests {
        assert_eq!(
            vm.call(&t.func, &[]).unwrap(),
            spex::vm::Value::Int(0),
            "default config fails test {}",
            t.name
        );
    }
}

/// The pass cache keeps one merged mapping per module and extracts it anew
/// when a dirty function is `mapping_relevant` to the whole annotation
/// list. On every function of the seven catalog systems that equals being
/// relevant to one of the annotations, so one cached mapping is invalidated
/// exactly when a cache per annotation would have been.
#[test]
fn relevance_to_the_annotations_is_relevance_to_one_of_them() {
    use spex::core::mapping::mapping_relevant;
    use spex::ir::FuncId;
    let (mut functions, mut relevant, mut several) = (0, 0, 0);
    for spec in spex::systems::all_systems() {
        let built = BuiltSystem::build(spec);
        let anns = Annotation::parse(&built.gen.annotations).unwrap();
        several += usize::from(anns.len() > 1);
        let am = spex::dataflow::AnalyzedModule::build(built.module);
        for fid in (0..am.module.functions.len()).map(|i| FuncId(i as u32)) {
            let whole = mapping_relevant(&am, fid, &anns);
            let any = anns
                .iter()
                .any(|ann| mapping_relevant(&am, fid, std::slice::from_ref(ann)));
            assert_eq!(
                whole,
                any,
                "{}: {}",
                built.spec.name,
                am.module.func(fid).name
            );
            functions += 1;
            relevant += usize::from(whole);
        }
    }
    assert!(
        0 < relevant && relevant < functions,
        "{relevant} of {functions}"
    );
    assert!(several > 0, "some system has several annotations");
}

#[test]
fn generated_vsftp_exposes_silent_ignorance() {
    let spec = spex::systems::system_by_name("VSFTP").unwrap();
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let analysis = Spex::analyze(built.module.clone(), &anns);
    let deps: Vec<_> = analysis
        .all_constraints()
        .filter(|c| {
            matches!(&c.kind, ConstraintKind::ControlDep(d)
                if d.controller.starts_with("ftpd_flag"))
        })
        .cloned()
        .collect();
    assert!(
        deps.len() >= 20,
        "VSFTP is dependency-heavy, got {}",
        deps.len()
    );

    // Inject one dependency violation and observe silent ignorance.
    let misconfigs = genrule::generate_all(&standard_rules(), &deps[..1]);
    let world_files = built.gen.world_files.clone();
    let world_dirs = built.gen.world_dirs.clone();
    let target = TestTarget {
        name: "VSFTP".into(),
        module: &built.module,
        dialect: built.gen.dialect,
        template_conf: built.gen.template_conf.clone(),
        config_entry: "handle_config".into(),
        startup: "startup".into(),
        tests: built.gen.tests.clone(),
        world: Box::new(move || {
            let mut w = spex::vm::World::default();
            w.occupy_port(80);
            for (f, c) in &world_files {
                w.add_file(f, c);
            }
            for d in &world_dirs {
                w.add_dir(d);
            }
            w
        }),
        param_globals: built.gen.param_globals.clone(),
    };
    let outcomes = InjectionCampaign::new(target).run(&misconfigs);
    assert!(outcomes
        .iter()
        .any(|o| o.reaction == Reaction::SilentIgnorance));
}

#[test]
fn design_detectors_on_generated_apache() {
    let spec = spex::systems::system_by_name("Apache").unwrap();
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let analysis = Spex::analyze(built.module.clone(), &anns);
    let report = DesignReport::analyze(&analysis, &built.gen.manual);
    // Apache mixes case conventions (Table 6) and has one overruled enum
    // (Table 8) and 27 unsafely parsed parameters.
    assert!(report.case.is_inconsistent());
    assert_eq!(report.overruling.len(), 1);
    let unsafe_params = spex::design::unsafe_api::affected_params(&report.unsafe_apis);
    assert_eq!(unsafe_params.len(), 27);
    // MaxMemFree is the KB outlier among byte-sized parameters.
    assert!(report.units.size_inconsistent());
    assert!(report
        .units
        .size_minority()
        .iter()
        .any(|p| p.as_str() == "MaxMemFree"));
}
