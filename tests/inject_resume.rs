//! Resume oracle: SPEX-INJ's checkpoint-resumed campaign against a fresh
//! VM per misconfiguration.
//!
//! `InjectionCampaign::run` walks one pristine VM through the template and
//! runs each misconfiguration on a clone of it, from the first setting the
//! misconfiguration changes. The reference here runs from scratch: a new
//! world and VM per misconfiguration, every setting of the mutated file,
//! then startup and tests. Every `RunOutcome` field — the misconfiguration,
//! reaction, phase, logs, pinpointing, failed test and cost — must agree.
//!
//! Release builds (`cargo test --release --test inject_resume`) compare
//! every generated misconfiguration of the 7 catalog systems; debug builds
//! a systematic sample of each.

use spex::conf::ConfFile;
use spex::core::{Annotation, Spex};
use spex::inject::harness::{intended_value, pinpoints};
use spex::inject::{
    genrule, standard_rules, CampaignOptions, InjectionCampaign, Misconfig, Phase, Reaction,
    RunOutcome, TestCase, TestTarget,
};
use spex::lang::diag::Span;
use spex::systems::BuiltSystem;
use spex::vm::{Signal, Value, Vm, VmHalt, World};
use std::collections::HashMap;

// --- The fresh-VM reference -------------------------------------------------

enum Exit {
    Halt(VmHalt),
    Refused,
    TestFailed,
    AllPassed,
}

/// Runs `m` from scratch: a new world and VM, the whole mutated file,
/// startup, then the test suite.
fn fresh(target: &TestTarget<'_>, options: CampaignOptions, m: &Misconfig) -> RunOutcome {
    let mut conf = ConfFile::parse(&target.template_conf, target.dialect);
    conf.set(&m.param, &m.value);
    for (p, v) in &m.also_set {
        conf.set(p, v);
    }
    let mut vm = Vm::new(target.module, (target.world)());

    for (name, value) in conf.settings() {
        match vm.call(&target.config_entry, &[Value::str(name), Value::str(value)]) {
            Ok(ret) if ret.as_int().unwrap_or(0) != 0 => {
                return finish(target, m, &vm, Phase::Config, Exit::Refused, None, 0)
            }
            Ok(_) => {}
            Err(halt) => return finish(target, m, &vm, Phase::Config, Exit::Halt(halt), None, 0),
        }
    }

    match vm.call(&target.startup, &[]) {
        Ok(ret) if ret.as_int().unwrap_or(0) != 0 => {
            return finish(target, m, &vm, Phase::Startup, Exit::Refused, None, 0)
        }
        Ok(_) => {}
        Err(halt) => return finish(target, m, &vm, Phase::Startup, Exit::Halt(halt), None, 0),
    }

    let mut tests = target.tests.clone();
    if options.sort_tests_by_cost {
        tests.sort_by_key(|t| t.cost);
    }
    let mut cost_spent = 0u64;
    let mut first_failure: Option<String> = None;
    for t in &tests {
        cost_spent += t.cost as u64;
        match vm.call(&t.func, &[]) {
            Ok(ret) => {
                if ret.as_int().unwrap_or(0) != 0 && first_failure.is_none() {
                    first_failure = Some(t.name.clone());
                    if options.stop_at_first_failure {
                        break;
                    }
                }
            }
            Err(halt) => {
                let phase = Phase::Test(t.name.clone());
                return finish(
                    target,
                    m,
                    &vm,
                    phase,
                    Exit::Halt(halt),
                    first_failure,
                    cost_spent,
                );
            }
        }
    }
    if let Some(failed) = first_failure {
        let phase = Phase::Test(failed.clone());
        return finish(
            target,
            m,
            &vm,
            phase,
            Exit::TestFailed,
            Some(failed),
            cost_spent,
        );
    }
    finish(
        target,
        m,
        &vm,
        Phase::Done,
        Exit::AllPassed,
        None,
        cost_spent,
    )
}

/// Classifies a finished run against Table 3.
fn finish(
    target: &TestTarget<'_>,
    m: &Misconfig,
    vm: &Vm<'_>,
    phase: Phase,
    exit: Exit,
    failed_test: Option<String>,
    cost_spent: u64,
) -> RunOutcome {
    let logs = vm.log_text();
    let conf_line = ConfFile::parse(&target.template_conf, target.dialect).line_of(&m.param);
    let pinpointed = pinpoints(&logs, m, conf_line);
    let reaction = match exit {
        Exit::Halt(VmHalt::Fatal(sig)) => Reaction::Crash(sig),
        Exit::Halt(VmHalt::Hang) => Reaction::Hang,
        Exit::Halt(VmHalt::Internal(_)) => Reaction::Crash(Signal::Segv),
        _ if pinpointed => Reaction::GoodReaction,
        Exit::Halt(VmHalt::Exit(0)) => Reaction::Benign,
        Exit::Halt(VmHalt::Exit(_)) | Exit::Refused => Reaction::EarlyTermination,
        Exit::TestFailed => Reaction::FunctionalFailure,
        Exit::AllPassed => silent(target, m, vm),
    };
    RunOutcome {
        misconfig: m.clone(),
        reaction,
        phase,
        logs,
        pinpointed,
        failed_test,
        cost_spent,
    }
}

/// All tests passed and nothing was pinpointed: a silent violation, a
/// silent ignorance, or benign.
fn silent(target: &TestTarget<'_>, m: &Misconfig, vm: &Vm<'_>) -> Reaction {
    if let Some(global) = target.param_globals.get(&m.param) {
        if let (Some(actual), Some(intended)) = (vm.global_value(global), intended_value(&m.value))
        {
            let agree = match (actual, &intended) {
                (Value::Int(a), Value::Int(b)) => a == b,
                (Value::Float(a), Value::Int(b)) => (*a - *b as f64).abs() < 1e-9,
                (Value::Str(a), Value::Str(b)) => a == b,
                _ => true,
            };
            if !agree {
                return Reaction::SilentViolation;
            }
        }
    }
    if m.violates == "control-dep" {
        return Reaction::SilentIgnorance;
    }
    Reaction::Benign
}

/// Asserts that `run` and one-at-a-time `run_one` both equal the fresh
/// reference on every misconfiguration, in input order.
fn assert_resumed_equals_fresh(
    campaign: &InjectionCampaign<'_>,
    options: CampaignOptions,
    ms: &[Misconfig],
) {
    let resumed = campaign.run(ms);
    assert_eq!(resumed.len(), ms.len());
    for (m, got) in ms.iter().zip(&resumed) {
        let want = fresh(campaign.target(), options, m);
        assert_eq!(
            got, &want,
            "{} = {:?} (also {:?})",
            m.param, m.value, m.also_set
        );
        assert_eq!(
            &campaign.run_one(m),
            &want,
            "run_one {} = {:?}",
            m.param,
            m.value
        );
    }
}

// --- Edge cases on a small subject -------------------------------------------

/// Every setting is counted, logged and draws from the random stream, and
/// one creates a directory, so a run resumed from the wrong state shows in
/// its logs, its test results or its silent-violation check.
const SUBJECT: &str = r#"
    int threads = 4;
    int intlen = 8;
    int checked = 10;
    int seen = 0;
    int table[16];
    int handle_config(char* name, char* value) {
        seen += 1;
        int r = rand();
        printf("setting %d (%d)", seen, r % 7);
        if (strcmp(name, "threads") == 0) { threads = atoi(value); return 0; }
        if (strcmp(name, "intlen") == 0) {
            intlen = atoi(value);
            if (intlen > 255) { intlen = 255; }
            return 0;
        }
        if (strcmp(name, "checked") == 0) {
            checked = atoi(value);
            if (checked < 1 || checked > 100) {
                fprintf(stderr, "invalid value for checked: %s", value);
                return -1;
            }
            return 0;
        }
        if (strcmp(name, "logdir") == 0) { mkdir(value, 493); return 0; }
        if (strcmp(name, "nap") == 0) { sleep(atoi(value)); return 0; }
        if (strcmp(name, "work") == 0 || strcmp(name, "more") == 0) {
            int n = atoi(value);
            int i = 0;
            while (i < n) { i += 1; }
            return 0;
        }
        if (strcmp(name, "quit") == 0) { exit(atoi(value)); }
        return 0;
    }
    int startup() {
        table[threads] = 1;
        if (seen < 3) { return 1; }
        return 0;
    }
    int test_threads() { if (threads > 8) { return 1; } return 0; }
    int test_roll() { return rand() % 2; }
    int test_logdir() { return access("/var/log/app", 0); }
"#;

fn subject() -> spex::ir::Module {
    let program = spex::lang::parse_program(SUBJECT).unwrap();
    spex::ir::lower_program(&program).unwrap()
}

fn subject_target<'m>(module: &'m spex::ir::Module, template: &str) -> TestTarget<'m> {
    let globals: HashMap<String, String> = ["threads", "intlen", "checked"]
        .iter()
        .map(|g| (g.to_string(), g.to_string()))
        .collect();
    let test = |name: &str, cost| TestCase {
        name: name.into(),
        func: format!("test_{name}"),
        cost,
    };
    TestTarget {
        name: "subject".into(),
        module,
        dialect: spex::conf::Dialect::KeyValue,
        template_conf: template.into(),
        config_entry: "handle_config".into(),
        startup: "startup".into(),
        tests: vec![test("roll", 3), test("threads", 1), test("logdir", 2)],
        world: Box::new(World::default),
        param_globals: globals,
    }
}

fn mc(param: &str, value: &str, also_set: &[(&str, &str)]) -> Misconfig {
    Misconfig {
        param: param.into(),
        value: value.into(),
        also_set: also_set
            .iter()
            .map(|(p, v)| (p.to_string(), v.to_string()))
            .collect(),
        description: String::new(),
        violates: "data-range",
        origin: ("handle_config".into(), Span::unknown()),
    }
}

/// `intlen` is set twice: `ConfFile::set` replaces only its first setting.
const TEMPLATE: &str =
    "# subject defaults\nthreads = 4\nintlen = 8\n\nlogdir = /var/log/app\nchecked = 10\nintlen = 16\n";

/// One misconfiguration of each shape, listed with resume points out of
/// order (later template positions first).
fn edge_cases() -> Vec<Misconfig> {
    vec![
        // Appended keys: resume after the whole template.
        mc("nap", "99999", &[]),
        mc("quit", "3", &[]),
        mc("newkey", "1", &[("otherkey", "2"), ("newkey", "5")]),
        // A late template setting.
        mc("checked", "999", &[]),
        mc("checked", "50", &[]),
        // An `also_set` key placed before the main one.
        mc("checked", "0", &[("intlen", "300")]),
        mc("logdir", "/nonexistent/dir", &[("threads", "9")]),
        // A value equal to the template's.
        mc("intlen", "8", &[]),
        mc("threads", "4", &[]),
        // The first setting, a crash, a key set twice in the template and
        // a co-setting appended.
        mc("threads", "100000", &[]),
        mc("threads", "12", &[]),
        mc("intlen", "9000000000", &[("spin", "0")]),
        // Duplicates.
        mc("intlen", "300", &[]),
        mc("intlen", "300", &[]),
    ]
}

#[test]
fn every_edge_case_resumes_like_a_fresh_run() {
    let module = subject();
    let campaign = InjectionCampaign::new(subject_target(&module, TEMPLATE));
    let cases = edge_cases();
    assert_resumed_equals_fresh(&campaign, CampaignOptions::default(), &cases);

    // The outcomes come back in input order, not resume order.
    let outcomes = campaign.run(&cases);
    let back: Vec<&Misconfig> = outcomes.iter().map(|o| &o.misconfig).collect();
    assert_eq!(back, cases.iter().collect::<Vec<_>>());
    // The subject really exercises the classes the oracle compares.
    let reactions: Vec<&Reaction> = outcomes.iter().map(|o| &o.reaction).collect();
    for expected in [
        Reaction::Hang,
        Reaction::EarlyTermination,
        Reaction::GoodReaction,
        Reaction::Crash(Signal::Segv),
        Reaction::SilentViolation,
        Reaction::FunctionalFailure,
    ] {
        assert!(
            reactions.contains(&&expected),
            "{expected:?} not in {reactions:?}"
        );
    }
    assert!(campaign.run(&[]).is_empty());
}

#[test]
fn a_resumed_run_keeps_the_prefix_steps_against_the_hang_budget() {
    // The template's `work` takes about 60% of the 2M-step budget, so
    // the appended `more` hangs only if the resumed copy carries the
    // prefix's steps.
    let module = subject();
    let template = "work = 200000\nthreads = 4\n";
    let campaign = InjectionCampaign::new(subject_target(&module, template));
    let cases = [mc("threads", "5", &[("more", "200000")])];
    let outcomes = campaign.run(&cases);
    assert_eq!(outcomes[0].reaction, Reaction::Hang);
    assert_eq!(
        outcomes[0],
        fresh(campaign.target(), CampaignOptions::default(), &cases[0])
    );
}

#[test]
fn every_option_set_resumes_like_a_fresh_run() {
    let module = subject();
    for (stop_at_first_failure, sort_tests_by_cost) in
        [(true, true), (false, true), (true, false), (false, false)]
    {
        let options = CampaignOptions {
            stop_at_first_failure,
            sort_tests_by_cost,
        };
        let campaign =
            InjectionCampaign::new(subject_target(&module, TEMPLATE)).with_options(options);
        assert_resumed_equals_fresh(&campaign, options, &edge_cases());
    }
}

#[test]
fn a_refused_or_halting_template_stops_every_later_resume() {
    let module = subject();
    // The pristine walk is refused at `checked = 500` (setting 2); the
    // misconfigurations resuming after it share its refusal, those before
    // it replay it themselves, and one replacing it runs to the end.
    let refused = "threads = 4\nintlen = 8\nchecked = 500\nlogdir = /var/log/app\n";
    // The pristine walk hangs at `nap = 99999` and exits at `quit = 2`.
    let hangs = "threads = 4\nnap = 99999\nintlen = 8\n";
    let quits = "threads = 4\nquit = 2\nintlen = 8\n";
    for template in [refused, hangs, quits] {
        let campaign = InjectionCampaign::new(subject_target(&module, template));
        let mut cases = edge_cases();
        cases.extend([
            mc("checked", "20", &[]),
            mc("nap", "0", &[]),
            mc("quit", "0", &[]),
            mc("logdir", "/tmp/x", &[]),
        ]);
        assert_resumed_equals_fresh(&campaign, CampaignOptions::default(), &cases);
        let phases: Vec<Phase> = campaign.run(&cases).into_iter().map(|o| o.phase).collect();
        assert!(phases.contains(&Phase::Config), "{template:?}: {phases:?}");
    }
}

#[test]
fn missing_entry_points_fail_like_a_call_by_name() {
    let module = subject();
    let mut target = subject_target(&module, TEMPLATE);
    target.tests.push(TestCase {
        name: "ghost".into(),
        func: "test_ghost".into(),
        cost: 0,
    });
    let campaign = InjectionCampaign::new(target);
    assert_resumed_equals_fresh(&campaign, CampaignOptions::default(), &edge_cases());

    for (entry, phase) in [("config", Phase::Config), ("startup", Phase::Startup)] {
        let mut target = subject_target(&module, TEMPLATE);
        match entry {
            "config" => target.config_entry = "no_such_handler".into(),
            _ => target.startup = "no_such_startup".into(),
        }
        let campaign = InjectionCampaign::new(target);
        assert_resumed_equals_fresh(&campaign, CampaignOptions::default(), &edge_cases());
        let out = campaign.run_one(&mc("threads", "12", &[]));
        assert_eq!(out.reaction, Reaction::Crash(Signal::Segv), "{entry}");
        assert_eq!(out.phase, phase);
    }
}

// --- The 7 catalog systems ------------------------------------------------------

/// Misconfigurations per system a debug build compares (every `len / N`-th
/// one); release builds compare all of them.
const DEBUG_SAMPLE: usize = 4;

/// Compares the resumed campaign against the fresh reference on one catalog
/// system's generated misconfigurations.
fn catalog_oracle(system: &str) {
    let built = BuiltSystem::build(spex::systems::system_by_name(system).unwrap());
    let anns = Annotation::parse(&built.gen.annotations).unwrap();
    let analysis = Spex::analyze(built.module.clone(), &anns);
    let constraints: Vec<_> = analysis.all_constraints().cloned().collect();
    let mut misconfigs = genrule::generate_all(&standard_rules(), &constraints);
    if cfg!(debug_assertions) {
        let step = (misconfigs.len() / DEBUG_SAMPLE).max(1);
        misconfigs = misconfigs.into_iter().step_by(step).collect();
    }
    assert!(!misconfigs.is_empty(), "{system}: nothing to inject");
    let campaign = InjectionCampaign::new(TestTarget {
        name: system.into(),
        module: &built.module,
        dialect: built.gen.dialect,
        template_conf: built.gen.template_conf.clone(),
        config_entry: "handle_config".into(),
        startup: "startup".into(),
        tests: built.gen.tests.clone(),
        world: Box::new(|| built.world()),
        param_globals: built.gen.param_globals.clone(),
    });
    let resumed = campaign.run(&misconfigs);
    assert_eq!(resumed.len(), misconfigs.len());
    for (m, got) in misconfigs.iter().zip(&resumed) {
        let want = fresh(campaign.target(), CampaignOptions::default(), m);
        assert_eq!(got, &want, "{system}: {} = {:?}", m.param, m.value);
    }
}

#[test]
fn openldap_resumes_like_fresh_runs() {
    catalog_oracle("OpenLDAP");
}

#[test]
fn apache_resumes_like_fresh_runs() {
    catalog_oracle("Apache");
}

#[test]
fn vsftp_resumes_like_fresh_runs() {
    catalog_oracle("VSFTP");
}

#[test]
fn postgresql_resumes_like_fresh_runs() {
    catalog_oracle("PostgreSQL");
}

#[test]
fn mysql_resumes_like_fresh_runs() {
    catalog_oracle("MySQL");
}

#[test]
fn squid_resumes_like_fresh_runs() {
    catalog_oracle("Squid");
}

#[test]
fn storage_a_resumes_like_fresh_runs() {
    catalog_oracle("Storage-A");
}
