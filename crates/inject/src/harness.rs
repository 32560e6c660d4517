//! The injection-testing harness (§3.1).
//!
//! For each generated misconfiguration the harness feeds the mutated
//! configuration file to the system's config entry point, runs startup,
//! then drives the system's own functional test cases — shortest first,
//! stopping at the first failure (the paper's two optimizations, both
//! individually togglable for the ablation benchmark) — and classifies the
//! observed reaction against Table 3.
//!
//! Runs resume from a pristine checkpoint rather than starting over.
//! `ConfFile::set` replaces a key's first setting in place or appends the
//! key, so every template setting before the first one a misconfiguration
//! changes replays the pristine run exactly. A campaign walks one VM
//! through the template once and runs each misconfiguration on a clone of
//! it taken just before that setting. The clone carries the world, logs,
//! step count and random stream, so every outcome equals that of a fresh
//! world and VM fed the whole mutated file.

use crate::genrule::Misconfig;
use spex_conf::{ConfFile, Dialect};
use spex_ir::{FuncId, Module};
use spex_vm::{Signal, Value, Vm, VmHalt, World};
use std::collections::HashMap;

/// One functional test case shipped with the subject system.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Display name.
    pub name: String,
    /// VM function to call; returns 0 on pass.
    pub func: String,
    /// Relative cost (virtual runtime units) used for shortest-first
    /// ordering.
    pub cost: u32,
}

/// A system under injection testing.
pub struct TestTarget<'m> {
    /// System name (reporting only).
    pub name: String,
    /// The lowered module.
    pub module: &'m Module,
    /// Config-file dialect.
    pub dialect: Dialect,
    /// The template (default) configuration file.
    pub template_conf: String,
    /// Function called as `f(name, value) -> int` for every setting; a
    /// nonzero return means the parser rejected the setting and the system
    /// stops (like a server refusing to start).
    pub config_entry: String,
    /// Function called as `f() -> int` after configuration; nonzero means
    /// startup failed.
    pub startup: String,
    /// The system's functional test suite.
    pub tests: Vec<TestCase>,
    /// Fresh-world factory (occupies ports, creates files...).
    pub world: Box<dyn Fn() -> World + Send + Sync + 'm>,
    /// Parameter → backing-global name, for the silent-violation check.
    /// Only parameters whose global stores the input verbatim belong here.
    pub param_globals: HashMap<String, String>,
}

/// Which phase of a run produced the reaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Phase {
    /// While parsing the configuration.
    Config,
    /// During startup.
    Startup,
    /// While running the named functional test.
    Test(String),
    /// After all phases passed.
    Done,
}

/// The classified system reaction (Table 3), plus the two non-vulnerable
/// outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reaction {
    /// The system crashed (signal) — most severe.
    Crash(Signal),
    /// The system hung.
    Hang,
    /// The system exited without pinpointing the injected error.
    EarlyTermination,
    /// A functional test failed without a pinpointing message.
    FunctionalFailure,
    /// The system silently changed the configured value.
    SilentViolation,
    /// The system silently ignored the setting (control-dependency
    /// violations).
    SilentIgnorance,
    /// The system pinpointed the faulty parameter — the desired behaviour.
    GoodReaction,
    /// The system tolerated the value without misbehaving.
    Benign,
}

impl Reaction {
    /// Whether this reaction is a misconfiguration vulnerability.
    pub fn is_vulnerability(&self) -> bool {
        !matches!(self, Reaction::GoodReaction | Reaction::Benign)
    }

    /// The Table 5(a) column this reaction falls into (`None` for
    /// non-vulnerabilities).
    pub fn column(&self) -> Option<&'static str> {
        Some(match self {
            Reaction::Crash(_) | Reaction::Hang => "crash-hang",
            Reaction::EarlyTermination => "early-termination",
            Reaction::FunctionalFailure => "functional-failure",
            Reaction::SilentViolation => "silent-violation",
            Reaction::SilentIgnorance => "silent-ignorance",
            _ => return None,
        })
    }
}

/// Result of injecting one misconfiguration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// What was injected.
    pub misconfig: Misconfig,
    /// The classified reaction.
    pub reaction: Reaction,
    /// Where it surfaced.
    pub phase: Phase,
    /// Captured log text.
    pub logs: String,
    /// Whether the logs pinpointed the parameter (name, value or config
    /// line).
    pub pinpointed: bool,
    /// The failing test, if any.
    pub failed_test: Option<String>,
    /// Test-cost units consumed (for the optimization ablation).
    pub cost_spent: u64,
}

/// Campaign options: the §3.1 testing optimizations, togglable for
/// benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Stop a run at the first failed test case.
    pub stop_at_first_failure: bool,
    /// Run the shortest test cases first.
    pub sort_tests_by_cost: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            stop_at_first_failure: true,
            sort_tests_by_cost: true,
        }
    }
}

/// Drives a full injection campaign over one target.
pub struct InjectionCampaign<'m> {
    target: TestTarget<'m>,
    options: CampaignOptions,
}

impl<'m> InjectionCampaign<'m> {
    /// Creates a campaign with default (paper) options.
    pub fn new(target: TestTarget<'m>) -> Self {
        InjectionCampaign {
            target,
            options: CampaignOptions::default(),
        }
    }

    /// Overrides the optimization options.
    pub fn with_options(mut self, options: CampaignOptions) -> Self {
        self.options = options;
        self
    }

    /// The target under test.
    pub fn target(&self) -> &TestTarget<'m> {
        &self.target
    }

    /// Runs every misconfiguration and returns per-run outcomes, in input
    /// order.
    ///
    /// The template is parsed and the entry points and test order are
    /// resolved once. One pristine VM then walks the template's settings
    /// in resume-point order, and each misconfiguration runs on a clone of
    /// it from its first changed setting: the rest of its file, startup
    /// and tests. If the pristine walk is itself refused or halts at a
    /// setting, every misconfiguration resuming after it takes that
    /// outcome. Each outcome equals that of a fresh world and VM.
    pub fn run(&self, misconfigs: &[Misconfig]) -> Vec<RunOutcome> {
        let _span = spex_obs::span("inject.campaign");
        let template = ConfFile::parse(&self.target.template_conf, self.target.dialect);
        let settings: Vec<(&str, &str)> = template.settings().collect();
        let injections: Vec<Injection<'_>> = misconfigs
            .iter()
            .map(|m| Injection::new(m, &template, &settings))
            .collect();
        let mut order: Vec<usize> = (0..injections.len()).collect();
        order.sort_by_key(|&i| injections[i].resume);

        let mut pristine = Vm::new(self.target.module, (self.target.world)());
        let entries = Entries::resolve(&pristine, &self.target, self.options);
        // Template settings the pristine VM has run, and how it stopped if
        // one of them was refused or halted.
        let mut walked = 0;
        let mut stopped: Option<Exit> = None;
        let mut outcomes: Vec<(usize, RunOutcome)> = Vec::with_capacity(order.len());
        for i in order {
            let run = &injections[i];
            let _span = spex_obs::span!("inject.run", param = run.m.param);
            while stopped.is_none() && walked < run.resume {
                let (name, value) = settings[walked];
                stopped = entries.configure(&mut pristine, name, value);
                walked += 1;
            }
            let outcome = match &stopped {
                Some(exit) => self.finish(run, &pristine, Phase::Config, exit.clone(), None, 0),
                None => self.resume(run, &settings, &entries, pristine.clone()),
            };
            outcomes.push((i, outcome));
        }
        outcomes.sort_by_key(|(i, _)| *i);
        let outcomes: Vec<RunOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
        if spex_obs::enabled() {
            spex_obs::counter("inject.injections", outcomes.len() as u64);
            spex_obs::counter(
                "inject.vulnerabilities",
                outcomes
                    .iter()
                    .filter(|o| o.reaction.is_vulnerability())
                    .count() as u64,
            );
        }
        outcomes
    }

    /// Runs a single misconfiguration end to end: [`run`](Self::run) of
    /// one item.
    pub fn run_one(&self, m: &Misconfig) -> RunOutcome {
        self.run(std::slice::from_ref(m))
            .pop()
            .expect("one outcome per misconfiguration")
    }

    /// Runs `run` on `vm`, the pristine VM after the template settings
    /// before its resume point: the rest of its file, startup, then tests.
    fn resume(
        &self,
        run: &Injection<'_>,
        settings: &[(&str, &str)],
        entries: &Entries<'_>,
        mut vm: Vm<'_>,
    ) -> RunOutcome {
        // Phase 1: configuration, from the first changed setting on.
        for (name, value) in run.settings_from_resume(settings) {
            if let Some(exit) = entries.configure(&mut vm, name, value) {
                return self.finish(run, &vm, Phase::Config, exit, None, 0);
            }
        }

        // Phase 2: startup.
        if let Some(exit) = stops(&mut vm, &entries.startup, &[]) {
            return self.finish(run, &vm, Phase::Startup, exit, None, 0);
        }

        // Phase 3: the system's own test suite.
        let mut cost_spent = 0u64;
        let mut first_failure: Option<String> = None;
        for (t, f) in &entries.tests {
            cost_spent += t.cost as u64;
            match call(&mut vm, f, &[]) {
                Ok(ret) => {
                    if ret.as_int().unwrap_or(0) != 0 && first_failure.is_none() {
                        first_failure = Some(t.name.clone());
                        if self.options.stop_at_first_failure {
                            break;
                        }
                    }
                }
                Err(halt) => {
                    return self.finish(
                        run,
                        &vm,
                        Phase::Test(t.name.clone()),
                        Exit::Halt(halt),
                        first_failure,
                        cost_spent,
                    )
                }
            }
        }
        if let Some(failed) = first_failure {
            return self.finish(
                run,
                &vm,
                Phase::Test(failed.clone()),
                Exit::TestFailed,
                Some(failed),
                cost_spent,
            );
        }

        // Phase 4: everything passed — check for silent misbehaviour.
        self.finish(run, &vm, Phase::Done, Exit::AllPassed, None, cost_spent)
    }

    fn finish(
        &self,
        run: &Injection<'_>,
        vm: &Vm<'_>,
        phase: Phase,
        exit: Exit,
        failed_test: Option<String>,
        cost_spent: u64,
    ) -> RunOutcome {
        let m = run.m;
        let logs = vm.log_text();
        let pinpointed = pinpoints(&logs, m, run.line);

        let reaction = match exit {
            Exit::Halt(VmHalt::Fatal(sig)) => Reaction::Crash(sig),
            Exit::Halt(VmHalt::Hang) => Reaction::Hang,
            Exit::Halt(VmHalt::Internal(_)) => Reaction::Crash(Signal::Segv),
            Exit::Halt(VmHalt::Exit(code)) => {
                if pinpointed {
                    Reaction::GoodReaction
                } else if code == 0 {
                    Reaction::Benign
                } else {
                    Reaction::EarlyTermination
                }
            }
            Exit::Refused => {
                if pinpointed {
                    Reaction::GoodReaction
                } else {
                    Reaction::EarlyTermination
                }
            }
            Exit::TestFailed => {
                if pinpointed {
                    Reaction::GoodReaction
                } else {
                    Reaction::FunctionalFailure
                }
            }
            Exit::AllPassed => self.classify_silent(m, vm, pinpointed),
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

    /// All tests passed: detect silent violation (effective value differs
    /// from the configured one) and silent ignorance (control-dependency
    /// injections with no feedback).
    fn classify_silent(&self, m: &Misconfig, vm: &Vm<'_>, pinpointed: bool) -> Reaction {
        if pinpointed {
            return Reaction::GoodReaction;
        }
        if let Some(global) = self.target.param_globals.get(&m.param) {
            if let (Some(actual), Some(intended)) =
                (vm.global_value(global), intended_value(&m.value))
            {
                if !values_agree(actual, &intended) {
                    return Reaction::SilentViolation;
                }
            }
        }
        if m.violates == "control-dep" {
            return Reaction::SilentIgnorance;
        }
        Reaction::Benign
    }
}

#[derive(Clone)]
enum Exit {
    Halt(VmHalt),
    Refused,
    TestFailed,
    AllPassed,
}

/// One misconfiguration laid over the template. `ConfFile::set` replaces
/// a key's first setting in place or appends the key, so the mutated file
/// is the template with `replaced` values, then `appended` settings.
struct Injection<'a> {
    m: &'a Misconfig,
    /// The first template setting the misconfiguration changes, or the
    /// template's setting count when it only appends keys.
    resume: usize,
    /// Replaced values, by template setting index.
    replaced: Vec<(usize, &'a str)>,
    /// Appended settings, in file order.
    appended: Vec<(&'a str, &'a str)>,
    /// The injected parameter's line in the template, for pinpointing.
    line: Option<usize>,
}

impl<'a> Injection<'a> {
    /// Lays `m` over `template`, whose settings are `settings`.
    fn new(m: &'a Misconfig, template: &ConfFile, settings: &[(&str, &str)]) -> Injection<'a> {
        let mut replaced: Vec<(usize, &str)> = Vec::new();
        let mut appended: Vec<(&str, &str)> = Vec::new();
        let sets =
            std::iter::once((&m.param, &m.value)).chain(m.also_set.iter().map(|(p, v)| (p, v)));
        for (name, value) in sets {
            if let Some(at) = settings.iter().position(|&(n, _)| n == name) {
                match replaced.iter_mut().find(|(i, _)| *i == at) {
                    Some(r) => r.1 = value,
                    None => replaced.push((at, value)),
                }
            } else {
                match appended.iter_mut().find(|(n, _)| *n == name) {
                    Some(a) => a.1 = value,
                    None => appended.push((name, value)),
                }
            }
        }
        Injection {
            m,
            resume: replaced
                .iter()
                .map(|&(i, _)| i)
                .min()
                .unwrap_or(settings.len()),
            replaced,
            appended,
            line: template.line_of(&m.param),
        }
    }

    /// The mutated file's settings from the resume point on.
    fn settings_from_resume<'s>(
        &'s self,
        template: &'s [(&'s str, &'s str)],
    ) -> impl Iterator<Item = (&'s str, &'s str)> + 's {
        let replaced = |i: usize| {
            self.replaced
                .iter()
                .find(|&&(j, _)| j == i)
                .map(|&(_, v)| v)
        };
        template[self.resume..]
            .iter()
            .zip(self.resume..)
            .map(move |(&(name, value), i)| (name, replaced(i).unwrap_or(value)))
            .chain(self.appended.iter().copied())
    }
}

/// The functions a run calls, resolved once per campaign. A missing one
/// keeps the error a call by name returns.
struct Entries<'t> {
    config: Result<FuncId, VmHalt>,
    startup: Result<FuncId, VmHalt>,
    /// The test suite, in run order.
    tests: Vec<(&'t TestCase, Result<FuncId, VmHalt>)>,
}

impl<'t> Entries<'t> {
    fn resolve(vm: &Vm<'_>, target: &'t TestTarget<'_>, options: CampaignOptions) -> Entries<'t> {
        let mut tests: Vec<&TestCase> = target.tests.iter().collect();
        if options.sort_tests_by_cost {
            tests.sort_by_key(|t| t.cost);
        }
        Entries {
            config: vm.resolve(&target.config_entry),
            startup: vm.resolve(&target.startup),
            tests: tests
                .into_iter()
                .map(|t| (t, vm.resolve(&t.func)))
                .collect(),
        }
    }

    /// Feeds one setting to the config entry point.
    fn configure(&self, vm: &mut Vm<'_>, name: &str, value: &str) -> Option<Exit> {
        stops(vm, &self.config, &[Value::str(name), Value::str(value)])
    }
}

/// Calls `f`, or returns the error its name resolved to.
fn call(vm: &mut Vm<'_>, f: &Result<FuncId, VmHalt>, args: &[Value]) -> Result<Value, VmHalt> {
    vm.call_id(f.clone()?, args)
}

/// Calls a config or startup function: `None` when it returned 0, else
/// how the system stopped (a nonzero return means it refused to start).
fn stops(vm: &mut Vm<'_>, f: &Result<FuncId, VmHalt>, args: &[Value]) -> Option<Exit> {
    match call(vm, f, args) {
        Ok(ret) if ret.as_int().unwrap_or(0) != 0 => Some(Exit::Refused),
        Ok(_) => None,
        Err(halt) => Some(Exit::Halt(halt)),
    }
}

/// Whether the captured logs pinpoint the misconfiguration: the injected
/// parameter's name, its value, a co-setting's name, or the config-file
/// line number (§3.1).
pub fn pinpoints(logs: &str, m: &Misconfig, conf_line: Option<usize>) -> bool {
    if logs.is_empty() {
        return false;
    }
    let lower = logs.to_lowercase();
    if lower.contains(&m.param.to_lowercase()) {
        return true;
    }
    if m.value.len() >= 2 && logs.contains(&m.value) {
        return true;
    }
    if m.also_set
        .iter()
        .any(|(p, _)| lower.contains(&p.to_lowercase()))
    {
        return true;
    }
    if let Some(line) = conf_line {
        if lower.contains(&format!("line {line}")) {
            return true;
        }
    }
    false
}

/// The user's *intention* for a raw configuration value: full-precision
/// number with unit suffixes honoured, boolean words, else the raw string.
/// Comparing this against the system's effective value exposes silent
/// violations (e.g. `atoi("9G")` storing 9 for a 9-gigabyte intention).
pub fn intended_value(raw: &str) -> Option<Value> {
    let s = raw.trim();
    if s.is_empty() {
        return None;
    }
    match s.to_ascii_lowercase().as_str() {
        "on" | "yes" | "true" | "enable" | "enabled" => return Some(Value::Int(1)),
        "off" | "no" | "false" | "disable" | "disabled" => return Some(Value::Int(0)),
        _ => {}
    }
    // Number with optional unit suffix.
    let (digits, suffix) = split_number(s);
    if !digits.is_empty() && digits.chars().skip(1).all(|c| c.is_ascii_digit()) {
        let base: i64 = digits.parse().ok()?;
        let mult = match suffix.to_ascii_uppercase().as_str() {
            "" => 1,
            "K" | "KB" => 1 << 10,
            "M" | "MB" => 1 << 20,
            "G" | "GB" => 1 << 30,
            _ => return Some(Value::Str(s.to_string())),
        };
        return Some(Value::Int(base.saturating_mul(mult)));
    }
    Some(Value::Str(s.to_string()))
}

fn split_number(s: &str) -> (&str, &str) {
    let mut end = 0;
    let bytes = s.as_bytes();
    if end < bytes.len() && (bytes[end] == b'-' || bytes[end] == b'+') {
        end += 1;
    }
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    (&s[..end], &s[end..])
}

fn values_agree(actual: &Value, intended: &Value) -> bool {
    match (actual, intended) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Float(a), Value::Int(b)) => (*a - *b as f64).abs() < 1e-9,
        (Value::Str(a), Value::Str(b)) => a == b,
        // Incomparable shapes: assume agreement (no false positives).
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spex_lang::diag::Span;

    fn mc(param: &str, value: &str, violates: &'static str) -> Misconfig {
        Misconfig {
            param: param.into(),
            value: value.into(),
            also_set: vec![],
            description: String::new(),
            violates,
            origin: ("f".into(), Span::unknown()),
        }
    }

    /// A tiny subject system: one int param with a crash on large values,
    /// one silently clamped param, one good-reaction param.
    const SUBJECT: &str = r#"
        int threads = 4;
        int intlen = 8;
        int checked = 10;
        int table[16];
        int handle_config(char* name, char* value) {
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
            return 0;
        }
        int startup() {
            table[threads] = 1;
            return 0;
        }
        int test_smoke() { return 0; }
    "#;

    fn target(m: &spex_ir::Module) -> TestTarget<'_> {
        let mut param_globals = HashMap::new();
        param_globals.insert("threads".to_string(), "threads".to_string());
        param_globals.insert("intlen".to_string(), "intlen".to_string());
        TestTarget {
            name: "toy".into(),
            module: m,
            dialect: Dialect::KeyValue,
            template_conf: "threads = 4\nintlen = 8\nchecked = 10\n".into(),
            config_entry: "handle_config".into(),
            startup: "startup".into(),
            tests: vec![TestCase {
                name: "smoke".into(),
                func: "test_smoke".into(),
                cost: 1,
            }],
            world: Box::new(World::default),
            param_globals,
        }
    }

    fn module() -> spex_ir::Module {
        let p = spex_lang::parse_program(SUBJECT).unwrap();
        spex_ir::lower_program(&p).unwrap()
    }

    #[test]
    fn crash_on_out_of_bounds_write() {
        let m = module();
        let campaign = InjectionCampaign::new(target(&m));
        let out = campaign.run_one(&mc("threads", "100000", "data-range"));
        assert!(matches!(out.reaction, Reaction::Crash(Signal::Segv)));
        assert_eq!(out.phase, Phase::Startup);
        assert!(out.reaction.is_vulnerability());
    }

    #[test]
    fn silent_violation_on_clamped_param() {
        let m = module();
        let campaign = InjectionCampaign::new(target(&m));
        let out = campaign.run_one(&mc("intlen", "300", "data-range"));
        assert_eq!(out.reaction, Reaction::SilentViolation);
        assert_eq!(out.phase, Phase::Done);
    }

    #[test]
    fn good_reaction_when_pinpointed() {
        let m = module();
        let campaign = InjectionCampaign::new(target(&m));
        let out = campaign.run_one(&mc("checked", "999", "data-range"));
        assert_eq!(out.reaction, Reaction::GoodReaction);
        assert!(out.pinpointed);
        assert!(!out.reaction.is_vulnerability());
    }

    #[test]
    fn benign_when_value_is_fine() {
        let m = module();
        let campaign = InjectionCampaign::new(target(&m));
        let out = campaign.run_one(&mc("threads", "8", "basic-type"));
        assert_eq!(out.reaction, Reaction::Benign);
    }

    #[test]
    fn silent_violation_on_overflowing_atoi() {
        // "9000000000" wraps through atoi: the stored value differs from
        // the intention.
        let m = module();
        let campaign = InjectionCampaign::new(target(&m));
        let out = campaign.run_one(&mc("intlen", "9000000000", "basic-type"));
        assert_eq!(out.reaction, Reaction::SilentViolation);
    }

    #[test]
    fn pinpoint_matching_rules() {
        let m = mc("udp_port", "70000", "semantic-type");
        assert!(pinpoints("FATAL: invalid udp_port", &m, None));
        assert!(pinpoints("cannot bind to 70000", &m, None));
        assert!(pinpoints("error at line 7 of config", &m, Some(7)));
        assert!(!pinpoints("error at line 9 of config", &m, Some(7)));
        assert!(!pinpoints("Segmentation fault", &m, None));
        assert!(!pinpoints("", &m, None));
    }

    #[test]
    fn intended_value_parsing() {
        assert_eq!(intended_value("42"), Some(Value::Int(42)));
        assert_eq!(intended_value("-5"), Some(Value::Int(-5)));
        assert_eq!(intended_value("9G"), Some(Value::Int(9 << 30)));
        assert_eq!(intended_value("512MB"), Some(Value::Int(512 << 20)));
        assert_eq!(intended_value("on"), Some(Value::Int(1)));
        assert_eq!(intended_value("OFF"), Some(Value::Int(0)));
        assert_eq!(
            intended_value("/var/log"),
            Some(Value::Str("/var/log".into()))
        );
        assert_eq!(intended_value(""), None);
    }

    #[test]
    fn campaign_runs_all_misconfigs() {
        let m = module();
        let campaign = InjectionCampaign::new(target(&m));
        let outs = campaign.run(&[
            mc("threads", "100000", "data-range"),
            mc("intlen", "300", "data-range"),
            mc("threads", "8", "basic-type"),
        ]);
        assert_eq!(outs.len(), 3);
        assert_eq!(
            outs.iter()
                .filter(|o| o.reaction.is_vulnerability())
                .count(),
            2
        );
    }
}
