//! The measured phases of one run and the checks of their outputs.
//!
//! The program runs at one worker thread throughout. A run starts with one
//! set-up (input generation plus the warm session's first analysis, as
//! `spex daemon` does at start). Cold analyses (`spex analyze`, one space
//! at a time), batch checking (`spex check --format jsonl`, each pass one
//! slice of the corpus at a time), the closed-loop edit phase against the
//! warm session and injection campaigns (one slice at a time) then take
//! turns over [`ROUNDS`] rounds, so that every timed pass spans the run.
//! The last analysis (over the final sources) and the remaining set-ups
//! come last.

use std::collections::BTreeMap;
use std::time::Instant;

use spex::check::{CheckSession, ConstraintDb, DiagCode, FileReport, Fix, Report};
use spex::conf::ConfFile;
use spex::core::PassCounts;
use spex::inject::{genrule, standard_rules, InjectionCampaign, Misconfig, TestCase, TestTarget};
use spex::{JsonLinesRenderer, Workspace};

use crate::edits::{Change, Kind, Script};
use crate::inputs::{self, Answer, Space};
use crate::layers;
use crate::stats::{median, peak_rss_mib, quantile, reset_peak_rss, thread_cpu_secs};
use crate::trace::Tracer;
use crate::Config;

/// Rounds the analyze, check, edit and inject phases are interleaved over.
/// The machine's speed drifts over seconds; a pass spread over many rounds
/// averages that drift instead of sampling one stretch of it.
const ROUNDS: usize = 16;

/// Misconfigurations the checker leaves unflagged at the seed commit, per
/// catalog system. A run is correct only while no system misses more.
const INJ_MISSES_AT_SEED: [(&str, usize); 7] = [
    ("OpenLDAP", 10),
    ("Apache", 22),
    ("VSFTP", 19),
    ("PostgreSQL", 12),
    ("MySQL", 27),
    ("Squid", 29),
    ("Storage-A", 55),
];

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// SPEX-INJ misconfigurations left unflagged, per system: failures
    /// recorded at the seed commit, allowed up to the seed's count.
    pub inj_misses: BTreeMap<String, usize>,
    /// Spaces whose warm db after the edits differs from a fresh one only
    /// in evidence line/column numbers: a program defect recorded at the
    /// seed commit (an edit that shifts the lines of an unchanged function
    /// leaves that function's constraints at their old positions).
    pub stale_spans: usize,
    pub errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    fn inj_miss(&mut self, system: &str) {
        self.attempted += 1;
        self.failed += 1;
        *self.inj_misses.entry(system.to_string()).or_default() += 1;
    }

    fn stale_spans(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.stale_spans += 1;
    }

    /// True when every failure is a recorded one and no system leaves
    /// more SPEX-INJ misconfigurations unflagged than at the seed commit.
    pub fn correct(&self) -> bool {
        let recorded = self.inj_misses.values().sum::<usize>() + self.stale_spans;
        self.failed == recorded as u64
            && self.inj_misses.iter().all(|(system, &n)| {
                INJ_MISSES_AT_SEED
                    .iter()
                    .any(|&(s, allowed)| s == system && n <= allowed)
            })
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub context: Vec<(&'static str, String)>,
    pub tracer: Tracer,
}

/// The check corpus of one space: the deployment configs of every module,
/// then (catalog) the template with every SPEX-INJ misconfiguration.
struct Corpus {
    files: Vec<(String, String)>,
    answers: Vec<Answer>,
    misconfigs: Vec<Misconfig>,
}

struct Setup {
    spaces: Vec<Space>,
    warm: Vec<Workspace>,
    corpora: Vec<Corpus>,
}

fn setup(cfg: &Config, tally: &mut Tally) -> Setup {
    let spaces = inputs::generate(cfg.workload, cfg.seed, cfg.fleet_modules, &cfg.systems);
    let mut warm = Vec::with_capacity(spaces.len());
    let mut corpora = Vec::with_capacity(spaces.len());
    for space in &spaces {
        let mut ws = Workspace::new(space.system.clone(), space.dialect).with_threads(1);
        for unit in &space.units {
            let added = ws.add_module(unit.name.clone(), &unit.source, &unit.annotations);
            tally.check(added.is_ok(), || format!("add {}: {added:?}", unit.name));
        }
        ws.reanalyze();
        let mut files = Vec::new();
        let mut answers = Vec::new();
        for unit in &space.units {
            files.extend(unit.configs.iter().cloned());
            answers.extend(unit.answers.iter().cloned());
        }
        let mut misconfigs = Vec::new();
        if space.built.is_some() {
            let constraints: Vec<_> = ws
                .db()
                .params
                .iter()
                .flat_map(|p| p.constraints.iter().cloned())
                .collect();
            misconfigs = genrule::generate_all(&standard_rules(), &constraints);
            let template = &space.units[0].template;
            for (i, m) in misconfigs.iter().enumerate() {
                files.push((format!("inj/{i:05}.conf"), corrupt(template, space, m)));
                answers.push(Answer::Injected);
            }
        }
        warm.push(ws);
        corpora.push(Corpus {
            files,
            answers,
            misconfigs,
        });
    }
    Setup {
        spaces,
        warm,
        corpora,
    }
}

/// Applies one misconfiguration to the template, as `tests/checker.rs`
/// does.
fn corrupt(template: &str, space: &Space, m: &Misconfig) -> String {
    let mut conf = ConfFile::parse(template, space.dialect);
    conf.set(&m.param, &m.value);
    for (p, v) in &m.also_set {
        conf.set(p, v);
    }
    conf.serialize()
}

/// Whether a file's diagnostics match its known answer.
fn verdict_ok(report: &FileReport, answer: &Answer) -> bool {
    let unknown: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == DiagCode::UnknownKey)
        .collect();
    match answer {
        Answer::Clean => report.diagnostics.is_empty() && report.read_error.is_none(),
        Answer::Unknown { key } => unknown.len() == 1 && &unknown[0].param == key,
        Answer::Typo { typo, key } => {
            unknown.len() == 1
                && &unknown[0].param == typo
                && matches!(&unknown[0].fix, Some(Fix::RenameKey { to, .. }) if to == key)
        }
        Answer::Injected => !report.diagnostics.is_empty(),
    }
}

/// Phase-level peak memory: the kernel mark is reset when a phase starts
/// and read when it ends.
#[derive(Default)]
struct Memory {
    peak: f64,
    phases: BTreeMap<&'static str, f64>,
}

impl Memory {
    fn start(&mut self) {
        self.peak = self.peak.max(peak_rss_mib());
        reset_peak_rss();
    }

    fn end(&mut self, phase: &'static str) {
        let hwm = peak_rss_mib();
        self.peak = self.peak.max(hwm);
        let slot = self.phases.entry(phase).or_insert(0.0);
        *slot = slot.max(hwm);
    }
}

/// Per space, per module: the source and annotations to analyze.
type Sources<'a> = Vec<Vec<(&'a str, &'a str)>>;

/// Cold analysis of one space over `modules`: `spex analyze`. Returns the
/// seconds taken and the saved db.
fn analyze(
    space: &Space,
    modules: &[(&str, &str)],
    tracer: &Tracer,
    tally: &mut Tally,
) -> (f64, String) {
    let started = Instant::now();
    let mut ws = Workspace::new(space.system.clone(), space.dialect).with_threads(1);
    for (unit, (source, annotations)) in space.units.iter().zip(modules) {
        let added = tracer.span("check.add", || {
            ws.add_module(unit.name.clone(), source, annotations)
        });
        tally.check(added.is_ok(), || format!("add {}: {added:?}", unit.name));
    }
    tracer.span("check.reanalyze", || ws.reanalyze());
    let db = tracer.span("check.save", || ws.db().save_to_string());
    drop(ws);
    (started.elapsed().as_secs_f64(), db)
}

/// Compares a space's db with the one it must equal byte for byte.
/// `edited` marks a comparison after the edit phase, where a difference
/// in evidence positions alone is the recorded stale-span defect.
fn compare_db(space: &Space, got: &str, want: &str, edited: bool, tally: &mut Tally) {
    if edited && got != want && without_spans(got) == without_spans(want) {
        tally.stale_spans();
        return;
    }
    tally.check(got == want, || {
        let when = if edited {
            "after the edits"
        } else {
            "at start"
        };
        format!(
            "{}: cold analysis db differs from the warm session's {when}",
            space.system
        )
    });
}

/// The contiguous part `k` of `n` items split into `parts`.
fn part(n: usize, k: usize, parts: usize) -> std::ops::Range<usize> {
    k * n / parts..(k + 1) * n / parts
}

/// The units of a phase of `n` units that run in `round`: each unit runs
/// in the round that holds its midpoint, so any number of units spreads
/// evenly over the rounds.
fn due(n: usize, round: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |u| (2 * u + 1) * ROUNDS / (2 * n) == round)
}

/// The order `n` passes over the same inputs run in within `round`:
/// reversed every other round, because a pass that follows another over
/// the same inputs finds them in cache, and no pass should always be the
/// first.
fn order(n: usize, round: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| {
        if round.is_multiple_of(2) {
            i
        } else {
            n - 1 - i
        }
    })
}

/// One `spex check --format jsonl` pass: `load_from_str`, a session, every
/// space's corpus through `check_texts`, and the JSON Lines renderer. The
/// corpus goes through in slices so that a long pass can be spread over
/// the run; `secs` sums the pass's timed pieces.
struct CheckPass<'db> {
    sessions: Vec<CheckSession<'db>>,
    reports: Vec<Vec<FileReport>>,
    secs: f64,
    traced: bool,
}

fn load_dbs(texts: &[String], tracer: &Tracer) -> (Vec<ConstraintDb>, f64) {
    let started = Instant::now();
    let dbs = texts
        .iter()
        .map(|t| {
            tracer
                .span("check.load", || ConstraintDb::load_from_str(t))
                .expect("saved db loads")
        })
        .collect();
    (dbs, started.elapsed().as_secs_f64())
}

impl<'db> CheckPass<'db> {
    fn open(dbs: &'db [ConstraintDb], load_secs: f64, tracer: &Tracer) -> CheckPass<'db> {
        let started = Instant::now();
        let sessions: Vec<CheckSession> = dbs
            .iter()
            .map(|db| tracer.span("check.session", || CheckSession::new(db).with_threads(1)))
            .collect();
        CheckPass {
            reports: sessions.iter().map(|_| Vec::new()).collect(),
            sessions,
            secs: load_secs + started.elapsed().as_secs_f64(),
            traced: tracer.is_on(),
        }
    }

    /// Checks slice `k` of `slices` of every space's corpus. A traced pass
    /// times the files with an unknown key apart from the rest.
    fn slice(&mut self, s: &Setup, k: usize, slices: usize, tracer: &Tracer) {
        let started = Instant::now();
        for ((session, corpus), reports) in
            self.sessions.iter().zip(&s.corpora).zip(&mut self.reports)
        {
            let range = part(corpus.files.len(), k, slices);
            if !self.traced {
                reports.extend(session.check_texts(&corpus.files[range]).files);
                continue;
            }
            let (unknown, known): (Vec<usize>, Vec<usize>) = range
                .clone()
                .partition(|&f| corpus.answers[f].has_unknown_key());
            let pick = |ix: &[usize]| -> Vec<(String, String)> {
                ix.iter().map(|&f| corpus.files[f].clone()).collect()
            };
            let (uf, kf) = (pick(&unknown), pick(&known));
            let ur = tracer.span("check.unknown_key", || session.check_texts(&uf));
            let kr = tracer.span("check.known_key", || session.check_texts(&kf));
            let mut slots: Vec<Option<FileReport>> = range.clone().map(|_| None).collect();
            for (f, r) in unknown
                .iter()
                .zip(ur.files)
                .chain(known.iter().zip(kr.files))
            {
                slots[f - range.start] = Some(r);
            }
            reports.extend(slots.into_iter().map(|r| r.expect("every file checked")));
        }
        self.secs += started.elapsed().as_secs_f64();
    }

    /// Renders every space's report and checks it: every verdict against
    /// its known answer on the first pass (`expect` empty), the rendered
    /// bytes against the first pass afterwards. Returns the pass's time.
    fn finish(
        self,
        s: &Setup,
        tracer: &Tracer,
        tally: &mut Tally,
        expect: &mut Vec<String>,
        diagnostics: &mut usize,
    ) -> f64 {
        let first = expect.is_empty();
        let mut secs = self.secs;
        for (i, (space, files)) in s.spaces.iter().zip(self.reports).enumerate() {
            let corpus = &s.corpora[i];
            let started = Instant::now();
            let report = Report::from_files(files);
            let out = tracer.span("check.render", || report.render(&JsonLinesRenderer));
            secs += started.elapsed().as_secs_f64();
            if !first {
                tally.check(out == expect[i], || {
                    format!("{}: check output changed between passes", space.system)
                });
                continue;
            }
            *diagnostics += report.findings().count();
            for (file, (r, answer)) in report.files.iter().zip(&corpus.answers).enumerate() {
                let ok = verdict_ok(r, answer);
                if !ok && *answer == Answer::Injected {
                    tally.inj_miss(&space.system);
                    continue;
                }
                tally.check(ok, || {
                    format!(
                        "{}: {} ({answer:?}) got {:?}",
                        space.system, corpus.files[file].0, r.diagnostics
                    )
                });
            }
            expect.push(out);
        }
        secs
    }
}

/// Edit-phase results.
#[derive(Default)]
struct Edits {
    /// Each edit's thread CPU time: its latency on an unshared CPU.
    latencies_ms: Vec<f64>,
    /// Each edit's wall time, host preemption included (context only).
    wall_ms: Vec<f64>,
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    passes: PassCounts,
    reinferred: usize,
}

/// The closed-loop edit phase: one client applies an edit, re-analyzes,
/// re-checks the module's deployment configs, verifies the verdicts, and
/// only then draws the next edit.
struct EditLoop {
    script: Script,
    out: Edits,
}

impl EditLoop {
    fn new(cfg: &Config, s: &Setup) -> EditLoop {
        let units = s
            .spaces
            .iter()
            .enumerate()
            .flat_map(|(si, sp)| {
                sp.units.iter().enumerate().map(move |(ui, u)| {
                    (
                        si,
                        ui,
                        u.name.as_str(),
                        u.source.as_str(),
                        u.annotations.as_str(),
                    )
                })
            })
            .collect();
        EditLoop {
            script: Script::new(cfg.seed, cfg.shares, units),
            out: Edits::default(),
        }
    }

    /// Makes `n` edits to the warm sessions of `spaces`.
    fn run(
        &mut self,
        spaces: &[Space],
        warm: &mut [Workspace],
        n: usize,
        tracer: &Tracer,
        tally: &mut Tally,
    ) {
        for _ in 0..n {
            let edit = self.script.next_edit();
            let unit = &spaces[edit.space].units[edit.unit];
            let ws = &mut warm[edit.space];
            tracer.begin_op();
            let started = Instant::now();
            let cpu = thread_cpu_secs();
            let (applied, report, verdicts) = tracer.span("edit", || {
                let applied = tracer.span("check.update", || match &edit.change {
                    Change::Source(src) => ws.update_module(&unit.name, src).map(|_| ()),
                    Change::Annotations(ann) => ws.update_annotations(&unit.name, ann),
                });
                let report = tracer.span("check.edit_reanalyze", || ws.reanalyze());
                let verdicts = tracer.span("check.edit_recheck", || ws.check_texts(&unit.configs));
                (applied, report, verdicts)
            });
            let ms = (thread_cpu_secs() - cpu) * 1e3;
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            tracer.end_op();
            let ok = applied.is_ok()
                && verdicts
                    .files
                    .iter()
                    .zip(&unit.answers)
                    .all(|(r, a)| verdict_ok(r, a));
            tally.check(ok, || {
                format!("edit {:?} of {}: {applied:?}", edit.kind, unit.name)
            });
            let out = &mut self.out;
            out.latencies_ms.push(ms);
            out.wall_ms.push(wall_ms);
            out.by_kind.entry(edit.kind.name()).or_default().push(ms);
            out.passes.accumulate(&report.passes);
            out.reinferred += report.params_reinferred;
        }
    }
}

/// A saved db with the line and column of every constraint's evidence
/// blanked out (`c <constraint> | <function> <line> <col> | <module>`).
fn without_spans(db: &str) -> String {
    db.lines()
        .map(|line| {
            let mut fields: Vec<&str> = line.split(" | ").collect();
            let masked;
            if line.starts_with("c ") && fields.len() == 3 {
                let function = fields[1].split(' ').next().unwrap_or("");
                masked = format!("{function} _ _");
                fields[1] = &masked;
            }
            fields.join(" | ") + "\n"
        })
        .collect()
}

/// One injection campaign: a catalog system, or a sampled fleet module
/// (lowered here, since the fleet generator keeps only its source).
struct Plan {
    space: usize,
    unit: usize,
    module: Option<spex::ir::Module>,
    misconfigs: Vec<Misconfig>,
}

/// Plans the campaigns from the warm session's first db: each catalog
/// system over a systematic sample (seeded offset) of its corpus
/// misconfigurations, or a systematic sample of fleet modules with every
/// misconfiguration of each.
fn plan_injection(cfg: &Config, s: &Setup) -> Vec<Plan> {
    let mut plans = Vec::new();
    for (si, (space, corpus)) in s.spaces.iter().zip(&s.corpora).enumerate() {
        if space.built.is_some() {
            plans.push(Plan {
                space: si,
                unit: 0,
                module: None,
                misconfigs: sample(&corpus.misconfigs, cfg.inject_sample, cfg.seed),
            });
            continue;
        }
        let db = s.warm[si].db();
        let units: Vec<usize> = (0..space.units.len()).collect();
        for ui in sample(&units, cfg.inject_sample, cfg.seed) {
            let unit = &space.units[ui];
            let program = spex::lang::parse_program(&unit.source).expect("fleet source parses");
            let module = spex::ir::lower_program(&program).expect("fleet source lowers");
            let constraints: Vec<_> = db
                .params
                .iter()
                .flat_map(|p| p.with_provenance())
                .filter(|(_, m)| *m == unit.name)
                .map(|(c, _)| c.clone())
                .collect();
            plans.push(Plan {
                space: si,
                unit: ui,
                module: Some(module),
                misconfigs: genrule::generate_all(&standard_rules(), &constraints),
            });
        }
    }
    plans
}

fn target<'a>(plan: &'a Plan, space: &'a Space) -> TestTarget<'a> {
    if let Some(built) = &space.built {
        return TestTarget {
            name: space.system.clone(),
            module: &built.module,
            dialect: space.dialect,
            template_conf: built.gen.template_conf.clone(),
            config_entry: "handle_config".into(),
            startup: "startup".into(),
            tests: built.gen.tests.clone(),
            world: Box::new(|| built.world()),
            param_globals: built.gen.param_globals.clone(),
        };
    }
    let unit = &space.units[plan.unit];
    let module = plan
        .module
        .as_ref()
        .expect("fleet plans carry their module");
    let (files, dirs) = data_paths(&unit.source);
    TestTarget {
        name: unit.name.clone(),
        module,
        dialect: space.dialect,
        template_conf: unit.template.clone(),
        config_entry: "handle_config".into(),
        startup: "startup".into(),
        tests: module
            .functions
            .iter()
            .filter(|f| f.name.starts_with("test_"))
            .map(|f| TestCase {
                name: f.name.clone(),
                func: f.name.clone(),
                cost: 1,
            })
            .collect(),
        world: Box::new(move || world(&files, &dirs)),
        param_globals: Default::default(),
    }
}

/// The modelled world of `BuiltSystem::world` for a fleet module: port 80
/// taken, the module's default files and directories present.
fn world(files: &[(String, String)], dirs: &[String]) -> spex::vm::World {
    let mut w = spex::vm::World::default();
    w.occupy_port(80);
    for (f, c) in files {
        w.add_file(f, c);
    }
    for d in dirs {
        w.add_dir(d);
    }
    w
}

/// The default file and directory paths a generated module declares.
fn data_paths(source: &str) -> (Vec<(String, String)>, Vec<String>) {
    let mut files = Vec::new();
    let mut dirs = Vec::new();
    for piece in source.split('"').skip(1).step_by(2) {
        if piece.starts_with("/data/") && piece.ends_with(".dat") {
            files.push((piece.to_string(), "seed".to_string()));
        } else if piece.starts_with("/data/") && piece.ends_with("_d") {
            dirs.push(piece.to_string());
        }
    }
    (files, dirs)
}

/// Every `step`-th item from a seeded offset, about `n` in all.
fn sample<T: Clone>(items: &[T], n: usize, seed: u64) -> Vec<T> {
    if items.is_empty() {
        return Vec::new();
    }
    let step = (items.len() / n.max(1)).max(1);
    let offset = (seed as usize) % step;
    items
        .iter()
        .skip(offset)
        .step_by(step)
        .take(n)
        .cloned()
        .collect()
}

/// Injects the misconfigurations `range` of the campaigns' concatenated
/// samples. Returns the seconds spent in `InjectionCampaign::run`, the
/// runs made and the vulnerabilities found.
fn inject(
    plans: &[Plan],
    range: std::ops::Range<usize>,
    s: &Setup,
    tracer: &Tracer,
) -> (f64, usize, usize) {
    let mut secs = 0.0;
    let mut runs = 0;
    let mut vulnerabilities = 0;
    let mut offset = 0;
    for plan in plans {
        let own = offset..offset + plan.misconfigs.len();
        offset = own.end;
        let (lo, hi) = (range.start.max(own.start), range.end.min(own.end));
        if lo >= hi {
            continue;
        }
        let misconfigs = &plan.misconfigs[lo - own.start..hi - own.start];
        let campaign = InjectionCampaign::new(target(plan, &s.spaces[plan.space]));
        let started = Instant::now();
        let outcomes: Vec<_> = if tracer.is_on() {
            misconfigs
                .iter()
                .map(|m| tracer.span("inject.run_one", || campaign.run_one(m)))
                .collect()
        } else {
            campaign.run(misconfigs)
        };
        secs += started.elapsed().as_secs_f64();
        runs += outcomes.len();
        vulnerabilities += outcomes
            .iter()
            .filter(|o| o.reaction.is_vulnerability())
            .count();
    }
    (secs, runs, vulnerabilities)
}

/// Runs one workload: every phase, the checks of every output, and — for
/// a traced run — each phase once untraced and once traced, plus the
/// stage-by-stage replay.
pub fn run(cfg: &Config) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let off = Tracer::new(false);
    let mut tally = Tally::default();
    let mut mem = Memory::default();
    // A traced run times each interleaved phase in two passes, untraced
    // and traced; the traced pass is the last.
    let passes = |n: usize| if cfg.trace { 2 } else { n };
    let traced = |pass: usize, passes: usize| {
        if cfg.trace && pass + 1 == passes {
            &tracer
        } else {
            &off
        }
    };

    // The first set-up starts the run and the rest end it, so that their
    // median spans the machine's slow drifts rather than one stretch of it.
    mem.start();
    let started = Instant::now();
    let mut s = setup(cfg, &mut tally);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    mem.end("setup");
    let first_dbs: Vec<String> = s.warm.iter().map(|w| w.db().save_to_string()).collect();
    let plans = plan_injection(cfg, &s);
    let initial: Sources = s
        .spaces
        .iter()
        .map(|sp| {
            sp.units
                .iter()
                .map(|u| (u.source.as_str(), u.annotations.as_str()))
                .collect()
        })
        .collect();

    // Analyzing, checking, editing and injecting take turns over `ROUNDS`
    // rounds. An analysis pass runs one space per turn, and a check or
    // injection pass one slice per round, so each pass samples the whole
    // run; the edits are spread evenly. The analysis passes run over the
    // initial sources; the last analysis, over the final ones, follows the
    // rounds.
    let spread = passes(cfg.analyze_reps - 1);
    let spaces = s.spaces.len();
    let check_passes = passes(cfg.check_reps);
    let inject_passes = passes(cfg.inject_reps);
    let mut analyze_s = vec![0.0; spread];
    mem.start();
    let loaded: Vec<(Vec<ConstraintDb>, f64)> = (0..check_passes)
        .map(|p| load_dbs(&first_dbs, traced(p, check_passes)))
        .collect();
    mem.end("check");
    let mut open: Vec<Option<CheckPass>> = (0..check_passes).map(|_| None).collect();
    let mut check_secs = vec![0.0; check_passes];
    let mut inject_secs = vec![0.0; inject_passes];
    let (mut runs, mut vulnerabilities) = (vec![0; inject_passes], vec![0; inject_passes]);
    let samples: usize = plans.iter().map(|p| p.misconfigs.len()).sum();
    let mut rendered = Vec::new();
    let mut diagnostics = 0;
    let mut edits = EditLoop::new(cfg, &s);
    for round in 0..ROUNDS {
        mem.start();
        // A traced run analyzes each space untraced and traced back to
        // back, so that their difference is the tracing overhead and not
        // the machine's drift between two rounds.
        let units: Vec<(usize, usize)> = if cfg.trace {
            due(spaces, round)
                .flat_map(|j| order(spread, round).map(move |p| (p, j)))
                .collect()
        } else {
            due(spread * spaces, round)
                .map(|u| (u / spaces, u % spaces))
                .collect()
        };
        for (p, j) in units {
            let space = &s.spaces[j];
            let (secs, db) = analyze(space, &initial[j], traced(p, spread), &mut tally);
            compare_db(space, &db, &first_dbs[j], false, &mut tally);
            analyze_s[p] += secs;
        }
        mem.end("analyze");

        mem.start();
        for p in order(check_passes, round) {
            let tr = traced(p, check_passes);
            let (dbs, load_secs) = &loaded[p];
            open[p]
                .get_or_insert_with(|| CheckPass::open(dbs, *load_secs, tr))
                .slice(&s, round, ROUNDS, tr);
            if round + 1 == ROUNDS {
                let pass = open[p].take().expect("opened above");
                check_secs[p] = pass.finish(&s, tr, &mut tally, &mut rendered, &mut diagnostics);
            }
        }
        mem.end("check");

        mem.start();
        let n = due(cfg.edits, round).count();
        edits.run(&s.spaces, &mut s.warm, n, &tracer, &mut tally);
        mem.end("edit");

        mem.start();
        for p in order(inject_passes, round) {
            let range = part(samples, round, ROUNDS);
            let (secs, r, v) = inject(&plans, range, &s, traced(p, inject_passes));
            inject_secs[p] += secs;
            runs[p] += r;
            vulnerabilities[p] += v;
        }
        mem.end("inject");
    }
    drop(initial);
    drop(open);
    drop(loaded);
    drop(plans);
    let untraced = |n: usize| n - usize::from(cfg.trace);
    let check_s = &check_secs[..untraced(check_passes)];
    let inject_s = &inject_secs[..untraced(inject_passes)];
    let (runs, vulnerabilities) = (runs[0], vulnerabilities[0]);
    let EditLoop { script, out: edits } = edits;
    let mut overhead = 0.0;
    if cfg.trace {
        overhead += analyze_s[1] - analyze_s[0];
        overhead += check_secs[1] - check_secs[0];
        overhead += inject_secs[1] - inject_secs[0];
        analyze_s.truncate(1);
        for (space, corpus) in s.spaces.iter().zip(&s.corpora) {
            for (_, text) in &corpus.files {
                tracer.span("conf.parse", || ConfFile::parse(text, space.dialect));
            }
        }
    }

    // The last analysis runs over the final sources and doubles as the
    // check that the warm session after the edits equals a fresh one.
    mem.start();
    let mut finals: Sources = s
        .spaces
        .iter()
        .map(|sp| vec![("", ""); sp.units.len()])
        .collect();
    for (si, ui, source, annotations) in script.modules() {
        finals[si][ui] = (source, annotations);
    }
    let warm_dbs: Vec<String> = s.warm.iter().map(|w| w.db().save_to_string()).collect();
    let mut last = 0.0;
    for (j, space) in s.spaces.iter().enumerate() {
        let (secs, db) = analyze(space, &finals[j], &off, &mut tally);
        compare_db(space, &db, &warm_dbs[j], true, &mut tally);
        last += secs;
    }
    // A traced run only verifies here; its timed analyses are above.
    if !cfg.trace {
        analyze_s.push(last);
    }
    drop(finals);
    mem.end("final");

    let files: usize = s.corpora.iter().map(|c| c.files.len()).sum();
    let params: usize = s.spaces.iter().map(Space::params).sum();
    let modules: usize = s.spaces.iter().map(|sp| sp.units.len()).sum();
    let mut context = vec![
        ("workload", format!("\"{}\"", cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("trace", cfg.trace.to_string()),
        (
            "scale",
            format!(
                "{{\"modules\":{modules},\"parameters\":{params},\"files\":{files},\"edits\":{},\"injections\":{runs}}}",
                edits.latencies_ms.len()
            ),
        ),
        ("edit_kinds", edit_kinds(&edits)),
        (
            "edit_wall_ms",
            format!(
                "{{\"p50\":{:.3},\"p99\":{:.3}}}",
                quantile(&edits.wall_ms, 0.50),
                quantile(&edits.wall_ms, 0.99)
            ),
        ),
        ("analyze_s", json_list(&analyze_s)),
        ("check_s", json_list(check_s)),
        ("inject_s", json_list(inject_s)),
        ("inj_misses", tally.inj_misses.values().sum::<usize>().to_string()),
        ("stale_span_dbs", tally.stale_spans.to_string()),
    ];

    let replay = cfg.trace.then(|| layers::replay(&s.spaces, &tracer));
    drop(script);
    drop(s);
    mem.start();
    let setups = if cfg.trace { 1 } else { cfg.setup_reps };
    for _ in 1..setups {
        let started = Instant::now();
        let again = setup(cfg, &mut tally);
        setup_s.push(started.elapsed().as_secs_f64());
        drop(again);
    }
    mem.end("setup");
    context.push(("setup_s", json_list(&setup_s)));

    let metrics = if let Some(replay) = replay {
        tally.check(replay.mismatches == 0, || {
            format!(
                "{} module(s): stage replay differs from Spex::analyze_scoped",
                replay.mismatches
            )
        });
        let direct = tracer.total("core.analyze");
        let stages: f64 = layers::STAGES.iter().map(|st| tracer.total(st)).sum();
        context.push(("spans", tracer.len().to_string()));
        let ratio = |hits: usize, runs: usize| hits as f64 / (hits + runs).max(1) as f64;
        let p = &edits.passes;
        let t = |name: &str| tracer.self_time(name);
        vec![
            ("check.unknown_key_s", t("check.unknown_key"), "s"),
            ("check.known_key_s", t("check.known_key"), "s"),
            ("check.load_s", t("check.load"), "s"),
            ("check.session_s", t("check.session"), "s"),
            ("check.render_s", t("check.render"), "s"),
            ("check.save_s", t("check.save"), "s"),
            ("conf.parse_s", t("conf.parse"), "s"),
            ("check.add_s", t("check.add"), "s"),
            ("check.fold_s", t("check.reanalyze") - direct, "s"),
            ("check.update_s", t("check.update"), "s"),
            ("check.edit_reanalyze_s", t("check.edit_reanalyze"), "s"),
            ("check.edit_recheck_s", t("check.edit_recheck"), "s"),
            ("check.reinferred", edits.reinferred as f64, "count"),
            (
                "check.taint_hit_ratio",
                ratio(p.taint_cache_hits, p.taint_runs),
                "ratio",
            ),
            (
                "check.summary_hit_ratio",
                ratio(p.summary_cache_hits, p.summary_runs),
                "ratio",
            ),
            (
                "check.mapping_hit_ratio",
                ratio(p.mapping_cache_hits, p.mapping_extractions),
                "ratio",
            ),
            (
                "check.react_hit_ratio",
                ratio(p.react_cache_hits, p.react_runs),
                "ratio",
            ),
            ("lang.parse_s", t("lang.parse"), "s"),
            ("ir.lower_s", t("ir.lower"), "s"),
            ("dataflow.prepare_s", t("dataflow.prepare"), "s"),
            ("dataflow.summary_s", t("dataflow.summary"), "s"),
            ("dataflow.taint_s", t("dataflow.taint"), "s"),
            ("core.mapping_s", t("core.mapping"), "s"),
            ("core.basic_type_s", t("core.basic_type"), "s"),
            ("core.semantic_type_s", t("core.semantic_type"), "s"),
            ("core.range_s", t("core.range"), "s"),
            ("core.evidence_s", t("core.evidence"), "s"),
            ("core.control_dep_s", t("core.control_dep"), "s"),
            ("core.value_rel_s", t("core.value_rel"), "s"),
            ("react.classify_s", t("react.classify"), "s"),
            (
                "inject.run_p50_ms",
                median(&tracer.durations("inject.run_one")) * 1e3,
                "ms",
            ),
            ("inject.runs", runs as f64, "count"),
            ("inject.vulnerabilities", vulnerabilities as f64, "count"),
            ("mem.analyze_mib", mem.phases["analyze"], "MiB"),
            ("mem.check_mib", mem.phases["check"], "MiB"),
            ("mem.edit_mib", mem.phases["edit"], "MiB"),
            ("ir.instrs", replay.instrs as f64, "count"),
            ("dataflow.slice_values", replay.slice_values as f64, "count"),
            ("core.params", replay.params as f64, "count"),
            ("core.constraints", replay.constraints as f64, "count"),
            (
                "check.db_bytes",
                first_dbs.iter().map(String::len).sum::<usize>() as f64,
                "bytes",
            ),
            ("check.files", files as f64, "count"),
            ("check.diagnostics", diagnostics as f64, "count"),
            ("trace.overhead_s", overhead, "s"),
            ("trace.residual_s", direct - stages, "s"),
        ]
    } else {
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("analyze_s", median(&analyze_s), "s"),
            ("check_s", median(check_s), "s"),
            ("edit_p50_ms", quantile(&edits.latencies_ms, 0.50), "ms"),
            ("edit_p99_ms", quantile(&edits.latencies_ms, 0.99), "ms"),
            ("inject_s", median(inject_s), "s"),
            ("peak_rss_mib", mem.peak, "MiB"),
        ]
    };
    Outcome {
        tally,
        metrics,
        context,
        tracer,
    }
}

fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", items.join(","))
}

/// Each edit kind's share of the edits made and its median latency.
fn edit_kinds(edits: &Edits) -> String {
    let total = edits.latencies_ms.len().max(1) as f64;
    let items: Vec<String> = Kind::ALL
        .iter()
        .map(|k| {
            let lat = edits.by_kind.get(k.name()).map_or(&[][..], Vec::as_slice);
            format!(
                "\"{}\":{{\"share\":{:.4},\"p50_ms\":{:.3},\"max_ms\":{:.3}}}",
                k.name(),
                lat.len() as f64 / total,
                quantile(lat, 0.5),
                quantile(lat, 1.0)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}
