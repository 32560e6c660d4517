//! Evaluation driver shared by the `paper` binary and the Criterion
//! benches.
//!
//! [`evaluate`] runs the full SPEX pipeline over one subject system:
//! generate → lower → infer constraints → design detectors → generate
//! misconfigurations → injection campaign → classify reactions → accuracy
//! against ground truth. The table renderers turn a set of evaluations into
//! the paper's Tables 4–12.

use spex_core::accuracy::AccuracyReport;
use spex_core::{evaluate_accuracy, Annotation, Spex, SpexAnalysis};
use spex_design::DesignReport;
use spex_inj::{
    genrule, standard_rules, CampaignReport, InjectionCampaign, Misconfig, RunOutcome, TestTarget,
};
use spex_systems::{BuiltSystem, SystemSpec};
use std::fmt::Write as _;

/// A fully evaluated system.
pub struct Evaluated {
    /// The built system (module, generated artifacts).
    pub built: BuiltSystem,
    /// SPEX constraint inference results.
    pub analysis: SpexAnalysis,
    /// Error-prone-design report.
    pub design: DesignReport,
    /// The generated misconfigurations.
    pub misconfigs: Vec<Misconfig>,
    /// Raw injection outcomes (empty when injection was skipped).
    pub outcomes: Vec<RunOutcome>,
    /// Aggregated campaign report.
    pub report: CampaignReport,
    /// Inference accuracy against ground truth.
    pub accuracy: AccuracyReport,
    /// Annotation line count (Table 4's LoA).
    pub loa: usize,
}

/// Runs the pipeline over one system. `run_injection` can be disabled for
/// inference-only workloads (it dominates the runtime).
pub fn evaluate(spec: SystemSpec, run_injection: bool) -> Evaluated {
    let built = BuiltSystem::build(spec);
    let anns = Annotation::parse(&built.gen.annotations).expect("generated annotations parse");
    let loa = Annotation::count_lines(&built.gen.annotations);
    let analysis = Spex::analyze(built.module.clone(), &anns);
    let design = DesignReport::analyze(&analysis, &built.gen.manual);
    let constraints: Vec<_> = analysis.all_constraints().cloned().collect();
    let accuracy = evaluate_accuracy(&constraints, &built.gen.truth);
    let misconfigs = genrule::generate_all(&standard_rules(), &constraints);
    let outcomes = if run_injection {
        let campaign = InjectionCampaign::new(make_target(&built));
        campaign.run(&misconfigs)
    } else {
        Vec::new()
    };
    let report = CampaignReport::from_outcomes(&outcomes);
    Evaluated {
        built,
        analysis,
        design,
        misconfigs,
        outcomes,
        report,
        accuracy,
        loa,
    }
}

/// Builds the injection target for a built system.
pub fn make_target(built: &BuiltSystem) -> TestTarget<'_> {
    let world_files = built.gen.world_files.clone();
    let world_dirs = built.gen.world_dirs.clone();
    TestTarget {
        name: built.spec.name.to_string(),
        module: &built.module,
        dialect: built.gen.dialect,
        template_conf: built.gen.template_conf.clone(),
        config_entry: "handle_config".into(),
        startup: "startup".into(),
        tests: built.gen.tests.clone(),
        world: Box::new(move || {
            let mut w = spex_vm::World::default();
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
    }
}

// --- Table renderers ---------------------------------------------------------

/// Renders Table 4: evaluated systems.
pub fn render_table4(evals: &[Evaluated]) -> String {
    let mut out = String::from(
        "Table 4: Evaluated software systems\n\
         Software     Mapping         LoC(gen)  #Parameter  LoA\n",
    );
    for e in evals {
        let _ = writeln!(
            out,
            "{:<12} {:<15} {:>8}  {:>10}  {:>3}",
            e.built.spec.name,
            format!("{:?}", e.built.spec.mapping),
            e.built.loc(),
            e.built.spec.param_count(),
            e.loa
        );
    }
    out
}

/// Renders Table 5: misconfiguration vulnerabilities and code locations.
pub fn render_table5(evals: &[Evaluated]) -> String {
    let mut out = String::from(
        "Table 5(a): misconfiguration vulnerabilities (bad system reactions)\n\
         Software     Crash/Hang  EarlyTerm  FuncFail  SilentViol  SilentIgn  Total\n",
    );
    let mut totals = [0usize; 6];
    for e in evals {
        let c = |k: &str| e.report.count(k);
        let row = [
            c("crash-hang"),
            c("early-termination"),
            c("functional-failure"),
            c("silent-violation"),
            c("silent-ignorance"),
            e.report.total(),
        ];
        for (t, v) in totals.iter_mut().zip(row.iter()) {
            *t += v;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>10}  {:>9}  {:>8}  {:>10}  {:>9}  {:>5}",
            e.built.spec.name, row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>10}  {:>9}  {:>8}  {:>10}  {:>9}  {:>5}",
        "Total", totals[0], totals[1], totals[2], totals[3], totals[4], totals[5]
    );
    out.push_str("\nTable 5(b): unique source-code locations\nSoftware     Locations\n");
    let mut loc_total = 0;
    for e in evals {
        loc_total += e.report.locations.len();
        let _ = writeln!(
            out,
            "{:<12} {:>9}",
            e.built.spec.name,
            e.report.locations.len()
        );
    }
    let _ = writeln!(out, "{:<12} {:>9}", "Total", loc_total);
    out
}

/// Renders Table 6: case-sensitivity requirements.
pub fn render_table6(evals: &[Evaluated]) -> String {
    let mut out = String::from(
        "Table 6: case-sensitivity of string parameters\n\
         Software     Sensitive      Insensitive\n",
    );
    for e in evals {
        let s = e.design.case.sensitive.len();
        let i = e.design.case.insensitive.len();
        let total = (s + i).max(1);
        let _ = writeln!(
            out,
            "{:<12} {:>4} ({:>5.1}%)  {:>4} ({:>5.1}%)",
            e.built.spec.name,
            s,
            100.0 * s as f64 / total as f64,
            i,
            100.0 * i as f64 / total as f64
        );
    }
    out
}

/// Renders Table 7: units of size- and time-related parameters.
pub fn render_table7(evals: &[Evaluated]) -> String {
    use spex_core::constraint::{SizeUnit, TimeUnit};
    let mut out = String::from(
        "Table 7: units of size- and time-related parameters\n\
         Software        B   KB   MB   GB |  us   ms    s    m    h\n",
    );
    for e in evals {
        let u = &e.design.units;
        let _ = writeln!(
            out,
            "{:<12} {:>4} {:>4} {:>4} {:>4} | {:>3} {:>4} {:>4} {:>4} {:>4}",
            e.built.spec.name,
            u.size_count(SizeUnit::B),
            u.size_count(SizeUnit::KB),
            u.size_count(SizeUnit::MB),
            u.size_count(SizeUnit::GB),
            u.time_count(TimeUnit::Micro),
            u.time_count(TimeUnit::Milli),
            u.time_count(TimeUnit::Sec),
            u.time_count(TimeUnit::Min),
            u.time_count(TimeUnit::Hour),
        );
    }
    out
}

/// Renders Table 8: silent overruling, unsafe APIs, undocumented
/// constraints.
pub fn render_table8(evals: &[Evaluated]) -> String {
    let mut out = String::from(
        "Table 8: other error-prone configuration design and handling\n\
         Software     Overrule  UnsafeAPI  Undoc-range  Undoc-dep  Undoc-rel\n",
    );
    for e in evals {
        let unsafe_params = spex_design::unsafe_api::affected_params(&e.design.unsafe_apis).len();
        let (r, d, v) = e.design.undocumented.counts();
        let _ = writeln!(
            out,
            "{:<12} {:>8}  {:>9}  {:>11}  {:>9}  {:>9}",
            e.built.spec.name,
            e.design.overruling.len(),
            unsafe_params,
            r,
            d,
            v
        );
    }
    out
}

/// Renders Table 9: real-world cases potentially avoided.
pub fn render_table9() -> String {
    let cases = spex_systems::corpus::sample_corpus();
    let mut out = String::from(
        "Table 9: historical misconfiguration cases potentially avoided\n\
         Software     Cases  Avoidable\n",
    );
    for &(system, _) in spex_systems::corpus::CASE_COUNTS {
        let (total, avoid, pct) = spex_systems::corpus::table9_row(&cases, system);
        let _ = writeln!(
            out,
            "{:<12} {:>5}  {:>4} ({:>4.1}%)",
            system,
            total,
            avoid,
            100.0 * pct
        );
    }
    out
}

/// Renders Table 10: breakdown of non-benefiting cases.
pub fn render_table10() -> String {
    let cases = spex_systems::corpus::sample_corpus();
    let mut out = String::from(
        "Table 10: cases that cannot benefit from SPEX/SPEX-INJ\n\
         Software     Single-SW  Cross-SW  Conform  GoodReact\n",
    );
    for &(system, _) in spex_systems::corpus::CASE_COUNTS {
        let row = spex_systems::corpus::table10_row(&cases, system);
        let _ = writeln!(
            out,
            "{:<12} {:>9}  {:>8}  {:>7}  {:>9}",
            system, row[0], row[1], row[2], row[3]
        );
    }
    out
}

/// Renders Table 11: inferred constraints by kind.
pub fn render_table11(evals: &[Evaluated]) -> String {
    let mut out = String::from(
        "Table 11: configuration constraints inferred by SPEX\n\
         Software     Basic  Semantic  Range  CtrlDep  ValRel  Total\n",
    );
    let mut totals = [0usize; 6];
    for e in evals {
        let counts = e.analysis.counts_by_category();
        let g = |k: &str| counts.get(k).copied().unwrap_or(0);
        let row = [
            g("basic-type"),
            g("semantic-type"),
            g("data-range"),
            g("control-dep"),
            g("value-rel"),
        ];
        let total: usize = row.iter().sum();
        for (t, v) in totals.iter_mut().zip(row.iter().chain([&total])) {
            *t += v;
        }
        let _ = writeln!(
            out,
            "{:<12} {:>5}  {:>8}  {:>5}  {:>7}  {:>6}  {:>5}",
            e.built.spec.name, row[0], row[1], row[2], row[3], row[4], total
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>5}  {:>8}  {:>5}  {:>7}  {:>6}  {:>5}",
        "Total", totals[0], totals[1], totals[2], totals[3], totals[4], totals[5]
    );
    out
}

/// Renders Table 12: accuracy of constraint inference.
pub fn render_table12(evals: &[Evaluated]) -> String {
    let mut out = String::from(
        "Table 12: accuracy of constraint inference\n\
         Software     Basic    Semantic  Range    CtrlDep  ValRel   Overall\n",
    );
    let fmt = |a: Option<f64>| match a {
        Some(v) => format!("{:>6.1}%", 100.0 * v),
        None => "   N/A ".to_string(),
    };
    for e in evals {
        let _ = writeln!(
            out,
            "{:<12} {}  {}  {}  {}  {}  {:>6.1}%",
            e.built.spec.name,
            fmt(e.accuracy.accuracy("basic-type")),
            fmt(e.accuracy.accuracy("semantic-type")),
            fmt(e.accuracy.accuracy("data-range")),
            fmt(e.accuracy.accuracy("control-dep")),
            fmt(e.accuracy.accuracy("value-rel")),
            100.0 * e.accuracy.overall()
        );
    }
    out
}

/// Renders Table 1: the mapping-convention survey.
pub fn render_table1() -> String {
    let mut out = String::from(
        "Table 1: parameter-to-variable mapping in 18 software projects\n\
         Software       Desc      Type\n",
    );
    for e in spex_systems::survey::SURVEY {
        let _ = writeln!(out, "{:<14} {:<9} {}", e.software, e.desc, e.convention);
    }
    out
}

/// Renders Table 2: the generation-rule registry.
pub fn render_table2() -> String {
    let mut out = String::from("Table 2: misconfiguration generation rules (plug-ins)\n");
    for rule in standard_rules() {
        let _ = writeln!(out, "  {}", rule.name());
    }
    out
}

/// Renders Table 3: the reaction taxonomy.
pub fn render_table3() -> String {
    String::from(
        "Table 3: the category of bad system reactions\n\
         Crash/Hang        the system crashes or hangs\n\
         Early termination exits without pinpointing the injected error\n\
         Functional failure fails functional testing without pinpointing\n\
         Silent violation  changes input configurations without notifying\n\
         Silent ignorance  ignores input configurations\n",
    )
}

/// A dependency-free micro-benchmark harness (the container has no network,
/// so Criterion is unavailable; this provides the subset the benches need).
pub mod harness {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use std::io::Write as _;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// Re-export of the compiler fence against dead-code elimination.
    pub fn black_box<T>(x: T) -> T {
        std::hint::black_box(x)
    }

    /// One measured benchmark, as recorded for the trajectory files.
    #[derive(Debug, Clone)]
    pub struct BenchResult {
        /// Full bench name (`group/case`).
        pub name: String,
        /// Mean latency per iteration, in nanoseconds.
        pub mean_ns: u128,
        /// Best single iteration, in nanoseconds.
        pub best_ns: u128,
        /// Iterations measured.
        pub iters: usize,
    }

    /// Runs registered benchmarks, honouring an optional name filter passed
    /// on the command line (flags such as `--bench` are ignored). With
    /// `--json` it also appends every result to a per-group
    /// `BENCH_<group>.json` trajectory file (see `write_trajectory`).
    pub struct Runner {
        filter: Option<String>,
        json: bool,
        stamp: Option<String>,
        results: RefCell<Vec<BenchResult>>,
        /// Target measurement time per benchmark.
        pub budget: Duration,
    }

    impl Runner {
        /// A runner configured from `std::env::args`.
        ///
        /// Recognised flags: `--json` (write trajectory files) and
        /// `--stamp=<s>` (override the timestamp recorded in them, for
        /// reproducible CI runs). The first non-flag argument is the name
        /// filter.
        pub fn from_args() -> Runner {
            let mut filter = None;
            let mut json = false;
            let mut stamp = None;
            for a in std::env::args().skip(1) {
                if a == "--json" {
                    json = true;
                } else if let Some(s) = a.strip_prefix("--stamp=") {
                    stamp = Some(s.to_string());
                } else if !a.starts_with('-') && filter.is_none() {
                    filter = Some(a);
                }
            }
            Runner {
                filter,
                json,
                stamp,
                results: RefCell::new(Vec::new()),
                budget: Duration::from_millis(300),
            }
        }

        /// Whether `name` passes the command-line filter (public so bench
        /// files can gate invariant asserts to the benches that ran).
        pub fn selected(&self, name: &str) -> bool {
            self.filter
                .as_deref()
                .map(|f| name.contains(f))
                .unwrap_or(true)
        }

        /// Times `f`, printing mean and best-of-run latency.
        pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
            self.bench_with_setup(name, || (), |()| f())
        }

        /// Times `f` over fresh inputs from `setup`; only `f` is measured.
        pub fn bench_with_setup<S, T>(
            &self,
            name: &str,
            mut setup: impl FnMut() -> S,
            mut f: impl FnMut(S) -> T,
        ) {
            if !self.selected(name) {
                return;
            }
            // Warm-up and per-iteration estimate.
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            let once = start.elapsed().max(Duration::from_nanos(100));
            let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(3, 1000) as usize;

            let mut total = Duration::ZERO;
            let mut best = Duration::MAX;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(f(input));
                let dt = start.elapsed();
                total += dt;
                best = best.min(dt);
            }
            let mean = total / iters as u32;
            println!(
                "{name:<44} {:>12}  (best {:>12}, {iters} iters)",
                fmt_duration(mean),
                fmt_duration(best),
            );
            self.record(name, mean.as_nanos(), best.as_nanos(), iters);
        }

        /// Records an externally measured result so it lands in the
        /// trajectory files (used by self-check benches that time their
        /// iterations by hand).
        pub fn record(&self, name: &str, mean_ns: u128, best_ns: u128, iters: usize) {
            self.results.borrow_mut().push(BenchResult {
                name: name.to_string(),
                mean_ns,
                best_ns,
                iters,
            });
        }

        /// Appends every recorded result to `BENCH_<group>.json` (JSON
        /// Lines, one metric per line), where `group` is the bench-name
        /// prefix before the first `/`. Each line carries the git revision,
        /// a timestamp, the bench name, a metric name, the value and its
        /// unit, so successive runs accumulate a perf trajectory that can
        /// be diffed or plotted across commits.
        ///
        /// No-op unless the runner was given `--json`. Files are written
        /// next to the workspace root (override with `SPEX_BENCH_DIR`),
        /// then re-validated whole with
        /// `spex_obs::json::validate_trajectory`; a malformed file is a
        /// panic, not a warning.
        pub fn write_trajectory(&self) -> Vec<PathBuf> {
            if !self.json {
                return Vec::new();
            }
            let results = self.results.borrow();
            let rev = git_rev();
            let stamp = self.stamp.clone().unwrap_or_else(default_stamp);
            let mut groups: BTreeMap<String, String> = BTreeMap::new();
            for r in results.iter() {
                let group = r.name.split('/').next().unwrap_or("misc").to_string();
                let buf = groups.entry(group).or_default();
                for (metric, value, unit) in [
                    ("mean_ns", r.mean_ns, "ns"),
                    ("best_ns", r.best_ns, "ns"),
                    ("iters", r.iters as u128, "count"),
                ] {
                    let _ = writeln!(
                        buf,
                        "{{\"rev\":{},\"stamp\":{},\"bench\":{},\"metric\":{},\
                         \"value\":{},\"unit\":{}}}",
                        quote(&rev),
                        quote(&stamp),
                        quote(&r.name),
                        quote(metric),
                        value,
                        quote(unit),
                    );
                }
            }
            let dir = trajectory_dir();
            let mut written = Vec::new();
            let mut lines = 0;
            for (group, body) in groups {
                let path = dir.join(format!("BENCH_{group}.json"));
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
                file.write_all(body.as_bytes())
                    .unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("re-read {}: {e}", path.display()));
                match spex_obs::json::validate_trajectory(&text) {
                    Ok(n) => lines += n,
                    Err(e) => panic!("{} failed validation: {e}", path.display()),
                }
                written.push(path);
            }
            println!(
                "BENCH json self-check: OK ({lines} trajectory line(s) across {} file(s))",
                written.len()
            );
            written
        }
    }

    /// JSON string quoting (shared with the obs snapshot renderer).
    fn quote(s: &str) -> String {
        spex_obs::json::quote(s)
    }

    fn git_rev() -> String {
        if let Ok(rev) = std::env::var("SPEX_GIT_REV") {
            return rev;
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    }

    fn default_stamp() -> String {
        if let Ok(s) = std::env::var("SPEX_BENCH_STAMP") {
            return s;
        }
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs().to_string())
            .unwrap_or_else(|_| "0".to_string())
    }

    /// Directory trajectory files land in: `SPEX_BENCH_DIR` if set, else
    /// the workspace root (two levels above this crate's manifest).
    fn trajectory_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("SPEX_BENCH_DIR") {
            return PathBuf::from(dir);
        }
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    }

    fn fmt_duration(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 1_000 {
            format!("{ns} ns")
        } else if ns < 1_000_000 {
            format!("{:.2} us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1e6)
        } else {
            format!("{:.2} s", ns as f64 / 1e9)
        }
    }
}
