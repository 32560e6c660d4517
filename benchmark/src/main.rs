//! The spex benchmark: end-to-end user flows on two workloads, with every
//! verdict checked against an answer the input generator knows, and a
//! separate traced run that times each layer's public calls from outside.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet|catalog --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --smoke
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The line
//! before it records the run's context: source revision, seed, scale,
//! core count, thread count, edit-kind shares and the raw phase samples.
//! A traced run also writes its spans to `.bench_trace/`. `--seconds`
//! sets the length of the closed-loop edit phase as a number of edits:
//! the seconds times the workload's nominal edit rate on a 2-vCPU VM, and
//! at least 1000, so that `edit_p99_ms` has ten samples beyond it. A fixed
//! count keeps the work, and the operations attempted, the same on every
//! run of a seed however fast the machine is at the time. Edit latencies
//! are the thread's CPU time, which leaves out the host preempting the VM.
//! `--smoke` runs both workloads at a reduced scale in seconds and checks
//! that every metric `BENCHMARK.json` names is emitted and that every
//! verification passes.

mod edits;
mod inputs;
mod layers;
mod run;
mod stats;
mod trace;

use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 2048 small generated modules in one workspace.
    Fleet,
    /// The paper's seven subject systems, one workspace each.
    Catalog,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Catalog => "catalog",
        }
    }
}

/// The size and shape of one run.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// The `--seconds` the edit count was derived from.
    pub seconds: f64,
    /// Closed-loop edits made in the run.
    pub edits: usize,
    pub fleet_modules: usize,
    pub systems: Vec<&'static str>,
    pub setup_reps: usize,
    /// Timed cold analyses: the last runs over the final sources.
    pub analyze_reps: usize,
    pub check_reps: usize,
    pub inject_reps: usize,
    /// Misconfigurations per catalog system, or fleet modules, injected.
    pub inject_sample: usize,
    /// Per-mille shares of the edit kinds, in `edits::Kind::ALL` order.
    pub shares: [u32; 5],
}

const ALL_SYSTEMS: [&str; 7] = [
    "OpenLDAP",
    "Apache",
    "VSFTP",
    "PostgreSQL",
    "MySQL",
    "Squid",
    "Storage-A",
];

impl Config {
    fn full(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        // The nominal edit rate is edits per second on a 2-vCPU VM: a fleet
        // edit takes about 19 ms, a catalog edit 10 ms on average.
        //
        // Edit-kind shares (per mille). On the fleet every kind costs about
        // the same, dominated by the re-check. On the catalog a module is
        // drawn uniformly among the seven systems, so p50 falls inside the
        // small systems' body-edit band and p99 inside Storage-A's (its
        // whole-module re-parse); the kinds that re-infer more are kept
        // rare enough to stay beyond p99.
        let (rate, setup_reps, analyze_reps, check_reps, inject_reps, inject_sample, shares) =
            match workload {
                Workload::Fleet => (50.0, 2, 3, 1, 3, 1024, [600, 150, 100, 75, 75]),
                Workload::Catalog => (100.0, 3, 3, 5, 2, 40, [982, 14, 2, 1, 1]),
            };
        Config {
            workload,
            seed,
            trace,
            seconds,
            edits: ((seconds * rate).ceil() as usize).max(1000),
            fleet_modules: 2048,
            systems: ALL_SYSTEMS.to_vec(),
            setup_reps,
            analyze_reps,
            check_reps,
            inject_reps,
            inject_sample,
            shares,
        }
    }

    /// A run of the same shape at a scale that finishes in seconds.
    fn smoke(workload: Workload, trace: bool) -> Config {
        Config {
            edits: 120,
            fleet_modules: 24,
            systems: vec!["OpenLDAP", "Apache", "VSFTP"],
            setup_reps: 2,
            analyze_reps: 2,
            check_reps: 2,
            inject_reps: 1,
            inject_sample: 4,
            // Every edit kind often enough to exercise each text change.
            shares: [400, 150, 150, 150, 150],
            ..Config::full(workload, 7, 0.0, trace)
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    if args.iter().any(|a| a == "--smoke") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "fleet" => Workload::Fleet,
                    "catalog" => Workload::Catalog,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Some(Config::full(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    )))
}

/// The repository root the benchmark was built from.
fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// The git revision when the tree is a git checkout, and an FNV-1a hash
/// of the program's sources either way (benchmark checkouts carry no
/// `.git`).
fn revision() -> (String, String) {
    let root = repo_root();
    // Only ask git inside a git checkout: elsewhere it would report the
    // revision of whatever repository encloses the tree.
    let rev = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
        })
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect(&root.join(top), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    (rev, format!("{hash:016x}"))
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn result_line(outcome: &run::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    )
}

fn context_line(cfg: &Config, outcome: &run::Outcome, rev: &(String, String)) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        format!("\"rev\":\"{}\"", rev.0),
        format!("\"source_hash\":\"{}\"", rev.1),
        format!("\"nproc\":{cores}"),
        "\"threads\":1".to_string(),
        format!("\"seconds\":{}", cfg.seconds),
    ];
    fields.extend(outcome.context.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    format!("{{\"context\":{{{}}}}}", fields.join(","))
}

/// Names declared under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json = spex::obs::json::Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("metric name")
                .to_string()
        })
        .collect()
}

/// Runs both workloads untraced and traced at the smoke scale; returns
/// the problems found.
fn smoke() -> Vec<String> {
    let mut problems = Vec::new();
    for workload in [Workload::Fleet, Workload::Catalog] {
        for trace in [false, true] {
            let cfg = Config::smoke(workload, trace);
            let outcome = run::run(&cfg);
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
            let tag = format!(
                "{}{}",
                workload.name(),
                if trace { " (traced)" } else { "" }
            );
            for name in &want {
                if !got.contains(&name.as_str()) {
                    problems.push(format!("{tag}: metric {name} not emitted"));
                }
            }
            for name in &got {
                if !want.iter().any(|w| w == name) {
                    problems.push(format!("{tag}: metric {name} not declared"));
                }
            }
            for (name, value, _) in &outcome.metrics {
                if !value.is_finite() {
                    problems.push(format!("{tag}: metric {name} is {value}"));
                }
            }
            if !outcome.tally.correct() {
                problems.push(format!(
                    "{tag}: verification failed: {:?}",
                    outcome.tally.errors
                ));
            }
            println!("{tag}: {}", result_line(&outcome));
        }
    }
    problems
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            let problems = smoke();
            if problems.is_empty() {
                println!("smoke: ok");
                return;
            }
            for p in problems {
                eprintln!("smoke: {p}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("spex-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let rev = revision();
    let outcome = run::run(&cfg);
    for e in &outcome.tally.errors {
        eprintln!("failed: {e}");
    }
    if cfg.trace {
        let path = format!(
            ".bench_trace/{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        );
        if let Err(e) = outcome.tracer.write_jsonl(Path::new(&path)) {
            eprintln!("spex-perfbench: writing {path}: {e}");
        }
    }
    println!("{}", context_line(&cfg, &outcome, &rev));
    println!("{}", result_line(&outcome));
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_emits_every_declared_metric_and_verifies() {
        let problems = super::smoke();
        assert!(problems.is_empty(), "{problems:#?}");
    }
}
