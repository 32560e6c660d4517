//! `spex shard` — fleet-scale ingestion: split a module tree across N
//! worker *processes* (each running `spex analyze --quiet`), then merge
//! the per-worker databases tightest-wins into one. Optionally
//! self-checks the merged result byte-identical against an in-process
//! single-run over the same modules.

use std::path::PathBuf;
use std::process::Command;

use crate::driver::{
    analyze_sources, collect_sources, dialect_tag, parse_dialect, value_of, CliError, CliResult,
};
use spex::check::{ConstraintDb, MergeReport};
use spex::conf::Dialect;

/// Runs `spex shard`.
pub fn run(mut args: std::vec::IntoIter<String>) -> CliResult {
    let mut system = String::from("spex");
    let mut dialect = Dialect::KeyValue;
    let mut workers = 4usize;
    let mut jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out: Option<PathBuf> = None;
    let mut self_check = false;
    let mut src: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--system" => system = value_of("--system", &mut args)?,
            "--dialect" => dialect = parse_dialect(&value_of("--dialect", &mut args)?)?,
            "--workers" => {
                let v = value_of("--workers", &mut args)?;
                workers = v
                    .parse()
                    .map_err(|_| CliError(format!("--workers: not a number: {v:?}")))?;
            }
            "--jobs" => {
                let v = value_of("--jobs", &mut args)?;
                jobs = v
                    .parse()
                    .map_err(|_| CliError(format!("--jobs: not a number: {v:?}")))?;
                if jobs == 0 {
                    return Err(CliError("--jobs must be at least 1".into()));
                }
            }
            "--db" => out = Some(PathBuf::from(value_of("--db", &mut args)?)),
            "--self-check" => self_check = true,
            other if other.starts_with('-') => {
                return Err(CliError(format!("unknown option {other:?}")))
            }
            _ => src.push(PathBuf::from(arg)),
        }
    }
    let out = out.ok_or_else(|| CliError("--db is required".into()))?;
    if src.is_empty() {
        return Err(CliError("no source files or directories given".into()));
    }
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".into()));
    }
    let sources = collect_sources(&src)?;
    if sources.is_empty() {
        return Err(CliError(
            "no .c modules found under the given sources".into(),
        ));
    }
    let workers = workers.min(sources.len());

    // Round-robin partition of module *paths*; workers re-read the files
    // themselves so each process stays independent.
    let mut parts: Vec<Vec<String>> = vec![Vec::new(); workers];
    for (i, s) in sources.iter().enumerate() {
        parts[i % workers].push(s.name.clone());
    }

    let exe =
        std::env::current_exe().map_err(|e| CliError(format!("cannot locate own binary: {e}")))?;
    let tmp = std::env::temp_dir().join(format!("spex-shard-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)
        .map_err(|e| CliError(format!("shard dir {}: {e}", tmp.display())))?;
    // Spawn the workers, wait, merge, persist and self-check; the shard
    // dir goes away whatever the outcome.
    let drive = || -> CliResult {
        let mut children = Vec::with_capacity(parts.len());
        for (k, part) in parts.iter().enumerate() {
            let shard_db = tmp.join(format!("shard-{k}.spexdb"));
            let child = Command::new(&exe)
                .arg("analyze")
                .arg("--quiet")
                .args(["--system", system.as_str()])
                .args(["--dialect", dialect_tag(dialect)])
                .args(["--threads", &jobs.to_string()])
                .arg("--db")
                .arg(&shard_db)
                .args(part)
                .spawn()
                .map_err(|e| CliError(format!("worker {k}: spawn failed: {e}")))?;
            children.push((k, shard_db, child));
        }
        let mut shards = Vec::with_capacity(children.len());
        let mut failed = Vec::new();
        for (k, shard_db, mut child) in children {
            let status = child
                .wait()
                .map_err(|e| CliError(format!("worker {k}: wait failed: {e}")))?;
            if status.success() {
                shards.push(shard_db);
            } else {
                failed.push(format!("worker {k}: {status}"));
            }
        }
        if !failed.is_empty() {
            return Err(CliError(failed.join("; ")));
        }

        let mut merged = ConstraintDb::load(&shards[0])?;
        let mut report = MergeReport::default();
        for path in &shards[1..] {
            let next = ConstraintDb::load(path)?;
            let r = merged
                .merge(&next)
                .map_err(|e| CliError(format!("merge {}: {e}", path.display())))?;
            report.absorb(r);
        }
        let modules: usize = parts.iter().map(Vec::len).sum();
        println!(
            "shard: {} worker(s) over {} module(s): {} parameter(s), {} constraint(s)",
            parts.len(),
            modules,
            merged.param_names().count(),
            merged.constraint_count(),
        );
        print!("{}", report.render());
        merged
            .save(&out)
            .map_err(|e| CliError(format!("db {}: {e}", out.display())))?;
        println!("db: {}", out.display());

        if self_check {
            let (ws, _) = analyze_sources(&system, dialect, jobs, false, &sources)?;
            let single = ws.db().save_to_string();
            let sharded = merged.save_to_string();
            if single == sharded {
                println!("self-check: byte-identical ({} bytes)", sharded.len());
            } else {
                return Err(CliError(format!(
                    "self-check FAILED: sharded db ({} bytes) differs from single-process db ({} bytes)",
                    sharded.len(),
                    single.len()
                )));
            }
        }
        Ok(0)
    };
    let result = drive();
    let _ = std::fs::remove_dir_all(&tmp);
    result
}
