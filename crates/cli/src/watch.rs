//! `spex watch` — the incremental story end-to-end: poll sources and
//! configs for mtime/size changes (std-only, no inotify), debounce bursts,
//! then re-analyze only what the edit dirtied and re-check the config set.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::driver::{
    collect_sources, parse_color, parse_format, render_reanalyze, render_report, value_of,
    CliError, CliResult, OutFormat, WorkspaceOpts,
};
use spex::{ColorMode, Workspace};

/// A poll snapshot: every watched file's (mtime, length). Two equal
/// snapshots mean the tree is quiescent.
type Snapshot = BTreeMap<PathBuf, (u128, u64)>;

/// Runs `spex watch`.
pub fn run(mut args: std::vec::IntoIter<String>) -> CliResult {
    let mut opts = WorkspaceOpts::default();
    let mut src: Vec<PathBuf> = Vec::new();
    let mut conf: Vec<PathBuf> = Vec::new();
    let mut poll_ms = 200u64;
    let mut debounce_ms = 150u64;
    let mut max_events = 0usize;
    let mut format = OutFormat::Human;
    let mut color = ColorMode::Auto;
    while let Some(arg) = args.next() {
        if opts.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--src" => src.push(PathBuf::from(value_of("--src", &mut args)?)),
            "--conf" => conf.push(PathBuf::from(value_of("--conf", &mut args)?)),
            "--poll-ms" => {
                let v = value_of("--poll-ms", &mut args)?;
                poll_ms = v
                    .parse()
                    .map_err(|_| CliError(format!("--poll-ms: not a number: {v:?}")))?;
            }
            "--debounce-ms" => {
                let v = value_of("--debounce-ms", &mut args)?;
                debounce_ms = v
                    .parse()
                    .map_err(|_| CliError(format!("--debounce-ms: not a number: {v:?}")))?;
            }
            "--max-events" => {
                let v = value_of("--max-events", &mut args)?;
                max_events = v
                    .parse()
                    .map_err(|_| CliError(format!("--max-events: not a number: {v:?}")))?;
            }
            "--format" => format = parse_format(&value_of("--format", &mut args)?)?,
            "--color" => color = parse_color(&value_of("--color", &mut args)?)?,
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    if src.is_empty() {
        return Err(CliError("watch needs at least one --src".into()));
    }

    let mut ws = opts.workspace(None);
    apply(&mut ws, &src, &conf, 0, format, color)?;

    let mut applied = take_snapshot(&src, &conf)?;
    let mut last = applied.clone();
    let mut last_change = Instant::now();
    let mut events = 0usize;
    loop {
        std::thread::sleep(Duration::from_millis(poll_ms));
        let cur = take_snapshot(&src, &conf)?;
        if cur != last {
            last = cur;
            last_change = Instant::now();
            continue;
        }
        if last != applied && last_change.elapsed() >= Duration::from_millis(debounce_ms) {
            events += 1;
            apply(&mut ws, &src, &conf, events, format, color)?;
            applied = last.clone();
            if max_events > 0 && events >= max_events {
                return Ok(0);
            }
        }
    }
}

/// Folds the current source tree into the workspace (add / update /
/// remove), re-analyzes, re-checks the config set, prints one event
/// block. Every known module gets its source and annotations again: an
/// unchanged one re-infers nothing.
fn apply(
    ws: &mut Workspace,
    src: &[PathBuf],
    conf: &[PathBuf],
    event: usize,
    format: OutFormat,
    color: ColorMode,
) -> Result<(), CliError> {
    let sources = collect_sources(src)?;
    let current: std::collections::BTreeSet<&str> =
        sources.iter().map(|s| s.name.as_str()).collect();
    let gone: Vec<String> = (ws.modules().into_iter())
        .filter(|name| !current.contains(name))
        .map(String::from)
        .collect();
    for name in gone {
        ws.remove_module(&name)?;
    }
    let mut added = Vec::new();
    for s in &sources {
        if ws.module(&s.name).is_some() {
            ws.update_module(&s.name, &s.source)?;
            ws.update_annotations(&s.name, &s.annotations)?;
        } else {
            added.push((&s.name, &s.source, &s.annotations));
        }
    }
    ws.add_modules(&added)?;
    let report = ws.reanalyze();
    let mut stdout = std::io::stdout().lock();
    let mut block = format!("-- event {event}\n{}", render_reanalyze(ws, &report));
    if !conf.is_empty() {
        let check = ws.check_paths(conf)?;
        block.push_str(&render_report(&check, format, color));
        block.push_str(&format!("exit: {}\n", check.exit_code()));
    }
    stdout
        .write_all(block.as_bytes())
        .and_then(|()| stdout.flush())
        .map_err(|e| CliError(format!("write: {e}")))?;
    Ok(())
}

/// Stats every watched file: sources expand to `*.c` plus sibling
/// `*.spex` under each `--src`, configs to every regular file under each
/// `--conf`. Vanished files simply leave the snapshot — a removal is a
/// change like any other.
fn take_snapshot(src: &[PathBuf], conf: &[PathBuf]) -> Result<Snapshot, CliError> {
    let mut snap = Snapshot::new();
    for root in src {
        stat_tree(root, &mut snap, &|p| {
            p.extension().is_some_and(|e| e == "c" || e == "spex")
        })?;
    }
    for root in conf {
        stat_tree(root, &mut snap, &|_| true)?;
    }
    Ok(snap)
}

/// Walks `path` (file or directory) and records (mtime, len) for every
/// file `keep` accepts.
fn stat_tree(
    path: &Path,
    snap: &mut Snapshot,
    keep: &dyn Fn(&Path) -> bool,
) -> Result<(), CliError> {
    let Ok(meta) = std::fs::metadata(path) else {
        return Ok(()); // raced with a delete: picked up next poll
    };
    if meta.is_dir() {
        let entries = std::fs::read_dir(path)
            .map_err(|e| CliError(format!("watch {}: {e}", path.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| CliError(format!("watch {}: {e}", path.display())))?;
            stat_tree(&entry.path(), snap, keep)?;
        }
        return Ok(());
    }
    if keep(path) {
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos());
        snap.insert(path.to_path_buf(), (mtime, meta.len()));
    }
    Ok(())
}
