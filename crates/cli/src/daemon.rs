//! `spex daemon` — a warm [`Workspace`] behind a versioned JSON-Lines
//! protocol (see `docs/protocol.md`). One request per line, of at most
//! [`MAX_LINE`] bytes; every reply
//! starts with a single header object, and `check`/`react` replies are
//! followed by the report's raw JSON-Lines body — byte-identical to the
//! one-shot `spex check --format jsonl` / `spex react --format jsonl`
//! output for the same database state and the same file labels.
//!
//! Transports: `--stdio` (EOF means shutdown) or `--socket PATH` (Unix
//! domain socket; connections are served sequentially against the same
//! warm workspace until a `shutdown` request arrives).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::path::PathBuf;

use crate::driver::{value_of, CliError, CliResult, WorkspaceOpts};
use spex::check::json::{quote, Json};
use spex::check::{ConstraintDb, ReanalyzeReport};
use spex::core::CountKind;
use spex::{JsonLinesRenderer, Workspace};

/// The daemon protocol version this binary speaks.
const PROTOCOL: u32 = 1;

/// The warm state a daemon serves from.
struct DaemonState {
    ws: Workspace,
    /// Counters from the most recent `analyze` request.
    last: ReanalyzeReport,
    /// Field-wise sums over every `analyze` request.
    total: ReanalyzeReport,
    /// Number of `check` requests served.
    checks: usize,
}

/// Runs `spex daemon`.
pub fn run(mut args: std::vec::IntoIter<String>) -> CliResult {
    let mut opts = WorkspaceOpts::default();
    let mut stdio = false;
    let mut socket: Option<PathBuf> = None;
    let mut db: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        if opts.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--socket" => socket = Some(PathBuf::from(value_of("--socket", &mut args)?)),
            "--db" => db = Some(PathBuf::from(value_of("--db", &mut args)?)),
            other => return Err(CliError(format!("unknown option {other:?}"))),
        }
    }
    if stdio == socket.is_some() {
        return Err(CliError(
            "daemon needs exactly one of --stdio or --socket PATH".into(),
        ));
    }
    let seed = db.as_ref().map(ConstraintDb::load).transpose()?;
    let mut state = DaemonState {
        ws: opts.workspace(seed),
        last: ReanalyzeReport::default(),
        total: ReanalyzeReport::default(),
        checks: 0,
    };
    if stdio {
        eprintln!("spex daemon: ready (stdio, protocol v{PROTOCOL})");
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve(&mut state, stdin.lock(), &mut stdout.lock())?;
        return Ok(0);
    }
    serve_socket(&mut state, &socket.expect("checked above"))
}

/// Accept loop for `--socket`. Unix-only: domain sockets have no std
/// equivalent elsewhere.
#[cfg(unix)]
fn serve_socket(state: &mut DaemonState, path: &PathBuf) -> CliResult {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| CliError(format!("socket {}: {e}", path.display())))?;
    eprintln!(
        "spex daemon: listening on {} (protocol v{PROTOCOL})",
        path.display()
    );
    for conn in listener.incoming() {
        let conn = conn.map_err(|e| CliError(format!("accept: {e}")))?;
        let reader = BufReader::new(
            conn.try_clone()
                .map_err(|e| CliError(format!("socket clone: {e}")))?,
        );
        let mut writer = conn;
        if serve(state, reader, &mut writer)? {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(0)
}

#[cfg(not(unix))]
fn serve_socket(_state: &mut DaemonState, _path: &PathBuf) -> CliResult {
    Err(CliError(
        "--socket requires a Unix platform; use --stdio".into(),
    ))
}

/// The longest request line the daemon reads, newline excluded (the
/// 2,048-module fleet's sources total 4.13 MiB).
const MAX_LINE: usize = 64 << 20;

/// Serves one request stream. Returns `Ok(true)` when a `shutdown`
/// request ended the session (as opposed to EOF closing the transport).
fn serve(
    state: &mut DaemonState,
    mut reader: impl BufRead,
    writer: &mut impl Write,
) -> Result<bool, CliError> {
    let mut line = Vec::new();
    loop {
        let (reply, shutdown) = match read_line(&mut reader, &mut line) {
            Err(e) => return Err(CliError(format!("read: {e}"))),
            Ok(None) => return Ok(false),
            Ok(Some(Ok(text))) if text.trim().is_empty() => continue,
            Ok(Some(Ok(text))) => handle_line(state, text),
            Ok(Some(Err(rejected))) => (error_reply(None, &rejected), false),
        };
        writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| CliError(format!("write: {e}")))?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Reads the next request line into `line`: `None` at EOF, else the line,
/// newline included, or why it is rejected: it is not UTF-8, or it is
/// longer than [`MAX_LINE`] bytes (its rest is then skipped, not buffered).
fn read_line<'l>(
    reader: &mut impl BufRead,
    line: &'l mut Vec<u8>,
) -> std::io::Result<Option<Result<&'l str, String>>> {
    line.clear();
    let mut bounded = reader.by_ref().take(MAX_LINE as u64 + 1);
    if bounded.read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.len() > MAX_LINE && !line.ends_with(b"\n") {
        reader.skip_until(b'\n')?;
        *line = Vec::new();
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE} bytes"
        ))));
    }
    Ok(Some(
        std::str::from_utf8(line).map_err(|e| format!("request is not UTF-8: {e}")),
    ))
}

/// Renders a request id for a reply header (`null` when the request never
/// carried a usable one).
fn id_json(id: Option<i64>) -> String {
    id.map_or_else(|| "null".into(), |v| v.to_string())
}

/// One protocol error reply.
fn error_reply(id: Option<i64>, msg: &str) -> String {
    format!(
        "{{\"v\":{PROTOCOL},\"id\":{},\"ok\":false,\"error\":{}}}\n",
        id_json(id),
        quote(msg)
    )
}

/// Parses and dispatches one request line; never panics on bad input.
/// Returns the full reply (header plus any body lines) and whether the
/// daemon should shut down.
fn handle_line(state: &mut DaemonState, line: &str) -> (String, bool) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply(None, &format!("malformed request: {e}")), false),
    };
    let id = req.get("id").and_then(Json::as_f64).map(|v| v as i64);
    match req.get("v").and_then(Json::as_f64) {
        Some(v) if v as u32 == PROTOCOL => {}
        Some(v) => {
            return (
                error_reply(id, &format!("unsupported protocol version {v}")),
                false,
            )
        }
        None => return (error_reply(id, "missing protocol version \"v\""), false),
    }
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return (error_reply(id, "missing \"op\""), false);
    };
    match op {
        "analyze" => (op_analyze(state, id, &req), false),
        "check" => (op_check(state, id, &req), false),
        "react" => (op_react(state, id), false),
        "status" => (op_status(state, id), false),
        "shutdown" => (
            format!(
                "{{\"v\":{PROTOCOL},\"id\":{},\"op\":\"shutdown\",\"ok\":true}}\n",
                id_json(id)
            ),
            true,
        ),
        other => (error_reply(id, &format!("unknown op {other:?}")), false),
    }
}

/// `analyze`: add or update the given modules, then re-infer whatever the
/// change dirtied. Every entry is checked before any is applied, and a
/// name may appear once. A module the daemon has seen before is updated,
/// in request order (diffed by item keys, so unchanged functions stay
/// warm); its annotations are only replaced when the request carries an
/// `annotations` field, and re-sent unchanged they re-infer nothing. The
/// other modules are then added in one batch, in request order.
fn op_analyze(state: &mut DaemonState, id: Option<i64>, req: &Json) -> String {
    let Some(modules) = req.get("modules").and_then(Json::as_array) else {
        return error_reply(id, "analyze: missing \"modules\" array");
    };
    let mut names = std::collections::BTreeSet::new();
    let mut updated = Vec::new();
    let mut added = Vec::new();
    for m in modules {
        let Some(name) = m.get("name").and_then(Json::as_str) else {
            return error_reply(id, "analyze: module without a \"name\"");
        };
        let Some(source) = m.get("source").and_then(Json::as_str) else {
            return error_reply(id, &format!("analyze: module {name:?} without \"source\""));
        };
        if !names.insert(name) {
            return error_reply(id, &format!("analyze: module {name:?} given twice"));
        }
        let annotations = m.get("annotations").and_then(Json::as_str);
        if state.ws.module(name).is_some() {
            updated.push((name, source, annotations));
        } else {
            added.push((name, source, annotations.unwrap_or("")));
        }
    }
    let result = (updated.into_iter())
        .try_for_each(|(name, source, annotations)| {
            state.ws.update_module(name, source)?;
            annotations.map_or(Ok(()), |a| state.ws.update_annotations(name, a))
        })
        .and_then(|()| state.ws.add_modules(&added));
    if let Err(e) = result {
        return error_reply(id, &e.to_string());
    }
    let r = state.ws.reanalyze();
    state.total.accumulate(&r);
    state.last = r.clone();
    format!(
        "{{\"v\":{PROTOCOL},\"id\":{},\"op\":\"analyze\",\"ok\":true,\
         \"modules_analyzed\":{},\"params_total\":{},\"params_reinferred\":{},\
         \"constraints_added\":{},\"constraints_removed\":{},\
         \"params\":{},\"constraints\":{}}}\n",
        id_json(id),
        r.modules_analyzed,
        r.params_total,
        r.params_reinferred,
        r.constraints_added,
        r.constraints_removed,
        state.ws.db().param_names().count(),
        state.ws.db().constraint_count(),
    )
}

/// `check`: validate in-memory config texts (`configs`) and/or config
/// trees on disk (`paths`) against the warm database. The body after the
/// header is the report's JSON-Lines rendering, verbatim.
fn op_check(state: &mut DaemonState, id: Option<i64>, req: &Json) -> String {
    let configs = req.get("configs").and_then(Json::as_array);
    let paths = req.get("paths").and_then(Json::as_array);
    let report = match (configs, paths) {
        (Some(configs), None) => {
            let mut texts: Vec<(String, String)> = Vec::with_capacity(configs.len());
            for c in configs {
                let (Some(name), Some(text)) = (
                    c.get("name").and_then(Json::as_str),
                    c.get("text").and_then(Json::as_str),
                ) else {
                    return error_reply(id, "check: each config needs \"name\" and \"text\"");
                };
                texts.push((name.to_string(), text.to_string()));
            }
            state.ws.check_texts(&texts)
        }
        (None, Some(paths)) => {
            let mut roots: Vec<PathBuf> = Vec::with_capacity(paths.len());
            for p in paths {
                let Some(p) = p.as_str() else {
                    return error_reply(id, "check: \"paths\" must be strings");
                };
                roots.push(PathBuf::from(p));
            }
            match state.ws.check_paths(&roots) {
                Ok(r) => r,
                Err(e) => return error_reply(id, &format!("check: {e}")),
            }
        }
        _ => {
            return error_reply(id, "check: need exactly one of \"configs\" or \"paths\"");
        }
    };
    state.checks += 1;
    let body = report.render(&JsonLinesRenderer);
    format!(
        "{{\"v\":{PROTOCOL},\"id\":{},\"op\":\"check\",\"ok\":true,\"exit_code\":{},\"lines\":{}}}\n{body}",
        id_json(id),
        report.exit_code(),
        body.lines().count(),
    )
}

/// `react`: the static reaction-analysis report, JSON-Lines body after
/// the header.
fn op_react(state: &mut DaemonState, id: Option<i64>) -> String {
    let report = state.ws.reaction_report();
    let body = report.render(&JsonLinesRenderer);
    format!(
        "{{\"v\":{PROTOCOL},\"id\":{},\"op\":\"react\",\"ok\":true,\"exit_code\":{},\"lines\":{}}}\n{body}",
        id_json(id),
        report.exit_code(),
        body.lines().count(),
    )
}

/// `status`: warm-state introspection — database shape, zero-copy
/// counters, and the pass accounting for the last and the cumulative
/// `analyze` requests. `session_rebuilds` is always 0: sessions borrow
/// the database, which is its own index, so there is nothing to rebuild.
/// The key stays because removing a reply field needs a protocol bump.
fn op_status(state: &mut DaemonState, id: Option<i64>) -> String {
    let db = state.ws.db();
    format!(
        "{{\"v\":{PROTOCOL},\"id\":{},\"op\":\"status\",\"ok\":true,\
         \"system\":{},\"modules\":{},\"params\":{},\"constraints\":{},\
         \"checks\":{},\"session_rebuilds\":0,\"module_clones\":{},\"function_clones\":{},\
         \"last\":{},\"total\":{}}}\n",
        id_json(id),
        quote(state.ws.system()),
        state.ws.modules().len(),
        db.param_names().count(),
        db.constraint_count(),
        state.checks,
        state.ws.module_clones(),
        state.ws.function_clones(),
        report_json(&state.last),
        report_json(&state.total),
    )
}

/// Serializes one [`ReanalyzeReport`] — inference work plus the
/// pass-cache counters the incremental acceptance tests assert on, keyed
/// by their [`PassCounts::FIELDS`](spex::core::PassCounts::FIELDS) names.
fn report_json(r: &ReanalyzeReport) -> String {
    let mut out = format!(
        "{{\"modules_analyzed\":{},\"params_total\":{},\"params_reinferred\":{},\
         \"constraints_added\":{},\"constraints_removed\":{}",
        r.modules_analyzed,
        r.params_total,
        r.params_reinferred,
        r.constraints_added,
        r.constraints_removed,
    );
    for (field, n) in r.passes.entries() {
        if field.kind != CountKind::Pass {
            let _ = write!(out, ",\"{}\":{n}", field.name);
        }
    }
    out.push('}');
    out
}
