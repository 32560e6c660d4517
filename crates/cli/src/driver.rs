//! The shared driver layer: operational errors, argument helpers, source
//! collection, workspace construction and report rendering — everything
//! more than one subcommand needs.

use std::path::{Path, PathBuf};

use spex::check::{ConstraintDb, ReanalyzeReport};
use spex::conf::Dialect;
use spex::core::CountKind;
use spex::{ColorMode, HumanRenderer, JsonLinesRenderer, Report, SarifRenderer, Workspace};

/// A usage or operational failure. Rendered as `spex: error: {msg}` on
/// stderr and mapped to exit code 3, keeping 0/1/2 reserved for
/// validation verdicts ([`Report::exit_code`]).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError(e.to_string())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError(msg)
    }
}

impl From<spex::WorkspaceError> for CliError {
    fn from(e: spex::WorkspaceError) -> CliError {
        CliError(e.to_string())
    }
}

/// Everything a subcommand returns: `Ok(exit_code)` or an operational
/// failure.
pub type CliResult = Result<i32, CliError>;

/// Pulls the value of option `flag` out of the argument stream, erroring
/// with the flag's name when the stream ends instead.
pub fn value_of(flag: &str, args: &mut std::vec::IntoIter<String>) -> Result<String, CliError> {
    args.next()
        .ok_or_else(|| CliError(format!("{flag} requires a value")))
}

/// Parses the `--dialect` spellings, which match the constraint-database
/// tags: `key-value`, `directive`, `space`.
pub fn parse_dialect(s: &str) -> Result<Dialect, CliError> {
    match s {
        "key-value" => Ok(Dialect::KeyValue),
        "directive" => Ok(Dialect::Directive),
        "space" => Ok(Dialect::SpaceSeparated),
        other => Err(CliError(format!(
            "unknown dialect {other:?} (expected key-value, directive or space)"
        ))),
    }
}

/// The workspace shape every analyzing subcommand (`analyze`, `react`,
/// `watch`, `daemon`) takes from `--system`, `--dialect` and `--threads`.
pub struct WorkspaceOpts {
    /// Subject-system name recorded in the database header.
    pub system: String,
    /// Config-file dialect of the subject system.
    pub dialect: Dialect,
    /// Worker threads for the front end, inference and checking (`None`
    /// = the workspace default).
    pub threads: Option<usize>,
}

impl Default for WorkspaceOpts {
    fn default() -> WorkspaceOpts {
        WorkspaceOpts {
            system: "spex".into(),
            dialect: Dialect::KeyValue,
            threads: None,
        }
    }
}

impl WorkspaceOpts {
    /// Takes `arg` and its value off the stream when it is one of the
    /// shared flags; `Ok(false)` leaves any other argument to the caller.
    /// `--threads 0` is a usage error: omitting the flag is how to ask
    /// for the default.
    pub fn parse_flag(
        &mut self,
        arg: &str,
        args: &mut std::vec::IntoIter<String>,
    ) -> Result<bool, CliError> {
        match arg {
            "--system" => self.system = value_of("--system", args)?,
            "--dialect" => self.dialect = parse_dialect(&value_of("--dialect", args)?)?,
            "--threads" => {
                let v = value_of("--threads", args)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| CliError(format!("--threads: not a number: {v:?}")))?;
                if n == 0 {
                    return Err(CliError(
                        "--threads: must be at least 1 \
                         (omit the flag to use the workspace default)"
                            .into(),
                    ));
                }
                self.threads = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// A workspace of this shape: a fresh one, or one seeded from `db`,
    /// whose header then names the system and dialect.
    pub fn workspace(&self, db: Option<ConstraintDb>) -> Workspace {
        let ws = match db {
            Some(db) => Workspace::from_db(db),
            None => Workspace::new(&self.system, self.dialect),
        };
        match self.threads {
            Some(n) => ws.with_threads(n),
            None => ws,
        }
    }
}

/// Parses the `--color` spellings.
pub fn parse_color(s: &str) -> Result<ColorMode, CliError> {
    ColorMode::parse(s).ok_or_else(|| {
        CliError(format!(
            "unknown color mode {s:?} (expected auto, always, never)"
        ))
    })
}

/// The report output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutFormat {
    /// Human-readable text, optionally colored.
    #[default]
    Human,
    /// One JSON object per line, summary last.
    Jsonl,
    /// A SARIF-style document.
    Sarif,
}

/// Parses the `--format` spellings.
pub fn parse_format(s: &str) -> Result<OutFormat, CliError> {
    match s {
        "human" => Ok(OutFormat::Human),
        "jsonl" => Ok(OutFormat::Jsonl),
        "sarif" => Ok(OutFormat::Sarif),
        other => Err(CliError(format!(
            "unknown format {other:?} (expected human, jsonl or sarif)"
        ))),
    }
}

/// Renders a report in the selected format; `color` only affects
/// [`OutFormat::Human`].
pub fn render_report(report: &Report, format: OutFormat, color: ColorMode) -> String {
    match format {
        OutFormat::Human => report.render(&HumanRenderer::with_color(color)),
        OutFormat::Jsonl => report.render(&JsonLinesRenderer),
        OutFormat::Sarif => report.render(&SarifRenderer),
    }
}

/// One source module ready for [`Workspace::add_module`]: the module name
/// (its path as given), the mini-C text, and its sibling annotations.
pub struct SourceFile {
    /// Module name — the source path's display string, so constraint
    /// provenance matches across runs fed the same paths (and databases
    /// analyzed apart merge back with `spex db merge`).
    pub name: String,
    /// The module's mini-C source text.
    pub source: String,
    /// The sibling `.spex` annotation block, or empty when there is none.
    pub annotations: String,
}

/// Expands `--src` arguments into modules: files are taken as given,
/// directories are walked recursively for `*.c`. Each module's
/// annotations come from the sibling file with the `.spex` extension
/// (absent sibling = no annotations). The result is sorted by name so
/// every run, at any thread count, feeds the workspace in one canonical
/// order.
pub fn collect_sources(paths: &[PathBuf]) -> Result<Vec<SourceFile>, CliError> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let meta =
            std::fs::metadata(p).map_err(|e| CliError(format!("source {}: {e}", p.display())))?;
        if meta.is_dir() {
            walk_c_files(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    files.dedup();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| CliError(format!("source {}: {e}", path.display())))?;
        let sibling = path.with_extension("spex");
        let annotations = match std::fs::read_to_string(&sibling) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(CliError(format!("annotations {}: {e}", sibling.display()))),
        };
        out.push(SourceFile {
            name: path.display().to_string(),
            source,
            annotations,
        });
    }
    Ok(out)
}

fn walk_c_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CliError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| CliError(format!("source {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| CliError(format!("source {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() {
            walk_c_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "c") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds a workspace over collected sources (their front ends run on the
/// workspace's pool) and runs the first analysis.
pub fn analyze_sources(
    opts: &WorkspaceOpts,
    telemetry: bool,
    sources: &[SourceFile],
) -> Result<(Workspace, ReanalyzeReport), CliError> {
    let mut ws = opts.workspace(None);
    if telemetry {
        ws.enable_telemetry();
    }
    let modules: Vec<_> = sources
        .iter()
        .map(|s| (&s.name, &s.source, &s.annotations))
        .collect();
    ws.add_modules(&modules)?;
    let report = ws.reanalyze();
    Ok((ws, report))
}

/// The analysis summary `analyze` and `watch` print: one line of headline
/// counts plus the pass/cache accounting, read off
/// [`PassCounts::FIELDS`](spex::core::PassCounts::FIELDS).
pub fn render_reanalyze(ws: &Workspace, r: &ReanalyzeReport) -> String {
    let db = ws.db();
    let counts: Vec<_> = r.passes.entries().collect();
    let of_kind = |kind: CountKind| counts.iter().filter(move |(f, _)| f.kind == kind);
    let passes: Vec<String> = of_kind(CountKind::Pass)
        .map(|(f, n)| format!("{} {n}", f.label))
        .collect();
    let cache: Vec<String> = of_kind(CountKind::Runs)
        .map(|(f, runs)| {
            let hits = of_kind(CountKind::Hits)
                .find(|(h, _)| h.label == f.label)
                .map_or(0, |(_, n)| *n);
            format!("{} {hits} hit(s)/{runs} run(s)", f.label)
        })
        .collect();
    format!(
        "analyzed {} module(s): {} parameter(s), {} constraint(s)\n\
         re-inferred {}/{} parameter(s), constraints +{}/-{}\n\
         passes: {}\n\
         cache: {}\n",
        r.modules_analyzed,
        db.param_names().count(),
        db.constraint_count(),
        r.params_reinferred,
        r.params_total,
        r.constraints_added,
        r.constraints_removed,
        passes.join(", "),
        cache.join(", "),
    )
}
