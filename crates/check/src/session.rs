//! The borrowed checking engine: one [`CheckSession`] per constraint
//! database, no copies, every front-end.
//!
//! A `CheckSession<'db>` *borrows* its [`ConstraintDb`] — constructing one
//! builds nothing and never clones a constraint, because the database
//! itself is the parameter index (exact-name, name-order and module →
//! parameters; see [`Params`](crate::Params)); "check on every edit" costs
//! per-file work only. It is the single implementation behind
//! [`Workspace::check_text`](crate::Workspace::check_text) and
//! [`Workspace::check_paths`](crate::Workspace::check_paths).
//!
//! Each setting in a file is vetted against every constraint inferred for
//! its parameter: basic-type conformance, semantic-type plausibility
//! (unit-aware for time and size parameters), numeric- and enumerative-
//! range membership, control-dependency activation, and cross-parameter
//! value relationships. Keys not present in the database are reported with
//! a "did you mean" suggestion: a case twin, else the nearest name within
//! three edits, found by walking the name-order index as a pruned trie
//! ([`ConstraintDb::nearest_param`]) rather than scoring every name.
//! Every finding carries a stable [`DiagCode`], the violated constraint's
//! provenance (module + function + span, from the v2 database) and, where
//! computable, a machine-applicable [`Fix`].
//!
//! # Example
//!
//! ```
//! use spex_check::{CheckSession, ConstraintDb};
//! use spex_conf::Dialect;
//! use spex_core::constraint::{
//!     Constraint, ConstraintKind, DiagCode, NumericRange, RangeSegment,
//! };
//!
//! let mut db = ConstraintDb::new("demo", Dialect::KeyValue);
//! db.add(Constraint {
//!     param: "listener-threads".into(),
//!     kind: ConstraintKind::Range(NumericRange {
//!         cutpoints: vec![1, 16],
//!         segments: vec![
//!             RangeSegment { lo: None, hi: Some(0), valid: false },
//!             RangeSegment { lo: Some(1), hi: Some(16), valid: true },
//!             RangeSegment { lo: Some(17), hi: None, valid: false },
//!         ],
//!     }),
//!     in_function: "startup".into(),
//!     span: spex_lang::diag::Span::new(40, 9),
//! });
//!
//! let session = CheckSession::new(&db); // borrows; zero copies
//! let diags = session.check_text("listener-threads = 9999\n");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, DiagCode::Range);
//! assert!(diags[0].fix.is_some(), "clamping to [1, 16] is computable");
//! ```

use crate::db::{ConstraintDb, ParamEntry};
use crate::diag::{Diagnostic, Fix, Severity};
use crate::env::Environment;
use crate::pool;
use crate::report::{FileReport, Report};
use spex_conf::{ConfFile, Entry};
use spex_core::constraint::{
    BasicType, CmpOp, ConstraintKind, DiagCode, EnumValue, SemType, SizeUnit, TimeUnit,
};
use std::path::Path;
use std::sync::Arc;

/// Absurdity bar for a time value, in the parameter's own unit (the
/// paper's injection rule plants "absurdly large time value"s).
///
/// The bar is per-unit: a single "over a year" bar lets sub-second units
/// dodge it — `999999999 ms` is "only" 11.5 days, yet nobody writes a
/// nine-digit millisecond count on purpose; they mistook the unit.
/// Sub-second units express fine-grained intervals, so they must clear a
/// proportionally lower bar.
fn absurd_time_bar(unit: TimeUnit) -> (i64, &'static str) {
    match unit {
        // One hour of microseconds.
        TimeUnit::Micro => (3600 * 1_000_000, "an hour"),
        // One week of milliseconds.
        TimeUnit::Milli => (7 * 24 * 3600 * 1000, "a week"),
        // One year for coarse units.
        TimeUnit::Sec => (366 * 24 * 3600, "a year"),
        TimeUnit::Min => (366 * 24 * 60, "a year"),
        TimeUnit::Hour => (366 * 24, "a year"),
    }
}

/// The largest Levenshtein distance a "did you mean" suggestion spans.
const MAX_SUGGEST_DISTANCE: usize = 3;

/// The borrowed validation engine for one system (see the module docs).
pub struct CheckSession<'db> {
    db: &'db ConstraintDb,
    env: Option<&'db (dyn Environment + Sync)>,
    threads: usize,
    recorder: Option<Arc<spex_obs::Recorder>>,
}

/// One setting occurrence in the file, with its serialized line number.
struct Occurrence<'c> {
    name: &'c str,
    value: &'c str,
    line: usize,
}

impl<'db> CheckSession<'db> {
    /// A session over a borrowed database, with no environment model.
    pub fn new(db: &'db ConstraintDb) -> CheckSession<'db> {
        CheckSession {
            db,
            env: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            recorder: None,
        }
    }

    /// Attaches a telemetry recorder: every check run through this session
    /// records per-file spans, per-constraint-kind timings and
    /// diagnostics-emitted counters into it, including work done on the
    /// multi-file worker pool. Without one, checking records nothing
    /// (beyond whatever recorder the calling thread itself installed).
    pub fn with_recorder(mut self, recorder: Arc<spex_obs::Recorder>) -> CheckSession<'db> {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches an environment model enabling existence checks.
    pub fn with_env(mut self, env: &'db (dyn Environment + Sync)) -> CheckSession<'db> {
        self.env = Some(env);
        self
    }

    /// Overrides the worker-thread count for multi-file checking.
    pub fn with_threads(mut self, threads: usize) -> CheckSession<'db> {
        self.threads = threads.max(1);
        self
    }

    /// The borrowed database.
    pub fn db(&self) -> &'db ConstraintDb {
        self.db
    }

    // -- Single-file checking -------------------------------------------

    /// Parses `text` under the database's dialect and checks it.
    pub fn check_text(&self, text: &str) -> Vec<Diagnostic> {
        self.check(&ConfFile::parse(text, self.db.dialect))
    }

    /// Checks a parsed config file, returning diagnostics in file order.
    /// Cross-parameter findings (control dependencies, value relation-
    /// ships) are attached to the constrained setting — the dependent or
    /// left-hand side — wherever it appears in the file.
    pub fn check(&self, conf: &ConfFile) -> Vec<Diagnostic> {
        // Installing here (not only in the batch entry points) keeps the
        // span tree identical whether a file is checked inline or on a
        // worker: `check.file` is always a fresh top-level span.
        let _telemetry = self.recorder.as_ref().map(spex_obs::install);
        let _span = spex_obs::span("check.file");
        let started = spex_obs::clock();
        let occurrences: Vec<Occurrence> = conf
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Setting { name, args } => Some(Occurrence {
                    name,
                    value: args.first().map(|s| s.as_str()).unwrap_or(""),
                    line: i + 1,
                }),
                _ => None,
            })
            .collect();

        let mut out = Vec::new();
        for occ in &occurrences {
            match self.db.param(occ.name) {
                Some(entry) => self.check_setting(entry, occ, &occurrences, &mut out),
                None => out.push(self.unknown_key(occ)),
            }
        }
        if spex_obs::enabled() {
            spex_obs::counter("check.files", 1);
            spex_obs::counter("check.settings", occurrences.len() as u64);
            spex_obs::counter("check.diagnostics", out.len() as u64);
            for d in &out {
                spex_obs::counter(&format!("check.diag.{}", d.code.as_str()), 1);
            }
            spex_obs::observe_elapsed("check.file_ns", started);
        }
        out
    }

    /// Checks one labelled text, packaging the findings as a
    /// [`FileReport`] under the database's system.
    pub fn check_file(&self, label: impl Into<String>, text: &str) -> FileReport {
        FileReport::new(self.db.system.clone(), label, self.check_text(text))
    }

    // -- Multi-file checking --------------------------------------------

    /// Checks many in-memory `(label, text)` files on the worker pool,
    /// returning a [`Report`] in input order.
    pub fn check_texts<L, T>(&self, files: &[(L, T)]) -> Report
    where
        L: AsRef<str> + Sync,
        T: AsRef<str> + Sync,
    {
        let _telemetry = self.recorder.as_ref().map(spex_obs::install);
        let _span = spex_obs::span("check.batch");
        let reports = pool::run_indexed(self.threads, files.len(), self.recorder.as_ref(), |i| {
            let (label, text) = &files[i];
            self.check_file(label.as_ref(), text.as_ref())
        });
        Report::from_files(reports)
    }

    /// Streaming validation of files and directory trees: walks `roots`
    /// (files, or directories descended in sorted order), then validates
    /// every discovered file on the worker pool. Each worker reads one
    /// file at a time and drops the text once checked, so memory stays
    /// bounded by the thread count no matter how large the corpus is.
    /// Reports come back in walk order; a file that disappears or cannot
    /// be read mid-run yields a report with
    /// [`read_error`](FileReport::read_error) set rather than aborting
    /// the run. Only nonexistent roots are a hard error.
    pub fn check_paths<P: AsRef<Path>>(&self, roots: &[P]) -> std::io::Result<Report> {
        let _telemetry = self.recorder.as_ref().map(spex_obs::install);
        let _span = spex_obs::span("check.paths");
        let files = pool::walk_roots(roots)?;
        let reports = pool::run_indexed(self.threads, files.len(), self.recorder.as_ref(), |i| {
            let entry = &files[i];
            let label = entry.path.display().to_string();
            let unreadable = |message: String| FileReport {
                system: self.db.system.clone(),
                file: label.clone(),
                diagnostics: Vec::new(),
                unknown_system: false,
                read_error: Some(message),
            };
            if let Some(e) = &entry.walk_error {
                return unreadable(e.clone());
            }
            // Refuse non-regular files *before* opening them: reading a
            // FIFO with no writer blocks forever, and a device file can
            // yield unbounded garbage.
            match std::fs::metadata(&entry.path) {
                Ok(m) if !m.is_file() => {
                    return unreadable("not a regular file".to_string());
                }
                _ => {}
            }
            match std::fs::read_to_string(&entry.path) {
                Ok(text) => self.check_file(label, &text),
                Err(e) => unreadable(e.to_string()),
            }
        });
        Ok(Report::from_files(reports))
    }

    // -- Unknown keys ----------------------------------------------------

    fn unknown_key(&self, occ: &Occurrence) -> Diagnostic {
        let mut d = Diagnostic::new(
            Severity::Error,
            occ.name,
            occ.value,
            "unknown configuration parameter",
            DiagCode::UnknownKey,
        )
        .at_line(occ.line);
        if let Some(entry) = self.db.param_ignore_case(occ.name) {
            return d
                .suggest(format!(
                    "parameter names are case-sensitive here; did you mean \"{}\"?",
                    entry.name
                ))
                .with_fix(Fix::RenameKey {
                    from: occ.name.to_string(),
                    to: entry.name.clone(),
                });
        }
        // A tie goes to the smallest name in byte order, the order
        // `save_to_string` writes: a workspace (first-seen order) and a
        // loaded database (name order) suggest the same key.
        if let Some(entry) = self.db.nearest_param(occ.name, MAX_SUGGEST_DISTANCE, false) {
            d = d
                .suggest(format!("did you mean \"{}\"?", entry.name))
                .with_fix(Fix::RenameKey {
                    from: occ.name.to_string(),
                    to: entry.name.clone(),
                });
        }
        d
    }

    // -- Per-setting checks ----------------------------------------------

    fn check_setting(
        &self,
        entry: &ParamEntry,
        occ: &Occurrence,
        all: &[Occurrence],
        out: &mut Vec<Diagnostic>,
    ) {
        // A value that matches a word alternative of one of the parameter's
        // enumerative constraints is a word-typed setting ("on", "full");
        // numeric basic-type and range checks do not apply to it.
        let word_ok = entry.constraints.iter().any(|c| match &c.kind {
            ConstraintKind::EnumRange(e) => e.alternatives.iter().any(|a| match &a.value {
                EnumValue::Str(s) => {
                    a.valid
                        && (s == occ.value
                            || (e.case_insensitive && s.eq_ignore_ascii_case(occ.value)))
                }
                EnumValue::Int(_) => false,
            }),
            _ => false,
        });

        for (c, module) in entry.with_provenance() {
            let started = spex_obs::clock();
            let diag = match &c.kind {
                ConstraintKind::BasicType(bt) => {
                    if word_ok {
                        None
                    } else {
                        self.check_basic(bt, occ)
                    }
                }
                ConstraintKind::SemanticType(st) => self.check_semantic(st, occ),
                ConstraintKind::Range(r) => {
                    if word_ok {
                        None
                    } else {
                        self.check_range(r, occ)
                    }
                }
                ConstraintKind::EnumRange(e) => self.check_enum(e, occ),
                ConstraintKind::ControlDep(d) => self.check_control_dep(d, occ, all),
                ConstraintKind::ValueRel(r) => self.check_value_rel(r, occ, all),
            };
            spex_obs::observe_elapsed(kind_timing_metric(&c.kind), started);
            if let Some(d) = diag {
                out.push(
                    d.at_line(occ.line)
                        .from_origin(module, &c.in_function, c.span),
                );
            }
        }
    }

    fn check_basic(&self, bt: &BasicType, occ: &Occurrence) -> Option<Diagnostic> {
        match bt {
            BasicType::Str | BasicType::Enum => None,
            BasicType::Bool => {
                if parse_bool_word(occ.value).is_some() {
                    None
                } else {
                    Some(
                        Diagnostic::new(
                            Severity::Error,
                            occ.name,
                            occ.value,
                            "expects a boolean",
                            DiagCode::BasicType,
                        )
                        .suggest("use \"on\" or \"off\""),
                    )
                }
            }
            BasicType::Int { bits, signed } => match parse_plain_int(occ.value) {
                Some(v) => {
                    let (lo, hi) = int_bounds(*bits, *signed);
                    if v < lo || v > hi {
                        Some(
                            Diagnostic::new(
                                Severity::Error,
                                occ.name,
                                occ.value,
                                format!("overflows the {bt} the system stores it in"),
                                DiagCode::BasicType,
                            )
                            .suggest(format!("use a value between {lo} and {hi}")),
                        )
                    } else {
                        None
                    }
                }
                None => {
                    let mut d = Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        occ.value,
                        format!("expects a {bt}"),
                        DiagCode::BasicType,
                    );
                    if let Some((_, suffix)) = split_unit_suffix(occ.value) {
                        d = d.suggest(format!(
                            "the system parses this with an integer API and would silently \
                             drop the \"{suffix}\" suffix; write the value converted to base \
                             units, without a suffix"
                        ));
                    }
                    Some(d)
                }
            },
            BasicType::Float { .. } => {
                if occ.value.parse::<f64>().is_ok() {
                    None
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        occ.value,
                        format!("expects a {bt}"),
                        DiagCode::BasicType,
                    ))
                }
            }
        }
    }

    fn check_semantic(&self, st: &SemType, occ: &Occurrence) -> Option<Diagnostic> {
        let v = occ.value;
        match st {
            SemType::FilePath => {
                let env = self.env?;
                if env.file_exists(v) {
                    None
                } else if env.dir_exists(v) {
                    Some(
                        Diagnostic::new(
                            Severity::Error,
                            occ.name,
                            v,
                            "names a directory, but a regular file is expected",
                            DiagCode::SemanticType,
                        )
                        .suggest("point it at a file inside the directory"),
                    )
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "file does not exist",
                        DiagCode::SemanticType,
                    ))
                }
            }
            SemType::DirPath => {
                let env = self.env?;
                if env.dir_exists(v) {
                    None
                } else if env.file_exists(v) {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "names a regular file, but a directory is expected",
                        DiagCode::SemanticType,
                    ))
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "directory does not exist",
                        DiagCode::SemanticType,
                    ))
                }
            }
            SemType::Port => {
                let port = match parse_plain_int(v) {
                    Some(p) if (1..=65535).contains(&p) => p as u16,
                    Some(p) => {
                        return Some(
                            Diagnostic::new(
                                Severity::Error,
                                occ.name,
                                v,
                                format!("{p} is outside the valid TCP/UDP port range"),
                                DiagCode::SemanticType,
                            )
                            .suggest("use a port between 1 and 65535"),
                        )
                    }
                    None => {
                        return Some(Diagnostic::new(
                            Severity::Error,
                            occ.name,
                            v,
                            "expects a numeric port",
                            DiagCode::SemanticType,
                        ))
                    }
                };
                if self.env.map(|e| e.port_in_use(port)).unwrap_or(false) {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        format!("port {port} is already in use by another process"),
                        DiagCode::SemanticType,
                    ))
                } else {
                    None
                }
            }
            SemType::IpAddr => {
                if is_dotted_quad(v) {
                    None
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "is not a dotted-quad IP address",
                        DiagCode::SemanticType,
                    ))
                }
            }
            SemType::Hostname => {
                let env = self.env?;
                if env.host_resolves(v) {
                    None
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "host name does not resolve",
                        DiagCode::SemanticType,
                    ))
                }
            }
            SemType::UserName => {
                let env = self.env?;
                if env.user_exists(v) {
                    None
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "unknown user",
                        DiagCode::SemanticType,
                    ))
                }
            }
            SemType::GroupName => {
                let env = self.env?;
                if env.group_exists(v) {
                    None
                } else {
                    Some(Diagnostic::new(
                        Severity::Error,
                        occ.name,
                        v,
                        "unknown group",
                        DiagCode::SemanticType,
                    ))
                }
            }
            SemType::Time(unit) => self.check_time(*unit, occ),
            SemType::Size(unit) => self.check_size(*unit, occ),
            SemType::Permission => {
                let ok =
                    !v.is_empty() && v.len() <= 4 && v.chars().all(|c| ('0'..='7').contains(&c));
                if ok {
                    None
                } else {
                    Some(
                        Diagnostic::new(
                            Severity::Error,
                            occ.name,
                            v,
                            "is not an octal permission mask",
                            DiagCode::SemanticType,
                        )
                        .suggest("use up to four octal digits, e.g. 0644"),
                    )
                }
            }
        }
    }

    fn check_time(&self, unit: TimeUnit, occ: &Occurrence) -> Option<Diagnostic> {
        if let Some((_, suffix)) = split_unit_suffix(occ.value) {
            // An explicit unit that differs from what the code expects is
            // the paper's Figure 5(a)/7(d) trap: the integer parser drops
            // the suffix and silently mis-scales the value.
            let mut d = Diagnostic::new(
                Severity::Error,
                occ.name,
                occ.value,
                format!(
                    "carries a \"{suffix}\" unit suffix, but the system reads a plain \
                     number of {unit}"
                ),
                DiagCode::SemanticType,
            );
            // The conversion is computable, so repair it, not just report
            // it: `10s` for a milliseconds parameter becomes `10000`.
            let bar = absurd_time_bar(unit).0;
            match suffix_conversion(occ.value, SuffixKind::Time(unit.in_micros()))
                .filter(|&c| c <= bar && self.fix_value_is_clean(occ.name, c))
            {
                Some(converted) => {
                    d = d
                        .suggest(format!("write it as \"{converted}\" ({unit}, no suffix)"))
                        .with_fix(Fix::ReplaceValue {
                            param: occ.name.to_string(),
                            value: converted.to_string(),
                        });
                }
                None => {
                    d = d.suggest(format!(
                        "write the value converted to {unit}, without a suffix"
                    ));
                }
            }
            return Some(d);
        }
        let v = parse_plain_int(occ.value)?;
        if v < 0 {
            return Some(Diagnostic::new(
                Severity::Error,
                occ.name,
                occ.value,
                "time durations cannot be negative",
                DiagCode::SemanticType,
            ));
        }
        let (bar, human) = absurd_time_bar(unit);
        if v > bar {
            return Some(Diagnostic::new(
                Severity::Error,
                occ.name,
                occ.value,
                format!("{v} {unit} is over {human} — almost certainly a unit mistake"),
                DiagCode::SemanticType,
            ));
        }
        None
    }

    fn check_size(&self, unit: SizeUnit, occ: &Occurrence) -> Option<Diagnostic> {
        if let Some((_, suffix)) = split_unit_suffix(occ.value) {
            let mut d = Diagnostic::new(
                Severity::Error,
                occ.name,
                occ.value,
                format!(
                    "carries a \"{suffix}\" unit suffix, but the system reads a plain \
                     number of {unit}"
                ),
                DiagCode::SemanticType,
            );
            match suffix_conversion(occ.value, SuffixKind::Size(unit.in_bytes()))
                .filter(|&c| self.fix_value_is_clean(occ.name, c))
            {
                Some(converted) => {
                    d = d
                        .suggest(format!("write it as \"{converted}\" ({unit}, no suffix)"))
                        .with_fix(Fix::ReplaceValue {
                            param: occ.name.to_string(),
                            value: converted.to_string(),
                        });
                }
                None => {
                    d = d.suggest(format!(
                        "write the value converted to {unit}, without a suffix"
                    ));
                }
            }
            return Some(d);
        }
        let v = parse_plain_int(occ.value)?;
        if v < 0 {
            return Some(Diagnostic::new(
                Severity::Error,
                occ.name,
                occ.value,
                "sizes cannot be negative",
                DiagCode::SemanticType,
            ));
        }
        None
    }

    /// Whether `value` would pass every numeric range constraint on the
    /// parameter. A fix must never introduce a new finding, so a unit
    /// conversion is only emitted as machine-applicable when the converted
    /// value checks clean; otherwise the diagnostic keeps its prose
    /// suggestion and the user decides.
    fn fix_value_is_clean(&self, name: &str, value: i64) -> bool {
        self.db.param(name).is_none_or(|e| {
            e.constraints.iter().all(|c| match &c.kind {
                ConstraintKind::Range(r) => r.is_valid(value),
                _ => true,
            })
        })
    }

    fn check_range(
        &self,
        r: &spex_core::constraint::NumericRange,
        occ: &Occurrence,
    ) -> Option<Diagnostic> {
        let v = parse_plain_int(occ.value)?;
        if r.is_valid(v) {
            return None;
        }
        let interval = r.valid_interval();
        let mut d = Diagnostic::new(
            Severity::Error,
            occ.name,
            occ.value,
            match interval {
                Some((lo, hi)) => format!(
                    "out of the valid range [{}, {}]",
                    lo.map(|v| v.to_string()).unwrap_or_else(|| "-inf".into()),
                    hi.map(|v| v.to_string()).unwrap_or_else(|| "+inf".into()),
                ),
                None => "out of the valid range".to_string(),
            },
            DiagCode::Range,
        );
        if let Some((Some(lo), Some(hi))) = interval {
            d = d.suggest(format!("use a value between {lo} and {hi}"));
        }
        // Clamping to the nearest valid bound is machine-applicable when
        // the value overshoots a known edge of the valid interval.
        if let Some((lo, hi)) = interval {
            let clamped = match (lo, hi) {
                (Some(lo), _) if v < lo => Some(lo),
                (_, Some(hi)) if v > hi => Some(hi),
                _ => None,
            };
            if let Some(c) = clamped.filter(|c| r.is_valid(*c)) {
                d = d.with_fix(Fix::ReplaceValue {
                    param: occ.name.to_string(),
                    value: c.to_string(),
                });
            }
        }
        Some(d)
    }

    fn check_enum(
        &self,
        e: &spex_core::constraint::EnumRange,
        occ: &Occurrence,
    ) -> Option<Diagnostic> {
        if e.alternatives.is_empty() {
            return None;
        }
        let as_int = parse_plain_int(occ.value);
        let has_int_alts = e
            .alternatives
            .iter()
            .any(|a| matches!(a.value, EnumValue::Int(_)));
        // Integer-enum parameters (switch ranges): membership over the arms.
        if let (Some(v), true) = (as_int, has_int_alts) {
            let matched = e.alternatives.iter().find(|a| a.value == EnumValue::Int(v));
            return match matched {
                Some(a) if a.valid => None,
                _ => {
                    let valid: Vec<String> = e
                        .alternatives
                        .iter()
                        .filter(|a| a.valid)
                        .map(|a| a.value.to_string())
                        .collect();
                    Some(
                        Diagnostic::new(
                            Severity::Error,
                            occ.name,
                            occ.value,
                            "is not one of the accepted values",
                            DiagCode::Enum,
                        )
                        .suggest(format!("accepted values: {}", valid.join(", "))),
                    )
                }
            };
        }
        // Word-enum parameters.
        let exact = e.alternatives.iter().find(|a| match &a.value {
            EnumValue::Str(s) => {
                s == occ.value || (e.case_insensitive && s.eq_ignore_ascii_case(occ.value))
            }
            EnumValue::Int(_) => false,
        });
        if let Some(a) = exact {
            return if a.valid {
                None
            } else {
                Some(Diagnostic::new(
                    Severity::Error,
                    occ.name,
                    occ.value,
                    "is an explicitly rejected value",
                    DiagCode::Enum,
                ))
            };
        }
        // Not a member: distinguish the case-mismatch trap (Figure 1's
        // iSCSI initiator-name failure) from a plainly wrong word.
        let case_twin = e.alternatives.iter().find_map(|a| match &a.value {
            EnumValue::Str(s) if s.eq_ignore_ascii_case(occ.value) => Some(s.as_str()),
            _ => None,
        });
        let valid: Vec<String> = e
            .alternatives
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.value.to_string())
            .collect();
        let mut d = Diagnostic::new(
            Severity::Error,
            occ.name,
            occ.value,
            if case_twin.is_some() {
                "differs from an accepted word only by letter case, and matching here \
                 is case-sensitive"
            } else {
                "is not one of the accepted words"
            },
            DiagCode::Enum,
        );
        d = match case_twin {
            Some(twin) => d
                .suggest(format!("write it exactly as \"{twin}\""))
                .with_fix(Fix::ReplaceValue {
                    param: occ.name.to_string(),
                    value: twin.to_string(),
                }),
            None => {
                // The nearest accepted word by edit distance is a
                // machine-applicable repair (paper: "did you mean").
                let nearest = e
                    .alternatives
                    .iter()
                    .filter(|a| a.valid)
                    .filter_map(|a| match &a.value {
                        EnumValue::Str(s) => Some((
                            levenshtein(occ.value, s, MAX_SUGGEST_DISTANCE + 1),
                            s.as_str(),
                        )),
                        EnumValue::Int(_) => None,
                    })
                    .filter(|(dist, _)| *dist <= MAX_SUGGEST_DISTANCE)
                    .min_by_key(|(dist, _)| *dist);
                let mut d = d.suggest(format!("accepted values: {}", valid.join(", ")));
                if let Some((_, word)) = nearest {
                    d = d.with_fix(Fix::ReplaceValue {
                        param: occ.name.to_string(),
                        value: word.to_string(),
                    });
                }
                d
            }
        };
        Some(d)
    }

    fn check_control_dep(
        &self,
        dep: &spex_core::constraint::ControlDep,
        occ: &Occurrence,
        all: &[Occurrence],
    ) -> Option<Diagnostic> {
        // Fires only when the controller is explicitly configured in the
        // same file and its value falsifies the dependency guard.
        let controller = all.iter().find(|o| o.name == dep.controller)?;
        let cv = parse_controller_value(controller.value)?;
        if dep.op.eval(cv, dep.value) {
            return None;
        }
        let mut d = Diagnostic::new(
            Severity::Warning,
            occ.name,
            occ.value,
            format!(
                "takes effect only when \"{}\" {} {}, but line {} sets \"{}\" to \
                 \"{}\" — this setting will be silently ignored",
                dep.controller,
                dep.op,
                dep.value,
                controller.line,
                dep.controller,
                controller.value,
            ),
            DiagCode::ControlDep,
        )
        .suggest(format!(
            "enable \"{}\" or remove this setting",
            dep.controller
        ));
        // The machine repair touches the *controller*, not the violation
        // site: rewrite its value to the nearest one satisfying the
        // guard, rendered in the style the file already uses (bool word
        // vs. plain integer), and only when the new value checks clean
        // against the controller's own constraints.
        let target = match dep.op {
            CmpOp::Eq | CmpOp::Ge | CmpOp::Le => dep.value,
            CmpOp::Ne | CmpOp::Gt => dep.value + 1,
            CmpOp::Lt => dep.value - 1,
        };
        if self.fix_value_is_clean(&dep.controller, target) {
            let wrote_bool_word = parse_plain_int(controller.value).is_none()
                && parse_bool_word(controller.value).is_some();
            let value = if wrote_bool_word && (target == 0 || target == 1) {
                if target == 1 { "on" } else { "off" }.to_string()
            } else {
                target.to_string()
            };
            d = d.with_fix(Fix::ReplaceValue {
                param: dep.controller.clone(),
                value,
            });
        }
        Some(d)
    }

    fn check_value_rel(
        &self,
        rel: &spex_core::constraint::ValueRel,
        occ: &Occurrence,
        all: &[Occurrence],
    ) -> Option<Diagnostic> {
        // The constraint is stored under its lhs; both sides must be
        // explicitly configured for the file to violate it.
        let rhs = all.iter().find(|o| o.name == rel.rhs)?;
        let lv = parse_plain_int(occ.value)?;
        let rv = parse_plain_int(rhs.value)?;
        if rel.op.eval(lv, rv) {
            return None;
        }
        Some(
            Diagnostic::new(
                Severity::Error,
                occ.name,
                occ.value,
                format!(
                    "must satisfy \"{}\" {} \"{}\", but \"{}\" is {} (line {})",
                    rel.lhs, rel.op, rel.rhs, rel.rhs, rhs.value, rhs.line,
                ),
                DiagCode::ValueRel,
            )
            .suggest(format!(
                "pick values with {} {} {}",
                rel.lhs, rel.op, rel.rhs
            )),
        )
    }
}

/// The per-constraint-kind timing histogram a `check_setting` dispatch
/// records into (static names: no allocation on the hot path).
fn kind_timing_metric(kind: &ConstraintKind) -> &'static str {
    match kind {
        ConstraintKind::BasicType(_) => "check.kind.basic_type_ns",
        ConstraintKind::SemanticType(_) => "check.kind.semantic_type_ns",
        ConstraintKind::Range(_) => "check.kind.range_ns",
        ConstraintKind::EnumRange(_) => "check.kind.enum_range_ns",
        ConstraintKind::ControlDep(_) => "check.kind.control_dep_ns",
        ConstraintKind::ValueRel(_) => "check.kind.value_rel_ns",
    }
}

// -- Value parsing helpers ---------------------------------------------

/// Parses a plain decimal integer (optional sign, digits only).
fn parse_plain_int(v: &str) -> Option<i64> {
    let t = v.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<i64>().ok()
}

/// Boolean words as the subject systems' shared on/off helpers accept
/// them.
fn parse_bool_word(v: &str) -> Option<bool> {
    match v.trim().to_ascii_lowercase().as_str() {
        "on" | "true" | "yes" | "1" => Some(true),
        "off" | "false" | "no" | "0" => Some(false),
        _ => None,
    }
}

/// The value of a controller parameter: boolean words or plain integers.
fn parse_controller_value(v: &str) -> Option<i64> {
    parse_plain_int(v).or_else(|| parse_bool_word(v).map(i64::from))
}

/// A decimal magnitude `mantissa / 10^scale`, kept exact (no float
/// rounding) so unit conversions are emitted as machine fixes only when
/// the converted value really is the written one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Decimal {
    mantissa: i128,
    scale: u32,
}

impl Decimal {
    fn as_f64(self) -> f64 {
        self.mantissa as f64 / 10f64.powi(self.scale as i32)
    }
}

/// What a recognised unit suffix means, as a factor over the family's
/// base unit (microseconds for time, bytes for size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SuffixKind {
    /// A time suffix worth this many microseconds.
    Time(i64),
    /// A size suffix worth this many bytes.
    Size(i64),
}

/// Resolves a unit suffix, case-insensitively where unambiguous.
///
/// The one ambiguous spelling is `m`/`M` — minutes versus mebibytes — so
/// only there does letter case decide; every other suffix is accepted in
/// any case (`10S`, `64Kb`, `5MS` are misconfigurations users actually
/// write, and rejecting the spelling would let them pass unflagged).
fn suffix_kind(suffix: &str) -> Option<SuffixKind> {
    match suffix {
        "m" => return Some(SuffixKind::Time(60 * 1_000_000)),
        "M" => return Some(SuffixKind::Size(1 << 20)),
        _ => {}
    }
    Some(match suffix.to_ascii_lowercase().as_str() {
        "us" => SuffixKind::Time(1),
        "ms" => SuffixKind::Time(1_000),
        "s" | "sec" => SuffixKind::Time(1_000_000),
        "min" => SuffixKind::Time(60 * 1_000_000),
        "h" => SuffixKind::Time(3_600 * 1_000_000),
        "b" => SuffixKind::Size(1),
        "k" | "kb" => SuffixKind::Size(1 << 10),
        "mb" => SuffixKind::Size(1 << 20),
        "g" | "gb" => SuffixKind::Size(1 << 30),
        "t" | "tb" => SuffixKind::Size(1i64 << 40),
        _ => return None,
    })
}

/// Splits a trimmed value into an exact decimal magnitude and the
/// trailing suffix text; `None` unless the shape is `[sign]digits[.digits]
/// suffix` with a nonempty suffix.
fn split_number_suffix(v: &str) -> Option<(Decimal, &str)> {
    let t = v.trim();
    let (sign, rest) = match t.as_bytes().first()? {
        b'-' => (-1i128, &t[1..]),
        b'+' => (1, &t[1..]),
        _ => (1, t),
    };
    let int_end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if int_end == 0 {
        return None;
    }
    let (frac, suffix_at) = match rest[int_end..].strip_prefix('.') {
        Some(after_dot) => {
            let frac_len = after_dot
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(after_dot.len());
            if frac_len == 0 {
                return None;
            }
            (&after_dot[..frac_len], int_end + 1 + frac_len)
        }
        None => ("", int_end),
    };
    let suffix = &rest[suffix_at..];
    if suffix.is_empty() {
        return None;
    }
    let mut mantissa: i128 = 0;
    for c in rest[..int_end].chars().chain(frac.chars()) {
        mantissa = mantissa
            .checked_mul(10)?
            .checked_add((c as u8 - b'0') as i128)?;
    }
    Some((
        Decimal {
            mantissa: sign * mantissa,
            scale: frac.len() as u32,
        },
        suffix,
    ))
}

/// Splits `"512MB"` into `(512.0, "MB")` and `"1.5s"` into `(1.5, "s")`.
/// Returns `None` when the value is not a decimal number followed by a
/// recognised time/size unit suffix (matched case-insensitively where
/// unambiguous — see [`Fix`]-emitting checks for the conversion rules).
fn split_unit_suffix(v: &str) -> Option<(f64, &str)> {
    let (num, suffix) = split_number_suffix(v)?;
    suffix_kind(suffix)?;
    Some((num.as_f64(), suffix))
}

/// The magnitude converted from `per_unit` base units into `target`
/// base units, when the result is an exact, `i64`-representable integer
/// (overflow-safe: all arithmetic is checked `i128`).
fn convert_exact(num: Decimal, per_unit: i64, target: i64) -> Option<i64> {
    let numer = num.mantissa.checked_mul(per_unit as i128)?;
    let denom = 10i128.checked_pow(num.scale)?.checked_mul(target as i128)?;
    (numer % denom == 0)
        .then(|| numer / denom)
        .and_then(|q| i64::try_from(q).ok())
}

/// The repair value for a unit-suffixed setting of a parameter the system
/// reads in `target_kind` base units: the magnitude converted to those
/// units, when the suffix is of the same family and the conversion is
/// exact and non-negative (a fix must never introduce a new finding).
fn suffix_conversion(value: &str, target_kind: SuffixKind) -> Option<i64> {
    let (num, suffix) = split_number_suffix(value)?;
    let converted = match (suffix_kind(suffix)?, target_kind) {
        (SuffixKind::Time(micros), SuffixKind::Time(target)) => convert_exact(num, micros, target)?,
        (SuffixKind::Size(bytes), SuffixKind::Size(target)) => convert_exact(num, bytes, target)?,
        _ => return None,
    };
    (converted >= 0).then_some(converted)
}

/// Inclusive bounds of an integer type. Widths outside 1..=63 (including
/// anything a hand-edited database might carry) saturate to the i64
/// bounds instead of overflowing the shift.
fn int_bounds(bits: u8, signed: bool) -> (i64, i64) {
    match (bits, signed) {
        (0 | 64.., true) => (i64::MIN, i64::MAX),
        (0 | 63.., false) => (0, i64::MAX),
        (b, true) => {
            let hi = (1i64 << (b - 1)) - 1;
            (-hi - 1, hi)
        }
        (b, false) => (0, (1i64 << b) - 1),
    }
}

/// Whether `v` is a valid dotted-quad IPv4 address.
fn is_dotted_quad(v: &str) -> bool {
    let octets: Vec<&str> = v.split('.').collect();
    octets.len() == 4
        && octets.iter().all(|o| {
            !o.is_empty()
                && o.len() <= 3
                && o.chars().all(|c| c.is_ascii_digit())
                && o.parse::<u16>().map(|n| n <= 255).unwrap_or(false)
        })
}

/// Levenshtein distance with an early-exit `cap` (returns `cap` when the
/// true distance is at least `cap`). Enum-word suggestions score with it;
/// unknown keys go through [`ConstraintDb::nearest_param`], whose answers
/// a linear scan with it reproduces.
pub fn levenshtein(a: &str, b: &str, cap: usize) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) >= cap {
        return cap;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min >= cap {
            return cap;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()].min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StaticEnv;
    use spex_conf::Dialect;
    use spex_core::constraint::{
        CmpOp, Constraint, ControlDep, EnumAlternative, EnumRange, NumericRange, RangeSegment,
        ValueRel,
    };
    use spex_lang::diag::Span;

    fn c(param: &str, kind: ConstraintKind) -> Constraint {
        Constraint {
            param: param.into(),
            kind,
            in_function: "startup".into(),
            span: Span::new(1, 1),
        }
    }

    fn db() -> ConstraintDb {
        let mut db = ConstraintDb::new("Test", Dialect::KeyValue);
        db.add(c(
            "threads",
            ConstraintKind::BasicType(BasicType::Int {
                bits: 32,
                signed: true,
            }),
        ));
        db.add(c(
            "threads",
            ConstraintKind::Range(NumericRange {
                cutpoints: vec![1, 16],
                segments: vec![
                    RangeSegment {
                        lo: None,
                        hi: Some(0),
                        valid: false,
                    },
                    RangeSegment {
                        lo: Some(1),
                        hi: Some(16),
                        valid: true,
                    },
                    RangeSegment {
                        lo: Some(17),
                        hi: None,
                        valid: false,
                    },
                ],
            }),
        ));
        db.add(c(
            "log_level",
            ConstraintKind::EnumRange(EnumRange {
                alternatives: vec![
                    EnumAlternative {
                        value: EnumValue::Str("info".into()),
                        valid: true,
                    },
                    EnumAlternative {
                        value: EnumValue::Str("debug".into()),
                        valid: true,
                    },
                ],
                unmatched_is_error: true,
                unmatched_overwrites: false,
                case_insensitive: false,
            }),
        ));
        db.add(c(
            "listen_port",
            ConstraintKind::SemanticType(SemType::Port),
        ));
        db.add(c(
            "nap_s",
            ConstraintKind::SemanticType(SemType::Time(TimeUnit::Sec)),
        ));
        db.add(c(
            "grace_s",
            ConstraintKind::SemanticType(SemType::Time(TimeUnit::Sec)),
        ));
        db.add(c(
            "grace_s",
            ConstraintKind::Range(NumericRange {
                cutpoints: vec![0, 60],
                segments: vec![
                    RangeSegment {
                        lo: None,
                        hi: Some(-1),
                        valid: false,
                    },
                    RangeSegment {
                        lo: Some(0),
                        hi: Some(60),
                        valid: true,
                    },
                    RangeSegment {
                        lo: Some(61),
                        hi: None,
                        valid: false,
                    },
                ],
            }),
        ));
        db.add(c(
            "poll_ms",
            ConstraintKind::SemanticType(SemType::Time(TimeUnit::Milli)),
        ));
        db.add(c(
            "spin_us",
            ConstraintKind::SemanticType(SemType::Time(TimeUnit::Micro)),
        ));
        db.add(c(
            "buf_b",
            ConstraintKind::SemanticType(SemType::Size(SizeUnit::B)),
        ));
        db.add(c(
            "commit_siblings",
            ConstraintKind::ControlDep(ControlDep {
                controller: "fsync".into(),
                value: 0,
                op: CmpOp::Ne,
                dependent: "commit_siblings".into(),
                confidence: 1.0,
            }),
        ));
        db.add(c(
            "min_len",
            ConstraintKind::ValueRel(ValueRel {
                lhs: "min_len".into(),
                op: CmpOp::Lt,
                rhs: "max_len".into(),
            }),
        ));
        db.note_params(["fsync", "max_len"]);
        db
    }

    fn check(text: &str) -> Vec<Diagnostic> {
        let db = db();
        CheckSession::new(&db).check_text(text)
    }

    #[test]
    fn clean_config_produces_no_diagnostics() {
        let ds = check("threads = 8\nlog_level = info\nlisten_port = 8080\nnap_s = 30\n");
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn flags_non_numeric_and_overflow_and_unit_suffix() {
        assert_eq!(check("threads = not_a_number\n").len(), 1);
        // Violates both the basic-type (32-bit) and range constraints.
        let ds = check("threads = 9000000000\n");
        assert_eq!(ds.len(), 2);
        assert!(ds.iter().any(|d| d.message.contains("overflows")));
        let ds = check("threads = 9G\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].suggestion.as_deref().unwrap().contains("suffix"));
    }

    #[test]
    fn flags_out_of_range_with_interval_suggestion_and_clamp_fix() {
        let ds = check("threads = 64\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::Range);
        assert!(ds[0].message.contains("[1, 16]"), "{}", ds[0]);
        assert!(ds[0]
            .suggestion
            .as_deref()
            .unwrap()
            .contains("between 1 and 16"));
        assert_eq!(ds[0].line, Some(1));
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "threads".into(),
                value: "16".into(),
            })
        );
        // Undershooting clamps to the low edge.
        let ds = check("threads = -3\n");
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "threads".into(),
                value: "1".into(),
            })
        );
    }

    #[test]
    fn flags_case_mismatch_on_sensitive_enums() {
        let ds = check("log_level = INFO\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("letter case"), "{}", ds[0]);
        assert_eq!(
            ds[0].suggestion.as_deref(),
            Some("write it exactly as \"info\"")
        );
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "log_level".into(),
                value: "info".into(),
            })
        );
    }

    #[test]
    fn flags_unknown_word_with_nearest_variant_fix() {
        let ds = check("log_level = inf\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].suggestion.as_deref().unwrap().contains("info"));
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "log_level".into(),
                value: "info".into(),
            })
        );
        // A word nowhere near any variant gets no machine fix.
        let ds = check("log_level = extremely_verbose\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].fix.is_none());
    }

    #[test]
    fn port_checks_are_syntactic_without_env() {
        assert_eq!(check("listen_port = 70000\n").len(), 1);
        assert_eq!(check("listen_port = 0\n").len(), 1);
        assert!(
            check("listen_port = 80\n").is_empty(),
            "occupancy needs an env"
        );
    }

    #[test]
    fn port_occupancy_with_env() {
        let db = db();
        let mut env = StaticEnv::new();
        env.occupy_port(80);
        let ds = CheckSession::new(&db)
            .with_env(&env)
            .check_text("listen_port = 80\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("already in use"));
    }

    #[test]
    fn time_checks_flag_negative_absurd_and_suffixed() {
        assert!(check("nap_s = 30\n").is_empty());
        assert_eq!(check("nap_s = -5\n").len(), 1);
        assert_eq!(check("nap_s = 999999999\n").len(), 1);
        let ds = check("nap_s = 10ms\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("suffix"));
    }

    #[test]
    fn sub_second_units_have_their_own_absurdity_bar() {
        // 999999999 ms is "only" 11.5 days — under a one-year bar it
        // dodges detection, but nobody means a nine-digit millisecond
        // count: the per-unit bar (a week of ms) must flag it.
        let ds = check("poll_ms = 999999999\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("over a week"), "{}", ds[0]);
        // Plausible sub-second values stay clean.
        assert!(check("poll_ms = 250\n").is_empty());
        assert!(check("poll_ms = 86400000\n").is_empty(), "a day of ms");
        // Microseconds clear an even lower bar: an hour.
        let ds = check("spin_us = 10000000000\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("over an hour"), "{}", ds[0]);
        assert!(check("spin_us = 500000\n").is_empty());
        // Coarse units keep the original year bar.
        assert!(check("nap_s = 86400\n").is_empty());
    }

    #[test]
    fn control_dep_warns_only_when_controller_disables() {
        assert!(check("commit_siblings = 5\nfsync = on\n").is_empty());
        assert!(
            check("commit_siblings = 5\n").is_empty(),
            "controller unset"
        );
        let ds = check("commit_siblings = 5\nfsync = off\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].severity, Severity::Warning);
        assert_eq!(ds[0].code, DiagCode::ControlDep);
        assert!(ds[0].message.contains("silently ignored"));
        // The machine repair targets the *controller*, not the violation
        // site, and matches the style the file wrote the value in.
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "fsync".into(),
                value: "on".into(),
            })
        );
        let ds = check("commit_siblings = 5\nfsync = 0\n");
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "fsync".into(),
                value: "1".into(),
            })
        );
    }

    #[test]
    fn control_dep_fix_applies_to_the_controller() {
        let ds = check("commit_siblings = 5\nfsync = off\n");
        let mut conf = ConfFile::parse("commit_siblings = 5\nfsync = off\n", Dialect::KeyValue);
        assert!(ds[0].fix.as_ref().unwrap().apply(&mut conf));
        let db = db();
        assert!(CheckSession::new(&db).check(&conf).is_empty());
    }

    #[test]
    fn value_rel_flags_violating_pairs() {
        assert!(check("min_len = 4\nmax_len = 84\n").is_empty());
        let ds = check("min_len = 90\nmax_len = 84\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::ValueRel);
        assert!(ds[0].message.contains("must satisfy"));
    }

    #[test]
    fn unknown_key_gets_edit_distance_suggestion_and_rename_fix() {
        let ds = check("thread = 8\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnknownKey);
        assert_eq!(ds[0].category(), "unknown-key");
        assert_eq!(
            ds[0].suggestion.as_deref(),
            Some("did you mean \"threads\"?")
        );
        assert_eq!(
            ds[0].fix,
            Some(Fix::RenameKey {
                from: "thread".into(),
                to: "threads".into(),
            })
        );
    }

    #[test]
    fn unknown_key_detects_wrong_case_when_sensitive() {
        let ds = check("Threads = 8\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0]
            .suggestion
            .as_deref()
            .unwrap()
            .contains("case-sensitive"));
        assert_eq!(
            ds[0].fix,
            Some(Fix::RenameKey {
                from: "Threads".into(),
                to: "threads".into(),
            })
        );
    }

    #[test]
    fn case_sensitive_mode_still_distance_matches_exactly() {
        // `THREDS` vs `threads` is distance 6, and did-you-mean compares
        // case-sensitively: no suggestion may claim it is close.
        let ds = check("THREDS = 8\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnknownKey);
        assert!(ds[0].suggestion.is_none(), "{:?}", ds[0].suggestion);
    }

    #[test]
    fn a_megabyte_key_gets_no_suggestion_from_a_fleet_sized_db() {
        // 14,336 names shaped like a 2048-module fleet's.
        let mut db = ConstraintDb::new("Fleet", Dialect::KeyValue);
        for m in 0..2048 {
            db.note_params((0..7).map(|p| format!("f{m:04}_p{p}")));
        }
        // However it starts, a key a million chars longer than every name
        // is a million edits from each of them, and the search reads it
        // no further than the longest name plus three chars.
        let key = format!("f0123_p4{}", "x".repeat(1 << 20));
        let ds = CheckSession::new(&db).check_text(&format!("{key} = 1\n"));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::UnknownKey);
        assert_eq!((&ds[0].suggestion, &ds[0].fix), (&None, &None));
        // Three edits away is still a suggestion.
        let near = db.nearest_param("f0123_p4xxx", MAX_SUGGEST_DISTANCE, false);
        assert_eq!(near.map(|p| p.name.as_str()), Some("f0123_p4"));
    }

    #[test]
    fn applying_fixes_clears_the_findings() {
        let db = db();
        let session = CheckSession::new(&db);
        let text = "napp_s = 30\nthreads = 640\nlog_level = inf\n";
        let mut conf = ConfFile::parse(text, Dialect::KeyValue);
        let before = session.check(&conf);
        assert_eq!(before.len(), 3);
        for d in &before {
            d.fix
                .as_ref()
                .expect("all three are fixable")
                .apply(&mut conf);
        }
        // Rename, clamp and nearest-variant repairs compose: the repaired
        // file re-checks clean.
        let after = session.check(&conf);
        assert!(after.is_empty(), "{after:?}");
    }

    #[test]
    fn diagnostics_carry_module_provenance_from_the_db() {
        let mut db = ConstraintDb::new("Test", Dialect::KeyValue);
        db.add_from(
            c(
                "threads",
                ConstraintKind::Range(NumericRange {
                    cutpoints: vec![1, 16],
                    segments: vec![
                        RangeSegment {
                            lo: Some(1),
                            hi: Some(16),
                            valid: true,
                        },
                        RangeSegment {
                            lo: Some(17),
                            hi: None,
                            valid: false,
                        },
                    ],
                }),
            ),
            "main.c",
        );
        let ds = CheckSession::new(&db).check_text("threads = 64\n");
        assert_eq!(ds.len(), 1);
        let origin = ds[0].origin.as_ref().expect("provenance");
        assert_eq!(origin.module, "main.c");
        assert_eq!(origin.function, "startup");
        assert!(ds[0].to_string().contains("from main.c"), "{}", ds[0]);
    }

    #[test]
    fn check_texts_and_check_file_package_reports() {
        let db = db();
        let session = CheckSession::new(&db).with_threads(4);
        let files: Vec<(String, String)> = (0..20)
            .map(|i| {
                (
                    format!("host{i:02}.conf"),
                    if i % 4 == 0 {
                        "threads = 999\n".to_string()
                    } else {
                        "threads = 8\n".to_string()
                    },
                )
            })
            .collect();
        let report = session.check_texts(&files);
        assert_eq!(report.stats.files, 20);
        assert_eq!(report.stats.flagged_files, 5);
        assert_eq!(report.files[0].system, "Test");
        assert!(report
            .files
            .iter()
            .map(|f| f.file.as_str())
            .eq(files.iter().map(|(l, _)| l.as_str())));
        // Single-threaded agrees.
        let serial = CheckSession::new(&db).with_threads(1).check_texts(&files);
        assert_eq!(serial, report);
    }

    /// Builds a small on-disk corpus: root/{a.conf,z.conf,sub/{b.conf,c.conf}}.
    fn corpus(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("spex_session_paths_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("sub")).unwrap();
        std::fs::write(root.join("a.conf"), "threads = 8\n").unwrap();
        std::fs::write(root.join("z.conf"), "threads = 999\n").unwrap();
        std::fs::write(root.join("sub/b.conf"), "threads = 1\n").unwrap();
        std::fs::write(root.join("sub/c.conf"), "threads = -3\n").unwrap();
        root
    }

    #[test]
    fn check_paths_walks_deterministically_and_flags() {
        let db = db();
        let root = corpus("walk");
        let report = CheckSession::new(&db)
            .with_threads(4)
            .check_paths(std::slice::from_ref(&root))
            .unwrap();
        let files: Vec<String> = report
            .files
            .iter()
            .map(|r| {
                std::path::Path::new(&r.file)
                    .strip_prefix(&root)
                    .unwrap()
                    .display()
                    .to_string()
            })
            .collect();
        assert_eq!(files, vec!["a.conf", "sub/b.conf", "sub/c.conf", "z.conf"]);
        assert_eq!(report.stats.files, 4);
        assert_eq!(report.stats.clean_files, 2);
        assert_eq!(report.stats.flagged_files, 2);
        // Same order and findings regardless of worker count.
        let serial = CheckSession::new(&db)
            .with_threads(1)
            .check_paths(std::slice::from_ref(&root))
            .unwrap();
        assert_eq!(serial, report);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn check_paths_accepts_explicit_files_in_argument_order() {
        let db = db();
        let root = corpus("explicit");
        let report = CheckSession::new(&db)
            .check_paths(&[root.join("z.conf"), root.join("a.conf")])
            .unwrap();
        assert!(report.files[0].file.ends_with("z.conf"));
        assert!(report.files[1].file.ends_with("a.conf"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[cfg(unix)]
    #[test]
    fn check_paths_survives_symlink_cycles() {
        let db = db();
        let root = corpus("symlink");
        std::os::unix::fs::symlink(&root, root.join("sub/loop")).unwrap();
        let report = CheckSession::new(&db)
            .with_threads(2)
            .check_paths(std::slice::from_ref(&root))
            .unwrap();
        // The four real files are each seen exactly once (the cycle target
        // is the already-visited root, so the link adds nothing).
        assert_eq!(report.stats.files, 4);
        assert_eq!(
            report
                .files
                .iter()
                .filter(|r| r.file.ends_with("a.conf"))
                .count(),
            1
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[cfg(unix)]
    #[test]
    fn check_paths_skips_non_regular_files_without_blocking() {
        let db = db();
        let root = corpus("fifo");
        let status = std::process::Command::new("mkfifo")
            .arg(root.join("sub/ctl"))
            .status()
            .expect("mkfifo runs");
        assert!(status.success());
        // Reading a writer-less FIFO would block forever; the run must
        // complete and report it unreadable instead.
        let report = CheckSession::new(&db)
            .with_threads(2)
            .check_paths(std::slice::from_ref(&root))
            .unwrap();
        assert_eq!(report.stats.files, 5);
        assert_eq!(report.stats.unreadable_files, 1);
        let fifo = report
            .files
            .iter()
            .find(|r| r.file.ends_with("ctl"))
            .unwrap();
        assert_eq!(fifo.read_error.as_deref(), Some("not a regular file"));
        assert!(fifo.has_errors(), "an unvalidated file must gate deploys");
        assert!(!fifo.is_clean());
        assert_eq!(report.exit_code(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[cfg(unix)]
    #[test]
    fn check_paths_non_directory_root_reports_instead_of_aborting() {
        let db = db();
        let root = corpus("fiforoot");
        let fifo = root.join("ctl");
        let status = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("mkfifo runs");
        assert!(status.success());
        // A FIFO given directly as a root: per the contract, only
        // nonexistent roots hard-error; this degrades to a report.
        let report = CheckSession::new(&db)
            .with_threads(1)
            .check_paths(std::slice::from_ref(&fifo))
            .unwrap();
        assert_eq!(report.stats.files, 1);
        assert_eq!(report.stats.unreadable_files, 1);
        assert_eq!(
            report.files[0].read_error.as_deref(),
            Some("not a regular file")
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn check_paths_overlapping_directory_roots_walk_once() {
        let db = db();
        let root = corpus("overlap");
        let report = CheckSession::new(&db)
            .with_threads(2)
            .check_paths(&[root.clone(), root.join("sub")])
            .unwrap();
        // The second root is inside the first: its directory was already
        // descended, so nothing is double-counted.
        assert_eq!(report.stats.files, 4);
        assert_eq!(
            report
                .files
                .iter()
                .filter(|r| r.file.ends_with("b.conf"))
                .count(),
            1
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn check_paths_missing_root_is_an_error() {
        let db = db();
        let err = CheckSession::new(&db)
            .check_paths(&[std::path::Path::new("/no/such/spex/dir")])
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("kitten", "sitting", 10), 3);
        assert_eq!(levenshtein("abc", "abc", 10), 0);
        assert_eq!(levenshtein("abc", "zzzzzz", 2), 2, "capped");
    }

    #[test]
    fn unit_suffix_splitting() {
        assert_eq!(split_unit_suffix("512MB"), Some((512.0, "MB")));
        assert_eq!(split_unit_suffix("9G"), Some((9.0, "G")));
        assert_eq!(split_unit_suffix("10ms"), Some((10.0, "ms")));
        assert_eq!(split_unit_suffix("42"), None);
        assert_eq!(split_unit_suffix("hello"), None);
        assert_eq!(split_unit_suffix("12half"), None);
    }

    #[test]
    fn unit_suffix_accepts_uppercase_and_decimal_spellings() {
        // These spellings used to be rejected by the splitter, so the
        // suffix misconfigurations they carry passed silently.
        assert_eq!(split_unit_suffix("10S"), Some((10.0, "S")));
        assert_eq!(split_unit_suffix("5MS"), Some((5.0, "MS")));
        assert_eq!(split_unit_suffix("64Kb"), Some((64.0, "Kb")));
        assert_eq!(split_unit_suffix("2gB"), Some((2.0, "gB")));
        assert_eq!(split_unit_suffix("1.5s"), Some((1.5, "s")));
        assert_eq!(split_unit_suffix("0.25h"), Some((0.25, "h")));
        // Malformed decimals are not numbers with suffixes.
        assert_eq!(split_unit_suffix("1.5"), None);
        assert_eq!(split_unit_suffix("1.s"), None);
        assert_eq!(split_unit_suffix(".5s"), None);
        // `m`/`M` is the one case-ambiguous pair: minutes vs mebibytes.
        assert_eq!(suffix_kind("m"), Some(SuffixKind::Time(60_000_000)));
        assert_eq!(suffix_kind("M"), Some(SuffixKind::Size(1 << 20)));
    }

    #[test]
    fn suffixed_time_values_get_conversion_fixes() {
        // `10s` for a milliseconds parameter: the paper's silent
        // mis-scaling trap, now repaired, not just reported.
        let ds = check("poll_ms = 10s\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "poll_ms".into(),
                value: "10000".into(),
            })
        );
        assert!(ds[0].suggestion.as_deref().unwrap().contains("10000"));
        // Uppercase and decimal spellings convert too.
        assert_eq!(
            check("nap_s = 2M\n")[0].fix,
            None,
            "mebibytes are not a time; no cross-family fix"
        );
        assert_eq!(
            check("nap_s = 2m\n")[0].fix,
            Some(Fix::ReplaceValue {
                param: "nap_s".into(),
                value: "120".into(),
            })
        );
        assert_eq!(
            check("nap_s = 10S\n")[0].fix,
            Some(Fix::ReplaceValue {
                param: "nap_s".into(),
                value: "10".into(),
            })
        );
        assert_eq!(
            check("poll_ms = 1.5s\n")[0].fix,
            Some(Fix::ReplaceValue {
                param: "poll_ms".into(),
                value: "1500".into(),
            })
        );
        // Inexact conversions stay prose-only: 10 ms is 0.01 s.
        let ds = check("nap_s = 10ms\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].fix.is_none());
        // Overflow-safe: an absurd magnitude cannot panic or wrap into a
        // bogus fix.
        let ds = check(&format!("nap_s = {}h\n", "9".repeat(30)));
        assert_eq!(ds.len(), 1);
        assert!(ds[0].fix.is_none());
        // Negative durations never get a fix (it would re-flag).
        assert!(check("poll_ms = -10s\n")[0].fix.is_none());
    }

    #[test]
    fn conversion_fixes_that_would_still_flag_stay_prose_only() {
        // A fix must never introduce a new finding. 9000 hours converts
        // exactly to 32400000 s — which is over the one-year absurdity bar
        // the very same check enforces, so applying the "repair" would
        // re-flag. Keep the prose suggestion instead.
        let ds = check("nap_s = 9000h\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].fix.is_none(), "{:?}", ds[0].fix);
        assert!(ds[0]
            .suggestion
            .as_deref()
            .unwrap()
            .contains("without a suffix"));

        // Likewise for a conversion that lands outside the parameter's
        // inferred range: `5m` on `grace_s` (valid range [0, 60]) is
        // exactly 300 s, but 300 violates the range, so no fix.
        let ds = check("grace_s = 5m\n");
        assert!(ds.iter().all(|d| d.fix.is_none()), "{ds:?}");

        // An in-range conversion still gets its machine fix, and applying
        // it leaves the config fully clean.
        let db = db();
        let session = CheckSession::new(&db);
        let mut conf = ConfFile::parse("grace_s = 0.5m\n", Dialect::KeyValue);
        let before = session.check(&conf);
        assert_eq!(before.len(), 1);
        assert_eq!(
            before[0].fix,
            Some(Fix::ReplaceValue {
                param: "grace_s".into(),
                value: "30".into(),
            })
        );
        assert!(before[0].fix.as_ref().unwrap().apply(&mut conf));
        assert!(session.check(&conf).is_empty());
    }

    #[test]
    fn suffixed_size_values_get_conversion_fixes() {
        let ds = check("buf_b = 64Kb\n");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::SemanticType);
        assert_eq!(
            ds[0].fix,
            Some(Fix::ReplaceValue {
                param: "buf_b".into(),
                value: "65536".into(),
            })
        );
        assert_eq!(
            check("buf_b = 10M\n")[0].fix,
            Some(Fix::ReplaceValue {
                param: "buf_b".into(),
                value: "10485760".into(),
            })
        );
        assert_eq!(
            check("buf_b = 1.5K\n")[0].fix,
            Some(Fix::ReplaceValue {
                param: "buf_b".into(),
                value: "1536".into(),
            })
        );
        // A time suffix on a size parameter is flagged but not "fixed".
        assert!(check("buf_b = 10m\n")[0].fix.is_none());
    }

    #[test]
    fn suffix_conversion_fixes_round_trip() {
        let db = db();
        let session = CheckSession::new(&db);
        let text = "poll_ms = 10s\nnap_s = 1.5m\nbuf_b = 64Kb\n";
        let mut conf = ConfFile::parse(text, Dialect::KeyValue);
        let before = session.check(&conf);
        assert_eq!(before.len(), 3);
        for d in &before {
            assert!(d.fix.as_ref().expect("all convertible").apply(&mut conf));
        }
        let after = session.check(&conf);
        assert!(after.is_empty(), "{after:?}");
        assert_eq!(conf.get("poll_ms"), Some("10000"));
        assert_eq!(conf.get("nap_s"), Some("90"));
        assert_eq!(conf.get("buf_b"), Some("65536"));
    }
}
