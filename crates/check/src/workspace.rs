//! The incremental workspace: a long-lived session over sources,
//! annotations and a persisted constraint database.
//!
//! The paper's thesis — the *system*, not the user, should catch
//! misconfigurations — only holds in practice if constraint inference and
//! checking are cheap enough to run on every change. The one-shot
//! `Spex::analyze` facade re-walks the whole program per run; a
//! [`Workspace`] instead keeps state between runs:
//!
//! * each top-level item of a module's source is **keyed** by its tokens
//!   without their positions, and the stored keys are the only record an
//!   edit is compared with: [`Workspace::update_module`] knows which
//!   functions changed (whitespace, comment and move edits dirty nothing).
//!   An edit in place or an appended function re-parses and re-lowers only
//!   those functions and re-infers only what they reach; any other edit
//!   re-infers the module whole. Re-spaced annotations re-infer nothing. A
//!   batch of new modules ([`Workspace::add_modules`]) is parsed and
//!   lowered on the worker pool;
//! * [`Workspace::reanalyze`] tells the core which functions changed
//!   ([`Spex::analyze_scoped`] alone decides which parameters' five
//!   inference passes that re-runs), and merges the fresh constraints
//!   into the owned [`ConstraintDb`] by provenance — work is proportional
//!   to the change, and the result is identical to a full re-analysis;
//! * [`Workspace::session`] hands out a borrowed [`CheckSession`] over
//!   the owned database, which is its own parameter index: a session
//!   builds nothing, and checking never copies a constraint;
//! * [`Workspace::check_paths`] streams whole config trees through the
//!   worker pool with bounded memory, so the persisted constraints vet
//!   every deployment the moment it is staged.
//!
//! # Example
//!
//! ```
//! use spex_check::Workspace;
//! use spex_conf::Dialect;
//!
//! let mut ws = Workspace::new("demo", Dialect::KeyValue);
//! ws.add_module(
//!     "main.c",
//!     r#"
//!     int threads = 4;
//!     struct opt { char* name; int* var; };
//!     struct opt options[] = { { "threads", &threads } };
//!     void startup() { if (threads > 16) { exit(1); } }
//!     "#,
//!     "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
//! )
//! .unwrap();
//! let report = ws.reanalyze();
//! assert_eq!(report.params_reinferred, 1);
//! assert!(!ws.check_text("threads = 64\n").is_empty());
//!
//! // Editing nothing re-infers nothing.
//! assert_eq!(ws.reanalyze().params_reinferred, 0);
//! ```

use crate::db::ConstraintDb;
use crate::diag::{Diagnostic, Severity};
use crate::env::{Environment, FsEnv};
use crate::report::{FileReport, Report};
use crate::session::CheckSession;
use spex_conf::{ConfFile, Dialect};
use spex_core::apispec::ApiSpec;
use spex_core::fingerprint::{diff_fingerprints, FingerprintDiff};
use spex_core::infer::{Incremental, PassCache, PassCounts, Spex};
use spex_core::{Annotation, Constraint};
use spex_ir::lower::LowerCtx;
use spex_ir::Module;
use spex_lang::ast::FunctionDef;
use spex_lang::items::{split_items, ItemKey, ItemKind, ItemSpan};
use spex_lang::lexer::Lexer;
use spex_lang::parser::Parser;
use spex_lang::token::Token;
use spex_lang::{Builtin, Diagnostic as SourceError, Item, Program};
use spex_react::{ReactionClass, ReactionFinding};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What still needs re-inference in one module.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Dirty {
    /// Nothing changed since the last analysis; the db is current.
    Clean,
    /// Only these functions changed since the last analysis.
    Functions(BTreeSet<String>),
    /// Everything must be re-inferred (a new module, an edit off the item
    /// path, or changed annotations).
    All,
}

impl Dirty {
    fn absorb_functions(&mut self, names: impl IntoIterator<Item = String>) {
        match self {
            Dirty::All => {}
            Dirty::Functions(set) => set.extend(names),
            Dirty::Clean => *self = Dirty::Functions(names.into_iter().collect()),
        }
    }
}

/// One source module owned by the workspace.
struct SourceModule {
    /// The lowered IR (kept so `reanalyze` never re-parses), shared so
    /// analysis never deep-clones it — see [`Workspace::module_clones`].
    module: Arc<Module>,
    /// The pass-level cache: prepared SSA state, mapping extraction and
    /// per-parameter taint slices from the last analysis, so `reanalyze`
    /// recomputes only what the dirty functions could have touched.
    cache: PassCache,
    /// Mapping annotations for this module.
    anns: Vec<Annotation>,
    /// The key of every top-level item of the source `module` was built
    /// from, in source order: the only record of the source an edit is
    /// compared with (see [`Workspace::update_module`]). `None` when those
    /// items cannot be matched one to one with the module's globals and
    /// functions (say, two functions share a name); the next edit then
    /// re-infers the module whole.
    items: Option<Box<[ItemKey]>>,
    /// What changed since the last analysis.
    dirty: Dirty,
    /// From the last analysis: the static reaction verdict of each
    /// parameter it mapped, and so the module's one record of which
    /// parameters it maps (see [`Workspace::reanalyze`]). Stale slices
    /// keep their verdict; only re-inferred parameters are re-classified.
    reactions: BTreeMap<String, ReactionFinding>,
}

impl SourceModule {
    /// The item path of [`Workspace::update_module`], the only path that
    /// keeps allocations (its rule is stated there). Re-parses and
    /// re-lowers the functions whose key changed, reported as changed, and
    /// the appended ones, reported as added, through one context that knows
    /// the appended functions; re-lowers the globals that moved; and
    /// assembles the new module from the old one's parts (kept as it is
    /// when nothing in it changed). `None`, with nothing changed, when the
    /// edit needs the whole-module path.
    fn update_items(
        &mut self,
        tokens: &[Token<'_>],
        items: &[ItemSpan],
    ) -> Option<FingerprintDiff> {
        let keys = self.items.as_deref()?;
        let old = &*self.module;
        let is_function = |key: &&ItemKey| key.kind == ItemKind::Function;
        let others = keys.iter().filter(|k| !is_function(k));
        if !others.eq(items.iter().map(|i| &i.key).filter(|k| !is_function(k))) {
            return None;
        }
        let functions = items.iter().filter(|i| i.key.kind == ItemKind::Function);
        if functions.clone().count() < old.functions.len() {
            return None;
        }
        // Parse every function whose key changed and every appended one.
        let mut stored = keys.iter().filter(is_function);
        let mut defs = Vec::new();
        for (i, item) in functions.enumerate() {
            if stored.next() == Some(&item.key) {
                continue;
            }
            let Item::Function(def) = parse_item(tokens, item)? else {
                return None;
            };
            let fits = match old.functions.get(i) {
                Some(f) => f.name == def.name && f.ret == def.ret,
                None => {
                    Builtin::from_name(&def.name).is_none()
                        && old.function_by_name(&def.name).is_none()
                        && defs
                            .iter()
                            .all(|(_, d): &(_, FunctionDef)| d.name != def.name)
                }
            };
            if !fits {
                return None;
            }
            defs.push((i, def));
        }
        let split = defs.partition_point(|(i, _)| *i < old.functions.len());
        let appended = &defs[split..];
        let mut globals = Vec::new();
        let global_items = items.iter().filter(|i| i.key.kind == ItemKind::Global);
        for (g, item) in global_items.enumerate() {
            let span = Parser::new(tokens, item.start).item_name_span().ok()?;
            if span != old.globals.get(g)?.span {
                let Item::Global(def) = parse_item(tokens, item)? else {
                    return None;
                };
                globals.push((g, def));
            }
        }
        // A comment or whitespace edit lowers nothing.
        if !(defs.is_empty() && globals.is_empty()) {
            let ctx =
                LowerCtx::of_module(old, appended.iter().map(|(_, d)| (d.name.as_str(), &d.ret)));
            let mut module = Module::from_parts(
                old.structs.clone(),
                old.globals.clone(),
                old.functions.clone(),
                old.enum_consts.clone(),
            );
            for (i, def) in &defs {
                let function = Arc::new(ctx.lower_function(def).ok()?);
                match module.functions.get_mut(*i) {
                    Some(f) => *f = function,
                    None => module.functions.push(function),
                }
            }
            for (g, def) in &globals {
                module.globals[*g] = ctx.lower_global(def).ok()?;
            }
            self.module = Arc::new(module);
        }
        let name = |(_, def): &(usize, FunctionDef)| def.name.clone();
        let mut diff = FingerprintDiff {
            changed: defs[..split].iter().map(name).collect(),
            added: defs[split..].iter().map(name).collect(),
            removed: Vec::new(),
        };
        diff.changed.sort_unstable();
        diff.added.sort_unstable();
        self.items = Some(items.iter().map(|i| i.key).collect());
        if !diff.is_empty() {
            self.dirty.absorb_functions(diff.dirty_names());
        }
        Some(diff)
    }
}

/// A whole-module front end's result.
struct Front {
    module: Module,
    /// The keys of `items`, when the parser ended every item where
    /// [`split_items`] did and no two functions share a name.
    items: Option<Box<[ItemKey]>>,
}

impl Front {
    /// Parses every item of a lexed source in order and lowers the
    /// program: [`spex_lang::parse_program`] and
    /// [`spex_ir::lower_program`] over tokens already lexed and split.
    fn whole(
        name: &str,
        tokens: &[Token<'_>],
        items: &[ItemSpan],
    ) -> Result<Front, WorkspaceError> {
        let mut parser = Parser::new(tokens, 0);
        let mut program = Program::default();
        let mut split = items.iter();
        let mut aligned = true;
        while !parser.at_end() {
            let start = parser.pos();
            let item = parser.parse_item().map_err(|e| parse_error(name, e))?;
            aligned &= split.next().is_some_and(|s| {
                s.start == start && s.end == parser.pos() && s.key.kind == item.kind()
            });
            program.push(item);
        }
        aligned &= split.next().is_none();
        let module = spex_ir::lower_program(&program).map_err(|e| parse_error(name, e))?;
        let mut names = HashSet::new();
        let unique = module
            .functions
            .iter()
            .all(|f| names.insert(f.name.as_str()));
        Ok(Front {
            items: (aligned && unique).then(|| items.iter().map(|i| i.key).collect()),
            module,
        })
    }
}

/// Each function's item key by name, to diff two generations: `items`
/// are the keys of the source `module` was lowered from, whose function
/// items are the module's functions, in order. Without keys every name
/// maps to its `generation`, so every function present in both
/// generations counts as changed.
fn function_keys(
    module: &Module,
    items: Option<&[ItemKey]>,
    generation: u8,
) -> BTreeMap<String, Result<ItemKey, u8>> {
    let keys = (items.into_iter().flatten()).filter(|key| key.kind == ItemKind::Function);
    let keys = keys
        .map(|key| Ok(*key))
        .chain(std::iter::repeat(Err(generation)));
    let functions = module.functions.iter().zip(keys);
    functions.map(|(f, key)| (f.name.clone(), key)).collect()
}

fn parse_error(module: &str, e: SourceError) -> WorkspaceError {
    WorkspaceError::Parse {
        module: module.to_string(),
        message: e.to_string(),
    }
}

fn lex<'s>(module: &str, source: &'s str) -> Result<Vec<Token<'s>>, WorkspaceError> {
    Lexer::new(source).lex().map_err(|e| parse_error(module, e))
}

/// Parses one item on its own, from its absolute position; `None` unless
/// it parses and ends where the split ended it.
fn parse_item(tokens: &[Token<'_>], item: &ItemSpan) -> Option<Item> {
    let mut parser = Parser::new(tokens, item.start);
    let parsed = parser.parse_item().ok()?;
    (parser.pos() == item.end).then_some(parsed)
}

/// Takes one module's share of `param`'s mapping count away; a count that
/// drops to zero is removed, so `mapped` holds exactly the mapped
/// parameters.
fn unmap(mapped: &mut HashMap<String, usize>, param: &str) {
    let count = mapped.get_mut(param).expect("counted when mapped");
    *count -= 1;
    if *count == 0 {
        mapped.remove(param);
    }
}

/// A failure while feeding sources into the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkspaceError {
    /// The module's source failed to parse or lower.
    Parse {
        /// The offending module.
        module: String,
        /// The front-end's diagnostic.
        message: String,
    },
    /// The module's annotation block failed to parse.
    Annotations {
        /// The offending module.
        module: String,
        /// The annotation parser's complaint.
        message: String,
    },
    /// An operation named a module the workspace does not own.
    UnknownModule(String),
    /// `add_module` reused an existing module name.
    DuplicateModule(String),
}

impl fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkspaceError::Parse { module, message } => {
                write!(f, "module {module:?}: {message}")
            }
            WorkspaceError::Annotations { module, message } => {
                write!(f, "module {module:?} annotations: {message}")
            }
            WorkspaceError::UnknownModule(m) => write!(f, "no module named {m:?}"),
            WorkspaceError::DuplicateModule(m) => write!(f, "module {m:?} already added"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

/// What one [`Workspace::reanalyze`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReanalyzeReport {
    /// Modules that had dirty state and were (re-)analyzed.
    pub modules_analyzed: usize,
    /// Parameters seen across analyzed modules (fresh and stale).
    pub params_total: usize,
    /// Parameters whose five inference passes actually re-ran.
    pub params_reinferred: usize,
    /// Constraints inserted into the database.
    pub constraints_added: usize,
    /// Constraints dropped from the database (superseded or orphaned).
    pub constraints_removed: usize,
    /// Inference-pass invocation counts, summed over analyzed modules.
    pub passes: PassCounts,
}

impl ReanalyzeReport {
    /// Adds another report's counts to this one (a running total over
    /// many `reanalyze` calls).
    pub fn accumulate(&mut self, other: &ReanalyzeReport) {
        self.modules_analyzed += other.modules_analyzed;
        self.params_total += other.params_total;
        self.params_reinferred += other.params_reinferred;
        self.constraints_added += other.constraints_added;
        self.constraints_removed += other.constraints_removed;
        self.passes.accumulate(&other.passes);
    }
}

/// An incremental analysis-and-validation session (see the module docs).
///
/// This is the primary entry point of the crate: build one per subject
/// system, feed it sources with [`add_module`](Workspace::add_module),
/// call [`reanalyze`](Workspace::reanalyze) after every change, and vet
/// configuration files against the always-current database with
/// [`check_text`](Workspace::check_text) or
/// [`check_paths`](Workspace::check_paths).
pub struct Workspace {
    system: String,
    dialect: Dialect,
    spec: ApiSpec,
    threads: usize,
    env: Option<Arc<dyn Environment + Send + Sync>>,
    modules: BTreeMap<String, SourceModule>,
    /// Parameter names declared legal without inference (option tables
    /// parsed elsewhere, documentation imports, ...).
    noted: BTreeSet<String>,
    /// Parameter → how many modules' last analysis mapped it (holds a
    /// verdict for it), so the orphan test is one lookup.
    mapped: HashMap<String, usize>,
    db: ConstraintDb,
    /// The telemetry sink, when observability is enabled — see
    /// [`enable_telemetry`](Workspace::enable_telemetry).
    telemetry: Option<Arc<spex_obs::Recorder>>,
}

impl Workspace {
    /// An empty workspace for one system.
    pub fn new(system: impl Into<String>, dialect: Dialect) -> Workspace {
        let system = system.into();
        Workspace {
            db: ConstraintDb::new(system.clone(), dialect),
            system,
            dialect,
            spec: ApiSpec::standard(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            env: None,
            modules: BTreeMap::new(),
            noted: BTreeSet::new(),
            mapped: HashMap::new(),
            telemetry: None,
        }
    }

    /// A workspace seeded from a persisted database (`v1` databases are
    /// migrated on load, so this is also the upgrade path). Constraints
    /// already in the database survive until a module claiming their
    /// provenance is re-analyzed; entries with no constraints at all are
    /// treated as explicitly noted legal keys and survive indefinitely.
    pub fn from_db(db: ConstraintDb) -> Workspace {
        let mut ws = Workspace::new(db.system.clone(), db.dialect);
        ws.noted = db
            .params
            .iter()
            .filter(|p| p.constraints.is_empty())
            .map(|p| p.name.clone())
            .collect();
        ws.db = db;
        ws
    }

    /// Overrides the worker-thread count (default: the machine's
    /// available parallelism). The pool it sizes runs the front end of
    /// [`add_modules`](Workspace::add_modules), the analysis and reaction
    /// classification in [`reanalyze`](Workspace::reanalyze), and batch
    /// checking. Results do not depend on it.
    pub fn with_threads(mut self, threads: usize) -> Workspace {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a shared environment model for semantic existence checks.
    pub fn with_env(mut self, env: Arc<dyn Environment + Send + Sync>) -> Workspace {
        self.env = Some(env);
        self
    }

    /// Attaches the real host's filesystem as the environment model.
    pub fn with_fs_env(self) -> Workspace {
        self.with_env(Arc::new(FsEnv::new()))
    }

    /// Builder form of [`enable_telemetry`](Workspace::enable_telemetry).
    pub fn with_telemetry(mut self) -> Workspace {
        self.enable_telemetry();
        self
    }

    /// Turns observability on: from now on every
    /// [`reanalyze`](Workspace::reanalyze),
    /// [`update_module`](Workspace::update_module) and check call records
    /// spans and metrics into this workspace's [`spex_obs::Recorder`],
    /// readable at any time via [`telemetry`](Workspace::telemetry).
    /// Idempotent. With telemetry off (the default), the instrumented
    /// paths cost one atomic load each and record nothing.
    pub fn enable_telemetry(&mut self) -> Arc<spex_obs::Recorder> {
        Arc::clone(
            self.telemetry
                .get_or_insert_with(|| Arc::new(spex_obs::Recorder::new())),
        )
    }

    /// A snapshot of everything recorded since telemetry was enabled (or
    /// an empty snapshot when it never was): the span tree over the
    /// inference passes and the check path, plus the pass/cache counters,
    /// pool gauges and timing histograms.
    pub fn telemetry(&self) -> spex_obs::TelemetrySnapshot {
        self.telemetry
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }

    /// The system this workspace analyzes.
    pub fn system(&self) -> &str {
        &self.system
    }

    /// The owned, always-current constraint database.
    pub fn db(&self) -> &ConstraintDb {
        &self.db
    }

    /// Consumes the workspace, yielding the database (e.g. to persist).
    pub fn into_db(self) -> ConstraintDb {
        self.db
    }

    /// Persists the database to a file in the current (`v2`) format.
    pub fn save_db(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        self.db.save(path)
    }

    /// Declares parameter names legal without inferring anything for them.
    pub fn note_params<I: IntoIterator<Item = S>, S: AsRef<str>>(&mut self, names: I) {
        for n in names {
            self.noted.insert(n.as_ref().to_string());
            self.db.note_param(n.as_ref());
        }
    }

    /// Names of every module the workspace owns, sorted.
    pub fn modules(&self) -> Vec<&str> {
        self.modules.keys().map(String::as_str).collect()
    }

    /// A module's lowered IR as of its last add or update.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.get(name).map(|m| &*m.module)
    }

    /// Module names with un-analyzed changes, sorted.
    pub fn dirty_modules(&self) -> Vec<&str> {
        self.modules
            .iter()
            .filter(|(_, m)| m.dirty != Dirty::Clean)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    fn parse_annotations(module: &str, text: &str) -> Result<Vec<Annotation>, WorkspaceError> {
        Annotation::parse(text).map_err(|message| WorkspaceError::Annotations {
            module: module.to_string(),
            message,
        })
    }

    /// One new module's front end: lex, split into keyed items, parse,
    /// lower and parse the annotations, ready for its first analysis.
    fn front_end(
        name: &str,
        source: &str,
        annotations: &str,
    ) -> Result<SourceModule, WorkspaceError> {
        let tokens = lex(name, source)?;
        let front = Front::whole(name, &tokens, &split_items(&tokens))?;
        let anns = Self::parse_annotations(name, annotations)?;
        Ok(SourceModule {
            items: front.items,
            module: Arc::new(front.module),
            cache: PassCache::default(),
            anns,
            dirty: Dirty::All,
            reactions: BTreeMap::new(),
        })
    }

    /// Adds a source module with its mapping annotations. The source is
    /// parsed and lowered now; inference happens at the next
    /// [`reanalyze`](Workspace::reanalyze). The one-module case of
    /// [`add_modules`](Workspace::add_modules).
    pub fn add_module(
        &mut self,
        name: impl Into<String>,
        source: &str,
        annotations: &str,
    ) -> Result<(), WorkspaceError> {
        self.add_modules(&[(name.into(), source, annotations)])
    }

    /// Adds `(name, source, annotations)` modules. Their front ends run on
    /// the worker pool when there is more than one; they then join the
    /// workspace in input order, so the outcome is exactly that of calling
    /// [`add_module`](Workspace::add_module) for each in turn and stopping
    /// at the first error: the modules before the failing one are added,
    /// the failing one and those after it are not. A name the workspace
    /// already owns, or one repeated within the batch, is a
    /// [`WorkspaceError::DuplicateModule`].
    pub fn add_modules<N, S, A>(&mut self, modules: &[(N, S, A)]) -> Result<(), WorkspaceError>
    where
        N: AsRef<str> + Sync,
        S: AsRef<str> + Sync,
        A: AsRef<str> + Sync,
    {
        let _telemetry = self.telemetry.as_ref().map(spex_obs::install);
        let _span = spex_obs::span("workspace.add_modules");
        let front_end = |i: usize| {
            let (name, source, annotations) = &modules[i];
            Self::front_end(name.as_ref(), source.as_ref(), annotations.as_ref())
        };
        // Same routing as `reanalyze`: one module never touches the pool.
        let parsed: Vec<Result<SourceModule, WorkspaceError>> = if modules.len() > 1 {
            crate::pool::run_indexed(
                self.threads,
                modules.len(),
                self.telemetry.as_ref(),
                front_end,
            )
        } else {
            (0..modules.len()).map(front_end).collect()
        };
        for ((name, _, _), module) in modules.iter().zip(parsed) {
            let name = name.as_ref();
            if self.modules.contains_key(name) {
                return Err(WorkspaceError::DuplicateModule(name.to_string()));
            }
            self.modules.insert(name.to_string(), module?);
        }
        Ok(())
    }

    /// Replaces a module's source. Returns which functions changed, came
    /// or went; an empty diff (e.g. a comment-only edit) leaves the module
    /// clean if it already was.
    ///
    /// The new source is lexed once and split into its top-level items
    /// (struct, enum, global, function), each keyed by its tokens without
    /// their positions, a function's signature apart from its body. The
    /// stored keys of the previous source are the only record an edit is
    /// compared with: a function changed when its key did, so whitespace,
    /// comments and moves change nothing, while any other token edit to a
    /// function (even `{ }`, or a renamed local) re-infers it.
    ///
    /// An edit takes the *item path* when it keeps everything the other
    /// functions' lowering reads: every item other than a function keeps
    /// its key, in order; the stored functions come first, in order, each
    /// with its name and return type (a call's result is typed by it; a
    /// function whose signature key changed is parsed to check); and any
    /// further function is appended, named like no builtin (calls by that
    /// name would switch to it) and no other function. Only the functions
    /// whose key changed and the appended ones are parsed, lowered and
    /// marked for re-inference; a global that only moved is re-lowered for
    /// its new span, and every other function keeps its allocation, so
    /// downstream reuse (SSA state, slices) keeps sharing one body.
    ///
    /// Any other edit, or a function that fails to parse or lower on its
    /// own, takes the *whole-module path*: every item is parsed and
    /// lowered, no allocation is kept, and the module is re-inferred whole
    /// (ids, types or call targets may have moved). Both paths build the
    /// module a whole parse builds.
    pub fn update_module(
        &mut self,
        name: &str,
        source: &str,
    ) -> Result<FingerprintDiff, WorkspaceError> {
        let _telemetry = self.telemetry.as_ref().map(spex_obs::install);
        let _span = spex_obs::span("workspace.update_module");
        let tokens = lex(name, source)?;
        let items = split_items(&tokens);
        if let Some(entry) = self.modules.get_mut(name) {
            if let Some(diff) = entry.update_items(&tokens, &items) {
                return Ok(diff);
            }
        }
        let Front { module, items } = Front::whole(name, &tokens, &items)?;
        let entry = self
            .modules
            .get_mut(name)
            .ok_or_else(|| WorkspaceError::UnknownModule(name.to_string()))?;
        let diff = diff_fingerprints(
            &function_keys(&entry.module, entry.items.as_deref(), 0),
            &function_keys(&module, items.as_deref(), 1),
        );
        entry.dirty = Dirty::All;
        entry.module = Arc::new(module);
        entry.items = items;
        Ok(diff)
    }

    /// Replaces a module's mapping annotations. Annotations that parse to
    /// the stored ones (say, re-spaced) change nothing; any other change
    /// re-infers the module whole, as mappings decide what a parameter
    /// even is.
    pub fn update_annotations(
        &mut self,
        name: &str,
        annotations: &str,
    ) -> Result<(), WorkspaceError> {
        let anns = Self::parse_annotations(name, annotations)?;
        let entry = self
            .modules
            .get_mut(name)
            .ok_or_else(|| WorkspaceError::UnknownModule(name.to_string()))?;
        if entry.anns != anns {
            entry.anns = anns;
            entry.dirty = Dirty::All;
        }
        Ok(())
    }

    /// Removes a module and garbage-collects its contribution to the
    /// database — both the parameters its last analysis mapped and what a
    /// seeded database credits to the module's provenance (the
    /// [`from_db`](Workspace::from_db) resume case, where the module may
    /// never have been re-analyzed).
    pub fn remove_module(&mut self, name: &str) -> Result<(), WorkspaceError> {
        let entry = self
            .modules
            .remove(name)
            .ok_or_else(|| WorkspaceError::UnknownModule(name.to_string()))?;
        let mut params: BTreeSet<String> = entry.reactions.into_keys().collect();
        for param in &params {
            unmap(&mut self.mapped, param);
        }
        params.extend(self.db.params_from_source(name));
        for param in &params {
            self.db.remove_source_param(name, param);
            self.drop_param_if_orphaned(param);
        }
        Ok(())
    }

    /// Drops a parameter entry that no longer has constraints, is not
    /// explicitly noted, and is not mapped by any module.
    fn drop_param_if_orphaned(&mut self, param: &str) {
        let claimed = self.noted.contains(param)
            || self.mapped.contains_key(param)
            || self
                .db
                .param(param)
                .is_some_and(|e| !e.constraints.is_empty());
        if !claimed {
            self.db.remove_param(param);
        }
    }

    /// Re-infers constraints for everything dirty and folds the results
    /// into the database. Work is proportional to the change, at two
    /// granularities: parameters the edit cannot affect (the core's
    /// parameter-scope rule, see [`Spex::analyze_scoped`]) keep their
    /// persisted constraints and reaction verdicts untouched and their
    /// inference passes do not run, and the expensive intermediate
    /// artifacts — SSA preparation, mapping extraction, per-parameter taint
    /// slices — are served from the module's [`PassCache`] whenever the
    /// edit provably cannot affect them (see [`ReanalyzeReport::passes`]
    /// for both the pass and the cache accounting). The fold writes only
    /// the difference: the re-inferred parameters' constraints and the
    /// parameters a module no longer maps. The stored module is shared into
    /// the analysis and never deep-cloned ([`Workspace::module_clones`]
    /// stays flat).
    pub fn reanalyze(&mut self) -> ReanalyzeReport {
        let _telemetry = self.telemetry.as_ref().map(spex_obs::install);
        let _span = spex_obs::span("workspace.reanalyze");
        let mut report = ReanalyzeReport::default();

        /// One dirty module's analysis input, detached from the workspace
        /// borrow: the module is `Arc`-shared (no function body is copied
        /// — the zero-copy invariant `function_clones` tracks), the pass
        /// cache and the reaction verdicts are taken out of the entry,
        /// updated in place and handed back after the run.
        struct Job {
            name: String,
            module: Arc<Module>,
            anns: Vec<Annotation>,
            cache: Mutex<PassCache>,
            /// The module's reaction verdicts, one per mapped parameter.
            reactions: Mutex<BTreeMap<String, ReactionFinding>>,
            /// The changed functions, or `None` when everything changed.
            dirty: Option<BTreeSet<String>>,
        }

        /// What the fold needs of one job's analysis. Everything else
        /// (evidence, slices, the prepared module) is dropped on the
        /// worker.
        struct Analyzed {
            passes: PassCounts,
            /// How many parameters the module maps.
            params: usize,
            /// Each re-inferred parameter with its fresh constraints,
            /// flagged when the module's last analysis did not map it.
            fresh: Vec<(String, Vec<Constraint>, bool)>,
            /// The parameters the last analysis mapped and this one does
            /// not.
            dropped: Vec<String>,
        }

        // Phase 1 (serial, module-name order): snapshot every dirty
        // module's inputs and what changed. The core decides which
        // parameters that change re-infers.
        let mut jobs: Vec<Job> = Vec::new();
        for (name, entry) in &mut self.modules {
            let dirty = match std::mem::replace(&mut entry.dirty, Dirty::Clean) {
                Dirty::Clean => continue,
                Dirty::All => None,
                Dirty::Functions(fns) => Some(fns),
            };
            jobs.push(Job {
                name: name.clone(),
                module: Arc::clone(&entry.module),
                anns: entry.anns.clone(),
                cache: Mutex::new(std::mem::take(&mut entry.cache)),
                reactions: Mutex::new(std::mem::take(&mut entry.reactions)),
                dirty,
            });
        }
        report.modules_analyzed = jobs.len();

        // Phase 2: analyze, then classify the reaction path of every
        // re-inferred parameter in place (a stale one keeps its verdict).
        // With several dirty modules the pool fans out at module
        // granularity and each job runs its parameter passes inline
        // (nesting pools would oversubscribe); with a single dirty module
        // the parameter-level fan-out inside the core gets all the
        // threads. Routing on the workload keeps telemetry
        // thread-count-independent.
        let spec = &self.spec;
        let analyze_job = |job: &Job, threads: usize| {
            let _module_span = spex_obs::span!("workspace.module", module = job.name);
            let mut cache = job.cache.lock().expect("job cache lock");
            let incremental = Incremental {
                cache: &mut cache,
                dirty: job.dirty.as_ref(),
                threads,
            };
            let mut analysis =
                Spex::analyze_scoped(&job.module, &job.anns, spec.clone(), Some(incremental));
            let mut reactions = job.reactions.lock().expect("job reactions lock");
            let mut passes = PassCounts::default();
            let mut fresh = Vec::new();
            for r in &mut analysis.reports {
                if r.stale {
                    // A stale report's slice is the cached one, so the last
                    // analysis mapped the parameter and classified it.
                    debug_assert!(reactions.contains_key(&r.param.name), "{}", r.param.name);
                    passes.react_cache_hits += 1;
                    continue;
                }
                passes.react_runs += 1;
                let finding =
                    spex_react::classify_with_summaries(&analysis.am, &analysis.summaries, r);
                let new = reactions.insert(r.param.name.clone(), finding).is_none();
                let constraints = std::mem::take(&mut r.constraints);
                fresh.push((r.param.name.clone(), constraints, new));
            }
            // Mapped names are distinct and each now holds a verdict, so
            // the map holds more than the reports exactly when a parameter
            // is no longer mapped.
            let params = analysis.reports.len();
            let mut dropped = Vec::new();
            if reactions.len() > params {
                let names = analysis.reports.iter().map(|r| r.param.name.as_str());
                let mapped: HashSet<&str> = names.collect();
                let gone = reactions.extract_if(.., |p, _| !mapped.contains(p.as_str()));
                dropped.extend(gone.map(|(p, _)| p));
            }
            // The core published its own counts; the reaction counts are
            // the only ones it could not see.
            passes.record_metrics();
            passes.accumulate(&analysis.passes);
            Analyzed {
                passes,
                params,
                fresh,
                dropped,
            }
        };
        let analyses: Vec<Analyzed> = if jobs.len() > 1 {
            crate::pool::run_indexed(self.threads, jobs.len(), self.telemetry.as_ref(), |i| {
                analyze_job(&jobs[i], 1)
            })
        } else {
            jobs.iter().map(|j| analyze_job(j, self.threads)).collect()
        };

        // Phase 3 (serial, same order): fold every difference into the
        // database. The fold order is what makes the persisted constraints
        // byte-identical to the serial run at any thread count; the pass
        // counters are commutative sums, so they match too.
        let _fold_span = spex_obs::span("workspace.fold");
        for (job, analyzed) in jobs.into_iter().zip(analyses) {
            let name = job.name;
            let entry = self.modules.get_mut(&name).expect("still present");
            entry.cache = job.cache.into_inner().expect("job cache lock");
            entry.reactions = job.reactions.into_inner().expect("job reactions lock");
            report.passes.accumulate(&analyzed.passes);
            report.params_total += analyzed.params;
            report.params_reinferred += analyzed.fresh.len();
            for (param, constraints, new) in analyzed.fresh {
                let (removed, added) = self.db.replace_source_param(&name, &param, constraints);
                report.constraints_removed += removed;
                report.constraints_added += added;
                if new {
                    *self.mapped.entry(param).or_default() += 1;
                }
            }

            // Garbage-collect the parameters this module no longer maps:
            // those its verdicts dropped, and on a cold run also those the
            // database credits to the module. The latter matters when
            // resuming from a persisted db, where the verdicts start empty
            // but provenance-tagged constraints may exist; after a
            // module's first analysis only its own folds credit it.
            let mut gone = analyzed.dropped;
            for param in &gone {
                unmap(&mut self.mapped, param);
            }
            if job.dirty.is_none() {
                let credited = self.db.params_from_source(&name).into_iter();
                gone.extend(credited.filter(|p| !entry.reactions.contains_key(p)));
            }
            for param in gone {
                report.constraints_removed += self.db.remove_source_param(&name, &param);
                self.drop_param_if_orphaned(&param);
            }
        }
        report
    }

    // -- Reaction analysis ----------------------------------------------

    /// Every parameter's static reaction verdict as of the last
    /// [`reanalyze`](Workspace::reanalyze), as `(module, finding)` pairs
    /// sorted by module then parameter name. Covers all four classes;
    /// filter on [`ReactionClass::is_vulnerability`] for the
    /// vulnerability view.
    pub fn reaction_findings(&self) -> Vec<(&str, &ReactionFinding)> {
        self.modules
            .iter()
            .flat_map(|(name, m)| m.reactions.values().map(move |f| (name.as_str(), f)))
            .collect()
    }

    /// The vulnerability view of the last analysis's reaction verdicts as
    /// a renderable [`Report`] (one [`FileReport`] per module, in module
    /// order). Late detections are errors — an invalid value crashes or
    /// corrupts the system instead of producing a message — while silent
    /// fallbacks and unchecked parameters are warnings; parameters that
    /// are checked with a message do not appear (they are the desired
    /// reaction). Each diagnostic carries the `SPEX-V` code and `Origin`
    /// provenance, so the JSON-Lines and SARIF renderers work unchanged.
    pub fn reaction_report(&self) -> Report {
        let files = self
            .modules
            .iter()
            .map(|(name, m)| {
                let diags = m
                    .reactions
                    .values()
                    .filter(|f| f.class.is_vulnerability())
                    .map(|f| {
                        let severity = match f.class {
                            ReactionClass::LateDetection => Severity::Error,
                            _ => Severity::Warning,
                        };
                        Diagnostic::new(severity, &f.param, "", f.detail.clone(), f.code())
                            .from_origin(name, &f.in_function, f.span)
                    })
                    .collect();
                FileReport::new(self.system.clone(), name.clone(), diags)
            })
            .collect();
        Report::from_files(files)
    }

    // -- Checking -------------------------------------------------------

    /// A borrowed [`CheckSession`] over the current database — **zero
    /// copies**, and nothing built: the database is its own parameter
    /// index, so calling this per keystroke or per file costs a few field
    /// copies.
    ///
    /// The returned session borrows the workspace; drop it before the
    /// next `&mut self` call.
    pub fn session(&self) -> CheckSession<'_> {
        let mut session = CheckSession::new(&self.db).with_threads(self.threads);
        if let Some(env) = &self.env {
            session = session.with_env(env.as_ref());
        }
        if let Some(rec) = &self.telemetry {
            session = session.with_recorder(Arc::clone(rec));
        }
        session
    }

    /// Total deep-clone count across the lineages of every stored module
    /// (see [`Module::clone_count`]). Analysis shares the stored modules
    /// by reference, so [`reanalyze`](Workspace::reanalyze) — full or
    /// incremental — must keep this flat; the pass-cache regression tests
    /// assert exactly that.
    pub fn module_clones(&self) -> usize {
        self.modules.values().map(|m| m.module.clone_count()).sum()
    }

    /// Total deep-clone count across the lineages of every *function body*
    /// the stored modules hold (see `Function::clone_count` in `spex-ir`).
    /// With `Module` sharing functions (`Vec<Arc<Function>>`), no path in
    /// analysis, re-analysis or checking should ever copy a body — warm
    /// generations bump refcounts only — and the zero-copy regression
    /// tests assert this stays at zero.
    pub fn function_clones(&self) -> usize {
        self.modules
            .values()
            .map(|m| m.module.function_clones())
            .sum()
    }

    /// Checks one config text against the current database.
    pub fn check_text(&self, text: &str) -> Vec<Diagnostic> {
        self.check_conf(&ConfFile::parse(text, self.dialect))
    }

    /// Checks a parsed config file against the current database.
    pub fn check_conf(&self, conf: &ConfFile) -> Vec<Diagnostic> {
        self.session().check(conf)
    }

    /// Checks many in-memory `(label, text)` files on the worker pool
    /// (see [`CheckSession::check_texts`]).
    pub fn check_texts<L, T>(&self, files: &[(L, T)]) -> Report
    where
        L: AsRef<str> + Sync,
        T: AsRef<str> + Sync,
    {
        self.session().check_texts(files)
    }

    /// Streaming batch validation of files and directory trees against the
    /// current database (see [`CheckSession::check_paths`] for the
    /// walking, memory and ordering guarantees). Runs on a borrowed
    /// session: no `ConstraintDb` copy, per call or per file.
    pub fn check_paths<P: AsRef<Path>>(&self, roots: &[P]) -> std::io::Result<Report> {
        self.session().check_paths(roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

    const BASE: &str = r#"
        int threads = 4;
        int nap = 30;
        struct opt { char* name; int* var; };
        struct opt options[] = { { "threads", &threads }, { "nap", &nap } };
        void startup() {
            if (threads < 1) { exit(1); }
            if (threads > 16) { exit(1); }
        }
        void napper() { sleep(nap); }
    "#;

    fn ws() -> Workspace {
        let mut ws = Workspace::new("Test", Dialect::KeyValue);
        ws.add_module("main.c", BASE, ANN).unwrap();
        ws
    }

    #[test]
    fn first_reanalyze_is_full_then_clean_is_free() {
        let mut ws = ws();
        assert_eq!(ws.dirty_modules(), vec!["main.c"]);
        let r = ws.reanalyze();
        assert_eq!(r.modules_analyzed, 1);
        assert_eq!(r.params_reinferred, 2);
        assert_eq!(r.passes.basic_type, 2);
        assert!(ws.dirty_modules().is_empty());
        let r = ws.reanalyze();
        assert_eq!(r, ReanalyzeReport::default());
    }

    #[test]
    fn checker_sees_inferred_constraints() {
        let mut ws = ws();
        ws.reanalyze();
        assert!(ws.check_text("threads = 8\nnap = 30\n").is_empty());
        let ds = ws.check_text("threads = 64\n");
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("[1, 16]"), "{}", ds[0]);
    }

    #[test]
    fn update_module_swaps_only_edited_function_arcs() {
        // The zero-copy contract at the `update_module` boundary: an edit
        // allocates a fresh `Arc` only for the functions it changed;
        // every untouched function is the *same* allocation across
        // generations, and no function body is ever deep-copied.
        let mut ws = ws();
        ws.reanalyze();
        let before: std::collections::BTreeMap<String, Arc<spex_ir::Function>> = ws.modules
            ["main.c"]
            .module
            .functions
            .iter()
            .map(|f| (f.name.clone(), Arc::clone(f)))
            .collect();

        let edited = BASE.replace("sleep(nap)", "sleep(nap + 0)");
        assert_ne!(edited, BASE, "the probe edit must change the source");
        ws.update_module("main.c", &edited).unwrap();
        let after = &ws.modules["main.c"].module;
        assert_eq!(after.functions.len(), before.len());
        for f in &after.functions {
            let old = &before[&f.name];
            if f.name == "napper" {
                assert!(
                    !Arc::ptr_eq(old, f),
                    "the edited function must get a fresh Arc"
                );
            } else {
                assert!(
                    Arc::ptr_eq(old, f),
                    "{}: untouched functions must be pointer-equal across generations",
                    f.name
                );
            }
        }

        ws.reanalyze();
        assert_eq!(ws.function_clones(), 0, "no function body may be copied");
        assert_eq!(ws.module_clones(), 0, "no module may be deep-cloned");
    }

    #[test]
    fn comment_edit_dirties_nothing() {
        let mut ws = ws();
        ws.reanalyze();
        let diff = ws
            .update_module("main.c", &format!("// nothing\n{BASE}"))
            .unwrap();
        assert!(diff.is_empty());
        assert!(ws.dirty_modules().is_empty());
        assert_eq!(ws.reanalyze().params_reinferred, 0);
    }

    #[test]
    fn unknown_and_duplicate_modules_error() {
        let mut ws = ws();
        assert!(matches!(
            ws.add_module("main.c", BASE, ANN),
            Err(WorkspaceError::DuplicateModule(_))
        ));
        assert!(matches!(
            ws.update_module("other.c", BASE),
            Err(WorkspaceError::UnknownModule(_))
        ));
        assert!(matches!(
            ws.add_module("bad.c", "int = ;", ANN),
            Err(WorkspaceError::Parse { .. })
        ));
        assert!(matches!(
            ws.add_module("badann.c", BASE, "{ @NOT = a thing }"),
            Err(WorkspaceError::Annotations { .. })
        ));
    }

    #[test]
    fn add_modules_fails_exactly_like_a_loop_of_add_module() {
        type Batch<'a> = &'a [(&'a str, &'a str, &'a str)];
        fn one_by_one(ws: &mut Workspace, batch: Batch<'_>) -> Result<(), WorkspaceError> {
            for (name, source, annotations) in batch {
                ws.add_module(*name, source, annotations)?;
            }
            Ok(())
        }
        let parse = |module: &str| WorkspaceError::Parse {
            module: module.into(),
            message: String::new(),
        };
        let cases: [(Batch<'_>, WorkspaceError); 4] = [
            (
                &[
                    ("a.c", BASE, ANN),
                    ("bad.c", "int = ;", ANN),
                    ("c.c", BASE, ANN),
                ],
                parse("bad.c"),
            ),
            (
                &[("a.c", BASE, ANN), ("a.c", BASE, ANN), ("c.c", BASE, ANN)],
                WorkspaceError::DuplicateModule("a.c".into()),
            ),
            (
                &[
                    ("a.c", BASE, ANN),
                    ("main.c", BASE, ANN),
                    ("c.c", BASE, ANN),
                ],
                WorkspaceError::DuplicateModule("main.c".into()),
            ),
            (
                &[("a.c", BASE, ANN), ("bad.c", BASE, "{ @NOT = a thing }")],
                WorkspaceError::Annotations {
                    module: "bad.c".into(),
                    message: String::new(),
                },
            ),
        ];
        for (batch, expected) in cases {
            let mut batched = ws().with_threads(4);
            let mut looped = ws();
            let got = batched.add_modules(batch);
            assert_eq!(got, one_by_one(&mut looped, batch));
            let blank = |e: WorkspaceError| match e {
                WorkspaceError::Parse { module, .. } => parse(&module),
                WorkspaceError::Annotations { module, .. } => WorkspaceError::Annotations {
                    module,
                    message: String::new(),
                },
                e => e,
            };
            assert_eq!(got.map_err(blank), Err(expected));
            // Only what came before the failing module was added.
            assert_eq!(batched.modules(), vec!["a.c", "main.c"]);
            batched.reanalyze();
            looped.reanalyze();
            assert_eq!(batched.db().save_to_string(), looped.db().save_to_string());
        }
    }

    #[test]
    fn annotation_text_cut_inside_a_char_is_an_error_not_a_panic() {
        let mut ws = ws();
        let anns = format!("{}é", "x".repeat(29));
        assert!(matches!(
            ws.add_module("other.c", BASE, &anns),
            Err(WorkspaceError::Annotations { .. })
        ));
        assert_eq!(ws.modules(), vec!["main.c"]);
    }

    #[test]
    fn removed_module_garbage_collects_its_params() {
        let mut ws = ws();
        ws.reanalyze();
        assert!(ws.db().param("threads").is_some());
        ws.remove_module("main.c").unwrap();
        assert!(ws.db().param("threads").is_none());
        assert_eq!(ws.db().constraint_count(), 0);
    }

    #[test]
    fn noted_params_survive_module_removal() {
        let mut ws = ws();
        ws.note_params(["threads"]);
        ws.reanalyze();
        ws.remove_module("main.c").unwrap();
        let entry = ws.db().param("threads").expect("noted name stays legal");
        assert!(entry.constraints.is_empty());
    }

    #[test]
    fn from_db_keeps_seeded_constraints_checkable() {
        let mut ws = ws();
        ws.reanalyze();
        let text = ws.db().save_to_string();
        let ws2 = Workspace::from_db(ConstraintDb::load_from_str(&text).unwrap());
        assert_eq!(ws2.check_text("threads = 64\n").len(), 1);
    }

    // -- What an edit changed, by item keys ------------------------------

    /// The dirty state and diff of one edit of [`BASE`] in a clean
    /// workspace.
    fn edited(source: &str) -> (FingerprintDiff, Dirty) {
        let mut ws = ws();
        ws.reanalyze();
        let diff = ws.update_module("main.c", source).unwrap();
        (diff, ws.modules["main.c"].dirty.clone())
    }

    #[test]
    fn whitespace_and_comment_edits_do_not_dirty() {
        let respaced = BASE
            .replace(
                "void startup() {",
                "// a comment\n        void startup()\n{",
            )
            .replace("sleep(nap);", "sleep( nap ) ;\n");
        assert_eq!(
            edited(&respaced),
            (FingerprintDiff::default(), Dirty::Clean)
        );
    }

    #[test]
    fn editing_one_function_dirties_only_it() {
        let (diff, dirty) = edited(&BASE.replace("sleep(nap);", "sleep(nap); sleep(nap);"));
        assert_eq!(diff.changed, vec!["napper".to_string()]);
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        assert_eq!(dirty, Dirty::Functions(["napper".to_string()].into()));
    }

    /// A function renamed in place leaves the item path: a call by the old
    /// name may now resolve elsewhere, so the module is re-inferred whole.
    #[test]
    fn added_and_removed_functions_are_reported() {
        let mut ws = ws();
        ws.reanalyze();
        let diff = ws
            .update_module(
                "main.c",
                &BASE.replace(
                    "void napper() { sleep(nap); }",
                    "void listener() { listen(0, nap); }",
                ),
            )
            .unwrap();
        assert!(diff.changed.is_empty());
        assert_eq!(diff.added, vec!["listener".to_string()]);
        assert_eq!(diff.removed, vec!["napper".to_string()]);
        assert_eq!(diff.dirty_names(), vec!["listener", "napper"]);
        assert_eq!(ws.modules["main.c"].dirty, Dirty::All);
        let r = ws.reanalyze();
        assert_eq!(r.params_reinferred, r.params_total);
        assert_eq!(r.params_reinferred, 2);
    }

    /// A global's key is its whole text: an edited initializer re-infers
    /// the module whole, an edited body only its function.
    #[test]
    fn header_tracks_globals_not_bodies() {
        let (diff, dirty) = edited(&BASE.replace("int nap = 30;", "int nap = 60;"));
        assert_eq!((diff, dirty), (FingerprintDiff::default(), Dirty::All));
        let (_, dirty) = edited(&BASE.replace("threads > 16", "threads > 32"));
        assert_eq!(dirty, Dirty::Functions(["startup".to_string()].into()));
    }

    /// Each token mixes into its item's key in order, so moving a sign
    /// from one constant to another is a change, in a global and in a
    /// body alike.
    #[test]
    fn swapping_the_signs_of_two_constants_is_a_change() {
        let source = |lo: &str, hi: &str, body: &str| {
            let globals = format!("double lo = {lo}; double hi = {hi};");
            format!("{BASE}\n{globals}\ndouble scale() {{ return {body}; }}\n")
        };
        let mut ws = ws();
        ws.update_module("main.c", &source("-0.5", "0.5", "-0.5 * 0.5"))
            .unwrap();
        ws.reanalyze();
        let diff = ws
            .update_module("main.c", &source("-0.5", "0.5", "0.5 * -0.5"))
            .unwrap();
        assert_eq!(diff.changed, vec!["scale".to_string()]);
        ws.update_module("main.c", &source("0.5", "-0.5", "0.5 * -0.5"))
            .unwrap();
        assert_eq!(ws.modules["main.c"].dirty, Dirty::All);
    }

    /// A token edit is a change even where it lowers to the same IR: the
    /// function is lowered and re-inferred again, and the db stays equal
    /// to a fresh one.
    #[test]
    fn a_token_edit_that_lowers_to_the_same_ir_reinfers_its_function() {
        let mut ws = ws();
        ws.reanalyze();
        let before = Arc::clone(&ws.modules["main.c"].module.functions[1]);
        let edited = BASE.replace("sleep(nap); }", "sleep(nap); { } }");
        let diff = ws.update_module("main.c", &edited).unwrap();
        assert_eq!(diff.changed, vec!["napper".to_string()]);
        let after = &ws.modules["main.c"].module.functions[1];
        assert!(!Arc::ptr_eq(&before, after));
        assert_eq!(
            print_function(&before, &ws.modules["main.c"].module),
            print_function(after, &ws.modules["main.c"].module)
        );
        assert_eq!(ws.reanalyze().params_reinferred, 1, "`nap` re-inferred");
        let mut fresh = Workspace::new("Test", Dialect::KeyValue);
        fresh.add_module("main.c", &edited, ANN).unwrap();
        fresh.reanalyze();
        assert_eq!(ws.db().save_to_string(), fresh.db().save_to_string());
    }

    // -- The item path against a whole parse ----------------------------

    use spex_ir::printer::{print_function, print_module};
    use spex_lang::token::TokenKind;
    use spex_systems::rng::SplitMix64;

    /// What `update_module` must build: a whole `parse_program` plus
    /// `lower_program`, the diff of the functions' item keys by name, and
    /// whether the edit takes the item path: both sources have keys (no
    /// two functions share a name); every item other than a function
    /// keeps its key, in order; the previous generation's functions come
    /// first, in order, with their names and return types; and the rest
    /// are named like no builtin. Only the item path keeps allocations, and
    /// a function keeps the previous generation's exactly when its key is
    /// unchanged. The whole path keeps none and re-infers the module whole.
    struct Reference {
        /// The fresh whole lowering; no allocation is swapped in.
        module: Module,
        diff: FingerprintDiff,
        /// For each function, the index of the previous generation's
        /// function whose allocation it keeps.
        kept: Vec<Option<usize>>,
        item_path: bool,
    }

    /// A source's function keys by name and its other items' keys in
    /// order, when the names of `m`'s functions are unique.
    fn keyed(source: &str, m: &Module) -> Option<(BTreeMap<String, ItemKey>, Vec<ItemKey>)> {
        let names: BTreeSet<&str> = m.functions.iter().map(|f| f.name.as_str()).collect();
        if names.len() != m.functions.len() {
            return None;
        }
        let (functions, others): (Vec<ItemKey>, Vec<ItemKey>) = item_keys(source)
            .into_iter()
            .partition(|key| key.kind == ItemKind::Function);
        let functions = functions
            .into_iter()
            .zip(&m.functions)
            .map(|(key, f)| (f.name.clone(), key))
            .collect();
        Some((functions, others))
    }

    fn reference(
        name: &str,
        prev_source: &str,
        prev: &Module,
        source: &str,
    ) -> Result<Reference, WorkspaceError> {
        let error = |e: spex_lang::Diagnostic| WorkspaceError::Parse {
            module: name.to_string(),
            message: e.to_string(),
        };
        let program = spex_lang::parse_program(source).map_err(error)?;
        let module = spex_ir::lower_program(&program).map_err(error)?;
        let mut kept = vec![None; module.functions.len()];
        let Some(((old_keys, old_others), (new_keys, new_others))) =
            keyed(prev_source, prev).zip(keyed(source, &module))
        else {
            // No keys to compare: every function on both sides changed.
            let names = |m: &Module| -> BTreeSet<String> {
                m.functions.iter().map(|f| f.name.clone()).collect()
            };
            let (old, new) = (names(prev), names(&module));
            let diff = FingerprintDiff {
                changed: old.intersection(&new).cloned().collect(),
                added: new.difference(&old).cloned().collect(),
                removed: old.difference(&new).cloned().collect(),
            };
            return Ok(Reference {
                module,
                diff,
                kept,
                item_path: false,
            });
        };
        let diff = diff_fingerprints(&old_keys, &new_keys);
        let n = prev.functions.len();
        let item_path = old_others == new_others
            && module.functions.len() >= n
            && (prev.functions.iter())
                .zip(&module.functions)
                .all(|(p, f)| p.name == f.name && p.ret == f.ret)
            && (module.functions[n..].iter())
                .all(|f| spex_lang::Builtin::from_name(&f.name).is_none());
        if item_path {
            for (i, f) in module.functions[..n].iter().enumerate() {
                if old_keys[&f.name] == new_keys[&f.name] {
                    kept[i] = Some(i);
                }
            }
        }
        Ok(Reference {
            diff,
            module,
            kept,
            item_path,
        })
    }

    /// Applies one edit of `prev_source` (the source the module was last
    /// built from) through `update_module` and asserts the outcome is the
    /// reference's in every field. A kept allocation must equal the fresh
    /// lowering in everything but its spans. Returns `None` when the edit
    /// was rejected, else whether it took the item path.
    fn check_step(
        ws: &mut Workspace,
        name: &str,
        prev_source: &str,
        source: &str,
        what: &str,
    ) -> Option<bool> {
        let entry = ws.modules.get_mut(name).unwrap();
        entry.dirty = Dirty::Clean;
        let prev = Arc::clone(&entry.module);
        let want = reference(name, prev_source, &prev, source);
        let got = ws.update_module(name, source);
        let entry = &ws.modules[name];
        let want = match (want, got) {
            (Err(want), got) => {
                assert_eq!(got, Err(want), "{name}: {what}");
                assert!(Arc::ptr_eq(&entry.module, &prev), "{name}: {what}");
                assert_eq!(entry.dirty, Dirty::Clean, "{name}: {what}");
                return None;
            }
            (Ok(want), Ok(diff)) => {
                assert_eq!(diff, want.diff, "{name}: {what}");
                want
            }
            (Ok(_), Err(e)) => panic!("{name}: {what}: whole parse accepts, update fails: {e}"),
        };
        let got = &*entry.module;
        assert_eq!(
            print_module(got),
            print_module(&want.module),
            "{name}: {what}"
        );
        assert_eq!(got.functions.len(), want.module.functions.len());
        for (i, (g, w)) in got.functions.iter().zip(&want.module.functions).enumerate() {
            let shared = prev.functions.iter().position(|p| Arc::ptr_eq(p, g));
            let context = format!("{name}: {what}: {}", g.name);
            assert_eq!(shared, want.kept[i], "{context} allocation");
            if shared.is_none() {
                // Every instruction and terminator with its span, the
                // function's span, slots and value types.
                assert_eq!(format!("{g:?}"), format!("{w:?}"), "{context}");
                continue;
            }
            // A kept body holds the spans it was lowered with; every other
            // field must be what lowering the new source gives.
            assert_eq!(
                print_function(g, got),
                print_function(w, &want.module),
                "{context}"
            );
            assert_eq!(
                format!("{:?}", g.value_types),
                format!("{:?}", w.value_types),
                "{context}"
            );
            assert_eq!(format!("{:?}", g.params), format!("{:?}", w.params));
            assert_eq!(g.ret, w.ret, "{context}");
            assert_eq!(format!("{:?}", g.slots), format!("{:?}", w.slots));
        }
        assert_eq!(
            format!("{:?}", got.globals),
            format!("{:?}", want.module.globals),
            "{name}: {what}"
        );
        assert_eq!(
            format!("{:?}", got.structs),
            format!("{:?}", want.module.structs)
        );
        assert_eq!(got.enum_consts, want.module.enum_consts);
        let keys = item_keys(source);
        // Items are kept only while they name the functions one to one.
        let names: BTreeSet<&str> = got.functions.iter().map(|f| f.name.as_str()).collect();
        let unique = names.len() == got.functions.len();
        assert_eq!(
            entry.items.as_deref(),
            unique.then_some(&keys[..]),
            "{name}: {what}"
        );
        let dirty = if !want.item_path {
            Dirty::All
        } else if want.diff.is_empty() {
            Dirty::Clean
        } else {
            Dirty::Functions(want.diff.dirty_names().into_iter().collect())
        };
        assert_eq!(entry.dirty, dirty, "{name}: {what}");
        Some(want.item_path)
    }

    /// A source's items as byte offsets: kind, start, a function body's
    /// `{`, and one past the last byte.
    fn item_text(source: &str) -> Vec<(ItemKind, usize, Option<usize>, usize)> {
        let Ok(tokens) = Lexer::new(source).lex() else {
            return Vec::new();
        };
        let lines: Vec<usize> = std::iter::once(0)
            .chain(source.match_indices('\n').map(|(i, _)| i + 1))
            .collect();
        let at = |t: &Token<'_>| lines[t.span.line as usize - 1] + t.span.col as usize - 1;
        split_items(&tokens)
            .iter()
            .map(|item| {
                let body = tokens[item.start..item.end]
                    .iter()
                    .find(|t| t.kind == TokenKind::LBrace)
                    .filter(|_| item.key.kind == ItemKind::Function)
                    .map(at);
                let end = (at(&tokens[item.end - 1]) + 1).min(source.len());
                (item.key.kind, at(&tokens[item.start]), body, end)
            })
            .collect()
    }

    fn pick<T: Copy>(g: &mut SplitMix64, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[(g.next_u64() % from.len() as u64) as usize])
    }

    fn splice(source: &str, at: usize, text: &str) -> String {
        format!("{}{text}{}", &source[..at], &source[at..])
    }

    /// One seeded source edit of the kinds configuration code sees, named.
    fn edit(g: &mut SplitMix64, source: &str, n: usize) -> (&'static str, String) {
        let items = item_text(source);
        let of = |kind: ItemKind| -> Vec<(usize, Option<usize>, usize)> {
            items
                .iter()
                .filter(|i| i.0 == kind)
                .map(|i| (i.1, i.2, i.3))
                .collect()
        };
        let bodies: Vec<(usize, usize, usize)> = items
            .iter()
            .filter_map(|i| Some((i.1, i.2?, i.3)))
            .collect();
        let starts: Vec<usize> = items.iter().map(|i| i.1).collect();
        let comment = |g: &mut SplitMix64| {
            let at = pick(g, &starts).unwrap_or(0);
            ("comment", splice(source, at, ["/* c */ ", "// c\n"][n % 2]))
        };
        let kind = g.next_u64() % 20;
        let edited = match kind {
            0 | 1 | 6 => pick(g, &bodies).map(|(_, body, _)| {
                let (what, text) = match kind {
                    // An empty block changes the body's key, not its IR.
                    0 if n.is_multiple_of(2) => ("body in place", " { }".to_string()),
                    0 => ("body in place", format!(" int zq{n} = {n};")),
                    1 => ("body adds lines", format!("\n    int zq{n} = {n};\n")),
                    _ => (
                        "literals",
                        format!(" char* zs{n} = \"{{;}}//\"; int zc{n} = '}}';"),
                    ),
                };
                (what, splice(source, body + 1, &text))
            }),
            2 => pick(g, &bodies).and_then(|(_, body, end)| {
                let first = body + source[body..end].find('\n')?;
                let second = first + 1 + source[first + 1..end].find('\n')?;
                Some((
                    "body removes a line",
                    format!("{}{}", &source[..first + 1], &source[second + 1..]),
                ))
            }),
            3 => Some(comment(g)),
            4 => pick(g, &starts)
                .map(|at| ("whitespace", splice(source, at, ["\n\n", "   "][n % 2]))),
            5 => (items.len() > 1).then(|| {
                let k = (g.next_u64() % (items.len() as u64 - 1)) as usize;
                let (end, next) = (items[k].3, items[k + 1].1);
                (
                    "two items on one line",
                    format!("{} {}", &source[..end], &source[next.max(end)..]),
                )
            }),
            7 => pick(g, &starts).map(|at| ("hash line", splice(source, at, "\n#pragma spex\n"))),
            8 => pick(g, &[of(ItemKind::Global), of(ItemKind::Function)].concat()).map(
                |(at, _, _)| {
                    (
                        "qualifier",
                        splice(source, at, ["static ", "const "][n % 2]),
                    )
                },
            ),
            9 => pick(g, &of(ItemKind::Global))
                .map(|(_, _, end)| ("global", splice(source, end - 1, " + 1"))),
            10 => pick(g, &of(ItemKind::Struct)).and_then(|(at, _, end)| {
                let brace = at + source[at..end].find('{')?;
                Some(("struct", splice(source, brace + 1, " int zf; ")))
            }),
            11 => pick(g, &of(ItemKind::Enum)).and_then(|(at, _, end)| {
                let brace = at + source[at..end].find('{')?;
                Some(("enum", splice(source, brace + 1, &format!(" ZQ{n}, "))))
            }),
            12 => pick(g, &bodies).and_then(|(at, body, _)| {
                let paren = at + source[at..body].find('(')?;
                let text = if source[paren + 1..].starts_with(')') {
                    "int zp"
                } else {
                    "int zp, "
                };
                Some(("signature", splice(source, paren + 1, text)))
            }),
            // A module function named like a builtin takes the calls by
            // that name; appended, it leaves every other index as it was.
            13 if n.is_multiple_of(3) => Some((
                "add a builtin's name",
                format!(
                    "{source}\n{}\n",
                    [
                        "int atoi(char* s) { return 0; }",
                        "long strtol(char* s, char** end, int base) { return 0; }"
                    ][n % 2]
                ),
            )),
            13 => {
                let at = pick(g, &starts).unwrap_or(source.len());
                Some((
                    "add function",
                    splice(source, at, &format!("void zz{n}() {{ }}\n")),
                ))
            }
            14 => pick(g, &bodies).map(|(at, _, end)| {
                (
                    "remove function",
                    format!("{}{}", &source[..at], &source[end..]),
                )
            }),
            15 => pick(g, &bodies).and_then(|(at, body, _)| {
                let paren = at + source[at..body].find('(')?;
                Some(("rename function", splice(source, paren, "_r")))
            }),
            // A call's result is typed by its callee's return type.
            16 => {
                let typed: Vec<(usize, &str, &str)> = bodies
                    .iter()
                    .filter_map(|&(at, _, _)| {
                        let (from, to) = [("int ", "long "), ("long ", "int ")]
                            .into_iter()
                            .find(|(from, _)| source[at..].starts_with(from))?;
                        Some((at, from, to))
                    })
                    .collect();
                pick(g, &typed).map(|(at, from, to)| {
                    (
                        "return type",
                        format!("{}{to}{}", &source[..at], &source[at + from.len()..]),
                    )
                })
            }
            // A check moved into a new helper: the helper is appended, and
            // the body that calls it is edited.
            17 => pick(g, &bodies).map(|(_, body, _)| {
                let called = splice(source, body + 1, &format!(" zh{n}(0);"));
                (
                    "append and call",
                    format!("{called}\nvoid zh{n}(int v) {{ if (v > {n}) {{ exit(1); }} }}\n"),
                )
            }),
            18 => bodies.last().map(|&(at, _, end)| {
                (
                    "remove the last function",
                    format!("{}{}", &source[..at], &source[end..]),
                )
            }),
            _ => (items.len() > 1).then(|| {
                let k = (g.next_u64() % (items.len() as u64 - 1)) as usize;
                let (a, b) = (items[k], items[k + 1]);
                let (a, b) = ((a.1, a.3), (b.1, b.3.max(b.1)));
                (
                    "reorder",
                    format!(
                        "{}{}{}{}{}",
                        &source[..a.0],
                        &source[b.0..b.1],
                        &source[a.1.min(b.0)..b.0],
                        &source[a.0..a.1.min(b.0)],
                        &source[b.1..]
                    ),
                )
            }),
        };
        edited.unwrap_or_else(|| comment(g))
    }

    /// One byte-level mutation, or one of the hostile shapes a front end
    /// must reject with a positioned error: unbalanced braces, an
    /// unterminated comment or literal, a lone `}` between items, and
    /// 10,000 nested blocks.
    fn mutate(g: &mut SplitMix64, source: &str) -> (&'static str, String) {
        let at = (g.next_u64() % (source.len() as u64 + 1)) as usize;
        let starts: Vec<usize> = item_text(source).iter().map(|i| i.1).collect();
        let bodies: Vec<usize> = item_text(source).iter().filter_map(|i| i.2).collect();
        match g.next_u64() % 8 {
            0 => {
                let end = (at + 1 + (g.next_u64() % 3) as usize).min(source.len());
                (
                    "delete bytes",
                    format!("{}{}", &source[..at], &source[end..]),
                )
            }
            1 => {
                let byte = pick(
                    g,
                    &[
                        '{', '}', '(', ')', ';', '"', '\'', '/', '*', '#', '\n', 'a', '0',
                    ],
                )
                .unwrap();
                ("insert a byte", splice(source, at, &byte.to_string()))
            }
            2 => {
                let end = (at + (g.next_u64() % 20) as usize).min(source.len());
                ("duplicate bytes", splice(source, at, &source[at..end]))
            }
            3 => ("unbalanced brace", format!("{source}{{")),
            4 => (
                "lone brace",
                splice(source, pick(g, &starts).unwrap_or(at), "}\n"),
            ),
            5 => ("unterminated comment", splice(source, at, "/*")),
            6 => (
                "unterminated literal",
                splice(source, at, ["\"", "'"][at % 2]),
            ),
            _ => {
                let body = pick(g, &bodies).map_or(at, |b| b + 1);
                let blocks = format!("{}{}", "{".repeat(10_000), "}".repeat(10_000));
                ("10,000 nested blocks", splice(source, body, &blocks))
            }
        }
    }

    /// The sources the oracles run over: every catalog system in release
    /// (the two smallest in debug) and a slice of the fleet.
    fn oracle_sources() -> Vec<(String, String, String)> {
        let release = !cfg!(debug_assertions);
        let mut sources: Vec<(String, String, String)> = spex_systems::all_systems()
            .into_iter()
            .filter(|s| release || matches!(s.name, "OpenLDAP" | "VSFTP"))
            .map(|spec| {
                let gen = spex_systems::generate(&spec);
                (spec.name.to_string(), gen.source, gen.annotations)
            })
            .collect();
        let fleet = spex_systems::fleet::generate_fleet(&spex_systems::fleet::FleetSpec {
            modules: if release { 64 } else { 16 },
            ..Default::default()
        });
        sources.extend(fleet.into_iter().map(|m| (m.name, m.source, m.annotations)));
        sources
    }

    #[test]
    fn the_item_path_builds_what_a_whole_parse_builds() {
        let sources = oracle_sources();
        let steps_per_module = |source: &str| if source.len() > 10_000 { 40 } else { 14 };
        let mut g = SplitMix64::seed_from_u64(0x17e4);
        let (mut steps, mut accepted, mut same_shape) = (0, 0, 0);
        let mut kinds = BTreeSet::new();
        for (name, base, annotations) in &sources {
            let mut ws = Workspace::new("Oracle", Dialect::KeyValue);
            ws.add_module(name.as_str(), base, annotations).unwrap();
            let mut source = base.clone();
            for n in 0..steps_per_module(base) {
                let (what, edited) = edit(&mut g, &source, n);
                let old_keys: Vec<ItemKey> = item_keys(&source);
                let new_keys: Vec<ItemKey> = item_keys(&edited);
                same_shape += usize::from(
                    old_keys.len() == new_keys.len()
                        && old_keys
                            .iter()
                            .zip(&new_keys)
                            .all(|(a, b)| a.kind == b.kind && a.head == b.head),
                );
                steps += 1;
                if let Some(item_path) = check_step(&mut ws, name, &source, &edited, what) {
                    accepted += 1;
                    kinds.insert((what, item_path));
                    source = edited;
                }
            }
            ws.reanalyze();
            assert_eq!(ws.module_clones(), 0);
            assert_eq!(ws.function_clones(), 0);
        }
        assert!(steps >= 200, "{steps} steps");
        // Each on the path the rule sends it to: a call result retyped, a
        // function id gone, and a helper appended.
        for kind in [
            ("return type", false),
            ("remove the last function", false),
            ("append and call", true),
        ] {
            assert!(kinds.contains(&kind), "{kind:?}: {kinds:?}");
        }
        assert!(accepted * 2 > steps, "{accepted} of {steps} edits parsed");
        assert!(
            same_shape * 3 > steps,
            "{same_shape} of {steps} edits kept every item's kind and head"
        );
    }

    fn item_keys(source: &str) -> Vec<ItemKey> {
        Lexer::new(source)
            .lex()
            .map(|tokens| split_items(&tokens).iter().map(|i| i.key).collect())
            .unwrap_or_default()
    }

    #[test]
    fn hostile_sources_fail_exactly_as_a_whole_parse_does() {
        let sources = oracle_sources();
        let mut g = SplitMix64::seed_from_u64(0xbad5);
        let mut rejected = 0;
        let mut kinds = BTreeSet::new();
        for (name, base, annotations) in sources.iter().take(12) {
            let mut ws = Workspace::new("Hostile", Dialect::KeyValue);
            ws.add_module(name.as_str(), base, annotations).unwrap();
            for _ in 0..16 {
                let (what, mutated) = mutate(&mut g, base);
                kinds.insert(what);
                let accepted = check_step(&mut ws, name, base, &mutated, what).is_some();
                rejected += usize::from(!accepted);
                // Back to the pristine source, so every mutation is one
                // step away from a module that parses.
                let current = if accepted { &mutated } else { base };
                check_step(&mut ws, name, current, base, "restore");
            }
        }
        assert_eq!(kinds.len(), 8, "{kinds:?}");
        assert!(rejected > 50, "{rejected} mutations rejected");
    }

    /// An appended function takes the item path unless it is named like
    /// a builtin or like another function.
    #[test]
    fn appended_functions_take_the_item_path_unless_their_names_collide() {
        for (appended, item_path) in [
            ("void helper() { sleep(nap); }", true),
            ("int atoi(char* s) { return 0; }", false),
            ("void napper() { }", false),
        ] {
            let source = format!("{BASE}{appended}\n");
            let path = check_step(&mut ws(), "main.c", BASE, &source, appended);
            assert_eq!(path, Some(item_path), "{appended}");
        }
    }

    #[test]
    fn a_body_edit_takes_the_item_path_and_keeps_every_other_allocation() {
        let mut ws = ws();
        let entry = &ws.modules["main.c"];
        let (before, items) = (Arc::clone(&entry.module), entry.items.clone());
        assert!(items.is_some(), "a parsed module stores its item keys");
        // The edit shifts `napper` one line down and changes no key.
        let edited = BASE.replace("exit(1); }\n            if", "exit(1); }\n\n            if");
        let diff = ws.update_module("main.c", &edited).unwrap();
        assert_eq!(
            diff,
            FingerprintDiff::default(),
            "a line shift changes no key"
        );
        let after = &ws.modules["main.c"].module;
        assert!(
            Arc::ptr_eq(&before, after),
            "nothing changed, so the module is kept"
        );
        let edited = edited.replace("threads > 16", "threads > 32");
        let diff = ws.update_module("main.c", &edited).unwrap();
        assert_eq!(diff.changed, vec!["startup".to_string()]);
        let after = &ws.modules["main.c"].module;
        assert!(Arc::ptr_eq(&before.functions[1], &after.functions[1]));
        assert!(!Arc::ptr_eq(&before.functions[0], &after.functions[0]));
        assert_eq!(ws.module_clones(), 0);
    }
}
