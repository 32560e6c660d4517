//! The constraint-inference pipeline (§2.2).
//!
//! SPEX scans the code twice. The first pass tracks each parameter's data
//! flow and infers per-parameter constraints (basic type, semantic type,
//! data range). The second pass works on the per-parameter slices to infer
//! multi-parameter constraints (control dependencies and value
//! relationships).

pub mod basic_type;
pub mod branch;
pub mod control_dep;
pub mod evidence;
pub mod range;
pub mod semantic_type;
pub mod value_rel;

use crate::annotations::Annotation;
use crate::apispec::ApiSpec;
use crate::constraint::Constraint;
use crate::mapping::{extract_mappings, mapping_relevant, MappedParam};
use spex_dataflow::{AnalyzedModule, MemLoc, ModuleSummaries, TaintEngine, TaintResult, TaintRoot};
use spex_ir::{FuncId, Instr, Module, ValueId};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

pub use evidence::{Evidence, ResetEvidence, StringCmpEvidence};

/// Inference output for one parameter.
#[derive(Debug, Clone)]
pub struct ParamReport {
    /// The mapped parameter.
    pub param: MappedParam,
    /// The parameter's data-flow (its "program slice"), shared with the
    /// pass-level cache — an unchanged slice is reused across analysis
    /// generations by reference-count bump.
    pub taint: Arc<TaintResult>,
    /// All constraints inferred for the parameter.
    pub constraints: Vec<Constraint>,
    /// Raw evidence consumed by the error-prone-design detectors (§3.2).
    pub evidence: Evidence,
    /// Set when a scoped analysis skipped this parameter's inference
    /// passes: the mapping and taint slice are fresh, but `constraints`
    /// and `evidence` are empty and previously persisted results remain
    /// authoritative.
    pub stale: bool,
}

/// What one [`PassCounts`] field counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountKind {
    /// Invocations of one inference pass.
    Pass,
    /// Artifacts of one cached kind that were computed.
    Runs,
    /// Artifacts of one cached kind served from the cache.
    Hits,
}

/// One row of [`PassCounts::FIELDS`]: everything that prints, publishes
/// or sums a counter reads it from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountField {
    /// The field's name, which is also its key in daemon replies.
    pub name: &'static str,
    /// The pass or cached artifact it counts, as summaries print it. A
    /// [`CountKind::Runs`] row and a [`CountKind::Hits`] row share the
    /// label of their artifact.
    pub label: &'static str,
    /// What it counts.
    pub kind: CountKind,
    /// The telemetry counter it is published as.
    pub metric: &'static str,
}

/// Declares [`PassCounts`] and its field table from one list of
/// `field: Kind("label", "metric")` rows.
macro_rules! pass_counts {
    (
        $(#[$meta:meta])*
        pub struct PassCounts {
            $($(#[$fmeta:meta])* $field:ident: $kind:ident($label:literal, $metric:literal),)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct PassCounts {
            $($(#[$fmeta])* pub $field: usize,)+
        }

        impl PassCounts {
            /// One row per field, in declaration order.
            pub const FIELDS: &'static [CountField] = &[$(CountField {
                name: stringify!($field),
                label: $label,
                kind: CountKind::$kind,
                metric: $metric,
            },)+];

            /// Every field's row with its value, in declaration order.
            pub fn entries(&self) -> impl Iterator<Item = (&'static CountField, usize)> {
                Self::FIELDS.iter().zip([$(self.$field,)+])
            }

            fn values_mut(&mut self) -> impl Iterator<Item = &mut usize> + '_ {
                [$(&mut self.$field,)+].into_iter()
            }
        }
    };
}

pass_counts! {
    /// How many times each inference pass ran during one analysis, and how
    /// the pass-level cache fared.
    ///
    /// The per-parameter passes (basic type, semantic type, data range)
    /// count one invocation per parameter they processed; the whole-module
    /// passes (control dependency, value relationship) count one invocation
    /// per run. The cache counters record, for the expensive intermediate
    /// artifacts (config-mapping extraction, function summaries,
    /// per-parameter taint slices and reaction verdicts), how many were
    /// recomputed versus served from a [`PassCache`]. Incremental callers
    /// use these to assert that a scoped re-analysis did proportionally
    /// less work than a full one. [`PassCounts::FIELDS`] describes every
    /// field; each cached artifact has a `Runs` row followed by its `Hits`
    /// row.
    pub struct PassCounts {
        /// Basic-type pass invocations (per parameter).
        basic_type: Pass("basic", "infer.pass.basic_type"),
        /// Semantic-type pass invocations (per parameter).
        semantic_type: Pass("semantic", "infer.pass.semantic_type"),
        /// Data-range pass invocations (per parameter).
        range: Pass("range", "infer.pass.range"),
        /// Control-dependency pass invocations (per run).
        control_dep: Pass("control-dep", "infer.pass.control_dep"),
        /// Value-relationship pass invocations (per run).
        value_rel: Pass("value-rel", "infer.pass.value_rel"),
        /// Mapping extractions that actually ran (per analysis).
        mapping_extractions: Runs("mapping", "infer.cache.mapping.misses"),
        /// Mapping extractions answered from the cache (per analysis).
        mapping_cache_hits: Hits("mapping", "infer.cache.mapping.hits"),
        /// Function summaries (re)computed (per function).
        summary_runs: Runs("summary", "infer.summary.runs"),
        /// Function summaries reused from the cache (per function).
        summary_cache_hits: Hits("summary", "infer.summary.hits"),
        /// Taint-slice computations that actually ran (per parameter).
        taint_runs: Runs("taint", "infer.cache.taint.misses"),
        /// Taint slices reused from the cache (per parameter).
        taint_cache_hits: Hits("taint", "infer.cache.taint.hits"),
        /// Reaction classifications that actually ran (per parameter). The
        /// reaction pass lives downstream in `spex-react`; the workspace
        /// layer accounts for it here so one struct carries the whole
        /// story.
        react_runs: Runs("react", "react.cache.misses"),
        /// Reaction findings reused for stale slices (per parameter).
        react_cache_hits: Hits("react", "react.cache.hits"),
    }
}

impl PassCounts {
    /// Sum over the five inference passes (cache counters excluded).
    pub fn total(&self) -> usize {
        self.basic_type + self.semantic_type + self.range + self.control_dep + self.value_rel
    }

    /// Fraction of cacheable artifacts (mappings + taint slices) served
    /// from the cache, or `None` when nothing cacheable was requested.
    pub fn cached_fraction(&self) -> Option<f64> {
        let hits = self.mapping_cache_hits + self.taint_cache_hits;
        let total = hits + self.mapping_extractions + self.taint_runs;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Publishes every non-zero count into the installed telemetry
    /// recorder as its field's [`metric`](CountField::metric) counter
    /// (no-op when telemetry is disabled).
    pub fn record_metrics(&self) {
        if !spex_obs::enabled() {
            return;
        }
        for (field, value) in self.entries() {
            if value > 0 {
                spex_obs::counter(field.metric, value as u64);
            }
        }
    }

    /// Accumulates another run's counts.
    pub fn accumulate(&mut self, other: &PassCounts) {
        for (mine, (_, theirs)) in self.values_mut().zip(other.entries()) {
            *mine += theirs;
        }
    }
}

/// The full analysis result for one system.
pub struct SpexAnalysis {
    /// The prepared module (SSA form plus analysis caches), shared with
    /// the [`PassCache`] so incremental re-analyses reuse per-function
    /// state instead of rebuilding it.
    pub am: Arc<AnalyzedModule>,
    /// One report per configuration parameter, in mapping order.
    pub reports: Vec<ParamReport>,
    /// Interprocedural function summaries the passes consumed, shared with
    /// the [`PassCache`] and with the downstream reaction analysis.
    pub summaries: Arc<ModuleSummaries>,
    /// How many times each inference pass ran (see [`PassCounts`]).
    pub passes: PassCounts,
}

impl SpexAnalysis {
    /// The report for a parameter by name.
    pub fn param(&self, name: &str) -> Option<&ParamReport> {
        self.reports.iter().find(|r| r.param.name == name)
    }

    /// All constraints across all parameters.
    pub fn all_constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.reports.iter().flat_map(|r| r.constraints.iter())
    }

    /// Constraint counts by category (the columns of Table 11).
    pub fn counts_by_category(&self) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for c in self.all_constraints() {
            *counts.entry(c.kind.category()).or_insert(0) += 1;
        }
        counts
    }
}

/// The cache for the expensive intermediate artifacts of one module's
/// analysis: the prepared [`AnalyzedModule`] (SSA form, CFGs, dominators,
/// use-def chains), the config-mapping extraction result, the function
/// summaries and the per-parameter taint slices.
///
/// One cache belongs to one module lineage. [`Spex::analyze_scoped`]
/// consults it through an [`Incremental`] that names the dirty functions,
/// and refills it after every run. A warm re-analysis after a small edit
/// recomputes only the artifacts the edit could have touched and reuses
/// the rest by `Arc` bump. The cache also holds the previous generation's
/// call edges, summaries and slices, so the core alone decides which
/// parameters an edit re-infers. Dropping the cache, or passing
/// `dirty = None`, degrades gracefully to a full analysis.
#[derive(Default)]
pub struct PassCache {
    state: Option<CacheState>,
}

/// A warm analysis of one module lineage (see [`Spex::analyze_scoped`]).
pub struct Incremental<'a> {
    /// The lineage's pass cache, consulted and refilled.
    pub cache: &'a mut PassCache,
    /// Every function whose source changed since the cache was last
    /// filled: changed, added *and* removed ones. A function not named
    /// must lower to the same IR as before. `None` means the change is
    /// unknown or touches the header or annotations, and everything is
    /// recomputed.
    pub dirty: Option<&'a BTreeSet<String>>,
    /// The most scoped workers the per-parameter passes may use.
    pub threads: usize,
}

struct CacheState {
    /// The previous generation's prepared module. Its call graph holds
    /// the call edges an edit may have removed.
    am: Arc<AnalyzedModule>,
    /// The annotations the artifacts were extracted under.
    anns: Vec<Annotation>,
    /// The merged mapping extracted under `anns` (empty when an
    /// annotation fails).
    mapping: Arc<[MappedParam]>,
    /// Cached per-function interprocedural summaries.
    summaries: Arc<ModuleSummaries>,
    /// Cached per-parameter slices, by parameter name.
    slices: HashMap<String, CachedSlice>,
}

/// One parameter's cached taint slice plus the summaries its validity
/// checks need (see [`slice_survives_edit`]).
struct CachedSlice {
    /// The roots the slice was computed from (id-exact; any change in the
    /// fresh mapping misses the cache).
    roots: Vec<TaintRoot>,
    /// The slice itself.
    taint: Arc<TaintResult>,
    /// Names of the functions the slice touches.
    touched: BTreeSet<String>,
    /// Parameter counts of the touched functions (possible arities for
    /// indirect calls *into* the slice from edited code).
    touched_arities: BTreeSet<usize>,
    /// Arities of indirect calls *made by* touched functions (an edited
    /// function with a matching parameter count could become a callee).
    indirect_arities: BTreeSet<usize>,
}

/// What an edited (or added) function could do to existing slices:
/// everything a taint run could newly traverse through it.
struct DirtyFnSummary {
    /// Abstract locations the function loads from.
    loads: Vec<MemLoc>,
    /// Names of functions it calls directly.
    callees: BTreeSet<String>,
    /// Arities of indirect calls it makes.
    indirect_arities: BTreeSet<usize>,
    /// Arities of functions whose address it takes (each becomes a new
    /// potential indirect-call target).
    funcref_arities: BTreeSet<usize>,
    /// Its own parameter count (it may itself be an indirect-call target).
    param_count: usize,
}

/// Summarizes one function of `am`: its call edges come from the call
/// graph, so the walk collects only loads and function references.
fn summarize_dirty_fn(am: &AnalyzedModule, fid: FuncId) -> DirtyFnSummary {
    let f = am.module.func(fid);
    let calls = &am.callgraph;
    let callees = calls.callees[fid.index()].iter();
    let mut s = DirtyFnSummary {
        loads: Vec::new(),
        callees: callees.map(|t| am.module.func(*t).name.clone()).collect(),
        indirect_arities: calls.indirect_arities[fid.index()]
            .iter()
            .copied()
            .collect(),
        funcref_arities: BTreeSet::new(),
        param_count: f.params.len(),
    };
    for (_, _, instr, _) in f.iter_instrs() {
        match instr {
            Instr::Load { place, .. } => {
                if let Some(loc) = MemLoc::from_place(fid, place) {
                    s.loads.push(loc);
                }
            }
            Instr::Const {
                val: spex_ir::ConstVal::FuncRef(t),
                ..
            } => {
                s.funcref_arities.insert(am.module.func(*t).params.len());
            }
            _ => {}
        }
    }
    s
}

/// Whether a cached slice is still exact after an edit: its roots are
/// unchanged, none of its touched functions changed, and no edited
/// function opens a new channel into it. Taint enters a function only by
/// (a) loading memory the slice taints, (b) receiving a tainted argument
/// from a touched function (impossible here — touched functions are
/// unchanged, so their call sites are too), (c) receiving a tainted return
/// by calling into a touched function, directly or through a function
/// pointer, or (d) becoming an indirect-call target of a touched
/// function. Each channel has a matching conservative check below.
fn slice_survives_edit(
    cached: &CachedSlice,
    roots: &[TaintRoot],
    dirty: &BTreeSet<String>,
    summaries: &[DirtyFnSummary],
) -> bool {
    if cached.roots != roots {
        return false;
    }
    if cached.touched.iter().any(|n| dirty.contains(n)) {
        return false;
    }
    summaries.iter().all(|s| {
        s.callees.is_disjoint(&cached.touched)
            && s.indirect_arities.is_disjoint(&cached.touched_arities)
            && !cached.indirect_arities.contains(&s.param_count)
            && s.funcref_arities.is_disjoint(&cached.indirect_arities)
            && !s
                .loads
                .iter()
                .any(|l| cached.taint.mem.keys().any(|m| m.may_alias(l)))
    })
}

/// Builds the [`CachedSlice`] bookkeeping for a freshly computed (or
/// carried-over) slice.
fn cache_slice(am: &AnalyzedModule, roots: &[TaintRoot], taint: &Arc<TaintResult>) -> CachedSlice {
    let mut touched = BTreeSet::new();
    let mut touched_arities = BTreeSet::new();
    let mut indirect_arities = BTreeSet::new();
    for fid in taint.touched_functions() {
        let f = am.module.func(fid);
        touched.insert(f.name.clone());
        touched_arities.insert(f.params.len());
        indirect_arities.extend(&am.callgraph.indirect_arities[fid.index()]);
    }
    CachedSlice {
        roots: roots.to_vec(),
        taint: Arc::clone(taint),
        touched,
        touched_arities,
        indirect_arities,
    }
}

/// Whether the cached generation's id space is compatible with `module`:
/// same globals (name and order) and the old function table a prefix of
/// the new one, so every `FuncId`/`GlobalId` embedded in cached artifacts
/// still resolves to the same entity.
fn ids_stable(prev: &Module, next: &Module) -> bool {
    prev.functions.len() <= next.functions.len()
        && prev
            .functions
            .iter()
            .zip(&next.functions)
            .all(|(a, b)| a.name == b.name)
        && prev.globals.len() == next.globals.len()
        && prev
            .globals
            .iter()
            .zip(&next.globals)
            .all(|(a, b)| a.name == b.name)
}

/// Entry point of the SPEX analysis.
pub struct Spex;

impl Spex {
    /// Analyzes a module with the standard API registry.
    pub fn analyze(module: Module, anns: &[Annotation]) -> SpexAnalysis {
        Self::analyze_scoped(&module, anns, ApiSpec::standard(), None)
    }

    /// Analyzes a borrowed module with an API registry (the paper
    /// imported Storage-A's proprietary APIs this way). The module is never
    /// deep-cloned: function bodies are promoted to SSA straight off the
    /// reference.
    ///
    /// With `incremental = None` this is the classic full analysis: cold,
    /// serial and uncached. With an [`Incremental`] whose `dirty` set is
    /// `Some` and whose cache holds a previous generation with the same
    /// annotations and a compatible module header (globals, structs, enum
    /// constants), the prepared module is incrementally rebuilt, the merged
    /// mapping is reused unless a dirty function could affect it, and each
    /// parameter's taint slice is reused unless the edit could reach it —
    /// see [`PassCounts`] for the hit/miss accounting. Otherwise everything
    /// is recomputed and the cache seeded.
    ///
    /// Mapping and taint tracking cover every parameter, but on a warm
    /// run the five constraint-inference passes re-run only for the
    /// parameters the edit could affect (the parameter-scope rule in
    /// `docs/analysis.md`). The dirty functions are first widened by what
    /// the edit changed in recomputed artifacts: every function whose
    /// summary changed, every caller (old or new) of a function whose
    /// never-returns flag or return transfer changed, and every function
    /// where a recomputed slice's tainted values differ from the cached
    /// one's — a parameter mapped only before or only now counts with its
    /// whole slice. That set is closed over the previous generation's call
    /// edges, since a removed call can take away the guards a callee
    /// inherited, and then over the new ones, since editing a caller
    /// changes the guards its callees inherit. A parameter re-runs when
    /// its slice was recomputed, so it may differ from the cached one, even
    /// by shrinking away from every dirty function; or when its slice
    /// touches that closure. A slice served from the cache *is* the
    /// previous generation's, so this also covers every parameter whose
    /// previous slice touched the closure.
    ///
    /// The rest come back as [`stale`](ParamReport::stale) reports, and
    /// incremental callers keep their persisted constraints.
    ///
    /// The per-parameter passes fan across up to `threads` pool workers
    /// whenever more than one parameter is live. Routing on the *workload*
    /// rather than the thread count keeps the telemetry count signature
    /// thread-count-independent: a warm single-dirty-parameter reanalyze
    /// never touches the pool, a cold run always does, at any `threads`.
    /// The output is **byte-identical to the serial run** at every thread
    /// count: results come back in parameter index order, the pass
    /// counters are derived from the in-scope set rather than loop order,
    /// and the multi-parameter passes (control dependencies, value
    /// relationships) stay serial — they scan branch sites once for the
    /// whole module and their merge order is what makes
    /// [`SpexAnalysis::reports`] deterministic.
    pub fn analyze_scoped(
        module: &Module,
        anns: &[Annotation],
        spec: ApiSpec,
        incremental: Option<Incremental<'_>>,
    ) -> SpexAnalysis {
        let mut uncached = PassCache::default();
        let Incremental {
            cache,
            dirty,
            threads,
        } = incremental.unwrap_or(Incremental {
            cache: &mut uncached,
            dirty: None,
            threads: 1,
        });
        let mut passes = PassCounts::default();

        // Reuse the previous generation's per-function state when the
        // caller names the edit and the id space is compatible; otherwise
        // drop it now and run cold.
        let old = cache.state.take().filter(|state| {
            dirty.is_some() && state.anns == anns && ids_stable(&state.am.module, module)
        });
        let prev = old.as_ref().zip(dirty);
        let am = Arc::new(match prev {
            Some((state, dirty)) => {
                AnalyzedModule::rebuild(&state.am, module, &|name| dirty.contains(name))
            }
            None => AnalyzedModule::build_ref(module),
        });

        // The merged mapping stays valid unless a dirty function, in its
        // old or new form, is relevant to the annotations; otherwise it is
        // extracted whole. Any failing annotation empties it.
        let cached = prev.and_then(|(state, dirty)| {
            let unaffected = dirty.iter().all(|name| {
                [&*state.am, &*am].into_iter().all(|m| {
                    m.module
                        .function_by_name(name)
                        .is_none_or(|fid| !mapping_relevant(m, fid, anns))
                })
            });
            unaffected.then(|| Arc::clone(&state.mapping))
        });
        let params: Arc<[MappedParam]> = match cached {
            Some(mapping) => {
                passes.mapping_cache_hits += 1;
                mapping
            }
            None => {
                passes.mapping_extractions += 1;
                let _span = spex_obs::span("infer.mapping");
                extract_mappings(&am, anns).unwrap_or_default().into()
            }
        };

        // Interprocedural function summaries, SCC-granular: a dirty
        // function invalidates exactly its component plus the components
        // that (transitively) call into it; every other component is
        // reused from the previous generation by clone.
        let (summaries, recomputed) = {
            let _span = spex_obs::span("infer.summary");
            let prev_summaries = prev.map(|(state, dirty)| {
                let dirty_fns: Vec<bool> = am
                    .module
                    .functions
                    .iter()
                    .map(|f| dirty.contains(&f.name))
                    .collect();
                (state.summaries.as_ref(), dirty_fns)
            });
            let (s, stats) = ModuleSummaries::compute_incremental(
                &am,
                prev_summaries.as_ref().map(|(p, d)| (*p, d.as_slice())),
            );
            passes.summary_runs += stats.runs;
            passes.summary_cache_hits += stats.hits;
            (Arc::new(s), stats.recomputed)
        };

        // Taint slices: reuse every slice the edit provably cannot reach.
        // A dirty function is summarized in both its old and its new form
        // (mirroring the mapping check above): either could hold a channel
        // into a cached slice — a removed channel (say, a dropped function
        // pointer that used to feed a touched indirect call) shrinks the
        // recomputed slice just as surely as an added one grows it.
        let mut engine: Option<TaintEngine> = None;
        let dirty_summaries: Vec<DirtyFnSummary> = match prev {
            Some((state, dirty)) => dirty
                .iter()
                .flat_map(|name| {
                    [&*state.am, &*am].into_iter().filter_map(move |m| {
                        Some(summarize_dirty_fn(m, m.module.function_by_name(name)?))
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        let mut slice_hit = vec![false; params.len()];
        let taints: Vec<Arc<TaintResult>> = params
            .iter()
            .zip(&mut slice_hit)
            .map(|(p, hit)| {
                let cached = prev.and_then(|(state, dirty)| {
                    let cached = state.slices.get(&p.name)?;
                    slice_survives_edit(cached, &p.roots, dirty, &dirty_summaries).then_some(cached)
                });
                if let Some(cached) = cached {
                    passes.taint_cache_hits += 1;
                    *hit = true;
                    return Arc::clone(&cached.taint);
                }
                passes.taint_runs += 1;
                let engine = engine.get_or_insert_with(|| TaintEngine::new(&am));
                let _span = spex_obs::span!("infer.taint", param = p.name);
                Arc::new(engine.run(&p.roots))
            })
            .collect();
        drop(engine);

        // Parameter scope (see above): a cold run infers every parameter.
        let in_scope: Vec<bool> = match prev {
            None => vec![true; params.len()],
            Some((state, dirty)) => {
                // Widen the edit by what it changed in recomputed
                // artifacts, then close over the old call edges, then the
                // new ones.
                let mut seeds = dirty.clone();
                seeds.extend(changed_by_recomputation(
                    state,
                    &am,
                    &summaries,
                    &recomputed,
                    &params,
                    &taints,
                    &slice_hit,
                ));
                let mut closed = seeds.clone();
                closed.extend(expand_dirty_functions(&state.am, &seeds));
                let reached = expand_dirty_functions(&am, &closed);
                // A reused slice is the cached one, touching what it did.
                params
                    .iter()
                    .zip(&slice_hit)
                    .map(|(p, &hit)| !hit || !state.slices[&p.name].touched.is_disjoint(&reached))
                    .collect()
            }
        };

        // Refill the cache for the next generation, in place. A hit slice
        // keeps its bookkeeping entry as-is — its touched functions are
        // unchanged by construction, so re-deriving the summaries would
        // walk the same instructions to the same answer; only recomputed
        // slices are (re)summarized. Mapped names are distinct, so the map
        // holds more entries than there are parameters exactly when some
        // parameter is no longer mapped.
        let (anns, mut slices) = match old {
            Some(state) => (state.anns, state.slices),
            None => (anns.to_vec(), HashMap::new()),
        };
        let recomputed_slices = params.iter().zip(&taints).zip(&slice_hit);
        for ((p, t), _) in recomputed_slices.filter(|(_, hit)| !**hit) {
            slices.insert(p.name.clone(), cache_slice(&am, &p.roots, t));
        }
        if slices.len() > params.len() {
            let mapped: HashSet<&str> = params.iter().map(|p| p.name.as_str()).collect();
            slices.retain(|name, _| mapped.contains(name.as_str()));
        }
        cache.state = Some(CacheState {
            am: Arc::clone(&am),
            anns,
            mapping: Arc::clone(&params),
            summaries: Arc::clone(&summaries),
            slices,
        });

        // First pass group: the three per-parameter passes plus evidence
        // collection are embarrassingly parallel — each job reads the
        // shared `AnalyzedModule` and its own slice, nothing else. Results
        // land by index, so the report order (and therefore every
        // downstream serialization) is byte-identical to the serial run.
        let live_total = in_scope.iter().filter(|&&live| live).count();
        let infer_one = |i: usize| -> ParamReport {
            let param = params[i].clone();
            let taint = Arc::clone(&taints[i]);
            if !in_scope[i] {
                return ParamReport {
                    param,
                    taint,
                    constraints: Vec::new(),
                    evidence: Evidence::default(),
                    stale: true,
                };
            }
            let _param_span = spex_obs::span!("infer.param", name = param.name);
            let mut constraints = Vec::new();
            {
                let _span = spex_obs::span("infer.basic_type");
                constraints.extend(basic_type::infer(&am, &summaries, &param, &taint));
            }
            {
                let _span = spex_obs::span("infer.semantic_type");
                constraints.extend(semantic_type::infer(&am, &summaries, &spec, &param, &taint));
            }
            {
                let _span = spex_obs::span("infer.range");
                constraints.extend(range::infer(&am, &summaries, &param, &taint));
            }
            let evidence = evidence::collect(&am, &param, &taint);
            ParamReport {
                param,
                taint,
                constraints,
                evidence,
                stale: false,
            }
        };
        let mut reports: Vec<ParamReport> = if live_total > 1 {
            // Hand the caller's recorder across the pool boundary so worker
            // spans and counters land in the same sink (thread-locals do
            // not cross `spawn`); `None` stays silent on every path.
            let recorder = spex_obs::current_recorder();
            spex_pool::run_indexed(threads, params.len(), recorder.as_ref(), infer_one)
        } else {
            (0..params.len()).map(infer_one).collect()
        };
        // Pass counters derive from the live set, not loop order — the
        // exact tallies the serial loop would have accumulated.
        passes.basic_type += live_total;
        passes.semantic_type += live_total;
        passes.range += live_total;

        // Second pass: multi-parameter constraints over the slices. These
        // scan branch sites once for the whole module; constraints are
        // attributed to the dependent / left-hand parameter, and under a
        // scope only in-scope parameters receive fresh attributions.
        if in_scope.iter().any(|live| *live) {
            // Reverse index: tainted value -> parameter indices.
            let vindex = build_value_index(&taints);
            let names: Vec<String> = reports.iter().map(|r| r.param.name.clone()).collect();
            passes.control_dep += 1;
            let cd_span = spex_obs::span("infer.control_dep");
            let deps = control_dep::infer(&am, &summaries, &names, &taints, &vindex);
            drop(cd_span);
            for c in deps {
                if let crate::constraint::ConstraintKind::ControlDep(d) = &c.kind {
                    if let Some(r) = reports
                        .iter_mut()
                        .find(|r| r.param.name == d.dependent && !r.stale)
                    {
                        r.constraints.push(c);
                    }
                }
            }
            passes.value_rel += 1;
            let vr_span = spex_obs::span("infer.value_rel");
            let rels = value_rel::infer(&am, &summaries, &names, &vindex);
            drop(vr_span);
            for c in rels {
                if let crate::constraint::ConstraintKind::ValueRel(v) = &c.kind {
                    if let Some(r) = reports
                        .iter_mut()
                        .find(|r| r.param.name == v.lhs && !r.stale)
                    {
                        r.constraints.push(c);
                    }
                }
            }
        }

        passes.record_metrics();
        SpexAnalysis {
            am,
            reports,
            summaries,
            passes,
        }
    }
}

/// The functions outside an edit whose input to the parameter passes a
/// recomputed artifact changed (part 4 of the parameter-scope rule in
/// `docs/analysis.md`, applied before the callee closures):
///
/// * every function whose recomputed summary differs from the cached one;
/// * every caller, in the old or the new call graph, of a function whose
///   never-returns flag or return transfer changed: callers read both at
///   the call site, where an arm calling it starts or stops exiting, and
///   a branch on a predicate helper's verdict guards parameters whose
///   slices never enter the helper;
/// * every function where a recomputed slice's tainted values differ from
///   the cached slice's, since the multi-parameter passes read every
///   parameter's slice. A parameter mapped only before, or only now,
///   counts with its whole slice.
///
/// The cached generation's functions are a prefix of `am`'s (the cache is
/// dropped otherwise), so an id names the same function in both.
fn changed_by_recomputation(
    state: &CacheState,
    am: &AnalyzedModule,
    summaries: &ModuleSummaries,
    recomputed: &[bool],
    params: &[MappedParam],
    taints: &[Arc<TaintResult>],
    slice_hit: &[bool],
) -> BTreeSet<String> {
    let mut changed: HashSet<FuncId> = HashSet::new();
    for (i, _) in recomputed.iter().enumerate().filter(|(_, ran)| **ran) {
        let f = FuncId(i as u32);
        let now = summaries.get(f);
        let was = (i < state.summaries.len()).then(|| state.summaries.get(f));
        if was == Some(now) {
            continue;
        }
        changed.insert(f);
        if was.is_some_and(|was| was.never_returns != now.never_returns || was.ret != now.ret) {
            for graph in [&state.am.callgraph, &am.callgraph] {
                let sites = graph.callers_of.get(&f).into_iter().flatten();
                changed.extend(sites.map(|site| site.caller));
            }
        }
    }
    let all_reused = slice_hit.iter().all(|&hit| hit);
    if !(all_reused && state.slices.len() == params.len()) {
        let empty = TaintResult::default();
        let mut differ = |was: &TaintResult, now: &TaintResult| {
            for (a, b) in [(was, now), (now, was)] {
                let only_in_a = a.values.keys().filter(|key| !b.values.contains_key(key));
                changed.extend(only_in_a.map(|(f, _)| *f));
            }
        };
        let recomputed_slices = params.iter().zip(taints).zip(slice_hit);
        for ((p, now), _) in recomputed_slices.filter(|(_, hit)| !**hit) {
            differ(state.slices.get(&p.name).map_or(&empty, |c| &c.taint), now);
        }
        let mapped: HashSet<&str> = params.iter().map(|p| p.name.as_str()).collect();
        for (param, cached) in &state.slices {
            if !mapped.contains(param.as_str()) {
                differ(&cached.taint, &empty);
            }
        }
    }
    changed
        .into_iter()
        .map(|f| am.module.func(f).name.clone())
        .collect()
}

/// Closes a set of dirty function names over the call graph: the names of
/// the dirty functions `am` has plus every transitive *callee* of one.
/// Editing a caller can change the guards its callees inherit (the
/// control-dependency pass propagates branch conditions caller → callee),
/// so a parameter used only inside a callee still needs re-inference when
/// the caller changes.
fn expand_dirty_functions(am: &AnalyzedModule, names: &BTreeSet<String>) -> BTreeSet<String> {
    let mut dirty: HashSet<FuncId> = am
        .module
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| names.contains(&f.name))
        .map(|(i, _)| FuncId(i as u32))
        .collect();
    let mut work: Vec<FuncId> = dirty.iter().copied().collect();
    while let Some(f) = work.pop() {
        for callee in &am.callgraph.callees[f.index()] {
            if dirty.insert(*callee) {
                work.push(*callee);
            }
        }
    }
    dirty
        .into_iter()
        .map(|f| am.module.func(f).name.clone())
        .collect()
}

/// Maps every tainted SSA value to the parameters whose flow reaches it.
pub(crate) fn build_value_index(
    taints: &[Arc<TaintResult>],
) -> HashMap<(FuncId, ValueId), Vec<usize>> {
    let mut index: HashMap<(FuncId, ValueId), Vec<usize>> = HashMap::new();
    for (pi, t) in taints.iter().enumerate() {
        for key in t.values.keys() {
            index.entry(*key).or_default().push(pi);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintKind;

    fn lower(src: &str) -> Module {
        spex_ir::lower_program(&spex_lang::parse_program(src).unwrap()).unwrap()
    }

    fn analyze(src: &str, ann: &str) -> SpexAnalysis {
        Spex::analyze(lower(src), &Annotation::parse(ann).unwrap())
    }

    const ANN: &str = "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }";

    /// `commit_siblings` is used only in `flush`, which inherits the
    /// `fsync` guard from its caller `main_loop`.
    const GUARDED: &str = r#"
        int fsync_on = 1;
        int commit_siblings = 5;
        struct opt { char* name; int* var; };
        struct opt options[] = {
            { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings }
        };
        void flush() {
            if (commit_siblings > 0) { sleep(commit_siblings); }
        }
        void main_loop() {
            if (fsync_on) { flush(); }
        }
    "#;

    /// Analyzes `before` into a fresh cache, then `after` warm with
    /// `dirty`, both at `threads`; returns both analyses.
    fn reanalyze(
        before: &str,
        after: &str,
        dirty: Option<&BTreeSet<String>>,
        threads: usize,
    ) -> (SpexAnalysis, SpexAnalysis) {
        let anns = Annotation::parse(ANN).unwrap();
        let mut cache = PassCache::default();
        let mut run = |src: &str, dirty| {
            let incremental = Incremental {
                cache: &mut cache,
                dirty,
                threads,
            };
            Spex::analyze_scoped(&lower(src), &anns, ApiSpec::standard(), Some(incremental))
        };
        let cold = run(before, None);
        assert!(cold.reports.iter().all(|r| !r.stale));
        (cold, run(after, dirty))
    }

    /// The counts of a warm run over [`GUARDED`]'s two parameters that
    /// re-infers `inferred` of them, with `[runs, hits]` of taint slices
    /// and summaries.
    fn counts(inferred: usize, mapped: bool, taint: [usize; 2], summary: [usize; 2]) -> PassCounts {
        PassCounts {
            basic_type: inferred,
            semantic_type: inferred,
            range: inferred,
            control_dep: 1,
            value_rel: 1,
            mapping_extractions: usize::from(!mapped),
            mapping_cache_hits: usize::from(mapped),
            taint_runs: taint[0],
            taint_cache_hits: taint[1],
            summary_runs: summary[0],
            summary_cache_hits: summary[1],
            ..PassCounts::default()
        }
    }

    #[test]
    fn scope_rule_reinfers_exactly_what_an_edit_can_change() {
        // The guarding caller edited: the guard goes, or the call does.
        let unguarded = GUARDED.replace("if (fsync_on) { flush(); }", "flush();");
        let removed = GUARDED.replace("{ flush(); }", "{ exit(0); }");
        // The call routed through a relay, so an edit to `main_loop` opens
        // no channel into `commit_siblings`' slice, and the slice stays
        // cached: only the call edges reach it.
        let relayed = |src: &str| {
            src.replace("flush();", "sync_all();").replace(
                "void main_loop()",
                "void sync_all() { flush(); }\n        void main_loop()",
            )
        };
        let (relay_guarded, relay_unguarded, relay_removed) =
            (relayed(GUARDED), relayed(&unguarded), relayed(&removed));
        let flush_edited = GUARDED.replace("commit_siblings > 0", "commit_siblings > 8");
        let guarded = GUARDED.to_string();
        let names = |n: &str| -> BTreeSet<String> { [n.to_string()].into() };
        let (main_loop, flush) = (names("main_loop"), names("flush"));
        let edit = Some(&main_loop);
        let cases = [
            // The edited caller calls into `commit_siblings`' slice, so
            // both slices are recomputed.
            (&guarded, &unguarded, edit, counts(2, true, [2, 0], [1, 1])),
            (&guarded, &removed, edit, counts(2, true, [2, 0], [1, 1])),
            // The new call edges reach the cached slice once the guard
            // goes or the call comes, the old ones once the call goes.
            (
                &relay_guarded,
                &relay_unguarded,
                edit,
                counts(2, true, [1, 1], [1, 2]),
            ),
            (
                &relay_guarded,
                &relay_removed,
                edit,
                counts(2, true, [1, 1], [1, 2]),
            ),
            (
                &relay_removed,
                &relay_guarded,
                edit,
                counts(2, true, [1, 1], [1, 2]),
            ),
            // Editing the callee leaves `fsync`, guarded in the caller,
            // stale.
            (
                &guarded,
                &flush_edited,
                Some(&flush),
                counts(1, true, [1, 1], [2, 0]),
            ),
            // Told nothing, a warm cache recomputes everything.
            (&guarded, &unguarded, None, counts(2, false, [2, 0], [2, 0])),
        ];
        for threads in [1, 4] {
            for (before, after, dirty, passes) in &cases {
                let (prev, warm) = reanalyze(before, after, *dirty, threads);
                let context = format!("{dirty:?} at {threads} threads:{after}");
                assert_eq!(warm.passes, *passes, "{context}");
                let stale: Vec<bool> = warm.reports.iter().map(|r| r.stale).collect();
                assert_eq!(stale, [passes.basic_type == 1, false], "{context}");
                // Every re-inferred report equals a cold analysis's, and a
                // stale one's constraints, kept from `before`, do too.
                let cold = analyze(after, ANN);
                for ((w, c), p) in warm.reports.iter().zip(&cold.reports).zip(&prev.reports) {
                    assert_eq!(w.param.name, c.param.name);
                    if w.stale {
                        assert_eq!(p.param.name, c.param.name);
                        assert_eq!(p.constraints, c.constraints, "{context}");
                    } else {
                        assert_eq!(w.constraints, c.constraints, "{context}");
                        assert_eq!(format!("{:?}", w.evidence), format!("{:?}", c.evidence));
                    }
                }
            }
        }
    }

    /// The cache keeps one merged mapping: an edit no mapping reads keeps
    /// its allocation, and an edit to the parser extracts a new one.
    #[test]
    fn the_cached_mapping_is_kept_until_an_edit_it_reads() {
        const PARSED: &str = r#"
            int fsync_on = 1;
            int nap = 0;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "fsync", &fsync_on } };
            int handle_config(char* name, char* value) {
                if (strcmp(name, "nap") == 0) { nap = atoi(value); return 1; }
                return 0;
            }
            void main_loop() { if (fsync_on) { sleep(nap); } }
        "#;
        let anns = Annotation::parse(&format!(
            "{ANN}\n{{ @PARSER = handle_config\n @PAR = $name\n @VAR = $value }}"
        ))
        .unwrap();
        let mut cache = PassCache::default();
        let mut run = |src: &str, dirty: &str| {
            let dirty: BTreeSet<String> = [dirty.to_string()].into();
            let incremental = Incremental {
                cache: &mut cache,
                dirty: Some(&dirty),
                threads: 1,
            };
            let a =
                Spex::analyze_scoped(&lower(src), &anns, ApiSpec::standard(), Some(incremental));
            let p = a.passes;
            let mapping = Arc::clone(&cache.state.as_ref().unwrap().mapping);
            ([p.mapping_extractions, p.mapping_cache_hits], mapping)
        };
        let (cold, mapping) = run(PARSED, "");
        assert_eq!(cold, [1, 0]);
        let names: Vec<&str> = mapping.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["fsync", "nap"]);

        let unread = PARSED.replace("sleep(nap)", "sleep(nap + 1)");
        let (warm, kept) = run(&unread, "main_loop");
        assert_eq!(warm, [0, 1]);
        assert!(Arc::ptr_eq(&mapping, &kept), "an unread edit keeps it");

        let (warm, extracted) = run(&unread.replace("return 1", "return 2"), "handle_config");
        assert_eq!(warm, [1, 0]);
        assert!(
            !Arc::ptr_eq(&kept, &extracted),
            "a parser edit extracts anew"
        );
        let again: Vec<&str> = extracted.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(again, names);
    }

    #[test]
    fn end_to_end_single_param() {
        let a = analyze(
            r#"
            int listener_threads = 16;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "listener-threads", &listener_threads } };
            void startup() {
                if (listener_threads > 16) { exit(1); }
                listen(0, listener_threads);
            }
            "#,
            "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
        );
        let r = a.param("listener-threads").unwrap();
        let cats: Vec<&str> = r.constraints.iter().map(|c| c.kind.category()).collect();
        assert!(cats.contains(&"basic-type"), "got {cats:?}");
        assert!(cats.contains(&"data-range"), "got {cats:?}");
    }

    #[test]
    fn counts_by_category_accumulate() {
        let a = analyze(
            r#"
            int t1 = 1;
            int t2 = 2;
            struct opt { char* name; int* var; };
            struct opt options[] = { { "a", &t1 }, { "b", &t2 } };
            void use() { sleep(t1); sleep(t2); }
            "#,
            "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
        );
        let counts = a.counts_by_category();
        assert_eq!(counts.get("basic-type"), Some(&2));
        assert_eq!(counts.get("semantic-type"), Some(&2));
    }

    #[test]
    fn control_dependency_attributed_to_dependent() {
        // PostgreSQL fsync/commit_siblings pattern (Figure 3e).
        let a = analyze(
            r#"
            int fsync_on = 1;
            int commit_siblings = 5;
            struct opt { char* name; int* var; };
            struct opt options[] = {
                { "fsync", &fsync_on }, { "commit_siblings", &commit_siblings }
            };
            void commit() {
                if (fsync_on) {
                    int n = commit_siblings;
                    if (n > 0) { sleep(n); }
                }
            }
            "#,
            "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
        );
        let r = a.param("commit_siblings").unwrap();
        let dep = r.constraints.iter().find_map(|c| match &c.kind {
            ConstraintKind::ControlDep(d) => Some(d),
            _ => None,
        });
        let dep = dep.expect("control dependency inferred");
        assert_eq!(dep.controller, "fsync");
        assert!(dep.confidence >= 0.75);
    }

    #[test]
    fn control_dependency_sits_at_its_earliest_guarded_use() {
        // `commit_siblings` has two uses under the inherited guard: the
        // comparison (line 9, column 33) and the `sleep` call after it.
        for _ in 0..8 {
            let a = analyze(GUARDED, ANN);
            let spans: Vec<_> = a
                .all_constraints()
                .filter(|c| matches!(c.kind, ConstraintKind::ControlDep(_)))
                .map(|c| c.span)
                .collect();
            assert_eq!(spans, [spex_lang::Span::new(9, 33)]);
        }
    }

    #[test]
    fn value_relationship_via_intermediate() {
        // MySQL ft_min/ft_max pattern (Figure 3f).
        let a = analyze(
            r#"
            int ft_min_word_len = 4;
            int ft_max_word_len = 84;
            struct opt { char* name; int* var; };
            struct opt options[] = {
                { "ft_min_word_len", &ft_min_word_len },
                { "ft_max_word_len", &ft_max_word_len }
            };
            void ft_get_word(int length) {
                if (length >= ft_min_word_len && length < ft_max_word_len) {
                    listen(0, length);
                }
            }
            "#,
            "{ @STRUCT = options\n @PAR = [opt, 1]\n @VAR = [opt, 2] }",
        );
        let rel = a.all_constraints().find_map(|c| match &c.kind {
            ConstraintKind::ValueRel(v) => Some(v.clone()),
            _ => None,
        });
        let rel = rel.expect("value relationship inferred");
        // min < max, possibly reported from either side.
        let readable = format!("{rel}");
        assert!(
            readable.contains("ft_min_word_len") && readable.contains("ft_max_word_len"),
            "got {readable}"
        );
    }

    #[test]
    fn pass_count_table_pairs_each_cached_artifact_and_sums_every_field() {
        let fields = PassCounts::FIELDS;
        let names: BTreeSet<&str> = fields.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), fields.len(), "field names are unique");
        for (i, f) in fields.iter().enumerate() {
            match f.kind {
                CountKind::Pass => assert!(f.metric.starts_with("infer.pass."), "{f:?}"),
                CountKind::Runs => {
                    let hits = fields.get(i + 1).expect("a Runs row has a Hits row");
                    assert_eq!((hits.kind, hits.label), (CountKind::Hits, f.label));
                }
                CountKind::Hits => assert_eq!(fields[i - 1].kind, CountKind::Runs, "{f:?}"),
            }
        }

        let mut ones = PassCounts::default();
        ones.values_mut().for_each(|v| *v = 1);
        let mut sum = ones;
        sum.accumulate(&ones);
        assert!(sum.entries().all(|(_, v)| v == 2), "{sum:?}");
        assert_eq!(sum.entries().count(), fields.len());
    }
}
