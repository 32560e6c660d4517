//! Inter-procedural, context-aware, field-sensitive data-flow engine.
//!
//! This crate is the analysis substrate of the SPEX reproduction. The paper
//! (§2.2) requires tracking "the data-flow of each program variable
//! corresponding to the configuration parameter" across function calls
//! (inter-procedural), through composite data types (field-sensitive), and
//! separately per parameter (which gives per-parameter "program slices" for
//! the second inference pass).
//!
//! Deliberately, and faithfully to the paper (§4.3), the engine performs
//! **no pointer-alias analysis**: taint does not flow through loads or
//! stores whose target is an unknown pointer. The paper attributes its ~10%
//! inference inaccuracy (worst in OpenLDAP) to exactly this.
//!
//! # Examples
//!
//! ```
//! use spex_dataflow::{AnalyzedModule, TaintEngine, TaintRoot};
//!
//! let program = spex_lang::parse_program(
//!     "int max_threads = 16;
//!      void startup() { int n = max_threads; if (n > 64) { exit(1); } }",
//! )
//! .unwrap();
//! let module = spex_ir::lower_program(&program).unwrap();
//! let analyzed = AnalyzedModule::build(module);
//! let g = analyzed.module.global_by_name("max_threads").unwrap();
//! let result = TaintEngine::new(&analyzed).run(&[TaintRoot::global(g)]);
//! // The comparison `n > 64` is reached by the parameter's data flow.
//! assert!(!result.values.is_empty());
//! ```

pub mod callgraph;
pub mod memloc;
pub mod scc;
pub mod summary;
pub mod taint;
pub mod usedef;

pub use callgraph::CallGraph;
pub use memloc::{AccessElem, MemLoc};
pub use scc::Condensation;
pub use summary::{
    CheckSummary, FunctionSummary, ModuleSummaries, ReturnTransfer, SummaryBehavior, SummaryStats,
};
pub use taint::{TaintEngine, TaintResult, TaintRoot};
pub use usedef::{UseDefs, UseSite};

use spex_ir::cfg::Cfg;
use spex_ir::dom::DomTree;
use spex_ir::{promote_to_ssa, Function, Module};
use std::sync::Arc;

/// A module prepared for analysis: every function promoted to SSA, with CFG,
/// dominator and use-def information precomputed and shared by all passes.
///
/// The per-function artifacts are `Arc`-shared so an incremental
/// [`rebuild`](AnalyzedModule::rebuild) can carry the state of unchanged
/// functions from one analysis generation to the next with a reference-count
/// bump instead of a recomputation.
pub struct AnalyzedModule {
    /// The module with all function bodies in SSA form.
    pub module: Arc<Module>,
    /// CFG per function (indexed by function id).
    pub cfgs: Vec<Arc<Cfg>>,
    /// Dominator tree per function.
    pub doms: Vec<Arc<DomTree>>,
    /// Use-def chains per function.
    pub usedefs: Vec<Arc<UseDefs>>,
    /// Call graph over the whole module.
    pub callgraph: CallGraph,
}

/// SSA promotion plus the per-function analysis artifacts for one function.
/// An already-SSA body is shared as-is (refcount bump, no copy).
fn prepare_function(f: &Arc<Function>) -> (Arc<Function>, Arc<Cfg>, Arc<DomTree>, Arc<UseDefs>) {
    let ssa = if f.is_ssa {
        Arc::clone(f)
    } else {
        Arc::new(promote_to_ssa(f))
    };
    let cfg = Cfg::build(&ssa);
    let dom = DomTree::build(&ssa, &cfg);
    let ud = UseDefs::build(&ssa);
    (ssa, Arc::new(cfg), Arc::new(dom), Arc::new(ud))
}

impl AnalyzedModule {
    /// Promotes every function to SSA and precomputes the analysis state.
    pub fn build(module: Module) -> AnalyzedModule {
        AnalyzedModule::build_ref(&module)
    }

    /// Like [`build`](AnalyzedModule::build), but from a borrowed module:
    /// function bodies are promoted straight off the reference (SSA
    /// promotion copies per function anyway), so the caller's module is
    /// never deep-cloned as a whole.
    pub fn build_ref(module: &Module) -> AnalyzedModule {
        AnalyzedModule::rebuild_inner(None, module, &|_| true)
    }

    /// Incrementally rebuilds the analysis state for a new module
    /// generation, reusing the SSA body, CFG, dominator tree and use-def
    /// chains of every function for which `dirty(name)` is false.
    ///
    /// The caller guarantees that this reuse is sound: every function that
    /// is not dirty lowers to the same IR (it names every function whose
    /// item key changed), and every id such a function embeds still
    /// resolves to the same entity. That is, the previous function table is
    /// a prefix of the new one (same names in the same order, additions
    /// only at the end), so every [`spex_ir::FuncId`] is stable; and the
    /// globals, structs and enum constants are unchanged, so every
    /// [`spex_ir::GlobalId`] is. The core checks the ids before it calls
    /// this (`ids_stable`); debug builds assert the function prefix again.
    ///
    /// The call graph is always rebuilt — it is whole-module and cheap
    /// relative to SSA promotion.
    pub fn rebuild(
        prev: &AnalyzedModule,
        module: &Module,
        dirty: &dyn Fn(&str) -> bool,
    ) -> AnalyzedModule {
        let (old, new) = (&prev.module.functions, &module.functions);
        debug_assert!(
            (old.iter().map(|f| &f.name)).eq(new.iter().take(old.len()).map(|f| &f.name)),
            "the previous function table must be a prefix of the new one"
        );
        AnalyzedModule::rebuild_inner(Some(prev), module, dirty)
    }

    fn rebuild_inner(
        prev: Option<&AnalyzedModule>,
        module: &Module,
        dirty: &dyn Fn(&str) -> bool,
    ) -> AnalyzedModule {
        let _span = spex_obs::span("dataflow.prepare");
        let mut functions = Vec::with_capacity(module.functions.len());
        let mut cfgs = Vec::with_capacity(module.functions.len());
        let mut doms = Vec::with_capacity(module.functions.len());
        let mut usedefs = Vec::with_capacity(module.functions.len());
        for (i, f) in module.functions.iter().enumerate() {
            match prev {
                Some(p) if i < p.module.functions.len() && !dirty(&f.name) => {
                    functions.push(Arc::clone(&p.module.functions[i]));
                    cfgs.push(Arc::clone(&p.cfgs[i]));
                    doms.push(Arc::clone(&p.doms[i]));
                    usedefs.push(Arc::clone(&p.usedefs[i]));
                }
                _ => {
                    let (ssa, cfg, dom, ud) = prepare_function(f);
                    functions.push(ssa);
                    cfgs.push(cfg);
                    doms.push(dom);
                    usedefs.push(ud);
                }
            }
        }
        let module = Module::from_parts(
            module.structs.clone(),
            module.globals.clone(),
            functions,
            module.enum_consts.clone(),
        );
        let callgraph = CallGraph::build(&module);
        AnalyzedModule {
            module: Arc::new(module),
            cfgs,
            doms,
            usedefs,
            callgraph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyzed_module_promotes_all_functions() {
        let p = spex_lang::parse_program(
            "int a = 1; int f(int x) { return x + a; } int g() { return f(2); }",
        )
        .unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let am = AnalyzedModule::build(m);
        assert!(am.module.functions.iter().all(|f| f.is_ssa));
        assert_eq!(am.cfgs.len(), 2);
        assert_eq!(am.usedefs.len(), 2);
    }
}
