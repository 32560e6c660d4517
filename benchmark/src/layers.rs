//! The decomposition step of the traced run: `Spex::analyze`'s stages
//! cannot be wrapped from outside, so each module's analysis is replayed
//! as the public stage calls, each inside its own span, and compared with
//! a direct `Spex::analyze_scoped` of the same module.

use std::collections::HashMap;
use std::sync::Arc;

use spex::core::apispec::ApiSpec;
use spex::core::infer::{basic_type, control_dep, evidence, range, semantic_type, value_rel};
use spex::core::mapping::extract_mappings;
use spex::core::{Annotation, ParamReport, Spex};
use spex::dataflow::{AnalyzedModule, ModuleSummaries, TaintEngine, TaintResult};
use spex::ir::{FuncId, ValueId};

use crate::inputs::Space;
use crate::trace::Tracer;

/// Counts taken at the stage boundaries of the replay.
#[derive(Default)]
pub struct Replay {
    pub instrs: usize,
    pub slice_values: usize,
    pub params: usize,
    pub constraints: usize,
    /// Modules whose replayed constraints differ from the direct analysis.
    pub mismatches: usize,
}

/// The stage spans whose sum the direct analysis is compared against.
pub const STAGES: [&str; 10] = [
    "dataflow.prepare",
    "core.mapping",
    "dataflow.summary",
    "dataflow.taint",
    "core.basic_type",
    "core.semantic_type",
    "core.range",
    "core.evidence",
    "core.control_dep",
    "core.value_rel",
];

/// Replays every module of `spaces` stage by stage under `tracer`.
pub fn replay(spaces: &[Space], tracer: &Tracer) -> Replay {
    let mut out = Replay::default();
    for unit in spaces.iter().flat_map(|s| &s.units) {
        let program = tracer
            .span("lang.parse", || spex::lang::parse_program(&unit.source))
            .expect("generated source parses");
        let module = tracer
            .span("ir.lower", || spex::ir::lower_program(&program))
            .expect("generated source lowers");
        out.instrs += module
            .functions
            .iter()
            .map(|f| f.iter_instrs().count())
            .sum::<usize>();
        let anns = Annotation::parse(&unit.annotations).expect("generated annotations parse");

        let am = tracer.span("dataflow.prepare", || AnalyzedModule::build_ref(&module));
        let params = tracer
            .span("core.mapping", || extract_mappings(&am, &anns))
            .unwrap_or_default();
        let (summaries, _) = tracer.span("dataflow.summary", || ModuleSummaries::compute(&am));
        let engine = tracer.span("dataflow.taint", || TaintEngine::new(&am));
        let taints: Vec<Arc<TaintResult>> = params
            .iter()
            .map(|p| Arc::new(tracer.span("dataflow.taint", || engine.run(&p.roots))))
            .collect();
        out.slice_values += taints.iter().map(|t| t.values.len()).sum::<usize>();
        // The value index control_dep and value_rel consume, built from
        // `TaintResult::values` as the core builds it.
        let mut vindex: HashMap<(FuncId, ValueId), Vec<usize>> = HashMap::new();
        for (i, t) in taints.iter().enumerate() {
            for key in t.values.keys() {
                vindex.entry(*key).or_default().push(i);
            }
        }

        let spec = ApiSpec::standard();
        let mut reports: Vec<ParamReport> = params
            .iter()
            .zip(&taints)
            .map(|(param, taint)| {
                let mut constraints = Vec::new();
                constraints.extend(tracer.span("core.basic_type", || {
                    basic_type::infer(&am, &summaries, param, taint)
                }));
                constraints.extend(tracer.span("core.semantic_type", || {
                    semantic_type::infer(&am, &summaries, &spec, param, taint)
                }));
                constraints.extend(
                    tracer.span("core.range", || range::infer(&am, &summaries, param, taint)),
                );
                let evidence =
                    tracer.span("core.evidence", || evidence::collect(&am, param, taint));
                ParamReport {
                    param: param.clone(),
                    taint: Arc::clone(taint),
                    constraints,
                    evidence,
                    stale: false,
                }
            })
            .collect();
        if !reports.is_empty() {
            let names: Vec<String> = params.iter().map(|p| p.name.clone()).collect();
            let deps = tracer.span("core.control_dep", || {
                control_dep::infer(&am, &summaries, &names, &taints, &vindex)
            });
            let rels = tracer.span("core.value_rel", || {
                value_rel::infer(&am, &summaries, &names, &vindex)
            });
            for c in deps.into_iter().chain(rels) {
                let owner = match &c.kind {
                    spex::core::ConstraintKind::ControlDep(d) => &d.dependent,
                    spex::core::ConstraintKind::ValueRel(v) => &v.lhs,
                    _ => continue,
                };
                if let Some(r) = reports.iter_mut().find(|r| &r.param.name == owner) {
                    r.constraints.push(c);
                }
            }
        }
        for r in &reports {
            tracer.span("react.classify", || {
                spex::react::classify_with_summaries(&am, &summaries, r)
            });
        }
        out.params += reports.len();
        out.constraints += reports.iter().map(|r| r.constraints.len()).sum::<usize>();

        let direct = tracer.span("core.analyze", || {
            Spex::analyze_scoped(&module, &anns, ApiSpec::standard(), None)
        });
        let same = direct.reports.len() == reports.len()
            && direct
                .reports
                .iter()
                .zip(&reports)
                .all(|(d, r)| d.param.name == r.param.name && d.constraints == r.constraints);
        if !same {
            out.mismatches += 1;
        }
    }
    out
}
