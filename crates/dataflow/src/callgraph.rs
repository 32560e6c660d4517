//! Call graph construction, including address-taken function discovery for
//! calls through function-pointer tables.
//!
//! [`CallGraph::build`] is the one instruction walk that finds call edges.
//! It records them in both directions, plus each function's indirect-call
//! arities, so the condensation, the warm scope rule and the slice cache
//! read them here instead of walking the instructions again.

use spex_ir::{Callee, ConstVal, FuncId, Instr, Module};
use std::collections::{HashMap, HashSet};

/// One call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallSite {
    /// Caller function.
    pub caller: FuncId,
    /// Block within the caller.
    pub block: spex_ir::BlockId,
    /// Instruction index within the block.
    pub index: usize,
}

/// Module-level call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Direct call sites per callee.
    pub callers_of: HashMap<FuncId, Vec<CallSite>>,
    /// Direct callees of each function (indexed by caller id),
    /// deduplicated, in first-appearance order.
    pub callees: Vec<Vec<FuncId>>,
    /// Argument counts of each function's indirect calls (indexed by
    /// caller id), deduplicated, in first-appearance order.
    pub indirect_arities: Vec<Vec<usize>>,
    /// Functions whose address is taken somewhere (possible indirect-call
    /// targets), with their parameter count.
    pub address_taken: Vec<(FuncId, usize)>,
}

impl CallGraph {
    /// Builds the call graph for a module.
    pub fn build(m: &Module) -> CallGraph {
        let n = m.functions.len();
        let mut callers_of: HashMap<FuncId, Vec<CallSite>> = HashMap::new();
        let mut callees: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut indirect_arities: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut address_taken: HashSet<FuncId> = HashSet::new();

        // FuncRef constants in global initializers (handler tables).
        for g in &m.globals {
            collect_funcrefs(&g.init, &mut address_taken);
        }

        for (fi, f) in m.functions.iter().enumerate() {
            let caller = FuncId(fi as u32);
            for (b, i, instr, _) in f.iter_instrs() {
                match instr {
                    Instr::Call {
                        callee: Callee::Func(target),
                        ..
                    } => {
                        callers_of.entry(*target).or_default().push(CallSite {
                            caller,
                            block: b,
                            index: i,
                        });
                        if !callees[fi].contains(target) {
                            callees[fi].push(*target);
                        }
                    }
                    Instr::Call {
                        callee: Callee::Indirect(_),
                        args,
                        ..
                    } if !indirect_arities[fi].contains(&args.len()) => {
                        indirect_arities[fi].push(args.len());
                    }
                    Instr::Const {
                        val: ConstVal::FuncRef(target),
                        ..
                    } => {
                        address_taken.insert(*target);
                    }
                    _ => {}
                }
            }
        }

        let address_taken = address_taken
            .into_iter()
            .map(|f| (f, m.functions[f.index()].params.len()))
            .collect();
        CallGraph {
            callers_of,
            callees,
            indirect_arities,
            address_taken,
        }
    }

    /// Possible targets of an indirect call with `arity` arguments:
    /// address-taken functions whose parameter count matches.
    pub fn indirect_targets(&self, arity: usize) -> Vec<FuncId> {
        self.address_taken
            .iter()
            .filter(|(_, n)| *n == arity)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Direct call sites of a function.
    pub fn callers(&self, f: FuncId) -> &[CallSite] {
        self.callers_of.get(&f).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

fn collect_funcrefs(c: &ConstVal, out: &mut HashSet<FuncId>) {
    match c {
        ConstVal::FuncRef(f) => {
            out.insert(*f);
        }
        ConstVal::Aggregate(items) => {
            for i in items {
                collect_funcrefs(i, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> (Module, CallGraph) {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let cg = CallGraph::build(&m);
        (m, cg)
    }

    #[test]
    fn records_direct_callers() {
        let (m, cg) = build(
            "int helper(int x) { return x; }
             int a() { return helper(1); }
             int b() { return helper(2) + helper(3); }",
        );
        let helper = m.function_by_name("helper").unwrap();
        assert_eq!(cg.callers(helper).len(), 3);
        let b = m.function_by_name("b").unwrap();
        assert_eq!(cg.callees[b.index()], vec![helper]);
        assert!(cg.callees[helper.index()].is_empty());
    }

    #[test]
    fn finds_address_taken_in_tables() {
        let (m, cg) = build(
            r#"
            struct cmd { char* name; fnptr handler; };
            int set_root(char* v) { return 0; }
            int set_port(char* v) { return 0; }
            struct cmd cmds[] = { { "Root", set_root }, { "Port", set_port } };
            "#,
        );
        let root = m.function_by_name("set_root").unwrap();
        let port = m.function_by_name("set_port").unwrap();
        let targets = cg.indirect_targets(1);
        assert!(targets.contains(&root));
        assert!(targets.contains(&port));
    }

    #[test]
    fn arity_filtering_of_indirect_targets() {
        let (_, cg) = build(
            r#"
            int one(char* v) { return 0; }
            int two(char* a, char* b) { return 0; }
            fnptr p1 = one;
            fnptr p2 = two;
            "#,
        );
        assert_eq!(cg.indirect_targets(1).len(), 1);
        assert_eq!(cg.indirect_targets(2).len(), 1);
        assert_eq!(cg.indirect_targets(3).len(), 0);
    }
}
