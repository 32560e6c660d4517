//! Per-parameter taint propagation.
//!
//! For each configuration parameter, SPEX tracks the data flow of the
//! program variable(s) holding the parameter's value and records every
//! instruction that value reaches (§2.2). This module implements that
//! propagation as a breadth-first worklist over SSA values and abstract
//! memory locations:
//!
//! * value → value through arithmetic, casts, comparisons and phis;
//! * value → memory through plain stores (field-sensitive);
//! * memory → value through loads of may-aliasing locations;
//! * value → value across calls (arguments into parameters, returns back to
//!   call sites), including indirect calls through function-pointer tables;
//! * through known library calls that derive their result from an argument
//!   (`atoi`, `strtol`, `strdup`, `htons`, ...), including `sscanf`-style
//!   out-parameters.
//!
//! No pointer-alias analysis is performed (matching §4.3 of the paper):
//! flow through `*p` for an arbitrary pointer `p` is dropped.

use crate::memloc::MemLoc;
use crate::AnalyzedModule;
use spex_ir::{Callee, FuncId, GlobalId, Instr, Terminator, ValueId};
use spex_lang::builtins::Builtin;
use std::collections::{HashMap, VecDeque};

/// A seed for taint propagation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TaintRoot {
    /// A memory location (global variable or field/element of one).
    Mem(MemLoc),
    /// The `index`-th parameter of a function (parse-function mapping).
    FuncParam(FuncId, u32),
    /// A specific SSA value in a function (getter-call mapping).
    Value(FuncId, ValueId),
}

impl TaintRoot {
    /// Convenience constructor for a whole global.
    pub fn global(g: GlobalId) -> TaintRoot {
        TaintRoot::Mem(MemLoc::Global(g, Vec::new()))
    }
}

/// Result of one taint run: everything a parameter's value reaches.
#[derive(Debug, Clone, Default)]
pub struct TaintResult {
    /// Tainted SSA values with their BFS depth from the roots.
    pub values: HashMap<(FuncId, ValueId), u32>,
    /// Tainted memory locations with their BFS depth.
    pub mem: HashMap<MemLoc, u32>,
}

impl TaintResult {
    /// Whether a value is tainted.
    pub fn is_tainted(&self, f: FuncId, v: ValueId) -> bool {
        self.values.contains_key(&(f, v))
    }

    /// BFS depth of a tainted value (`None` if untainted).
    pub fn depth(&self, f: FuncId, v: ValueId) -> Option<u32> {
        self.values.get(&(f, v)).copied()
    }

    /// Functions touched by this parameter's data flow.
    pub fn touched_functions(&self) -> Vec<FuncId> {
        let mut out: Vec<FuncId> = self.values.keys().map(|(f, _)| *f).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Item {
    Value(FuncId, ValueId),
    Mem(MemLoc),
}

/// The propagation engine. Create once per module, run once per parameter.
pub struct TaintEngine<'a> {
    am: &'a AnalyzedModule,
    /// Load sites indexed for fast memory→value steps:
    /// `(func, load dst, abstract loc)`.
    loads: Vec<(FuncId, ValueId, MemLoc)>,
    /// Param value of each function, by parameter index.
    param_values: Vec<Vec<Option<ValueId>>>,
}

impl<'a> TaintEngine<'a> {
    /// Prepares the engine's indexes.
    pub fn new(am: &'a AnalyzedModule) -> Self {
        let mut loads = Vec::new();
        let mut param_values = Vec::new();
        for (fi, f) in am.module.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let mut params = vec![None; f.params.len()];
            for (_, _, instr, _) in f.iter_instrs() {
                match instr {
                    Instr::Load { dst, place } => {
                        if let Some(loc) = MemLoc::from_place(fid, place) {
                            loads.push((fid, *dst, loc));
                        }
                    }
                    Instr::Param { dst, index } if (*index as usize) < params.len() => {
                        params[*index as usize] = Some(*dst);
                    }
                    _ => {}
                }
            }
            param_values.push(params);
        }
        TaintEngine {
            am,
            loads,
            param_values,
        }
    }

    /// Runs taint propagation from the given roots.
    pub fn run(&self, roots: &[TaintRoot]) -> TaintResult {
        let _span = spex_obs::span("dataflow.taint");
        let mut result = TaintResult::default();
        let mut queue: VecDeque<(Item, u32)> = VecDeque::new();

        for root in roots {
            match root {
                TaintRoot::Mem(loc) => queue.push_back((Item::Mem(loc.clone()), 0)),
                TaintRoot::FuncParam(f, idx) => {
                    if let Some(Some(v)) = self
                        .param_values
                        .get(f.index())
                        .and_then(|p| p.get(*idx as usize))
                    {
                        queue.push_back((Item::Value(*f, *v), 0));
                    }
                }
                TaintRoot::Value(f, v) => queue.push_back((Item::Value(*f, *v), 0)),
            }
        }

        while let Some((item, depth)) = queue.pop_front() {
            match item {
                Item::Value(f, v) => {
                    if result.values.contains_key(&(f, v)) {
                        continue;
                    }
                    result.values.insert((f, v), depth);
                    self.step_value(f, v, depth, &mut queue);
                }
                Item::Mem(loc) => {
                    if result.mem.keys().any(|l| l == &loc) {
                        continue;
                    }
                    result.mem.insert(loc.clone(), depth);
                    self.step_mem(&loc, depth, &mut queue);
                }
            }
        }
        result
    }

    fn step_value(&self, f: FuncId, v: ValueId, depth: u32, queue: &mut VecDeque<(Item, u32)>) {
        let func = &self.am.module.functions[f.index()];
        let ud = &self.am.usedefs[f.index()];
        for site in ud.uses_of(v) {
            match ud.instr_at(func, *site) {
                Some(Instr::Bin { dst, .. })
                | Some(Instr::Un { dst, .. })
                | Some(Instr::Cast { dst, .. })
                | Some(Instr::Phi { dst, .. }) => {
                    queue.push_back((Item::Value(f, *dst), depth + 1));
                }
                Some(Instr::Store { place, value }) if *value == v => {
                    if let Some(loc) = MemLoc::from_place(f, place) {
                        queue.push_back((Item::Mem(loc), depth + 1));
                    }
                    // Store through an unknown pointer: dropped (no alias
                    // analysis).
                }
                Some(call @ Instr::Call { .. }) => self.step_call(f, v, call, depth, queue),
                // Loads with a tainted pointer/index, AddrOf, or terminator
                // uses: no value flow.
                _ => {}
            }
        }
        // Return-value flow: `v` returned from `f` taints call results.
        for blk in &func.blocks {
            if let Terminator::Ret(Some(rv)) = &blk.term.0 {
                if *rv == v {
                    for cs in self.am.callgraph.callers(f) {
                        let caller = &self.am.module.functions[cs.caller.index()];
                        if let Some((Instr::Call { dst: Some(d), .. }, _)) =
                            caller.blocks[cs.block.index()].instrs.get(cs.index)
                        {
                            queue.push_back((Item::Value(cs.caller, *d), depth + 1));
                        }
                    }
                }
            }
        }
    }

    /// Taint flow from `v` through `call`, an [`Instr::Call`] in `f`.
    fn step_call(
        &self,
        f: FuncId,
        v: ValueId,
        call: &Instr,
        depth: u32,
        queue: &mut VecDeque<(Item, u32)>,
    ) {
        let Instr::Call { dst, callee, args } = call else {
            return;
        };
        let func = &self.am.module.functions[f.index()];
        let arg_positions: Vec<usize> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == v)
            .map(|(i, _)| i)
            .collect();
        if arg_positions.is_empty() {
            return;
        }
        match callee {
            Callee::Builtin(b) => {
                if propagates_through(*b) {
                    if let Some(d) = *dst {
                        queue.push_back((Item::Value(f, d), depth + 1));
                    }
                }
                // `sscanf(src, fmt, &out)`: source taints the out-params.
                if *b == Builtin::Sscanf && arg_positions.contains(&0) {
                    for out_arg in args.iter().skip(2) {
                        if let Some(loc) = self.addr_of_target(f, func, *out_arg) {
                            queue.push_back((Item::Mem(loc), depth + 1));
                        }
                    }
                }
                // `strcpy(dst, src)` family: source taints destination
                // memory when the destination is a direct address.
                if matches!(b, Builtin::Strcpy | Builtin::Strncpy | Builtin::Strcat)
                    && arg_positions.contains(&1)
                {
                    if let Some(loc) = self.addr_of_target(f, func, args[0]) {
                        queue.push_back((Item::Mem(loc), depth + 1));
                    }
                }
            }
            Callee::Func(target) => {
                for pos in &arg_positions {
                    self.taint_param(*target, *pos, depth, queue);
                }
            }
            Callee::Indirect(_) => {
                for target in self.am.callgraph.indirect_targets(args.len()) {
                    for pos in &arg_positions {
                        self.taint_param(target, *pos, depth, queue);
                    }
                }
            }
        }
    }

    fn taint_param(&self, f: FuncId, index: usize, depth: u32, queue: &mut VecDeque<(Item, u32)>) {
        if let Some(Some(pv)) = self.param_values.get(f.index()).and_then(|p| p.get(index)) {
            queue.push_back((Item::Value(f, *pv), depth + 1));
        }
    }

    /// If `v` is defined by `AddrOf(place)`, the abstract location of that
    /// place.
    fn addr_of_target(&self, f: FuncId, func: &spex_ir::Function, v: ValueId) -> Option<MemLoc> {
        let ud = &self.am.usedefs[f.index()];
        match ud.def_instr(func, v) {
            Some(Instr::AddrOf { place, .. }) => MemLoc::from_place(f, place),
            _ => None,
        }
    }

    fn step_mem(&self, loc: &MemLoc, depth: u32, queue: &mut VecDeque<(Item, u32)>) {
        for (f, dst, lloc) in &self.loads {
            if lloc.may_alias(loc) {
                queue.push_back((Item::Value(*f, *dst), depth + 1));
            }
        }
    }
}

/// Builtins whose result derives from their arguments, so taint flows
/// through the call.
fn propagates_through(b: Builtin) -> bool {
    matches!(
        b,
        Builtin::Atoi
            | Builtin::Atol
            | Builtin::Atof
            | Builtin::Strtol
            | Builtin::Strtoll
            | Builtin::Strtod
            | Builtin::Strdup
            | Builtin::Strchr
            | Builtin::Strstr
            | Builtin::Strlen
            | Builtin::Htons
            | Builtin::Ntohs
            | Builtin::InetAddr
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalyzedModule;

    fn setup(src: &str) -> AnalyzedModule {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        AnalyzedModule::build(m)
    }

    fn run_on_global(am: &AnalyzedModule, name: &str) -> TaintResult {
        let g = am.module.global_by_name(name).unwrap();
        TaintEngine::new(am).run(&[TaintRoot::global(g)])
    }

    /// Finds the dst of the first instruction matching `pred` in `func`.
    fn find_value(
        am: &AnalyzedModule,
        func: &str,
        pred: impl Fn(&Instr) -> Option<ValueId>,
    ) -> (FuncId, ValueId) {
        let fid = am.module.function_by_name(func).unwrap();
        let f = &am.module.functions[fid.index()];
        for (_, _, instr, _) in f.iter_instrs() {
            if let Some(v) = pred(instr) {
                return (fid, v);
            }
        }
        panic!("no matching instruction in {func}");
    }

    #[test]
    fn taints_through_arithmetic_and_comparison() {
        let am = setup(
            "int limit = 10;
             int check(int x) { int d = limit * 2; if (x > d) { return 1; } return 0; }",
        );
        let r = run_on_global(&am, "limit");
        // The multiply result and the comparison result are both tainted.
        let (f, mul) = find_value(&am, "check", |i| match i {
            Instr::Bin {
                dst,
                op: spex_lang::ast::BinOp::Mul,
                ..
            } => Some(*dst),
            _ => None,
        });
        assert!(r.is_tainted(f, mul));
        let (f, cmp) = find_value(&am, "check", |i| match i {
            Instr::Bin {
                dst,
                op: spex_lang::ast::BinOp::Gt,
                ..
            } => Some(*dst),
            _ => None,
        });
        assert!(r.is_tainted(f, cmp));
    }

    #[test]
    fn taints_across_function_calls() {
        // Mirrors Figure 3(b) of the paper: MySQL's ft_stopword_file passed
        // through my_open into open().
        let am = setup(
            r#"
            char* stopword_file = "/etc/words";
            int my_open(char* file_name) { return open(file_name, 0); }
            void init() { my_open(stopword_file); }
            "#,
        );
        let r = run_on_global(&am, "stopword_file");
        let (f, param) = find_value(&am, "my_open", |i| match i {
            Instr::Param { dst, index: 0 } => Some(*dst),
            _ => None,
        });
        assert!(r.is_tainted(f, param), "callee parameter must be tainted");
    }

    #[test]
    fn taints_return_values_back_to_callers() {
        let am = setup(
            "int timeout = 30;
             int get_timeout() { return timeout; }
             void use() { int t = get_timeout(); sleep(t); }",
        );
        let r = run_on_global(&am, "timeout");
        let (f, call_dst) = find_value(&am, "use", |i| match i {
            Instr::Call {
                dst: Some(d),
                callee: Callee::Func(_),
                ..
            } => Some(*d),
            _ => None,
        });
        assert!(r.is_tainted(f, call_dst));
    }

    #[test]
    fn taints_through_atoi_conversion() {
        let am = setup(
            "int port_num = 0;
             void parse(char* value) { port_num = atoi(value); }
             void startup() { int p = port_num; bind(0, p); }",
        );
        // Root at the parse function's parameter.
        let fid = am.module.function_by_name("parse").unwrap();
        let r = TaintEngine::new(&am).run(&[TaintRoot::FuncParam(fid, 0)]);
        // Flow: value -> atoi -> store port_num -> load in startup.
        let (f, loaded) = find_value(&am, "startup", |i| match i {
            Instr::Load { dst, .. } => Some(*dst),
            _ => None,
        });
        assert!(r.is_tainted(f, loaded));
    }

    #[test]
    fn field_sensitive_store_and_load() {
        let am = setup(
            "struct cfg { int timeout; int retries; };
             struct cfg server;
             void set_timeout(int t) { server.timeout = t; }
             int get_timeout() { return server.timeout; }
             int get_retries() { return server.retries; }",
        );
        let fid = am.module.function_by_name("set_timeout").unwrap();
        let r = TaintEngine::new(&am).run(&[TaintRoot::FuncParam(fid, 0)]);
        let (f, timeout_load) = find_value(&am, "get_timeout", |i| match i {
            Instr::Load { dst, .. } => Some(*dst),
            _ => None,
        });
        assert!(r.is_tainted(f, timeout_load), "same field must be tainted");
        let (f2, retries_load) = find_value(&am, "get_retries", |i| match i {
            Instr::Load { dst, .. } => Some(*dst),
            _ => None,
        });
        assert!(
            !r.is_tainted(f2, retries_load),
            "sibling field must stay clean (field sensitivity)"
        );
    }

    #[test]
    fn no_flow_through_unknown_pointers() {
        // Without alias analysis, a store through a pointer parameter does
        // not reach the global it happens to point at.
        let am = setup(
            "int knob = 1;
             void set_via_ptr(int* p, int v) { *p = v; }
             void caller(int v) { set_via_ptr(&knob, v); }",
        );
        let fid = am.module.function_by_name("caller").unwrap();
        let r = TaintEngine::new(&am).run(&[TaintRoot::FuncParam(fid, 0)]);
        // knob's memory location must not be tainted.
        let g = am.module.global_by_name("knob").unwrap();
        let loc = MemLoc::Global(g, vec![]);
        assert!(!r.mem.keys().any(|l| l.may_alias(&loc)));
    }

    #[test]
    fn indirect_calls_taint_handler_params() {
        let am = setup(
            r#"
            struct cmd { char* name; fnptr handler; };
            int set_root(char* arg) { return open(arg, 0); }
            struct cmd cmds[] = { { "Root", set_root } };
            void dispatch(char* value) {
                cmds[0].handler(value);
            }
            "#,
        );
        let fid = am.module.function_by_name("dispatch").unwrap();
        let r = TaintEngine::new(&am).run(&[TaintRoot::FuncParam(fid, 0)]);
        let (f, param) = find_value(&am, "set_root", |i| match i {
            Instr::Param { dst, index: 0 } => Some(*dst),
            _ => None,
        });
        assert!(r.is_tainted(f, param));
    }

    #[test]
    fn sscanf_out_param_is_tainted() {
        let am = setup(
            r#"
            void parse(char* token) {
                int i = 0;
                sscanf(token, "%i", &i);
                sleep(i);
            }
            "#,
        );
        let fid = am.module.function_by_name("parse").unwrap();
        let r = TaintEngine::new(&am).run(&[TaintRoot::FuncParam(fid, 0)]);
        // The sleep argument derives from the scanned-out value.
        let f = &am.module.functions[fid.index()];
        let sleep_arg_tainted = f.iter_instrs().any(|(_, _, i, _)| match i {
            Instr::Call {
                callee: Callee::Builtin(Builtin::Sleep),
                args,
                ..
            } => args.iter().any(|a| r.is_tainted(fid, *a)),
            _ => false,
        });
        assert!(sleep_arg_tainted);
    }

    #[test]
    fn depth_increases_along_the_path() {
        let am = setup(
            "int a = 1;
             void f() { int x = a; int y = x + 1; int z = y + 1; sleep(z); }",
        );
        let r = run_on_global(&am, "a");
        let depths: Vec<u32> = r.values.values().copied().collect();
        let max = depths.iter().max().copied().unwrap_or(0);
        assert!(max >= 2, "chain must accumulate depth, got {max}");
    }

    #[test]
    fn untainted_parameter_stays_clean() {
        let am = setup(
            "int a = 1; int b = 2;
             int use_b() { return b; }",
        );
        let r = run_on_global(&am, "a");
        let (f, load_b) = find_value(&am, "use_b", |i| match i {
            Instr::Load { dst, .. } => Some(*dst),
            _ => None,
        });
        assert!(!r.is_tainted(f, load_b));
    }
}
