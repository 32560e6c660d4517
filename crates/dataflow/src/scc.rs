//! Strongly-connected-component condensation of the call graph.
//!
//! The interprocedural summary layer ([`crate::summary`]) evaluates
//! per-function summaries bottom-up: a function's summary may read its
//! callees' summaries, so callees must be finished first. Recursion makes
//! the call graph cyclic; condensing it into SCCs gives an acyclic
//! component DAG that can be processed callees-first, with each cyclic
//! component iterated to a fixpoint internally.
//!
//! Everything here is deterministic: components are emitted by an
//! iterative Tarjan walk rooted at ascending [`FuncId`]s with callee edges
//! in first-appearance order, so the component list — and therefore the
//! summary fold order — is identical across runs and thread counts.

use crate::CallGraph;
use spex_ir::FuncId;

/// The condensed call graph: components in bottom-up (callees-first)
/// order plus the membership and dependency indexes the summary layer
/// needs for SCC-granular invalidation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condensation {
    /// Component index of each function (indexed by function id).
    pub component_of: Vec<usize>,
    /// Members of each component, ascending by function id. Components are
    /// ordered callees-first: every component a member calls into (other
    /// than its own) has a smaller index.
    pub components: Vec<Vec<FuncId>>,
    /// Direct callee components of each component (deduped, ascending,
    /// never containing the component itself).
    pub callee_components: Vec<Vec<usize>>,
    /// Whether the component contains a cycle (self-recursion or mutual
    /// recursion) and therefore needs fixpoint iteration.
    pub cyclic: Vec<bool>,
}

impl Condensation {
    /// Builds the condensation over the direct (`Callee::Func`) call edges
    /// the call graph recorded. Indirect calls carry no summary information
    /// and are not edges here.
    pub fn build(cg: &CallGraph) -> Condensation {
        let callees = &cg.callees;
        let n = callees.len();

        // Iterative Tarjan. With edges pointing caller → callee, an SCC is
        // emitted only after every SCC it reaches, i.e. callees-first.
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut component_of = vec![UNVISITED; n];
        let mut components: Vec<Vec<FuncId>> = Vec::new();

        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            let mut call: Vec<(usize, usize)> = vec![(root, 0)];
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut ei)) = call.last_mut() {
                if *ei < callees[v].len() {
                    let w = callees[v][*ei].index();
                    *ei += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component_of[w] = components.len();
                            comp.push(FuncId(w as u32));
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_by_key(|f| f.index());
                        components.push(comp);
                    }
                }
            }
        }

        let mut callee_components: Vec<Vec<usize>> = vec![Vec::new(); components.len()];
        let mut cyclic = vec![false; components.len()];
        for (c, members) in components.iter().enumerate() {
            cyclic[c] = members.len() > 1 || members.iter().any(|f| callees[f.index()].contains(f));
            for f in members {
                for g in &callees[f.index()] {
                    let gc = component_of[g.index()];
                    if gc != c && !callee_components[c].contains(&gc) {
                        callee_components[c].push(gc);
                    }
                }
            }
            callee_components[c].sort_unstable();
        }

        Condensation {
            component_of,
            components,
            callee_components,
            cyclic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn condense(src: &str) -> (spex_ir::Module, Condensation) {
        let p = spex_lang::parse_program(src).unwrap();
        let m = spex_ir::lower_program(&p).unwrap();
        let c = Condensation::build(&CallGraph::build(&m));
        (m, c)
    }

    #[test]
    fn chain_is_bottom_up() {
        let (m, c) = condense(
            "int c(int x) { return x + 1; }
             int b(int x) { return c(x); }
             int a(int x) { return b(x); }",
        );
        let a = m.function_by_name("a").unwrap();
        let b = m.function_by_name("b").unwrap();
        let cc = m.function_by_name("c").unwrap();
        assert_eq!(c.components.len(), 3);
        // Callees come first.
        assert!(c.component_of[cc.index()] < c.component_of[b.index()]);
        assert!(c.component_of[b.index()] < c.component_of[a.index()]);
        assert!(c.cyclic.iter().all(|&x| !x));
    }

    #[test]
    fn mutual_recursion_is_one_cyclic_component() {
        let (m, c) = condense(
            "int even(int x) { if (x == 0) { return 1; } return odd(x - 1); }
             int odd(int x) { if (x == 0) { return 0; } return even(x - 1); }
             int caller(int x) { return even(x); }",
        );
        let even = m.function_by_name("even").unwrap();
        let odd = m.function_by_name("odd").unwrap();
        let caller = m.function_by_name("caller").unwrap();
        assert_eq!(c.component_of[even.index()], c.component_of[odd.index()]);
        assert!(c.cyclic[c.component_of[even.index()]]);
        assert!(c.component_of[even.index()] < c.component_of[caller.index()]);
    }

    #[test]
    fn self_recursion_is_cyclic() {
        let (m, c) = condense("int f(int x) { if (x <= 0) { return 0; } return f(x - 1); }");
        let f = m.function_by_name("f").unwrap();
        assert!(c.cyclic[c.component_of[f.index()]]);
        assert_eq!(c.components[c.component_of[f.index()]], vec![f]);
    }

    #[test]
    fn callee_components_are_deduped_and_sorted() {
        let (m, c) = condense(
            "int h1(int x) { return x; }
             int h2(int x) { return x; }
             int top(int x) { return h1(x) + h2(x) + h1(x); }",
        );
        let top = m.function_by_name("top").unwrap();
        let deps = &c.callee_components[c.component_of[top.index()]];
        assert_eq!(deps.len(), 2);
        assert!(deps.windows(2).all(|w| w[0] < w[1]));
    }
}
