//! Stable fingerprints of lowered modules, for incremental re-inference.
//!
//! The workspace API re-runs constraint inference only over functions whose
//! bodies actually changed. Change detection hashes the *lowered* IR rather
//! than source text, so whitespace and comment edits never dirty a
//! function, while any edit that survives lowering does.
//!
//! Two kinds of fingerprints cover a module:
//!
//! * [`function_fingerprints`] — one hash per function, keyed by name,
//!   over what [`print_function`] prints of it (value numbering is
//!   function-local, so an edit in one function never shifts another's
//!   hash);
//! * [`header_fingerprint`] — one hash over everything that is *not* a
//!   function body: globals (types and initializers), struct layouts and
//!   enum constants. Mapping extraction and declared-type fallbacks read
//!   these, so a header change invalidates all functions at once.
//!
//! Both hash the IR's fields directly, with no text in between: two
//! functions hash alike exactly when their printed IR is the same text,
//! and two headers exactly when their old text rendering was.
//!
//! [`print_function`]: spex_ir::printer::print_function

use spex_ir::{Callee, ConstVal, Function, Instr, Module};
use spex_lang::items::StableHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a, the [`StableHasher`] over one byte string; deterministic
/// across runs and platforms (no `RandomState`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// Hashes every function body, keyed by function name.
///
/// Duplicate names (ill-formed modules) fold both bodies into one hash, so
/// a change to either dirties the name.
pub fn function_fingerprints(module: &Module) -> BTreeMap<String, u64> {
    let mut fps: BTreeMap<String, u64> = BTreeMap::new();
    for f in &module.functions {
        let fp = function_fingerprint(f, module);
        fps.entry(f.name.clone())
            .and_modify(|prev| *prev = fnv1a(&[prev.to_le_bytes(), fp.to_le_bytes()].concat()))
            .or_insert(fp);
    }
    fps
}

/// Hashes one function of `module` field by field, as
/// [`print_function`](spex_ir::printer::print_function) prints it: its
/// signature, then every block's instructions and terminator, with
/// callees and function and global references resolved to the names the
/// printer shows. Value types, slots and spans are not printed, so they
/// are not hashed.
pub fn function_fingerprint(f: &Function, module: &Module) -> u64 {
    let mut h = StableHasher::new();
    f.name.hash(&mut h);
    f.params.len().hash(&mut h);
    for (name, ty, _) in &f.params {
        name.hash(&mut h);
        ty.hash(&mut h);
    }
    f.ret.hash(&mut h);
    f.is_ssa.hash(&mut h);
    f.blocks.len().hash(&mut h);
    for block in &f.blocks {
        block.instrs.len().hash(&mut h);
        for (instr, _) in &block.instrs {
            hash_instr(&mut h, instr, module);
        }
        block.term.0.hash(&mut h);
    }
    h.finish()
}

fn hash_instr(h: &mut StableHasher, instr: &Instr, m: &Module) {
    std::mem::discriminant(instr).hash(h);
    match instr {
        Instr::Const { dst, val } => {
            dst.hash(h);
            hash_printed_const(h, val, m);
        }
        Instr::Param { dst, index } => {
            dst.hash(h);
            index.hash(h);
        }
        Instr::Load { dst, place } | Instr::AddrOf { dst, place } => {
            dst.hash(h);
            place.hash(h);
        }
        Instr::Store { place, value } => {
            place.hash(h);
            value.hash(h);
        }
        Instr::Bin { dst, op, lhs, rhs } => {
            dst.hash(h);
            op.hash(h);
            lhs.hash(h);
            rhs.hash(h);
        }
        Instr::Un { dst, op, operand } => {
            dst.hash(h);
            (*op as u8).hash(h);
            operand.hash(h);
        }
        Instr::Cast { dst, ty, operand } => {
            dst.hash(h);
            ty.hash(h);
            operand.hash(h);
        }
        Instr::Call { dst, callee, args } => {
            dst.hash(h);
            // The printer shows a module function and a builtin alike, by
            // name; only an indirect call prints a value.
            match callee {
                Callee::Func(f) => match m.functions.get(f.index()) {
                    Some(callee) => callee.name.hash(h),
                    None => format!("f{}", f.0).hash(h),
                },
                Callee::Builtin(b) => b.name().hash(h),
                Callee::Indirect(v) => {
                    h.write_u8(0);
                    v.hash(h);
                }
            }
            args.hash(h);
        }
        Instr::Phi { dst, incomings } => {
            dst.hash(h);
            incomings.hash(h);
        }
    }
}

/// A constant as the printer shows it: function and global references by
/// name, and an integral float such as `1.0` the same as the integer it
/// prints as (`1`).
fn hash_printed_const(h: &mut StableHasher, c: &ConstVal, m: &Module) {
    match c {
        ConstVal::Float(v) => match as_printed_int(*v) {
            Some(i) => hash_printed_const(h, &ConstVal::Int(i), m),
            None => {
                std::mem::discriminant(c).hash(h);
                v.to_bits().hash(h);
            }
        },
        ConstVal::FuncRef(f) => {
            std::mem::discriminant(c).hash(h);
            m.functions
                .get(f.index())
                .map_or("?", |f| f.name.as_str())
                .hash(h);
        }
        ConstVal::GlobalRef(g) => {
            std::mem::discriminant(c).hash(h);
            m.globals
                .get(g.index())
                .map_or("?", |g| g.name.as_str())
                .hash(h);
        }
        ConstVal::Aggregate(items) => {
            std::mem::discriminant(c).hash(h);
            items.len().hash(h);
            for item in items {
                hash_printed_const(h, item, m);
            }
        }
        _ => hash_const(h, c),
    }
}

/// The integer whose text a float prints as, if it prints as one. Only an
/// integral float can, and it is rare enough that printing it is cheap.
fn as_printed_int(v: f64) -> Option<i64> {
    if v.fract() != 0.0 {
        return None;
    }
    let text = v.to_string();
    text.parse::<i64>().ok().filter(|i| i.to_string() == text)
}

/// A constant as its `Debug` form shows it: references by id.
fn hash_const(h: &mut StableHasher, c: &ConstVal) {
    std::mem::discriminant(c).hash(h);
    match c {
        ConstVal::Int(v) => v.hash(h),
        ConstVal::Float(v) => v.to_bits().hash(h),
        ConstVal::Str(s) => s.hash(h),
        ConstVal::Bool(b) => b.hash(h),
        ConstVal::Null => {}
        ConstVal::FuncRef(f) => f.hash(h),
        ConstVal::GlobalRef(g) => g.hash(h),
        ConstVal::Aggregate(items) => {
            items.len().hash(h);
            for item in items {
                hash_const(h, item);
            }
        }
    }
}

/// Hashes the module's non-function surface: globals (name, type and
/// initializer), struct layouts and enum constants, in deterministic
/// order.
pub fn header_fingerprint(module: &Module) -> u64 {
    let mut h = StableHasher::new();
    module.globals.len().hash(&mut h);
    for g in &module.globals {
        g.name.hash(&mut h);
        g.ty.hash(&mut h);
        hash_const(&mut h, &g.init);
    }
    module.structs.len().hash(&mut h);
    for s in &module.structs {
        s.name.hash(&mut h);
        s.fields.hash(&mut h);
    }
    let consts: BTreeMap<&str, i64> = module
        .enum_consts
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    consts.hash(&mut h);
    h.finish()
}

/// The difference between two fingerprint maps: which function names must
/// be considered dirty for re-inference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FingerprintDiff {
    /// Present in both maps with different hashes.
    pub changed: Vec<String>,
    /// Present only in the new map.
    pub added: Vec<String>,
    /// Present only in the old map.
    pub removed: Vec<String>,
}

impl FingerprintDiff {
    /// Whether the two maps are identical.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// All dirty names — changed, added and removed — in sorted order.
    pub fn dirty_names(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .changed
            .iter()
            .chain(&self.added)
            .chain(&self.removed)
            .cloned()
            .collect();
        all.sort_unstable();
        all
    }
}

/// Diffs two fingerprint maps (old → new).
pub fn diff_fingerprints(
    old: &BTreeMap<String, u64>,
    new: &BTreeMap<String, u64>,
) -> FingerprintDiff {
    let mut diff = FingerprintDiff::default();
    for (name, fp) in new {
        match old.get(name) {
            None => diff.added.push(name.clone()),
            Some(prev) if prev != fp => diff.changed.push(name.clone()),
            Some(_) => {}
        }
    }
    for name in old.keys() {
        if !new.contains_key(name) {
            diff.removed.push(name.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> Module {
        let p = spex_lang::parse_program(src).unwrap();
        spex_ir::lower_program(&p).unwrap()
    }

    const BASE: &str = r#"
        int threads = 4;
        void f() { if (threads > 8) { exit(1); } }
        void g() { sleep(threads); }
    "#;

    #[test]
    fn whitespace_and_comment_edits_do_not_dirty() {
        let a = function_fingerprints(&lower(BASE));
        let b = function_fingerprints(&lower(
            r#"
            int threads = 4;
            // a comment
            void f() {
                if (threads > 8) { exit(1); }
            }
            void g() { sleep(threads); }
            "#,
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn editing_one_function_dirties_only_it() {
        let old = function_fingerprints(&lower(BASE));
        let new = function_fingerprints(&lower(
            r#"
            int threads = 4;
            void f() { if (threads > 8) { exit(1); } }
            void g() { sleep(threads); sleep(threads); }
            "#,
        ));
        let d = diff_fingerprints(&old, &new);
        assert_eq!(d.changed, vec!["g".to_string()]);
        assert!(d.added.is_empty() && d.removed.is_empty());
    }

    #[test]
    fn added_and_removed_functions_are_reported() {
        let old = function_fingerprints(&lower(BASE));
        let new = function_fingerprints(&lower(
            r#"
            int threads = 4;
            void f() { if (threads > 8) { exit(1); } }
            void h() { listen(0, threads); }
            "#,
        ));
        let d = diff_fingerprints(&old, &new);
        assert!(d.changed.is_empty());
        assert_eq!(d.added, vec!["h".to_string()]);
        assert_eq!(d.removed, vec!["g".to_string()]);
        assert_eq!(d.dirty_names(), vec!["g".to_string(), "h".to_string()]);
    }

    #[test]
    fn header_tracks_globals_not_bodies() {
        let base = header_fingerprint(&lower(BASE));
        let body_edit = header_fingerprint(&lower(
            r#"
            int threads = 4;
            void f() { exit(1); }
            void g() { sleep(threads); }
            "#,
        ));
        assert_eq!(base, body_edit, "body edits must not dirty the header");
        let global_edit = header_fingerprint(&lower(
            r#"
            int threads = 8;
            void f() { if (threads > 8) { exit(1); } }
            void g() { sleep(threads); }
            "#,
        ));
        assert_ne!(base, global_edit, "initializer edits must dirty the header");
    }

    /// Each constant mixes as one word, and a sign flip is a flip of its
    /// top bit: two of them must not cancel out.
    #[test]
    fn swapping_the_signs_of_two_constants_is_a_change() {
        let header = |src: &str| header_fingerprint(&lower(src));
        assert_ne!(
            header("double lo = -0.5; double hi = 0.5;"),
            header("double lo = 0.5; double hi = -0.5;")
        );
        assert_ne!(
            header("long lo = -1; long hi = 1;"),
            header("long lo = 1; long hi = -1;")
        );
        let body = |src: &str| {
            let m = lower(src);
            function_fingerprint(&m.functions[0], &m)
        };
        assert_ne!(
            body("double f() { return -0.5 * 0.5; }"),
            body("double f() { return 0.5 * -0.5; }")
        );
    }
}
