//! Property-based tests over core invariants.
//!
//! The build environment has no network access, so instead of `proptest`
//! these use a small deterministic case generator: each property is
//! exercised over a few hundred pseudo-random inputs from a fixed seed,
//! which keeps failures reproducible without an external shrinker.

use spex::check::session::levenshtein;
use spex::check::{CheckSession, ConstraintDb, DiagCode, Fix};
use spex::conf::{ConfFile, Dialect};
use spex::core::constraint::{BasicType, Constraint, ConstraintKind, NumericRange, RangeSegment};
use spex::core::CmpOp;
use spex::inject::harness::intended_value;
use spex::ir::cfg::Cfg;
use spex::ir::dom::DomTree;
use spex::ir::BlockId;
use spex::lang::diag::Span;
use spex::systems::rng::SplitMix64;
use spex::vm::{Value, Vm, World};

/// Cases per property.
const CASES: usize = 200;

/// The shared splitmix64 generator plus the string-shaping helpers the
/// properties need.
struct Gen(SplitMix64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(SplitMix64::seed_from_u64(seed))
    }

    /// Uniform in `[lo, hi)`.
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        self.0.gen_range(lo, hi)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.int(lo as i64, hi as i64) as usize
    }

    fn pick(&mut self, chars: &[char]) -> char {
        chars[self.usize(0, chars.len())]
    }

    /// A string of `len` characters drawn from `alphabet`.
    fn string(&mut self, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| self.pick(alphabet)).collect()
    }
}

fn lower() -> Vec<char> {
    ('a'..='z').collect()
}

fn lower_digit_underscore() -> Vec<char> {
    let mut v: Vec<char> = ('a'..='z').collect();
    v.extend('0'..='9');
    v.push('_');
    v
}

fn value_chars() -> Vec<char> {
    let mut v: Vec<char> = ('a'..='z').collect();
    v.extend('A'..='Z');
    v.extend('0'..='9');
    v.extend(['/', '.', '_', '-']);
    v
}

/// A config-parameter name: `[a-z][a-z0-9_]{0,12}`.
fn gen_name(g: &mut Gen) -> String {
    let mut s = String::new();
    s.push(g.pick(&lower()));
    let tail = g.usize(0, 13);
    s.push_str(&g.string(&lower_digit_underscore(), tail));
    s
}

/// A config value: `[a-zA-Z0-9/._-]{1,12}`.
fn gen_value(g: &mut Gen) -> String {
    let len = g.usize(1, 13);
    g.string(&value_chars(), len)
}

// --- Configuration AR -------------------------------------------------------

/// Parsing is idempotent through a serialize round-trip, for every
/// dialect.
#[test]
fn conf_roundtrip_is_stable() {
    let mut g = Gen::new(0x01);
    for _ in 0..CASES {
        let n = g.usize(0, 8);
        // Suffix names with their index so `set` never collapses entries.
        let mut pairs: Vec<(String, String)> = Vec::with_capacity(n);
        for i in 0..n {
            let name = format!("{}_{i}", gen_name(&mut g));
            let value = gen_value(&mut g);
            pairs.push((name, value));
        }
        for dialect in [
            Dialect::KeyValue,
            Dialect::Directive,
            Dialect::SpaceSeparated,
        ] {
            let mut conf = ConfFile {
                entries: vec![],
                dialect,
            };
            for (n, v) in &pairs {
                conf.set(n, v);
            }
            let text = conf.serialize();
            let reparsed = ConfFile::parse(&text, dialect);
            assert_eq!(reparsed.serialize(), text);
            for (n, v) in &pairs {
                assert_eq!(reparsed.get(n), Some(v.as_str()));
            }
        }
    }
}

/// `set` then `get` observes the written value; `remove` erases it.
#[test]
fn conf_set_get_remove() {
    let mut g = Gen::new(0x02);
    for _ in 0..CASES {
        let name = gen_name(&mut g);
        let v1 = gen_value(&mut g);
        let v2 = gen_value(&mut g);
        let mut conf = ConfFile::parse("", Dialect::KeyValue);
        conf.set(&name, &v1);
        conf.set(&name, &v2);
        assert_eq!(conf.get(&name), Some(v2.as_str()));
        // Double-set keeps a single entry.
        assert_eq!(conf.settings().count(), 1);
        conf.remove(&name);
        assert_eq!(conf.get(&name), None);
    }
}

// --- Comparison-operator algebra --------------------------------------------

/// Negation and flipping are involutions consistent with evaluation.
#[test]
fn cmp_op_algebra() {
    let mut g = Gen::new(0x03);
    for _ in 0..CASES {
        let a = g.int(-1000, 1000);
        let b = g.int(-1000, 1000);
        for op in [
            CmpOp::Lt,
            CmpOp::Gt,
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.negated().negated(), op);
            assert_eq!(op.flipped().flipped(), op);
            assert_eq!(op.eval(a, b), !op.negated().eval(a, b));
            assert_eq!(op.eval(a, b), op.flipped().eval(b, a));
        }
    }
}

// --- VM semantics -----------------------------------------------------------

/// The interpreter's `atoi` matches C semantics: leading digits with
/// optional sign, 32-bit wrap, garbage yields zero.
#[test]
fn vm_atoi_matches_c_model() {
    let program = spex::lang::parse_program("int conv(char* s) { return atoi(s); }").unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    let mut g = Gen::new(0x04);
    let letters: Vec<char> = ('a'..='z').chain('A'..='Z').collect();
    let digits: Vec<char> = ('0'..='9').collect();
    for _ in 0..CASES {
        // Shape: `[ ]{0,2}-?[0-9]{0,12}[a-zA-Z]{0,3}`.
        let mut s = String::new();
        s.push_str(&" ".repeat(g.usize(0, 3)));
        if g.usize(0, 2) == 1 {
            s.push('-');
        }
        let nd = g.usize(0, 13);
        s.push_str(&g.string(&digits, nd));
        let nl = g.usize(0, 4);
        s.push_str(&g.string(&letters, nl));

        let mut vm = Vm::new(&module, World::default());
        let got = vm.call("conv", &[Value::str(&s)]).unwrap();

        // Reference model.
        let t = s.trim_start();
        let (neg, rest) = match t.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, t),
        };
        let ds: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        let mut acc: i64 = 0;
        for d in ds.bytes() {
            acc = acc.saturating_mul(10).saturating_add((d - b'0') as i64);
        }
        let expect = (if neg { -acc } else { acc }) as i32 as i64;
        assert_eq!(got, Value::Int(expect), "input {s:?}");
    }
}

/// Arithmetic expressions evaluate identically in the VM and a
/// reference evaluator (wrapping i64 semantics).
#[test]
fn vm_arithmetic_matches_reference() {
    let mut g = Gen::new(0x05);
    for _ in 0..64 {
        let a = g.int(-10_000, 10_000);
        let b = g.int(-10_000, 10_000);
        let c = g.int(1, 100);
        let src = format!("long f() {{ return ({a} + {b}) * {c} - {b} / {c}; }}");
        let program = spex::lang::parse_program(&src).unwrap();
        let module = spex::ir::lower_program(&program).unwrap();
        let mut vm = Vm::new(&module, World::default());
        let got = vm.call("f", &[]).unwrap();
        let expect = (a.wrapping_add(b))
            .wrapping_mul(c)
            .wrapping_sub(b.wrapping_div(c));
        assert_eq!(got, Value::Int(expect));
    }
}

/// Control flow: the VM's loop summation equals the closed form.
#[test]
fn vm_loops_match_closed_form() {
    let program = spex::lang::parse_program(
        "long sum(int n) {
            long total = 0;
            for (int i = 1; i <= n; i++) { total += i; }
            return total;
        }",
    )
    .unwrap();
    let module = spex::ir::lower_program(&program).unwrap();
    let mut g = Gen::new(0x06);
    for _ in 0..CASES {
        let n = g.int(0, 200);
        let mut vm = Vm::new(&module, World::default());
        let got = vm.call("sum", &[Value::Int(n)]).unwrap();
        assert_eq!(got, Value::Int(n * (n + 1) / 2));
    }
}

// --- SSA invariants over generated programs ---------------------------------

/// Every function of a generated-style program stays verifier-clean
/// after SSA promotion, and each SSA value is defined exactly once.
#[test]
fn ssa_single_assignment_holds() {
    let mut g = Gen::new(0x07);
    for _ in 0..64 {
        let x = g.int(-50, 50);
        let y = g.int(-50, 50);
        let threshold = g.int(-20, 20);
        let src = format!(
            "int knob = {x};
             int f(int v) {{
                int acc = {y};
                if (v > {threshold}) {{ acc = v * 2; }}
                else {{ acc = v - knob; }}
                while (acc > 100) {{ acc -= 10; }}
                return acc;
             }}"
        );
        let program = spex::lang::parse_program(&src).unwrap();
        let module = spex::ir::lower_program(&program).unwrap();
        for f in &module.functions {
            let ssa = spex::ir::promote_to_ssa(f);
            let errors = spex::ir::verify::verify_function(&ssa);
            assert!(errors.is_empty(), "verifier: {errors:?}");
            let mut defs = std::collections::HashSet::new();
            for (_, _, instr, _) in ssa.iter_instrs() {
                if let Some(d) = instr.def() {
                    assert!(defs.insert(d), "double definition");
                }
            }
        }
    }
}

// --- Injection-harness value model ------------------------------------------

/// The user-intention parser honours plain integers exactly.
#[test]
fn intended_value_integers() {
    let mut g = Gen::new(0x08);
    for _ in 0..CASES {
        let v = g.int(-1_000_000, 1_000_000);
        assert_eq!(intended_value(&v.to_string()), Some(Value::Int(v)));
    }
}

/// Unit suffixes multiply as documented.
#[test]
fn intended_value_units() {
    let mut g = Gen::new(0x09);
    for _ in 0..CASES {
        let base = g.int(1, 1024);
        assert_eq!(
            intended_value(&format!("{base}K")),
            Some(Value::Int(base << 10))
        );
        assert_eq!(
            intended_value(&format!("{base}MB")),
            Some(Value::Int(base << 20))
        );
        assert_eq!(
            intended_value(&format!("{base}G")),
            Some(Value::Int(base << 30))
        );
    }
}

// --- Constraint database indexes --------------------------------------------

/// Parameter names with case variants and one-edit neighbours, so lookups
/// hit case twins and did-you-mean scans hit ties.
const DB_NAMES: &[&str] = &[
    "port_a", "port_b", "Port_a", "PORT_B", "host", "Host", "hosts", "timeout", "TimeOut",
];

/// Provenance modules, shared between names (empty = hand-built).
const DB_MODULES: &[&str] = &["a.c", "b.c", "c.c", ""];

/// Keys no database here holds: case twins and typos of `DB_NAMES`.
const DB_KEYS: &[&str] = &[
    "port_c", "PORT_A", "Port_B", "port", "hostz", "HOST", "hots", "timeouts", "TIMEOUT", "xyz",
];

fn pick_str<'a>(g: &mut Gen, pool: &[&'a str]) -> &'a str {
    pool[g.usize(0, pool.len())]
}

/// A random constraint: a basic type or a small range, so merges meet
/// duplicates, tighter and looser rivals.
fn gen_db_constraint(g: &mut Gen, param: &str) -> Constraint {
    let kind = match g.usize(0, 3) {
        0 => ConstraintKind::BasicType(BasicType::Int {
            bits: [16, 32, 64][g.usize(0, 3)],
            signed: true,
        }),
        1 => ConstraintKind::BasicType(BasicType::Bool),
        _ => {
            let lo = g.int(0, 4);
            let hi = lo + g.int(1, 6);
            ConstraintKind::Range(NumericRange {
                cutpoints: vec![lo, hi],
                segments: vec![
                    RangeSegment {
                        lo: None,
                        hi: Some(lo - 1),
                        valid: false,
                    },
                    RangeSegment {
                        lo: Some(lo),
                        hi: Some(hi),
                        valid: true,
                    },
                    RangeSegment {
                        lo: Some(hi + 1),
                        hi: None,
                        valid: false,
                    },
                ],
            })
        }
    };
    Constraint {
        param: param.to_string(),
        kind,
        in_function: "f".into(),
        span: Span::new(g.usize(1, 9) as u32, 1),
    }
}

/// A small random database for `merge` to fold in.
fn gen_db(g: &mut Gen) -> ConstraintDb {
    let mut db = ConstraintDb::new("S", Dialect::KeyValue);
    for _ in 0..g.usize(0, 5) {
        let name = pick_str(g, DB_NAMES);
        let module = pick_str(g, DB_MODULES);
        db.add_from(gen_db_constraint(g, name), module);
    }
    db
}

/// After any sequence of mutations, every indexed lookup equals a linear
/// scan of `params`, and a session over the in-memory database (first-
/// seen order) reports an unknown key exactly as one over its saved and
/// reloaded form (name order) does.
#[test]
fn db_indexes_match_a_linear_scan() {
    let mut g = Gen::new(0x0d);
    for _ in 0..CASES {
        let mut db = ConstraintDb::new("S", Dialect::KeyValue);
        for _ in 0..g.usize(1, 25) {
            let name = pick_str(&mut g, DB_NAMES);
            let module = pick_str(&mut g, DB_MODULES);
            match g.usize(0, 7) {
                0 => {
                    db.note_param(name);
                }
                1 => {
                    let c = gen_db_constraint(&mut g, name);
                    db.add_from(c, module);
                }
                2 => {
                    let fresh = (0..g.usize(0, 3))
                        .map(|_| gen_db_constraint(&mut g, name))
                        .collect();
                    db.replace_source_param(module, name, fresh);
                }
                3 => {
                    db.remove_source_param(module, name);
                }
                4 => {
                    db.remove_param(name);
                }
                5 => {
                    let other = gen_db(&mut g);
                    db.merge(&other).unwrap();
                }
                _ => db.canonicalize(),
            }

            for p in &db.params {
                assert_eq!(p.constraints.len(), p.provenance.len(), "{}", p.name);
            }
            for &q in DB_NAMES.iter().chain(DB_KEYS) {
                let exact = db.params.iter().find(|p| p.name == q);
                assert_eq!(db.param(q), exact, "param({q})");
                let folded = db
                    .params
                    .iter()
                    .filter(|p| p.name.eq_ignore_ascii_case(q))
                    .min_by(|a, b| a.name.cmp(&b.name));
                assert_eq!(db.param_ignore_case(q), folded, "param_ignore_case({q})");
            }
            for &m in DB_MODULES {
                let scan: Vec<String> = db
                    .params
                    .iter()
                    .filter(|p| p.provenance.iter().any(|x| x == m))
                    .map(|p| p.name.clone())
                    .collect();
                assert_eq!(db.params_from_source(m), scan, "params_from_source({m})");
            }

            let key = pick_str(&mut g, DB_KEYS);
            let text = format!("{key} = 1\n");
            let loaded = ConstraintDb::load_from_str(&db.save_to_string()).unwrap();
            assert_eq!(
                CheckSession::new(&db).check_text(&text),
                CheckSession::new(&loaded).check_text(&text),
                "unknown key {key:?} over {:?}",
                db.param_names().collect::<Vec<_>>()
            );
        }
    }
}

/// Shared prefixes long enough that the suggestion walk reuses many rows
/// and prunes deep inside a prefix.
const SUGGEST_PREFIXES: &[&str] = &["listener_thread", "listener_", "log_level", "l", ""];

/// Name and edit characters: letters in both cases, a digit, `_` and one
/// multi-byte char (edit distance counts chars, not bytes).
const SUGGEST_CHARS: &[char] = &['a', 'b', 'e', 's', 'A', 'B', 'E', 'S', '1', '_', 'é'];

/// A name under one of the shared prefixes, its letters' case flipped at
/// random: `[prefix][chars]{0,5}`, never empty.
fn gen_suggest_name(g: &mut Gen) -> String {
    let prefix = pick_str(g, SUGGEST_PREFIXES);
    let tail_len = g.usize(usize::from(prefix.is_empty()), 6);
    let name = format!("{prefix}{}", g.string(SUGGEST_CHARS, tail_len));
    name.chars()
        .map(|c| match g.usize(0, 8) {
            0 => c.to_ascii_uppercase(),
            _ => c,
        })
        .collect()
}

/// `name` after `edits` random char insertions, deletions and
/// substitutions (so at most `edits` away from it).
fn gen_typo(g: &mut Gen, name: &str, edits: usize) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    for _ in 0..edits {
        let at = g.usize(0, chars.len() + 1);
        match g.usize(0, 3) {
            0 => chars.insert(at, g.pick(SUGGEST_CHARS)),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = g.pick(SUGGEST_CHARS),
            _ => chars.push(g.pick(SUGGEST_CHARS)),
        }
    }
    chars.into_iter().collect()
}

/// The reference answer: the (distance, name) minimum of a linear
/// `levenshtein` scan over every name, within `max` edits.
fn scan_nearest(db: &ConstraintDb, key: &str, max: usize, fold: bool) -> Option<String> {
    let fold_str = |s: &str| {
        if fold {
            s.to_ascii_lowercase()
        } else {
            s.to_string()
        }
    };
    (db.params.iter())
        .map(|p| {
            (
                levenshtein(&fold_str(key), &fold_str(&p.name), max + 1),
                &p.name,
            )
        })
        .filter(|&(distance, _)| distance <= max)
        .min()
        .map(|(_, name)| name.clone())
}

/// After any sequence of mutations, the name-order trie walk behind
/// `param_ignore_case`, `nearest_param` and the session's unknown-key
/// suggestion and rename fix answers exactly what a linear scan does.
#[test]
fn suggestion_index_matches_a_linear_scan() {
    let mut g = Gen::new(0x5e);
    let mut steps = 0;
    for _ in 0..CASES {
        let mut db = ConstraintDb::new("S", Dialect::KeyValue);
        let mut names: Vec<String> = Vec::new();
        for _ in 0..g.usize(1, 20) {
            let name = match names.len() {
                0 => gen_suggest_name(&mut g),
                n => match g.usize(0, 3) {
                    0 => names[g.usize(0, n)].clone(),
                    _ => gen_suggest_name(&mut g),
                },
            };
            match g.usize(0, 6) {
                0 | 1 => db.note_param(&name),
                2 => {
                    db.remove_param(&name);
                }
                3 => {
                    let mut other = ConstraintDb::new("S", Dialect::KeyValue);
                    for _ in 0..g.usize(1, 6) {
                        let theirs = gen_suggest_name(&mut g);
                        other.add_from(gen_db_constraint(&mut g, &theirs), "m.c");
                    }
                    db.merge(&other).unwrap();
                }
                4 => db.canonicalize(),
                _ => db.add_from(gen_db_constraint(&mut g, &name), "m.c"),
            }
            names.push(name);
            steps += 1;

            for _ in 0..2 {
                let seed = match db.params.len() {
                    0 => gen_suggest_name(&mut g),
                    n => db.params[g.usize(0, n)].name.clone(),
                };
                let edits = g.usize(0, 6);
                let key = gen_typo(&mut g, &seed, edits);
                let folded = scan_nearest(&db, &key, 0, true);
                let found = db.param_ignore_case(&key).map(|p| p.name.clone());
                assert_eq!(found, folded, "param_ignore_case({key:?})");
                for max in 0..=5 {
                    for fold in [false, true] {
                        let found = db.nearest_param(&key, max, fold).map(|p| p.name.clone());
                        let want = scan_nearest(&db, &key, max, fold);
                        assert_eq!(found, want, "nearest_param({key:?}, {max}, {fold})");
                    }
                }
                if key.is_empty() {
                    continue;
                }
                let unknown: Vec<_> = CheckSession::new(&db)
                    .check_text(&format!("{key} = 1\n"))
                    .into_iter()
                    .filter(|d| d.code == DiagCode::UnknownKey)
                    .collect();
                if db.param(&key).is_some() {
                    assert!(unknown.is_empty(), "{key:?} is known");
                    continue;
                }
                let want = match &folded {
                    Some(twin) => Some((
                        format!(
                            "parameter names are case-sensitive here; did you mean \"{twin}\"?"
                        ),
                        twin.clone(),
                    )),
                    None => scan_nearest(&db, &key, 3, false)
                        .map(|near| (format!("did you mean \"{near}\"?"), near)),
                };
                let (message, fix) = match want {
                    Some((message, to)) => {
                        let from = key.clone();
                        (Some(message), Some(Fix::RenameKey { from, to }))
                    }
                    None => (None, None),
                };
                assert_eq!(unknown.len(), 1, "{key:?}");
                assert_eq!(
                    (&unknown[0].suggestion, &unknown[0].fix),
                    (&message, &fix),
                    "unknown key {key:?}"
                );
            }
        }
    }
    assert!(steps >= 200, "{steps} oracle steps");
}

/// Asserts `DomTree::dominates` (constant-time preorder intervals)
/// against a walk up the idom chain for every block pair of every
/// function of `module`; returns the pairs compared.
fn check_dominance(name: &str, module: &spex::ir::Module) -> usize {
    let mut pairs = 0;
    for f in &module.functions {
        let cfg = Cfg::build(f);
        let dom = DomTree::build(f, &cfg);
        let n = f.blocks.len() as u32;
        for b in (0..n).map(BlockId) {
            let mut want = vec![false; n as usize];
            for d in dom.dominators_of(b) {
                want[d.index()] = true;
            }
            for a in (0..n).map(BlockId) {
                assert_eq!(
                    dom.dominates(a, b),
                    want[a.index()],
                    "{name}: {}: does {a} dominate {b}?",
                    f.name
                );
            }
            pairs += n as usize;
        }
    }
    pairs
}

#[test]
fn dominance_intervals_match_the_idom_walk() {
    let mut pairs = 0;
    for spec in spex::systems::all_systems() {
        let built = spex::systems::BuiltSystem::build(spec);
        pairs += check_dominance(built.spec.name, &built.module);
    }
    let fleet = spex::systems::fleet::generate_fleet(&spex::systems::fleet::FleetSpec {
        modules: 64,
        ..Default::default()
    });
    for m in &fleet {
        let program = spex::lang::parse_program(&m.source).expect("fleet source parses");
        let module = spex::ir::lower_program(&program).expect("fleet source lowers");
        pairs += check_dominance(&m.name, &module);
    }
    // Unreachable code: a block after `return` dominates only itself.
    let program =
        spex::lang::parse_program("int f(int x) { return x; x = 2; if (x) { x = 3; } return x; }")
            .unwrap();
    pairs += check_dominance("unreachable", &spex::ir::lower_program(&program).unwrap());
    assert!(pairs > 100_000, "{pairs} block pairs");
}
