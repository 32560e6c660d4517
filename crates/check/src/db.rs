//! The constraint database: inferred constraints persisted for reuse.
//!
//! Inference (`Spex::analyze`) walks the whole program and is by far the
//! most expensive stage of the pipeline. Validation, in contrast, runs once
//! per configuration file — often thousands of times per system across a
//! fleet. The [`ConstraintDb`] decouples the two: it is built once per
//! system from an analysis, saved in a compact std-only text format, and
//! loaded by every checker run without touching source code again
//! (infer → persist → check).
//!
//! The database is also the one parameter index: beside its entries, in
//! first-seen order, it keeps exact-name, name-order and module →
//! parameters indexes ([`Params`]) that every lookup and mutation uses.
//! The name-order index doubles as an implicit trie: the "did you mean"
//! and case-twin lookups ([`ConstraintDb::nearest_param`]) walk it with a
//! pruned edit-distance search instead of scoring every name.
//!
//! # Format versions
//!
//! * `v1` — `c <kind> | <func> <line> <col>` constraint lines, no
//!   inference provenance;
//! * `v2` (current) — each constraint line carries a trailing
//!   `| <module>` provenance token naming the workspace module the
//!   constraint was inferred from (empty for hand-built databases).
//!
//! [`ConstraintDb::load_from_str`] reads both and migrates `v1` databases
//! in place (provenance becomes empty); [`ConstraintDb::save_to_string`]
//! always writes `v2`. Databases from incremental or sharded analysis runs
//! combine with [`ConstraintDb::merge`], which resolves conflicts
//! deterministically (tightest constraint wins) and records every decision
//! in a [`MergeReport`].

use spex_conf::Dialect;
use spex_core::constraint::{
    BasicType, CmpOp, Constraint, ConstraintKind, ControlDep, EnumAlternative, EnumRange,
    EnumValue, NumericRange, RangeSegment, SemType, SizeUnit, TimeUnit, ValueRel,
};
use spex_lang::diag::Span;
use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Magic line of the legacy `v1` format (still loadable).
const MAGIC_V1: &str = "spex-constraint-db v1";
/// Magic line of the current `v2` format.
const MAGIC_V2: &str = "spex-constraint-db v2";

/// All constraints of one parameter. Only a [`ConstraintDb`] builds
/// entries, so `provenance` always has exactly one slot per constraint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ParamEntry {
    /// The parameter's name as written in config files.
    pub name: String,
    /// Constraints attributed to the parameter (multi-parameter
    /// constraints are stored under the same parameter the inference
    /// passes attribute them to: the dependent for control dependencies,
    /// the left-hand side for value relationships).
    pub constraints: Vec<Constraint>,
    /// Inference provenance, parallel to `constraints`: the workspace
    /// module each constraint was inferred from, or empty for hand-built
    /// and migrated-`v1` constraints.
    pub provenance: Vec<String>,
}

impl ParamEntry {
    /// Iterates `(constraint, provenance-module)` pairs.
    pub fn with_provenance(&self) -> impl Iterator<Item = (&Constraint, &str)> {
        self.constraints
            .iter()
            .zip(self.provenance.iter().map(String::as_str))
    }
}

/// Key → positions of the entries filed under it, ascending.
type PositionIndex = HashMap<String, Vec<usize>>;

fn link(index: &mut PositionIndex, key: &str, i: usize) {
    let positions = index.entry(key.to_string()).or_default();
    if let Err(at) = positions.binary_search(&i) {
        positions.insert(at, i);
    }
}

fn unlink(index: &mut PositionIndex, key: &str, i: usize) {
    if let Some(positions) = index.get_mut(key) {
        positions.retain(|&p| p != i);
        if positions.is_empty() {
            index.remove(key);
        }
    }
}

/// A database's parameter entries in first-seen order, with the indexes
/// every lookup goes through. Read-only outside this module: it
/// dereferences to `[ParamEntry]` (`iter`, `len`, indexing, `for p in
/// &db.params`), and only [`ConstraintDb`]'s methods change it, so the
/// indexes cannot drift from the entries.
#[derive(Debug, Clone, Default)]
pub struct Params {
    entries: Vec<ParamEntry>,
    /// Exact name → position in `entries`.
    by_name: HashMap<String, usize>,
    /// Every position in `entries`, ordered by name (byte order): the
    /// order `save_to_string` writes and `nearest_param` walks.
    by_order: Vec<usize>,
    /// Provenance module → entries holding a constraint inferred from it.
    by_module: PositionIndex,
    /// At least the longest name's length in chars (a removal leaves it
    /// as it was): a key longer by more than `d` chars is more than `d`
    /// edits from every name.
    longest: usize,
}

impl Deref for Params {
    type Target = [ParamEntry];

    fn deref(&self) -> &[ParamEntry] {
        &self.entries
    }
}

impl<'a> IntoIterator for &'a Params {
    type Item = &'a ParamEntry;
    type IntoIter = std::slice::Iter<'a, ParamEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl Params {
    /// Where `name` sits (`Ok`) or would sit (`Err`) in `by_order`. A
    /// name after the last one, as every name of a loading database is,
    /// costs one comparison.
    fn order_of(&self, name: &str) -> Result<usize, usize> {
        let name_at = |&p: &usize| self.entries[p].name.as_str();
        match self.by_order.last().map(name_at) {
            Some(last) if last < name => Err(self.by_order.len()),
            _ => (self.by_order).binary_search_by(|p| name_at(p).cmp(name)),
        }
    }

    /// Position of the entry named `name`, appending an empty entry first
    /// when there is none.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        let at = self
            .order_of(name)
            .expect_err("a new name is not ordered yet");
        self.entries.push(ParamEntry {
            name: name.to_string(),
            constraints: Vec::new(),
            provenance: Vec::new(),
        });
        let i = self.entries.len() - 1;
        self.by_name.insert(name.to_string(), i);
        self.by_order.insert(at, i);
        self.longest = self.longest.max(name.chars().count());
        i
    }

    /// Appends a constraint inferred from `module` to entry `i`.
    fn push(&mut self, i: usize, c: Constraint, module: &str) {
        self.entries[i].constraints.push(c);
        self.entries[i].provenance.push(module.to_string());
        link(&mut self.by_module, module, i);
    }

    /// Drops every constraint of entry `i` inferred from `module`,
    /// returning how many went.
    fn remove_from(&mut self, i: usize, module: &str) -> usize {
        let entry = &mut self.entries[i];
        let before = entry.constraints.len();
        let mut keep = entry.provenance.iter().map(|m| m != module);
        entry.constraints.retain(|_| keep.next() == Some(true));
        entry.provenance.retain(|m| m != module);
        unlink(&mut self.by_module, module, i);
        before - entry.constraints.len()
    }

    /// Removes entry `i`; later entries move down one position.
    fn remove(&mut self, i: usize) {
        let at = self
            .order_of(&self.entries[i].name)
            .expect("every entry is ordered");
        self.by_order.remove(at);
        let entry = self.entries.remove(i);
        self.by_name.remove(&entry.name);
        for module in &entry.provenance {
            unlink(&mut self.by_module, module, i);
        }
        let positions = (self.by_name.values_mut())
            .chain(self.by_order.iter_mut())
            .chain(self.by_module.values_mut().flatten());
        for p in positions.filter(|p| **p > i) {
            *p -= 1;
        }
    }

    /// Rebuilds every index from the entries (after they were reordered).
    fn reindex(&mut self) {
        for entry in std::mem::take(self).entries {
            let i = self.slot(&entry.name);
            for (c, module) in entry.constraints.into_iter().zip(entry.provenance) {
                self.push(i, c, &module);
            }
        }
    }
}

/// The per-system constraint database.
#[derive(Debug)]
pub struct ConstraintDb {
    /// The subject system's name.
    pub system: String,
    /// The system's config-file dialect.
    pub dialect: Dialect,
    /// Per-parameter entries, in first-seen order (read-only; see
    /// [`Params`]).
    pub params: Params,
    /// How many times this database lineage has been cloned (shared by
    /// every clone; see [`ConstraintDb::clone_count`]).
    clones: Arc<AtomicUsize>,
}

/// Cloning a database is an O(db) copy of every constraint — exactly the
/// cost the borrowed [`CheckSession`](crate::CheckSession) exists to
/// avoid — so each clone ticks a lineage-shared counter that regression
/// tests and benchmarks assert against.
impl Clone for ConstraintDb {
    fn clone(&self) -> ConstraintDb {
        self.clones.fetch_add(1, Ordering::Relaxed);
        ConstraintDb {
            system: self.system.clone(),
            dialect: self.dialect,
            params: self.params.clone(),
            clones: Arc::clone(&self.clones),
        }
    }
}

/// Equality is over content (system, dialect, entries in order); the
/// clone counter is instrumentation, not state.
impl PartialEq for ConstraintDb {
    fn eq(&self, other: &ConstraintDb) -> bool {
        self.system == other.system
            && self.dialect == other.dialect
            && *self.params == *other.params
    }
}

/// A malformed database file.
#[derive(Debug, Clone, PartialEq)]
pub struct DbError {
    /// 1-based line of the offence.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint db line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DbError {}

impl ConstraintDb {
    /// An empty database for a system.
    pub fn new(system: impl Into<String>, dialect: Dialect) -> ConstraintDb {
        ConstraintDb {
            system: system.into(),
            dialect,
            params: Params::default(),
            clones: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// How many times this database — or any database in its clone
    /// lineage — has been cloned. Each clone copies every constraint
    /// (O(db)), so hot paths are expected to keep this flat; the
    /// workspace regression tests assert exactly that.
    pub fn clone_count(&self) -> usize {
        self.clones.load(Ordering::Relaxed)
    }

    /// Builds a database from a finished analysis. Every analyzed
    /// parameter becomes an entry, even when no constraints were inferred
    /// for it (so the checker knows the name is legal).
    pub fn from_analysis(
        system: impl Into<String>,
        dialect: Dialect,
        analysis: &spex_core::SpexAnalysis,
    ) -> ConstraintDb {
        let mut db = ConstraintDb::new(system, dialect);
        for report in &analysis.reports {
            db.note_param(&report.param.name);
            for c in &report.constraints {
                db.add(c.clone());
            }
        }
        db
    }

    /// Registers a parameter name without constraints (a legal key).
    pub fn note_param(&mut self, name: &str) {
        self.params.slot(name);
    }

    /// Registers many legal parameter names.
    pub fn note_params<I: IntoIterator<Item = S>, S: AsRef<str>>(&mut self, names: I) {
        for n in names {
            self.note_param(n.as_ref());
        }
    }

    /// Adds one constraint under its parameter, with empty provenance.
    pub fn add(&mut self, c: Constraint) {
        self.add_from(c, "");
    }

    /// Adds one constraint under its parameter, recording the workspace
    /// module it was inferred from.
    pub fn add_from(&mut self, c: Constraint, module: &str) {
        let i = self.params.slot(&c.param);
        self.params.push(i, c, module);
    }

    /// Removes every constraint of `param` that was inferred from
    /// `module`, returning how many were dropped. The parameter entry
    /// itself stays (the name remains a legal key).
    pub fn remove_source_param(&mut self, module: &str, param: &str) -> usize {
        let found = self.params.by_name.get(param).copied();
        found.map_or(0, |i| self.params.remove_from(i, module))
    }

    /// Replaces `param`'s constraints from `module` with a fresh list
    /// (removing the old ones, appending the new ones under that
    /// provenance). Returns `(removed, added)` counts. Used by incremental
    /// re-analysis to swap in one module's re-inferred constraints without
    /// touching what other modules contributed.
    pub fn replace_source_param(
        &mut self,
        module: &str,
        param: &str,
        fresh: Vec<Constraint>,
    ) -> (usize, usize) {
        let removed = self.remove_source_param(module, param);
        let added = fresh.len();
        let i = self.params.slot(param);
        for c in fresh {
            self.params.push(i, c, module);
        }
        (removed, added)
    }

    /// Names of parameters holding at least one constraint inferred from
    /// `module`, in entry order (used to garbage-collect a module's stale
    /// contribution, e.g. after a workspace resumes from a persisted
    /// database).
    pub fn params_from_source(&self, module: &str) -> Vec<String> {
        let found = self.params.by_module.get(module).into_iter().flatten();
        found.map(|&i| self.params[i].name.clone()).collect()
    }

    /// Drops a parameter entry entirely (name and constraints). Returns
    /// whether it existed.
    pub fn remove_param(&mut self, name: &str) -> bool {
        let found = self.params.by_name.get(name).copied();
        found.map(|i| self.params.remove(i)).is_some()
    }

    /// Entry lookup by exact name.
    pub fn param(&self, name: &str) -> Option<&ParamEntry> {
        self.params.by_name.get(name).map(|&i| &self.params[i])
    }

    /// Entry lookup ignoring ASCII case (for "wrong case" suggestions).
    /// Among several case variants the smallest name in byte order wins:
    /// the one [`save_to_string`](ConstraintDb::save_to_string) writes
    /// first, so the answer does not depend on insertion order.
    pub fn param_ignore_case(&self, name: &str) -> Option<&ParamEntry> {
        self.nearest_param(name, 0, true)
    }

    /// The entry whose name is nearest to `key` within `max_distance`
    /// edits (Levenshtein distance over chars; with `fold_case`, letters
    /// differing only in ASCII case match). Among equal distances the
    /// smallest name in byte order wins, as in
    /// [`param_ignore_case`](ConstraintDb::param_ignore_case).
    ///
    /// The name-ordered index is walked as an implicit trie. Each name
    /// reuses the dynamic-programming rows of the prefix it shares with
    /// the previous name and extends them one char at a time, each row
    /// banded to the `2 * max_distance + 1` cells a match can pass
    /// through, so no row grows with the key. A row's minimum never
    /// decreases as the prefix grows, so once it reaches the best
    /// distance found so far (or passes `max_distance`), no name under
    /// that prefix can do better, and a search skips them all. Names come
    /// in byte order, so the first name found at the final distance is
    /// the smallest.
    pub fn nearest_param(
        &self,
        key: &str,
        max_distance: usize,
        fold_case: bool,
    ) -> Option<&ParamEntry> {
        let (band, dead) = (2 * max_distance + 1, max_distance + 1);
        // A key more than `max_distance` chars longer than every name is
        // too far from all of them, so no key is read past that length.
        let most = self.params.longest + max_distance;
        let key: Vec<char> = key.chars().take(most + 1).collect();
        if key.len() > most {
            return None;
        }
        let key_len = key.len();
        // Row `j` holds the distances from the current name's first `j`
        // chars to the key's first `j + t - max_distance` chars, `t` in
        // `0..band`; cells off the key, or off the band, are `dead`.
        let mut rows: Vec<usize> = (0..band)
            .map(|t| match t.checked_sub(max_distance) {
                Some(i) if i <= key_len => i,
                _ => dead,
            })
            .collect();
        let order = &self.params.by_order;
        // The best entry so far, and the distance a better one must beat.
        let (mut best, mut bound) = (None, dead);
        // `rows` describes the first `depth` chars of `prev`.
        let (mut prev, mut depth) = ("", 0);
        let mut k = 0;
        while k < order.len() && bound > 0 {
            let entry = &self.params[order[k]];
            let name = entry.name.as_str();
            let shared = prev.chars().zip(name.chars()).take(depth);
            depth = shared.take_while(|(a, b)| a == b).count();
            rows.truncate((depth + 1) * band);
            prev = name;
            let mut pruned = None;
            for (at, c) in name.char_indices().skip(depth) {
                // Row `depth + 1` from row `depth` (which starts at `above`).
                let (above, mut row_min) = (depth * band, dead);
                for t in 0..band {
                    let cell = match (depth + 1 + t).checked_sub(max_distance) {
                        Some(0) => depth + 1,
                        Some(i) if i <= key_len => {
                            let a = key[i - 1];
                            let same = if fold_case {
                                a.eq_ignore_ascii_case(&c)
                            } else {
                                a == c
                            };
                            let mut cell = rows[above + t] + usize::from(!same);
                            if t + 1 < band {
                                cell = cell.min(rows[above + t + 1] + 1);
                            }
                            if t > 0 {
                                cell = cell.min(rows[above + band + t - 1] + 1);
                            }
                            cell.min(dead)
                        }
                        _ => dead,
                    };
                    row_min = row_min.min(cell);
                    rows.push(cell);
                }
                depth += 1;
                if row_min >= bound {
                    pruned = Some(&name.as_bytes()[..at + c.len_utf8()]);
                    break;
                }
            }
            k += 1;
            match pruned {
                // Skip every name under the prefix: gallop over the ones
                // after this name, then binary-search the last stride.
                Some(prefix) => {
                    let rest = &order[k..];
                    let under = |&p: &usize| self.params[p].name.as_bytes().starts_with(prefix);
                    let mut stride = 1;
                    while stride <= rest.len() && under(&rest[stride - 1]) {
                        stride *= 2;
                    }
                    let (lo, hi) = (stride / 2, stride.min(rest.len()));
                    k += lo + rest[lo..hi].partition_point(under);
                }
                // The whole name is read: its distance is the key's cell.
                None => {
                    let t = (key_len + max_distance).checked_sub(depth);
                    if let Some(distance) = t.filter(|&t| t < band).map(|t| rows[depth * band + t])
                    {
                        if distance < bound {
                            (best, bound) = (Some(entry), distance);
                        }
                    }
                }
            }
        }
        best
    }

    /// All known parameter names, in entry order.
    pub fn param_names(&self) -> impl Iterator<Item = &str> {
        self.params.iter().map(|p| p.name.as_str())
    }

    /// Total constraint count.
    pub fn constraint_count(&self) -> usize {
        self.params.iter().map(|p| p.constraints.len()).sum()
    }

    // -- Serialization --------------------------------------------------

    /// Serializes the database to the current (`v2`) text format, in
    /// **canonical order**: parameters sorted by name, each parameter's
    /// constraints sorted by serialized kind, origin and provenance.
    ///
    /// Canonical ordering makes the byte-equality guarantee hold across
    /// build histories: an incrementally maintained multi-module
    /// workspace appends re-inferred constraints at the end of an entry,
    /// so its in-memory order can differ from a from-scratch analysis of
    /// the same sources — but both serialize to the same bytes, which is
    /// what fleet config-distribution and content-addressed caching key
    /// on. Loading preserves file order, so `load(save(db))` yields a
    /// canonically ordered database (see
    /// [`canonicalize`](ConstraintDb::canonicalize)).
    pub fn save_to_string(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC_V2);
        out.push('\n');
        out.push_str(&format!("system {}\n", esc(&self.system)));
        out.push_str(&format!("dialect {}\n", dialect_tag(self.dialect)));
        for &pi in &self.params.by_order {
            let p = &self.params[pi];
            out.push_str(&format!("param {}\n", esc(&p.name)));
            let mut rows: Vec<(&Constraint, &str)> = p.with_provenance().collect();
            rows.sort_by_cached_key(|(c, m)| canonical_key(c, m));
            for (c, module) in rows {
                out.push_str(&format!(
                    "c {} | {} {} {} | {}\n",
                    kind_to_tokens(&c.kind),
                    esc(&c.in_function),
                    c.span.line,
                    c.span.col,
                    esc(module),
                ));
            }
        }
        out
    }

    /// Reorders the database in place into the canonical order
    /// [`save_to_string`](ConstraintDb::save_to_string) serializes:
    /// parameters by name, constraints by (kind, origin, provenance).
    /// After this, the in-memory database equals what `load(save(self))`
    /// returns.
    pub fn canonicalize(&mut self) {
        let entries = &mut self.params.entries;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        for p in entries.iter_mut() {
            let mut rows: Vec<(Constraint, String)> = p
                .constraints
                .drain(..)
                .zip(p.provenance.drain(..))
                .collect();
            rows.sort_by_cached_key(|(c, m)| canonical_key(c, m));
            (p.constraints, p.provenance) = rows.into_iter().unzip();
        }
        self.params.reindex();
    }

    /// Parses the text format back into a database. Both `v1` and `v2`
    /// inputs are accepted; `v1` constraints migrate with empty
    /// provenance, so `load → save` rewrites a legacy database as `v2`
    /// without losing anything.
    pub fn load_from_str(text: &str) -> Result<ConstraintDb, DbError> {
        let mut lines = text.lines().enumerate();
        let expect = |lineno: usize, msg: &str| DbError {
            line: lineno + 1,
            message: msg.to_string(),
        };
        let (n0, magic) = lines.next().ok_or_else(|| expect(0, "empty file"))?;
        let version = match magic {
            m if m == MAGIC_V1 => 1,
            m if m == MAGIC_V2 => 2,
            _ => return Err(expect(n0, "bad magic line")),
        };
        let (n1, sys) = lines
            .next()
            .ok_or_else(|| expect(1, "missing system line"))?;
        let system = sys
            .strip_prefix("system ")
            .ok_or_else(|| expect(n1, "expected `system <name>`"))
            .map(unesc)?;
        let (n2, dia) = lines
            .next()
            .ok_or_else(|| expect(2, "missing dialect line"))?;
        let dialect = dia
            .strip_prefix("dialect ")
            .and_then(dialect_from_tag)
            .ok_or_else(|| expect(n2, "expected `dialect key-value|directive|space`"))?;

        let mut db = ConstraintDb::new(system, dialect);
        let mut current: Option<String> = None;
        for (n, line) in lines {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("param ") {
                let name = unesc(rest);
                db.note_param(&name);
                current = Some(name);
            } else if let Some(rest) = line.strip_prefix("c ") {
                let param = current
                    .clone()
                    .ok_or_else(|| expect(n, "constraint before any `param`"))?;
                let mut fields = rest.split(" | ");
                let kind_part = fields.next().expect("split yields at least one field");
                let origin_part = fields
                    .next()
                    .ok_or_else(|| expect(n, "constraint missing ` | ` origin separator"))?;
                let module = match (version, fields.next()) {
                    (1, None) => String::new(),
                    (2, Some(m)) => unesc(m),
                    (1, Some(_)) => {
                        return Err(expect(n, "v1 constraint carries a v2 provenance field"))
                    }
                    (_, None) => {
                        return Err(expect(n, "v2 constraint missing ` | <module>` provenance"))
                    }
                    _ => unreachable!("version is 1 or 2"),
                };
                if fields.next().is_some() {
                    return Err(expect(n, "constraint has too many ` | ` fields"));
                }
                let kind = kind_from_tokens(kind_part).map_err(|m| DbError {
                    line: n + 1,
                    message: m,
                })?;
                let toks: Vec<&str> = origin_part.split(' ').collect();
                if toks.len() != 3 {
                    return Err(expect(n, "origin must be `<func> <line> <col>`"));
                }
                let span = Span::new(
                    toks[1].parse().map_err(|_| expect(n, "bad origin line"))?,
                    toks[2].parse().map_err(|_| expect(n, "bad origin col"))?,
                );
                db.add_from(
                    Constraint {
                        param,
                        kind,
                        in_function: unesc(toks[0]),
                        span,
                    },
                    &module,
                );
            } else {
                return Err(expect(n, "unrecognised line"));
            }
        }
        Ok(db)
    }

    /// Writes the database to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save_to_string())
    }

    /// Reads a database from a file. Every failure — unreadable file or
    /// malformed record — names the file; parse failures also carry the
    /// 1-based line of the offending record (`<path>: constraint db line
    /// <n>: <why>`), so a fleet job churning through hundreds of databases
    /// pinpoints the bad one without re-running anything.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<ConstraintDb> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        ConstraintDb::load_from_str(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    // -- Merging --------------------------------------------------------

    /// Merges another database for the *same system* into this one, so
    /// incremental re-analysis shards and per-module runs can combine.
    ///
    /// Resolution is deterministic:
    ///
    /// * a constraint identical in kind to one already present is dropped
    ///   as a duplicate (the incumbent's origin and provenance win);
    /// * two numeric ranges conflict → the **tightest** valid interval
    ///   wins (finite beats infinite, narrower beats wider, ties keep the
    ///   incumbent), and the losing side is recorded in the report;
    /// * two integer basic types conflict → the narrower width wins;
    /// * two enumerative ranges with *overlapping* alternative sets
    ///   conflict → their alternatives are unioned, with *invalid*
    ///   winning when the sides disagree about a value,
    ///   `unmatched_is_error` ORed, and `case_insensitive` ANDed (each
    ///   rule keeps the tighter behaviour); enums over disjoint domains
    ///   (a word enum and a switch-arm integer enum) simply coexist;
    /// * everything else coexists and is simply appended.
    ///
    /// Winning challengers carry their own provenance into the merged
    /// database; every conflict decision is recorded in the returned
    /// [`MergeReport`].
    pub fn merge(&mut self, other: &ConstraintDb) -> Result<MergeReport, MergeError> {
        if other.system != self.system {
            return Err(MergeError::SystemMismatch {
                ours: self.system.clone(),
                theirs: other.system.clone(),
            });
        }
        if other.dialect != self.dialect {
            return Err(MergeError::DialectMismatch {
                ours: self.dialect,
                theirs: other.dialect,
            });
        }
        let mut report = MergeReport::default();
        for theirs in &other.params {
            if self.param(&theirs.name).is_none() {
                report.params_added += 1;
            }
            for (c, module) in theirs.with_provenance() {
                self.merge_one(c, module, &mut report);
            }
            self.note_param(&theirs.name);
        }
        Ok(report)
    }

    fn merge_one(&mut self, c: &Constraint, module: &str, report: &mut MergeReport) {
        let slot = self.params.slot(&c.param);
        let entry = &self.params.entries[slot];
        // Exact duplicate: the incumbent wins outright.
        if entry.constraints.iter().any(|have| have.kind == c.kind) {
            report.deduped += 1;
            return;
        }
        // A same-class incumbent to resolve against, if any. Two
        // enumerative ranges conflict only when their alternative sets
        // overlap — a parameter legitimately carries disjoint word and
        // integer enums (strcmp chain vs. switch), and blending a
        // challenger into an unrelated domain would both corrupt it and
        // make the merge order-dependent.
        let rival = entry
            .constraints
            .iter()
            .position(|have| match (&have.kind, &c.kind) {
                (ConstraintKind::Range(_), ConstraintKind::Range(_))
                | (ConstraintKind::BasicType(_), ConstraintKind::BasicType(_)) => true,
                (ConstraintKind::EnumRange(a), ConstraintKind::EnumRange(b)) => a
                    .alternatives
                    .iter()
                    .any(|x| b.alternatives.iter().any(|y| x.value == y.value)),
                _ => false,
            });
        let Some(i) = rival else {
            self.params.push(slot, c.clone(), module);
            report.added += 1;
            return;
        };
        let incumbent = entry.constraints[i].clone();
        let incumbent_module = entry.provenance[i].clone();
        let resolved = resolve_conflict(&incumbent.kind, &c.kind);
        report.conflicts.push(MergeConflict {
            param: c.param.clone(),
            category: c.kind.category(),
            kept: match resolved {
                ConflictWinner::Incumbent => incumbent.to_string(),
                ConflictWinner::Challenger => c.to_string(),
                ConflictWinner::Blend(_) => String::new(),
            },
            dropped: match resolved {
                ConflictWinner::Incumbent => c.to_string(),
                ConflictWinner::Challenger => incumbent.to_string(),
                ConflictWinner::Blend(_) => String::new(),
            },
            kept_from: match resolved {
                ConflictWinner::Challenger => module.to_string(),
                _ => incumbent_module.clone(),
            },
            dropped_from: match resolved {
                ConflictWinner::Challenger => incumbent_module.clone(),
                _ => module.to_string(),
            },
        });
        let entry = &mut self.params.entries[slot];
        match resolved {
            ConflictWinner::Incumbent => {}
            ConflictWinner::Challenger => {
                entry.constraints[i] = c.clone();
                entry.provenance[i] = module.to_string();
                if !entry.provenance.contains(&incumbent_module) {
                    unlink(&mut self.params.by_module, &incumbent_module, slot);
                }
                link(&mut self.params.by_module, module, slot);
            }
            ConflictWinner::Blend(kind) => {
                let blended = report.conflicts.last_mut().expect("just pushed");
                blended.kept = Constraint {
                    param: c.param.clone(),
                    kind: kind.clone(),
                    in_function: incumbent.in_function.clone(),
                    span: incumbent.span,
                }
                .to_string();
                blended.dropped = c.to_string();
                entry.constraints[i].kind = kind;
            }
        }
    }
}

/// Who wins a merge conflict between two same-class constraints.
enum ConflictWinner {
    /// Keep the constraint already in the database.
    Incumbent,
    /// Replace it with the merged-in one (tighter).
    Challenger,
    /// Neither as-is: store this combined kind under the incumbent's slot.
    Blend(ConstraintKind),
}

/// Resolves a same-class conflict per the tightest-wins rules of
/// [`ConstraintDb::merge`].
fn resolve_conflict(incumbent: &ConstraintKind, challenger: &ConstraintKind) -> ConflictWinner {
    match (incumbent, challenger) {
        (ConstraintKind::Range(a), ConstraintKind::Range(b)) => {
            // Tightest wins: finite beats unbounded, narrower beats wider,
            // ties keep the incumbent. (Careful: `Option`'s derived order
            // puts `None` first, which would invert the rule.)
            let challenger_tighter = match (interval_width(a), interval_width(b)) {
                (None, Some(_)) => true,
                (Some(wa), Some(wb)) => wb < wa,
                (_, None) => false,
            };
            if challenger_tighter {
                ConflictWinner::Challenger
            } else {
                ConflictWinner::Incumbent
            }
        }
        (ConstraintKind::BasicType(a), ConstraintKind::BasicType(b)) => match (a, b) {
            (
                BasicType::Int { bits: wa, .. },
                BasicType::Int {
                    bits: wb,
                    signed: sb,
                },
            ) if wb < wa || (wa == wb && !sb) => ConflictWinner::Challenger,
            _ => ConflictWinner::Incumbent,
        },
        (ConstraintKind::EnumRange(a), ConstraintKind::EnumRange(b)) => {
            let mut merged = a.clone();
            for alt in &b.alternatives {
                match merged
                    .alternatives
                    .iter_mut()
                    .find(|m| m.value == alt.value)
                {
                    // Disagreeing validity: invalid (tighter) wins.
                    Some(m) => m.valid = m.valid && alt.valid,
                    None => merged.alternatives.push(alt.clone()),
                }
            }
            merged.unmatched_is_error = a.unmatched_is_error || b.unmatched_is_error;
            merged.unmatched_overwrites = a.unmatched_overwrites || b.unmatched_overwrites;
            merged.case_insensitive = a.case_insensitive && b.case_insensitive;
            if merged == *a {
                ConflictWinner::Incumbent
            } else {
                ConflictWinner::Blend(ConstraintKind::EnumRange(merged))
            }
        }
        _ => ConflictWinner::Incumbent,
    }
}

/// Width of a range's valid interval, for tightest-wins comparison.
/// `None` means unbounded on at least one side (always looser than any
/// finite interval); a range with no valid interval at all is treated as
/// maximally loose.
fn interval_width(r: &NumericRange) -> Option<u128> {
    let (lo, hi) = r.valid_interval()?;
    match (lo, hi) {
        (Some(lo), Some(hi)) => Some(hi.abs_diff(lo) as u128),
        _ => None,
    }
}

/// Why two databases cannot merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The databases describe different systems.
    SystemMismatch {
        /// The receiving database's system.
        ours: String,
        /// The merged-in database's system.
        theirs: String,
    },
    /// The databases use different config dialects.
    DialectMismatch {
        /// The receiving database's dialect.
        ours: Dialect,
        /// The merged-in database's dialect.
        theirs: Dialect,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::SystemMismatch { ours, theirs } => {
                write!(f, "cannot merge db for system {theirs:?} into {ours:?}")
            }
            MergeError::DialectMismatch { ours, theirs } => {
                write!(f, "cannot merge db with dialect {theirs:?} into {ours:?}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// One resolved merge conflict, for auditability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflict {
    /// The parameter both constraints describe.
    pub param: String,
    /// The conflicting constraints' category.
    pub category: &'static str,
    /// Rendering of the constraint that survived (possibly a blend).
    pub kept: String,
    /// Rendering of the constraint that lost.
    pub dropped: String,
    /// Provenance module of the surviving constraint.
    pub kept_from: String,
    /// Provenance module of the losing constraint.
    pub dropped_from: String,
}

/// What a [`ConstraintDb::merge`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Parameters that did not exist in the receiving database.
    pub params_added: usize,
    /// Constraints appended without conflict.
    pub added: usize,
    /// Constraints dropped as exact duplicates.
    pub deduped: usize,
    /// Same-class conflicts and how each was resolved.
    pub conflicts: Vec<MergeConflict>,
}

impl MergeReport {
    /// Folds another merge's outcome into this one (a coordinator merging
    /// several shard databases reports one combined tally).
    pub fn absorb(&mut self, other: MergeReport) {
        self.params_added += other.params_added;
        self.added += other.added;
        self.deduped += other.deduped;
        self.conflicts.extend(other.conflicts);
    }

    /// Renders the merge outcome as human text: the headline counts, then
    /// one audit line per resolved conflict saying which constraint
    /// survived and where both sides came from.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} new parameter(s), {} constraint(s) added, {} duplicate(s) dropped, \
             {} conflict(s) resolved\n",
            self.params_added,
            self.added,
            self.deduped,
            self.conflicts.len(),
        );
        let from = |m: &str| {
            if m.is_empty() {
                "<hand-built>".to_string()
            } else {
                m.to_string()
            }
        };
        for c in &self.conflicts {
            out.push_str(&format!(
                "  \"{}\" ({}): kept {} (from {}), dropped {} (from {})\n",
                c.param,
                c.category,
                c.kept,
                from(&c.kept_from),
                c.dropped,
                from(&c.dropped_from),
            ));
        }
        out
    }
}

/// The canonical sort key of one constraint row: the serialized kind
/// first (total, content-derived order), then origin and provenance as
/// tie-breakers. Derived from the exact tokens [`ConstraintDb::save_to_string`]
/// writes, so sorting by it and sorting the output lines agree.
fn canonical_key(c: &Constraint, module: &str) -> (String, String, u32, u32, String) {
    (
        kind_to_tokens(&c.kind),
        c.in_function.clone(),
        c.span.line,
        c.span.col,
        module.to_string(),
    )
}

// -- Token helpers ------------------------------------------------------

/// Escapes a string into a single space-free token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 1);
    if s.is_empty() {
        return "%_".to_string();
    }
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%%"),
            ' ' => out.push_str("%s"),
            '\t' => out.push_str("%t"),
            '\n' => out.push_str("%n"),
            '\r' => out.push_str("%r"),
            '|' => out.push_str("%p"),
            ',' => out.push_str("%c"),
            ':' => out.push_str("%d"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc`].
fn unesc(s: &str) -> String {
    if s == "%_" {
        return String::new();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '%' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('%') => out.push('%'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('p') => out.push('|'),
            Some('c') => out.push(','),
            Some('d') => out.push(':'),
            Some('_') => {}
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

fn dialect_tag(d: Dialect) -> &'static str {
    match d {
        Dialect::KeyValue => "key-value",
        Dialect::Directive => "directive",
        Dialect::SpaceSeparated => "space",
    }
}

fn dialect_from_tag(t: &str) -> Option<Dialect> {
    match t {
        "key-value" => Some(Dialect::KeyValue),
        "directive" => Some(Dialect::Directive),
        "space" => Some(Dialect::SpaceSeparated),
        _ => None,
    }
}

fn time_unit_tag(u: TimeUnit) -> &'static str {
    match u {
        TimeUnit::Micro => "us",
        TimeUnit::Milli => "ms",
        TimeUnit::Sec => "s",
        TimeUnit::Min => "m",
        TimeUnit::Hour => "h",
    }
}

fn time_unit_from_tag(t: &str) -> Option<TimeUnit> {
    match t {
        "us" => Some(TimeUnit::Micro),
        "ms" => Some(TimeUnit::Milli),
        "s" => Some(TimeUnit::Sec),
        "m" => Some(TimeUnit::Min),
        "h" => Some(TimeUnit::Hour),
        _ => None,
    }
}

fn size_unit_tag(u: SizeUnit) -> &'static str {
    match u {
        SizeUnit::B => "b",
        SizeUnit::KB => "kb",
        SizeUnit::MB => "mb",
        SizeUnit::GB => "gb",
    }
}

fn size_unit_from_tag(t: &str) -> Option<SizeUnit> {
    match t {
        "b" => Some(SizeUnit::B),
        "kb" => Some(SizeUnit::KB),
        "mb" => Some(SizeUnit::MB),
        "gb" => Some(SizeUnit::GB),
        _ => None,
    }
}

fn cmp_tag(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Gt => ">",
        CmpOp::Le => "<=",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

fn cmp_from_tag(t: &str) -> Option<CmpOp> {
    match t {
        "<" => Some(CmpOp::Lt),
        ">" => Some(CmpOp::Gt),
        "<=" => Some(CmpOp::Le),
        ">=" => Some(CmpOp::Ge),
        "==" => Some(CmpOp::Eq),
        "!=" => Some(CmpOp::Ne),
        _ => None,
    }
}

fn opt_i64(v: Option<i64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "*".to_string(),
    }
}

fn opt_i64_from(t: &str) -> Result<Option<i64>, String> {
    if t == "*" {
        return Ok(None);
    }
    t.parse().map(Some).map_err(|_| format!("bad bound `{t}`"))
}

fn kind_to_tokens(kind: &ConstraintKind) -> String {
    match kind {
        ConstraintKind::BasicType(bt) => match bt {
            BasicType::Bool => "basic bool".to_string(),
            BasicType::Int { bits, signed } => {
                format!("basic int {bits} {}", u8::from(*signed))
            }
            BasicType::Float { bits } => format!("basic float {bits}"),
            BasicType::Str => "basic str".to_string(),
            BasicType::Enum => "basic enum".to_string(),
        },
        ConstraintKind::SemanticType(st) => match st {
            SemType::FilePath => "sem file".to_string(),
            SemType::DirPath => "sem dir".to_string(),
            SemType::Port => "sem port".to_string(),
            SemType::IpAddr => "sem ip".to_string(),
            SemType::Hostname => "sem host".to_string(),
            SemType::UserName => "sem user".to_string(),
            SemType::GroupName => "sem group".to_string(),
            SemType::Time(u) => format!("sem time {}", time_unit_tag(*u)),
            SemType::Size(u) => format!("sem size {}", size_unit_tag(*u)),
            SemType::Permission => "sem perm".to_string(),
        },
        ConstraintKind::Range(r) => {
            let cuts = if r.cutpoints.is_empty() {
                ".".to_string()
            } else {
                r.cutpoints
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let segs = if r.segments.is_empty() {
                ".".to_string()
            } else {
                r.segments
                    .iter()
                    .map(|s| format!("{}:{}:{}", opt_i64(s.lo), opt_i64(s.hi), u8::from(s.valid)))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!("range {cuts} {segs}")
        }
        ConstraintKind::EnumRange(e) => {
            let alts = if e.alternatives.is_empty() {
                ".".to_string()
            } else {
                e.alternatives
                    .iter()
                    .map(|a| {
                        let (tag, v) = match &a.value {
                            EnumValue::Int(v) => ('i', v.to_string()),
                            EnumValue::Str(s) => ('s', esc(s)),
                        };
                        format!("{tag}:{v}:{}", u8::from(a.valid))
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!(
                "enum {} {} {} {alts}",
                u8::from(e.unmatched_is_error),
                u8::from(e.unmatched_overwrites),
                u8::from(e.case_insensitive),
            )
        }
        ConstraintKind::ControlDep(d) => format!(
            "dep {} {} {} {} {}",
            esc(&d.controller),
            cmp_tag(d.op),
            d.value,
            esc(&d.dependent),
            d.confidence,
        ),
        ConstraintKind::ValueRel(r) => {
            format!("rel {} {} {}", esc(&r.lhs), cmp_tag(r.op), esc(&r.rhs))
        }
    }
}

fn kind_from_tokens(s: &str) -> Result<ConstraintKind, String> {
    let toks: Vec<&str> = s.split(' ').collect();
    let bad = || format!("malformed constraint `{s}`");
    match toks.first().copied() {
        Some("basic") => {
            let bt = match toks.get(1).copied() {
                Some("bool") => BasicType::Bool,
                Some("str") => BasicType::Str,
                Some("enum") => BasicType::Enum,
                Some("int") => {
                    let bits: u8 = toks.get(2).and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                    if ![8, 16, 32, 64].contains(&bits) {
                        return Err(format!("unsupported integer width {bits} in `{s}`"));
                    }
                    BasicType::Int {
                        bits,
                        signed: toks.get(3).map(|t| *t == "1").ok_or_else(bad)?,
                    }
                }
                Some("float") => BasicType::Float {
                    bits: toks.get(2).and_then(|t| t.parse().ok()).ok_or_else(bad)?,
                },
                _ => return Err(bad()),
            };
            Ok(ConstraintKind::BasicType(bt))
        }
        Some("sem") => {
            let st = match toks.get(1).copied() {
                Some("file") => SemType::FilePath,
                Some("dir") => SemType::DirPath,
                Some("port") => SemType::Port,
                Some("ip") => SemType::IpAddr,
                Some("host") => SemType::Hostname,
                Some("user") => SemType::UserName,
                Some("group") => SemType::GroupName,
                Some("perm") => SemType::Permission,
                Some("time") => SemType::Time(
                    toks.get(2)
                        .copied()
                        .and_then(time_unit_from_tag)
                        .ok_or_else(bad)?,
                ),
                Some("size") => SemType::Size(
                    toks.get(2)
                        .copied()
                        .and_then(size_unit_from_tag)
                        .ok_or_else(bad)?,
                ),
                _ => return Err(bad()),
            };
            Ok(ConstraintKind::SemanticType(st))
        }
        Some("range") => {
            if toks.len() != 3 {
                return Err(bad());
            }
            let cutpoints = if toks[1] == "." {
                Vec::new()
            } else {
                toks[1]
                    .split(',')
                    .map(|t| t.parse().map_err(|_| bad()))
                    .collect::<Result<Vec<i64>, _>>()?
            };
            let segments = if toks[2] == "." {
                Vec::new()
            } else {
                toks[2]
                    .split(',')
                    .map(|t| {
                        let parts: Vec<&str> = t.split(':').collect();
                        if parts.len() != 3 {
                            return Err(bad());
                        }
                        Ok(RangeSegment {
                            lo: opt_i64_from(parts[0])?,
                            hi: opt_i64_from(parts[1])?,
                            valid: parts[2] == "1",
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            Ok(ConstraintKind::Range(NumericRange {
                cutpoints,
                segments,
            }))
        }
        Some("enum") => {
            if toks.len() != 5 {
                return Err(bad());
            }
            let alternatives = if toks[4] == "." {
                Vec::new()
            } else {
                toks[4]
                    .split(',')
                    .map(|t| {
                        let parts: Vec<&str> = t.split(':').collect();
                        if parts.len() != 3 {
                            return Err(bad());
                        }
                        let value = match parts[0] {
                            "i" => EnumValue::Int(parts[1].parse().map_err(|_| bad())?),
                            "s" => EnumValue::Str(unesc(parts[1])),
                            _ => return Err(bad()),
                        };
                        Ok(EnumAlternative {
                            value,
                            valid: parts[2] == "1",
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?
            };
            Ok(ConstraintKind::EnumRange(EnumRange {
                alternatives,
                unmatched_is_error: toks[1] == "1",
                unmatched_overwrites: toks[2] == "1",
                case_insensitive: toks[3] == "1",
            }))
        }
        Some("dep") => {
            if toks.len() != 6 {
                return Err(bad());
            }
            Ok(ConstraintKind::ControlDep(ControlDep {
                controller: unesc(toks[1]),
                op: cmp_from_tag(toks[2]).ok_or_else(bad)?,
                value: toks[3].parse().map_err(|_| bad())?,
                dependent: unesc(toks[4]),
                confidence: toks[5].parse().map_err(|_| bad())?,
            }))
        }
        Some("rel") => {
            if toks.len() != 4 {
                return Err(bad());
            }
            Ok(ConstraintKind::ValueRel(ValueRel {
                lhs: unesc(toks[1]),
                op: cmp_from_tag(toks[2]).ok_or_else(bad)?,
                rhs: unesc(toks[3]),
            }))
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> ConstraintDb {
        let mut db = ConstraintDb::new("Test", Dialect::KeyValue);
        db.add(Constraint {
            param: "threads".into(),
            kind: ConstraintKind::BasicType(BasicType::Int {
                bits: 32,
                signed: true,
            }),
            in_function: "startup".into(),
            span: Span::new(10, 5),
        });
        db.add(Constraint {
            param: "threads".into(),
            kind: ConstraintKind::Range(NumericRange {
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
            in_function: "startup".into(),
            span: Span::new(11, 9),
        });
        db.add(Constraint {
            param: "log mode".into(), // space: exercises token escaping
            kind: ConstraintKind::EnumRange(EnumRange {
                alternatives: vec![
                    EnumAlternative {
                        value: EnumValue::Str("a b".into()),
                        valid: true,
                    },
                    EnumAlternative {
                        value: EnumValue::Int(3),
                        valid: false,
                    },
                ],
                unmatched_is_error: true,
                unmatched_overwrites: false,
                case_insensitive: true,
            }),
            in_function: String::new(),
            span: Span::unknown(),
        });
        db.add(Constraint {
            param: "commit_siblings".into(),
            kind: ConstraintKind::ControlDep(ControlDep {
                controller: "fsync".into(),
                value: 0,
                op: CmpOp::Ne,
                dependent: "commit_siblings".into(),
                confidence: 0.875,
            }),
            in_function: "commit".into(),
            span: Span::new(3, 1),
        });
        db.add(Constraint {
            param: "min_len".into(),
            kind: ConstraintKind::ValueRel(ValueRel {
                lhs: "min_len".into(),
                op: CmpOp::Lt,
                rhs: "max_len".into(),
            }),
            in_function: "ft_get_word".into(),
            span: Span::new(7, 2),
        });
        db.add(Constraint {
            param: "nap".into(),
            kind: ConstraintKind::SemanticType(SemType::Time(TimeUnit::Min)),
            in_function: "napper".into(),
            span: Span::new(9, 9),
        });
        db.note_param("unconstrained_key");
        db
    }

    #[test]
    fn round_trips_losslessly() {
        let db = sample_db();
        let text = db.save_to_string();
        let back = ConstraintDb::load_from_str(&text).unwrap();
        // Loading yields the canonical order `save` writes.
        let mut want = db.clone();
        want.canonicalize();
        assert_eq!(want, back);
        // And the re-serialization is byte-identical.
        assert_eq!(text, back.save_to_string());
    }

    #[test]
    fn save_order_is_canonical_regardless_of_insertion_history() {
        // Two databases with the same content, built in different orders
        // (the incremental-vs-from-scratch situation), must serialize to
        // identical bytes.
        let forward = sample_db();
        let mut reversed = ConstraintDb::new("Test", Dialect::KeyValue);
        let mut rows: Vec<(Constraint, String)> = Vec::new();
        for p in &forward.params {
            for (c, m) in p.with_provenance() {
                rows.push((c.clone(), m.to_string()));
            }
        }
        for (c, m) in rows.into_iter().rev() {
            reversed.add_from(c, &m);
        }
        reversed.note_param("unconstrained_key");
        assert_ne!(
            forward.params.iter().map(|p| &p.name).collect::<Vec<_>>(),
            reversed.params.iter().map(|p| &p.name).collect::<Vec<_>>(),
            "the histories really differ in memory"
        );
        assert_eq!(forward.save_to_string(), reversed.save_to_string());
        // `canonicalize` brings the in-memory form to the saved order.
        let mut canon_fwd = forward.clone();
        let mut canon_rev = reversed.clone();
        canon_fwd.canonicalize();
        canon_rev.canonicalize();
        assert_eq!(canon_fwd, canon_rev);
    }

    #[test]
    fn round_trips_all_dialects() {
        for d in [
            Dialect::KeyValue,
            Dialect::Directive,
            Dialect::SpaceSeparated,
        ] {
            let db = ConstraintDb::new("X", d);
            let back = ConstraintDb::load_from_str(&db.save_to_string()).unwrap();
            assert_eq!(back.dialect, d);
        }
    }

    #[test]
    fn escape_round_trips_hostile_strings() {
        for s in ["", "a b", "x%y", "p|q", "a,b:c", "line\nbreak", "%_", "  "] {
            assert_eq!(unesc(&esc(s)), s, "escape failed for {s:?}");
            assert!(!esc(s).contains(' '), "escaped token has a space for {s:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(ConstraintDb::load_from_str("").is_err());
        assert!(ConstraintDb::load_from_str("not a db\n").is_err());
        let mut text = sample_db().save_to_string();
        text.push_str("c bogus tokens | f 1 1 | %_\n");
        let err = ConstraintDb::load_from_str(&text).unwrap_err();
        assert!(err.message.contains("malformed"), "{err}");
        // A v2 constraint line without its provenance field is malformed.
        let mut text = sample_db().save_to_string();
        text.push_str("c basic bool | f 1 1\n");
        let err = ConstraintDb::load_from_str(&text).unwrap_err();
        assert!(err.message.contains("provenance"), "{err}");
    }

    #[test]
    fn every_load_error_class_carries_its_one_based_line() {
        // One probe per error class `load_from_str` can produce; each
        // asserts both the complaint and the exact 1-based line of the
        // malformed record, which is what operators grep for when a fleet
        // job rejects one database out of hundreds.
        const HEADER: &str = "spex-constraint-db v2\nsystem X\ndialect key-value\n";
        let cases: &[(&str, usize, &str)] = &[
            ("", 1, "empty file"),
            ("not a db\n", 1, "bad magic"),
            ("spex-constraint-db v2", 2, "missing system line"),
            ("spex-constraint-db v2\nsys X\n", 2, "expected `system"),
            ("spex-constraint-db v2\nsystem X", 3, "missing dialect line"),
            (
                "spex-constraint-db v2\nsystem X\ndialect toml\n",
                3,
                "expected `dialect",
            ),
            // Body records: the header occupies lines 1–3, so every
            // offence below sits on line 4.
            (
                "c basic bool | f 1 1 | %_\n",
                4,
                "constraint before any `param`",
            ),
            (
                "param p\nc basic bool\n",
                5,
                "missing ` | ` origin separator",
            ),
            (
                "param p\nc basic bool | f 1 1\n",
                5,
                "missing ` | <module>` provenance",
            ),
            (
                "param p\nc basic bool | f 1 1 | m | extra\n",
                5,
                "too many ` | ` fields",
            ),
            (
                "param p\nc bogus tokens | f 1 1 | %_\n",
                5,
                "malformed constraint",
            ),
            (
                "param p\nc basic bool | f 1 | %_\n",
                5,
                "origin must be `<func> <line> <col>`",
            ),
            ("param p\nc basic bool | f x 1 | %_\n", 5, "bad origin line"),
            ("param p\nc basic bool | f 1 x | %_\n", 5, "bad origin col"),
            ("what is this\n", 4, "unrecognised line"),
        ];
        for (body, line, needle) in cases {
            // Header-level probes (offence on lines 1–3) are complete
            // texts; body probes get the valid three-line header prefixed.
            let text = if *line <= 3 {
                body.to_string()
            } else {
                format!("{HEADER}{body}")
            };
            let err = ConstraintDb::load_from_str(&text).unwrap_err();
            assert_eq!(err.line, *line, "{needle}: wrong line in {err}");
            assert!(err.message.contains(needle), "{needle}: got {err}");
            // And the Display form carries the line for free.
            assert!(err.to_string().contains(&format!("line {line}")), "{err}");
        }
    }

    #[test]
    fn load_errors_name_the_file_and_the_line() {
        let dir = std::env::temp_dir().join(format!("spex-db-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.spexdb");
        std::fs::write(
            &path,
            "spex-constraint-db v2\nsystem X\ndialect key-value\nparam p\nc basic bool | f 1 1\n",
        )
        .unwrap();
        let err = ConstraintDb::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("broken.spexdb"), "path missing: {msg}");
        assert!(msg.contains("line 5"), "line missing: {msg}");
        // A file that cannot be read at all also names itself.
        let gone = dir.join("nonexistent.spexdb");
        let err = ConstraintDb::load(&gone).unwrap_err();
        assert!(err.to_string().contains("nonexistent.spexdb"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_report_renders_counts_and_conflicts() {
        let mut ours = sample_db();
        let mut theirs = ConstraintDb::new("Test", Dialect::KeyValue);
        // A tighter range for an existing parameter (conflict) plus a
        // brand-new parameter (clean addition).
        theirs.add_from(
            Constraint {
                param: "threads".into(),
                kind: ConstraintKind::Range(NumericRange {
                    cutpoints: vec![1, 8],
                    segments: vec![
                        RangeSegment {
                            lo: None,
                            hi: Some(0),
                            valid: false,
                        },
                        RangeSegment {
                            lo: Some(1),
                            hi: Some(8),
                            valid: true,
                        },
                        RangeSegment {
                            lo: Some(9),
                            hi: None,
                            valid: false,
                        },
                    ],
                }),
                in_function: "startup".into(),
                span: Span::new(7, 1),
            },
            "shard1.c",
        );
        theirs.add_from(
            Constraint {
                param: "fresh".into(),
                kind: ConstraintKind::BasicType(BasicType::Bool),
                in_function: "init".into(),
                span: Span::new(2, 1),
            },
            "shard1.c",
        );
        let report = ours.merge(&theirs).unwrap();
        let text = report.render();
        assert!(
            text.starts_with("1 new parameter(s), 1 constraint(s) added,"),
            "{text}"
        );
        assert!(text.contains("conflict(s) resolved"), "{text}");
        for needle in ["\"threads\" (data-range): kept", "from shard1.c"] {
            assert!(text.contains(needle), "{needle} missing in {text}");
        }
        // Absorbing two reports sums the tallies.
        let mut combined = MergeReport::default();
        combined.absorb(report.clone());
        combined.absorb(report.clone());
        assert_eq!(combined.params_added, 2 * report.params_added);
        assert_eq!(combined.conflicts.len(), 2 * report.conflicts.len());
    }

    #[test]
    fn rejects_unsupported_integer_widths() {
        // A hand-edited width must be caught at load time, not crash the
        // checker's bounds computation later.
        for bits in [0, 7, 63, 255] {
            let mut text = sample_db().save_to_string();
            text.push_str(&format!(
                "param hacked\nc basic int {bits} 1 | f 1 1 | %_\n"
            ));
            let err = ConstraintDb::load_from_str(&text).unwrap_err();
            assert!(
                err.message.contains("unsupported integer width"),
                "bits={bits}: {err}"
            );
        }
    }

    /// Renders a database in the legacy v1 format (what a pre-workspace
    /// deployment would have on disk).
    fn save_as_v1(db: &ConstraintDb) -> String {
        let v2 = db.save_to_string();
        let mut out = String::new();
        for (i, line) in v2.lines().enumerate() {
            if i == 0 {
                out.push_str("spex-constraint-db v1\n");
                continue;
            }
            if line.starts_with("c ") {
                let (head, _module) = line.rsplit_once(" | ").unwrap();
                out.push_str(head);
                out.push('\n');
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    #[test]
    fn v1_database_loads_and_migrates_losslessly() {
        let mut db = sample_db();
        db.canonicalize();
        let v1_text = save_as_v1(&db);
        assert_eq!(v1_text.lines().next(), Some(MAGIC_V1));
        let migrated = ConstraintDb::load_from_str(&v1_text).unwrap();
        // Everything v1 could express survives the migration…
        assert_eq!(migrated, db);
        // …and the rewrite is the current version.
        let rewritten = migrated.save_to_string();
        assert_eq!(rewritten.lines().next(), Some(MAGIC_V2));
        assert_eq!(ConstraintDb::load_from_str(&rewritten).unwrap(), migrated);
    }

    #[test]
    fn v1_lines_must_not_carry_provenance() {
        let mut text = String::from("spex-constraint-db v1\nsystem X\ndialect key-value\n");
        text.push_str("param p\nc basic bool | f 1 1 | mod\n");
        let err = ConstraintDb::load_from_str(&text).unwrap_err();
        assert!(err.message.contains("v1"), "{err}");
    }

    #[test]
    fn provenance_round_trips() {
        let mut db = ConstraintDb::new("X", Dialect::KeyValue);
        db.add_from(
            Constraint {
                param: "a".into(),
                kind: ConstraintKind::BasicType(BasicType::Bool),
                in_function: "f".into(),
                span: Span::new(1, 1),
            },
            "mod one", // space: exercises provenance escaping
        );
        let back = ConstraintDb::load_from_str(&db.save_to_string()).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.param("a").unwrap().provenance, vec!["mod one"]);
    }

    fn range_c(param: &str, lo: i64, hi: i64, module: &str) -> (Constraint, String) {
        (
            Constraint {
                param: param.into(),
                kind: ConstraintKind::Range(NumericRange {
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
                }),
                in_function: "f".into(),
                span: Span::new(1, 1),
            },
            module.to_string(),
        )
    }

    #[test]
    fn merge_requires_same_system_and_dialect() {
        let mut a = ConstraintDb::new("A", Dialect::KeyValue);
        let b = ConstraintDb::new("B", Dialect::KeyValue);
        assert!(matches!(
            a.merge(&b),
            Err(MergeError::SystemMismatch { .. })
        ));
        let c = ConstraintDb::new("A", Dialect::Directive);
        assert!(matches!(
            a.merge(&c),
            Err(MergeError::DialectMismatch { .. })
        ));
    }

    #[test]
    fn merge_dedupes_identical_and_appends_new() {
        let mut a = ConstraintDb::new("S", Dialect::KeyValue);
        let (c1, m1) = range_c("threads", 1, 16, "shard-a");
        a.add_from(c1.clone(), &m1);
        let mut b = ConstraintDb::new("S", Dialect::KeyValue);
        b.add_from(c1.clone(), "shard-b");
        b.add_from(
            Constraint {
                param: "mode".into(),
                kind: ConstraintKind::BasicType(BasicType::Str),
                in_function: "g".into(),
                span: Span::new(2, 2),
            },
            "shard-b",
        );
        let report = a.merge(&b).unwrap();
        assert_eq!(report.deduped, 1);
        assert_eq!(report.added, 1);
        assert_eq!(report.params_added, 1);
        assert!(report.conflicts.is_empty());
        // The duplicate kept shard-a's provenance; the new one is shard-b's.
        assert_eq!(a.param("threads").unwrap().provenance, vec!["shard-a"]);
        assert_eq!(a.param("mode").unwrap().provenance, vec!["shard-b"]);
    }

    #[test]
    fn merge_overlapping_ranges_tightest_wins() {
        // Challenger tighter: replaces the incumbent and takes provenance.
        let mut a = ConstraintDb::new("S", Dialect::KeyValue);
        let (wide, m) = range_c("threads", 1, 1000, "shard-a");
        a.add_from(wide, &m);
        let mut b = ConstraintDb::new("S", Dialect::KeyValue);
        let (tight, m) = range_c("threads", 1, 16, "shard-b");
        b.add_from(tight.clone(), &m);
        let report = a.merge(&b).unwrap();
        assert_eq!(report.conflicts.len(), 1);
        let conflict = &report.conflicts[0];
        assert_eq!(conflict.kept_from, "shard-b");
        assert_eq!(conflict.dropped_from, "shard-a");
        assert!(conflict.kept.contains("[1, 16]"), "{}", conflict.kept);
        let entry = a.param("threads").unwrap();
        assert_eq!(entry.constraints, vec![tight.clone()]);
        assert_eq!(entry.provenance, vec!["shard-b"]);

        // Incumbent tighter: merging the wide shard back changes nothing.
        let mut c = ConstraintDb::new("S", Dialect::KeyValue);
        let (wide, m) = range_c("threads", 1, 1000, "shard-a");
        c.add_from(wide, &m);
        let report = a.merge(&c).unwrap();
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(report.conflicts[0].kept_from, "shard-b");
        assert_eq!(a.param("threads").unwrap().constraints, vec![tight]);
    }

    #[test]
    fn merge_disagreeing_enums_blend_invalid_wins() {
        let enum_kind = |alts: Vec<(&str, bool)>| {
            ConstraintKind::EnumRange(EnumRange {
                alternatives: alts
                    .into_iter()
                    .map(|(s, valid)| EnumAlternative {
                        value: EnumValue::Str(s.into()),
                        valid,
                    })
                    .collect(),
                unmatched_is_error: false,
                unmatched_overwrites: false,
                case_insensitive: true,
            })
        };
        let mut a = ConstraintDb::new("S", Dialect::KeyValue);
        a.add_from(
            Constraint {
                param: "mode".into(),
                kind: enum_kind(vec![("fast", true), ("safe", true)]),
                in_function: "f".into(),
                span: Span::new(1, 1),
            },
            "shard-a",
        );
        let mut b = ConstraintDb::new("S", Dialect::KeyValue);
        b.add_from(
            Constraint {
                param: "mode".into(),
                kind: enum_kind(vec![("safe", false), ("paranoid", true)]),
                in_function: "g".into(),
                span: Span::new(2, 2),
            },
            "shard-b",
        );
        let report = a.merge(&b).unwrap();
        assert_eq!(report.conflicts.len(), 1);
        let ConstraintKind::EnumRange(merged) = &a.param("mode").unwrap().constraints[0].kind
        else {
            panic!("enum survived as enum");
        };
        let validity: Vec<(String, bool)> = merged
            .alternatives
            .iter()
            .map(|alt| (alt.value.to_string(), alt.valid))
            .collect();
        assert_eq!(
            validity,
            vec![
                ("\"fast\"".to_string(), true),
                ("\"safe\"".to_string(), false), // disagreement → invalid wins
                ("\"paranoid\"".to_string(), true),
            ]
        );
        // Blends keep the incumbent's provenance slot.
        assert_eq!(a.param("mode").unwrap().provenance, vec!["shard-a"]);
    }

    #[test]
    fn merge_unbounded_range_never_beats_finite() {
        // A one-sided range has no finite valid interval: it is maximally
        // loose and must lose to any finite incumbent — and vice versa.
        let half_open = |param: &str| Constraint {
            param: param.into(),
            kind: ConstraintKind::Range(NumericRange {
                cutpoints: vec![1],
                segments: vec![
                    RangeSegment {
                        lo: None,
                        hi: Some(0),
                        valid: false,
                    },
                    RangeSegment {
                        lo: Some(1),
                        hi: None,
                        valid: true,
                    },
                ],
            }),
            in_function: "f".into(),
            span: Span::new(1, 1),
        };
        // Unbounded challenger loses.
        let mut a = ConstraintDb::new("S", Dialect::KeyValue);
        let (tight, m) = range_c("threads", 1, 16, "shard-a");
        a.add_from(tight.clone(), &m);
        let mut b = ConstraintDb::new("S", Dialect::KeyValue);
        b.add_from(half_open("threads"), "shard-b");
        a.merge(&b).unwrap();
        assert_eq!(a.param("threads").unwrap().constraints, vec![tight.clone()]);
        assert_eq!(a.param("threads").unwrap().provenance, vec!["shard-a"]);
        // Unbounded incumbent loses.
        let mut c = ConstraintDb::new("S", Dialect::KeyValue);
        c.add_from(half_open("threads"), "shard-b");
        let mut d = ConstraintDb::new("S", Dialect::KeyValue);
        let (tight2, m) = range_c("threads", 1, 16, "shard-a");
        d.add_from(tight2.clone(), &m);
        c.merge(&d).unwrap();
        assert_eq!(c.param("threads").unwrap().constraints, vec![tight2]);
        assert_eq!(c.param("threads").unwrap().provenance, vec!["shard-a"]);
    }

    #[test]
    fn merge_disjoint_enums_coexist_instead_of_blending() {
        // A param can hold a word enum (strcmp chain) and an integer enum
        // (switch); a shard's word enum must pair with the word incumbent,
        // not blend into the unrelated integer domain.
        let word_enum = |alts: Vec<(&str, bool)>| {
            ConstraintKind::EnumRange(EnumRange {
                alternatives: alts
                    .into_iter()
                    .map(|(s, valid)| EnumAlternative {
                        value: EnumValue::Str(s.into()),
                        valid,
                    })
                    .collect(),
                unmatched_is_error: true,
                unmatched_overwrites: false,
                case_insensitive: false,
            })
        };
        let int_enum = ConstraintKind::EnumRange(EnumRange {
            alternatives: vec![
                EnumAlternative {
                    value: EnumValue::Int(0),
                    valid: true,
                },
                EnumAlternative {
                    value: EnumValue::Int(1),
                    valid: true,
                },
            ],
            unmatched_is_error: true,
            unmatched_overwrites: false,
            case_insensitive: false,
        });
        let c = |kind: ConstraintKind| Constraint {
            param: "mode".into(),
            kind,
            in_function: "f".into(),
            span: Span::new(1, 1),
        };
        let mut a = ConstraintDb::new("S", Dialect::KeyValue);
        a.add_from(c(int_enum.clone()), "shard-a");
        a.add_from(c(word_enum(vec![("fast", true)])), "shard-a");
        let mut b = ConstraintDb::new("S", Dialect::KeyValue);
        b.add_from(
            c(word_enum(vec![("fast", true), ("safe", false)])),
            "shard-b",
        );
        let report = a.merge(&b).unwrap();
        // Paired with the overlapping word incumbent (second), not the
        // first same-class constraint; the integer enum is untouched.
        assert_eq!(report.conflicts.len(), 1);
        let entry = a.param("mode").unwrap();
        assert_eq!(entry.constraints.len(), 2);
        assert_eq!(entry.constraints[0].kind, int_enum);
        let ConstraintKind::EnumRange(merged) = &entry.constraints[1].kind else {
            panic!("word enum stayed an enum");
        };
        assert_eq!(merged.alternatives.len(), 2);

        // A fully disjoint enum is not a conflict at all: it coexists.
        let mut d = ConstraintDb::new("S", Dialect::KeyValue);
        d.add_from(c(word_enum(vec![("paranoid", true)])), "shard-d");
        let report = a.merge(&d).unwrap();
        assert!(report.conflicts.is_empty());
        assert_eq!(report.added, 1);
        assert_eq!(a.param("mode").unwrap().constraints.len(), 3);
    }

    #[test]
    fn merge_int_widths_narrower_wins() {
        let int_c = |bits, signed| Constraint {
            param: "n".into(),
            kind: ConstraintKind::BasicType(BasicType::Int { bits, signed }),
            in_function: "f".into(),
            span: Span::new(1, 1),
        };
        let mut a = ConstraintDb::new("S", Dialect::KeyValue);
        a.add_from(int_c(64, true), "shard-a");
        let mut b = ConstraintDb::new("S", Dialect::KeyValue);
        b.add_from(int_c(16, true), "shard-b");
        a.merge(&b).unwrap();
        assert_eq!(
            a.param("n").unwrap().constraints[0].kind,
            ConstraintKind::BasicType(BasicType::Int {
                bits: 16,
                signed: true
            })
        );
        assert_eq!(a.param("n").unwrap().provenance, vec!["shard-b"]);
    }

    #[test]
    fn file_round_trip() {
        let mut db = sample_db();
        db.canonicalize();
        let dir = std::env::temp_dir().join("spex_check_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.spexdb");
        db.save(&path).unwrap();
        let back = ConstraintDb::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(db, back);
    }

    #[test]
    fn clone_counter_ticks_per_lineage() {
        let db = sample_db();
        assert_eq!(db.clone_count(), 0);
        let copy = db.clone();
        assert_eq!(db.clone_count(), 1, "the original sees the clone");
        let _again = copy.clone();
        assert_eq!(db.clone_count(), 2, "lineage-wide, not per-instance");
        let other = sample_db();
        assert_eq!(other.clone_count(), 0, "fresh lineages start at zero");
        // Equality ignores the instrumentation.
        assert_eq!(db, copy);
    }

    #[test]
    fn note_param_is_idempotent_and_ordered() {
        let mut db = ConstraintDb::new("X", Dialect::KeyValue);
        db.note_params(["b", "a", "b"]);
        let names: Vec<&str> = db.param_names().collect();
        assert_eq!(names, vec!["b", "a"]);
    }
}
