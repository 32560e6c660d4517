//! The seeded edit script: source and annotation edits of the kinds the
//! cloud-configuration evolution study reports (Zhang et al., PAPERS.md),
//! applied as text changes to the generated modules.
//!
//! The script is stateful — a range bound only changes in a check that an
//! earlier edit moved into a helper — and fully determined by the seed and
//! the number of edits drawn. Every edit lands in a module drawn uniformly.

use spex::systems::rng::SplitMix64;

/// The edit kinds, in the order of [`Kind::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A body edit no parameter's data flow reaches (the cache-hit path).
    NoFlow,
    /// A changed range bound in a check that lives in its own helper
    /// (re-infers that one parameter).
    RangeBound,
    /// A startup range check moved into a new helper function
    /// (interprocedural summaries).
    MoveCheck,
    /// A parameter added to, or removed from, the option table or parser
    /// (db insert, delete and gc).
    Param,
    /// An annotation entry changed (whole-module re-analysis).
    Annotation,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::NoFlow,
        Kind::RangeBound,
        Kind::MoveCheck,
        Kind::Param,
        Kind::Annotation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::NoFlow => "no_flow",
            Kind::RangeBound => "range_bound",
            Kind::MoveCheck => "move_check",
            Kind::Param => "param",
            Kind::Annotation => "annotation",
        }
    }
}

/// What an edit changes in its module.
pub enum Change {
    Source(String),
    Annotations(String),
}

/// One edit, already applied to the script's copy of the module.
pub struct Edit {
    pub space: usize,
    pub unit: usize,
    pub kind: Kind,
    pub change: Change,
}

/// A startup range check `if (g < min || g > max) { [log] exit(1); }`.
struct RangeSite {
    global: String,
    min: i64,
    max: i64,
    /// The check's exact text while it is inline in `startup`.
    block: String,
    /// The upper bound written in its helper, once moved.
    helper_max: Option<i64>,
}

/// How a parameter can be added to a module.
enum Mechanism {
    /// A row in an option table with direct variable pointers.
    Table,
    /// A row in a command table plus a handler function.
    Commands,
    /// A comparison in the annotated parser function.
    Parser,
}

struct UnitScript {
    space: usize,
    unit: usize,
    stem: String,
    source: String,
    annotations: String,
    sites: Vec<RangeSite>,
    mechanism: Option<Mechanism>,
    /// The lines the current added parameter inserted, if one is present.
    added: Option<Vec<String>>,
    added_count: u32,
    pad: u32,
    annotation_spaced: bool,
}

pub struct Script {
    rng: SplitMix64,
    /// Per-mille shares of [`Kind::ALL`].
    shares: [u32; 5],
    units: Vec<UnitScript>,
}

const HEADER_LINE: &str = "int feature_count = 0;\n";

impl Script {
    /// A script over `units` — `(space, unit, name, source, annotations)`
    /// — drawing kinds by the per-mille `shares` and modules uniformly.
    pub fn new(
        seed: u64,
        shares: [u32; 5],
        units: Vec<(usize, usize, &str, &str, &str)>,
    ) -> Script {
        let units = units
            .into_iter()
            .map(|(space, unit, name, source, annotations)| UnitScript {
                space,
                unit,
                stem: name
                    .trim_end_matches(".c")
                    .replace(|c: char| !c.is_ascii_alphanumeric(), "_"),
                source: source.to_string(),
                annotations: annotations.to_string(),
                sites: range_sites(source),
                mechanism: mechanism(source, annotations),
                added: None,
                added_count: 0,
                pad: 0,
                annotation_spaced: false,
            })
            .collect();
        Script {
            rng: SplitMix64::seed_from_u64(seed ^ 0xed17),
            shares,
            units,
        }
    }

    /// The current source and annotations of every module, in input
    /// order: what a fresh workspace must reproduce the warm one from.
    pub fn modules(&self) -> impl Iterator<Item = (usize, usize, &str, &str)> {
        self.units
            .iter()
            .map(|u| (u.space, u.unit, u.source.as_str(), u.annotations.as_str()))
    }

    fn pick_unit(&mut self) -> usize {
        (self.rng.next_u64() % self.units.len() as u64) as usize
    }

    fn pick_kind(&mut self) -> Kind {
        let x = (self.rng.next_u64() % 1000) as u32;
        let mut acc = 0;
        for (kind, share) in Kind::ALL.iter().zip(self.shares) {
            acc += share;
            if x < acc {
                return *kind;
            }
        }
        Kind::NoFlow
    }

    /// Draws and applies the next edit.
    pub fn next_edit(&mut self) -> Edit {
        let kind = self.pick_kind();
        let mut unit = self.pick_unit();
        if matches!(kind, Kind::RangeBound | Kind::MoveCheck) {
            for _ in 0..64 {
                let u = &self.units[unit];
                // A range bound changes in a check already moved into a
                // helper; in a module with none moved yet, the edit moves
                // one instead.
                let moved: Vec<usize> = (0..u.sites.len())
                    .filter(|&i| u.sites[i].helper_max.is_some())
                    .collect();
                if kind == Kind::RangeBound && !moved.is_empty() {
                    let s = moved[(self.rng.next_u64() % moved.len() as u64) as usize];
                    return self.change_bound(unit, s);
                }
                if u.sites.iter().any(|s| s.helper_max.is_none()) {
                    return self.move_check(unit);
                }
                unit = self.pick_unit();
            }
        }
        match kind {
            Kind::Param if self.units[unit].mechanism.is_some() => self.toggle_param(unit),
            Kind::Annotation => self.toggle_annotation(unit),
            _ => self.no_flow(unit),
        }
    }

    fn edit(&self, unit: usize, kind: Kind, change: Change) -> Edit {
        Edit {
            space: self.units[unit].space,
            unit: self.units[unit].unit,
            kind,
            change,
        }
    }

    fn no_flow(&mut self, unit: usize) -> Edit {
        let u = &mut self.units[unit];
        u.pad += 1;
        let start = u
            .source
            .find("int test_smoke() {")
            .expect("every generated module defines test_smoke");
        let end = start + u.source[start..].find('\n').expect("one-line body") + 1;
        u.source.replace_range(
            start..end,
            &format!("int test_smoke() {{ int pad = {}; return 0; }}\n", u.pad),
        );
        let source = u.source.clone();
        self.edit(unit, Kind::NoFlow, Change::Source(source))
    }

    fn move_check(&mut self, unit: usize) -> Edit {
        let u = &mut self.units[unit];
        let inline: Vec<usize> = (0..u.sites.len())
            .filter(|&i| u.sites[i].helper_max.is_none())
            .collect();
        let s = inline[(self.rng.next_u64() % inline.len() as u64) as usize];
        let site = &mut u.sites[s];
        let g = &site.global;
        let call = format!("    bench_chk_{g}({g});\n");
        u.source = u.source.replacen(&site.block, &call, 1);
        let body = site
            .block
            .replace(&format!("{g} < "), "v < ")
            .replace(&format!("{g} > "), "v > ")
            .replace(&format!(", {g});"), ", v);");
        u.source
            .push_str(&format!("void bench_chk_{g}(int v) {{\n{body}}}\n"));
        site.helper_max = Some(site.max);
        let source = u.source.clone();
        self.edit(unit, Kind::MoveCheck, Change::Source(source))
    }

    fn change_bound(&mut self, unit: usize, s: usize) -> Edit {
        let r = 1 + (self.rng.next_u64() % 64) as i64;
        let u = &mut self.units[unit];
        let site = &mut u.sites[s];
        let old = site.helper_max.expect("moved site");
        // Only widen past the generated bound, so every template value
        // stays in range and pristine configs stay clean.
        let new = if site.max + r == old {
            site.max + r + 1
        } else {
            site.max + r
        };
        let head = format!("void bench_chk_{}(int v) {{\n", site.global);
        let at = u.source.find(&head).expect("helper present") + head.len();
        let from = format!("v < {} || v > {old})", site.min);
        let to = format!("v < {} || v > {new})", site.min);
        let end = at + u.source[at..].find('\n').expect("helper check line");
        let line = u.source[at..end].replacen(&from, &to, 1);
        u.source.replace_range(at..end, &line);
        site.helper_max = Some(new);
        let source = u.source.clone();
        self.edit(unit, Kind::RangeBound, Change::Source(source))
    }

    fn toggle_param(&mut self, unit: usize) -> Edit {
        let u = &mut self.units[unit];
        let mechanism = u.mechanism.as_ref().expect("checked by caller");
        if let Some(lines) = u.added.take() {
            for line in &lines {
                u.source = u.source.replacen(line.as_str(), "", 1);
            }
            bump_loop_bound(&mut u.source, mechanism, -1);
        } else {
            u.added_count += 1;
            let name = format!("zbench_{}_{}", u.stem, u.added_count);
            let g = format!("g_{name}");
            let global = format!("int {g} = 0;\n");
            insert_after(&mut u.source, HEADER_LINE, &global);
            let mut lines = vec![global];
            match mechanism {
                Mechanism::Table => {
                    let row = format!("    {{ \"{name}\", &{g} }},\n");
                    insert_after(&mut u.source, "struct conf_int conf_ints[] = {\n", &row);
                    lines.push(row);
                }
                Mechanism::Commands => {
                    let handler = format!(
                        "int set_{g}(char* arg) {{ {g} = strtol(arg, NULL, 10); return 0; }}\n"
                    );
                    let at = u
                        .source
                        .find("struct command_rec {")
                        .expect("command table present");
                    u.source.insert_str(at, &handler);
                    let row = format!("    {{ \"{name}\", set_{g} }},\n");
                    insert_after(&mut u.source, "struct command_rec cmds[] = {\n", &row);
                    lines.push(handler);
                    lines.push(row);
                }
                Mechanism::Parser => {
                    let arm = format!(
                        "    if (strcasecmp(name, \"{name}\") == 0) {{ {g} = strtol(value, NULL, 10); return 0; }}\n"
                    );
                    insert_after(&mut u.source, PARSER_HEAD, &arm);
                    lines.push(arm);
                }
            }
            bump_loop_bound(&mut u.source, mechanism, 1);
            u.added = Some(lines);
        }
        let source = u.source.clone();
        self.edit(unit, Kind::Param, Change::Source(source))
    }

    fn toggle_annotation(&mut self, unit: usize) -> Edit {
        let u = &mut self.units[unit];
        // The parser trims around `=`, so the entry's meaning is kept
        // while its text changes.
        u.annotations = if u.annotation_spaced {
            u.annotations.replacen("@PAR =  ", "@PAR = ", 1)
        } else {
            u.annotations.replacen("@PAR = ", "@PAR =  ", 1)
        };
        u.annotation_spaced = !u.annotation_spaced;
        let annotations = u.annotations.clone();
        self.edit(unit, Kind::Annotation, Change::Annotations(annotations))
    }
}

const PARSER_HEAD: &str = "int handle_config(char* name, char* value) {\n";

fn insert_after(source: &mut String, anchor: &str, text: &str) {
    let at = source.find(anchor).expect("anchor present") + anchor.len();
    source.insert_str(at, text);
}

/// Adjusts the dispatcher loop bound of a table mechanism by `delta`.
fn bump_loop_bound(source: &mut String, mechanism: &Mechanism, delta: i64) {
    let marker = match mechanism {
        Mechanism::Table => "i++) {\n        if (strcmp(conf_ints[i].name, name) == 0)",
        Mechanism::Commands => "i++) {\n        if (strcasecmp(cmds[i].name, name) == 0)",
        Mechanism::Parser => return,
    };
    let at = source.find(marker).expect("dispatcher loop present");
    let start = source[..at].rfind("i < ").expect("loop bound") + "i < ".len();
    let end = start + source[start..].find(';').expect("loop bound end");
    let n: i64 = source[start..end].parse().expect("numeric loop bound");
    source.replace_range(start..end, &(n + delta).to_string());
}

fn mechanism(source: &str, annotations: &str) -> Option<Mechanism> {
    if source.contains("struct conf_int conf_ints[] = {\n") {
        Some(Mechanism::Table)
    } else if source.contains("struct command_rec cmds[] = {\n") {
        Some(Mechanism::Commands)
    } else if annotations.contains("@PARSER = handle_config") && source.contains(PARSER_HEAD) {
        Some(Mechanism::Parser)
    } else {
        None
    }
}

/// Finds the startup range checks the generator emits for exit-on-error
/// range parameters.
fn range_sites(source: &str) -> Vec<RangeSite> {
    let mut sites = Vec::new();
    let mut rest = source;
    let mut offset = 0;
    while let Some(i) = rest.find("    if (g_") {
        let at = offset + i;
        let line_end = at + source[at..].find('\n').expect("line end") + 1;
        let line = &source[at..line_end];
        if let Some(site) = parse_site(source, at, line) {
            sites.push(site);
        }
        offset = line_end;
        rest = &source[offset..];
    }
    sites
}

fn parse_site(source: &str, at: usize, line: &str) -> Option<RangeSite> {
    // `    if (G < MIN || G > MAX) {`
    let inner = line.trim().strip_prefix("if (")?.strip_suffix(") {")?;
    let (lo, hi) = inner.split_once(" || ")?;
    let (g, min) = lo.split_once(" < ")?;
    let (g2, max) = hi.split_once(" > ")?;
    if g != g2 || g.contains(' ') {
        return None;
    }
    let min: i64 = min.parse().ok()?;
    let max: i64 = max.parse().ok()?;
    let close = at + source[at..].find("\n    }\n")? + "\n    }\n".len();
    let block = &source[at..close];
    if !block.contains("exit(1);")
        || block.lines().count() > 4
        || source.matches(block).count() != 1
    {
        return None;
    }
    Some(RangeSite {
        global: g.to_string(),
        min,
        max,
        block: block.to_string(),
        helper_max: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int cfg_total = 0;\nint feature_count = 0;\nint g_a = 5;\nint g_b = 7;\n\
struct conf_int { char* name; int* var; };\nstruct conf_int conf_ints[] = {\n    { \"a\", &g_a },\n    { \"b\", &g_b },\n};\n\
int handle_config(char* name, char* value) {\n    int i;\n    for (i = 0; i < 2; i++) {\n        if (strcmp(conf_ints[i].name, name) == 0) {\n            long v = strtol(value, NULL, 10);\n            *(conf_ints[i].var) = v;\n            return 0;\n        }\n    }\n    return 0;\n}\n\
int startup() {\n    if (g_a < 1 || g_a > 9) {\n        fprintf(stderr, \"a must be between 1 and 9, got %d\", g_a);\n        exit(1);\n    }\n    return 0;\n}\n\
int test_smoke() { return 0; }\n";
    const ANN: &str = "{ @STRUCT = conf_ints\n  @PAR = [conf_int, 1]\n  @VAR = [conf_int, 2] }\n";

    fn parses(src: &str) {
        let program = spex::lang::parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        spex::ir::lower_program(&program).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }

    #[test]
    fn every_kind_yields_a_parsable_module_and_param_edits_round_trip() {
        parses(SRC);
        let mut script = Script::new(1, [200, 200, 200, 200, 200], vec![(0, 0, "m.c", SRC, ANN)]);
        assert_eq!(script.units[0].sites.len(), 1);
        let mut seen = Vec::new();
        for _ in 0..40 {
            let edit = script.next_edit();
            seen.push(edit.kind);
            match edit.change {
                Change::Source(s) => parses(&s),
                Change::Annotations(a) => {
                    assert_eq!(
                        spex::core::Annotation::parse(&a).unwrap(),
                        spex::core::Annotation::parse(ANN).unwrap()
                    );
                }
            }
        }
        for kind in Kind::ALL {
            assert!(seen.contains(&kind), "{kind:?} never drawn");
        }
        // Removing the added parameter restores the table and loop bound.
        if script.units[0].added.is_some() {
            script.toggle_param(0);
        }
        let src = &script.units[0].source;
        assert!(src.contains("i < 2;") && !src.contains("zbench"), "{src}");
    }
}
