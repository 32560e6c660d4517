//! Input generation: sources, annotations and config files for one
//! workload, each config file paired with the verdict the generator knows
//! it must get.
//!
//! Every input is built in memory from the run's seed. The known answers
//! never come from the checker: a pristine template must check clean; an
//! appended key the generator made up must get `SPEX-R007`; a key with one
//! character deleted must get `SPEX-R007` suggesting the key it came
//! from, which the generator only emits when that key is the one name in
//! the documented parameter set within edit distance 1.

use std::collections::{HashMap, HashSet};

use spex::conf::Dialect;
use spex::systems::rng::SplitMix64;
use spex::systems::{all_systems, fleet, BuiltSystem};

use crate::Workload;

/// The verdict a config file must get.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// No diagnostics at all.
    Clean,
    /// `SPEX-R007` on `key`, and on no other key.
    Unknown { key: String },
    /// `SPEX-R007` on `typo` with a rename fix to `key`, and on no other
    /// key.
    Typo { typo: String, key: String },
    /// At least one diagnostic: the file carries a SPEX-INJ
    /// misconfiguration.
    Injected,
}

impl Answer {
    /// Whether the file sets a key the checker does not know.
    pub fn has_unknown_key(&self) -> bool {
        matches!(self, Answer::Unknown { .. } | Answer::Typo { .. })
    }
}

/// One source module of a workspace, with its deployment configs.
pub struct Unit {
    pub name: String,
    pub source: String,
    pub annotations: String,
    pub template: String,
    /// The module's deployment configs: re-checked after every edit of
    /// the module, and part of the check corpus.
    pub configs: Vec<(String, String)>,
    pub answers: Vec<Answer>,
}

/// One workspace: a subject system (catalog) or the whole fleet.
pub struct Space {
    pub system: String,
    pub dialect: Dialect,
    /// The documented parameter names (the generator's spec).
    pub names: Vec<String>,
    pub units: Vec<Unit>,
    /// The generated system with its lowered module, test suite and
    /// world model, for the injection campaign (catalog only).
    pub built: Option<BuiltSystem>,
}

impl Space {
    pub fn params(&self) -> usize {
        self.names.len()
    }
}

/// Configs per module, and the index of the config that carries a key
/// the checker does not know (as in `spex_systems::fleet::config_corpus`).
pub const CONFIGS_PER_UNIT: usize = 7;
const UNKNOWN_SLOT: usize = 3;
/// Catalog systems carry a second variant: the typo file.
const TYPO_SLOT: usize = 5;

/// Generates the workload's spaces from the seed.
pub fn generate(
    workload: Workload,
    seed: u64,
    fleet_modules: usize,
    systems: &[&str],
) -> Vec<Space> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_c0f1);
    match workload {
        Workload::Fleet => vec![fleet_space(seed, fleet_modules, &mut rng)],
        Workload::Catalog => all_systems()
            .into_iter()
            .filter(|s| systems.iter().any(|n| n.eq_ignore_ascii_case(s.name)))
            .map(|spec| catalog_space(BuiltSystem::build(spec), &mut rng))
            .collect(),
    }
}

fn fleet_space(seed: u64, modules: usize, rng: &mut SplitMix64) -> Space {
    // Seed 0 is the fleet of the `fleet` bench group (2048 modules,
    // 14,310 parameters).
    let spec = fleet::FleetSpec {
        modules,
        configs_per_module: CONFIGS_PER_UNIT,
        seed: 0xf1ee7 ^ seed,
    };
    let members = fleet::generate_fleet(&spec);
    // The fleet generator names member i's parameters f{i:04}_p{j}.
    let names: Vec<String> = members
        .iter()
        .enumerate()
        .flat_map(|(i, m)| (0..m.params).map(move |j| format!("f{i:04}_p{j}")))
        .collect();
    let index = NameIndex::new(&names);
    let units = members
        .into_iter()
        .map(|m| {
            let stem = m.name.trim_end_matches(".c").to_string();
            // One unknown-key file in eight is a typo of a real key.
            let variant = if rng.next_u64().is_multiple_of(8) {
                typo_variant(&m.template_conf, &index, rng)
            } else {
                None
            }
            .unwrap_or_else(|| unknown_variant(&m.template_conf, Dialect::KeyValue, rng));
            let (configs, answers) =
                deployment(&stem, &m.template_conf, &[(UNKNOWN_SLOT, variant)]);
            Unit {
                name: m.name,
                source: m.source,
                annotations: m.annotations,
                template: m.template_conf,
                configs,
                answers,
            }
        })
        .collect();
    Space {
        system: "Fleet".into(),
        dialect: Dialect::KeyValue,
        names,
        units,
        built: None,
    }
}

fn catalog_space(built: BuiltSystem, rng: &mut SplitMix64) -> Space {
    let names: Vec<String> = built.spec.params.iter().map(|p| p.name.clone()).collect();
    let index = NameIndex::new(&names);
    let dialect = built.gen.dialect;
    let template = built.gen.template_conf.clone();
    let stem = built.spec.name.to_ascii_lowercase();
    let unknown = unknown_variant(&template, dialect, rng);
    let typo = typo_variant(&template, &index, rng)
        .unwrap_or_else(|| unknown_variant(&template, dialect, rng));
    let (configs, answers) = deployment(
        &stem,
        &template,
        &[(UNKNOWN_SLOT, unknown), (TYPO_SLOT, typo)],
    );
    let unit = Unit {
        name: format!("{stem}.c"),
        source: built.gen.source.clone(),
        annotations: built.gen.annotations.clone(),
        template,
        configs,
        answers,
    };
    Space {
        system: built.spec.name.to_string(),
        dialect,
        names,
        units: vec![unit],
        built: Some(built),
    }
}

/// The module's deployment configs: pristine templates, except the given
/// slots.
fn deployment(
    stem: &str,
    template: &str,
    variants: &[(usize, (String, Answer))],
) -> (Vec<(String, String)>, Vec<Answer>) {
    (0..CONFIGS_PER_UNIT)
        .map(|j| {
            let (text, answer) = variants
                .iter()
                .find(|(slot, _)| *slot == j)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| (template.to_string(), Answer::Clean));
            ((format!("{stem}/host{j:02}.conf"), text), answer)
        })
        .unzip()
}

fn setting(dialect: Dialect, key: &str, value: &str) -> String {
    match dialect {
        Dialect::KeyValue => format!("{key} = {value}\n"),
        _ => format!("{key} {value}\n"),
    }
}

/// The template plus one setting of a key no generator ever emits.
fn unknown_variant(template: &str, dialect: Dialect, rng: &mut SplitMix64) -> (String, Answer) {
    let key = format!("zz_unset_{:x}", rng.next_u64() % 0x10000);
    let text = format!("{template}{}", setting(dialect, &key, "1"));
    (text, Answer::Unknown { key })
}

/// The template with one key misspelled by a one-character deletion, or
/// `None` when no key of the template has a deletion whose only neighbour
/// within distance 1 is the key itself.
fn typo_variant(
    template: &str,
    index: &NameIndex,
    rng: &mut SplitMix64,
) -> Option<(String, Answer)> {
    let lines: Vec<&str> = template.lines().collect();
    let keyed: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            lines[i]
                .split_whitespace()
                .next()
                .is_some_and(|k| index.contains(k))
        })
        .collect();
    if keyed.is_empty() {
        return None;
    }
    let start = rng.next_u64() as usize;
    for n in 0..keyed.len() {
        let line = keyed[(start + n) % keyed.len()];
        let key = lines[line].split_whitespace().next().expect("keyed line");
        let chars: Vec<char> = key.chars().collect();
        let offset = rng.next_u64() as usize;
        for d in 0..chars.len() {
            let at = (offset + d) % chars.len();
            let typo: String = chars
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != at)
                .map(|(_, c)| c)
                .collect();
            if !index.only_neighbour(&typo, key) {
                continue;
            }
            let mut text = String::with_capacity(template.len());
            for (i, l) in lines.iter().enumerate() {
                if i == line {
                    text.push_str(&typo);
                    text.push_str(&l[key.len()..]);
                } else {
                    text.push_str(l);
                }
                text.push('\n');
            }
            return Some((
                text,
                Answer::Typo {
                    typo,
                    key: key.to_string(),
                },
            ));
        }
    }
    None
}

/// Exact edit-distance-1 neighbourhood queries over a name set, through
/// one-deletion variants: two distinct strings within distance 1 share a
/// deletion variant or one is a deletion variant of the other.
struct NameIndex {
    names: HashSet<String>,
    lowered: HashSet<String>,
    by_deletion: HashMap<String, Vec<usize>>,
    list: Vec<String>,
}

fn deletions(s: &str) -> impl Iterator<Item = String> + '_ {
    let chars: Vec<char> = s.chars().collect();
    (0..chars.len()).map(move |skip| {
        chars
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, c)| c)
            .collect()
    })
}

impl NameIndex {
    fn new(names: &[String]) -> NameIndex {
        let mut by_deletion: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, n) in names.iter().enumerate() {
            for d in deletions(n) {
                by_deletion.entry(d).or_default().push(i);
            }
        }
        NameIndex {
            names: names.iter().cloned().collect(),
            lowered: names.iter().map(|n| n.to_ascii_lowercase()).collect(),
            by_deletion,
            list: names.to_vec(),
        }
    }

    fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// Whether `key` is the only documented name within edit distance 1
    /// of `typo`, and `typo` is no name in any letter case.
    fn only_neighbour(&self, typo: &str, key: &str) -> bool {
        if self.lowered.contains(&typo.to_ascii_lowercase()) || levenshtein(typo, key) != 1 {
            return false;
        }
        let mut candidates: Vec<&str> = Vec::new();
        for d in deletions(typo) {
            if let Some(n) = self.names.get(&d) {
                candidates.push(n);
            }
            for &i in self.by_deletion.get(&d).into_iter().flatten() {
                candidates.push(&self.list[i]);
            }
        }
        for &i in self.by_deletion.get(typo).into_iter().flatten() {
            candidates.push(&self.list[i]);
        }
        candidates
            .into_iter()
            .all(|c| c == key || levenshtein(typo, c) > 1)
    }
}

/// Plain Levenshtein distance over chars (the reference the generator
/// checks its typos against).
fn levenshtein(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for j in 0..b.len() {
            let cur = row[j + 1];
            row[j + 1] = (prev + usize::from(ca != b[j]))
                .min(row[j] + 1)
                .min(cur + 1);
            prev = cur;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_neighbour_rejects_ambiguous_deletions() {
        let names: Vec<String> = ["f0001_p3", "f0001_p4", "f0011_p3", "port", "sport"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let index = NameIndex::new(&names);
        // Deleting '_' leaves one neighbour; deleting the last digit
        // leaves two ("f0001_p3", "f0001_p4"); deleting a zero reaches
        // "f0011_p3" too; "port" is itself a name.
        assert!(index.only_neighbour("f0001p3", "f0001_p3"));
        assert!(!index.only_neighbour("f0001_p", "f0001_p3"));
        assert!(!index.only_neighbour("f001_p3", "f0001_p3"));
        assert!(!index.only_neighbour("port", "sport"));
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }
}
