//! Change records for incremental re-inference.
//!
//! What an edit changed is decided by the workspace from the keys of a
//! source's top-level items ([`spex_lang::items`]): each function is keyed
//! by the hashes of its signature's and its body's tokens, without their
//! positions. This module holds what that decision reports —
//! [`FingerprintDiff`], the functions a [`diff_fingerprints`] of two
//! name-keyed maps finds changed, added or removed — and [`fnv1a`], the
//! stable hash other persisted identities use.

use spex_lang::items::StableHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// 64-bit FNV-1a, the [`StableHasher`] over one byte string; deterministic
/// across runs and platforms (no `RandomState`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// The difference between two name-keyed maps of functions: which function
/// names must be considered dirty for re-inference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FingerprintDiff {
    /// Present in both maps with different keys.
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

/// Diffs two maps from function name to key (old → new): a name whose key
/// differs is changed.
pub fn diff_fingerprints<K: PartialEq>(
    old: &BTreeMap<String, K>,
    new: &BTreeMap<String, K>,
) -> FingerprintDiff {
    let mut diff = FingerprintDiff::default();
    for (name, key) in new {
        match old.get(name) {
            None => diff.added.push(name.clone()),
            Some(prev) if prev != key => diff.changed.push(name.clone()),
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
