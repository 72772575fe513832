//! Dense numbering of the raw ids a trace names.
//!
//! The check path (invariant verification and attribution) keeps its
//! per-application, per-slot and per-task tables in vectors indexed by
//! dense ids. Traces are untrusted input (`analyze trace` and `analyze
//! explain` read JSON), so those tables are sized by how many distinct ids
//! a trace names, never by an id's value.

use std::collections::HashMap;

/// Raw ids numbered `0..n` in order of first appearance.
///
/// Recorded traces name applications and slots `0..n` in that order, so
/// `raw < len && raw_of[raw] == raw` settles almost every lookup; only
/// other ids pay for the hash map.
#[derive(Debug, Default)]
pub(crate) struct DenseIds {
    raw_of: Vec<u64>,
    other: HashMap<u64, usize>,
}

impl DenseIds {
    /// The dense id of `raw`, if it has one.
    pub(crate) fn lookup(&self, raw: u64) -> Option<usize> {
        match usize::try_from(raw) {
            Ok(i) if self.raw_of.get(i) == Some(&raw) => Some(i),
            _ => self.other.get(&raw).copied(),
        }
    }

    /// The dense id of `raw`, and whether this call assigned it.
    pub(crate) fn intern(&mut self, raw: u64) -> (usize, bool) {
        if let Some(i) = self.lookup(raw) {
            return (i, false);
        }
        let i = self.raw_of.len();
        self.raw_of.push(raw);
        if usize::try_from(raw) != Ok(i) {
            self.other.insert(raw, i);
        }
        (i, true)
    }

    /// The raw id of dense id `i`.
    pub(crate) fn raw(&self, i: usize) -> u64 {
        self.raw_of[i]
    }

    /// How many distinct ids were numbered.
    pub(crate) fn count(&self) -> usize {
        self.raw_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_in_first_appearance_order_take_the_fast_path() {
        let mut ids = DenseIds::default();
        for raw in 0..4 {
            assert_eq!(ids.intern(raw), (raw as usize, true));
        }
        assert!(ids.other.is_empty(), "0..n needs no hash map");
        assert_eq!(ids.intern(2), (2, false));
        assert_eq!(ids.lookup(4), None);
    }

    #[test]
    fn sparse_and_huge_ids_number_densely() {
        let mut ids = DenseIds::default();
        assert_eq!(ids.intern(u64::MAX), (0, true));
        assert_eq!(ids.intern(1), (1, true));
        assert_eq!(ids.intern(0), (2, true));
        assert_eq!(ids.intern(4_000_000_000), (3, true));
        assert_eq!(ids.lookup(u64::MAX), Some(0));
        assert_eq!(ids.lookup(0), Some(2));
        assert_eq!(ids.lookup(1), Some(1));
        assert_eq!(ids.raw(3), 4_000_000_000);
        assert_eq!(ids.count(), 4);
    }
}
