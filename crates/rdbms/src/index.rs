//! In-memory indexes over heap files, and the packed key they share with
//! the executor.
//!
//! The paper's experiments hinge on indexes: the flatness of `t_extract`
//! versus total stored rules (Figure 7) and of `t_read` versus total derived
//! predicates (Figure 9) both come from indexes on the rule-storage and
//! dictionary relations. Two kinds are provided:
//!
//! * **hash** — exact-match lookups (the default; what the testbed's
//!   generated programs use);
//! * **ordered** — a B-tree-style ordered directory that additionally
//!   serves range predicates (`WHERE a < 5`).
//!
//! Directories live in memory while the indexed records stay on pages;
//! probe counts are tracked so experiments can report logical index work.
//!
//! Every directory, and every hash table the executor keys on *part* of a
//! row (join build sides, anti-join key sets, `GROUP BY`), is keyed by
//! [`PackedKey`]: one or two integer columns — the shape of every key the
//! LFP loop generates — sit inline in the map entry, so building, probing
//! and maintaining such a table allocates nothing per row. (Whole-row sets
//! — `DISTINCT`, `EXCEPT`, `UNION` — borrow the row where it already lies
//! and build no key at all.)

use crate::hash::KeyMap;
use crate::heap::RecordId;
use crate::value::Value;
use std::cmp::Ordering as CmpOrdering;
use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::hash_map::Entry as HashEntry;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// A key of one or more column values.
///
/// Invariant (what makes the derived `Eq`/`Hash` sound): the representation
/// is canonical. A key is stored inline exactly when it has one or two
/// columns and all of them are `Int`; every other key — any `Str` column,
/// zero columns, three or more — is a boxed slice. Two keys holding the
/// same values therefore always have the same representation, and
/// equality, hashing and ordering all agree with those of the `Vec<Value>`
/// holding the same values (`Ord` is lexicographic, integers before
/// strings), so ordered indexes enumerate in the order they always did.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedKey(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Int1(i64),
    Int2(i64, i64),
    Wide(Box<[Value]>),
}

/// One column of a key, borrowed; the derived order is `Value`'s order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Part<'a> {
    Int(i64),
    Str(&'a str),
}

impl PackedKey {
    /// The key made of `row`'s columns at `cols`, in that order.
    pub fn from_cols(row: &[Value], cols: &[usize]) -> PackedKey {
        match *cols {
            [a] => {
                if let Value::Int(x) = row[a] {
                    return PackedKey(Repr::Int1(x));
                }
            }
            [a, b] => {
                if let (Value::Int(x), Value::Int(y)) = (&row[a], &row[b]) {
                    return PackedKey(Repr::Int2(*x, *y));
                }
            }
            _ => {}
        }
        PackedKey(Repr::Wide(cols.iter().map(|&c| row[c].clone()).collect()))
    }

    /// The key made of all of `values` (a whole row, for duplicate
    /// elimination, or an already-extracted lookup key).
    pub fn from_values(values: &[Value]) -> PackedKey {
        Self::inline(values).unwrap_or_else(|| PackedKey(Repr::Wide(values.into())))
    }

    /// [`PackedKey::from_values`] taking ownership, so a wide key reuses
    /// the row's allocation instead of cloning it.
    pub fn from_tuple(values: Vec<Value>) -> PackedKey {
        Self::inline(&values).unwrap_or_else(|| PackedKey(Repr::Wide(values.into_boxed_slice())))
    }

    fn inline(values: &[Value]) -> Option<PackedKey> {
        match values {
            [Value::Int(x)] => Some(PackedKey(Repr::Int1(*x))),
            [Value::Int(x), Value::Int(y)] => Some(PackedKey(Repr::Int2(*x, *y))),
            _ => None,
        }
    }

    /// The key's columns as owned values.
    pub fn to_values(&self) -> Vec<Value> {
        match &self.0 {
            Repr::Int1(x) => vec![Value::Int(*x)],
            Repr::Int2(x, y) => vec![Value::Int(*x), Value::Int(*y)],
            Repr::Wide(vs) => vs.to_vec(),
        }
    }

    fn len(&self) -> usize {
        match &self.0 {
            Repr::Int1(_) => 1,
            Repr::Int2(..) => 2,
            Repr::Wide(vs) => vs.len(),
        }
    }

    fn part(&self, i: usize) -> Part<'_> {
        match (&self.0, i) {
            (Repr::Int1(x), 0) | (Repr::Int2(x, _), 0) | (Repr::Int2(_, x), 1) => Part::Int(*x),
            (Repr::Wide(vs), _) => match &vs[i] {
                Value::Int(x) => Part::Int(*x),
                Value::Str(s) => Part::Str(s),
            },
            _ => unreachable!("key column {i} out of range"),
        }
    }
}

impl Ord for PackedKey {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        match (&self.0, &other.0) {
            (Repr::Int1(a), Repr::Int1(b)) => a.cmp(b),
            (Repr::Int2(a0, a1), Repr::Int2(b0, b1)) => (a0, a1).cmp(&(b0, b1)),
            _ => {
                let (n, m) = (self.len(), other.len());
                (0..n.min(m))
                    .map(|i| self.part(i).cmp(&other.part(i)))
                    .find(|o| o.is_ne())
                    .unwrap_or_else(|| n.cmp(&m))
            }
        }
    }
}

impl PartialOrd for PackedKey {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// The record ids filed under one key. Most keys of the relations the
/// testbed indexes are unique (the LFP termination index is on the full
/// tuple), so a single posting sits inline and only a duplicated key pays
/// for a vector.
#[derive(Debug, Clone)]
enum Postings {
    One(RecordId),
    Many(Vec<RecordId>),
}

impl Postings {
    fn as_slice(&self) -> &[RecordId] {
        match self {
            Postings::One(rid) => std::slice::from_ref(rid),
            Postings::Many(rids) => rids,
        }
    }

    fn push(&mut self, rid: RecordId) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, rid]),
            Postings::Many(rids) => rids.push(rid),
        }
    }

    /// Remove `rid`; returns whether the list is now empty.
    fn remove(&mut self, rid: RecordId) -> bool {
        match self {
            Postings::One(only) => *only == rid,
            Postings::Many(rids) => {
                rids.retain(|r| *r != rid);
                rids.is_empty()
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Directory {
    Hash(KeyMap<PackedKey, Postings>),
    Ordered(BTreeMap<PackedKey, Postings>),
}

/// A multi-column index: exact-match lookups on a fixed key, and — for
/// ordered indexes — range scans.
///
/// The probe counter is an [`AtomicU64`] so lookups can be counted while
/// the catalog (and thus the index) is borrowed immutably during execution.
#[derive(Debug)]
pub struct TableIndex {
    name: String,
    /// Positions of the key columns within the table schema.
    key_cols: Vec<usize>,
    directory: Directory,
    probes: AtomicU64,
}

impl Clone for TableIndex {
    fn clone(&self) -> TableIndex {
        TableIndex {
            name: self.name.clone(),
            key_cols: self.key_cols.clone(),
            directory: self.directory.clone(),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

/// Backwards-compatible alias: the original index type was hash-only.
pub type HashIndex = TableIndex;

impl TableIndex {
    /// A hash index (exact-match only).
    pub fn new(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        assert!(!key_cols.is_empty(), "index needs at least one key column");
        TableIndex {
            name: name.into(),
            key_cols,
            directory: Directory::Hash(KeyMap::default()),
            probes: AtomicU64::new(0),
        }
    }

    /// An ordered index (exact-match and range scans).
    pub fn new_ordered(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        assert!(!key_cols.is_empty(), "index needs at least one key column");
        TableIndex {
            name: name.into(),
            key_cols,
            directory: Directory::Ordered(BTreeMap::new()),
            probes: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    pub fn is_ordered(&self) -> bool {
        matches!(self.directory, Directory::Ordered(_))
    }

    /// Extract this index's key from a full tuple.
    pub fn key_of(&self, tuple: &[Value]) -> PackedKey {
        PackedKey::from_cols(tuple, &self.key_cols)
    }

    /// Register `rid` under the key of `tuple`.
    pub fn insert(&mut self, tuple: &[Value], rid: RecordId) {
        let key = self.key_of(tuple);
        match &mut self.directory {
            Directory::Hash(m) => match m.entry(key) {
                HashEntry::Occupied(mut e) => e.get_mut().push(rid),
                HashEntry::Vacant(e) => {
                    e.insert(Postings::One(rid));
                }
            },
            Directory::Ordered(m) => match m.entry(key) {
                BTreeEntry::Occupied(mut e) => e.get_mut().push(rid),
                BTreeEntry::Vacant(e) => {
                    e.insert(Postings::One(rid));
                }
            },
        }
    }

    /// Register a batch of freshly appended rows: `rids[i]` is where the
    /// `i`-th of `rows` landed. A hash directory grows once for the whole
    /// batch.
    pub fn insert_batch<'r>(&mut self, rows: impl Iterator<Item = &'r [Value]>, rids: &[RecordId]) {
        if let Directory::Hash(m) = &mut self.directory {
            m.reserve(rids.len());
        }
        for (row, rid) in rows.zip(rids) {
            self.insert(row, *rid);
        }
    }

    /// Remove `rid` from the posting list of `tuple`'s key.
    pub fn remove(&mut self, tuple: &[Value], rid: RecordId) {
        let key = self.key_of(tuple);
        match &mut self.directory {
            Directory::Hash(m) => {
                if m.get_mut(&key).is_some_and(|p| p.remove(rid)) {
                    m.remove(&key);
                }
            }
            Directory::Ordered(m) => {
                if m.get_mut(&key).is_some_and(|p| p.remove(rid)) {
                    m.remove(&key);
                }
            }
        }
    }

    /// All record ids whose key equals `key`.
    pub fn lookup(&self, key: &PackedKey) -> &[RecordId] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        match &self.directory {
            Directory::Hash(m) => m.get(key),
            Directory::Ordered(m) => m.get(key),
        }
        .map_or(&[], Postings::as_slice)
    }

    /// Record ids whose key lies in the given bounds, in key order. Only
    /// meaningful for ordered indexes; a hash index returns `None`.
    pub fn range(&self, lo: Bound<PackedKey>, hi: Bound<PackedKey>) -> Option<Vec<RecordId>> {
        let Directory::Ordered(m) = &self.directory else {
            return None;
        };
        self.probes.fetch_add(1, Ordering::Relaxed);
        // An inverted range is simply empty (BTreeMap::range would panic).
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
            (&lo, &hi)
        {
            let empty = a > b
                || (a == b
                    && (matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_))));
            if empty {
                return Some(Vec::new());
            }
        }
        Some(
            m.range((lo, hi))
                .flat_map(|(_, p)| p.as_slice().iter().copied())
                .collect(),
        )
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.directory {
            Directory::Hash(m) => m.len(),
            Directory::Ordered(m) => m.len(),
        }
    }

    /// Total postings.
    pub fn entry_count(&self) -> usize {
        match &self.directory {
            Directory::Hash(m) => m.values().map(|p| p.as_slice().len()).sum(),
            Directory::Ordered(m) => m.values().map(|p| p.as_slice().len()).sum(),
        }
    }

    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Discard all entries (used when a table is truncated).
    pub fn clear(&mut self) {
        match &mut self.directory {
            Directory::Hash(m) => m.clear(),
            Directory::Ordered(m) => m.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::PageId;

    fn rid(page: u32, slot: u16) -> RecordId {
        RecordId {
            page: PageId(page),
            slot,
        }
    }

    fn key(values: &[Value]) -> PackedKey {
        PackedKey::from_values(values)
    }

    #[test]
    fn insert_lookup_single_column() {
        let mut idx = HashIndex::new("i1", vec![0]);
        idx.insert(&[Value::Int(1), Value::from("a")], rid(0, 0));
        idx.insert(&[Value::Int(1), Value::from("b")], rid(0, 1));
        idx.insert(&[Value::Int(2), Value::from("c")], rid(0, 2));
        assert_eq!(idx.lookup(&key(&[Value::Int(1)])), &[rid(0, 0), rid(0, 1)]);
        assert_eq!(idx.lookup(&key(&[Value::Int(2)])), &[rid(0, 2)]);
        assert!(idx.lookup(&key(&[Value::Int(3)])).is_empty());
        assert_eq!(idx.probes(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entry_count(), 3);
    }

    #[test]
    fn multi_column_key_uses_all_parts() {
        let mut idx = HashIndex::new("i2", vec![0, 1]);
        idx.insert(&[Value::Int(1), Value::from("a")], rid(0, 0));
        assert_eq!(
            idx.lookup(&key(&[Value::Int(1), Value::from("a")])).len(),
            1
        );
        assert!(idx
            .lookup(&key(&[Value::Int(1), Value::from("b")]))
            .is_empty());
    }

    #[test]
    fn key_can_skip_and_reorder_columns() {
        let mut idx = HashIndex::new("i3", vec![2, 0]);
        let tuple = [Value::Int(10), Value::from("mid"), Value::Int(30)];
        idx.insert(&tuple, rid(1, 1));
        assert_eq!(
            idx.key_of(&tuple).to_values(),
            vec![Value::Int(30), Value::Int(10)]
        );
        assert_eq!(idx.lookup(&key(&[Value::Int(30), Value::Int(10)])).len(), 1);
    }

    #[test]
    fn remove_shrinks_posting_list() {
        let mut idx = HashIndex::new("i4", vec![0]);
        let t = [Value::Int(1)];
        idx.insert(&t, rid(0, 0));
        idx.insert(&t, rid(0, 1));
        idx.remove(&t, rid(0, 0));
        assert_eq!(idx.lookup(&key(&[Value::Int(1)])), &[rid(0, 1)]);
        // Removing a rid that is not filed leaves the list alone.
        idx.remove(&t, rid(9, 9));
        assert_eq!(idx.lookup(&key(&[Value::Int(1)])), &[rid(0, 1)]);
        idx.remove(&t, rid(0, 1));
        assert!(idx.lookup(&key(&[Value::Int(1)])).is_empty());
        assert_eq!(idx.distinct_keys(), 0);
    }

    #[test]
    fn clear_empties_index() {
        let mut idx = HashIndex::new("i5", vec![0]);
        idx.insert(&[Value::Int(1)], rid(0, 0));
        idx.clear();
        assert_eq!(idx.entry_count(), 0);
    }

    #[test]
    fn packed_key_is_canonical() {
        let row = [Value::Int(7), Value::from("s"), Value::Int(-1)];
        // Same values, three constructors, one representation.
        let a = PackedKey::from_cols(&row, &[0, 2]);
        assert_eq!(a, key(&[Value::Int(7), Value::Int(-1)]));
        assert_eq!(
            a,
            PackedKey::from_tuple(vec![Value::Int(7), Value::Int(-1)])
        );
        assert!(matches!(a.0, Repr::Int2(7, -1)));
        assert!(matches!(PackedKey::from_cols(&row, &[1]).0, Repr::Wide(_)));
        assert!(matches!(key(&[]).0, Repr::Wide(_)));
        // Integers sort before strings, shorter before longer.
        assert!(key(&[Value::Int(i64::MAX)]) < key(&[Value::from("")]));
        assert!(key(&[Value::Int(1)]) < key(&[Value::Int(1), Value::Int(0)]));
        assert!(key(&[Value::Int(2)]) > key(&[Value::Int(1), Value::Int(9)]));
    }
}
