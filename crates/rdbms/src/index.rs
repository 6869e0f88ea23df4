//! In-memory indexes over heap files, and the keys the executor hashes.
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
//! Every hash directory, and every hash table the executor keys on *part*
//! of a row (join build sides, anti-join key sets, `GROUP BY`), is keyed by
//! the executor's `Key`: a key of one or two columns sits inline in the map
//! entry whatever the columns' types — a `char` value is the 4-byte id of
//! its interned string — so building, probing and maintaining such a table
//! allocates nothing per row. (Whole-row sets — `DISTINCT`, `EXCEPT`,
//! `UNION` — borrow the row where it already lies and build no key at
//! all.) Ids carry no order, so an ordered directory is keyed by
//! [`PackedKey`], a key over [`Value`]s, which is also what this module's
//! public lookups take.

use crate::hash::KeyMap;
use crate::heap::RecordId;
use crate::sym::{Datum, Interner, SymId, Symbols};
use crate::value::Value;
use std::cmp::Ordering as CmpOrdering;
use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::hash_map::Entry as HashEntry;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A key of one or more column values, in [`Value`]'s order: the key of
/// ordered directories and of [`TableIndex`]'s public lookups.
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

    /// The key made of all of `values` (a whole row, or an
    /// already-extracted lookup key).
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

/// The executor's key over part of a row. A key of one or two columns is
/// inline whatever their types — two columns as two words and which of
/// them are ids, so a key is no wider (24 bytes) than the integer-only
/// `PackedKey` it replaced in every hash table — and any other number of
/// columns is boxed. The representation depends on the number of columns
/// and their types alone, so the derived equality is sound; the hash is
/// the columns' own words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Key {
    One(Datum),
    Two(u64, u64, Ids),
    Wide(Box<[Datum]>),
}

/// Which words of a two-column [`Key`] are symbol ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ids {
    Neither,
    First,
    Second,
    Both,
}

impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::One(d) => d.hash(state),
            Key::Two(a, b, _) => {
                state.write_u64(*a);
                state.write_u64(*b);
            }
            Key::Wide(ds) => ds.iter().for_each(|d| d.hash(state)),
        }
    }
}

impl Key {
    /// The key made of `row`'s columns at `cols`, in that order.
    #[inline]
    pub(crate) fn from_cols(row: &[Datum], cols: &[usize]) -> Key {
        match *cols {
            [a] => Key::One(row[a]),
            [a, b] => Key::two(row[a], row[b]),
            _ => Key::Wide(cols.iter().map(|&c| row[c]).collect()),
        }
    }

    #[inline]
    fn two(a: Datum, b: Datum) -> Key {
        let ids = match (a, b) {
            (Datum::Int(_), Datum::Int(_)) => Ids::Neither,
            (Datum::Sym(_), Datum::Int(_)) => Ids::First,
            (Datum::Int(_), Datum::Sym(_)) => Ids::Second,
            (Datum::Sym(_), Datum::Sym(_)) => Ids::Both,
        };
        Key::Two(a.word(), b.word(), ids)
    }

    fn len(&self) -> usize {
        match self {
            Key::One(_) => 1,
            Key::Two(..) => 2,
            Key::Wide(ds) => ds.len(),
        }
    }

    /// The key's `i`-th column.
    fn datum(&self, i: usize) -> Datum {
        match (self, i) {
            (Key::One(d), 0) => *d,
            (Key::Two(a, _, ids), 0) => Datum::from_word(*a, matches!(ids, Ids::First | Ids::Both)),
            (Key::Two(_, b, ids), 1) => {
                Datum::from_word(*b, matches!(ids, Ids::Second | Ids::Both))
            }
            (Key::Wide(ds), _) => ds[i],
            _ => unreachable!("key column {i} out of range"),
        }
    }

    /// The key's columns, in order.
    pub(crate) fn datums(&self) -> impl Iterator<Item = Datum> + '_ {
        (0..self.len()).map(|i| self.datum(i))
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
    Hash(KeyMap<Key, Postings>),
    Ordered(BTreeMap<PackedKey, Postings>),
}

/// A key made for one kind of directory.
enum DirKey {
    Hash(Key),
    Ordered(PackedKey),
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
    /// The symbol table a hash directory's ids come from: the engine
    /// lineage's, or one of its own for an index made on its own.
    syms: Arc<Symbols>,
    probes: AtomicU64,
}

impl Clone for TableIndex {
    fn clone(&self) -> TableIndex {
        TableIndex {
            name: self.name.clone(),
            key_cols: self.key_cols.clone(),
            directory: self.directory.clone(),
            syms: Arc::clone(&self.syms),
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

/// Backwards-compatible alias: the original index type was hash-only.
pub type HashIndex = TableIndex;

impl TableIndex {
    /// A hash index (exact-match only).
    pub fn new(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        TableIndex::with_symbols(name, key_cols, false, Arc::default())
    }

    /// An ordered index (exact-match and range scans).
    pub fn new_ordered(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        TableIndex::with_symbols(name, key_cols, true, Arc::default())
    }

    /// An index (ordered or hash) whose hash directory files strings by
    /// their ids in `syms`.
    pub(crate) fn with_symbols(
        name: impl Into<String>,
        key_cols: Vec<usize>,
        ordered: bool,
        syms: Arc<Symbols>,
    ) -> TableIndex {
        assert!(!key_cols.is_empty(), "index needs at least one key column");
        let directory = if ordered {
            Directory::Ordered(BTreeMap::new())
        } else {
            Directory::Hash(KeyMap::default())
        };
        TableIndex {
            name: name.into(),
            key_cols,
            directory,
            syms,
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

    /// `values[cols]` as a key of this index's directory. A hash directory
    /// files strings by the id `id_of` gives them; `None` when it gives a
    /// string none (one the lineage never interned cannot be filed).
    fn value_key(
        &self,
        values: &[Value],
        cols: &[usize],
        mut id_of: impl FnMut(&str) -> Option<SymId>,
    ) -> Option<DirKey> {
        if self.is_ordered() {
            return Some(DirKey::Ordered(PackedKey::from_cols(values, cols)));
        }
        let mut datum = |c: usize| match &values[c] {
            Value::Int(i) => Some(Datum::Int(*i)),
            Value::Str(s) => id_of(s).map(Datum::Sym),
        };
        let key = match *cols {
            [a] => Key::One(datum(a)?),
            [a, b] => Key::two(datum(a)?, datum(b)?),
            _ => Key::Wide(cols.iter().map(|&c| datum(c)).collect::<Option<_>>()?),
        };
        Some(DirKey::Hash(key))
    }

    /// `key` as a key of this index's directory.
    fn dir_key(&self, key: Key) -> DirKey {
        if self.is_ordered() {
            let values = key.datums().map(|d| self.syms.value(d)).collect();
            DirKey::Ordered(PackedKey::from_tuple(values))
        } else {
            DirKey::Hash(key)
        }
    }

    fn file(&mut self, key: DirKey, rid: RecordId) {
        match (&mut self.directory, key) {
            (Directory::Hash(m), DirKey::Hash(k)) => match m.entry(k) {
                HashEntry::Occupied(mut e) => e.get_mut().push(rid),
                HashEntry::Vacant(e) => {
                    e.insert(Postings::One(rid));
                }
            },
            (Directory::Ordered(m), DirKey::Ordered(k)) => match m.entry(k) {
                BTreeEntry::Occupied(mut e) => e.get_mut().push(rid),
                BTreeEntry::Vacant(e) => {
                    e.insert(Postings::One(rid));
                }
            },
            _ => unreachable!("a key is made for its index's directory"),
        }
    }

    fn unfile(&mut self, key: DirKey, rid: RecordId) {
        match (&mut self.directory, key) {
            (Directory::Hash(m), DirKey::Hash(k)) => {
                if m.get_mut(&k).is_some_and(|p| p.remove(rid)) {
                    m.remove(&k);
                }
            }
            (Directory::Ordered(m), DirKey::Ordered(k)) => {
                if m.get_mut(&k).is_some_and(|p| p.remove(rid)) {
                    m.remove(&k);
                }
            }
            _ => unreachable!("a key is made for its index's directory"),
        }
    }

    fn filed(&self, key: &DirKey) -> &[RecordId] {
        let postings = match (&self.directory, key) {
            (Directory::Hash(m), DirKey::Hash(k)) => m.get(k),
            (Directory::Ordered(m), DirKey::Ordered(k)) => m.get(k),
            _ => unreachable!("a key is made for its index's directory"),
        };
        postings.map_or(&[], Postings::as_slice)
    }

    /// Register `rid` under the key of `tuple`; a hash directory interns
    /// the key's strings.
    pub fn insert(&mut self, tuple: &[Value], rid: RecordId) {
        let syms = Arc::clone(&self.syms);
        self.insert_with(tuple, rid, &mut syms.interner());
    }

    /// [`TableIndex::insert`] interning through `names`, a hold on this
    /// index's symbol table that a caller filing many rows keeps for all
    /// of them.
    pub(crate) fn insert_with(&mut self, tuple: &[Value], rid: RecordId, names: &mut Interner<'_>) {
        debug_assert!(names.holds(&self.syms), "an interner of the index's table");
        let key = self
            .value_key(tuple, &self.key_cols, |s| Some(names.intern(s)))
            .expect("interning gives every string an id");
        self.file(key, rid);
    }

    /// [`TableIndex::insert`] for a row of the executor.
    pub(crate) fn insert_row(&mut self, row: &[Datum], rid: RecordId) {
        let key = self.dir_key(Key::from_cols(row, &self.key_cols));
        self.file(key, rid);
    }

    /// Make room for `additional` more keys in a hash directory.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if let Directory::Hash(m) = &mut self.directory {
            m.reserve(additional);
        }
    }

    /// Remove `rid` from the posting list of `tuple`'s key.
    pub fn remove(&mut self, tuple: &[Value], rid: RecordId) {
        if let Some(key) = self.value_key(tuple, &self.key_cols, |s| self.syms.find(s)) {
            self.unfile(key, rid);
        }
    }

    /// All record ids whose key equals `key`. A string the engine lineage
    /// never interned cannot have been filed, so such a probe misses.
    pub fn lookup(&self, key: &PackedKey) -> &[RecordId] {
        self.lookup_values(&key.to_values())
    }

    /// [`TableIndex::lookup`] with the key's values. Its strings are looked
    /// up, never interned.
    pub(crate) fn lookup_values(&self, key: &[Value]) -> &[RecordId] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let cols: Vec<usize> = (0..key.len()).collect();
        match self.value_key(key, &cols, |s| self.syms.find(s)) {
            Some(k) => self.filed(&k),
            None => &[],
        }
    }

    /// [`TableIndex::lookup`] with an executor key.
    pub(crate) fn lookup_key(&self, key: &Key) -> &[RecordId] {
        self.probes.fetch_add(1, Ordering::Relaxed);
        match &self.directory {
            Directory::Hash(m) => m.get(key).map_or(&[], Postings::as_slice),
            Directory::Ordered(_) => self.filed(&self.dir_key(key.clone())),
        }
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

    #[test]
    fn executor_keys_file_inline_and_agree_with_value_lookups() {
        let syms = Arc::new(Symbols::default());
        let x = syms.datum(&Value::from("x"));
        let mut idx = TableIndex::with_symbols("h", vec![1, 0], false, Arc::clone(&syms));
        let row = [Datum::Int(7), x];
        idx.insert_row(&row, rid(0, 0));
        let k = Key::from_cols(&row, &[1, 0]);
        assert_eq!(k.datums().collect::<Vec<_>>(), [x, Datum::Int(7)]);
        assert_eq!(std::mem::size_of::<Key>(), 24, "as wide as an integer pair");
        assert_eq!(idx.lookup_key(&k), &[rid(0, 0)]);
        assert_eq!(
            idx.lookup(&key(&[Value::from("x"), Value::Int(7)])),
            &[rid(0, 0)]
        );
        // A string the lineage never interned cannot have been filed.
        assert!(idx
            .lookup(&key(&[Value::from("y"), Value::Int(7)]))
            .is_empty());
        idx.remove(&[Value::Int(7), Value::from("x")], rid(0, 0));
        assert_eq!(idx.distinct_keys(), 0);
    }

    #[test]
    fn ordered_directories_keep_string_order() {
        let syms = Arc::new(Symbols::default());
        let mut idx = TableIndex::with_symbols("o", vec![0], true, Arc::clone(&syms));
        // Interned "b", "c", "a": ids and strings disagree on the order.
        for (slot, s) in ["b", "c", "a"].into_iter().enumerate() {
            idx.insert_row(&[syms.datum(&Value::from(s))], rid(0, slot as u16));
        }
        let all = idx.range(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all, vec![rid(0, 2), rid(0, 0), rid(0, 1)]);
        let a = Key::One(syms.datum(&Value::from("a")));
        assert_eq!(idx.lookup_key(&a), &[rid(0, 2)]);
    }
}
