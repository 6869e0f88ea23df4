//! In-memory indexes over heap files and relations, and the keys the
//! executor hashes.
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
//! Directories live in memory while the indexed records stay on pages (a
//! heap table) or in the table's own row buffer (a temporary); probe
//! counts are tracked so experiments can report logical index work.
//!
//! A hash directory over a heap table, and every hash table the executor
//! keys on *part* of a row (join build sides, anti-join key sets, `GROUP
//! BY`), is keyed by the executor's `Key`: a key of one or two columns sits
//! inline in the map entry whatever the columns' types — a `char` value is
//! the 4-byte id of its interned string — so building, probing and
//! maintaining such a table allocates nothing per row. A hash directory
//! over a temporary stores no key at all: it files row numbers, and reads
//! a key from the row it names when it has to compare one (`RowDirectory`).
//! (Whole-row sets — `DISTINCT`, `EXCEPT`, `UNION` — borrow the row where
//! it already lies and build no key either.) Ids carry no order, so an
//! ordered directory is keyed by [`PackedKey`], a key over [`Value`]s,
//! which is also what this module's public lookups take.

use crate::catalog::relation_rid;
use crate::hash::{FxHasher, KeyMap};
use crate::heap::RecordId;
use crate::rowbuf::RowBuf;
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

/// A hash directory over a relation's own rows: an open-addressed,
/// linearly probed table of 8-byte slots, each a row number and 32 bits of
/// that row's key hash. The key itself stays in the row; equality reads it
/// there, and only after the hash bits matched, so a probe that misses
/// reads the directory alone. Rows filed under one key form a ring through
/// `next`, so a duplicate costs one link and no vector, and growing the
/// table re-places slots by their stored hash bits without reading a key.
///
/// Every row of the relation is filed, in row order: `next` has one link
/// per row. Nothing is ever removed: a relation's `DELETE` re-files all of
/// its rows, and `TRUNCATE` clears the directory.
#[derive(Debug, Clone, Default)]
struct RowDirectory {
    /// Empty, or a power of two long and at most three quarters occupied.
    slots: Vec<Slot>,
    /// `next[r]` is the row filed after row `r` under the same key; the
    /// key's last row links back to its first.
    next: Vec<u32>,
    /// Occupied slots: one per distinct key.
    keys: usize,
}

/// One key of a [`RowDirectory`]: the last row filed under it, and the low
/// 32 bits of its hash. The slot's index is those bits modulo the table's
/// length, moved on past occupied slots.
#[derive(Debug, Clone, Copy)]
struct Slot {
    row: u32,
    hash: u32,
}

/// The `row` of a slot no key holds.
const VACANT: u32 = u32::MAX;

const VACANT_SLOT: Slot = Slot {
    row: VACANT,
    hash: 0,
};

/// The low 32 bits of the engine hasher's hash of a key's columns — the
/// hash a heap directory's `Key` gets, one word per column.
#[inline]
fn key_hash(cols: impl Iterator<Item = Datum>) -> u32 {
    let mut h = FxHasher::default();
    cols.for_each(|d| h.write_u64(d.word()));
    h.finish() as u32
}

impl RowDirectory {
    /// File row `r` of `rows`, the row after the last one filed.
    fn file(&mut self, rows: &RowBuf, key_cols: &[usize], r: usize) {
        debug_assert_eq!(r, self.next.len(), "rows are filed in order");
        let row = rows.row(r);
        let r = u32::try_from(r).ok().filter(|&r| r != VACANT);
        let r = r.expect("a relation holds fewer than 2^32 - 1 rows");
        self.reserve(1);
        let hash = key_hash(key_cols.iter().map(|&c| row[c]));
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.row == VACANT {
                *slot = Slot { row: r, hash };
                self.next.push(r);
                self.keys += 1;
                return;
            }
            if slot.hash == hash {
                let last = slot.row as usize;
                let held = rows.row(last);
                if key_cols.iter().all(|&c| held[c] == row[c]) {
                    // Insert `r` after the last row: it becomes the last,
                    // and links back to the first.
                    self.next.push(self.next[last]);
                    self.next[last] = r;
                    slot.row = r;
                    return;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Make room for `additional` more keys: if they would fill more than
    /// three quarters of the table, move to the smallest power of two (8 at
    /// least) they fill no more of, re-placing every key by its stored
    /// hash bits.
    fn reserve(&mut self, additional: usize) {
        let keys = self.keys + additional;
        if keys * 4 <= self.slots.len() * 3 {
            return;
        }
        let len = (keys * 4).div_ceil(3).next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![VACANT_SLOT; len]);
        let mask = len - 1;
        for slot in old.into_iter().filter(|s| s.row != VACANT) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].row != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// The rows of `rows` filed under the key whose `i`-th column is
    /// `key(i)`, in filing order.
    fn find(&self, rows: &RowBuf, key_cols: &[usize], key: impl Fn(usize) -> Datum) -> Hits<'_> {
        if self.keys == 0 {
            return Hits::of(None);
        }
        let hash = key_hash((0..key_cols.len()).map(&key));
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.row == VACANT {
                return Hits::of(None);
            }
            if slot.hash == hash {
                let held = rows.row(slot.row as usize);
                if key_cols.iter().enumerate().all(|(k, &c)| held[c] == key(k)) {
                    return Hits::Ring {
                        next: &self.next,
                        last: slot.row,
                        at: Some(self.next[slot.row as usize]),
                    };
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Forget every row, keeping the table's allocation.
    fn clear(&mut self) {
        self.slots.fill(VACANT_SLOT);
        self.next.clear();
        self.keys = 0;
    }
}

/// The record ids a probe found, in filing order.
pub(crate) enum Hits<'a> {
    /// A posting list of a key-holding directory.
    Filed(std::slice::Iter<'a, RecordId>),
    /// A key's ring in a [`RowDirectory`]: from the row after `last` (the
    /// first filed) round to `last`.
    Ring {
        next: &'a [u32],
        last: u32,
        at: Option<u32>,
    },
}

impl<'a> Hits<'a> {
    /// A key-holding directory's postings for a key, if it has any.
    fn of(postings: Option<&'a Postings>) -> Hits<'a> {
        Hits::Filed(postings.map_or(&[][..], Postings::as_slice).iter())
    }
}

impl Iterator for Hits<'_> {
    type Item = RecordId;

    #[inline]
    fn next(&mut self) -> Option<RecordId> {
        match self {
            Hits::Filed(rids) => rids.next().copied(),
            Hits::Ring { next, last, at } => {
                let r = (*at)?;
                *at = (r != *last).then(|| next[r as usize]);
                Some(relation_rid(r as usize))
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Directory {
    /// A heap table's hash index.
    Hash(KeyMap<Key, Postings>),
    /// A temporary's hash index.
    Rows(RowDirectory),
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

impl TableIndex {
    /// A hash index (exact-match only).
    pub fn new(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        TableIndex::with_symbols(name, key_cols, false, Arc::default())
    }

    /// An ordered index (exact-match and range scans).
    pub fn new_ordered(name: impl Into<String>, key_cols: Vec<usize>) -> TableIndex {
        TableIndex::with_symbols(name, key_cols, true, Arc::default())
    }

    /// An index (ordered or hash) of a heap table, whose hash directory
    /// files strings by their ids in `syms`.
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

    /// An index of a temporary, filed from every row of its relation
    /// `rel`. A hash index files row numbers ([`RowDirectory`]), so its
    /// lookups need `rel` back; an ordered one keys its directory as a
    /// heap table's does.
    pub(crate) fn over_relation(
        name: impl Into<String>,
        key_cols: Vec<usize>,
        ordered: bool,
        syms: Arc<Symbols>,
        rel: &RowBuf,
    ) -> TableIndex {
        let mut index = TableIndex::with_symbols(name, key_cols, ordered, syms);
        if !ordered {
            index.directory = Directory::Rows(RowDirectory::default());
        }
        index.file_rows(rel, 0);
        index
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
            _ => unreachable!("a row directory is filed with file_rows"),
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
            _ => unreachable!("a relation's DELETE re-files its rows"),
        }
    }

    /// What `key` finds; `rel` is the table's relation when this is a row
    /// directory.
    fn filed(&self, key: &DirKey, rel: Option<&RowBuf>) -> Hits<'_> {
        let postings = match (&self.directory, key) {
            (Directory::Hash(m), DirKey::Hash(k)) => m.get(k),
            (Directory::Ordered(m), DirKey::Ordered(k)) => m.get(k),
            (Directory::Rows(d), DirKey::Hash(k)) => {
                let rel = rel.expect("a row directory is probed with its relation");
                return d.find(rel, &self.key_cols, |i| k.datum(i));
            }
            _ => unreachable!("a key is made for its index's directory"),
        };
        Hits::of(postings)
    }

    /// Register `rid` under the key of `tuple`; a hash directory interns
    /// the key's strings. For a heap table's index, or one made on its own.
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

    /// File rows `from..` of a temporary's relation `rel`, every row
    /// before them being filed already.
    pub(crate) fn file_rows(&mut self, rel: &RowBuf, from: usize) {
        if let Directory::Rows(d) = &mut self.directory {
            // As if every row brought a key of its own: exact for a
            // full-key index on a set, the LFP loop's accumulated tables.
            d.reserve(rel.len() - from);
            d.next.reserve(rel.len() - from);
            for r in from..rel.len() {
                d.file(rel, &self.key_cols, r);
            }
        } else {
            for r in from..rel.len() {
                self.insert_row(rel.row(r), relation_rid(r));
            }
        }
    }

    /// Make room for `additional` more keys in a heap table's hash
    /// directory.
    pub(crate) fn reserve(&mut self, additional: usize) {
        if let Directory::Hash(m) = &mut self.directory {
            m.reserve(additional);
        }
    }

    /// Remove `rid` from the posting list of `tuple`'s key. For a heap
    /// table's index: a temporary's `DELETE` re-files its rows instead.
    pub fn remove(&mut self, tuple: &[Value], rid: RecordId) {
        if let Some(key) = self.value_key(tuple, &self.key_cols, |s| self.syms.find(s)) {
            self.unfile(key, rid);
        }
    }

    /// All record ids whose key equals `key`. A string the engine lineage
    /// never interned cannot have been filed, so such a probe misses.
    ///
    /// # Panics
    ///
    /// On a temporary's hash index, whose directory holds row numbers that
    /// only its table resolves (the executor's lookups pass the rows).
    pub fn lookup(&self, key: &PackedKey) -> &[RecordId] {
        match self.lookup_values(&key.to_values(), None) {
            Hits::Filed(rids) => rids.as_slice(),
            Hits::Ring { .. } => unreachable!("a row directory needs its relation"),
        }
    }

    /// [`TableIndex::lookup`] with the key's values. Its strings are looked
    /// up, never interned. `rel` is the table's relation, for a temporary.
    pub(crate) fn lookup_values(&self, key: &[Value], rel: Option<&RowBuf>) -> Hits<'_> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let cols: Vec<usize> = (0..key.len()).collect();
        match self.value_key(key, &cols, |s| self.syms.find(s)) {
            Some(k) => self.filed(&k, rel),
            None => Hits::of(None),
        }
    }

    /// [`TableIndex::lookup_values`] with an executor key.
    pub(crate) fn lookup_key(&self, key: &Key, rel: Option<&RowBuf>) -> Hits<'_> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        match &self.directory {
            Directory::Hash(m) => Hits::of(m.get(key)),
            Directory::Rows(d) => {
                let rel = rel.expect("a row directory is probed with its relation");
                d.find(rel, &self.key_cols, |i| key.datum(i))
            }
            Directory::Ordered(_) => self.filed(&self.dir_key(key.clone()), rel),
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
            Directory::Rows(d) => d.keys,
            Directory::Ordered(m) => m.len(),
        }
    }

    /// Total postings.
    pub fn entry_count(&self) -> usize {
        match &self.directory {
            Directory::Hash(m) => m.values().map(|p| p.as_slice().len()).sum(),
            Directory::Rows(d) => d.next.len(),
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
            Directory::Rows(d) => d.clear(),
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
        let mut idx = TableIndex::new("i1", vec![0]);
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
        let mut idx = TableIndex::new("i2", vec![0, 1]);
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
        let mut idx = TableIndex::new("i3", vec![2, 0]);
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
        let mut idx = TableIndex::new("i4", vec![0]);
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
        let mut idx = TableIndex::new("i5", vec![0]);
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
        assert_eq!(idx.lookup_key(&k, None).collect::<Vec<_>>(), [rid(0, 0)]);
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
        assert_eq!(idx.lookup_key(&a, None).collect::<Vec<_>>(), [rid(0, 2)]);
    }

    #[test]
    fn row_directories_file_row_numbers_in_filing_order() {
        let syms = Arc::new(Symbols::default());
        let [a, b] = ["b", "a"].map(|s| syms.datum(&Value::from(s)));
        // Row i is (i % 7, a or b): 7 x 2 keys, each filed many times.
        let mut rel = RowBuf::new(2);
        let row = |i: i64| [Datum::Int(i % 7), if i % 3 == 0 { a } else { b }];
        for i in 0..20 {
            rel.push(row(i));
        }
        let mut idx = TableIndex::over_relation("r", vec![0, 1], false, Arc::clone(&syms), &rel);
        for i in 20..1_000 {
            rel.push(row(i));
        }
        idx.file_rows(&rel, 20);
        assert_eq!((idx.distinct_keys(), idx.entry_count()), (14, 1_000));
        for key in [[Datum::Int(3), a], [Datum::Int(3), b], [Datum::Int(0), a]] {
            let expect: Vec<RecordId> = (0..1_000)
                .filter(|&i| row(i as i64) == key)
                .map(relation_rid)
                .collect();
            let k = Key::from_cols(&key, &[0, 1]);
            let found: Vec<RecordId> = idx.lookup_key(&k, Some(&rel)).collect();
            assert_eq!(found, expect);
        }
        // "a" was interned second, as `b`.
        let values = [Value::Int(6), Value::from("a")];
        let expect = (0..1_000).filter(|&i| row(i) == [Datum::Int(6), b]).count();
        assert_eq!(idx.lookup_values(&values, Some(&rel)).count(), expect);
        // Misses: an unfiled key, an id nothing filed, an uninterned string.
        let c = syms.datum(&Value::from("c"));
        for key in [[Datum::Int(7), a], [Datum::Int(1), c]] {
            let k = Key::from_cols(&key, &[0, 1]);
            assert_eq!(idx.lookup_key(&k, Some(&rel)).count(), 0);
        }
        let unknown = [Value::Int(1), Value::from("d")];
        assert_eq!(idx.lookup_values(&unknown, Some(&rel)).count(), 0);
        // Unique keys grow the table past its first sizes.
        let mut unique = RowBuf::new(1);
        for i in 0..10_000 {
            unique.push([Datum::Int(i << 20)]);
        }
        let idx = TableIndex::over_relation("u", vec![0], false, syms, &unique);
        assert_eq!(idx.distinct_keys(), 10_000);
        let hit = Key::One(Datum::Int(4_321 << 20));
        let found: Vec<RecordId> = idx.lookup_key(&hit, Some(&unique)).collect();
        assert_eq!(found, [relation_rid(4_321)]);
        let mut idx = idx;
        idx.clear();
        assert_eq!((idx.distinct_keys(), idx.entry_count()), (0, 0));
        assert_eq!(idx.lookup_key(&hit, Some(&unique)).count(), 0);
    }
}
