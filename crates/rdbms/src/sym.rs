//! Symbols: the executor's `char` values as 4-byte ids.
//!
//! Inside the executor a row is a run of [`Datum`]s — an integer, or the id
//! of a string interned once in the engine's [`Symbols`] table — so copying
//! a row, hashing a key or testing two values for equality never touches a
//! string. The table belongs to an engine lineage: a fresh
//! [`crate::engine::Engine`] creates it empty (inside its catalog), and
//! every fork, MVCC session snapshot and shared session holds the same one
//! by `Arc`, so an id names the same string wherever the same index
//! directories are visible. It only grows: no eviction, no knob.
//!
//! Ids never leave memory. Pages, the WAL, spill files and snapshot bytes
//! hold each string's bytes exactly as before; a `char` column is looked up
//! by those bytes when a row is decoded ([`SymReader`]) and written back
//! from them when a row is encoded ([`encode_row`]). Where SQL asks for
//! order — `ORDER BY`, `<` / `>` / `BETWEEN`, ordered indexes — the strings
//! are compared, never the ids ([`Symbols::cmp`]).

use crate::hash::FxHasher;
use crate::value::{ColType, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The id of an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SymId(u32);

/// One value on the executor's row path: what a [`Value`] is between being
/// decoded from a page and being handed to a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Datum {
    Int(i64),
    Sym(SymId),
}

impl Hash for Datum {
    /// One word per value. An integer and an id may share a hash; equality
    /// tells them apart.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Datum::Int(i) => state.write_u64(i as u64),
            Datum::Sym(SymId(id)) => state.write_u64(u64::from(id)),
        }
    }
}

impl Datum {
    pub(crate) fn col_type(self) -> ColType {
        match self {
            Datum::Int(_) => ColType::Int,
            Datum::Sym(_) => ColType::Str,
        }
    }

    /// The integer, or the id, as one word; which of the two it was must
    /// be kept beside it.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        match self {
            Datum::Int(i) => i as u64,
            Datum::Sym(SymId(id)) => u64::from(id),
        }
    }

    /// The datum [`Datum::word`] gave `word` for.
    #[inline]
    pub(crate) fn from_word(word: u64, is_sym: bool) -> Datum {
        if is_sym {
            Datum::Sym(SymId(word as u32))
        } else {
            Datum::Int(word as i64)
        }
    }
}

/// Segments of the id → string directory: id `i` lives in segment
/// `log2(i + 1)` at offset `i + 1 - 2^segment`, so a segment never moves
/// once allocated and resolving an id takes no lock.
const SEGMENTS: usize = 32;

/// One segment of the id → string directory; a slot is set once, when its id
/// is handed out.
type Segment = Box<[OnceLock<Box<str>>]>;

const POISONED: &str = "no thread panics while holding the symbol table lock";

/// The string ↔ id table of one engine lineage.
#[derive(Default)]
pub(crate) struct Symbols {
    by_str: RwLock<ByStr>,
    by_id: [OnceLock<Segment>; SEGMENTS],
}

/// The string → id direction: an open-addressed table of ids, probed
/// linearly from a string's hash. A string's bytes live in the id
/// directory alone, so a lookup compares against [`Symbols::resolve`], and
/// interning a string hashes it once and copies it once.
struct ByStr {
    /// A power of two in length, at most half full.
    slots: Vec<Slot>,
    len: usize,
    /// Bytes of every interned string.
    bytes: u64,
}

/// One slot of [`ByStr`]: an id, or [`EMPTY`], and its string's hash.
#[derive(Clone, Copy)]
struct Slot {
    id: u32,
    hash: u32,
}

const EMPTY: Slot = Slot {
    id: u32::MAX,
    hash: 0,
};

impl Default for ByStr {
    /// Room for a few thousand strings up front: the first rows a fresh
    /// engine loads intern every string they carry.
    fn default() -> ByStr {
        ByStr {
            slots: vec![EMPTY; 8192],
            len: 0,
            bytes: 0,
        }
    }
}

fn hash_of(bytes: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish() as u32
}

impl ByStr {
    /// The id of the string `bytes` (whose hash is `hash`), or the empty
    /// slot where it would go.
    fn probe(&self, syms: &Symbols, bytes: &[u8], hash: u32) -> Result<SymId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY.id {
                return Err(i);
            }
            if slot.hash == hash && syms.resolve(SymId(slot.id)).as_bytes() == bytes {
                return Ok(SymId(slot.id));
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, syms: &Symbols, bytes: &[u8]) -> Option<SymId> {
        self.probe(syms, bytes, hash_of(bytes)).ok()
    }

    /// Double the slots, re-placing every id by its stored hash.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.id != EMPTY.id) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != EMPTY.id {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Symbols").field("len", &self.len()).finish()
    }
}

fn slot_of(id: SymId) -> (usize, usize) {
    let n = u64::from(id.0) + 1;
    let seg = (63 - n.leading_zeros()) as usize;
    (seg, (n - (1 << seg)) as usize)
}

impl Symbols {
    fn by_str(&self) -> RwLockReadGuard<'_, ByStr> {
        self.by_str.read().expect(POISONED)
    }

    /// The id of `s`, interning it first if it is new.
    pub(crate) fn intern(&self, s: &str) -> SymId {
        match self.find(s) {
            Some(id) => id,
            None => self.insert(s),
        }
    }

    /// The id of `s` if it was ever interned. A string that was not cannot
    /// be in any row, key or directory of the lineage.
    pub(crate) fn find(&self, s: &str) -> Option<SymId> {
        self.by_str().get(self, s.as_bytes())
    }

    /// Intern `s` under the write lock; another thread may have got there
    /// first.
    fn insert(&self, s: &str) -> SymId {
        self.insert_locked(&mut self.by_str.write().expect(POISONED), s)
    }

    /// [`Symbols::insert`] with the write lock held.
    fn insert_locked(&self, by_str: &mut ByStr, s: &str) -> SymId {
        let hash = hash_of(s.as_bytes());
        let at = match by_str.probe(self, s.as_bytes(), hash) {
            Ok(id) => return id,
            Err(at) => at,
        };
        let id = u32::try_from(by_str.len)
            .ok()
            .filter(|&n| n < EMPTY.id)
            .map(SymId)
            .expect("fewer than 2^32 - 1 symbols");
        let (seg, off) = slot_of(id);
        let segment =
            self.by_id[seg].get_or_init(|| (0..1usize << seg).map(|_| OnceLock::new()).collect());
        assert!(
            segment[off].set(Box::from(s)).is_ok(),
            "symbol id {id:?} handed out twice"
        );
        by_str.slots[at] = Slot { id: id.0, hash };
        by_str.len += 1;
        by_str.bytes += s.len() as u64;
        if by_str.len * 2 > by_str.slots.len() {
            by_str.grow();
        }
        id
    }

    /// The string `id` names.
    pub(crate) fn resolve(&self, id: SymId) -> &str {
        let (seg, off) = slot_of(id);
        self.by_id[seg]
            .get()
            .and_then(|segment| segment[off].get())
            .expect("a symbol id of this table")
    }

    /// Number of interned strings.
    pub(crate) fn len(&self) -> usize {
        self.by_str().len
    }

    /// Bytes of all interned strings.
    pub(crate) fn bytes(&self) -> u64 {
        self.by_str().bytes
    }

    /// A decoder's hold on the table (see [`SymReader`]).
    pub(crate) fn reader(&self) -> SymReader<'_> {
        SymReader {
            syms: self,
            by_str: None,
        }
    }

    /// A loader's hold on the table (see [`Interner`]).
    pub(crate) fn interner(&self) -> Interner<'_> {
        Interner {
            syms: self,
            by_str: None,
            last: None,
        }
    }

    /// `v` as a datum, its string interned.
    pub(crate) fn datum(&self, v: &Value) -> Datum {
        match v {
            Value::Int(i) => Datum::Int(*i),
            Value::Str(s) => Datum::Sym(self.intern(s)),
        }
    }

    /// `d` as a caller's value.
    pub(crate) fn value(&self, d: Datum) -> Value {
        match d {
            Datum::Int(i) => Value::Int(i),
            Datum::Sym(id) => Value::Str(self.resolve(id).to_owned()),
        }
    }

    /// [`Value`]'s order: integers numerically, strings by their bytes,
    /// every integer before every string.
    pub(crate) fn cmp(&self, a: Datum, b: Datum) -> Ordering {
        match (a, b) {
            (Datum::Int(x), Datum::Int(y)) => x.cmp(&y),
            (Datum::Sym(x), Datum::Sym(y)) if x == y => Ordering::Equal,
            (Datum::Sym(x), Datum::Sym(y)) => self.resolve(x).cmp(self.resolve(y)),
            (Datum::Int(_), Datum::Sym(_)) => Ordering::Less,
            (Datum::Sym(_), Datum::Int(_)) => Ordering::Greater,
        }
    }

    /// Bytes [`encode_row`] writes for `row`.
    pub(crate) fn encoded_len(&self, row: &[Datum]) -> usize {
        2 + row
            .iter()
            .map(|d| match *d {
                Datum::Int(_) => 1 + 8,
                Datum::Sym(id) => 1 + 4 + self.resolve(id).len(),
            })
            .sum::<usize>()
    }
}

/// A decoder's hold on the table: the read lock is taken at the first
/// string it looks up and kept until the reader is dropped, so decoding a
/// page takes it once rather than once per value. A reader lives for one
/// page visit or one record and nothing but decoding runs under it; a
/// thread holding one must not intern or look up through [`Symbols`]
/// itself (resolving ids takes no lock).
pub(crate) struct SymReader<'a> {
    syms: &'a Symbols,
    by_str: Option<RwLockReadGuard<'a, ByStr>>,
}

impl SymReader<'_> {
    /// The id of the string whose bytes are `bytes`, interning it if it is
    /// new; `None` if the bytes are not UTF-8. A hit allocates nothing.
    pub(crate) fn id(&mut self, bytes: &[u8]) -> Option<SymId> {
        let syms = self.syms;
        let by_str = self.by_str.get_or_insert_with(|| syms.by_str());
        if let Some(id) = by_str.get(syms, bytes) {
            return Some(id);
        }
        let s = std::str::from_utf8(bytes).ok()?;
        // The write lock must not wait on this thread's own read lock.
        self.by_str = None;
        Some(syms.insert(s))
    }
}

/// A loader's hold on the table: the write lock is taken at the first
/// string it interns and kept until the interner is dropped, so filing a
/// batch of loaded rows in an index takes it once rather than once per
/// string. An interner lives for one batch and nothing but interning runs
/// under it.
pub(crate) struct Interner<'a> {
    syms: &'a Symbols,
    by_str: Option<RwLockWriteGuard<'a, ByStr>>,
    /// The id it gave last: consecutive rows of a load often share a key
    /// (the children of one parent, facts sorted on their first column),
    /// and comparing with one string is cheaper than a lookup.
    last: Option<SymId>,
}

impl Interner<'_> {
    /// The id of `s`, interning it if it is new.
    pub(crate) fn intern(&mut self, s: &str) -> SymId {
        let syms = self.syms;
        if let Some(id) = self.last.filter(|&id| syms.resolve(id) == s) {
            return id;
        }
        let by_str = self
            .by_str
            .get_or_insert_with(|| syms.by_str.write().expect(POISONED));
        let id = syms.insert_locked(by_str, s);
        self.last = Some(id);
        id
    }

    /// Whether this interner is a hold on `syms`.
    pub(crate) fn holds(&self, syms: &Symbols) -> bool {
        std::ptr::eq(self.syms, syms)
    }
}

/// Append the on-page form of the row `row` stands for to `out`: byte for
/// byte what [`crate::schema::serialize_tuple_into`] writes for its values.
pub(crate) fn encode_row(row: &[Datum], syms: &Symbols, out: &mut Vec<u8>) {
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for d in row {
        encode_datum(*d, syms, out);
    }
}

/// One value's tagged encoding, as [`Value::serialize_into`] writes it.
pub(crate) fn encode_datum(d: Datum, syms: &Symbols, out: &mut Vec<u8>) {
    match d {
        Datum::Int(i) => {
            out.push(0);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Datum::Sym(id) => {
            let s = syms.resolve(id);
            out.push(1);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode a stored tuple into the reused `row`, looking each string up
/// through `rd`. Returns whether `buf` was well formed; `row` is
/// unspecified when it was not.
pub(crate) fn decode_row(buf: &[u8], row: &mut Vec<Datum>, rd: &mut SymReader<'_>) -> bool {
    row.clear();
    let Some(count) = buf.get(0..2) else {
        return false;
    };
    let count = u16::from_le_bytes([count[0], count[1]]) as usize;
    let mut pos = 2;
    row.reserve(count);
    for _ in 0..count {
        let Some(&tag) = buf.get(pos) else {
            return false;
        };
        pos += 1;
        let datum = match tag {
            0 => {
                let Some(bytes) = buf.get(pos..pos + 8) else {
                    return false;
                };
                pos += 8;
                Datum::Int(i64::from_le_bytes(bytes.try_into().expect("8 bytes")))
            }
            1 => {
                let Some(len) = buf.get(pos..pos + 4) else {
                    return false;
                };
                let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
                pos += 4;
                let Some(id) = buf.get(pos..pos + len).and_then(|s| rd.id(s)) else {
                    return false;
                };
                pos += len;
                Datum::Sym(id)
            }
            _ => return false,
        };
        row.push(datum);
    }
    pos == buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::serialize_tuple;

    #[test]
    fn interning_is_stable_and_resolves_back() {
        let syms = Symbols::default();
        let b = syms.intern("b");
        let a = syms.intern("a");
        assert_eq!(syms.intern("b"), b);
        assert_eq!(syms.find("a"), Some(a));
        assert_eq!(syms.find("c"), None);
        assert_eq!((syms.resolve(a), syms.resolve(b)), ("a", "b"));
        assert_eq!((syms.len(), syms.bytes()), (2, 2));
    }

    #[test]
    fn ids_cross_segment_boundaries() {
        let syms = Symbols::default();
        // Past the slots a fresh table starts with, so they grow too.
        let ids: Vec<SymId> = (0..10_000).map(|i| syms.intern(&format!("s{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(syms.resolve(*id), format!("s{i}"));
            assert_eq!(syms.find(&format!("s{i}")), Some(*id));
        }
        assert_eq!(syms.len(), 10_000);
        assert_eq!(slot_of(SymId(0)), (0, 0));
        assert_eq!(slot_of(SymId(2)), (1, 1));
        assert_eq!(slot_of(SymId(u32::MAX - 1)), (31, (1 << 31) - 1));
    }

    #[test]
    fn a_batch_interns_under_one_hold() {
        let syms = Symbols::default();
        let a = syms.intern("a");
        let mut names = syms.interner();
        let b = names.intern("b");
        assert_eq!(names.intern("b"), b);
        assert_eq!(names.intern("a"), a);
        drop(names);
        assert_eq!((syms.len(), syms.find("b")), (2, Some(b)));
    }

    #[test]
    fn order_is_the_strings_not_the_ids() {
        let syms = Symbols::default();
        // Interned in the opposite of lexical order.
        let b = Datum::Sym(syms.intern("b"));
        let a = Datum::Sym(syms.intern("a"));
        assert_eq!(syms.cmp(a, b), Ordering::Less);
        assert_eq!(syms.cmp(b, b), Ordering::Equal);
        assert_eq!(syms.cmp(Datum::Int(i64::MAX), a), Ordering::Less);
        assert_eq!(syms.cmp(a, Datum::Int(i64::MIN)), Ordering::Greater);
    }

    #[test]
    fn rows_encode_and_decode_to_the_value_bytes() {
        let syms = Symbols::default();
        let values = vec![Value::Int(-7), Value::from("ancêtre"), Value::from("")];
        let bytes = serialize_tuple(&values);
        let mut row = Vec::new();
        assert!(decode_row(&bytes, &mut row, &mut syms.reader()));
        assert_eq!(
            row.iter().map(|&d| syms.value(d)).collect::<Vec<_>>(),
            values
        );
        let mut again = Vec::new();
        encode_row(&row, &syms, &mut again);
        assert_eq!(again, bytes);
        assert_eq!(syms.encoded_len(&row), bytes.len());
        let before = syms.len();
        assert!(decode_row(&bytes, &mut row, &mut syms.reader()));
        assert_eq!(syms.len(), before);
    }

    #[test]
    fn malformed_rows_are_refused() {
        let syms = Symbols::default();
        let bytes = serialize_tuple(&[Value::Int(1), Value::from("xy")]);
        let mut row = Vec::new();
        for cut in 0..bytes.len() {
            assert!(!decode_row(&bytes[..cut], &mut row, &mut syms.reader()));
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(!decode_row(&trailing, &mut row, &mut syms.reader()));
        let not_utf8 = [1, 0, 1, 1, 0, 0, 0, 0xff];
        assert!(!decode_row(&not_utf8, &mut row, &mut syms.reader()));
    }
}
