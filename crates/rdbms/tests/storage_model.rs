//! Model-based property tests for the storage stack: each component is
//! driven with random operation sequences and compared against a trivial
//! in-memory reference model.

use proptest::prelude::*;
use rdbms::buffer::BufferPool;
use rdbms::disk::Disk;
use rdbms::heap::{HeapFile, RecordId};
use rdbms::index::{PackedKey, TableIndex};
use rdbms::page::{SlottedPage, PAGE_SIZE};
use rdbms::Value;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

// ---------------------------------------------------------------------
// Slotted page vs Vec<Option<payload>>
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(u16),
    Get(u16),
}

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..300).prop_map(PageOp::Insert),
        (0u16..64).prop_map(PageOp::Delete),
        (0u16..64).prop_map(PageOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slotted_page_matches_model(ops in prop::collection::vec(arb_page_op(), 0..80)) {
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let mut page = SlottedPage::init(&mut buf);
        // Model: slot -> Some(payload) while live.
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for op in ops {
            match op {
                PageOp::Insert(payload) => {
                    match page.insert(&payload) {
                        Some(slot) => {
                            prop_assert_eq!(slot as usize, model.len());
                            model.push(Some(payload));
                        }
                        None => {
                            // Reject must mean it genuinely does not fit.
                            prop_assert!(!page.fits(payload.len()));
                        }
                    }
                }
                PageOp::Delete(slot) => {
                    let expected = model
                        .get_mut(slot as usize)
                        .map(|s| s.take().is_some())
                        .unwrap_or(false);
                    prop_assert_eq!(page.delete(slot), expected);
                }
                PageOp::Get(slot) => {
                    let expected = model.get(slot as usize).and_then(|s| s.as_deref());
                    prop_assert_eq!(page.get(slot), expected);
                }
            }
        }
        // Live slots agree at the end.
        let live: Vec<u16> = model
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i as u16))
            .collect();
        prop_assert_eq!(page.live_slots(), live);
    }
}

// ---------------------------------------------------------------------
// Heap file vs HashMap<RecordId, payload>
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Insert(Vec<u8>),
    /// Delete the i-th live record (mod live count).
    DeleteNth(usize),
    Scan,
}

fn arb_heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 1..600).prop_map(HeapOp::Insert),
        1 => (0usize..32).prop_map(HeapOp::DeleteNth),
        1 => Just(HeapOp::Scan),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_file_matches_model(ops in prop::collection::vec(arb_heap_op(), 0..60)) {
        let mut disk = Disk::new();
        // Tiny pool so eviction churns constantly.
        let mut pool = BufferPool::new(2);
        let mut heap = HeapFile::create(&mut disk);
        let mut model: Vec<(RecordId, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                HeapOp::Insert(payload) => {
                    let rid = heap.insert(&mut disk, &mut pool, &payload).unwrap();
                    prop_assert!(
                        !model.iter().any(|(r, _)| *r == rid),
                        "record ids are never reused while live"
                    );
                    model.push((rid, payload));
                }
                HeapOp::DeleteNth(n) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (rid, _) = model.remove(n % model.len());
                    prop_assert!(heap.delete(&mut disk, &mut pool, rid).unwrap());
                    prop_assert!(!heap.delete(&mut disk, &mut pool, rid).unwrap());
                    prop_assert_eq!(heap.get(&mut disk, &mut pool, rid).unwrap(), None);
                }
                HeapOp::Scan => {
                    // The in-page scan hands out exactly the live records,
                    // in (page, slot) order, however the visits are cut
                    // into batches (usize::MAX is `for_each`'s single pass).
                    let mut expected = model.clone();
                    expected.sort_by_key(|(r, _)| (r.page.0, r.slot));
                    for batch in [1, 3, 256, usize::MAX] {
                        let mut scan = heap.scan();
                        let mut seen = Vec::new();
                        loop {
                            let n = scan
                                .for_each_batch(&mut disk, &mut pool, batch, |rid, payload| {
                                    seen.push((rid, payload.to_vec()));
                                    Ok(())
                                })
                                .unwrap();
                            prop_assert!(n <= batch);
                            if n == 0 {
                                break;
                            }
                        }
                        prop_assert_eq!(&seen, &expected, "batch size {}", batch);
                    }
                }
            }
            prop_assert_eq!(heap.tuple_count() as usize, model.len());
        }

        // Every live record is retrievable at the end.
        for (rid, payload) in &model {
            let got = heap.get(&mut disk, &mut pool, *rid).unwrap();
            prop_assert_eq!(got.as_deref(), Some(payload.as_slice()));
        }
    }
}

// ---------------------------------------------------------------------
// Buffer pool vs shadow memory
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random single-byte writes through pools of different sizes always
    /// read back correctly, regardless of eviction pattern.
    #[test]
    fn buffer_pool_reads_see_all_writes(
        pool_size in 1usize..6,
        n_pages in 1u32..10,
        ops in prop::collection::vec((0u32..10, 0usize..PAGE_SIZE, any::<u8>()), 0..120),
    ) {
        let mut disk = Disk::new();
        let file = disk.create_file();
        for _ in 0..n_pages {
            disk.allocate_page(file).unwrap();
        }
        let mut pool = BufferPool::new(pool_size);
        let mut shadow = vec![vec![0u8; PAGE_SIZE]; n_pages as usize];

        for (page, offset, byte) in ops {
            let page = page % n_pages;
            pool.with_page(&mut disk, file, rdbms::disk::PageId(page), true, |buf| {
                buf[offset] = byte;
            })
            .unwrap();
            shadow[page as usize][offset] = byte;
        }
        // Every byte of every page reads back as the shadow says.
        for page in 0..n_pages {
            let expected = shadow[page as usize].clone();
            pool.with_page(&mut disk, file, rdbms::disk::PageId(page), false, |buf| {
                assert_eq!(buf, expected.as_slice(), "page {page}");
            })
            .unwrap();
        }
        // Flushing and re-reading straight from disk agrees too.
        pool.flush_all(&mut disk).unwrap();
        for page in 0..n_pages {
            let mut out = vec![0u8; PAGE_SIZE];
            disk.read_page(file, rdbms::disk::PageId(page), &mut out).unwrap();
            prop_assert_eq!(&out, &shadow[page as usize]);
        }
    }
}

// ---------------------------------------------------------------------
// SQL front-end robustness
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The SQL parser never panics, whatever the input.
    #[test]
    fn sql_parser_never_panics(input in "[ -~\\n]{0,120}") {
        let _ = rdbms::sql::parser::parse_stmt(&input);
        let _ = rdbms::sql::parser::parse_script(&input);
    }

    /// Executing arbitrary text through the engine never panics either —
    /// it errors or succeeds.
    #[test]
    fn engine_never_panics_on_garbage(input in "[ -~]{0,80}") {
        let mut e = rdbms::Engine::new();
        e.execute("CREATE TABLE t (a integer, b char)").unwrap();
        let _ = e.execute(&input);
    }
}

// ---------------------------------------------------------------------
// Ordered index range scans vs reference filter
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Range queries over an ordered index agree with a reference filter
    /// for every bound combination.
    #[test]
    fn ordered_index_range_matches_reference(
        values in prop::collection::vec(-20i64..20, 0..40),
        lo in -25i64..25,
        hi in -25i64..25,
        lo_incl in any::<bool>(),
        hi_incl in any::<bool>(),
    ) {
        let mut e = rdbms::Engine::new();
        e.execute("CREATE TABLE t (k integer)").unwrap();
        e.insert_rows("t", values.iter().map(|&v| vec![rdbms::Value::Int(v)]).collect())
            .unwrap();
        e.execute("CREATE ORDERED INDEX t_k ON t (k)").unwrap();
        let (lo_op, lo_ok): (&str, Box<dyn Fn(i64) -> bool>) = if lo_incl {
            (">=", Box::new(move |v| v >= lo))
        } else {
            (">", Box::new(move |v| v > lo))
        };
        let (hi_op, hi_ok): (&str, Box<dyn Fn(i64) -> bool>) = if hi_incl {
            ("<=", Box::new(move |v| v <= hi))
        } else {
            ("<", Box::new(move |v| v < hi))
        };
        let expected = values.iter().filter(|&&v| lo_ok(v) && hi_ok(v)).count() as i64;
        let rs = e
            .execute(&format!(
                "SELECT COUNT(*) FROM t WHERE k {lo_op} {lo} AND k {hi_op} {hi}"
            ))
            .unwrap();
        prop_assert_eq!(rs.scalar_int(), Some(expected));
    }
}

// ---------------------------------------------------------------------
// Packed keys vs Vec<Value>, and the index directories built on them
// ---------------------------------------------------------------------

/// Integers (extremes included) and short strings over a two-letter
/// alphabet, so equal values, cross-type pairs and prefixes all turn up.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (-2i64..3).prop_map(Value::Int),
        1 => prop_oneof![Just(i64::MIN), Just(i64::MAX)].prop_map(Value::Int),
        2 => "[ab]{0,2}".prop_map(Value::Str),
    ]
}

fn hash_of(k: &PackedKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

#[derive(Debug, Clone)]
enum IndexOp {
    Insert(Vec<Value>),
    /// Remove the i-th filed row (mod count).
    RemoveNth(usize),
}

fn arb_bound() -> impl Strategy<Value = Bound<Value>> {
    prop_oneof![
        arb_value().prop_map(Bound::Included),
        arb_value().prop_map(Bound::Excluded),
        Just(Bound::Unbounded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Eq`, `Ord` and `Hash` of a packed key are those of the values it
    /// was made from, whichever constructor made it.
    #[test]
    fn packed_key_agrees_with_vec_of_values(
        a in prop::collection::vec(arb_value(), 0..4),
        b in prop::collection::vec(arb_value(), 0..4),
    ) {
        let (ka, kb) = (PackedKey::from_values(&a), PackedKey::from_values(&b));
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        if a == b {
            prop_assert_eq!(hash_of(&ka), hash_of(&kb));
        }
        prop_assert_eq!(ka.to_values(), a.clone());
        // Picking the same values out of a wider row, in any order, and
        // handing the key over by value give the same key.
        let mut row = vec![Value::from("pad")];
        row.extend(a.iter().rev().cloned());
        let cols: Vec<usize> = (1..=a.len()).rev().collect();
        let picked = PackedKey::from_cols(&row, &cols);
        prop_assert_eq!(&picked, &ka);
        prop_assert_eq!(hash_of(&picked), hash_of(&ka));
        prop_assert_eq!(PackedKey::from_tuple(a), ka);
    }

    /// Hash and ordered directories file the same rids under the same
    /// keys as a `Vec<Value>`-keyed map does, through inserts and
    /// removals, and ordered ranges enumerate in that map's order.
    #[test]
    fn index_directories_match_vec_keyed_reference(
        ops in prop::collection::vec(
            prop_oneof![
                4 => prop::collection::vec(arb_value(), 2..3).prop_map(IndexOp::Insert),
                1 => (0usize..16).prop_map(IndexOp::RemoveNth),
            ],
            0..60,
        ),
        two_cols in any::<bool>(),
        probes in prop::collection::vec(prop::collection::vec(arb_value(), 2..3), 0..8),
        lo in arb_bound(),
        hi in arb_bound(),
    ) {
        let key_cols = if two_cols { vec![1, 0] } else { vec![1] };
        let key_of = |row: &[Value]| -> Vec<Value> {
            key_cols.iter().map(|&c| row[c].clone()).collect()
        };
        let mut hash = TableIndex::new("h", key_cols.clone());
        let mut ordered = TableIndex::new_ordered("o", key_cols.clone());
        let mut reference: BTreeMap<Vec<Value>, Vec<RecordId>> = BTreeMap::new();
        let mut filed: Vec<(Vec<Value>, RecordId)> = Vec::new();
        for (n, op) in ops.into_iter().enumerate() {
            match op {
                IndexOp::Insert(row) => {
                    let rid = RecordId { page: rdbms::disk::PageId(n as u32 / 7), slot: n as u16 };
                    hash.insert(&row, rid);
                    ordered.insert(&row, rid);
                    reference.entry(key_of(&row)).or_default().push(rid);
                    filed.push((row, rid));
                }
                IndexOp::RemoveNth(i) => {
                    if filed.is_empty() {
                        continue;
                    }
                    let (row, rid) = filed.remove(i % filed.len());
                    hash.remove(&row, rid);
                    ordered.remove(&row, rid);
                    let key = key_of(&row);
                    let rids = reference.get_mut(&key).unwrap();
                    rids.retain(|r| *r != rid);
                    if rids.is_empty() {
                        reference.remove(&key);
                    }
                }
            }
        }
        prop_assert_eq!(hash.distinct_keys(), reference.len());
        prop_assert_eq!(ordered.distinct_keys(), reference.len());
        prop_assert_eq!(hash.entry_count(), filed.len());
        for row in filed.iter().map(|(row, _)| row).chain(&probes) {
            let key = key_of(row);
            let expect = reference.get(&key).map_or(&[][..], Vec::as_slice);
            let packed = PackedKey::from_tuple(key);
            prop_assert_eq!(hash.lookup(&packed), expect);
            prop_assert_eq!(ordered.lookup(&packed), expect);
        }
        // Single-column ranges, as the planner issues them.
        if !two_cols {
            let inverted = match (&lo, &hi) {
                (Bound::Included(a), Bound::Included(b)) => a > b,
                (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => a >= b,
                _ => false,
            };
            let expect: Vec<RecordId> = if inverted {
                Vec::new()
            } else {
                let wrap = |b: &Bound<Value>| b.as_ref().map(|v| vec![v.clone()]);
                reference.range((wrap(&lo), wrap(&hi))).flat_map(|(_, r)| r.iter().copied()).collect()
            };
            let pack = |b: &Bound<Value>| b.as_ref().map(|v| PackedKey::from_values(std::slice::from_ref(v)));
            prop_assert_eq!(ordered.range(pack(&lo), pack(&hi)), Some(expect));
            prop_assert_eq!(hash.range(pack(&lo), pack(&hi)), None);
        }
    }
}
