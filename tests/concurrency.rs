//! Concurrency tests for the multi-session MVCC engine: snapshot
//! stability under a committing writer, first-committer-wins validation
//! of two concurrent writers, and a crash sweep over the write points of
//! interleaved group commits.
//!
//! The serial-equivalence contract under test: a transaction that
//! commits with its read ∪ write set unversioned since its snapshot is
//! replayed verbatim on the live engine, so the multi-session history is
//! byte-identical to some serial execution in commit order. A write is
//! validated at one of two granularities: literal-row inserts by their
//! rows, every other write (every `DELETE` included) by its table.

use proptest::prelude::*;
use rdbms::{DbError, DbSession, Engine, FaultInjector, SharedEngine, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

const QUERY: &str = "SELECT k, v FROM kv";

/// A shared engine over `kv(k int, v int)` with two seed rows.
fn seeded() -> SharedEngine {
    let mut db = Engine::new();
    db.execute("CREATE TABLE kv (k int, v int)").unwrap();
    db.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
        .unwrap();
    SharedEngine::new(db)
}

/// Acceptance: four concurrent sessions sustain byte-identical snapshot
/// reads — content and order — while a writer commits through the same
/// engine. The only coordination is at the start: every reader takes its
/// first read before the writer's first commit, so each snapshot predates
/// the commits its refresh must then observe.
#[test]
fn four_sessions_read_stable_snapshots_while_writer_commits() {
    let shared = seeded();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(5));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let sh = shared.clone();
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        readers.push(thread::spawn(move || {
            let mut s = sh.session();
            // Reach the barrier before unwrapping, so a failed first read
            // fails the test instead of leaving the writer waiting.
            let first = s.execute(QUERY);
            started.wait();
            let first = first.unwrap().rows;
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let again = s.execute(QUERY).unwrap().rows;
                assert_eq!(again, first, "snapshot read changed under a live writer");
                reads += 1;
            }
            // After an explicit refresh the session observes the writer.
            s.refresh().unwrap();
            let fresh = s.execute(QUERY).unwrap().rows;
            assert!(fresh.len() > first.len(), "refresh must observe commits");
            reads
        }));
    }
    let mut w = shared.session();
    started.wait();
    for i in 0..200i64 {
        w.execute(&format!("INSERT INTO kv VALUES ({}, {i})", 100 + i))
            .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader never got a read in");
    }
    let mut check = shared.session();
    assert_eq!(check.execute(QUERY).unwrap().rows.len(), 202);
}

/// Tentpole acceptance: crash the disk at every write point of a run of
/// interleaved committing sessions. After recovery every acknowledged
/// commit is durable, every transaction is atomic (both marker rows or
/// neither), and the engine serves new sessions.
#[test]
fn crash_sweep_over_interleaved_commits_preserves_atomicity() {
    let mut k = 0u64;
    let mut crash_points = 0u64;
    loop {
        let shared = seeded();
        let mut sessions: Vec<_> = (0..4).map(|_| shared.session()).collect();
        shared.with_live(|eng| {
            eng.flush().unwrap();
            eng.set_fault_injector(FaultInjector::new().fail_after_writes(k));
        });
        // Each transaction inserts two marker halves; atomicity after a
        // crash means both or neither survive.
        let mut acknowledged: Vec<(i64, i64)> = Vec::new();
        let mut crashed = false;
        'schedule: for j in 0..3i64 {
            for (si, s) in sessions.iter_mut().enumerate() {
                let si = si as i64 + 10;
                let r = (|| -> Result<(), DbError> {
                    s.begin()?;
                    s.execute(&format!("INSERT INTO kv VALUES ({si}, {})", j * 2))?;
                    s.execute(&format!("INSERT INTO kv VALUES ({si}, {})", j * 2 + 1))?;
                    s.commit()
                })();
                match r {
                    Ok(()) => acknowledged.push((si, j)),
                    Err(DbError::WriteConflict(e)) => {
                        panic!("round-robin schedule can never conflict: {e}")
                    }
                    Err(_) => {
                        crashed = true;
                        break 'schedule;
                    }
                }
            }
        }
        if !crashed {
            // k exceeded the schedule's total write count: the sweep
            // covered every write point.
            shared.with_live(Engine::clear_fault_injector);
            break;
        }
        shared.with_live(Engine::clear_fault_injector);
        shared.recover().expect("recovery after injected crash");
        let mut reader = shared.session();
        let rows = reader.execute(QUERY).unwrap().rows;
        // Group marker rows by (session, transaction round).
        let mut halves: BTreeMap<(i64, i64), u32> = BTreeMap::new();
        for row in &rows {
            let (Value::Int(s), Value::Int(v)) = (&row[0], &row[1]) else {
                panic!("unexpected row shape {row:?}");
            };
            if *s >= 10 {
                *halves.entry((*s, v / 2)).or_default() += 1;
            }
        }
        for (&(s, j), &n) in &halves {
            assert_eq!(n, 2, "torn transaction ({s},{j}) after crash at write {k}");
        }
        for &(s, j) in &acknowledged {
            assert_eq!(
                halves.get(&(s, j)).copied(),
                Some(2),
                "acknowledged commit ({s},{j}) lost after crash at write {k}"
            );
        }
        // The recovered engine keeps serving: one more full transaction.
        let mut s = shared.session();
        s.begin().unwrap();
        s.execute("INSERT INTO kv VALUES (99, 0)").unwrap();
        s.execute("INSERT INTO kv VALUES (99, 1)").unwrap();
        s.commit().unwrap();
        crash_points += 1;
        k += 1;
        assert!(k < 4096, "sweep did not terminate");
    }
    assert!(
        crash_points >= 3,
        "sweep must cover several crash points, got {crash_points}"
    );
}

/// Reference for the proptest: one plain engine applying the same
/// transactions serially.
fn serial_answers(txns: &[Vec<(i64, i64)>]) -> Vec<Vec<Vec<Value>>> {
    let mut db = Engine::new();
    db.execute("CREATE TABLE kv (k int, v int)").unwrap();
    db.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
        .unwrap();
    let mut out = vec![db.execute(QUERY).unwrap().rows];
    for txn in txns {
        for &(k, v) in txn {
            db.execute(&format!("INSERT INTO kv VALUES ({k}, {v})"))
                .unwrap();
        }
        out.push(db.execute(QUERY).unwrap().rows);
    }
    out
}

/// One write statement of the two-writer proptest.
#[derive(Debug, Clone)]
enum WriteOp {
    /// `INSERT INTO kv VALUES (k, v)`.
    Insert(i64, i64),
    /// `DELETE FROM kv WHERE k = c`.
    DeleteKey(i64),
    /// `DELETE FROM kv WHERE k = c AND v = d`.
    DeleteRow(i64, i64),
    /// [`DbSession::insert_rows`] / [`Engine::insert_rows`].
    Rows(Vec<(i64, i64)>),
}

/// Where a [`WriteOp`] runs: a session on the shared engine, or the plain
/// engine of the serial reference.
trait Writer {
    fn sql(&mut self, sql: &str);
    fn rows(&mut self, rows: Vec<Vec<Value>>);
}

impl Writer for DbSession {
    fn sql(&mut self, sql: &str) {
        self.execute(sql).unwrap();
    }
    fn rows(&mut self, rows: Vec<Vec<Value>>) {
        self.insert_rows("kv", rows).unwrap();
    }
}

impl Writer for Engine {
    fn sql(&mut self, sql: &str) {
        self.execute(sql).unwrap();
    }
    fn rows(&mut self, rows: Vec<Vec<Value>>) {
        self.insert_rows("kv", rows).unwrap();
    }
}

impl WriteOp {
    fn run(&self, w: &mut impl Writer) {
        match self {
            WriteOp::Insert(k, v) => w.sql(&format!("INSERT INTO kv VALUES ({k}, {v})")),
            WriteOp::DeleteKey(k) => w.sql(&format!("DELETE FROM kv WHERE k = {k}")),
            WriteOp::DeleteRow(k, v) => w.sql(&format!("DELETE FROM kv WHERE k = {k} AND v = {v}")),
            WriteOp::Rows(rows) => w.rows(
                rows.iter()
                    .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
                    .collect(),
            ),
        }
    }

    /// The literal rows the statement inserts — its keys, if it is not a
    /// delete.
    fn inserted(&self) -> Vec<(i64, i64)> {
        match self {
            WriteOp::Insert(k, v) => vec![(*k, *v)],
            WriteOp::Rows(rows) => rows.clone(),
            WriteOp::DeleteKey(_) | WriteOp::DeleteRow(..) => Vec::new(),
        }
    }

    fn is_delete(&self) -> bool {
        matches!(self, WriteOp::DeleteKey(_) | WriteOp::DeleteRow(..))
    }
}

fn write_op() -> impl Strategy<Value = WriteOp> {
    // Few distinct keys and values, so overlaps are common; (1, 10) and
    // (2, 20) are the seed rows.
    let row = || (1i64..5, 1i64..4).prop_map(|(k, v)| (k, v * 10));
    prop_oneof![
        row().prop_map(|(k, v)| WriteOp::Insert(k, v)),
        (1i64..5).prop_map(WriteOp::DeleteKey),
        row().prop_map(|(k, v)| WriteOp::DeleteRow(k, v)),
        prop::collection::vec(row(), 1..4).prop_map(WriteOp::Rows),
    ]
}

/// Whether two transactions' write sets overlap under the validation
/// contract: every `DELETE` writes its whole table, and inserts overlap
/// only on an equal row. Every op here writes `kv`.
fn writes_overlap(a: &[WriteOp], b: &[WriteOp]) -> bool {
    let keys =
        |t: &[WriteOp]| -> BTreeSet<(i64, i64)> { t.iter().flat_map(WriteOp::inserted).collect() };
    a.iter().chain(b).any(WriteOp::is_delete) || !keys(a).is_disjoint(&keys(b))
}

const ORDERED: &str = "SELECT k, v FROM kv ORDER BY k, v";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two writers begin on one snapshot and commit in a random order.
    /// The first committer always lands; the second is rejected with
    /// `WriteConflict` exactly when its writes overlap the first's, and
    /// after each commit the engine holds what serial replay of the
    /// committed transactions, in commit order, produces.
    #[test]
    fn two_writers_commit_as_serial_replay(
        txns in prop::collection::vec(prop::collection::vec(write_op(), 1..5), 2),
        a_first in any::<bool>(),
    ) {
        let shared = seeded();
        let mut sessions = [shared.session(), shared.session()];
        for (s, txn) in sessions.iter_mut().zip(&txns) {
            s.begin().unwrap();
            for op in txn {
                op.run(s);
            }
        }
        let order = if a_first { [0, 1] } else { [1, 0] };
        let mut serial = Engine::new();
        serial.execute("CREATE TABLE kv (k int, v int)").unwrap();
        serial.execute("INSERT INTO kv VALUES (1, 10), (2, 20)").unwrap();
        for (n, &i) in order.iter().enumerate() {
            match sessions[i].commit() {
                Ok(()) => {
                    prop_assert!(
                        n == 0 || !writes_overlap(&txns[order[0]], &txns[i]),
                        "overlapping second committer was accepted"
                    );
                    for op in &txns[i] {
                        op.run(&mut serial);
                    }
                }
                Err(DbError::WriteConflict(_)) => {
                    prop_assert!(n == 1, "the first committer cannot conflict");
                    prop_assert!(
                        writes_overlap(&txns[order[0]], &txns[i]),
                        "disjoint second committer was rejected"
                    );
                }
                Err(e) => panic!("commit failed: {e}"),
            }
            prop_assert_eq!(
                shared.session().execute(ORDERED).unwrap().rows,
                serial.execute(ORDERED).unwrap().rows,
                "live state diverged from serial replay after commit {}", n
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: random transaction batches interleaved with reader
    /// snapshots. Every reader's answer must be byte-identical (content
    /// and order) to the serial engine at its snapshot point, and stay
    /// frozen until the reader refreshes — regardless of how many
    /// commits land in between.
    #[test]
    fn snapshot_reads_equal_serial_execution(
        txns in prop::collection::vec(
            prop::collection::vec((100i64..200, 0i64..1000), 1..4),
            1..8,
        ),
        // Which reader (of four) refreshes after each commit.
        refresh_picks in prop::collection::vec(0usize..4, 8),
    ) {
        let serial = serial_answers(&txns);
        let shared = seeded();
        let mut writer = shared.session();
        let mut readers: Vec<_> = (0..4).map(|_| shared.session()).collect();
        // Snapshot point of each reader: index into `serial`.
        let mut at = [0usize; 4];
        for (i, txn) in txns.iter().enumerate() {
            // Every reader answers exactly its snapshot point's serial state.
            for (r, reader) in readers.iter_mut().enumerate() {
                prop_assert_eq!(
                    &reader.execute(QUERY).unwrap().rows,
                    &serial[at[r]],
                    "reader {} diverged from serial state {} before txn {}",
                    r, at[r], i
                );
            }
            writer.begin().unwrap();
            for &(k, v) in txn {
                writer.execute(&format!("INSERT INTO kv VALUES ({k}, {v})")).unwrap();
            }
            writer.commit().unwrap();
            // One reader moves up to the new state; the rest stay put.
            let pick = refresh_picks[i % refresh_picks.len()];
            readers[pick].refresh().unwrap();
            at[pick] = i + 1;
        }
        for (r, reader) in readers.iter_mut().enumerate() {
            prop_assert_eq!(
                &reader.execute(QUERY).unwrap().rows,
                &serial[at[r]],
                "reader {} diverged at the end", r
            );
            reader.refresh().unwrap();
            prop_assert_eq!(
                &reader.execute(QUERY).unwrap().rows,
                serial.last().unwrap(),
                "reader {} refresh missed the final state", r
            );
        }
    }
}
