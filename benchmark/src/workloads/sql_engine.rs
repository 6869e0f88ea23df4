//! `sql_engine`: a fixed SQL script per op against a bare `rdbms::Engine`,
//! no Knowledge Manager anywhere.
//!
//! Every executor and storage path with `km` doing nothing: the only
//! place where spilling, sorting, the ordered index, deletes and the
//! transitive-closure operator run. The in-memory hash join and the same
//! join under a memory budget (Grace partitions) sit side by side: that
//! pair is the anomaly ROADMAP item 3 wants gone. A change to
//! `km::runtime` predicts no change here.
//!
//! `edge` holds 50 000 integer chain edges (about 1.15x the 256-frame
//! buffer pool) with no index; `edgei` is a copy with a hash index on
//! `c0` and an ordered index on `c1`, so the script's working set is
//! about 2.3x the pool.

use super::lfp_scale::{closure, seeded_chains};
use super::{err, Workload};
use crate::check::{Digest, Rng};
use crate::trace::Tracer;
use rdbms::{Engine, Registry, StmtId, Value};
use std::collections::HashMap;

const JOIN_SQL: &str = "SELECT a.c0, b.c1 FROM edge a, edge b WHERE a.c1 = b.c0";
const RANGE_WIDTH: i64 = 1_000;
const LOAD_CHUNK: usize = 10_000;

struct Sizes {
    /// Memory budget of the second join: small enough that its build
    /// side cannot stay in memory.
    grace_budget_bytes: u64,
    edges: usize,
    slice: usize,
    batch: usize,
    lookups: u64,
}

pub struct SqlEngine {
    seed: u64,
    sizes: Sizes,
    edges: Vec<(i64, i64)>,
    slice: Vec<(i64, i64)>,
    succ: HashMap<i64, i64>,
    lo: i64,
    hi: i64,
    join: Digest,
    distinct: Digest,
    below_mid: u64,
    tc: Digest,
    staged: Option<Staged>,
}

struct Staged {
    edge: Vec<Vec<Vec<Value>>>,
    edgei: Vec<Vec<Vec<Value>>>,
    slice: Vec<Vec<Value>>,
}

pub struct Client {
    db: Engine,
    lookup: StmtId,
}

fn chunks(edges: &[(i64, i64)]) -> Vec<Vec<Vec<Value>>> {
    edges
        .chunks(LOAD_CHUNK)
        .map(workload::int_edges_to_rows)
        .collect()
}

impl Workload for SqlEngine {
    const NAME: &'static str = "sql_engine";
    type Client = Client;

    fn new(seed: u64, quick: bool) -> Self {
        let sizes = if quick {
            Sizes {
                grace_budget_bytes: 16 << 10,
                edges: 2_000,
                slice: 500,
                batch: 500,
                lookups: 200,
            }
        } else {
            Sizes {
                grace_budget_bytes: 256 << 10,
                edges: 50_000,
                slice: 5_000,
                batch: 5_000,
                lookups: 2_000,
            }
        };
        let edges = seeded_chains(sizes.edges, &mut Rng::new(seed, 3));
        let slice = seeded_chains(sizes.slice, &mut Rng::new(seed, 4));
        // Chain nodes have one successor at most, so c0 is a key.
        let succ: HashMap<i64, i64> = edges.iter().copied().collect();
        let lo = edges.iter().map(|e| e.0).min().unwrap_or(0);
        let hi = edges.iter().map(|e| e.1).max().unwrap_or(0);
        let mid = lo + (hi - lo) / 2;
        let mut join = Digest::default();
        let mut distinct = Digest::default();
        for &(a, b) in &edges {
            if let Some(&c) = succ.get(&b) {
                join.add(&[Value::Int(a), Value::Int(c)]);
            }
            // c1 is a key too (one predecessor at most).
            distinct.add(&[Value::Int(b)]);
        }
        SqlEngine {
            seed,
            below_mid: edges.iter().filter(|e| e.0 < mid).count() as u64,
            tc: closure(&slice),
            sizes,
            edges,
            slice,
            succ,
            lo,
            hi,
            join,
            distinct,
            staged: None,
        }
    }

    fn warmup_ops(&self) -> u64 {
        2
    }

    fn stage(&mut self) {
        self.staged = Some(Staged {
            edge: chunks(&self.edges),
            edgei: chunks(&self.edges),
            slice: workload::int_edges_to_rows(&self.slice),
        });
    }

    fn setup(&mut self) -> Result<Vec<Client>, String> {
        let staged = self.staged.take().ok_or("setup without stage")?;
        let mut db = Engine::new();
        for ddl in [
            "CREATE TABLE edge (c0 int, c1 int)",
            "CREATE TABLE edgei (c0 int, c1 int)",
            "CREATE INDEX edgei_c0 ON edgei (c0)",
            "CREATE ORDERED INDEX edgei_c1 ON edgei (c1)",
            "CREATE TABLE slice (c0 int, c1 int)",
            "CREATE TABLE tc (c0 int, c1 int)",
            "CREATE TABLE scratch (c0 int, c1 int)",
        ] {
            db.execute(ddl).map_err(err)?;
        }
        for rows in staged.edge {
            db.insert_rows("edge", rows).map_err(err)?;
        }
        for rows in staged.edgei {
            db.insert_rows("edgei", rows).map_err(err)?;
        }
        db.insert_rows("slice", staged.slice).map_err(err)?;
        let lookup = db
            .prepare("SELECT c1 FROM edgei WHERE c0 = ?")
            .map_err(err)?;
        Ok(vec![Client { db, lookup }])
    }

    fn op(&self, cl: &mut Client, _c: usize, i: u64, t: &mut Tracer) -> Result<Digest, String> {
        let Client { db, lookup } = cl;
        let mut rng = Rng::new(self.seed, 1000 + i);
        let mut digest = Digest::default();

        let rs = t
            .call("rdbms.exec.hash_join", || db.execute(JOIN_SQL))
            .map_err(err)?;
        digest.chain(self.join.expect(Digest::of(&rs.rows), "hash self-join")?);

        db.set_memory_budget(Some(self.sizes.grace_budget_bytes));
        let rs = t.call("rdbms.spill.grace_join", || db.execute(JOIN_SQL));
        db.set_memory_budget(None);
        let rs = rs.map_err(err)?;
        digest.chain(
            self.join
                .expect(Digest::of(&rs.rows), "budgeted self-join")?,
        );

        let rs = t
            .call("rdbms.exec.sort_distinct", || {
                db.execute("SELECT DISTINCT c1 FROM edge ORDER BY c1")
            })
            .map_err(err)?;
        if !rs.rows.windows(2).all(|w| w[0] < w[1]) {
            return Err("DISTINCT .. ORDER BY returned rows out of order".into());
        }
        digest.chain(
            self.distinct
                .expect(Digest::of(&rs.rows), "DISTINCT .. ORDER BY")?,
        );

        let mid = self.lo + (self.hi - self.lo) / 2;
        let rs = t
            .call("rdbms.heap.scan_filter", || {
                db.execute(&format!("SELECT COUNT(*) FROM edge WHERE c0 < {mid}"))
            })
            .map_err(err)?;
        if rs.scalar_int() != Some(self.below_mid as i64) {
            return Err(format!(
                "COUNT(*) WHERE c0 < {mid}: expected {}, got {:?}",
                self.below_mid,
                rs.scalar_int()
            ));
        }

        // Point lookups: seven of eight keys exist, the eighth is past
        // the largest id. One span covers the batch; the per-lookup time
        // is kept as a note.
        let mut keys = Vec::with_capacity(self.sizes.lookups as usize);
        let mut want = Digest::default();
        for n in 0..self.sizes.lookups {
            if n % 8 == 7 {
                keys.push(self.hi + 1 + rng.below(1_000) as i64);
            } else {
                let (k, _) = self.edges[rng.below(self.edges.len() as u64) as usize];
                keys.push(k);
                want.add(&[Value::Int(self.succ[&k])]);
            }
        }
        let got = t
            .call("rdbms.index.point_lookups", || {
                let mut got = Digest::default();
                for k in &keys {
                    for row in db.execute_prepared(*lookup, &[Value::Int(*k)])?.rows {
                        got.add(&row);
                    }
                }
                Ok::<_, rdbms::DbError>(got)
            })
            .map_err(err)?;
        t.note(
            "rdbms.index.point_lookup_us",
            t.last_call().as_secs_f64() * 1e6 / self.sizes.lookups as f64,
        );
        digest.chain(want.expect(got, "indexed point lookups")?);

        let from = self.lo + rng.below((self.hi - self.lo - RANGE_WIDTH).max(1) as u64) as i64;
        let to = from + RANGE_WIDTH;
        let rs = t
            .call("rdbms.index.range", || {
                db.execute(&format!(
                    "SELECT c0, c1 FROM edgei WHERE c1 BETWEEN {from} AND {to}"
                ))
            })
            .map_err(err)?;
        let mut want = Digest::default();
        for &(a, b) in self.edges.iter().filter(|e| (from..=to).contains(&e.1)) {
            want.add(&[Value::Int(a), Value::Int(b)]);
        }
        digest.chain(want.expect(Digest::of(&rs.rows), "BETWEEN on the ordered index")?);

        let batch = workload::int_edges_to_rows(&self.edges[..self.sizes.batch]);
        let n = t
            .call("rdbms.heap.bulk_insert", || {
                db.insert_rows("scratch", batch)
            })
            .map_err(err)?;
        let rs = t
            .call("rdbms.engine.delete_where", || {
                db.execute("DELETE FROM scratch WHERE c0 >= 0")
            })
            .map_err(err)?;
        if n != self.sizes.batch as u64 || rs.affected != n {
            return Err(format!(
                "scratch: inserted {n}, deleted {} of {} rows",
                rs.affected, self.sizes.batch
            ));
        }

        let rs = t
            .call("rdbms.engine.tc_operator", || {
                db.execute("INSERT INTO tc TRANSITIVE CLOSURE OF slice")
            })
            .map_err(err)?;
        let added = rs.affected;
        let rs = t
            .call("rdbms.heap.scan_all", || {
                db.execute("SELECT c0, c1 FROM tc")
            })
            .map_err(err)?;
        t.call("rdbms.engine.truncate", || db.execute("TRUNCATE TABLE tc"))
            .map_err(err)?;
        if added != self.tc.rows {
            return Err(format!(
                "TRANSITIVE CLOSURE added {added} rows, expected {}",
                self.tc.rows
            ));
        }
        digest.chain(
            self.tc
                .expect(Digest::of(&rs.rows), "TRANSITIVE CLOSURE OF slice")?,
        );
        Ok(digest)
    }

    fn op_registry(&self, cl: &Client) -> Option<Registry> {
        Some(cl.db.metrics())
    }

    fn phase_registry(&self, clients: &[Client]) -> Registry {
        clients[0].db.metrics()
    }
}
