//! Answer checking: digests of result sets, seeded input helpers, and
//! the pinned expected-answer files.
//!
//! Every op's result is compared with a digest the harness computes on
//! its own from the generated inputs (closed forms and plain-Rust
//! reference evaluators in the workload modules), never with another
//! answer of the program.

use crate::json::Json;
use rdbms::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a tagged serialisation of one row.
pub fn row_hash(row: &[Value]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in row {
        match v {
            Value::Int(i) => {
                h = fnv1a(h, &[0]);
                h = fnv1a(h, &i.to_le_bytes());
            }
            Value::Str(s) => {
                h = fnv1a(h, &[1]);
                h = fnv1a(h, &(s.len() as u32).to_le_bytes());
                h = fnv1a(h, s.as_bytes());
            }
        }
    }
    h
}

/// Row count plus an order-insensitive checksum (the wrapping sum of the
/// row hashes), so a result set matches however the program orders it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add(&mut self, row: &[Value]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(row));
    }

    pub fn of(rows: &[Vec<Value>]) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add(r);
        }
        d
    }

    /// Fold another op's digest into a running, order-sensitive digest
    /// of an op sequence.
    pub fn chain(&mut self, next: Digest) {
        self.rows += next.rows;
        self.sum = (self.sum ^ next.sum)
            .wrapping_mul(FNV_PRIME)
            .wrapping_add(next.rows);
    }

    /// `Ok` when `got` equals this expected digest.
    pub fn expect(&self, got: Digest, what: &str) -> Result<Digest, String> {
        if *self == got {
            Ok(got)
        } else {
            Err(format!(
                "{what}: expected {} rows / checksum {:016x}, got {} rows / {:016x}",
                self.rows, self.sum, got.rows, got.sum
            ))
        }
    }
}

pub fn sym(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// SplitMix64: the harness's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent streams for one seed: `stream` names the use (a
    /// generator, or one op's draws), so op `i` draws the same values
    /// however many ops ran before it.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every n used here.
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The pinned answers of one (workload, seed): the chained digest of the
/// warm-up ops, which are the same ops however long the run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Pinned {
    pub ops: u64,
    pub digest: Digest,
}

impl std::fmt::Display for Pinned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops / {} rows / checksum {:016x}",
            self.ops, self.digest.rows, self.digest.sum
        )
    }
}

impl Pinned {
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("pinned_ops", Json::Num(self.ops as f64)),
            ("rows", Json::Num(self.digest.rows as f64)),
            ("checksum", Json::Str(format!("{:016x}", self.digest.sum))),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Pinned, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("expected-answer file lacks `{k}`"))
        };
        let sum = j
            .get("checksum")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("expected-answer file lacks a hex `checksum`")?;
        Ok(Pinned {
            ops: num("pinned_ops")?,
            digest: Digest {
                rows: num("rows")?,
                sum,
            },
        })
    }
}

pub fn expected_path(workload: &str, seed: u64) -> std::path::PathBuf {
    crate::bench_dir()
        .join("expected")
        .join(format!("{workload}.{seed}.json"))
}

/// The pinned answers on file for this (workload, seed), if any. Only
/// the seeds the repository ships have one; other seeds rely on the
/// per-op reference checks alone.
pub fn load_expected(workload: &str, seed: u64) -> Result<Option<Pinned>, String> {
    let path = expected_path(workload, seed);
    match std::fs::read_to_string(&path) {
        Ok(text) => Json::parse(&text)
            .and_then(|j| Pinned::from_json(&j))
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = vec![vec![Value::Int(1), sym("x")], vec![Value::Int(2), sym("y")]];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(Digest::of(&a), Digest::of(&b));
        let c = vec![vec![Value::Int(1), sym("y")], vec![Value::Int(2), sym("x")]];
        assert_ne!(Digest::of(&a), Digest::of(&c));
        // Tagging keeps Int(1) apart from a string with the same bytes.
        assert_ne!(row_hash(&[Value::Int(1)]), row_hash(&[sym("\u{1}")]));
    }

    #[test]
    fn chained_digest_depends_on_op_order() {
        let x = Digest { rows: 1, sum: 11 };
        let y = Digest { rows: 2, sum: 22 };
        let (mut xy, mut yx) = (Digest::default(), Digest::default());
        xy.chain(x);
        xy.chain(y);
        yx.chain(y);
        yx.chain(x);
        assert_eq!(xy.rows, 3);
        assert_ne!(xy.sum, yx.sum);
    }

    #[test]
    fn rng_streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 3), draw(42, 3));
        assert_ne!(draw(42, 3), draw(42, 4));
        assert_ne!(draw(42, 3), draw(7, 3));
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(1, 0).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_ne!(v, sorted);
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pinned_round_trips_through_json() {
        let p = Pinned {
            ops: 6,
            digest: Digest {
                rows: 110_604,
                sum: 0xfeed_face_dead_beef,
            },
        };
        let j = Json::parse(&p.to_json("lfp_tree", 42).render()).unwrap();
        assert_eq!(Pinned::from_json(&j).unwrap(), p);
    }
}
