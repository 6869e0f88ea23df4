//! `lfp_scale`: the whole closure of 50 000 integer-keyed chain edges, no
//! index. The base relation is 1.15x the 256-frame buffer pool and the
//! loop's temporaries (150 000 answers) several times that: an op misses
//! the pool some 11 000 times.
//!
//! ROADMAP item 3's headline shape (there 1.5 s for 300 000 answers; here
//! half of that, so that a 5-second window holds six ops): five
//! iterations of huge deltas, so hash-join build and probe, heap scans,
//! buffer misses and bulk temp-table inserts dominate, and per-statement
//! overhead is negligible.

use super::{err, CompiledClient, Workload};
use crate::check::{Digest, Rng};
use crate::trace::Tracer;
use hornlog::types::AttrType;
use km::session::{Session, SessionConfig};
use rdbms::{Registry, Value};
use std::collections::{HashMap, HashSet};

/// Rows per `load_facts` call, as the scale experiments load them.
const LOAD_CHUNK: usize = 10_000;

pub struct LfpScale {
    edges: Vec<(i64, i64)>,
    expected: Digest,
    staged: Option<Vec<Vec<Vec<Value>>>>,
}

/// `workload::scaled_chains` with every node id shifted by a seeded
/// offset. The shift changes every key the program sees and nothing
/// about the work: same shape, same insertion order, same key spacing.
pub fn seeded_chains(edges: usize, rng: &mut Rng) -> Vec<(i64, i64)> {
    let offset = rng.below(1 << 20) as i64;
    workload::scaled_chains(edges)
        .into_iter()
        .map(|(a, b)| (a + offset, b + offset))
        .collect()
}

/// Reference transitive closure: a depth-first walk from every source
/// node, no SQL and no fixpoint loop. Rows are `(from, to)` pairs.
pub fn closure(edges: &[(i64, i64)]) -> Digest {
    let mut next: HashMap<i64, Vec<i64>> = HashMap::new();
    for &(a, b) in edges {
        next.entry(a).or_default().push(b);
    }
    let mut d = Digest::default();
    let mut seen = HashSet::new();
    let mut stack = Vec::new();
    for (&from, out) in &next {
        seen.clear();
        stack.extend_from_slice(out);
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                d.add(&[Value::Int(from), Value::Int(n)]);
                if let Some(more) = next.get(&n) {
                    stack.extend_from_slice(more);
                }
            }
        }
    }
    d
}

impl Workload for LfpScale {
    const NAME: &'static str = "lfp_scale";
    type Client = CompiledClient;

    fn new(seed: u64, quick: bool) -> Self {
        let n = if quick { 5_000 } else { 50_000 };
        let edges = seeded_chains(n, &mut Rng::new(seed, 2));
        let expected = closure(&edges);
        LfpScale {
            edges,
            expected,
            staged: None,
        }
    }

    fn warmup_ops(&self) -> u64 {
        1
    }

    fn stage(&mut self) {
        self.staged = Some(
            self.edges
                .chunks(LOAD_CHUNK)
                .map(workload::int_edges_to_rows)
                .collect(),
        );
    }

    fn setup(&mut self) -> Result<Vec<CompiledClient>, String> {
        let chunks = self.staged.take().ok_or("setup without stage")?;
        let mut s = Session::new(SessionConfig::default()).map_err(err)?;
        s.define_base("edge", &[AttrType::Int, AttrType::Int])
            .map_err(err)?;
        for rows in chunks {
            s.load_facts("edge", rows).map_err(err)?;
        }
        s.load_rules(&workload::ancestor_program("edge"))
            .map_err(err)?;
        let compiled = s.compile("?- anc(X, Y).").map_err(err)?;
        Ok(vec![CompiledClient {
            session: s,
            compiled,
        }])
    }

    fn op(
        &self,
        cl: &mut CompiledClient,
        _c: usize,
        _i: u64,
        t: &mut Tracer,
    ) -> Result<Digest, String> {
        cl.execute(t, self.expected)
    }

    fn op_registry(&self, cl: &CompiledClient) -> Option<Registry> {
        Some(cl.registry())
    }

    fn phase_registry(&self, clients: &[CompiledClient]) -> Registry {
        clients[0].registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_of_chains_is_three_times_the_edges() {
        let edges = seeded_chains(1000, &mut Rng::new(42, 2));
        assert_eq!(edges.len(), 1000);
        assert_eq!(closure(&edges).rows, 3000);
        // Shifting changes the checksum, not the count.
        let other = seeded_chains(1000, &mut Rng::new(7, 2));
        assert_eq!(closure(&other).rows, 3000);
        assert_ne!(closure(&other).sum, closure(&edges).sum);
    }

    #[test]
    fn closure_handles_cycles_and_diamonds() {
        // 1 -> 2 -> 3 -> 1: each node reaches all three.
        assert_eq!(closure(&[(1, 2), (2, 3), (3, 1)]).rows, 9);
        // Diamond: 1 -> {2, 3} -> 4: (1,2) (1,3) (1,4) (2,4) (3,4).
        assert_eq!(closure(&[(1, 2), (1, 3), (2, 4), (3, 4)]).rows, 5);
    }
}
