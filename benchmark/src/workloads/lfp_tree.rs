//! `lfp_tree`: the whole ancestor relation of a symbol-keyed binary tree,
//! evaluated again and again by the semi-naive prepared LFP loop.
//!
//! The paper's Figure 11/12 and Table 5 core. Ten iterations of small
//! deltas over 2 046 edges that fit the buffer pool: the loop glue of
//! `km::runtime`, temp-table recycling, termination anti-joins, index
//! nested-loop joins and string cloning dominate, bulk operators do
//! little.

use super::{err, CompiledClient, Tree, Workload};
use crate::check::{Digest, Rng};
use crate::trace::Tracer;
use km::session::{binary_sym, Session, SessionConfig};
use rdbms::{Registry, Value};

pub struct LfpTree {
    tree: Tree,
    expected: Digest,
    staged: Option<Vec<Vec<Value>>>,
}

impl Workload for LfpTree {
    const NAME: &'static str = "lfp_tree";
    type Client = CompiledClient;

    fn new(seed: u64, quick: bool) -> Self {
        let tree = Tree::new(if quick { 7 } else { 11 }, &mut Rng::new(seed, 1));
        let expected = tree.closure();
        LfpTree {
            tree,
            expected,
            staged: None,
        }
    }

    fn warmup_ops(&self) -> u64 {
        6
    }

    fn stage(&mut self) {
        self.staged = Some(self.tree.rows());
    }

    fn setup(&mut self) -> Result<Vec<CompiledClient>, String> {
        let rows = self.staged.take().ok_or("setup without stage")?;
        let mut s = Session::new(SessionConfig::default()).map_err(err)?;
        s.define_base("parent", &binary_sym()).map_err(err)?;
        s.db_execute("CREATE INDEX parent_c0 ON parent (c0)")
            .map_err(err)?;
        s.load_facts("parent", rows).map_err(err)?;
        s.load_rules(&workload::ancestor_program("parent"))
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
