//! Which node the scan visits next: the two scan orders
//! [`SweepPolicy`] selects between, and the dev builds' checks of both
//! (invariant 4 of [`super::Driver::scan`]).

use super::SweepPolicy;
use pypm_graph::{Graph, NodeId, TermView, TopoWalk};

/// The graph's topological order ([`Graph::topo_order`]) as the scan
/// walks it, one variant per [`SweepPolicy`].
pub(super) enum ScanOrder {
    /// The order from the cursor on, reversed: a step is a pop, and
    /// splicing fresh nodes in at the cursor is a push. Its candidates
    /// are the nodes the view owes a term.
    Resumed(Vec<NodeId>),
    /// The walk, restarted every round; every node it yields is a
    /// candidate. Beside it, what it must yield this round, reversed
    /// (dev builds only; empty, and never allocated, otherwise).
    Restart(TopoWalk, Vec<NodeId>),
}

/// `graph`'s order, next node last.
fn reversed_order(graph: &Graph) -> Vec<NodeId> {
    let mut order = graph.topo_order();
    order.reverse();
    order
}

impl ScanOrder {
    /// The order `policy` scans `graph` in.
    pub(super) fn new(policy: SweepPolicy, graph: &Graph) -> Self {
        match policy {
            SweepPolicy::Incremental => ScanOrder::Resumed(reversed_order(graph)),
            SweepPolicy::RestartOnRewrite => ScanOrder::Restart(TopoWalk::default(), Vec::new()),
        }
    }

    /// Starts a round: the restart walk rewinds to the first node of the
    /// graph's order; the resumed order stays where its cursor is.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(super) fn start_round(&mut self, graph: &Graph, view: &TermView) {
        if let ScanOrder::Restart(walk, _) = self {
            walk.restart(graph);
        }
        #[cfg(debug_assertions)]
        self.check_round(graph, view);
    }

    /// The round's next candidate, after stepping over those nodes that
    /// are not (each step counted on `steps`); `None` at the end of the
    /// order.
    #[inline]
    pub(super) fn next(
        &mut self,
        graph: &Graph,
        view: &TermView,
        steps: &mut u64,
    ) -> Option<NodeId> {
        match self {
            ScanOrder::Resumed(ahead) => loop {
                let node = ahead.pop()?;
                *steps += 1;
                if view.owes(node) {
                    return Some(node);
                }
            },
            ScanOrder::Restart(walk, expected) => {
                let node = walk.next(graph);
                debug_assert_eq!(expected.pop(), node, "restart walk diverged");
                *steps += u64::from(node.is_some());
                node
            }
        }
    }

    /// Puts a firing's `created` nodes where its root stood: the resumed
    /// order's next nodes, in allocation order. The restart walk derives
    /// its next round from the graph alone.
    pub(super) fn splice(&mut self, created: &[NodeId]) {
        if let ScanOrder::Resumed(ahead) = self {
            ahead.extend(created.iter().rev());
        }
    }
}

/// The dev builds' checks, once per round. The resumed order ahead of
/// the cursor, filtered to the nodes the view owes a term, must be a
/// recomputed [`Graph::topo_order`] filtered the same way. The restart
/// walk takes the graph's order as the round starts, and
/// [`ScanOrder::next`] holds every node the walk yields against it.
#[cfg(debug_assertions)]
impl ScanOrder {
    fn check_round(&mut self, graph: &Graph, view: &TermView) {
        match self {
            ScanOrder::Resumed(ahead) => {
                let owed = |n: &NodeId| view.owes(*n);
                let resumed: Vec<NodeId> = ahead.iter().rev().copied().filter(owed).collect();
                let recomputed: Vec<NodeId> = graph.topo_order().into_iter().filter(owed).collect();
                assert_eq!(resumed, recomputed, "resumed scan order diverged");
            }
            ScanOrder::Restart(_, expected) => *expected = reversed_order(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pypm_core::testing::TestSig;
    use pypm_core::TermStore;
    use pypm_graph::{DType, OpRegistry};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random DAG over the test signature's operators: two inputs,
    /// `size` unary and binary nodes reading random earlier ones, and
    /// every node nobody reads an output.
    fn random_graph(sig: &mut TestSig, rng: &mut StdRng, size: usize) -> Graph {
        let mut g = Graph::new();
        let meta = g.meta(DType::F32, [2, 2]);
        let mut nodes: Vec<NodeId> = (0..2)
            .map(|_| g.input(&mut sig.syms, DType::F32, [2, 2]))
            .collect();
        for _ in 0..size {
            let mut pick = || nodes[rng.gen_range(0..nodes.len())];
            let (a, b) = (pick(), pick());
            let node = if rng.gen_bool(0.5) {
                let op = sig.unaries[rng.gen_range(0..sig.unaries.len())];
                g.op_with_meta(op, [a], [], meta)
            } else {
                let op = sig.binaries[rng.gen_range(0..sig.binaries.len())];
                g.op_with_meta(op, [a, b], [], meta)
            };
            nodes.push(node.expect("metadata given"));
        }
        for n in nodes {
            if g.users_of(n).next().is_none() {
                g.mark_output(n);
            }
        }
        g
    }

    /// Builds a random replacement template into `g` over the `leaves`
    /// (depth at most `depth`), allocating its nodes in post-order, as
    /// the rewrite pass instantiates a rule's right-hand side.
    fn template(
        sig: &TestSig,
        g: &mut Graph,
        rng: &mut StdRng,
        leaves: &[NodeId],
        depth: u32,
    ) -> NodeId {
        let meta = g.node(leaves[0]).meta;
        match rng.gen_range(0..3) {
            _ if depth == 0 => leaves[rng.gen_range(0..leaves.len())],
            0 => leaves[rng.gen_range(0..leaves.len())],
            1 => {
                let a = template(sig, g, rng, leaves, depth - 1);
                let op = sig.unaries[rng.gen_range(0..sig.unaries.len())];
                g.op_with_meta(op, [a], [], meta).expect("metadata given")
            }
            _ => {
                let a = template(sig, g, rng, leaves, depth - 1);
                let b = template(sig, g, rng, leaves, depth - 1);
                let op = sig.binaries[rng.gen_range(0..sig.binaries.len())];
                g.op_with_meta(op, [a, b], [], meta)
                    .expect("metadata given")
            }
        }
    }

    /// Every node `root` reads, transitively.
    fn input_cone(g: &Graph, root: NodeId) -> Vec<NodeId> {
        let mut cone: Vec<NodeId> = g.inputs(root).to_vec();
        let mut at = 0;
        while let Some(&n) = cone.get(at) {
            cone.extend(
                g.inputs(n)
                    .iter()
                    .filter(|i| !cone.contains(i))
                    .collect::<Vec<_>>(),
            );
            at += 1;
        }
        cone
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The resumed order against the graph's recomputed one, after
        /// every firing: the scan's steps done by hand — intern each
        /// candidate the order yields, fire a random replacement over
        /// its input cone at some of them (`replace_traced`, `collect`,
        /// `patch`), splice the created nodes in — and the owed nodes
        /// ahead of the cursor are the owed nodes of `topo_order()`, in
        /// its order.
        #[test]
        fn the_resumed_order_is_the_topological_order_of_the_owed_nodes(
            seed in any::<u64>(),
            size in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sig = TestSig::new();
            let mut g = random_graph(&mut sig, &mut rng, size);
            let (mut terms, registry) = (TermStore::new(), OpRegistry::new());
            let mut view = TermView::empty(&g, &mut sig.syms);
            let mut order = ScanOrder::new(SweepPolicy::Incremental, &g);
            let (mut rewired, mut freed, mut steps) = (Vec::new(), Vec::new(), 0);
            let mut firings = 0;
            while let Some(root) = order.next(&g, &view, &mut steps) {
                view.term_of_repaired(&g, &mut sig.syms, &mut terms, &registry, root);
                let cone = input_cone(&g, root);
                if cone.is_empty() || firings == 2 * size || rng.gen_bool(0.5) {
                    continue;
                }
                firings += 1;
                let mark = g.allocated_count();
                let replacement = template(&sig, &mut g, &mut rng, &cone, 2);
                g.replace_traced(root, replacement, &mut rewired).expect("built below the root");
                let created: Vec<NodeId> = (mark..g.allocated_count()).map(NodeId::from_index).collect();
                freed.clear();
                g.collect(root, &mut freed);
                let seed = rewired.iter().chain(&created).chain(&freed).copied();
                view.patch(&g, seed);
                order.splice(&created);

                let ScanOrder::Resumed(ahead) = &order else { unreachable!() };
                let owed = |n: &NodeId| view.owes(*n);
                let resumed: Vec<NodeId> = ahead.iter().rev().copied().filter(owed).collect();
                let recomputed: Vec<NodeId> = g.topo_order().into_iter().filter(owed).collect();
                prop_assert_eq!(resumed, recomputed, "after firing {} at {:?}", firings, root);
            }
            prop_assert!(g.live_count() > 0);
        }
    }
}
