//! Property tests of the graph substrate: random DAGs must uphold the
//! structural invariants the rewrite engine relies on.

use proptest::prelude::*;
use pypm_core::{SymbolTable, TermStore};
use pypm_graph::{
    DType, Graph, GraphError, NodeId, OpRegistry, ShapeId, StdOps, TensorMeta, TermView, TopoWalk,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

struct Fx {
    syms: SymbolTable,
    reg: OpRegistry,
    ops: StdOps,
}

fn fx() -> Fx {
    let mut syms = SymbolTable::new();
    let mut reg = OpRegistry::new();
    let ops = StdOps::declare(&mut reg, &mut syms);
    Fx { syms, reg, ops }
}

/// Builds a random square-matrix DAG: a few inputs, then a sequence of
/// unary/binary pointwise ops and matmuls over earlier nodes.
fn random_graph(fx: &mut Fx, seed: u64, size: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let dim = 8i64;
    let mut nodes: Vec<NodeId> = (0..3)
        .map(|_| g.input(&mut fx.syms, DType::F32, [dim, dim]))
        .collect();
    for _ in 0..size {
        let pick = nodes[rng.gen_range(0..nodes.len())];
        let n = match rng.gen_range(0..6) {
            0 => g
                .op(&mut fx.syms, &fx.reg, fx.ops.relu, vec![pick], vec![])
                .unwrap(),
            1 => g
                .op(&mut fx.syms, &fx.reg, fx.ops.gelu, vec![pick], vec![])
                .unwrap(),
            2 => g
                .op(&mut fx.syms, &fx.reg, fx.ops.trans, vec![pick], vec![])
                .unwrap(),
            3 | 4 => {
                let other = nodes[rng.gen_range(0..nodes.len())];
                g.op(&mut fx.syms, &fx.reg, fx.ops.add, vec![pick, other], vec![])
                    .unwrap()
            }
            _ => {
                let other = nodes[rng.gen_range(0..nodes.len())];
                g.op(
                    &mut fx.syms,
                    &fx.reg,
                    fx.ops.matmul,
                    vec![pick, other],
                    vec![],
                )
                .unwrap()
            }
        };
        nodes.push(n);
    }
    // Mark a couple of late nodes as outputs.
    let k = nodes.len();
    g.mark_output(nodes[k - 1]);
    g.mark_output(nodes[k / 2]);
    g
}

/// A random rewrite on a garbage-free graph: the root is any reachable
/// node; the replacement is another one (which may sit above the root —
/// a cycle — or anywhere else) or, half of the time, a node freshly built
/// over one, as a rule's right-hand side is.
fn random_replacement(fx: &mut Fx, g: &mut Graph, rng: &mut StdRng) -> (NodeId, NodeId) {
    let live = g.topo_order();
    let root = live[rng.gen_range(0..live.len())];
    let existing = live[rng.gen_range(0..live.len())];
    let replacement = if rng.gen_range(0..2) == 0 {
        existing
    } else {
        g.op(&mut fx.syms, &fx.reg, fx.ops.relu, vec![existing], vec![])
            .unwrap()
    };
    (root, replacement)
}

/// The outputs-first post-order, written out recursively: from each
/// live output in turn, a node follows all its inputs, and a node
/// reached twice is emitted the first time. The oracle of `TopoWalk`,
/// which `topo_order` is built on and so cannot be.
fn recursive_post_order(g: &Graph) -> Vec<NodeId> {
    let inputs: Vec<Vec<NodeId>> = (g.allocated_since(0).into_iter())
        .map(|n| g.inputs(n).to_vec())
        .collect();
    post_order_over(g, &inputs)
}

/// [`recursive_post_order`] over `g`'s outputs and liveness, following
/// the edges of `inputs` (indexed by node) rather than the graph's.
fn post_order_over(g: &Graph, inputs: &[Vec<NodeId>]) -> Vec<NodeId> {
    fn visit(inputs: &[Vec<NodeId>], n: NodeId, seen: &mut [bool], order: &mut Vec<NodeId>) {
        if std::mem::replace(&mut seen[n.index()], true) {
            return;
        }
        for &input in &inputs[n.index()] {
            visit(inputs, input, seen, order);
        }
        order.push(n);
    }
    let mut seen = vec![false; inputs.len()];
    let mut order = Vec::new();
    for &out in g.outputs() {
        if g.is_alive(out) {
            visit(inputs, out, &mut seen, &mut order);
        }
    }
    order
}

/// `walk` restarted on `g` and drained.
fn drain(walk: &mut TopoWalk, g: &Graph) -> Vec<NodeId> {
    walk.restart(g);
    std::iter::from_fn(|| walk.next(g)).collect()
}

/// A random graph with every shape the walk must get right: garbage
/// (`random_graph` leaves some, and one more unread node), three
/// outputs of which one is dead, and a node that reads one input twice.
fn walk_fixture(fx: &mut Fx, seed: u64, size: usize) -> Graph {
    let mut g = random_graph(fx, seed, size);
    let last = g.outputs()[0];
    let twice = g
        .op(&mut fx.syms, &fx.reg, fx.ops.add, vec![last, last], vec![])
        .unwrap();
    g.mark_output(twice);
    // A node nothing reads, collected, then listed as an output.
    let dead = g
        .op(&mut fx.syms, &fx.reg, fx.ops.relu, vec![twice], vec![])
        .unwrap();
    assert_eq!(g.collect(dead, &mut Vec::new()), [dead]);
    g.mark_output(dead);
    g.op(&mut fx.syms, &fx.reg, fx.ops.gelu, vec![last], vec![])
        .unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TopoWalk`, the one post-order DFS of the graph, against the
    /// recursive definition: drained, it yields the same order; stopped
    /// after `k` nodes — as a restart round stops at its firing — and
    /// restarted after a rewrite, it yields the rewritten graph's order
    /// from the first node, with nothing left over from the first walk;
    /// and restarted on a graph that grew past the buffers it last
    /// sized, it covers the new nodes too.
    #[test]
    fn topo_walk_is_the_recursive_post_order(
        seed in any::<u64>(),
        size in 2usize..40,
        stop in 0usize..48,
    ) {
        let mut f = fx();
        let mut g = walk_fixture(&mut f, seed, size);
        let mut walk = TopoWalk::default();
        let order = drain(&mut walk, &g);
        prop_assert_eq!(&order, &recursive_post_order(&g));
        prop_assert_eq!(&order, &g.topo_order());

        // Stop after k nodes, rewrite, restart.
        walk.restart(&g);
        let k = stop.min(order.len());
        for &expected in &order[..k] {
            prop_assert_eq!(walk.next(&g), Some(expected));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1c);
        let (root, replacement) = random_replacement(&mut f, &mut g, &mut rng);
        if g.replace(root, replacement).is_ok() {
            g.collect(root, &mut Vec::new());
        }
        let rewritten = drain(&mut walk, &g);
        prop_assert_eq!(&rewritten, &recursive_post_order(&g));
        prop_assert_eq!(&rewritten, &g.topo_order());

        // Grow the graph past the walk's `visited` length.
        let top = *rewritten.last().unwrap();
        let grown = g
            .op(&mut f.syms, &f.reg, f.ops.relu, vec![top], vec![])
            .unwrap();
        g.mark_output(grown);
        let after_growth = drain(&mut walk, &g);
        prop_assert_eq!(after_growth.last(), Some(&grown));
        prop_assert_eq!(&after_growth, &recursive_post_order(&g));
    }

    /// The edge arena against a shadow that keeps every node's inputs
    /// in a vector of its own, through random `op` / `replace_traced` /
    /// `collect` / `gc` sequences. The shadow knows only the contract:
    /// a node is built reading what it was given, a replacement points
    /// every live reader of the root at the replacement, and collecting
    /// changes no node's inputs — a dead node keeps its run. After
    /// every step, `Graph::inputs` reads the shadow for every allocated
    /// node, dead ones included, and `topo_order` — the restart scan's
    /// walk, drained — is the recursive post-order over the shadow.
    #[test]
    fn the_edge_arena_follows_a_vector_per_node(seed in any::<u64>(), steps in 1usize..48) {
        let mut f = fx();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new();
        let mut shadow = Shadow::new(&mut f, &mut g);
        for _ in 0..steps {
            shadow.step(&mut f, &mut g, &mut rng);
            prop_assert_eq!(g.allocated_count(), shadow.inputs.len());
            for (&n, inputs) in shadow.ids.iter().zip(&shadow.inputs) {
                prop_assert_eq!(g.inputs(n), inputs.as_slice(), "inputs of {:?}", n);
            }
            prop_assert_eq!(g.topo_order(), post_order_over(&g, &shadow.inputs));
            g.validate().unwrap();
        }
    }

    /// The use-lists against a reverse adjacency rebuilt from the
    /// inputs of every live node, through the same random `op` /
    /// `replace_traced` / `collect` / `gc` sequences: after every step,
    /// `users_of` every allocated node, dead ones included, lists the
    /// live nodes reading it once per edge — compared as multisets,
    /// since a list's order is unspecified. The walk is cut off past
    /// the arena's slot count, so a list that loops reads as too long
    /// rather than hanging the test. `validate` is not asked: this is
    /// the oracle it is checked against.
    #[test]
    fn the_use_lists_are_the_inputs_reversed(seed in any::<u64>(), steps in 1usize..48) {
        let mut f = fx();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new();
        let mut shadow = Shadow::new(&mut f, &mut g);
        for _ in 0..steps {
            shadow.step(&mut f, &mut g, &mut rng);
            let mut readers: Vec<Vec<NodeId>> = vec![Vec::new(); g.allocated_count()];
            let mut slots = 0;
            for &u in &shadow.ids {
                slots += g.inputs(u).len();
                if g.is_alive(u) {
                    for &i in g.inputs(u) {
                        readers[i.index()].push(u);
                    }
                }
            }
            for (&n, expected) in shadow.ids.iter().zip(&mut readers) {
                let mut listed: Vec<NodeId> = g.users_of(n).take(slots + 1).collect();
                listed.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(&listed, expected, "users of {:?}", n);
            }
        }
    }
}

/// What the random graph-editing proptests know of the graph they
/// edit: every node allocated, and the inputs each was built with,
/// rewired as the contract of `replace_traced` says.
struct Shadow {
    ids: Vec<NodeId>,
    inputs: Vec<Vec<NodeId>>,
    foreign: pypm_core::Symbol,
    sq: TensorMeta,
}

impl Shadow {
    /// Two inputs, the first an output.
    fn new(f: &mut Fx, g: &mut Graph) -> Shadow {
        let sq = g.meta(DType::F32, [8, 8]);
        let ids: Vec<NodeId> = (0..2)
            .map(|_| g.input(&mut f.syms, DType::F32, [8, 8]))
            .collect();
        g.mark_output(ids[0]);
        Shadow {
            ids,
            inputs: vec![Vec::new(); 2],
            foreign: f.syms.op("ForeignOp", 1),
            sq,
        }
    }

    /// One random edit: a new node of up to three inputs (an opaque
    /// one among them), a replacement perhaps followed by a collect, a
    /// collect of any node, or a whole-graph `gc`.
    fn step(&mut self, f: &mut Fx, g: &mut Graph, rng: &mut StdRng) {
        let ids = &self.ids;
        let live: Vec<NodeId> = ids.iter().copied().filter(|&n| g.is_alive(n)).collect();
        let any = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())];
        let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
        match rng.gen_range(0..10) {
            0..=3 => {
                let inputs: Vec<NodeId> = match rng.gen_range(0..6) {
                    0 => vec![],
                    1 | 2 => vec![pick(rng)],
                    3 | 4 => vec![pick(rng), pick(rng)],
                    _ => vec![pick(rng), pick(rng), pick(rng)],
                };
                let sq = self.sq;
                let n = match inputs.len() {
                    0 => g.input(&mut f.syms, DType::F32, [8, 8]),
                    1 if rng.gen_bool(0.3) => {
                        g.opaque(&mut f.syms, self.foreign, &inputs, sq).unwrap()
                    }
                    1 => g.op(&mut f.syms, &f.reg, f.ops.relu, &inputs, []).unwrap(),
                    2 => g
                        .op(&mut f.syms, &f.reg, f.ops.matmul, &inputs, [])
                        .unwrap(),
                    _ => g.op_with_meta(f.ops.fmha, &inputs, [], sq).unwrap(),
                };
                assert_eq!(n.index(), self.inputs.len());
                self.ids.push(n);
                self.inputs.push(inputs);
                if rng.gen_bool(0.3) {
                    g.mark_output(n);
                }
            }
            4..=6 => {
                let (root, replacement) = (any(rng), pick(rng));
                if g.replace_traced(root, replacement, &mut Vec::new()).is_ok() {
                    for (&u, inputs) in self.ids.iter().zip(&mut self.inputs) {
                        if g.is_alive(u) {
                            for i in inputs.iter_mut().filter(|i| **i == root) {
                                *i = replacement;
                            }
                        }
                    }
                    if rng.gen_bool(0.5) {
                        g.collect(root, &mut Vec::new());
                    }
                }
            }
            7 | 8 => {
                g.collect(any(rng), &mut Vec::new());
            }
            _ => {
                g.gc();
            }
        }
    }
}

/// `g.users_of(n)` as a sorted vector: a use-list's order is
/// unspecified, so lists compare as multisets.
fn users(g: &Graph, n: NodeId) -> Vec<NodeId> {
    let mut users: Vec<NodeId> = g.users_of(n).collect();
    users.sort_unstable();
    users
}

/// A walk is one graph's: mutating the graph under a started walk trips
/// the debug builds' revision check at the next step.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "the graph changed under a topological walk")]
fn a_walk_refuses_a_graph_that_changed_under_it() {
    let mut f = fx();
    let mut g = walk_fixture(&mut f, 7, 12);
    let mut walk = TopoWalk::default();
    walk.restart(&g);
    assert!(walk.next(&g).is_some());
    let top = g.outputs()[0];
    g.op(&mut f.syms, &f.reg, f.ops.relu, vec![top], vec![])
        .unwrap();
    walk.next(&g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `replace_traced` reads the rewired users off the reverse
    /// adjacency and decides `WouldCycle` with a search bounded by the
    /// maintained levels. The oracle scans every node for readers of
    /// the root and asks `depends_on` once per reader — over a sequence
    /// of rewrites, so that later ones see edges pointing at higher ids
    /// and levels an earlier one raised. `validate` checks the levels
    /// after every verdict; a rejection must not have moved one.
    #[test]
    fn replace_traced_agrees_with_a_scan_of_every_node(seed in any::<u64>(), size in 2usize..40) {
        let mut f = fx();
        let mut g = random_graph(&mut f, seed, size);
        g.gc();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..6 {
            let (root, replacement) = random_replacement(&mut f, &mut g, &mut rng);
            let readers: Vec<NodeId> = g
                .allocated_since(0)
                .into_iter()
                .filter(|&n| g.is_alive(n) && g.inputs(n).contains(&root))
                .collect();
            let cyclic = readers.iter().any(|&u| g.depends_on(replacement, u));
            let before = g.clone();
            let mut rewired = vec![root];
            match g.replace_traced(root, replacement, &mut rewired) {
                Ok(rewired) if root == replacement => prop_assert_eq!(rewired, []),
                Ok(rewired) => {
                    prop_assert!(!cyclic, "{root:?} -> {replacement:?} closes a cycle");
                    prop_assert_eq!(rewired, &readers);
                    for &u in rewired {
                        prop_assert!(!g.inputs(u).contains(&root));
                    }
                    g.validate().unwrap();
                    g.collect(root, &mut Vec::new());
                }
                Err(e) => {
                    prop_assert!(cyclic && root != replacement, "{e}");
                    prop_assert_eq!(e, GraphError::WouldCycle { root, replacement });
                    // A rejected replacement changes nothing.
                    prop_assert_eq!(g.revision(), before.revision());
                    for n in g.allocated_since(0) {
                        prop_assert_eq!(g.inputs(n), before.inputs(n));
                        prop_assert_eq!(users(&g, n), users(&before, n));
                        prop_assert_eq!(g.level_of(n), before.level_of(n));
                    }
                    g.validate().unwrap();
                    // (The fresh replacement, if any, is garbage now.)
                    g.gc();
                }
            }
            g.validate().unwrap();
        }
        // Decoding builds through the public constructors, so a
        // rewritten graph comes back levelled (and canonical) — every
        // one does: replacing one output by another merges the two
        // entries, so the decoder never meets a repeated output.
        let bytes = pypm_wire::encode_graph(&g, &f.syms);
        let mut fresh = SymbolTable::new();
        let decoded = pypm_wire::decode_graph(&bytes, &mut fresh).unwrap();
        decoded.validate().unwrap();
        prop_assert_eq!(decoded.live_count(), g.live_count());
        prop_assert_eq!(pypm_wire::encode_graph(&decoded, &fresh), bytes);
    }

    /// Collecting by reference count from the replaced root frees what
    /// a mark-sweep over the whole graph frees: the same ids in the same
    /// order, leaving the same use-lists (as multisets).
    #[test]
    fn collect_agrees_with_mark_sweep(seed in any::<u64>(), size in 2usize..40) {
        let mut f = fx();
        let mut g = random_graph(&mut f, seed, size);
        g.gc();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc011ec7);
        for _ in 0..6 {
            let (root, replacement) = random_replacement(&mut f, &mut g, &mut rng);
            if g.replace(root, replacement).is_err() {
                g.gc();
                continue;
            }
            let mut swept = g.clone();
            let freed = g.collect(root, &mut Vec::new()).to_vec();
            prop_assert_eq!(&freed, &swept.gc());
            prop_assert!(freed.windows(2).all(|w| w[0] < w[1]), "ascending: {freed:?}");
            for n in g.allocated_since(0) {
                prop_assert_eq!(g.is_alive(n), swept.is_alive(n));
                prop_assert_eq!(users(&g, n), users(&swept, n), "users of {:?}", n);
            }
            prop_assert_eq!(g.topo_order(), swept.topo_order());
            g.validate().unwrap();
            swept.validate().unwrap();
            prop_assert!(g.gc().is_empty(), "collect left garbage");
        }
    }

    /// Topological order places every node after its inputs and covers
    /// exactly the reachable live nodes.
    #[test]
    fn topo_order_is_consistent(seed in any::<u64>(), size in 1usize..40) {
        let mut f = fx();
        let g = random_graph(&mut f, seed, size);
        let order = g.topo_order();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &n in &order {
            for &input in g.inputs(n) {
                prop_assert!(pos[&input] < pos[&n], "{input:?} not before {n:?}");
            }
        }
        // No duplicates.
        prop_assert_eq!(pos.len(), order.len());
    }

    /// GC never removes reachable nodes, and is idempotent.
    #[test]
    fn gc_preserves_reachable(seed in any::<u64>(), size in 1usize..40) {
        let mut f = fx();
        let mut g = random_graph(&mut f, seed, size);
        let reachable_before = g.topo_order();
        g.gc();
        for &n in &reachable_before {
            prop_assert!(g.is_alive(n));
        }
        let freed_again = g.gc();
        prop_assert!(freed_again.is_empty(), "gc must be idempotent");
        g.validate().unwrap();
    }

    /// The term view is total on reachable nodes, and below a node,
    /// `node_below ∘ term_of` finds a node denoting the same term: for
    /// the node's own term the node itself, for an input's term that
    /// input or a twin among the node's inputs.
    #[test]
    fn term_view_roundtrips(seed in any::<u64>(), size in 1usize..30) {
        let mut f = fx();
        let g = random_graph(&mut f, seed, size);
        let mut terms = TermStore::new();
        let mut view = TermView::build(&g, &mut f.syms, &mut terms, &f.reg);
        for n in g.topo_order() {
            let t = view.term_of(n);
            prop_assert!(t.is_some(), "{n:?} missing from view");
            prop_assert_eq!(view.node_below(&g, n, t.unwrap()), Some(n));
            for &i in g.inputs(n) {
                let ti = view.term_of(i).unwrap();
                let back = view.node_below(&g, n, ti);
                prop_assert!(back.is_some_and(|b| g.inputs(n).contains(&b)));
                prop_assert_eq!(view.term_of(back.unwrap()), Some(ti));
            }
        }
    }

    /// What a patch leaves owed — the incremental scan's worklist —
    /// against a brute-force set: after each random rewrite, collect
    /// and patch, the view owes exactly the live nodes that depend on a
    /// live member of the seed (a fixpoint over every node's inputs)
    /// or that it owed before. The view starts unseen or eagerly built,
    /// and random reads between steps mix clean, stale and unseen
    /// nodes.
    #[test]
    fn a_patch_owes_the_live_seed_and_everything_above_it(
        seed in any::<u64>(),
        size in 2usize..40,
    ) {
        let mut f = fx();
        let mut g = random_graph(&mut f, seed, size);
        g.gc();
        let mut terms = TermStore::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bed);
        let mut view = if rng.gen_range(0..2) == 0 {
            TermView::empty(&g, &mut f.syms)
        } else {
            TermView::build(&g, &mut f.syms, &mut terms, &f.reg)
        };
        let mut rewired = Vec::new();
        let mut freed = Vec::new();
        for _ in 0..6 {
            for n in g.topo_order() {
                if rng.gen_range(0..3) == 0 {
                    prop_assert!(view.term_of_repaired(&g, &mut terms, &f.reg, n).is_some());
                }
            }
            let owed_before: Vec<bool> = g.allocated_since(0).into_iter().map(|n| view.owes(n)).collect();
            let mark = g.allocated_count();
            let (root, replacement) = random_replacement(&mut f, &mut g, &mut rng);
            if g.replace_traced(root, replacement, &mut rewired).is_err() {
                // The fresh replacement, if any, is garbage the view
                // never saw.
                g.gc();
                continue;
            }
            freed.clear();
            g.collect(root, &mut freed);
            let seed: Vec<NodeId> = rewired
                .iter()
                .copied()
                .chain(g.allocated_since(mark))
                .chain(freed.iter().copied())
                .collect();
            view.patch(&g, seed.iter().copied());

            let mut expected = vec![false; g.allocated_count()];
            for &n in &seed {
                expected[n.index()] = g.is_alive(n);
            }
            loop {
                let mut grew = false;
                for n in g.allocated_since(0) {
                    let above = g.inputs(n).iter().any(|i| expected[i.index()]);
                    if g.is_alive(n) && !expected[n.index()] && above {
                        expected[n.index()] = true;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            for n in g.allocated_since(0) {
                let owed = owed_before.get(n.index()) == Some(&true) && g.is_alive(n);
                let expected = expected[n.index()] || owed;
                prop_assert_eq!(view.owes(n), expected, "{:?}, seed {:?}", n, seed);
            }
        }
    }

    /// Structurally identical subgraphs share a term id; distinct inputs
    /// never do.
    #[test]
    fn term_sharing_matches_structure(seed in any::<u64>()) {
        let mut f = fx();
        let mut g = Graph::new();
        let dim = 4i64;
        let a = g.input(&mut f.syms, DType::F32, [dim, dim]);
        let b = g.input(&mut f.syms, DType::F32, [dim, dim]);
        let _ = seed;
        let r1 = g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![]).unwrap();
        let r2 = g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![]).unwrap();
        let r3 = g.op(&mut f.syms, &f.reg, f.ops.relu, vec![b], vec![]).unwrap();
        let top = g
            .op(&mut f.syms, &f.reg, f.ops.add, vec![r1, r2], vec![])
            .unwrap();
        let top2 = g
            .op(&mut f.syms, &f.reg, f.ops.add, vec![top, r3], vec![])
            .unwrap();
        g.mark_output(top2);
        let mut terms = TermStore::new();
        let view = TermView::build(&g, &mut f.syms, &mut terms, &f.reg);
        prop_assert_eq!(view.term_of(r1), view.term_of(r2));
        prop_assert_ne!(view.term_of(r1), view.term_of(r3));
        prop_assert_ne!(view.term_of(a), view.term_of(b));
    }

    /// Replacing any non-output node with one of its own inputs (a
    /// "bypass" rewrite) preserves validity.
    #[test]
    fn bypass_replace_preserves_validity(seed in any::<u64>(), size in 2usize..30) {
        let mut f = fx();
        let mut g = random_graph(&mut f, seed, size);
        let candidates: Vec<NodeId> = g
            .topo_order()
            .into_iter()
            .filter(|&n| !g.inputs(n).is_empty())
            .collect();
        if let Some(&victim) = candidates.first() {
            let bypass = g.inputs(victim)[0];
            // Only sound if metadata agrees; skip otherwise (mirrors the
            // engine's semantics-preserving rewrites).
            if g.node(victim).meta == g.node(bypass).meta {
                g.replace(victim, bypass).unwrap();
                g.gc();
                g.validate().unwrap();
            }
        }
    }
}

/// Deterministic regression: `users_of` lists each user once per edge.
#[test]
fn users_counts_multi_edges() {
    let mut f = fx();
    let mut g = Graph::new();
    let a = g.input(&mut f.syms, DType::F32, [2, 2]);
    let add = g
        .op(&mut f.syms, &f.reg, f.ops.add, vec![a, a], vec![])
        .unwrap();
    g.mark_output(add);
    assert_eq!(users(&g, a), [add, add]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The graph's shape table against a map from extent lists to ids,
    /// over random lists — rank 0 to 7, extents from a small alphabet so
    /// that lists repeat — interned through `Graph::meta` and
    /// `Graph::input`, across several doublings of the table's index:
    /// equal lists get equal ids and unequal lists unequal ones, an id
    /// reads back its list, and its element count is the product.
    #[test]
    fn the_shape_table_agrees_with_a_map_of_extent_lists(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut syms = SymbolTable::new();
        let mut g = Graph::new();
        let mut model: HashMap<Vec<i64>, ShapeId> = HashMap::new();
        model.insert(Vec::new(), ShapeId::SCALAR);
        for _ in 0..400 {
            let rank = rng.gen_range(0..8usize);
            let dims: Vec<i64> = (0..rank)
                .map(|_| [0i64, 1, 2, 3, 48][rng.gen_range(0..5usize)])
                .collect();
            let shape = if rng.gen_bool(0.5) {
                g.meta(DType::F32, &dims).shape
            } else {
                let n = g.input(&mut syms, DType::I8, &dims);
                g.node(n).meta.shape
            };
            match model.get(&dims) {
                Some(&known) => prop_assert_eq!(shape, known, "{:?} again", dims),
                None => {
                    prop_assert!(
                        model.values().all(|&other| other != shape),
                        "{:?} took another list's id",
                        dims
                    );
                    model.insert(dims.clone(), shape);
                }
            }
            let shapes = g.shapes();
            prop_assert_eq!(shapes.dims(shape), dims.as_slice());
            prop_assert_eq!(shapes.rank(shape), rank);
            prop_assert_eq!(shapes.numel(shape), dims.iter().product::<i64>());
        }
        prop_assert_eq!(g.shapes().len(), model.len());
        prop_assert!(model.len() > 64, "only {} distinct lists", model.len());
        for (dims, &shape) in &model {
            prop_assert_eq!(g.meta(DType::Bool, dims).shape, shape);
            prop_assert_eq!(g.shapes().dims(shape), dims.as_slice());
        }
        prop_assert_eq!(g.shapes().len(), model.len(), "nothing interned twice");
    }
}
