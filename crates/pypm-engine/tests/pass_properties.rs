//! Property tests of the rewrite pass on randomly generated graphs: for
//! any DAG of standard operators, the pass must terminate, preserve
//! graph validity, preserve output metadata (rewrites are
//! semantics-preserving), and be idempotent.

use proptest::prelude::*;
use pypm_dsl::LibraryConfig;
use pypm_engine::{MatcherBackend, PassStats, Pipeline, RewritePass, Session, SweepPolicy};
use pypm_graph::{DType, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_pass(s: &mut Session, pass: RewritePass, g: &mut Graph) -> PassStats {
    Pipeline::new(s).with(pass).run(g).unwrap().total()
}

/// Random DAG over the rewrite-relevant operator set, biased to contain
/// pattern-shaped fragments (matmul+transpose, matmul+activation,
/// attention-ish stacks, relu chains).
fn random_graph(s: &mut Session, seed: u64, size: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let dim = 8i64;
    let mut nodes: Vec<NodeId> = (0..3)
        .map(|_| g.input(&mut s.syms, DType::F32, [dim, dim]))
        .collect();
    let push = |n: NodeId, nodes: &mut Vec<NodeId>| nodes.push(n);
    for _ in 0..size {
        let a = nodes[rng.gen_range(0..nodes.len())];
        let b = nodes[rng.gen_range(0..nodes.len())];
        let n = match rng.gen_range(0..10) {
            0 | 1 => g.op(&mut s.syms, &s.registry, s.ops.relu, vec![a], vec![]),
            2 => g.op(&mut s.syms, &s.registry, s.ops.gelu, vec![a], vec![]),
            3 => g.op(&mut s.syms, &s.registry, s.ops.tanh, vec![a], vec![]),
            4 => g.op(&mut s.syms, &s.registry, s.ops.trans, vec![a], vec![]),
            5 => g.op(&mut s.syms, &s.registry, s.ops.softmax, vec![a], vec![]),
            6 | 7 => g.op(&mut s.syms, &s.registry, s.ops.matmul, vec![a, b], vec![]),
            8 => g.op(&mut s.syms, &s.registry, s.ops.add, vec![a, b], vec![]),
            _ => g.op(&mut s.syms, &s.registry, s.ops.mul, vec![a, b], vec![]),
        };
        // Square matrices make every op shape-compatible; anything that
        // still fails is a generator bug.
        push(n.expect("square ops compose"), &mut nodes);
    }
    let last = *nodes.last().unwrap();
    g.mark_output(last);
    g
}

/// Random DAG in which subgraphs recur. Besides fresh operators —
/// attributed ones among them, `MaxPool` with a `stride` and
/// `GemmEpilog` with an `epilog` — a step re-issues an existing
/// operator over the same inputs (a one-level twin), re-issues one of
/// its inputs first and the operator over that copy (a two-level twin),
/// re-issues an attributed operator over the same inputs under another
/// attribute value (a twin in structure only, another term), or adds
/// another `ConstScalar` of a value the graph may already hold (a
/// constant twin); operands lean
/// towards the newest node, and a step may build a rewrite site whose
/// variable binds it — `Trans(Trans(x))`, `MatMul(y, Trans(x))`,
/// `Relu(Relu(x))`, `MatMul(Trans(x), Trans(y))` — so rules fire over
/// fresh twins.
/// Every node no other node reads is an output, marked in shuffled
/// order: nothing is garbage, and the post-order can reach a lower-id
/// twin only after a higher-id one — a twin of what a rewrite reads may
/// sit ahead of the scan's cursor, not yet interned.
fn twin_graph(s: &mut Session, seed: u64, size: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let sq = g.meta(DType::F32, [8, 8]);
    let (relu, trans, matmul) = (s.ops.relu, s.ops.trans, s.ops.matmul);
    let unary = [relu, trans, s.ops.tanh, s.ops.gelu];
    let binary = [matmul, s.ops.add, s.ops.mul];
    let (const_scalar, value_milli) = (s.ops.const_scalar, s.ops.value_milli_attr);
    // Operator, its attribute, and whether it reads two operands.
    let attributed = [
        (s.ops.maxpool, s.ops.stride_attr, false),
        (s.ops.gemm_epilog, s.ops.epilog_attr, true),
    ];
    let mut nodes: Vec<NodeId> = (0..2)
        .map(|_| g.input(&mut s.syms, DType::F32, [8, 8]))
        .collect();
    for _ in 0..size {
        let newest = *nodes.last().unwrap();
        let mut pick = || match rng.gen_bool(0.5) {
            true => newest,
            false => nodes[rng.gen_range(0..nodes.len())],
        };
        let (n, m) = (pick(), pick());
        let (twin, twin_inputs) = (g.node(n).op, g.inputs(n).to_vec());
        let twin_attrs = g.attrs(n).to_vec();
        let below = twin_inputs.iter().enumerate().find_map(|(at, &i)| {
            let below = (g.node(i).op, g.inputs(i).to_vec(), g.attrs(i).to_vec());
            (!g.inputs(i).is_empty()).then_some((at, below))
        });
        // Square matrices make every op shape-compatible.
        let mut apply = |op, inputs, attrs| {
            g.op(&mut s.syms, &s.registry, op, inputs, attrs)
                .expect("square ops compose")
        };
        let fresh = match rng.gen_range(0..15) {
            0..=2 => apply(unary[rng.gen_range(0..unary.len())], vec![n], vec![]),
            3 | 4 => apply(binary[rng.gen_range(0..binary.len())], vec![m, n], vec![]),
            5 | 6 if !twin_inputs.is_empty() => apply(twin, twin_inputs, twin_attrs),
            7 | 8 if below.is_some() => {
                let (at, (below, below_inputs, below_attrs)) = below.unwrap();
                let mut inputs = twin_inputs;
                inputs[at] = apply(below, below_inputs, below_attrs);
                apply(twin, inputs, twin_attrs)
            }
            9 => {
                let t = apply(trans, vec![newest], vec![]);
                apply(trans, vec![t], vec![])
            }
            10 => {
                let t = apply(trans, vec![newest], vec![]);
                apply(matmul, vec![m, t], vec![])
            }
            11 => {
                let r = apply(relu, vec![newest], vec![]);
                apply(relu, vec![r], vec![])
            }
            12 => {
                let t = apply(trans, vec![newest], vec![]);
                let u = apply(trans, vec![m], vec![]);
                apply(matmul, vec![t, u], vec![])
            }
            13 => {
                let (op, attr, binary) = attributed[rng.gen_range(0..attributed.len())];
                let inputs = if binary { vec![m, n] } else { vec![n] };
                apply(op, inputs, vec![(attr, rng.gen_range(1..3))])
            }
            14 if !twin_inputs.is_empty() && !twin_attrs.is_empty() => {
                let other = twin_attrs
                    .iter()
                    .map(|&(a, v)| (a, if v == 1 { 2 } else { 1 }))
                    .collect();
                apply(twin, twin_inputs, other)
            }
            _ => {
                let milli = [500, 1000, 2000][rng.gen_range(0..3usize)];
                g.op_with_meta(const_scalar, vec![], vec![(value_milli, milli)], sq)
                    .expect("a constant has no inputs to check")
            }
        };
        nodes.push(fresh);
    }
    let mut sinks: Vec<NodeId> = nodes
        .into_iter()
        .filter(|&n| g.users_of(n).next().is_none())
        .collect();
    for i in (1..sinks.len()).rev() {
        sinks.swap(i, rng.gen_range(0..=i));
    }
    for o in sinks {
        g.mark_output(o);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Termination + validity + metadata preservation on random graphs.
    #[test]
    fn pass_preserves_validity_and_output_meta(seed in any::<u64>(), size in 1usize..35) {
        let mut s = Session::new();
        let mut g = random_graph(&mut s, seed, size);
        let out_meta_before: Vec<_> = g
            .outputs()
            .iter()
            .map(|&o| g.node(o).meta)
            .collect();
        let rules = s.load_library(LibraryConfig::both());
        run_pass(&mut s, RewritePass::new(rules), &mut g);
        g.validate().unwrap();
        let out_meta_after: Vec<_> = g
            .outputs()
            .iter()
            .map(|&o| g.node(o).meta)
            .collect();
        prop_assert_eq!(out_meta_before, out_meta_after, "rewrites changed output metadata");
    }

    /// Idempotence: a second pass fires nothing.
    #[test]
    fn pass_is_idempotent(seed in any::<u64>(), size in 1usize..30) {
        let mut s = Session::new();
        let mut g = random_graph(&mut s, seed, size);
        let rules = s.load_library(LibraryConfig::both());
        run_pass(&mut s, RewritePass::new(rules.clone()), &mut g);
        let second = run_pass(&mut s, RewritePass::new(rules), &mut g);
        prop_assert_eq!(second.rewrites_fired, 0);
    }

    /// Policy equivalence on random graphs: both sweep policies
    /// reach graphs of identical size and output metadata (they may pick
    /// different-but-equivalent fixpoints only if the rule set is
    /// non-confluent; the library's rules are confluent on this operator
    /// set, so the results must agree exactly in size).
    #[test]
    fn sweep_policies_agree_on_random_graphs(seed in any::<u64>(), size in 1usize..30) {
        let mut results = Vec::new();
        for policy in SweepPolicy::ALL {
            let mut s = Session::new();
            let mut g = random_graph(&mut s, seed, size);
            let rules = s.load_library(LibraryConfig::both());
            let stats = run_pass(&mut s, RewritePass::new(rules).policy(policy), &mut g);
            results.push((stats.rewrites_fired, g.live_count()));
        }
        prop_assert_eq!(results[0], results[1]);
    }

    /// The incremental worklist must be *byte-identical* to restarting —
    /// same rewrite count, same node ids, same operator at every node,
    /// the same firing log — on random graphs × random rule subsets.
    /// Under either policy the log holds one entry per fired rewrite
    /// (and per view patch) and one per match that fired none. This is
    /// the divergence hunt the nightly CI job runs at high case counts.
    #[test]
    fn incremental_is_byte_identical_on_random_rule_subsets(
        seed in any::<u64>(),
        size in 1usize..30,
        mask in 1u32..u32::MAX,
    ) {
        let mut snapshots = Vec::new();
        let mut attempts = Vec::new();
        for policy in [SweepPolicy::RestartOnRewrite, SweepPolicy::Incremental] {
            let mut s = Session::new();
            let mut g = random_graph(&mut s, seed, size);
            let mut rules = s.load_library(LibraryConfig::all());
            // Keep pattern i iff bit i of the mask is set (definition
            // order preserved — the order patterns are tried in).
            let kept: Vec<_> = rules
                .patterns
                .drain(..)
                .enumerate()
                .filter(|(i, _)| mask >> (i % 32) & 1 == 1)
                .map(|(_, p)| p)
                .collect();
            rules.patterns = kept;
            let report = Pipeline::new(&mut s)
                .with(RewritePass::new(rules).policy(policy))
                .run(&mut g)
                .unwrap();
            let (stats, log) = (report.total(), &report.passes()[0].firings);
            g.validate().unwrap();
            prop_assert_eq!(log.fired().len() as u64, stats.rewrites_fired);
            prop_assert_eq!(stats.view_patches, stats.rewrites_fired);
            prop_assert_eq!(
                log.rejected().len() as u64,
                stats.matches_found - stats.rewrites_fired
            );
            let fired: Vec<_> = log
                .fired()
                .iter()
                .map(|f| (*f, log.created(f).to_vec(), log.collected(f).to_vec()))
                .collect();
            // Node-id-level snapshot: (id, op name, inputs) per
            // reachable node plus outputs. Identical rewrite sequences
            // allocate identical ids.
            let snap: Vec<(NodeId, String, Vec<NodeId>)> = g
                .topo_order()
                .into_iter()
                .map(|n| (n, s.syms.op_name(g.node(n).op).to_owned(), g.inputs(n).to_vec()))
                .collect();
            snapshots.push((fired, snap, g.outputs().to_vec()));
            attempts.push(stats.match_attempts);
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
        prop_assert!(
            attempts[1] <= attempts[0],
            "incremental tried more matches ({}) than restart ({})",
            attempts[1],
            attempts[0]
        );
    }

    /// Restart ≡ incremental, byte for byte, where subgraphs recur: on
    /// [`twin_graph`]s × random rule subsets, a variable the rewrite
    /// reads names a term that twins ahead of the incremental scan's
    /// cursor may produce too, and both policies must read the node
    /// below the matched root. The incremental scan never rewinds: its
    /// cursor steps at most once over every node the pass ever had. The
    /// nightly CI job reruns this at high case counts.
    #[test]
    fn incremental_is_byte_identical_on_twin_graphs(
        seed in any::<u64>(),
        size in 1usize..30,
        mask in 1u32..u32::MAX,
    ) {
        let mut snapshots = Vec::new();
        for policy in [SweepPolicy::RestartOnRewrite, SweepPolicy::Incremental] {
            let mut s = Session::new();
            let mut g = twin_graph(&mut s, seed, size);
            let mut rules = s.load_library(LibraryConfig::all());
            let kept: Vec<_> = rules
                .patterns
                .drain(..)
                .enumerate()
                .filter(|(i, _)| mask >> (i % 32) & 1 == 1)
                .map(|(_, p)| p)
                .collect();
            rules.patterns = kept;
            let stats = run_pass(&mut s, RewritePass::new(rules).policy(policy), &mut g);
            g.validate().unwrap();
            if policy == SweepPolicy::Incremental {
                prop_assert!(
                    stats.cursor_steps <= g.allocated_count() as u64,
                    "the scan rewound: {} cursor steps over {} nodes",
                    stats.cursor_steps,
                    g.allocated_count()
                );
            }
            let snap: Vec<(NodeId, String, Vec<NodeId>)> = g
                .topo_order()
                .into_iter()
                .map(|n| (n, s.syms.op_name(g.node(n).op).to_owned(), g.inputs(n).to_vec()))
                .collect();
            snapshots.push((stats.rewrites_fired, stats.nodes_reindexed, snap, g.outputs().to_vec()));
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
    }

    /// The fused discrimination-tree matcher must be byte-identical to
    /// per-pattern discovery on random graphs × random rule subsets ×
    /// every sweep policy — the matcher half of the nightly divergence
    /// hunt. The tree may only *skip* machine
    /// runs that were guaranteed to fail, so every semantic counter and
    /// the final graph (node ids included) must agree, and machine work
    /// may only shrink.
    #[test]
    fn fused_matcher_is_byte_identical_on_random_rule_subsets(
        seed in any::<u64>(),
        size in 1usize..30,
        mask in 1u32..u32::MAX,
        policy_idx in 0usize..2,
    ) {
        let policy = SweepPolicy::ALL[policy_idx];
        let mut snapshots = Vec::new();
        let mut machine_steps = Vec::new();
        for backend in MatcherBackend::ALL {
            let mut s = Session::new();
            let mut g = random_graph(&mut s, seed, size);
            let mut rules = s.load_library(LibraryConfig::all());
            let kept: Vec<_> = rules
                .patterns
                .drain(..)
                .enumerate()
                .filter(|(i, _)| mask >> (i % 32) & 1 == 1)
                .map(|(_, p)| p)
                .collect();
            rules.patterns = kept;
            let report = Pipeline::new(&mut s)
                .with(RewritePass::new(rules).policy(policy).matcher(backend))
                .run(&mut g)
                .unwrap();
            let stats = report.total();
            g.validate().unwrap();
            let snap: Vec<(NodeId, String, Vec<NodeId>)> = g
                .topo_order()
                .into_iter()
                .map(|n| (n, s.syms.op_name(g.node(n).op).to_owned(), g.inputs(n).to_vec()))
                .collect();
            snapshots.push((
                stats.rewrites_fired,
                stats.match_attempts,
                stats.matches_found,
                stats.sweeps,
                snap,
                g.outputs().to_vec(),
            ));
            machine_steps.push(stats.machine_steps);
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
        prop_assert!(
            machine_steps[1] <= machine_steps[0],
            "fused did more machine work ({}) than per-pattern ({})",
            machine_steps[1],
            machine_steps[0]
        );
    }

    /// Batch compilation is invisible in the results: a
    /// `Pipeline::run_batch` over random twin graphs (whose twins may
    /// differ in an attribute only, so one batch session interns terms
    /// that differ in nothing else) — at a random batch
    /// size and sweep policy, sharing one session — must produce, per
    /// graph, exactly what sequential `Pipeline::run` calls over an
    /// identically seeded session produce. The nightly CI job reruns
    /// this at high case counts.
    #[test]
    fn batch_compile_is_byte_identical_to_sequential_runs(
        seed in any::<u64>(),
        sizes in prop::collection::vec(1usize..20, 1..4),
        policy_idx in 0usize..2,
    ) {
        let policy = SweepPolicy::ALL[policy_idx];
        let snapshot = |s: &Session, g: &Graph| -> Vec<(NodeId, String, Vec<NodeId>)> {
            g.topo_order()
                .into_iter()
                .map(|n| (n, s.syms.op_name(g.node(n).op).to_owned(), g.inputs(n).to_vec()))
                .collect()
        };
        // Sequential reference: graphs built up front (same
        // symbol-interning order as the batch), then one run each.
        let mut s_seq = Session::new();
        let mut seq_graphs: Vec<Graph> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| twin_graph(&mut s_seq, seed.wrapping_add(i as u64), size))
            .collect();
        let mut seq = Vec::new();
        for g in &mut seq_graphs {
            let rules = s_seq.load_library(LibraryConfig::both());
            let report = Pipeline::new(&mut s_seq)
                .with(RewritePass::new(rules).policy(policy))
                .run(g)
                .unwrap();
            let t = report.total();
            seq.push((snapshot(&s_seq, g), t.rewrites_fired, t.match_attempts, t.sweeps));
        }
        // Batched: identical seeds, one run_batch.
        let mut s_batch = Session::new();
        let mut graphs: Vec<Graph> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| twin_graph(&mut s_batch, seed.wrapping_add(i as u64), size))
            .collect();
        let rules = s_batch.load_library(LibraryConfig::both());
        let reports = Pipeline::new(&mut s_batch)
            .with(RewritePass::new(rules).policy(policy))
            .run_batch(&mut graphs)
            .unwrap();
        prop_assert_eq!(reports.len(), sizes.len());
        for (i, (report, g)) in reports.iter().zip(&graphs).enumerate() {
            g.validate().unwrap();
            let t = report.total();
            prop_assert_eq!(t.parallel.batch_graphs, sizes.len() as u64);
            let got = (snapshot(&s_batch, g), t.rewrites_fired, t.match_attempts, t.sweeps);
            prop_assert_eq!(&seq[i], &got, "graph {} diverged under batching", i);
        }
    }

    /// The pass never grows the graph: destructive fusion only.
    #[test]
    fn pass_never_grows_the_graph(seed in any::<u64>(), size in 1usize..35) {
        let mut s = Session::new();
        let mut g = random_graph(&mut s, seed, size);
        let before = g.live_count();
        let rules = s.load_library(LibraryConfig::both());
        run_pass(&mut s, RewritePass::new(rules), &mut g);
        prop_assert!(g.live_count() <= before);
    }

    /// Matches found ≥ rewrites fired, and attempts ≥ matches.
    #[test]
    fn stats_are_internally_consistent(seed in any::<u64>(), size in 1usize..30) {
        let mut s = Session::new();
        let mut g = random_graph(&mut s, seed, size);
        let rules = s.load_library(LibraryConfig::both());
        let stats = run_pass(&mut s, RewritePass::new(rules), &mut g);
        prop_assert!(stats.match_attempts >= stats.matches_found);
        prop_assert!(stats.matches_found >= stats.rewrites_fired);
        prop_assert!(stats.sweeps >= 1);
        prop_assert!(stats.nodes_visited >= 1);
    }
}
