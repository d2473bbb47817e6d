//! The incremental-rewriting contract: [`SweepPolicy::Incremental`]
//! must fire the *identical* rewrite sequence as the paper-faithful
//! [`SweepPolicy::RestartOnRewrite`] — producing a byte-identical final
//! graph (same node ids, same operator population, same outputs) — while
//! strictly reducing the traversal work (`match_attempts`,
//! `nodes_visited`) that restarting throws away.
//!
//! The worklist scheduler's correctness argument is local ("a clean
//! node cannot fire because its term is unchanged"); this suite is the
//! global check over the full model zoo, every library configuration,
//! and the pass's own log of the exact (pattern, rule, node, …) firing
//! sequence.

mod common;

use common::{fired, node_rows, Fired};
use pypm::core::Budget;
use pypm::dsl::LibraryConfig;
use pypm::engine::{
    PassError, PassStats, Pipeline, PipelineError, RewritePass, Session, SweepPolicy,
};
use pypm::graph::{Graph, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

type ConfigFn = fn() -> LibraryConfig;

const CONFIGS: [(&str, ConfigFn); 4] = [
    ("fmha", LibraryConfig::fmha_only),
    ("epilog", LibraryConfig::epilog_only),
    ("both", LibraryConfig::both),
    ("all", LibraryConfig::all),
];

/// One policy's observable result: the firing sequence, the semantic
/// counters, and the final graph down to node identities.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    fired: Vec<Fired>,
    live_nodes: usize,
    /// (node id, operator name, input ids) for every reachable node —
    /// byte-identical graphs have byte-identical rows.
    nodes: Vec<(NodeId, String, Vec<NodeId>)>,
    output_ids: Vec<NodeId>,
    /// The final graph's canonical wire encoding.
    bytes: Vec<u8>,
}

fn run(
    build: &dyn Fn(&mut Session) -> Graph,
    cfg: LibraryConfig,
    policy: SweepPolicy,
) -> (Outcome, PassStats) {
    let (outcome, stats) = run_bounded(build, cfg, &|pass| pass.policy(policy), None);
    (outcome, stats.expect("pass succeeds"))
}

/// [`run`] with the pass's bounds exposed: `configure` sets the knobs
/// and `step_limit` installs a deterministic [`Budget`]. An exhausted
/// budget is an `Err` next to the partially rewritten graph's outcome,
/// whose firings are those the error carries.
fn run_bounded(
    build: &dyn Fn(&mut Session) -> Graph,
    cfg: LibraryConfig,
    configure: &dyn Fn(RewritePass) -> RewritePass,
    step_limit: Option<u64>,
) -> (Outcome, Result<PassStats, PipelineError>) {
    let mut s = Session::new();
    let mut g = build(&mut s);
    let rules = s.load_library(cfg);
    let mut pipeline = Pipeline::new(&mut s).with(configure(RewritePass::new(rules)));
    if step_limit.is_some() {
        pipeline = pipeline.with_budget(Arc::new(Budget::new(None, step_limit)));
    }
    let (log, stats) = match pipeline.run(&mut g) {
        Ok(report) => (report.passes()[0].firings.clone(), Ok(report.total())),
        Err(mut e) => (*std::mem::take(&mut e.firings), Err(e)),
    };
    g.validate().expect("graph stays valid");
    if let Ok(stats) = &stats {
        assert_eq!(stats.rewrites_fired, log.fired().len() as u64);
        assert_eq!(
            stats.matches_found - stats.rewrites_fired,
            log.rejected().len() as u64
        );
    }
    let outcome = Outcome {
        fired: fired(&log),
        live_nodes: g.live_count(),
        nodes: node_rows(&g, &s),
        output_ids: g.outputs().to_vec(),
        bytes: pypm::wire::encode_graph(&g, &s.syms),
    };
    (outcome, stats)
}

fn assert_incremental_equivalent(name: &str, build: &dyn Fn(&mut Session) -> Graph) {
    for (cname, cfg) in CONFIGS {
        let (restart, restart_stats) = run(build, cfg(), SweepPolicy::RestartOnRewrite);
        let (incremental, inc_stats) = run(build, cfg(), SweepPolicy::Incremental);
        assert_eq!(
            restart, incremental,
            "{name}/{cname}: Incremental diverged from RestartOnRewrite"
        );
        // The worklist must never do *more* matching work than
        // restarting, and must patch instead of rebuild.
        assert!(
            inc_stats.match_attempts <= restart_stats.match_attempts,
            "{name}/{cname}: incremental tried {} matches, restart {}",
            inc_stats.match_attempts,
            restart_stats.match_attempts,
        );
        assert!(
            inc_stats.nodes_visited <= restart_stats.nodes_visited,
            "{name}/{cname}: incremental visited more nodes than restart"
        );
        // Restart re-finds every rejected match on every later sweep;
        // the worklist finds each at most once per term change.
        assert!(
            inc_stats.matches_found <= restart_stats.matches_found,
            "{name}/{cname}: incremental found more matches than restart"
        );
        assert_eq!(
            inc_stats.view_builds, 1,
            "{name}/{cname}: incremental must build the view exactly once"
        );
        assert_eq!(
            inc_stats.view_patches, inc_stats.rewrites_fired,
            "{name}/{cname}: one view patch per fired rewrite"
        );
    }
}

/// Every HuggingFace-zoo transformer, every configuration.
#[test]
fn hf_zoo_incremental_matches_restart() {
    for cfg in pypm::models::hf_zoo() {
        assert_incremental_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// Every TorchVision-zoo CNN, every configuration.
#[test]
fn tv_zoo_incremental_matches_restart() {
    for cfg in pypm::models::tv_zoo() {
        assert_incremental_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// The bounded exits — the rewrite cap, starved machine fuel, a step
/// budget — are code both policies share in the one scan loop, so a
/// bounded run must stay byte-identical too: same firing sequence, same
/// final graph bytes, same policy-invariant counters, and one view
/// patch per fired rewrite even when the cap cuts the pass short.
#[test]
fn bounded_runs_stay_byte_identical_on_bert_small() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    type Knobs = (&'static str, fn(RewritePass) -> RewritePass, Option<u64>);
    let bounds: [Knobs; 3] = [
        ("max_rewrites=3", |p| p.max_rewrites(3), None),
        ("machine_fuel=50", |p| p.machine_fuel(50), None),
        ("step_limit=50M", |p| p, Some(50_000_000)),
    ];
    for (label, knobs, step_limit) in bounds {
        let [(restart, restart_stats), (incremental, inc_stats)] = SweepPolicy::ALL.map(|policy| {
            let (outcome, stats) = run_bounded(
                &|s| cfg.build(s),
                LibraryConfig::both(),
                &|pass| knobs(pass).policy(policy),
                step_limit,
            );
            (outcome, stats.expect("bounds not exhausted"))
        });
        assert_eq!(restart, incremental, "{label}");
        assert!(!restart.fired.is_empty(), "{label}: must actually rewrite");
        for stats in [&restart_stats, &inc_stats] {
            assert_eq!(stats.view_builds, 1, "{label}");
            assert_eq!(stats.view_patches, stats.rewrites_fired, "{label}");
        }
        assert_eq!(
            restart_stats.nodes_reindexed, inc_stats.nodes_reindexed,
            "{label}"
        );
        assert!(
            inc_stats.match_attempts <= restart_stats.match_attempts,
            "{label}"
        );
    }
    let (capped, _) = run_bounded(
        &|s| cfg.build(s),
        LibraryConfig::both(),
        &|pass| pass.max_rewrites(3),
        None,
    );
    assert_eq!(capped.fired.len(), 3);

    // A budget that trips mid-pass unwinds both policies the same way.
    // Restarting spends more steps per rewrite, so it stops earlier in
    // the one firing sequence both policies share.
    let [restart, incremental] = SweepPolicy::ALL.map(|policy| {
        let (outcome, stats) = run_bounded(
            &|s| cfg.build(s),
            LibraryConfig::both(),
            &|pass| pass.policy(policy),
            Some(100),
        );
        let err = stats.expect_err("100 steps cannot finish bert-small");
        assert!(
            matches!(err.error, PassError::BudgetExceeded { .. }),
            "{err}"
        );
        outcome
    });
    assert!(!restart.fired.is_empty(), "the budget must trip mid-pass");
    assert!(incremental.fired.starts_with(&restart.fired));
    // What the error carries is what the tripped pass did: a prefix of
    // the untripped run's log, ids included.
    let (untripped, _) = run(
        &|s| cfg.build(s),
        LibraryConfig::both(),
        SweepPolicy::Incremental,
    );
    assert!(untripped.fired.len() > incremental.fired.len());
    assert!(untripped.fired.starts_with(&incremental.fired));
}

/// The degenerate baseline: an empty rule set is one scan round that
/// fires nothing, under either policy.
#[test]
fn empty_ruleset_is_one_sweep() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-tiny")
        .unwrap();
    let [(restart, restart_stats), (incremental, inc_stats)] =
        SweepPolicy::ALL.map(|policy| run(&|s| cfg.build(s), LibraryConfig::none(), policy));
    assert_eq!(restart, incremental);
    for stats in [restart_stats, inc_stats] {
        assert_eq!(stats.rewrites_fired, 0);
        assert_eq!(stats.sweeps, 1);
    }
}

/// On a rewrite-heavy transformer the worklist must deliver a real
/// reduction, not a tie: ≥30% fewer matches tried on bert-small (the
/// acceptance bar the BENCH trajectory tracks).
#[test]
fn incremental_cuts_matches_tried_on_bert_small() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let (_, restart) = run(
        &|s| cfg.build(s),
        LibraryConfig::both(),
        SweepPolicy::RestartOnRewrite,
    );
    let (_, inc) = run(
        &|s| cfg.build(s),
        LibraryConfig::both(),
        SweepPolicy::Incremental,
    );
    assert!(restart.rewrites_fired > 0, "model must actually rewrite");
    let reduction = 1.0 - inc.match_attempts as f64 / restart.match_attempts as f64;
    assert!(
        reduction >= 0.30,
        "expected ≥30% fewer matches tried, got {:.1}% ({} vs {})",
        reduction * 100.0,
        inc.match_attempts,
        restart.match_attempts,
    );
    assert!(
        inc.nodes_revisited < restart.nodes_revisited,
        "worklist should revisit fewer nodes ({} vs {})",
        inc.nodes_revisited,
        restart.nodes_revisited,
    );
}

/// The sublinear index-maintenance acceptance bar: on bert-small, the
/// nodes a patch reindexes must be at least 5× below the pre-sublinear
/// design's floor of one linear pass over the live graph per rewrite.
#[test]
fn sublinear_reindex_cuts_nodes_reindexed_on_bert_small() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let mut s = Session::new();
    let mut g = cfg.build(&mut s);
    let rules = s.load_library(LibraryConfig::both());
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules).policy(SweepPolicy::Incremental))
        .run(&mut g)
        .expect("pass succeeds");
    let stats = report.total();
    assert!(stats.rewrites_fired > 0, "model must actually rewrite");
    assert_eq!(
        stats.view_patches, stats.rewrites_fired,
        "one patch per fired rewrite"
    );
    assert!(stats.nodes_reindexed > 0, "patches must report their cones");
    // The old design walked every live node once per patch. Live count
    // only shrinks during the pass, so `patches × final live count` is
    // a *lower bound* on what it would have reindexed here.
    let old_floor = stats.view_patches * g.live_count() as u64;
    assert!(
        stats.nodes_reindexed * 5 <= old_floor,
        "expected ≥5× fewer nodes reindexed: {} cones vs ≥{} linear",
        stats.nodes_reindexed,
        old_floor,
    );
}

/// Scale without a stopwatch: what a firing costs under the worklist
/// must follow the firing, not the graph. Counted on the deep
/// transformer at 50 and at 400 layers: the nodes a commit looks at per
/// firing — those `Graph::replace_traced` rewires, those its cycle
/// search expands, the levels it raises, those `Graph::collect`
/// examines (a debug-build counter) — stay level, and the scan's
/// cursor — resumed, never rewound on these programs — takes at most
/// one step per node the pass ever had. A whole-graph walk per firing
/// (the cycle check's, until it was bounded by levels), or a rewound
/// cursor, would put a factor of the depth on either.
#[cfg(debug_assertions)]
#[test]
fn a_firing_costs_its_cone_at_any_depth() {
    use pypm::models::{GeluVariant, ScaleVariant, TransformerConfig};
    let at = |layers: usize| {
        let cfg = TransformerConfig {
            name: "deep",
            layers,
            hidden: 32,
            seq: 64,
            batch: 1,
            mlp_factor: 4,
            gelu: GeluVariant::DivTwo,
            scale: ScaleVariant::Mul,
            opaque_layernorm: false,
        };
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        let (nodes_in, touches_in) = (g.allocated_count() as u64, g.touches());
        let stats = Pipeline::new(&mut s)
            .with(RewritePass::new(rules).policy(SweepPolicy::Incremental))
            .run(&mut g)
            .expect("pass succeeds")
            .total();
        assert!(
            stats.rewrites_fired >= layers as u64,
            "every layer rewrites"
        );
        assert_eq!(stats.nodes_revisited, 0, "{layers} layers");
        let ever_allocated = g.allocated_count() as u64;
        assert!(
            stats.cursor_steps <= ever_allocated,
            "{layers} layers: {} cursor steps over {nodes_in} + {} nodes",
            stats.cursor_steps,
            ever_allocated - nodes_in,
        );
        (g.touches() - touches_in) as f64 / stats.rewrites_fired as f64
    };
    let (shallow, deep) = (at(50), at(400));
    assert!(
        deep <= 1.5 * shallow,
        "nodes touched per firing grew with depth: {shallow:.2} at 50 layers, {deep:.2} at 400"
    );
}

/// The op population argument in one place: restart and incremental
/// leave the same multiset of operators for a model whose rewrites
/// cascade (GELU expansion into epilog fusion).
#[test]
fn op_population_identical_after_cascades() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-tiny")
        .unwrap();
    let mut pops: Vec<BTreeMap<String, usize>> = Vec::new();
    for policy in [SweepPolicy::RestartOnRewrite, SweepPolicy::Incremental] {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::all());
        Pipeline::new(&mut s)
            .with(RewritePass::new(rules).policy(policy))
            .run(&mut g)
            .unwrap();
        let mut pop = BTreeMap::new();
        for n in g.topo_order() {
            *pop.entry(s.syms.op_name(g.node(n).op).to_owned())
                .or_default() += 1;
        }
        pops.push(pop);
    }
    assert_eq!(pops[0], pops[1]);
}
