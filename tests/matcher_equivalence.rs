//! The fused-matcher contract: a [`RewritePass`] run with the fused
//! discrimination-tree backend must be **byte-identical** to the
//! per-pattern backend — same firing sequence, same final graph down to
//! node ids, and the same value for every semantic counter
//! (`match_attempts`, `matches_found`, `rewrites_fired`, …) — under both
//! sweep policies, at jobs 1 and 4, across the full model zoo.
//!
//! The correctness argument is local (the tree only rejects a
//! `(pattern, node)` pair when the pattern's every alternative is
//! guaranteed to fail on that subterm, so the machine run it skips
//! would have failed anyway); this suite is the global check. Only the
//! machine-*work* diagnostics (`machine_steps`, `machine_backtracks`)
//! and the matcher's own admission counters may differ between
//! backends — and machine work may only shrink.

use pypm::dsl::LibraryConfig;
use pypm::engine::{
    MatcherBackend, Observer, ParallelConfig, PassStats, Pipeline, RewriteFired, RewritePass,
    Session, SweepPolicy,
};
use pypm::graph::{Graph, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

/// Records the exact firing sequence: which pattern, which rule, at
/// which node.
#[derive(Default)]
struct FiringLog {
    fired: Vec<(String, usize, NodeId)>,
}

impl Observer for FiringLog {
    fn on_rewrite_fired(&mut self, event: &RewriteFired) {
        self.fired
            .push((event.pattern.clone(), event.rule, event.node));
    }
}

/// One run's observable result: the firing sequence, the final graph
/// down to node identities, and every semantic counter. Machine-work
/// diagnostics and the matcher's admission counters are deliberately
/// absent — those are the only fields the backends may disagree on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    fired: Vec<(String, usize, NodeId)>,
    nodes: Vec<(NodeId, String, Vec<NodeId>)>,
    output_ids: Vec<NodeId>,
    live_nodes: usize,
    nodes_visited: u64,
    match_attempts: u64,
    matches_found: u64,
    rewrites_fired: u64,
    sweeps: u64,
    view_builds: u64,
    view_patches: u64,
    nodes_revisited: u64,
    nodes_reindexed: u64,
}

fn run(
    build: &dyn Fn(&mut Session) -> Graph,
    cfg: LibraryConfig,
    policy: SweepPolicy,
    jobs: usize,
    backend: MatcherBackend,
) -> (Outcome, PassStats) {
    let mut s = Session::new();
    let mut g = build(&mut s);
    let rules = s.load_library(cfg);
    let log = Rc::new(RefCell::new(FiringLog::default()));
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules).policy(policy).matcher(backend))
        .parallelism(ParallelConfig::with_jobs(jobs))
        .observe(log.clone())
        .run(&mut g)
        .expect("pass succeeds");
    let stats = report.total();
    let nodes = g
        .topo_order()
        .into_iter()
        .map(|n| {
            (
                n,
                s.syms.op_name(g.node(n).op).to_owned(),
                g.node(n).inputs.clone(),
            )
        })
        .collect();
    let outcome = Outcome {
        fired: std::mem::take(&mut log.borrow_mut().fired),
        nodes,
        output_ids: g.outputs().to_vec(),
        live_nodes: g.live_count(),
        nodes_visited: stats.nodes_visited,
        match_attempts: stats.match_attempts,
        matches_found: stats.matches_found,
        rewrites_fired: stats.rewrites_fired,
        sweeps: stats.sweeps,
        view_builds: stats.view_builds,
        view_patches: stats.view_patches,
        nodes_revisited: stats.nodes_revisited,
        nodes_reindexed: stats.nodes_reindexed,
    };
    (outcome, stats)
}

fn assert_backend_equivalent(name: &str, build: &dyn Fn(&mut Session) -> Graph) {
    for (cname, cfg) in [
        ("both", LibraryConfig::both as fn() -> LibraryConfig),
        ("all", LibraryConfig::all),
    ] {
        for policy in SweepPolicy::ALL {
            for jobs in [1usize, 4] {
                let (per, per_stats) = run(build, cfg(), policy, jobs, MatcherBackend::PerPattern);
                let (fused, fused_stats) = run(build, cfg(), policy, jobs, MatcherBackend::Fused);
                assert_eq!(
                    per, fused,
                    "{name}/{cname}/{policy}: jobs={jobs} fused diverged from per-pattern"
                );
                // The tree only ever *skips* machine runs that were
                // guaranteed to fail; it can never add machine work.
                assert!(
                    fused_stats.machine_steps <= per_stats.machine_steps,
                    "{name}/{cname}/{policy}: jobs={jobs} fused did more machine work \
                     ({} vs {})",
                    fused_stats.machine_steps,
                    per_stats.machine_steps,
                );
                // Each backend accounts every consumed probe: admitted
                // plus rejected covers exactly the per-pattern attempt
                // count (the fused tree's rejections stand in for the
                // machine failures it skipped).
                assert_eq!(fused_stats.matcher.backend, "fused");
                assert_eq!(per_stats.matcher.backend, "per-pattern");
                assert_eq!(
                    fused_stats.matcher.pairs_admitted + fused_stats.matcher.pairs_rejected,
                    per_stats.match_attempts,
                    "{name}/{cname}/{policy}: jobs={jobs} fused admission accounting leaked"
                );
            }
        }
    }
}

/// Every HuggingFace-zoo transformer.
#[test]
fn hf_zoo_fused_matches_per_pattern() {
    for cfg in pypm::models::hf_zoo() {
        assert_backend_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// Every TorchVision-zoo CNN.
#[test]
fn tv_zoo_fused_matches_per_pattern() {
    for cfg in pypm::models::tv_zoo() {
        assert_backend_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// The scaling claim behind the fused matcher: at 4× the rule count
/// (`all+synth39` — 39 synthetic never-matching rules on top of the
/// full library), the tree rejects the synthetic rules wholesale. The
/// semantic counters still agree exactly with per-pattern, while the
/// fused backend admits at least 3× fewer probes and runs strictly
/// less machine work.
#[test]
fn fused_filters_synthetic_rules_wholesale_on_bert_small() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let lib = LibraryConfig::all().with_synth(39);
    let (per, per_stats) = run(
        &|s| cfg.build(s),
        lib,
        SweepPolicy::RestartOnRewrite,
        1,
        MatcherBackend::PerPattern,
    );
    let (fused, fused_stats) = run(
        &|s| cfg.build(s),
        lib,
        SweepPolicy::RestartOnRewrite,
        1,
        MatcherBackend::Fused,
    );
    assert!(per.rewrites_fired > 0, "model must actually rewrite");
    assert_eq!(per, fused, "synthetic rules changed observable behaviour");
    // Per-pattern admits every attempt; fused must cut probes ≥3×.
    assert_eq!(per_stats.matcher.pairs_admitted, per_stats.match_attempts);
    assert!(
        fused_stats.matcher.pairs_admitted * 3 <= per_stats.matcher.pairs_admitted,
        "expected ≥3× fewer admitted probes: fused {} vs per-pattern {}",
        fused_stats.matcher.pairs_admitted,
        per_stats.matcher.pairs_admitted,
    );
    assert!(
        fused_stats.machine_steps < per_stats.machine_steps,
        "skipping guaranteed failures must save machine work"
    );
    assert!(fused_stats.matcher.terms_walked > 0);
    assert!(fused_stats.matcher.trie_steps > 0);
}
