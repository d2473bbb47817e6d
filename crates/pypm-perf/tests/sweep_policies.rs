//! The two sweep policies must reach the same fixpoint on the library's
//! rule sets (they may differ in traversal counts, which is the point of
//! the scheduling ablation).

use pypm_dsl::LibraryConfig;
use pypm_engine::{PassStats, Pipeline, RewritePass, Session, SweepPolicy};
use pypm_graph::{DType, Graph};
use pypm_perf::CostModel;

fn run_pass(s: &mut Session, pass: RewritePass, g: &mut Graph) -> PassStats {
    Pipeline::new(s).with(pass).run(g).unwrap().total()
}

fn run_policy(policy: SweepPolicy, build: impl Fn(&mut Session) -> Graph) -> (u64, usize, f64) {
    let mut s = Session::new();
    let mut g = build(&mut s);
    let rules = s.load_library(LibraryConfig::both());
    let stats = run_pass(&mut s, RewritePass::new(rules).policy(policy), &mut g);
    g.validate().unwrap();
    let cost = CostModel::new().graph_cost(&g, &s.syms, &s.registry, &s.ops);
    (stats.rewrites_fired, g.live_count(), cost)
}

#[test]
fn policies_agree_on_transformers() {
    for name in ["bert-tiny", "gpt2", "t5-small-encoder"] {
        let cfg = pypm_models::hf_zoo()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap();
        let restart = run_policy(SweepPolicy::RestartOnRewrite, |s| cfg.build(s));
        let other = run_policy(SweepPolicy::Incremental, |s| cfg.build(s));
        assert_eq!(restart.0, other.0, "{name}: rewrite counts differ");
        assert_eq!(restart.1, other.1, "{name}: node counts differ");
        assert!((restart.2 - other.2).abs() < 1e-6, "{name}: costs differ");
    }
}

#[test]
fn policies_agree_on_cnns() {
    for name in ["resnet18", "vgg13"] {
        let cfg = pypm_models::tv_zoo()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap();
        let restart = run_policy(SweepPolicy::RestartOnRewrite, |s| cfg.build(s));
        let other = run_policy(SweepPolicy::Incremental, |s| cfg.build(s));
        assert_eq!(restart.0, other.0, "{name}");
        assert_eq!(restart.1, other.1, "{name}");
    }
}

#[test]
fn scheduling_ablation_orders_traversal_work() {
    // The scheduling ablation in one claim: the dirty-node worklist
    // visits strictly fewer nodes and tries strictly fewer matches than
    // the restart scan.
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-base")
        .unwrap();
    let [restart, incremental] = SweepPolicy::ALL.map(|policy| {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        run_pass(&mut s, RewritePass::new(rules).policy(policy), &mut g)
    });
    assert!(
        incremental.nodes_visited < restart.nodes_visited,
        "incremental {} should visit fewer nodes than restart {}",
        incremental.nodes_visited,
        restart.nodes_visited
    );
    assert!(
        incremental.match_attempts < restart.match_attempts,
        "incremental {} should try fewer matches than restart {}",
        incremental.match_attempts,
        restart.match_attempts
    );
}

#[test]
fn incremental_respects_max_rewrites() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::both());
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-base")
        .unwrap();
    let mut g = cfg.build(&mut s);
    let pass = RewritePass::new(rules)
        .policy(SweepPolicy::Incremental)
        .max_rewrites(3);
    let stats = run_pass(&mut s, pass, &mut g);
    assert_eq!(stats.rewrites_fired, 3);
    g.validate().unwrap();
}

#[test]
fn max_rewrites_bounds_the_pass() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::both());
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-base")
        .unwrap();
    let mut g = cfg.build(&mut s);
    let pass = RewritePass::new(rules)
        .policy(SweepPolicy::RestartOnRewrite)
        .max_rewrites(3);
    let stats = run_pass(&mut s, pass, &mut g);
    assert_eq!(stats.rewrites_fired, 3);
    g.validate().unwrap();
}

#[test]
fn tiny_fuel_degrades_gracefully() {
    // With almost no machine fuel every attempt "fails" (OutOfFuel is
    // treated as no-match); the pass must terminate cleanly with zero
    // rewrites rather than erroring.
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::both());
    let mut g = Graph::new();
    let a = g.input(&mut s.syms, DType::F32, [8, 8]);
    let b = g.input(&mut s.syms, DType::F32, [8, 8]);
    let mm = g
        .op(&mut s.syms, &s.registry, s.ops.matmul, vec![a, b], vec![])
        .unwrap();
    let r = g
        .op(&mut s.syms, &s.registry, s.ops.relu, vec![mm], vec![])
        .unwrap();
    g.mark_output(r);
    let stats = run_pass(&mut s, RewritePass::new(rules).machine_fuel(2), &mut g);
    assert_eq!(stats.rewrites_fired, 0);
}
