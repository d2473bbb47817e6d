//! Cross-crate integration tests: the full compile pipeline (model zoo →
//! rewrite pass → cost model) with the invariants every configuration
//! must uphold.

use pypm::dsl::{LibraryConfig, RuleSet};
use pypm::engine::{partition, PassStats, Pipeline, RewritePass, Session};
use pypm::graph::Graph;
use pypm::perf::CostModel;

fn rewrite(s: &mut Session, rules: RuleSet, g: &mut Graph) -> PassStats {
    Pipeline::new(s)
        .with(RewritePass::new(rules))
        .run(g)
        .unwrap()
        .total()
}

type ConfigFn = fn() -> LibraryConfig;

const CONFIGS: [(&str, ConfigFn); 4] = [
    ("baseline", LibraryConfig::none),
    ("fmha", LibraryConfig::fmha_only),
    ("epilog", LibraryConfig::epilog_only),
    ("both", LibraryConfig::both),
];

/// Every model in both zoos, compiled under every configuration, must
/// produce a valid graph and never a *slower* one.
#[test]
fn all_models_all_configs_valid_and_never_slower() {
    let hf: Vec<_> = pypm::models::hf_zoo().into_iter().take(8).collect();
    let tv: Vec<_> = pypm::models::tv_zoo().into_iter().take(6).collect();
    let cm = CostModel::new();

    let run = |name: &str, build: &dyn Fn(&mut Session) -> Graph| {
        for (cname, cfg) in CONFIGS {
            let mut s = Session::new();
            let mut g = build(&mut s);
            let before = cm.graph_cost(&g, &s.syms, &s.registry, &s.ops);
            let rules = s.load_library(cfg());
            if !rules.is_empty() {
                Pipeline::new(&mut s)
                    .with(RewritePass::new(rules))
                    .run(&mut g)
                    .unwrap_or_else(|e| panic!("{name}/{cname}: {e}"));
            }
            g.validate()
                .unwrap_or_else(|e| panic!("{name}/{cname}: invalid graph after pass: {e}"));
            let after = cm.graph_cost(&g, &s.syms, &s.registry, &s.ops);
            assert!(
                after <= before * 1.0001,
                "{name}/{cname}: pass made the model slower ({before:.1} -> {after:.1})"
            );
        }
    };

    for cfg in &hf {
        run(cfg.name, &|s| cfg.build(s));
    }
    for cfg in &tv {
        run(cfg.name, &|s| cfg.build(s));
    }
}

/// The pass is a fixpoint: running it a second time fires nothing.
#[test]
fn second_pass_is_identity() {
    for name in ["bert-small", "gpt2"] {
        let cfg = pypm::models::hf_zoo()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap();
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        let first = rewrite(&mut s, rules.clone(), &mut g);
        assert!(first.rewrites_fired > 0);
        let second = rewrite(&mut s, rules, &mut g);
        assert_eq!(second.rewrites_fired, 0, "{name} not at fixpoint");
        assert_eq!(second.sweeps, 1);
    }
}

/// The destructive-rewrite accounting adds up: every fired rewrite
/// shrinks or preserves the live node count, and the totals agree with
/// the per-layer match-site predictions of the model generators.
#[test]
fn rewrite_counts_match_model_structure() {
    for cfg in pypm::models::hf_zoo().into_iter().take(10) {
        // FMHA: exactly one rewrite per layer.
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::fmha_only());
        let stats = rewrite(&mut s, rules, &mut g);
        assert_eq!(
            stats.rewrites_fired as usize,
            cfg.expected_mha_sites(),
            "{}",
            cfg.name
        );
    }
    for cfg in pypm::models::tv_zoo().into_iter().take(8) {
        // Epilog: one conv fusion per block plus one GEMM fusion per
        // classifier layer.
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::epilog_only());
        let stats = rewrite(&mut s, rules, &mut g);
        assert_eq!(
            stats.rewrites_fired as usize,
            cfg.expected_conv_epilog_sites() + cfg.expected_gemm_epilog_sites(),
            "{}",
            cfg.name
        );
    }
}

/// Figure 11's crux as an invariant: FMHA finds nothing in any CNN.
#[test]
fn fmha_never_matches_vision_models() {
    for cfg in pypm::models::tv_zoo() {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::fmha_only());
        let stats = rewrite(&mut s, rules, &mut g);
        assert_eq!(stats.matches_found, 0, "{}", cfg.name);
    }
}

/// Optimizations compose: "both" fires at least as many rewrites as each
/// single configuration, and its cost is the best of the four.
#[test]
fn both_config_dominates() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-base")
        .unwrap();
    let cm = CostModel::new();
    let mut costs = Vec::new();
    let mut fired = Vec::new();
    for (_, lib) in CONFIGS {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(lib());
        let stats = if rules.is_empty() {
            Default::default()
        } else {
            rewrite(&mut s, rules, &mut g)
        };
        costs.push(cm.graph_cost(&g, &s.syms, &s.registry, &s.ops));
        fired.push(stats.rewrites_fired);
    }
    assert!(fired[3] >= fired[1] && fired[3] >= fired[2]);
    let min = costs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (costs[3] - min).abs() < 1e-6,
        "both must be fastest: {costs:?}"
    );
}

/// Directed graph partitioning covers every matmul in a transformer
/// without overlaps (§4.2).
#[test]
fn partitioning_covers_all_matmuls_disjointly() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-tiny")
        .unwrap();
    let mut s = Session::new();
    let g = cfg.build(&mut s);
    let rules = s.load_library(LibraryConfig::all());
    let parts = partition(&mut s, &rules, &g, "MatMulEpilog");

    let matmul_count = g
        .topo_order()
        .iter()
        .filter(|&&n| g.node(n).op == s.ops.matmul)
        .count();
    let covered_matmuls: usize = parts
        .iter()
        .flat_map(|p| p.nodes.iter())
        .filter(|&&n| g.node(n).op == s.ops.matmul)
        .count();
    assert_eq!(covered_matmuls, matmul_count);

    let mut seen = std::collections::HashSet::new();
    for p in &parts {
        for &n in &p.nodes {
            assert!(seen.insert(n), "node {n:?} claimed twice");
        }
    }
}
