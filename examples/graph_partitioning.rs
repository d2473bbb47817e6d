//! Directed graph partitioning (the paper's §4.2 and Fig. 14).
//!
//! When no hand-written replacement kernel exists, PyPM patterns can
//! still *carve out* regions a JIT compiler could fuse: `MatMulEpilog`
//! matches a matrix multiply followed by any chain of pointwise
//! operations. This example partitions a transformer model by that
//! pattern and compares each region's per-node execution cost against
//! the cost of a just-in-time fused kernel for the region.
//!
//! Run with `cargo run --example graph_partitioning`.

use pypm::dsl::LibraryConfig;
use pypm::engine::{partition, Session};
use pypm::perf::CostModel;

fn main() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-tiny")
        .unwrap();
    let mut s = Session::new();
    let g = cfg.build(&mut s);
    let rules = s.load_library(LibraryConfig::all());

    let parts = partition(&mut s, &rules, &g, "MatMulEpilog");
    println!(
        "model {}: {} nodes, {} MatMulEpilog partitions\n",
        cfg.name,
        g.live_count(),
        parts.len()
    );

    let cm = CostModel::new();
    let mut total_per_node = 0.0;
    let mut total_fused = 0.0;
    println!(
        "{:>6} {:>6} {:>9} {:>12} {:>12} {:>9}",
        "root", "nodes", "frontier", "per-node µs", "fused µs", "speedup"
    );
    for p in &parts {
        let per_node: f64 = p
            .nodes
            .iter()
            .map(|&n| cm.node_cost(&g, &s.syms, &s.registry, &s.ops, n))
            .sum();
        let fused = cm.fused_region_cost(&g, &s.registry, &s.ops, &p.nodes, &p.frontier, p.root);
        total_per_node += per_node;
        total_fused += fused;
        println!(
            "{:>6} {:>6} {:>9} {:>12.2} {:>12.2} {:>8.2}x",
            format!("{:?}", p.root),
            p.size(),
            p.frontier.len(),
            per_node,
            fused,
            per_node / fused
        );
    }
    println!(
        "\nregion total: {total_per_node:.1} µs per-node vs {total_fused:.1} µs JIT-fused ({:.2}x)",
        total_per_node / total_fused
    );
}
