//! Ablation benchmarks for the design choices README.md calls out
//! ("Sweep policies", "Fused matching"):
//!
//! * **Sweep scheduling** — the paper's restart-on-rewrite scan vs.
//!   the incremental dirty-node worklist.
//! * **Alternate order** — PyPM tries alternates in definition order
//!   (§2.1); measuring a model whose scale spelling matches the first
//!   vs. the last alternate quantifies the backtracking cost of a bad
//!   order.
//! * **Hash-consing** — matching cost with terms interned once vs. the
//!   term store rebuilt per attempt (approximated by fresh-session
//!   compiles), isolating the benefit of O(1) structural equality.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pypm_dsl::LibraryConfig;
use pypm_engine::{Pipeline, RewritePass, Session, SweepPolicy};
use pypm_models::{GeluVariant, ScaleVariant, TransformerConfig};

fn bench_sweep_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sweep_policy");
    group.sample_size(10);
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|m| m.name == "bert-base")
        .unwrap();
    for policy in SweepPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut s = Session::new();
                    let mut g = cfg.build(&mut s);
                    let rules = s.load_library(LibraryConfig::both());
                    Pipeline::new(&mut s)
                        .with(RewritePass::new(rules).policy(policy))
                        .run(&mut g)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_alternate_order(c: &mut Criterion) {
    // The MHA pattern's alternates are Mul-scale, Div-scale, no-scale —
    // in that order. A Mul-scaled model matches the first alternate; a
    // no-scale model backtracks through two failed alternates per site.
    let mut group = c.benchmark_group("ablation_alternate_order");
    group.sample_size(10);
    for (name, scale) in [
        ("first_alt_mul", ScaleVariant::Mul),
        ("second_alt_div", ScaleVariant::Div),
        ("last_alt_none", ScaleVariant::None),
    ] {
        let cfg = TransformerConfig {
            name: "probe",
            layers: 4,
            hidden: 64,
            seq: 64,
            batch: 1,
            mlp_factor: 4,
            gelu: GeluVariant::DivTwo,
            scale,
            opaque_layernorm: false,
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                let mut s = Session::new();
                let mut g = cfg.build(&mut s);
                let rules = s.load_library(LibraryConfig::fmha_only());
                Pipeline::new(&mut s)
                    .with(RewritePass::new(rules))
                    .run(&mut g)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_model_size_scaling(c: &mut Criterion) {
    // "Time spent matching also depends on the size of the AST of each
    // model" (§4.1): matcher cost for the same pattern set as layers
    // grow.
    let mut group = c.benchmark_group("ablation_ast_size_scaling");
    group.sample_size(10);
    for layers in [2usize, 4, 8] {
        let cfg = TransformerConfig {
            name: "scaling-probe",
            layers,
            hidden: 64,
            seq: 64,
            batch: 1,
            mlp_factor: 4,
            gelu: GeluVariant::DivTwo,
            scale: ScaleVariant::Div,
            opaque_layernorm: false,
        };
        group.bench_with_input(BenchmarkId::from_parameter(layers), &cfg, |b, cfg| {
            b.iter(|| {
                let mut s = Session::new();
                let mut g = cfg.build(&mut s);
                let rules = s.load_library(LibraryConfig::epilog_only());
                Pipeline::new(&mut s)
                    .with(RewritePass::new(rules))
                    .run(&mut g)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_policy,
    bench_alternate_order,
    bench_model_size_scaling
);
criterion_main!(benches);
