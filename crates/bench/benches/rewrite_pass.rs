//! Criterion benchmarks of the full rewrite pass on representative
//! models from both zoos — the engine-level cost that Figs. 12–13
//! aggregate.

use criterion::{criterion_group, BenchmarkId, Criterion};
use pypm_dsl::LibraryConfig;
use pypm_engine::{PartitionPass, Pipeline, RewritePass, Session, SweepPolicy};

fn bench_hf_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("hf_rewrite_pass");
    group.sample_size(10);
    for model in ["bert-tiny", "bert-small", "bert-base", "gpt2"] {
        let cfg = pypm_models::hf_zoo()
            .into_iter()
            .find(|m| m.name == model)
            .unwrap();
        for (cname, lib) in [
            ("fmha", LibraryConfig::fmha_only()),
            ("epilog", LibraryConfig::epilog_only()),
            ("both", LibraryConfig::both()),
        ] {
            group.bench_with_input(BenchmarkId::new(model, cname), &cfg, |b, cfg| {
                b.iter(|| {
                    let mut s = Session::new();
                    let mut g = cfg.build(&mut s);
                    let rs = s.load_library(lib);
                    Pipeline::new(&mut s)
                        .with(RewritePass::new(rs))
                        .run(&mut g)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_tv_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("tv_rewrite_pass");
    group.sample_size(10);
    for model in ["alexnet", "resnet18", "vgg16"] {
        let cfg = pypm_models::tv_zoo()
            .into_iter()
            .find(|m| m.name == model)
            .unwrap();
        for (cname, lib) in [
            ("fmha", LibraryConfig::fmha_only()),
            ("epilog", LibraryConfig::epilog_only()),
        ] {
            group.bench_with_input(BenchmarkId::new(model, cname), &cfg, |b, cfg| {
                b.iter(|| {
                    let mut s = Session::new();
                    let mut g = cfg.build(&mut s);
                    let rs = s.load_library(lib);
                    Pipeline::new(&mut s)
                        .with(RewritePass::new(rs))
                        .run(&mut g)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_sweep_policies(c: &mut Criterion) {
    // The scheduling ablation: restart (paper-faithful) vs the
    // incremental dirty-node worklist, on the acceptance model.
    let mut group = c.benchmark_group("sweep_policy");
    group.sample_size(10);
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|m| m.name == "bert-small")
        .unwrap();
    for policy in SweepPolicy::ALL {
        group.bench_with_input(
            BenchmarkId::new("bert-small", policy.name()),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let mut s = Session::new();
                    let mut g = cfg.build(&mut s);
                    let rs = s.load_library(LibraryConfig::both());
                    Pipeline::new(&mut s)
                        .with(RewritePass::new(rs).policy(policy))
                        .run(&mut g)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    // §4.2: directed graph partitioning over a transformer model.
    let mut group = c.benchmark_group("graph_partitioning");
    group.sample_size(10);
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|m| m.name == "bert-tiny")
        .unwrap();
    group.bench_function("bert-tiny/MatMulEpilog", |b| {
        b.iter(|| {
            let mut s = Session::new();
            let mut g = cfg.build(&mut s);
            let rs = s.load_library(LibraryConfig::all());
            Pipeline::new(&mut s)
                .with(PartitionPass::default().with_rules(rs))
                .run(&mut g)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hf_pass,
    bench_tv_pass,
    bench_sweep_policies,
    bench_partitioning
);

fn main() {
    benches();
    // The BENCH_*.json perf trajectory: aggregate the same model ×
    // configuration matrix into a machine-readable document.
    match bench::emit_rewrite_pass_json() {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("cannot write BENCH_rewrite_pass.json: {e}");
            std::process::exit(1);
        }
    }
}
