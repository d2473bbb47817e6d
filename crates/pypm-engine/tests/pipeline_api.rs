//! Integration tests of the pipeline surface: pass sequencing, firing
//! logs, failure propagation and the JSON report.

use pypm_core::json::Value;
use pypm_dsl::LibraryConfig;
use pypm_engine::{summary, PassError, Pipeline, RejectReason, RewritePass, Session, SweepPolicy};
use pypm_graph::{DType, Graph, NodeId};

fn mat(s: &mut Session, g: &mut Graph, dims: &[i64]) -> NodeId {
    g.input(&mut s.syms, DType::F32, dims)
}

/// MatMul(a, Trans(b)) — the Fig. 1 subject; fires exactly one rewrite.
fn fig1_graph(s: &mut Session, dtype: DType) -> Graph {
    let mut g = Graph::new();
    let a = g.input(&mut s.syms, dtype, [64, 32]);
    let b = g.input(&mut s.syms, dtype, [16, 32]);
    let (trans, matmul) = (s.ops.trans, s.ops.matmul);
    let bt = g
        .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
        .unwrap();
    let mm = g
        .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
        .unwrap();
    g.mark_output(mm);
    g
}

#[test]
fn rewrite_pass_reports_stats_and_changes() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let mut g = fig1_graph(&mut s, DType::F32);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run(&mut g)
        .unwrap();

    assert_eq!(report.passes().len(), 1);
    let rec = &report.passes()[0];
    assert_eq!(rec.name, RewritePass::NAME);
    assert!(rec.changed);
    assert_eq!(rec.stats.rewrites_fired, 1);
    assert!(rec.wall >= rec.stats.duration);
    assert_eq!(report.total().rewrites_fired, 1);
    assert_eq!(g.node(g.outputs()[0]).op, s.ops.cublas_mm_xyt_f32);
}

#[test]
fn multi_pass_pipeline_runs_in_order_and_aggregates() {
    let mut s = Session::new();
    let epilog = s.load_library(LibraryConfig::epilog_only());
    let fmha = s.load_library(LibraryConfig::fmha_only());
    let mut g = fig1_graph(&mut s, DType::F32);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(epilog))
        .with(RewritePass::new(fmha))
        .run(&mut g)
        .unwrap();

    let names: Vec<&str> = report.passes().iter().map(|r| r.name).collect();
    assert_eq!(names, ["rewrite", "rewrite"]);
    let total = report.total();
    assert_eq!(
        total.sweeps,
        report.passes().iter().map(|r| r.stats.sweeps).sum::<u64>()
    );
}

#[test]
fn the_pass_record_logs_its_fired_rewrites() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let mut g = fig1_graph(&mut s, DType::F32);
    let (mm, bt) = (g.outputs()[0], g.inputs(g.outputs()[0])[1]);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules.clone()))
        .run(&mut g)
        .unwrap();

    let record = &report.passes()[0];
    let log = &record.firings;
    assert_eq!(log.fired().len(), 1);
    let fired = &log.fired()[0];
    assert_eq!(rules.patterns[fired.pattern].name, "MMxyT");
    assert_eq!(fired.node, mm);
    assert_eq!(fired.sweep, 1);
    // The fused kernel replaced MatMul and the transpose it read.
    assert_eq!(log.created(fired), g.outputs());
    assert_eq!(log.collected(fired), [bt, mm]);
    assert!(log.rejected().is_empty());
    assert!(summary(log, &rules, None).contains("MMxyT: 1 fired"));
    assert!(!summary(log, &rules, Some("MHA")).contains("MMxyT"));
}

#[test]
fn the_log_records_guard_rejections() {
    // f16 inputs: MMxyT matches structurally but both rule guards fail.
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let mut g = fig1_graph(&mut s, DType::F16);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules.clone()))
        .run(&mut g)
        .unwrap();

    let log = &report.passes()[0].firings;
    assert!(log.fired().is_empty());
    assert!(!log.rejected().is_empty());
    assert!(log.rejected().iter().all(
        |r| r.reason == RejectReason::GuardsFailed && rules.patterns[r.pattern].name == "MMxyT"
    ));
    assert_eq!(
        summary(log, &rules, Some("MMxyT")),
        format!(
            "0 rewrites fired, {n} matches rejected across 1 pass(es)\n  \
             MMxyT: 0 fired, {n} rejected by guards, 0 identity\n",
            n = log.rejected().len()
        )
    );
}

#[test]
fn the_log_records_identity_rejections() {
    // A single Relu matches ReluChain but its replacement is the
    // identical subgraph — the match must be rejected as identity.
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let mut g = Graph::new();
    let x = mat(&mut s, &mut g, &[4, 4]);
    let relu = s.ops.relu;
    let r = g
        .op(&mut s.syms, &s.registry, relu, vec![x], vec![])
        .unwrap();
    g.mark_output(r);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run(&mut g)
        .unwrap();

    assert!(report.passes()[0]
        .firings
        .rejected()
        .iter()
        .any(
            |rejected| rejected.reason == RejectReason::IdentityReplacement && rejected.node == r
        ));
}

#[test]
fn report_json_is_stable_and_parsable_shaped() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let mut g = fig1_graph(&mut s, DType::F32);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run(&mut g)
        .unwrap();
    let doc = pypm_core::json::parse(&report.to_json()).expect("the report is JSON");
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
    assert_eq!(text(&doc, "schema").as_deref(), Some("pypm.pipeline.v1"));
    let passes = doc.get("passes").and_then(Value::as_array).unwrap();
    let names: Vec<_> = passes.iter().map(|p| text(p, "name").unwrap()).collect();
    assert_eq!(names, ["rewrite"]);
    let fired = |v: &Value| v.get("rewrites_fired").and_then(Value::as_f64);
    assert_eq!(fired(&passes[0]), Some(1.0));
    assert_eq!(doc.get("totals").and_then(fired), Some(1.0));
    let diagnostics = doc.get("diagnostics").and_then(Value::as_array);
    assert_eq!(diagnostics.map(|d| d.len()), Some(0));
}

/// A pass whose budget trips stops the pipeline: the error names the
/// pass, carries what it fired before it stopped, and the pass after
/// it never runs — the two-pass run fails exactly where the first pass
/// alone does, leaving the same graph.
#[test]
fn failing_pass_stops_the_pipeline_and_names_itself() {
    use pypm_core::Budget;
    use std::sync::Arc;

    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let run = |passes: usize, step_limit: Option<u64>| {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        let mut pipeline = Pipeline::new(&mut s);
        if step_limit.is_some() {
            pipeline = pipeline.with_budget(Arc::new(Budget::new(None, step_limit)));
        }
        for _ in 0..passes {
            pipeline = pipeline.with(RewritePass::new(rules.clone()));
        }
        let result = pipeline.run(&mut g);
        let nodes: Vec<_> = g
            .topo_order()
            .into_iter()
            .map(|n| (n, g.node(n).op, g.inputs(n).to_vec()))
            .collect();
        (result, nodes)
    };

    let (result, graph) = run(2, Some(100));
    let err = result.expect_err("100 steps cannot finish bert-small");
    assert_eq!(err.pass, "rewrite");
    assert!(
        matches!(err.error, PassError::BudgetExceeded { .. }),
        "{err}"
    );
    assert!(err
        .to_string()
        .starts_with("pass rewrite failed: compile budget exceeded"));
    // The partial log: a non-empty prefix of the untripped pass's.
    let fired = err.firings.fired();
    assert!(!fired.is_empty(), "the budget must trip mid-pass");
    let (untripped, _) = run(1, None);
    let untripped = untripped.unwrap();
    assert!(untripped.passes()[0].firings.fired().starts_with(fired));
    // The second pass recorded nothing.
    let (alone, alone_graph) = run(1, Some(100));
    assert_eq!(err.firings, alone.unwrap_err().firings);
    assert_eq!(graph, alone_graph);
}

#[test]
fn run_batch_reports_one_report_per_graph_with_artifacts() {
    let mut s = Session::new();
    let mut graphs = vec![
        fig1_graph(&mut s, DType::F32),
        fig1_graph(&mut s, DType::F32),
    ];
    let rules = s.load_library(LibraryConfig::all());
    let reports = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run_batch(&mut graphs)
        .unwrap();
    assert_eq!(reports.len(), 2);
    for report in &reports {
        // The pass ran for every graph, each graph got its own records
        // and counters.
        assert_eq!(report.passes().len(), 1);
        let total = report.total();
        assert_eq!(total.rewrites_fired, 1);
        assert_eq!(total.parallel.batch_graphs, 2);
        assert!(report.to_json().contains("\"batch_graphs\": 2"));
    }
}

#[test]
fn empty_batch_is_fine() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let reports = Pipeline::new(&mut s)
        .with(RewritePass::new(rules))
        .run_batch(&mut [])
        .unwrap();
    assert!(reports.is_empty());
}

/// The two names the repo benchmark still compiles against are inert:
/// a pipeline told `with_jobs(8)` runs the serial pass — same graph,
/// and the same report once the wall clocks are dropped.
#[test]
fn retired_parallelism_setter_runs_the_serial_pass() {
    use pypm_engine::ParallelConfig;

    fn strip_clocks(v: &mut Value) {
        match v {
            Value::Object(map) => {
                map.retain(|k, _| k != "wall_ms" && k != "duration_ms");
                map.values_mut().for_each(strip_clocks);
            }
            Value::Array(items) => items.iter_mut().for_each(strip_clocks),
            _ => {}
        }
    }
    let cfg = pypm_models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let run = |jobs: Option<usize>| {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::all());
        let mut pipeline = Pipeline::new(&mut s).with(RewritePass::new(rules));
        if let Some(jobs) = jobs {
            pipeline = pipeline.parallelism(ParallelConfig::with_jobs(jobs));
        }
        let report = pipeline.run(&mut g).unwrap();
        let total = report.total();
        assert_eq!(total.parallel.jobs, 1);
        assert_eq!(total.parallel.probes_executed, 0);
        let mut doc = pypm_core::json::parse(&report.to_json()).unwrap();
        strip_clocks(&mut doc);
        let nodes: Vec<_> = g
            .topo_order()
            .into_iter()
            .map(|n| (n, g.node(n).op, g.inputs(n).to_vec()))
            .collect();
        (doc, nodes)
    };
    let default = run(None);
    assert_eq!(run(Some(8)), default);
    assert_eq!(run(Some(0)), default);
}

/// The `parallel` block of `pypm.pipeline.v1` is the constant serial
/// one until the benchmark's frozen surface lets it go (ROADMAP item
/// 4 e): byte for byte, zoo-wide, in the three policy × backend cells
/// the equivalence suites keep — the reference, and the two fused ones.
#[test]
fn parallel_block_is_the_constant_serial_one_zoo_wide() {
    use pypm_engine::MatcherBackend::{Fused, PerPattern};
    use SweepPolicy::{Incremental, RestartOnRewrite};

    const SERIAL: &str = r#""parallel": {"jobs": 1, "batch_graphs": 1, "warm_batches": 0, "pool_rounds": 0, "pool_spawn_reuse": 0, "probes_executed": 0, "probes_filtered": 0, "probes_reused": 0, "probes_inline": 0, "warm_wall_ms": 0.000000, "probes_by_shard": []}"#;
    let check = |name: &str, build: &dyn Fn(&mut Session) -> Graph| {
        for (policy, backend) in [
            (RestartOnRewrite, PerPattern),
            (RestartOnRewrite, Fused),
            (Incremental, Fused),
        ] {
            let mut s = Session::new();
            let mut g = build(&mut s);
            let rules = s.load_library(LibraryConfig::both());
            let json = Pipeline::new(&mut s)
                .with(RewritePass::new(rules).policy(policy).matcher(backend))
                .run(&mut g)
                .unwrap()
                .to_json();
            // One per pass, one in the totals.
            assert_eq!(
                json.matches(SERIAL).count(),
                2,
                "{name}/{policy}/{backend}:\n{json}"
            );
            assert_eq!(json.matches("\"parallel\": ").count(), 2);
        }
    };
    for cfg in pypm_models::hf_zoo() {
        check(cfg.name, &|s| cfg.build(s));
    }
    for cfg in pypm_models::tv_zoo() {
        check(cfg.name, &|s| cfg.build(s));
    }
}

/// Clock reads of one cold single-pass compile: the run's start, then
/// the pass setup, trie build, collection, view build, scan and
/// validation laps — plus the dev profile's post-scan collection.
const COLD_COMPILE_READS: u64 = 8;

/// The stage spine's contract on a compile. Under a clock that moves
/// one tick per read, the stages sum exactly to the span between the
/// run's first and last clock read, the pass's wall is that span and
/// its duration the part before validation, and the run reads the clock
/// a fixed handful of times whatever the graph.
#[test]
fn a_compile_laps_its_stages_exactly_and_reads_the_clock_a_handful_of_times() {
    use pypm_core::{Stage, Stages, TickingClock};
    use std::sync::Arc;
    use std::time::Duration;

    let tick = Duration::from_micros(1);
    for cfg in pypm_models::hf_zoo().into_iter().take(6) {
        let mut s = Session::new();
        let mut g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        let clock = Arc::new(TickingClock::new(tick));
        let report = Pipeline::new(&mut s)
            .with(RewritePass::new(rules))
            .with_stages(Stages::new(clock.clone()))
            .run(&mut g)
            .unwrap();
        let reads = clock.reads();
        assert!(
            reads <= COLD_COMPILE_READS,
            "{}: {reads} clock reads",
            cfg.name
        );
        let stages = report.stages();
        assert_eq!(stages.total(), tick * (reads as u32 - 1), "{}", cfg.name);
        let pass = &report.passes()[0];
        assert_eq!(pass.wall, stages.total());
        assert_eq!(
            pass.stats.duration,
            stages.total() - tick * stages.get(Stage::Validate).count as u32
        );
        for stage in [
            Stage::TrieBuild,
            Stage::ViewBuild,
            Stage::Scan,
            Stage::Validate,
        ] {
            assert_eq!(stages.get(stage).count, 1, "{}: {stage}", cfg.name);
        }
    }
}

/// Every traversal and matching counter of one pass over the 20-layer
/// ladder program (hidden 48, `both`) under both sweep policies, as
/// literals: a change to how the scan walks its order, reads the term
/// view or answers from the candidate memo must leave each of them
/// where it is.
#[test]
fn the_scan_counters_of_a_small_ladder_are_pinned() {
    use pypm_engine::{MatcherBackend, PassStats};
    use pypm_models::{GeluVariant, ScaleVariant, TransformerConfig};

    /// The counters in a fixed order: `nodes_visited`,
    /// `nodes_revisited`, `cursor_steps`, `sweeps`, `match_attempts`,
    /// `matches_found`, `rewrites_fired`, `machine_steps`,
    /// `pairs_admitted`, `pairs_rejected`, `terms_walked`, `trie_steps`,
    /// `nodes_reindexed`.
    fn counters(s: &PassStats) -> [u64; 13] {
        [
            s.nodes_visited,
            s.nodes_revisited,
            s.cursor_steps,
            s.sweeps,
            s.match_attempts,
            s.matches_found,
            s.rewrites_fired,
            s.machine_steps,
            s.matcher.pairs_admitted,
            s.matcher.pairs_rejected,
            s.matcher.terms_walked,
            s.matcher.trie_steps,
            s.nodes_reindexed,
        ]
    }

    let ladder = TransformerConfig {
        name: "deep",
        layers: 20,
        hidden: 48,
        seq: 64,
        batch: 1,
        mlp_factor: 4,
        gelu: GeluVariant::DivTwo,
        scale: ScaleVariant::Mul,
        opaque_layernorm: false,
    };
    // The restart rows revisit 10 712 nodes and step over as many as
    // they visit; both policies fire, probe and repair alike.
    let cells = [
        (
            SweepPolicy::Incremental,
            MatcherBackend::Fused,
            [665, 0, 665, 62, 5581, 61, 61, 887, 61, 5520, 589, 1414, 455],
        ),
        (
            SweepPolicy::Incremental,
            MatcherBackend::PerPattern,
            [665, 0, 665, 62, 5581, 61, 61, 17088, 5581, 0, 0, 0, 455],
        ),
        (
            SweepPolicy::RestartOnRewrite,
            MatcherBackend::Fused,
            [
                11377, 10712, 11377, 62, 101989, 61, 61, 887, 61, 101928, 589, 1414, 455,
            ],
        ),
        (
            SweepPolicy::RestartOnRewrite,
            MatcherBackend::PerPattern,
            [
                11377, 10712, 11377, 62, 101989, 61, 61, 294458, 101989, 0, 0, 0, 455,
            ],
        ),
    ];
    for (policy, matcher, pinned) in cells {
        let mut s = Session::new();
        let mut g = ladder.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        let report = Pipeline::new(&mut s)
            .with(RewritePass::new(rules).policy(policy).matcher(matcher))
            .run(&mut g)
            .unwrap();
        assert_eq!(
            counters(&report.passes()[0].stats),
            pinned,
            "{policy:?} / {matcher}"
        );
    }
}
