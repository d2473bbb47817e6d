//! The `cold_deep_*` workloads: cold compiles of deep transformers, in
//! this process, on one thread.

use crate::inputs::{cold_lib, digest_of, Program};
use crate::outcome::{AsTimed, Counters, Outcome, Row};
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::util::{fnv64, proc_status_mb};
use crate::yardstick::{to_reference, Sensitivity, Yardstick};
use crate::{expect, probes};
use pypm::dsl::LibraryConfig;
use pypm::engine::{
    MatcherBackend, ParallelConfig, PassStats, Pipeline, RewritePass, Session, SweepPolicy,
};
use pypm::graph::Graph;
use pypm::perf::CostModel;
use std::hint::black_box;
use std::time::Instant;

/// How one compile is configured. `jobs` is 1 everywhere but the single
/// `probes_executed` probe of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    pub policy: SweepPolicy,
    pub matcher: MatcherBackend,
    pub jobs: usize,
}

impl Engine {
    pub fn new(policy: &str, matcher: &str) -> Engine {
        Engine {
            policy: SweepPolicy::parse(policy).expect("a policy name of the measured surface"),
            matcher: MatcherBackend::parse(matcher)
                .expect("a matcher name of the measured surface"),
            jobs: 1,
        }
    }

    /// The paper-faithful machine: the oracle the fast paths are
    /// checked against.
    pub fn reference() -> Engine {
        Engine::new("restart", "per-pattern")
    }
}

/// What one compile produced.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub ms: f64,
    pub in_nodes: u64,
    pub out_nodes: u64,
    pub cost_before: f64,
    pub cost_after: f64,
    pub stats: PassStats,
    /// Digest of the output graph's canonical wire bytes.
    pub digest: u64,
}

impl Compiled {
    pub fn output(&self) -> expect::Output {
        expect::Output {
            rewrites_fired: self.stats.rewrites_fired,
            out_nodes: self.out_nodes,
            digest: self.digest,
        }
    }
}

/// One op: what `pypmc compile` does between process start and
/// printing. Each call into a layer is one span under the op's.
///
/// # Errors
///
/// A pipeline failure or an invalid output graph, as the op's failure.
pub fn compile(
    build: impl FnOnce(&mut Session) -> Graph,
    lib: LibraryConfig,
    engine: Engine,
    tr: &mut Tracer,
    op: u32,
) -> Result<Compiled, String> {
    tr.enter("op", op);
    let started = Instant::now();
    let mut s = tr.call("pypm-engine.session_new", op, Session::new);
    let mut g = tr.call("pypm-models.build", op, || build(&mut s));
    let in_nodes = g.live_count() as u64;
    let cm = CostModel::new();
    let cost_before = tr.call("pypm-perf.graph_cost", op, || {
        cm.graph_cost(&g, &s.syms, &s.registry, &s.ops)
    });
    let rules = tr.call("pypm-dsl.load_library", op, || s.load_library(lib));
    let report = tr.call("pypm-engine.run", op, || {
        let mut pipeline =
            Pipeline::new(&mut s).parallelism(ParallelConfig::with_jobs(engine.jobs));
        if !rules.is_empty() {
            pipeline = pipeline.with(
                RewritePass::new(rules)
                    .policy(engine.policy)
                    .matcher(engine.matcher),
            );
        }
        pipeline.run(&mut g)
    });
    let valid = tr.call("pypm-graph.validate", op, || g.validate());
    let cost_after = tr.call("pypm-perf.graph_cost", op, || {
        cm.graph_cost(&g, &s.syms, &s.registry, &s.ops)
    });
    let json = tr.call("pypm-engine.report_json", op, || {
        report.as_ref().ok().map(|r| r.to_json())
    });
    black_box(&json);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    tr.exit();

    let report = report.map_err(|e| e.to_string())?;
    valid.map_err(|e| format!("output graph is invalid: {e}"))?;
    Ok(Compiled {
        ms,
        in_nodes,
        out_nodes: g.live_count() as u64,
        cost_before,
        cost_after,
        stats: report.total(),
        digest: fnv64(&s.wire_graph(&g)),
    })
}

/// Ops before the first timed one.
pub const WARM_UP_OPS: usize = 5;

/// The warm-up programs: evenly spaced by depth (80, 90, … 120 layers
/// of the full list), so set-up does the same work under every seed.
fn warm_up_programs(programs: &[Program]) -> Vec<&Program> {
    let mut by_depth: Vec<&Program> = programs.iter().collect();
    by_depth.sort_by_key(|p| p.layers);
    let step = (by_depth.len() - 1) / (WARM_UP_OPS - 1);
    (0..WARM_UP_OPS).map(|i| by_depth[i * step]).collect()
}
/// Set-up runs this many times; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// What a cold workload is run with. `counted` ops open the timed
/// phase: program-made counts come from exactly those, so they repeat;
/// further ops, until `seconds` have passed, only add latency samples.
pub struct ColdPlan<'a> {
    pub policy: &'static str,
    pub make_programs: &'a dyn Fn() -> Vec<Program>,
    pub counted: usize,
    pub seconds: f64,
    pub sensitivity: Sensitivity,
    pub trace: bool,
    /// The committed expected outputs, when they are for this seed.
    pub expected: Option<&'a [expect::Output]>,
    /// Picks which programs the reference machine recomputes otherwise.
    pub seed: u64,
}

/// Runs one `cold_deep_*` workload.
///
/// # Errors
///
/// Only a harness failure; a failing op is counted, not returned.
pub fn run(plan: &ColdPlan<'_>) -> Result<Outcome, String> {
    let engine = Engine::new(plan.policy, "fused");
    let lib = cold_lib();
    let mut tr = Tracer::new(false, Instant::now());
    let yardstick = Yardstick::new();
    let mut readings = vec![yardstick.read()];

    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let before = readings[readings.len() - 1];
        let started = Instant::now();
        programs = (plan.make_programs)();
        for p in warm_up_programs(&programs) {
            let cfg = p.config();
            compile(|s| cfg.build(s), lib, engine, &mut tr, 0)?;
        }
        let raw = started.elapsed().as_secs_f64();
        let after = yardstick.read();
        readings.push(after);
        raw_setups.push(raw);
        setups.push(raw * to_reference(before, after, plan.sensitivity.setup));
    }

    let mut rows: Vec<Row> = programs.iter().map(|p| Row::new(p.label())).collect();
    let mut observed: Vec<Option<Compiled>> = vec![None; programs.len()];
    let mut counters = Counters::default();
    let mut op_ms = Vec::new();
    let mut raw_op_ms = Vec::new();
    let mut failures = Vec::new();
    let mut failed = 0u64;

    tr.set(plan.trace);
    let timed = Instant::now();
    let mut op = 0usize;
    while op < plan.counted || timed.elapsed().as_secs_f64() < plan.seconds {
        if op == plan.counted {
            tr.set(false);
        }
        let at = op % programs.len();
        let cfg = programs[at].config();
        let compiled = compile(|s| cfg.build(s), lib, engine, &mut tr, op as u32);
        // A reading between every two ops: each op stands at the speed
        // of the box around it.
        let before = readings[readings.len() - 1];
        let after = yardstick.read();
        readings.push(after);
        match compiled {
            Ok(c) => {
                let ms = c.ms * to_reference(before, after, plan.sensitivity.op);
                raw_op_ms.push(c.ms);
                op_ms.push(ms);
                let row = &mut rows[at];
                if op < plan.counted {
                    counters.add_stats(&c.stats);
                    row.traced_ms.push(ms);
                } else {
                    row.ms.push(ms);
                }
                // A program compiled twice must come out the same twice.
                match &observed[at] {
                    Some(first) if first.output() != c.output() => {
                        failed += 1;
                        failures.push(format!("op {op}: {} is not deterministic", row.label));
                    }
                    Some(_) => {}
                    None => observed[at] = Some(c),
                }
            }
            Err(e) => {
                failed += 1;
                failures.push(format!("op {op}: {}: {e}", rows[at].label));
            }
        }
        op += 1;
    }
    tr.set(false);
    let attempted = op as u64;
    let peak_rss_mb = proc_status_mb("self", "VmHWM").ok_or("cannot read VmHWM")?;

    // Outputs against the oracle. A program that is wrong fails every
    // op that compiled it.
    let other = Engine::new(other_policy(plan.policy), "fused");
    for (at, program) in programs.iter().enumerate() {
        let Some(seen) = &observed[at] else { continue };
        let row = &mut rows[at];
        row.in_nodes = seen.in_nodes;
        row.output = seen.output();
        let ops_of = (row.ms.len() + row.traced_ms.len()) as u64;
        let cfg = program.config();
        let mut problems = Vec::new();
        match plan.expected {
            Some(expected) => {
                if expected.get(at) != Some(&seen.output()) {
                    problems.push("differs from benchmark/expected.json".to_owned());
                }
            }
            None => {
                if expect::sampled(plan.seed, at) {
                    let reference =
                        compile(|s| cfg.build(s), lib, Engine::reference(), &mut tr, 0)?;
                    if reference.output() != seen.output() {
                        problems.push("differs from the reference machine".to_owned());
                    }
                }
                let twin = compile(|s| cfg.build(s), lib, other, &mut tr, 0)?;
                if twin.output() != seen.output() {
                    problems.push(format!(
                        "differs under policy={}",
                        other_policy(plan.policy)
                    ));
                }
            }
        }
        for problem in problems {
            failed += ops_of;
            failures.push(format!("{}: {problem}", row.label));
        }
    }

    let seen: Vec<&Compiled> = observed.iter().flatten().collect();
    if seen.is_empty() {
        return Err(format!("no op succeeded: {failures:?}"));
    }
    let speedups: Vec<f64> = seen.iter().map(|c| c.cost_before / c.cost_after).collect();
    let nodes_in: u64 = seen.iter().map(|c| c.in_nodes).sum();
    let nodes_out: u64 = seen.iter().map(|c| c.out_nodes).sum();

    let by_time = sorted(&op_ms);
    let mut outcome = Outcome {
        setup_s: median(&setups),
        op_p50_ms: percentile(&by_time, 50.0),
        op_p90_ms: percentile(&by_time, 90.0),
        ops_per_s: op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3),
        op_ms,
        as_timed: AsTimed {
            setup_s: median(&raw_setups),
            op_ms: raw_op_ms,
            yardstick_ms: readings,
        },
        peak_rss_mb,
        attempted,
        failed: failed.min(attempted),
        sim_speedup: geomean(&speedups),
        out_nodes_share: nodes_out as f64 / nodes_in as f64,
        input_digest: digest_of(programs.iter().map(Program::label)),
        rows,
        failures,
        ..Outcome::default()
    };
    if plan.trace {
        let cfg = programs[0].config();
        let parallel = compile(
            |s| cfg.build(s),
            lib,
            Engine { jobs: 2, ..engine },
            &mut tr,
            0,
        )?;
        outcome.spans = tr.into_spans();
        let layer = &mut outcome.layer;
        counters.report(layer);
        let counted_nodes: u64 = (0..plan.counted)
            .filter_map(|op| observed[op % programs.len()].as_ref())
            .map(|c| c.in_nodes)
            .sum();
        layer.insert("pypm-models.nodes_in", counted_nodes as f64);
        probes::span_medians(&outcome.spans, layer);
        probes::trace_overhead(outcome.rows.iter().map(Row::traced_and_untraced), layer);
        let sample: Vec<probes::ProbeInput<'_>> = warm_up_programs(&programs)
            .into_iter()
            .map(|p| {
                let cfg = p.config();
                probes::ProbeInput {
                    build: Box::new(move |s: &mut Session| cfg.build(s)),
                    lib,
                }
            })
            .collect();
        probes::layer_calls(&sample, 16, layer);
        probes::scale_ladder(plan.policy, layer)?;
        layer.insert(
            "pypm-engine.probes_executed",
            parallel.stats.parallel.probes_executed as f64,
        );
    }
    Ok(outcome)
}

fn other_policy(policy: &str) -> &'static str {
    match policy {
        "restart" => "incremental",
        _ => "restart",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::cold_programs;

    /// Both workloads at 1/20 of the depth (4–6 layers), every check on.
    #[test]
    fn small_scale_smoke_of_both_cold_workloads() {
        let started = Instant::now();
        let small = || {
            let mut programs = cold_programs(11);
            for p in &mut programs {
                p.layers /= 20;
            }
            programs
        };
        let mut digests = Vec::new();
        for policy in ["restart", "incremental"] {
            let outcome = run(&ColdPlan {
                policy,
                make_programs: &small,
                counted: 45,
                seconds: 0.0,
                sensitivity: Sensitivity {
                    op: 1.0,
                    setup: 1.0,
                },
                trace: false,
                expected: None,
                seed: 11,
            })
            .unwrap();
            assert_eq!(outcome.attempted, 45);
            assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
            assert!(outcome.sim_speedup > 1.0);
            assert!(outcome.out_nodes_share < 1.0);
            assert!(outcome.rows.iter().all(|r| r.output.rewrites_fired > 0));
            digests.push(outcome.rows.iter().map(|r| r.output).collect::<Vec<_>>());
        }
        assert_eq!(digests[0], digests[1], "restart ≡ incremental, op for op");
        assert!(started.elapsed().as_secs_f64() < 5.0);
    }

    #[test]
    fn a_wrong_expected_output_fails_every_op_of_its_program() {
        let tiny = || {
            vec![Program {
                layers: 2,
                ..cold_programs(1)[0].clone()
            }]
        };
        let wrong = [expect::Output {
            rewrites_fired: 0,
            out_nodes: 0,
            digest: 0,
        }];
        let outcome = run(&ColdPlan {
            policy: "incremental",
            make_programs: &tiny,
            counted: 3,
            seconds: 0.0,
            sensitivity: Sensitivity {
                op: 1.0,
                setup: 1.0,
            },
            trace: false,
            expected: Some(&wrong),
            seed: 1,
        })
        .unwrap();
        assert_eq!((outcome.attempted, outcome.failed), (3, 3));
    }
}
