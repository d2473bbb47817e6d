//! Per-layer numbers of the traced run that are not program-made
//! counts: medians of the spans around each layer call, timings of the
//! layers' public functions called in-process on the workload's own
//! inputs, the scale ladder, and the CLI's cold start.

use crate::cold::{compile, Engine};
use crate::inputs::{cold_lib, Program};
use crate::outcome::LayerMetrics;
use crate::stats::{loglog_slope, median};
use crate::trace::{self_times, Span, Tracer};
use pypm::dsl::LibraryConfig;
use pypm::engine::{FusedMatcher, Session};
use pypm::graph::{Graph, TermView};
use pypm::models::{GeluVariant, ScaleVariant};
use pypm::wire::cache::{CacheKey, ResultCache};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Span name → the metric its per-op time is reported as.
const SPAN_METRICS: [(&str, &str); 7] = [
    ("pypm-engine.session_new", "pypm-engine.session_new_ms"),
    ("pypm-models.build", "pypm-models.build_ms"),
    ("pypm-dsl.load_library", "pypm-dsl.load_library_ms"),
    ("pypm-engine.run", "pypm-engine.run_ms"),
    ("pypm-graph.validate", "pypm-graph.validate_ms"),
    ("pypm-perf.graph_cost", "pypm-perf.graph_cost_ms"),
    ("pypm-engine.report_json", "pypm-engine.report_json_ms"),
];

/// From the spans: each layer call's median time per op (a layer called
/// twice in an op counts its sum), `ms_per_rewrite`, and the share of
/// the ops' wall that the layers' self times account for.
pub fn span_medians(spans: &[Span], layer: &mut LayerMetrics) {
    let mut per_op: BTreeMap<(&str, u32), f64> = BTreeMap::new();
    for s in spans {
        *per_op.entry((s.name, s.op)).or_default() += s.duration() as f64 / 1e6;
    }
    for (span, metric) in SPAN_METRICS {
        let times: Vec<f64> = per_op
            .iter()
            .filter(|((name, _), _)| *name == span)
            .map(|(_, ms)| *ms)
            .collect();
        if !times.is_empty() {
            layer.insert(metric, median(&times));
        }
    }
    let run_total: f64 = per_op
        .iter()
        .filter(|((name, _), _)| *name == "pypm-engine.run")
        .map(|(_, ms)| *ms)
        .sum();
    let rewrites = layer
        .get("pypm-engine.rewrites_fired")
        .copied()
        .unwrap_or(0.0);
    if run_total > 0.0 && rewrites > 0.0 {
        layer.insert("pypm-engine.ms_per_rewrite", run_total / rewrites);
    }
    let own = self_times(spans);
    let (mut ops, mut layers) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        if s.name == "op" {
            ops += s.duration();
        } else {
            layers += own;
        }
    }
    if ops > 0 {
        layer.insert("pypm-benchmark.span_coverage", layers as f64 / ops as f64);
    }
}

/// Traced against untraced latency of the same inputs: per input
/// (`(traced, untraced)` ops), the median of its traced ops over the
/// median of its untraced ops; the median of those ratios.
pub fn trace_overhead<'a>(
    inputs: impl Iterator<Item = (&'a [f64], &'a [f64])>,
    layer: &mut LayerMetrics,
) {
    let ratios: Vec<f64> = inputs
        .filter(|(traced, untraced)| !traced.is_empty() && !untraced.is_empty())
        .map(|(traced, untraced)| median(traced) / median(untraced))
        .collect();
    if !ratios.is_empty() {
        layer.insert("pypm-benchmark.trace_overhead", median(&ratios));
    }
}

/// One input for [`layer_calls`].
pub struct ProbeInput<'a> {
    pub build: Box<dyn Fn(&mut Session) -> Graph + 'a>,
    pub lib: LibraryConfig,
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Times the public functions a compile or a served request goes
/// through but that no span can isolate from outside — term-view build,
/// trie build, the wire codecs, the cache key hash, cache get and put —
/// each called here on the workload's inputs. Medians over `inputs`.
pub fn layer_calls(inputs: &[ProbeInput<'_>], cache_capacity: usize, layer: &mut LayerMetrics) {
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut patterns = 0usize;
    let mut trie_nodes = 0usize;
    for input in inputs {
        let mut s = Session::new();
        let mut note = |name: &'static str, ms: f64| times.entry(name).or_default().push(ms);
        let (g, ms) = timed_ms(|| (input.build)(&mut s));
        note("pypm-models.build_ms", ms);
        let rules = s.load_library(input.lib);
        patterns = patterns.max(rules.len());

        let (view, ms) = timed_ms(|| TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry));
        black_box(view);
        note("pypm-graph.view_build_ms", ms);

        let ids: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        let (matcher, ms) = timed_ms(|| FusedMatcher::new(&s.pats, &ids));
        trie_nodes = trie_nodes.max(matcher.set().node_count());
        note("pypm-core.trie_build_ms", ms);

        let (graph_bytes, ms) = timed_ms(|| pypm::wire::encode_graph(&g, &s.syms));
        note("pypm-wire.encode_graph_ms", ms);
        note("pypm-wire.graph_bytes", graph_bytes.len() as f64);
        let mut fresh = Session::new();
        let (decoded, ms) = timed_ms(|| pypm::wire::decode_graph(&graph_bytes, &mut fresh.syms));
        black_box(decoded.is_ok());
        note("pypm-wire.decode_graph_ms", ms);
        let (ruleset_bytes, ms) = timed_ms(|| pypm::wire::encode_ruleset(&rules, &s.syms, &s.pats));
        note("pypm-wire.encode_ruleset_ms", ms);
        let (key, ms) = timed_ms(|| CacheKey::of(&[&graph_bytes[..], &ruleset_bytes[..]]));
        black_box(key);
        note("pypm-wire.key_hash_ms", ms);
    }
    // A span around the same call inside an op, where there is one, wins.
    for (name, values) in &times {
        layer.entry(name).or_insert(median(values));
    }
    layer.insert("pypm-dsl.patterns", patterns as f64);
    layer.insert("pypm-core.trie_nodes", trie_nodes as f64);

    // The result cache at the workload's capacity, holding payloads of
    // a report's size: hits walk the LRU, puts of fresh keys evict.
    const ROUNDS: u64 = 2000;
    let report = "r".repeat(1500);
    let cache = ResultCache::in_memory(cache_capacity);
    let key = |i: u64| CacheKey::of(&[&i.to_le_bytes()]);
    for i in 0..cache_capacity as u64 {
        cache.put(key(i), &report);
    }
    let started = Instant::now();
    for i in 0..ROUNDS {
        black_box(cache.get(key(i % cache_capacity as u64)));
    }
    let get_us = started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let started = Instant::now();
    for i in 0..ROUNDS {
        cache.put(key(1_000_000 + i), &report);
    }
    let put_us = started.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    layer.insert("pypm-wire.cache_get_us", get_us);
    layer.insert("pypm-wire.cache_put_us", put_us);
}

const LADDER_LAYERS: [usize; 4] = [50, 100, 200, 400];

/// One compile at each of 50/100/200/400 layers under `policy`: the
/// exponent of `run_ms` in input nodes, and `run_ms` at the top rung
/// (12 004 nodes) — the ≥10⁴-node point, without every op costing that.
///
/// # Errors
///
/// A ladder compile failed.
pub fn scale_ladder(policy: &'static str, layer: &mut LayerMetrics) -> Result<(), String> {
    let lib = cold_lib();
    let mut points = Vec::new();
    for layers in LADDER_LAYERS {
        let cfg = Program {
            layers,
            hidden: 48,
            gelu: GeluVariant::DivTwo,
            scale: ScaleVariant::Mul,
            opaque_layernorm: false,
        }
        .config();
        let mut tr = Tracer::new(true, Instant::now());
        let c = compile(
            |s| cfg.build(s),
            lib,
            Engine::new(policy, "fused"),
            &mut tr,
            0,
        )?;
        let run_ms = tr
            .into_spans()
            .iter()
            .find(|s| s.name == "pypm-engine.run")
            .map(|s| s.duration() as f64 / 1e6)
            .expect("a compile records its run span");
        points.push((c.in_nodes as f64, run_ms));
    }
    let exponent = match policy {
        "restart" => "pypm-engine.scale_exponent_restart",
        _ => "pypm-engine.scale_exponent_incremental",
    };
    layer.insert(exponent, loglog_slope(&points));
    layer.insert("pypm-engine.run_ms_12k_nodes", points[points.len() - 1].1);
    Ok(())
}

/// Wall of `pypmc compile bert-tiny`, spawn to exit: median of five.
///
/// # Errors
///
/// The CLI could not be spawned or failed.
pub fn cli_cold_start(pypmc: &Path, layer: &mut LayerMetrics) -> Result<(), String> {
    let mut times = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let status = Command::new(pypmc)
            .args(["compile", "bert-tiny", "--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", pypmc.display()))?;
        if !status.success() {
            return Err(format!("`pypmc compile bert-tiny` exited with {status}"));
        }
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    layer.insert("pypm.cli_cold_start_ms", median(&times));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::cold_programs;
    use crate::outcome::Row;

    #[test]
    fn span_medians_sum_repeated_calls_within_an_op() {
        let span = |name, start, end, parent, op| Span {
            name,
            start,
            end,
            parent,
            op,
        };
        let spans = vec![
            span("op", 0, 10_000_000, None, 0),
            span("pypm-perf.graph_cost", 0, 1_000_000, Some(0), 0),
            span("pypm-engine.run", 1_000_000, 8_000_000, Some(0), 0),
            span("pypm-perf.graph_cost", 8_000_000, 9_000_000, Some(0), 0),
        ];
        let mut layer = LayerMetrics::new();
        layer.insert("pypm-engine.rewrites_fired", 7.0);
        span_medians(&spans, &mut layer);
        assert_eq!(layer["pypm-perf.graph_cost_ms"], 2.0);
        assert_eq!(layer["pypm-engine.run_ms"], 7.0);
        assert_eq!(layer["pypm-engine.ms_per_rewrite"], 1.0);
        assert_eq!(layer["pypm-benchmark.span_coverage"], 0.9);
    }

    #[test]
    fn layer_calls_measure_every_function_they_name() {
        let program = Program {
            layers: 2,
            ..cold_programs(1)[0].clone()
        };
        let cfg = program.config();
        let input = ProbeInput {
            build: Box::new(move |s: &mut Session| cfg.build(s)),
            lib: cold_lib(),
        };
        let mut layer = LayerMetrics::new();
        layer_calls(&[input], 4, &mut layer);
        for name in [
            "pypm-graph.view_build_ms",
            "pypm-core.trie_build_ms",
            "pypm-core.trie_nodes",
            "pypm-dsl.patterns",
            "pypm-wire.encode_graph_ms",
            "pypm-wire.decode_graph_ms",
            "pypm-wire.encode_ruleset_ms",
            "pypm-wire.key_hash_ms",
            "pypm-wire.graph_bytes",
            "pypm-wire.cache_get_us",
            "pypm-wire.cache_put_us",
        ] {
            assert!(layer[name] > 0.0, "{name}");
        }
    }

    #[test]
    fn overhead_pairs_traced_and_untraced_ops_of_one_input() {
        let mut a = Row::new("a".to_owned());
        a.ms = vec![10.0, 10.0];
        a.traced_ms = vec![11.0];
        let mut b = Row::new("b".to_owned());
        b.ms = vec![100.0];
        let mut layer = LayerMetrics::new();
        trace_overhead(
            [&a, &b].into_iter().map(Row::traced_and_untraced),
            &mut layer,
        );
        assert_eq!(layer["pypm-benchmark.trace_overhead"], 1.1);
    }
}
