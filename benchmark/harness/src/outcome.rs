//! What a workload run hands back, and how it is written down.

use crate::expect::Output;
use crate::json::{self, number, quote};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{highest_reportable_percentile, median, percentile, samples_beyond, sorted};
use crate::trace::{self_time_by_name, Span};
use crate::util::hex16;
use pypm::engine::PassStats;
use std::collections::BTreeMap;

pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// One input program (cold) or one distinct request (serve).
#[derive(Debug, Clone, Default)]
pub struct Row {
    pub label: String,
    pub in_nodes: u64,
    pub output: Output,
    /// Latency of each untraced op of this program.
    pub ms: Vec<f64>,
    /// Latency of each op of the counted, traced-when-tracing phase.
    pub traced_ms: Vec<f64>,
}

impl Row {
    pub fn new(label: String) -> Row {
        Row {
            label,
            ..Row::default()
        }
    }

    pub fn traced_and_untraced(&self) -> (&[f64], &[f64]) {
        (&self.traced_ms, &self.ms)
    }
}

/// The wall times behind the timings at reference speed, and the
/// yardstick readings that scaled them: written to the result file so
/// that a run can be read without the yardstick.
#[derive(Debug, Default)]
pub struct AsTimed {
    pub setup_s: f64,
    pub op_ms: Vec<f64>,
    pub yardstick_ms: Vec<f64>,
}

/// One stretch of a serve workload's timed phase, between two yardstick
/// readings: every connection's requests in it, at reference speed.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub requests: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub ops_per_s: f64,
    /// Mean of the readings before and after, as timed.
    pub yardstick_ms: f64,
}

/// Every timing is at reference speed: see [`crate::yardstick`].
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Cold: over every timed op. Serve: the median segment's.
    pub op_p50_ms: f64,
    pub op_p90_ms: f64,
    /// Cold: ops over the time spent in them, one thread. Serve: the
    /// median segment's requests over its wall.
    pub ops_per_s: f64,
    /// Latency of every timed op.
    pub op_ms: Vec<f64>,
    /// Serve only.
    pub segments: Vec<Segment>,
    pub as_timed: AsTimed,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub sim_speedup: f64,
    pub out_nodes_share: f64,
    /// Digest of the generated inputs: equal across runs of one seed.
    pub input_digest: u64,
    pub rows: Vec<Row>,
    pub failures: Vec<String>,
    /// Traced run only: the per-layer metrics measured; one that does
    /// not apply to the workload is absent and reported as 0.
    pub layer: LayerMetrics,
    pub spans: Vec<Span>,
}

/// Program-made counts over the counted ops: the `PassStats` fields,
/// read from the struct in-process and from `totals` of the reply when
/// serving.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    pub run_ms: f64,
    pub match_attempts: u64,
    pub matches_found: u64,
    pub rewrites_fired: u64,
    pub machine_steps: u64,
    pub machine_backtracks: u64,
    pub sweeps: u64,
    pub nodes_visited: u64,
    pub nodes_revisited: u64,
    pub view_builds: u64,
    pub view_patches: u64,
    pub nodes_reindexed: u64,
    pub trie_steps: u64,
    pub pairs_admitted: u64,
    pub pairs_rejected: u64,
}

impl Counters {
    pub fn add_stats(&mut self, s: &PassStats) {
        self.match_attempts += s.match_attempts;
        self.matches_found += s.matches_found;
        self.rewrites_fired += s.rewrites_fired;
        self.machine_steps += s.machine_steps;
        self.machine_backtracks += s.machine_backtracks;
        self.sweeps += s.sweeps;
        self.nodes_visited += s.nodes_visited;
        self.nodes_revisited += s.nodes_revisited;
        self.view_builds += s.view_builds;
        self.view_patches += s.view_patches;
        self.nodes_reindexed += s.nodes_reindexed;
        self.trie_steps += s.matcher.trie_steps;
        self.pairs_admitted += s.matcher.pairs_admitted;
        self.pairs_rejected += s.matcher.pairs_rejected;
    }

    /// Adds the `totals` object of a `pypm.pipeline.v1` report.
    ///
    /// # Errors
    ///
    /// Names the first field the document lacks.
    pub fn add_totals(&mut self, totals: &json::Value) -> Result<(), String> {
        let field = |obj: &json::Value, key: &str| {
            obj.num(key)
                .map(|n| n as u64)
                .ok_or_else(|| format!("pypm.pipeline.v1 totals lack {key}"))
        };
        let block = |key: &str| {
            totals
                .get(key)
                .ok_or_else(|| format!("pypm.pipeline.v1 totals lack {key}"))
        };
        self.run_ms += totals.num("wall_ms").ok_or("totals lack wall_ms")?;
        self.match_attempts += field(totals, "match_attempts")?;
        self.matches_found += field(totals, "matches_found")?;
        self.rewrites_fired += field(totals, "rewrites_fired")?;
        self.machine_steps += field(totals, "machine_steps")?;
        self.machine_backtracks += field(totals, "machine_backtracks")?;
        self.sweeps += field(totals, "sweeps")?;
        self.nodes_visited += field(totals, "nodes_visited")?;
        let incremental = block("incremental")?;
        self.nodes_revisited += field(incremental, "nodes_revisited")?;
        self.view_builds += field(incremental, "view_builds")?;
        self.view_patches += field(incremental, "view_patches")?;
        self.nodes_reindexed += field(incremental, "nodes_reindexed")?;
        let matcher = block("matcher")?;
        self.trie_steps += field(matcher, "trie_steps")?;
        self.pairs_admitted += field(matcher, "pairs_admitted")?;
        self.pairs_rejected += field(matcher, "pairs_rejected")?;
        Ok(())
    }

    pub fn report(&self, layer: &mut LayerMetrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        for (name, value) in [
            ("pypm-core.trie_steps", self.trie_steps),
            ("pypm-core.machine_steps", self.machine_steps),
            ("pypm-core.machine_backtracks", self.machine_backtracks),
            ("pypm-core.pairs_admitted", self.pairs_admitted),
            ("pypm-core.pairs_rejected", self.pairs_rejected),
            ("pypm-graph.view_builds", self.view_builds),
            ("pypm-graph.view_patches", self.view_patches),
            ("pypm-graph.nodes_reindexed", self.nodes_reindexed),
            ("pypm-engine.match_attempts", self.match_attempts),
            ("pypm-engine.matches_found", self.matches_found),
            ("pypm-engine.sweeps", self.sweeps),
            ("pypm-engine.nodes_visited", self.nodes_visited),
            ("pypm-engine.nodes_revisited", self.nodes_revisited),
            ("pypm-engine.rewrites_fired", self.rewrites_fired),
        ] {
            layer.insert(name, value as f64);
        }
        layer.insert(
            "pypm-engine.match_yield",
            ratio(self.matches_found, self.match_attempts),
        );
    }
}

impl Outcome {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let value = |name: &str| match name {
            "setup_s" => self.setup_s,
            "op_p50_ms" => self.op_p50_ms,
            "op_p90_ms" => self.op_p90_ms,
            "ops_per_s" => self.ops_per_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "sim_speedup" => self.sim_speedup,
            "out_nodes_share" => self.out_nodes_share,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        END_TO_END.iter().map(|m| (m.name, value(m.name))).collect()
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.layer.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The line the driver reads: last on standard output.
    pub fn result_line(&self, trace: bool) -> String {
        let (metrics, table) = if trace {
            (self.per_layer(), PER_LAYER)
        } else {
            (self.end_to_end(), END_TO_END)
        };
        let body: Vec<String> = metrics
            .iter()
            .zip(table)
            .map(|((name, value), m)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// `<workload>.json` / `<workload>.trace.json`: the metrics, the
    /// sample count behind the percentiles, and one row per program.
    pub fn result_file(&self, workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
        let n = self.op_ms.len();
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"pypm.benchmark.result.v1\",\n");
        out.push_str(&format!("  \"workload\": {},\n", quote(workload)));
        out.push_str(&format!("  \"seed\": {seed},\n  \"seconds\": {seconds},\n"));
        out.push_str(&format!("  \"traced\": {trace},\n"));
        out.push_str(&format!(
            "  \"input_digest\": \"{}\",\n",
            hex16(self.input_digest)
        ));
        out.push_str(&format!(
            "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n",
            self.correct(),
            self.attempted,
            self.failed
        ));
        out.push_str(&format!(
            "  \"failed_share\": {},\n",
            number(self.failed as f64 / self.attempted.max(1) as f64)
        ));
        out.push_str(&format!(
            "  \"samples\": {n},\n  \"samples_beyond_p90\": {},\n",
            samples_beyond(n.max(1), 90.0)
        ));
        out.push_str(&format!(
            "  \"highest_reportable_percentile\": {},\n",
            highest_reportable_percentile(n).map_or("null".to_owned(), number)
        ));
        out.push_str("  \"metrics\": {\n");
        let lines: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!("    {}: {}", quote(name), number(*value)))
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  },\n");
        if !self.as_timed.op_ms.is_empty() {
            let raw = sorted(&self.as_timed.op_ms);
            out.push_str(&format!(
                "  \"as_timed\": {{\"op_p50_ms\": {}, \"op_p90_ms\": {}, \"setup_s\": {}, \
                 \"yardstick_p50_ms\": {}, \"yardstick_readings\": {}}},\n",
                number(percentile(&raw, 50.0)),
                number(percentile(&raw, 90.0)),
                number(self.as_timed.setup_s),
                number(median(&self.as_timed.yardstick_ms)),
                self.as_timed.yardstick_ms.len()
            ));
        }
        if !self.segments.is_empty() {
            out.push_str("  \"segments\": [\n");
            let lines: Vec<String> = self
                .segments
                .iter()
                .map(|s| {
                    format!(
                        "    {{\"requests\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \
                         \"ops_per_s\": {}, \"yardstick_ms\": {}}}",
                        s.requests,
                        number(s.p50_ms),
                        number(s.p90_ms),
                        number(s.ops_per_s),
                        number(s.yardstick_ms)
                    )
                })
                .collect();
            out.push_str(&lines.join(",\n"));
            out.push_str("\n  ],\n");
        }
        if trace {
            out.push_str("  \"self_time_ms\": {\n");
            let lines: Vec<String> = self_time_by_name(&self.spans)
                .iter()
                .map(|(name, (ns, calls))| {
                    format!(
                        "    {}: {{\"total\": {}, \"calls\": {calls}}}",
                        quote(name),
                        number(*ns as f64 / 1e6)
                    )
                })
                .collect();
            out.push_str(&lines.join(",\n"));
            out.push_str("\n  },\n");
        }
        out.push_str("  \"failures\": [");
        let shown: Vec<String> = self.failures.iter().take(20).map(|f| quote(f)).collect();
        out.push_str(&shown.join(", "));
        out.push_str("],\n  \"rows\": [\n");
        let rows: Vec<String> = self
            .rows
            .iter()
            .filter(|r| !r.ms.is_empty() || !r.traced_ms.is_empty())
            .map(|r| {
                let all: Vec<f64> = r.ms.iter().chain(&r.traced_ms).copied().collect();
                format!(
                    "    {{\"input\": {}, \"in_nodes\": {}, \"ops\": {}, \"p50_ms\": {}, \
                     \"rewrites_fired\": {}, \"out_nodes\": {}, \"digest\": \"{}\"}}",
                    quote(&r.label),
                    r.in_nodes,
                    all.len(),
                    number(median(&all)),
                    r.output.rewrites_fired,
                    r.output.out_nodes,
                    hex16(r.output.digest)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// `<workload>.spans.json`: every span of the traced run.
    pub fn spans_file(&self) -> String {
        let mut out = String::from("[\n");
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                    quote(s.name),
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.op
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_totals_and_pass_stats_count_the_same_fields() {
        let stats = PassStats {
            match_attempts: 9,
            matches_found: 3,
            rewrites_fired: 2,
            nodes_revisited: 4,
            ..PassStats::default()
        };
        let mut direct = Counters::default();
        direct.add_stats(&stats);

        let doc = r#"{"passes": 1, "wall_ms": 1.5, "duration_ms": 1.4, "nodes_visited": 0,
            "match_attempts": 9, "matches_found": 3, "rewrites_fired": 2,
            "machine_steps": 0, "machine_backtracks": 0, "sweeps": 0,
            "incremental": {"view_builds": 0, "view_patches": 0,
                            "nodes_revisited": 4, "nodes_reindexed": 0},
            "matcher": {"backend": "fused", "terms_walked": 0, "trie_steps": 0,
                        "pairs_admitted": 0, "pairs_rejected": 0}}"#;
        let mut parsed = Counters::default();
        parsed.add_totals(&json::parse(doc).unwrap()).unwrap();
        assert_eq!(parsed.run_ms, 1.5);
        parsed.run_ms = 0.0;
        assert_eq!(parsed, direct);
        assert!(Counters::default()
            .add_totals(&json::parse("{\"wall_ms\": 1}").unwrap())
            .is_err());

        let mut layer = LayerMetrics::new();
        direct.report(&mut layer);
        assert_eq!(layer["pypm-engine.match_yield"], 3.0 / 9.0);
    }

    #[test]
    fn the_result_line_is_what_the_driver_reads() {
        let outcome = Outcome {
            setup_s: 0.5,
            op_p50_ms: 50.0,
            op_p90_ms: 90.0,
            ops_per_s: 19.8,
            op_ms: (1..=100).map(f64::from).collect(),
            peak_rss_mb: 12.0,
            attempted: 100,
            sim_speedup: 1.7,
            out_nodes_share: 0.6,
            ..Outcome::default()
        };
        let line = json::parse(&outcome.result_line(false)).unwrap();
        assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
        assert_eq!(line.num("attempted"), Some(100.0));
        let metrics = line.get("metrics").unwrap();
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.str("unit"), Some(m.unit));
        }
        assert_eq!(metrics.get("op_p90_ms").unwrap().num("value"), Some(90.0));
        let traced = json::parse(&outcome.result_line(true)).unwrap();
        let json::Value::Obj(fields) = traced.get("metrics").unwrap() else {
            panic!("metrics is an object");
        };
        assert_eq!(fields.len(), PER_LAYER.len());
        json::parse(&outcome.result_file("w", 1, 2.0, true)).unwrap();
        json::parse(&outcome.spans_file()).unwrap();
    }
}
