//! The metric and workload tables. `BENCHMARK.json` at the repository
//! root carries the same names, units and directions; a test holds the
//! two together.

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const WORKLOADS: [&str; 4] = [
    "cold_deep_restart",
    "cold_deep_incremental",
    "serve_miss",
    "serve_hit",
];

/// What a user of the compiler sees, per workload, tracing off.
pub const END_TO_END: &[Metric] = &[
    m("op_p50_ms", "ms", "lower"),
    m("op_p90_ms", "ms", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("sim_speedup", "ratio", "higher"),
    m("out_nodes_share", "ratio", "lower"),
    m("setup_s", "s", "lower"),
];

/// What the traced run reports, `<crate>.<metric>`.
pub const PER_LAYER: &[Metric] = &[
    m("pypm-models.build_ms", "ms", "lower"),
    m("pypm-models.nodes_in", "count", "lower"),
    m("pypm-dsl.load_library_ms", "ms", "lower"),
    m("pypm-dsl.patterns", "count", "lower"),
    m("pypm-core.trie_build_ms", "ms", "lower"),
    m("pypm-core.trie_nodes", "count", "lower"),
    m("pypm-core.trie_steps", "count", "lower"),
    m("pypm-core.machine_steps", "count", "lower"),
    m("pypm-core.machine_backtracks", "count", "lower"),
    m("pypm-core.pairs_admitted", "count", "lower"),
    m("pypm-core.pairs_rejected", "count", "lower"),
    m("pypm-graph.view_build_ms", "ms", "lower"),
    m("pypm-graph.validate_ms", "ms", "lower"),
    m("pypm-graph.view_builds", "count", "lower"),
    m("pypm-graph.view_patches", "count", "lower"),
    m("pypm-graph.nodes_reindexed", "count", "lower"),
    m("pypm-engine.session_new_ms", "ms", "lower"),
    m("pypm-engine.run_ms", "ms", "lower"),
    m("pypm-engine.match_attempts", "count", "lower"),
    m("pypm-engine.matches_found", "count", "higher"),
    m("pypm-engine.match_yield", "ratio", "higher"),
    m("pypm-engine.sweeps", "count", "lower"),
    m("pypm-engine.nodes_visited", "count", "lower"),
    m("pypm-engine.nodes_revisited", "count", "lower"),
    m("pypm-engine.rewrites_fired", "count", "higher"),
    m("pypm-engine.ms_per_rewrite", "ms", "lower"),
    m("pypm-engine.probes_executed", "count", "higher"),
    m("pypm-engine.report_json_ms", "ms", "lower"),
    m("pypm-engine.scale_exponent_restart", "ratio", "lower"),
    m("pypm-engine.scale_exponent_incremental", "ratio", "lower"),
    m("pypm-engine.run_ms_12k_nodes", "ms", "lower"),
    m("pypm-perf.graph_cost_ms", "ms", "lower"),
    m("pypm-wire.encode_graph_ms", "ms", "lower"),
    m("pypm-wire.decode_graph_ms", "ms", "lower"),
    m("pypm-wire.encode_ruleset_ms", "ms", "lower"),
    m("pypm-wire.key_hash_ms", "ms", "lower"),
    m("pypm-wire.graph_bytes", "B", "lower"),
    m("pypm-wire.cache_get_us", "us", "lower"),
    m("pypm-wire.cache_put_us", "us", "lower"),
    m("pypm-wire.cache_hits", "count", "higher"),
    m("pypm-wire.cache_misses", "count", "lower"),
    m("pypm-wire.cache_stores", "count", "lower"),
    m("pypm-wire.cache_evictions", "count", "lower"),
    m("pypm-wire.cache_hit_share", "ratio", "higher"),
    m("pypm.ping_rtt_us", "us", "lower"),
    m("pypm.rtt_p99_ms", "ms", "lower"),
    m("pypm.rtt_max_ms", "ms", "lower"),
    m("pypm.outside_pipeline_ms", "ms", "lower"),
    m("pypm.compiles_started", "count", "lower"),
    m("pypm.shed_in_queue", "count", "lower"),
    m("pypm.overloaded", "count", "lower"),
    m("pypm.service_ewma_us", "us", "lower"),
    m("pypm.server_cpu_s", "s", "lower"),
    m("pypm.cli_cold_start_ms", "ms", "lower"),
    m("pypm-benchmark.trace_overhead", "ratio", "lower"),
    m("pypm-benchmark.span_coverage", "ratio", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        assert_eq!(doc.num("run_seconds"), Some(crate::DEFAULT_SECONDS));

        let names = |key: &str| -> Vec<String> {
            let list = doc.arr(key).unwrap();
            list.iter()
                .map(|w| w.str("name").unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.arr(key).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, metric) in listed.iter().zip(table) {
                assert_eq!(entry.str("name"), Some(metric.name));
                assert_eq!(entry.str("unit"), Some(metric.unit), "{}", metric.name);
                assert_eq!(entry.str("better"), Some(metric.better), "{}", metric.name);
            }
        }
        for entry in doc.arr("end_to_end").unwrap() {
            let bound = entry.num("bound").unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{entry:?}");
        }
    }
}
