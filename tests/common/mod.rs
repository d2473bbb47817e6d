//! Helpers shared by the cross-crate suites. The serve and CLI suites
//! parse documents with `pypm::core::json` and compare or query them as
//! trees, never scrape them as text; the equivalence suites share one
//! definition of "the observable result of a rewrite run".
#![allow(dead_code)] // each suite uses its own subset

use pypm::core::json::{self, Value};
use pypm::dsl::LibraryConfig;
use pypm::engine::{
    Firing, FiringLog, MatcherBackend, PassStats, Pipeline, Rejection, RewritePass, Session,
    SweepPolicy,
};
use pypm::graph::{Graph, NodeId};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

/// The `pypm.pipeline.v1` keys that legitimately differ between two
/// runs of the same compile: wall clocks.
const VOLATILE: [&str; 2] = ["wall_ms", "duration_ms"];

/// Parses a document, panicking with its text when it is not JSON.
pub(crate) fn parse(text: &str) -> Value {
    json::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"))
}

/// Parses a document and asserts it is a `pypm.pipeline.v1` report.
pub(crate) fn parse_report(report: &str) -> Value {
    let doc = parse(report);
    assert_eq!(text_at(&doc, "schema"), "pypm.pipeline.v1", "{report}");
    doc
}

/// Parses a `pypm.pipeline.v1` report and drops its volatile keys at
/// every depth; what is left must be equal between equivalent compiles.
pub(crate) fn mask_volatile(report: &str) -> Value {
    fn strip(v: &mut Value) {
        match v {
            Value::Object(map) => {
                map.retain(|k, _| !VOLATILE.contains(&k.as_str()));
                map.values_mut().for_each(strip);
            }
            Value::Array(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut doc = parse_report(report);
    strip(&mut doc);
    doc
}

/// The value at a dotted path of object keys (`"cache.hits"`).
pub(crate) fn at<'a>(doc: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(doc, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no `{key}` (of `{path}`) in {doc:?}"))
    })
}

/// The non-negative integer at a dotted path.
pub(crate) fn uint_at(doc: &Value, path: &str) -> u64 {
    match at(doc, path).as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
        _ => panic!("`{path}` is not a non-negative integer in {doc:?}"),
    }
}

/// The string at a dotted path.
pub(crate) fn text_at<'a>(doc: &'a Value, path: &str) -> &'a str {
    at(doc, path)
        .as_str()
        .unwrap_or_else(|| panic!("`{path}` is not a string in {doc:?}"))
}

/// Runs `pypmc compile <args> --stats-json <fresh temp file>` and
/// returns the process output with the document it wrote.
pub(crate) fn compile_stats_json(args: &[&str]) -> (Output, String) {
    compile_stats_json_with_env(args, &[])
}

/// [`compile_stats_json`] with extra environment variables set.
pub(crate) fn compile_stats_json_with_env(args: &[&str], env: &[(&str, &str)]) -> (Output, String) {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "pypmc_stats_{}_{}.json",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_pypmc"))
        .arg("compile")
        .args(args)
        .arg("--stats-json")
        .arg(&path)
        .envs(env.iter().copied())
        .output()
        .expect("failed to spawn pypmc");
    assert!(out.status.success(), "{args:?}: {out:?}");
    let json = std::fs::read_to_string(&path).expect("pypmc wrote the stats file");
    std::fs::remove_file(&path).ok();
    (out, json)
}

/// Every model name of both zoos, transformers first.
pub(crate) fn zoo_names() -> Vec<&'static str> {
    let hf = pypm::models::hf_zoo().into_iter().map(|c| c.name);
    hf.chain(pypm::models::tv_zoo().into_iter().map(|c| c.name))
        .collect()
}

/// A firing with the ids it created and collected.
pub(crate) type Fired = (Firing, Vec<NodeId>, Vec<NodeId>);

/// The exact firing sequence of a log: which pattern, which rule, at
/// which node and in which sweep, creating and collecting which nodes.
/// Two runs that agree on it applied the same graph mutations in the
/// same order.
pub(crate) fn fired(log: &FiringLog) -> Vec<Fired> {
    log.fired()
        .iter()
        .map(|f| (*f, log.created(f).to_vec(), log.collected(f).to_vec()))
        .collect()
}

/// `(node id, operator name, input ids)` for every reachable node —
/// byte-identical graphs have identical rows.
pub(crate) fn node_rows(g: &Graph, s: &Session) -> Vec<(NodeId, String, Vec<NodeId>)> {
    g.topo_order()
        .into_iter()
        .map(|n| {
            (
                n,
                s.syms.op_name(g.node(n).op).to_owned(),
                g.inputs(n).to_vec(),
            )
        })
        .collect()
}

/// One rewrite run's observable result: the firing log, the final
/// graph down to node identities, and every semantic counter.
/// Wall-clock, the machine-*work* diagnostics
/// (`machine_steps`/`machine_backtracks`) and the matcher's admission
/// counters are deliberately absent — those are the only fields
/// matcher backends may disagree on.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Outcome {
    pub(crate) fired: Vec<Fired>,
    pub(crate) rejected: Vec<Rejection>,
    pub(crate) nodes: Vec<(NodeId, String, Vec<NodeId>)>,
    pub(crate) output_ids: Vec<NodeId>,
    pub(crate) live_nodes: usize,
    pub(crate) nodes_visited: u64,
    pub(crate) match_attempts: u64,
    pub(crate) matches_found: u64,
    pub(crate) rewrites_fired: u64,
    pub(crate) sweeps: u64,
    pub(crate) view_builds: u64,
    pub(crate) view_patches: u64,
    pub(crate) nodes_revisited: u64,
    pub(crate) nodes_reindexed: u64,
}

/// Builds a graph in a fresh session and rewrites it to fixpoint with
/// the `cfg` library under the given policy and backend.
pub(crate) fn run_rewrite(
    build: &dyn Fn(&mut Session) -> Graph,
    cfg: LibraryConfig,
    policy: SweepPolicy,
    backend: MatcherBackend,
) -> (Outcome, PassStats) {
    let mut s = Session::new();
    let mut g = build(&mut s);
    let rules = s.load_library(cfg);
    let report = Pipeline::new(&mut s)
        .with(RewritePass::new(rules).policy(policy).matcher(backend))
        .run(&mut g)
        .expect("pass succeeds");
    let stats = report.total();
    let log = &report.passes()[0].firings;
    let outcome = Outcome {
        fired: fired(log),
        rejected: log.rejected().to_vec(),
        nodes: node_rows(&g, &s),
        output_ids: g.outputs().to_vec(),
        live_nodes: g.live_count(),
        nodes_visited: stats.nodes_visited,
        match_attempts: stats.match_attempts,
        matches_found: stats.matches_found,
        rewrites_fired: stats.rewrites_fired,
        sweeps: stats.sweeps,
        view_builds: stats.view_builds,
        view_patches: stats.view_patches,
        nodes_revisited: stats.nodes_revisited,
        nodes_reindexed: stats.nodes_reindexed,
    };
    (outcome, stats)
}
