//! The batching contract: [`Pipeline::run_batch`] changes how many
//! graphs one pipeline compiles over its session, never what any of
//! them compiles to.

mod common;

use common::node_rows;
use pypm::dsl::LibraryConfig;
use pypm::engine::{Pipeline, RewritePass, Session, SweepPolicy};
use pypm::graph::Graph;

/// Batch compilation must be invisible in the results: running a batch
/// of graphs through one `Pipeline::run_batch` (shared session stores)
/// yields, per graph, exactly the outcome of sequential standalone
/// `Pipeline::run` calls over the same session — under every sweep
/// policy.
#[test]
fn run_batch_is_byte_identical_to_sequential_runs() {
    let models = ["bert-tiny", "vgg11", "bert-tiny"];
    let build = |name: &str, s: &mut Session| -> Graph {
        pypm::build_model(s, name).unwrap_or_else(|| panic!("no zoo model {name}"))
    };
    for policy in SweepPolicy::ALL {
        // Sequential reference: one session, graphs built up front
        // (matching the batch path's symbol-interning order), one
        // Pipeline::run per graph.
        let mut s_seq = Session::new();
        let mut seq_graphs: Vec<Graph> = models.iter().map(|m| build(m, &mut s_seq)).collect();
        let mut seq = Vec::new();
        for g in &mut seq_graphs {
            let rules = s_seq.load_library(LibraryConfig::both());
            let report = Pipeline::new(&mut s_seq)
                .with(RewritePass::new(rules).policy(policy))
                .run(g)
                .expect("sequential run succeeds");
            let t = report.total();
            assert_eq!(t.parallel.batch_graphs, 1, "{policy}: a plain run");
            seq.push((
                node_rows(g, &s_seq),
                t.rewrites_fired,
                t.match_attempts,
                t.matches_found,
                t.sweeps,
            ));
        }
        // Batched: same graphs, one run_batch.
        let mut s_batch = Session::new();
        let mut graphs: Vec<Graph> = models.iter().map(|m| build(m, &mut s_batch)).collect();
        let rules = s_batch.load_library(LibraryConfig::both());
        let reports = Pipeline::new(&mut s_batch)
            .with(RewritePass::new(rules).policy(policy))
            .run_batch(&mut graphs)
            .expect("batch run succeeds");
        assert_eq!(reports.len(), models.len());
        for (i, (report, g)) in reports.iter().zip(&graphs).enumerate() {
            let t = report.total();
            assert_eq!(
                t.parallel.batch_graphs,
                models.len() as u64,
                "{policy}: batch size surfaces in every report"
            );
            let got = (
                node_rows(g, &s_batch),
                t.rewrites_fired,
                t.match_attempts,
                t.matches_found,
                t.sweeps,
            );
            assert_eq!(seq[i], got, "{policy}: graph {i} diverged under batching");
        }
    }
}
