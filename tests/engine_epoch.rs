//! `ENGINE_OUTPUT_EPOCH` names what the shipped engine outputs. The
//! result cache keys its entries on it, so it must move whenever an
//! output does — a `--cache-dir` written by an engine that answered
//! differently would otherwise replay its answers. This suite pins the
//! epoch to a digest of every output the server can be asked for: the
//! final `PYPMWIRE` graph bytes and the `pypm.pipeline.v1` report, wall
//! clocks masked, of every zoo model under every served configuration.
//!
//! A change that moves any of them fails here. The fix is not to edit
//! the digest in place: append the new digest to [`DIGESTS`] and bump
//! `ENGINE_OUTPUT_EPOCH` to its position, which orphans every cache
//! entry the old engine wrote.
//!
//! Beside it, and not part of it, [`FIRINGS_DIGEST`] pins the order in
//! which the engine decides: the firing logs of the transformer zoo
//! under every served configuration. A change can reorder firings and
//! still reach the same graphs; that moves this digest and leaves the
//! epoch, and the cache, where they are.

mod common;

use common::zoo_names;
use pypm::engine::{
    FiringLog, MatcherBackend, PipelineReport, Session, SweepPolicy, ENGINE_OUTPUT_EPOCH,
};
use pypm::graph::Graph;
use pypm::wire::cache::CacheKey;

/// The output digest of each epoch, epoch 1 first.
const DIGESTS: &[&str] = &["a7f2820074457b47b5ba979f91386aee"];

/// The digest of the transformer zoo's firing logs under the shipped
/// engine. It moves with the firing order, not with the epoch: edit it
/// in place, in the change that moves it, and say why there. The
/// TorchVision zoo is not pinned here.
const FIRINGS_DIGEST: &str = "b24ca26f9d355a3ce41425fc8c2df64c";

/// The configurations `compile <model> config=` accepts.
const CONFIGS: [&str; 5] = ["baseline", "fmha", "epilog", "both", "all"];

/// `report` with the digits of every wall-clock value replaced by `#`:
/// the bytes that may differ between two runs of one compile.
fn mask_walls(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    let mut rest = report;
    while let Some(at) = ["\"wall_ms\": ", "\"duration_ms\": "]
        .iter()
        .filter_map(|key| rest.find(key).map(|i| i + key.len()))
        .min()
    {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(rest.len());
        out.push('#');
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

/// `model` compiled under `config` as a serve worker compiles it: the
/// session, the final graph and the report.
fn compile(model: &str, config: &str) -> (Session, Graph, PipelineReport) {
    let mut session = Session::new();
    let rules = session.load_library(pypm::cli_args::lib_config(config).expect(config));
    let mut graph = pypm::build_model(&mut session, model).expect(model);
    let recipe = pypm::CompileRecipe {
        policy: SweepPolicy::default(),
        matcher: MatcherBackend::default(),
        budget: None,
        stages: None,
    };
    let mut reports = pypm::compile_batch(
        &mut session,
        std::slice::from_mut(&mut graph),
        rules,
        recipe,
    )
    .unwrap_or_else(|e| panic!("{model} {config}: {e}"));
    let report = reports.pop().expect("one graph, one report");
    (session, graph, report)
}

/// The final graph bytes and the masked report of `model` under
/// `config`.
fn outputs(model: &str, config: &str) -> (Vec<u8>, String) {
    let (session, graph, report) = compile(model, config);
    let graph_bytes = pypm::wire::encode_graph(&graph, &session.syms);
    (graph_bytes, mask_walls(&report.to_json()))
}

/// A firing log as little-endian words: the firings (sweep, pattern,
/// rule, root, then the created and the collected ids, each after its
/// length) after their count, then the rejections (sweep, pattern,
/// node, reason) after theirs.
fn log_bytes(log: &FiringLog) -> Vec<u8> {
    let mut words = vec![log.fired().len() as u64];
    for f in log.fired() {
        words.extend([
            f.sweep,
            f.pattern as u64,
            f.rule as u64,
            f.node.index() as u64,
        ]);
        for ids in [log.created(f), log.collected(f)] {
            words.push(ids.len() as u64);
            words.extend(ids.iter().map(|n| n.index() as u64));
        }
    }
    words.push(log.rejected().len() as u64);
    for r in log.rejected() {
        words.extend([
            r.sweep,
            r.pattern as u64,
            r.node.index() as u64,
            r.reason as u64,
        ]);
    }
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn masking_keeps_every_byte_but_the_wall_clocks() {
    assert_eq!(
        mask_walls(r#"{"wall_ms": 12.345678, "n": 3, "duration_ms": 0.000001}"#),
        r##"{"wall_ms": #, "n": 3, "duration_ms": #}"##
    );
}

#[test]
fn the_output_epoch_names_the_engines_outputs() {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for model in zoo_names() {
        for config in CONFIGS {
            let (graph, report) = outputs(model, config);
            parts.push(format!("{model} config={config}").into_bytes());
            parts.push(graph);
            parts.push(report.into_bytes());
        }
    }
    assert_eq!(parts.len(), 52 * CONFIGS.len() * 3, "the zoo changed size");
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    let digest = CacheKey::of(&refs).to_hex();
    assert_eq!(
        (ENGINE_OUTPUT_EPOCH as usize, DIGESTS.last().copied()),
        (DIGESTS.len(), Some(digest.as_str())),
        "the engine's outputs moved: append the digest to DIGESTS and bump \
         ENGINE_OUTPUT_EPOCH to its position"
    );
}

#[test]
fn the_firing_digest_names_the_transformer_zoos_firing_order() {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for cfg in pypm::models::hf_zoo() {
        for config in CONFIGS {
            let (_, _, report) = compile(cfg.name, config);
            parts.push(format!("{} config={config}", cfg.name).into_bytes());
            parts.extend(report.passes().iter().map(|p| log_bytes(&p.firings)));
        }
    }
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    assert_eq!(
        CacheKey::of(&refs).to_hex(),
        FIRINGS_DIGEST,
        "the transformer zoo's firing logs moved"
    );
}
