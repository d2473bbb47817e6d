//! The result-cache correctness story: a cache hit must be
//! **byte-identical** to the cold compile it replays — for every zoo
//! model — the cache key must keep its layout (the retired request keys
//! are no-ops on it, not only on the document) and name the engine's
//! output epoch, so a `--cache-dir` an older engine wrote misses instead
//! of replaying, must survive a server restart via `--cache-dir`, and
//! must stay invisible when disabled.

mod common;

use common::{at, compile_stats_json, mask_volatile, uint_at, zoo_names};
use pypm::client::Client;
use pypm::core::json::Value;
use pypm::dsl::LibraryConfig;
use pypm::engine::{Session, ENGINE_OUTPUT_EPOCH};
use pypm::serve::protocol::STATUS_OK;
use pypm::serve::{ServeConfig, Server};
use pypm::wire::cache::{CacheKey, ResultCache};

/// A one-worker server over `config`, and a client connected to it.
fn serve(config: ServeConfig) -> (Server, Client) {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..config
    })
    .unwrap();
    let client = Client::connect(server.addr()).unwrap();
    (server, client)
}

/// One `compile <request>` and its `OK` body.
fn compile_ok(client: &mut Client, request: &str) -> String {
    let (status, body) = client.request(&format!("compile {request}")).unwrap();
    assert_eq!(status, STATUS_OK, "{request}: {body}");
    body
}

/// The `cache` block of the `stats` verb's document.
fn cache_stats(client: &mut Client) -> Value {
    let (status, body) = client.request("stats").unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    let doc = common::parse(&body);
    assert_eq!(common::text_at(&doc, "schema"), "pypm.serve.stats.v1");
    at(&doc, "cache").clone()
}

/// Every zoo model: the second identical request is a cache hit and its
/// response is **byte-identical** to the cold compile's — not just
/// masked-equal; the cached report is the cold report, verbatim.
#[test]
fn cache_hits_are_byte_identical_across_the_zoo() {
    let (server, mut client) = serve(ServeConfig::default());
    let mut expected_hits = 0;
    for name in zoo_names() {
        let cold = compile_ok(&mut client, name);
        let hit = compile_ok(&mut client, name);
        assert_eq!(
            hit, cold,
            "{name}: cache hit diverged from the cold compile"
        );
        expected_hits += 1;
    }
    let stats = cache_stats(&mut client);
    // Every immediate repeat hits; the key is *content*-addressed, so
    // zoo models that build byte-identical graphs share an entry and
    // some cold compiles hit another model's cached report too (the
    // reports are identical by construction — same bytes, same key).
    let hits = uint_at(&stats, "hits");
    let misses = uint_at(&stats, "misses");
    assert_eq!(hits + misses, expected_hits * 2, "{stats:?}");
    assert!(hits >= expected_hits, "{stats:?}");
    assert_eq!(uint_at(&stats, "stores"), misses, "{stats:?}");
    server.shutdown();
    server.join();
}

/// A cache hit also matches a cold `pypmc compile` run byte-for-byte
/// after the standard volatile-field masking — the serve ≡ CLI
/// equivalence contract extends to cached responses.
#[test]
fn cache_hits_match_the_cold_cli_after_masking() {
    let (server, mut client) = serve(ServeConfig::default());
    for model in ["bert-small", "vgg16"] {
        compile_ok(&mut client, model); // prime: miss
        let hit = compile_ok(&mut client, model);

        let (_, cli) = compile_stats_json(&[model]);

        assert_eq!(
            mask_volatile(&hit),
            mask_volatile(&cli),
            "{model}: cached response diverged from the cold CLI"
        );
    }
    server.shutdown();
    server.join();
}

/// The cache key's layout, recomputed from the public API: schema tag,
/// the engine's output epoch, canonical graph bytes, rule-set bytes, the
/// configuration, and the two engine names the server holds constant
/// where `policy=` / `matcher=` used to be; the retired keys spelled
/// with their defaults name that same entry. A `--cache-dir` written
/// before the epoch existed — its keys' second part was the crate
/// version, `0.1.0` since the first server — misses once, on purpose:
/// its entries name an engine this one need not reproduce.
#[test]
fn the_cache_key_layout_still_matches_an_old_cache_dir() {
    let dir = std::env::temp_dir().join(format!(
        "pypmc_cache_epoch_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // What a worker does: the library into a fresh session, then the
    // model, so the symbol ids the encoders see are the worker's.
    let config = LibraryConfig::both();
    let mut session = Session::new();
    let rules = session.load_library(config);
    let graph = pypm::build_model(&mut session, "bert-tiny").unwrap();
    let graph_bytes = pypm::wire::encode_graph(&graph, &session.syms);
    let ruleset_bytes = pypm::wire::encode_ruleset(&rules, &session.syms, &session.pats);
    let key_under = |engine: &[u8]| {
        CacheKey::of(&[
            b"pypm.serve.compile.v1",
            engine,
            &graph_bytes,
            &ruleset_bytes,
            format!("{config:?}").as_bytes(),
            b"incremental",
            b"fused",
        ])
    };
    let pre_epoch = key_under(b"0.1.0");
    let key = key_under(&ENGINE_OUTPUT_EPOCH.to_le_bytes());
    const STALE: &str = "a report an older engine stored";
    ResultCache::persistent(4, &dir)
        .unwrap()
        .put(pre_epoch, STALE);

    let (server, mut client) = serve(ServeConfig {
        cache_dir: Some(dir.to_str().unwrap().to_owned()),
        ..ServeConfig::default()
    });
    let cold = compile_ok(&mut client, "bert-tiny");
    assert_ne!(cold, STALE, "the pre-epoch entry was replayed");
    let stats = cache_stats(&mut client);
    assert_eq!(common::text_at(&stats, "last_key"), key.to_hex());
    assert_eq!(uint_at(&stats, "disk_hits"), 0, "{stats:?}");
    assert_eq!(uint_at(&stats, "misses"), 1, "{stats:?}");
    assert_eq!(uint_at(&stats, "stores"), 1, "{stats:?}");

    let keyed = "bert-tiny policy=incremental matcher=fused jobs=1";
    assert_eq!(compile_ok(&mut client, keyed), cold);
    let stats = cache_stats(&mut client);
    assert_eq!(uint_at(&stats, "hits"), 1, "{stats:?}");
    assert_eq!(uint_at(&stats, "misses"), 1, "{stats:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--cache-dir` persistence: a second server over the same directory
/// answers the very first repeat request from disk, byte-identical to
/// the first server's cold compile.
#[test]
fn cache_dir_persists_across_server_restart() {
    let dir = std::env::temp_dir().join(format!(
        "pypmc_cache_restart_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_owned();

    let (first, mut client) = serve(ServeConfig {
        cache_dir: Some(dir_s.clone()),
        ..ServeConfig::default()
    });
    let cold = compile_ok(&mut client, "bert-tiny");
    let stats = cache_stats(&mut client);
    assert_eq!(uint_at(&stats, "stores"), 1, "{stats:?}");
    drop(client);
    first.shutdown();
    first.join();

    // A restarted server — fresh memory, same directory.
    let (second, mut client) = serve(ServeConfig {
        cache_dir: Some(dir_s),
        ..ServeConfig::default()
    });
    let warm = compile_ok(&mut client, "bert-tiny");
    assert_eq!(
        warm, cold,
        "the restarted server's disk hit diverged from the original cold compile"
    );
    let stats = cache_stats(&mut client);
    assert_eq!(uint_at(&stats, "hits"), 1, "{stats:?}");
    assert_eq!(uint_at(&stats, "disk_hits"), 1, "{stats:?}");
    assert_eq!(uint_at(&stats, "misses"), 0, "{stats:?}");
    assert_eq!(at(&stats, "persistent"), &Value::Bool(true), "{stats:?}");
    second.shutdown();
    second.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--cache 0` (no directory) disables the cache: repeats recompile —
/// still masked-equal, but nothing is counted or stored.
#[test]
fn a_disabled_cache_recompiles_and_counts_nothing() {
    let (server, mut client) = serve(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let a = compile_ok(&mut client, "bert-tiny");
    let b = compile_ok(&mut client, "bert-tiny");
    assert_eq!(mask_volatile(&a), mask_volatile(&b));
    let stats = cache_stats(&mut client);
    assert_eq!(uint_at(&stats, "hits"), 0, "{stats:?}");
    assert_eq!(uint_at(&stats, "misses"), 0, "{stats:?}");
    assert_eq!(uint_at(&stats, "stores"), 0, "{stats:?}");
    assert_eq!(at(&stats, "last_key"), &Value::Null, "{stats:?}");
    server.shutdown();
    server.join();
}
