//! The result-cache correctness story: a cache hit must be
//! **byte-identical** to the cold compile it replays — for every zoo
//! model and every sweep policy — the cache must key on everything
//! that shapes the counters, must
//! survive a server restart via `--cache-dir`, and must stay invisible
//! when disabled.

mod common;

use common::{at, compile_stats_json, mask_volatile, uint_at, zoo_names};
use pypm::client::Client;
use pypm::core::json::Value;
use pypm::serve::protocol::STATUS_OK;
use pypm::serve::{ServeConfig, Server};

fn compile_ok(client: &mut Client, model: &str, policy: &str) -> String {
    let (status, body) = client
        .request(&format!("compile {model} policy={policy}"))
        .unwrap();
    assert_eq!(status, STATUS_OK, "{model}/{policy}: {body}");
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

/// Every zoo model × every sweep policy: the second identical request is a cache hit and its response is
/// **byte-identical** to the cold compile's — not just masked-equal;
/// the cached report is the cold report, verbatim.
#[test]
fn cache_hits_are_byte_identical_across_the_zoo_policies_and_jobs() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut expected_hits = 0;
    for name in zoo_names() {
        for policy in ["restart", "incremental"] {
            let cold = compile_ok(&mut client, name, policy);
            let hit = compile_ok(&mut client, name, policy);
            assert_eq!(
                hit, cold,
                "{name}/{policy}: cache hit diverged from the cold compile"
            );
            expected_hits += 1;
        }
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
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (model, policy) in [("bert-small", "restart"), ("vgg16", "incremental")] {
        compile_ok(&mut client, model, policy); // prime: miss
        let hit = compile_ok(&mut client, model, policy);

        let (_, cli) = compile_stats_json(&[model, "--sweep-policy", policy]);

        assert_eq!(
            mask_volatile(&hit),
            mask_volatile(&cli),
            "{model}/{policy}: cached response diverged from the cold CLI"
        );
    }
    server.shutdown();
    server.join();
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

    let first = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_dir: Some(dir_s.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(first.addr()).unwrap();
    let cold = compile_ok(&mut client, "bert-tiny", "incremental");
    let stats = cache_stats(&mut client);
    assert_eq!(uint_at(&stats, "stores"), 1, "{stats:?}");
    drop(client);
    first.shutdown();
    first.join();

    // A restarted server — fresh memory, same directory.
    let second = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_dir: Some(dir_s),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(second.addr()).unwrap();
    let warm = compile_ok(&mut client, "bert-tiny", "incremental");
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
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let a = compile_ok(&mut client, "bert-tiny", "restart");
    let b = compile_ok(&mut client, "bert-tiny", "restart");
    assert_eq!(mask_volatile(&a), mask_volatile(&b));
    let stats = cache_stats(&mut client);
    assert_eq!(uint_at(&stats, "hits"), 0, "{stats:?}");
    assert_eq!(uint_at(&stats, "misses"), 0, "{stats:?}");
    assert_eq!(uint_at(&stats, "stores"), 0, "{stats:?}");
    assert_eq!(at(&stats, "last_key"), &Value::Null, "{stats:?}");
    server.shutdown();
    server.join();
}
