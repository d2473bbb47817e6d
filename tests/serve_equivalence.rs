//! The serve correctness story: a graph compiled through `pypmc serve`
//! must produce **byte-identical counters** to `pypmc compile` — same
//! `pypm.pipeline.v1` document after dropping the only legitimately
//! volatile fields (wall clocks). Swept over the full model zoo and the
//! sweep policies.

mod common;

use common::{compile_stats_json, mask_volatile, zoo_names};
use pypm::client::Client;
use pypm::serve::protocol::STATUS_OK;
use pypm::serve::{ServeConfig, Server};

/// One `pypmc compile` invocation's `pypm.pipeline.v1` JSON, via
/// `--stats-json` (the CLI is the equivalence reference).
fn cli_compile_json(model: &str, config: &str, policy: &str) -> String {
    compile_stats_json(&[model, "--config", config, "--sweep-policy", policy]).1
}

/// The same compile through a running server.
fn served_compile_json(client: &mut Client, model: &str, config: &str, policy: &str) -> String {
    let (status, body) = client
        .request(&format!("compile {model} config={config} policy={policy}"))
        .unwrap();
    assert_eq!(status, STATUS_OK, "{model}: {body}");
    body
}

fn assert_equivalent(client: &mut Client, model: &str, config: &str, policy: &str) {
    let cli = mask_volatile(&cli_compile_json(model, config, policy));
    let served = mask_volatile(&served_compile_json(client, model, config, policy));
    assert_eq!(
        served, cli,
        "{model}/{config}/{policy}: served counters diverged from the CLI"
    );
}

/// Every model of both zoos, default config, restart policy — one warm
/// server serving the whole sweep (so the server-side session and
/// ruleset cache are maximally reused while the CLI reference starts
/// cold every time: the counters must not care).
#[test]
fn served_counters_match_the_cli_across_the_zoo() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for name in zoo_names() {
        assert_equivalent(&mut client, name, "both", "restart");
    }
    server.shutdown();
    server.join();
}

/// The policy × config cross-section on representative models from
/// each zoo.
#[test]
fn served_counters_match_the_cli_across_policies_and_jobs() {
    let server = Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for model in ["bert-small", "vgg16"] {
        for policy in ["restart", "incremental"] {
            assert_equivalent(&mut client, model, "all", policy);
        }
    }
    // Repeating a request against the (now very warm) server still
    // matches the cold CLI.
    assert_equivalent(&mut client, "bert-small", "all", "incremental");
    server.shutdown();
    server.join();
}
