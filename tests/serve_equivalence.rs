//! The serve correctness story: a graph compiled through `pypmc serve`
//! must produce **byte-identical counters** to `pypmc compile` — same
//! `pypm.pipeline.v1` document after dropping the only legitimately
//! volatile fields (wall clocks). Swept over the full model zoo, and
//! over every library configuration a request can name. Both sides run
//! the default engine — the only one the server compiles; that it
//! equals the reference is `incremental_`/`matcher_equivalence`'s.

mod common;

use common::{compile_stats_json, mask_volatile, zoo_names};
use pypm::client::Client;
use pypm::serve::protocol::STATUS_OK;
use pypm::serve::{ServeConfig, Server};

/// One compile through the running server against one `pypmc compile`
/// invocation's `--stats-json` (the CLI is the equivalence reference).
fn assert_equivalent(client: &mut Client, model: &str, config: &str) {
    let line = format!("compile {model} config={config}");
    let (status, served) = client.request(&line).unwrap();
    assert_eq!(status, STATUS_OK, "{line}: {served}");
    let (_, cli) = compile_stats_json(&[model, "--config", config]);
    assert_eq!(
        mask_volatile(&served),
        mask_volatile(&cli),
        "{line}: served counters diverged from the CLI"
    );
}

/// Every model of both zoos, default config — one warm server serving
/// the whole sweep (so the worker's retained library is maximally
/// reused while the CLI reference starts cold every time: the counters
/// must not care).
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
        assert_equivalent(&mut client, name, "both");
    }
    server.shutdown();
    server.join();
}

/// The other four configurations a request can name, on representative
/// models from each zoo.
#[test]
fn served_counters_match_the_cli_across_configs() {
    let server = Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for model in ["bert-small", "vgg16"] {
        for config in ["baseline", "fmha", "epilog", "all"] {
            assert_equivalent(&mut client, model, config);
        }
    }
    // Repeating a request against the (now very warm) server still
    // matches the cold CLI.
    assert_equivalent(&mut client, "bert-small", "all");
    server.shutdown();
    server.join();
}
