//! The serve correctness story: a graph compiled through `pypmc serve`
//! must produce **byte-identical counters** to `pypmc compile` — same
//! `pypm.pipeline.v1` document after masking the only legitimately
//! volatile fields (wall clocks, and the warm-pool reuse counter: a
//! warm server's pool has run batches before, a cold CLI's has not).
//! Swept over the full model zoo, the sweep policies, and serial vs
//! parallel job counts.

use pypm::serve::{Client, ServeConfig, Server, STATUS_OK};
use std::process::Command;

/// Masks `wall_ms`, `duration_ms`, `warm_wall_ms` and
/// `pool_spawn_reuse` values in a `pypm.pipeline.v1` document.
fn mask_volatile(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some((field, pos)) = find_volatile(rest) {
        let value_start = pos + field.len();
        out.push_str(&rest[..value_start]);
        out.push('_');
        let tail = &rest[value_start..];
        let value_len = tail.find([',', '}', '\n']).unwrap_or(tail.len());
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

fn find_volatile(s: &str) -> Option<(&'static str, usize)> {
    [
        "\"wall_ms\": ",
        "\"duration_ms\": ",
        "\"warm_wall_ms\": ",
        "\"pool_spawn_reuse\": ",
    ]
    .into_iter()
    .filter_map(|f| s.find(f).map(|p| (f, p)))
    .min_by_key(|&(_, p)| p)
}

/// One `pypmc compile` invocation's `pypm.pipeline.v1` JSON, via
/// `--stats-json` (the CLI is the equivalence reference).
fn cli_compile_json(model: &str, config: &str, policy: &str, jobs: usize) -> String {
    let dir = std::env::temp_dir().join(format!(
        "pypmc_serve_eq_{model}_{config}_{policy}_{jobs}_{:?}",
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stats.json");
    let out = Command::new(env!("CARGO_BIN_EXE_pypmc"))
        .args([
            "compile",
            model,
            "--config",
            config,
            "--sweep-policy",
            policy,
            "--jobs",
            &jobs.to_string(),
            "--stats-json",
            path.to_str().unwrap(),
        ])
        .env_remove("PYPM_JOBS")
        .output()
        .expect("failed to spawn pypmc");
    assert!(out.status.success(), "{model}: {out:?}");
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    json
}

/// The same compile through a running server.
fn served_compile_json(
    client: &mut Client,
    model: &str,
    config: &str,
    policy: &str,
    jobs: usize,
) -> String {
    let (status, body) = client
        .request(&format!(
            "compile {model} config={config} policy={policy} jobs={jobs}"
        ))
        .unwrap();
    assert_eq!(status, STATUS_OK, "{model}: {body}");
    body
}

fn assert_equivalent(client: &mut Client, model: &str, config: &str, policy: &str, jobs: usize) {
    let cli = mask_volatile(&cli_compile_json(model, config, policy, jobs));
    let served = mask_volatile(&served_compile_json(client, model, config, policy, jobs));
    assert_eq!(
        served, cli,
        "{model}/{config}/{policy}/jobs={jobs}: served counters diverged from the CLI"
    );
}

/// Every model of both zoos, parallel compile, default config/policy —
/// one warm server serving the whole sweep (so the server-side session,
/// ruleset cache and pool are maximally reused while the CLI reference
/// starts cold every time: the counters must not care).
#[test]
fn served_counters_match_the_cli_across_the_zoo() {
    let server = Server::bind(ServeConfig {
        jobs: 4,
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let names: Vec<String> = pypm::models::hf_zoo()
        .iter()
        .map(|c| c.name.to_owned())
        .chain(pypm::models::tv_zoo().iter().map(|c| c.name.to_owned()))
        .collect();
    for name in &names {
        assert_equivalent(&mut client, name, "both", "restart", 4);
    }
    server.shutdown();
    server.join();
}

/// The policy × jobs × config cross-section on representative models
/// from each zoo — including the serial path, which must bypass the
/// server's pool exactly like `--jobs 1` bypasses the CLI's.
#[test]
fn served_counters_match_the_cli_across_policies_and_jobs() {
    let server = Server::bind(ServeConfig {
        jobs: 4,
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for model in ["bert-small", "vgg16"] {
        for policy in ["restart", "incremental"] {
            for jobs in [1, 4] {
                assert_equivalent(&mut client, model, "all", policy, jobs);
            }
        }
    }
    // Repeating a request against the (now very warm) server still
    // matches the cold CLI.
    assert_equivalent(&mut client, "bert-small", "all", "incremental", 4);
    server.shutdown();
    server.join();
}
