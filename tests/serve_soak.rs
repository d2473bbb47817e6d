//! A server whose Nth request costs what its first did (a compile owns
//! its stores): with the result cache off, so every request compiles, a
//! worker's resident memory must be flat over zoo-wide traffic. Its own
//! test binary, so the process measured holds this one server and
//! nothing else. No latency is asserted — the box drifts; the benchmark
//! owns timings.
#![cfg(target_os = "linux")]

mod common;

use pypm::client::Client;
use pypm::serve::protocol::STATUS_OK;
use pypm::serve::{ServeConfig, Server};

/// Passes over the zoo (47 models): 1 410 compiles, ≈ 4.5 s in the dev
/// profile. Both samples are taken at the end of a pass, so the
/// allocator is in the same phase of the cycle each time.
const PASSES: usize = 30;

/// Allowed resident growth between the end of the first fifth of the
/// traffic and its end (24 passes, 1 128 compiles). Sized once, three
/// runs each: PR 16's worker, whose one long-lived session hash-consed
/// every graph it compiled, grew 46.1 MB over this window (from 17.3
/// MB, ≈ 41 kB per compile); a worker whose compiles own their stores
/// grew 0.00 MB (from 4.8 MB). A third of the former would be 15 MB;
/// flat reads zero, so the bar is set tighter, under a tenth of it.
const MAX_GROWTH_MB: f64 = 4.0;

/// This process's resident set in MB: `VmRSS` of `/proc/self/status`,
/// which the kernel already reports in kB (`/proc/self/statm` counts
/// pages, and std has no page-size query).
fn resident_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kb / 1024.0
}

#[test]
fn resident_memory_is_flat_over_zoo_wide_misses() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let zoo = common::zoo_names();
    let mut drive = |passes: usize| {
        for _ in 0..passes {
            for model in &zoo {
                let (status, body) = client
                    .request(&format!("compile {model} config=both"))
                    .unwrap();
                assert_eq!(status, STATUS_OK, "{model}: {body}");
            }
        }
    };
    drive(PASSES / 5);
    let after_warm_up = resident_mb();
    drive(PASSES - PASSES / 5);
    let growth = resident_mb() - after_warm_up;
    eprintln!("resident growth over the window: {growth:.2} MB (from {after_warm_up:.2} MB)");
    server.shutdown();
    server.join();
    assert!(
        growth < MAX_GROWTH_MB,
        "resident set grew {growth:.2} MB over {} compiles (limit {MAX_GROWTH_MB} MB)",
        (PASSES - PASSES / 5) * zoo.len()
    );
}
