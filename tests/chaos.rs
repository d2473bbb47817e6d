//! Chaos harness for the compile service: seeded randomized fault
//! schedules against live servers.
//!
//! Each schedule arms a random set of failpoints (cache read/write/
//! evict I/O errors, torn cache writes, dropped frame reads/writes,
//! slow compiles), brings up a server with randomized limits, and
//! sweeps randomized requests across zoo models — some carrying
//! `timeout_ms=`/`step_limit=` budgets. The robustness contract under
//! fire:
//!
//! * no panic escapes a worker (the server keeps answering),
//! * virtual time is exactly accounted: each schedule runs its server
//!   and fault registry on one shared `VirtualClock`, and per request
//!   the virtual elapsed equals the sum of sleeps injected during it —
//!   nothing else may consume virtual time,
//! * wall time stays under a flat live-TCP ceiling
//!   (`PYPM_CHAOS_WALL_SLACK_MS`, default 60 s): injected delays
//!   advance only the virtual clock, so real elapsed time is compute
//!   plus transport, independent of the fault schedule,
//! * every response carries a known status byte with a well-formed
//!   payload,
//! * the disk cache never serves corrupt bytes — every `OK` compile is
//!   identical (after dropping wall clocks) to a cold in-process
//!   compile of the same request, even while faults are firing,
//! * with faults disabled, the same requests answer byte-identically
//!   zoo-wide.
//!
//! The schedule count and base seed are env-tunable: the default is a
//! quick smoke, CI's nightly chaos leg sets `PYPM_CHAOS_SCHEDULES=32`
//! (or more) with a fixed `PYPM_CHAOS_SEED` matrix. The suite runs in
//! its own test binary because the failpoint registry is
//! process-global: arming it here must not leak into other suites.

mod common;

use common::mask_volatile;
use pypm::client::{Client, RetryPolicy};
use pypm::core::json::Value;
use pypm::core::VirtualClock;
use pypm::serve::protocol::{
    parse_retry_after, STATUS_DEADLINE_EXCEEDED, STATUS_ERROR, STATUS_OK, STATUS_OVERLOADED,
};
use pypm::serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serializes the suite's tests: the failpoint registry is global, so
/// a schedule's armed faults must never overlap another test's
/// compiles.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// SplitMix64 — the schedule generator. Seeded from `PYPM_CHAOS_SEED`
/// so a CI failure reproduces locally by exporting the same seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const MODELS: &[&str] = &["bert-tiny", "bert-small", "vgg11"];

/// The masked reference report for every model a schedule can request:
/// a cold in-process compile, the byte-identity reference. Must only
/// run while the registry is disarmed — it shares this process's
/// failpoint sites — so it is computed before any fault is armed.
fn references() -> HashMap<&'static str, Value> {
    use pypm::engine::{Pipeline, RewritePass, Session};
    assert!(!pypm::faults::armed(), "cold reference needs faults off");
    let cold = |&model: &&'static str| {
        let mut s = Session::new();
        let mut g = pypm::build_model(&mut s, model).expect("zoo model");
        let rules = s.load_library(pypm::dsl::LibraryConfig::both());
        let report = Pipeline::new(&mut s)
            .with(RewritePass::new(rules))
            .run(&mut g)
            .expect("cold compile");
        (model, mask_volatile(&report.to_json()))
    };
    MODELS.iter().map(cold).collect()
}

/// One randomized fault spec. Counted entries exhaust on their own;
/// percent entries fire for the whole schedule and are disarmed at its
/// end. The `seed=` entry makes percent sampling reproducible.
fn random_fault_spec(rng: &mut Rng) -> String {
    let mut parts = vec![format!("seed={}", rng.next())];
    if rng.chance(50) {
        parts.push("cache.read=io%30".to_owned());
    }
    if rng.chance(50) {
        parts.push("cache.write=io%30".to_owned());
    }
    if rng.chance(50) {
        parts.push("cache.torn=torn%30".to_owned());
    }
    if rng.chance(40) {
        parts.push("cache.evict=io%30".to_owned());
    }
    // Frame faults are io-only: a dropped frame kills the connection
    // and the client reconnects and retries. (A panic there would only
    // unwind a detached connection thread — covered by unit tests, and
    // arming it here would just spam the harness output.)
    if rng.chance(40) {
        parts.push(format!("frame.read=io%{}", 5 + rng.below(15)));
    }
    if rng.chance(40) {
        parts.push(format!("frame.write=io%{}", 5 + rng.below(15)));
    }
    if rng.chance(30) {
        parts.push(format!("serve.compile=delay:{}%25", 1 + rng.below(50)));
    }
    parts.join(";")
}

/// Runs one schedule: arm, serve randomized requests, assert the
/// contract, disarm. Returns how many requests were served.
fn run_schedule(schedule: u64, seed: u64, refs: &HashMap<&'static str, Value>) -> u64 {
    let mut rng = Rng(seed ^ (schedule.wrapping_mul(0x0100_0000_01b3)));
    let cache_dir = rng.chance(50).then(|| {
        std::env::temp_dir().join(format!(
            "pypm_chaos_{}_{schedule}_{seed}",
            std::process::id()
        ))
    });
    if let Some(dir) = &cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    // One virtual timeline per schedule, shared by the server (budget
    // deadlines, shedding, idle reaping) and the fault registry
    // (injected delays). Injected sleeps advance it instantly, which
    // is what makes the exact accounting below — and a fast harness —
    // possible.
    let vclock = Arc::new(VirtualClock::new());
    let config = ServeConfig {
        workers: 1 + rng.below(2) as usize,
        queue_depth: *rng.pick(&[0usize, 2, 8]),
        cache_capacity: *rng.pick(&[0usize, 8, 64]),
        cache_dir: cache_dir
            .as_ref()
            .map(|d| d.to_str().expect("utf-8 temp path").to_owned()),
        // Half the disk-backed schedules also cap the directory, so the
        // eviction path (and its `cache.evict` failpoint) gets traffic.
        cache_dir_max_bytes: (cache_dir.is_some() && rng.chance(50))
            .then(|| 4_096 + rng.below(65_536)),
        clock: vclock.clone(),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).expect("bind chaos server");
    // The client deliberately stays on the wall clock: when a frame
    // fault eats a response, the orphaned compile keeps a worker busy
    // for *real* milliseconds, and retry backoff must pace against
    // that — virtual sleeps would hammer every attempt into the same
    // busy window. Seeded jitter keeps a failing schedule reproducible
    // from its seed alone.
    let mut client = Client::connect(server.addr())
        .expect("connect")
        .with_retry_policy(RetryPolicy {
            jitter_seed: Some(seed ^ schedule),
            ..RetryPolicy::default()
        });

    let spec = random_fault_spec(&mut rng);
    pypm::faults::set_clock(vclock.clone());
    pypm::faults::arm(&spec).expect("valid chaos spec");

    // The live-TCP wall ceiling: flat, because injected delays cost no
    // wall time — only compute and transport remain. Overridable for
    // slow CI machines.
    let wall_ceiling = Duration::from_millis(env_u64("PYPM_CHAOS_WALL_SLACK_MS", 60_000));

    let mut served = 0;
    for _ in 0..8 {
        let model = *rng.pick(MODELS);
        let mut line = format!("compile {model}");
        let timeout_ms = rng.chance(30).then(|| 10 + rng.below(40));
        if let Some(t) = timeout_ms {
            line.push_str(&format!(" timeout_ms={t}"));
        }
        if rng.chance(20) {
            line.push_str(&format!(" step_limit={}", 1 + rng.below(100_000)));
        }
        // Frame faults drop connections mid-request, so the retrying
        // entry point is the one under test here.
        vclock.clear_sleeps();
        let virtual_before = vclock.elapsed();
        let start = Instant::now();
        let (status, body) = client
            .request_with_retry(&line, 8)
            .expect("transport survives chaos");
        let elapsed = start.elapsed();
        let virtual_elapsed = vclock.elapsed() - virtual_before;
        let injected: Duration = vclock.sleeps().iter().sum();
        served += 1;

        // Exact virtual accounting: the only thing that advances the
        // schedule's clock is a recorded sleep (injected compile/frame
        // delays). Any other drift would mean a hidden wait the
        // harness cannot see.
        assert_eq!(
            virtual_elapsed, injected,
            "[schedule {schedule}] '{line}' leaked virtual time: \
             {virtual_elapsed:?} elapsed vs {injected:?} injected"
        );

        // No hang: wall time is bounded by the flat live-TCP ceiling,
        // independent of the fault schedule.
        assert!(
            elapsed <= wall_ceiling,
            "[schedule {schedule}] '{line}' took {elapsed:?} (ceiling {wall_ceiling:?})"
        );

        // Every response is a known status with a well-formed payload,
        // and an OK compile is byte-identical to the cold reference —
        // injected faults may slow or fail a request, never corrupt
        // one.
        match status {
            STATUS_OK => {
                assert_eq!(
                    &mask_volatile(&body),
                    &refs[model],
                    "[schedule {schedule}] '{line}' served corrupt or divergent bytes"
                );
            }
            STATUS_DEADLINE_EXCEEDED => {
                assert!(
                    body.contains("timeout_ms=") || body.contains("step_limit="),
                    "[schedule {schedule}] deadline payload names no limit: {body}"
                );
            }
            STATUS_ERROR => {
                assert!(
                    !body.is_empty(),
                    "[schedule {schedule}] empty error payload"
                );
            }
            STATUS_OVERLOADED => {
                assert!(
                    parse_retry_after(&body).is_some(),
                    "[schedule {schedule}] overloaded payload without hint: {body}"
                );
            }
            other => panic!("[schedule {schedule}] unexpected status {other}: {body}"),
        }
    }
    // Disarm (and detach the fault clock) *before* the drain: a frame
    // fault on the shutdown ack would drop the one response the drain
    // assertion depends on.
    pypm::faults::disarm();
    pypm::faults::reset_clock();

    // No panic escaped: the server still answers, and a clean drain
    // completes. The *connection* may be a casualty of a between-frames
    // frame fault, so the liveness probe is the reconnecting call.
    let (status, _) = client
        .request_with_retry("ping", 8)
        .expect("ping after chaos");
    assert_eq!(status, STATUS_OK, "[schedule {schedule}] server died");
    let (status, _) = client.request("shutdown").expect("shutdown");
    assert_eq!(status, STATUS_OK);
    server.join();

    // A torn-write schedule may leave orphans in the disk tier; the
    // next server on the same directory must sweep them and keep
    // serving uncorrupted results.
    if let Some(dir) = &cache_dir {
        let fresh = Server::bind(ServeConfig {
            workers: 1,
            queue_depth: 4,
            cache_capacity: 8,
            cache_dir: Some(dir.to_str().expect("utf-8 temp path").to_owned()),
            ..ServeConfig::default()
        })
        .expect("rebind on the chaos cache dir");
        let mut c = Client::connect(fresh.addr()).expect("connect");
        let (status, body) = c.request("compile bert-tiny").unwrap();
        assert_eq!(status, STATUS_OK, "{body}");
        assert_eq!(
            &mask_volatile(&body),
            &refs["bert-tiny"],
            "[schedule {schedule}] post-restart compile diverged"
        );
        let (_, stats) = c.request("stats").unwrap();
        common::uint_at(&common::parse(&stats), "cache.disk_orphans_removed");
        let (status, _) = c.request("shutdown").unwrap();
        assert_eq!(status, STATUS_OK);
        fresh.join();
        let _ = std::fs::remove_dir_all(dir);
    }
    served
}

#[test]
fn seeded_fault_schedules_never_corrupt_hang_or_kill_the_server() {
    let _guard = chaos_lock();
    pypm::faults::disarm();
    let schedules = env_u64("PYPM_CHAOS_SCHEDULES", 4);
    let seed = env_u64("PYPM_CHAOS_SEED", 0xC0FFEE);
    let refs = references();
    let mut served = 0;
    for schedule in 0..schedules {
        served += run_schedule(schedule, seed, &refs);
    }
    assert_eq!(served, schedules * 8);
}

#[test]
fn with_faults_disabled_served_results_are_byte_identical_zoo_wide() {
    let _guard = chaos_lock();
    pypm::faults::disarm();
    let refs = references();
    let server = Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for model in MODELS {
        let (status, body) = client
            .request_with_retry(&format!("compile {model}"), 8)
            .unwrap();
        assert_eq!(status, STATUS_OK, "{model}: {body}");
        assert_eq!(
            &mask_volatile(&body),
            &refs[model],
            "{model} diverged with faults disabled"
        );
    }
    let (status, _) = client.request("shutdown").unwrap();
    assert_eq!(status, STATUS_OK);
    server.join();
}
