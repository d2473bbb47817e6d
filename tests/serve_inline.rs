//! The direct oracle for the inline hit path: a request the server has
//! keyed before is probed against the cache by the connection thread
//! that read it, a hit is answered there — no queue slot, no worker —
//! and a miss carries its key to a worker that compiles without
//! re-encoding the graph to re-hash it. Every test reads the `stats`
//! document's counters as exact numbers.
//!
//! Runs as its own test binary because three tests hold a worker through
//! the process-global failpoint registry.

mod common;

use common::{mask_volatile, uint_at};
use pypm::client::Client;
use pypm::core::json::Value;
use pypm::serve::protocol::{
    STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use pypm::serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Serializes the suite: the failpoint registry is process-global, and
/// a `serve.compile` delay must be claimed by the compile it is for.
fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    pypm::faults::disarm();
    guard
}

/// A one-worker server over `config`, and a client connected to it.
fn serve(config: ServeConfig) -> (Server, Client) {
    let server = Server::bind(ServeConfig {
        workers: 1,
        ..config
    })
    .expect("bind on an ephemeral port");
    let client = Client::connect(server.addr()).expect("connect");
    (server, client)
}

fn compile(client: &mut Client, request: &str) -> (u8, String) {
    client.request(&format!("compile {request}")).unwrap()
}

/// One `compile <request>` and its `OK` body.
fn compile_ok(client: &mut Client, request: &str) -> String {
    let (status, body) = compile(client, request);
    assert_eq!(status, STATUS_OK, "{request}: {body}");
    body
}

/// The `pypm.serve.stats.v1` document.
fn stats(client: &mut Client) -> Value {
    let (status, body) = client.request("stats").unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    common::parse(&body)
}

/// Asserts the named counters of the `stats` document, all at once.
#[track_caller]
fn assert_counters(client: &mut Client, want: &[(&str, u64)]) {
    let doc = stats(client);
    let got: Vec<(&str, u64)> = want
        .iter()
        .map(|&(path, _)| (path, uint_at(&doc, path)))
        .collect();
    assert_eq!(got, want, "{doc:?}");
}

fn shutdown(server: Server, mut client: Client) {
    let (status, _) = client.request("shutdown").unwrap();
    assert_eq!(status, STATUS_OK);
    server.join();
}

/// Pins the server's only worker for a second of wall time: sends
/// `compile <request>` (a miss, so it needs the worker) on a connection
/// of its own with a one-shot `serve.compile` delay armed, and returns
/// once the request is admitted. Joining the handle yields its reply.
fn pin_worker(
    addr: SocketAddr,
    request: &'static str,
    watcher: &mut Client,
) -> JoinHandle<(u8, String)> {
    pypm::faults::arm("serve.compile=delay:1000*1").expect("spec");
    let pinned = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        // A rendezvous queue admits only once the worker is back in
        // `pop` after the priming compile; ride that out.
        client
            .request_with_retry(&format!("compile {request}"), 8)
            .expect("pinned reply")
    });
    while uint_at(&stats(watcher), "in_flight") != 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    pinned
}

/// (a) A hit needs no worker: with the only worker held inside a
/// compile, a primed request on another connection is answered with the
/// primed bytes, at once, by its own connection thread.
#[test]
fn a_hit_is_answered_while_the_only_worker_is_pinned() {
    let _guard = suite_lock();
    let (server, mut client) = serve(ServeConfig::default());
    let primed = compile_ok(&mut client, "bert-tiny");

    let pinned = pin_worker(server.addr(), "vgg11", &mut client);
    let mut second = Client::connect(server.addr()).expect("connect");
    assert_eq!(compile_ok(&mut second, "bert-tiny"), primed);
    // Still pinned: the hit did not wait for the worker, and it never
    // counted as in flight.
    assert_counters(&mut client, &[("in_flight", 1), ("inline_hits", 1)]);

    let (status, body) = pinned.join().expect("pinned client");
    assert_eq!(status, STATUS_OK, "{body}");
    // The priming compile, the pinned one, and the hit — counted once.
    assert_counters(&mut client, &[("in_flight", 0), ("compiles_started", 3)]);
    shutdown(server, client);
}

/// (b) A hit needs no queue slot: `--queue 0 --workers 1` with the
/// worker busy refuses a request that needs it and serves one that
/// does not.
#[test]
fn a_full_queue_refuses_a_miss_and_serves_a_hit() {
    let _guard = suite_lock();
    let (server, mut client) = serve(ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    });
    // A rendezvous queue admits nothing until the worker is up.
    let (status, primed) = client.request_with_retry("compile bert-tiny", 8).unwrap();
    assert_eq!(status, STATUS_OK, "{primed}");

    let pinned = pin_worker(server.addr(), "vgg11", &mut client);
    let mut second = Client::connect(server.addr()).expect("connect");
    assert_eq!(compile_ok(&mut second, "bert-tiny"), primed);
    let (status, body) = compile(&mut second, "bert-mini");
    assert_eq!(status, STATUS_OVERLOADED, "{body}");
    assert_counters(&mut client, &[("in_flight", 1), ("inline_hits", 1)]);

    let (status, body) = pinned.join().expect("pinned client");
    assert_eq!(status, STATUS_OK, "{body}");
    shutdown(server, client);
}

/// (c) A request whose deadline has passed at admission is shed in the
/// queue even though it would have hit. The grammar refuses
/// `timeout_ms=0`, so the zero comes from the server's default.
#[test]
fn an_expired_request_is_shed_even_if_it_would_have_hit() {
    let _guard = suite_lock();
    let (server, mut client) = serve(ServeConfig {
        request_timeout_ms: Some(0),
        ..ServeConfig::default()
    });
    let primed = compile_ok(&mut client, "bert-tiny timeout_ms=600000");

    let (status, body) = compile(&mut client, "bert-tiny");
    assert_eq!(status, STATUS_DEADLINE_EXCEEDED, "{body}");
    assert!(body.contains("shed before it started"), "{body}");
    assert_counters(
        &mut client,
        &[
            ("deadline_exceeded", 1),
            ("compiles_started", 1),
            ("shed_in_queue", 1),
            ("inline_hits", 0),
            ("cache.hits", 0),
        ],
    );
    // With time left, the same request is the hit it would have been.
    assert_eq!(
        compile_ok(&mut client, "bert-tiny timeout_ms=600000"),
        primed
    );
    assert_counters(&mut client, &[("inline_hits", 1), ("cache.hits", 1)]);
    shutdown(server, client);
}

/// (d) The drain flag is read before the memo: a primed request after
/// `shutdown` is refused like any other.
#[test]
fn a_draining_server_refuses_a_request_it_could_answer_inline() {
    let _guard = suite_lock();
    let (server, mut client) = serve(ServeConfig::default());
    compile_ok(&mut client, "bert-tiny");
    server.shutdown();
    let (status, body) = compile(&mut client, "bert-tiny");
    assert_eq!(status, STATUS_SHUTTING_DOWN, "{body}");
    assert_counters(&mut client, &[("inline_hits", 0), ("cache.hits", 0)]);
    server.join();
}

/// (e) Charge parity: whether a `step_limit=` request ends in
/// `DEADLINE_EXCEEDED` does not depend on what the server has seen. The
/// smallest limit a *cold* server compiles the request under is also
/// the smallest a server that remembers the request's key does — the
/// worker skips the two encodes and charges what they charged.
#[test]
fn a_memoized_miss_trips_at_the_step_limit_a_cold_compile_trips_at() {
    let _guard = suite_lock();
    let one_entry = || ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    };
    // A fresh server per answer: a cold compile that gets as far as
    // the key leaves the memo behind.
    let cold = |limit: u64| {
        let (server, mut client) = serve(one_entry());
        let reply = compile(&mut client, &format!("bert-tiny step_limit={limit}"));
        shutdown(server, client);
        reply
    };
    let (mut trips, mut fits) = (1, 1 << 20);
    assert_eq!(cold(trips).0, STATUS_DEADLINE_EXCEEDED);
    assert_eq!(cold(fits).0, STATUS_OK);
    while fits - trips > 1 {
        let mid = trips + (fits - trips) / 2;
        match cold(mid).0 {
            STATUS_OK => fits = mid,
            _ => trips = mid,
        }
    }

    let (server, mut client) = serve(one_entry());
    let first = compile_ok(&mut client, "bert-tiny");
    compile_ok(&mut client, "vgg11"); // evicts bert-tiny
    assert_eq!(
        compile(&mut client, &format!("bert-tiny step_limit={trips}")),
        cold(trips),
        "one step short of the cold compile's bill"
    );
    // Nothing was stored, so this is a memoized miss again — a
    // recompile, equal to the first report but for its wall clocks.
    let roomy = compile_ok(&mut client, &format!("bert-tiny step_limit={fits}"));
    assert_eq!(mask_volatile(&roomy), mask_volatile(&first));
    assert_counters(
        &mut client,
        &[
            ("deadline_exceeded", 1),
            ("compiles_started", 4),
            ("inline_hits", 0),
            ("cache.hits", 0),
            ("cache.misses", 4),
            ("cache.stores", 3),
        ],
    );
    shutdown(server, client);
}

/// (f) Exact accounting over a scripted sequence on a `--cache 2`
/// server: one probe per request, never two, whoever makes it.
#[test]
fn every_request_probes_the_cache_exactly_once() {
    let _guard = suite_lock();
    let (server, mut client) = serve(ServeConfig {
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    // A worker keys, misses, compiles and stores; the repeat is inline.
    let tiny = compile_ok(&mut client, "bert-tiny");
    assert_eq!(compile_ok(&mut client, "bert-tiny"), tiny);
    // Two more through the worker; the second evicts bert-tiny.
    compile_ok(&mut client, "vgg11");
    let small = compile_ok(&mut client, "bert-small");
    // A memoized miss: probed at admission, compiled and stored under
    // the remembered key (vgg11 goes); then an inline hit (bert-small
    // stays the most recent), and a second memoized miss (bert-tiny
    // goes).
    compile_ok(&mut client, "bert-tiny");
    assert_eq!(compile_ok(&mut client, "bert-small"), small);
    compile_ok(&mut client, "vgg11");
    // Another name for bert-small's graph: unknown to the memo, so a
    // worker keys it — and its one probe hits. Its repeat is inline.
    assert_eq!(compile_ok(&mut client, "electra-small"), small);
    assert_eq!(compile_ok(&mut client, "electra-small"), small);
    assert_counters(
        &mut client,
        &[
            ("compiles_started", 9),
            ("inline_hits", 3),
            ("in_flight", 0),
            ("cache.hits", 4),
            ("cache.misses", 5),
            ("cache.stores", 5),
            ("cache.evictions", 3),
        ],
    );
    shutdown(server, client);
}

/// (g) Two workers keying the same unprimed request at once answer the
/// same report and leave one cache entry and one memo entry behind: the
/// next request is an inline hit on it.
#[test]
fn two_workers_keying_one_request_at_once_agree() {
    let _guard = suite_lock();
    let server = Server::bind(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    // Both workers wait at the door before keying anything, so neither
    // request can find the other's memo entry: they key at once.
    pypm::faults::arm("serve.compile=delay:300*2").expect("spec");
    let start = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                start.wait();
                compile_ok(&mut client, "bert-small config=fmha")
            })
        })
        .collect();
    let replies: Vec<String> = racers.into_iter().map(|r| r.join().unwrap()).collect();
    assert_eq!(mask_volatile(&replies[0]), mask_volatile(&replies[1]));

    let mut client = Client::connect(addr).expect("connect");
    let doc = stats(&mut client);
    assert_eq!(
        uint_at(&doc, "cache.hits") + uint_at(&doc, "cache.misses"),
        2
    );
    assert_eq!(uint_at(&doc, "cache.stores"), 1, "{doc:?}");
    assert_eq!(uint_at(&doc, "inline_hits"), 0, "{doc:?}");
    let third = compile_ok(&mut client, "bert-small config=fmha");
    assert!(replies.contains(&third), "the stored report, verbatim");
    assert_counters(&mut client, &[("inline_hits", 1), ("compiles_started", 3)]);
    shutdown(server, client);
}

/// With the cache disabled the memo is never consulted and never
/// filled: every repeat goes to a worker.
#[test]
fn a_disabled_cache_answers_nothing_inline() {
    let _guard = suite_lock();
    let (server, mut client) = serve(ServeConfig {
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let first = compile_ok(&mut client, "bert-tiny");
    let again = compile_ok(&mut client, "bert-tiny");
    assert_eq!(mask_volatile(&again), mask_volatile(&first));
    assert_counters(&mut client, &[("compiles_started", 2), ("inline_hits", 0)]);
    shutdown(server, client);
}
