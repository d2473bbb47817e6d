//! Protocol suite for the `pypmc serve` session server: framing,
//! status codes, concurrent clients, admission control, fault
//! tolerance and graceful shutdown — all against in-process
//! [`pypm::serve::Server`] instances on ephemeral ports.

mod common;

use common::{mask_volatile, text_at, uint_at};
use pypm::client::Client;
use pypm::core::VirtualClock;
use pypm::serve::protocol::{
    MAX_FRAME, STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED,
    STATUS_SHUTTING_DOWN, STATUS_UNKNOWN_MODEL,
};
use pypm::serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

/// A small server for most tests: modest queue, two workers.
fn spawn_server() -> Server {
    Server::bind(ServeConfig {
        workers: 2,
        queue_depth: 32,
        ..ServeConfig::default()
    })
    .expect("bind on an ephemeral port")
}

fn shutdown_and_join(server: Server) {
    let mut c = Client::connect(server.addr()).unwrap();
    let (status, _) = c.request("shutdown").unwrap();
    assert_eq!(status, STATUS_OK);
    server.join();
}

#[test]
fn ping_compile_and_errors_over_one_connection() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr()).unwrap();

    let (status, body) = c.request("ping").unwrap();
    assert_eq!((status, body.as_str()), (STATUS_OK, "pong"));

    let (status, body) = c.request("compile bert-tiny").unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    let report = common::parse_report(&body);
    assert!(uint_at(&report, "totals.rewrites_fired") > 0, "{body}");

    let (status, body) = c.request("compile no-such-model").unwrap();
    assert_eq!(status, STATUS_UNKNOWN_MODEL, "{body}");

    let (status, body) = c.request("frobnicate").unwrap();
    assert_eq!(status, STATUS_BAD_REQUEST, "{body}");

    // Refused at the grammar, naming the retirement and what to do
    // instead: the `jobs` key with anything but the no-op `jobs=1`, the
    // engine keys with anything but the defaults, the `+synthN`
    // configurations — and a key said twice. None reaches a worker.
    let compiles_started = |c: &mut Client| {
        let (_, body) = c.request("stats").unwrap();
        uint_at(&common::parse(&body), "compiles_started")
    };
    let before = compiles_started(&mut c);
    let cli = "retired|not served|`pypmc compile --";
    for (refused, says) in [
        ("jobs=2", "retired|drop the flag"),
        ("jobs=0", "retired|drop the flag"),
        ("jobs=x", "retired|drop the flag"),
        ("policy=restart", cli),
        ("policy=bogus", cli),
        ("matcher=per-pattern", cli),
        ("config=all+synth39", cli),
        ("config=both+synth0", cli),
        ("timeout_ms=5 timeout_ms=600000", "'timeout_ms' given twice"),
    ] {
        let (status, body) = c.request(&format!("compile bert-tiny {refused}")).unwrap();
        assert_eq!(status, STATUS_BAD_REQUEST, "{refused}: {body}");
        assert!(
            says.split('|').all(|needle| body.contains(needle)),
            "{refused}: {body}"
        );
    }
    assert_eq!(compiles_started(&mut c), before, "a refusal compiled");

    // The connection survives every rejected request: it still serves.
    let (status, _) = c.request("ping").unwrap();
    assert_eq!(status, STATUS_OK);
    shutdown_and_join(server);
}

#[test]
fn all_request_parameters_are_honored() {
    let server = spawn_server();
    let mut c = Client::connect(server.addr()).unwrap();
    for line in [
        "compile bert-tiny config=baseline policy=incremental",
        "compile vgg11 config=all matcher=fused",
        "compile bert-tiny config=fmha",
        "compile bert-tiny config=epilog timeout_ms=600000 step_limit=100000000",
    ] {
        let (status, body) = c.request(line).unwrap();
        assert_eq!(status, STATUS_OK, "{line}: {body}");
        common::parse_report(&body);
    }
    // `jobs=1` is a no-op: the same document as without the key.
    let (status, plain) = c.request("compile bert-tiny").unwrap();
    assert_eq!(status, STATUS_OK);
    let (status, keyed) = c.request("compile bert-tiny jobs=1").unwrap();
    assert_eq!(status, STATUS_OK);
    assert_eq!(mask_volatile(&keyed), mask_volatile(&plain));
    assert_eq!(uint_at(&common::parse(&keyed), "totals.parallel.jobs"), 1);
    shutdown_and_join(server);
}

#[test]
fn eight_concurrent_clients_get_identical_counters() {
    let server = spawn_server();
    let addr = server.addr();
    // One reference response, then 8 clients × 3 requests each, all in
    // flight at once. Every successful response must match the
    // reference after dropping the wall-clock fields (the only
    // legitimately volatile fields — see the serve module docs).
    let reference = {
        let mut c = Client::connect(addr).unwrap();
        let (status, body) = c.request("compile bert-tiny").unwrap();
        assert_eq!(status, STATUS_OK);
        mask_volatile(&body)
    };
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    let (status, body) = c.request("compile bert-tiny").unwrap();
                    // Admission control may push back under the burst;
                    // retry is the documented client behaviour.
                    if status == STATUS_OVERLOADED {
                        continue;
                    }
                    assert_eq!(status, STATUS_OK, "{body}");
                    assert_eq!(mask_volatile(&body), reference, "counters diverged");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    shutdown_and_join(server);
}

#[test]
fn rendezvous_queue_rejects_the_burst_with_overloaded() {
    // workers=1, queue_depth=0: one compile in flight, zero waiting.
    // A burst of concurrent compiles must see at least one immediate
    // STATUS_OVERLOADED — and every admitted request must succeed. The
    // 32 requests are 32 distinct keys: a repeat of a key the server
    // has answered is a cache hit served without the worker, so a burst
    // of one key could drain without ever meeting a busy worker.
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let models = [
        "bert-tiny",
        "bert-mini",
        "bert-small",
        "electra-small",
        "squeezebert",
        "mobilebert",
        "minilm-l6",
        "t5-small-encoder",
    ];
    let handles: Vec<_> = models
        .into_iter()
        .map(|model| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut ok = 0u32;
                let mut overloaded = 0u32;
                for config in ["baseline", "fmha", "epilog", "both"] {
                    let request = format!("compile {model} config={config}");
                    let (status, body) = c.request(&request).unwrap();
                    match status {
                        STATUS_OK => {
                            common::parse_report(&body);
                            ok += 1;
                        }
                        STATUS_OVERLOADED => overloaded += 1,
                        other => panic!("unexpected status {other}: {body}"),
                    }
                }
                (ok, overloaded)
            })
        })
        .collect();
    let (mut ok, mut overloaded) = (0, 0);
    for h in handles {
        let (o, ov) = h.join().expect("client thread");
        ok += o;
        overloaded += ov;
    }
    assert_eq!(ok + overloaded, 32);
    assert!(ok >= 1, "a rendezvous queue still serves whoever it admits");
    assert!(
        overloaded >= 1,
        "32 bursty compiles against one worker and depth 0 must trip admission control"
    );
    shutdown_and_join(server);
}

#[test]
fn garbage_and_truncated_frames_do_not_kill_the_server() {
    let server = spawn_server();
    let addr = server.addr();

    // An oversized frame declaration is answered then the connection
    // closes (the stream cannot be resynchronized).
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&(MAX_FRAME as u32 + 1).to_le_bytes()).unwrap();
    let (status, body) = c.read_response().unwrap();
    assert_eq!(status, STATUS_BAD_REQUEST, "{body}");
    assert!(body.contains("exceeds"), "{body}");

    // A truncated frame (length says 100, client hangs up after 3).
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&100u32.to_le_bytes()).unwrap();
    c.send_raw(b"com").unwrap();
    drop(c);

    // Non-UTF-8 payload: rejected, connection keeps serving.
    let mut c = Client::connect(addr).unwrap();
    c.send_raw(&4u32.to_le_bytes()).unwrap();
    c.send_raw(&[0xff, 0xfe, 0x80, 0x00]).unwrap();
    let (status, body) = c.read_response().unwrap();
    assert_eq!(status, STATUS_BAD_REQUEST, "{body}");

    // And the server still compiles after all of it.
    let (status, body) = c.request("compile bert-tiny").unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    shutdown_and_join(server);
}

#[test]
fn deadline_exceeded_compiles_leave_the_worker_reusable() {
    // step_limit=1 cannot finish any zoo compile: the response must be
    // DEADLINE_EXCEEDED naming the exhausted limit, and the *same*
    // worker (workers=1 pins it) must serve the next request cleanly.
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (status, body) = c.request("compile bert-small step_limit=1").unwrap();
    assert_eq!(status, STATUS_DEADLINE_EXCEEDED, "{body}");
    assert!(body.contains("step_limit=1"), "{body}");

    // Same worker, same session: an uncapped repeat succeeds…
    let (status, body) = c.request("compile bert-small").unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    common::parse_report(&body);

    // …and a generous budget is not part of the cache key, so the
    // same request with limits attached answers byte-identically.
    let (status2, body2) = c
        .request("compile bert-small timeout_ms=600000 step_limit=1000000000")
        .unwrap();
    assert_eq!(status2, STATUS_OK, "{body2}");
    assert_eq!(
        body, body2,
        "an unexceeded budget must not change the report"
    );
    shutdown_and_join(server);
}

#[test]
fn server_side_default_budgets_apply_and_requests_override_them() {
    // --step-limit as a ServeConfig default: every compile trips it…
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        step_limit: Some(1),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let (status, body) = c.request("compile bert-tiny").unwrap();
    assert_eq!(status, STATUS_DEADLINE_EXCEEDED, "{body}");
    // …unless the request brings its own, roomier budget.
    let (status, body) = c
        .request("compile bert-tiny step_limit=1000000000")
        .unwrap();
    assert_eq!(status, STATUS_OK, "{body}");
    shutdown_and_join(server);
}

#[test]
fn stats_stay_coherent_under_concurrent_load() {
    let server = spawn_server();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let (status, body) = c.request("stats").unwrap();
    assert_eq!(status, STATUS_OK);
    let stats = common::parse(&body);
    assert_eq!(text_at(&stats, "schema"), "pypm.serve.stats.v1");
    for (path, want) in [
        ("in_flight", 0),
        ("deadline_exceeded", 0),
        ("cache.disk_orphans_removed", 0),
    ] {
        assert_eq!(uint_at(&stats, path), want, "{path} in {body}");
    }
    uint_at(&stats, "uptime_ms");

    // Hammer deadline-tripping compiles and stats concurrently: every
    // stats response must stay a well-formed document, and the
    // counters must settle to exactly the work that happened.
    let compilers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    let (status, body) = c
                        .request_with_retry("compile bert-tiny step_limit=1", 8)
                        .unwrap();
                    assert_eq!(status, STATUS_DEADLINE_EXCEEDED, "{body}");
                }
            })
        })
        .collect();
    for _ in 0..10 {
        let (status, body) = c.request("stats").unwrap();
        assert_eq!(status, STATUS_OK);
        assert_eq!(
            text_at(&common::parse(&body), "schema"),
            "pypm.serve.stats.v1"
        );
    }
    for h in compilers {
        h.join().expect("compiler thread");
    }
    let (_, body) = c.request("stats").unwrap();
    let stats = common::parse(&body);
    assert_eq!(uint_at(&stats, "deadline_exceeded"), 12, "{body}");
    assert_eq!(uint_at(&stats, "in_flight"), 0, "{body}");
    shutdown_and_join(server);
}

#[test]
fn shutdown_drains_in_flight_work_and_refuses_new_work() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Three clients queue compiles on the single worker, then shutdown
    // lands. Everything already admitted must still complete with OK.
    let compilers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.request("compile bert-small").unwrap()
            })
        })
        .collect();
    // Give the burst a moment to be admitted before draining.
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.shutdown();
    for h in compilers {
        let (status, body) = h.join().expect("client thread");
        assert!(
            status == STATUS_OK || status == STATUS_SHUTTING_DOWN || status == STATUS_OVERLOADED,
            "unexpected status {status}: {body}"
        );
        if status == STATUS_OK {
            common::parse_report(&body);
        }
    }
    // join returns — the drain terminates.
    server.join();
}

#[test]
fn compiles_admitted_before_shutdown_complete_with_ok() {
    // The strict drain guarantee, raced-free: admit one slow compile,
    // *wait for it to be admitted* (rendezvous queue hands it straight
    // to the worker), then shut down. The admitted compile must finish
    // OK; a compile sent after the drain flag is refused.
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Connected before the drain: the listener closes once shutdown
    // starts, but established connections keep being served.
    let mut late = Client::connect(addr).unwrap();
    let (status, _) = late.request("ping").unwrap();
    assert_eq!(status, STATUS_OK);
    let admitted = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.request("compile bert-small").unwrap()
    });
    // The request above is in flight; let the worker pick it up.
    std::thread::sleep(std::time::Duration::from_millis(30));
    server.shutdown();
    let (status, _) = late.request("compile bert-tiny").unwrap();
    assert_eq!(status, STATUS_SHUTTING_DOWN);
    let (status, body) = admitted.join().expect("client thread");
    assert_eq!(status, STATUS_OK, "admitted work must drain: {body}");
    server.join();
}

/// `pypm.serve.stats.v1` is pinned byte-for-byte to a document captured
/// from the `format!`-built renderer the JSON writer replaced. Under a
/// virtual clock every field is deterministic: 1234 virtual
/// milliseconds pass, then one compile trips its step budget before the
/// cache is probed. Its connection thread's five stages are counted, at
/// zero virtual time (the thread laps its frame write after the reply
/// is out, so the clock must not move while the client reads it); a
/// worker adds its own stages only for an `OK` reply.
#[test]
fn stats_document_is_byte_identical_to_the_pinned_golden() {
    let vclock = Arc::new(VirtualClock::new());
    let server = Server::bind(ServeConfig {
        workers: 1,
        clock: vclock.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    vclock.advance(Duration::from_millis(1234));
    let (status, body) = c.request("compile bert-tiny step_limit=1").unwrap();
    assert_eq!(status, STATUS_DEADLINE_EXCEEDED, "{body}");
    let (status, body) = c.request("stats").unwrap();
    assert_eq!(status, STATUS_OK);
    assert_eq!(body, include_str!("golden/serve_stats_v1.json"));
    shutdown_and_join(server);
}
