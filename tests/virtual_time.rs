//! Virtual-time tests for the serve path: exact retry-backoff
//! sequences, queue-time load shedding, idle reaping — all driven by a
//! shared [`VirtualClock`] so nothing here waits on a real schedule (the
//! shed test's blocked worker waits on a gate the test opens, not on a
//! sleep) — and the stage spine of a served miss, lapped on a clock that
//! ticks per read.
//!
//! Runs as its own test binary because the shed test arms the
//! process-global failpoint registry.

mod common;

use common::uint_at;
use pypm::client::{Client, RetryPolicy};
use pypm::core::{Clock, TickingClock, VirtualClock};
use pypm::serve::protocol::{
    self, parse_queued_ms, Strict, STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED,
};
use pypm::serve::{ServeConfig, Server};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serializes the suite: the failpoint registry and fault clock are
/// process-global.
fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fault clock whose `sleep` blocks, whatever its duration, until the
/// test calls [`Gate::open`]: a `delay:` failpoint routed onto it holds
/// its thread for exactly as long as the test needs, not for a stretch of
/// wall time the test thread might outrun or fall behind.
#[derive(Debug, Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.opened.notify_all();
    }
}

impl Clock for Gate {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, _: Duration) {
        let open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        let _open = self
            .opened
            .wait_while(open, |open| !*open)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// A protocol stub that answers every request with `OVERLOADED` and a
/// `retry-after-ms=0` hint — the worst legal backoff advice a server
/// can give. Serves until its listener is dropped with the process.
fn overloaded_stub(hint_ms: u64) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                let body = format!("compile queue is full; retry-after-ms={hint_ms}");
                while let Ok(Some(_)) = protocol::read_request(&mut stream, &mut Strict) {
                    if protocol::write_response(&mut stream, STATUS_OVERLOADED, body.as_bytes())
                        .is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn seeded_backoff_produces_the_exact_previewed_delay_sequence() {
    let _guard = suite_lock();
    let addr = overloaded_stub(0);
    let policy = RetryPolicy {
        base: Duration::from_millis(25),
        cap: Duration::from_secs(2),
        overall: None,
        jitter_seed: Some(0xBACC0FF),
    };
    let vclock = Arc::new(VirtualClock::new());
    let mut client = Client::connect(addr)
        .expect("connect stub")
        .with_clock(vclock.clone())
        .with_retry_policy(policy.clone());

    let (status, body) = client
        .request_with_retry("compile m", 6)
        .expect("stub answers");
    assert_eq!(status, STATUS_OVERLOADED, "{body}");

    // The zero hint must not collapse the schedule into a hot spin:
    // every executed sleep is exactly the previewed exponential delay.
    let slept = vclock.sleeps();
    let previewed = policy.preview_delays(6);
    assert_eq!(slept, previewed, "backoff diverged from its preview");
    assert_eq!(
        slept.len(),
        5,
        "one sleep per retry after the first attempt"
    );
    assert!(
        slept.iter().all(|d| *d >= policy.base),
        "a delay under base means the zero hint won: {slept:?}"
    );
    // And the virtual clock moved by exactly the sum of those sleeps.
    assert_eq!(vclock.elapsed(), slept.iter().sum());
}

#[test]
fn overall_retry_deadline_cuts_the_backoff_schedule_short() {
    let _guard = suite_lock();
    let addr = overloaded_stub(0);
    let policy = RetryPolicy {
        base: Duration::from_millis(50),
        cap: Duration::from_millis(50),
        overall: Some(Duration::from_millis(200)),
        jitter_seed: Some(7),
    };
    let vclock = Arc::new(VirtualClock::new());
    let mut client = Client::connect(addr)
        .expect("connect stub")
        .with_clock(vclock.clone())
        .with_retry_policy(policy.clone());

    let (status, _) = client
        .request_with_retry("compile m", 32)
        .expect("stub answers");
    assert_eq!(
        status, STATUS_OVERLOADED,
        "exhaustion still reports honestly"
    );

    // Replay the previewed schedule against the overall budget: the
    // client must have executed exactly the prefix that fits, then
    // stopped instead of starting a sleep it could not afford.
    let previewed = policy.preview_delays(32);
    let overall = policy.overall.expect("bounded policy");
    let mut affordable = Vec::new();
    let mut spent = Duration::ZERO;
    for d in previewed {
        if spent + d > overall {
            break;
        }
        spent += d;
        affordable.push(d);
    }
    assert!(
        affordable.len() < 31,
        "test misconfigured: the budget never bound the schedule"
    );
    assert_eq!(vclock.sleeps(), affordable);
}

#[test]
fn positive_hints_raise_delays_and_zero_hints_never_lower_them() {
    let _guard = suite_lock();
    // A stub hinting 400 ms: every post-hint delay must be ≥ 400 ms
    // even though the schedule's own base is 25 ms.
    let addr = overloaded_stub(400);
    let vclock = Arc::new(VirtualClock::new());
    let mut client = Client::connect(addr)
        .expect("connect stub")
        .with_clock(vclock.clone())
        .with_retry_policy(RetryPolicy {
            overall: None,
            jitter_seed: Some(3),
            ..RetryPolicy::default()
        });
    let (status, _) = client
        .request_with_retry("compile m", 4)
        .expect("stub answers");
    assert_eq!(status, STATUS_OVERLOADED);
    let slept = vclock.sleeps();
    assert_eq!(slept.len(), 3);
    assert!(
        slept.iter().all(|d| *d >= Duration::from_millis(400)),
        "a positive server hint must floor the backoff: {slept:?}"
    );
}

#[test]
fn a_request_expiring_in_queue_is_shed_without_touching_a_session() {
    let _guard = suite_lock();
    pypm::faults::disarm();
    pypm::faults::reset_clock();
    let vclock = Arc::new(VirtualClock::new());
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_depth: 8,
        cache_capacity: 0,
        clock: vclock.clone(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Block the only worker until the test says so: `serve.compile`'s
    // delay sleeps on a gate that opens only after B has expired, so
    // request A pins the worker while B expires behind it in virtual
    // time, however slowly this thread runs.
    let gate = Arc::new(Gate::default());
    pypm::faults::set_clock(gate.clone());
    pypm::faults::arm("serve.compile=delay:1500*1").expect("spec");

    let a = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect A");
        c.request("compile bert-tiny").expect("A answers")
    });
    // Admit B only after A holds the worker (in_flight hits 1), so the
    // fault is guaranteed to have been claimed by A's compile.
    let mut stats_client = Client::connect(addr).expect("connect stats");
    let wait_for_in_flight = |c: &mut Client, n: u64| loop {
        let (status, stats) = c.request("stats").expect("stats");
        assert_eq!(status, STATUS_OK);
        if uint_at(&common::parse(&stats), "in_flight") == n {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    wait_for_in_flight(&mut stats_client, 1);
    let b = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect B");
        c.request("compile bert-tiny timeout_ms=100")
            .expect("B answers")
    });
    wait_for_in_flight(&mut stats_client, 2);

    // B's whole-request deadline was stamped at admission on the
    // virtual clock; ten virtual seconds blow straight through it while
    // A's compile still owns the worker.
    vclock.advance(Duration::from_secs(10));
    gate.open();

    let (a_status, a_body) = a.join().expect("A thread");
    assert_eq!(
        a_status, STATUS_OK,
        "the blocked compile still succeeds: {a_body}"
    );
    let (b_status, b_body) = b.join().expect("B thread");
    assert_eq!(b_status, STATUS_DEADLINE_EXCEEDED, "{b_body}");
    assert!(
        b_body.contains("shed before it started") && b_body.contains("timeout_ms=100"),
        "shed payload names the cause: {b_body}"
    );
    // B was admitted at virtual time zero and dequeued after the
    // advance: it waited exactly the ten virtual seconds.
    assert_eq!(parse_queued_ms(&b_body), Some(10_000), "{b_body}");

    // The worker counters prove no session was touched for B: one
    // compile started (A), one request shed in queue (B).
    let (_, stats) = stats_client.request("stats").expect("stats");
    let doc = common::parse(&stats);
    assert_eq!(uint_at(&doc, "compiles_started"), 1, "{stats}");
    assert_eq!(uint_at(&doc, "shed_in_queue"), 1, "{stats}");
    assert_eq!(uint_at(&doc, "deadline_exceeded"), 1, "{stats}");

    pypm::faults::disarm();
    pypm::faults::reset_clock();
    let (status, _) = stats_client.request("shutdown").expect("shutdown");
    assert_eq!(status, STATUS_OK);
    server.join();
}

#[test]
fn idle_connections_are_reaped_by_virtual_time_not_wall_time() {
    let _guard = suite_lock();
    let vclock = Arc::new(VirtualClock::new());
    let server = Server::bind(ServeConfig {
        workers: 1,
        idle_timeout_ms: Some(5_000),
        clock: vclock.clone(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect_with_timeouts(
        server.addr(),
        Duration::from_secs(10),
        Some(Duration::from_secs(5)),
    )
    .expect("connect");
    let (status, _) = client.request("ping").expect("ping");
    assert_eq!(status, STATUS_OK);

    // Five virtual seconds of inactivity pass instantly; the server's
    // 25 ms poll tick notices and closes the connection. A blocked read
    // sees the close — long before the 5 s transport timeout that
    // bounds this test on a broken server.
    vclock.advance(Duration::from_secs(6));
    assert!(
        client.read_response().is_err(),
        "the idle connection outlived its virtual timeout"
    );

    let mut fresh = Client::connect(server.addr()).expect("reconnect");
    let (status, _) = fresh.request("shutdown").expect("shutdown");
    assert_eq!(status, STATUS_OK);
    server.join();
}

/// Clock reads one served miss makes, server-wide: the connection
/// thread's two frame chunks, frame read, cache probe, reply wake and
/// frame write (6); the worker's start, session copy, model build, cache
/// key, pass setup, trie build, collection, view build, scan,
/// validation, render, cache put, session drop and reply send (14, 15
/// with the dev profile's post-scan collection); and a little slack for
/// a frame that arrives in more pieces.
const SERVED_MISS_READS: u64 = 24;

/// The worker's stages of a miss, session copy through session drop:
/// its service time.
const SERVICE_STAGES: [&str; 12] = [
    "session_copy",
    "model_build",
    "cache_key",
    "pass_setup",
    "trie_build",
    "gc",
    "view_build",
    "scan",
    "validate",
    "render",
    "cache_put",
    "session_drop",
];

/// The connection thread's stages of a queued request.
const CONNECTION_STAGES: [&str; 5] = [
    "frame_read",
    "cache_probe",
    "queue_wait",
    "reply_wake",
    "frame_write",
];

/// The spine's contract on a served miss. On a clock that moves one
/// millisecond per read, the worker's stages from the session copy to
/// the session drop sum exactly to the service time it reports, its
/// reply send is at least one tick, the connection thread's stages plus
/// the service — and the worker's own timeline, reply send included —
/// account for no more time than the clock moved, and the whole miss
/// reads the clock a bounded number of times.
///
/// The reply send is not exactly one tick: once the reply is in the
/// channel the connection thread may wake and lap its reply wake and
/// frame write on the same clock before the worker reads it.
#[test]
fn a_served_miss_sums_its_stages_to_its_service_time() {
    let _guard = suite_lock();
    let tick = Duration::from_millis(1);
    let clock = Arc::new(TickingClock::new(tick));
    let server = Server::bind(ServeConfig {
        workers: 1,
        idle_timeout_ms: None,
        clock: clock.clone(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (status, _) = client.request("ping").expect("ping");
    assert_eq!(status, STATUS_OK);

    let before = clock.reads();
    let (status, body) = client.request("compile bert-tiny").expect("compile");
    assert_eq!(status, STATUS_OK, "{body}");
    // The worker laps its reply send after the reply is on its way.
    std::thread::sleep(Duration::from_millis(100));
    let reads = clock.reads() - before;
    eprintln!("one served miss read the clock {reads} times");
    assert!(
        reads <= SERVED_MISS_READS,
        "one miss read the clock {reads} times"
    );

    let (_, stats) = client.request("stats").expect("stats");
    let doc = common::parse(&stats);
    let stage = |name: &str, field: &str| uint_at(&doc, &format!("stages.{name}.{field}"));
    let service_us: u64 = SERVICE_STAGES.iter().map(|s| stage(s, "total_us")).sum();
    assert_eq!(service_us, uint_at(&doc, "service_ewma_us"), "{stats}");
    assert!(
        service_us >= 11_000,
        "one tick per worker lap at least: {stats}"
    );
    assert_eq!(stage("reply_send", "count"), 1, "{stats}");
    let reply_send_us = stage("reply_send", "total_us");
    assert!(reply_send_us >= 1_000, "{stats}");
    for name in SERVICE_STAGES.iter().chain(&CONNECTION_STAGES) {
        assert!(stage(name, "count") >= 1, "{name} never lapped: {stats}");
    }
    let connection_us: u64 = CONNECTION_STAGES.iter().map(|s| stage(s, "total_us")).sum();
    assert!(
        connection_us + service_us <= reads * 1_000,
        "the stages account for more than the clock moved: {stats}"
    );
    assert!(
        service_us + reply_send_us <= reads * 1_000,
        "the worker's stages account for more than the clock moved: {stats}"
    );

    let (status, _) = client.request("shutdown").expect("shutdown");
    assert_eq!(status, STATUS_OK);
    server.join();
}
