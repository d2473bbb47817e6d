//! Unit tests of the serve internals that need no socket: the request
//! grammar, the frame codec over in-memory streams, payload hints, EDF
//! selection and the service-time EWMA.

use super::protocol::*;
use super::queue::{JobQueue, QueueEntry};
use super::worker::{Counters, RETRY_AFTER_HINT_CAP_MS};
use crate::core::clock::system_clock;
use crate::dsl::LibraryConfig;
use std::io::{self, Cursor, Read};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[test]
fn request_grammar_parses_the_documented_forms() {
    assert_eq!(parse_request("ping"), Ok(Request::Ping));
    assert_eq!(parse_request("stats"), Ok(Request::Stats));
    assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
    assert_eq!(
        parse_request("compile bert-tiny"),
        Ok(Request::Compile(CompileRequest {
            model: "bert-tiny".to_owned(),
            config: LibraryConfig::both(),
            timeout_ms: None,
            step_limit: None,
        }))
    );
    // The retired keys, spelled with the one value each has left, are
    // no-ops.
    assert_eq!(
        parse_request(
            "compile vgg11 config=all policy=incremental matcher=fused jobs=1 \
             timeout_ms=250 step_limit=100000"
        ),
        Ok(Request::Compile(CompileRequest {
            model: "vgg11".to_owned(),
            config: LibraryConfig::all(),
            timeout_ms: Some(250),
            step_limit: Some(100_000),
        }))
    );
}

#[test]
fn request_grammar_rejects_garbage_with_reasons() {
    assert!(parse_request("").is_err());
    assert!(parse_request("frobnicate").is_err());
    assert!(parse_request("compile").is_err());
    assert!(parse_request("compile m config=bogus").is_err());
    let refusal = |request: &str| parse_request(&format!("compile m {request}")).unwrap_err();
    // Every retired axis has one value left; anything else names the
    // retirement, and the engine keys say where the oracles still run.
    let retired = "jobs=0 jobs=2 jobs=four policy=restart policy=continue policy=bogus \
                   matcher=per-pattern matcher=bogus";
    for request in retired.split_whitespace() {
        let err = refusal(request);
        assert!(err.contains("retired"), "{request}: {err}");
        let points_at_the_cli = err.contains("`pypmc compile --sweep-policy restart --matcher");
        assert_eq!(points_at_the_cli, !request.starts_with("jobs"), "{err}");
    }
    // The matcher-scaling suffix is a `pypmc compile` flag, not a
    // request: well-formed or not, it is refused with the pointer.
    for synth in ["all+synth39", "both+synth0", "all+synthX", "bogus+synth4"] {
        let err = refusal(&format!("config={synth}"));
        assert!(err.contains("not served"), "{synth}: {err}");
        assert!(err.contains(&format!("`pypmc compile --config {synth}`")));
    }
    // A key may be said once: a repeat would silently win otherwise.
    for (request, key) in [
        ("timeout_ms=5 timeout_ms=600000", "timeout_ms"),
        ("config=both step_limit=7 config=all", "config"),
        ("policy=incremental policy=incremental", "policy"),
        ("jobs=1 matcher=fused jobs=1", "jobs"),
    ] {
        assert_eq!(refusal(request), format!("key '{key}' given twice"));
    }
    assert!(parse_request("compile m stray").is_err());
    assert!(parse_request("compile m color=red").is_err());
    // Budget keys: zero and non-numeric are rejected with reasons
    // ("no limit" is spelled by omitting the key).
    assert!(parse_request("compile m timeout_ms=0")
        .unwrap_err()
        .contains("positive"));
    assert!(parse_request("compile m timeout_ms=fast").is_err());
    assert!(parse_request("compile m timeout_ms=-5").is_err());
    assert!(parse_request("compile m step_limit=0")
        .unwrap_err()
        .contains("positive"));
    assert!(parse_request("compile m step_limit=many").is_err());
}

#[test]
fn retry_after_hints_parse_out_of_overloaded_payloads() {
    assert_eq!(
        parse_retry_after("compile queue is full; retry-after-ms=25"),
        Some(25)
    );
    assert_eq!(parse_retry_after("retry-after-ms=900 trailing"), Some(900));
    assert_eq!(parse_retry_after("compile queue is full"), None);
    assert_eq!(parse_retry_after("retry-after-ms=oops"), None);
    // What the server formats is what the client parses back.
    assert_eq!(parse_retry_after(&overloaded_payload(0)), Some(0));
    assert_eq!(parse_retry_after(&overloaded_payload(1_999)), Some(1_999));
    let shed = shed_payload(100, 10_000);
    assert_eq!(parse_queued_ms(&shed), Some(10_000));
    assert!(shed.contains("timeout_ms=100"), "{shed}");
    assert_eq!(parse_queued_ms("compile queue is full"), None);
}

/// Hands out one byte per `read` call, and a `WouldBlock` before each
/// byte whose offset is listed in `stalls` — a socket with a poll-tick
/// read timeout, in miniature.
struct Trickle {
    bytes: Vec<u8>,
    pos: usize,
    stalls: Vec<usize>,
}

impl Trickle {
    fn new(bytes: Vec<u8>, stalls: &[usize]) -> Trickle {
        Trickle {
            bytes,
            pos: 0,
            stalls: stalls.to_vec(),
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(i) = self.stalls.iter().position(|&at| at == self.pos) {
            self.stalls.remove(i);
            return Err(io::ErrorKind::WouldBlock.into());
        }
        match self.bytes.get(self.pos) {
            Some(&b) if !buf.is_empty() => {
                buf[0] = b;
                self.pos += 1;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Rides out up to `allowance` read errors, counting both callbacks.
struct CountingIdle {
    allowance: usize,
    touches: usize,
    ticks: usize,
}

impl Idle for CountingIdle {
    fn touch(&mut self) {
        self.touches += 1;
    }

    fn retry(&mut self, e: &io::Error) -> bool {
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
        self.ticks += 1;
        self.ticks <= self.allowance
    }
}

fn request_frame(line: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    write_request(&mut frame, line).unwrap();
    frame
}

#[test]
fn frames_round_trip_whole_and_one_byte_at_a_time() {
    let frame = request_frame("compile bert-tiny jobs=1");
    assert_eq!(&frame[..4], &24u32.to_le_bytes());
    let mut two = frame.clone();
    two.extend_from_slice(&request_frame(""));
    for reader in [
        &mut Cursor::new(two.clone()) as &mut dyn Read,
        &mut Trickle::new(two.clone(), &[]),
    ] {
        let mut reader = reader;
        let first = read_request(&mut reader, &mut Strict).unwrap();
        assert_eq!(first.as_deref(), Some(&b"compile bert-tiny jobs=1"[..]));
        let second = read_request(&mut reader, &mut Strict).unwrap();
        assert_eq!(
            second.as_deref(),
            Some(&b""[..]),
            "an empty frame is a frame"
        );
        assert!(matches!(read_request(&mut reader, &mut Strict), Ok(None)));
    }

    let mut response = Vec::new();
    write_response(
        &mut response,
        STATUS_DEADLINE_EXCEEDED,
        "budget é".as_bytes(),
    )
    .unwrap();
    assert_eq!(response[0], STATUS_DEADLINE_EXCEEDED);
    assert_eq!(&response[1..5], &9u32.to_le_bytes());
    for reader in [
        &mut Cursor::new(response.clone()) as &mut dyn Read,
        &mut Trickle::new(response.clone(), &[]),
    ] {
        let mut reader = reader;
        let (status, payload) = read_response(&mut reader).unwrap();
        assert_eq!(
            (status, payload.as_str()),
            (STATUS_DEADLINE_EXCEEDED, "budget é")
        );
    }
}

#[test]
fn eof_is_clean_between_frames_and_an_error_inside_one() {
    let frame = request_frame("ping");
    // Between frames: nothing read, nothing wrong.
    assert!(matches!(
        read_request(&mut Cursor::new(Vec::new()), &mut Strict),
        Ok(None)
    ));
    // Mid-header and mid-payload: a truncated frame.
    for cut in [1, 3, 4, 6] {
        let err = read_request(&mut Cursor::new(frame[..cut].to_vec()), &mut Strict).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
    // A response reader expects a response: even the clean EOF errs.
    let mut response = Vec::new();
    write_response(&mut response, STATUS_OK, b"pong").unwrap();
    for cut in [0, 1, 4, 5, 7] {
        let err = read_response(&mut Cursor::new(response[..cut].to_vec())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

#[test]
fn oversized_and_non_utf8_frames_are_rejected_not_truncated() {
    let oversized = (MAX_FRAME as u32 + 1).to_le_bytes();
    let err = read_request(&mut Cursor::new(oversized.to_vec()), &mut Strict).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let too_large = MAX_FRAME + 1;
    assert_eq!(
        err.to_string(),
        format!("frame of {too_large} bytes exceeds the {MAX_FRAME} byte limit")
    );
    // Exactly MAX_FRAME is legal (here: declared, then truncated).
    let at_limit = (MAX_FRAME as u32).to_le_bytes();
    let err = read_request(&mut Cursor::new(at_limit.to_vec()), &mut Strict).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

    // The response side used to read `len.min(MAX_FRAME)` bytes of an
    // oversized frame and lossy-decode non-UTF-8; both are InvalidData.
    let mut response = vec![STATUS_OK];
    response.extend_from_slice(&oversized);
    let err = read_response(&mut Cursor::new(response)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("exceeds"), "{err}");
    let mut response = Vec::new();
    write_response(&mut response, STATUS_OK, &[0xff, 0xfe]).unwrap();
    let err = read_response(&mut Cursor::new(response)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn the_idle_callback_sees_every_chunk_and_decides_every_stall() {
    let frame = request_frame("ping");
    // Stalls before the first header byte, mid-header and mid-payload.
    let mut idle = CountingIdle {
        allowance: 3,
        touches: 0,
        ticks: 0,
    };
    let got = read_request(&mut Trickle::new(frame.clone(), &[0, 2, 6]), &mut idle).unwrap();
    assert_eq!(got.as_deref(), Some(&b"ping"[..]));
    assert_eq!((idle.touches, idle.ticks), (8, 3), "one touch per byte");

    // Out of allowance: the stall's own error ends the frame, wherever
    // it lands — including between frames.
    for stall in [0, 2, 6] {
        let mut idle = CountingIdle {
            allowance: 0,
            touches: 0,
            ticks: 0,
        };
        let err = read_request(&mut Trickle::new(frame.clone(), &[stall]), &mut idle).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "stall at {stall}");
        assert_eq!((idle.touches, idle.ticks), (stall, 1));
    }
}

#[test]
fn edf_select_prefers_earliest_deadline_then_fifo() {
    let clock = system_clock();
    let now = clock.now();
    let entry = |deadline: Option<Instant>, seq: u64| QueueEntry {
        req: CompileRequest {
            model: "m".to_owned(),
            config: LibraryConfig::both(),
            timeout_ms: None,
            step_limit: None,
        },
        reply: mpsc::sync_channel(1).0,
        admitted_at: now,
        deadline,
        keyed: None,
        seq,
    };
    // Budgeted entries beat unbudgeted ones regardless of order.
    let entries = vec![
        entry(None, 0),
        entry(Some(now + Duration::from_millis(500)), 1),
        entry(Some(now + Duration::from_millis(100)), 2),
    ];
    assert_eq!(JobQueue::select(&entries), Some(2), "earliest deadline");
    // Identical deadlines fall back to admission order.
    let tied = vec![
        entry(Some(now + Duration::from_millis(100)), 5),
        entry(Some(now + Duration::from_millis(100)), 3),
    ];
    assert_eq!(JobQueue::select(&tied), Some(1), "seq breaks the tie");
    // All-unbudgeted stays FIFO.
    let fifo = vec![entry(None, 8), entry(None, 9)];
    assert_eq!(JobQueue::select(&fifo), Some(0));
    assert_eq!(JobQueue::select(&[]), None);
}

#[test]
fn retry_hint_tracks_the_service_ewma() {
    let counters = Counters::default();
    assert_eq!(
        counters.retry_after_hint_ms(),
        RETRY_AFTER_HINT_MS,
        "static default until the first observation"
    );
    counters.record_service(Duration::from_millis(80));
    assert_eq!(counters.retry_after_hint_ms(), 80);
    // EWMA folds toward new observations at α = 1/4.
    counters.record_service(Duration::from_millis(400));
    assert_eq!(counters.retry_after_hint_ms(), 160);
    // Sub-millisecond services still hint ≥ 1 ms (never zero).
    let fast = Counters::default();
    fast.record_service(Duration::from_micros(3));
    assert_eq!(fast.retry_after_hint_ms(), 1);
    // Absurd observations clamp at the cap.
    let slow = Counters::default();
    slow.record_service(Duration::from_secs(3600));
    assert_eq!(slow.retry_after_hint_ms(), RETRY_AFTER_HINT_CAP_MS);
}
