//! The wire format of `pypmc serve`, and nothing else: status bytes,
//! the frame codec, the request grammar and the `key=N` hints some
//! payloads carry. Server and [`crate::client::Client`] both call the
//! one codec here, over any `impl Read` / `impl Write` — so the
//! untrusted surface can be driven from an `io::Cursor` without a
//! socket.

use crate::cli_args::retired;
use crate::dsl::LibraryConfig;
use crate::engine::{MatcherBackend, SweepPolicy};
use std::io::{self, Read, Write};

/// Request served; the payload is the response body.
pub const STATUS_OK: u8 = 0;
/// Unparseable, non-UTF-8 or oversized request frame.
pub const STATUS_BAD_REQUEST: u8 = 1;
/// `compile` named a model neither zoo knows.
pub const STATUS_UNKNOWN_MODEL: u8 = 2;
/// The bounded in-flight queue was full — retry later.
pub const STATUS_OVERLOADED: u8 = 3;
/// The compile failed (or panicked) server-side; the server survives.
pub const STATUS_ERROR: u8 = 4;
/// The server is draining and accepts no new work.
pub const STATUS_SHUTTING_DOWN: u8 = 5;
/// The compile exhausted its `timeout_ms=`/`step_limit=` budget. The
/// payload names the exhausted limits; the worker survives and serves
/// the next request normally.
pub const STATUS_DEADLINE_EXCEEDED: u8 = 6;

/// Hard ceiling on request/response frame payloads (16 MiB).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The default backoff hint embedded in [`STATUS_OVERLOADED`] payloads
/// as `retry-after-ms=<N>` — used verbatim until the server has
/// observed at least one service time, after which the hint tracks an
/// EWMA of observed service times instead. Also the base delay
/// [`crate::client::Client::request_with_retry`] starts from.
pub const RETRY_AFTER_HINT_MS: u64 = 25;

/// What a frame read tells its caller while it waits for bytes. The
/// server implements it to reap idle connections on a clock of its
/// choosing; [`Strict`] is the blocking-socket behaviour.
pub trait Idle {
    /// Bytes arrived.
    fn touch(&mut self);
    /// A read failed with `e`. `true` retries the read (the failure was
    /// a poll tick inside the idle allowance); `false` gives up and the
    /// frame read returns `e`.
    fn retry(&mut self, e: &io::Error) -> bool;
}

/// The [`Idle`] that never retries: every read error ends the frame.
#[derive(Debug)]
pub struct Strict;

impl Idle for Strict {
    fn touch(&mut self) {}

    fn retry(&mut self, _: &io::Error) -> bool {
        false
    }
}

/// Fills `buf`, riding out whatever `idle` says to. Returns how many
/// bytes arrived before a clean EOF — `buf.len()` when there was none.
fn fill(r: &mut impl Read, buf: &mut [u8], idle: &mut impl Idle) -> io::Result<usize> {
    let mut have = 0;
    while have < buf.len() {
        match r.read(&mut buf[have..]) {
            Ok(0) => break,
            Ok(got) => {
                have += got;
                idle.touch();
            }
            // `read_exact` rides out EINTR; so does this.
            Err(e) if e.kind() == io::ErrorKind::Interrupted || idle.retry(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(have)
}

/// Reads one frame: `header.len() - 4` leading bytes (the response's
/// status byte), a `u32` little-endian payload length, the payload.
/// `Ok(None)` is a clean EOF *before* the first header byte; EOF
/// anywhere later is a truncated frame.
fn read_frame(
    r: &mut impl Read,
    header: &mut [u8],
    idle: &mut impl Idle,
) -> io::Result<Option<Vec<u8>>> {
    let truncated = || io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended mid-frame");
    match fill(r, header, idle)? {
        0 => return Ok(None),
        n if n < header.len() => return Err(truncated()),
        _ => {}
    }
    let len: [u8; 4] = header[header.len() - 4..]
        .try_into()
        .expect("a header ends with its four length bytes");
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        // Nothing was buffered, and the stream cannot be resynchronized.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    if fill(r, &mut payload, idle)? < len {
        return Err(truncated());
    }
    Ok(Some(payload))
}

/// Writes `lead ++ u32 length ++ payload` as a single buffered write:
/// split writes would interact with Nagle's algorithm and delayed ACKs
/// to add ~40 ms per frame.
fn write_frame(w: &mut impl Write, lead: &[u8], payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(lead.len() + 4 + payload.len());
    frame.extend_from_slice(lead);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Writes one request frame: `u32` little-endian length, then `line`.
///
/// # Errors
///
/// Propagates the write failure.
pub fn write_request(w: &mut impl Write, line: &str) -> io::Result<()> {
    write_frame(w, &[], line.as_bytes())
}

/// Reads one request frame's payload — raw bytes, because the server
/// answers a non-UTF-8 request instead of dropping the connection.
/// `Ok(None)` is a clean EOF between frames.
///
/// # Errors
///
/// A truncated frame ([`io::ErrorKind::UnexpectedEof`]), a transport
/// error `idle` declined to retry, or a declared length above
/// [`MAX_FRAME`] ([`io::ErrorKind::InvalidData`], the one error worth
/// answering before the connection closes).
pub fn read_request(r: &mut impl Read, idle: &mut impl Idle) -> io::Result<Option<Vec<u8>>> {
    read_frame(r, &mut [0u8; 4], idle)
}

/// Writes one response frame: status byte, `u32` little-endian length,
/// payload.
///
/// # Errors
///
/// Propagates the write failure.
pub fn write_response(w: &mut impl Write, status: u8, payload: &[u8]) -> io::Result<()> {
    write_frame(w, &[status], payload)
}

/// Reads one response frame as `(status, payload)`.
///
/// # Errors
///
/// EOF (even between frames — a response was expected), a transport
/// error, a declared length above [`MAX_FRAME`], or a payload that is
/// not UTF-8 ([`io::ErrorKind::InvalidData`] for the last two).
pub fn read_response(r: &mut impl Read) -> io::Result<(u8, String)> {
    let mut header = [0u8; 5];
    let payload = read_frame(r, &mut header, &mut Strict)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )
    })?;
    let payload = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response not UTF-8"))?;
    Ok((header[0], payload))
}

const RETRY_AFTER_KEY: &str = "retry-after-ms=";
const QUEUED_KEY: &str = "queued_ms=";

/// The [`STATUS_OVERLOADED`] payload, carrying the backoff hint.
pub(crate) fn overloaded_payload(retry_after_ms: u64) -> String {
    format!("compile queue is full; {RETRY_AFTER_KEY}{retry_after_ms}")
}

/// The [`STATUS_DEADLINE_EXCEEDED`] payload of a request shed in the
/// queue: its budget and how long it had waited.
pub(crate) fn shed_payload(timeout_ms: u64, queued_ms: u128) -> String {
    format!(
        "deadline expired while queued (timeout_ms={timeout_ms}, \
         {QUEUED_KEY}{queued_ms}); the compile was shed before it started"
    )
}

/// The `retry-after-ms=<N>` hint of an OVERLOADED payload.
pub fn parse_retry_after(payload: &str) -> Option<u64> {
    hint(payload, RETRY_AFTER_KEY)
}

/// The `queued_ms=<N>` hint of a shed request's payload.
pub fn parse_queued_ms(payload: &str) -> Option<u64> {
    hint(payload, QUEUED_KEY)
}

fn hint(payload: &str, key: &str) -> Option<u64> {
    let (_, rest) = payload.split_once(key)?;
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// A parsed `compile` request: a model, one of the five plain
/// configurations, a budget. The engine is not a request's to choose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompileRequest {
    pub model: String,
    pub config: LibraryConfig,
    pub timeout_ms: Option<u64>,
    pub step_limit: Option<u64>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Request {
    Ping,
    Stats,
    Shutdown,
    Compile(CompileRequest),
}

/// Parses one request line against the grammar in the [`crate::serve`]
/// module docs.
pub(crate) fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("compile") => {
            let Some(model) = words.next() else {
                return Err("compile needs a model name".to_owned());
            };
            let mut req = CompileRequest {
                model: model.to_owned(),
                config: LibraryConfig::both(),
                timeout_ms: None,
                step_limit: None,
            };
            let mut seen = Vec::new();
            for word in words {
                let Some((key, value)) = word.split_once('=') else {
                    return Err(format!("expected key=value, got '{word}'"));
                };
                // A repeat would win silently (the second budget, the
                // second library); retired no-op keys count too.
                if seen.contains(&key) {
                    return Err(format!("key '{key}' given twice"));
                }
                seen.push(key);
                match key {
                    "config" if value.contains("+synth") => {
                        return Err(format!(
                            "config {value} is not served: the +synthN suffix is a benchmark \
                             axis, retired on the serve boundary (want \
                             baseline|fmha|epilog|both|all) — run `pypmc compile --config {value}`"
                        ));
                    }
                    "config" => {
                        req.config = crate::cli_args::lib_config(value)
                            .ok_or_else(|| format!("unknown config {value}"))?;
                    }
                    "policy" => retired(key, value, SweepPolicy::default().name())?,
                    "matcher" => retired(key, value, MatcherBackend::default().name())?,
                    "jobs" => retired(key, value, "1")?,
                    "timeout_ms" => {
                        req.timeout_ms = Some(parse_budget_value("timeout_ms", value)?);
                    }
                    "step_limit" => {
                        req.step_limit = Some(parse_budget_value("step_limit", value)?);
                    }
                    other => return Err(format!("unknown key '{other}'")),
                }
            }
            Ok(Request::Compile(req))
        }
        Some(other) => Err(format!(
            "unknown verb '{other}' (want ping|stats|shutdown|compile)"
        )),
        None => Err("empty request".to_owned()),
    }
}

/// Parses a `timeout_ms=`/`step_limit=` value: a positive integer.
/// Zero is rejected — "no budget" is spelled by omitting the key, and
/// a zero budget would reject every compile before it starts.
fn parse_budget_value(key: &str, value: &str) -> Result<u64, String> {
    match value.parse::<u64>() {
        Ok(0) => Err(format!("{key} must be positive (omit it for no limit)")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("invalid {key}={value}: want a positive integer")),
    }
}
