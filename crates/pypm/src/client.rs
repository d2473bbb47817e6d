//! A minimal blocking client for the [`crate::serve`] protocol — what
//! the test suites drive servers through, and reference client code:
//! bounded connect and I/O timeouts, plus a retry loop that rides out
//! backpressure and transient transport failures.
//!
//! [`Client::request_with_retry`] retries
//! [`STATUS_OVERLOADED`] responses (honoring a *positive*
//! `retry-after-ms=` hint in the payload; a zero hint falls back to the
//! backoff schedule rather than hot-spinning) and transient transport
//! failures with exponential backoff and jitter, reconnecting when the
//! stream is poisoned mid-frame. The whole retry loop is additionally
//! capped by [`RetryPolicy::overall`], a client-level deadline on total
//! retry wall time. Backoff sleeps and that deadline run on an
//! injectable [`Clock`] ([`Client::with_clock`]), so tests assert exact
//! delay sequences under a `VirtualClock`.

use crate::core::clock::{system_clock, Clock};
use crate::core::SplitMix64;
use crate::serve::protocol::{self, parse_retry_after, RETRY_AFTER_HINT_MS, STATUS_OVERLOADED};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A blocking connection to one server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    io_timeout: Option<Duration>,
    /// Time source for retry backoff — virtual in tests.
    clock: Arc<dyn Clock>,
    retry: RetryPolicy,
}

/// Backoff policy for [`Client::request_with_retry`]: exponential
/// (doubling from `base`, capped at `cap`, jittered), with an optional
/// overall wall-clock budget across all attempts. A seeded policy
/// produces an exact, reproducible delay sequence — see
/// [`RetryPolicy::preview_delays`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Delay before the first retry; doubles on each further retry.
    pub base: Duration,
    /// Ceiling on any single retry delay.
    pub cap: Duration,
    /// Total wall-clock budget across all attempts, measured on the
    /// client's clock. A retry sleep that would overrun it is never
    /// started. `None` removes the bound.
    pub overall: Option<Duration>,
    /// `Some(seed)` makes the jitter a deterministic SplitMix64
    /// sequence (for tests); `None` uses per-process random state.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(RETRY_AFTER_HINT_MS),
            cap: Duration::from_secs(2),
            overall: Some(Duration::from_secs(60)),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// The exact sleep sequence `request_with_retry(_, max_attempts)`
    /// would execute when every attempt keeps failing and the server's
    /// `retry-after-ms=` hints never exceed the schedule. Exact only
    /// for a seeded policy (`jitter_seed: Some(_)`); with process
    /// randomness the jitter differs per call.
    #[must_use]
    pub fn preview_delays(&self, max_attempts: u32) -> Vec<Duration> {
        let mut jitter = self.jitter_seed.map(SplitMix64);
        let mut delay = self.base;
        let mut out = Vec::new();
        for _ in 1..max_attempts.max(1) {
            out.push(jittered_with(delay, &mut jitter));
            delay = (delay * 2).min(self.cap);
        }
        out
    }
}

/// Default [`Client`] connect timeout.
pub const CLIENT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Default [`Client`] per-read/per-write timeout — generous enough for
/// the slowest zoo compile, bounded enough that a hung server cannot
/// wedge a client forever.
pub const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(120);

impl Client {
    /// Connects to a server with the default bounded timeouts
    /// ([`CLIENT_CONNECT_TIMEOUT`], [`CLIENT_IO_TIMEOUT`]).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_with_timeouts(addr, CLIENT_CONNECT_TIMEOUT, Some(CLIENT_IO_TIMEOUT))
    }

    /// Connects with explicit timeouts. `io_timeout` bounds every read
    /// and write on the connection (`None` blocks forever — only for
    /// tests that deliberately wait).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect_with_timeouts(
        addr: SocketAddr,
        connect_timeout: Duration,
        io_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        // A request-response protocol with multi-segment frames: the
        // tail segment of a large frame must not wait on a delayed ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Ok(Client {
            stream,
            addr,
            io_timeout,
            clock: system_clock(),
            retry: RetryPolicy::default(),
        })
    }

    /// Replaces the client's time source (backoff sleeps and the
    /// overall retry deadline both run on it). Virtual in tests.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Client {
        self.clock = clock;
        self
    }

    /// Replaces the retry/backoff policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Like [`Client::request`], but rides out backpressure and
    /// transient transport failures: [`STATUS_OVERLOADED`] responses
    /// and retryable I/O errors are retried up to `max_attempts` times
    /// under the client's [`RetryPolicy`] — exponential backoff with
    /// jitter, where a *positive* server `retry-after-ms=` hint can
    /// only raise the next delay (a zero hint falls back to the
    /// schedule instead of hot-spinning), and a sleep that would
    /// overrun `RetryPolicy::overall` is never started. An I/O failure
    /// may leave the stream poisoned mid-frame, so each retry
    /// reconnects first.
    ///
    /// Exhausting the attempts (or the overall budget) returns the last
    /// `OVERLOADED` response (so callers still see an honest status
    /// byte).
    ///
    /// # Errors
    ///
    /// Fails when a non-retryable transport error occurs, or when every
    /// attempt failed with a retryable one.
    pub fn request_with_retry(
        &mut self,
        line: &str,
        max_attempts: u32,
    ) -> io::Result<(u8, String)> {
        let started = self.clock.now();
        let mut jitter = self.retry.jitter_seed.map(SplitMix64);
        let mut delay = self.retry.base;
        let mut last = None;
        for attempt in 0..max_attempts.max(1) {
            if attempt > 0 {
                let sleep = jittered_with(delay, &mut jitter);
                if let Some(overall) = self.retry.overall {
                    let spent = self.clock.now().saturating_duration_since(started);
                    if spent + sleep > overall {
                        break;
                    }
                }
                self.clock.sleep(sleep);
                delay = (delay * 2).min(self.retry.cap);
            }
            match self.request(line) {
                Ok((status, payload)) if status == STATUS_OVERLOADED => {
                    // A zero hint must not collapse the schedule into a
                    // hot spin; a positive hint only ever raises it.
                    if let Some(hint) = parse_retry_after(&payload).filter(|&ms| ms > 0) {
                        delay = delay.max(Duration::from_millis(hint));
                    }
                    last = Some(Ok((status, payload)));
                }
                Ok(response) => return Ok(response),
                Err(e) if is_transient(&e) => {
                    // The stream may hold half a frame; a fresh
                    // connection is the only way back to a clean
                    // request boundary.
                    if let Ok(fresh) = Client::connect_with_timeouts(
                        self.addr,
                        CLIENT_CONNECT_TIMEOUT,
                        self.io_timeout,
                    ) {
                        self.stream = fresh.stream;
                    }
                    last = Some(Err(e));
                }
                Err(e) => return Err(e),
            }
        }
        last.unwrap_or_else(|| Err(io::Error::other("request_with_retry made no attempts")))
    }

    /// Sends one request line and reads the `(status, payload)`
    /// response.
    ///
    /// # Errors
    ///
    /// Fails when the transport drops or the server answers with a
    /// malformed frame.
    pub fn request(&mut self, line: &str) -> io::Result<(u8, String)> {
        protocol::write_request(&mut self.stream, line)?;
        self.read_response()
    }

    /// Sends raw bytes on the wire, bypassing framing — for tests that
    /// need to feed the server garbage.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame without sending anything first.
    ///
    /// # Errors
    ///
    /// Fails on EOF or a malformed frame: a declared length above
    /// [`protocol::MAX_FRAME`] or a non-UTF-8 payload is
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_response(&mut self) -> io::Result<(u8, String)> {
        protocol::read_response(&mut self.stream)
    }
}

/// Whether an I/O error is worth retrying on a fresh connection:
/// timeouts, resets, refused connects (a server mid-restart) and
/// truncated frames. Anything else — permission, address errors — is
/// permanent.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Interrupted
    )
}

/// Adds up to +50% jitter to a backoff delay so retrying clients
/// de-synchronize instead of stampeding the queue in lockstep. With a
/// seeded RNG the jitter is a reproducible SplitMix64 sequence; without
/// one the entropy comes from the hasher's per-process random keys — no
/// external RNG dependency either way.
fn jittered_with(base: Duration, rng: &mut Option<SplitMix64>) -> Duration {
    let frac = match rng {
        Some(rng) => (rng.next_u64() % 256) as u32,
        None => {
            use std::hash::{BuildHasher, Hasher};
            let mut h = std::collections::hash_map::RandomState::new().build_hasher();
            h.write_u128(base.as_nanos());
            (h.finish() % 256) as u32
        }
    };
    base + base.mul_f64(f64::from(frac) / 512.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_within_half_the_base_delay() {
        let base = Duration::from_millis(100);
        for seed in 0..64 {
            let unseeded = jittered_with(base, &mut None);
            let seeded = jittered_with(base, &mut Some(SplitMix64(seed)));
            for j in [unseeded, seeded] {
                assert!(j >= base && j <= base + base / 2 + Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn seeded_retry_previews_are_deterministic_and_capped() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
            overall: None,
            jitter_seed: Some(7),
        };
        let a = policy.preview_delays(6);
        let b = policy.preview_delays(6);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5, "one delay per retry, none before attempt 0");
        // Doubling respects the cap (jitter adds at most +50%).
        for (i, d) in a.iter().enumerate() {
            let nominal = Duration::from_millis(10 * (1 << i.min(2)) as u64);
            assert!(*d >= nominal && *d <= nominal + nominal / 2 + Duration::from_millis(1));
        }
    }
}
