//! `pypmc serve` — a long-lived compile session server.
//!
//! The paper's matcher is designed to sit inside a long-running
//! DL-compiler session: patterns loaded once, many graphs compiled.
//! This module keeps that state — warm [`crate::perf::pool::WorkerPool`]
//! threads, per-worker [`Session`] stores, a ruleset cache — alive
//! across requests, turning the one-shot `pypmc compile` into a
//! service. Std-only: a plain TCP accept loop plus a bounded worker
//! queue, no async runtime.
//!
//! ## Protocol
//!
//! Length-prefixed frames over one TCP connection, any number of
//! requests per connection:
//!
//! * **Request**: `u32` little-endian payload length, then that many
//!   bytes of UTF-8 text. Frames above [`MAX_FRAME`] bytes are
//!   rejected (the connection closes — an absurd length means the
//!   stream cannot be resynchronized).
//! * **Response**: one status byte, then a `u32` little-endian payload
//!   length, then the payload.
//!
//! Request grammar (whitespace-separated):
//!
//! ```text
//! ping
//! stats
//! shutdown
//! compile <model> [config=<C>] [policy=<P>] [matcher=<M>] [jobs=<N>]
//!         [timeout_ms=<T>] [step_limit=<S>]
//! ```
//!
//! `C`, `P` and `M` take exactly the `pypmc compile` vocabulary
//! ([`crate::cli_args`]: `baseline|fmha|epilog|both|all` with an
//! optional `+synthN` scaling suffix, `restart|incremental`,
//! `per-pattern|fused` — both spellings are the *same* parser, so the
//! flag and its `key=value` twin can never drift).
//! A successful `compile` responds with the request's
//! `pypm.pipeline.v1` stats JSON — the same document `pypmc compile
//! --stats-json` writes, byte-identical in every semantic counter (the
//! wall-clock fields and the warm-pool reuse counter legitimately
//! differ on a warm server). `stats` responds with a
//! `pypm.serve.stats.v1` JSON document carrying the cache counters.
//!
//! ## The result cache
//!
//! Every worker shares one [`ResultCache`]: before compiling, the
//! request is content-addressed — a [`CacheKey`] over the engine
//! version, the canonical `PYPMWIRE` graph bytes, the rule-set bytes,
//! the library configuration, the sweep policy, the matcher backend
//! and the effective job count — and a hit returns the stored
//! `pypm.pipeline.v1` report verbatim. Jobs and the matcher backend
//! are part of the key because they change the
//! machine-step/backtrack/admission counters; the engine version
//! (`CARGO_PKG_VERSION`) is part of it so a persistent store written
//! by an older build reads as a miss rather than serving a report the
//! current engine would not produce. The cached report is
//! byte-identical to what a cold compile of the same request would
//! produce. With [`ServeConfig::cache_dir`] set (`pypmc serve
//! --cache-dir`), entries also persist as checksummed report
//! containers on disk, so a restarted server keeps hitting;
//! [`ServeConfig::cache_dir_max_bytes`] caps that directory with
//! oldest-first eviction (the `disk_evictions` counter in the `stats`
//! document).
//!
//! ## Status bytes
//!
//! | status | meaning |
//! |---|---|
//! | [`STATUS_OK`] | request served; payload is the response body |
//! | [`STATUS_BAD_REQUEST`] | unparseable/oversized frame; payload explains |
//! | [`STATUS_UNKNOWN_MODEL`] | `compile` named no zoo model |
//! | [`STATUS_OVERLOADED`] | admission control: the bounded queue was full |
//! | [`STATUS_ERROR`] | the compile failed server-side; the server survives |
//! | [`STATUS_SHUTTING_DOWN`] | draining: no new work accepted |
//! | [`STATUS_DEADLINE_EXCEEDED`] | the compile ran out of budget; the worker survives |
//!
//! ## Deadlines
//!
//! `timeout_ms=<T>` (wall clock) and `step_limit=<S>` (abstract-machine
//! steps — deterministic across hosts) attach a cooperative
//! [`Budget`] to one compile; `pypmc serve
//! --request-timeout-ms` / `--step-limit` set server-side defaults a
//! request can override. The budget is checked at every commit-loop
//! node, inside shard workers and during discrimination-tree walks, so
//! an exceeded compile unwinds within a bounded number of machine
//! steps, answers [`STATUS_DEADLINE_EXCEEDED`] (the payload names the
//! exhausted limits), and leaves the worker's session and warm pool
//! fully reusable — the next request on the same worker compiles
//! byte-identically to a cold `pypmc compile`. Budget keys are *not*
//! part of the cache key: a compile that finishes under budget produces
//! the same report any budget would, and an exceeded one is an error
//! and is never cached.
//!
//! ## Virtual time
//!
//! Every time observation in the serve path — budget deadlines, queue
//! admission stamps, idle reaping, retry backoff, injected fault
//! delays — goes through an injectable [`Clock`]
//! ([`ServeConfig::clock`], [`Client::with_clock`]). Production uses
//! the system clock; tests share one `VirtualClock` between server,
//! client and fault registry and advance it manually, so deadline and
//! retry behavior is asserted exactly instead of raced against the
//! host scheduler. OS-level socket timeouts (the write timeout, the
//! idle *poll* interval) remain real: they are liveness backstops, not
//! semantics.
//!
//! ## Transport hardening
//!
//! Server-side connections reap themselves when idle: reads poll on a
//! short OS timeout and compare clock-measured inactivity against
//! [`ServeConfig::idle_timeout_ms`], so leaked client sockets cannot
//! accumulate threads — and a bounded write timeout means a stalled
//! reader cannot wedge a connection thread. [`Client`] uses a bounded
//! `connect_timeout` plus I/O timeouts on every request, and
//! [`Client::request_with_retry`] retries [`STATUS_OVERLOADED`]
//! responses (honoring a *positive* `retry-after-ms=` hint in the
//! payload; a zero hint falls back to the backoff schedule rather than
//! hot-spinning) and transient transport failures with exponential
//! backoff and jitter, reconnecting when the stream is poisoned
//! mid-frame. The whole retry loop is additionally capped by
//! [`RetryPolicy::overall`], a client-level deadline on total retry
//! wall time.
//!
//! ## Backpressure, shedding and shutdown
//!
//! Admission control is a bounded deadline-aware queue: `compile`
//! requests are admitted with a non-blocking reservation stamped with
//! the admission instant and the request's absolute deadline, and a
//! full queue is answered *immediately* with [`STATUS_OVERLOADED`] —
//! the client retries, the server never buffers unboundedly. The
//! `retry-after-ms=` hint in that payload tracks an EWMA of observed
//! service times, so clients back off roughly one service interval
//! instead of a constant.
//!
//! Workers dequeue **earliest-deadline-first** among budgeted requests
//! (unbudgeted ones have an infinite deadline: they run FIFO among
//! themselves, after any budgeted work) and **shed** entries whose
//! deadline already expired while queued: those are answered
//! [`STATUS_DEADLINE_EXCEEDED`] without touching a session — no graph
//! build, no compile. The `shed_in_queue` and `compiles_started`
//! counters in the `stats` document make the distinction observable.
//! Because the worker's budget is anchored at the *admission* instant
//! ([`Budget::deadline_at`]), queue wait also counts against a request
//! that does start compiling: `timeout_ms=` bounds the whole request,
//! not just its compile phase.
//!
//! `shutdown` (or [`Server::shutdown`]) drains gracefully: queued
//! compiles finish and their responses are delivered, new compiles are
//! refused with [`STATUS_SHUTTING_DOWN`], and [`Server::join`] returns
//! once the workers exit.
//!
//! A compile worker survives everything a request can throw at it: a
//! panicking request handler is caught ([`std::panic::catch_unwind`])
//! and answered with [`STATUS_ERROR`], and the worker's session is
//! rebuilt before the next request. Worker-pool task panics inside the
//! parallel match phase surface as clean pass errors (the engine's
//! term-store loan guard restores the session stores), so the same
//! session keeps serving.

use crate::core::clock::{system_clock, Clock};
use crate::core::Budget;
use crate::dsl::LibraryConfig;
use crate::engine::{
    MatcherBackend, ParallelConfig, PassError, Pipeline, RewritePass, Session, SweepPolicy,
};
use crate::perf::pool::WorkerPool;
use crate::wire::cache::{CacheKey, ResultCache};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
/// [`Client::request_with_retry`] starts from.
pub const RETRY_AFTER_HINT_MS: u64 = 25;

/// Ceiling on the EWMA-derived `retry-after-ms=` hint: however slow
/// compiles get, clients are never told to back off more than this.
const RETRY_AFTER_HINT_CAP_MS: u64 = 2_000;

/// Write timeout on server-side connections: a reader that stalls this
/// long mid-response forfeits the connection rather than wedging its
/// thread.
const SERVER_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// OS-level read timeout used as the idle-reap *poll interval*: blocked
/// reads wake this often to compare clock-measured inactivity against
/// [`ServeConfig::idle_timeout_ms`]. Real even under a `VirtualClock` —
/// it bounds how stale an idle check can be, not when reaping happens.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Server configuration: where to listen and how much to admit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Default per-request match-phase worker count (a request's
    /// `jobs=N` wins). `1` compiles serially, like `pypmc compile
    /// --jobs 1`.
    pub jobs: usize,
    /// Compile worker threads — concurrent compiles in flight.
    pub workers: usize,
    /// Bounded admission queue depth: compiles waiting beyond the ones
    /// the workers are already running. `0` is a rendezvous queue —
    /// admit only when a worker is free to take the job.
    pub queue_depth: usize,
    /// In-memory result-cache capacity (entries). `0` with no
    /// [`ServeConfig::cache_dir`] disables the cache entirely.
    pub cache_capacity: usize,
    /// Directory for the persistent result-cache store. `None` keeps
    /// the cache purely in memory.
    pub cache_dir: Option<String>,
    /// Byte cap on the persistent store: after every store, the oldest
    /// disk entries are evicted until the directory fits (`pypmc serve
    /// --cache-dir-max-bytes`). `None` leaves the disk tier unbounded;
    /// ignored without [`ServeConfig::cache_dir`].
    pub cache_dir_max_bytes: Option<u64>,
    /// Default wall-clock budget per compile, in milliseconds (`pypmc
    /// serve --request-timeout-ms`). A request's own `timeout_ms=`
    /// wins. `None` leaves compiles unbounded by default.
    pub request_timeout_ms: Option<u64>,
    /// Default abstract-machine step cap per compile (`pypmc serve
    /// --step-limit`) — a deterministic budget, unlike wall clock. A
    /// request's own `step_limit=` wins. `None` is uncapped.
    pub step_limit: Option<u64>,
    /// Reap a connection idle between request frames for this long, in
    /// milliseconds (measured on [`ServeConfig::clock`]). `None` keeps
    /// idle connections forever.
    pub idle_timeout_ms: Option<u64>,
    /// The clock every server-side time observation goes through:
    /// budget deadlines, queue admission stamps, idle reaping, service
    /// EWMA. Defaults to the system clock; tests inject a shared
    /// `VirtualClock` for deterministic deadline/shedding assertions.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: crate::perf::parallel::available_jobs(),
            workers: 2,
            queue_depth: 16,
            cache_capacity: 128,
            cache_dir: None,
            cache_dir_max_bytes: None,
            request_timeout_ms: None,
            step_limit: None,
            idle_timeout_ms: Some(300_000),
            clock: system_clock(),
        }
    }
}

/// A parsed `compile` request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CompileRequest {
    model: String,
    config: LibraryConfig,
    policy: SweepPolicy,
    matcher: MatcherBackend,
    jobs: Option<usize>,
    timeout_ms: Option<u64>,
    step_limit: Option<u64>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Request {
    Ping,
    Stats,
    Shutdown,
    Compile(CompileRequest),
}

/// Parses one request line against the grammar in the module docs.
fn parse_request(line: &str) -> Result<Request, String> {
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
                policy: SweepPolicy::default(),
                matcher: MatcherBackend::default(),
                jobs: None,
                timeout_ms: None,
                step_limit: None,
            };
            for word in words {
                let Some((key, value)) = word.split_once('=') else {
                    return Err(format!("expected key=value, got '{word}'"));
                };
                match key {
                    "config" => {
                        req.config = crate::cli_args::lib_config(value)
                            .ok_or_else(|| format!("unknown config {value}"))?;
                    }
                    "policy" => {
                        req.policy = crate::cli_args::parse_policy(value)?;
                    }
                    "matcher" => {
                        req.matcher = crate::cli_args::parse_matcher(value)?;
                    }
                    "jobs" => {
                        req.jobs = Some(
                            crate::perf::parallel::parse_jobs(value)
                                .map_err(|e| format!("invalid jobs={value}: {e}"))?,
                        );
                    }
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

/// Server-side default budget limits, applied when a request carries no
/// `timeout_ms=`/`step_limit=` of its own.
#[derive(Debug, Clone, Copy, Default)]
struct BudgetDefaults {
    timeout_ms: Option<u64>,
    step_limit: Option<u64>,
}

/// One admitted compile, stamped for deadline-aware scheduling.
struct QueueEntry {
    req: CompileRequest,
    reply: mpsc::Sender<(u8, String)>,
    /// When admission control accepted this request.
    admitted_at: Instant,
    /// The request's absolute deadline (`admitted_at` + its effective
    /// `timeout_ms`), if it has one. Drives both the EDF dequeue order
    /// and queue-time shedding.
    deadline: Option<Instant>,
    /// Admission order — the FIFO tiebreak.
    seq: u64,
}

/// What a worker pulled off the queue.
enum Popped {
    Entry(QueueEntry),
    /// Drain: the worker should exit. Delivered only after every
    /// admitted entry has been dequeued.
    Poison,
}

/// Why admission was refused.
enum AdmitError {
    /// The bounded queue is full — answer [`STATUS_OVERLOADED`].
    Full,
    /// The server is draining — answer [`STATUS_SHUTTING_DOWN`].
    Closed,
}

struct QueueInner {
    /// Admitted entries in admission order. Selection is an O(n) scan —
    /// the queue is bounded and small, and EDF needs no heap at this
    /// size.
    entries: Vec<QueueEntry>,
    /// Workers currently blocked in [`JobQueue::pop`]. Admission
    /// capacity is `depth + waiting`: with `depth == 0` that is exactly
    /// the old rendezvous contract — admit only when a worker is free.
    waiting: usize,
    /// Outstanding drain tokens; delivered only once `entries` is dry.
    poison: usize,
    /// Set on drain: every further admission is refused.
    closed: bool,
    next_seq: u64,
}

/// The bounded, deadline-aware admission queue that replaced the plain
/// `sync_channel`. Admission is non-blocking (full ⇒ the caller answers
/// OVERLOADED immediately); dequeue is earliest-deadline-first among
/// budgeted entries, FIFO among unbudgeted ones (an absent deadline
/// sorts as infinity, so budgeted work always goes first — it is the
/// work that can still be lost to time).
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                entries: Vec::new(),
                waiting: 0,
                poison: 0,
                closed: false,
                next_seq: 0,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Non-blocking admission: accepts iff the server is not draining
    /// and the queue holds fewer entries than `depth` plus the number
    /// of workers already blocked waiting for work.
    fn try_admit(
        &self,
        req: CompileRequest,
        reply: mpsc::Sender<(u8, String)>,
        admitted_at: Instant,
        deadline: Option<Instant>,
    ) -> Result<(), AdmitError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(AdmitError::Closed);
        }
        if inner.entries.len() >= self.depth + inner.waiting {
            return Err(AdmitError::Full);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.entries.push(QueueEntry {
            req,
            reply,
            admitted_at,
            deadline,
            seq,
        });
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an entry (EDF order) or a drain token is available.
    /// Entries always win over poison, so a drain delivers every
    /// admitted response before the workers exit.
    fn pop(&self) -> Popped {
        let mut inner = self.lock();
        loop {
            if let Some(i) = Self::select(&inner.entries) {
                return Popped::Entry(inner.entries.remove(i));
            }
            if inner.poison > 0 {
                inner.poison -= 1;
                return Popped::Poison;
            }
            inner.waiting += 1;
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
            inner.waiting -= 1;
        }
    }

    /// The index to dequeue next: the budgeted entry with the earliest
    /// `(deadline, seq)`, else the longest-queued unbudgeted entry.
    fn select(entries: &[QueueEntry]) -> Option<usize> {
        let mut best: Option<(usize, Instant, u64)> = None;
        let mut first_unbudgeted: Option<usize> = None;
        for (i, e) in entries.iter().enumerate() {
            match e.deadline {
                Some(d) => {
                    if best.map_or(true, |(_, bd, bs)| (d, e.seq) < (bd, bs)) {
                        best = Some((i, d, e.seq));
                    }
                }
                None => {
                    if first_unbudgeted.is_none() {
                        first_unbudgeted = Some(i);
                    }
                }
            }
        }
        best.map(|(i, _, _)| i).or(first_unbudgeted)
    }

    /// Starts the drain: refuses every further admission and leaves one
    /// poison token per worker behind the already-admitted entries.
    fn close_and_poison(&self, workers: usize) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.poison += workers;
        drop(inner);
        self.ready.notify_all();
    }
}

/// Load and shedding counters shared between admission control, the
/// workers and the `stats` verb.
#[derive(Debug, Default)]
struct Counters {
    /// Requests a worker began serving (cache probe or compile). A
    /// request shed in the queue never increments this.
    compiles_started: AtomicU64,
    /// Requests answered [`STATUS_DEADLINE_EXCEEDED`] at dequeue, with
    /// no session touched, because their deadline passed while queued.
    shed_in_queue: AtomicU64,
    /// EWMA of observed service times, in microseconds (α = 1/4). Zero
    /// until the first service completes. Feeds the `retry-after-ms=`
    /// hint in [`STATUS_OVERLOADED`] payloads.
    service_ewma_us: AtomicU64,
}

impl Counters {
    /// Folds one observed service time into the EWMA. The
    /// read-modify-write races benignly under concurrency — the EWMA is
    /// a load hint, not an invariant.
    fn record_service(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        let old = self.service_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            (3 * old + sample) / 4
        };
        self.service_ewma_us.store(new, Ordering::Relaxed);
    }

    /// The backoff hint for OVERLOADED payloads: roughly one EWMA
    /// service time, clamped to `1..=`[`RETRY_AFTER_HINT_CAP_MS`] so it
    /// is never zero (a zero hint would invite a hot spin) and never
    /// absurd. [`RETRY_AFTER_HINT_MS`] until the first service time is
    /// observed.
    fn retry_after_hint_ms(&self) -> u64 {
        match self.service_ewma_us.load(Ordering::Relaxed) {
            0 => RETRY_AFTER_HINT_MS,
            us => (us / 1_000).clamp(1, RETRY_AFTER_HINT_CAP_MS),
        }
    }
}

/// The state one compile worker keeps warm across requests: its own
/// session stores (rebuilt only after a caught handler panic) and one
/// persistent worker pool for parallel match phases.
struct WorkerState {
    session: Session,
    pool: Option<Arc<WorkerPool>>,
    default_jobs: usize,
    defaults: BudgetDefaults,
    cache: Arc<ResultCache>,
    clock: Arc<dyn Clock>,
    counters: Arc<Counters>,
    /// Request determinants → content hash. The zoo builders are pure,
    /// so the canonical graph/ruleset bytes — and therefore the cache
    /// key — are a function of (model, config, policy, matcher, jobs);
    /// once a worker has hashed a request's content it never rebuilds
    /// the graph just to rediscover the same key.
    key_memo: HashMap<(String, LibraryConfig, &'static str, &'static str, usize), CacheKey>,
}

impl WorkerState {
    fn new(
        default_jobs: usize,
        defaults: BudgetDefaults,
        cache: Arc<ResultCache>,
        clock: Arc<dyn Clock>,
        counters: Arc<Counters>,
    ) -> Self {
        WorkerState {
            session: Session::new(),
            pool: None,
            default_jobs,
            defaults,
            cache,
            clock,
            counters,
            key_memo: HashMap::new(),
        }
    }

    /// The worker's warm pool, created on the first parallel request
    /// with `jobs - 1` threads (shard 0 of every warm phase runs on
    /// the compile worker itself — the same sizing `pypmc compile`
    /// uses).
    fn pool(&mut self, jobs: usize) -> Arc<WorkerPool> {
        Arc::clone(
            self.pool
                .get_or_insert_with(|| Arc::new(WorkerPool::new(jobs.max(2) - 1))),
        )
    }

    /// Serves one compile: exactly the `pypmc compile` pipeline over
    /// this worker's long-lived session. Returns the request's
    /// `pypm.pipeline.v1` JSON. `deadline` is the absolute deadline
    /// stamped at admission: the budget is anchored there, so queue
    /// wait already spent part of it, and *every* phase — graph build,
    /// wire encode, the rewrite pipeline, report rendering — charges
    /// against one whole-request budget.
    fn compile(
        &mut self,
        req: &CompileRequest,
        deadline: Option<Instant>,
    ) -> Result<String, (u8, String)> {
        self.counters
            .compiles_started
            .fetch_add(1, Ordering::Relaxed);
        // Failpoint: `serve.compile` fires once per request a worker
        // actually serves — `delay:ms` stalls the worker on the fault
        // clock (how tests pin a worker while shedding is observed
        // behind it), `io`/`torn` fail the request, `panic` exercises
        // the session-rebuild path.
        match pypm_faults::sleep_if_delayed("serve.compile") {
            Some(pypm_faults::Action::Panic) => {
                panic!("failpoint serve.compile: injected panic")
            }
            Some(pypm_faults::Action::Io) | Some(pypm_faults::Action::Torn) => {
                return Err((
                    STATUS_ERROR,
                    "failpoint serve.compile: injected failure".to_owned(),
                ));
            }
            Some(pypm_faults::Action::Delay(_)) | None => {}
        }
        let jobs = req.jobs.unwrap_or(self.default_jobs).max(1);
        // The cooperative whole-request budget: request keys win over
        // the server defaults. Deliberately *not* part of the cache
        // key — a compile that finishes under budget produces the
        // report any budget would, and an exceeded one errors and is
        // never cached.
        let timeout_ms = req.timeout_ms.or(self.defaults.timeout_ms);
        let step_limit = req.step_limit.or(self.defaults.step_limit);
        let budget = (timeout_ms.is_some() || step_limit.is_some()).then(|| {
            let mut budget = Budget::with_clock(
                timeout_ms.map(Duration::from_millis),
                step_limit,
                Arc::clone(&self.clock),
            );
            if let Some(deadline) = deadline {
                budget = budget.deadline_at(deadline);
            }
            Arc::new(budget)
        });
        let over_budget = |b: &Budget| {
            (
                STATUS_DEADLINE_EXCEEDED,
                format!(
                    "compile budget exceeded ({}); the worker is ready for the next request",
                    b.describe()
                ),
            )
        };
        // Repeat requests skip the build entirely: the memo maps the
        // request determinants to the content hash this worker already
        // computed, so a warm hit costs one LRU probe and never touches
        // the graph builder. A memoized *miss* (the entry was evicted)
        // falls through to recompile without probing again — the
        // recomputed key is the same hash of the same bytes.
        let memo = (
            req.model.clone(),
            req.config,
            req.policy.name(),
            req.matcher.name(),
            jobs,
        );
        let mut probed = false;
        if self.cache.is_enabled() {
            if let Some(key) = self.key_memo.get(&memo) {
                if let Some(report) = self.cache.get(*key) {
                    return Ok(report);
                }
                probed = true;
            }
        }
        let Some(mut graph) = crate::build_model(&mut self.session, &req.model) else {
            return Err((
                STATUS_UNKNOWN_MODEL,
                format!("unknown model {}; try `pypmc list-models`", req.model),
            ));
        };
        // Whole-request coverage: the graph build charges one step per
        // live node, so a deadline that expired during the build is
        // caught here instead of surviving into the match phase.
        if let Some(b) = budget.as_deref() {
            if !b.charge(graph.live_count() as u64) {
                return Err(over_budget(b));
            }
        }
        let rules = self.session.load_library_cached(req.config);
        // Content-address the request: the canonical graph bytes plus
        // everything else that shapes the report. Jobs and the matcher
        // backend are in the key because they change the
        // machine-step/backtrack/admission counters; the engine version
        // is in it so a persistent store outliving this binary (an
        // upgraded server over an old --cache-dir) misses instead of
        // replaying a stale report. Both encodes charge the budget —
        // the graph codec per node, the rule-set bytes per 64-byte
        // chunk — so key construction cannot outlive the deadline
        // unbudgeted.
        let key = if self.cache.is_enabled() {
            let graph_bytes =
                crate::wire::encode_graph_budgeted(&graph, &self.session.syms, budget.as_deref())
                    .map_err(|_| over_budget(budget.as_deref().expect("only a budget errs")))?;
            let ruleset_bytes =
                crate::wire::encode_ruleset(&rules, &self.session.syms, &self.session.pats);
            if let Some(b) = budget.as_deref() {
                if !b.charge(ruleset_bytes.len() as u64 / 64 + 1) {
                    return Err(over_budget(b));
                }
            }
            let key = CacheKey::of(&[
                b"pypm.serve.compile.v1",
                env!("CARGO_PKG_VERSION").as_bytes(),
                &graph_bytes,
                &ruleset_bytes,
                format!("{:?}", req.config).as_bytes(),
                req.policy.name().as_bytes(),
                req.matcher.name().as_bytes(),
                &(jobs as u64).to_le_bytes(),
            ]);
            self.key_memo.insert(memo, key);
            Some(key)
        } else {
            None
        };
        if let Some(key) = key {
            if !probed {
                if let Some(report) = self.cache.get(key) {
                    return Ok(report);
                }
            }
        }
        // Serial requests never touch a pool (the `--jobs 1`
        // contract); parallel ones share this worker's warm one.
        let pool = (jobs > 1).then(|| self.pool(jobs));
        let mut pipeline =
            Pipeline::new(&mut self.session).parallelism(ParallelConfig::with_jobs(jobs));
        if let Some(pool) = pool {
            pipeline = pipeline.with_pool(pool);
        }
        if let Some(b) = &budget {
            pipeline = pipeline.with_budget(Arc::clone(b));
        }
        if !rules.is_empty() {
            pipeline = pipeline.with(
                RewritePass::new(rules)
                    .policy(req.policy)
                    .matcher(req.matcher),
            );
        }
        let reports = pipeline
            .run_batch(std::slice::from_mut(&mut graph))
            .map_err(|e| match &e.error {
                PassError::BudgetExceeded { limits } => (
                    STATUS_DEADLINE_EXCEEDED,
                    format!("compile budget exceeded ({limits}); the worker is ready for the next request"),
                ),
                _ => (STATUS_ERROR, format!("rewrite pass failed: {e}")),
            })?;
        let report = reports[0].to_json();
        // Report rendering is the last unbudgeted edge: charge it (per
        // 64-byte chunk) so DEADLINE_EXCEEDED is a whole-request
        // guarantee, and never cache a report whose budget tripped.
        if let Some(b) = budget.as_deref() {
            if !b.charge(report.len() as u64 / 64 + 1) {
                return Err(over_budget(b));
            }
        }
        if let Some(key) = key {
            self.cache.put(key, &report);
        }
        Ok(report)
    }
}

/// The compile-worker loop: pull admitted jobs off the shared queue
/// until poisoned. A panicking handler is caught and reported as
/// [`STATUS_ERROR`]; the session is rebuilt before the next job so one
/// poisoned request can never corrupt later ones.
///
/// Before touching a session the worker sheds any dequeued entry whose
/// deadline already passed while it sat in the queue: the client gets
/// [`STATUS_DEADLINE_EXCEEDED`] without a compile ever starting, which
/// is both cheaper and more honest than compiling a result nobody is
/// still waiting for.
fn worker_loop(
    queue: Arc<JobQueue>,
    default_jobs: usize,
    defaults: BudgetDefaults,
    cache: Arc<ResultCache>,
    clock: Arc<dyn Clock>,
    counters: Arc<Counters>,
) {
    let mut state = WorkerState::new(
        default_jobs,
        defaults,
        cache,
        Arc::clone(&clock),
        Arc::clone(&counters),
    );
    loop {
        let entry = match queue.pop() {
            Popped::Entry(entry) => entry,
            Popped::Poison => return,
        };
        // Queue-time shedding: expired-in-queue requests never reach a
        // session. `compiles_started` stays untouched, which is what
        // the shed tests assert on.
        if let Some(deadline) = entry.deadline {
            let now = clock.now();
            if now >= deadline {
                counters.shed_in_queue.fetch_add(1, Ordering::Relaxed);
                let timeout_ms = entry
                    .req
                    .timeout_ms
                    .or(defaults.timeout_ms)
                    .unwrap_or_default();
                let queued_ms = now.saturating_duration_since(entry.admitted_at).as_millis();
                let _ = entry.reply.send((
                    STATUS_DEADLINE_EXCEEDED,
                    format!(
                        "deadline expired while queued (timeout_ms={timeout_ms}, \
                         queued_ms={queued_ms}); the compile was shed before it started"
                    ),
                ));
                continue;
            }
        }
        let started = clock.now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            state.compile(&entry.req, entry.deadline)
        }));
        let response = match outcome {
            Ok(Ok(json)) => {
                // Only successful compiles feed the EWMA: errors are
                // usually fast rejections and would bias the
                // retry-after hint toward hot spinning.
                counters.record_service(clock.now().saturating_duration_since(started));
                (STATUS_OK, json)
            }
            Ok(Err(err)) => err,
            Err(_) => {
                state = WorkerState::new(
                    default_jobs,
                    defaults,
                    Arc::clone(&state.cache),
                    Arc::clone(&clock),
                    Arc::clone(&counters),
                );
                (
                    STATUS_ERROR,
                    "request handler panicked; session rebuilt".to_owned(),
                )
            }
        };
        // A vanished client is its own problem.
        let _ = entry.reply.send(response);
    }
}

/// State shared between the accept loop, connection threads and
/// [`Server`].
struct Shared {
    queue: Arc<JobQueue>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    cache: Arc<ResultCache>,
    /// The server's time source; virtual in tests, system in prod.
    clock: Arc<dyn Clock>,
    /// Worker-side counters (shedding, EWMA) surfaced via `stats`.
    counters: Arc<Counters>,
    /// Server-default budget keys; needed at admission to stamp the
    /// request deadline before a worker ever sees the entry.
    defaults: BudgetDefaults,
    /// When the server came up — the `stats` verb's `uptime_ms`.
    started: Instant,
    /// Compiles admitted through the queue and not yet answered.
    in_flight: AtomicU64,
    /// Compiles that exhausted their budget since startup (whether
    /// mid-compile or shed while queued).
    deadline_exceeded: AtomicU64,
    /// Server-side inactivity limit between request frames, when any.
    /// Enforced against `clock`, polled at [`IDLE_POLL`] granularity.
    idle_timeout: Option<Duration>,
}

impl Shared {
    /// Flips the drain flag and wakes the blocking accept loop with a
    /// throwaway self-connection. Idempotent.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running compile server. Bind with [`Server::bind`], discover the
/// actual port with [`Server::addr`], stop with a `shutdown` request
/// (or [`Server::shutdown`]) followed by [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop plus
    /// `config.workers` compile workers.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(JobQueue::new(config.queue_depth));
        let counters = Arc::new(Counters::default());
        let clock = Arc::clone(&config.clock);
        let cache = Arc::new(match &config.cache_dir {
            Some(dir) => {
                let cache = ResultCache::persistent(config.cache_capacity, dir)?;
                match config.cache_dir_max_bytes {
                    Some(max_bytes) => cache.with_dir_max_bytes(max_bytes),
                    None => cache,
                }
            }
            None => ResultCache::in_memory(config.cache_capacity),
        });
        let defaults = BudgetDefaults {
            timeout_ms: config.request_timeout_ms,
            step_limit: config.step_limit,
        };
        let shared = Arc::new(Shared {
            queue: Arc::clone(&queue),
            shutting_down: AtomicBool::new(false),
            addr,
            cache: Arc::clone(&cache),
            clock: Arc::clone(&clock),
            counters: Arc::clone(&counters),
            defaults,
            started: clock.now(),
            in_flight: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            idle_timeout: config.idle_timeout_ms.map(Duration::from_millis),
        });
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let jobs = config.jobs.max(1);
                let cache = Arc::clone(&cache);
                let clock = Arc::clone(&clock);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    worker_loop(queue, jobs, defaults, cache, clock, counters)
                })
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let worker_count = workers.len();
            std::thread::spawn(move || accept_loop(listener, shared, worker_count))
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (the resolved port when the config said 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts a graceful drain, exactly like a client `shutdown`
    /// request: queued compiles finish, new ones are refused.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Waits for the accept loop and every compile worker to exit —
    /// i.e. for a drain started by [`Server::shutdown`] or a client's
    /// `shutdown` request to complete.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The accept loop: one thread per connection (admission control
/// bounds *compiles*, not idle connections). On shutdown it stops
/// accepting and poisons the queue behind any still-queued work, so
/// workers drain in order and then exit.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, worker_count: usize) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        // Transport hardening: when an idle limit is configured the OS
        // read timeout becomes a short poll tick, and the *actual*
        // inactivity comparison happens against `shared.clock` inside
        // `read_frame` — which is what lets tests reap idle
        // connections under a virtual clock. A reader stalled
        // mid-response still cannot hold its connection thread past
        // the (OS-level) write timeout.
        let _ = stream.set_read_timeout(shared.idle_timeout.map(|_| IDLE_POLL));
        let _ = stream.set_write_timeout(Some(SERVER_WRITE_TIMEOUT));
        let shared = Arc::clone(&shared);
        // Detached on purpose: an idle connection must not block the
        // drain. Its compiles are either already queued (they finish)
        // or refused with STATUS_SHUTTING_DOWN.
        std::thread::spawn(move || handle_connection(stream, &shared));
    }
    // Close admission, then poison the queue *behind* every already
    // admitted job: workers drain in order and then exit.
    shared.queue.close_and_poison(worker_count);
}

/// Serves one connection: frames in, responses out, until EOF or an
/// unrecoverable framing error.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let mut idle = IdleWatch::new(shared);
    loop {
        let payload = match read_frame(&mut stream, &mut idle) {
            Ok(Some(payload)) => payload,
            // EOF between frames: the client is done.
            Ok(None) => return,
            Err(FrameError::TooLarge(n)) => {
                let msg = format!("frame of {n} bytes exceeds the {MAX_FRAME} byte limit");
                let _ = write_response(&mut stream, STATUS_BAD_REQUEST, msg.as_bytes());
                return;
            }
            // Truncated frame or transport error: nothing sane to say.
            Err(FrameError::Io) => return,
        };
        let response = match std::str::from_utf8(&payload) {
            Err(_) => (STATUS_BAD_REQUEST, "request is not UTF-8".to_owned()),
            Ok(text) => match parse_request(text) {
                Err(e) => (STATUS_BAD_REQUEST, e),
                Ok(Request::Ping) => (STATUS_OK, "pong".to_owned()),
                Ok(Request::Stats) => (
                    STATUS_OK,
                    format!(
                        "{{\"schema\": \"pypm.serve.stats.v1\", \"uptime_ms\": {}, \
                         \"in_flight\": {}, \"deadline_exceeded\": {}, \
                         \"compiles_started\": {}, \"shed_in_queue\": {}, \
                         \"service_ewma_us\": {}, \"cache\": {}}}",
                        shared
                            .clock
                            .now()
                            .saturating_duration_since(shared.started)
                            .as_millis(),
                        shared.in_flight.load(Ordering::Relaxed),
                        shared.deadline_exceeded.load(Ordering::Relaxed),
                        shared.counters.compiles_started.load(Ordering::Relaxed),
                        shared.counters.shed_in_queue.load(Ordering::Relaxed),
                        shared.counters.service_ewma_us.load(Ordering::Relaxed),
                        shared.cache.stats_json()
                    ),
                ),
                Ok(Request::Shutdown) => {
                    // Acknowledge *before* starting the drain: once the
                    // drain finishes the process may exit, and exit
                    // kills this detached thread — possibly before a
                    // post-drain write ever reaches the socket.
                    let _ = write_response(&mut stream, STATUS_OK, b"draining");
                    shared.initiate_shutdown();
                    return;
                }
                Ok(Request::Compile(req)) => serve_compile(shared, req),
            },
        };
        if write_response(&mut stream, response.0, response.1.as_bytes()).is_err() {
            return;
        }
    }
}

/// Admits one compile through the bounded queue and waits for its
/// result. Refusals (overload, drain) are immediate.
///
/// The whole-request deadline is stamped *here*, at admission: queue
/// wait, wire decode, compile and report render all charge against the
/// same absolute instant, so a request cannot launder queue time into
/// extra compile time.
fn serve_compile(shared: &Shared, req: CompileRequest) -> (u8, String) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return (STATUS_SHUTTING_DOWN, "server is draining".to_owned());
    }
    let admitted_at = shared.clock.now();
    let deadline = req
        .timeout_ms
        .or(shared.defaults.timeout_ms)
        .map(|ms| admitted_at + Duration::from_millis(ms));
    let (reply, result) = mpsc::channel();
    match shared.queue.try_admit(req, reply, admitted_at, deadline) {
        Err(AdmitError::Full) => (
            STATUS_OVERLOADED,
            format!(
                "compile queue is full; retry-after-ms={}",
                shared.counters.retry_after_hint_ms()
            ),
        ),
        Err(AdmitError::Closed) => (STATUS_SHUTTING_DOWN, "server is draining".to_owned()),
        Ok(()) => {
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            let response = match result.recv() {
                Ok(response) => response,
                Err(_) => (
                    STATUS_SHUTTING_DOWN,
                    "server shut down before the compile ran".to_owned(),
                ),
            };
            shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            if response.0 == STATUS_DEADLINE_EXCEEDED {
                shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            response
        }
    }
}

/// A framing failure: unrecoverable transport errors, or a declared
/// length the server refuses to buffer.
enum FrameError {
    /// The transport dropped or the frame was truncated; the error
    /// itself is unreportable (the stream is gone), so it is not kept.
    Io,
    TooLarge(usize),
}

impl From<io::Error> for FrameError {
    fn from(_: io::Error) -> Self {
        FrameError::Io
    }
}

/// Tracks connection inactivity against the server clock. When an idle
/// timeout is configured the OS-level read timeout is only a short poll
/// tick ([`IDLE_POLL`]); the actual reap decision compares
/// clock-measured inactivity against the configured limit, which is how
/// tests reap idle connections under a [`VirtualClock`]
/// (`crate::core::VirtualClock`) without waiting wall time.
///
/// One watch lives per *connection*, not per frame: the anchor is the
/// arrival of the last request byte, so time advanced while the
/// connection sat between frames counts as inactivity no matter which
/// call observes it.
struct IdleWatch<'a> {
    shared: &'a Shared,
    last_activity: Instant,
}

impl<'a> IdleWatch<'a> {
    fn new(shared: &'a Shared) -> IdleWatch<'a> {
        IdleWatch {
            shared,
            last_activity: shared.clock.now(),
        }
    }

    /// Any bytes arrived: the connection is live again.
    fn touch(&mut self) {
        self.last_activity = self.shared.clock.now();
    }

    /// Classifies a read error: `Ok(())` means it was a poll tick and
    /// the idle allowance has not run out (the caller retries the
    /// read); `Err` means a real transport error or an idle expiry (the
    /// caller reaps the connection).
    fn tick(&self, e: &io::Error) -> Result<(), FrameError> {
        let polling = matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        match (polling, self.shared.idle_timeout) {
            (true, Some(limit))
                if self
                    .shared
                    .clock
                    .now()
                    .saturating_duration_since(self.last_activity)
                    < limit =>
            {
                Ok(())
            }
            _ => Err(FrameError::Io),
        }
    }
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean EOF *between*
/// frames; EOF mid-frame is an error (truncated frame).
///
/// Failpoint: `frame.read` fires once per frame-read attempt — `io` and
/// `torn` drop the connection, `panic` unwinds the connection thread,
/// `delay:ms` stalls on the fault clock before the read.
fn read_frame(
    stream: &mut TcpStream,
    idle: &mut IdleWatch<'_>,
) -> Result<Option<Vec<u8>>, FrameError> {
    match pypm_faults::sleep_if_delayed("frame.read") {
        Some(pypm_faults::Action::Panic) => panic!("failpoint frame.read: injected panic"),
        Some(pypm_faults::Action::Io) | Some(pypm_faults::Action::Torn) => {
            return Err(FrameError::Io)
        }
        Some(pypm_faults::Action::Delay(_)) | None => {}
    }
    let mut len = [0u8; 4];
    let mut have = 0;
    while have < 4 {
        match stream.read(&mut len[have..]) {
            Ok(0) if have == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Io),
            Ok(got) => {
                have += got;
                idle.touch();
            }
            Err(e) => idle.tick(&e)?,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Io),
            Ok(got) => {
                filled += got;
                idle.touch();
            }
            Err(e) => idle.tick(&e)?,
        }
    }
    Ok(Some(payload))
}

/// Writes one `status + u32 length + payload` response frame as a
/// single buffered write: three small writes would interact with
/// Nagle's algorithm and delayed ACKs to add ~40 ms per response.
///
/// Failpoint: `frame.write` fires once per response — `io` and `torn`
/// fail the write (the connection thread exits; the client sees a dead
/// socket and retries), `panic` unwinds the connection thread,
/// `delay:ms` stalls on the fault clock before the write.
fn write_response(stream: &mut TcpStream, status: u8, payload: &[u8]) -> io::Result<()> {
    match pypm_faults::sleep_if_delayed("frame.write") {
        Some(pypm_faults::Action::Panic) => panic!("failpoint frame.write: injected panic"),
        Some(pypm_faults::Action::Io) | Some(pypm_faults::Action::Torn) => {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "failpoint frame.write: injected write failure",
            ));
        }
        Some(pypm_faults::Action::Delay(_)) | None => {}
    }
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.push(status);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// A minimal blocking client speaking the serve protocol — the load
/// generator (`serve_bench`) and the test suites drive servers through
/// it, and it doubles as reference client code.
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

/// SplitMix64 — tiny, seedable, state-is-one-u64. Used for
/// deterministic retry jitter so tests can pin exact delay sequences.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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
        // One buffered write per request frame — split writes would
        // stall on Nagle + delayed ACK (~40 ms each).
        let mut frame = Vec::with_capacity(4 + line.len());
        frame.extend_from_slice(&(line.len() as u32).to_le_bytes());
        frame.extend_from_slice(line.as_bytes());
        self.stream.write_all(&frame)?;
        self.stream.flush()?;
        let mut status = [0u8; 1];
        self.stream.read_exact(&mut status)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame too large",
            ));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        let payload = String::from_utf8(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response not UTF-8"))?;
        Ok((status[0], payload))
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
    /// Fails on EOF or a malformed frame.
    pub fn read_response(&mut self) -> io::Result<(u8, String)> {
        let mut status = [0u8; 1];
        self.stream.read_exact(&mut status)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        let mut payload = vec![0u8; len.min(MAX_FRAME)];
        self.stream.read_exact(&mut payload)?;
        Ok((status[0], String::from_utf8_lossy(&payload).into_owned()))
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
        Some(rng) => (rng.next() % 256) as u32,
        None => {
            use std::hash::{BuildHasher, Hasher};
            let mut h = std::collections::hash_map::RandomState::new().build_hasher();
            h.write_u128(base.as_nanos());
            (h.finish() % 256) as u32
        }
    };
    base + base.mul_f64(f64::from(frac) / 512.0)
}

/// Extracts the `retry-after-ms=<N>` hint from an OVERLOADED payload.
fn parse_retry_after(payload: &str) -> Option<u64> {
    let (_, rest) = payload.split_once("retry-after-ms=")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

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
                policy: SweepPolicy::Incremental,
                matcher: MatcherBackend::Fused,
                jobs: None,
                timeout_ms: None,
                step_limit: None,
            }))
        );
        assert_eq!(
            parse_request(
                "compile vgg11 config=all+synth39 policy=restart matcher=per-pattern jobs=4 \
                 timeout_ms=250 step_limit=100000"
            ),
            Ok(Request::Compile(CompileRequest {
                model: "vgg11".to_owned(),
                config: LibraryConfig::all().with_synth(39),
                policy: SweepPolicy::RestartOnRewrite,
                matcher: MatcherBackend::PerPattern,
                jobs: Some(4),
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
        assert!(parse_request("compile m config=all+synthX").is_err());
        assert!(parse_request("compile m policy=bogus").is_err());
        assert!(parse_request("compile m policy=continue")
            .unwrap_err()
            .contains("restart|incremental"));
        assert!(parse_request("compile m matcher=bogus").is_err());
        assert!(parse_request("compile m jobs=0").is_err());
        assert!(parse_request("compile m jobs=four").is_err());
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
    }

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

    #[test]
    fn edf_select_prefers_earliest_deadline_then_fifo() {
        let clock = system_clock();
        let now = clock.now();
        let entry = |deadline: Option<Instant>, seq: u64| QueueEntry {
            req: CompileRequest {
                model: "m".to_owned(),
                config: LibraryConfig::both(),
                policy: SweepPolicy::RestartOnRewrite,
                matcher: MatcherBackend::Fused,
                jobs: None,
                timeout_ms: None,
                step_limit: None,
            },
            reply: mpsc::channel().0,
            admitted_at: now,
            deadline,
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
}
