//! The transport: listener, accept loop, one thread per connection,
//! the cache probe for a request the server has keyed before, admission
//! into the queue for everything else, the `stats` document and the
//! drain. A connection thread laps its own stages of every compile
//! request — frame read, cache probe, queue wait, reply wake, frame
//! write — on the server clock, splitting its wait for a worker by the
//! two stamps the reply carries.

use super::protocol::{
    self, overloaded_payload, parse_request, CompileRequest, Idle, Request, STATUS_BAD_REQUEST,
    STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use super::queue::{AdmitError, JobQueue, Reply};
use super::worker::{worker_loop, BudgetDefaults, Counters, KeyMemo, WorkerContext};
use crate::core::clock::{system_clock, Clock};
use crate::core::json::{Layout, Writer};
use crate::core::{Stage, Stages};
use crate::wire::cache::ResultCache;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// State shared between the accept loop, connection threads and
/// [`Server`].
struct Shared {
    queue: Arc<JobQueue>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    /// What the workers share, read here too: the clock (virtual in
    /// tests, system in prod), the cache and the key memo a connection
    /// thread answers hits from, the counters the `stats` verb
    /// surfaces, and the server-default budget keys — needed at
    /// admission to stamp the request deadline before a worker ever
    /// sees the entry.
    cx: WorkerContext,
    /// When the server came up — the `stats` verb's `uptime_ms`.
    started: Instant,
    /// Compiles admitted through the queue and not yet answered.
    in_flight: AtomicU64,
    /// Compiles answered from the cache by their connection thread,
    /// without a queue slot or a worker.
    inline_hits: AtomicU64,
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

    /// The `stats` verb's `pypm.serve.stats.v1` document.
    fn stats_json(&self) -> String {
        let uptime = self.cx.clock.now().saturating_duration_since(self.started);
        let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut w = Writer::new();
        w.begin_object(Layout::Inline);
        w.key("schema").string("pypm.serve.stats.v1");
        w.key("uptime_ms").scalar(uptime.as_millis());
        w.key("in_flight").scalar(counter(&self.in_flight));
        w.key("deadline_exceeded")
            .scalar(counter(&self.deadline_exceeded));
        w.key("compiles_started")
            .scalar(counter(&self.cx.counters.compiles_started));
        w.key("shed_in_queue")
            .scalar(counter(&self.cx.counters.shed_in_queue));
        w.key("inline_hits").scalar(counter(&self.inline_hits));
        w.key("service_ewma_us")
            .scalar(counter(&self.cx.counters.service_ewma_us));
        w.key("cache").raw(&self.cx.cache.stats_json());
        w.key("stages").begin_object(Layout::Inline);
        for stage in Stage::ALL {
            let tally = self.cx.counters.stages.get(stage);
            w.key(stage.name()).begin_object(Layout::Inline);
            w.key("count").scalar(tally.count);
            w.key("total_us").scalar(tally.nanos / 1_000);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
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
        let cx = WorkerContext {
            defaults: BudgetDefaults {
                timeout_ms: config.request_timeout_ms,
                step_limit: config.step_limit,
            },
            cache,
            clock: config.clock,
            counters: Arc::new(Counters::default()),
            key_memo: Arc::new(KeyMemo::default()),
        };
        let shared = Arc::new(Shared {
            queue: Arc::clone(&queue),
            shutting_down: AtomicBool::new(false),
            addr,
            started: cx.clock.now(),
            cx: cx.clone(),
            in_flight: AtomicU64::new(0),
            inline_hits: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            idle_timeout: config.idle_timeout_ms.map(Duration::from_millis),
        });
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let cx = cx.clone();
                std::thread::spawn(move || worker_loop(&queue, cx))
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
        // inactivity comparison happens against the server clock in
        // `IdleWatch` — which is what lets tests reap idle connections
        // under a virtual clock. A reader stalled mid-response still
        // cannot hold its connection thread past the (OS-level) write
        // timeout.
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

/// The `frame.read` / `frame.write` failpoints, fired once per frame
/// attempt: an injected failure ends the connection thread (the client
/// sees a dead socket and retries).
fn frame_failpoint(site: &'static str) -> io::Result<()> {
    super::failpoint(site).map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e))
}

fn write_response(stream: &mut TcpStream, status: u8, payload: &[u8]) -> io::Result<()> {
    frame_failpoint("frame.write")?;
    protocol::write_response(stream, status, payload)
}

/// Serves one connection: frames in, responses out, until EOF or an
/// unrecoverable framing error.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let mut idle = IdleWatch::new(shared);
    // One recorder for the connection's life, cleared per request.
    let mut stages = Stages::new(Arc::clone(&shared.cx.clock));
    loop {
        let read = frame_failpoint("frame.read")
            .and_then(|()| protocol::read_request(&mut stream, &mut idle));
        let payload = match read {
            Ok(Some(payload)) => payload,
            // EOF between frames: the client is done.
            Ok(None) => return,
            // An oversized length: say so, then close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let msg = e.to_string();
                let _ = write_response(&mut stream, STATUS_BAD_REQUEST, msg.as_bytes());
                return;
            }
            // Truncated frame or transport error: nothing sane to say.
            Err(_) => return,
        };
        let frame_started = idle.frame_started.take();
        let mut compiled = false;
        let response = match std::str::from_utf8(&payload) {
            Err(_) => (STATUS_BAD_REQUEST, "request is not UTF-8".to_owned()),
            Ok(text) => match parse_request(text) {
                Err(e) => (STATUS_BAD_REQUEST, e),
                Ok(Request::Ping) => (STATUS_OK, "pong".to_owned()),
                Ok(Request::Stats) => (STATUS_OK, shared.stats_json()),
                Ok(Request::Shutdown) => {
                    // Acknowledge *before* starting the drain: once the
                    // drain finishes the process may exit, and exit
                    // kills this detached thread — possibly before a
                    // post-drain write ever reaches the socket.
                    let _ = write_response(&mut stream, STATUS_OK, b"draining");
                    shared.initiate_shutdown();
                    return;
                }
                Ok(Request::Compile(req)) => {
                    compiled = true;
                    stages.skip_to(frame_started.unwrap_or_else(|| shared.cx.clock.now()));
                    serve_compile(shared, req, &mut stages)
                }
            },
        };
        if write_response(&mut stream, response.0, response.1.as_bytes()).is_err() {
            return;
        }
        if compiled {
            stages.lap(Stage::FrameWrite);
            shared.cx.counters.stages.add(&stages);
            stages.clear();
        }
    }
}

/// Serves one compile. A request the server has keyed before is probed
/// against the cache right here, and a hit is answered by this thread:
/// it needs no queue slot, so a full queue cannot refuse it and queued
/// compiles cannot delay it. Everything else is admitted through the
/// bounded queue and waits for a worker's result. Refusals (overload,
/// drain) are immediate.
///
/// The whole-request deadline is stamped *here*, at admission: queue
/// wait, wire decode, compile and report render all charge against the
/// same absolute instant, so a request cannot launder queue time into
/// extra compile time.
///
/// `stages` started at the frame's first byte; this laps the frame
/// read, the probe and — for a queued request — the queue wait (until
/// the worker's start stamp) and the reply wake (from the worker's send
/// stamp). The worker's own stages lie between those two stamps.
fn serve_compile(shared: &Shared, req: CompileRequest, stages: &mut Stages) -> (u8, String) {
    let admitted_at = stages.lap(Stage::FrameRead);
    if shared.shutting_down.load(Ordering::SeqCst) {
        return (STATUS_SHUTTING_DOWN, "server is draining".to_owned());
    }
    let cx = &shared.cx;
    let deadline = req
        .timeout_ms
        .or(cx.defaults.timeout_ms)
        .map(|ms| admitted_at + Duration::from_millis(ms));
    // A request whose deadline has passed before it starts is shed in
    // the queue even if it would have hit, so it is not probed.
    let expired = deadline.is_some_and(|deadline| deadline <= admitted_at);
    let keyed = if cx.cache.is_enabled() && !expired {
        cx.key_memo.get(&req.model, req.config)
    } else {
        None
    };
    let hit = keyed.and_then(|keyed| cx.cache.get(keyed.key));
    let probed = stages.lap(Stage::CacheProbe);
    if let Some(report) = hit {
        cx.counters.compiles_started.fetch_add(1, Ordering::Relaxed);
        shared.inline_hits.fetch_add(1, Ordering::Relaxed);
        return (STATUS_OK, report);
    }
    let (reply, result) = mpsc::sync_channel(1);
    match shared.queue.try_admit(req, reply, probed, deadline, keyed) {
        Err(AdmitError::Full) => (
            STATUS_OVERLOADED,
            overloaded_payload(cx.counters.retry_after_hint_ms()),
        ),
        Err(AdmitError::Closed) => (STATUS_SHUTTING_DOWN, "server is draining".to_owned()),
        Ok(()) => {
            shared.in_flight.fetch_add(1, Ordering::Relaxed);
            let response = match result.recv() {
                Ok(Reply {
                    status,
                    payload,
                    started,
                    sent,
                }) => {
                    stages.lap_at(Stage::QueueWait, started);
                    stages.skip_to(sent);
                    stages.lap(Stage::ReplyWake);
                    (status, payload)
                }
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
///
/// The first bytes of a frame also start its frame-read stage:
/// `frame_started` holds that instant until the connection takes it.
struct IdleWatch<'a> {
    shared: &'a Shared,
    last_activity: Instant,
    frame_started: Option<Instant>,
}

impl<'a> IdleWatch<'a> {
    fn new(shared: &'a Shared) -> IdleWatch<'a> {
        IdleWatch {
            shared,
            last_activity: shared.cx.clock.now(),
            frame_started: None,
        }
    }
}

impl Idle for IdleWatch<'_> {
    /// Any bytes arrived: the connection is live again.
    fn touch(&mut self) {
        self.last_activity = self.shared.cx.clock.now();
        self.frame_started.get_or_insert(self.last_activity);
    }

    /// A read error is worth retrying iff it was a poll tick and the
    /// idle allowance has not run out; anything else — a real transport
    /// error, an idle expiry — reaps the connection.
    fn retry(&mut self, e: &io::Error) -> bool {
        let polling = matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        );
        match self.shared.idle_timeout {
            Some(limit) if polling => {
                self.shared
                    .cx
                    .clock
                    .now()
                    .saturating_duration_since(self.last_activity)
                    < limit
            }
            _ => false,
        }
    }
}
