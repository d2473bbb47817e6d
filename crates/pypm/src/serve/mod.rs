//! `pypmc serve` — a long-lived compile session server.
//!
//! | module | decision it owns |
//! |---|---|
//! | [`protocol`] | the wire format: status bytes, the frame codec, the request grammar, payload hints |
//! | `queue` | admission and dequeue order: bounded, earliest-deadline-first |
//! | `worker` | what a request costs once it needs a worker: shed, build, key, compile, render, store; the server-wide key memo; the worker's stage laps |
//! | `server` | transport and lifecycle: accept, per-connection threads, the inline cache probe, idle reaping, `stats`, drain; the connection's stage laps |
//!
//! The paper's matcher is designed to sit inside a long-running
//! DL-compiler session: patterns loaded once, many graphs compiled.
//! What this module keeps alive across requests is exactly that — per
//! worker, one pristine [`crate::engine::Session`] per library
//! configuration, never shown a graph. A compile clones the one it
//! needs, builds its graph into the clone and drops it with the reply,
//! so a compile owns its stores and a worker's memory does not grow
//! with the requests it has served. Std-only: a plain TCP accept loop
//! plus a bounded worker queue, no async runtime.
//!
//! ## Protocol
//!
//! Length-prefixed frames over one TCP connection, any number of
//! requests per connection:
//!
//! * **Request**: `u32` little-endian payload length, then that many
//!   bytes of UTF-8 text. Frames above [`protocol::MAX_FRAME`] bytes are
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
//! compile <model> [config=<C>] [timeout_ms=<T>] [step_limit=<S>]
//! ```
//!
//! `C` is one of `baseline|fmha|epilog|both|all` — the `pypmc compile
//! --config` parser ([`crate::cli_args::lib_config`]) minus its
//! `+synthN` benchmark suffix, which is [`protocol::STATUS_BAD_REQUEST`]
//! here. A key may be given once; a repeat is `BAD_REQUEST` too.
//! The server compiles one engine, the default `(incremental, fused)`:
//! the retired keys `policy=`, `matcher=` and `jobs=` are answered by
//! [`crate::cli_args::retired`] — `incremental`, `fused` and `1` are
//! no-ops, anything else is `BAD_REQUEST` naming the retirement and
//! `pypmc compile --sweep-policy restart --matcher per-pattern`, where
//! the oracles still run.
//! A successful `compile` responds with the request's
//! `pypm.pipeline.v1` stats JSON — the same document `pypmc compile
//! --stats-json` writes, byte-identical in every semantic counter (the
//! wall-clock fields legitimately differ). `stats` responds with a
//! `pypm.serve.stats.v1` JSON document carrying the cache counters and
//! the `stages` object: per [`crate::core::Stage`], in enum order, the
//! laps that ended it and their total in microseconds — a worker's
//! stages for every `OK` reply, a connection thread's for every compile
//! request.
//!
//! ## The result cache
//!
//! Every thread shares one [`crate::wire::cache::ResultCache`]: before compiling, the
//! request is content-addressed — a [`crate::wire::cache::CacheKey`] over the engine's
//! output epoch, the canonical `PYPMWIRE` graph bytes, the rule-set
//! bytes, the library configuration, and the names of the sweep policy
//! and the matcher backend — and a hit returns the stored
//! `pypm.pipeline.v1` report verbatim. The last two parts are
//! constants, kept where they were as request keys. The epoch
//! ([`crate::engine::ENGINE_OUTPUT_EPOCH`]) is part of it so a
//! persistent store written by an engine that answered differently
//! reads as a miss rather than serving a report the current engine
//! would not produce; `tests/engine_epoch.rs` fails any change that
//! moves an output without bumping it. A `--cache-dir` written before
//! the epoch existed (that part was the crate version) misses once. The
//! cached report is byte-identical to what a cold compile of the same
//! request would produce. With [`ServeConfig::cache_dir`] set (`pypmc serve
//! --cache-dir`), entries also persist as checksummed report
//! containers on disk, so a restarted server keeps hitting;
//! [`ServeConfig::cache_dir_max_bytes`] caps that directory with
//! oldest-first eviction (the `disk_evictions` counter in the `stats`
//! document).
//!
//! ## Who answers a hit, who answers a miss
//!
//! The key is a hash of a graph only a worker can build, so the first
//! worker to key a request publishes it in the server's one *key memo*:
//! (model, config) → the key and the budget steps its two encodes
//! charged. The zoo builders are pure, so that entry never goes stale,
//! and a client can name at most zoo models × five of them. From then
//! on the connection thread that reads such a request probes the cache
//! itself, after the drain check and unless the request's deadline has
//! already passed. A **hit** is answered there — it never touches the
//! queue, a channel, `in_flight` or the service EWMA, so a full queue
//! cannot refuse it and a busy worker cannot delay it; `compiles_started`
//! counts it once and `inline_hits` counts it too. A **miss** is queued
//! with its key: the worker builds and compiles, skips both encodes and
//! the hash, charges the budget the remembered steps instead (so whether
//! a `step_limit=` request ends in [`protocol::STATUS_DEADLINE_EXCEEDED`]
//! does not depend on what the server has seen before), and stores under
//! the key it was handed. A request the memo does not know is queued
//! without one, and the worker does it all — build, encode, hash,
//! publish, probe once, compile. Either way a request is probed exactly
//! once. With the cache disabled the memo is never consulted or filled.
//!
//! ## Status bytes
//!
//! | status | meaning |
//! |---|---|
//! | [`protocol::STATUS_OK`] | request served; payload is the response body |
//! | [`protocol::STATUS_BAD_REQUEST`] | unparseable/oversized frame; payload explains |
//! | [`protocol::STATUS_UNKNOWN_MODEL`] | `compile` named no zoo model |
//! | [`protocol::STATUS_OVERLOADED`] | admission control: the bounded queue was full |
//! | [`protocol::STATUS_ERROR`] | the compile failed server-side; the server survives |
//! | [`protocol::STATUS_SHUTTING_DOWN`] | draining: no new work accepted |
//! | [`protocol::STATUS_DEADLINE_EXCEEDED`] | the compile ran out of budget; the worker survives |
//!
//! ## Deadlines
//!
//! `timeout_ms=<T>` (wall clock) and `step_limit=<S>` (abstract-machine
//! steps — deterministic across hosts) attach a cooperative
//! [`crate::core::Budget`] to one compile; `pypmc serve
//! --request-timeout-ms` / `--step-limit` set server-side defaults a
//! request can override. The budget is checked at every commit-loop
//! node and during discrimination-tree walks, so
//! an exceeded compile unwinds within a bounded number of machine
//! steps, answers [`protocol::STATUS_DEADLINE_EXCEEDED`] (the payload names the
//! exhausted limits), and leaves nothing behind — the half-rewritten
//! stores were the request's own and are dropped with it, so the next
//! request on the same worker compiles byte-identically to a cold
//! `pypmc compile`. Budget keys are *not*
//! part of the cache key: a compile that finishes under budget produces
//! the same report any budget would, and an exceeded one is an error
//! and is never cached.
//!
//! ## Virtual time
//!
//! Every time observation in the serve path — budget deadlines, queue
//! admission stamps, idle reaping, retry backoff, injected fault
//! delays — goes through an injectable [`crate::core::Clock`]
//! ([`ServeConfig::clock`], [`crate::client::Client::with_clock`]). Production uses
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
//! reader cannot wedge a connection thread. The client half of the story —
//! bounded timeouts, retry with backoff — lives with [`crate::client::Client`].
//!
//! ## Backpressure, shedding and shutdown
//!
//! Admission control is a bounded deadline-aware queue: `compile`
//! requests are admitted with a non-blocking reservation stamped with
//! the admission instant and the request's absolute deadline, and a
//! full queue is answered *immediately* with [`protocol::STATUS_OVERLOADED`] —
//! the client retries, the server never buffers unboundedly. The
//! `retry-after-ms=` hint in that payload tracks an EWMA of observed
//! service times, so clients back off roughly one service interval
//! instead of a constant. Only queued work feeds that EWMA, and only a
//! request that needs a worker can be refused: a hit holds no slot.
//!
//! Workers dequeue **earliest-deadline-first** among budgeted requests
//! (unbudgeted ones have an infinite deadline: they run FIFO among
//! themselves, after any budgeted work) and **shed** entries whose
//! deadline already expired while queued: those are answered
//! [`protocol::STATUS_DEADLINE_EXCEEDED`] without touching a session — no graph
//! build, no compile — and no cache probe: a request that has expired
//! by the time it is admitted is shed even if it would have hit. The
//! `shed_in_queue`, `compiles_started` (requests served: answered inline
//! or begun by a worker) and `inline_hits` counters in the `stats`
//! document make the distinction observable.
//! Because the worker's budget is anchored at the *admission* instant
//! ([`crate::core::Budget::deadline_at`]), queue wait also counts against a request
//! that does start compiling: `timeout_ms=` bounds the whole request,
//! not just its compile phase.
//!
//! `shutdown` (or [`Server::shutdown`]) drains gracefully: queued
//! compiles finish and their responses are delivered, new compiles are
//! refused with [`protocol::STATUS_SHUTTING_DOWN`], and [`Server::join`] returns
//! once the workers exit.
//!
//! A compile worker survives everything a request can throw at it: a
//! panicking request handler is caught ([`std::panic::catch_unwind`])
//! and answered with [`protocol::STATUS_ERROR`], and the worker's state is
//! rebuilt before the next request. The key memo is the server's, not
//! the worker's, and survives the rebuild.

pub mod protocol;
mod queue;
mod server;
mod worker;

#[cfg(test)]
mod tests;

pub use server::{ServeConfig, Server};

/// Fires the failpoint `site`: `delay:ms` stalls on the fault clock
/// first, `panic` unwinds the calling thread, and `io`/`torn` come back
/// as the `Err` naming the site.
fn failpoint(site: &'static str) -> Result<(), String> {
    use pypm_faults::Action;
    match pypm_faults::sleep_if_delayed(site) {
        Some(Action::Panic) => panic!("failpoint {site}: injected panic"),
        Some(Action::Io | Action::Torn) => Err(format!("failpoint {site}: injected failure")),
        Some(Action::Delay(_)) | None => Ok(()),
    }
}
