//! The compile workers: what one request costs once it leaves the
//! queue — shed, cache probe, build, key, compile, render — over a
//! session kept warm across requests.

use super::protocol::{
    shed_payload, CompileRequest, RETRY_AFTER_HINT_MS, STATUS_DEADLINE_EXCEEDED, STATUS_ERROR,
    STATUS_OK, STATUS_UNKNOWN_MODEL,
};
use super::queue::{JobQueue, Popped};
use crate::core::clock::Clock;
use crate::core::Budget;
use crate::dsl::LibraryConfig;
use crate::engine::{PassError, Session};
use crate::wire::cache::{CacheKey, ResultCache};
use crate::CompileRecipe;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on the EWMA-derived `retry-after-ms=` hint: however slow
/// compiles get, clients are never told to back off more than this.
pub(super) const RETRY_AFTER_HINT_CAP_MS: u64 = 2_000;

/// Server-side default budget limits, applied when a request carries no
/// `timeout_ms=`/`step_limit=` of its own.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct BudgetDefaults {
    pub(super) timeout_ms: Option<u64>,
    pub(super) step_limit: Option<u64>,
}

/// Load and shedding counters shared between admission control, the
/// workers and the `stats` verb.
#[derive(Debug, Default)]
pub(super) struct Counters {
    /// Requests a worker began serving (cache probe or compile). A
    /// request shed in the queue never increments this.
    pub(super) compiles_started: AtomicU64,
    /// Requests answered [`STATUS_DEADLINE_EXCEEDED`] at dequeue, with
    /// no session touched, because their deadline passed while queued.
    pub(super) shed_in_queue: AtomicU64,
    /// EWMA of observed service times, in microseconds (α = 1/4). Zero
    /// until the first service completes. Feeds the `retry-after-ms=`
    /// hint in `STATUS_OVERLOADED` payloads.
    pub(super) service_ewma_us: AtomicU64,
}

impl Counters {
    /// Folds one observed service time into the EWMA. The
    /// read-modify-write races benignly under concurrency — the EWMA is
    /// a load hint, not an invariant.
    pub(super) fn record_service(&self, elapsed: Duration) {
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
    pub(super) fn retry_after_hint_ms(&self) -> u64 {
        match self.service_ewma_us.load(Ordering::Relaxed) {
            0 => RETRY_AFTER_HINT_MS,
            us => (us / 1_000).clamp(1, RETRY_AFTER_HINT_CAP_MS),
        }
    }
}

/// What every worker of one server shares.
#[derive(Clone)]
pub(super) struct WorkerContext {
    pub(super) defaults: BudgetDefaults,
    pub(super) cache: Arc<ResultCache>,
    pub(super) clock: Arc<dyn Clock>,
    pub(super) counters: Arc<Counters>,
}

/// The state one compile worker keeps warm across requests: its own
/// session stores (rebuilt only after a caught handler panic).
struct WorkerState {
    session: Session,
    cx: WorkerContext,
    /// Request determinants → content hash. The zoo builders are pure,
    /// so the canonical graph/ruleset bytes — and therefore the cache
    /// key — are a function of (model, config, policy, matcher);
    /// once a worker has hashed a request's content it never rebuilds
    /// the graph just to rediscover the same key.
    key_memo: HashMap<(String, LibraryConfig, &'static str, &'static str), CacheKey>,
}

impl WorkerState {
    fn new(cx: WorkerContext) -> Self {
        WorkerState {
            session: Session::new(),
            cx,
            key_memo: HashMap::new(),
        }
    }

    /// Serves one compile: exactly the `pypmc compile` pipeline
    /// ([`crate::compile_batch`]) over this worker's long-lived
    /// session. Returns the request's `pypm.pipeline.v1` JSON.
    /// `deadline` is the absolute deadline stamped at admission: the
    /// budget is anchored there, so queue wait already spent part of
    /// it, and *every* phase — graph build, wire encode, the rewrite
    /// pipeline, report rendering — charges against one whole-request
    /// budget.
    fn compile(
        &mut self,
        req: &CompileRequest,
        deadline: Option<Instant>,
    ) -> Result<String, (u8, String)> {
        self.cx
            .counters
            .compiles_started
            .fetch_add(1, Ordering::Relaxed);
        // Failpoint: `serve.compile` fires once per request a worker
        // actually serves — `delay:ms` is how tests pin a worker while
        // shedding is observed behind it, `panic` exercises the
        // session-rebuild path.
        super::failpoint("serve.compile").map_err(|e| (STATUS_ERROR, e))?;
        // The cooperative whole-request budget: request keys win over
        // the server defaults. Deliberately *not* part of the cache
        // key — a compile that finishes under budget produces the
        // report any budget would, and an exceeded one errors and is
        // never cached.
        let timeout_ms = req.timeout_ms.or(self.cx.defaults.timeout_ms);
        let step_limit = req.step_limit.or(self.cx.defaults.step_limit);
        let budget = (timeout_ms.is_some() || step_limit.is_some()).then(|| {
            let mut budget = Budget::with_clock(
                timeout_ms.map(Duration::from_millis),
                step_limit,
                Arc::clone(&self.cx.clock),
            );
            if let Some(deadline) = deadline {
                budget = budget.deadline_at(deadline);
            }
            Arc::new(budget)
        });
        let over_budget = |limits: &str| {
            (
                STATUS_DEADLINE_EXCEEDED,
                format!(
                    "compile budget exceeded ({limits}); the worker is ready for the next request"
                ),
            )
        };
        // Charges `steps` against the budget, if there is one.
        let charge = |steps: u64| match budget.as_deref() {
            Some(b) if !b.charge(steps) => Err(over_budget(&b.describe())),
            _ => Ok(()),
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
        );
        let mut probed = false;
        if self.cx.cache.is_enabled() {
            if let Some(key) = self.key_memo.get(&memo) {
                if let Some(report) = self.cx.cache.get(*key) {
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
        charge(graph.live_count() as u64)?;
        let rules = self.session.load_library_cached(req.config);
        // Content-address the request: the canonical graph bytes plus
        // everything else that shapes the report. The matcher backend
        // is in the key because it changes the
        // machine-step/backtrack/admission counters; the engine version
        // is in it so a persistent store outliving this binary (an
        // upgraded server over an old --cache-dir) misses instead of
        // replaying a stale report. Both encodes charge the budget —
        // the graph codec per node, the rule-set bytes per 64-byte
        // chunk — so key construction cannot outlive the deadline
        // unbudgeted.
        let key = if self.cx.cache.is_enabled() {
            let graph_bytes =
                crate::wire::encode_graph_budgeted(&graph, &self.session.syms, budget.as_deref())
                    .map_err(|_| {
                    over_budget(&budget.as_deref().expect("only a budget errs").describe())
                })?;
            let ruleset_bytes =
                crate::wire::encode_ruleset(&rules, &self.session.syms, &self.session.pats);
            charge(ruleset_bytes.len() as u64 / 64 + 1)?;
            let key = CacheKey::of(&[
                b"pypm.serve.compile.v1",
                env!("CARGO_PKG_VERSION").as_bytes(),
                &graph_bytes,
                &ruleset_bytes,
                format!("{:?}", req.config).as_bytes(),
                req.policy.name().as_bytes(),
                req.matcher.name().as_bytes(),
            ]);
            self.key_memo.insert(memo, key);
            Some(key)
        } else {
            None
        };
        if let Some(key) = key {
            if !probed {
                if let Some(report) = self.cx.cache.get(key) {
                    return Ok(report);
                }
            }
        }
        let recipe = CompileRecipe {
            policy: req.policy,
            matcher: req.matcher,
            budget: budget.clone(),
        };
        let reports = crate::compile_batch(
            &mut self.session,
            std::slice::from_mut(&mut graph),
            rules,
            recipe,
        )
        .map_err(|e| match &e.error {
            PassError::BudgetExceeded { limits } => over_budget(limits),
            _ => (STATUS_ERROR, format!("rewrite pass failed: {e}")),
        })?;
        let report = reports[0].to_json();
        // Report rendering is the last unbudgeted edge: charge it (per
        // 64-byte chunk) so DEADLINE_EXCEEDED is a whole-request
        // guarantee, and never cache a report whose budget tripped.
        charge(report.len() as u64 / 64 + 1)?;
        if let Some(key) = key {
            self.cx.cache.put(key, &report);
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
pub(super) fn worker_loop(queue: &JobQueue, cx: WorkerContext) {
    let mut state = WorkerState::new(cx.clone());
    loop {
        let entry = match queue.pop() {
            Popped::Entry(entry) => entry,
            Popped::Poison => return,
        };
        // Queue-time shedding: expired-in-queue requests never reach a
        // session. `compiles_started` stays untouched, which is what
        // the shed tests assert on.
        if let Some(deadline) = entry.deadline {
            let now = cx.clock.now();
            if now >= deadline {
                cx.counters.shed_in_queue.fetch_add(1, Ordering::Relaxed);
                let timeout_ms = entry
                    .req
                    .timeout_ms
                    .or(cx.defaults.timeout_ms)
                    .unwrap_or_default();
                let queued_ms = now.saturating_duration_since(entry.admitted_at).as_millis();
                let _ = entry.reply.send((
                    STATUS_DEADLINE_EXCEEDED,
                    shed_payload(timeout_ms, queued_ms),
                ));
                continue;
            }
        }
        let started = cx.clock.now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            state.compile(&entry.req, entry.deadline)
        }));
        let response = match outcome {
            Ok(Ok(json)) => {
                // Only successful compiles feed the EWMA: errors are
                // usually fast rejections and would bias the
                // retry-after hint toward hot spinning.
                cx.counters
                    .record_service(cx.clock.now().saturating_duration_since(started));
                (STATUS_OK, json)
            }
            Ok(Err(err)) => err,
            Err(_) => {
                state = WorkerState::new(cx.clone());
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
