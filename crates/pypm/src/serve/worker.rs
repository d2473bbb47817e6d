//! The compile workers: what one request costs once it leaves the
//! queue — shed, cache probe, build, key, compile, render. What a worker
//! keeps warm is the *library*: one pristine session per configuration,
//! cloned per request, so a compile owns its stores and nothing
//! engine-side outlives it.

use super::protocol::{
    shed_payload, CompileRequest, RETRY_AFTER_HINT_MS, STATUS_DEADLINE_EXCEEDED, STATUS_ERROR,
    STATUS_OK, STATUS_UNKNOWN_MODEL,
};
use super::queue::{JobQueue, Popped};
use crate::core::clock::Clock;
use crate::core::Budget;
use crate::dsl::{LibraryConfig, RuleSet};
use crate::engine::{MatcherBackend, PassError, Session, SweepPolicy};
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

/// A library loaded once and never shown a graph: exactly
/// `Session::new()` followed by `load_library(cfg)`, the two calls
/// `pypmc compile` makes, kept beside the rule set they returned.
/// `config=` names five configurations, so a worker holds at most five.
struct Library {
    cfg: LibraryConfig,
    session: Session,
    rules: RuleSet,
}

/// The state one compile worker keeps warm across requests (rebuilt
/// only after a caught handler panic).
struct WorkerState {
    /// One pristine session per configuration a request has named.
    libraries: Vec<Library>,
    cx: WorkerContext,
    /// Request determinants → content hash. The zoo builders are pure,
    /// so the canonical graph/ruleset bytes — and therefore the cache
    /// key — are a function of (model, config); once a worker has
    /// hashed a request's content it never rebuilds the graph just to
    /// rediscover the same key. Bounded by what a client can name: zoo
    /// models × five configs, and only a model that built is inserted.
    key_memo: HashMap<(String, LibraryConfig), CacheKey>,
}

impl WorkerState {
    fn new(cx: WorkerContext) -> Self {
        WorkerState {
            libraries: Vec::new(),
            cx,
            key_memo: HashMap::new(),
        }
    }

    /// A fresh copy of the `cfg` library's session and rule set for one
    /// compile to own, loading the library first if this worker does
    /// not hold it.
    fn library(&mut self, cfg: LibraryConfig) -> (Session, RuleSet) {
        let at = match self.libraries.iter().position(|lib| lib.cfg == cfg) {
            Some(at) => at,
            None => {
                let mut session = Session::new();
                let rules = session.load_library(cfg);
                self.libraries.push(Library {
                    cfg,
                    session,
                    rules,
                });
                self.libraries.len() - 1
            }
        };
        let lib = &self.libraries[at];
        (lib.session.clone(), lib.rules.clone())
    }

    /// Serves one compile: exactly the `pypmc compile` pipeline
    /// ([`crate::compile_batch`]) over a session this request owns — a
    /// clone of the pristine [`Library`], dropped with the request.
    /// Returns the request's `pypm.pipeline.v1` JSON.
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
        let memo = (req.model.clone(), req.config);
        let mut probed = false;
        if self.cx.cache.is_enabled() {
            if let Some(key) = self.key_memo.get(&memo) {
                if let Some(report) = self.cx.cache.get(*key) {
                    return Ok(report);
                }
                probed = true;
            }
        }
        let (mut session, rules) = self.library(req.config);
        let Some(mut graph) = crate::build_model(&mut session, &req.model) else {
            return Err((
                STATUS_UNKNOWN_MODEL,
                format!("unknown model {}; try `pypmc list-models`", req.model),
            ));
        };
        // Whole-request coverage: the graph build charges one step per
        // live node, so a deadline that expired during the build is
        // caught here instead of surviving into the match phase.
        charge(graph.live_count() as u64)?;
        // Content-address the request: the canonical graph bytes plus
        // everything else that shapes the report. The policy and the
        // matcher are constants now, kept where they were as request
        // keys so a --cache-dir written then keeps hitting; the engine
        // version is in it so a persistent store outliving this binary
        // (an upgraded server over an old --cache-dir) misses instead
        // of replaying a stale report. Both encodes charge the budget —
        // the graph codec per node, the rule-set bytes per 64-byte
        // chunk — so key construction cannot outlive the deadline
        // unbudgeted.
        let key = if self.cx.cache.is_enabled() {
            let graph_bytes =
                crate::wire::encode_graph_budgeted(&graph, &session.syms, budget.as_deref())
                    .map_err(|_| {
                        over_budget(&budget.as_deref().expect("only a budget errs").describe())
                    })?;
            let ruleset_bytes = crate::wire::encode_ruleset(&rules, &session.syms, &session.pats);
            charge(ruleset_bytes.len() as u64 / 64 + 1)?;
            let key = CacheKey::of(&[
                b"pypm.serve.compile.v1",
                env!("CARGO_PKG_VERSION").as_bytes(),
                &graph_bytes,
                &ruleset_bytes,
                format!("{:?}", req.config).as_bytes(),
                SweepPolicy::default().name().as_bytes(),
                MatcherBackend::default().name().as_bytes(),
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
            policy: SweepPolicy::default(),
            matcher: MatcherBackend::default(),
            budget: budget.clone(),
        };
        let reports = crate::compile_batch(
            &mut session,
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
/// [`STATUS_ERROR`]; the worker's state is rebuilt before the next job so
/// one poisoned request can never corrupt later ones.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::clock::system_clock;
    use crate::core::json::{self, Value};
    use crate::serve::protocol::{parse_request, Request};

    /// A worker with the result cache disabled, so every request compiles.
    fn uncached_worker() -> WorkerState {
        WorkerState::new(WorkerContext {
            defaults: BudgetDefaults::default(),
            cache: Arc::new(ResultCache::disabled()),
            clock: system_clock(),
            counters: Arc::new(Counters::default()),
        })
    }

    /// One served compile's reply with the wall-clock keys dropped at
    /// every depth — the masking `tests/common` applies.
    fn compile(state: &mut WorkerState, model: &str, config: &str) -> Value {
        fn strip(v: &mut Value) {
            match v {
                Value::Object(map) => {
                    map.retain(|k, _| k != "wall_ms" && k != "duration_ms");
                    map.values_mut().for_each(strip);
                }
                Value::Array(items) => items.iter_mut().for_each(strip),
                _ => {}
            }
        }
        let line = format!("compile {model} config={config}");
        let Ok(Request::Compile(req)) = parse_request(&line) else {
            panic!("`{line}` is not a compile request");
        };
        let reply = state.compile(&req, None).expect(&line);
        let mut doc = json::parse(&reply).expect(&line);
        strip(&mut doc);
        doc
    }

    /// The direct oracle for "a compile owns its stores": two passes over
    /// the zoo leave every retained session size-for-size what
    /// `Session::new()` then `load_library(cfg)` makes — no graph ever
    /// reached one — and the second pass answers what the first did.
    #[test]
    fn retained_sessions_stay_pristine_across_the_zoo() {
        let zoo: Vec<&str> = (crate::models::hf_zoo().into_iter().map(|c| c.name))
            .chain(crate::models::tv_zoo().into_iter().map(|c| c.name))
            .collect();
        let configs = ["baseline", "fmha", "epilog", "both", "all"];
        let mut state = uncached_worker();
        let mut round = || -> Vec<Value> {
            zoo.iter()
                .flat_map(|model| configs.map(|config| compile(&mut state, model, config)))
                .collect()
        };
        let first = round();
        let second = round();
        assert_eq!(second, first, "a repeated request answers differently");

        assert_eq!(state.libraries.len(), 5, "every nameable config, once");
        for lib in &state.libraries {
            let mut fresh = Session::new();
            fresh.load_library(lib.cfg);
            let sizes = |s: &Session| {
                (
                    s.terms.len(),
                    s.syms.op_count(),
                    s.syms.var_count(),
                    s.pats.len(),
                )
            };
            assert_eq!(sizes(&lib.session), sizes(&fresh), "{:?}", lib.cfg);
        }
    }
}
