//! The compile workers: what one request costs once it leaves the
//! queue — shed, build, key (encode and hash, or the steps the server
//! remembers them costing), compile, render, store. What a worker keeps
//! warm is the *library*: one pristine session per configuration,
//! cloned per request, so a compile owns its stores and nothing
//! engine-side outlives it. The clone is cheap because what the library
//! put in a session is flat or shared: the symbol table is a few flat
//! buffers, the pattern store is copy-on-write, and the fused trie over
//! the library's patterns is built once, when the library loads, and
//! memoized in that store for every clone. What the whole server keeps
//! is the [`KeyMemo`]: a request keyed once is probed by the connection
//! thread that read it, and reaches a worker only as a miss.
//!
//! A worker laps its own stages per request — session copy, model
//! build, cache key, the pipeline's trie build, collection, view build,
//! scan and validation, render, cache put, session drop, reply send —
//! on the server's clock, and adds them to the server's totals when the
//! reply is `OK`. The stages through the session drop sum to the
//! request's service time, the sample the `retry-after-ms=` hint
//! averages. With one worker, a miss waits for the service times of the
//! misses admitted before it: a µs off this cycle is a µs off each of
//! theirs.

use super::protocol::{
    shed_payload, CompileRequest, RETRY_AFTER_HINT_MS, STATUS_DEADLINE_EXCEEDED, STATUS_ERROR,
    STATUS_OK, STATUS_UNKNOWN_MODEL,
};
use super::queue::{JobQueue, Popped, QueueEntry, Reply};
use crate::core::clock::Clock;
use crate::core::{Budget, Stage, StageTotals, Stages};
use crate::dsl::{LibraryConfig, RuleSet};
use crate::engine::{MatcherBackend, PassError, Session, SweepPolicy, ENGINE_OUTPUT_EPOCH};
use crate::wire::cache::{CacheKey, ResultCache};
use crate::CompileRecipe;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
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
    /// Requests served: answered inline from the cache or begun by a
    /// worker. A request shed in the queue never increments this.
    pub(super) compiles_started: AtomicU64,
    /// Requests answered [`STATUS_DEADLINE_EXCEEDED`] at dequeue, with
    /// no session touched, because their deadline passed while queued.
    pub(super) shed_in_queue: AtomicU64,
    /// EWMA of observed service times, in microseconds (α = 1/4). Zero
    /// until the first service completes. Only queued work feeds it — a
    /// hit answered inline needs no queue slot, so it says nothing about
    /// how long one takes to free up. Feeds the `retry-after-ms=` hint
    /// in `STATUS_OVERLOADED` payloads.
    pub(super) service_ewma_us: AtomicU64,
    /// Where compiles spent their time: the worker stages of every
    /// request a worker answered `OK`, and the connection-thread stages
    /// of every compile request (the `stats` document's `stages`).
    pub(super) stages: StageTotals,
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

/// What the server remembers of a request it has keyed once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Keyed {
    pub(super) key: CacheKey,
    /// The budget steps the graph and rule-set encodes behind `key`
    /// charged. A compile that skips them charges this instead, so
    /// whether a `step_limit=` request ends in `DEADLINE_EXCEEDED` does
    /// not depend on what the server has seen before.
    pub(super) encode_steps: u64,
}

/// Request determinants → content hash, one per server. The zoo
/// builders are pure, so the canonical graph/ruleset bytes — and
/// therefore the cache key — are a function of (model, config): once a
/// worker has hashed a request's content, the connection threads probe
/// the cache under that key themselves and no worker encodes a graph
/// just to rediscover it. Bounded by what a client can name: zoo models
/// × five configs, and only a model that built is inserted — written
/// that many times in a server's life, read once per request.
#[derive(Default)]
pub(super) struct KeyMemo {
    /// Model name first, so a lookup borrows the request's.
    by_model: RwLock<HashMap<String, Vec<(LibraryConfig, Keyed)>>>,
}

impl KeyMemo {
    pub(super) fn get(&self, model: &str, config: LibraryConfig) -> Option<Keyed> {
        let by_model = self.by_model.read().unwrap_or_else(|p| p.into_inner());
        let (_, keyed) = by_model.get(model)?.iter().find(|(c, _)| *c == config)?;
        Some(*keyed)
    }

    /// Records what a worker computed. Two workers keying the same
    /// request at once computed the same thing; the first one in stays.
    fn insert(&self, model: &str, config: LibraryConfig, keyed: Keyed) {
        let mut by_model = self.by_model.write().unwrap_or_else(|p| p.into_inner());
        let configs = by_model.entry(model.to_owned()).or_default();
        if configs.iter().all(|(c, _)| *c != config) {
            configs.push((config, keyed));
        }
    }
}

/// What every thread of one server shares.
#[derive(Clone)]
pub(super) struct WorkerContext {
    pub(super) defaults: BudgetDefaults,
    pub(super) cache: Arc<ResultCache>,
    pub(super) clock: Arc<dyn Clock>,
    pub(super) counters: Arc<Counters>,
    pub(super) key_memo: Arc<KeyMemo>,
}

impl WorkerContext {
    /// The cooperative whole-request budget: request keys win over the
    /// server defaults, and the wall deadline is the one stamped at
    /// admission, so queue wait already spent part of it. Deliberately
    /// *not* part of the cache key — a compile that finishes under
    /// budget produces the report any budget would, and an exceeded one
    /// errors and is never cached.
    fn budget(&self, req: &CompileRequest, deadline: Option<Instant>) -> Option<Arc<Budget>> {
        let timeout_ms = req.timeout_ms.or(self.defaults.timeout_ms);
        let step_limit = req.step_limit.or(self.defaults.step_limit);
        (timeout_ms.is_some() || step_limit.is_some()).then(|| {
            let mut budget = Budget::with_clock(
                timeout_ms.map(Duration::from_millis),
                step_limit,
                Arc::clone(&self.clock),
            );
            if let Some(deadline) = deadline {
                budget = budget.deadline_at(deadline);
            }
            Arc::new(budget)
        })
    }
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
}

impl WorkerState {
    fn new(cx: WorkerContext) -> Self {
        WorkerState {
            libraries: Vec::new(),
            cx,
        }
    }

    /// A fresh copy of the `cfg` library's session and rule set for one
    /// compile to own, loading the library first if this worker does
    /// not hold it — and building its fused trie there, so every copy
    /// shares it.
    fn library(&mut self, cfg: LibraryConfig) -> (Session, RuleSet) {
        let at = match self.libraries.iter().position(|lib| lib.cfg == cfg) {
            Some(at) => at,
            None => {
                let mut session = Session::new();
                let rules = session.load_library(cfg);
                let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
                session.pats.fused(&patterns);
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
    /// clone of the pristine [`Library`], dropped before the reply.
    /// Returns the request's `pypm.pipeline.v1` JSON, and laps its
    /// stages on `stages` from the session copy to the session drop.
    /// `budget` is the whole-request budget ([`WorkerContext::budget`]):
    /// *every* phase — graph build, wire encode, the rewrite pipeline,
    /// report rendering — charges against it. `keyed` is what the
    /// connection thread probed the cache under, and missed.
    fn compile(
        &mut self,
        req: &CompileRequest,
        budget: Option<&Arc<Budget>>,
        keyed: Option<Keyed>,
        stages: &mut Stages,
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
        let (mut session, rules) = self.library(req.config);
        stages.lap(Stage::SessionCopy);
        let outcome = self.compile_in(&mut session, rules, req, budget, keyed, stages);
        drop(session);
        stages.lap(Stage::SessionDrop);
        outcome
    }

    /// [`WorkerState::compile`] inside its session: build, key, compile,
    /// render, store. Whatever it leaves — the graph — it drops on
    /// return, into the session drop.
    fn compile_in(
        &self,
        session: &mut Session,
        rules: RuleSet,
        req: &CompileRequest,
        budget: Option<&Arc<Budget>>,
        keyed: Option<Keyed>,
        stages: &mut Stages,
    ) -> Result<String, (u8, String)> {
        let over_budget = |limits: &str| {
            (
                STATUS_DEADLINE_EXCEEDED,
                format!(
                    "compile budget exceeded ({limits}); the worker is ready for the next request"
                ),
            )
        };
        // Charges `steps` against the budget, if there is one.
        let charge = |steps: u64| match budget {
            Some(b) if !b.charge(steps) => Err(over_budget(&b.describe())),
            _ => Ok(()),
        };
        let Some(mut graph) = crate::build_model(session, &req.model) else {
            return Err((
                STATUS_UNKNOWN_MODEL,
                format!("unknown model {}; try `pypmc list-models`", req.model),
            ));
        };
        stages.lap(Stage::ModelBuild);
        // Whole-request coverage: the graph build charges one step per
        // live node, so a deadline that expired during the build is
        // caught here instead of surviving into the match phase.
        charge(graph.live_count() as u64)?;
        let key = match keyed {
            // Keyed and probed at admission: the encodes and the hash
            // would reproduce `keyed.key` from the same bytes, so they
            // are skipped and the steps they charged the first time are
            // charged again.
            Some(keyed) => {
                charge(keyed.encode_steps)?;
                Some(keyed.key)
            }
            // Content-address the request: the canonical graph bytes
            // plus everything else that shapes the report. The policy
            // and the matcher are constants now, kept where they were
            // as request keys; the engine's output epoch is in it so a
            // persistent store outliving this binary (an upgraded
            // server over an old --cache-dir) misses instead of
            // replaying a report this engine would not produce. Both
            // encodes charge the budget — the graph codec per node, the
            // rule-set bytes per 64-byte chunk — so key construction
            // cannot outlive the deadline unbudgeted; an unbudgeted
            // request still counts them, for the memo.
            None if self.cx.cache.is_enabled() => {
                let counting = Budget::new(None, Some(u64::MAX));
                let meter: &Budget = budget.map_or(&counting, |b| b);
                let before = meter.steps();
                let graph_bytes =
                    crate::wire::encode_graph_budgeted(&graph, &session.syms, Some(meter))
                        .map_err(|_| over_budget(&meter.describe()))?;
                let ruleset_bytes =
                    crate::wire::encode_ruleset(&rules, &session.syms, &session.pats);
                if !meter.charge(ruleset_bytes.len() as u64 / 64 + 1) {
                    return Err(over_budget(&meter.describe()));
                }
                let key = CacheKey::of(&[
                    b"pypm.serve.compile.v1",
                    &ENGINE_OUTPUT_EPOCH.to_le_bytes(),
                    &graph_bytes,
                    &ruleset_bytes,
                    format!("{:?}", req.config).as_bytes(),
                    SweepPolicy::default().name().as_bytes(),
                    MatcherBackend::default().name().as_bytes(),
                ]);
                let encode_steps = meter.steps() - before;
                self.cx
                    .key_memo
                    .insert(&req.model, req.config, Keyed { key, encode_steps });
                // The request's one probe: a name another name's graph
                // already answers, or a report a previous process left
                // in the --cache-dir.
                if let Some(report) = self.cx.cache.get(key) {
                    stages.lap(Stage::CacheKey);
                    return Ok(report);
                }
                Some(key)
            }
            None => None,
        };
        stages.lap(Stage::CacheKey);
        let recipe = CompileRecipe {
            policy: SweepPolicy::default(),
            matcher: MatcherBackend::default(),
            budget: budget.cloned(),
            stages: Some(stages.clone()),
        };
        let reports =
            crate::compile_batch(session, std::slice::from_mut(&mut graph), rules, recipe)
                .map_err(|e| match &e.error {
                    PassError::BudgetExceeded { limits } => over_budget(limits),
                    _ => (STATUS_ERROR, format!("rewrite pass failed: {e}")),
                })?;
        *stages = reports[0].stages().clone();
        let report = reports[0].to_json();
        stages.lap(Stage::Render);
        // Report rendering is the last unbudgeted edge: charge it (per
        // 64-byte chunk) so DEADLINE_EXCEEDED is a whole-request
        // guarantee, and never cache a report whose budget tripped.
        charge(report.len() as u64 / 64 + 1)?;
        if let Some(key) = key {
            self.cx.cache.put(key, &report);
        }
        stages.lap(Stage::CachePut);
        Ok(report)
    }

    /// Answers one dequeued entry, lapping the worker's stages on the
    /// server clock from the instant it took the entry. Before touching
    /// a session it sheds an entry whose deadline already passed while
    /// it sat in the queue: the client gets [`STATUS_DEADLINE_EXCEEDED`]
    /// without a compile ever starting, which is both cheaper and more
    /// honest than compiling a result nobody is still waiting for. A
    /// panicking handler is caught and reported as [`STATUS_ERROR`]; the
    /// worker's state is rebuilt so one poisoned request can never
    /// corrupt later ones.
    fn serve(&mut self, entry: QueueEntry) {
        let mut stages = Stages::new(Arc::clone(&self.cx.clock));
        let started = stages.start();
        // Queue-time shedding: expired-in-queue requests never reach a
        // session. `compiles_started` stays untouched, which is what
        // the shed tests assert on.
        if entry.deadline.is_some_and(|deadline| started >= deadline) {
            self.cx
                .counters
                .shed_in_queue
                .fetch_add(1, Ordering::Relaxed);
            let timeout_ms = entry
                .req
                .timeout_ms
                .or(self.cx.defaults.timeout_ms)
                .unwrap_or_default();
            let queued_ms = started
                .saturating_duration_since(entry.admitted_at)
                .as_millis();
            let _ = entry.reply.send(Reply {
                status: STATUS_DEADLINE_EXCEEDED,
                payload: shed_payload(timeout_ms, queued_ms),
                started,
                sent: started,
            });
            return;
        }
        let budget = self.cx.budget(&entry.req, entry.deadline);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.compile(&entry.req, budget.as_ref(), entry.keyed, &mut stages)
        }));
        let sent = stages.last().unwrap_or(started);
        let (status, payload) = match outcome {
            Ok(Ok(json)) => {
                // Only successful compiles feed the EWMA: errors are
                // usually fast rejections and would bias the
                // retry-after hint toward hot spinning.
                let service = sent.saturating_duration_since(started);
                self.cx.counters.record_service(service);
                (STATUS_OK, json)
            }
            Ok(Err(err)) => err,
            Err(_) => {
                *self = WorkerState::new(self.cx.clone());
                (
                    STATUS_ERROR,
                    "request handler panicked; session rebuilt".to_owned(),
                )
            }
        };
        let ok = status == STATUS_OK;
        // A vanished client is its own problem.
        let _ = entry.reply.send(Reply {
            status,
            payload,
            started,
            sent,
        });
        stages.lap(Stage::ReplySend);
        if ok {
            self.cx.counters.stages.add(&stages);
        }
    }
}

/// The compile-worker loop: answer admitted jobs off the shared queue
/// ([`WorkerState::serve`]) until poisoned.
pub(super) fn worker_loop(queue: &JobQueue, cx: WorkerContext) {
    let mut state = WorkerState::new(cx);
    while let Popped::Entry(entry) = queue.pop() {
        state.serve(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::clock::system_clock;
    use crate::core::json::{self, Value};
    use crate::serve::protocol::{parse_request, Request};

    /// A server's shared state over `cache`, without the server.
    fn context(cache: ResultCache) -> WorkerContext {
        WorkerContext {
            defaults: BudgetDefaults::default(),
            cache: Arc::new(cache),
            clock: system_clock(),
            counters: Arc::new(Counters::default()),
            key_memo: Arc::new(KeyMemo::default()),
        }
    }

    fn request(line: &str) -> CompileRequest {
        let Ok(Request::Compile(req)) = parse_request(line) else {
            panic!("`{line}` is not a compile request");
        };
        req
    }

    /// A reply with the wall-clock keys dropped at every depth — the
    /// masking `tests/common` applies.
    fn masked(reply: &str) -> Value {
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
        let mut doc = json::parse(reply).expect(reply);
        strip(&mut doc);
        doc
    }

    /// One compile through `state`, lapped on a recorder of its own.
    fn compile_raw(
        state: &mut WorkerState,
        req: &CompileRequest,
        budget: Option<&Arc<Budget>>,
        keyed: Option<Keyed>,
    ) -> Result<String, (u8, String)> {
        let mut stages = Stages::new(Arc::clone(&state.cx.clock));
        stages.start();
        state.compile(req, budget, keyed, &mut stages)
    }

    /// One served compile's masked reply.
    fn compile(state: &mut WorkerState, model: &str, config: &str) -> Value {
        let line = format!("compile {model} config={config}");
        masked(&compile_raw(state, &request(&line), None, None).expect(&line))
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
        // The result cache disabled, so every request compiles.
        let mut state = WorkerState::new(context(ResultCache::disabled()));
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

    /// A memoized miss — the server keyed the request before, the
    /// connection thread probed under that key and missed — compiles
    /// without encoding or hashing anything, and charges what the cold
    /// compile of the same request charged.
    #[test]
    fn a_memoized_miss_charges_what_the_cold_compile_charged() {
        let mut state = WorkerState::new(context(ResultCache::in_memory(1)));
        let req = request("compile bert-tiny");
        let counting = || Arc::new(Budget::new(None, Some(u64::MAX)));

        let cold = counting();
        let first = compile_raw(&mut state, &req, Some(&cold), None).expect("cold");
        let keyed = (state.cx.key_memo)
            .get(&req.model, req.config)
            .expect("published");
        assert!(keyed.encode_steps >= 2, "a step per node and per chunk");
        // An unbudgeted cold compile counts the same steps for the memo.
        let mut unbudgeted = WorkerState::new(context(ResultCache::in_memory(1)));
        compile_raw(&mut unbudgeted, &req, None, None).expect("unbudgeted");
        assert_eq!(
            unbudgeted.cx.key_memo.get(&req.model, req.config),
            Some(keyed)
        );

        // A second request evicts the first; the connection thread's
        // probe misses, and the key rides to the worker.
        compile_raw(&mut state, &request("compile vgg11"), None, None).expect("evictor");
        assert_eq!(state.cx.cache.get(keyed.key), None);

        // One step short of what the request costs trips with and
        // without the key: the remembered encode steps are on the bill.
        for keyed in [None, Some(keyed)] {
            let short = Arc::new(Budget::new(None, Some(cold.steps() - 1)));
            let (status, _) = compile_raw(&mut state, &req, Some(&short), keyed).unwrap_err();
            assert_eq!(status, STATUS_DEADLINE_EXCEEDED, "{keyed:?}");
        }

        let warm = counting();
        let again = compile_raw(&mut state, &req, Some(&warm), Some(keyed)).expect("memoized miss");
        assert_eq!(warm.steps(), cold.steps());
        assert_eq!(masked(&again), masked(&first));
        // Three cold probes and the one made by hand: a memoized miss
        // does not probe again, and it stores under the key it was given.
        let stats = state.cx.cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (0, 4, 3));
        assert_eq!(state.cx.cache.get(keyed.key), Some(again));
    }

    /// Two workers keying the same request at once publish one entry and
    /// answer the same report.
    #[test]
    fn racing_workers_publish_one_memo_entry() {
        let cx = context(ResultCache::in_memory(4));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let mut state = WorkerState::new(cx.clone());
                std::thread::spawn(move || compile(&mut state, "bert-tiny", "fmha"))
            })
            .collect();
        let replies: Vec<Value> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(replies[0], replies[1]);
        let by_model = cx.key_memo.by_model.read().unwrap();
        assert_eq!(by_model.len(), 1);
        assert_eq!(by_model["bert-tiny"].len(), 1);
        assert_eq!(cx.cache.stats().stores, 1, "the second put found the first");
    }
}
