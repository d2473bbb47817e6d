//! The parallel match phase: sharded candidate discovery with a
//! deterministic serial commit.
//!
//! The rewrite pass is match-dominated — every `(node × pattern)` probe
//! drives the CorePyPM abstract machine, and probes are independent of
//! one another. This module fans them across worker threads while
//! keeping the pass's observable behaviour **byte-identical** to a
//! serial run:
//!
//! 1. **Discover in parallel, on warm threads.** At the start of every
//!    scan round the driver collects the candidate probes the round may
//!    consume, in the exact topo-order × rule-priority order the serial
//!    scan visits them. The warm phase cuts that list into contiguous
//!    static chunks (no work stealing — see
//!    [`pypm_perf::parallel::shard_ranges`]) and submits one task per
//!    chunk to the **persistent** [`pypm_perf::pool::WorkerPool`]
//!    (threads spawned once, reused across rounds, sweeps, passes and
//!    batched graphs — the `pool_rounds`/`pool_spawn_reuse` counters
//!    measure the reuse). Each worker probes its candidates into a
//!    **local buffer**: an `Arc`-shared `TermStore` /
//!    `GraphAttrInterp` (read-only for the batch's duration; the
//!    collect barrier returns ownership), plus a worker-local clone of
//!    the [`PatternStore`] (the one store a machine run mutates, via
//!    μ-unfolding — see the thread-safety notes on
//!    [`pypm_core::Machine`]). Shard 0 runs on the calling thread,
//!    overlapping the pool.
//! 2. **Merge deterministically.** Buffers are merged in shard order —
//!    which *is* candidate order, because the chunks are contiguous —
//!    into a probe cache keyed by `(pattern index, term)`. Outcomes are
//!    deterministic per key, and the pre-shard candidate list is
//!    deduplicated, so every key has exactly one producer.
//! 3. **Commit serially.** The unchanged serial fixpoint loop then
//!    *consumes* cached outcomes in the canonical (topo-order,
//!    rule-priority) order: guard evaluation, identity rejection and
//!    replacement construction all stay single-threaded, so firing
//!    sequences, final graphs and every *semantic* counter
//!    (`nodes_visited`, `match_attempts`, `matches_found`,
//!    `rewrites_fired`, `sweeps`, view maintenance) are identical to
//!    `jobs = 1` under both [`crate::SweepPolicy`]s.
//!
//! Invalidation is by construction: the cache key is the *term*, and a
//! rewrite gives every node in its cone of influence a fresh term, so
//! stale entries can never be consumed — a changed candidate misses the
//! cache and is re-probed (inline, or by the next round's warm phase)
//! exactly as [`crate::SweepPolicy::Incremental`] re-examines its cones.
//!
//! One property makes the phase cheaper than the serial matcher even
//! before any thread is spawned: **cross-round memoization.** Terms are
//! hash-consed, so a restart sweep re-visits mostly unchanged terms and
//! pays one hash lookup where the serial pass re-runs the machine.
//!
//! That is a *work* optimization, so the machine-work diagnostics
//! (`machine_steps`, `machine_backtracks`) report the smaller amount of
//! work actually done under `jobs > 1` — they are the measurement of
//! the optimization, not part of the byte-identity contract. Every
//! counter the bench gate pins (`match_attempts`, `matches_found`,
//! `rewrites_fired`) stays exact. Like
//! [`crate::SweepPolicy::Incremental`], cross-round reuse relies on the
//! attribute tables being deterministic per term (structurally equal
//! subgraphs carry equal metadata) — the invariant documented on that
//! variant and hunted by the nightly randomized divergence suites.

use pypm_core::{
    Budget, IdMap, Machine, Outcome, PatternId, PatternStore, TermId, TermStore, Witness,
};
use pypm_graph::GraphAttrInterp;
use pypm_perf::parallel::{available_jobs, shard_ranges};
use pypm_perf::pool::{PoolError, WorkerPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RAII loan of the session's [`TermStore`] to pool workers.
///
/// The store is moved into an [`Arc`] for the duration of one batch so
/// the long-lived workers can share it without lifetimes. On the happy
/// path the collect barrier guarantees every worker clone is dropped
/// before the loan ends, and `Drop` moves the store straight back. On
/// *error* paths — a task panic, a disconnected pool whose queue still
/// holds clones — `Drop` still restores the slot unconditionally:
/// it briefly waits for stray clones to die, then falls back to cloning
/// the contents. Either way the slot never stays defaulted, which is
/// what keeps a long-lived server's `PipelineCx` usable after a failed
/// round.
struct TermStoreLoan<'a> {
    slot: &'a mut TermStore,
    shared: Option<Arc<TermStore>>,
}

impl<'a> TermStoreLoan<'a> {
    fn new(slot: &'a mut TermStore) -> Self {
        let shared = Arc::new(std::mem::take(slot));
        TermStoreLoan {
            slot,
            shared: Some(shared),
        }
    }

    /// A worker's handle on the loaned store.
    fn share(&self) -> Arc<TermStore> {
        Arc::clone(self.shared.as_ref().expect("live until drop"))
    }

    /// The loaned store, for calling-thread (shard 0) probing.
    fn store(&self) -> &TermStore {
        self.shared.as_ref().expect("live until drop")
    }
}

impl Drop for TermStoreLoan<'_> {
    fn drop(&mut self) {
        let mut shared = self.shared.take().expect("taken exactly once, here");
        // Zero iterations on the happy path: after a collect barrier we
        // hold the only Arc. After an early error (pool disconnect with
        // queued tasks) a worker may still be dropping its clone; give
        // it a moment before paying for a deep clone.
        for _ in 0..1024 {
            match Arc::try_unwrap(shared) {
                Ok(store) => {
                    *self.slot = store;
                    return;
                }
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::yield_now();
                }
            }
        }
        *self.slot = (*shared).clone();
    }
}

/// Worker configuration for the parallel match phase, plumbed through
/// [`crate::PipelineCx`] (see [`crate::Pipeline::parallelism`]) down to
/// every [`crate::RewritePass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker-thread count for candidate discovery. `1` (the default)
    /// runs the classic fully serial pass — no speculation, no cache.
    pub jobs: usize,
}

impl ParallelConfig {
    /// The serial configuration: one job, no parallel match phase.
    pub fn serial() -> Self {
        ParallelConfig { jobs: 1 }
    }

    /// One worker per available hardware thread
    /// ([`pypm_perf::parallel::available_jobs`]).
    pub fn auto() -> Self {
        ParallelConfig {
            jobs: available_jobs(),
        }
    }

    /// An explicit worker count (clamped to at least 1).
    pub fn with_jobs(jobs: usize) -> Self {
        ParallelConfig { jobs: jobs.max(1) }
    }

    /// Whether the parallel match phase (and its probe cache) is on.
    pub fn is_parallel(&self) -> bool {
        self.jobs > 1
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Counters of the parallel match phase, reported additively alongside
/// the classic [`crate::PassStats`] fields. `jobs` always records the
/// configured worker count and `batch_graphs` the size of the owning
/// run (so a serial single-graph run reports `jobs: 1, batch_graphs:
/// 1`); every other field stays zero under `jobs = 1`.
///
/// Every probe the serial commit scan consumes is resolved one of
/// three ways, so
/// `probes_filtered + probes_reused + probes_inline == match_attempts`;
/// `probes_executed` is the speculative machine work the warm phases
/// performed, split per shard in [`ParallelStats::probes_by_shard`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Configured worker count (`jobs` of [`ParallelConfig`]).
    pub jobs: u64,
    /// Warm phases run (one per scan round with uncached candidates).
    pub warm_batches: u64,
    /// Warm phases dispatched through the persistent
    /// [`pypm_perf::pool::WorkerPool`] (rounds large enough to fan
    /// out; smaller rounds probe inline on the calling thread).
    pub pool_rounds: u64,
    /// Pool rounds that found the workers already warm — the pool had
    /// run at least one batch before (earlier rounds, earlier passes,
    /// or earlier graphs of a batched run). The first-ever round of a
    /// fresh pool is the only cold one, so over one pool's lifetime
    /// `pool_spawn_reuse == pool_rounds - 1`.
    pub pool_spawn_reuse: u64,
    /// Graphs compiled by the owning [`crate::Pipeline::run`] /
    /// [`crate::Pipeline::run_batch`] invocation (1 for a plain `run`).
    pub batch_graphs: u64,
    /// Probes executed (machine runs) by warm-phase workers.
    pub probes_executed: u64,
    /// Consumed probes the matcher's discovery index rejected (see
    /// [`crate::matcher`]) — guaranteed failures that run no machine at
    /// all. Always zero under [`crate::MatcherBackend::PerPattern`],
    /// which admits every pair.
    pub probes_filtered: u64,
    /// Consumed probes served from the memoized cache.
    pub probes_reused: u64,
    /// Consumed probes that missed the cache and ran a machine inline
    /// (candidates whose term appeared mid-round, after the warm
    /// phase).
    pub probes_inline: u64,
    /// Per-shard machine-run counts, indexed by shard; sums to
    /// `probes_executed`. Length is the configured job count (trailing
    /// shards stay 0 when a round had too few candidates to fan out).
    pub probes_by_shard: Vec<u64>,
    /// Wall-clock spent inside warm phases (submit to merge).
    pub warm_wall: Duration,
}

/// One memoized probe: the machine outcome for a `(pattern, term)`
/// pair, plus the counters a serial run of that probe would have added.
#[derive(Debug, Clone)]
pub(crate) struct ProbeResult {
    /// The witness on success, `None` on failure/fuel exhaustion.
    pub witness: Option<Witness>,
    /// Machine transitions the probe took.
    pub steps: u64,
    /// Machine backtracks the probe took.
    pub backtracks: u64,
}

impl ProbeResult {
    /// The single outcome→result mapping shared by the warm-phase
    /// workers and the driver's inline-miss path. Keeping it in one
    /// place is what makes warm-probed and inline-probed candidates
    /// structurally incapable of diverging (fuel exhaustion counts as
    /// "no match", exactly like the serial scan).
    pub(crate) fn from_run(
        outcome: Result<Outcome, pypm_core::MachineError>,
        stats: pypm_core::MachineStats,
    ) -> ProbeResult {
        ProbeResult {
            witness: match outcome {
                Ok(Outcome::Success(w)) => Some(w),
                Ok(Outcome::Failure) | Err(_) => None,
            },
            steps: stats.steps,
            backtracks: stats.backtracks,
        }
    }
}

/// Probe-cache key: pattern index in the rule set × matched term.
pub(crate) type ProbeKey = (usize, TermId);

/// The probe cache one pass run accumulates.
pub(crate) type ProbeCache = IdMap<ProbeKey, ProbeResult>;

/// Don't dispatch a pool task for fewer probes than this — below it,
/// the per-task cost (pattern-store clone + two channel transfers)
/// rivals the probes themselves, so tiny rounds probe on the calling
/// thread. The pre-pool scoped-thread design needed a grain of 256
/// (a thread *spawn* costs hundreds of machine runs); warm pool
/// dispatch is ~µs, which is what lets real zoo rounds (~30–250
/// probes after admission) actually fan out.
const MIN_PROBES_PER_SHARD: usize = 32;

/// One shard's probes, run to a local buffer. One machine per shard,
/// re-loaded per probe: amortizes the state-vector allocations across
/// the whole chunk. This is the single probe loop shared by the inline
/// (calling-thread) path and the pool workers, so the two cannot
/// diverge.
fn run_shard(
    patterns: &[PatternId],
    pats: &mut PatternStore,
    terms: &TermStore,
    attrs: &GraphAttrInterp,
    fuel: u64,
    chunk: &[ProbeKey],
    budget: Option<&Budget>,
) -> Vec<(ProbeKey, ProbeResult)> {
    let mut machine = Machine::new(pats, terms, attrs);
    let mut out = Vec::with_capacity(chunk.len());
    for &key in chunk {
        // Cooperative deadline: once the shared budget trips (here or
        // on any other shard), stop probing and return the partial
        // buffer — the driver aborts the pass at its next check, so a
        // short buffer is only ever observed by a failing run.
        if budget.is_some_and(|b| b.exceeded()) {
            break;
        }
        let (pi, t) = key;
        machine.load(patterns[pi], t);
        let outcome = machine.resume(fuel);
        let mstats = machine.stats();
        if let Some(b) = budget {
            b.charge(mstats.steps);
        }
        out.push((key, ProbeResult::from_run(outcome, mstats)));
    }
    out
}

/// The warm phase: probes `todo` (deduplicated, in candidate order)
/// across the persistent pool's workers and merges the buffered results
/// into `cache` in shard order. See the module docs for the determinism
/// argument.
///
/// `patterns` maps each rule-set pattern index to its [`PatternId`]
/// (tiny, cloned into each worker task). `terms` is temporarily moved
/// into an [`Arc`] so the long-lived workers can share it without
/// lifetimes — the batch collect is a barrier, so the store is always
/// recovered (and writable again) before this function returns.
/// Rounds too small to fan out probe inline on the calling thread and
/// never touch the pool.
///
/// # Errors
///
/// A panic inside a pool worker surfaces as [`PoolError`]; the pool
/// itself stays usable.
// A free function taking each store separately, rather than a struct,
// because the borrows come from *different* owners in the driver
// (session fields, the pass config, and the stats block).
#[allow(clippy::too_many_arguments)]
pub(crate) fn warm_probes(
    cfg: ParallelConfig,
    pool: Option<&WorkerPool>,
    patterns: &[PatternId],
    pats: &mut PatternStore,
    terms: &mut TermStore,
    attrs: &Arc<GraphAttrInterp>,
    fuel: u64,
    todo: &[ProbeKey],
    cache: &mut ProbeCache,
    stats: &mut ParallelStats,
    budget: Option<Arc<Budget>>,
) -> Result<(), PoolError> {
    if todo.is_empty() {
        return Ok(());
    }
    if stats.probes_by_shard.len() < cfg.jobs {
        stats.probes_by_shard.resize(cfg.jobs, 0);
    }
    stats.warm_batches += 1;
    let clock = Instant::now();
    let ranges = shard_ranges(todo.len(), cfg.jobs, MIN_PROBES_PER_SHARD);
    let pool = match pool {
        // One shard's worth of work (or no pool): probe on the calling
        // thread with the session's own stores — no clone, no channel.
        _ if ranges.len() == 1 => None,
        None => None,
        Some(pool) => Some(pool),
    };
    let buffers: Vec<Vec<(ProbeKey, ProbeResult)>> = match pool {
        None => ranges
            .iter()
            .map(|r| {
                run_shard(
                    patterns,
                    pats,
                    terms,
                    attrs,
                    fuel,
                    &todo[r.clone()],
                    budget.as_deref(),
                )
            })
            .collect(),
        Some(pool) => {
            if pool.batches_run() > 0 {
                stats.pool_spawn_reuse += 1;
            }
            stats.pool_rounds += 1;
            // Lend the term store to the workers: moved into an Arc for
            // the duration of the batch, restored by the loan's drop
            // guard on *every* exit path — the collect barrier is the
            // fast path, but a task panic or pool disconnect must not
            // leave the slot defaulted. Worker-local pattern stores are
            // clones (μ-unfolding interns patterns; cloning is cheap
            // next to the probes a chunk serves).
            let loan = TermStoreLoan::new(terms);
            let tasks: Vec<_> = ranges[1..]
                .iter()
                .map(|r| {
                    let chunk: Vec<ProbeKey> = todo[r.clone()].to_vec();
                    let patterns = patterns.to_vec();
                    let mut worker_pats = pats.clone();
                    let worker_terms = loan.share();
                    let worker_attrs = Arc::clone(attrs);
                    let worker_budget = budget.clone();
                    move || {
                        // Failpoints (no-ops unless armed, one atomic
                        // load each): `worker.panic` exercises the
                        // pool's catch_unwind + loan-restore recovery,
                        // `worker.slow` stalls a shard to simulate a
                        // straggler under a deadline.
                        if pypm_faults::fires("worker.panic").is_some() {
                            panic!("injected warm-phase worker panic (failpoint worker.panic)");
                        }
                        pypm_faults::sleep_if_delayed("worker.slow");
                        run_shard(
                            &patterns,
                            &mut worker_pats,
                            &worker_terms,
                            &worker_attrs,
                            fuel,
                            &chunk,
                            worker_budget.as_deref(),
                        )
                    }
                })
                .collect();
            let batch = pool.submit(tasks);
            // Shard 0 runs on the calling thread, overlapping the pool
            // workers; buffers come back in shard order regardless of
            // completion order.
            let first = run_shard(
                patterns,
                pats,
                loan.store(),
                attrs,
                fuel,
                &todo[ranges[0].clone()],
                budget.as_deref(),
            );
            let rest = batch.collect();
            drop(loan);
            let mut buffers = vec![first];
            buffers.extend(rest?);
            buffers
        }
    };
    // Merge in shard order — candidate order, since chunks are
    // contiguous. Keys are unique (deduplicated upstream), so the
    // merge order only matters for determinism of iteration-free maps,
    // which a keyed map gives us for free; ordering is preserved
    // where it matters, in the serial commit scan.
    for (shard, buffer) in buffers.into_iter().enumerate() {
        let probes = buffer.len() as u64;
        stats.probes_by_shard[shard] += probes;
        stats.probes_executed += probes;
        cache.extend(buffer);
    }
    stats.warm_wall += clock.elapsed();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use pypm_dsl::LibraryConfig;
    use pypm_graph::{DType, Graph, TensorMeta, TermView};

    #[test]
    fn parallel_config_defaults_and_clamps() {
        assert_eq!(ParallelConfig::default(), ParallelConfig::serial());
        assert!(!ParallelConfig::serial().is_parallel());
        assert_eq!(ParallelConfig::with_jobs(0).jobs, 1);
        assert!(ParallelConfig::with_jobs(2).is_parallel());
        assert!(ParallelConfig::auto().jobs >= 1);
    }

    /// The failpoint registry is process-global: the test that arms
    /// `worker.panic` and the tests whose pool workers consult it must
    /// not overlap.
    static FAILPOINTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Warm-phase outcomes must agree with a direct serial machine run,
    /// probe for probe, and account every probe to a shard.
    #[test]
    fn warm_probes_match_serial_probes() {
        let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::both());
        let mut g = Graph::new();
        // Wide enough that the candidate list exceeds the per-shard
        // grain and the warm phase genuinely spawns worker threads.
        let trans = s.ops.trans;
        let matmul = s.ops.matmul;
        let relu = s.ops.relu;
        for _ in 0..64 {
            let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
            let b = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
            let bt = g
                .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
                .unwrap();
            let mm = g
                .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
                .unwrap();
            let act = g
                .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
                .unwrap();
            g.mark_output(act);
        }
        let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);

        // Every (pattern, term) candidate of the graph, deduplicated.
        let mut todo: Vec<ProbeKey> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for node in g.topo_order() {
            let t = view.term_of(node).unwrap();
            for (pi, def) in rules.patterns.iter().enumerate() {
                if !def.rules.is_empty() && seen.insert((pi, t)) {
                    todo.push((pi, t));
                }
            }
        }

        let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        let pool = WorkerPool::new(3);
        let mut cache = ProbeCache::default();
        let mut stats = ParallelStats::default();
        let attrs = view.attrs_shared();
        warm_probes(
            ParallelConfig::with_jobs(4),
            Some(&pool),
            &patterns,
            &mut s.pats,
            &mut s.terms,
            &attrs,
            1_000_000,
            &todo,
            &mut cache,
            &mut stats,
            None,
        )
        .unwrap();
        assert_eq!(cache.len(), todo.len());
        assert_eq!(stats.probes_executed, todo.len() as u64);
        assert_eq!(
            stats.probes_by_shard.iter().sum::<u64>(),
            stats.probes_executed
        );
        assert_eq!(stats.warm_batches, 1);
        assert_eq!(stats.pool_rounds, 1, "a large round must use the pool");
        assert_eq!(stats.pool_spawn_reuse, 0, "first-ever batch is cold");
        assert!(
            stats.probes_by_shard.iter().filter(|&&p| p > 0).count() > 1,
            "large candidate list must fan out across shards: {:?}",
            stats.probes_by_shard
        );
        // The term store came back from the workers intact and usable.
        assert!(!s.terms.is_empty());

        for &(pi, t) in &todo {
            let cached = &cache[&(pi, t)];
            let mut machine = Machine::new(&mut s.pats, &s.terms, view.attrs());
            let outcome = machine.run(rules.patterns[pi].pattern, t, 1_000_000);
            let mstats = machine.stats();
            assert_eq!(
                cached.steps, mstats.steps,
                "steps diverged for ({pi}, {t:?})"
            );
            assert_eq!(cached.backtracks, mstats.backtracks);
            let serial_witness = match outcome {
                Ok(Outcome::Success(w)) => Some(w),
                _ => None,
            };
            match (&cached.witness, &serial_witness) {
                (None, None) => {}
                (Some(cw), Some(sw)) => {
                    assert_eq!(cw.theta, sw.theta, "theta diverged for ({pi}, {t:?})");
                    assert_eq!(cw.phi, sw.phi, "phi diverged for ({pi}, {t:?})");
                }
                other => panic!("outcome diverged for ({pi}, {t:?}): {other:?}"),
            }
        }
    }

    #[test]
    fn warm_probes_is_a_no_op_on_an_empty_candidate_list() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::both());
        let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        let mut cache = ProbeCache::default();
        let mut stats = ParallelStats::default();
        let g = Graph::new();
        let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
        let attrs = view.attrs_shared();
        warm_probes(
            ParallelConfig::with_jobs(8),
            None,
            &patterns,
            &mut s.pats,
            &mut s.terms,
            &attrs,
            1_000,
            &[],
            &mut cache,
            &mut stats,
            None,
        )
        .unwrap();
        assert!(cache.is_empty());
        assert_eq!(stats, ParallelStats::default());
    }

    /// Builds a session plus a candidate list wide enough that the
    /// warm phase genuinely fans out over a pool. Shared by the
    /// panic-recovery regressions.
    fn wide_candidate_fixture() -> (Session, Vec<PatternId>, Vec<ProbeKey>, Arc<GraphAttrInterp>) {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::both());
        let mut g = Graph::new();
        let trans = s.ops.trans;
        let matmul = s.ops.matmul;
        let relu = s.ops.relu;
        for _ in 0..64 {
            let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
            let b = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
            let bt = g
                .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
                .unwrap();
            let mm = g
                .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
                .unwrap();
            let act = g
                .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
                .unwrap();
            g.mark_output(act);
        }
        let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
        let mut todo: Vec<ProbeKey> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for node in g.topo_order() {
            let t = view.term_of(node).unwrap();
            for (pi, def) in rules.patterns.iter().enumerate() {
                if !def.rules.is_empty() && seen.insert((pi, t)) {
                    todo.push((pi, t));
                }
            }
        }
        let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        let attrs = view.attrs_shared();
        (s, patterns, todo, attrs)
    }

    /// The regression for the take→`Arc`→restore bug: a worker panic
    /// must surface as a clean [`PoolError`] *and* leave the session's
    /// term store restored — and the very next round over the same
    /// session and pool must succeed. (Before the loan guard, the
    /// error path left the store defaulted, poisoning every subsequent
    /// run in a long-lived process.)
    #[test]
    fn worker_panic_restores_the_term_store_and_the_next_round_works() {
        let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
        let (mut s, patterns, todo, attrs) = wide_candidate_fixture();
        let pool = WorkerPool::new(3);
        let terms_before = s.terms.len();
        assert!(terms_before > 0);

        let mut cache = ProbeCache::default();
        let mut stats = ParallelStats::default();
        pypm_faults::arm("worker.panic=panic*1").unwrap();
        let err = warm_probes(
            ParallelConfig::with_jobs(4),
            Some(&pool),
            &patterns,
            &mut s.pats,
            &mut s.terms,
            &attrs,
            1_000_000,
            &todo,
            &mut cache,
            &mut stats,
            None,
        )
        .unwrap_err();
        pypm_faults::disarm();
        assert!(matches!(err, PoolError::TaskPanicked { .. }), "{err:?}");
        assert_eq!(
            s.terms.len(),
            terms_before,
            "the loan guard must restore the term store on the error path"
        );

        let mut cache = ProbeCache::default();
        let mut stats = ParallelStats::default();
        warm_probes(
            ParallelConfig::with_jobs(4),
            Some(&pool),
            &patterns,
            &mut s.pats,
            &mut s.terms,
            &attrs,
            1_000_000,
            &todo,
            &mut cache,
            &mut stats,
            None,
        )
        .unwrap();
        assert_eq!(cache.len(), todo.len(), "the pool must stay usable");
    }

    /// When a stray worker clone outlives the batch (a disconnected
    /// pool's queue, in real life), the loan's drop guard falls back to
    /// cloning the contents out — the slot is never left defaulted.
    #[test]
    fn loan_drop_clones_out_when_a_worker_clone_lingers() {
        let mut s = Session::new();
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![4, 4]));
        let relu = s.ops.relu;
        let r = g
            .op(&mut s.syms, &s.registry, relu, vec![a], vec![])
            .unwrap();
        g.mark_output(r);
        let _view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
        let before = s.terms.len();
        assert!(before > 0);

        let lingering = {
            let loan = TermStoreLoan::new(&mut s.terms);
            loan.share()
            // loan drops here with the clone still alive
        };
        assert_eq!(
            s.terms.len(),
            before,
            "clone fallback must restore the contents"
        );
        assert_eq!(lingering.len(), before);
    }

    /// Small rounds must not pay the pool: they probe inline on the
    /// calling thread even when a pool is available.
    #[test]
    fn small_rounds_probe_inline_without_the_pool() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::both());
        let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![4, 4]));
        let relu = s.ops.relu;
        let r = g
            .op(&mut s.syms, &s.registry, relu, vec![a], vec![])
            .unwrap();
        g.mark_output(r);
        let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
        let t = view.term_of(r).unwrap();
        let todo: Vec<ProbeKey> = (0..rules.patterns.len())
            .filter(|&pi| !rules.patterns[pi].rules.is_empty())
            .map(|pi| (pi, t))
            .collect();
        let pool = WorkerPool::new(2);
        let mut cache = ProbeCache::default();
        let mut stats = ParallelStats::default();
        let attrs = view.attrs_shared();
        warm_probes(
            ParallelConfig::with_jobs(4),
            Some(&pool),
            &patterns,
            &mut s.pats,
            &mut s.terms,
            &attrs,
            1_000_000,
            &todo,
            &mut cache,
            &mut stats,
            None,
        )
        .unwrap();
        assert_eq!(cache.len(), todo.len());
        assert_eq!(stats.pool_rounds, 0, "handful of probes: no fan-out");
        assert_eq!(pool.batches_run(), 0, "the pool never saw the round");
    }
}
