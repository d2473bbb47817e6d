//! # pypm-engine — the DLCB rewrite engine
//!
//! The paper's DLCB backend "dynamically loads and parses a user-specified
//! set of pattern binaries … repeatedly traverses the graph, attempting to
//! match any of the patterns … greedily rewriting all of the patterns it
//! can match until no matches remain" (§2.4). This crate is that backend,
//! organised as a pass manager:
//!
//! * [`Session`] — the shared symbol/term/pattern stores of a
//!   compilation, with library/binary/text loading,
//! * [`Pipeline`] — the pass manager: an ordered, instrumented sequence
//!   of [`Pass`] stages over one session and graph, reporting per-pass
//!   counters, diagnostics and artifacts through [`PipelineReport`]
//!   (with a stable JSON rendering),
//! * [`RewritePass`] — the greedy fixpoint pass driving the CorePyPM
//!   abstract machine over graph term-views, with ordered guarded rule
//!   firing and [`PassStats`] (the raw data behind the paper's
//!   compile-time figures 12–13),
//! * [`SweepPolicy`] — the scan's candidate set: the incremental
//!   dirty-node worklist (default) or the paper-faithful restart scan
//!   kept as its oracle (see the table below),
//! * [`PartitionPass`] — directed graph partitioning (§4.2), published
//!   as a pipeline artifact,
//! * [`ExplainObserver`] / [`explain_at`] — live match/rewrite
//!   narratives and per-node machine-trace diagnostics.
//!
//! ## Sweep policies
//!
//! Both policies run the same scan loop and are byte-identical down
//! to node ids; they differ only in which nodes a round re-examines
//! and in where it starts:
//!
//! | [`SweepPolicy`] | after a rewrite fires | cost of the pass |
//! |---|---|---|
//! | `Incremental` (default) | re-enqueue only the rewrite's cone of influence; resume the scan order where the root stood | O(initial graph + Σ cone sizes + Σ replacement ancestors) |
//! | `RestartOnRewrite` (reference/oracle) | recompute the order, rescan from the first node | O(graph × rewrites) visits |
//!
//! The commit is as local as the match: [`pypm_graph::Graph::replace_traced`]
//! rewires through the reverse adjacency and [`pypm_graph::Graph::collect`]
//! frees the replaced root's cone by reference count.
//!
//! View maintenance is shared: one [`pypm_graph::TermView::build`],
//! then **lazy in-place patches** — a patch marks the rewrite's cone
//! stale (a pointer walk over the graph's incrementally maintained
//! reverse adjacency) and drops the marked nodes from the ordered
//! first-producer index; terms recompute on demand when the scan next
//! visits a node ([`pypm_graph::TermView::term_of_repaired`]), so nodes
//! dirtied by several consecutive rewrites recompute once. A fully
//! repaired view is contractually indistinguishable from a rebuild,
//! which is why even the paper-faithful restart *scan* pays no
//! per-round rebuild. The recomputes are measured by the
//! `nodes_reindexed` counter — ~14× below the old linear-refresh floor
//! on bert-small.
//!
//! The worklist invariants behind `Incremental` (why skipping clean
//! nodes is sound, why the firing order matches restarting exactly) are
//! documented on [`SweepPolicy::Incremental`] and proven empirically by
//! the `incremental_equivalence` and `pass_properties` suites; the
//! per-policy counters land in [`PassStats`] (`view_builds`,
//! `view_patches`, `nodes_revisited`, `nodes_reindexed`) and in the
//! additive `incremental` block of [`PipelineReport::to_json`].
//!
//! ## Parallel matching (threading)
//!
//! Orthogonal to the sweep policy, the match phase shards across a
//! **persistent worker pool**:
//! `Pipeline::new(&mut s).parallelism(ParallelConfig::with_jobs(n))`
//! fans every scan round's `(node × pattern)` probes over `n` shards
//! with static contiguous chunking (no work stealing). Shard 0 probes
//! on the calling thread; the rest are submitted to a
//! [`pypm_perf::pool::WorkerPool`] whose threads are spawned once per
//! run and stay warm across rounds, sweeps, passes, and — under
//! [`Pipeline::run_batch`] — every graph of a batched compilation
//! (`pool_rounds` / `pool_spawn_reuse` / `batch_graphs` measure the
//! reuse). A pool can even outlive pipelines: share one with
//! [`Pipeline::with_pool`]. Serial runs (`jobs = 1`) never construct a
//! pool at all, and rounds below the dispatch grain probe inline.
//!
//! **Commit stays serial — that is the point.** Workers only
//! *discover*: they share the frozen [`pypm_graph::TermView`]'s
//! attribute tables and the [`pypm_core::TermStore`] read-only behind
//! `Arc`s for the duration of one batch (the collect barrier returns
//! ownership; each worker clones the one store a machine run mutates,
//! the [`pypm_core::PatternStore`]), and the buffers merge in shard
//! order into a probe cache keyed by `(pattern, term)`. The unchanged
//! serial fixpoint loop then consumes cached outcomes in its canonical
//! (topo-order, rule-priority) order and performs every guard
//! evaluation, identity rejection and graph mutation single-threaded.
//! Firing sequences, final graphs and all [`PassStats`] counters are
//! therefore **byte-identical to `jobs = 1`** under both sweep
//! policies and any batch size — `tests/parallel_equivalence.rs`
//! (crate `pypm`) proves it zoo-wide, and the batch proptest in
//! `pass_properties.rs` randomizes batch size alongside jobs. Because
//! the cache key is the term, rewrites invalidate by construction
//! (changed nodes get fresh terms) and unchanged probes are memoized
//! across sweeps; like `Incremental`, this relies on attribute tables
//! being deterministic per term. One deliberate trade-off: warm phases
//! skip candidates whose term is awaiting lazy repair (they probe
//! inline at visit time, after the same on-demand repair a serial run
//! performs) — this keeps `nodes_reindexed` byte-identical across job
//! counts, at the cost of less speculation under
//! [`SweepPolicy::Incremental`], whose post-rewrite worklists are
//! mostly stale; the restart policy, whose rounds rescan everything,
//! keeps nearly all of its warm coverage. A worker panic surfaces as a
//! clean [`RewriteError::WorkerPanicked`] (never a hang; the pool
//! survives).
//! The speculative-work counters land in [`ParallelStats`] and the
//! additive `parallel` block of [`PipelineReport::to_json`]; the shard
//! scheduler lives in [`shard`], its chunking utilities in
//! [`pypm_perf::parallel`], the pool in [`pypm_perf::pool`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explain;
pub mod matcher;
pub mod partition;
pub mod pass;
pub mod pipeline;
pub mod rewriter;
pub mod session;
pub mod shard;

pub use explain::{explain_at, ExplainObserver, Explanation};
pub use matcher::{FusedMatcher, Matcher, MatcherBackend, MatcherStats, PerPatternMatcher};
pub use partition::{Partition, PartitionPass};
pub use pass::{
    Diagnostic, MatchRejected, Observer, Pass, PassError, PassOutcome, PassRecord, PipelineCx,
    RejectReason, RewriteFired, Severity,
};
pub use pipeline::{Pipeline, PipelineError, PipelineReport};
pub use rewriter::{find_matches, MatchReport, PassStats, RewriteError, RewritePass, SweepPolicy};
pub use session::Session;
pub use shard::{ParallelConfig, ParallelStats};
