//! # pypm-engine — the DLCB rewrite engine
//!
//! The paper's DLCB backend "dynamically loads and parses a user-specified
//! set of pattern binaries … repeatedly traverses the graph, attempting to
//! match any of the patterns … greedily rewriting all of the patterns it
//! can match until no matches remain" (§2.4). This crate is that backend:
//!
//! * [`Session`] — the shared symbol/term/pattern stores of a
//!   compilation, with library and binary rule-set loading,
//! * [`Pipeline`] — an ordered, instrumented list of [`RewritePass`]es
//!   over one session and graph, reporting per-pass counters and firing
//!   logs through [`PipelineReport`] (with a stable JSON rendering),
//! * [`RewritePass`] — the greedy fixpoint pass driving the CorePyPM
//!   abstract machine over graph term-views, with ordered guarded rule
//!   firing and [`PassStats`] (the raw data behind the paper's
//!   compile-time figures 12–13),
//! * [`SweepPolicy`] — the scan's candidate set: the incremental
//!   dirty-node worklist (default) or the paper-faithful restart scan
//!   kept as its oracle (see the table below),
//! * [`MatcherBackend`] — the pass's one candidate index: every pattern
//!   at every term, or the fused discrimination tree ([`FusedMatcher`],
//!   the default; see [`matcher`]),
//! * [`partition()`] — directed graph partitioning (§4.2), a function its
//!   callers call directly (it rewrites nothing),
//! * [`FiringLog`] / [`summary`] / [`explain_at`] — what a pass fired
//!   and rejected, on its [`PassRecord`], and per-node machine traces.
//!
//! ## Sweep policies
//!
//! Both policies run the same scan loop and are byte-identical down
//! to node ids; they differ only in which nodes a round re-examines
//! and in where it starts:
//!
//! | [`SweepPolicy`] | after a rewrite fires | cost of the pass |
//! |---|---|---|
//! | `Incremental` (default) | re-enqueue only the rewrite's cone of influence; resume the scan order where the root stood | O(initial graph + Σ cone sizes) |
//! | `RestartOnRewrite` (reference/oracle) | walk the order afresh from the first node, lazily: a round pays for the prefix it scans | O(graph × rewrites) visits |
//!
//! The commit is as local as the match: [`pypm_graph::Graph::replace_traced`]
//! splices the root's use-list onto the replacement (the graph keeps
//! its reverse edges as use-lists threaded through its edge arena, as
//! LLVM and MLIR do) and bounds its cycle check by
//! the graph's maintained topological levels, and
//! [`pypm_graph::Graph::collect`] frees the replaced root's cone by
//! reference count.
//!
//! View maintenance is shared and lazy from the start: one
//! [`pypm_graph::TermView::empty`] view, in which every live node is
//! *unseen* and no term is interned, then **lazy in-place patches** — a
//! patch marks the rewrite's cone stale (a pointer walk over the
//! graph's incrementally maintained use-lists; it compares no terms)
//! and drops the marked nodes' terms. The nodes the view owes a term,
//! stale or unseen ([`pypm_graph::TermView::owes`]), are the
//! `Incremental` scan's worklist: the view keeps that set, and the scan
//! keeps no copy of it. A node's term is interned when the scan first
//! reads it, and recomputed there after a patch marked it
//! ([`pypm_graph::TermView::term_of_repaired`]), so nodes dirtied by
//! several consecutive rewrites recompute once and nodes a rewrite
//! deletes before the scan reaches them are never interned. A fully
//! interned view is contractually indistinguishable from a
//! [`pypm_graph::TermView::build`], and nothing the scan reads could
//! tell the difference: a term a rule's RHS variable names resolves
//! below the matched root ([`pypm_graph::TermView::node_below`]), whose
//! input cone the visit has just interned. That is why even the
//! paper-faithful restart *scan* pays no per-round rebuild. The
//! recomputes are measured by the `nodes_reindexed` counter — ~14×
//! below the old linear-refresh floor on bert-small.
//!
//! The worklist invariants behind `Incremental` (why skipping clean
//! nodes is sound, why the firing order matches restarting exactly) are
//! documented on [`SweepPolicy::Incremental`] and proven empirically by
//! the `incremental_equivalence` and `pass_properties` suites; the
//! per-policy counters land in [`PassStats`] (`view_builds`,
//! `view_patches`, `nodes_revisited`, `nodes_reindexed`) and in the
//! additive `incremental` block of [`PipelineReport::to_json`].
//!
//! ## Where the pass decides what
//!
//! [`rewriter`] is split by decision, one module per step of the
//! paper's loop; the per-run state lives on its driver, so each step is
//! one function with one call site:
//!
//! | module | decides |
//! |---|---|
//! | `rewriter` | when the pass stops: the round loop, and view repair (`TermView::patch`) after each firing |
//! | `rewriter::order` | which node is visited next: the resumed worklist or the restart walk, and the dev checks of both |
//! | `rewriter::visit` | which patterns a node is probed with: admission by the candidate index, then the machine probes |
//! | `rewriter::fire` | which rule fires, and the commit: build, `replace_traced`, `collect`, log |
//! | [`matcher`] | which patterns are candidates at a term |
//!
//! ## A visit costs its loads
//!
//! Under `RestartOnRewrite` almost every visit revisits a clean node
//! whose memoized candidate set is empty, so the scan's per-visit path
//! is its hottest code: one [`pypm_graph::TopoWalk::next`] step, one
//! slot read of the view, one memo read. Those leaves live in other
//! crates, and the repo benchmark's harness builds this workspace under
//! its own release profile, without LTO, where a non-generic function
//! of another crate is inlined only if it is marked `#[inline]`. So the
//! leaves the visit calls across crates carry `#[inline]`
//! (`TopoWalk::next`, `TermView::term_of_repaired`, `owes`, `term_of`,
//! `NodeId::index`, `TermId::index`) and keep their slow paths out of
//! line (`TermView::repair` for an owed node, the fused matcher's first
//! walk of a term), so what is inlined stays a few loads. A workspace
//! LTO profile would not reach the harness's build.
//!
//! ## The match phase is serial
//!
//! A sharded, pooled match phase (`jobs > 1`) existed and was measured
//! against this loop on 32 cells of a 50–400-layer ladder; it won none
//! and was deleted (ROADMAP.md, profile ledger, PR 16). What is left is
//! in [`retired`]: the `parallel` block of [`PipelineReport::to_json`],
//! now constant apart from `jobs` and `batch_graphs`, and two inert
//! names the repo benchmark still compiles against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explain;
pub mod matcher;
pub mod partition;
pub mod pass;
pub mod pipeline;
pub mod retired;
pub mod rewriter;
pub mod session;

pub use explain::{explain_at, summary, Explanation};
pub use matcher::{FusedMatcher, MatcherBackend, MatcherStats};
pub use partition::{partition, Partition};
pub use pass::{Firing, FiringLog, PassError, PassRecord, RejectReason, Rejection};
pub use pipeline::{Pipeline, PipelineError, PipelineReport};
pub use retired::{ParallelConfig, ParallelStats};
pub use rewriter::{find_matches, MatchReport, PassStats, RewriteError, RewritePass, SweepPolicy};
pub use session::Session;

/// Which engine produced an output. Two builds with the same epoch
/// produce byte-identical final graphs and reports for every zoo model
/// and configuration; a change that moves any of them bumps it. A
/// persistent result cache keys its entries on it, so an upgraded
/// server over an old cache directory misses entries the new engine
/// would not reproduce instead of replaying them.
/// `tests/engine_epoch.rs` pins it to a digest of those outputs, and
/// fails until a change that moves them bumps it.
pub const ENGINE_OUTPUT_EPOCH: u32 = 1;
