//! The pipeline: an ordered list of [`RewritePass`]es over one
//! [`Session`].
//!
//! A pipeline borrows the session for the duration of a compilation,
//! runs its passes in order over one graph (each to its own fixpoint),
//! validates the graph after each pass that fired, and returns a
//! [`PipelineReport`] with per-pass wall-clock, counters and firing
//! logs, and the run's [`Stages`]: the rewrite pass laps its setup,
//! trie build, collection, term-view build and scan, and the pipeline
//! laps each pass's validation, all on one clock — the system clock
//! unless [`Pipeline::with_stages`] hands in a recorder of another.
//!
//! ```
//! use pypm_engine::{Pipeline, RewritePass, Session};
//! use pypm_dsl::LibraryConfig;
//! use pypm_graph::{DType, Graph};
//!
//! let mut s = Session::new();
//! let mut g = Graph::new();
//! let a = g.input(&mut s.syms, DType::F32, [64, 32]);
//! let b = g.input(&mut s.syms, DType::F32, [16, 32]);
//! let (trans, matmul) = (s.ops.trans, s.ops.matmul);
//! let bt = g.op(&mut s.syms, &s.registry, trans, vec![b], vec![]).unwrap();
//! let mm = g.op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![]).unwrap();
//! g.mark_output(mm);
//!
//! let rules = s.load_library(LibraryConfig::all());
//! let report = Pipeline::new(&mut s)
//!     .with(RewritePass::new(rules))
//!     .run(&mut g)
//!     .unwrap();
//! assert_eq!(report.total().rewrites_fired, 1);
//! assert!(report.to_json().contains("\"rewrites_fired\": 1"));
//! ```

use crate::pass::{FiringLog, PassError, PassRecord};
use crate::rewriter::{PassStats, RewritePass};
use crate::session::Session;
use pypm_core::json::{Layout, Writer};
use pypm_core::{system_clock, Budget, Stage, Stages};
use pypm_graph::Graph;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A failure in one pass of a pipeline run.
#[derive(Debug)]
pub struct PipelineError {
    /// Name of the failing pass.
    pub pass: &'static str,
    /// What went wrong.
    pub error: PassError,
    /// What the failing pass decided before it failed: a pass whose
    /// budget tripped has rewritten the graph this far. Boxed, to keep
    /// the error small.
    pub firings: Box<FiringLog>,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass {} failed: {}", self.pass, self.error)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// What a run threads through its passes: the running pass's
/// [`FiringLog`], and the run's batch size, budget and stage recorder.
pub(crate) struct PipelineCx {
    /// The running pass's log, which it appends its decisions to; it
    /// moves onto the pass's record when the pass finishes, onto the
    /// pipeline's error when it fails.
    pub(crate) firings: FiringLog,
    /// Graphs compiled by the owning run (1 for `Pipeline::run`, the
    /// batch length for `Pipeline::run_batch`); surfaces as the
    /// `batch_graphs` counter.
    batch_graphs: u64,
    /// Cooperative resource budget for the run, checked by passes at
    /// their scheduling points; `None` = unlimited.
    budget: Option<Arc<Budget>>,
    /// Where the run's time goes, by [`Stage`]: the one clock the
    /// pipeline reads.
    stages: Stages,
}

impl PipelineCx {
    /// Number of graphs the owning run compiles.
    pub(crate) fn batch_graphs(&self) -> u64 {
        self.batch_graphs
    }

    /// The run's cooperative resource budget, if one was installed via
    /// [`Pipeline::with_budget`].
    pub(crate) fn budget(&self) -> Option<&Arc<Budget>> {
        self.budget.as_ref()
    }

    /// The run's stage recorder so far.
    pub(crate) fn stages(&self) -> &Stages {
        &self.stages
    }

    /// Ends `stage` now (see [`Stages::lap`]); returns the boundary.
    pub(crate) fn lap(&mut self, stage: Stage) -> Instant {
        self.stages.lap(stage)
    }
}

/// An ordered sequence of [`RewritePass`]es over one [`Session`].
pub struct Pipeline<'s> {
    session: &'s mut Session,
    passes: Vec<RewritePass>,
    cx: PipelineCx,
}

impl fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.passes.len())
            .finish_non_exhaustive()
    }
}

impl<'s> Pipeline<'s> {
    /// Creates an empty pipeline over `session`.
    pub fn new(session: &'s mut Session) -> Self {
        Pipeline {
            session,
            passes: Vec::new(),
            cx: PipelineCx {
                firings: FiringLog::default(),
                batch_graphs: 1,
                budget: None,
                stages: Stages::new(system_clock()),
            },
        }
    }

    /// Appends a pass.
    pub fn with(mut self, pass: RewritePass) -> Self {
        self.passes.push(pass);
        self
    }

    /// Installs a cooperative resource [`Budget`] (wall deadline and/or
    /// machine-step cap) for this run. Passes check it at their
    /// scheduling points — the commit loop and fused matcher walks —
    /// and the run stops at the first pass to observe exhaustion,
    /// failing with [`PassError::BudgetExceeded`]. The session remains
    /// fully reusable afterwards, and a budget that never trips changes
    /// nothing: results stay byte-identical to an unbudgeted run.
    pub fn with_budget(mut self, budget: Arc<Budget>) -> Self {
        self.cx.budget = Some(budget);
        self
    }

    /// Records the run's stages into `stages`, reading its clock. A
    /// recorder that was started already is continued: the run's first
    /// stage is charged from its last boundary, so a caller lapping its
    /// own stages around the run shares one timeline with it. The
    /// report of each graph carries that graph's stages
    /// ([`PipelineReport::stages`]).
    pub fn with_stages(mut self, stages: Stages) -> Self {
        self.cx.stages = stages;
        self
    }

    /// Runs every pass in order over `graph`.
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass, naming it in the error.
    pub fn run(self, graph: &mut Graph) -> Result<PipelineReport, PipelineError> {
        let mut reports = self.run_batch(std::slice::from_mut(graph))?;
        Ok(reports.pop().expect("one graph, one report"))
    }

    /// Runs every pass in order over each graph of a batch, reusing the
    /// session stores and the passes across all of them. Returns one
    /// [`PipelineReport`] per graph, in input order; each report's
    /// `batch_graphs` counter records the batch size.
    ///
    /// Batching changes throughput, never results: each graph's firing
    /// sequence, final form and semantic counters are byte-identical to
    /// a standalone [`Pipeline::run`] over the same session state
    /// (`tests/batch_equivalence.rs` and the batch proptest in
    /// `pass_properties.rs` prove it).
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass of the first failing graph.
    pub fn run_batch(mut self, graphs: &mut [Graph]) -> Result<Vec<PipelineReport>, PipelineError> {
        self.cx.batch_graphs = (graphs.len() as u64).max(1);
        let mut reports = Vec::with_capacity(graphs.len());
        for graph in graphs {
            let passes = self.run_one(graph)?;
            // The run-scoped state (batch size, budget, the stage clock
            // and its last boundary) stays for the next graph.
            let stages = self.cx.stages.clone();
            self.cx.stages.clear();
            reports.push(PipelineReport { passes, stages });
        }
        Ok(reports)
    }

    /// One graph through every pass, returning their records. A pass
    /// that fired is validated after it runs; its wall runs from the
    /// stage boundary before it to the end of that validation.
    fn run_one(&mut self, graph: &mut Graph) -> Result<Vec<PassRecord>, PipelineError> {
        let mut records = Vec::with_capacity(self.passes.len());
        let cx = &mut self.cx;
        let mut started = match cx.stages.last() {
            Some(at) => at,
            None => cx.stages.start(),
        };
        for pass in &self.passes {
            let checked = pass
                .run(self.session, graph, cx)
                .map_err(PassError::from)
                .and_then(|stats| {
                    if stats.rewrites_fired > 0 {
                        graph.validate().map_err(|e| PassError::InvalidGraph {
                            reason: e.to_string(),
                        })?;
                    }
                    Ok(stats)
                });
            let stats = checked.map_err(|error| PipelineError {
                pass: RewritePass::NAME,
                error,
                firings: Box::new(std::mem::take(&mut cx.firings)),
            })?;
            let ended = cx.lap(Stage::Validate);
            records.push(PassRecord {
                name: RewritePass::NAME,
                changed: stats.rewrites_fired > 0,
                stats,
                wall: ended - started,
                firings: std::mem::take(&mut cx.firings),
            });
            started = ended;
        }
        Ok(records)
    }
}

/// Everything a pipeline run produced besides the rewritten graph:
/// per-pass records and stages.
#[derive(Debug)]
pub struct PipelineReport {
    passes: Vec<PassRecord>,
    stages: Stages,
}

impl PipelineReport {
    /// Where the run's time went for this graph, by stage. Not part of
    /// the `pypm.pipeline.v1` document.
    pub fn stages(&self) -> &Stages {
        &self.stages
    }

    /// Per-pass records, in run order.
    pub fn passes(&self) -> &[PassRecord] {
        &self.passes
    }

    /// Aggregate counters across all passes; durations sum.
    pub fn total(&self) -> PassStats {
        let mut total = PassStats::default();
        for r in &self.passes {
            let s = &r.stats;
            total.nodes_visited += s.nodes_visited;
            total.match_attempts += s.match_attempts;
            total.matches_found += s.matches_found;
            total.rewrites_fired += s.rewrites_fired;
            total.machine_steps += s.machine_steps;
            total.machine_backtracks += s.machine_backtracks;
            total.sweeps += s.sweeps;
            total.duration += s.duration;
            total.view_builds += s.view_builds;
            total.view_patches += s.view_patches;
            total.nodes_revisited += s.nodes_revisited;
            total.cursor_steps += s.cursor_steps;
            total.nodes_reindexed += s.nodes_reindexed;
            total.parallel.jobs = total.parallel.jobs.max(s.parallel.jobs);
            total.parallel.batch_graphs = total.parallel.batch_graphs.max(s.parallel.batch_graphs);
            total.matcher.absorb(&s.matcher);
        }
        total
    }

    /// Renders the report as JSON with the stable `pypm.pipeline.v1`
    /// schema, so external tooling (perf trackers, the `BENCH_*.json`
    /// trajectory) can consume pipeline runs:
    ///
    /// ```json
    /// {
    ///   "schema": "pypm.pipeline.v1",
    ///   "passes": [
    ///     {
    ///       "name": "rewrite", "changed": true, "wall_ms": 1.5,
    ///       "duration_ms": 1.4, "nodes_visited": 10, "match_attempts": 9,
    ///       "matches_found": 2, "rewrites_fired": 1, "machine_steps": 40,
    ///       "machine_backtracks": 3, "sweeps": 2,
    ///       "incremental": {"view_builds": 2, "view_patches": 0,
    ///                       "nodes_revisited": 4, "nodes_reindexed": 0},
    ///       "parallel": {"jobs": 1, "batch_graphs": 1, "warm_batches": 0,
    ///                    "pool_rounds": 0, "pool_spawn_reuse": 0,
    ///                    "probes_executed": 0, "probes_filtered": 0,
    ///                    "probes_reused": 0, "probes_inline": 0,
    ///                    "warm_wall_ms": 0.0, "probes_by_shard": []},
    ///       "matcher": {"backend": "fused", "terms_walked": 5,
    ///                   "trie_steps": 40, "pairs_admitted": 3,
    ///                   "pairs_rejected": 6}
    ///     }
    ///   ],
    ///   "totals": { ...same counter fields, "wall_ms" summed... },
    ///   "diagnostics": []
    /// }
    /// ```
    ///
    /// `diagnostics` is a literal empty array, kept so that every
    /// document, served report and cached entry keeps its bytes.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(2048);
        w.begin_object(Layout::Lines);
        w.key("schema").string("pypm.pipeline.v1");
        w.key("passes").begin_array(Layout::Lines);
        for r in &self.passes {
            w.begin_object(Layout::Inline);
            w.key("name").string(r.name);
            w.key("changed").scalar(r.changed);
            w.key("wall_ms").fixed(r.wall.as_secs_f64() * 1e3, 6);
            stats_fields(&mut w, &r.stats);
            w.end();
        }
        w.end();
        w.key("totals").begin_object(Layout::Inline);
        // Folded from +0.0: `Iterator::sum`'s empty float sum is -0.0
        // on current toolchains and +0.0 on older ones.
        let wall_ms = self
            .passes
            .iter()
            .fold(0.0, |ms, r| ms + r.wall.as_secs_f64() * 1e3);
        w.key("passes").scalar(self.passes.len());
        w.key("wall_ms").fixed(wall_ms, 6);
        stats_fields(&mut w, &self.total());
        w.end();
        w.key("diagnostics").begin_array(Layout::Lines);
        w.end();
        w.end();
        w.finish() + "\n"
    }
}

/// The shared counter fields of one [`PassStats`], as members of the
/// object `w` has open. The trailing `incremental`, `parallel` and
/// `matcher` objects are the schema's additive blocks:
/// incremental-rewriting view maintenance (all zero for passes that
/// never build a term view), what the retired parallel match phase
/// left of its block ([`crate::ParallelStats`]: `jobs` and
/// `batch_graphs` are live, the other nine keys are literal zeros), and
/// the candidate-discovery counters of the configured matcher backend
/// (`backend` is empty for passes that never probe).
fn stats_fields(w: &mut Writer, s: &PassStats) {
    w.key("duration_ms")
        .fixed(s.duration.as_secs_f64() * 1e3, 6);
    w.key("nodes_visited").scalar(s.nodes_visited);
    w.key("match_attempts").scalar(s.match_attempts);
    w.key("matches_found").scalar(s.matches_found);
    w.key("rewrites_fired").scalar(s.rewrites_fired);
    w.key("machine_steps").scalar(s.machine_steps);
    w.key("machine_backtracks").scalar(s.machine_backtracks);
    w.key("sweeps").scalar(s.sweeps);
    w.key("incremental").begin_object(Layout::Inline);
    w.key("view_builds").scalar(s.view_builds);
    w.key("view_patches").scalar(s.view_patches);
    w.key("nodes_revisited").scalar(s.nodes_revisited);
    w.key("nodes_reindexed").scalar(s.nodes_reindexed);
    w.end();
    let p = &s.parallel;
    w.key("parallel").begin_object(Layout::Inline);
    w.key("jobs").scalar(p.jobs);
    w.key("batch_graphs").scalar(p.batch_graphs);
    for retired in [
        "warm_batches",
        "pool_rounds",
        "pool_spawn_reuse",
        "probes_executed",
        "probes_filtered",
        "probes_reused",
        "probes_inline",
    ] {
        w.key(retired).scalar(0);
    }
    w.key("warm_wall_ms").fixed(0.0, 6);
    w.key("probes_by_shard").begin_array(Layout::Inline);
    w.end();
    w.end();
    let m = &s.matcher;
    w.key("matcher").begin_object(Layout::Inline);
    w.key("backend").string(m.backend);
    w.key("terms_walked").scalar(m.terms_walked);
    w.key("trie_steps").scalar(m.trie_steps);
    w.key("pairs_admitted").scalar(m.pairs_admitted);
    w.key("pairs_rejected").scalar(m.pairs_rejected);
    w.end();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatcherStats;
    use crate::retired::ParallelStats;
    use std::time::Duration;

    /// A report with every counter distinct and two passes: one with
    /// an empty stats block, and a name needing escapes.
    fn fixed_report() -> PipelineReport {
        let stats = PassStats {
            nodes_visited: 101,
            match_attempts: 102,
            matches_found: 103,
            rewrites_fired: 104,
            machine_steps: 105,
            machine_backtracks: 106,
            sweeps: 107,
            duration: Duration::from_micros(1_234_567),
            view_builds: 108,
            view_patches: 109,
            nodes_revisited: 110,
            cursor_steps: 0,
            nodes_reindexed: 111,
            parallel: ParallelStats {
                jobs: 1,
                batch_graphs: 2,
                probes_executed: 0,
            },
            matcher: MatcherStats {
                backend: "fused",
                terms_walked: 119,
                trie_steps: 120,
                pairs_admitted: 121,
                pairs_rejected: 122,
            },
        };
        PipelineReport {
            passes: vec![
                PassRecord {
                    name: "rewrite",
                    changed: true,
                    stats,
                    wall: Duration::from_micros(2_500_001),
                    firings: FiringLog::default(),
                },
                PassRecord {
                    name: "part\"ition\\",
                    changed: false,
                    stats: PassStats::default(),
                    wall: Duration::from_nanos(1),
                    firings: FiringLog::default(),
                },
            ],
            stages: Stages::new(system_clock()),
        }
    }

    /// `pypm.pipeline.v1` is pinned byte-for-byte to documents captured
    /// from the `format!`-built renderer this writer replaced.
    #[test]
    fn report_json_is_byte_identical_to_the_pinned_golden() {
        assert_eq!(
            fixed_report().to_json(),
            include_str!("../../../tests/golden/pipeline_v1.json")
        );
        assert_eq!(
            empty_report().to_json(),
            include_str!("../../../tests/golden/pipeline_v1_empty.json")
        );
    }

    /// What `--config baseline` compiles to: no pass ran.
    fn empty_report() -> PipelineReport {
        PipelineReport {
            passes: Vec::new(),
            stages: Stages::new(system_clock()),
        }
    }

    /// The total wall of no passes is `+0.0` on every toolchain (the
    /// float `Sum` identity is `-0.0` on current ones).
    #[test]
    fn a_pass_less_report_renders_a_non_negative_zero() {
        let json = empty_report().to_json();
        assert!(json.contains("\"wall_ms\": 0.000000"), "{json}");
        assert!(!json.contains("-0."), "{json}");
    }
}
