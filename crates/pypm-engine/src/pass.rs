//! The pass abstraction: compilation stages over one [`Session`].
//!
//! The paper's DLCB integration (§2.4) treats rewriting, partitioning
//! and match explanation as stages of a single compilation. A [`Pass`]
//! is one such stage; a [`crate::Pipeline`] schedules passes in order
//! and a [`PipelineCx`] carries what they share: diagnostics, per-pass
//! instrumentation, the run's stage recorder, published artifacts, and
//! the running pass's [`FiringLog`] of what it decided.
//!
//! The built-ins are [`crate::RewritePass`] and [`crate::PartitionPass`].

use crate::rewriter::{PassStats, RewriteError};
use crate::session::Session;
use pypm_core::{system_clock, Budget, Stage, Stages};
use pypm_graph::{Graph, NodeId};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One compilation stage, run by a [`crate::Pipeline`].
///
/// A pass receives the shared [`Session`] stores, the graph under
/// compilation, and the pipeline context for diagnostics, events and
/// artifacts. Read-only analyses (like [`crate::PartitionPass`]) simply
/// leave the graph untouched and report [`PassOutcome::unchanged`].
pub trait Pass {
    /// Stable name of the pass, used in records, diagnostics and JSON.
    fn name(&self) -> &str;

    /// Runs the pass over `graph`.
    ///
    /// # Errors
    ///
    /// Returns a [`PassError`] when the pass cannot complete; the
    /// pipeline stops at the first failing pass.
    fn run(
        &mut self,
        session: &mut Session,
        graph: &mut Graph,
        cx: &mut PipelineCx,
    ) -> Result<PassOutcome, PassError>;
}

/// What a pass did to the graph, plus its instrumentation counters.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Whether the pass mutated the graph.
    pub changed: bool,
    /// The pass's counters (zeroed for passes that don't match).
    pub stats: PassStats,
}

impl PassOutcome {
    /// An outcome for a pass that left the graph untouched.
    pub fn unchanged() -> Self {
        PassOutcome::default()
    }

    /// An outcome carrying rewrite-pass counters; the graph is
    /// considered changed when any rewrite fired.
    pub fn from_stats(stats: PassStats) -> Self {
        PassOutcome {
            changed: stats.rewrites_fired > 0,
            stats,
        }
    }
}

/// Errors raised by a [`Pass`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassError {
    /// Building a replacement subgraph failed.
    Rewrite(RewriteError),
    /// The graph failed validation after the pass ran.
    InvalidGraph {
        /// Validation failure rendered for humans.
        reason: String,
    },
    /// The compile's cooperative [`pypm_core::Budget`] was exhausted
    /// mid-pass. The session and graph stores remain fully
    /// reusable; the graph may have been partially rewritten.
    BudgetExceeded {
        /// The exhausted limits, e.g. `"timeout_ms=50 step_limit=1000"`.
        limits: String,
    },
    /// Any other pass-specific failure.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Rewrite(e) => write!(f, "{e}"),
            PassError::InvalidGraph { reason } => {
                write!(f, "invalid graph after pass: {reason}")
            }
            PassError::BudgetExceeded { limits } => {
                if limits.is_empty() {
                    write!(f, "compile budget exceeded")
                } else {
                    write!(f, "compile budget exceeded ({limits})")
                }
            }
            PassError::Failed { reason } => write!(f, "{reason}"),
        }
    }
}

impl std::error::Error for PassError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PassError::Rewrite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RewriteError> for PassError {
    fn from(e: RewriteError) -> Self {
        match e {
            // Budget exhaustion is a pipeline-level condition, not a
            // rewrite defect — surface it as its own variant so callers
            // (the serve layer in particular) can match on it.
            RewriteError::BudgetExceeded { limits } => PassError::BudgetExceeded { limits },
            other => PassError::Rewrite(other),
        }
    }
}

/// Why a successful match fired no rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Every rule's guard evaluated to false — the paper's "if no rule
    /// can apply, none fires".
    GuardsFailed,
    /// A guard held but the replacement was structurally identical to
    /// the matched subgraph (identity rewrites must not fire or the
    /// pass would never reach a fixpoint).
    IdentityReplacement,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::GuardsFailed => write!(f, "no rule guard held"),
            RejectReason::IdentityReplacement => write!(f, "identity replacement"),
        }
    }
}

/// A rewrite that fired, as recorded in a [`FiringLog`]. The nodes it
/// created and collected are read through the log
/// ([`FiringLog::created`], [`FiringLog::collected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Firing {
    /// Sweep number (1-based) the rewrite fired in.
    pub sweep: u64,
    /// Index of the matched pattern in the pass's rule set.
    pub pattern: usize,
    /// Index of the fired rule within the pattern's rule list.
    pub rule: usize,
    /// Root node of the replaced subgraph.
    pub node: NodeId,
    /// Where the firing's ids begin in the log's id vector: `created`
    /// ids, then `collected` ids.
    ids: u32,
    created: u32,
    collected: u32,
}

/// A match that fired no rewrite, as recorded in a [`FiringLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Sweep number (1-based) the match was found in.
    pub sweep: u64,
    /// Index of the matched pattern in the pass's rule set.
    pub pattern: usize,
    /// Node the pattern matched at.
    pub node: NodeId,
    /// Why no rule fired.
    pub reason: RejectReason,
}

/// What one pass decided, in decision order: every rewrite it fired
/// and every match it found that fired none. The running pass appends
/// to it; the pipeline moves it onto the pass's [`PassRecord`], or onto
/// the [`crate::PipelineError`] of a pass that failed, so a pass cut
/// short still says what it did to the graph. Patterns are indices
/// into the pass's rule set, and the ids every firing created and
/// collected share one vector, so recording an entry allocates only
/// when a vector doubles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FiringLog {
    fired: Vec<Firing>,
    rejected: Vec<Rejection>,
    /// Each firing's created ids, then its collected ids, end to end.
    ids: Vec<NodeId>,
}

impl FiringLog {
    /// Rewrites that fired, in firing order.
    pub fn fired(&self) -> &[Firing] {
        &self.fired
    }

    /// Matches that fired no rewrite, in discovery order.
    pub fn rejected(&self) -> &[Rejection] {
        &self.rejected
    }

    /// The replacement nodes `firing` created, in allocation order —
    /// the rule's right-hand side in post-order.
    pub fn created(&self, firing: &Firing) -> &[NodeId] {
        let at = firing.ids as usize;
        &self.ids[at..at + firing.created as usize]
    }

    /// The nodes `firing` collected once the replaced root was unread
    /// (the root and what only it kept alive), in id order.
    pub fn collected(&self, firing: &Firing) -> &[NodeId] {
        let at = (firing.ids + firing.created) as usize;
        &self.ids[at..at + firing.collected as usize]
    }

    /// Records a fired rewrite; returns its entry. `created` is the
    /// range of node indices the replacement allocated, and `collect`
    /// appends the ids the firing collected to the buffer it is lent —
    /// the log's own id vector, so an entry copies nothing.
    pub(crate) fn fire(
        &mut self,
        sweep: u64,
        pattern: usize,
        rule: usize,
        node: NodeId,
        created: Range<usize>,
        collect: impl FnOnce(&mut Vec<NodeId>),
    ) -> Firing {
        let len = |n: usize| u32::try_from(n).expect("node ids fit in 32 bits");
        let at = self.ids.len();
        self.ids.extend(created.map(NodeId::from_index));
        let made = self.ids.len();
        collect(&mut self.ids);
        let entry = Firing {
            sweep,
            pattern,
            rule,
            node,
            ids: len(at),
            created: len(made - at),
            collected: len(self.ids.len() - made),
        };
        self.fired.push(entry);
        entry
    }

    /// Records a match that fired no rewrite.
    pub(crate) fn reject(&mut self, rejection: Rejection) {
        self.rejected.push(rejection);
    }
}

/// Severity of a pipeline [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational.
    Note,
    /// Something suspicious that did not stop the pipeline.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One diagnostic emitted by a pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Name of the emitting pass.
    pub pass: String,
    /// Severity.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.severity, self.pass, self.message)
    }
}

/// The record of one completed pass, in pipeline order.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Pass name.
    pub name: String,
    /// Whether the pass mutated the graph.
    pub changed: bool,
    /// The pass's own counters ([`PassStats::duration`] covers only the
    /// matching loop; `wall` the whole pass).
    pub stats: PassStats,
    /// Wall-clock of the whole pass as measured by the pipeline.
    pub wall: Duration,
    /// What the pass decided (empty for passes that fire nothing). Not
    /// part of the `pypm.pipeline.v1` document.
    pub firings: FiringLog,
}

/// What a finished pipeline run decomposes into: records, diagnostics,
/// artifacts and stages.
pub(crate) type PipelineParts = (
    Vec<PassRecord>,
    Vec<Diagnostic>,
    BTreeMap<String, Box<dyn Any>>,
    Stages,
);

/// Shared state threaded through every pass of a pipeline run:
/// diagnostics, per-pass records, the stage recorder, published
/// artifacts, and the running pass's [`FiringLog`].
pub struct PipelineCx {
    diagnostics: Vec<Diagnostic>,
    records: Vec<PassRecord>,
    artifacts: BTreeMap<String, Box<dyn Any>>,
    current: String,
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

impl Default for PipelineCx {
    fn default() -> Self {
        PipelineCx {
            diagnostics: Vec::new(),
            records: Vec::new(),
            artifacts: BTreeMap::new(),
            current: String::new(),
            firings: FiringLog::default(),
            batch_graphs: 1,
            budget: None,
            stages: Stages::new(system_clock()),
        }
    }
}

impl fmt::Debug for PipelineCx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelineCx")
            .field("diagnostics", &self.diagnostics)
            .field("records", &self.records)
            .field("artifacts", &self.artifacts.keys().collect::<Vec<_>>())
            .field("current", &self.current)
            .finish()
    }
}

impl PipelineCx {
    /// Creates an empty context (no records).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of graphs the owning run compiles (1 for a plain
    /// [`crate::Pipeline::run`]).
    pub fn batch_graphs(&self) -> u64 {
        self.batch_graphs
    }

    /// The run's cooperative resource budget, if one was installed via
    /// [`crate::Pipeline::with_budget`]. Passes check it at their
    /// scheduling points and unwind with [`PassError::BudgetExceeded`].
    pub fn budget(&self) -> Option<&Arc<Budget>> {
        self.budget.as_ref()
    }

    /// Installs the run's cooperative resource budget.
    pub(crate) fn set_budget(&mut self, budget: Arc<Budget>) {
        self.budget = Some(budget);
    }

    /// The run's stage recorder so far.
    pub(crate) fn stages(&self) -> &Stages {
        &self.stages
    }

    /// Ends `stage` now (see [`Stages::lap`]); returns the boundary.
    pub(crate) fn lap(&mut self, stage: Stage) -> Instant {
        self.stages.lap(stage)
    }

    /// Replaces the run's stage recorder; a started one is continued.
    pub(crate) fn set_stages(&mut self, stages: Stages) {
        self.stages = stages;
    }

    /// Starts the stage recorder unless it already runs.
    pub(crate) fn start_stages(&mut self) -> Instant {
        match self.stages.last() {
            Some(at) => at,
            None => self.stages.start(),
        }
    }

    /// Records the batch size of the owning run.
    pub(crate) fn set_batch_graphs(&mut self, graphs: u64) {
        self.batch_graphs = graphs.max(1);
    }

    /// Emits an informational diagnostic attributed to the running pass.
    pub fn note(&mut self, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            pass: self.current.clone(),
            severity: Severity::Note,
            message: message.into(),
        });
    }

    /// Emits a warning diagnostic attributed to the running pass.
    pub fn warn(&mut self, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            pass: self.current.clone(),
            severity: Severity::Warning,
            message: message.into(),
        });
    }

    /// Diagnostics emitted so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Records of the passes completed so far.
    pub fn records(&self) -> &[PassRecord] {
        &self.records
    }

    /// Publishes a typed artifact under `key` for later passes and the
    /// final [`crate::PipelineReport`] (e.g. [`crate::PartitionPass`]
    /// publishes its `Vec<Partition>`).
    pub fn publish<T: Any>(&mut self, key: impl Into<String>, value: T) {
        self.artifacts.insert(key.into(), Box::new(value));
    }

    /// Reads back a previously published artifact.
    pub fn artifact<T: Any>(&self, key: &str) -> Option<&T> {
        self.artifacts.get(key).and_then(|a| a.downcast_ref())
    }

    /// Marks `name` as the running pass.
    pub(crate) fn begin_pass(&mut self, name: &str) {
        self.current = name.to_owned();
    }

    /// Records the finished pass, with its firing log.
    pub(crate) fn finish_pass(&mut self, outcome: PassOutcome, wall: Duration) {
        self.records.push(PassRecord {
            name: std::mem::take(&mut self.current),
            changed: outcome.changed,
            stats: outcome.stats,
            wall,
            firings: std::mem::take(&mut self.firings),
        });
    }

    /// Drains the per-graph parts (records, diagnostics, artifacts,
    /// stages) while keeping the run-scoped state — batch size, budget,
    /// the stage clock and its last boundary — in place. This is what
    /// lets [`crate::Pipeline::run_batch`] emit one report per graph
    /// over a single long-lived context.
    pub(crate) fn take_parts(&mut self) -> PipelineParts {
        let stages = self.stages.clone();
        self.stages.clear();
        (
            std::mem::take(&mut self.records),
            std::mem::take(&mut self.diagnostics),
            std::mem::take(&mut self.artifacts),
            stages,
        )
    }
}
