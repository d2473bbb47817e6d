//! What a rewrite pass leaves behind: its [`PassRecord`], the
//! [`FiringLog`] of what it decided, and the [`PassError`] it stops a
//! [`crate::Pipeline`] with.
//!
//! A pipeline runs [`crate::RewritePass`]es in order, the paper's
//! greedy fixpoint loop (§2.4) once per rule set. Directed partitioning
//! (§4.2) is not a pass: it rewrites nothing, and its callers call
//! [`crate::partition()`] directly.

use crate::rewriter::{PassStats, RewriteError};
use pypm_graph::NodeId;
use std::fmt;
use std::ops::Range;
use std::time::Duration;

/// Errors raised by a [`crate::RewritePass`] or the validation after it.
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

/// The record of one completed pass, in pipeline order.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Pass name.
    pub name: &'static str,
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
