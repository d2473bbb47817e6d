//! Match diagnostics: *why* did a pattern match or fail at a node?
//!
//! The paper motivates the formalization with the opacity of the C++
//! matcher — "in absence of a specification, it is not even clear what it
//! would mean for the code to be 'correct'" (§1). A pleasant side effect
//! of implementing the algorithmic semantics rule-for-rule is that every
//! run carries its own explanation: the exact sequence of Fig. 17–18
//! transitions. This module packages that trace into a report pattern
//! authors can read.

use crate::pass::{MatchRejected, Observer, PassRecord, RejectReason, RewriteFired};
use crate::session::Session;
use pypm_core::{Machine, Outcome, RuleName};
use pypm_dsl::RuleSet;
use pypm_graph::{Graph, NodeId, TermView};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Diagnostic report for one pattern at one node.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The pattern name.
    pub pattern: String,
    /// The node the match was attempted at.
    pub node: NodeId,
    /// Whether the match succeeded.
    pub matched: bool,
    /// Total machine transitions.
    pub steps: u64,
    /// Backtracks taken (alternates and conflicts).
    pub backtracks: u64,
    /// μ-unfoldings performed.
    pub mu_unfolds: u64,
    /// How often each step-relation rule fired, in rule order.
    pub rule_counts: BTreeMap<String, u64>,
    /// For successes: the witness rendered with names.
    pub witness: Option<String>,
    /// For failures: the conflict kinds encountered, most frequent
    /// first — the places matching kept dying.
    pub conflicts: Vec<(String, u64)>,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pattern {} at {:?}: {}",
            self.pattern,
            self.node,
            if self.matched { "MATCHED" } else { "no match" }
        )?;
        writeln!(
            f,
            "  {} steps, {} backtracks, {} μ-unfolds",
            self.steps, self.backtracks, self.mu_unfolds
        )?;
        if let Some(w) = &self.witness {
            writeln!(f, "  witness: {w}")?;
        }
        if !self.conflicts.is_empty() {
            writeln!(f, "  conflicts:")?;
            for (kind, n) in &self.conflicts {
                writeln!(f, "    {n}× {kind}")?;
            }
        }
        Ok(())
    }
}

/// Truncates a rendered witness: bound subgraphs can be whole model
/// prefixes, which would drown the diagnostic.
fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_owned();
    }
    let head: String = s.chars().take(max).collect();
    format!("{head}… ({} chars)", s.chars().count())
}

/// Runs one named pattern at one node with tracing enabled and explains
/// the outcome. Returns `None` for unknown patterns or unreachable
/// nodes.
pub fn explain_at(
    session: &mut Session,
    rules: &RuleSet,
    graph: &Graph,
    node: NodeId,
    pattern_name: &str,
    fuel: u64,
) -> Option<Explanation> {
    let def = rules.find(pattern_name)?;
    let view = TermView::build(
        graph,
        &mut session.syms,
        &mut session.terms,
        &session.registry,
    );
    let t = view.term_of(node)?;
    let mut machine = Machine::new(&mut session.pats, &session.terms, view.attrs()).with_trace();
    let outcome = machine.run(def.pattern, t, fuel).ok()?;
    let stats = machine.stats();

    let mut rule_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut conflicts: BTreeMap<String, u64> = BTreeMap::new();
    for &r in machine.trace().unwrap_or(&[]) {
        *rule_counts.entry(r.to_string()).or_default() += 1;
        if matches!(
            r,
            RuleName::MatchVarConflict
                | RuleName::MatchFunConflict
                | RuleName::MatchFunVarConflict
                | RuleName::CheckGuardBacktrack
                | RuleName::CheckNameUnbound
                | RuleName::MatchConstrUnbound
        ) {
            *conflicts.entry(r.to_string()).or_default() += 1;
        }
    }
    let mut conflicts: Vec<(String, u64)> = conflicts.into_iter().collect();
    conflicts.sort_by_key(|c| std::cmp::Reverse(c.1));

    let (matched, witness) = match &outcome {
        Outcome::Success(w) => (
            true,
            Some(format!(
                "θ = {}, φ = {}",
                truncate(&w.theta.display(&session.syms, &session.terms), 240),
                w.phi.display(&session.syms)
            )),
        ),
        Outcome::Failure => (false, None),
    };

    Some(Explanation {
        pattern: pattern_name.to_owned(),
        node,
        matched,
        steps: stats.steps,
        backtracks: stats.backtracks,
        mu_unfolds: stats.mu_unfolds,
        rule_counts,
        witness,
        conflicts,
    })
}

/// An [`Observer`] that turns pipeline events into a compilation-wide
/// match narrative — which patterns fired where, and which matches were
/// rejected and why — subsuming the ad-hoc per-call explanation
/// plumbing the engine used to expose.
///
/// Share the observer to read it back after the run:
///
/// ```
/// use pypm_engine::{ExplainObserver, Pipeline, RewritePass, Session};
/// use pypm_dsl::LibraryConfig;
/// use pypm_graph::Graph;
///
/// let mut s = Session::new();
/// let rules = s.load_library(LibraryConfig::both());
/// let explain = ExplainObserver::new().shared();
/// let mut g = Graph::new();
/// Pipeline::new(&mut s)
///     .with(RewritePass::new(rules))
///     .observe(explain.clone())
///     .run(&mut g)
///     .unwrap();
/// assert!(explain.borrow().fired().is_empty()); // empty graph
/// ```
#[derive(Debug, Default)]
pub struct ExplainObserver {
    filter: Option<String>,
    fired: Vec<RewriteFired>,
    rejected: Vec<MatchRejected>,
    passes: Vec<String>,
}

impl ExplainObserver {
    /// Observes every pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes only events for the named pattern.
    pub fn for_pattern(pattern: impl Into<String>) -> Self {
        ExplainObserver {
            filter: Some(pattern.into()),
            ..Self::default()
        }
    }

    /// Wraps the observer for shared ownership, so it can be both
    /// registered with a [`crate::Pipeline`] and read afterwards.
    pub fn shared(self) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(self))
    }

    /// Rewrites that fired, in firing order.
    pub fn fired(&self) -> &[RewriteFired] {
        &self.fired
    }

    /// Matches that fired no rewrite, in discovery order.
    pub fn rejected(&self) -> &[MatchRejected] {
        &self.rejected
    }

    /// Names of the passes observed, in run order.
    pub fn passes(&self) -> &[String] {
        &self.passes
    }

    fn keeps(&self, pattern: &str) -> bool {
        match self.filter.as_deref() {
            Some(f) => f == pattern,
            None => true,
        }
    }

    /// Renders the narrative: per-pattern fire counts and rejection
    /// reasons, most active patterns first.
    pub fn summary(&self) -> String {
        let mut by_pattern: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for f in &self.fired {
            by_pattern.entry(&f.pattern).or_default().0 += 1;
        }
        for r in &self.rejected {
            let slot = by_pattern.entry(&r.pattern).or_default();
            match r.reason {
                RejectReason::GuardsFailed => slot.1 += 1,
                RejectReason::IdentityReplacement => slot.2 += 1,
            }
        }
        let mut rows: Vec<_> = by_pattern.into_iter().collect();
        rows.sort_by_key(|&(name, (f, g, i))| (std::cmp::Reverse(f + g + i), name));
        let mut out = format!(
            "{} rewrites fired, {} matches rejected across {} pass(es)\n",
            self.fired.len(),
            self.rejected.len(),
            self.passes.len()
        );
        for (name, (fired, guards, identity)) in rows {
            out.push_str(&format!(
                "  {name}: {fired} fired, {guards} rejected by guards, {identity} identity\n"
            ));
        }
        out
    }
}

impl Observer for ExplainObserver {
    fn on_pass_start(&mut self, pass: &str, _graph: &Graph) {
        self.passes.push(pass.to_owned());
    }

    fn on_pass_end(&mut self, _pass: &str, _record: &PassRecord) {}

    fn on_rewrite_fired(&mut self, event: &RewriteFired) {
        if self.keeps(&event.pattern) {
            self.fired.push(event.clone());
        }
    }

    fn on_match_rejected(&mut self, event: &MatchRejected) {
        if self.keeps(&event.pattern) {
            self.rejected.push(event.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_dsl::LibraryConfig;
    use pypm_graph::{DType, TensorMeta};

    #[test]
    fn explains_a_successful_match() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
        let b = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
        let (trans, matmul) = (s.ops.trans, s.ops.matmul);
        let bt = g
            .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
            .unwrap();
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
            .unwrap();
        g.mark_output(mm);

        let e = explain_at(&mut s, &rules, &g, mm, "MMxyT", 100_000).unwrap();
        assert!(e.matched);
        assert!(e.witness.is_some());
        assert!(e.steps > 0);
        let rendered = e.to_string();
        assert!(rendered.contains("MATCHED"));
        assert!(rendered.contains("witness"));
    }

    #[test]
    fn explains_a_guard_failure() {
        // Rank-3 tensors: MMxyT's structure matches but the rank guard
        // kills it — the explanation must show a guard backtrack.
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![2, 8, 8]));
        let b = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![2, 8, 8]));
        let (trans, matmul) = (s.ops.trans, s.ops.matmul);
        let bt = g
            .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
            .unwrap();
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
            .unwrap();
        g.mark_output(mm);

        let e = explain_at(&mut s, &rules, &g, mm, "MMxyT", 100_000).unwrap();
        assert!(!e.matched);
        assert!(e
            .conflicts
            .iter()
            .any(|(k, _)| k == "ST-CheckGuard-Backtrack"));
    }

    #[test]
    fn explains_a_structural_failure() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![8, 8]));
        let relu = s.ops.relu;
        let r = g
            .op(&mut s.syms, &s.registry, relu, vec![a], vec![])
            .unwrap();
        g.mark_output(r);

        let e = explain_at(&mut s, &rules, &g, r, "MMxyT", 100_000).unwrap();
        assert!(!e.matched);
        assert!(e
            .conflicts
            .iter()
            .any(|(k, _)| k == "ST-Match-Fun-Conflict"));
    }

    #[test]
    fn unknown_pattern_returns_none() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, TensorMeta::new(DType::F32, vec![2, 2]));
        g.mark_output(a);
        assert!(explain_at(&mut s, &rules, &g, a, "Nope", 100).is_none());
    }
}
