//! Which pattern a visit probes: the node's term, the candidate
//! index's admission, the abstract-machine probes, and the arithmetic
//! that accounts for the pairs the index left out.

use super::{Driver, RewriteError};
use crate::pass::Firing;
use pypm_core::{Machine, Outcome, TermId, Witness};
use pypm_graph::NodeId;

impl Driver<'_> {
    /// Whether pattern `pi` has rules to fire. Pattern-only definitions
    /// (e.g. `PwSubgraph`) are matched by [`super::find_matches`] and
    /// partitioning, never by this pass.
    fn bears_rules(&self, pi: usize) -> bool {
        self.rank[pi + 1] > self.rank[pi]
    }

    /// Visits one node: counts the visit, tries the loaded patterns in
    /// rule-set order, and fires the first applicable rule. Both
    /// policies share this step, so the byte-identity contract between
    /// [`super::SweepPolicy::RestartOnRewrite`] and
    /// [`super::SweepPolicy::Incremental`] rests on the candidate set
    /// alone.
    ///
    /// "Tries the loaded patterns" is the paper's loop with the
    /// guaranteed failures taken out of it: one admission by the
    /// candidate index yields the patterns that can match the node's
    /// term, only those are probed, and the pairs skipped are
    /// *accounted, not executed* — had the loop reached pattern `pi` it
    /// would have attempted the `rank[pi] + 1` rule-bearing patterns up
    /// to it, and every one of them outside the candidate set would
    /// have been one `pairs_rejected`. A visit therefore costs its
    /// candidates, not the rule set, while every counter reads as if
    /// the loop had run (the `literal_loop_oracle_*` tests keep that loop
    /// and compare).
    ///
    /// On a firing, the graph is already rewritten and collected, and
    /// the returned log entry and [`Driver::rewired`] are the dirty seed
    /// for [`Driver::repair_view`].
    pub(super) fn visit(&mut self, node: NodeId) -> Result<Option<Firing>, RewriteError> {
        // The run's cooperative budget, checked once per visit, so a
        // tripped budget unwinds within one node visit.
        if let Some(b) = self.budget.as_ref().filter(|b| !b.check()) {
            let limits = b.describe();
            return Err(RewriteError::BudgetExceeded { limits });
        }
        self.stats.nodes_visited += 1;
        if std::mem::replace(&mut self.visited[node.index()], true) {
            self.stats.nodes_revisited += 1;
        }
        // Lazy view maintenance: a node dirtied by earlier rewrites is
        // repaired here, at visit time — nodes re-dirtied before their
        // next visit are recomputed once, not once per rewrite.
        let Some(t) = self.view.term_of_repaired(
            self.graph,
            &mut self.session.syms,
            &mut self.session.terms,
            &self.session.registry,
            node,
        ) else {
            return Ok(None);
        };
        if self.rule_free {
            return Ok(None);
        }
        #[cfg(test)]
        if self.pass.literal_loop {
            return self.visit_literally(node, t);
        }
        let admitted = self
            .candidates
            .admit(t, &self.session.terms, &mut self.stats.matcher);
        let mut probed = 0;
        // Where the loop stopped: at the firing pattern, else past the
        // last one.
        let mut stop = self.pattern_ids.len();
        let mut fired = None;
        for at in admitted {
            let pi = self.candidates.pattern(at);
            if !self.bears_rules(pi) {
                continue;
            }
            probed += 1;
            let Some(witness) = self.probe(pi, t) else {
                continue;
            };
            fired = self.on_match(node, pi, &witness)?;
            if fired.is_some() {
                stop = pi;
                break;
            }
        }
        let attempts = u64::from(self.rank[stop]) + u64::from(fired.is_some());
        self.stats.match_attempts += attempts;
        self.stats.matcher.pairs_rejected += attempts - probed;
        Ok(fired)
    }

    /// Probes one *admitted* (pattern, term) pair — a member of the
    /// term's candidate set; the pairs outside it are guaranteed
    /// failures that [`Driver::visit`] accounts without coming here.
    /// Fuel exhaustion counts as "no match".
    pub(super) fn probe(&mut self, pi: usize, t: TermId) -> Option<Witness> {
        self.stats.matcher.pairs_admitted += 1;
        let attrs = self.view.attrs(self.graph);
        let mut machine = Machine::new(&mut self.session.pats, &self.session.terms, &attrs);
        let outcome = machine.run(self.pattern_ids[pi], t, self.pass.machine_fuel);
        let mstats = machine.stats();
        if let Some(b) = &self.budget {
            // Machine transitions are the step currency of the budget's
            // `machine_steps` cap.
            b.charge(mstats.steps);
        }
        self.stats.machine_steps += mstats.steps;
        self.stats.machine_backtracks += mstats.backtracks;
        match outcome {
            Ok(Outcome::Success(witness)) => Some(witness),
            Ok(Outcome::Failure) | Err(_) => None,
        }
    }
}
