//! Match diagnostics: *why* did a pattern match or fail at a node?
//!
//! The paper motivates the formalization with the opacity of the C++
//! matcher — "in absence of a specification, it is not even clear what it
//! would mean for the code to be 'correct'" (§1). A pleasant side effect
//! of implementing the algorithmic semantics rule-for-rule is that every
//! run carries its own explanation: the exact sequence of Fig. 17–18
//! transitions. This module packages that trace into a report pattern
//! authors can read ([`explain_at`]), and renders what a rewrite pass
//! decided from its [`FiringLog`] ([`summary`]).

use crate::pass::{FiringLog, RejectReason};
use crate::session::Session;
use pypm_core::{Machine, Outcome, RuleName, Subst, SymbolTable, TermId, TermStore};
use pypm_dsl::RuleSet;
use pypm_graph::{Graph, NodeId, TermView};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

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

/// Renders `theta` as [`Subst::display`] would, cut to its first `max`
/// chars and followed by `… (N chars)` when it is longer: bound
/// subgraphs can be whole model prefixes, which would drown the
/// diagnostic. Terms are DAGs, so the full rendering can be exponential
/// in the term's size; this writes at most `max` chars and reads the
/// full length off a per-term memo (saturating at `u64::MAX`).
fn display_truncated(theta: &Subst, syms: &SymbolTable, terms: &TermStore, max: usize) -> String {
    let mut memo = HashMap::new();
    let chars = |s: &str| s.chars().count() as u64;
    // The braces, and `, ` between bindings.
    let total = theta
        .iter()
        .fold(2 * theta.len().max(1) as u64, |n, (x, t)| {
            let binding = chars(syms.var_name(x)) + chars(" ↦ ");
            n.saturating_add(binding)
                .saturating_add(term_chars(syms, terms, t, &mut memo))
        });
    let mut head = Head {
        out: String::new(),
        room: max,
    };
    // A refused write ends the rendering: the head is written.
    let _ = theta.write(syms, terms, &mut head);
    if total <= max as u64 {
        return head.out;
    }
    format!("{}… ({total} chars)", head.out)
}

/// The chars of `t`'s [`TermStore::display`], saturating, memoized per
/// term. Iterative: a term's height is the depth of the model prefix it
/// binds.
fn term_chars(
    syms: &SymbolTable,
    terms: &TermStore,
    t: TermId,
    memo: &mut HashMap<TermId, u64>,
) -> u64 {
    let mut stack = vec![t];
    while let Some(&u) = stack.last() {
        let args = terms.args(u);
        let pending = stack.len();
        stack.extend(args.iter().filter(|a| !memo.contains_key(a)));
        if stack.len() == pending {
            stack.pop();
            // `op[attrs](a, b)`: two parentheses, and `, ` between
            // arguments.
            let mut head = Chars(0);
            let _ = terms.write_head(syms, u, &mut head);
            let n = args.iter().fold((head.0 + 2 * args.len()) as u64, |n, a| {
                n.saturating_add(memo[a])
            });
            memo.insert(u, n);
        }
    }
    memo[&t]
}

/// A sink that counts the chars written to it.
struct Chars(usize);

impl fmt::Write for Chars {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.chars().count();
        Ok(())
    }
}

/// A sink that keeps the first `room` chars written to it and refuses
/// the rest.
struct Head {
    out: String,
    room: usize,
}

impl fmt::Write for Head {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            if self.room == 0 {
                return Err(fmt::Error);
            }
            self.out.push(c);
            self.room -= 1;
        }
        Ok(())
    }
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
    let attrs = view.attrs(graph);
    let mut machine = Machine::new(&mut session.pats, &session.terms, &attrs).with_trace();
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
                display_truncated(&w.theta, &session.syms, &session.terms, 240),
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

/// Renders what a rewrite pass decided — which patterns fired, and
/// which matches were rejected and why — from the pass's
/// [`FiringLog`] and the rule set it ran: per-pattern fire counts and
/// rejection reasons, most active patterns first. `pattern` keeps only
/// that pattern's entries.
///
/// ```
/// use pypm_engine::{summary, Pipeline, RewritePass, Session};
/// use pypm_dsl::LibraryConfig;
/// use pypm_graph::Graph;
///
/// let mut s = Session::new();
/// let rules = s.load_library(LibraryConfig::both());
/// let mut g = Graph::new();
/// let report = Pipeline::new(&mut s)
///     .with(RewritePass::new(rules.clone()))
///     .run(&mut g)
///     .unwrap();
/// let firings = &report.passes()[0].firings;
/// assert!(firings.fired().is_empty()); // empty graph
/// assert_eq!(
///     summary(firings, &rules, None),
///     "0 rewrites fired, 0 matches rejected across 1 pass(es)\n"
/// );
/// ```
pub fn summary(log: &FiringLog, rules: &RuleSet, pattern: Option<&str>) -> String {
    let name = |pi: usize| rules.patterns[pi].name.as_str();
    let keeps = |pi: usize| pattern.map_or(true, |p| p == name(pi));
    let mut by_pattern: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let (mut fired, mut rejected) = (0, 0);
    for f in log.fired().iter().filter(|f| keeps(f.pattern)) {
        by_pattern.entry(name(f.pattern)).or_default().0 += 1;
        fired += 1;
    }
    for r in log.rejected().iter().filter(|r| keeps(r.pattern)) {
        let slot = by_pattern.entry(name(r.pattern)).or_default();
        match r.reason {
            RejectReason::GuardsFailed => slot.1 += 1,
            RejectReason::IdentityReplacement => slot.2 += 1,
        }
        rejected += 1;
    }
    let mut rows: Vec<_> = by_pattern.into_iter().collect();
    rows.sort_by_key(|&(name, (f, g, i))| (std::cmp::Reverse(f + g + i), name));
    // One log is one pass; `pypmc explain`'s output keeps the count.
    let mut out =
        format!("{fired} rewrites fired, {rejected} matches rejected across 1 pass(es)\n");
    for (name, (fired, guards, identity)) in rows {
        out.push_str(&format!(
            "  {name}: {fired} fired, {guards} rejected by guards, {identity} identity\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_dsl::LibraryConfig;
    use pypm_graph::DType;

    #[test]
    fn explains_a_successful_match() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, DType::F32, [8, 8]);
        let b = g.input(&mut s.syms, DType::F32, [8, 8]);
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
        let a = g.input(&mut s.syms, DType::F32, [2, 8, 8]);
        let b = g.input(&mut s.syms, DType::F32, [2, 8, 8]);
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
        let a = g.input(&mut s.syms, DType::F32, [8, 8]);
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

    /// The witness rendering this module printed before it was
    /// bounded: the whole display, then cut.
    fn truncate(s: &str, max: usize) -> String {
        if s.chars().count() <= max {
            return s.to_owned();
        }
        let head: String = s.chars().take(max).collect();
        format!("{head}… ({} chars)", s.chars().count())
    }

    /// A binding to an `Add(x, x)` ladder renders 2^depth leaves: the
    /// bounded render writes its first chars and counts the rest, and a
    /// small term renders as the cut full display did.
    #[test]
    fn a_shared_ladder_renders_bounded_with_its_exact_length() {
        let mut syms = SymbolTable::new();
        let (x, add) = (syms.op("x", 0), syms.op("Add", 2));
        let (t, u) = (syms.var("t"), syms.var("u"));
        let mut terms = TermStore::new();
        let mut ladder = vec![terms.app0(x)];
        for _ in 0..70 {
            let below = *ladder.last().unwrap();
            ladder.push(terms.app(add, [below, below]));
        }
        let theta = |depth: usize| Subst::from_iter([(t, ladder[depth]), (u, ladder[0])]);
        for depth in [0, 3, 5] {
            let small = theta(depth);
            assert_eq!(
                display_truncated(&small, &syms, &terms, 240),
                truncate(&small.display(&syms, &terms), 240),
                "depth {depth}"
            );
        }
        // Rung k renders 8·2^k − 7 chars; `{t ↦ `, `, u ↦ x` and `}`
        // add 13. Its first chars are the `Add(` of 35 rungs, then rung
        // 5's display (249 chars), cut.
        let head: String = "Add(".repeat(35)
            + &terms
                .display(&syms, ladder[5])
                .chars()
                .take(95)
                .collect::<String>();
        assert_eq!(
            display_truncated(&theta(40), &syms, &terms, 240),
            format!("{{t ↦ {head}… ({} chars)", 8 * (1u64 << 40) - 7 + 13)
        );
        // Rung 70 is past `u64`: the count saturates, and 235 chars
        // into it the rendering is still opening rungs.
        let head = &"Add(".repeat(70)[..235];
        assert_eq!(
            display_truncated(&theta(70), &syms, &terms, 240),
            format!("{{t ↦ {head}… ({} chars)", u64::MAX)
        );
    }

    /// A term's attributes are part of its rendering, and of the length
    /// the bounded render counts.
    #[test]
    fn attributes_render_and_are_counted() {
        let mut syms = SymbolTable::new();
        let (c, mul) = (syms.op("ConstScalar", 0), syms.op("Mul", 2));
        let (value, t) = (syms.attr("value_milli"), syms.var("t"));
        let mut terms = TermStore::new();
        let half = terms.app_with_attrs(c, [], [(value, 500)]);
        let theta = Subst::from_iter([(t, terms.app(mul, [half, half]))]);
        let full = theta.display(&syms, &terms);
        assert_eq!(
            full,
            "{t ↦ Mul(ConstScalar[value_milli=500], ConstScalar[value_milli=500])}"
        );
        assert_eq!(display_truncated(&theta, &syms, &terms, 240), full);
        assert_eq!(
            display_truncated(&theta, &syms, &terms, 10),
            truncate(&full, 10)
        );
    }

    #[test]
    fn unknown_pattern_returns_none() {
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, DType::F32, [2, 2]);
        g.mark_output(a);
        assert!(explain_at(&mut s, &rules, &g, a, "Nope", 100).is_none());
    }
}
