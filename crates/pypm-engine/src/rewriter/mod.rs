//! The DLCB pattern-matching pass (paper §2.4, §4.1).
//!
//! > "When the rewriting compiler pass runs on an operator graph, the
//! > compiler repeatedly traverses the graph, attempting to match any of
//! > the patterns. Each time a node is visited, the compiler attempts to
//! > match the subtree rooted at that node against each of the loaded
//! > patterns, in order of their appearance in the original python file.
//! > When a match is found, the corresponding rule (if any) fires, and
//! > the replacement is built and substituted into the graph in place of
//! > the subgraph the pattern matched."
//!
//! [`RewritePass`] implements exactly that loop: scan nodes in
//! topological order, drive the CorePyPM abstract machine at each node,
//! fire the first rule whose guard holds, rebuild, and repeat until a
//! full scan finds nothing ("greedily rewriting all of the patterns it
//! can match until no matches remain").
//!
//! Restarting is the paper's reference semantics but revisits the whole
//! graph after every firing. [`SweepPolicy`] selects the scan's
//! candidate set: the default [`SweepPolicy::Incremental`] keeps a
//! dirty-node worklist and a scan order it resumes instead of
//! recomputing, so a firing costs its cone of influence — to match, to
//! commit and to collect — while provably firing the identical rewrite
//! sequence (the invariants are documented on the variant);
//! [`SweepPolicy::RestartOnRewrite`] is the reference it is compared
//! against.
//!
//! [`PassStats`] records the counters behind the paper's compile-time
//! figures (Figs. 12–13): wall-clock matching time, match attempts
//! (including the "partial matches that don't end up actually matching"),
//! matches found, and rewrites fired.
//!
//! The pass is split by decision, one module per step of that loop
//! (the table is in the crate docs): `order` picks the next node,
//! `visit` the patterns it is probed with, `fire` the rule that fires
//! and what firing it does; this module runs the rounds.

use crate::matcher::{Candidates, MatcherBackend, MatcherStats};
use crate::pass::FiringLog;
use crate::pipeline::PipelineCx;
use crate::retired::ParallelStats;
use crate::session::Session;
use order::ScanOrder;
use pypm_core::{Budget, Machine, Outcome, PatternId, Stage, TermId, Witness};
use pypm_dsl::RuleSet;
use pypm_graph::{Graph, NodeId, TermView};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

mod fire;
mod order;
mod visit;

/// Which nodes the pass re-examines after a rewrite fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepPolicy {
    /// Rescan every live node from the first, exactly the paper's
    /// "repeatedly traverses the graph" loop (§2.4). Kept as the
    /// reference the equivalence suites compare
    /// [`SweepPolicy::Incremental`] against; reachable only by name.
    ///
    /// Every round derives its order from the graph alone: a fresh
    /// [`pypm_graph::TopoWalk`] — the outputs-first post-order of
    /// [`Graph::topo_order`] — from the first node on, nothing carried
    /// over from the last round. The walk is lazy, so a round pays for
    /// the prefix it scans: the part of the order past the round's
    /// firing is never produced.
    RestartOnRewrite,
    /// Incremental rewriting via a dirty-node worklist: after a rewrite
    /// fires, only its cone of influence — the rewired users of the
    /// replaced root, the freshly created replacement nodes, and every
    /// transitive user of those, whether or not its term turns out to
    /// change — is re-enqueued. The worklist is the set of nodes the
    /// term view owes a term ([`TermView::owes`]): the patch after a
    /// firing marks the cone, and a visit interns its node.
    ///
    /// Firing order is deterministic and *identical* to
    /// [`SweepPolicy::RestartOnRewrite`]: candidates are visited in the
    /// graph's topological order, patterns in rule-set order, and a node
    /// outside the worklist cannot fire (its term — and therefore its
    /// match and guard outcome — is unchanged since it was last
    /// visited). The final graph is byte-identical to the restart
    /// policy's; only traversal counters (`nodes_visited`,
    /// `match_attempts`, `machine_steps`) shrink.
    ///
    /// The topological order is computed once and *resumed*: a rewrite
    /// dirties only its fresh nodes — which take the replaced root's
    /// place in the order — and nodes downstream of the root, so the
    /// scan's cursor only ever moves forward, and a firing costs its
    /// cone, not a pass over the graph. The reference walks its order
    /// afresh every round, which keeps it an independent oracle of the
    /// resumed one.
    #[default]
    Incremental,
}

impl SweepPolicy {
    /// Every policy, reference first.
    pub const ALL: [SweepPolicy; 2] = [SweepPolicy::RestartOnRewrite, SweepPolicy::Incremental];

    /// The policy's stable command-line / JSON-series name.
    pub fn name(self) -> &'static str {
        match self {
            SweepPolicy::RestartOnRewrite => "restart",
            SweepPolicy::Incremental => "incremental",
        }
    }

    /// Parses a [`SweepPolicy::name`] back to the policy — the single
    /// vocabulary shared by `pypmc compile --sweep-policy` and the
    /// bench series.
    pub fn parse(name: &str) -> Option<SweepPolicy> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for SweepPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Default step budget per machine run (recursive patterns can
/// diverge).
const DEFAULT_MACHINE_FUEL: u64 = 1_000_000;

/// Counters for one pass (the paper's compile-time cost metrics).
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Node visits across all sweeps.
    pub nodes_visited: u64,
    /// Pattern match attempts (pattern × node pairs tried).
    pub match_attempts: u64,
    /// Attempts that succeeded.
    pub matches_found: u64,
    /// Rules fired (≤ matches: a match with no passing rule fires none).
    pub rewrites_fired: u64,
    /// Abstract-machine transitions across all attempts.
    pub machine_steps: u64,
    /// Machine backtracks across all attempts.
    pub machine_backtracks: u64,
    /// Full sweeps over the graph (worklist rounds under
    /// [`SweepPolicy::Incremental`]).
    pub sweeps: u64,
    /// Wall-clock time of the pass, on the pipeline's clock: from the
    /// stage boundary before it to the end of its scan (its setup, trie
    /// build, collection, view build and scan stages).
    pub duration: Duration,
    /// Term views the pass created: one per scan, which starts
    /// [`TermView::empty`] and interns each node when it first reads
    /// it.
    pub view_builds: u64,
    /// Term views repaired in place ([`TermView::patch`]).
    pub view_patches: u64,
    /// Visits to nodes already visited earlier in the pass — the
    /// redundant work incremental scheduling exists to avoid.
    pub nodes_revisited: u64,
    /// Steps the scan's cursor took over its order, candidates and
    /// skipped clean nodes alike — the traversal work matching does not
    /// see. A resumed order keeps it at most the nodes the pass ever
    /// had; a recomputed one pays the prefix again every round. Not part
    /// of the report document.
    pub cursor_steps: u64,
    /// Terms the view's lazy repair recomputed over the whole pass
    /// ([`TermView::terms_recomputed`]). A patch only *marks* a
    /// rewrite's cone of influence; terms recompute on demand at the
    /// next visit, so nodes dirtied by several consecutive rewrites
    /// recompute once — the pre-sublinear design walked the whole live
    /// graph per patch, the baseline the bench trajectory's ≥5×
    /// reduction is measured against. Identical under restart and
    /// incremental scheduling (same fires, same repairs).
    pub nodes_reindexed: u64,
    /// The `parallel` block of the report document; see
    /// [`ParallelStats`].
    pub parallel: ParallelStats,
    /// Candidate-discovery counters for the configured matcher backend;
    /// see [`MatcherStats`] and the [`crate::matcher`] module docs.
    pub matcher: MatcherStats,
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} visits, {} attempts, {} matches, {} rewrites, {} steps, {:.3} ms",
            self.nodes_visited,
            self.match_attempts,
            self.matches_found,
            self.rewrites_fired,
            self.machine_steps,
            self.duration.as_secs_f64() * 1e3,
        )
    }
}

/// Errors raised while building a replacement subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The rule's RHS mentions a variable the match did not bind.
    UnboundRhsVar {
        /// Variable name.
        var: String,
    },
    /// The rule's RHS mentions a function variable the match did not
    /// bind.
    UnboundRhsFunVar {
        /// Function variable name.
        fun_var: String,
    },
    /// A matched term has no corresponding graph node (internal error).
    NoNodeForTerm,
    /// Building a replacement node failed (shape inference or arity).
    BuildFailed {
        /// Human-readable reason.
        reason: String,
    },
    /// The run's cooperative [`pypm_core::Budget`] was exhausted. The
    /// session and its stores remain reusable; the graph may have
    /// been partially rewritten. Surfaced to pipeline callers as
    /// [`crate::PassError::BudgetExceeded`].
    BudgetExceeded {
        /// The exhausted limits ([`pypm_core::Budget::describe`]).
        limits: String,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::UnboundRhsVar { var } => {
                write!(f, "rule rhs uses unbound variable {var}")
            }
            RewriteError::UnboundRhsFunVar { fun_var } => {
                write!(f, "rule rhs uses unbound function variable {fun_var}")
            }
            RewriteError::NoNodeForTerm => write!(f, "matched term has no graph node"),
            RewriteError::BuildFailed { reason } => write!(f, "replacement build failed: {reason}"),
            RewriteError::BudgetExceeded { limits } => {
                if limits.is_empty() {
                    write!(f, "compile budget exceeded")
                } else {
                    write!(f, "compile budget exceeded ({limits})")
                }
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// One successful match, as reported by [`find_matches`].
#[derive(Debug, Clone)]
pub struct MatchReport {
    /// Index of the pattern in the rule set.
    pub pattern_index: usize,
    /// The matched node (root of the matched subgraph).
    pub node: NodeId,
    /// The witness ⟨θ, φ⟩.
    pub witness: Witness,
    /// Terms structurally decomposed by the match — the matched subgraph
    /// (used by directed graph partitioning, §4.2).
    pub coverage: Vec<TermId>,
}

/// The internal engine behind [`RewritePass`]: the paper's greedy
/// fixpoint loop, and everything one run of it keeps.
struct Driver<'a> {
    session: &'a mut Session,
    pass: &'a RewritePass,
    graph: &'a mut Graph,
    /// What the pass decided, handed back to the pipeline when the scan
    /// ends, whether or not it finished.
    log: FiringLog,
    /// `rules.patterns[i].pattern` per index.
    pattern_ids: Vec<PatternId>,
    /// `rank[i]` = how many of the first `i` patterns bear rules
    /// (`rank[P]` = all that do): what a visit that never reaches a
    /// pattern still has to *account* for it (see
    /// [`Driver::visit`]).
    rank: Vec<u32>,
    /// No pattern bears a rule: a visit interns its node and probes
    /// nothing.
    rule_free: bool,
    /// The run's cooperative resource budget; `None` (the default)
    /// means unlimited.
    budget: Option<Arc<Budget>>,
    /// Which patterns a term's visit probes (see [`crate::matcher`]).
    candidates: Candidates,
    /// Which node the scan visits next.
    order: ScanOrder,
    /// The graph's terms, interned as the scan first reads them and
    /// repaired in place after every firing.
    view: TermView,
    /// The nodes visited so far in this pass, by `NodeId::index`, as
    /// long as the graph's allocation was when the round began.
    visited: Vec<bool>,
    stats: PassStats,
    /// The inputs of the RHS applications being built, as one stack:
    /// each application pushes its inputs above its caller's and pops
    /// them once its node exists ([`Driver::instantiate`]).
    rhs_inputs: Vec<NodeId>,
    /// The argument terms of the RHS applications being folded, as one
    /// stack, like `rhs_inputs` ([`Driver::term_of_rhs`]).
    rhs_terms: Vec<TermId>,
    /// The users the last firing rewired onto its replacement
    /// ([`Graph::replace_traced`]): with the firing's created and
    /// collected nodes, the dirty seed of [`Driver::repair_view`].
    rewired: Vec<NodeId>,
}

impl Driver<'_> {
    /// Runs `pass` to fixpoint, mutating `graph` in place, recording
    /// its firings and rejections in `cx`'s firing log, and lapping its
    /// stages on `cx`'s recorder: [`Stage::PassSetup`] (everything from
    /// the last boundary to here), [`Stage::TrieBuild`], [`Stage::Gc`],
    /// [`Stage::ViewBuild`] (the empty view's allocation) and
    /// [`Stage::Scan`] (which interns what it reads). The budget comes
    /// from `cx`.
    fn run(
        session: &mut Session,
        pass: &RewritePass,
        graph: &mut Graph,
        cx: &mut PipelineCx,
    ) -> Result<PassStats, RewriteError> {
        let start = cx.stages().last();
        cx.lap(Stage::PassSetup);
        let patterns = &pass.rules.patterns;
        let pattern_ids: Vec<PatternId> = patterns.iter().map(|d| d.pattern).collect();
        let mut rank = vec![0u32; patterns.len() + 1];
        for (pi, def) in patterns.iter().enumerate() {
            rank[pi + 1] = rank[pi] + u32::from(!def.rules.is_empty());
        }
        let budget = cx.budget().cloned();
        // The candidate index over the rule set's patterns, in rule-set
        // order; the fused trie is the pattern store's, built once per
        // store and rule set. The fused index charges its trie walks
        // against the budget (and truncates them once it trips).
        let candidates = Candidates::new(
            pass.matcher,
            &mut session.pats,
            &pattern_ids,
            budget.clone(),
        );
        cx.lap(Stage::TrieBuild);
        // The scan collects by reference count, which is exact only on a
        // graph that holds no garbage to begin with: one mark-sweep
        // before it for whatever the caller left unreferenced …
        graph.gc();
        cx.lap(Stage::Gc);
        // The scan interns at most every live node once before its first
        // firing: size the store for that up front.
        session.terms.reserve(graph.live_count());
        let view = TermView::empty(graph, &mut session.syms);
        cx.lap(Stage::ViewBuild);
        let mut stats = PassStats {
            view_builds: 1,
            ..PassStats::default()
        };
        stats.matcher.backend = pass.matcher.name();
        stats.parallel.jobs = 1;
        stats.parallel.batch_graphs = cx.batch_graphs();
        let mut driver = Driver {
            session,
            pass,
            order: ScanOrder::new(pass.policy, graph),
            graph: &mut *graph,
            log: std::mem::take(&mut cx.firings),
            pattern_ids,
            rule_free: rank.last() == Some(&0),
            rank,
            budget,
            candidates,
            view,
            visited: Vec::new(),
            stats,
            rhs_inputs: Vec::new(),
            rhs_terms: Vec::new(),
            rewired: Vec::new(),
        };
        let scanned = driver.scan();
        cx.firings = std::mem::take(&mut driver.log);
        scanned?;
        let mut stats = std::mem::take(&mut driver.stats);
        stats.nodes_reindexed += driver.view.terms_recomputed();
        // The view's teardown is the scan's, not the validation after it.
        drop(driver);
        cx.lap(Stage::Scan);
        // … and, in debug builds, one after it, which then has nothing
        // left to find.
        #[cfg(debug_assertions)]
        {
            let missed = graph.gc();
            assert!(missed.is_empty(), "the scan left {missed:?} uncollected");
            cx.lap(Stage::Gc);
        }
        if let (Some(start), Some(end)) = (start, cx.stages().last()) {
            stats.duration = end - start;
        }
        Ok(stats)
    }

    /// The one scan loop: the paper's "repeatedly traverses the graph"
    /// greedy fixpoint (§2.4). A round steps the [`ScanOrder`] from its
    /// cursor, visits its candidates, and ends at the first firing; a
    /// round that fires nothing is the fixpoint. The policy decides two
    /// things only, both inside the order: which nodes are candidates,
    /// and where a round starts (see [`SweepPolicy`]). With that, and
    /// with [`Graph::replace_traced`] and [`Graph::collect`] working off
    /// the graph's use-lists and its maintained levels (which bound the
    /// cycle check), a firing under the worklist costs what it changed,
    /// not the graph. The order itself is *not* read off those levels: a
    /// level numbering does not determine the outputs-first post-order
    /// the reference walks, and byte-identity with it rests on that
    /// order.
    ///
    /// The term view is created once, empty ([`TermView::empty`]: every
    /// live node *unseen*), over a term store sized for the live nodes,
    /// and then *repaired in place* after every firing. A visit interns
    /// its node (and whatever of its input cone is still unseen) the
    /// first time it reads it, so a node a rewrite deletes before the
    /// scan reaches it is never interned. A patch is an O(cone) marking
    /// walk that treats unseen nodes like clean ones: which nodes it
    /// marks — what the worklist re-enqueues — and every counter are
    /// what an eagerly built view gives. Nor can the node a variable of
    /// the rule's RHS names tell the difference: it is found below the
    /// matched root ([`TermView::node_below`]), whose whole input cone
    /// the visit has just interned.
    ///
    /// Invariants that make the worklist byte-identical to the
    /// reference scan:
    ///
    /// 1. *Clean nodes cannot fire.* Whether a pattern matches at a node
    ///    — and whether the matched rule's guards hold and its
    ///    replacement is non-identity — depends only on the term rooted
    ///    there, its operator attributes included, plus the view's
    ///    term-keyed metadata table. (Which node a variable of the
    ///    replacement reads is looked up in the subgraph below the node,
    ///    but only once the node fires, and alike under both policies.)
    ///    A node leaves the worklist only when its visit interns it,
    ///    after which a full pattern scan finds nothing to fire (or
    ///    fires, and the node is gone), and every change of its term
    ///    marks it again (2); therefore a node outside the worklist
    ///    still has nothing to fire.
    ///
    ///    The metadata table is a function of the term wherever shape
    ///    inference produced the metadata. Metadata declared through
    ///    `Graph::op_with_meta` is not part of a term's key, so two such
    ///    nodes on the same inputs with different declared shapes would
    ///    share a term whose row holds the first producer's (ROADMAP
    ///    item 18 (c)). The zoo builds no such pair.
    /// 2. *A rewrite changes terms inside its cone of influence only.*
    ///    Replacing a root can change the terms of the freshly created
    ///    replacement nodes, the users rewired onto the replacement,
    ///    and their transitive users — all strictly *after* the root in
    ///    topological order. Nodes visited earlier in the current round
    ///    keep their terms, so cleaning them as we pass is sound.
    ///    [`TermView::patch`] marks the whole cone stale without
    ///    comparing terms — a node whose term comes out unchanged is
    ///    revisited, never one whose term changed skipped — and the
    ///    marked nodes are the worklist's again.
    /// 3. *Deterministic order.* By (1) the first firing (node,
    ///    pattern) pair of the filtered scan is the first firing pair
    ///    of a full scan, so the rewrite sequence — and the final graph
    ///    — is identical.
    /// 4. *The front is monotone, so the order can be resumed.* Call the
    ///    nodes behind the cursor *passed*. They are closed under
    ///    inputs (the order is topological), so a post-order walk's
    ///    sequence of not-yet-passed nodes does not depend on them. The
    ///    root of a firing is the first such node, hence reads passed
    ///    nodes only, and so does everything [`Graph::collect`] frees
    ///    with it. Its users are ahead, and so is the whole cone (2):
    ///    nothing behind the cursor is ever dirtied. The replacement,
    ///    too, is built over passed nodes only: every pre-existing node
    ///    it reads is below the root ([`Driver::instantiate`]), in the
    ///    root's input cone. So a fresh walk would reach it
    ///    where it reached the root, emit the fresh nodes there — in
    ///    allocation order, the RHS template's post-order — and
    ///    continue as before: the new order's not-yet-passed part is
    ///    the fresh nodes followed by the old one's. The passed nodes a
    ///    recomputed order *would* move are clean members of the root's
    ///    input cone that the walk first found through the root and now
    ///    finds through a later user; they are never candidates again
    ///    under the worklist, but they are visited — and counted — by
    ///    the reference, which is why the reference walks its order
    ///    afresh every round, and what keeps it an oracle independent of
    ///    this argument. The cursor never rewinds: it steps at most once
    ///    over every node the pass ever had.
    ///
    /// Debug builds check (4) every round ([`ScanOrder`]'s dev checks)
    /// and [`Graph::validate`] the graph after every commit.
    fn scan(&mut self) -> Result<(), RewriteError> {
        loop {
            self.stats.sweeps += 1;
            self.order.start_round(self.graph, &self.view);
            // A round visits nodes that exist as it starts.
            self.visited.resize(self.graph.allocated_count(), false);
            let fired = loop {
                let cursor = &mut self.stats.cursor_steps;
                // Every firing ends the round, so running out of nodes
                // means nothing fired: fixpoint reached.
                let Some(node) = self.order.next(self.graph, &self.view, cursor) else {
                    return Ok(());
                };
                if let Some(fired) = self.visit(node)? {
                    break fired;
                }
            };
            // The next firing must be the topologically first
            // candidate of the rewritten graph: resume where the root
            // stood (4).
            self.order.splice(self.log.created(&fired));
            // Repair before the rewrite-cap check, so
            // `view_patches == rewrites_fired` holds even when the cap
            // cuts the pass short.
            self.repair_view(&fired);
            if self.stats.rewrites_fired as usize >= self.pass.max_rewrites {
                return Ok(());
            }
        }
    }
}

/// The greedy fixpoint rewrite stage (paper §2.4), one step of a
/// [`crate::Pipeline`].
///
/// Owns its [`RuleSet`] and configuration; build one with the fluent
/// constructors and hand it to a [`crate::Pipeline`]:
///
/// ```
/// use pypm_engine::{Pipeline, RewritePass, Session, SweepPolicy};
/// use pypm_dsl::LibraryConfig;
/// use pypm_graph::Graph;
///
/// let mut session = Session::new();
/// let rules = session.load_library(LibraryConfig::both());
/// let mut graph = Graph::new();
/// let report = Pipeline::new(&mut session)
///     .with(RewritePass::new(rules).policy(SweepPolicy::RestartOnRewrite))
///     .run(&mut graph)
///     .unwrap();
/// assert_eq!(report.passes().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RewritePass {
    rules: RuleSet,
    machine_fuel: u64,
    max_rewrites: usize,
    policy: SweepPolicy,
    matcher: MatcherBackend,
    /// Visit with [`Driver::visit_literally`], the reference loop.
    #[cfg(test)]
    literal_loop: bool,
}

impl RewritePass {
    /// The pass name, as it appears in records, errors and JSON.
    pub const NAME: &'static str = "rewrite";

    /// Creates the pass over an owned rule set with the default
    /// configuration: [`SweepPolicy::Incremental`] scheduling, the
    /// [`MatcherBackend::Fused`] matcher, 10⁶ machine steps per match
    /// attempt and at most 10⁵ rewrites.
    pub fn new(rules: RuleSet) -> Self {
        RewritePass {
            rules,
            machine_fuel: DEFAULT_MACHINE_FUEL,
            max_rewrites: 100_000,
            policy: SweepPolicy::default(),
            matcher: MatcherBackend::default(),
            #[cfg(test)]
            literal_loop: false,
        }
    }

    /// Selects which nodes are re-examined after a rewrite fires.
    pub fn policy(mut self, policy: SweepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the per-attempt abstract-machine step budget
    /// (recursive patterns can diverge).
    pub fn machine_fuel(mut self, fuel: u64) -> Self {
        self.machine_fuel = fuel;
        self
    }

    /// Overrides the total-rewrite safety bound, a safety net against
    /// rule sets that never reach a fixpoint.
    pub fn max_rewrites(mut self, max: usize) -> Self {
        self.max_rewrites = max;
        self
    }

    /// Selects the candidate-discovery backend (see [`crate::matcher`]).
    /// Backends fire byte-identical rewrite sequences; only
    /// machine-work counters differ.
    pub fn matcher(mut self, backend: MatcherBackend) -> Self {
        self.matcher = backend;
        self
    }

    /// Runs the pass to fixpoint over `graph`, recording its firings
    /// and stages on `cx`.
    pub(crate) fn run(
        &self,
        session: &mut Session,
        graph: &mut Graph,
        cx: &mut PipelineCx,
    ) -> Result<PassStats, RewriteError> {
        Driver::run(session, self, graph, cx)
    }
}

/// Finds all matches of one named pattern over `graph` *without*
/// rewriting — the matching mode used by directed graph partitioning
/// (§4.2) and by diagnostics. Unknown pattern names yield no matches.
pub fn find_matches(
    session: &mut Session,
    rules: &RuleSet,
    graph: &Graph,
    pattern_name: &str,
) -> Vec<MatchReport> {
    let view = TermView::build(
        graph,
        &mut session.syms,
        &mut session.terms,
        &session.registry,
    );
    find_matches_in(session, rules, graph, &view, pattern_name)
}

/// [`find_matches`] over a view the caller built of `graph` — so that
/// partitioning resolves its members in the view it matched in.
pub(crate) fn find_matches_in(
    session: &mut Session,
    rules: &RuleSet,
    graph: &Graph,
    view: &TermView,
    pattern_name: &str,
) -> Vec<MatchReport> {
    let Some((pi, def)) = rules
        .patterns
        .iter()
        .enumerate()
        .find(|(_, d)| d.name == pattern_name)
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for node in graph.topo_order() {
        let Some(t) = view.term_of(node) else {
            continue;
        };
        let attrs = view.attrs(graph);
        let mut machine = Machine::new(&mut session.pats, &session.terms, &attrs);
        if let Ok(Outcome::Success(w)) = machine.run(def.pattern, t, DEFAULT_MACHINE_FUEL) {
            let coverage = machine.coverage().to_vec();
            out.push(MatchReport {
                pattern_index: pi,
                node,
                witness: w,
                coverage,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Firing;
    use crate::Pipeline;
    use pypm_core::{Attr, AttrInterp, Expr};
    use pypm_dsl::{LibraryConfig, Rhs, RuleSetBuilder};
    use pypm_graph::{DType, NodeKind, TensorMeta};

    fn mat(s: &mut Session, g: &mut Graph, dims: &[i64]) -> NodeId {
        g.input(&mut s.syms, DType::F32, dims)
    }

    fn run(s: &mut Session, rs: &RuleSet, g: &mut Graph) -> PassStats {
        Pipeline::new(s)
            .with(RewritePass::new(rs.clone()))
            .run(g)
            .unwrap()
            .total()
    }

    fn run_policy(s: &mut Session, rs: RuleSet, g: &mut Graph, policy: SweepPolicy) -> PassStats {
        Pipeline::new(s)
            .with(RewritePass::new(rs).policy(policy))
            .run(g)
            .unwrap()
            .total()
    }

    fn scalar_const(s: &mut Session, g: &mut Graph, milli: i64) -> NodeId {
        g.op_with_meta(
            s.ops.const_scalar,
            vec![],
            vec![(s.ops.value_milli_attr, milli)],
            TensorMeta::scalar(DType::F32),
        )
        .unwrap()
    }

    #[test]
    fn cublas_rewrite_fires_on_f32_rank2() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[64, 32]);
        let b = mat(&mut s, &mut g, &[16, 32]);
        let (trans, matmul) = (s.ops.trans, s.ops.matmul);
        let bt = g
            .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
            .unwrap();
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
            .unwrap();
        g.mark_output(mm);

        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 1);
        let out = g.outputs()[0];
        assert_eq!(g.node(out).op, s.ops.cublas_mm_xyt_f32);
        assert_eq!(g.shapes().dims(g.node(out).meta.shape), [64, 16]);
        // The Trans node is garbage now.
        assert_eq!(g.live_count(), 3);
    }

    #[test]
    fn cublas_rule_respects_dtype_guard() {
        // f16 inputs: pattern matches structurally but neither rule
        // guard passes — nothing fires.
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, DType::F16, [8, 8]);
        let b = g.input(&mut s.syms, DType::F16, [8, 8]);
        let (trans, matmul) = (s.ops.trans, s.ops.matmul);
        let bt = g
            .op(&mut s.syms, &s.registry, trans, vec![b], vec![])
            .unwrap();
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, bt], vec![])
            .unwrap();
        g.mark_output(mm);

        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert!(stats.matches_found > 0);
        assert_eq!(g.node(g.outputs()[0]).op, matmul);
    }

    #[test]
    fn gelu_subgraph_fuses_both_variants() {
        // Div(x,2) and Mul(x,0.5) halves (Fig. 2) both collapse to Gelu.
        for use_div in [true, false] {
            let mut s = Session::new();
            let rs = s.load_library(LibraryConfig::epilog_only());
            let mut g = Graph::new();
            let x = mat(&mut s, &mut g, &[4, 8]);
            let (div, mul, add, erf) = (s.ops.div, s.ops.mul, s.ops.add, s.ops.erf);
            let half = if use_div {
                let two = scalar_const(&mut s, &mut g, 2000);
                g.op(&mut s.syms, &s.registry, div, vec![x, two], vec![])
                    .unwrap()
            } else {
                let h = scalar_const(&mut s, &mut g, 500);
                g.op(&mut s.syms, &s.registry, mul, vec![x, h], vec![])
                    .unwrap()
            };
            let sqrt2 = scalar_const(&mut s, &mut g, 1414);
            let xdiv = g
                .op(&mut s.syms, &s.registry, div, vec![x, sqrt2], vec![])
                .unwrap();
            let erfx = g
                .op(&mut s.syms, &s.registry, erf, vec![xdiv], vec![])
                .unwrap();
            let one = scalar_const(&mut s, &mut g, 1000);
            let onep = g
                .op(&mut s.syms, &s.registry, add, vec![one, erfx], vec![])
                .unwrap();
            let gelu = g
                .op(&mut s.syms, &s.registry, mul, vec![half, onep], vec![])
                .unwrap();
            g.mark_output(gelu);

            let stats = run(&mut s, &rs, &mut g);
            assert_eq!(stats.rewrites_fired, 1, "use_div={use_div}");
            assert_eq!(g.node(g.outputs()[0]).op, s.ops.gelu);
            // Gelu(x) over the original input: two live nodes.
            assert_eq!(g.live_count(), 2);
        }
    }

    #[test]
    fn mha_fuses_to_fmha() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::fmha_only());
        let mut g = Graph::new();
        let q = mat(&mut s, &mut g, &[8, 128, 64]);
        let k = mat(&mut s, &mut g, &[8, 128, 64]);
        let v = mat(&mut s, &mut g, &[8, 128, 64]);
        let (trans, matmul, mul, softmax) = (s.ops.trans, s.ops.matmul, s.ops.mul, s.ops.softmax);
        let kt = g
            .op(&mut s.syms, &s.registry, trans, vec![k], vec![])
            .unwrap();
        let scores = g
            .op(&mut s.syms, &s.registry, matmul, vec![q, kt], vec![])
            .unwrap();
        let scale = scalar_const(&mut s, &mut g, 125);
        let scaled = g
            .op(&mut s.syms, &s.registry, mul, vec![scores, scale], vec![])
            .unwrap();
        let probs = g
            .op(&mut s.syms, &s.registry, softmax, vec![scaled], vec![])
            .unwrap();
        let out = g
            .op(&mut s.syms, &s.registry, matmul, vec![probs, v], vec![])
            .unwrap();
        g.mark_output(out);

        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 1);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, s.ops.fmha);
        assert_eq!(g.inputs(root), [q, k, v]);
    }

    #[test]
    fn epilog_fuses_relu_after_matmul() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::epilog_only());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[32, 64]);
        let b = mat(&mut s, &mut g, &[64, 16]);
        let (matmul, relu) = (s.ops.matmul, s.ops.relu);
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let act = g
            .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
            .unwrap();
        g.mark_output(act);

        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 1);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, s.ops.gemm_epilog);
        assert_eq!(
            g.attr(root, s.ops.epilog_attr),
            Some(pypm_graph::Activation::Relu.code())
        );
    }

    #[test]
    fn gelu_then_epilog_cascade() {
        // MatMul → expanded GELU: first the GELU subgraph fuses to
        // Gelu(mm), then EpilogGelu fuses the rest — two rewrites, one
        // fused node (the cascade §4.1 relies on).
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::epilog_only());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[32, 64]);
        let b = mat(&mut s, &mut g, &[64, 16]);
        let (div, mul, add, erf, matmul) =
            (s.ops.div, s.ops.mul, s.ops.add, s.ops.erf, s.ops.matmul);
        let x = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let two = scalar_const(&mut s, &mut g, 2000);
        let half = g
            .op(&mut s.syms, &s.registry, div, vec![x, two], vec![])
            .unwrap();
        let sqrt2 = scalar_const(&mut s, &mut g, 1414);
        let xdiv = g
            .op(&mut s.syms, &s.registry, div, vec![x, sqrt2], vec![])
            .unwrap();
        let erfx = g
            .op(&mut s.syms, &s.registry, erf, vec![xdiv], vec![])
            .unwrap();
        let one = scalar_const(&mut s, &mut g, 1000);
        let onep = g
            .op(&mut s.syms, &s.registry, add, vec![one, erfx], vec![])
            .unwrap();
        let gelu = g
            .op(&mut s.syms, &s.registry, mul, vec![half, onep], vec![])
            .unwrap();
        g.mark_output(gelu);

        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 2);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, s.ops.gemm_epilog);
        assert_eq!(
            g.attr(root, s.ops.epilog_attr),
            Some(pypm_graph::Activation::Gelu.code())
        );
        assert_eq!(g.live_count(), 3); // a, b, fused node
    }

    #[test]
    fn relu_chain_collapses_to_one() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let x = mat(&mut s, &mut g, &[4, 4]);
        let relu = s.ops.relu;
        let mut cur = x;
        for _ in 0..6 {
            cur = g
                .op(&mut s.syms, &s.registry, relu, vec![cur], vec![])
                .unwrap();
        }
        g.mark_output(cur);

        run(&mut s, &rs, &mut g);
        // Relu(x) and the input: exactly two live nodes.
        assert_eq!(g.live_count(), 2);
        let root = g.outputs()[0];
        assert_eq!(g.node(root).op, relu);
        assert_eq!(g.inputs(root), [x]);
    }

    #[test]
    fn trans_trans_cancels_via_var_rhs() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let x = mat(&mut s, &mut g, &[4, 8]);
        let trans = s.ops.trans;
        let t1 = g
            .op(&mut s.syms, &s.registry, trans, vec![x], vec![])
            .unwrap();
        let t2 = g
            .op(&mut s.syms, &s.registry, trans, vec![t1], vec![])
            .unwrap();
        g.mark_output(t2);

        run(&mut s, &rs, &mut g);
        assert_eq!(g.outputs(), &[x]);
        assert_eq!(g.live_count(), 1);
        assert_eq!(g.node(x).kind, NodeKind::Input);
    }

    #[test]
    fn opaque_nodes_block_matching() {
        // Trans(Opaque(Trans(x))) must NOT cancel: the opaque node hides
        // its operand (§4.1).
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let x = mat(&mut s, &mut g, &[4, 4]);
        let trans = s.ops.trans;
        let t1 = g
            .op(&mut s.syms, &s.registry, trans, vec![x], vec![])
            .unwrap();
        let mystery = s.syms.op("Mystery", 1);
        let meta = g.meta(DType::F32, [4, 4]);
        let o = g.opaque(&mut s.syms, mystery, vec![t1], meta).unwrap();
        let t2 = g
            .op(&mut s.syms, &s.registry, trans, vec![o], vec![])
            .unwrap();
        g.mark_output(t2);

        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert_eq!(g.live_count(), 4);
    }

    #[test]
    fn fixpoint_reached_on_unmatched_graph() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::both());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[4, 4]);
        let b = mat(&mut s, &mut g, &[4, 4]);
        let add = s.ops.add;
        let sum = g
            .op(&mut s.syms, &s.registry, add, vec![a, b], vec![])
            .unwrap();
        g.mark_output(sum);
        let stats = run(&mut s, &rs, &mut g);
        assert_eq!(stats.rewrites_fired, 0);
        assert_eq!(stats.sweeps, 1);
    }

    /// A variable of the RHS names the node below the matched root, not
    /// a structural twin elsewhere: `Relu(w)` is built twice, the
    /// lower-id copy an output the scan reaches only after the matmul
    /// over the other. The fused node reads the copy it matched, the
    /// twin is left as it was, and the scan resumes where the root stood
    /// — its cursor steps once over every node the pass ever had.
    #[test]
    fn a_replacement_reads_the_twin_below_its_root_and_the_scan_never_rewinds() {
        let run = |policy: SweepPolicy| {
            let mut s = Session::new();
            let rs = s.load_library(LibraryConfig::all());
            let mut g = Graph::new();
            let x = mat(&mut s, &mut g, &[64, 32]);
            let w = mat(&mut s, &mut g, &[16, 32]);
            let (relu, trans, matmul) = (s.ops.relu, s.ops.trans, s.ops.matmul);
            let elsewhere = g
                .op(&mut s.syms, &s.registry, relu, vec![w], vec![])
                .unwrap();
            let below = g
                .op(&mut s.syms, &s.registry, relu, vec![w], vec![])
                .unwrap();
            let t = g
                .op(&mut s.syms, &s.registry, trans, vec![below], vec![])
                .unwrap();
            let mm = g
                .op(&mut s.syms, &s.registry, matmul, vec![x, t], vec![])
                .unwrap();
            g.mark_output(mm);
            g.mark_output(elsewhere);
            let stats = run_policy(&mut s, rs, &mut g, policy);
            let fused = g.outputs()[0];
            assert_eq!(g.node(fused).op, s.ops.cublas_mm_xyt_f32, "{policy}");
            assert_eq!(g.inputs(fused), [x, below], "{policy}");
            assert_eq!(g.outputs()[1], elsewhere, "{policy}");
            assert_eq!(g.inputs(elsewhere), [w], "{policy}");
            assert_eq!(g.users_of(elsewhere).count(), 0, "{policy}");
            (stats, g.allocated_count() as u64)
        };
        let (restart, _) = run(SweepPolicy::RestartOnRewrite);
        let (inc, allocated) = run(SweepPolicy::Incremental);
        assert_eq!(inc.rewrites_fired, 1);
        assert_eq!(inc.rewrites_fired, restart.rewrites_fired);
        // x, w, below, t, mm, then the fused node spliced in at the
        // cursor, then the twin: seven nodes, seven steps, no rewind.
        assert_eq!(allocated, 7);
        assert_eq!(inc.cursor_steps, allocated);
        assert_eq!(inc.nodes_visited, 7);
        assert_eq!(inc.nodes_revisited, 0);
    }

    /// The same one level deeper: the variable binds `Relu(Relu(w))`,
    /// built twice, and the fused node reads the chain it matched. No
    /// `ReluChain` rule, so both chains stay, the other one untouched.
    #[test]
    fn a_two_level_twin_elsewhere_is_not_read() {
        for policy in SweepPolicy::ALL {
            let mut s = Session::new();
            let rs = s.load_library(LibraryConfig {
                cublas: true,
                ..LibraryConfig::none()
            });
            let mut g = Graph::new();
            let x = mat(&mut s, &mut g, &[64, 32]);
            let w = mat(&mut s, &mut g, &[16, 32]);
            let (relu, trans, matmul) = (s.ops.relu, s.ops.trans, s.ops.matmul);
            let mut relu_relu_w = |g: &mut Graph| {
                let inner = g
                    .op(&mut s.syms, &s.registry, relu, vec![w], vec![])
                    .unwrap();
                g.op(&mut s.syms, &s.registry, relu, vec![inner], vec![])
                    .unwrap()
            };
            let elsewhere = relu_relu_w(&mut g);
            let below = relu_relu_w(&mut g);
            let t = g
                .op(&mut s.syms, &s.registry, trans, vec![below], vec![])
                .unwrap();
            let mm = g
                .op(&mut s.syms, &s.registry, matmul, vec![x, t], vec![])
                .unwrap();
            g.mark_output(mm);
            g.mark_output(elsewhere);
            let stats = run_policy(&mut s, rs, &mut g, policy);
            assert_eq!(stats.rewrites_fired, 1, "{policy}");
            let fused = g.outputs()[0];
            assert_eq!(g.node(fused).op, s.ops.cublas_mm_xyt_f32);
            assert_eq!(g.inputs(fused), [x, below], "{policy}");
            assert_eq!(g.outputs()[1], elsewhere, "{policy}");
            assert_eq!(g.users_of(elsewhere).count(), 0, "{policy}");
        }
    }

    /// And with no input below the term: the variable of
    /// `Trans(Trans(x)) → x` binds a `ConstScalar`, and its lower-id
    /// twin — same operator, same value — is another output. The
    /// replacement is the constant the pattern matched.
    #[test]
    fn a_constant_twin_elsewhere_is_not_read() {
        for policy in SweepPolicy::ALL {
            let mut s = Session::new();
            let rs = s.load_library(LibraryConfig::all());
            let mut g = Graph::new();
            let (trans, const_scalar, value) =
                (s.ops.trans, s.ops.const_scalar, s.ops.value_milli_attr);
            let mut half = || {
                let meta = g.meta(DType::F32, [4, 4]);
                g.op_with_meta(const_scalar, vec![], vec![(value, 500)], meta)
                    .unwrap()
            };
            let (elsewhere, below) = (half(), half());
            let inner = g
                .op(&mut s.syms, &s.registry, trans, vec![below], vec![])
                .unwrap();
            let outer = g
                .op(&mut s.syms, &s.registry, trans, vec![inner], vec![])
                .unwrap();
            g.mark_output(outer);
            g.mark_output(elsewhere);
            let stats = run_policy(&mut s, rs, &mut g, policy);
            assert_eq!(stats.rewrites_fired, 1, "{policy}");
            assert_eq!(g.outputs(), &[below, elsewhere], "{policy}");
            assert!(g.is_alive(elsewhere), "{policy}");
        }
    }

    /// Two `Conv2d` nodes on the same inputs with strides 1 and 2 view
    /// as one term. `ReluChain` collapses `Relu(Relu(conv))` over the
    /// stride-2 one to `Relu(conv)`, and that `Relu` must read the
    /// stride-2 conv it matched — not the lower-id stride-1 twin, whose
    /// output has another shape — so its declared metadata is what
    /// shape inference gives over its input.
    #[test]
    fn a_rewrite_keeps_the_stride_of_the_conv_it_matched() {
        for policy in SweepPolicy::ALL {
            let mut s = Session::new();
            let rs = s.load_library(LibraryConfig::all());
            let mut g = Graph::new();
            let x = mat(&mut s, &mut g, &[1, 3, 8, 8]);
            let w = mat(&mut s, &mut g, &[4, 3, 3, 3]);
            let (conv2d, relu, stride) = (s.ops.conv2d, s.ops.relu, s.ops.stride_attr);
            let mut conv = |by: i64| {
                g.op(
                    &mut s.syms,
                    &s.registry,
                    conv2d,
                    vec![x, w],
                    vec![(stride, by)],
                )
                .unwrap()
            };
            let (stride_1, stride_2) = (conv(1), conv(2));
            let inner = g
                .op(&mut s.syms, &s.registry, relu, vec![stride_2], vec![])
                .unwrap();
            let outer = g
                .op(&mut s.syms, &s.registry, relu, vec![inner], vec![])
                .unwrap();
            g.mark_output(outer);
            g.mark_output(stride_1);
            let stats = run_policy(&mut s, rs, &mut g, policy);
            assert_eq!(stats.rewrites_fired, 1, "{policy}");
            let out = g.outputs()[0];
            assert_eq!(g.node(out).op, relu, "{policy}");
            assert_eq!(g.inputs(out), [stride_2], "{policy}");
            let input = g.node(stride_2).meta;
            let mut shapes = g.shapes().clone();
            let inferred = s
                .registry
                .infer(&s.syms, relu, &[input], &[], &mut shapes)
                .unwrap();
            assert_eq!(g.node(out).meta, inferred, "{policy}");
            assert_eq!(g.outputs()[1], stride_1, "{policy}");
        }
    }

    /// Two `Conv2d` nodes on one `(x, w)` with strides 1 and 2 are two
    /// terms, so a guard evaluated at the stride-2 node reads its own
    /// stride, not that of the twin the scan met first. Constants are
    /// keyed by their value the same way: equal values share a term.
    #[test]
    fn a_guard_reads_the_stride_of_the_conv_it_is_evaluated_at() {
        for policy in SweepPolicy::ALL {
            for matcher in MatcherBackend::ALL {
                let mut s = Session::new();
                let mut g = Graph::new();
                let x = mat(&mut s, &mut g, &[1, 3, 8, 8]);
                let w = mat(&mut s, &mut g, &[4, 3, 3, 3]);
                let (conv2d, relu, sigmoid) = (s.ops.conv2d, s.ops.relu, s.ops.sigmoid);
                let stride = s.ops.stride_attr;
                let mut op = |s: &mut Session, op, inputs: &[NodeId], attrs: &[(Attr, i64)]| {
                    g.op(&mut s.syms, &s.registry, op, inputs, attrs).unwrap()
                };
                let stride_1 = op(&mut s, conv2d, &[x, w], &[(stride, 1)]);
                let stride_2 = op(&mut s, conv2d, &[x, w], &[(stride, 2)]);
                let relu_1 = op(&mut s, relu, &[stride_1], &[]);
                let relu_2 = op(&mut s, relu, &[stride_2], &[]);
                let consts = [500, 500, 1000].map(|milli| scalar_const(&mut s, &mut g, milli));
                for n in [relu_1, relu_2].into_iter().chain(consts) {
                    g.mark_output(n);
                }

                let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
                let term = |n| view.term_of(n).unwrap();
                assert_ne!(term(stride_1), term(stride_2), "{policy} {matcher:?}");
                assert_eq!(term(consts[0]), term(consts[1]), "equal values share");
                assert_ne!(term(consts[0]), term(consts[2]), "distinct values do not");
                let read = |n| view.attrs(&g).attr(&s.terms, term(n), stride);
                assert_eq!((read(stride_1), read(stride_2)), (Some(1), Some(2)));

                // `Relu(c)` → `Sigmoid(c)` where `c.stride == 2`.
                let mut rules = RuleSetBuilder::new();
                let c = s.syms.var("c");
                rules.pattern(&mut s.syms, &mut s.pats, "ReluOfConv", |p| {
                    let c = p.param("c");
                    let pc = p.v(c);
                    p.op(relu, vec![pc])
                });
                rules.rule("ReluOfConv", "strided", |r| {
                    r.assert_(Expr::var_attr(c, stride).eq(Expr::Const(2)));
                    r.ret(Rhs::app(sigmoid, vec![Rhs::Var(c)]));
                });
                let rules = rules.serialize(&mut s.syms, &mut s.pats).unwrap();
                let pass = RewritePass::new(rules).policy(policy).matcher(matcher);
                let report = Pipeline::new(&mut s).with(pass).run(&mut g).unwrap();
                assert_eq!(report.total().rewrites_fired, 1, "{policy} {matcher:?}");
                assert_eq!(g.outputs()[0], relu_1, "{policy} {matcher:?}");
                let fired = g.outputs()[1];
                assert_eq!(g.node(fired).op, sigmoid, "{policy} {matcher:?}");
                assert_eq!(g.inputs(fired), [stride_2], "{policy} {matcher:?}");
            }
        }
    }

    impl Driver<'_> {
        /// The visit as the paper words it — every rule-bearing pattern in
        /// turn, each pair asked of the index and counted where it is
        /// tried. The oracle the `literal_loop_oracle_*` tests hold
        /// [`Driver::visit`]'s arithmetic against.
        pub(super) fn visit_literally(
            &mut self,
            node: NodeId,
            t: TermId,
        ) -> Result<Option<Firing>, RewriteError> {
            for pi in 0..self.pattern_ids.len() {
                if self.pass.rules.patterns[pi].rules.is_empty() {
                    continue;
                }
                self.stats.match_attempts += 1;
                let mut admitted =
                    self.candidates
                        .admit(t, &self.session.terms, &mut self.stats.matcher);
                if !admitted.any(|at| self.candidates.pattern(at) == pi) {
                    self.stats.matcher.pairs_rejected += 1;
                    continue;
                }
                let Some(witness) = self.probe(pi, t) else {
                    continue;
                };
                if let Some(fired) = self.on_match(node, pi, &witness)? {
                    return Ok(Some(fired));
                }
            }
            Ok(None)
        }
    }

    /// What one run shows of its visits: every counter a visit
    /// touches, the pass's firing log, and the graph it left.
    #[derive(Debug, PartialEq)]
    struct Observed {
        counters: [u64; 7],
        firings: crate::FiringLog,
        live_nodes: usize,
    }

    fn observe((mut s, mut g): (Session, Graph), pass: RewritePass) -> Observed {
        let report = Pipeline::new(&mut s).with(pass).run(&mut g).unwrap();
        let stats = report.total();
        Observed {
            counters: [
                stats.match_attempts,
                stats.matches_found,
                stats.matcher.pairs_admitted,
                stats.matcher.pairs_rejected,
                stats.machine_steps,
                stats.nodes_visited,
                stats.rewrites_fired,
            ],
            firings: report.passes()[0].firings.clone(),
            live_nodes: g.live_count(),
        }
    }

    /// Every third definition of the full library demoted to
    /// pattern-only, so rule-less patterns sit *between* rule-bearing
    /// ones and the prefix counts are not the indices.
    fn interleaved(s: &mut Session) -> RuleSet {
        let mut rules = s.load_library(LibraryConfig::all());
        for def in rules.patterns.iter_mut().skip(1).step_by(3) {
            def.rules.clear();
        }
        rules
    }

    /// [`Driver::visit`] accounts the pairs it skips by
    /// arithmetic; [`Driver::visit_literally`] tries and counts
    /// them one by one. Same counters, same log, on one model ×
    /// three rule sets × both policies × both backends.
    /// Returns whether some visit fired at a pattern with a
    /// pattern-only definition before it and rule-bearing ones on both
    /// sides — the case the prefix count exists for.
    fn literal_loop_agrees(model: &str, build: &dyn Fn() -> (Session, Graph)) -> bool {
        type Rules = fn(&mut Session) -> RuleSet;
        let rule_sets: [(&str, Rules); 3] = [
            ("both", |s| s.load_library(LibraryConfig::both())),
            ("all+synth39", |s| {
                s.load_library(LibraryConfig::all().with_synth(39))
            }),
            ("interleaved", interleaved),
        ];
        let mid_set: Vec<usize> = {
            let defs = interleaved(&mut Session::new()).patterns;
            let bearing: Vec<usize> = (0..defs.len())
                .filter(|&pi| !defs[pi].rules.is_empty())
                .collect();
            bearing[1..bearing.len() - 1]
                .iter()
                .copied()
                .filter(|&pi| defs[..pi].iter().any(|d| d.rules.is_empty()))
                .collect()
        };
        let mut fired_mid_set = false;
        for (rname, rules) in rule_sets {
            for policy in SweepPolicy::ALL {
                for backend in MatcherBackend::ALL {
                    let run = |literal_loop| {
                        let (mut s, g) = build();
                        let pass = RewritePass {
                            literal_loop,
                            ..RewritePass::new(rules(&mut s))
                                .policy(policy)
                                .matcher(backend)
                        };
                        observe((s, g), pass)
                    };
                    let (by_arithmetic, literal) = (run(false), run(true));
                    assert_eq!(by_arithmetic, literal, "{model}/{rname}/{policy}/{backend}");
                    fired_mid_set |= rname == "interleaved"
                        && literal
                            .firings
                            .fired()
                            .iter()
                            .any(|f| mid_set.contains(&f.pattern));
                }
            }
        }
        fired_mid_set
    }

    // `pypm-models` builds into the engine *it* links — this crate as
    // its dependents see it, not this test build of it — so the
    // `Session` it takes is a type this module cannot name. `Default`
    // lets inference name it, and the stores inside are `pypm-core` and
    // `pypm-graph` types on both sides, so they move across.
    macro_rules! adopted {
        ($cfg:expr) => {
            || {
                let mut theirs = Default::default();
                let g = $cfg.build(&mut theirs);
                let mut s = Session::new();
                s.syms = theirs.syms;
                s.registry = theirs.registry;
                s.ops = theirs.ops;
                s.tattrs = theirs.tattrs;
                (s, g)
            }
        };
    }

    #[test]
    fn literal_loop_oracle_hf_zoo() {
        for cfg in pypm_models::hf_zoo() {
            let fired_mid_set = literal_loop_agrees(cfg.name, &adopted!(cfg));
            assert!(fired_mid_set, "{}: no firing at a middle pattern", cfg.name);
        }
    }

    #[test]
    fn literal_loop_oracle_tv_zoo() {
        for cfg in pypm_models::tv_zoo() {
            literal_loop_agrees(cfg.name, &adopted!(cfg));
        }
    }

    #[test]
    fn find_matches_reports_coverage() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let mut g = Graph::new();
        let a = mat(&mut s, &mut g, &[8, 8]);
        let b = mat(&mut s, &mut g, &[8, 8]);
        let (matmul, relu, gelu) = (s.ops.matmul, s.ops.relu, s.ops.gelu);
        let mm = g
            .op(&mut s.syms, &s.registry, matmul, vec![a, b], vec![])
            .unwrap();
        let r = g
            .op(&mut s.syms, &s.registry, relu, vec![mm], vec![])
            .unwrap();
        let ge = g
            .op(&mut s.syms, &s.registry, gelu, vec![r], vec![])
            .unwrap();
        g.mark_output(ge);

        let matches = find_matches(&mut s, &rs, &g, "MatMulEpilog");
        // The deepest match is rooted at the gelu node and covers
        // gelu → relu → matmul.
        let at_root = matches.iter().find(|m| m.node == ge).expect("root match");
        assert!(at_root.coverage.len() >= 3);
    }
}
