//! The candidate index: how the rewrite pass decides which `(node,
//! pattern)` pairs deserve an abstract-machine run.
//!
//! The paper's cost model separates *candidate discovery* from *match
//! confirmation*: confirmation is always the per-pattern abstract
//! machine (its witnesses drive the rewrites and are what the
//! metatheory is proved about), but discovery — deciding which pairs to
//! even hand to the machine — is an index over the rule set. The pass
//! holds one, a crate-private enum of the two answers
//! [`MatcherBackend`] selects between:
//!
//! * per-pattern — no index: every pattern is a candidate at every
//!   term, the reference the equivalence suites hold the tree against;
//! * [`FusedMatcher`] — the whole rule set compiled into one
//!   [`FusedSet`] discrimination tree; each distinct term is walked
//!   once (memoized across sweeps — hash-consing means a [`TermId`]'s
//!   meaning never changes) and all candidate patterns fall out of that
//!   single traversal. The tree itself is memoized in the
//!   [`PatternStore`] ([`PatternStore::fused`]), so a pass over a
//!   library whose tree was built before — by an earlier pass, or in the
//!   template a serve worker clones its sessions from — builds nothing.
//!
//! ## The contract
//!
//! A pattern missing from a term's candidates must mean the machine
//! run for that pair is a **guaranteed failure**. Under that contract
//! both backends fire byte-identical rewrite sequences: a node visit
//! fetches its term's candidate set once, probes its rule-bearing
//! members in rule-set order, and *accounts* the pairs it skipped as if
//! the paper's every-pattern loop had tried them, so `match_attempts`
//! / `matches_found` / `rewrites_fired` are backend-independent, and
//! only the machine-work counters (`machine_steps`,
//! `machine_backtracks`) and the admission counters in [`MatcherStats`]
//! vary — the same counter-shrinkage contract the sweep policies
//! already document. A visit costs one lookup plus its candidates,
//! whatever the size of the rule set.
//!
//! ## When per-pattern still wins
//!
//! The fused tree pays an up-front build (once per pattern store and
//! rule set) and a walk per distinct term. For pattern sets that
//! collapse to wildcards (every pattern variable-rooted, or past the
//! build caps) the tree admits
//! nearly everything and build and walks are pure overhead — that is
//! what `--matcher per-pattern` is for, besides being the reference,
//! and why the bench suite records both backends across the
//! rules-count series.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use pypm_core::{Budget, FusedSet, PatternId, PatternStore, TermId, TermStore, WalkStacks};

/// Which candidate-discovery index the rewrite pass runs above the
/// abstract machine. See the module docs for the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatcherBackend {
    /// Per-pattern probing: no index, every pair goes to the machine.
    /// Kept as the reference ablation point.
    PerPattern,
    /// One [`FusedSet`] discrimination tree over the whole rule set;
    /// each distinct term is walked once and every pattern's verdict
    /// falls out of that single traversal.
    #[default]
    Fused,
}

impl MatcherBackend {
    /// Every backend, in ablation order (reference first).
    pub const ALL: [MatcherBackend; 2] = [MatcherBackend::PerPattern, MatcherBackend::Fused];

    /// The backend's stable command-line / JSON-series name.
    pub fn name(self) -> &'static str {
        match self {
            MatcherBackend::PerPattern => "per-pattern",
            MatcherBackend::Fused => "fused",
        }
    }

    /// Parses a [`MatcherBackend::name`] back to the backend — the
    /// single vocabulary shared by `pypmc compile --matcher`, the serve
    /// protocol and the bench series.
    pub fn parse(name: &str) -> Option<MatcherBackend> {
        Self::ALL.into_iter().find(|b| b.name() == name)
    }
}

impl fmt::Display for MatcherBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Admission counters for one pass — the discovery-side cost metrics
/// (the machine-side costs stay in the existing `machine_steps` /
/// `machine_backtracks` counters).
///
/// The headline bench metric is **probes per node** =
/// `pairs_admitted / nodes_visited`: how many machine runs each node
/// visit costs. Per-pattern admission is total (probes/node =
/// rule-bearing pattern count); the fused tree is what makes it
/// sublinear in ruleset size.
#[derive(Debug, Clone, Default)]
pub struct MatcherStats {
    /// [`MatcherBackend::name`] of the backend that ran (empty when no
    /// pass ran).
    pub backend: &'static str,
    /// Distinct terms walked through the fused tree (memo misses).
    /// Zero under [`MatcherBackend::PerPattern`].
    pub terms_walked: u64,
    /// Trie states expanded across all walks. Zero under
    /// [`MatcherBackend::PerPattern`].
    pub trie_steps: u64,
    /// `(pattern, term)` pairs the index admitted to the machine on the
    /// commit path — each is one machine probe.
    pub pairs_admitted: u64,
    /// Pairs rejected by the index on the commit path — guaranteed
    /// machine failures resolved without machine work.
    pub pairs_rejected: u64,
}

impl MatcherStats {
    /// Folds another pass's counters into this one (backend: first
    /// non-empty wins — a pipeline mixes backends only if configured
    /// per-pass, and then the aggregate names the first).
    pub fn absorb(&mut self, other: &MatcherStats) {
        if self.backend.is_empty() {
            self.backend = other.backend;
        }
        self.terms_walked += other.terms_walked;
        self.trie_steps += other.trie_steps;
        self.pairs_admitted += other.pairs_admitted;
        self.pairs_rejected += other.pairs_rejected;
    }
}

/// The fused discrimination-tree index (see [`MatcherBackend::Fused`]
/// and [`FusedSet`]).
#[derive(Debug)]
pub struct FusedMatcher {
    set: Arc<FusedSet>,
    /// Where each walked term's candidate set lies in `pool`, as
    /// `(start, len)`, by [`TermId::index`]; [`UNWALKED`] until the
    /// term's first query, and past the end for terms interned since
    /// the table last grew. Memoized across nodes *and* sweeps:
    /// hash-consed [`TermId`]s never change meaning, so a walk is paid
    /// once per distinct subject term per pass. A vector, not a map: a
    /// compile owns its [`TermStore`], which holds one graph's terms.
    memo: Vec<(u32, u32)>,
    /// Every walked term's candidates, end to end. Most terms have
    /// none, so most memo entries cost no pool space and no term ever
    /// costs an allocation of its own.
    pool: Vec<u32>,
    /// What every walk runs on (see [`WalkStacks`]).
    stacks: WalkStacks,
    /// The run's cooperative budget: walks charge their trie steps
    /// against it and truncate once it trips. A truncated walk may
    /// admit too little, which is sound only because the scan aborts
    /// the whole pass at its next budget check — an un-tripped budget
    /// never changes a verdict.
    budget: Option<Arc<Budget>>,
}

/// The memo entry of a term no walk has answered yet (no pool offset
/// gets that far: the pool's spans are `u32`s).
const UNWALKED: (u32, u32) = (u32::MAX, 0);

impl FusedMatcher {
    /// Compiles the rule set's patterns into one discrimination tree of
    /// its own (the rewrite pass takes the store's memoized one
    /// instead, [`PatternStore::fused`]).
    pub fn new(pats: &PatternStore, patterns: &[PatternId]) -> Self {
        Self::over(Arc::new(FusedSet::build(pats, patterns)), None)
    }

    /// An index walking an already built tree under `budget`.
    fn over(set: Arc<FusedSet>, budget: Option<Arc<Budget>>) -> Self {
        FusedMatcher {
            set,
            memo: Vec::new(),
            pool: Vec::new(),
            stacks: WalkStacks::default(),
            budget,
        }
    }

    /// The compiled tree (diagnostics: node counts, collapse counts).
    pub fn set(&self) -> &FusedSet {
        &self.set
    }

    /// Where `t`'s candidates lie in the pool, walking the tree on the
    /// term's first query only: a memo hit is one read, inlined into
    /// the visit.
    #[inline]
    fn walk(&mut self, t: TermId, terms: &TermStore, stats: &mut MatcherStats) -> Range<usize> {
        let (start, len) = match self.memo.get(t.index()) {
            Some(&hit) if hit != UNWALKED => hit,
            _ => self.first_walk(t, terms, stats),
        };
        start as usize..(start + len) as usize
    }

    /// Walks the tree for a term no query has answered yet and
    /// memoizes where its candidates lie.
    fn first_walk(&mut self, t: TermId, terms: &TermStore, stats: &mut MatcherStats) -> (u32, u32) {
        if self.memo.len() <= t.index() {
            self.memo.resize(terms.len(), UNWALKED);
        }
        stats.terms_walked += 1;
        let start = self.pool.len();
        self.set.candidates_bounded(
            terms,
            t,
            &mut stats.trie_steps,
            self.budget.as_deref(),
            &mut self.stacks,
            &mut self.pool,
        );
        let entry = (start as u32, (self.pool.len() - start) as u32);
        self.memo[t.index()] = entry;
        entry
    }
}

/// The rewrite pass's candidate index over one rule set, as
/// [`MatcherBackend`] selects it.
///
/// A pattern left out of a term's candidates is a **guaranteed machine
/// failure** on that term; being listed promises nothing — the machine
/// is always the arbiter. Under that contract both backends fire
/// byte-identical rewrite sequences, and only machine-work and
/// admission counters differ. Terms are hash-consed and a rewrite gives
/// a changed node a fresh term, so a memoized answer never goes stale.
#[derive(Debug)]
pub(crate) enum Candidates {
    /// [`MatcherBackend::PerPattern`]: every one of the rule set's
    /// patterns, at every term.
    Every(usize),
    /// [`MatcherBackend::Fused`]: the tree's walk of the term.
    Fused(FusedMatcher),
}

impl Candidates {
    /// The index `backend` names over `patterns` (in rule-set order),
    /// charging its walks against `budget`. The fused tree comes from
    /// the store's memo ([`PatternStore::fused`]).
    pub(crate) fn new(
        backend: MatcherBackend,
        pats: &mut PatternStore,
        patterns: &[PatternId],
        budget: Option<Arc<Budget>>,
    ) -> Self {
        match backend {
            MatcherBackend::PerPattern => Candidates::Every(patterns.len()),
            MatcherBackend::Fused => {
                Candidates::Fused(FusedMatcher::over(pats.fused(patterns), budget))
            }
        }
    }

    /// The candidates of `t`, as positions to read with
    /// [`Candidates::pattern`]: ascending pattern indices, pattern-only
    /// definitions included — the index knows nothing of rules. The
    /// walk's counters (`terms_walked`, `trie_steps`) go to `stats`; the
    /// caller accounts the pair-level verdicts.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        t: TermId,
        terms: &TermStore,
        stats: &mut MatcherStats,
    ) -> Range<usize> {
        match self {
            Candidates::Every(patterns) => 0..*patterns,
            Candidates::Fused(fused) => fused.walk(t, terms, stats),
        }
    }

    /// The pattern index at position `at` of an [`Candidates::admit`]
    /// answer.
    pub(crate) fn pattern(&self, at: usize) -> usize {
        match self {
            Candidates::Every(_) => at,
            Candidates::Fused(fused) => fused.pool[at] as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pypm_core::SymbolTable;

    #[test]
    fn backend_names_roundtrip() {
        for b in MatcherBackend::ALL {
            assert_eq!(MatcherBackend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(MatcherBackend::parse("bogus"), None);
        assert_eq!(MatcherBackend::default(), MatcherBackend::Fused);
    }

    /// The pattern indices `index` admits at `t`.
    fn admitted(
        index: &mut Candidates,
        t: TermId,
        terms: &TermStore,
        stats: &mut MatcherStats,
    ) -> Vec<usize> {
        let at = index.admit(t, terms, stats);
        at.map(|k| index.pattern(k)).collect()
    }

    #[test]
    fn per_pattern_serial_admits_everything() {
        let mut syms = SymbolTable::new();
        let f = syms.op("f", 1);
        let g = syms.op("g", 1);
        let x = syms.var("x");
        let mut pats = PatternStore::new();
        let px = pats.var(x);
        let pf = pats.app(f, vec![px]);
        let mut terms = TermStore::new();
        let c = terms.app0(syms.op("c", 0));
        let tg = terms.app(g, vec![c]);

        // Even a head mismatch goes to the machine, and nothing is
        // walked to say so.
        let mut stats = MatcherStats::default();
        let mut every = Candidates::new(MatcherBackend::PerPattern, &mut pats, &[pf, px], None);
        assert_eq!(admitted(&mut every, tg, &terms, &mut stats), [0, 1]);
        assert_eq!((stats.terms_walked, stats.trie_steps), (0, 0));
        // The fused index leaves the head mismatch out.
        let mut fused = Candidates::new(MatcherBackend::Fused, &mut pats, &[pf, px], None);
        assert_eq!(admitted(&mut fused, tg, &terms, &mut stats), [1]);
    }

    #[test]
    fn fused_memoizes_walks_per_distinct_term() {
        let mut syms = SymbolTable::new();
        let f = syms.op("f", 1);
        let x = syms.var("x");
        let mut pats = PatternStore::new();
        let px = pats.var(x);
        let pf = pats.app(f, vec![px]);
        let mut terms = TermStore::new();
        let c = terms.app0(syms.op("c", 0));
        let tf = terms.app(f, vec![c]);

        let mut stats = MatcherStats::default();
        let mut m = Candidates::Fused(FusedMatcher::new(&pats, &[pf, px]));
        assert_eq!(admitted(&mut m, tf, &terms, &mut stats), [0, 1]);
        assert_eq!(admitted(&mut m, c, &terms, &mut stats), [1]);
        assert_eq!(admitted(&mut m, tf, &terms, &mut stats), [0, 1]);
        assert_eq!(stats.terms_walked, 2, "one walk per distinct term");
        assert!(stats.trie_steps > 0);
        // A term with no candidates is memoized like any other — asked
        // twice, walked once — and takes no pool space.
        let tg = terms.app(syms.op("g", 1), vec![c]);
        let mut none = FusedMatcher::new(&pats, &[pf]);
        let mut stats = MatcherStats::default();
        assert!(none.walk(tg, &terms, &mut stats).is_empty());
        assert!(none.walk(tg, &terms, &mut stats).is_empty());
        assert_eq!(stats.terms_walked, 1);
        assert!(none.pool.is_empty());
    }

    #[test]
    fn matcher_stats_absorb_sums_and_keeps_first_backend() {
        let mut a = MatcherStats {
            backend: "fused",
            terms_walked: 1,
            trie_steps: 2,
            pairs_admitted: 3,
            pairs_rejected: 4,
        };
        let b = MatcherStats {
            backend: "per-pattern",
            terms_walked: 10,
            trie_steps: 20,
            pairs_admitted: 30,
            pairs_rejected: 40,
        };
        a.absorb(&b);
        assert_eq!(a.backend, "fused");
        assert_eq!(a.terms_walked, 11);
        assert_eq!(a.trie_steps, 22);
        assert_eq!(a.pairs_admitted, 33);
        assert_eq!(a.pairs_rejected, 44);
        let mut empty = MatcherStats::default();
        empty.absorb(&b);
        assert_eq!(empty.backend, "per-pattern");
    }
}
