//! The fused matcher index: one discrimination tree over a whole
//! pattern set.
//!
//! The rewrite pass probes every `(node × pattern)` pair, and the
//! paper's headline scaling claim is that matching cost should grow
//! *sublinearly* in the number of loaded patterns. A per-pattern scan
//! cannot deliver that: `MatMul(x, y)` and `MatMul(x, Trans(y))` are
//! re-decomposed from scratch for every rule at every node even though
//! they share their whole prefix. [`FusedSet`] compiles the set once
//! into a **discrimination tree** (the classic term-indexing structure
//! of theorem provers): every pattern is flattened into one or more
//! *skeletons* — preorder token strings over
//!
//! ```text
//! token ::= Op(f)     the next subterm must be headed by f
//!         | Star      the next subterm may be anything (skipped whole)
//! ```
//!
//! — and the skeletons of all patterns are merged into one trie, shared
//! prefixes collapsing into a single path. Branch points arise from
//! alternates (`p ‖ p′` contributes both branches), and from patterns
//! whose sub-structure is opaque to the index (variables,
//! function-variable applications, μ-recursion sites — each becomes a
//! `Star`). Leaves carry the indices of the patterns whose skeleton
//! ends there. Walking a term through the trie once yields the
//! **candidate set** of every pattern in the set simultaneously; the
//! per-pattern abstract machine then confirms only those candidates.
//!
//! ## The soundness contract
//!
//! The index is a *conservative overapproximation*:
//!
//! > If [`FusedSet::candidates`] does not report pattern `i` for term
//! > `t`, then running the abstract machine on `(pattern i, t)` is a
//! > **guaranteed failure**.
//!
//! Equivalently, every way a pattern can match is covered by at least
//! one of its skeletons, because flattening only ever *loosens*
//! structure (a variable, guard residue, function application or
//! recursive call is replaced by the all-accepting `Star`). The
//! reverse is deliberately not promised: a reported candidate may still
//! fail on variable consistency, guards, existentials or recursion —
//! that is the machine's job. Rejections therefore never change which
//! matches are found, only how much machine work finding them costs,
//! which is exactly the `machine_steps`-class counter shrinkage the
//! engine documents for its prefilters.
//!
//! Pathological patterns (deep alternation products, explosive nesting)
//! are handled by *collapse*, never by error: past `MAX_SKELETONS`
//! per pattern or `MAX_DEPTH` nesting the pattern's skeleton set
//! degenerates to the single `[Star]`, i.e. "always a candidate" —
//! degenerate but sound, and exactly as cheap as having no index for
//! that one pattern.

use crate::budget::Budget;
use crate::pattern::{Pattern, PatternId, PatternStore};
use crate::symbol::{PatName, Symbol};
use crate::term::{TermId, TermStore};

/// Skeletons per pattern beyond which the pattern collapses to the
/// all-accepting `[Star]` (alternates multiply across sibling argument
/// positions, so a cap is required for predictable build cost).
const MAX_SKELETONS: usize = 64;

/// Pattern-nesting depth beyond which flattening collapses to `[Star]`.
const MAX_DEPTH: usize = 16;

/// One token of a pattern skeleton (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    /// The next subterm must be headed by this operator.
    Op(Symbol),
    /// The next subterm is skipped whole.
    Star,
}

/// One node of the merged trie.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Operator-labelled edges, sorted by symbol for binary search.
    ops: Vec<(Symbol, u32)>,
    /// The `Star` edge, if any skeleton skips a subterm here.
    star: Option<u32>,
    /// Patterns whose skeleton ends at this node (sorted indices into
    /// the pattern list the set was built over).
    leaves: Vec<u32>,
}

/// The two stacks one [`FusedSet::candidates_bounded`] walk runs on,
/// owned by the caller so that consecutive walks reuse their storage.
#[derive(Debug, Clone, Default)]
pub struct WalkStacks {
    /// The linked continuations: (subterm, index of the cell below).
    cells: Vec<(TermId, u32)>,
    /// Pending states: (trie node, top continuation cell).
    work: Vec<(u32, u32)>,
}

/// A whole pattern set compiled into one discrimination tree.
///
/// Owns no references into the originating [`PatternStore`], so a built
/// set is `Send + Sync` and can outlive (or be shared across) matching
/// rounds freely.
///
/// # Examples
///
/// ```
/// use pypm_core::{FusedSet, PatternStore, SymbolTable, TermStore};
///
/// let mut syms = SymbolTable::new();
/// let matmul = syms.op("MatMul", 2);
/// let trans = syms.op("Trans", 1);
/// let relu = syms.op("Relu", 1);
/// let x = syms.var("x");
/// let y = syms.var("y");
///
/// let mut pats = PatternStore::new();
/// let px = pats.var(x);
/// let py = pats.var(y);
/// let yt = pats.app(trans, vec![py]);
/// // Two patterns sharing the MatMul prefix, one unrelated.
/// let mm = pats.app(matmul, vec![px, py]);
/// let mmt = pats.app(matmul, vec![px, yt]);
/// let r = pats.app(relu, vec![px]);
///
/// let fused = FusedSet::build(&pats, &[mm, mmt, r]);
/// let mut terms = TermStore::new();
/// let a = terms.app0(syms.op("a", 0));
/// let b = terms.app0(syms.op("b", 0));
/// let bt = terms.app(trans, vec![b]);
/// let t = terms.app(matmul, vec![a, bt]);
///
/// // One walk yields both MatMul patterns and rejects Relu.
/// let mut steps = 0;
/// assert_eq!(fused.candidates(&terms, t, &mut steps), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct FusedSet {
    nodes: Vec<TrieNode>,
    /// Number of patterns the set was built over.
    pattern_count: usize,
    /// Patterns that collapsed to the degenerate `[Star]` skeleton
    /// (diagnostic; such patterns are candidates at every term).
    collapsed: usize,
}

impl FusedSet {
    /// Compiles `patterns` (in order; the reported candidate indices
    /// refer to positions in this slice) into one discrimination tree.
    pub fn build(pats: &PatternStore, patterns: &[PatternId]) -> FusedSet {
        let mut set = FusedSet {
            nodes: vec![TrieNode::default()],
            pattern_count: patterns.len(),
            collapsed: 0,
        };
        for (i, &p) in patterns.iter().enumerate() {
            let skeletons = match flatten(pats, p, 0) {
                Some(sk) if sk.len() <= MAX_SKELETONS => sk,
                _ => {
                    set.collapsed += 1;
                    vec![vec![Token::Star]]
                }
            };
            for skeleton in &skeletons {
                set.insert(skeleton, i as u32);
            }
        }
        set
    }

    /// Number of trie nodes (diagnostic: the merged size of the set —
    /// shared prefixes mean this grows sublinearly in pattern count for
    /// libraries with common structure).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of patterns the set indexes.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Patterns whose skeletons overflowed the build caps and collapsed
    /// to the always-candidate `[Star]`.
    pub fn collapsed_count(&self) -> usize {
        self.collapsed
    }

    fn insert(&mut self, skeleton: &[Token], pattern: u32) {
        let mut node = 0usize;
        for &tok in skeleton {
            node = match tok {
                Token::Op(f) => match self.nodes[node].ops.binary_search_by_key(&f, |e| e.0) {
                    Ok(i) => self.nodes[node].ops[i].1 as usize,
                    Err(i) => {
                        let child = self.push_node();
                        self.nodes[node].ops.insert(i, (f, child));
                        child as usize
                    }
                },
                Token::Star => match self.nodes[node].star {
                    Some(c) => c as usize,
                    None => {
                        let child = self.push_node();
                        self.nodes[node].star = Some(child);
                        child as usize
                    }
                },
            };
        }
        let leaves = &mut self.nodes[node].leaves;
        if let Err(i) = leaves.binary_search(&pattern) {
            leaves.insert(i, pattern);
        }
    }

    fn push_node(&mut self) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(TrieNode::default());
        id
    }

    /// Walks `t` through the tree once and returns the sorted, deduped
    /// candidate pattern indices — every pattern not reported is a
    /// guaranteed machine failure on `t`. `steps` is incremented once
    /// per trie state expanded (the work metric of the walk).
    pub fn candidates(&self, terms: &TermStore, t: TermId, steps: &mut u64) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_bounded(terms, t, steps, None, &mut WalkStacks::default(), &mut out);
        out
    }

    /// [`FusedSet::candidates`] *appended to* `out` (so a caller keeping
    /// many terms' sets can pool them in one vector), under a
    /// cooperative [`Budget`]: the walk charges its trie steps against
    /// the budget in [`Budget::WALL_CHECK_MASK`]-sized batches and
    /// **abandons the walk early** once the budget trips, appending
    /// whatever candidates it had collected. A truncated candidate set
    /// is only ever *used* by callers that abort the whole compile at
    /// their next budget check — an un-tripped budget changes nothing,
    /// so results with headroom stay byte-identical to the unbudgeted
    /// walk. The walk runs on the caller's `stacks` (any state is fine;
    /// they are cleared first), so a caller walking many terms pays for
    /// their storage once.
    pub fn candidates_bounded(
        &self,
        terms: &TermStore,
        t: TermId,
        steps: &mut u64,
        budget: Option<&Budget>,
        stacks: &mut WalkStacks,
        out: &mut Vec<u32>,
    ) {
        /// The empty continuation: nothing left to consume.
        const DONE: u32 = u32::MAX;
        let start = out.len();
        // Depth-first over (trie node, subterms still to consume).
        // Skeletons are saturated preorder strings, so a leaf is valid
        // exactly when nothing is left. What is left is a linked stack
        // in `cells` — (subterm, index of the cell below) — of which a
        // work item holds the top: a Star edge continues from the cell
        // below, an Op edge links the arguments above it, and both
        // share everything underneath, so no edge copies the remainder.
        let WalkStacks { cells, work } = stacks;
        cells.clear();
        cells.push((t, DONE));
        work.clear();
        work.push((0, 0));
        let mut unbilled: u64 = 0;
        while let Some((n, top)) = work.pop() {
            *steps += 1;
            if let Some(b) = budget {
                unbilled += 1;
                if unbilled > Budget::WALL_CHECK_MASK {
                    if !b.charge(unbilled) {
                        break;
                    }
                    unbilled = 0;
                }
            }
            let node = &self.nodes[n as usize];
            if top == DONE {
                out.extend_from_slice(&node.leaves);
                continue;
            }
            let (cur, below) = cells[top as usize];
            // Star edge: the current subterm is skipped whole.
            if let Some(star) = node.star {
                work.push((star, below));
            }
            // Operator edge: consume the head, link its arguments
            // (last first, so the leftmost ends up on top).
            let op = terms.op(cur);
            if let Ok(i) = node.ops.binary_search_by_key(&op, |e| e.0) {
                let mut top = below;
                for &arg in terms.args(cur).iter().rev() {
                    cells.push((arg, top));
                    top = (cells.len() - 1) as u32;
                }
                work.push((node.ops[i].1, top));
            }
        }
        if let Some(b) = budget {
            if unbilled > 0 {
                b.charge(unbilled);
            }
        }
        // Sort and dedup this walk's tail of `out` in place.
        out[start..].sort_unstable();
        let mut kept = start;
        for i in start..out.len() {
            if kept == start || out[kept - 1] != out[i] {
                out[kept] = out[i];
                kept += 1;
            }
        }
        out.truncate(kept);
    }
}

/// Flattens a pattern into its skeleton set (each a saturated preorder
/// token string), or `None` on cap overflow. Every constructor the
/// index cannot see through becomes [`Token::Star`]:
///
/// * variables and function-variable applications (any subterm),
/// * recursive calls `P(…)` (a μ-unfolding substitutes a whole nested
///   μ-pattern there, which matches one complete subterm),
/// * μ-bodies are flattened *one level* — the rigid structure above the
///   first recursion sites is kept, the sites themselves are stars.
///
/// Guards, existentials and match constraints delegate to the pattern
/// the machine decomposes first, so their structure is preserved.
fn flatten(pats: &PatternStore, p: PatternId, depth: usize) -> Option<Vec<Vec<Token>>> {
    if depth > MAX_DEPTH {
        return None;
    }
    match pats.get(p) {
        Pattern::Var(_) | Pattern::FunApp(..) => Some(vec![vec![Token::Star]]),
        Pattern::App(f, args) => {
            let mut seqs: Vec<Vec<Token>> = vec![vec![Token::Op(*f)]];
            for &a in args {
                let arg_seqs = flatten(pats, a, depth + 1)?;
                let mut next = Vec::with_capacity(seqs.len() * arg_seqs.len());
                for prefix in &seqs {
                    for suffix in &arg_seqs {
                        let mut s = prefix.clone();
                        s.extend_from_slice(suffix);
                        next.push(s);
                    }
                }
                if next.len() > MAX_SKELETONS {
                    return None;
                }
                seqs = next;
            }
            Some(seqs)
        }
        Pattern::Alt(l, r) => {
            let mut seqs = flatten(pats, *l, depth + 1)?;
            seqs.extend(flatten(pats, *r, depth + 1)?);
            if seqs.len() > MAX_SKELETONS {
                return None;
            }
            Some(seqs)
        }
        Pattern::Guard(inner, _) | Pattern::Exists(_, inner) => flatten(pats, *inner, depth + 1),
        Pattern::MatchConstr { main, .. } => flatten(pats, *main, depth + 1),
        Pattern::Mu { name, body, .. } => flatten_mu_body(pats, *name, *body, depth + 1),
        // Out-of-scope call: invalid as a standalone pattern, but keep
        // the index conservative rather than failing the build.
        Pattern::Call(..) => Some(vec![vec![Token::Star]]),
    }
}

/// Flattens a μ-body with the recursion name in scope: in-scope calls
/// become stars (they unfold to nested μ-patterns matching one whole
/// subterm each); everything else flattens structurally. Nested μ with
/// a different name recurse with their own scope — since *any* call
/// becomes a star regardless of which μ bound it, one shared star rule
/// is sound and no scope tracking is needed beyond the recursion guard.
fn flatten_mu_body(
    pats: &PatternStore,
    _name: PatName,
    body: PatternId,
    depth: usize,
) -> Option<Vec<Vec<Token>>> {
    // `flatten` already maps every `Pattern::Call` to a star, which is
    // exactly the in-scope treatment; the wrapper exists to keep the
    // μ-specific reasoning documented in one place.
    flatten(pats, body, depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::NoAttrs;
    use crate::guard::{Expr, Guard};
    use crate::machine::{Machine, Outcome};
    use crate::symbol::SymbolTable;

    fn setup() -> (SymbolTable, PatternStore, TermStore) {
        (SymbolTable::new(), PatternStore::new(), TermStore::new())
    }

    #[test]
    fn shared_prefixes_merge_into_one_path() {
        let (mut syms, mut pats, _) = setup();
        let matmul = syms.op("MatMul", 2);
        let trans = syms.op("Trans", 1);
        let x = syms.var("x");
        let y = syms.var("y");
        let px = pats.var(x);
        let py = pats.var(y);
        let yt = pats.app(trans, vec![py]);
        let mm = pats.app(matmul, vec![px, py]);
        let mmt = pats.app(matmul, vec![px, yt]);

        let fused = FusedSet::build(&pats, &[mm, mmt]);
        // Root + MatMul + shared Star (x) + {Star leaf | Trans + Star
        // leaf}: 6 nodes, NOT the 9 two separate tries would need.
        assert_eq!(fused.node_count(), 6);
        assert_eq!(fused.collapsed_count(), 0);
    }

    #[test]
    fn walk_collects_all_and_only_structural_candidates() {
        let (mut syms, mut pats, mut terms) = setup();
        let matmul = syms.op("MatMul", 2);
        let trans = syms.op("Trans", 1);
        let relu = syms.op("Relu", 1);
        let x = syms.var("x");
        let y = syms.var("y");
        let px = pats.var(x);
        let py = pats.var(y);
        let yt = pats.app(trans, vec![py]);
        let mm = pats.app(matmul, vec![px, py]);
        let mmt = pats.app(matmul, vec![px, yt]);
        let pr = pats.app(relu, vec![px]);
        let fused = FusedSet::build(&pats, &[mm, mmt, pr]);

        let a = terms.app0(syms.op("a", 0));
        let b = terms.app0(syms.op("b", 0));
        let bt = terms.app(trans, vec![b]);
        let t_plain = terms.app(matmul, vec![a, b]);
        let t_trans = terms.app(matmul, vec![a, bt]);
        let t_relu = terms.app(relu, vec![a]);

        let mut steps = 0;
        // MatMul(a, b): only the plain pattern (Trans(y) cannot match b).
        assert_eq!(fused.candidates(&terms, t_plain, &mut steps), vec![0]);
        // MatMul(a, Trans(b)): both MatMul patterns.
        assert_eq!(fused.candidates(&terms, t_trans, &mut steps), vec![0, 1]);
        // Relu(a): only the Relu pattern.
        assert_eq!(fused.candidates(&terms, t_relu, &mut steps), vec![2]);
        assert!(steps > 0);
    }

    #[test]
    fn variables_and_fun_apps_are_wildcards() {
        let (mut syms, mut pats, mut terms) = setup();
        let f = syms.op("f", 1);
        let x = syms.var("x");
        let fv = syms.fun_var("F");
        let px = pats.var(x);
        let fapp = pats.fun_app(fv, vec![px]);
        let fused = FusedSet::build(&pats, &[px, fapp]);
        let c = terms.app0(syms.op("c", 0));
        let fc = terms.app(f, vec![c]);
        let mut steps = 0;
        assert_eq!(fused.candidates(&terms, fc, &mut steps), vec![0, 1]);
        assert_eq!(fused.candidates(&terms, c, &mut steps), vec![0, 1]);
    }

    #[test]
    fn alternates_fork_and_wrappers_delegate() {
        let (mut syms, mut pats, mut terms) = setup();
        let f = syms.op("f", 1);
        let g = syms.op("g", 1);
        let h = syms.op("h", 1);
        let x = syms.var("x");
        let rank = syms.attr("rank");
        let px = pats.var(x);
        let pf = pats.app(f, vec![px]);
        let pg = pats.app(g, vec![px]);
        let alt = pats.alt(pf, pg);
        let guarded = pats.guarded(alt, Guard::Eq(Expr::var_attr(x, rank), Expr::Const(2)));
        let ex = pats.exists(x, guarded);
        let fused = FusedSet::build(&pats, &[ex]);

        let c = terms.app0(syms.op("c", 0));
        let tf = terms.app(f, vec![c]);
        let tg = terms.app(g, vec![c]);
        let th = terms.app(h, vec![c]);
        let mut steps = 0;
        assert_eq!(fused.candidates(&terms, tf, &mut steps), vec![0]);
        assert_eq!(fused.candidates(&terms, tg, &mut steps), vec![0]);
        assert!(fused.candidates(&terms, th, &mut steps).is_empty());
    }

    #[test]
    fn mu_keeps_one_level_of_rigid_structure() {
        // μP(x)[y]. (g(P(x)) ‖ g(x)) — every unfolding is headed by g.
        let (mut syms, mut pats, mut terms) = setup();
        let g = syms.op("g", 1);
        let h = syms.op("h", 1);
        let x = syms.var("x");
        let y = syms.var("y");
        let pn = syms.pat_name("P");
        let px = pats.var(x);
        let call = pats.call(pn, vec![x]);
        let rec = pats.app(g, vec![call]);
        let base = pats.app(g, vec![px]);
        let body = pats.alt(rec, base);
        let mu = pats.mu(pn, vec![x], vec![y], body);
        let fused = FusedSet::build(&pats, &[mu]);

        let c = terms.app0(syms.op("c", 0));
        let gc = terms.app(g, vec![c]);
        let ggc = terms.app(g, vec![gc]);
        let hc = terms.app(h, vec![c]);
        let mut steps = 0;
        assert_eq!(fused.candidates(&terms, gc, &mut steps), vec![0]);
        assert_eq!(fused.candidates(&terms, ggc, &mut steps), vec![0]);
        assert!(fused.candidates(&terms, hc, &mut steps).is_empty());
    }

    #[test]
    fn explosive_patterns_collapse_soundly() {
        // 3 alternates in each of 4 argument positions: 81 skeletons,
        // over the cap — the pattern must collapse to [Star], staying a
        // candidate everywhere.
        let (mut syms, mut pats, mut terms) = setup();
        let f4 = syms.op("f4", 4);
        let a = syms.op("a", 1);
        let b = syms.op("b", 1);
        let c = syms.op("c", 1);
        let x = syms.var("x");
        let px = pats.var(x);
        let pa = pats.app(a, vec![px]);
        let pb = pats.app(b, vec![px]);
        let pc = pats.app(c, vec![px]);
        let arm = pats.alts(&[pa, pb, pc]);
        let wide = pats.app(f4, vec![arm, arm, arm, arm]);
        let fused = FusedSet::build(&pats, &[wide]);
        assert_eq!(fused.collapsed_count(), 1);

        let k = terms.app0(syms.op("k", 0));
        let mut steps = 0;
        // Collapse means: candidate at every term, even non-f4 ones.
        assert_eq!(fused.candidates(&terms, k, &mut steps), vec![0]);
    }

    /// The walk this module shipped before the shared continuation: an
    /// owned stack of remaining subterms per work item, cloned at every
    /// `Star` edge. Kept as the reference for the sets and — state for
    /// state — the `trie_steps` of the linked walk.
    fn cloning_walk(set: &FusedSet, terms: &TermStore, t: TermId, steps: &mut u64) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        let mut work: Vec<(u32, Vec<TermId>)> = vec![(0, vec![t])];
        while let Some((n, mut stack)) = work.pop() {
            *steps += 1;
            let node = &set.nodes[n as usize];
            let Some(&cur) = stack.last() else {
                out.extend_from_slice(&node.leaves);
                continue;
            };
            if let Some(star) = node.star {
                let mut rest = stack.clone();
                rest.pop();
                work.push((star, rest));
            }
            if let Ok(i) = node.ops.binary_search_by_key(&terms.op(cur), |e| e.0) {
                stack.pop();
                stack.extend(terms.args(cur).iter().rev());
                work.push((node.ops[i].1, stack));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn linked_walk_equals_the_cloning_walk_state_for_state() {
        use crate::testing::{PatternGen, TermGen, TestSig};
        let mut nonempty = 0;
        for seed in 0..200u64 {
            let mut sig = TestSig::new();
            let mut pats = PatternStore::new();
            let mut terms = TermStore::new();
            let mut gen = PatternGen::new(seed);
            let patterns: Vec<PatternId> = (0..6)
                .map(|_| gen.pattern(&mut sig, &mut pats, 4))
                .collect();
            let fused = FusedSet::build(&pats, &patterns);
            let mut tgen = TermGen::new(seed ^ 0xA5A5);
            // Appending to a non-empty pool must leave what is there.
            let mut pool = vec![7, 7, 3];
            // One pair of stacks across walks: a walk must not see what
            // the last one left on them.
            let mut stacks = WalkStacks::default();
            for _ in 0..8 {
                let t = tgen.term(&sig, &mut terms, 5);
                let (mut linked, mut cloned) = (0, 0);
                let expected = cloning_walk(&fused, &terms, t, &mut cloned);
                let start = pool.len();
                fused.candidates_bounded(&terms, t, &mut linked, None, &mut stacks, &mut pool);
                assert_eq!(pool[start..], expected[..], "seed {seed}");
                assert_eq!(linked, cloned, "trie_steps moved (seed {seed})");
                nonempty += usize::from(!expected.is_empty());
            }
            assert_eq!(pool[..3], [7, 7, 3]);
        }
        assert!(nonempty > 200, "only {nonempty} non-empty candidate sets");
    }

    /// The soundness contract, pinned by direct machine runs: whenever
    /// the fused index rejects a (pattern, term) pair, the machine
    /// fails on it.
    #[test]
    fn rejections_are_machine_failures() {
        let (mut syms, mut pats, mut terms) = setup();
        let matmul = syms.op("MatMul", 2);
        let trans = syms.op("Trans", 1);
        let relu = syms.op("Relu", 1);
        let x = syms.var("x");
        let y = syms.var("y");
        let px = pats.var(x);
        let py = pats.var(y);
        let yt = pats.app(trans, vec![py]);
        let p0 = pats.app(matmul, vec![px, yt]);
        let p1 = pats.app(relu, vec![px]);
        let tt_inner = pats.app(trans, vec![px]);
        let tt = pats.app(trans, vec![tt_inner]);
        let rr_inner = pats.app(relu, vec![px]);
        let rr = pats.app(relu, vec![rr_inner]);
        let p2 = pats.alt(tt, rr);
        let patterns = vec![p0, p1, p2];
        let fused = FusedSet::build(&pats, &patterns);

        let a = terms.app0(syms.op("a", 0));
        let b = terms.app0(syms.op("b", 0));
        let bt = terms.app(trans, vec![b]);
        let sample = vec![
            terms.app(matmul, vec![a, b]),
            terms.app(matmul, vec![a, bt]),
            terms.app(relu, vec![a]),
            {
                let r = terms.app(relu, vec![a]);
                terms.app(relu, vec![r])
            },
            {
                let t1 = terms.app(trans, vec![a]);
                terms.app(trans, vec![t1])
            },
            bt,
        ];
        let mut steps = 0;
        for &t in &sample {
            let cands = fused.candidates(&terms, t, &mut steps);
            for (i, &p) in patterns.iter().enumerate() {
                if cands.binary_search(&(i as u32)).is_err() {
                    let out = Machine::new(&mut pats, &terms, &NoAttrs)
                        .run(p, t, 100_000)
                        .unwrap();
                    assert_eq!(
                        out,
                        Outcome::Failure,
                        "fused index rejected (pattern {i}, {t:?}) but the machine matched"
                    );
                }
            }
        }
    }
}
