//! Terms `t ::= f(t₁, …, tₙ)` of the core calculus (paper §3.1, Fig. 5).
//!
//! Terms are hash-consed inside a [`TermStore`]: structurally equal terms
//! share a single [`TermId`], so the `t′ ≠ t` test in rule
//! `ST-Match-Var-Conflict` is a constant-time id comparison. This mirrors
//! the role of node identity in DLCB's computation graphs while keeping the
//! calculus tree-shaped, exactly as the paper abstracts graphs into syntax
//! trees (§3).
//!
//! A term is keyed by its head, its arguments and its attributes
//! (`stride`, a constant's `value_milli`, …): an attribute is an
//! interpretation `⟦·⟧ : A → Term ⇀ ℕ` (§3.2), so its value must be a
//! function of the term, and two operator nodes that differ only in an
//! attribute are two terms. Patterns still match heads and arguments
//! only; guards read the attributes ([`TermStore::attrs`]).
//!
//! The store is the hash-cons table of Filliâtre & Conchon (*Type-Safe
//! Modular Hash-Consing*, ML 2006) laid out flat: one vector of head
//! symbols, one arena holding every term's arguments end to end, one
//! holding every term's attributes likewise, and an open-addressed index
//! of term ids. Interning a term that exists is one probe; interning a
//! new one appends to the vectors — no term owns an allocation, and the
//! caller lends its arguments and attributes as slices.

use crate::idhash::IdHasher;
use crate::symbol::{Attr, Symbol, SymbolTable};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A hash-consed term. Equal ids ⇔ structurally equal terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// Raw index into the owning [`TermStore`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Arena of hash-consed terms.
///
/// Ids are dense and handed out in interning order, so a per-term side
/// table can be a vector indexed by [`TermId::index`].
///
/// # Examples
///
/// ```
/// use pypm_core::{SymbolTable, TermStore};
///
/// let mut syms = SymbolTable::new();
/// let zero = syms.op("zero", 0);
/// let succ = syms.op("succ", 1);
///
/// let mut terms = TermStore::new();
/// let z = terms.app0(zero);
/// let one = terms.app(succ, vec![z]);
/// let one_again = terms.app(succ, [z]);
/// assert_eq!(one, one_again); // hash-consing
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermStore {
    /// Head operator per term.
    heads: Vec<Symbol>,
    /// Where each term's arguments begin in `arena`; they end where the
    /// next term's begin (the last term's, at the arena's end).
    starts: Vec<u32>,
    /// Every term's arguments, end to end, in interning order.
    arena: Vec<TermId>,
    /// Where each term's attributes begin in `attr_arena`; they end
    /// where the next term's begin, like the arguments.
    attr_starts: Vec<u32>,
    /// Every term's attributes, end to end, in interning order.
    attr_arena: Vec<(Attr, i64)>,
    /// The hash-cons index: open addressing with linear probing over a
    /// power-of-two table kept at most half full. A slot holds a term
    /// id plus one, zero when empty; the key is read back from `heads`,
    /// `arena` and `attr_arena`, so the index stores nothing else and is
    /// rebuilt from them on growth.
    index: Vec<u32>,
    /// Cached size (number of operator applications) per term.
    sizes: Vec<u64>,
    /// Cached height (leaf = 1) per term.
    heights: Vec<u64>,
}

/// Slots of the smallest index (a power of two).
const MIN_INDEX: usize = 16;

/// The slot an application's probe starts at in an index of `slots`
/// slots: the multiplicative fold every id-keyed table uses (see
/// [`crate::idhash`]), taken from the top bits, where a product mixes
/// all of its input. An application without attributes hashes as its
/// head and arguments alone.
fn home_slot(op: Symbol, args: &[TermId], attrs: &[(Attr, i64)], slots: usize) -> usize {
    let mut h = IdHasher::default();
    op.hash(&mut h);
    args.hash(&mut h);
    if !attrs.is_empty() {
        attrs.hash(&mut h);
    }
    (h.finish() >> (u64::BITS - slots.trailing_zeros())) as usize
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns the application `op(args…)`. The arguments are only
    /// read — a vector, an array or a slice all pass. Arity is not
    /// checked against a [`SymbolTable`]: the caller saturates `op`.
    pub fn app(&mut self, op: Symbol, args: impl AsRef<[TermId]>) -> TermId {
        self.intern(op, args.as_ref(), &[])
    }

    /// Interns the application `op(args…)` carrying `attrs`: an
    /// application that differs in an attribute value, or lists its
    /// attributes in another order, is another term. (A graph lists a
    /// node's attributes in the order its builder gave them.)
    pub fn app_with_attrs(
        &mut self,
        op: Symbol,
        args: impl AsRef<[TermId]>,
        attrs: impl AsRef<[(Attr, i64)]>,
    ) -> TermId {
        self.intern(op, args.as_ref(), attrs.as_ref())
    }

    fn intern(&mut self, op: Symbol, args: &[TermId], attrs: &[(Attr, i64)]) -> TermId {
        if (self.len() + 1) * 2 > self.index.len() {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut slot = home_slot(op, args, attrs, self.index.len());
        while let Some(found) = self.index[slot].checked_sub(1) {
            let found = TermId(found);
            if self.op(found) == op && self.args(found) == args && self.attrs(found) == attrs {
                return found;
            }
            slot = (slot + 1) & mask;
        }
        // What the slot holds: the new id plus one.
        let entry = u32::try_from(self.len() + 1).expect("term ids fit in 32 bits");
        let start = u32::try_from(self.arena.len()).expect("argument offsets fit in 32 bits");
        // Sharing is expanded, so a residual stream doubles the size per
        // block: a 50-layer transformer is past `u64`. Saturate.
        let size = args
            .iter()
            .fold(1u64, |n, a| n.saturating_add(self.sizes[a.index()]));
        let height = 1 + args
            .iter()
            .map(|a| self.heights[a.index()])
            .max()
            .unwrap_or(0);
        self.index[slot] = entry;
        self.heads.push(op);
        self.starts.push(start);
        self.arena.extend_from_slice(args);
        self.attr_starts
            .push(u32::try_from(self.attr_arena.len()).expect("attribute offsets fit in 32 bits"));
        self.attr_arena.extend_from_slice(attrs);
        self.sizes.push(size);
        self.heights.push(height);
        TermId(entry - 1)
    }

    /// Makes room for `additional` more terms: the index grows once, to
    /// the size their interning would have doubled it to, and the
    /// columns and the argument arena (two arguments a term) are
    /// reserved; the attribute arena grows as attributes arrive.
    /// Interning a whole graph starts here with its live node count, so
    /// the scan neither rehashes nor regrows as it goes. Terms and ids
    /// are as they would have been without it.
    pub fn reserve(&mut self, additional: usize) {
        let wanted = (self.len() + additional) * 2;
        if wanted > self.index.len() {
            self.rebuild_index(wanted.next_power_of_two().max(MIN_INDEX));
        }
        self.heads.reserve(additional);
        self.starts.reserve(additional);
        self.attr_starts.reserve(additional);
        self.sizes.reserve(additional);
        self.heights.reserve(additional);
        self.arena.reserve(2 * additional);
    }

    /// Doubles the index.
    fn grow_index(&mut self) {
        self.rebuild_index((self.index.len() * 2).max(MIN_INDEX));
    }

    /// Re-enters every term into a fresh index of `slots` slots. Ids are
    /// distinct, so re-entering needs no key comparison: the first empty
    /// slot of each probe run is the term's.
    fn rebuild_index(&mut self, slots: usize) {
        let mut index = vec![0u32; slots];
        for id in 0..self.len() as u32 {
            let t = TermId(id);
            let mut slot = home_slot(self.op(t), self.args(t), self.attrs(t), slots);
            while index[slot] != 0 {
                slot = (slot + 1) & (slots - 1);
            }
            index[slot] = id + 1;
        }
        self.index = index;
    }

    /// Interns a constant (nullary application).
    pub fn app0(&mut self, op: Symbol) -> TermId {
        self.intern(op, &[], &[])
    }

    /// Head operator of a term.
    pub fn op(&self, t: TermId) -> Symbol {
        self.heads[t.index()]
    }

    /// Argument list of a term.
    pub fn args(&self, t: TermId) -> &[TermId] {
        let start = self.starts[t.index()] as usize;
        let end = self
            .starts
            .get(t.index() + 1)
            .map_or(self.arena.len(), |&next| next as usize);
        &self.arena[start..end]
    }

    /// Attributes of a term, as interned; empty for a term interned by
    /// [`TermStore::app`] or [`TermStore::app0`].
    pub fn attrs(&self, t: TermId) -> &[(Attr, i64)] {
        let start = self.attr_starts[t.index()] as usize;
        let end = self
            .attr_starts
            .get(t.index() + 1)
            .map_or(self.attr_arena.len(), |&next| next as usize);
        &self.attr_arena[start..end]
    }

    /// Number of operator applications in `t`, with sharing expanded;
    /// saturates at `u64::MAX`.
    pub fn size(&self, t: TermId) -> u64 {
        self.sizes[t.index()]
    }

    /// Height of `t` (a constant has height 1).
    pub fn height(&self, t: TermId) -> u64 {
        self.heights[t.index()]
    }

    /// Total number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the store contains no terms.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// All distinct subterms of `t`, including `t` itself (preorder).
    pub fn subterms(&self, t: TermId) -> Vec<TermId> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(u) = stack.pop() {
            if seen[u.index()] {
                continue;
            }
            seen[u.index()] = true;
            out.push(u);
            for &a in self.args(u).iter().rev() {
                stack.push(a);
            }
        }
        out
    }

    /// Whether `needle` occurs in `haystack` (reflexive).
    pub fn contains(&self, haystack: TermId, needle: TermId) -> bool {
        if haystack == needle {
            return true;
        }
        self.args(haystack)
            .iter()
            .any(|&a| self.contains(a, needle))
    }

    /// Pretty-prints `t` using operator names from `syms`.
    pub fn display(&self, syms: &SymbolTable, t: TermId) -> String {
        let mut s = String::new();
        self.write(syms, t, &mut s)
            .expect("a String takes every write");
        s
    }

    /// Writes [`TermStore::display`]'s rendering of `t` into `out`,
    /// stopping at the first write `out` refuses.
    pub fn write(&self, syms: &SymbolTable, t: TermId, out: &mut impl fmt::Write) -> fmt::Result {
        self.write_head(syms, t, out)?;
        let args = self.args(t);
        if !args.is_empty() {
            out.write_char('(')?;
            for (i, &a) in args.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                self.write(syms, a, out)?;
            }
            out.write_char(')')?;
        }
        Ok(())
    }

    /// Writes the head of `t`'s rendering: its operator's name, then
    /// its attributes as `[name=value, …]` if it has any.
    pub fn write_head(
        &self,
        syms: &SymbolTable,
        t: TermId,
        out: &mut impl fmt::Write,
    ) -> fmt::Result {
        out.write_str(syms.op_name(self.op(t)))?;
        let attrs = self.attrs(t);
        if !attrs.is_empty() {
            out.write_char('[')?;
            for (i, &(a, v)) in attrs.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                write!(out, "{}={v}", syms.attr_name(a))?;
            }
            out.write_char(']')?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SymbolTable, TermStore) {
        (SymbolTable::new(), TermStore::new())
    }

    #[test]
    fn hash_consing_dedups() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("c", 0);
        let f = syms.op("f", 2);
        let a = terms.app0(c);
        let t1 = terms.app(f, vec![a, a]);
        let t2 = terms.app(f, vec![a, a]);
        assert_eq!(t1, t2);
        assert_eq!(terms.len(), 2);
    }

    /// How far the worst-placed term sits from its home slot, in probes
    /// (1 = every term is found at the first slot looked at).
    fn longest_probe(terms: &TermStore) -> usize {
        let slots = terms.index.len();
        let displaced = |(slot, &entry): (usize, &u32)| {
            let t = TermId(entry.checked_sub(1)?);
            let home = home_slot(terms.op(t), terms.args(t), terms.attrs(t), slots);
            Some((slot + slots - home) % slots)
        };
        1 + terms
            .index
            .iter()
            .enumerate()
            .filter_map(displaced)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn residual_stream_terms_probe_in_short_runs() {
        // What a transformer's view interns: two-argument applications
        // over consecutive ids under a handful of heads — keys that
        // differ in a few low bits, the worst case for a multiplicative
        // hash read from the wrong end. The `idhash` spread test's
        // analogue for the store's own index.
        let (mut syms, mut terms) = setup();
        let heads: Vec<Symbol> = ["Add", "MatMul", "Mul", "Sub", "Div"]
            .iter()
            .map(|name| syms.op(name, 2))
            .collect();
        let mut prev = terms.app0(syms.op("x", 0));
        let mut last = terms.app0(syms.op("w", 0));
        while terms.len() < 10_000 {
            let next = terms.app(heads[terms.len() % heads.len()], [prev, last]);
            (prev, last) = (last, next);
        }
        assert!(terms.index.len().is_power_of_two());
        assert!(terms.len() * 2 <= terms.index.len(), "at most half full");
        let longest = longest_probe(&terms);
        assert!(longest <= 16, "longest probe run {longest}");
    }

    #[test]
    fn every_term_is_found_again_across_index_growth() {
        let (mut syms, mut terms) = setup();
        let c = terms.app0(syms.op("c", 0));
        let g = syms.op("g", 1);
        let mut chain = vec![c];
        for _ in 0..200 {
            chain.push(terms.app(g, [*chain.last().unwrap()]));
        }
        assert_eq!(terms.len(), 201);
        assert!(terms.index.len() > 4 * MIN_INDEX, "the index grew");
        for pair in chain.windows(2) {
            assert_eq!(terms.app(g, [pair[0]]), pair[1]);
            assert_eq!(terms.args(pair[1]), [pair[0]]);
        }
        assert_eq!(terms.len(), 201);
    }

    #[test]
    fn attributes_join_the_key() {
        let (mut syms, mut terms) = setup();
        let (x, conv) = (syms.op("x", 0), syms.op("Conv2d", 1));
        let (stride, pad) = (syms.attr("stride"), syms.attr("pad"));
        let x = terms.app0(x);
        let plain = terms.app(conv, [x]);
        let one = terms.app_with_attrs(conv, [x], [(stride, 1), (pad, 0)]);
        let two = terms.app_with_attrs(conv, [x], [(stride, 2), (pad, 0)]);
        assert_eq!(terms.len(), 4, "no attributes, stride 1, stride 2");
        assert!(plain != one && one != two);
        assert_eq!(
            terms.app_with_attrs(conv, [x], [(stride, 1), (pad, 0)]),
            one
        );
        assert_eq!(terms.app_with_attrs(conv, [x], []), plain);
        assert_eq!(terms.len(), 4);
        assert_eq!(terms.attrs(two), [(stride, 2), (pad, 0)]);
        assert_eq!(terms.attrs(plain), []);
        assert_eq!(terms.attrs(x), []);
        assert_eq!(terms.display(&syms, two), "Conv2d[stride=2, pad=0](x)");
    }

    #[test]
    fn attributed_terms_are_found_again_across_index_growth() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("ConstScalar", 0);
        let value = syms.attr("value_milli");
        let consts: Vec<TermId> = (0..100)
            .map(|v| terms.app_with_attrs(c, [], [(value, v)]))
            .collect();
        assert!(terms.index.len() > 4 * MIN_INDEX, "the index grew");
        for (v, &t) in consts.iter().enumerate() {
            assert_eq!(terms.app_with_attrs(c, [], [(value, v as i64)]), t);
            assert_eq!(terms.attrs(t), [(value, v as i64)]);
        }
        assert_eq!(terms.len(), 100);
    }

    #[test]
    fn size_and_height() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("c", 0);
        let f = syms.op("f", 2);
        let g = syms.op("g", 1);
        let a = terms.app0(c);
        let ga = terms.app(g, vec![a]);
        let t = terms.app(f, vec![ga, a]);
        assert_eq!(terms.size(a), 1);
        // Size counts tree nodes, with sharing expanded: f, g, a, a.
        assert_eq!(terms.size(t), 4);
        assert_eq!(terms.height(a), 1);
        assert_eq!(terms.height(t), 3);
    }

    #[test]
    fn size_saturates_instead_of_overflowing() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("c", 0);
        let f = syms.op("f", 2);
        let mut t = terms.app0(c);
        for _ in 0..70 {
            t = terms.app(f, vec![t, t]);
        }
        assert_eq!(terms.size(t), u64::MAX);
        assert_eq!(terms.height(t), 71);
    }

    #[test]
    fn display_renders_nested_applications() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("c", 0);
        let f = syms.op("MatMul", 2);
        let g = syms.op("Trans", 1);
        let a = terms.app0(c);
        let ga = terms.app(g, vec![a]);
        let t = terms.app(f, vec![a, ga]);
        assert_eq!(terms.display(&syms, t), "MatMul(c, Trans(c))");
    }

    #[test]
    fn subterms_are_deduped() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("c", 0);
        let f = syms.op("f", 2);
        let a = terms.app0(c);
        let t = terms.app(f, vec![a, a]);
        let subs = terms.subterms(t);
        assert_eq!(subs.len(), 2);
        assert!(subs.contains(&t) && subs.contains(&a));
    }

    #[test]
    fn contains_is_reflexive_and_deep() {
        let (mut syms, mut terms) = setup();
        let c = syms.op("c", 0);
        let d = syms.op("d", 0);
        let g = syms.op("g", 1);
        let a = terms.app0(c);
        let b = terms.app0(d);
        let ga = terms.app(g, vec![a]);
        assert!(terms.contains(ga, ga));
        assert!(terms.contains(ga, a));
        assert!(!terms.contains(ga, b));
    }
}
