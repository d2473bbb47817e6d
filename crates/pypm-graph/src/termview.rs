//! The term view: abstracting subgraphs as syntax trees (paper §3,
//! "computation graphs of operators are abstracted as syntax trees in
//! CorePyPM").
//!
//! Matching a pattern at a graph node means matching against the *tree*
//! rooted at that node: shared subgraphs are duplicated in the view (the
//! hash-consed [`TermStore`] re-shares them structurally), inputs and
//! opaque nodes become fresh constants, and tensor metadata is carried to
//! the term level in a side table so that guards can evaluate attributes
//! like `x.rank` and `x.eltType`.
//!
//! The side table is indexed by [`TermId`]. Hash-consing makes
//! structurally equal subgraphs share a term id; because distinct input
//! nodes are distinct constants and shape inference is deterministic,
//! structurally equal subgraphs always carry identical metadata, so the
//! table is well-defined. A row holds the term's metadata — a dtype and
//! the id of a shape in the graph's [`ShapeTable`], 8 bytes — its
//! operator class and where its operator attributes sit in one
//! append-only arena the view owns, the shape of [`Graph::attrs`]; so
//! recording a term copies 24 bytes and its attributes, and allocates
//! no list for them. A guard reads a shape attribute through the
//! graph's table ([`TermView::attrs`] borrows it).
//!
//! A rewrite's cone is found through [`Graph::users_of`], the graph's
//! use-lists, whose order is unspecified: what [`TermView::patch`]
//! marks is a set, the same whichever order it is walked in.

use crate::graph::{Graph, NodeId, NodeKind};
use crate::ops::OpRegistry;
use crate::tensor::{ShapeTable, TensorMeta};
use pypm_core::{Attr, AttrInterp, IdMap, Symbol, SymbolTable, TermId, TermStore};
use std::collections::HashMap;
use std::ops::Range;

/// Interned handles for the tensor-specific attributes PyPM exposes on
/// every term (§2: "all terms … have the same set of tensor-specific
/// attributes including element type, shape, and rank").
#[derive(Debug, Clone, Copy)]
pub struct TensorAttrs {
    /// `rank` — number of dimensions.
    pub rank: Attr,
    /// `eltType` — the [`DType`](crate::tensor::DType) code.
    pub elt_type: Attr,
    /// `numel` — total element count.
    pub numel: Attr,
    /// `dim0`–`dim3` — leading dimension extents.
    pub dims: [Attr; 4],
    /// `op_class` — the [`OpClass`](crate::ops::OpClass) code of the head
    /// operator (Fig. 14's `op_class` constraint).
    pub op_class: Attr,
}

impl TensorAttrs {
    /// Interns the attribute names in `syms`.
    pub fn intern(syms: &mut SymbolTable) -> Self {
        TensorAttrs {
            rank: syms.attr("rank"),
            elt_type: syms.attr("eltType"),
            numel: syms.attr("numel"),
            dims: [
                syms.attr("dim0"),
                syms.attr("dim1"),
                syms.attr("dim2"),
                syms.attr("dim3"),
            ],
            op_class: syms.attr("op_class"),
        }
    }
}

/// What a term view records about one term: copied from the term's
/// first producer (any producer carries the same values, see
/// [`TermView`]).
#[derive(Debug, Clone)]
struct TermAttrs {
    /// The dtype, and the shape as an id of the graph's [`ShapeTable`].
    meta: TensorMeta,
    /// The [`OpClass`](crate::ops::OpClass) code of the head operator.
    class_code: i64,
    /// Where the operator attributes attached to the node (stride,
    /// value_milli, epilog, …) sit in [`TermTable::node_attrs`].
    node_attrs: Range<u32>,
}

/// A term view's attribute side table.
#[derive(Debug, Clone)]
struct TermTable {
    /// By [`TermId::index`]; `None` (or past the end) for a term no
    /// node of the view has produced.
    by_term: Vec<Option<TermAttrs>>,
    /// Every recorded term's operator attributes, one run per term, in
    /// recording order. Append-only: a term keeps its run once recorded.
    node_attrs: Vec<(Attr, i64)>,
    handles: TensorAttrs,
}

/// The attribute interpretation guards evaluate against: a term view's
/// side table, with the shape table of the graph it views
/// ([`TermView::attrs`]).
#[derive(Debug, Clone, Copy)]
pub struct GraphAttrInterp<'a> {
    table: &'a TermTable,
    shapes: &'a ShapeTable,
}

/// The entry of `t` in a table indexed by [`TermId::index`], grown on
/// demand: a view learns of a term when one of its nodes produces it.
fn slot_mut<T>(table: &mut Vec<Option<T>>, t: TermId) -> &mut Option<T> {
    if table.len() <= t.index() {
        table.resize_with(t.index() + 1, || None);
    }
    &mut table[t.index()]
}

impl AttrInterp for GraphAttrInterp<'_> {
    fn attr(&self, _terms: &TermStore, t: TermId, attr: Attr) -> Option<i64> {
        let TermTable {
            by_term,
            node_attrs,
            handles,
        } = self.table;
        let TermAttrs {
            meta,
            class_code,
            node_attrs: run,
        } = by_term.get(t.index())?.as_ref()?;
        if attr == handles.op_class {
            return Some(*class_code);
        }
        if attr == handles.rank {
            return Some(self.shapes.rank(meta.shape) as i64);
        }
        if attr == handles.elt_type {
            return Some(meta.dtype.code());
        }
        if attr == handles.numel {
            return Some(self.shapes.numel(meta.shape));
        }
        for (i, &d) in handles.dims.iter().enumerate() {
            if attr == d {
                return self.shapes.dim(meta.shape, i);
            }
        }
        let run = &node_attrs[run.start as usize..run.end as usize];
        run.iter().find(|(k, _)| *k == attr).map(|&(_, v)| v)
    }
}

/// Interns the value-specialized symbol for an attribute-carrying
/// constant, e.g. `ConstScalar!value_milli=500`.
fn specialized_const(syms: &mut SymbolTable, op: Symbol, attrs: &[(Attr, i64)]) -> Symbol {
    let mut name = syms.op_name(op).to_owned();
    let mut sorted: Vec<(String, i64)> = attrs
        .iter()
        .map(|&(a, v)| (syms.attr_name(a).to_owned(), v))
        .collect();
    sorted.sort();
    for (a, v) in sorted {
        name.push('!');
        name.push_str(&a);
        name.push('=');
        name.push_str(&v.to_string());
    }
    syms.op(&name, 0)
}

/// What a [`TermView`] holds for one node: one column, by
/// [`NodeId::index`], no wider than an `Option<TermId>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not the view's: dead, or allocated after the view and never
    /// patched. Ids past the column's end read as this.
    Unknown,
    /// Live when the view was created and not interned since.
    Unseen,
    /// Marked by [`TermView::patch`]: its term may have changed.
    Stale,
    /// Interned: [`TermView::term_of`] answers the term.
    Clean(TermId),
}

/// A cached term view of a [`Graph`].
///
/// Every node the view knows is in one of three states:
///
/// * **clean** — its term is interned and [`TermView::term_of`]
///   answers it;
/// * **stale** — [`TermView::patch`] marked it: a rewrite upstream may
///   have changed its term, so it has none until it is recomputed;
/// * **unseen** — it was live when the view was created
///   ([`TermView::empty`]) and nothing has read it since. Its term is
///   the one a build would have given it, just not interned yet: no
///   input of an unseen node is stale, because a patch marks every user
///   of what it marks.
///
/// The view *owes* a stale or unseen node a term ([`TermView::owes`]).
/// That set is the incremental rewrite scan's worklist: a node the view
/// owes nothing has been read since anything below it last changed.
///
/// A view starts with every live node unseen. [`TermView::build`] is
/// that view plus a walk interning every node reachable from the
/// outputs; the rewrite scan never walks, and interns a node the first
/// time it reads it ([`TermView::term_of_repaired`]), so a node a
/// rewrite deletes before the scan reaches it is never interned at all.
///
/// After a rewrite, [`TermView::patch`] the rewrite's seed (the rewired
/// users of the replaced root, the freshly created replacement nodes,
/// and the ids [`Graph::collect`] freed): the dead ids leave the view,
/// and the live ones and every transitive user, discovered through
/// [`Graph::users_of`], are **marked** stale — a cheap pointer walk, no
/// interning, over unseen and clean users alike, that drops the marked
/// nodes' terms. Stale terms are then recomputed **lazily**, on demand,
/// by [`TermView::term_of_repaired`] when the rewrite scheduler
/// actually visits a node.
///
/// Laziness is what makes the maintenance *sublinear in practice*, not
/// just per-patch: a rewrite near the inputs dirties everything
/// downstream, and the next rewrite usually dirties most of it again
/// before the scheduler ever looks at it. Eager patching recomputes
/// those nodes once per upstream rewrite; lazy repair recomputes each
/// node at most once per *visit*, so consecutive rewrites coalesce.
/// [`TermView::terms_recomputed`] counts the recomputes of stale nodes
/// (the engine's `nodes_reindexed` counter); interning an unseen node
/// is not a recompute, so the count is the one an eagerly built view
/// would read. A view with no stale and no unseen nodes (see
/// [`TermView::repair_all`]) is indistinguishable from a fresh
/// [`TermView::build`].
///
/// The view maps nodes to terms, not terms to nodes: several live
/// nodes may view as one term, and which of them a caller means
/// depends on where it stands. A rule's right-hand-side variable names
/// a piece of the subgraph its pattern matched, so the engine resolves
/// a bound term below the matched root ([`TermView::node_below`]), and
/// so does partitioning for the members of a region.
#[derive(Debug, Clone)]
pub struct TermView {
    /// Every node's [`Slot`], by [`NodeId::index`]. Per-node and
    /// per-term state are both dense vectors: node ids are a graph's
    /// own, allocated from zero, and a compile owns its [`TermStore`],
    /// whose ids are dense and belong to this graph's terms.
    slots: Vec<Slot>,
    /// Attribute side tables.
    attrs: TermTable,
    /// Terms recomputed by on-demand repair over the view's lifetime
    /// (see [`TermView::terms_recomputed`]).
    recomputed: u64,
    /// Where [`TermView::term_for`] gathers a node's argument terms
    /// before lending them to [`TermStore::app`].
    args: Vec<TermId>,
    /// The marking walk of [`TermView::patch`] and the depth-first
    /// stack of [`TermView::term_of_repaired`], empty between calls.
    stack: Vec<NodeId>,
    /// The breadth-first walk of [`TermView::node_below`], in visiting
    /// order, empty between calls.
    below: Vec<NodeId>,
    /// The nodes on that walk, by [`NodeId::index`]; all `false`
    /// between calls, and only as long as the highest id it reached.
    marked: Vec<bool>,
    /// The value-specialized symbol of every attribute-carrying
    /// constant met so far, by operator and then attribute list, so
    /// that only the first meeting spells the name out. The outer key
    /// is a symbol of this process; attribute values are a graph's.
    consts: IdMap<Symbol, HashMap<Vec<(Attr, i64)>, Symbol>>,
}

impl TermView {
    /// The view of `graph` with every live node unseen: no term is
    /// interned. The rewrite scan starts here and interns what it reads.
    pub fn empty(graph: &Graph, syms: &mut SymbolTable) -> TermView {
        let slots = (0..graph.allocated_count())
            .map(|i| {
                if graph.is_alive(NodeId::from_index(i)) {
                    Slot::Unseen
                } else {
                    Slot::Unknown
                }
            })
            .collect();
        TermView {
            slots,
            attrs: TermTable {
                by_term: Vec::new(),
                node_attrs: Vec::new(),
                handles: TensorAttrs::intern(syms),
            },
            recomputed: 0,
            args: Vec::new(),
            stack: Vec::new(),
            below: Vec::new(),
            marked: Vec::new(),
            consts: IdMap::default(),
        }
    }

    /// Builds the term view of every node reachable from the graph
    /// outputs: the [`TermView::empty`] view, with each such node
    /// interned in topological order, into a store sized for the live
    /// nodes up front ([`TermStore::reserve`]).
    pub fn build(
        graph: &Graph,
        syms: &mut SymbolTable,
        terms: &mut TermStore,
        registry: &OpRegistry,
    ) -> TermView {
        terms.reserve(graph.live_count());
        let mut view = TermView::empty(graph, syms);
        for n in graph.topo_order() {
            // Inputs come first in this order, so this is the one step
            // of `term_of_repaired` with nothing to search for.
            let term = view.term_for(graph, n, syms, terms);
            view.record(graph, registry, n, term);
        }
        view
    }

    /// Repairs the view's *bookkeeping* after a graph mutation, given
    /// its `seed`: the user nodes rewired by [`Graph::replace_traced`],
    /// the nodes the replacement freshly allocated
    /// ([`Graph::allocated_since`]), and the ids the post-rewrite
    /// [`Graph::collect`] freed. The dead ids leave the view; the live
    /// ones and every transitive user (via [`Graph::users_of`]) not
    /// already stale are marked stale, which drops their terms so no
    /// stale term can be served. No term is compared: a user whose term
    /// will come out unchanged is marked all the same.
    ///
    /// No term is interned here — marking is a pointer walk over the
    /// cone. The actual recomputation happens lazily in
    /// [`TermView::term_of_repaired`] when a marked node is next
    /// looked at, so nodes dirtied by several consecutive rewrites are
    /// recomputed once, not once per rewrite.
    ///
    /// Equivalence contract: once every stale and unseen node has been
    /// interned (e.g. after [`TermView::repair_all`]), the view is
    /// indistinguishable from `TermView::build` on the current graph —
    /// same node→term map, and the same attributes for every term a
    /// node produces.
    ///
    /// The seed must name the ids `Graph::collect` freed: patch
    /// discovers deadness only for seeded ids (checking liveness for
    /// the whole view would be the linear walk this method exists to
    /// avoid).
    pub fn patch(&mut self, graph: &Graph, seed: impl IntoIterator<Item = NodeId>) {
        if self.slots.len() < graph.allocated_count() {
            self.slots.resize(graph.allocated_count(), Slot::Unknown);
        }
        let mut stack = std::mem::take(&mut self.stack);
        for n in seed {
            if graph.is_alive(n) {
                stack.push(n);
            } else {
                // Dead: gone from the view, exactly like a fresh build
                // would not see it.
                self.slots[n.index()] = Slot::Unknown;
            }
        }
        while let Some(n) = stack.pop() {
            // An unseen node is marked like a clean one: an eager build
            // would have had a term for it. The old term goes *now*, so
            // term_of can never serve a term that is in question.
            if std::mem::replace(&mut self.slots[n.index()], Slot::Stale) == Slot::Stale {
                continue;
            }
            for u in graph.users_of(n) {
                if self.slots[u.index()] != Slot::Stale {
                    stack.push(u);
                }
            }
        }
        // Drained; hand the allocation back.
        self.stack = stack;
    }

    /// The term rooted at `n`, interning it first if the view owes it
    /// one: recomputing it if a patch marked it stale, interning it if
    /// it is unseen, and likewise every stale or unseen input first
    /// (memoized — each node is interned once). Only the stale nodes
    /// count as recomputes ([`TermView::terms_recomputed`]). Returns
    /// `None` for nodes the view does not know (dead ids, or ids
    /// allocated after the view and never patched).
    ///
    /// This is the lookup the rewrite scheduler uses at every visit;
    /// the read-only [`TermView::term_of`] deliberately returns `None`
    /// for stale nodes so no stale term can leak into matching. A node
    /// the view owes nothing costs one slot read, inlined into the
    /// caller; only an owed node calls out to the repair.
    #[inline]
    pub fn term_of_repaired(
        &mut self,
        graph: &Graph,
        syms: &mut SymbolTable,
        terms: &mut TermStore,
        registry: &OpRegistry,
        n: NodeId,
    ) -> Option<TermId> {
        match self.slot(n) {
            Slot::Clean(t) => Some(t),
            Slot::Unknown => None,
            Slot::Unseen | Slot::Stale => self.repair(graph, syms, terms, registry, n),
        }
    }

    /// [`TermView::term_of_repaired`] of a node the view owes a term.
    fn repair(
        &mut self,
        graph: &Graph,
        syms: &mut SymbolTable,
        terms: &mut TermStore,
        registry: &OpRegistry,
        n: NodeId,
    ) -> Option<TermId> {
        // Iterative input-first DFS over the owed region: rewiring
        // points users at later-allocated replacement nodes, so node
        // ids carry no topological order we could lean on. A node is
        // pushed once per owed path to it and interned the first time
        // it surfaces with clean inputs.
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(n);
        while let Some(&top) = stack.last() {
            let below = stack.len();
            stack.extend(graph.inputs(top).iter().filter(|&&i| self.owes(i)));
            if stack.len() > below {
                continue;
            }
            stack.pop();
            let stale = match self.slot(top) {
                Slot::Stale => true,
                Slot::Unseen => false,
                // Interned on another path of this very DFS.
                Slot::Clean(_) | Slot::Unknown => continue,
            };
            let term = self.term_for(graph, top, syms, terms);
            if stale {
                self.recomputed += 1;
            }
            self.record(graph, registry, top, term);
        }
        // Drained; keep the allocation for the next repair.
        self.stack = stack;
        self.term_of(n)
    }

    #[inline]
    fn slot(&self, n: NodeId) -> Slot {
        self.slots.get(n.index()).copied().unwrap_or(Slot::Unknown)
    }

    /// Whether the view owes `n` a term: `n` is stale or unseen. The
    /// incremental rewrite scan visits exactly these nodes.
    #[inline]
    pub fn owes(&self, n: NodeId) -> bool {
        matches!(self.slot(n), Slot::Unseen | Slot::Stale)
    }

    /// Interns every stale or unseen node reachable from the graph
    /// outputs, leaving the view equal to a fresh [`TermView::build`].
    /// Useful when a caller wants an eagerly consistent view (tests,
    /// external consumers); the rewrite scheduler itself never needs it.
    pub fn repair_all(
        &mut self,
        graph: &Graph,
        syms: &mut SymbolTable,
        terms: &mut TermStore,
        registry: &OpRegistry,
    ) {
        for n in graph.topo_order() {
            self.term_of_repaired(graph, syms, terms, registry, n);
        }
        // Owed ids that are dead by now can never be interned (or
        // observed); drop them.
        for n in graph.allocated_since(0) {
            if !graph.is_alive(n) && self.owes(n) {
                self.slots[n.index()] = Slot::Unknown;
            }
        }
    }

    /// The term denoted by one node, computed from its kind and its
    /// inputs' already-known terms: the one step of
    /// [`TermView::term_of_repaired`], for unseen and stale nodes
    /// alike.
    fn term_for(
        &mut self,
        graph: &Graph,
        n: NodeId,
        syms: &mut SymbolTable,
        terms: &mut TermStore,
    ) -> TermId {
        let node = graph.node(n);
        let attrs = graph.attrs(n);
        match node.kind {
            NodeKind::Input | NodeKind::Opaque => {
                let c = node
                    .term_const
                    .expect("inputs and opaque nodes carry a term constant");
                terms.app0(c)
            }
            NodeKind::Op if graph.inputs(n).is_empty() && !attrs.is_empty() => {
                // Attribute-carrying constants (e.g. ConstScalar with
                // value_milli): specialize the symbol per attribute
                // valuation so that distinct constants are distinct
                // terms while equal constants still share (needed for
                // nonlinear patterns and correct attribute lookup).
                let known = self.consts.entry(node.op).or_default();
                let c = match known.get(attrs) {
                    Some(&c) => c,
                    None => {
                        let c = specialized_const(syms, node.op, attrs);
                        known.insert(attrs.to_vec(), c);
                        c
                    }
                };
                terms.app0(c)
            }
            NodeKind::Op => {
                let slots = &self.slots;
                self.args.clear();
                self.args
                    .extend(graph.inputs(n).iter().map(|i| match slots.get(i.index()) {
                        Some(&Slot::Clean(t)) => t,
                        _ => panic!(
                            "inputs resolve before their users (repair defers to owed inputs)"
                        ),
                    }));
                terms.app(node.op, &self.args)
            }
        }
    }

    /// Records `term` as the term of `n`, and — the first time a node
    /// views as the term — the term's attributes. Values are identical
    /// across the nodes of one term (the determinism invariant the
    /// engine documents on `SweepPolicy::Incremental`), so the tables
    /// need no refresh when another node arrives, even one that arrives
    /// after the last one left: a term whose nodes the scan deletes one
    /// layer at a time and interns again one layer later keeps the
    /// attributes it has, instead of copying them again.
    fn record(&mut self, graph: &Graph, registry: &OpRegistry, n: NodeId, term: TermId) {
        self.slots[n.index()] = Slot::Clean(term);
        let node = graph.node(n);
        let TermTable {
            by_term,
            node_attrs,
            ..
        } = &mut self.attrs;
        slot_mut(by_term, term).get_or_insert_with(|| {
            let start = node_attrs.len() as u32;
            node_attrs.extend_from_slice(graph.attrs(n));
            TermAttrs {
                meta: node.meta,
                class_code: registry.class(node.op).code(),
                node_attrs: start..node_attrs.len() as u32,
            }
        });
    }

    /// How many terms on-demand repair has recomputed over this view's
    /// lifetime (the engine's `nodes_reindexed` counter: PassStats →
    /// pipeline JSON → bench schema v4).
    ///
    /// The pre-sublinear design re-walked the whole live graph once per
    /// patch; eager O(cone) patching would recompute every dirtied node
    /// once per upstream rewrite; lazy repair recomputes each node at
    /// most once per visit, so this is the tightest of the three. Zero
    /// until the first repair.
    pub fn terms_recomputed(&self) -> u64 {
        self.recomputed
    }

    /// The term rooted at a node, if the node is reachable **and
    /// clean**. A node marked stale by [`TermView::patch`] reports
    /// `None` here until [`TermView::term_of_repaired`] recomputes it —
    /// a stale term must never leak into matching.
    #[inline]
    pub fn term_of(&self, n: NodeId) -> Option<TermId> {
        match self.slot(n) {
            Slot::Clean(t) => Some(t),
            _ => None,
        }
    }

    /// The node that views as `t` nearest below `root`: `root` itself,
    /// else the first one a breadth-first walk meets, inputs in
    /// position order. The walk follows the structure of `root`'s term —
    /// an operator node's inputs; input and opaque nodes are leaves — so
    /// what it finds is a piece of the subgraph that term denotes: where
    /// several live nodes view as `t`, the one under `root`, not a twin
    /// elsewhere in the graph. `None` when no clean node below `root`
    /// views as `t`.
    ///
    /// The walk keeps its buffers in the view and clears its marks by
    /// retracing itself, so a call allocates nothing once they have
    /// grown and costs the nodes it visits, whatever the graph's size.
    pub fn node_below(&mut self, graph: &Graph, root: NodeId, t: TermId) -> Option<NodeId> {
        // Sets the mark of `n`; returns whether it was set already.
        fn mark(marked: &mut Vec<bool>, n: NodeId) -> bool {
            if marked.len() <= n.index() {
                marked.resize(n.index() + 1, false);
            }
            std::mem::replace(&mut marked[n.index()], true)
        }
        let mut below = std::mem::take(&mut self.below);
        mark(&mut self.marked, root);
        below.push(root);
        let mut found = None;
        let mut next = 0;
        while let Some(&n) = below.get(next) {
            next += 1;
            if self.term_of(n) == Some(t) {
                found = Some(n);
                break;
            }
            if graph.node(n).kind != NodeKind::Op {
                continue;
            }
            for &i in graph.inputs(n) {
                if !mark(&mut self.marked, i) {
                    below.push(i);
                }
            }
        }
        for n in below.drain(..) {
            self.marked[n.index()] = false;
        }
        self.below = below;
        found
    }

    /// The attribute interpretation for guard evaluation: the view's
    /// side table, reading shapes from `graph`'s table. `graph` is the
    /// graph the view was made of (a term's metadata names its shape by
    /// that graph's id).
    pub fn attrs<'a>(&'a self, graph: &'a Graph) -> GraphAttrInterp<'a> {
        GraphAttrInterp {
            table: &self.attrs,
            shapes: graph.shapes(),
        }
    }

    /// Number of clean (repaired) viewed nodes.
    pub fn len(&self) -> usize {
        let clean = |slot: &&Slot| matches!(slot, Slot::Clean(_));
        self.slots.iter().filter(clean).count()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{OpClass, StdOps};
    use crate::tensor::DType;
    use pypm_core::TermStore;

    struct Fx {
        syms: SymbolTable,
        reg: OpRegistry,
        ops: StdOps,
        g: Graph,
        terms: TermStore,
    }

    fn fx() -> Fx {
        let mut syms = SymbolTable::new();
        let mut reg = OpRegistry::new();
        let ops = StdOps::declare(&mut reg, &mut syms);
        Fx {
            syms,
            reg,
            ops,
            g: Graph::new(),
            terms: TermStore::new(),
        }
    }

    #[test]
    fn a_node_slot_is_no_wider_than_an_optional_term() {
        assert!(std::mem::size_of::<Slot>() <= std::mem::size_of::<Option<TermId>>());
    }

    /// A term's row is 24 bytes, absent rows included: 40 while its
    /// metadata held a shared extent list rather than a shape id.
    #[test]
    fn a_term_row_is_24_bytes() {
        assert_eq!(std::mem::size_of::<TermAttrs>(), 24);
        assert_eq!(std::mem::size_of::<Option<TermAttrs>>(), 24);
    }

    #[test]
    fn term_view_mirrors_structure() {
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [4, 8]);
        let b = f.g.input(&mut f.syms, DType::F32, [4, 8]);
        let bt =
            f.g.op(&mut f.syms, &f.reg, f.ops.trans, vec![b], vec![])
                .unwrap();
        let mm =
            f.g.op(&mut f.syms, &f.reg, f.ops.matmul, vec![a, bt], vec![])
                .unwrap();
        f.g.mark_output(mm);

        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let t = view.term_of(mm).unwrap();
        let text = f.terms.display(&f.syms, t);
        assert!(text.starts_with("MatMul("));
        assert!(text.contains("Trans("));
        assert_eq!(view.node_below(&f.g, mm, t), Some(mm));
        let t_b = view.term_of(b).unwrap();
        assert_eq!(view.node_below(&f.g, mm, t_b), Some(b));
        assert_eq!(view.node_below(&f.g, bt, t), None, "nothing above");
    }

    #[test]
    fn distinct_inputs_are_distinct_constants() {
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let b = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let add =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![a, b], vec![])
                .unwrap();
        f.g.mark_output(add);
        let view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        assert_ne!(view.term_of(a), view.term_of(b));
    }

    #[test]
    fn shared_subgraph_shares_terms() {
        // add(relu(a), relu(a)) — both relu uses view as the same term.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let add =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![r, r], vec![])
                .unwrap();
        f.g.mark_output(add);
        let view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let t_add = view.term_of(add).unwrap();
        let args = f.terms.args(t_add);
        assert_eq!(args[0], args[1]);
    }

    #[test]
    fn attributes_expose_tensor_metadata() {
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::I8, [3, 5]);
        f.g.mark_output(a);
        let view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let t = view.term_of(a).unwrap();
        let h = TensorAttrs::intern(&mut f.syms);
        let interp = view.attrs(&f.g);
        assert_eq!(interp.attr(&f.terms, t, h.rank), Some(2));
        assert_eq!(interp.attr(&f.terms, t, h.elt_type), Some(DType::I8.code()));
        assert_eq!(interp.attr(&f.terms, t, h.numel), Some(15));
        assert_eq!(interp.attr(&f.terms, t, h.dims[0]), Some(3));
        assert_eq!(interp.attr(&f.terms, t, h.dims[1]), Some(5));
        assert_eq!(interp.attr(&f.terms, t, h.dims[2]), None);
    }

    #[test]
    fn op_class_attribute() {
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        f.g.mark_output(r);
        let view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let h = TensorAttrs::intern(&mut f.syms);
        let t = view.term_of(r).unwrap();
        assert_eq!(
            view.attrs(&f.g).attr(&f.terms, t, h.op_class),
            Some(OpClass::UnaryPointwise.code())
        );
    }

    #[test]
    fn node_attrs_visible_as_term_attrs() {
        let mut f = fx();
        let c =
            f.g.op_with_meta(
                f.ops.const_scalar,
                vec![],
                vec![(f.ops.value_milli_attr, 500)],
                TensorMeta::scalar(DType::F32),
            )
            .unwrap();
        f.g.mark_output(c);
        let view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let t = view.term_of(c).unwrap();
        assert_eq!(
            view.attrs(&f.g).attr(&f.terms, t, f.ops.value_milli_attr),
            Some(500)
        );
    }

    /// The view owes a term to exactly the nodes of `owed`, and to no
    /// other node `f.g` ever allocated.
    fn assert_owes_exactly(f: &Fx, view: &TermView, owed: &[NodeId]) {
        for n in f.g.allocated_since(0) {
            assert_eq!(view.owes(n), owed.contains(&n), "{n:?}; owed: {owed:?}");
        }
    }

    /// After repairing every stale node, a patched view must be
    /// indistinguishable from a fresh build: same node→term map, and no
    /// node left owed.
    fn assert_patched_equals_rebuilt(f: &mut Fx, view: &mut TermView) {
        view.repair_all(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let fresh = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        for n in f.g.allocated_since(0) {
            assert_eq!(
                view.term_of(n),
                fresh.term_of(n),
                "patched term of {n:?} diverges from a fresh build"
            );
        }
        assert_eq!(view.len(), fresh.len());
        assert_owes_exactly(f, view, &[]);
    }

    #[test]
    fn patch_marks_fan_out_users_and_repairs_on_demand() {
        // One producer feeding two users: replacing the producer must
        // mark both users (and the shared downstream add) stale, and
        // hide their terms until repaired.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let u1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![r], vec![])
                .unwrap();
        let u2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.sigmoid, vec![r], vec![])
                .unwrap();
        let add =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![u1, u2], vec![])
                .unwrap();
        f.g.mark_output(add);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);

        let gelu =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![a], vec![])
                .unwrap();
        let mut rewired = Vec::new();
        f.g.replace_traced(r, gelu, &mut rewired).unwrap();
        assert_eq!(rewired, vec![u1, u2]);
        let collected = f.g.gc();
        assert_eq!(collected, vec![r]);

        view.patch(&f.g, rewired.into_iter().chain([gelu]).chain(collected));
        // gelu is new, both users and the downstream add are marked.
        assert_owes_exactly(&f, &view, &[u1, u2, add, gelu]);
        // Stale terms never leak: term_of hides them until repair.
        assert_eq!(view.term_of(u1), None);
        assert_eq!(view.term_of(a), view.term_of(a), "clean node stays");
        assert!(view.term_of(a).is_some());
        // On-demand repair of the deepest node repairs its stale
        // inputs too, and nothing else.
        let t_add = view
            .term_of_repaired(&f.g, &mut f.syms, &mut f.terms, &f.reg, add)
            .unwrap();
        assert_eq!(view.terms_recomputed(), 4, "gelu, u1, u2, add");
        assert_eq!(view.node_below(&f.g, add, t_add), Some(add));
        assert!(view.term_of(u1).is_some(), "input repaired on the way");
        assert_patched_equals_rebuilt(&mut f, &mut view);
        // Everything was already repaired: no further recomputes.
        assert_eq!(view.terms_recomputed(), 4);
    }

    #[test]
    fn repair_reaches_a_stale_input_shared_by_two_stale_paths() {
        // add(r, tanh(r)) with all three stale: the DFS from `add`
        // stacks r below tanh, then meets r again as tanh's input — it
        // must be repaired on that path, not assumed done because it is
        // already on the stack.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let t =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![r], vec![])
                .unwrap();
        let add =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![r, t], vec![])
                .unwrap();
        f.g.mark_output(add);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let before = view.term_of(add);
        view.patch(&f.g, [r]);
        assert_owes_exactly(&f, &view, &[r, t, add]);
        let after = view.term_of_repaired(&f.g, &mut f.syms, &mut f.terms, &f.reg, add);
        assert_eq!(after, before);
        assert_eq!(view.terms_recomputed(), 3);
        assert_patched_equals_rebuilt(&mut f, &mut view);
    }

    #[test]
    fn patch_drops_deleted_roots() {
        // Replacing the tip of a chain orphans the old nodes; after gc +
        // patch they must vanish from the view.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let r2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![r1], vec![])
                .unwrap();
        f.g.mark_output(r2);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        assert!(view.term_of(r1).is_some());

        let fused =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let mut rewired = Vec::new();
        f.g.replace_traced(r2, fused, &mut rewired).unwrap();
        assert!(rewired.is_empty(), "the output root has no users");
        let collected = f.g.gc();
        assert_eq!(collected, vec![r1, r2]);

        view.patch(&f.g, [fused].into_iter().chain(collected));
        assert_owes_exactly(&f, &view, &[fused]);
        assert_eq!(view.term_of(r1), None);
        assert_eq!(view.term_of(r2), None);
        assert_patched_equals_rebuilt(&mut f, &mut view);
        assert_eq!(view.term_of(r1), None, "dead nodes stay gone");
    }

    #[test]
    fn patch_maps_newly_created_chains() {
        // A replacement that is a whole chain of fresh nodes: every link
        // must enter the view, and marking must keep clean siblings out
        // of the cone.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let left =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let right =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![a], vec![])
                .unwrap();
        let add =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![left, right], vec![])
                .unwrap();
        f.g.mark_output(add);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);

        let mark = f.g.allocated_count();
        let c1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.sigmoid, vec![a], vec![])
                .unwrap();
        let c2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![c1], vec![])
                .unwrap();
        let mut rewired = Vec::new();
        f.g.replace_traced(left, c2, &mut rewired).unwrap();
        assert_eq!(rewired, vec![add]);
        assert_eq!(f.g.allocated_since(mark), vec![c1, c2]);
        let collected = f.g.gc();
        assert_eq!(collected, vec![left]);

        view.patch(
            &f.g,
            rewired
                .into_iter()
                .chain(f.g.allocated_since(mark))
                .chain(collected),
        );
        assert_owes_exactly(&f, &view, &[add, c1, c2]);
        assert!(!view.owes(right), "clean sibling must stay out of the cone");
        assert_patched_equals_rebuilt(&mut f, &mut view);
        assert!(view.term_of(c1).is_some() && view.term_of(c2).is_some());
    }

    #[test]
    fn repairing_an_unchanged_mark_is_cheap_and_exact() {
        // Patching a node whose recomputed term is identical marks it
        // (and its users — marking cannot know), but repair finds the
        // same terms and the view converges back to build-equality.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let t =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![r], vec![])
                .unwrap();
        f.g.mark_output(t);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let (t_r, t_t) = (view.term_of(r).unwrap(), view.term_of(t).unwrap());
        view.patch(&f.g, [r]);
        // Marking propagates to users.
        assert_owes_exactly(&f, &view, &[r, t]);
        assert_patched_equals_rebuilt(&mut f, &mut view);
        assert_eq!(view.term_of(r), Some(t_r), "terms did not change");
        assert_eq!(view.term_of(t), Some(t_t));
    }

    #[test]
    fn lazy_repair_coalesces_consecutive_patches() {
        // The headline of lazy maintenance: a node dirtied by several
        // patches before anyone looks at it is recomputed ONCE. Chain
        // a -> r -> t; patch r twice (two "rewrites") with no lookup in
        // between, then repair: t recomputes once, not twice.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        // Clean bystander chains a patch must never touch.
        for _ in 0..16 {
            let x = f.g.input(&mut f.syms, DType::F32, [2, 2]);
            let s =
                f.g.op(&mut f.syms, &f.reg, f.ops.sigmoid, vec![x], vec![])
                    .unwrap();
            f.g.mark_output(s);
        }
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let t =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![r], vec![])
                .unwrap();
        f.g.mark_output(t);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        assert_eq!(view.terms_recomputed(), 0);

        view.patch(&f.g, [r]);
        assert_owes_exactly(&f, &view, &[r, t]);
        view.patch(&f.g, [r]);
        assert_owes_exactly(&f, &view, &[r, t]);
        assert_eq!(view.terms_recomputed(), 0, "marking interns nothing");
        view.repair_all(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        // Exactly r and its user t, once each — not twice, and not the
        // 33 clean bystander nodes.
        assert_eq!(view.terms_recomputed(), 2);
        assert!((view.terms_recomputed() as usize) < f.g.live_count());
        assert_patched_equals_rebuilt(&mut f, &mut view);
    }

    #[test]
    fn a_term_resolves_to_the_node_below_its_root() {
        // Two live nodes view as relu(a), one under each output: below
        // either output the term names that output's own relu, and a
        // twin's death changes nothing for the other.
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let r1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let r2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let t1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![r1], vec![])
                .unwrap();
        let t2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.sigmoid, vec![r2], vec![])
                .unwrap();
        f.g.mark_output(t1);
        f.g.mark_output(t2);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let shared = view.term_of(r1).unwrap();
        assert_eq!(view.term_of(r2), Some(shared), "relu(a) twice: one term");
        assert_eq!(view.node_below(&f.g, t1, shared), Some(r1));
        assert_eq!(view.node_below(&f.g, t2, shared), Some(r2));
        let t_a = view.term_of(a).unwrap();
        assert_eq!(view.node_below(&f.g, t2, t_a), Some(a), "two levels down");

        // Kill r1: replace t1 (its only user) by a node reading `a`.
        let g1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![a], vec![])
                .unwrap();
        let mut rewired = Vec::new();
        f.g.replace_traced(t1, g1, &mut rewired).unwrap();
        let collected = f.g.gc();
        assert!(collected.contains(&r1));
        view.patch(&f.g, rewired.into_iter().chain([g1]).chain(collected));
        assert_owes_exactly(&f, &view, &[g1]);
        assert_eq!(view.node_below(&f.g, t2, shared), Some(r2));
        assert_patched_equals_rebuilt(&mut f, &mut view);
        assert_eq!(
            view.node_below(&f.g, g1, shared),
            None,
            "gelu(a) holds none"
        );
    }

    /// `relu(tanh(a))` over an `I8` input, output marked.
    fn small_chain(f: &mut Fx) -> [NodeId; 3] {
        let a = f.g.input(&mut f.syms, DType::I8, [3, 5]);
        let t =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![a], vec![])
                .unwrap();
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![t], vec![])
                .unwrap();
        f.g.mark_output(r);
        [a, t, r]
    }

    #[test]
    fn terms_the_view_never_recorded_have_no_node_and_no_attributes() {
        let mut f = fx();
        let nodes = small_chain(&mut f);
        // Inside the tables, below the view's own terms: the store held
        // it before the build.
        let c = f.syms.op("c", 0);
        let earlier = f.terms.app0(c);
        let mut view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        // Past the tables' end: interned after the build.
        let later = f.terms.app(f.ops.relu, [earlier]);
        let h = TensorAttrs::intern(&mut f.syms);
        for t in [earlier, later] {
            assert_eq!(view.node_below(&f.g, nodes[2], t), None);
            assert_eq!(view.attrs(&f.g).attr(&f.terms, t, h.rank), None);
            assert_eq!(view.attrs(&f.g).attr(&f.terms, t, h.op_class), None);
        }
        let root = view.term_of(nodes[2]).unwrap();
        assert!(earlier < root && root < later);
        assert_eq!(view.node_below(&f.g, nodes[2], root), Some(nodes[2]));
        assert_eq!(view.attrs(&f.g).attr(&f.terms, root, h.rank), Some(2));
    }

    #[test]
    fn a_store_holding_unrelated_terms_changes_ids_only() {
        let mut fresh = fx();
        let nodes = small_chain(&mut fresh);
        let mut used = fx();
        assert_eq!(small_chain(&mut used), nodes);
        let c = used.syms.op("c", 0);
        let mut t = used.terms.app0(c);
        for _ in 0..40 {
            t = used.terms.app(used.ops.relu, [t]);
        }
        let offset = used.terms.len();

        let mut v_fresh = TermView::build(&fresh.g, &mut fresh.syms, &mut fresh.terms, &fresh.reg);
        let mut v_used = TermView::build(&used.g, &mut used.syms, &mut used.terms, &used.reg);
        assert_eq!(v_used.len(), v_fresh.len());
        let h = TensorAttrs::intern(&mut fresh.syms);
        for n in nodes {
            let (tf, tu) = (v_fresh.term_of(n).unwrap(), v_used.term_of(n).unwrap());
            assert_eq!(tu.index(), tf.index() + offset, "same order, shifted");
            assert_eq!(
                used.terms.display(&used.syms, tu),
                fresh.terms.display(&fresh.syms, tf)
            );
            assert_eq!(
                v_used.node_below(&used.g, nodes[2], tu),
                v_fresh.node_below(&fresh.g, nodes[2], tf)
            );
            for attr in [h.rank, h.elt_type, h.numel, h.dims[1], h.op_class] {
                assert_eq!(
                    v_used.attrs(&used.g).attr(&used.terms, tu, attr),
                    v_fresh.attrs(&fresh.g).attr(&fresh.terms, tf, attr)
                );
            }
        }
    }

    #[test]
    fn opaque_nodes_view_as_constants() {
        let mut f = fx();
        let a = f.g.input(&mut f.syms, DType::F32, [2, 2]);
        let mystery = f.syms.op("Mystery", 1);
        let meta = f.g.meta(DType::F32, [2, 2]);
        let o = f.g.opaque(&mut f.syms, mystery, vec![a], meta).unwrap();
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![o], vec![])
                .unwrap();
        f.g.mark_output(r);
        let view = TermView::build(&f.g, &mut f.syms, &mut f.terms, &f.reg);
        let t = view.term_of(r).unwrap();
        // Relu(<const>) — the opaque node's own op never appears.
        let text = f.terms.display(&f.syms, t);
        assert!(text.starts_with("Relu("));
        assert!(!text.contains("Mystery"));
        let inner = f.terms.args(t)[0];
        assert_eq!(f.terms.args(inner).len(), 0);
    }
}
