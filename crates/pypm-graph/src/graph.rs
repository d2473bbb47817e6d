//! The computation-graph IR that DLCB's pattern pass walks (paper §2.4,
//! §4.1).
//!
//! A [`Graph`] is a DAG of operator [`Node`]s. Each node produces one
//! tensor (PyPM operators in the paper return output arity 1) and carries
//! [`TensorMeta`] plus non-dataflow attributes (e.g. conv stride). Inputs
//! and *opaque* nodes — operators DLCB does not understand — participate
//! in dataflow but are never matched structurally; the term view turns
//! them into fresh constants.
//!
//! Rewrites are **destructive** (§2): [`Graph::replace`] redirects all
//! users of the matched root to the replacement subgraph, and
//! [`Graph::collect`] drops the subgraph that thereby lost its last
//! reader ([`Graph::gc`] is the whole-graph mark-sweep it is checked
//! against). Both work off two maintained indices — the use-lists (the
//! reverse edges) and a topological *level* per node — so committing a
//! rewrite costs what the rewrite changed, not the graph: the cycle
//! check searches only nodes levelled above the replaced root
//! (Pearce & Kelly, *A Dynamic Topological Sort Algorithm for Directed
//! Acyclic Graphs*, JEA 2006), with [`Graph::depends_on`] as its
//! whole-graph oracle.
//!
//! Every edge lives in one arena the graph owns, in compressed sparse
//! row form: node `i` reads `edges[edge_start[i]..edge_start[i + 1]]`,
//! and [`Graph::inputs`] is the one way to read it. A node's arity never
//! changes after it is created, so the arena is append-only: a rewrite
//! rewires its users' slots in place, and a collected node's run stays
//! where it was (a dead node keeps its inputs, under `collect` and `gc`
//! alike). A walk that follows inputs — the restart scan's
//! [`TopoWalk`], the term view's interning — reads them from one
//! contiguous array instead of one heap block per node.
//!
//! The reverse edges are threaded through the same arena, as LLVM's and
//! MLIR's use-lists are: beside each slot the arena keeps the node the
//! slot belongs to and the next slot reading the same input, and each
//! node keeps the first slot reading it. [`Graph::users_of`] walks that
//! chain; a rewrite splices the replaced root's whole chain onto the
//! replacement, and a collected node unlinks its slots from its inputs'
//! chains. A node's non-dataflow attributes are a run of a second
//! append-only arena, read with [`Graph::attrs`], and its shape an id
//! into the graph's [`ShapeTable`], read with [`Graph::shapes`]. So a
//! node owns no heap block of its own: building one appends to the
//! graph's columns, and a shape the graph already holds costs one probe.

use crate::ops::OpRegistry;
use crate::tensor::{DType, ShapeTable, TensorMeta};
use pypm_core::{Attr, Symbol, SymbolTable};
use std::fmt;
use std::ops::Range;

/// A node handle. Stable across rewrites until the node is collected.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of the `i`-th allocated node: ids are allocation indices,
    /// so `mark..graph.allocated_count()` names the nodes allocated
    /// since `mark` was read.
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What kind of node this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A graph input (placeholder tensor).
    Input,
    /// A regular operator application.
    Op,
    /// An operator outside DLCB's vocabulary; participates in dataflow but
    /// cannot be matched (§4.1).
    Opaque,
}

/// One operator application in the graph. Its dataflow inputs, its
/// users and its attributes are not here but in the graph's arenas:
/// read them with [`Graph::inputs`], [`Graph::users_of`] and
/// [`Graph::attrs`]; its metadata names its shape by id in
/// [`Graph::shapes`]. A node is 24 bytes and owns no heap block.
#[derive(Debug, Clone)]
pub struct Node {
    /// The operator symbol. For inputs this is the node's fresh constant
    /// symbol; for opaque nodes it is the foreign operator's symbol.
    pub op: Symbol,
    /// For inputs and opaque nodes: the fresh nullary symbol the term
    /// view abstracts this node as (distinct per node, so structurally
    /// distinct subgraphs stay distinct as terms).
    pub term_const: Option<Symbol>,
    /// Metadata of the produced tensor.
    pub meta: TensorMeta,
    /// Input / op / opaque.
    pub kind: NodeKind,
    /// Whether the node is alive (not yet collected).
    alive: bool,
    /// Whether the node is listed in [`Graph::outputs`].
    output: bool,
}

/// The end of a use-list: no further slot reads the node.
const NO_USE: u32 = u32::MAX;

/// Errors raised by graph construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An input node id was dead or out of range.
    DeadInput {
        /// The offending id.
        node: NodeId,
    },
    /// Replacement would create a cycle (the new root depends on users of
    /// the old root).
    WouldCycle {
        /// Root being replaced.
        root: NodeId,
        /// Proposed replacement.
        replacement: NodeId,
    },
    /// Arity mismatch against the symbol table.
    Arity {
        /// Operator name.
        op: String,
        /// Declared arity.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// Shape inference rejected the inputs (e.g. a contraction mismatch
    /// in a matmul).
    Shape {
        /// Operator name.
        op: String,
        /// What shape inference objected to.
        reason: String,
    },
    /// The use-lists disagree with the nodes' inputs: an edge missing
    /// from its input's list, a slot listed where it does not belong, or
    /// a list that revisits a slot — an internal invariant violation
    /// surfaced by [`Graph::validate`] (the lists back
    /// [`Graph::users_of`]-driven cone expansion, so drift here would
    /// silently corrupt incremental term-view maintenance).
    UsersIndexMismatch {
        /// The user whose edge is miscounted.
        node: NodeId,
        /// The input whose use-list disagrees.
        input: NodeId,
    },
    /// A live edge whose input is not levelled strictly below its user
    /// — an internal invariant violation surfaced by
    /// [`Graph::validate`] (the levels bound
    /// [`Graph::replace_traced`]'s cycle search, so drift here could
    /// let a cyclic replacement through). A cycle has such an edge.
    LevelOrder {
        /// The user, levelled at or below its input.
        node: NodeId,
        /// The input.
        input: NodeId,
    },
    /// A node listed more than once in [`Graph::outputs`] — an internal
    /// invariant violation surfaced by [`Graph::validate`]
    /// ([`Graph::mark_output`] and [`Graph::replace_traced`] both keep
    /// the list a set, and the wire decoder refuses anything else).
    DuplicateOutput {
        /// The repeated output.
        node: NodeId,
    },
    /// A node whose output flag disagrees with [`Graph::outputs`] — an
    /// internal invariant violation surfaced by [`Graph::validate`]
    /// (the flag is what [`Graph::collect`] asks, so a missing one would
    /// free an output and a stray one would keep garbage alive).
    OutputFlagMismatch {
        /// The node flagged but not listed, or listed but not flagged.
        node: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DeadInput { node } => write!(f, "input {node:?} is dead or invalid"),
            GraphError::WouldCycle { root, replacement } => write!(
                f,
                "replacing {root:?} with {replacement:?} would create a cycle"
            ),
            GraphError::Arity { op, expected, got } => {
                write!(f, "operator {op} expects {expected} inputs, got {got}")
            }
            // The reason is a rendered `ShapeError`, which names the operator.
            GraphError::Shape { reason, .. } => write!(f, "shape inference failed: {reason}"),
            GraphError::UsersIndexMismatch { node, input } => write!(
                f,
                "use-lists out of sync: edge {input:?} -> {node:?} miscounted"
            ),
            GraphError::LevelOrder { node, input } => write!(
                f,
                "levels out of order: {input:?} is not levelled below its user {node:?}"
            ),
            GraphError::DuplicateOutput { node } => {
                write!(f, "output {node:?} is listed more than once")
            }
            GraphError::OutputFlagMismatch { node } => {
                write!(f, "output flag of {node:?} disagrees with the output list")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A tensor computation graph.
///
/// # Examples
///
/// ```
/// use pypm_core::SymbolTable;
/// use pypm_graph::{DType, Graph, OpRegistry, StdOps};
///
/// let mut syms = SymbolTable::new();
/// let mut reg = OpRegistry::new();
/// let ops = StdOps::declare(&mut reg, &mut syms);
///
/// let mut g = Graph::new();
/// let a = g.input(&mut syms, DType::F32, [4, 8]);
/// let b = g.input(&mut syms, DType::F32, [4, 8]);
/// let bt = g.op(&mut syms, &reg, ops.trans, [b], vec![]).unwrap();
/// let mm = g.op(&mut syms, &reg, ops.matmul, [a, bt], vec![]).unwrap();
/// g.mark_output(mm);
/// assert_eq!(g.shapes().dims(g.node(mm).meta.shape), [4, 4]);
/// assert_eq!(g.inputs(mm), [a, bt]);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<Node>,
    /// The edge arena: every node's inputs, one run per node in
    /// allocation order. Append-only — a rewrite overwrites slots in
    /// place, and a dead node's run stays.
    edges: Vec<NodeId>,
    /// `edge_start[i]..edge_start[i + 1]` is node `i`'s run in
    /// [`Graph::edges`]; one entry more than there are nodes.
    edge_start: Vec<u32>,
    /// `user[s]`: the node whose run holds slot `s` of the edge arena.
    user: Vec<NodeId>,
    /// The use-lists, threaded through the edge arena and maintained
    /// incrementally: `first_use[i]` is the first slot reading node `i`
    /// and `next_use[s]` the slot after `s` on the list of the node `s`
    /// reads, [`NO_USE`] ending a list. A live node's list holds exactly
    /// the slots of the live nodes reading it, once per edge (a node
    /// reading an input twice appears twice), in no particular order;
    /// a dead node's list is empty. Kept up to date by every mutation,
    /// so [`Graph::users_of`] costs the fan-out — the lookup incremental
    /// term-view patching ([`crate::TermView::patch`]) uses to walk a
    /// rewrite's cone of influence without touching the rest of the
    /// graph.
    first_use: Vec<u32>,
    next_use: Vec<u32>,
    /// The attribute arena: node `i`'s non-dataflow attributes are
    /// `attrs[attr_start[i]..attr_start[i + 1]]`. Append-only, like the
    /// edges.
    attrs: Vec<(Attr, i64)>,
    attr_start: Vec<u32>,
    /// Every node's shape, by the id its metadata holds.
    shapes: ShapeTable,
    outputs: Vec<NodeId>,
    /// A topological numbering, maintained incrementally: on every live
    /// edge `level[input] < level[user]`. A valid numbering, not an
    /// exact depth — a node may sit higher than its longest input path
    /// requires — so collecting nodes never touches it; only
    /// [`Graph::replace_traced`] can put an input above a user, and
    /// raises the users it rewired until the order holds again. What it
    /// buys: no ancestor of a node levelled at or below `root` can be
    /// `root`, which bounds the cycle check to the region a rewrite can
    /// affect.
    level: Vec<u32>,
    /// Scratch of the bounded cycle search: `seen[i] == epoch` marks
    /// node `i` expanded in the current search, so a search clears
    /// nothing and allocates nothing once the vector has grown.
    seen: Vec<u32>,
    epoch: u32,
    /// Monotone revision counter, bumped on every mutation; debug
    /// builds of a [`TopoWalk`] assert that it did not move under the
    /// walk.
    revision: u64,
    /// Nodes [`Graph::replace_traced`] and [`Graph::collect`] examined,
    /// see [`Graph::touches`].
    #[cfg(debug_assertions)]
    touches: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            edges: Vec::new(),
            edge_start: vec![0],
            user: Vec::new(),
            first_use: Vec::new(),
            next_use: Vec::new(),
            attrs: Vec::new(),
            attr_start: vec![0],
            shapes: ShapeTable::new(),
            outputs: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
            revision: 0,
            #[cfg(debug_assertions)]
            touches: 0,
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a graph input of element type `dtype` and extents `dims`.
    /// The input is abstracted as a fresh constant of the term algebra.
    pub fn input(
        &mut self,
        syms: &mut SymbolTable,
        dtype: DType,
        dims: impl AsRef<[i64]>,
    ) -> NodeId {
        let meta = self.meta(dtype, dims);
        let op = syms.fresh_const("in");
        let id = self.push_node(op, &[], &[], meta, NodeKind::Input);
        self.nodes[id.index()].term_const = Some(op);
        id
    }

    /// Adds an operator node, inferring its metadata through `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Arity`] or [`GraphError::DeadInput`] for
    /// inputs that cannot be wired at all, and [`GraphError::Shape`] when
    /// shape inference rejects them.
    pub fn op(
        &mut self,
        syms: &mut SymbolTable,
        registry: &OpRegistry,
        op: Symbol,
        inputs: impl AsRef<[NodeId]>,
        attrs: impl AsRef<[(Attr, i64)]>,
    ) -> Result<NodeId, GraphError> {
        let (inputs, attrs) = (inputs.as_ref(), attrs.as_ref());
        let expected = syms.arity(op);
        if inputs.len() != expected {
            return Err(GraphError::Arity {
                op: syms.op_name(op).to_owned(),
                expected,
                got: inputs.len(),
            });
        }
        self.check_alive(inputs)?;
        let meta_of = |i: NodeId| self.nodes[i.index()].meta;
        let shapes = &mut self.shapes;
        // Nearly every operator reads one or two tensors: lend those
        // from the stack.
        let inferred = match *inputs {
            [a] => registry.infer(syms, op, &[meta_of(a)], attrs, shapes),
            [a, b] => registry.infer(syms, op, &[meta_of(a), meta_of(b)], attrs, shapes),
            _ => {
                let metas: Vec<TensorMeta> = inputs.iter().map(|&i| meta_of(i)).collect();
                registry.infer(syms, op, &metas, attrs, shapes)
            }
        };
        let meta = inferred.map_err(|e| GraphError::Shape {
            op: syms.op_name(op).to_owned(),
            reason: e.to_string(),
        })?;
        Ok(self.push_node(op, inputs, attrs, meta, NodeKind::Op))
    }

    /// Adds an operator node with explicitly supplied metadata (for
    /// nullary constants and fused kernels with bespoke shapes): this
    /// graph's, from [`Graph::meta`] or another of its nodes.
    pub fn op_with_meta(
        &mut self,
        op: Symbol,
        inputs: impl AsRef<[NodeId]>,
        attrs: impl AsRef<[(Attr, i64)]>,
        meta: TensorMeta,
    ) -> Result<NodeId, GraphError> {
        let inputs = inputs.as_ref();
        self.check_alive(inputs)?;
        Ok(self.push_node(op, inputs, attrs.as_ref(), meta, NodeKind::Op))
    }

    /// Adds an opaque node (an operator DLCB does not understand, §4.1).
    /// The node participates in dataflow but the term view abstracts it —
    /// inputs and all — as a fresh constant, so patterns can never match
    /// through it.
    pub fn opaque(
        &mut self,
        syms: &mut SymbolTable,
        op: Symbol,
        inputs: impl AsRef<[NodeId]>,
        meta: TensorMeta,
    ) -> Result<NodeId, GraphError> {
        let inputs = inputs.as_ref();
        self.check_alive(inputs)?;
        let id = self.push_node(op, inputs, &[], meta, NodeKind::Opaque);
        self.nodes[id.index()].term_const = Some(syms.fresh_const("opq"));
        Ok(id)
    }

    /// Metadata of element type `dtype` and extents `dims`, the shape
    /// interned in this graph's table.
    pub fn meta(&mut self, dtype: DType, dims: impl AsRef<[i64]>) -> TensorMeta {
        TensorMeta {
            dtype,
            shape: self.shapes.intern(dims.as_ref()),
        }
    }

    /// The graph's shape table: what a node's [`TensorMeta::shape`]
    /// names.
    pub fn shapes(&self) -> &ShapeTable {
        &self.shapes
    }

    /// Names the first of `inputs` that is dead or out of range.
    fn check_alive(&self, inputs: &[NodeId]) -> Result<(), GraphError> {
        match inputs.iter().find(|&&i| !self.is_alive(i)) {
            Some(&node) => Err(GraphError::DeadInput { node }),
            None => Ok(()),
        }
    }

    /// Appends a node, its run of the edge arena — each slot linked at
    /// the head of its input's use-list — and its run of the attribute
    /// arena.
    fn push_node(
        &mut self,
        op: Symbol,
        inputs: &[NodeId],
        attrs: &[(Attr, i64)],
        meta: TensorMeta,
        kind: NodeKind,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let mut level = 0;
        for &i in inputs {
            self.edges.push(i);
            self.user.push(id);
            self.next_use.push(NO_USE);
            self.link(self.edges.len() - 1);
            level = level.max(self.level[i.index()] + 1);
        }
        self.level.push(level);
        self.edge_start.push(self.edges.len() as u32);
        self.attrs.extend_from_slice(attrs);
        self.attr_start.push(self.attrs.len() as u32);
        self.first_use.push(NO_USE);
        self.nodes.push(Node {
            op,
            term_const: None,
            meta,
            kind,
            alive: true,
            output: false,
        });
        self.revision += 1;
        id
    }

    /// Links slot `s` at the head of the use-list of the node it reads.
    fn link(&mut self, s: usize) {
        let head = &mut self.first_use[self.edges[s].index()];
        self.next_use[s] = std::mem::replace(head, s as u32);
    }

    /// Unlinks slot `s` from the use-list of the node it reads, which
    /// costs the slots ahead of it on that list.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not on that list.
    fn unlink(&mut self, s: usize) {
        let next = std::mem::replace(&mut self.next_use[s], NO_USE);
        let head = &mut self.first_use[self.edges[s].index()];
        if *head == s as u32 {
            *head = next;
            return;
        }
        let mut prev = *head as usize;
        while self.next_use[prev] != s as u32 {
            prev = self.next_use[prev] as usize;
        }
        self.next_use[prev] = next;
    }

    /// Marks a node as a graph output.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn mark_output(&mut self, n: NodeId) {
        let node = &mut self.nodes[n.index()];
        if !std::mem::replace(&mut node.output, true) {
            self.outputs.push(n);
            self.revision += 1;
        }
    }

    /// The graph outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.index()]
    }

    /// The dataflow inputs of `n`, in operand order: its run of the
    /// graph's edge arena. A dead node keeps the inputs it had when it
    /// was collected.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn inputs(&self, n: NodeId) -> &[NodeId] {
        &self.edges[self.run(n)]
    }

    /// Where `n`'s inputs sit in the edge arena.
    fn run(&self, n: NodeId) -> Range<usize> {
        self.edge_start[n.index()] as usize..self.edge_start[n.index() + 1] as usize
    }

    /// The non-dataflow attributes of `n` (stride, scalar value, epilog
    /// code, …), in the order it was built with: its run of the graph's
    /// attribute arena.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn attrs(&self, n: NodeId) -> &[(Attr, i64)] {
        let (i, j) = (self.attr_start[n.index()], self.attr_start[n.index() + 1]);
        &self.attrs[i as usize..j as usize]
    }

    /// Looks up one attribute of `n` by handle.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn attr(&self, n: NodeId, a: Attr) -> Option<i64> {
        self.attrs(n).iter().find(|(k, _)| *k == a).map(|&(_, v)| v)
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|nd| nd.alive)
    }

    /// Number of live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Total nodes ever allocated (live + collected).
    pub fn allocated_count(&self) -> usize {
        self.nodes.len()
    }

    /// The mutation revision counter (bumps on every change).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// All live node ids in post-order (inputs before users), restricted
    /// to nodes reachable from the outputs: a [`TopoWalk`] started on
    /// the graph and drained. A caller that stops early — the restart
    /// scan, which ends a round at its first firing — steps the walk
    /// itself and never builds the rest.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut walk = TopoWalk::default();
        walk.restart(self);
        std::iter::from_fn(|| walk.next(self)).collect()
    }

    /// The live nodes reading `n`, once per edge (a user reading `n`
    /// twice appears twice), in no particular order: a walk of `n`'s
    /// use-list, which costs the fan-out and no graph walk. Dead nodes
    /// have no users.
    ///
    /// This is the lookup [`crate::TermView::patch`] uses to expand a
    /// rewrite's dirty seed to its cone of influence in O(cone) instead
    /// of one linear pass per rewrite.
    pub fn users_of(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut slot = self.first_use.get(n.index()).copied().unwrap_or(NO_USE);
        std::iter::from_fn(move || {
            if slot == NO_USE {
                return None;
            }
            let s = slot as usize;
            slot = self.next_use[s];
            Some(self.user[s])
        })
    }

    /// The topological level of `n`: strictly above the level of every
    /// input of `n` while `n` is alive. A valid numbering rather than a
    /// depth — rewrites may leave slack — maintained so that
    /// [`Graph::replace_traced`] can bound its cycle check.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn level_of(&self, n: NodeId) -> u32 {
        self.level[n.index()]
    }

    /// Whether `ancestor` is reachable from `n` by following inputs: a
    /// walk over every ancestor of `n`, whatever their levels — the
    /// oracle of the level-bounded search in [`Graph::replace_traced`].
    pub fn depends_on(&self, n: NodeId, ancestor: NodeId) -> bool {
        if n == ancestor {
            return true;
        }
        let mut stack = vec![n];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(cur) = stack.pop() {
            if seen[cur.index()] {
                continue;
            }
            seen[cur.index()] = true;
            for &i in self.inputs(cur) {
                if i == ancestor {
                    return true;
                }
                stack.push(i);
            }
        }
        false
    }

    /// Node ids allocated at or after `mark`, a count previously read
    /// from [`Graph::allocated_count`]: after a rewrite, the nodes its
    /// replacement freshly created — part of the dirty seed handed to
    /// [`crate::TermView::patch`].
    pub fn allocated_since(&self, mark: usize) -> Vec<NodeId> {
        (mark..self.nodes.len()).map(|i| NodeId(i as u32)).collect()
    }

    /// Destructively replaces `root` with `replacement`: every user of
    /// `root` now reads `replacement`, and outputs are redirected. The
    /// subgraph exclusively feeding `root` becomes garbage; call
    /// [`Graph::collect`] on `root` (or [`Graph::gc`]) to free it.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DeadInput`] naming whichever of the two is
    /// dead, and [`GraphError::WouldCycle`] if `replacement`
    /// (transitively) depends on `root` — i.e. the rewrite would make
    /// `root`'s users feed themselves.
    pub fn replace(&mut self, root: NodeId, replacement: NodeId) -> Result<(), GraphError> {
        self.replace_traced(root, replacement, &mut Vec::new())
            .map(|_| ())
    }

    /// Like [`Graph::replace`], but fills `rewired` (cleared first) with
    /// the ids of the user nodes whose inputs were rewired from `root`
    /// to `replacement`, in allocation order, and returns them. Those
    /// users are exactly the nodes whose term view changed besides the
    /// freshly created replacement subgraph — the seed of the rewrite's
    /// cone of influence that incremental rewriting feeds to
    /// [`crate::TermView::patch`].
    ///
    /// The commit follows the rewrite's size, not the graph's: the
    /// slots to rewire are `root`'s use-list, which is spliced whole
    /// onto the replacement's, so rewiring costs the root's fan-out;
    /// the cycle check searches backwards from the replacement through
    /// nodes levelled above `root` only (see [`Graph::depends_on`] for
    /// the unbounded walk it is asserted against in debug builds); and a
    /// rewired user that ends up levelled at or below the replacement
    /// is raised, with whatever that pushes up downstream. A
    /// replacement no deeper than the root it replaces — any fusion —
    /// searches and raises nothing.
    ///
    /// # Errors
    ///
    /// Same contract as [`Graph::replace`].
    pub fn replace_traced<'r>(
        &mut self,
        root: NodeId,
        replacement: NodeId,
        rewired: &'r mut Vec<NodeId>,
    ) -> Result<&'r [NodeId], GraphError> {
        rewired.clear();
        for node in [root, replacement] {
            if !self.is_alive(node) {
                return Err(GraphError::DeadInput { node });
            }
        }
        if root == replacement {
            return Ok(rewired);
        }
        // The replacement may legitimately depend on root's *inputs*;
        // what must not happen is a user of root becoming an ancestor
        // of the replacement. Every path from the replacement down to
        // root ends in an edge out of one of root's users, so that is
        // the same as the replacement depending on root.
        let cyclic = self.reaches_through_higher_levels(replacement, root);
        debug_assert_eq!(
            cyclic,
            self.depends_on(replacement, root),
            "level-bounded cycle check of {root:?} -> {replacement:?}"
        );
        if cyclic {
            return Err(GraphError::WouldCycle { root, replacement });
        }
        // Every slot on the root's use-list is an edge to rewire: each
        // now reads the replacement, and the list goes, whole, in front
        // of the replacement's.
        let head = std::mem::replace(&mut self.first_use[root.index()], NO_USE);
        let mut slot = head;
        while slot != NO_USE {
            let s = slot as usize;
            self.edges[s] = replacement;
            rewired.push(self.user[s]);
            slot = self.next_use[s];
            if slot == NO_USE {
                self.next_use[s] =
                    std::mem::replace(&mut self.first_use[replacement.index()], head);
            }
        }
        rewired.sort_unstable();
        rewired.dedup();
        if std::mem::replace(&mut self.nodes[root.index()].output, false) {
            let at = self.outputs.iter().position(|&out| out == root);
            let at = at.expect("a flagged output is listed");
            // An output is listed once: when the replacement already is
            // one, the two entries merge into whichever comes first.
            if std::mem::replace(&mut self.nodes[replacement.index()].output, true) {
                let other = self.outputs.iter().position(|&out| out == replacement);
                let other = other.expect("a flagged output is listed");
                self.outputs[at.min(other)] = replacement;
                self.outputs.remove(at.max(other));
            } else {
                self.outputs[at] = replacement;
            }
        }
        #[cfg(debug_assertions)]
        {
            self.touches += rewired.len() as u64;
        }
        self.raise_users_of(replacement);
        self.revision += 1;
        Ok(rewired)
    }

    /// Whether `target` is reachable from `from` by following inputs —
    /// [`Graph::depends_on`], bounded by the levels: a node levelled at
    /// or below `target` has only lower-levelled ancestors, none of
    /// which is `target`, so the search never expands one.
    fn reaches_through_higher_levels(&mut self, from: NodeId, target: NodeId) -> bool {
        let floor = self.level[target.index()];
        if self.level[from.index()] <= floor {
            return from == target;
        }
        self.seen.resize(self.nodes.len(), 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps left 2^32 searches ago would read as current.
            self.seen.fill(0);
            self.epoch = 1;
        }
        let mut stack = vec![from];
        while let Some(cur) = stack.pop() {
            if std::mem::replace(&mut self.seen[cur.index()], self.epoch) == self.epoch {
                continue;
            }
            #[cfg(debug_assertions)]
            {
                self.touches += 1;
            }
            for &input in self.inputs(cur) {
                if input == target {
                    return true;
                }
                if self.level[input.index()] > floor {
                    stack.push(input);
                }
            }
        }
        false
    }

    /// Restores `level[input] < level[user]` after edges were moved
    /// onto `n`: raises each user levelled at or below `n` just above
    /// it, then the users that in turn overtakes, and so on. The graph
    /// is acyclic, so the cascade ends; it reaches only nodes whose
    /// level was actually violated.
    fn raise_users_of(&mut self, n: NodeId) {
        // Empty until something is raised: the common commit raises
        // nothing and allocates nothing.
        let mut raised = Vec::new();
        let mut input = n;
        loop {
            let above = self.level[input.index()] + 1;
            let mut slot = self.first_use[input.index()];
            while slot != NO_USE {
                let user = self.user[slot as usize];
                slot = self.next_use[slot as usize];
                if self.level[user.index()] < above {
                    self.level[user.index()] = above;
                    #[cfg(debug_assertions)]
                    {
                        self.touches += 1;
                    }
                    raised.push(user);
                }
            }
            let Some(next) = raised.pop() else { break };
            input = next;
        }
    }

    /// Collects `n` if nothing reads it any more — it has no user and
    /// is not an output — and then, transitively, every input that
    /// thereby lost its last reader. Appends the ids freed to `freed`,
    /// in ascending order, like [`Graph::gc`] returns them, and returns
    /// the appended run; a node that is still read frees nothing.
    ///
    /// This is the collection step of a rewrite: after
    /// [`Graph::replace`] the replaced root is unread, and on a graph
    /// that held no garbage before the replacement, `collect(root, ..)`
    /// frees exactly what a mark-sweep [`Graph::gc`] would — same ids,
    /// same use-lists afterwards, as multisets — at the cost of the
    /// freed subgraph and its inputs' use-lists instead of a walk over
    /// every node. (Reference counts are exact on a DAG; what they cannot see
    /// is garbage that was never reachable through `n`, which is what
    /// `gc` stays for.) The freed run is its own work list, so nothing
    /// is allocated but the growth of `freed`.
    pub fn collect<'f>(&mut self, n: NodeId, freed: &'f mut Vec<NodeId>) -> &'f [NodeId] {
        let start = freed.len();
        let unread = |g: &Self, d: NodeId| {
            g.is_alive(d) && g.first_use[d.index()] == NO_USE && !g.nodes[d.index()].output
        };
        #[cfg(debug_assertions)]
        {
            self.touches += 1;
        }
        if unread(self, n) {
            self.nodes[n.index()].alive = false;
            freed.push(n);
        }
        let mut next = start;
        while let Some(&d) = freed.get(next) {
            next += 1;
            // A dead node keeps its run of the arena (as under `gc`);
            // only its slots leave their inputs' use-lists.
            for at in self.run(d) {
                self.unlink(at);
                let i = self.edges[at];
                if self.first_use[i.index()] != NO_USE {
                    continue;
                }
                #[cfg(debug_assertions)]
                {
                    self.touches += 1;
                }
                if unread(self, i) {
                    self.nodes[i.index()].alive = false;
                    freed.push(i);
                }
            }
        }
        let run = &mut freed[start..];
        run.sort_unstable();
        if !run.is_empty() {
            self.revision += 1;
        }
        run
    }

    /// Everything a rewrite's commit looks at, over the graph's
    /// lifetime: nodes [`Graph::replace_traced`] rewired, nodes its
    /// cycle search expanded, levels it raised, and nodes
    /// [`Graph::collect`] examined — work that must follow the
    /// rewrite's size and not the graph's. Debug builds only.
    #[cfg(debug_assertions)]
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Collects nodes unreachable from the outputs by mark and sweep —
    /// a walk over every node, whatever garbage there is. Returns the
    /// ids of the nodes freed, in ascending id order — the "dead" half
    /// of the dirty seed incremental term-view maintenance needs
    /// ([`crate::TermView::patch`] accepts them directly).
    pub fn gc(&mut self) -> Vec<NodeId> {
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.clone();
        while let Some(n) = stack.pop() {
            if reachable[n.index()] {
                continue;
            }
            reachable[n.index()] = true;
            stack.extend_from_slice(self.inputs(n));
        }
        let mut freed = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if node.alive && !reachable[i] {
                node.alive = false;
                freed.push(NodeId(i as u32));
            }
        }
        // Unlink the dead nodes from the use-lists: a dead node's
        // users are all dead too (anyone reading it would have kept it
        // reachable), so emptying its own list and unlinking its slots
        // from its live inputs' lists is exact.
        for &d in &freed {
            self.first_use[d.index()] = NO_USE;
            for at in self.run(d) {
                if self.is_alive(self.edges[at]) {
                    self.unlink(at);
                }
            }
        }
        if !freed.is_empty() {
            self.revision += 1;
        }
        freed
    }

    /// Validates structural invariants in time linear in nodes plus
    /// edges: every input of a live node is alive, every input is
    /// levelled below its user — which makes the live graph acyclic, as
    /// no cycle can climb on every edge, so a cycle is reported as
    /// [`GraphError::LevelOrder`] on one of its edges — the use-lists
    /// hold exactly the forward edges — each slot of a live node once,
    /// on the list of the node it reads, nothing else — no output is
    /// listed twice, and a node's output flag says whether it is
    /// listed.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in that order of checks (the
    /// first two edge by edge).
    pub fn validate(&self) -> Result<(), GraphError> {
        let live = || (0..self.nodes.len()).filter(|&i| self.nodes[i].alive);
        let inputs = |i: usize| self.inputs(NodeId(i as u32));
        for i in live() {
            for &input in inputs(i) {
                if !self.is_alive(input) {
                    return Err(GraphError::DeadInput { node: input });
                }
                if self.level[input.index()] >= self.level[i] {
                    let node = NodeId(i as u32);
                    return Err(GraphError::LevelOrder { node, input });
                }
            }
        }
        // The use-lists back `users_of`-driven cone expansion and
        // `collect`: a missing slot would silently shrink a cone, a
        // surplus one would keep garbage alive. First, every listed slot
        // belongs to a live user, reads the node whose list it is on,
        // and is listed once — a list that comes back to a slot is
        // reported there rather than walked forever …
        let mut on_list = vec![false; self.edges.len()];
        let mut listed = 0;
        for x in 0..self.nodes.len() {
            let input = NodeId(x as u32);
            let mut slot = self.first_use[x];
            while slot != NO_USE {
                let s = slot as usize;
                let node = self.user[s];
                let misplaced = std::mem::replace(&mut on_list[s], true)
                    || self.edges[s] != input
                    || !self.nodes[node.index()].alive
                    || !self.run(node).contains(&s);
                if misplaced {
                    return Err(GraphError::UsersIndexMismatch { node, input });
                }
                listed += 1;
                slot = self.next_use[s];
            }
        }
        // … so the listed slots are distinct live ones, and equal totals
        // make them all of them. Only a failing graph pays for the
        // search that names the unlisted edge.
        let forward_edges: usize = live().map(|i| inputs(i).len()).sum();
        if listed != forward_edges {
            let unlisted = live().find_map(|i| {
                let node = NodeId(i as u32);
                let at = self.run(node).find(|&s| !on_list[s])?;
                let input = self.edges[at];
                Some(GraphError::UsersIndexMismatch { node, input })
            });
            return Err(unlisted.expect("fewer listed than live slots: one is unlisted"));
        }
        let mut outputs = self.outputs.clone();
        outputs.sort_unstable();
        if let Some(pair) = outputs.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(GraphError::DuplicateOutput { node: pair[0] });
        }
        // The output flags mirror the list, which `collect` never reads.
        let listed_output = |i: usize| outputs.binary_search(&NodeId(i as u32)).is_ok();
        match (0..self.nodes.len()).find(|&i| self.nodes[i].output != listed_output(i)) {
            Some(i) => Err(GraphError::OutputFlagMismatch {
                node: NodeId(i as u32),
            }),
            None => Ok(()),
        }
    }

    /// Renders the reachable graph in Graphviz DOT syntax.
    pub fn to_dot(&self, syms: &SymbolTable) -> String {
        let mut s = String::from("digraph G {\n  rankdir=BT;\n");
        for n in self.topo_order() {
            let node = self.node(n);
            let label = match node.kind {
                NodeKind::Input => format!("input {}", self.shapes.display(node.meta)),
                NodeKind::Opaque => format!("opaque {}", self.shapes.display(node.meta)),
                NodeKind::Op => format!(
                    "{} {}",
                    syms.op_name(node.op),
                    self.shapes.display(node.meta)
                ),
            };
            s.push_str(&format!("  n{} [label=\"{}\"];\n", n.0, label));
            for &i in self.inputs(n) {
                s.push_str(&format!("  n{} -> n{};\n", i.0, n.0));
            }
        }
        s.push_str("}\n");
        s
    }
}

/// The graph's post-order, one node per step: an iterative depth-first
/// search from each live output in turn, emitting a node once all its
/// inputs are emitted. [`Graph::topo_order`] is this walk drained.
///
/// The walk borrows the graph per call rather than holding it, so a
/// caller may mutate the graph between walks; within one walk — from
/// [`TopoWalk::restart`] to the last [`TopoWalk::next`] read — the
/// graph must not change (debug builds assert its revision at every
/// step). A walk starts with a restart; a restart rewinds it and keeps
/// its buffers, so once they have grown to the graph a walk allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct TopoWalk {
    /// `visited[i]`: node `i` was emitted in this walk.
    visited: Vec<bool>,
    /// The search path: each node with the index of its next input.
    stack: Vec<(NodeId, usize)>,
    /// The next output to start a search from.
    next_output: usize,
    /// [`Graph::revision`] at the restart.
    revision: u64,
}

impl TopoWalk {
    /// Rewinds the walk to the start of `graph`'s order.
    pub fn restart(&mut self, graph: &Graph) {
        self.visited.clear();
        self.visited.resize(graph.nodes.len(), false);
        self.stack.clear();
        self.next_output = 0;
        self.revision = graph.revision;
    }

    /// The next node of the order, or `None` once every node reachable
    /// from a live output has been emitted.
    ///
    /// # Panics
    ///
    /// In debug builds, if `graph` changed since [`TopoWalk::restart`].
    pub fn next(&mut self, graph: &Graph) -> Option<NodeId> {
        debug_assert_eq!(
            self.revision, graph.revision,
            "the graph changed under a topological walk"
        );
        loop {
            let Some(&mut (n, ref mut child)) = self.stack.last_mut() else {
                let out = *graph.outputs.get(self.next_output)?;
                self.next_output += 1;
                if graph.is_alive(out) && !self.visited[out.index()] {
                    self.stack.push((out, 0));
                }
                continue;
            };
            if let Some(&input) = graph.inputs(n).get(*child) {
                *child += 1;
                if !self.visited[input.index()] {
                    self.stack.push((input, 0));
                }
            } else {
                self.visited[n.index()] = true;
                self.stack.pop();
                return Some(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::StdOps;
    use crate::tensor::DType;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Fx {
        syms: SymbolTable,
        reg: OpRegistry,
        ops: StdOps,
        g: Graph,
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
        }
    }

    fn mat(fx: &mut Fx, m: i64, n: i64) -> NodeId {
        fx.g.input(&mut fx.syms, DType::F32, [m, n])
    }

    #[test]
    fn build_and_infer() {
        let mut f = fx();
        let a = mat(&mut f, 4, 8);
        let b = mat(&mut f, 4, 8);
        let bt =
            f.g.op(&mut f.syms, &f.reg, f.ops.trans, vec![b], vec![])
                .unwrap();
        let mm =
            f.g.op(&mut f.syms, &f.reg, f.ops.matmul, vec![a, bt], vec![])
                .unwrap();
        f.g.mark_output(mm);
        assert_eq!(f.g.shapes().dims(f.g.node(mm).meta.shape), [4, 4]);
        assert_eq!(f.g.live_count(), 4);
        f.g.validate().unwrap();
    }

    /// A node row is 24 bytes: its inputs, its users and its
    /// attributes live in the graph's arenas, not in vectors of its own
    /// (it was 88 bytes with an input vector, 64 with a user and an
    /// attribute vector), and its shape is an id into the graph's shape
    /// table (40 bytes while it was a shared extent list). A row that
    /// widens costs more than it saves — widening the term view's
    /// attribute row from 64 to 120 bytes, to drop one allocation per
    /// term, made cold compiles about 6 % slower.
    #[test]
    fn a_node_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    #[test]
    fn arity_checked() {
        let mut f = fx();
        let a = mat(&mut f, 4, 8);
        assert!(matches!(
            f.g.op(&mut f.syms, &f.reg, f.ops.matmul, vec![a], vec![]),
            Err(GraphError::Arity { .. })
        ));
    }

    #[test]
    fn topo_order_is_inputs_first() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let r1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let r2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![r1], vec![])
                .unwrap();
        f.g.mark_output(r2);
        let order = f.g.topo_order();
        assert_eq!(order, vec![a, r1, r2]);
    }

    #[test]
    fn topo_order_handles_shared_subgraphs() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let add =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![r, r], vec![])
                .unwrap();
        f.g.mark_output(add);
        let order = f.g.topo_order();
        assert_eq!(order, vec![a, r, add]);
    }

    #[test]
    fn replace_and_gc() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let relu1 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let relu2 =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![relu1], vec![])
                .unwrap();
        f.g.mark_output(relu2);

        // Fuse the RELU chain: replace relu2 by a single relu(a).
        let fused =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        f.g.replace(relu2, fused).unwrap();
        assert_eq!(f.g.outputs(), &[fused]);
        let freed = f.g.gc();
        assert_eq!(freed, vec![relu1, relu2]);
        assert!(!f.g.is_alive(relu1));
        assert!(!f.g.is_alive(relu2));
        assert!(f.g.is_alive(a));
        f.g.validate().unwrap();
    }

    #[test]
    fn replace_redirects_users() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let relu =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let user =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![relu, relu], vec![])
                .unwrap();
        f.g.mark_output(user);
        let gelu =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![a], vec![])
                .unwrap();
        f.g.replace(relu, gelu).unwrap();
        assert_eq!(f.g.inputs(user), [gelu, gelu]);
    }

    #[test]
    fn replace_traced_reports_rewired_users_once() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let relu =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        // Two users, one of which reads the root twice: each user is
        // reported exactly once, in allocation order.
        let twice =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![relu, relu], vec![])
                .unwrap();
        let once =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![relu], vec![])
                .unwrap();
        f.g.mark_output(twice);
        f.g.mark_output(once);
        let gelu =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![a], vec![])
                .unwrap();
        // The buffer is cleared first.
        let mut rewired = vec![a];
        let traced = f.g.replace_traced(relu, gelu, &mut rewired);
        assert_eq!(traced, Ok(&[twice, once][..]));
        assert_eq!(f.g.inputs(twice), [gelu, gelu]);
        // Replacing a node by itself rewires nothing …
        let traced = f.g.replace_traced(gelu, gelu, &mut rewired);
        assert_eq!(traced, Ok(&[][..]));
        // … unless it is dead: liveness is checked before the shortcut.
        assert_eq!(f.g.collect(relu, &mut Vec::new()), [relu]);
        assert_eq!(
            f.g.replace_traced(relu, relu, &mut rewired),
            Err(GraphError::DeadInput { node: relu })
        );
    }

    /// The path no fusion takes: the replacement sits *deeper* than
    /// the root's users, so committing it has to raise them.
    #[test]
    fn a_deeper_replacement_raises_the_levels_downstream() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let mut unary = |g: &mut Graph, x: NodeId| {
            g.op(&mut f.syms, &f.reg, f.ops.relu, vec![x], vec![])
                .unwrap()
        };
        let root = unary(&mut f.g, a);
        // A diamond over the root, then a chain below the diamond.
        let left = unary(&mut f.g, root);
        let right = unary(&mut f.g, root);
        let meta = f.g.node(a).meta;
        let join =
            f.g.op_with_meta(f.ops.add, vec![left, right], vec![], meta)
                .unwrap();
        let tail1 = unary(&mut f.g, join);
        let tail2 = unary(&mut f.g, tail1);
        // A second, longer chain off the input, unrelated to the root.
        let mut deep = a;
        let side: Vec<NodeId> = (0..6)
            .map(|_| {
                deep = unary(&mut f.g, deep);
                deep
            })
            .collect();
        f.g.mark_output(tail2);
        f.g.mark_output(deep);
        let levels = |g: &Graph, ns: &[NodeId]| -> Vec<u32> {
            ns.iter().map(|n| g.level[n.index()]).collect()
        };
        let cone = [root, left, right, join, tail1, tail2];
        assert_eq!(levels(&f.g, &cone), [1, 2, 2, 3, 4, 5]);
        assert_eq!(levels(&f.g, &side), [1, 2, 3, 4, 5, 6]);

        // Level 6 replaces level 1: both arms of the diamond are
        // raised above it, the join above them, the chain above that.
        #[cfg(debug_assertions)]
        let touches = f.g.touches();
        let mut rewired = Vec::new();
        let traced = f.g.replace_traced(root, deep, &mut rewired);
        assert_eq!(traced, Ok(&[left, right][..]));
        assert_eq!(levels(&f.g, &cone[1..]), [7, 7, 8, 9, 10]);
        assert_eq!(levels(&f.g, &side), [1, 2, 3, 4, 5, 6]);
        // Two users rewired, the five `side` nodes above level 1
        // searched, five levels raised (the join once, not per arm).
        #[cfg(debug_assertions)]
        assert_eq!(f.g.touches() - touches, 2 + 5 + 5);
        f.g.validate().unwrap();
        assert_eq!(f.g.collect(root, &mut Vec::new()), [root]);

        // The next verdict hangs on the raise: `tail1` now reads
        // `side[4]` through `deep`, and only its new level (9, was 4)
        // puts it above `side[4]` (level 5) so that the search runs.
        assert!(f.g.depends_on(tail1, side[4]));
        assert_eq!(
            f.g.replace_traced(side[4], tail1, &mut rewired),
            Err(GraphError::WouldCycle {
                root: side[4],
                replacement: tail1
            })
        );
        // Whereas `side[1]` (level 2) replaces `left` (level 7) with
        // neither a search nor a raise.
        #[cfg(debug_assertions)]
        let touches = f.g.touches();
        let traced = f.g.replace_traced(left, side[1], &mut rewired);
        assert_eq!(traced, Ok(&[join][..]));
        #[cfg(debug_assertions)]
        assert_eq!(f.g.touches() - touches, 1);
        assert_eq!(levels(&f.g, &[join, tail1, tail2]), [8, 9, 10]);
        f.g.validate().unwrap();
    }

    #[test]
    fn allocated_since_enumerates_new_nodes() {
        let mut f = fx();
        let a = mat(&mut f, 2, 2);
        let mark = f.g.allocated_count();
        assert_eq!(f.g.allocated_since(mark), vec![]);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let s =
            f.g.op(&mut f.syms, &f.reg, f.ops.sigmoid, vec![r], vec![])
                .unwrap();
        assert_eq!(f.g.allocated_since(mark), vec![r, s]);
    }

    #[test]
    fn gc_keeps_all_outputs() {
        let mut f = fx();
        let a = mat(&mut f, 2, 2);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let s =
            f.g.op(&mut f.syms, &f.reg, f.ops.sigmoid, vec![a], vec![])
                .unwrap();
        f.g.mark_output(r);
        f.g.mark_output(s);
        assert_eq!(f.g.gc(), vec![]);
        assert!(f.g.is_alive(r) && f.g.is_alive(s));
    }

    #[test]
    fn users_index_tracks_mutations() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let relu =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        // One user reading the node twice: two edges, two entries.
        let twice =
            f.g.op(&mut f.syms, &f.reg, f.ops.add, vec![relu, relu], vec![])
                .unwrap();
        f.g.mark_output(twice);
        assert_eq!(users(&f.g, a), [relu]);
        assert_eq!(users(&f.g, relu), [twice, twice]);
        assert_eq!(users(&f.g, twice), []);

        // Replacement moves all edges to the replacement node.
        let gelu =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![a], vec![])
                .unwrap();
        f.g.replace(relu, gelu).unwrap();
        assert_eq!(users(&f.g, gelu), [twice, twice]);
        // GC clears both directions for the dead node.
        let freed = f.g.gc();
        assert_eq!(freed, vec![relu]);
        assert_eq!(users(&f.g, relu), []);
        assert_eq!(users(&f.g, a), [gelu]);
        f.g.validate().unwrap();
    }

    #[test]
    fn collect_frees_what_only_the_root_kept_alive() {
        let mut f = fx();
        let a = mat(&mut f, 4, 4);
        let shared =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        let only_root =
            f.g.op(&mut f.syms, &f.reg, f.ops.gelu, vec![shared], vec![])
                .unwrap();
        let root =
            f.g.op(
                &mut f.syms,
                &f.reg,
                f.ops.add,
                vec![only_root, only_root],
                vec![],
            )
            .unwrap();
        let keeps_shared =
            f.g.op(&mut f.syms, &f.reg, f.ops.tanh, vec![shared], vec![])
                .unwrap();
        f.g.mark_output(root);
        f.g.mark_output(keeps_shared);

        // Still an output: nothing to collect.
        assert_eq!(f.g.collect(root, &mut Vec::new()), []);
        // Still read: nothing to collect either.
        assert_eq!(f.g.collect(only_root, &mut Vec::new()), []);

        f.g.replace(root, a).unwrap();
        let mut swept = f.g.clone();
        // The freed run is appended, sorted, after what the buffer held.
        let mut freed = vec![root];
        assert_eq!(f.g.collect(root, &mut freed), [only_root, root]);
        assert_eq!(freed[1..], swept.gc());
        assert_eq!(users(&f.g, shared), [keeps_shared]);
        assert_eq!(users(&f.g, shared), users(&swept, shared));
        assert_eq!(users(&f.g, only_root), []);
        // A dead node is not collected twice.
        assert_eq!(f.g.collect(root, &mut Vec::new()), []);
        f.g.validate().unwrap();
    }

    /// `a -> r1 -> r2 -> r3`, with `r3` marked as the output.
    fn relu_chain(f: &mut Fx) -> [NodeId; 4] {
        let a = mat(f, 4, 4);
        let mut chain = [a; 4];
        for i in 1..4 {
            chain[i] =
                f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![chain[i - 1]], vec![])
                    .unwrap();
        }
        f.g.mark_output(chain[3]);
        chain
    }

    /// `g.users_of(n)` as a sorted vector: a use-list's order is
    /// unspecified, so lists compare as multisets.
    fn users(g: &Graph, n: NodeId) -> Vec<NodeId> {
        let mut users: Vec<NodeId> = g.users_of(n).collect();
        users.sort_unstable();
        users
    }

    /// The slot of the edge `user` → its `k`-th input.
    fn slot(g: &Graph, user: NodeId, k: usize) -> usize {
        g.run(user).nth(k).expect("the user has that many inputs")
    }

    /// Repoints `node`'s first input at `to`, keeping the use-lists in
    /// step — an edit no public method allows.
    fn rewire_first_input(g: &mut Graph, node: NodeId, to: NodeId) {
        let first = slot(g, node, 0);
        g.unlink(first);
        g.edges[first] = to;
        g.link(first);
    }

    #[test]
    fn validate_reports_a_cycle() {
        let mut f = fx();
        let [_, r1, r2, r3] = relu_chain(&mut f);
        f.g.validate().unwrap();
        rewire_first_input(&mut f.g, r1, r3);
        let err = f.g.validate().unwrap_err();
        assert!(matches!(
            validate_quadratic(&f.g),
            Err(GraphError::WouldCycle { .. })
        ));
        // No cycle can be levelled: the check reports one of its edges.
        let GraphError::LevelOrder { node, input } = err else {
            panic!("expected an edge of the cycle, got {err}");
        };
        assert!([r1, r2, r3].contains(&node));
        assert!(f.g.inputs(node).contains(&input));
        assert!(f.g.depends_on(input, node));
    }

    #[test]
    fn validate_reports_users_index_drift() {
        let mut f = fx();
        let [a, r1, r2, r3] = relu_chain(&mut f);
        let drift = |g: &Graph| match g.validate() {
            Err(GraphError::UsersIndexMismatch { node, input }) => Some((node, input)),
            other => panic!("expected an index mismatch, got {other:?}"),
        };
        // The slot of r2 reading r1, alone on r1's list.
        let r2_reads_r1 = slot(&f.g, r2, 0);

        // A slot missing from its list: found by the count.
        let mut dropped = f.g.clone();
        dropped.unlink(r2_reads_r1);
        assert_eq!(drift(&dropped), Some((r2, r1)));
        let missing = GraphError::UsersIndexMismatch {
            node: r2,
            input: r1,
        };
        assert_eq!(validate_quadratic(&dropped), Err(missing));

        // A slot linked twice on its own list: the list comes back to
        // it, and is reported there instead of walked forever.
        let mut doubled = f.g.clone();
        doubled.link(r2_reads_r1);
        assert_eq!(doubled.next_use[r2_reads_r1], r2_reads_r1 as u32);
        assert_eq!(drift(&doubled), Some((r2, r1)));

        // A slot moved onto the list of a node it does not read: the
        // count stays right, the list it sits on does not.
        let mut stray = f.g.clone();
        stray.unlink(r2_reads_r1);
        let head = std::mem::replace(&mut stray.first_use[a.index()], r2_reads_r1 as u32);
        stray.next_use[r2_reads_r1] = head;
        assert_eq!(drift(&stray), Some((r2, a)));

        // A longer list whose tail leads back to its head: r1 gains a
        // second reader, then the last slot on r1's list points at the
        // first.
        let mut cyclic = f.g.clone();
        let meta = cyclic.node(r1).meta;
        let second = cyclic.op_with_meta(f.ops.add, [r1, r3], [], meta).unwrap();
        cyclic.mark_output(second);
        cyclic.validate().unwrap();
        let head = cyclic.first_use[r1.index()];
        let mut tail = head as usize;
        while cyclic.next_use[tail] != NO_USE {
            tail = cyclic.next_use[tail] as usize;
        }
        cyclic.next_use[tail] = head;
        let first = cyclic.user[head as usize];
        assert_eq!(drift(&cyclic), Some((first, r1)));
    }

    /// The output flag is what `collect` asks; `validate` holds it to
    /// the list.
    #[test]
    fn validate_reports_output_flag_drift() {
        let mut f = fx();
        let [a, r1, r2, r3] = relu_chain(&mut f);
        f.g.validate().unwrap();
        let flag_drift = |g: &Graph| match g.validate() {
            Err(GraphError::OutputFlagMismatch { node }) => node,
            other => panic!("expected an output flag mismatch, got {other:?}"),
        };

        // Listed but not flagged: `collect` would free an output.
        let mut unflagged = f.g.clone();
        unflagged.nodes[r3.index()].output = false;
        assert_eq!(flag_drift(&unflagged), r3);
        assert_eq!(unflagged.collect(r3, &mut Vec::new()), [a, r1, r2, r3]);

        // Flagged but not listed: `collect` would keep garbage.
        let mut stray = f.g.clone();
        stray.nodes[a.index()].output = true;
        assert_eq!(flag_drift(&stray), a);
    }

    #[test]
    fn validate_reports_level_drift() {
        let mut f = fx();
        let [a, r1, r2, r3] = relu_chain(&mut f);
        assert_eq!(f.g.level, [0, 1, 2, 3]);
        // Slack is fine: a numbering, not a depth.
        f.g.level[r3.index()] = 9;
        f.g.validate().unwrap();
        // An input level with its user is not.
        f.g.level[r1.index()] = 2;
        assert_eq!(
            f.g.validate(),
            Err(GraphError::LevelOrder {
                node: r2,
                input: r1
            })
        );
        // The other checks do not read the levels.
        assert_eq!(validate_quadratic(&f.g), Ok(()));
        // A dead node's levels are nobody's business.
        f.g.replace(r1, a).unwrap();
        f.g.collect(r1, &mut Vec::new());
        f.g.validate().unwrap();
    }

    #[test]
    fn replacing_one_output_by_another_keeps_the_outputs_a_set() {
        let mut f = fx();
        let [a, r1, r2, r3] = relu_chain(&mut f);
        f.g.mark_output(r1);
        f.g.mark_output(a);
        assert_eq!(f.g.outputs(), [r3, r1, a]);
        // The later entry merges into the earlier one, whichever of the
        // two the root was.
        f.g.replace(r1, a).unwrap();
        assert_eq!(f.g.outputs(), [r3, a]);
        f.g.collect(r1, &mut Vec::new());
        f.g.validate().unwrap();
        f.g.replace(r3, a).unwrap();
        assert_eq!(f.g.outputs(), [a]);
        f.g.collect(r3, &mut Vec::new());
        assert_eq!(f.g.live_count(), 1, "{r2:?} went with its only reader");
        f.g.validate().unwrap();

        // What `validate` is there to catch, were the merge to go.
        f.g.outputs.push(a);
        let repeated = Err(GraphError::DuplicateOutput { node: a });
        assert_eq!(f.g.validate(), repeated);
        assert_eq!(validate_quadratic(&f.g), repeated);
    }

    /// `Graph::validate` as it was before it became linear: a fresh
    /// `depends_on` walk and two list scans per edge. Kept as the
    /// oracle of the linear one.
    fn validate_quadratic(g: &Graph) -> Result<(), GraphError> {
        for (i, node) in g.nodes.iter().enumerate() {
            if !node.alive {
                continue;
            }
            let id = NodeId(i as u32);
            for &input in g.inputs(id) {
                if !g.is_alive(input) {
                    return Err(GraphError::DeadInput { node: input });
                }
                if g.depends_on(input, id) {
                    return Err(GraphError::WouldCycle {
                        root: id,
                        replacement: input,
                    });
                }
                let fwd = g.inputs(id).iter().filter(|&&x| x == input).count();
                // Cut off past the arena: a list that loops reads long.
                let listed = g.users_of(input).take(g.edges.len() + 1);
                let rev = listed.filter(|&u| u == id).count();
                if fwd != rev {
                    return Err(GraphError::UsersIndexMismatch { node: id, input });
                }
            }
        }
        let repeated = |&&node: &&NodeId| g.outputs.iter().filter(|&&o| o == node).count() > 1;
        match g.outputs.iter().filter(repeated).min() {
            Some(&node) => Err(GraphError::DuplicateOutput { node }),
            None => Ok(()),
        }
    }

    /// A random DAG of unary and binary ops over three inputs, then a
    /// few random replace-and-collect rewrites, so that node ids no
    /// longer follow the dataflow.
    fn random_rewritten_graph(f: &mut Fx, rng: &mut StdRng, size: usize) {
        let meta = f.g.meta(DType::F32, [4, 4]);
        let mut nodes: Vec<NodeId> = (0..3).map(|_| mat(f, 4, 4)).collect();
        for _ in 0..size {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            let (op, inputs) = if rng.gen_range(0..2) == 0 {
                (f.ops.relu, vec![a])
            } else {
                (f.ops.add, vec![a, b])
            };
            nodes.push(f.g.op_with_meta(op, inputs, vec![], meta).unwrap());
        }
        f.g.mark_output(nodes[nodes.len() - 1]);
        f.g.mark_output(nodes[nodes.len() / 2]);
        f.g.gc();
        for _ in 0..4 {
            let live = f.g.topo_order();
            let root = live[rng.gen_range(0..live.len())];
            let replacement = live[rng.gen_range(0..live.len())];
            if f.g.replace(root, replacement).is_ok() {
                f.g.collect(root, &mut Vec::new());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The linear `validate` against the quadratic one it replaced:
        /// both accept a rewritten graph, and both report the same
        /// violation once one is injected — a dead input, a slot
        /// dropped from its use-list — and both reject a cycle, which
        /// the linear one reports as the edge that closed it, levelled
        /// out of order. Two injections only the linear one names
        /// exactly: a slot linked twice, which makes its list loop back
        /// to it, and a slot moved onto a list it does not belong to.
        #[test]
        fn linear_validate_agrees_with_the_quadratic_one(
            seed in any::<u64>(),
            size in 2usize..40,
        ) {
            let mut f = fx();
            let mut rng = StdRng::seed_from_u64(seed);
            random_rewritten_graph(&mut f, &mut rng, size);
            prop_assert_eq!(f.g.validate(), Ok(()));
            prop_assert_eq!(validate_quadratic(&f.g), Ok(()));

            // (user, input) for every edge of the live graph.
            let edges: Vec<(NodeId, NodeId)> = f
                .g
                .topo_order()
                .into_iter()
                .flat_map(|u| f.g.inputs(u).iter().map(move |&x| (u, x)).collect::<Vec<_>>())
                .collect();
            if edges.is_empty() {
                return Ok(());
            }
            let (user, input) = edges[rng.gen_range(0..edges.len())];

            let mut dead = f.g.clone();
            dead.nodes[input.index()].alive = false;
            let err = dead.validate();
            prop_assert!(matches!(err, Err(GraphError::DeadInput { .. })), "{:?}", err);
            prop_assert_eq!(err, validate_quadratic(&dead));

            let at = f.g.run(user).find(|&s| f.g.edges[s] == input).unwrap();
            let mismatch = |node, input| Err(GraphError::UsersIndexMismatch { node, input });

            let mut dropped = f.g.clone();
            dropped.unlink(at);
            prop_assert_eq!(dropped.validate(), mismatch(user, input));
            prop_assert_eq!(dropped.validate(), validate_quadratic(&dropped));

            let mut doubled = f.g.clone();
            doubled.link(at);
            prop_assert_eq!(doubled.validate(), mismatch(user, input));

            // `user` cannot read itself.
            let mut stray = f.g.clone();
            stray.unlink(at);
            stray.next_use[at] = std::mem::replace(&mut stray.first_use[user.index()], at as u32);
            prop_assert_eq!(stray.validate(), mismatch(user, user));

            // Close a cycle: an ancestor of `user` that has inputs of
            // its own now reads `user`.
            if !f.g.inputs(input).is_empty() {
                let mut cyclic = f.g.clone();
                rewire_first_input(&mut cyclic, input, user);
                let linear = cyclic.validate();
                let quadratic = validate_quadratic(&cyclic);
                // The level check names the edge that closes the cycle.
                prop_assert_eq!(linear, Err(GraphError::LevelOrder { node: input, input: user }));
                prop_assert!(matches!(quadratic, Err(GraphError::WouldCycle { .. })), "{:?}", quadratic);
            }
        }
    }

    #[test]
    fn opaque_nodes_flow() {
        let mut f = fx();
        let a = mat(&mut f, 2, 2);
        let mystery = f.syms.op("MysteryOp", 1);
        let meta = f.g.meta(DType::F32, [2, 2]);
        let o = f.g.opaque(&mut f.syms, mystery, vec![a], meta).unwrap();
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![o], vec![])
                .unwrap();
        f.g.mark_output(r);
        assert_eq!(f.g.node(o).kind, NodeKind::Opaque);
        assert_eq!(f.g.topo_order(), vec![a, o, r]);
    }

    #[test]
    fn dot_export_mentions_ops() {
        let mut f = fx();
        let a = mat(&mut f, 2, 2);
        let r =
            f.g.op(&mut f.syms, &f.reg, f.ops.relu, vec![a], vec![])
                .unwrap();
        f.g.mark_output(r);
        let dot = f.g.to_dot(&f.syms);
        assert!(dot.contains("Relu"));
        assert!(dot.contains("input"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn revision_bumps_on_mutation() {
        let mut f = fx();
        let r0 = f.g.revision();
        let a = mat(&mut f, 2, 2);
        assert!(f.g.revision() > r0);
        let r1 = f.g.revision();
        f.g.mark_output(a);
        assert!(f.g.revision() > r1);
    }
}
