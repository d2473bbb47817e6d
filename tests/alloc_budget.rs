//! Interning costs a probe, not an allocation — held as a count.
//!
//! A wall-clock gate on a cold compile flakes with the box; the number
//! of times a compile enters the allocator does not. This binary
//! installs a counting global allocator and compiles the benchmark's
//! ladder program (hidden 48, `both`, incremental, fused) at a few
//! depths, asserting five budgets: what `TermView::build` allocates
//! per node, what one `Pipeline::run` allocates in all, that neither
//! per-node figure grows with the graph, what a pass allocates per
//! firing it adds from 50 to 200 layers, and that the same run under
//! the restart policy — one walk of the order per round — allocates no
//! more than the incremental one plus a constant: a round allocates
//! nothing.
//!
//! And what a served miss pays for its library rather than its graph:
//! copying a loaded library session (what a serve worker does per
//! request), building a fresh session, and naming a graph input — a
//! fresh constant per input, which wrote a `format!`ed name and two
//! owned copies of it into a map before the symbol table was flat.
//!
//! Where the allocations were: before the flat `TermStore`, every
//! interned term cost a caller-side argument `Vec`, a clone of it into
//! the dedup map and (amortised) the map's own growth — at 100 layers
//! (3 004 nodes) 9 137 in the build and 34 052 in the pass, against
//! 2 786 and 15 479 after. Then a copied shape vector per distinct term
//! (`TermAttrs::meta`), a cloned pattern node per machine step and a
//! fresh stack per lazy repair were most of what was left; with shapes
//! shared, patterns borrowed and the stack kept, the build made 174 and
//! the pass 5 778: the graph's own per-node vectors for the nodes a
//! rewrite creates, a probe's witness and fresh machine, and the
//! doubling of a few long-lived tables. Since the scan starts on an
//! empty view and interns each node when it first reads it, the pass
//! makes 5 739 and interns 2 909 terms where it interned 4 903. Lazy
//! interning alone read 6 135: each layer makes its own attention-scale
//! and GELU constants, the scan deletes one layer's before it reads the
//! next layer's, so each constant term lost its last producer and
//! copied its attribute list into the side table again one layer later
//! — about four copies a layer. A term now keeps its attributes once
//! recorded. The restart pass made 21 739 while each of its 302 rounds
//! materialised the whole topological order; walking it lazily over
//! reused buffers, it allocates what its incremental twin does. With no
//! term → producers index in the view and a firing's created and
//! collected ids appended straight to the firing log, the build makes
//! 135 and the pass 4 145. Then a node stopped owning heap blocks: its
//! users became a use-list threaded through the graph's edge arena, its
//! attributes a run of one attribute arena (and a view row's attributes
//! a run of one arena of the view's), and a firing's rewired users,
//! patch cone and folded RHS arguments went into buffers the pass keeps
//! — the build makes 132 and the pass 3 048, and a pass grows by 8.1
//! allocations per extra firing from 50 to 200 layers where it grew by
//! 11.7. The 100-layer model build went from 5 283 to 1 922. With the
//! worklist read off the view's one per-node column, a patch fills no
//! cone: the build makes 131 and the pass 3 038. Then a shape became an
//! id into the graph's shape table, a fresh constant stopped entering
//! the symbol table's name index, and the term store is sized for the
//! graph before the scan interns it: the model build makes 122 (1 503
//! of its 1 922 were one shared extent list per node), the view build
//! 72 and the pass 2 978. With no boxed matcher, no owned pass name and
//! no depth-first search in `Graph::validate`, the pass makes 2 972.
//! With `Graph::topo_order` sized for the graph before it walks, the
//! view build makes 62 and the pass 2 960. With a term's attributes
//! part of its key in the term store — no symbol name or map key per
//! distinct constant, no attribute copy in the view — the view build
//! makes 32 and the pass 2 930.
//!
//! And that a machine step allocates nothing: a warmed machine makes
//! the same count whether a run takes 14 steps or 74.
//!
//! And what a compile interns, counted in the session's term store: no
//! more terms than the input graph has nodes.
//!
//! And that the wire formats own their bytes: a parsed container
//! borrows its sections, and an encoded graph is copied once, into its
//! container.
//!
//! The allocator below is the workspace's one `unsafe impl`; every
//! library crate keeps `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pypm::core::{Expr, Machine, PatternStore, StructuralAttrInterp, SymbolTable, TermStore};
use pypm::dsl::LibraryConfig;
use pypm::engine::{Pipeline, RewritePass, Session, SweepPolicy};
use pypm::graph::{Graph, NodeKind, TermView};
use pypm::models::{GeluVariant, ScaleVariant, TransformerConfig};

thread_local! {
    /// Calls this thread has made that obtain memory. Const-initialised
    /// and without a destructor, so reading it inside the allocator
    /// never allocates or touches a torn-down slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Fresh blocks (not a buffer growing in place) of at least
    /// `LARGE_FROM` bytes this thread has obtained.
    static LARGE: Cell<u64> = const { Cell::new(0) };
    static LARGE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The system allocator, counting per thread — the test harness runs
/// tests on threads of their own, and each must see only its own work.
struct Counting;

fn count() {
    // A thread being torn down may allocate after its slot is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn count_fresh(size: usize) {
    count();
    if LARGE_FROM
        .try_with(Cell::get)
        .is_ok_and(|from| size >= from)
    {
        let _ = LARGE.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local integers and never unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_fresh(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_fresh(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above; `ptr` came from this allocator, which only
        // ever hands out `System`'s blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning how often it entered the allocator for memory.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f`, returning how many fresh blocks of at least `bytes` bytes
/// it obtained: how often it copied a payload of that size.
fn blocks_of_at_least<T>(bytes: usize, f: impl FnOnce() -> T) -> (T, u64) {
    LARGE_FROM.with(|from| from.set(bytes));
    let before = LARGE.with(Cell::get);
    let out = f();
    LARGE_FROM.with(|from| from.set(usize::MAX));
    (out, LARGE.with(Cell::get) - before)
}

/// The ladder program of `benchmark/harness/src/probes.rs` at `layers`
/// layers, in a session that holds the `both` library.
fn ladder_program(layers: usize) -> (Session, Graph, pypm::dsl::RuleSet) {
    let mut s = Session::new();
    let g = ladder(layers).build(&mut s);
    let rules = s.load_library(LibraryConfig::both());
    (s, g, rules)
}

/// The ladder program's model at `layers` layers.
fn ladder(layers: usize) -> TransformerConfig {
    TransformerConfig {
        name: "deep",
        layers,
        hidden: 48,
        seq: 64,
        batch: 1,
        mlp_factor: 4,
        gelu: GeluVariant::DivTwo,
        scale: ScaleVariant::Mul,
        opaque_layernorm: false,
    }
}

/// What one compile allocates at `layers` layers.
struct Counted {
    nodes: u64,
    /// In `TermView::build` over the input graph, in a session that has
    /// seen no graph.
    build: u64,
    /// In one `Pipeline::run` (whose scan interns what it reads),
    /// likewise.
    pass: u64,
}

impl Counted {
    fn build_per_node(&self) -> f64 {
        self.build as f64 / self.nodes as f64
    }

    fn pass_per_node(&self) -> f64 {
        self.pass as f64 / self.nodes as f64
    }
}

fn count_at(layers: usize) -> Counted {
    let (mut s, g, _) = ladder_program(layers);
    let (view, build) =
        allocations_of(|| TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry));
    assert_eq!(view.len(), g.live_count());
    Counted {
        nodes: g.live_count() as u64,
        build,
        pass: pass_allocations(layers, SweepPolicy::Incremental),
    }
}

/// What one `Pipeline::run` of the ladder program at `layers` layers
/// allocates under `policy`, in a session that has seen no graph.
fn pass_allocations(layers: usize, policy: SweepPolicy) -> u64 {
    pass_run(layers, policy).0
}

/// [`pass_allocations`], and the rewrites the pass fired.
fn pass_run(layers: usize, policy: SweepPolicy) -> (u64, u64) {
    let (mut s, mut g, rules) = ladder_program(layers);
    let (report, pass) = allocations_of(|| {
        Pipeline::new(&mut s)
            .with(RewritePass::new(rules).policy(policy))
            .run(&mut g)
    });
    let stats = report.expect("pass succeeds").total();
    assert!(
        stats.rewrites_fired >= layers as u64,
        "every layer rewrites"
    );
    (pass, stats.rewrites_fired)
}

/// The dev profile's per-firing oracles (`Graph::validate`, the resumed
/// scan order and the restart walk against a recomputed one) allocate
/// inside the pass, so
/// the pass is budgeted where the product is built: in release.
const PASS_IS_THE_PRODUCTS: bool = !cfg!(debug_assertions);

/// What `TermView::build` may allocate per node: 0.97 while every term
/// copied its shape into the side table, 0.06 since the copy is a
/// reference count, 0.044 (131 at 100 layers) once a term stopped
/// owning its attribute list, 0.024 (72) since a row names its shape by
/// id and the term store is sized for the graph before the build
/// interns it, 0.021 (62) since the order it walks is one allocation,
/// 0.0107 (32) since a term's attributes are part of its key in the term
/// store: a constant no longer formats a symbol name and a map key, and
/// the view copies no attributes.
const VIEW_BUILD_PER_NODE: f64 = 0.0107;

/// What one 100-layer `Pipeline::run` may allocate: 15 476 while the
/// machine cloned the pattern of every step and every term its shape,
/// 5 778 since, 5 739 since the scan interns lazily, 5 440 since a
/// rule's right-hand side builds its nodes from one shared stack of
/// inputs into the graph's edge arena, 5 458 since the pass records its
/// firing log (18 growths of its vectors over 301 firings), 4 145 since
/// a firing's created and collected ids go straight into that log and
/// the view keeps no term → producers index, 3 048 since a node's users
/// and attributes live in the graph's arenas and a firing's scratch in
/// the pass's buffers, 3 038 since the worklist is the set of nodes the
/// view owes a term (no dirty bits, no patch cone, one per-node column
/// in the view), 2 978 since the term store is sized for the graph
/// before the scan and a replacement's shape is an id the graph's table
/// already holds (2 976 measured), 2 972 since the candidate index is
/// an enum rather than a boxed trait object, a pass record's name is a
/// `&'static str`, and `Graph::validate` leaves acyclicity to its level
/// check instead of a depth-first search with two vectors of its own,
/// 2 960 since `Graph::topo_order` (the incremental scan's first order)
/// sizes its vector for the graph instead of doubling it, 2 930 since a
/// term's attributes are part of its key in the term store (no symbol
/// name, map key or attribute copy per constant the view meets).
const PASS_AT_100: u64 = 2_930;

/// What a pass may allocate for the firings it adds from 50 to 200
/// layers (151 → 601 firings): 3 632, 8.1 per extra firing, since a
/// node's users are a use-list in the edge arena, its attributes a run
/// of an arena, a firing's rewired users and RHS argument terms sit in
/// buffers the pass keeps, and a patch fills no cone. It was 5 282
/// (11.7 per firing) while each node a firing built grew a user vector
/// of its own and a firing allocated its rewired users, patch cone and
/// argument terms, 3 634 while the pass kept a buffer for the cone, and
/// 3 632 while a replacement's shape was a reference-counted extent
/// list, and 3 620 while the incremental scan's first order grew by
/// doubling (two more doublings at 200 layers than at 50). What is left
/// per firing is mostly a probe's fresh machine and witness.
const PASS_GROWTH_50_TO_200: u64 = 3_618;

#[test]
fn a_firing_allocates_a_bounded_count() {
    if !PASS_IS_THE_PRODUCTS {
        return;
    }
    let (shallow, shallow_fired) = pass_run(50, SweepPolicy::Incremental);
    let (deep, deep_fired) = pass_run(200, SweepPolicy::Incremental);
    let (grown, extra) = (deep - shallow, deep_fired - shallow_fired);
    eprintln!(
        "50 -> 200 layers: {grown} more allocations over {extra} more firings, {:.2} a firing",
        grown as f64 / extra as f64
    );
    assert_eq!(extra, 450, "the ladder fires 151 / 601 rewrites");
    assert!(
        grown <= PASS_GROWTH_50_TO_200,
        "a pass made {grown} more allocations over {extra} more firings"
    );
}

#[test]
fn a_100_layer_compile_stays_inside_its_allocation_budget() {
    let at_100 = count_at(100);
    assert_eq!(at_100.nodes, 3004);
    eprintln!(
        "100 layers: TermView::build {}, Pipeline::run {} allocations",
        at_100.build, at_100.pass
    );
    assert!(
        at_100.build_per_node() <= VIEW_BUILD_PER_NODE,
        "TermView::build made {} allocations over {} nodes",
        at_100.build,
        at_100.nodes
    );
    if PASS_IS_THE_PRODUCTS {
        assert!(
            at_100.pass <= PASS_AT_100,
            "one 100-layer Pipeline::run made {} allocations",
            at_100.pass
        );
    }
}

/// How far a restart pass may allocate past its incremental twin: the
/// measured difference, none. The two fire the same rewrites and build
/// the same view; they differ only in the scan order's buffers — the
/// restart walk's, grown to the graph once and reused every round,
/// against the incremental order's one vector sized for the graph —
/// and those make the same count: 1 721 / 2 930 / 5 339 allocations
/// for both at 50 / 100 / 200 layers (1 751 / 2 960 / 5 369 before
/// terms carried their attributes). Materialising an order per round
/// instead costs about 20 allocations a round — 3 000 to 12 000 over
/// these programs. The gate allowed 64 while the two measured equal,
/// which let a restart-only regression of that size through.
const RESTART_OVER_INCREMENTAL: u64 = 0;

#[test]
fn a_restart_round_allocates_nothing() {
    if !PASS_IS_THE_PRODUCTS {
        return;
    }
    for layers in [50, 100, 200] {
        let restart = pass_allocations(layers, SweepPolicy::RestartOnRewrite);
        let incremental = pass_allocations(layers, SweepPolicy::Incremental);
        eprintln!("{layers} layers: restart {restart}, incremental {incremental} allocations");
        assert!(
            restart <= incremental + RESTART_OVER_INCREMENTAL,
            "a {layers}-layer restart pass made {restart} allocations, \
             its incremental twin {incremental}"
        );
    }
}

#[test]
fn allocations_per_node_do_not_grow_with_the_graph() {
    let (shallow, deep) = (count_at(50), count_at(200));
    assert!(
        deep.build_per_node() <= 1.05 * shallow.build_per_node(),
        "TermView::build: {:.3} allocations per node at 50 layers, {:.3} at 200",
        shallow.build_per_node(),
        deep.build_per_node()
    );
    if PASS_IS_THE_PRODUCTS {
        assert!(
            deep.pass_per_node() <= 1.05 * shallow.pass_per_node(),
            "Pipeline::run: {:.3} allocations per node at 50 layers, {:.3} at 200",
            shallow.pass_per_node(),
            deep.pass_per_node()
        );
    }
    eprintln!(
        "allocations per node — build {:.3} / {:.3}, pass {:.3} / {:.3} (50 / 200 layers)",
        shallow.build_per_node(),
        deep.build_per_node(),
        shallow.pass_per_node(),
        deep.pass_per_node()
    );
}

/// A compile interns a node's term when its scan first reads it, so a
/// node a rewrite deletes before the scan reaches it is never interned,
/// and the compile holds fewer terms than its input graph has nodes:
/// 1 459 / 2 909 / 5 809 for 1 504 / 3 004 / 6 004. Building the view
/// up front interned every node first, and the recomputes on top:
/// 2 453 / 4 903 / 9 803, 1.63 a node.
#[test]
fn a_compile_interns_fewer_terms_than_its_graph_has_nodes() {
    for layers in [50, 100, 200] {
        let (mut s, mut g, rules) = ladder_program(layers);
        let nodes = g.live_count();
        Pipeline::new(&mut s)
            .with(RewritePass::new(rules))
            .run(&mut g)
            .expect("pass succeeds");
        let terms = s.terms.len();
        eprintln!("{layers} layers: {terms} terms interned for {nodes} nodes");
        assert!(
            terms <= nodes,
            "a {layers}-layer compile interned {terms} terms for {nodes} nodes"
        );
    }
}

/// A copy of a library session — what a serve worker clones per
/// request — made 226 (`both`) and 316 (`all`) allocations while every
/// name was a `String` twice over and every pattern was stored twice.
/// The symbol table is now three flat buffers per name space and the
/// pattern store a shared reference, its fused trie included.
const SESSION_COPY: u64 = 20;

/// `Session::new` made 98 with one `String` pair per declared name.
const SESSION_NEW: u64 = 40;

#[test]
fn a_library_session_copies_in_a_handful_of_allocations() {
    let (fresh, made) = allocations_of(Session::new);
    eprintln!("Session::new made {made} allocations");
    assert!(made <= SESSION_NEW, "Session::new made {made} allocations");
    drop(fresh);
    for cfg in [LibraryConfig::both(), LibraryConfig::all()] {
        let mut template = Session::new();
        let rules = template.load_library(cfg);
        let patterns: Vec<_> = rules.patterns.iter().map(|d| d.pattern).collect();
        template.pats.fused(&patterns);
        let (copy, made) = allocations_of(|| template.clone());
        eprintln!("{cfg:?}: a session copy made {made} allocations");
        assert!(made <= SESSION_COPY, "{cfg:?}: a session copy made {made}");
        assert_eq!(copy.syms.op_count(), template.syms.op_count());
    }
}

/// Past its first few, a fresh constant allocates only when one of the
/// three buffers it writes — the name arena, the end offsets, the arity
/// list — doubles, which each does at most once between `n` and `2n`
/// constants. It enters no probe table, so none grows (a fourth buffer
/// while it did).
#[test]
fn a_fresh_constant_allocates_only_when_a_buffer_doubles() {
    let mut syms = SymbolTable::new();
    let per_call: Vec<u64> = (0..10_000)
        .map(|_| allocations_of(|| syms.fresh_const("in")).1)
        .collect();
    let total: u64 = per_call.iter().sum();
    let allocating_late = per_call[5_000..].iter().filter(|&&n| n > 0).count();
    assert!(
        total <= 64,
        "10 000 fresh constants made {total} allocations"
    );
    assert!(
        allocating_late <= 4,
        "{allocating_late} of the last 5 000 fresh constants allocated"
    );
}

/// A machine step reads the pattern it steps over in place, and a
/// continuation names a guard by its pattern's id: past the buffers a
/// warmed machine keeps, a run allocates its witness and nothing per
/// step. Each `ST-Match-Fun` cloned the pattern's argument vector, and
/// each `ST-Match-Guard` its guard tree, while the machine copied the
/// node it matched on.
#[test]
fn a_machine_step_allocates_nothing() {
    let mut syms = SymbolTable::new();
    let interp = StructuralAttrInterp::new(&mut syms);
    let c = syms.op("c", 0);
    let f = syms.op("f", 1);
    let x = syms.var("x");
    let mut terms = TermStore::new();
    let mut pats = PatternStore::new();
    // `f(f(… f(x) …))` with `x.arity ≤ 0` checked at every level, against
    // `f(f(… f(c) …))` of the same depth: no alternative, no backtrack.
    let guard = Expr::var_attr(x, interp.arity_attr()).le(Expr::Const(0));
    let program = |depth: usize, terms: &mut TermStore, pats: &mut PatternStore| {
        let (mut t, mut p) = (terms.app0(c), pats.var(x));
        for _ in 0..depth {
            t = terms.app(f, [t]);
            let app = pats.app(f, vec![p]);
            p = pats.guarded(app, guard.clone());
        }
        (p, t)
    };
    let (shallow, deep) = (
        program(4, &mut terms, &mut pats),
        program(24, &mut terms, &mut pats),
    );
    let mut machine = Machine::new(&mut pats, &terms, &interp);
    let mut second_run = |(p, t)| {
        machine
            .run(p, t, 1_000)
            .expect("fuel")
            .witness()
            .expect("matches");
        let (outcome, made) = allocations_of(|| machine.run(p, t, 1_000));
        assert!(outcome.expect("fuel").witness().is_some());
        (machine.stats().steps, made)
    };
    let (shallow_steps, shallow_made) = second_run(shallow);
    let (deep_steps, deep_made) = second_run(deep);
    eprintln!(
        "a warmed machine run: {shallow_made} allocations over {shallow_steps} steps, \
         {deep_made} over {deep_steps}"
    );
    assert!(deep_steps >= 4 * shallow_steps);
    assert_eq!(
        shallow_made, deep_made,
        "{shallow_steps} steps made {shallow_made} allocations, {deep_steps} made {deep_made}"
    );
}

/// The 100-layer ladder model's build made 13 570 allocations while
/// naming a graph input cost four, and 11 166 after; 7 262 since a
/// weight's extents are allocated once, a node's shape is its input's
/// whenever the two are equal, and inference reads one or two inputs
/// off the stack; 5 283 since a node's inputs are a run of the graph's
/// edge arena, handed over from an array on the builder's stack; 1 922
/// since its users and attributes are runs of the graph's arenas too,
/// and a constant's attribute is handed over from the stack; 122 since
/// a node's shape is an id into the graph's shape table, 1 503 of those
/// 1 922 having been one reference-counted extent list each. What is
/// left is the doubling of the graph's and the symbol table's buffers.
/// The count is the same in both profiles, and the pin is the count:
/// it read 131 while that shape change landed, which let nine
/// allocations per build through unnoticed.
const LADDER_BUILD: u64 = 122;

#[test]
fn a_model_build_names_its_inputs_without_allocating() {
    let mut s = Session::new();
    let (g, made) = allocations_of(|| ladder(100).build(&mut s));
    let inputs = g
        .topo_order()
        .into_iter()
        .filter(|&n| g.node(n).kind == NodeKind::Input)
        .count() as u64;
    eprintln!("100-layer ladder build: {made} allocations, {inputs} inputs");
    assert!(
        made <= LADDER_BUILD,
        "the 100-layer ladder build made {made} allocations over {inputs} inputs"
    );
}

/// A parsed container borrows its sections from the bytes it was
/// parsed from: the section table and the section list, whatever the
/// payloads weigh. While each section was copied into a shared buffer of
/// its own, a two-section `pypmc dump` bundle cost 6 at either size
/// (2 + 2 per section).
const CONTAINER_PARSE: u64 = 2;

#[test]
fn parsing_a_container_copies_no_section() {
    for layers in [10, 100] {
        let (s, g, rules) = ladder_program(layers);
        let bundle = s.wire_bundle(&g, &rules);
        let (container, made) = allocations_of(|| pypm::wire::Container::parse(&bundle));
        let container = container.expect("bundle parses");
        assert_eq!(container.kinds().count(), 2);
        eprintln!(
            "{layers} layers: parsing a {}-byte bundle made {made} allocations",
            bundle.len()
        );
        assert_eq!(
            made,
            CONTAINER_PARSE,
            "parsing a {}-byte bundle made {made} allocations",
            bundle.len()
        );
    }
}

/// `encode_graph` writes the graph section into a buffer of its own and
/// copies it once, into the container. It copied it three times while
/// both were frozen into shared buffers: the section, the container's
/// buffer, and the container frozen.
#[test]
fn encoding_a_graph_copies_its_payload_once() {
    let (s, g, _) = ladder_program(100);
    let bytes = pypm::wire::encode_graph(&g, &s.syms);
    let payload = pypm::wire::Container::parse(&bytes)
        .expect("graph parses")
        .section(pypm::wire::SECTION_GRAPH)
        .expect("graph section")
        .len();
    let (again, copies) = blocks_of_at_least(payload, || pypm::wire::encode_graph(&g, &s.syms));
    assert_eq!(again, bytes);
    eprintln!("100-layer ladder: a {payload}-byte graph section, copied {copies} times");
    assert_eq!(
        copies, 1,
        "the {payload}-byte graph section was copied {copies} times"
    );
}
