//! The graph section: a canonical, portable encoding of a computation
//! graph.
//!
//! Layout (all integers little-endian, strings `u32` length + UTF-8):
//!
//! ```text
//! u32     node count N                  (live nodes, canonical order)
//!   u8    node kind                     (0 input, 1 op, 2 opaque)
//!   str   operator name, u32 arity      (op and opaque nodes only)
//!   u32   input count, u32 × n          (indices < this node's index)
//!   u32   attr count, (str, i64) × n    (op nodes only)
//!   u8    dtype code
//!   u32   rank, i64 × rank              (dimension extents)
//! u32     output count, u32 × n         (indices < N, no duplicates)
//! ```
//!
//! The canonical order is a deterministic topological sort (Kahn's
//! algorithm, always emitting the smallest-id ready node). For a graph
//! whose allocation order is already topological — every freshly built
//! graph, and every decoded graph — that *is* allocation order, which
//! gives the two properties the format is built around: a canonical
//! reload assigns identical node ids, and `encode(decode(b)) == b`.
//! Input nodes carry no operator name: their fresh-constant symbols are
//! session-local and are re-minted by [`pypm_graph::Graph::input`] on
//! decode, so the bytes are independent of the encoding session's
//! history — the property that makes them valid cache-key material.
//!
//! Inputs are *backward references by construction*: the decoder
//! rejects forward or self references, so a decoded graph is acyclic
//! without a separate validation pass.
//!
//! Reads go through [`pypm_core::codec::Cursor`], the bounds-checked
//! cursor the `PYPMB1` rule-set decoder reads through too. Each count is
//! checked against the bytes left at its element's smallest encoding
//! (a node is at least 10 bytes, an attribute 13) before anything is
//! allocated for it; one that could not fit is
//! [`WireError::Malformed`].

use crate::WireError;
use pypm_core::codec::{Cursor, Put};
use pypm_core::{Budget, SymbolTable};
use pypm_graph::{DType, Graph, NodeId, NodeKind};
use std::collections::BinaryHeap;

const KIND_INPUT: u8 = 0;
const KIND_OP: u8 = 1;
const KIND_OPAQUE: u8 = 2;

/// The live nodes in canonical order: Kahn's algorithm over dataflow
/// edges, smallest id first. Equals allocation order whenever that
/// order is already topological; otherwise (a rewritten graph, where
/// `replace` points early users at late replacement nodes) it is the
/// unique deterministic schedule closest to it.
fn canonical_order(g: &Graph) -> Vec<NodeId> {
    let allocated = g.allocated_count();
    let mut indegree = vec![0usize; allocated];
    let mut live = 0usize;
    for n in g.allocated_since(0) {
        if !g.is_alive(n) {
            continue;
        }
        live += 1;
        indegree[n.index()] = g.inputs(n).len();
    }
    let mut ready: BinaryHeap<std::cmp::Reverse<usize>> = g
        .allocated_since(0)
        .into_iter()
        .filter(|&n| g.is_alive(n) && indegree[n.index()] == 0)
        .map(|n| std::cmp::Reverse(n.index()))
        .collect();
    let mut order = Vec::with_capacity(live);
    let by_index: Vec<NodeId> = g.allocated_since(0);
    while let Some(std::cmp::Reverse(i)) = ready.pop() {
        let n = by_index[i];
        order.push(n);
        for user in g.users_of(n) {
            indegree[user.index()] -= 1;
            if indegree[user.index()] == 0 {
                ready.push(std::cmp::Reverse(user.index()));
            }
        }
    }
    debug_assert_eq!(order.len(), live, "live graph has a cycle?");
    order
}

/// Charges one codec step per node against an optional budget; `None`
/// never trips. Kept tiny so the per-node cost of a budgeted codec is
/// one relaxed atomic add (see `Budget::charge`).
fn charge_node(budget: Option<&Budget>) -> Result<(), WireError> {
    match budget {
        Some(b) if !b.charge(1) => Err(WireError::BudgetExceeded),
        _ => Ok(()),
    }
}

/// Encodes the graph section payload (no container header), charging
/// one budget step per node.
pub(crate) fn encode_section(
    g: &Graph,
    syms: &SymbolTable,
    budget: Option<&Budget>,
) -> Result<Vec<u8>, WireError> {
    let order = canonical_order(g);
    let mut dense = vec![u32::MAX; g.allocated_count()];
    for (i, &n) in order.iter().enumerate() {
        dense[n.index()] = i as u32;
    }
    let mut buf = Vec::new();
    buf.put_u32_le(order.len() as u32);
    for &n in &order {
        charge_node(budget)?;
        let node = g.node(n);
        match node.kind {
            NodeKind::Input => buf.put_u8(KIND_INPUT),
            NodeKind::Op => buf.put_u8(KIND_OP),
            NodeKind::Opaque => buf.put_u8(KIND_OPAQUE),
        }
        if node.kind != NodeKind::Input {
            buf.put_str(syms.op_name(node.op));
            buf.put_u32_le(syms.arity(node.op) as u32);
        }
        let inputs = g.inputs(n);
        buf.put_u32_le(inputs.len() as u32);
        for &i in inputs {
            buf.put_u32_le(dense[i.index()]);
        }
        if node.kind == NodeKind::Op {
            let attrs = g.attrs(n);
            buf.put_u32_le(attrs.len() as u32);
            for &(attr, value) in attrs {
                buf.put_str(syms.attr_name(attr));
                buf.put_i64_le(value);
            }
        }
        buf.put_u8(node.meta.dtype.code() as u8);
        let dims = g.shapes().dims(node.meta.shape);
        buf.put_u32_le(dims.len() as u32);
        for &d in dims {
            buf.put_i64_le(d);
        }
    }
    let outputs: Vec<u32> = g
        .outputs()
        .iter()
        .filter(|&&o| g.is_alive(o))
        .map(|&o| dense[o.index()])
        .collect();
    buf.put_u32_le(outputs.len() as u32);
    for o in outputs {
        buf.put_u32_le(o);
    }
    Ok(buf)
}

/// Decodes a graph section payload, re-interning operator and attribute
/// names into `syms` and charging one budget step per node.
pub(crate) fn decode_section(
    data: &[u8],
    syms: &mut SymbolTable,
    budget: Option<&Budget>,
) -> Result<Graph, WireError> {
    let mut r = Cursor::new(data);
    let mut g = Graph::new();
    // A node occupies at least kind + input count + dtype + rank bytes;
    // a count claiming more nodes than that is garbage, rejected before
    // any allocation.
    let node_count = r.count(10)?;
    let mut ids: Vec<NodeId> = Vec::with_capacity(node_count);
    // A node's inputs and extents, read here and copied once into the
    // graph's edge arena and — if the graph holds no such shape yet —
    // its shape table.
    let mut inputs: Vec<NodeId> = Vec::new();
    let mut dims: Vec<i64> = Vec::new();
    let mut attrs = Vec::new();
    for index in 0..node_count {
        charge_node(budget)?;
        let kind = r.u8()?;
        // The operator and its arity; an input reads nothing.
        let (op, arity) = if kind != KIND_INPUT {
            let name = r.str()?;
            let arity = r.u32()? as usize;
            let sym = match syms.find_op(name) {
                Some(sym) => {
                    if syms.arity(sym) != arity {
                        return Err(WireError::Inconsistent {
                            what: format!(
                                "operator {name} declared with arity {arity}, session has {}",
                                syms.arity(sym)
                            ),
                        });
                    }
                    sym
                }
                None => syms.op(name, arity),
            };
            (Some(sym), arity)
        } else {
            (None, 0)
        };
        let input_count = r.count(4)?;
        if input_count != arity {
            return Err(WireError::Malformed {
                what: if kind == KIND_INPUT {
                    "input node with inputs"
                } else {
                    "input count differs from the operator's arity"
                },
            });
        }
        inputs.clear();
        for _ in 0..input_count {
            let i = r.u32()? as usize;
            if i >= index {
                return Err(WireError::Malformed {
                    what: "forward or self input reference",
                });
            }
            inputs.push(ids[i]);
        }
        attrs.clear();
        if kind == KIND_OP {
            let attr_count = r.count(13)?;
            for _ in 0..attr_count {
                let name = r.str()?;
                let value = r.i64()?;
                attrs.push((syms.attr(name), value));
            }
        }
        let dtype = DType::from_code(i64::from(r.u8()?))
            .ok_or(WireError::Malformed { what: "dtype code" })?;
        let rank = r.count(8)?;
        dims.clear();
        for _ in 0..rank {
            dims.push(r.i64()?);
        }
        let id = match kind {
            KIND_INPUT => g.input(syms, dtype, &dims),
            KIND_OP => {
                let meta = g.meta(dtype, &dims);
                g.op_with_meta(op.expect("op has a symbol"), &inputs, &attrs, meta)
                    .map_err(|_| WireError::Malformed { what: "dead input" })?
            }
            KIND_OPAQUE => {
                let meta = g.meta(dtype, &dims);
                g.opaque(syms, op.expect("opaque has a symbol"), &inputs, meta)
                    .map_err(|_| WireError::Malformed { what: "dead input" })?
            }
            _ => {
                return Err(WireError::Malformed {
                    what: "node kind tag",
                })
            }
        };
        ids.push(id);
    }
    let output_count = r.count(4)?;
    let mut seen = vec![false; node_count];
    for _ in 0..output_count {
        let o = r.u32()? as usize;
        if o >= node_count {
            return Err(WireError::Malformed {
                what: "output out of range",
            });
        }
        if seen[o] {
            return Err(WireError::Malformed {
                what: "duplicate output",
            });
        }
        seen[o] = true;
        g.mark_output(ids[o]);
    }
    if !r.rest().is_empty() {
        return Err(WireError::Malformed {
            what: "trailing bytes in graph section",
        });
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_graph, encode_graph};

    /// A little diamond with every node kind: two inputs, a custom op,
    /// an opaque node, attrs on the op.
    fn build(syms: &mut SymbolTable) -> Graph {
        let mut g = Graph::new();
        let a = g.input(syms, DType::F32, [8, 4]);
        let b = g.input(syms, DType::F16, [4]);
        let mul = syms.op("TestMul", 2);
        let ext = syms.op("TestExternal", 1);
        let meta = g.meta(DType::F32, [8, 4]);
        let m = g
            .op_with_meta(
                mul,
                vec![a, b],
                vec![(syms.attr("stride"), 2), (syms.attr("pad"), -1)],
                meta,
            )
            .unwrap();
        let meta = g.meta(DType::Bool, []);
        let q = g.opaque(syms, ext, vec![m], meta).unwrap();
        g.mark_output(q);
        g.mark_output(m);
        g
    }

    #[test]
    fn roundtrip_preserves_structure_ids_and_bytes() {
        let mut syms = SymbolTable::new();
        let g = build(&mut syms);
        let bytes = encode_graph(&g, &syms);

        let mut fresh = SymbolTable::new();
        let g2 = decode_graph(&bytes, &mut fresh).unwrap();
        assert_eq!(g2.live_count(), g.live_count());
        assert_eq!(g2.outputs(), g.outputs(), "node ids survive the reload");
        for (a, b) in g.topo_order().iter().zip(g2.topo_order().iter()) {
            assert_eq!(a, b);
            assert_eq!(g.node(*a).kind, g2.node(*b).kind);
            let (m, m2) = (g.node(*a).meta, g2.node(*b).meta);
            assert_eq!(m.dtype, m2.dtype);
            assert_eq!(g.shapes().dims(m.shape), g2.shapes().dims(m2.shape));
            assert_eq!(g.inputs(*a), g2.inputs(*b));
        }
        // Ops and attrs are re-interned by name.
        let m = g2.outputs()[1];
        assert_eq!(fresh.op_name(g2.node(m).op), "TestMul");
        assert_eq!(g2.attr(m, fresh.attr("pad")), Some(-1));
        // Canonical: re-encoding the decoded graph reproduces the bytes.
        assert_eq!(encode_graph(&g2, &fresh), bytes);
        g2.validate().expect("decoded graph validates");
    }

    #[test]
    fn decode_into_a_warm_session_reuses_interned_ops() {
        let mut syms = SymbolTable::new();
        let g = build(&mut syms);
        let bytes = encode_graph(&g, &syms);
        let ops_before = syms.op_count();
        // Same session: operators resolve to the existing symbols; only
        // the fresh constants of the two inputs and the opaque node are
        // re-minted.
        let g2 = decode_graph(&bytes, &mut syms).unwrap();
        assert_eq!(g2.node(g2.outputs()[1]).op, g.node(g.outputs()[1]).op);
        assert_eq!(syms.op_count(), ops_before + 3);
    }

    #[test]
    fn arity_conflicts_are_inconsistent_not_panics() {
        let mut syms = SymbolTable::new();
        let g = build(&mut syms);
        let bytes = encode_graph(&g, &syms);
        let mut hostile = SymbolTable::new();
        hostile.op("TestMul", 3); // conflicting arity
        assert!(matches!(
            decode_graph(&bytes, &mut hostile),
            Err(WireError::Inconsistent { .. })
        ));
    }

    #[test]
    fn a_rewritten_graph_still_encodes_a_valid_schedule() {
        // replace() points early users at late nodes, so allocation
        // order is no longer topological — the canonical order must
        // still produce only backward references.
        let mut syms = SymbolTable::new();
        let mut g = Graph::new();
        let a = g.input(&mut syms, DType::F32, [4]);
        let f = syms.op("TestF", 1);
        let h = syms.op("TestH", 1);
        let meta = g.node(a).meta;
        let fa = g.op_with_meta(f, vec![a], vec![], meta).unwrap();
        let top = g.op_with_meta(h, vec![fa], vec![], meta).unwrap();
        g.mark_output(top);
        let repl = g.op_with_meta(h, vec![a], vec![], meta).unwrap();
        g.replace(fa, repl).unwrap();
        g.gc();
        let bytes = encode_graph(&g, &syms);
        let mut fresh = SymbolTable::new();
        let g2 = decode_graph(&bytes, &mut fresh).unwrap();
        assert_eq!(g2.live_count(), g.live_count());
        g2.validate().expect("decoded rewritten graph validates");
        // And the decoded graph is canonical from here on.
        assert_eq!(encode_graph(&g2, &fresh), bytes);
    }

    #[test]
    fn budgeted_codec_trips_instead_of_running_unbounded() {
        use crate::{decode_graph_budgeted, encode_graph_budgeted};
        let mut syms = SymbolTable::new();
        let g = build(&mut syms);
        // A generous budget passes and produces the canonical bytes.
        let roomy = Budget::new(None, Some(1_000));
        let bytes = encode_graph_budgeted(&g, &syms, Some(&roomy)).unwrap();
        assert_eq!(bytes, encode_graph(&g, &syms));
        assert!(roomy.steps() >= g.live_count() as u64);
        // An exhausted budget trips the encode…
        let spent = Budget::new(None, Some(1));
        assert!(spent.charge(1));
        assert_eq!(
            encode_graph_budgeted(&g, &syms, Some(&spent)).err(),
            Some(WireError::BudgetExceeded)
        );
        // …and the decode, without touching the error vocabulary of
        // corrupt input.
        let mut fresh = SymbolTable::new();
        let spent = Budget::new(None, Some(1));
        assert!(spent.charge(1));
        assert_eq!(
            decode_graph_budgeted(&bytes, &mut fresh, Some(&spent)).err(),
            Some(WireError::BudgetExceeded)
        );
        let mut fresh = SymbolTable::new();
        let g2 = decode_graph_budgeted(&bytes, &mut fresh, Some(&roomy)).unwrap();
        assert_eq!(g2.live_count(), g.live_count());
    }

    #[test]
    fn hostile_graph_sections_are_rejected_cleanly() {
        let mut syms = SymbolTable::new();
        // An absurd node count against a tiny payload.
        let mut buf = Vec::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_section(&buf, &mut syms, None),
            Err(WireError::Malformed { .. })
        ));
        // A forward input reference.
        let mut buf = Vec::new();
        buf.put_u32_le(1); // one node
        buf.put_u8(KIND_OP);
        buf.put_str("TestLoop");
        buf.put_u32_le(1); // arity
        buf.put_u32_le(1); // one input…
        buf.put_u32_le(0); // …itself
        assert_eq!(
            decode_section(&buf, &mut syms, None).err(),
            Some(WireError::Malformed {
                what: "forward or self input reference"
            })
        );
    }

    /// A checksummed container whose graph is two `[4, 4]` inputs and
    /// one `op` node (declared at `arity`, with `attrs`) reading the
    /// first `reads` of them, marked as the output.
    fn one_op_container(op: &str, arity: u32, reads: u32, attrs: &[(&str, i64)]) -> Vec<u8> {
        let dims = |buf: &mut Vec<u8>| {
            buf.put_u8(DType::F32.code() as u8);
            buf.put_u32_le(2);
            buf.put_i64_le(4);
            buf.put_i64_le(4);
        };
        let mut section = Vec::new();
        section.put_u32_le(3);
        for _ in 0..2 {
            section.put_u8(KIND_INPUT);
            section.put_u32_le(0);
            dims(&mut section);
        }
        section.put_u8(KIND_OP);
        section.put_str(op);
        section.put_u32_le(arity);
        section.put_u32_le(reads);
        for i in 0..reads {
            section.put_u32_le(i);
        }
        section.put_u32_le(attrs.len() as u32);
        for &(name, value) in attrs {
            section.put_str(name);
            section.put_i64_le(value);
        }
        dims(&mut section);
        section.put_u32_le(1);
        section.put_u32_le(2);
        crate::ContainerWriter::new()
            .section(crate::SECTION_GRAPH, &section)
            .finish()
    }

    /// A node's input count is its operator's arity: a binary
    /// contraction reading one tensor used to decode, validate, and
    /// then index past its inputs in the cost model.
    #[test]
    fn an_op_reading_fewer_inputs_than_its_arity_is_malformed() {
        use pypm_graph::{OpRegistry, StdOps};
        let mut syms = SymbolTable::new();
        StdOps::declare(&mut OpRegistry::new(), &mut syms);
        let stride = [("stride", 1)];
        for (op, attrs) in [("MatMul", &[][..]), ("Conv2d", &stride[..])] {
            let whole = one_op_container(op, 2, 2, attrs);
            let g = decode_graph(&whole, &mut syms).expect(op);
            assert_eq!(g.inputs(g.outputs()[0]).len(), 2, "{op}");
            let short = one_op_container(op, 2, 1, attrs);
            assert_eq!(
                decode_graph(&short, &mut syms).err(),
                Some(WireError::Malformed {
                    what: "input count differs from the operator's arity"
                }),
                "{op}"
            );
        }
    }
}
