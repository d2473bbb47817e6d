//! The engine session: shared stores for one compilation.
//!
//! DLCB keeps one symbol universe per compilation — operator declarations,
//! interned terms, loaded patterns, tensor attribute handles. A
//! [`Session`] bundles those stores so the matcher, rewriter and
//! partitioner all speak about the same identifiers.

use pypm_core::{PatternStore, SymbolTable, TermStore};
use pypm_dsl::{library, LibraryConfig, RuleSet};
use pypm_graph::{OpRegistry, StdOps, TensorAttrs};

/// Shared state for one compilation: symbols, terms, patterns, the
/// operator registry and the standard operator set. `Clone` copies
/// every store, so a session that has loaded a library and seen no
/// graph can stand as a template: `pypmc serve` clones one per request
/// rather than compiling many graphs into one.
///
/// # Examples
///
/// ```
/// use pypm_engine::Session;
/// use pypm_dsl::LibraryConfig;
///
/// let mut session = Session::new();
/// let rules = session.load_library(LibraryConfig::both());
/// assert!(rules.find("MHA").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    /// Identifier interners and the signature Σ.
    pub syms: SymbolTable,
    /// Hash-consed terms (the term views of graphs).
    pub terms: TermStore,
    /// Hash-consed patterns.
    pub pats: PatternStore,
    /// Operator classes and shape rules.
    pub registry: OpRegistry,
    /// The standard operator set.
    pub ops: StdOps,
    /// Tensor attribute handles (`rank`, `eltType`, …).
    pub tattrs: TensorAttrs,
}

impl Session {
    /// Creates a session with the standard operator set declared.
    pub fn new() -> Self {
        let mut syms = SymbolTable::new();
        let mut registry = OpRegistry::new();
        let ops = StdOps::declare(&mut registry, &mut syms);
        let tattrs = TensorAttrs::intern(&mut syms);
        Session {
            syms,
            terms: TermStore::new(),
            pats: PatternStore::new(),
            registry,
            ops,
            tattrs,
        }
    }

    /// Builds the paper's pattern library into this session — the
    /// engine-side equivalent of "DLCB dynamically loads and parses a
    /// user-specified set of pattern binaries" (§2.4).
    pub fn load_library(&mut self, cfg: LibraryConfig) -> RuleSet {
        library::build_library_into(cfg, &mut self.syms, &mut self.pats, &self.ops, &self.tattrs)
    }

    /// Encodes a graph into a `PYPMWIRE` container against this
    /// session's symbol table.
    pub fn wire_graph(&self, graph: &pypm_graph::Graph) -> Vec<u8> {
        pypm_wire::encode_graph(graph, &self.syms)
    }

    /// Decodes a `PYPMWIRE` graph container into this session,
    /// re-interning operator names (arities are checked against any
    /// operators already declared here).
    ///
    /// # Errors
    ///
    /// Propagates decode failures; never panics on corrupt input.
    pub fn load_wire_graph(
        &mut self,
        data: &[u8],
    ) -> Result<pypm_graph::Graph, pypm_wire::WireError> {
        pypm_wire::decode_graph(data, &mut self.syms)
    }

    /// Encodes a graph and a rule set into one `PYPMWIRE` container —
    /// the payload `pypmc dump` writes.
    pub fn wire_bundle(&self, graph: &pypm_graph::Graph, rules: &RuleSet) -> Vec<u8> {
        pypm_wire::encode_bundle(graph, rules, &self.syms, &self.pats)
    }

    /// Decodes a `PYPMWIRE` bundle (graph + rule set) into this session.
    ///
    /// # Errors
    ///
    /// Propagates decode failures; never panics on corrupt input.
    pub fn load_wire_bundle(
        &mut self,
        data: &[u8],
    ) -> Result<(pypm_graph::Graph, RuleSet), pypm_wire::WireError> {
        pypm_wire::decode_bundle(data, &mut self.syms, &mut self.pats)
    }

    /// Loads a rule set from either a `PYPMWIRE` container or its
    /// portable binary encoding, the raw `PYPMB1` bytes the frontend
    /// emits (§2.4; dispatched on the magic).
    ///
    /// # Errors
    ///
    /// Propagates decode failures; never panics on corrupt input.
    pub fn load_wire_ruleset(&mut self, data: &[u8]) -> Result<RuleSet, pypm_wire::WireError> {
        pypm_wire::decode_ruleset(data, &mut self.syms, &mut self.pats)
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_declares_std_ops() {
        let s = Session::new();
        assert!(s.syms.find_op("MatMul").is_some());
        assert!(s.syms.find_op("FMHA").is_some());
        assert_eq!(s.syms.arity(s.ops.fmha), 3);
    }

    #[test]
    fn wire_helpers_roundtrip_graph_and_rules() {
        use pypm_graph::{DType, Graph};
        let mut s = Session::new();
        let rules = s.load_library(LibraryConfig::both());
        let mut g = Graph::new();
        let a = g.input(&mut s.syms, DType::F32, [4, 4]);
        let b = g.input(&mut s.syms, DType::F32, [4, 4]);
        let meta = g.node(a).meta;
        let mm = g
            .op_with_meta(s.syms.find_op("MatMul").unwrap(), vec![a, b], vec![], meta)
            .unwrap();
        g.mark_output(mm);

        let blob = s.wire_bundle(&g, &rules);
        let mut s2 = Session::new();
        let (g2, rules2) = s2.load_wire_bundle(&blob).unwrap();
        assert_eq!(g2.outputs(), g.outputs(), "node ids survive the reload");
        assert_eq!(rules2.len(), rules.len());
        assert_eq!(
            s2.wire_graph(&g2),
            s.wire_graph(&g),
            "canonical reload re-encodes byte-identically"
        );

        // The single-section helpers agree with the bundle path.
        let g3 = s2.load_wire_graph(&s.wire_graph(&g)).unwrap();
        assert_eq!(g3.outputs(), g.outputs());
        assert!(
            s2.load_wire_ruleset(&blob[..4]).is_err(),
            "corrupt input errs"
        );
    }

    #[test]
    fn load_library_and_binary_roundtrip() {
        let mut s = Session::new();
        let rs = s.load_library(LibraryConfig::all());
        let bin = pypm_dsl::binary::encode(&rs, &s.syms, &s.pats);
        let mut s2 = Session::new();
        let rs2 = s2.load_wire_ruleset(&bin).unwrap();
        assert_eq!(rs.len(), rs2.len());
    }
}
