//! `PYPMWIRE` — the versioned wire format for the PyPM reproduction,
//! plus the content-addressed compile-result cache built on top of it.
//!
//! The paper's pipeline crosses a process boundary twice: the frontend
//! hands rule sets to DLCB as "a portable serialized binary format"
//! (§2.4, the `PYPMB1` encoding in `pypm_dsl::binary`), and the `pypmc
//! serve` session server hands `pypm.pipeline.v1` reports back to
//! clients. This crate promotes both into one self-describing container:
//!
//! ```text
//! magic    "PYPMWIRE"                       (8 bytes)
//! u16      format version (currently 1)     (little-endian)
//! u16      section count
//! entries  kind u32, length u32, fnv1a-64 checksum u64   (× count)
//! bytes    section payloads, concatenated in table order
//! ```
//!
//! Three section kinds exist today: [`SECTION_GRAPH`] (a canonical
//! computation-graph encoding), [`SECTION_RULESET`] (the legacy
//! `PYPMB1` bytes, verbatim, behind the new header) and
//! [`SECTION_REPORT`] (a `pypm.pipeline.v1` JSON document). Every
//! identifier is carried by *name* and re-interned on load, so an
//! artifact written against one session loads into a completely fresh
//! one — and, because the graph encoding enumerates live nodes densely
//! in allocation order, a canonical reload assigns *identical node
//! ids*.
//!
//! ## Compatibility policy
//!
//! The version field is bumped on any layout change; decoders reject
//! versions they do not understand ([`WireError::UnsupportedVersion`])
//! rather than guessing. Unknown *section kinds* are skipped, so older
//! readers tolerate newer writers as long as the container version
//! matches. Raw `PYPMB1` rule-set binaries (no `PYPMWIRE` header)
//! remain loadable through [`decode_ruleset`] — the legacy-read path.
//!
//! ## Robustness
//!
//! Every decoder in this crate is panic-free on arbitrary input, the
//! same contract as `pypm_dsl::binary::decode`, because both read
//! through one bounds-checked cursor, [`pypm_core::codec::Cursor`]:
//! count fields are validated against the remaining payload before any
//! allocation, the per-section checksums make bit flips an
//! [`WireError::Corrupt`] error instead of a silent misparse, and the
//! graph decoder accepts
//! only backward input references (so decoded graphs are acyclic by
//! construction). The corruption property tests in
//! `tests/corruption.rs` flip bits and truncate encoded zoo artifacts
//! and require `Err`, never a panic or abort.
//!
//! ## The result cache
//!
//! [`cache::ResultCache`] keys compile results by a stable content
//! hash ([`cache::CacheKey`]) over the *encoded* graph and rule-set
//! bytes plus every semantic knob (policy, library configuration,
//! matcher backend). Identical compile requests return the stored report —
//! byte-identical to a cold compile — from an in-memory LRU, or from
//! an on-disk store that survives server restarts (`pypmc serve
//! --cache-dir`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod container;
mod graph_codec;

pub use container::{
    fnv1a64, Container, ContainerWriter, MAGIC, MAX_SECTIONS, SECTION_GRAPH, SECTION_REPORT,
    SECTION_RULESET, VERSION,
};

use pypm_core::codec::ReadError;
use pypm_core::{Budget, PatternStore, SymbolTable};
use pypm_dsl::binary::BinError;
use pypm_dsl::RuleSet;
use pypm_graph::Graph;
use std::fmt;

/// Errors from decoding `PYPMWIRE` containers and their sections.
///
/// Mirrors the [`BinError`] vocabulary of the legacy rule-set format:
/// every variant is a clean `Err`, never a panic — a long-lived server
/// must survive garbage bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload does not start with the `PYPMWIRE` magic (and is not
    /// a recognizable legacy artifact either, where a legacy path
    /// exists).
    BadMagic,
    /// The container declares a format version this decoder does not
    /// understand.
    UnsupportedVersion {
        /// The declared version.
        got: u16,
    },
    /// Ran out of bytes mid-structure.
    Truncated,
    /// A section payload does not match its table checksum — the bytes
    /// were corrupted in transit or on disk.
    Corrupt {
        /// The section kind whose checksum failed.
        kind: u32,
    },
    /// Structurally absurd input no encoder produces: trailing bytes,
    /// overflowing section lengths, duplicate sections, count fields
    /// claiming more elements than the remaining payload could encode,
    /// or forward/self input references in a graph section.
    Malformed {
        /// Human-readable description.
        what: &'static str,
    },
    /// Invalid UTF-8 in a string.
    BadString,
    /// The container carries no section of the kind the caller needs.
    MissingSection {
        /// The requested section kind.
        kind: u32,
    },
    /// A graph section conflicts with the loading session's signature
    /// (same operator name, different arity).
    Inconsistent {
        /// Human-readable description.
        what: String,
    },
    /// A rule-set section failed to decode.
    Ruleset(BinError),
    /// The compile budget threaded through a budgeted encode/decode
    /// was exhausted mid-codec. The caller maps this to its own
    /// deadline-exceeded vocabulary; the input itself may be fine.
    BudgetExceeded,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not a PYPMWIRE container"),
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported PYPMWIRE version {got} (this reader speaks 1)"
                )
            }
            WireError::Truncated => write!(f, "PYPMWIRE container is truncated"),
            WireError::Corrupt { kind } => {
                write!(
                    f,
                    "section kind {kind} failed its checksum (corrupt payload)"
                )
            }
            WireError::Malformed { what } => write!(f, "malformed PYPMWIRE container: {what}"),
            WireError::BadString => write!(f, "invalid utf-8 in PYPMWIRE container"),
            WireError::MissingSection { kind } => {
                write!(f, "container has no section of kind {kind}")
            }
            WireError::Inconsistent { what } => {
                write!(f, "inconsistent PYPMWIRE graph section: {what}")
            }
            WireError::Ruleset(e) => write!(f, "rule-set section: {e}"),
            WireError::BudgetExceeded => {
                write!(f, "compile budget exceeded during wire encode/decode")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<BinError> for WireError {
    fn from(e: BinError) -> Self {
        WireError::Ruleset(e)
    }
}

/// A short read is [`WireError::Truncated`]; a count too large for the
/// bytes left is garbage no encoder writes, so it is
/// [`WireError::Malformed`].
impl From<ReadError> for WireError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => WireError::Truncated,
            ReadError::CountTooLarge => WireError::Malformed {
                what: "count exceeds remaining payload",
            },
            ReadError::BadString => WireError::BadString,
        }
    }
}

/// Serializes a graph into a one-section `PYPMWIRE` container.
///
/// The encoding is canonical: live nodes in dense allocation order,
/// operators and attributes carried by name, inputs as backward
/// references. Re-encoding a decoded graph reproduces the bytes
/// exactly, which is what makes the encoding valid cache-key material.
pub fn encode_graph(g: &Graph, syms: &SymbolTable) -> Vec<u8> {
    encode_graph_budgeted(g, syms, None).expect("unbudgeted encode cannot fail")
}

/// [`encode_graph`] with a cooperative [`Budget`]: one step is charged
/// per encoded node, so a whole-request deadline covers result encoding
/// too, not just the rewrite pipeline. With `None` this is exactly
/// [`encode_graph`] and cannot fail.
///
/// # Errors
///
/// [`WireError::BudgetExceeded`] when the budget trips mid-encode.
pub fn encode_graph_budgeted(
    g: &Graph,
    syms: &SymbolTable,
    budget: Option<&Budget>,
) -> Result<Vec<u8>, WireError> {
    let section = graph_codec::encode_section(g, syms, budget)?;
    Ok(ContainerWriter::new()
        .section(SECTION_GRAPH, &section)
        .finish())
}

/// Decodes a graph from a `PYPMWIRE` container, re-interning every
/// operator and attribute name into `syms`.
///
/// # Errors
///
/// Any [`WireError`]; never panics on corrupt input.
pub fn decode_graph(data: &[u8], syms: &mut SymbolTable) -> Result<Graph, WireError> {
    decode_graph_budgeted(data, syms, None)
}

/// [`decode_graph`] with a cooperative [`Budget`]: one step is charged
/// per decoded node, so a request's deadline covers parsing the
/// submitted graph — a hostile or merely enormous payload trips
/// [`WireError::BudgetExceeded`] instead of running unbounded. With
/// `None` this is exactly [`decode_graph`].
///
/// # Errors
///
/// Any [`WireError`]; never panics on corrupt input.
pub fn decode_graph_budgeted(
    data: &[u8],
    syms: &mut SymbolTable,
    budget: Option<&Budget>,
) -> Result<Graph, WireError> {
    let container = Container::parse(data)?;
    let section = container
        .section(SECTION_GRAPH)
        .ok_or(WireError::MissingSection {
            kind: SECTION_GRAPH,
        })?;
    graph_codec::decode_section(section, syms, budget)
}

/// Serializes a rule set into a one-section `PYPMWIRE` container. The
/// section payload is the legacy `PYPMB1` encoding, verbatim — the new
/// header subsumes the old format rather than forking it.
pub fn encode_ruleset(rs: &RuleSet, syms: &SymbolTable, pats: &PatternStore) -> Vec<u8> {
    let section = pypm_dsl::binary::encode(rs, syms, pats);
    ContainerWriter::new()
        .section(SECTION_RULESET, &section)
        .finish()
}

/// Decodes a rule set from either a `PYPMWIRE` container or a raw
/// legacy `PYPMB1` binary (the legacy-read path: artifacts written
/// before the container format existed keep loading).
///
/// # Errors
///
/// Any [`WireError`]; never panics on corrupt input.
pub fn decode_ruleset(
    data: &[u8],
    syms: &mut SymbolTable,
    pats: &mut PatternStore,
) -> Result<RuleSet, WireError> {
    if data.starts_with(MAGIC) {
        let container = Container::parse(data)?;
        let section = container
            .section(SECTION_RULESET)
            .ok_or(WireError::MissingSection {
                kind: SECTION_RULESET,
            })?;
        return Ok(pypm_dsl::binary::decode(section, syms, pats)?);
    }
    // Legacy path: a bare PYPMB1 payload (its decoder rejects anything
    // else with its own BadMagic).
    Ok(pypm_dsl::binary::decode(data, syms, pats)?)
}

/// Serializes a graph and its rule set into one two-section container —
/// the `pypmc dump` artifact.
pub fn encode_bundle(g: &Graph, rs: &RuleSet, syms: &SymbolTable, pats: &PatternStore) -> Vec<u8> {
    let graph = graph_codec::encode_section(g, syms, None).expect("unbudgeted encode cannot fail");
    let rules = pypm_dsl::binary::encode(rs, syms, pats);
    ContainerWriter::new()
        .section(SECTION_GRAPH, &graph)
        .section(SECTION_RULESET, &rules)
        .finish()
}

/// Decodes a `pypmc dump` bundle: the graph and the rule set, both
/// re-interned into the supplied stores.
///
/// # Errors
///
/// Any [`WireError`]; never panics on corrupt input.
pub fn decode_bundle(
    data: &[u8],
    syms: &mut SymbolTable,
    pats: &mut PatternStore,
) -> Result<(Graph, RuleSet), WireError> {
    let container = Container::parse(data)?;
    let graph_section = container
        .section(SECTION_GRAPH)
        .ok_or(WireError::MissingSection {
            kind: SECTION_GRAPH,
        })?;
    let rules_section = container
        .section(SECTION_RULESET)
        .ok_or(WireError::MissingSection {
            kind: SECTION_RULESET,
        })?;
    let g = graph_codec::decode_section(graph_section, syms, None)?;
    let rs = pypm_dsl::binary::decode(rules_section, syms, pats)?;
    Ok((g, rs))
}

/// Wraps a `pypm.pipeline.v1` JSON document in a one-section container
/// — the on-disk representation of a cached compile result, so a
/// corrupted cache file fails its checksum instead of serving garbage.
pub fn encode_report(json: &str) -> Vec<u8> {
    ContainerWriter::new()
        .section(SECTION_REPORT, json.as_bytes())
        .finish()
}

/// Extracts the JSON document from a report container.
///
/// # Errors
///
/// Any [`WireError`]; never panics on corrupt input.
pub fn decode_report(data: &[u8]) -> Result<String, WireError> {
    let container = Container::parse(data)?;
    let section = container
        .section(SECTION_REPORT)
        .ok_or(WireError::MissingSection {
            kind: SECTION_REPORT,
        })?;
    std::str::from_utf8(section)
        .map(str::to_owned)
        .map_err(|_| WireError::BadString)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_and_rejects_corruption() {
        let json = "{\"schema\": \"pypm.pipeline.v1\", \"rewrites_fired\": 3}\n";
        let bytes = encode_report(json);
        assert_eq!(decode_report(&bytes).unwrap(), json);
        // Any single bit flip must be caught (magic, version, table or
        // checksum — never a silent misparse).
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x10;
            assert!(
                decode_report(&bad).is_err(),
                "flip at byte {i} slipped through"
            );
        }
        for cut in 0..bytes.len() {
            assert!(
                decode_report(&bytes[..cut]).is_err(),
                "cut at {cut} slipped through"
            );
        }
    }

    #[test]
    fn ruleset_wire_and_legacy_paths_agree() {
        let mut fe = pypm_dsl::Frontend::new();
        let neg = fe.syms.op("Neg", 1);
        fe.pattern("DoubleNeg", |p| {
            let x = p.param("x");
            let px = p.v(x);
            let inner = p.op(neg, vec![px]);
            p.op(neg, vec![inner])
        });
        let x = fe.syms.var("x");
        fe.rule("DoubleNeg", "flip", |r| r.ret(pypm_dsl::Rhs::Var(x)));
        let (tmp_syms, tmp_pats, rs) = fe.serialize().expect("test rule set is valid");
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        let legacy = pypm_dsl::binary::encode(&rs, &tmp_syms, &tmp_pats);
        let wire = encode_ruleset(&rs, &tmp_syms, &tmp_pats);
        let a = decode_ruleset(&legacy, &mut syms, &mut pats).unwrap();
        let b = decode_ruleset(&wire, &mut syms, &mut pats).unwrap();
        assert_eq!(
            pypm_dsl::text::print_ruleset(&a, &syms, &pats),
            pypm_dsl::text::print_ruleset(&b, &syms, &pats),
        );
    }

    /// A symbol table that has built a graph: its input's fresh
    /// constant is spelled `%in1`.
    fn after_a_graph() -> (SymbolTable, Graph, pypm_core::Symbol) {
        let mut syms = SymbolTable::new();
        let mut g = Graph::new();
        let input = g.input(&mut syms, pypm_graph::DType::F32, [2]);
        g.mark_output(input);
        let fresh = g.node(input).op;
        assert_eq!(syms.op_name(fresh), "%in1");
        (syms, g, fresh)
    }

    #[test]
    fn a_decoded_operator_spelled_like_a_fresh_constant_is_its_own() {
        for arity in [0, 2] {
            let (mut syms, g, fresh) = after_a_graph();
            // Another session declares `%in1` and applies it.
            let mut other = SymbolTable::new();
            let named = other.op("%in1", arity);
            let mut h = Graph::new();
            let leaves: Vec<_> = (0..arity)
                .map(|_| h.input(&mut other, pypm_graph::DType::F32, [2]))
                .collect();
            let meta = h.meta(pypm_graph::DType::F32, [2]);
            let root = h.op_with_meta(named, &leaves, [], meta).unwrap();
            h.mark_output(root);
            let decoded = decode_graph(&encode_graph(&h, &other), &mut syms)
                .unwrap_or_else(|e| panic!("arity {arity}: {e}"));
            let op = decoded.node(decoded.outputs()[0]).op;
            assert_ne!(op, fresh, "arity {arity}");
            assert_eq!(syms.arity(op), arity);
            assert_eq!(syms.op_name(op), "%in1");
            // As terms, the input and the decoded node are two.
            let (registry, mut terms) =
                (pypm_graph::OpRegistry::new(), pypm_core::TermStore::new());
            let mine = pypm_graph::TermView::build(&g, &mut syms, &mut terms, &registry);
            let theirs = pypm_graph::TermView::build(&decoded, &mut syms, &mut terms, &registry);
            assert_ne!(
                mine.term_of(g.outputs()[0]),
                theirs.term_of(decoded.outputs()[0]),
                "arity {arity}"
            );
        }
    }

    #[test]
    fn a_rule_set_operator_spelled_like_a_fresh_constant_is_its_own() {
        for arity in [0, 2] {
            let (mut syms, _g, fresh) = after_a_graph();
            let mut fe = pypm_dsl::Frontend::new();
            let named = fe.syms.op("%in1", arity);
            let neg = fe.syms.op("Neg", 1);
            fe.pattern("NegNamed", |p| {
                let args = (0..arity)
                    .map(|i| {
                        let x = p.param(&format!("x{i}"));
                        p.v(x)
                    })
                    .collect();
                let inner = p.op(named, args);
                p.op(neg, vec![inner])
            });
            let (fe_syms, fe_pats, rs) = fe.serialize().expect("test rule set is valid");
            let mut pats = PatternStore::new();
            for blob in [
                encode_ruleset(&rs, &fe_syms, &fe_pats),
                pypm_dsl::binary::encode(&rs, &fe_syms, &fe_pats),
            ] {
                decode_ruleset(&blob, &mut syms, &mut pats)
                    .unwrap_or_else(|e| panic!("arity {arity}: {e}"));
                let op = syms.find_op("%in1").expect("declared by the rule set");
                assert_ne!(op, fresh, "arity {arity}");
                assert_eq!(syms.arity(op), arity);
            }
        }
    }

    #[test]
    fn missing_sections_are_reported_not_guessed() {
        let report = encode_report("{}");
        let mut syms = SymbolTable::new();
        let mut pats = PatternStore::new();
        assert_eq!(
            decode_graph(&report, &mut syms).err(),
            Some(WireError::MissingSection {
                kind: SECTION_GRAPH
            })
        );
        assert_eq!(
            decode_ruleset(&report, &mut syms, &mut pats).err(),
            Some(WireError::MissingSection {
                kind: SECTION_RULESET
            })
        );
    }
}
