//! Corruption properties of every `PYPMWIRE` decoder: bit-flipped or
//! truncated containers must come back as a clean `Err` — never a
//! panic, never an abort, and (because every section is checksummed)
//! never a silently wrong decode. The repository-level
//! `wire_roundtrip` suite runs the same drill over encoded *zoo*
//! artifacts; this one drives randomly generated graphs, so the two
//! suites corrupt structurally different byte streams.

use proptest::prelude::*;
use pypm_core::{PatternStore, SymbolTable};
use pypm_dsl::binary::BinError;
use pypm_dsl::{Frontend, Rhs, RuleSet};
use pypm_graph::{DType, Graph};
use pypm_wire::{
    decode_bundle, decode_graph, decode_report, decode_ruleset, encode_graph, ContainerWriter,
    WireError, SECTION_RULESET,
};

/// Deterministically builds a small random-shaped graph: a few inputs,
/// then a chain of ops/opaques each reading previously built nodes.
fn random_graph(seed: u64, syms: &mut SymbolTable) -> Graph {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut g = Graph::new();
    let dtypes = [DType::F32, DType::F16, DType::I64, DType::Bool];
    let mut nodes = Vec::new();
    for _ in 0..(1 + next() % 3) {
        let dt = dtypes[(next() % 4) as usize];
        let rank = (next() % 3) as usize;
        let dims: Vec<i64> = (0..rank).map(|_| (next() % 64) as i64 + 1).collect();
        nodes.push(g.input(syms, dt, dims));
    }
    for i in 0..(1 + next() % 8) {
        let arity = 1 + (next() % 2) as usize;
        let inputs: Vec<_> = (0..arity)
            .map(|_| nodes[(next() as usize) % nodes.len()])
            .collect();
        let meta = g.meta(dtypes[(next() % 4) as usize], [(next() % 16) as i64 + 1]);
        let id = if next() % 4 == 0 {
            let op = syms.op(&format!("RandOpq{arity}_{}", i % 3), arity);
            g.opaque(syms, op, inputs, meta).unwrap()
        } else {
            let op = syms.op(&format!("RandOp{arity}_{}", i % 5), arity);
            let attrs = if next() % 2 == 0 {
                vec![(syms.attr("stride"), (next() % 7) as i64)]
            } else {
                vec![]
            };
            g.op_with_meta(op, inputs, attrs, meta).unwrap()
        };
        nodes.push(id);
    }
    g.mark_output(*nodes.last().expect("at least one node"));
    g
}

/// Applies `flips` bit flips (position and mask derived from each
/// element, mask forced nonzero) and truncates to `cut_ppm` millionths.
fn mangle(blob: &[u8], flips: &[u32], cut_ppm: u32) -> Vec<u8> {
    let cut = (blob.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
    let mut bytes = blob[..cut].to_vec();
    if !bytes.is_empty() {
        for &flip in flips {
            let at = (flip as usize >> 8) % bytes.len();
            bytes[at] ^= (flip as u8) | 1;
        }
    }
    bytes
}

/// A one-rule set authored with the frontend: `P(x, y)` matches
/// `A(B(x), y)` and rewrites it to `x`.
fn small_ruleset() -> (SymbolTable, PatternStore, RuleSet) {
    let mut fe = Frontend::new();
    let a = fe.syms.op("A", 2);
    let b = fe.syms.op("B", 1);
    fe.pattern("P", |p| {
        let x = p.param("x");
        let y = p.param("y");
        let (px, py) = (p.v(x), p.v(y));
        let bx = p.op(b, vec![px]);
        p.op(a, vec![bx, py])
    });
    let x = fe.syms.var("x");
    fe.rule("P", "r", |r| r.ret(Rhs::Var(x)));
    fe.serialize().expect("test rule set is valid")
}

/// A checksum vouches for the bytes, not for what they say: a rule-set
/// section whose checksum is valid but which carries a byte past the
/// end of its `PYPMB1` rule set is refused, through the container and
/// bare.
#[test]
fn a_valid_checksum_over_a_rule_set_with_trailing_bytes_is_refused() {
    let (syms, pats, rs) = small_ruleset();
    let mut section = pypm_dsl::binary::encode(&rs, &syms, &pats);
    section.push(0);
    let container = ContainerWriter::new()
        .section(SECTION_RULESET, &section)
        .finish();
    let trailing = WireError::Ruleset(BinError::Malformed {
        what: "trailing bytes after the rule set",
    });
    for bytes in [&container, &section] {
        let (mut s2, mut p2) = (SymbolTable::new(), PatternStore::new());
        assert_eq!(
            decode_ruleset(bytes, &mut s2, &mut p2).err(),
            Some(trailing.clone())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Graph containers: every strict truncation errors (the section
    /// table's exact-length check makes prefixes unreadable), and every
    /// bit flip errors (nothing escapes the checksum).
    #[test]
    fn graph_corruption_always_errs(
        seed in any::<u64>(),
        flips in proptest::collection::vec(any::<u32>(), 1..16),
        cut_ppm in 0u32..1_000_000,
    ) {
        let mut syms = SymbolTable::new();
        let g = random_graph(seed, &mut syms);
        let blob = encode_graph(&g, &syms);

        let mut fresh = SymbolTable::new();
        let cut = (blob.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        prop_assert!(decode_graph(&blob[..cut], &mut fresh).is_err());

        let flipped = mangle(&blob, &flips, 1_000_000);
        prop_assert!(decode_graph(&flipped, &mut fresh).is_err());

        // Flip + truncate together, for good measure.
        let both = mangle(&blob, &flips, cut_ppm.max(1));
        if both.len() < blob.len() || both != blob[..] {
            prop_assert!(decode_graph(&both, &mut fresh).is_err());
        }
    }

    /// Ruleset containers under the same drill — including the legacy
    /// dispatch path, which must cleanly reject mangled `PYPMWIRE`
    /// headers rather than misrouting them to the PYPMB1 decoder.
    #[test]
    fn ruleset_corruption_always_errs(
        flips in proptest::collection::vec(any::<u32>(), 1..16),
        cut_ppm in 0u32..1_000_000,
    ) {
        let (syms, pats, rs) = small_ruleset();
        let blob = pypm_wire::encode_ruleset(&rs, &syms, &pats);

        let mut s2 = SymbolTable::new();
        let mut p2 = PatternStore::new();
        let cut = (blob.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        prop_assert!(decode_ruleset(&blob[..cut], &mut s2, &mut p2).is_err());
        let flipped = mangle(&blob, &flips, 1_000_000);
        prop_assert!(decode_ruleset(&flipped, &mut s2, &mut p2).is_err());
    }

    /// Report and bundle containers: same contract.
    #[test]
    fn report_and_bundle_corruption_always_errs(
        seed in any::<u64>(),
        flips in proptest::collection::vec(any::<u32>(), 1..16),
        cut_ppm in 0u32..1_000_000,
    ) {
        let report = pypm_wire::encode_report("{\"schema\": \"pypm.pipeline.v1\"}\n");
        let cut = (report.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        prop_assert!(decode_report(&report[..cut]).is_err());
        prop_assert!(decode_report(&mangle(&report, &flips, 1_000_000)).is_err());

        let mut syms = SymbolTable::new();
        let pats = PatternStore::new();
        let g = random_graph(seed, &mut syms);
        let rs = pypm_dsl::RuleSet { patterns: Vec::new() };
        let blob = pypm_wire::encode_bundle(&g, &rs, &syms, &pats);
        let mut s2 = SymbolTable::new();
        let mut p2 = PatternStore::new();
        let cut = (blob.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        prop_assert!(decode_bundle(&blob[..cut], &mut s2, &mut p2).is_err());
        prop_assert!(decode_bundle(&mangle(&blob, &flips, 1_000_000), &mut s2, &mut p2).is_err());
    }

    /// The positive control: an unmangled random graph round-trips with
    /// identical ids and bytes (so the negative properties above are
    /// exercising real, decodable artifacts).
    #[test]
    fn uncorrupted_random_graphs_roundtrip(seed in any::<u64>()) {
        let mut syms = SymbolTable::new();
        let g = random_graph(seed, &mut syms);
        let blob = encode_graph(&g, &syms);
        let mut fresh = SymbolTable::new();
        let g2 = decode_graph(&blob, &mut fresh).expect("clean artifact decodes");
        prop_assert_eq!(g2.live_count(), g.live_count());
        prop_assert_eq!(g2.outputs(), g.outputs());
        prop_assert_eq!(encode_graph(&g2, &fresh), blob);
        g2.validate().expect("decoded graph validates");
    }
}
