//! Property tests of the portable formats: random well-formed patterns
//! must survive the binary transport byte-identically, print the same
//! text after it, and never panic its decoder on damaged bytes.

use proptest::prelude::*;
use pypm_core::testing::{PatternGen, TestSig};
use pypm_core::Guard;
use pypm_core::{PatternStore, SymbolTable};
use pypm_dsl::ruleset::{PatternDef, Rhs, RuleDef, RuleSet};
use pypm_dsl::{binary, text};

/// Wraps a randomly generated pattern into a one-pattern rule set whose
/// parameters are the pattern's free variables.
fn random_ruleset(seed: u64, depth: u32) -> (SymbolTable, PatternStore, RuleSet) {
    let mut sig = TestSig::new();
    let mut pats = PatternStore::new();
    let p = PatternGen::new(seed).pattern(&mut sig, &mut pats, depth);
    let params = pats.free_vars(p);
    let fun_params = pats.fun_vars(p);
    let rules = if let Some(&first) = params.first() {
        vec![RuleDef {
            name: "probe".into(),
            guard: Guard::tt(),
            rhs: Rhs::Var(first),
        }]
    } else {
        Vec::new()
    };
    let rs = RuleSet {
        patterns: vec![PatternDef {
            name: "P".into(),
            params,
            fun_params,
            pattern: p,
            rules,
        }],
    };
    (sig.syms, pats, rs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// binary: decode(encode(rs)) prints identically, and encodes back
    /// to the same bytes — an oracle that does not lean on the printer.
    #[test]
    fn binary_roundtrip(seed in any::<u64>(), depth in 2u32..6) {
        let (syms, pats, rs) = random_ruleset(seed, depth);
        let blob = binary::encode(&rs, &syms, &pats);
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let rs2 = binary::decode(&blob, &mut syms2, &mut pats2).unwrap();
        prop_assert_eq!(
            text::print_ruleset(&rs, &syms, &pats),
            text::print_ruleset(&rs2, &syms2, &pats2)
        );
        prop_assert_eq!(binary::encode(&rs2, &syms2, &pats2), blob);
    }

    /// Truncating a binary never panics: it errors or (for truncations
    /// landing on a structure boundary) decodes a prefix.
    #[test]
    fn truncation_never_panics(seed in any::<u64>(), cut_ppm in 0u32..1_000_000) {
        let (syms, pats, rs) = random_ruleset(seed, 4);
        let blob = binary::encode(&rs, &syms, &pats);
        let cut = (blob.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let _ = binary::decode(&blob[..cut], &mut syms2, &mut pats2);
    }

    /// Corrupting a valid binary — random byte flips, possibly many of
    /// them, optionally combined with truncation — never panics the
    /// decoder: every path out is `Ok` or a clean `BinError`. This is
    /// the decode-hardening contract a long-lived `pypmc serve` loop
    /// relies on to survive garbage frames.
    #[test]
    fn corruption_never_panics(
        seed in any::<u64>(),
        flips in proptest::collection::vec(any::<u32>(), 1..16),
        cut_ppm in 500_000u32..1_000_000,
    ) {
        let (syms, pats, rs) = random_ruleset(seed, 4);
        let blob = binary::encode(&rs, &syms, &pats);
        let cut = (blob.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let mut bytes = blob[..cut].to_vec();
        if !bytes.is_empty() {
            for &flip in &flips {
                // Low bits choose the position, high bits the xor mask
                // (forced nonzero so every flip really corrupts).
                let at = (flip as usize >> 8) % bytes.len();
                let mask = (flip as u8) | 1;
                bytes[at] ^= mask;
            }
        }
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let _ = binary::decode(&bytes, &mut syms2, &mut pats2);
    }

    /// Decoded rule sets still satisfy the structural and scoping
    /// validators.
    #[test]
    fn decoded_rulesets_validate(seed in any::<u64>(), depth in 2u32..6) {
        let (syms, pats, rs) = random_ruleset(seed, depth);
        rs.validate(&pats, &syms).expect("generated set valid");
        let blob = binary::encode(&rs, &syms, &pats);
        let mut syms2 = SymbolTable::new();
        let mut pats2 = PatternStore::new();
        let rs2 = binary::decode(&blob, &mut syms2, &mut pats2).unwrap();
        rs2.validate(&pats2, &syms2).expect("decoded set valid");
    }
}
