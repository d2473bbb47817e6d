//! Integration tests of the frontend → serialize → backend pipeline
//! (paper §2.4): a rule set authored in one process image must behave
//! identically after a round trip through the portable binary format.

use pypm::dsl::{binary, text, LibraryConfig, RuleSet};
use pypm::engine::{Pipeline, RewritePass, Session};

fn compile_model(session: &mut Session, rules: &RuleSet, model: &str) -> (u64, usize) {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == model)
        .unwrap();
    let mut g = cfg.build(session);
    let stats = Pipeline::new(session)
        .with(RewritePass::new(rules.clone()))
        .run(&mut g)
        .unwrap()
        .total();
    (stats.rewrites_fired, g.live_count())
}

#[test]
fn binary_transport_preserves_behaviour() {
    let mut author = Session::new();
    let rules = author.load_library(LibraryConfig::both());
    let reference = compile_model(&mut author, &rules, "bert-small");

    let blob = binary::encode(&rules, &author.syms, &author.pats);
    let mut backend = Session::new();
    let reloaded = backend.load_wire_ruleset(&blob).unwrap();
    let result = compile_model(&mut backend, &reloaded, "bert-small");
    assert_eq!(result, reference);
}

#[test]
fn double_roundtrip_is_stable() {
    // encode(decode(encode(rs))) == encode(rs), and the reloaded set
    // prints as the authored one.
    let mut author = Session::new();
    let rules = author.load_library(LibraryConfig::all());
    let b1 = binary::encode(&rules, &author.syms, &author.pats);

    let mut s2 = Session::new();
    let rs2 = s2.load_wire_ruleset(&b1).unwrap();
    assert_eq!(
        text::print_ruleset(&rs2, &s2.syms, &s2.pats),
        text::print_ruleset(&rules, &author.syms, &author.pats)
    );
    let b2 = binary::encode(&rs2, &s2.syms, &s2.pats);
    assert_eq!(b1, b2);
}

#[test]
fn reloaded_rulesets_validate() {
    let mut author = Session::new();
    let rules = author.load_library(LibraryConfig::all());
    let blob = binary::encode(&rules, &author.syms, &author.pats);

    let mut backend = Session::new();
    let reloaded = backend.load_wire_ruleset(&blob).unwrap();
    reloaded.validate(&backend.pats, &backend.syms).unwrap();
    assert_eq!(reloaded.len(), rules.len());
    for (a, b) in rules.patterns.iter().zip(&reloaded.patterns) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.rules.len(), b.rules.len());
        assert_eq!(a.params.len(), b.params.len());
    }
}

#[test]
fn corrupted_binaries_are_rejected_not_misloaded() {
    let mut author = Session::new();
    let rules = author.load_library(LibraryConfig::both());
    let blob = binary::encode(&rules, &author.syms, &author.pats);

    // Flipping any single header byte must produce an error or, at
    // worst, a ruleset that still validates — never a panic.
    for i in 0..blob.len().min(64) {
        let mut corrupt = blob.to_vec();
        corrupt[i] ^= 0xFF;
        let mut backend = Session::new();
        match backend.load_wire_ruleset(&corrupt) {
            Err(_) => {}
            Ok(rs) => {
                // Structurally decodable corruption: must still be a
                // self-consistent ruleset.
                let _ = rs.validate(&backend.pats, &backend.syms);
            }
        }
    }
}
