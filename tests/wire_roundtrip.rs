//! Zoo-wide `PYPMWIRE` round trips: every model in both zoos encodes,
//! decodes into a fresh session with *identical node ids*, and
//! re-encodes byte-identically; rulesets survive the wire (and the
//! legacy raw `PYPMB1` path keeps reading); and corrupted zoo
//! artifacts — bit flips and truncations — always come back as `Err`,
//! never a panic.

mod common;

use common::zoo_names;
use pypm::dsl::{text, LibraryConfig};
use pypm::engine::Session;
use pypm::wire;

#[test]
fn every_zoo_model_roundtrips_with_identical_node_ids() {
    for name in zoo_names() {
        let mut s = Session::new();
        let g = pypm::build_model(&mut s, name).expect("zoo model builds");
        let bytes = s.wire_graph(&g);

        let mut s2 = Session::new();
        let g2 = s2.load_wire_graph(&bytes).expect("zoo artifact decodes");
        assert_eq!(g2.live_count(), g.live_count(), "{name}: node count");
        assert_eq!(g2.outputs(), g.outputs(), "{name}: output ids");
        for (a, b) in g.topo_order().iter().zip(g2.topo_order().iter()) {
            assert_eq!(a, b, "{name}: node ids survive the reload");
            assert_eq!(g.node(*a).kind, g2.node(*b).kind, "{name}: kinds");
            let (m, m2) = (g.node(*a).meta, g2.node(*b).meta);
            assert_eq!(m.dtype, m2.dtype, "{name}: dtypes");
            assert_eq!(
                g.shapes().dims(m.shape),
                g2.shapes().dims(m2.shape),
                "{name}: shapes"
            );
            assert_eq!(g.inputs(*a), g2.inputs(*b), "{name}: inputs");
            assert_eq!(
                s.syms.op_name(g.node(*a).op),
                s2.syms.op_name(g2.node(*b).op),
                "{name}: operators re-intern by name"
            );
        }
        g2.validate().expect("decoded zoo graph validates");
        assert_eq!(
            s2.wire_graph(&g2),
            bytes,
            "{name}: canonical reload re-encodes byte-identically"
        );
    }
}

#[test]
fn bundles_carry_graph_and_ruleset_together() {
    for name in ["bert-tiny", "vgg11"] {
        let mut s = Session::new();
        let g = pypm::build_model(&mut s, name).unwrap();
        let rules = s.load_library(LibraryConfig::all());
        let printed = text::print_ruleset(&rules, &s.syms, &s.pats);
        let bundle = s.wire_bundle(&g, &rules);

        let mut s2 = Session::new();
        let (g2, rules2) = s2.load_wire_bundle(&bundle).expect("bundle decodes");
        assert_eq!(g2.outputs(), g.outputs());
        assert_eq!(rules2.len(), rules.len());
        assert_eq!(
            text::print_ruleset(&rules2, &s2.syms, &s2.pats),
            printed,
            "{name}: the decoded ruleset prints identically"
        );
    }
}

#[test]
fn legacy_raw_pypmb1_rulesets_still_load() {
    let mut s = Session::new();
    let rules = s.load_library(LibraryConfig::all());
    let legacy = pypm::dsl::binary::encode(&rules, &s.syms, &s.pats);
    let printed = text::print_ruleset(&rules, &s.syms, &s.pats);

    // The wire decoder dispatches on the magic: raw PYPMB1 bytes (what
    // `pypmc library --format binary` has always written) keep working.
    let mut s2 = Session::new();
    let rules2 = s2.load_wire_ruleset(&legacy).expect("legacy path decodes");
    assert_eq!(rules2.len(), rules.len());
    assert_eq!(text::print_ruleset(&rules2, &s2.syms, &s2.pats), printed);

    // And the same ruleset through the PYPMWIRE container agrees.
    let mut s3 = Session::new();
    let wired = wire::encode_ruleset(&rules, &s.syms, &s.pats);
    let rules3 = s3.load_wire_ruleset(&wired).expect("wire path decodes");
    assert_eq!(text::print_ruleset(&rules3, &s3.syms, &s3.pats), printed);
}

#[test]
fn corrupted_zoo_artifacts_always_err_never_panic() {
    for name in zoo_names() {
        let mut s = Session::new();
        let g = pypm::build_model(&mut s, name).unwrap();
        let rules = s.load_library(LibraryConfig::both());
        let bundle = s.wire_bundle(&g, &rules);

        // Single-byte corruption at a stride of positions across the
        // whole artifact: header, section table and payload bytes all
        // get hit. The checksums make every flip a clean `Err`.
        for at in (0..bundle.len()).step_by(7) {
            let mut mangled = bundle.clone();
            mangled[at] ^= 0x41;
            let mut s2 = Session::new();
            assert!(
                s2.load_wire_bundle(&mangled).is_err(),
                "{name}: flip at byte {at} must not decode"
            );
        }
        // Every strict truncation is unreadable (exact-length framing).
        for cut in (0..bundle.len()).step_by(13) {
            let mut s2 = Session::new();
            assert!(
                s2.load_wire_bundle(&bundle[..cut]).is_err(),
                "{name}: truncation to {cut} bytes must not decode"
            );
        }
    }
}
