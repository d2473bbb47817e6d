//! The metatheory exercised on *real* workloads: every match the engine
//! finds on a model graph is certified against the declarative semantics
//! (Theorem 2's success direction, checked on the production pattern
//! library rather than random terms).

use pypm::core::declarative;
use pypm::core::{Machine, Outcome, Witness};
use pypm::dsl::LibraryConfig;
use pypm::engine::Session;
use pypm::graph::TermView;

const FUEL: u64 = 2_000_000;

/// For a sample of models: run every library pattern at every node with
/// the abstract machine, and check each successful witness with the
/// declarative checker.
#[test]
fn every_engine_match_is_declaratively_certified() {
    let models: Vec<_> = pypm::models::hf_zoo().into_iter().take(3).collect();
    for cfg in models {
        let mut s = Session::new();
        let g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::both());
        let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
        let attrs = view.attrs(&g);

        let mut certified = 0u32;
        for node in g.topo_order() {
            let t = match view.term_of(node) {
                Some(t) => t,
                None => continue,
            };
            for def in &rules.patterns {
                let outcome = Machine::new(&mut s.pats, &s.terms, &attrs).run(def.pattern, t, FUEL);
                if let Ok(Outcome::Success(w)) = outcome {
                    let ok = declarative::check(
                        &mut s.pats,
                        &s.terms,
                        &attrs,
                        def.pattern,
                        &w,
                        t,
                        FUEL * 4,
                    )
                    .expect("checker fuel");
                    assert!(
                        ok,
                        "{}: pattern {} matched at {node:?} but failed the declarative check",
                        cfg.name, def.name
                    );
                    certified += 1;
                }
            }
        }
        assert!(
            certified > 0,
            "{}: expected at least one certified match",
            cfg.name
        );
    }
}

/// Match weakening (Theorem 1) on real witnesses: extending an engine
/// witness with extra bindings keeps the declarative judgment derivable.
#[test]
fn match_weakening_on_engine_witnesses() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-tiny")
        .unwrap();
    let mut s = Session::new();
    let g = cfg.build(&mut s);
    let rules = s.load_library(LibraryConfig::fmha_only());
    let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
    let attrs = view.attrs(&g);
    let def = rules.find("MHA").unwrap();

    let mut tested = 0u32;
    let fresh = s.syms.var("weakening_probe");
    for node in g.topo_order() {
        let t = match view.term_of(node) {
            Some(t) => t,
            None => continue,
        };
        let outcome = Machine::new(&mut s.pats, &s.terms, &attrs).run(def.pattern, t, FUEL);
        if let Ok(Outcome::Success(w)) = outcome {
            let mut extended: Witness = w.clone();
            extended.theta.bind(fresh, t);
            assert!(w.theta.is_sub_subst_of(&extended.theta));
            let ok = declarative::check(
                &mut s.pats,
                &s.terms,
                &attrs,
                def.pattern,
                &extended,
                t,
                FUEL * 4,
            )
            .expect("checker fuel");
            assert!(ok, "weakened witness rejected at {node:?}");
            tested += 1;
        }
    }
    assert_eq!(tested as usize, cfg.layers, "one MHA site per layer");
}

/// The machine's left-eager alternate order is observable on real
/// patterns: the MHA pattern's first alternate (Mul-scaled) wins on a
/// Mul-scaled model even though the Div alternate would also be tried.
#[test]
fn alternate_order_is_deterministic_on_models() {
    let mut mul_backtracks = None;
    let mut div_backtracks = None;
    for (scale, slot) in [
        (pypm::models::ScaleVariant::Mul, &mut mul_backtracks),
        (pypm::models::ScaleVariant::Div, &mut div_backtracks),
    ] {
        let cfg = pypm::models::TransformerConfig {
            name: "probe",
            layers: 1,
            hidden: 32,
            seq: 16,
            batch: 1,
            mlp_factor: 2,
            gelu: pypm::models::GeluVariant::DivTwo,
            scale,
            opaque_layernorm: false,
        };
        let mut s = Session::new();
        let g = cfg.build(&mut s);
        let rules = s.load_library(LibraryConfig::fmha_only());
        let view = TermView::build(&g, &mut s.syms, &mut s.terms, &s.registry);
        let attrs = view.attrs(&g);
        let def = rules.find("MHA").unwrap();
        for node in g.topo_order() {
            let t = view.term_of(node).unwrap();
            let mut m = Machine::new(&mut s.pats, &s.terms, &attrs);
            if let Ok(Outcome::Success(_)) = m.run(def.pattern, t, FUEL) {
                *slot = Some(m.stats().backtracks);
            }
        }
    }
    // The Mul alternate is defined first, so a Div-scaled model must
    // backtrack strictly more than a Mul-scaled one.
    assert!(
        div_backtracks.unwrap() > mul_backtracks.unwrap(),
        "div {:?} vs mul {:?}",
        div_backtracks,
        mul_backtracks
    );
}
