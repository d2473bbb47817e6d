//! The portable pattern formats (the paper's §2.4 serialization step).
//!
//! PyPM's frontend serializes traced patterns into a portable binary
//! that DLCB loads at startup. This example serializes the full paper
//! library to both the text and binary formats, reloads each into a
//! completely fresh session, and verifies the reloaded rule sets drive
//! the engine identically.
//!
//! Run with `cargo run --example pattern_formats`.

use pypm::dsl::{binary, text, LibraryConfig};
use pypm::engine::{Pipeline, RewritePass, Session};
use pypm::graph::{DType, Graph, TensorMeta};

fn rewrites_with(session: &mut Session, rules: &pypm::dsl::RuleSet) -> u64 {
    let mut g = Graph::new();
    let a = g.input(&mut session.syms, TensorMeta::new(DType::F32, vec![64, 32]));
    let b = g.input(&mut session.syms, TensorMeta::new(DType::F32, vec![16, 32]));
    let (trans, matmul) = (session.ops.trans, session.ops.matmul);
    let bt = g
        .op(&mut session.syms, &session.registry, trans, vec![b], vec![])
        .unwrap();
    let mm = g
        .op(
            &mut session.syms,
            &session.registry,
            matmul,
            vec![a, bt],
            vec![],
        )
        .unwrap();
    g.mark_output(mm);
    Pipeline::new(session)
        .with(RewritePass::new(rules.clone()))
        .run(&mut g)
        .unwrap()
        .total()
        .rewrites_fired
}

fn main() {
    // Author the library in one session …
    let mut author = Session::new();
    let rules = author.load_library(LibraryConfig::all());
    let text_form = text::print_ruleset(&rules, &author.syms, &author.pats);
    let binary_form = binary::encode(&rules, &author.syms, &author.pats);
    println!(
        "library: {} patterns; text form {} bytes, binary form {} bytes",
        rules.len(),
        text_form.len(),
        binary_form.len()
    );
    println!("--- text form (first 30 lines) ---");
    for line in text_form.lines().take(30) {
        println!("{line}");
    }

    // … run it in the authoring session as the reference …
    let baseline = rewrites_with(&mut author, &rules);
    assert_eq!(baseline, 1);

    // … and load it into two completely fresh sessions.

    let mut via_text = Session::new();
    let reloaded_text = via_text.load_text(&text_form).expect("text parses");
    let n_text = rewrites_with(&mut via_text, &reloaded_text);

    let mut via_binary = Session::new();
    let reloaded_bin = via_binary
        .load_wire_ruleset(&binary_form)
        .expect("binary decodes");
    let n_bin = rewrites_with(&mut via_binary, &reloaded_bin);

    println!("\nrewrites fired on the Fig. 1 graph:");
    println!("  loaded from text   : {n_text}");
    println!("  loaded from binary : {n_bin}");
    assert_eq!(n_text, 1);
    assert_eq!(n_bin, 1);
    println!("both transports reproduce the authored behaviour.");
}
