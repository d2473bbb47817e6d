//! The fused-matcher contract: a [`RewritePass`] run with the fused
//! discrimination-tree backend must be **byte-identical** to the
//! per-pattern backend — same firing sequence, same final graph down to
//! node ids, and the same value for every semantic counter
//! (`match_attempts`, `matches_found`, `rewrites_fired`, …) — across
//! the full model zoo.
//!
//! Three cells of the policy × backend square are run: `(restart,
//! per-pattern)` is the reference, `(restart, fused)` is compared to
//! it counter for counter, and `(incremental, fused)` — what ships —
//! is held to its firing sequence and final graph (its counters
//! against `(restart, fused)` are `incremental_equivalence`'s).
//! `(incremental, per-pattern)` is neither production nor reference;
//! `fused_matcher_is_byte_identical_on_random_rule_subsets`
//! (`pass_properties.rs`) still draws it.
//!
//! The correctness argument is local (the tree only rejects a
//! `(pattern, node)` pair when the pattern's every alternative is
//! guaranteed to fail on that subterm, so the machine run it skips
//! would have failed anyway); this suite is the global check. Only the
//! machine-*work* diagnostics (`machine_steps`, `machine_backtracks`)
//! and the matcher's own admission counters may differ between
//! backends — and machine work may only shrink.

mod common;

use common::run_rewrite as run;
use pypm::dsl::LibraryConfig;
use pypm::engine::{MatcherBackend, Session, SweepPolicy};
use pypm::graph::Graph;

fn assert_backend_equivalent(name: &str, build: &dyn Fn(&mut Session) -> Graph) {
    use MatcherBackend::{Fused, PerPattern};
    use SweepPolicy::{Incremental, RestartOnRewrite};
    for (cname, cfg) in [
        ("both", LibraryConfig::both as fn() -> LibraryConfig),
        ("all", LibraryConfig::all),
    ] {
        let (per, per_stats) = run(build, cfg(), RestartOnRewrite, PerPattern);
        let (fused, fused_stats) = run(build, cfg(), RestartOnRewrite, Fused);
        assert_eq!(
            per, fused,
            "{name}/{cname}: (restart, fused) diverged from the reference"
        );
        // The tree only ever *skips* machine runs that were
        // guaranteed to fail; it can never add machine work.
        assert!(
            fused_stats.machine_steps <= per_stats.machine_steps,
            "{name}/{cname}: fused did more machine work ({} vs {})",
            fused_stats.machine_steps,
            per_stats.machine_steps,
        );
        // Each backend accounts every consumed probe: admitted plus
        // rejected covers exactly the per-pattern attempt count (the
        // fused tree's rejections stand in for the machine failures
        // it skipped).
        assert_eq!(fused_stats.matcher.backend, "fused");
        assert_eq!(per_stats.matcher.backend, "per-pattern");
        assert_eq!(
            fused_stats.matcher.pairs_admitted + fused_stats.matcher.pairs_rejected,
            per_stats.match_attempts,
            "{name}/{cname}: fused admission accounting leaked"
        );

        // What ships: the reference's rewrites in the reference's
        // order, and its graph.
        let (shipped, _) = run(build, cfg(), Incremental, Fused);
        assert_eq!(
            (shipped.fired, shipped.nodes, shipped.output_ids),
            (per.fired, per.nodes, per.output_ids),
            "{name}/{cname}: (incremental, fused) diverged from the reference"
        );
    }
}

/// Every HuggingFace-zoo transformer.
#[test]
fn hf_zoo_fused_matches_per_pattern() {
    for cfg in pypm::models::hf_zoo() {
        assert_backend_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// Every TorchVision-zoo CNN.
#[test]
fn tv_zoo_fused_matches_per_pattern() {
    for cfg in pypm::models::tv_zoo() {
        assert_backend_equivalent(cfg.name, &|s| cfg.build(s));
    }
}

/// The scaling claim behind the fused matcher: at 4× the rule count
/// (`all+synth39` — 39 synthetic never-matching rules on top of the
/// full library), the tree rejects the synthetic rules wholesale. The
/// semantic counters still agree exactly with per-pattern, while the
/// fused backend admits at least 3× fewer probes and runs strictly
/// less machine work.
#[test]
fn fused_filters_synthetic_rules_wholesale_on_bert_small() {
    let cfg = pypm::models::hf_zoo()
        .into_iter()
        .find(|c| c.name == "bert-small")
        .unwrap();
    let lib = LibraryConfig::all().with_synth(39);
    let (per, per_stats) = run(
        &|s| cfg.build(s),
        lib,
        SweepPolicy::RestartOnRewrite,
        MatcherBackend::PerPattern,
    );
    let (fused, fused_stats) = run(
        &|s| cfg.build(s),
        lib,
        SweepPolicy::RestartOnRewrite,
        MatcherBackend::Fused,
    );
    assert!(per.rewrites_fired > 0, "model must actually rewrite");
    assert_eq!(per, fused, "synthetic rules changed observable behaviour");
    // Per-pattern admits every attempt; fused must cut probes ≥3×.
    assert_eq!(per_stats.matcher.pairs_admitted, per_stats.match_attempts);
    assert!(
        fused_stats.matcher.pairs_admitted * 3 <= per_stats.matcher.pairs_admitted,
        "expected ≥3× fewer admitted probes: fused {} vs per-pattern {}",
        fused_stats.matcher.pairs_admitted,
        per_stats.matcher.pairs_admitted,
    );
    assert!(
        fused_stats.machine_steps < per_stats.machine_steps,
        "skipping guaranteed failures must save machine work"
    );
    assert!(fused_stats.matcher.terms_walked > 0);
    assert!(fused_stats.matcher.trie_steps > 0);
}
