//! Property-based mechanization of the paper's metatheory.
//!
//! The Coq development proves two theorems about CorePyPM; we restate them
//! as falsifiable properties over randomly generated well-formed patterns
//! and terms (see `pypm_core::testing`), and check them on thousands of
//! cases:
//!
//! * **Theorem 1 (Match Weakening).** If `p @ θ ≈ t` and `θ ⊆ θ′`, then
//!   `p @ θ′ ≈ t`.
//! * **Theorem 2 (Algorithmic Soundness).** If the machine runs
//!   `running(∅, [], [match(p,t)])` to `success(θ, φ)` then
//!   `p @ ⟨θ, φ⟩ ≈ t`; if it runs to `failure` then no witness exists.
//!
//! Next to Theorem 2 sits the contract of the fused matcher index
//! ([`FusedSet`]), which decides which `(pattern, term)` pairs the engine
//! hands to the machine at all: *a pair the index does not report is a
//! machine `failure`*. With Theorem 2's failure direction that makes a
//! rejection mean "no witness exists".
//!
//! For the failure direction we compare against the declarative
//! *enumerator*, which performs a clairvoyant (complete, bounded) search
//! for witnesses. Cases where either side runs out of fuel (possible with
//! recursive patterns) are skipped as inconclusive — the theorems quantify
//! over terminating derivations.

use proptest::prelude::*;
use pypm_core::declarative::{check, enumerate, DeclError};
use pypm_core::testing::{PatternGen, TermGen, TestSig};
use pypm_core::{
    FusedSet, Machine, MachineError, Outcome, PatternStore, Subst, TermStore, Witness,
};

const MACHINE_FUEL: u64 = 200_000;
const DECL_FUEL: u64 = 400_000;

struct Case {
    sig: TestSig,
    terms: TermStore,
    pats: PatternStore,
    p: pypm_core::PatternId,
    t: pypm_core::TermId,
}

fn random_term(
    sig: &TestSig,
    terms: &mut TermStore,
    term_seed: u64,
    term_depth: u32,
) -> pypm_core::TermId {
    if term_seed % 3 == 0 {
        // Towers exercise the recursive patterns.
        TermGen::new(term_seed).tower(sig, terms, term_depth)
    } else {
        TermGen::new(term_seed).term(sig, terms, term_depth)
    }
}

fn build_case(pat_seed: u64, term_seed: u64, pat_depth: u32, term_depth: u32) -> Case {
    let mut sig = TestSig::new();
    let mut terms = TermStore::new();
    let mut pats = PatternStore::new();
    let p = PatternGen::new(pat_seed).pattern(&mut sig, &mut pats, pat_depth);
    let t = random_term(&sig, &mut terms, term_seed, term_depth);
    Case {
        sig,
        terms,
        pats,
        p,
        t,
    }
}

/// One case of the fused-admission oracle: a handful of random patterns
/// (guards, alternates, μ and all) fused into one index, one random
/// term, and a machine run for every pair the index does **not**
/// report. Returns `(pairs rejected and confirmed failures, pairs
/// reported)`; fuel-exhausted runs are inconclusive and count as
/// neither.
fn fused_rejections_fail(
    pat_seed: u64,
    term_seed: u64,
    pat_depth: u32,
    term_depth: u32,
) -> Result<(u32, u32), String> {
    let mut sig = TestSig::new();
    let mut terms = TermStore::new();
    let mut pats = PatternStore::new();
    let mut gen = PatternGen::new(pat_seed);
    let patterns: Vec<_> = (0..5)
        .map(|_| gen.pattern(&mut sig, &mut pats, pat_depth))
        .collect();
    let t = random_term(&sig, &mut terms, term_seed, term_depth);
    let fused = FusedSet::build(&pats, &patterns);
    let reported = fused.candidates(&terms, t, &mut 0);
    let interp = sig.interp();
    let mut confirmed = 0;
    for (i, &p) in patterns.iter().enumerate() {
        if reported.binary_search(&(i as u32)).is_ok() {
            continue;
        }
        match Machine::new(&mut pats, &terms, &interp).run(p, t, MACHINE_FUEL) {
            Ok(Outcome::Failure) => confirmed += 1,
            Err(MachineError::OutOfFuel { .. }) => {}
            Ok(Outcome::Success(w)) => {
                return Err(format!(
                    "the index rejected a pair the machine matches\n  p = {}\n  t = {}\n  θ = {}",
                    pats.display(&sig.syms, p),
                    terms.display(&sig.syms, t),
                    w.theta.display(&sig.syms, &terms),
                ))
            }
        }
    }
    Ok((confirmed, reported.len() as u32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Theorem 2, success direction: machine success(θ,φ) ⇒ p @ ⟨θ,φ⟩ ≈ t.
    #[test]
    fn machine_success_implies_declarative_match(
        pat_seed in any::<u64>(),
        term_seed in any::<u64>(),
        pat_depth in 2u32..5,
        term_depth in 1u32..5,
    ) {
        let mut case = build_case(pat_seed, term_seed, pat_depth, term_depth);
        let interp = case.sig.interp();
        let outcome = Machine::new(&mut case.pats, &case.terms, &interp)
            .run(case.p, case.t, MACHINE_FUEL);
        match outcome {
            Ok(Outcome::Success(w)) => {
                let ok = check(
                    &mut case.pats, &case.terms, &interp,
                    case.p, &w, case.t, DECL_FUEL,
                ).expect("checker fuel must dominate machine fuel");
                prop_assert!(
                    ok,
                    "machine succeeded but declarative check failed\n  p = {}\n  t = {}\n  θ = {}",
                    case.pats.display(&case.sig.syms, case.p),
                    case.terms.display(&case.sig.syms, case.t),
                    w.theta.display(&case.sig.syms, &case.terms),
                );
            }
            Ok(Outcome::Failure) | Err(MachineError::OutOfFuel { .. }) => {}
        }
    }

    /// Theorem 2, failure direction: machine failure ⇒ no witness exists
    /// (checked against the complete bounded enumerator).
    #[test]
    fn machine_failure_implies_no_witness(
        pat_seed in any::<u64>(),
        term_seed in any::<u64>(),
        pat_depth in 2u32..5,
        term_depth in 1u32..4,
    ) {
        let mut case = build_case(pat_seed, term_seed, pat_depth, term_depth);
        let interp = case.sig.interp();
        let outcome = Machine::new(&mut case.pats, &case.terms, &interp)
            .run(case.p, case.t, MACHINE_FUEL);
        if let Ok(Outcome::Failure) = outcome {
            match enumerate(
                &mut case.pats, &case.terms, &interp,
                case.p, &Witness::new(), case.t, DECL_FUEL,
            ) {
                Ok(witnesses) => prop_assert!(
                    witnesses.is_empty(),
                    "machine failed but witnesses exist\n  p = {}\n  t = {}\n  θ = {}",
                    case.pats.display(&case.sig.syms, case.p),
                    case.terms.display(&case.sig.syms, case.t),
                    witnesses[0].theta.display(&case.sig.syms, &case.terms),
                ),
                Err(DeclError::OutOfFuel) => {} // inconclusive
            }
        }
    }

    /// The fused index's contract: a (pattern, term) pair the trie does
    /// not report is a machine failure.
    #[test]
    fn fused_rejection_implies_machine_failure(
        pat_seed in any::<u64>(),
        term_seed in any::<u64>(),
        pat_depth in 2u32..5,
        term_depth in 1u32..5,
    ) {
        let checked = fused_rejections_fail(pat_seed, term_seed, pat_depth, term_depth);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// The machine's witness always appears in the enumerator's witness
    /// set (the machine is one particular strategy of the declarative
    /// search).
    #[test]
    fn machine_witness_is_enumerated(
        pat_seed in any::<u64>(),
        term_seed in any::<u64>(),
        pat_depth in 2u32..4,
        term_depth in 1u32..4,
    ) {
        let mut case = build_case(pat_seed, term_seed, pat_depth, term_depth);
        let interp = case.sig.interp();
        let outcome = Machine::new(&mut case.pats, &case.terms, &interp)
            .run(case.p, case.t, MACHINE_FUEL);
        if let Ok(Outcome::Success(w)) = outcome {
            match enumerate(
                &mut case.pats, &case.terms, &interp,
                case.p, &Witness::new(), case.t, DECL_FUEL,
            ) {
                Ok(witnesses) => prop_assert!(
                    witnesses.contains(&w),
                    "machine witness missing from enumeration\n  p = {}\n  t = {}",
                    case.pats.display(&case.sig.syms, case.p),
                    case.terms.display(&case.sig.syms, case.t),
                ),
                Err(DeclError::OutOfFuel) => {}
            }
        }
    }

    /// Theorem 1 (Match Weakening): extending a successful witness with
    /// fresh bindings preserves the declarative judgment.
    #[test]
    fn match_weakening(
        pat_seed in any::<u64>(),
        term_seed in any::<u64>(),
        extra_seed in any::<u64>(),
        pat_depth in 2u32..5,
        term_depth in 1u32..4,
    ) {
        let mut case = build_case(pat_seed, term_seed, pat_depth, term_depth);
        let interp = case.sig.interp();
        let outcome = Machine::new(&mut case.pats, &case.terms, &interp)
            .run(case.p, case.t, MACHINE_FUEL);
        if let Ok(Outcome::Success(w)) = outcome {
            // Build θ′ ⊇ θ by binding every unused pool variable to some
            // subterm chosen from the extra seed.
            let mut extended = w.clone();
            let subterms = case.terms.subterms(case.t);
            let mut salt = extra_seed;
            for &v in &case.sig.vars {
                if extended.theta.get(v).is_none() {
                    let pick = subterms[(salt % subterms.len() as u64) as usize];
                    extended.theta.bind(v, pick);
                    salt = salt.rotate_left(17).wrapping_add(0x9E37_79B9_7F4A_7C15);
                }
            }
            prop_assert!(w.theta.is_sub_subst_of(&extended.theta));
            let ok = check(
                &mut case.pats, &case.terms, &interp,
                case.p, &extended, case.t, DECL_FUEL,
            ).expect("checker fuel must dominate machine fuel");
            prop_assert!(
                ok,
                "weakening failed\n  p = {}\n  t = {}",
                case.pats.display(&case.sig.syms, case.p),
                case.terms.display(&case.sig.syms, case.t),
            );
        }
    }

    /// Determinism: running the machine twice on the same inputs yields
    /// identical outcomes and statistics (the machine is a deterministic
    /// strategy over the nondeterministic declarative semantics).
    #[test]
    fn machine_is_deterministic(
        pat_seed in any::<u64>(),
        term_seed in any::<u64>(),
    ) {
        let mut case = build_case(pat_seed, term_seed, 4, 4);
        let interp = case.sig.interp();
        let mut m1 = Machine::new(&mut case.pats, &case.terms, &interp);
        let r1 = m1.run(case.p, case.t, MACHINE_FUEL);
        let s1 = m1.stats();
        drop(m1);
        let mut m2 = Machine::new(&mut case.pats, &case.terms, &interp);
        let r2 = m2.run(case.p, case.t, MACHINE_FUEL);
        let s2 = m2.stats();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(s1, s2);
    }
}

/// Deterministic regression corpus: a sweep of seeds that once exercised
/// every pattern constructor, pinned so CI always covers them.
#[test]
fn seed_sweep_regression() {
    let mut successes = 0u32;
    let mut failures = 0u32;
    for pat_seed in 0..60 {
        for term_seed in 0..12 {
            let mut case = build_case(pat_seed, term_seed, 4, 4);
            let interp = case.sig.interp();
            let outcome = Machine::new(&mut case.pats, &case.terms, &interp).run(
                case.p,
                case.t,
                MACHINE_FUEL,
            );
            match outcome {
                Ok(Outcome::Success(w)) => {
                    successes += 1;
                    assert!(check(
                        &mut case.pats,
                        &case.terms,
                        &interp,
                        case.p,
                        &w,
                        case.t,
                        DECL_FUEL
                    )
                    .unwrap());
                }
                Ok(Outcome::Failure) => failures += 1,
                Err(_) => {}
            }
        }
    }
    // The distribution must exercise both directions substantially.
    assert!(successes > 50, "only {successes} successes in sweep");
    assert!(failures > 50, "only {failures} failures in sweep");
}

/// The fused-admission oracle over the same pinned sweep, counted: the
/// property above is only worth its name if the index both rejects and
/// reports a good share of the pairs it is asked about.
#[test]
fn fused_seed_sweep_rejects_and_reports() {
    let (mut rejected, mut reported) = (0, 0);
    for pat_seed in 0..60 {
        for term_seed in 0..12 {
            let (r, a) = fused_rejections_fail(pat_seed, term_seed, 4, 4).unwrap();
            rejected += r;
            reported += a;
        }
    }
    assert!(rejected > 500, "only {rejected} rejections in sweep");
    assert!(reported > 500, "only {reported} reported pairs in sweep");
}

/// The incompleteness example of §3.1.2 pinned as a regression test: the
/// machine produces only the left-alternate witness, the declarative
/// semantics admits both.
#[test]
fn left_eager_incompleteness_example() {
    let sig = TestSig::new();
    let mut terms = TermStore::new();
    let mut pats = PatternStore::new();
    let f = sig.binaries[0];
    let c1 = terms.app0(sig.consts[0]);
    let c2 = terms.app0(sig.consts[1]);
    let t = terms.app(f, vec![c1, c2]);
    let x = sig.vars[0];
    let y = sig.vars[1];
    let px = pats.var(x);
    let py = pats.var(y);
    let left = pats.app(f, vec![px, py]);
    let right = pats.app(f, vec![py, px]);
    let p = pats.alt(left, right);
    let interp = sig.interp();

    let outcome = Machine::new(&mut pats, &terms, &interp)
        .run(p, t, MACHINE_FUEL)
        .unwrap();
    let w = outcome.witness().unwrap();
    let expected: Subst = [(x, c1), (y, c2)].into_iter().collect();
    assert_eq!(w.theta, expected);

    let all = enumerate(&mut pats, &terms, &interp, p, &Witness::new(), t, DECL_FUEL).unwrap();
    assert_eq!(all.len(), 2);
}
