//! Direct oracles for the three stores a library loads into a session
//! and a serve worker copies per request: the flat symbol interner, the
//! copy-on-write pattern store, and the fused trie memoized in it.
//!
//! * The symbol table against a `HashMap<String, u32>` per name space,
//!   over random names — `%in7`-shaped ones included, declared before
//!   and after the fresh counter reaches them, while a fresh constant is
//!   never a name the map holds — across several doublings of its table,
//!   and two clones driven apart.
//! * A pattern store's clone that interns or unfolds leaves the
//!   original's patterns and unfoldings as they were.
//! * The memoized trie is the one a fresh build makes, the same list
//!   answers the same tree, and a tree memoized before a clone serves
//!   the clone.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pypm_core::testing::{PatternGen, TermGen, TestSig};
use pypm_core::{FusedSet, Pattern, PatternId, PatternStore, Symbol, SymbolTable, TermStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One name space as the model sees it: ids in interning order, and
/// the names that can be looked up.
#[derive(Clone, Default)]
struct Names {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Names {
    /// The id `name` has, interning it if new.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.push_unlisted(name);
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Gives `name` the next id without making it one to look up.
    fn push_unlisted(&mut self, name: &str) -> u32 {
        self.names.push(name.to_owned());
        self.names.len() as u32 - 1
    }
}

/// The reference symbol table: operators and variables, one fresh
/// counter shared by fresh constants and fresh variables. A fresh
/// constant takes the next operator id under the next counter value,
/// whatever names are declared: it is not a name to look up.
#[derive(Clone, Default)]
struct Model {
    ops: Names,
    arities: Vec<usize>,
    vars: Names,
    fresh: u64,
}

/// A name from a small alphabet, `%`-prefixed now and then, or a name
/// shaped like one the fresh counters make, a little ahead of them.
fn random_name(rng: &mut StdRng, model: &Model) -> String {
    match rng.gen_range(0..4) {
        0 => format!("%in{}", model.fresh + rng.gen_range(1..6u64)),
        1 => format!("%v{}", model.fresh + rng.gen_range(1..6u64)),
        _ => {
            let len = rng.gen_range(1..8);
            let alphabet = b"abcxyz%01";
            (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                .collect()
        }
    }
}

/// An operator's arity is a function of its name, so redeclaring one
/// never conflicts.
fn arity_of(name: &str) -> usize {
    name.len() % 3
}

/// `steps` random operations on both the table and the model, checked
/// as they go and, at the end, over every name either holds.
fn drive(
    rng: &mut StdRng,
    syms: &mut SymbolTable,
    model: &mut Model,
    steps: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..steps {
        match rng.gen_range(0..6) {
            0 | 1 => {
                let name = random_name(rng, model);
                let known = model.ops.ids.contains_key(&name);
                let id = model.ops.intern(&name);
                if !known {
                    model.arities.push(arity_of(&name));
                }
                let f = syms.op(&name, arity_of(&name));
                prop_assert_eq!(f.index() as u32, id, "op {}", name);
            }
            2 => {
                let name = random_name(rng, model);
                let id = model.vars.intern(&name);
                prop_assert_eq!(syms.var(&name).index() as u32, id, "var {}", name);
            }
            3 => {
                model.fresh += 1;
                let id = model.ops.push_unlisted(&format!("%in{}", model.fresh));
                model.arities.push(0);
                let f = syms.fresh_const("in");
                prop_assert_eq!(f.index() as u32, id);
                prop_assert_eq!(syms.op_name(f), model.ops.names[id as usize].as_str());
            }
            4 => {
                let id = loop {
                    model.fresh += 1;
                    let name = format!("%v{}", model.fresh);
                    if !model.vars.ids.contains_key(&name) {
                        break model.vars.intern(&name);
                    }
                };
                prop_assert_eq!(syms.fresh_var().index() as u32, id);
            }
            _ => {
                let name = random_name(rng, model);
                let expected = model.ops.ids.get(&name).map(|&id| id as usize);
                prop_assert_eq!(syms.find_op(&name).map(|f| f.index()), expected);
            }
        }
    }
    prop_assert_eq!(syms.op_count(), model.ops.names.len());
    prop_assert_eq!(syms.var_count(), model.vars.names.len());
    for (i, name) in model.ops.names.iter().enumerate() {
        let f = Symbol::from_index(i);
        prop_assert_eq!(syms.op_name(f), name.as_str(), "ids are dense, in order");
        prop_assert_eq!(syms.arity(f), model.arities[i]);
        let declared = model.ops.ids.get(name).map(|&id| id as usize);
        prop_assert_eq!(
            syms.find_op(name).map(|f| f.index()),
            declared,
            "only a declared name is found"
        );
    }
    for (i, name) in model.vars.names.iter().enumerate() {
        let x = syms.var(name);
        prop_assert_eq!(x.index(), i);
        prop_assert_eq!(syms.var_name(x), name.as_str());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_flat_interner_agrees_with_a_map_of_names(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut syms, mut model) = (SymbolTable::new(), Model::default());
        drive(&mut rng, &mut syms, &mut model, 1_200)?;
        // The probe table starts at 16 slots and stays at most half
        // full: past 128 names it has doubled four times.
        prop_assert!(syms.op_count() > 128, "only {} operators", syms.op_count());
        prop_assert!(syms.var_count() > 128, "only {} variables", syms.var_count());

        // A clone is a table of its own: the two intern different names
        // under the same next ids, and neither sees the other's.
        let (mut syms2, mut model2) = (syms.clone(), model.clone());
        let mut rng2 = StdRng::seed_from_u64(!seed);
        drive(&mut rng, &mut syms, &mut model, 300)?;
        drive(&mut rng2, &mut syms2, &mut model2, 300)?;
        prop_assert!(model.ops.names != model2.ops.names, "the two histories coincide");
    }
}

/// A store holding random patterns, μ-patterns among them: the roots,
/// and every pattern reachable from them in first-visit order.
fn random_store(seed: u64) -> (TestSig, PatternStore, Vec<PatternId>, Vec<PatternId>) {
    let mut sig = TestSig::new();
    let mut pats = PatternStore::new();
    let mut gen = PatternGen::new(seed);
    let roots: Vec<PatternId> = (0..24)
        .map(|_| gen.pattern(&mut sig, &mut pats, 5))
        .collect();
    let mut seen = Vec::new();
    let mut stack: Vec<PatternId> = roots.iter().rev().copied().collect();
    while let Some(p) = stack.pop() {
        if seen.contains(&p) {
            continue;
        }
        seen.push(p);
        match pats.get(p) {
            Pattern::Var(_) | Pattern::Call(..) => {}
            Pattern::App(_, args) | Pattern::FunApp(_, args) => stack.extend(args.iter().rev()),
            Pattern::Alt(l, r) => stack.extend([*r, *l]),
            Pattern::Guard(inner, _) | Pattern::Exists(_, inner) => stack.push(*inner),
            Pattern::MatchConstr {
                main, constraint, ..
            } => stack.extend([*constraint, *main]),
            Pattern::Mu { body, .. } => stack.push(*body),
        }
    }
    (sig, pats, roots, seen)
}

#[test]
fn a_pattern_store_clone_writes_only_to_itself() {
    let mut checked = 0;
    for seed in 0..40u64 {
        let (_, mut original, _, reachable) = random_store(seed);
        let mus: Vec<PatternId> = (reachable.iter().copied())
            .filter(|&p| matches!(original.get(p), Pattern::Mu { .. }))
            .collect();
        let [first, rest @ ..] = mus.as_slice() else {
            continue;
        };
        let unfolded = original.unfold_mu(*first);
        let len = original.len();
        let snapshot: Vec<Pattern> = reachable.iter().map(|&p| original.get(p).clone()).collect();

        // The copy unfolds what the original has not, and interns a
        // pattern the original never held.
        let mut copy = original.clone();
        for &mu in rest {
            copy.unfold_mu(mu);
        }
        let stranger = copy.intern(Pattern::Var(pypm_core::Var::from_index(999)));
        assert_eq!(
            stranger.index(),
            copy.len() - 1,
            "seed {seed}: a new pattern"
        );

        assert_eq!(original.len(), len, "seed {seed}");
        for (&p, pattern) in reachable.iter().zip(&snapshot) {
            assert_eq!(original.get(p), pattern, "seed {seed}");
        }
        assert_eq!(original.unfold_mu(*first), unfolded, "seed {seed}");
        assert_eq!(original.len(), len, "a memoized unfolding interns nothing");
        // What the copy unfolded, the original unfolds to the same ids —
        // the same process from the same state — into its own store.
        let copy_len = copy.len();
        for &mu in rest {
            assert_eq!(original.unfold_mu(mu), copy.unfold_mu(mu), "seed {seed}");
        }
        assert_eq!(
            copy.len(),
            copy_len,
            "the original's unfoldings reached the copy"
        );
        assert!(
            original.len() < copy.len(),
            "the copy's pattern reached the original"
        );
        checked += 1;
    }
    assert!(checked >= 10, "only {checked} stores held a μ-pattern");
}

#[test]
fn the_memoized_trie_is_a_fresh_build_shared_by_clones() {
    for seed in 0..40u64 {
        let (sig, mut template, roots, _) = random_store(seed);
        let list = &roots[..12];
        let memo = template.fused(list);
        assert!(
            Arc::ptr_eq(&memo, &template.fused(list)),
            "one tree per list"
        );

        let fresh = FusedSet::build(&template, list);
        assert_eq!(memo.node_count(), fresh.node_count(), "seed {seed}");
        assert_eq!(memo.pattern_count(), fresh.pattern_count());
        let mut terms = TermStore::new();
        let mut tgen = TermGen::new(seed ^ 0x5EED);
        for _ in 0..16 {
            let t = tgen.term(&sig, &mut terms, 5);
            let (mut a, mut b) = (0, 0);
            assert_eq!(
                memo.candidates(&terms, t, &mut a),
                fresh.candidates(&terms, t, &mut b)
            );
            assert_eq!(a, b, "trie_steps moved");
        }

        // Warmed on the template, the tree serves every clone; a list
        // the template never saw is the clone's alone.
        let mut copy = template.clone();
        assert!(Arc::ptr_eq(&memo, &copy.fused(list)), "seed {seed}");
        let other = &roots[12..];
        let theirs = copy.fused(other);
        assert!(!Arc::ptr_eq(&theirs, &template.fused(other)), "seed {seed}");
    }
}
