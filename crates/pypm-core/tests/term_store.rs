//! The flat hash-consed [`TermStore`] against the table it replaced: a
//! `HashMap` from `(head, arguments)` to id, plus the applications in
//! interning order. Everything the rest of the workspace reads off a
//! store — the id an application gets, `op` / `args` / `size` /
//! `height` / `len` — must agree with that model over random interning
//! sequences long enough to double the index several times, and a clone
//! must go its own way afterwards.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pypm_core::{Symbol, TermId, TermStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heads to draw from; a store never looks a head's arity up, so every
/// head is applied at every arity.
const HEADS: usize = 8;

/// One interned application, as the model remembers it.
#[derive(Clone, PartialEq)]
struct App {
    id: TermId,
    op: Symbol,
    args: Vec<TermId>,
    size: u64,
    height: u64,
}

/// The reference hash-cons table.
#[derive(Clone, Default)]
struct Model {
    ids: HashMap<(Symbol, Vec<TermId>), TermId>,
    /// In interning order, which is id order.
    apps: Vec<App>,
}

/// Interns `steps` random applications (arity 0..=6 over the terms so
/// far; every other one a replay of an earlier application) into both
/// the store and the model, comparing after each.
fn drive(
    rng: &mut StdRng,
    store: &mut TermStore,
    model: &mut Model,
    steps: usize,
) -> Result<(), TestCaseError> {
    for _ in 0..steps {
        let (op, args) = if !model.apps.is_empty() && rng.gen_bool(0.5) {
            let known = &model.apps[rng.gen_range(0..model.apps.len())];
            (known.op, known.args.clone())
        } else {
            let arity = if model.apps.is_empty() {
                0
            } else {
                rng.gen_range(0..=6)
            };
            let args = (0..arity)
                .map(|_| model.apps[rng.gen_range(0..model.apps.len())].id)
                .collect();
            (Symbol::from_index(rng.gen_range(0..HEADS)), args)
        };
        // Every way of lending the arguments interns the same term.
        let id = match rng.gen_range(0..3) {
            0 => store.app(op, args.clone()),
            1 => store.app(op, args.as_slice()),
            _ => store.app(op, &args),
        };
        match model.ids.get(&(op, args.clone())) {
            Some(&known) => prop_assert_eq!(id, known, "a known application changed id"),
            None => {
                prop_assert_eq!(id.index(), model.apps.len(), "ids are dense, in order");
                let sizes = args.iter().map(|a| model.apps[a.index()].size);
                let size = sizes.fold(1u64, u64::saturating_add);
                let heights = args.iter().map(|a| model.apps[a.index()].height);
                let height = 1 + heights.max().unwrap_or(0);
                model.ids.insert((op, args.clone()), id);
                model.apps.push(App {
                    id,
                    op,
                    args,
                    size,
                    height,
                });
            }
        }
        prop_assert_eq!(store.len(), model.apps.len());
    }
    // What was interned early reads back the same after every growth
    // of the index and the arena since.
    for (i, app) in model.apps.iter().enumerate() {
        prop_assert_eq!(app.id.index(), i);
        prop_assert_eq!(store.op(app.id), app.op);
        prop_assert_eq!(store.args(app.id), app.args.as_slice());
        prop_assert_eq!(store.size(app.id), app.size);
        prop_assert_eq!(store.height(app.id), app.height);
    }
    prop_assert_eq!(store.is_empty(), model.apps.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_store_agrees_with_a_hash_map_of_applications(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut store, mut model) = (TermStore::new(), Model::default());
        drive(&mut rng, &mut store, &mut model, 600)?;
        // The index starts at 16 slots and stays at most half full: past
        // 128 terms it has doubled five times.
        prop_assert!(store.len() > 128, "only {} distinct terms", store.len());

        // A clone is a store of its own: the two take different terms
        // under the same next ids, and neither sees the other's.
        let (mut store2, mut model2) = (store.clone(), model.clone());
        let mut rng2 = StdRng::seed_from_u64(!seed);
        drive(&mut rng, &mut store, &mut model, 200)?;
        drive(&mut rng2, &mut store2, &mut model2, 200)?;
        prop_assert!(model.apps != model2.apps, "the two histories coincide");
    }
}
