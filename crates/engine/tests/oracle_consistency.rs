//! Differential tests for the engine paths that run through the physical
//! executor without being plain queries: real writes (every update
//! source and guard is a lowered plan) and prepared hypothetical states
//! (every binding is materialized by a lowered plan, and a materialized
//! family member runs on the state with the xsub-value applied). Each
//! must agree with the direct semantics, with and without a declared
//! index on every column.

use proptest::prelude::*;

use hypoquery_engine::{Database, PreparedState};
use hypoquery_eval::{eval_query, eval_update};
use hypoquery_storage::DatabaseState;
use hypoquery_testkit::{arb_db, arb_query, arb_state_expr, arb_update, Universe};

fn universe() -> Universe {
    Universe::standard()
}

/// A database holding `state`'s data, with an index declared on every
/// column of every relation when `indexed` is set — the adversarial
/// extreme, where every probe and index-join gate that can fire does.
fn database_of(state: &DatabaseState, indexed: bool) -> Database {
    let mut db = Database::with_catalog(state.catalog().clone());
    for (name, rel) in state.iter() {
        db.load(name.as_str(), rel.iter().cloned()).unwrap();
    }
    if indexed {
        let decls: Vec<(String, usize)> = state
            .catalog()
            .iter()
            .flat_map(|(name, schema)| (0..schema.arity).map(move |c| (name.to_string(), c)))
            .collect();
        for (name, col) in decls {
            db.create_index(&name, col).unwrap();
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `apply_update` and `apply_update_unchecked` reach the state the
    /// `eval_update` oracle computes, for random updates including
    /// conditionals, always in a sequence whose second step reads the
    /// state the first step left.
    #[test]
    fn writes_match_eval_update(
        first in arb_update(&universe(), 2),
        then in arb_update(&universe(), 2),
        state in arb_db(&universe(), 6),
    ) {
        let u = first.then(then);
        for indexed in [false, true] {
            let db = database_of(&state, indexed);
            let expected = eval_update(&u, db.state()).unwrap();
            let mut checked = db.clone();
            checked.apply_update(&u).unwrap();
            prop_assert_eq!(checked.state(), &expected, "checked, indexed={}", indexed);
            let mut unchecked = db.clone();
            unchecked.apply_update_unchecked(&u).unwrap();
            prop_assert_eq!(unchecked.state(), &expected, "unchecked, indexed={}", indexed);
        }
    }

    /// On a prepared state, the lazy and the materialized answer to a
    /// family member both equal `[[q when η]]`, for members that are
    /// themselves hypothetical as well as pure ones.
    #[test]
    fn prepared_exec_matches_eval_query(
        eta in arb_state_expr(&universe(), 2),
        q in arb_query(&universe(), 2, 2),
        state in arb_db(&universe(), 6),
    ) {
        for indexed in [false, true] {
            let db = database_of(&state, indexed);
            let expected = eval_query(&q.clone().when(eta.clone()), db.state()).unwrap();
            let mut p = PreparedState::new(&db, eta.clone()).unwrap();
            prop_assert_eq!(&p.query(&db, &q).unwrap(), &expected, "lazy, indexed={}", indexed);
            p.materialize(&db).unwrap();
            prop_assert_eq!(
                &p.query(&db, &q).unwrap(),
                &expected,
                "materialized, indexed={}",
                indexed
            );
        }
    }
}
