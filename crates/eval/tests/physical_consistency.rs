//! Differential property tests for the pipelined physical operator
//! layer: for random databases, queries, and hypothetical updates, the
//! lowered [`PhysPlan`] must produce exactly what the index-free direct
//! semantics `[[Q]]` produces, under every strategy's prepared form
//! (lazy-reduced, ENF for HQL-1/HQL-2 — Propositions 5.1 and 5.3 —
//! modified ENF for HQL-3, and the planner's own choice), with and
//! without declared secondary indexes, and on duplicate-producing
//! ("bag") workloads where the streaming segments carry duplicates
//! internally.

use proptest::prelude::*;

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_core::{fully_lazy, to_enf_query, to_mod_enf, RewriteTrace};
use hypoquery_eval::{eval_bag_query, eval_query, BagState, PhysPlan};
use hypoquery_opt::{lower_plan, lower_query, plan, Statistics};
use hypoquery_storage::{DatabaseState, RelName, Relation};
use hypoquery_testkit::{arb_db, arb_predicate, arb_query, arb_tuple, arb_update, Universe};

fn universe() -> Universe {
    Universe::standard()
}

/// `db` with an index declared on every column of every relation — the
/// adversarial extreme: every probe/index-join gate that *can* fire does.
fn declare_all(db: &DatabaseState) -> DatabaseState {
    let mut out = db.clone();
    let decls: Vec<(RelName, usize)> = out
        .catalog()
        .iter()
        .flat_map(|(name, schema)| (0..schema.arity).map(move |c| (name.clone(), c)))
        .collect();
    for (name, col) in decls {
        out.declare_index(name, col).unwrap();
    }
    out
}

/// Lower and execute through the physical pipeline — the path
/// `engine::Database::execute` takes for every explicit strategy.
fn pipelined(q: &Query, db: &DatabaseState) -> Result<Relation, TestCaseError> {
    let phys: PhysPlan = lower_query(q, db.catalog(), &Statistics::of(db))
        .map_err(|e| TestCaseError::fail(format!("lowering failed: {e}")))?;
    phys.execute(db)
        .map_err(|e| TestCaseError::fail(format!("execution failed: {e}")))
}

/// Positive relational algebra only — select / project / union /
/// product / join over base relations and literals. On these shapes the
/// support of bag evaluation equals set evaluation, so the bag
/// interpreter is a second independent oracle for the physical layer's
/// handling of duplicate-carrying streams (projections and unions emit
/// duplicates between pipeline breakers).
fn arb_positive_query(universe: &Universe, arity: usize, depth: u32) -> BoxedStrategy<Query> {
    let names = universe.names_of_arity(arity);
    let mut leaves: Vec<BoxedStrategy<Query>> =
        vec![arb_tuple(arity).prop_map(Query::singleton).boxed()];
    if !names.is_empty() {
        leaves.push(prop::sample::select(names).prop_map(Query::Base).boxed());
    }
    let leaf = prop::strategy::Union::new(leaves).boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = arb_positive_query(universe, arity, depth - 1);
    let mut options: Vec<BoxedStrategy<Query>> = vec![
        leaf,
        (sub.clone(), arb_predicate(arity, 1))
            .prop_map(|(q, p)| q.select(p))
            .boxed(),
        (sub.clone(), sub).prop_map(|(a, b)| a.union(b)).boxed(),
    ];
    // Duplicate-heavy projections from wider inputs.
    for src_arity in universe.arities() {
        if src_arity >= arity && src_arity > 0 {
            let inner = arb_positive_query(universe, src_arity, depth - 1);
            let cols = prop::collection::vec(0..src_arity, arity);
            options.push((inner, cols).prop_map(|(q, cols)| q.project(cols)).boxed());
        }
    }
    for la in 1..arity {
        let ra = arity - la;
        let l = arb_positive_query(universe, la, depth - 1);
        let r = arb_positive_query(universe, ra, depth - 1);
        options.push(
            (l.clone(), r.clone())
                .prop_map(|(a, b)| a.product(b))
                .boxed(),
        );
        options.push(
            (l, r, arb_predicate(arity, 1))
                .prop_map(|(a, b, p)| a.join(b, p))
                .boxed(),
        );
    }
    prop::strategy::Union::new(options).boxed()
}

/// Pipelined == the direct semantics, on every strategy's own prepared
/// query form, over one database state.
fn check_all_strategies(q: &Query, db: &DatabaseState) -> Result<(), TestCaseError> {
    let expected = eval_query(q, db)
        .map_err(|e| TestCaseError::fail(format!("direct evaluation failed: {e}")))?;

    // Lazy: reduce to pure RA.
    let reduced = fully_lazy(q, &mut RewriteTrace::new());
    prop_assert_eq!(&pipelined(&reduced, db)?, &expected);

    // HQL-1 / HQL-2 share one physical plan over the ENF form.
    let enf = to_enf_query(q, &mut RewriteTrace::new());
    prop_assert_eq!(&pipelined(&enf, db)?, &expected);

    // HQL-3 over modified ENF (not every state expression qualifies).
    if let Ok(modq) = to_mod_enf(q) {
        prop_assert_eq!(&pipelined(&modq, db)?, &expected);
    }

    // Auto: whatever the planner picks, lowered as a whole plan.
    let stats = Statistics::of(db);
    let p = plan(q, db.catalog(), &stats);
    let phys = lower_plan(&p, db.catalog(), &stats)
        .map_err(|e| TestCaseError::fail(format!("plan lowering failed: {e}")))?;
    let auto = phys
        .execute(db)
        .map_err(|e| TestCaseError::fail(format!("plan execution failed: {e}")))?;
    prop_assert_eq!(&auto, &expected);

    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hypothetical queries (`body when {update}`): the pipeline matches
    /// the oracle under every strategy, with and without declared indexes.
    #[test]
    fn pipelined_matches_oracle_hypothetical(
        body in arb_query(&universe(), 2, 2),
        u in arb_update(&universe(), 2),
        db in arb_db(&universe(), 6),
    ) {
        let q = body.when(StateExpr::update(u));
        check_all_strategies(&q, &db)?;
        check_all_strategies(&q, &declare_all(&db))?;
    }

    /// Arbitrary queries (hypothetical contexts may appear at any depth,
    /// including under set operations and joins).
    #[test]
    fn pipelined_matches_oracle_nested(
        q in arb_query(&universe(), 2, 3),
        db in arb_db(&universe(), 6),
    ) {
        check_all_strategies(&q, &db)?;
        check_all_strategies(&q, &declare_all(&db))?;
    }

    /// Duplicate-heavy positive-RA workloads: the physical layer streams
    /// segments that carry duplicates between pipeline breakers; its
    /// answer must match both the set-semantics oracle and the support
    /// of the independent bag-semantics interpreter.
    #[test]
    fn pipelined_matches_bag_support_on_positive_queries(
        q in arb_positive_query(&universe(), 2, 3),
        db in arb_db(&universe(), 6),
    ) {
        let expected = eval_query(&q, &db).unwrap();
        let got = pipelined(&q, &db)?;
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(&pipelined(&q, &declare_all(&db))?, &expected);
        let bag = eval_bag_query(&q, &BagState::from_set(&db)).unwrap();
        prop_assert_eq!(bag.to_set(), expected);
    }
}
