//! The direct semantics of HQL (§3.1 and §4.2).
//!
//! * `[[Q]] : DB → R` — [`eval_query`];
//! * `[[U]] : DB → DB` — [`eval_update`];
//! * `[[η]] : DB → DB` — [`eval_state`];
//! * `apply(DB, ρ)` (§3.3, substitutions as updates) — [`apply_subst`].
//!
//! This is the reference semantics every optimized strategy in the
//! workspace is property-tested against.

use std::collections::BTreeMap;

use hypoquery_storage::{DatabaseState, RelName, Relation, Tuple, Value};

use hypoquery_algebra::{AggExpr, ExplicitSubst, Query, StateExpr, Update};

use crate::error::EvalError;
use crate::join;
use crate::update::eval_update_with;

/// `[[Q]](DB)` — the direct semantics of a full HQL query (§4.2). Every
/// node materializes its value; no declared index is ever consulted, so
/// the oracle shares no access-path code with the executor it checks.
pub fn eval_query(q: &Query, db: &DatabaseState) -> Result<Relation, EvalError> {
    match q {
        Query::When(inner, eta) => eval_query(inner, &eval_state(eta, db)?),
        Query::Base(name) => Ok(db.get(name)?),
        Query::Singleton(t) => Ok(Relation::singleton(t.clone())),
        Query::Empty { arity } => Ok(Relation::empty(*arity)),
        Query::Select(inner, p) => Ok(eval_query(inner, db)?.select(|t| p.eval(t))),
        Query::Project(inner, cols) => Ok(eval_query(inner, db)?.project(cols)?),
        Query::Union(a, b) => Ok(eval_query(a, db)?.union(&eval_query(b, db)?)?),
        Query::Intersect(a, b) => Ok(eval_query(a, db)?.intersect(&eval_query(b, db)?)?),
        Query::Diff(a, b) => Ok(eval_query(a, db)?.difference(&eval_query(b, db)?)?),
        Query::Product(a, b) => Ok(eval_query(a, db)?.product(&eval_query(b, db)?)),
        Query::Join(a, b, p) => Ok(join::join(&eval_query(a, db)?, &eval_query(b, db)?, p)),
        Query::Aggregate {
            input,
            group_by,
            aggs,
        } => eval_aggregate(&eval_query(input, db)?, group_by, aggs),
    }
}

/// `[[U]](DB)` — the direct semantics of an update (§3.1), extended with
/// §6 conditionals: the shared update walker with [`eval_query`] as its
/// query evaluator.
pub fn eval_update(u: &Update, db: &DatabaseState) -> Result<DatabaseState, EvalError> {
    eval_update_with(u, db, &eval_query)
}

/// `[[η]](DB)` — the direct semantics of a hypothetical-state expression
/// (§4.2). Note the composition order of Lemma 3.6: `η₁ # η₂` reaches
/// `η₁`'s state first, then applies `η₂` in it.
pub fn eval_state(eta: &StateExpr, db: &DatabaseState) -> Result<DatabaseState, EvalError> {
    match eta {
        StateExpr::Update(u) => eval_update(u, db),
        StateExpr::Subst(eps) => apply_subst(db, eps),
        StateExpr::Compose(a, b) => eval_state(b, &eval_state(a, db)?),
    }
}

/// `apply(DB, ρ)` (§3.3): treat a substitution as the update that
/// *simultaneously* replaces each `Sᵢ` with the value of `Qᵢ` — every
/// binding is evaluated in the original state.
pub fn apply_subst(db: &DatabaseState, eps: &ExplicitSubst) -> Result<DatabaseState, EvalError> {
    let mut values: Vec<(RelName, Relation)> = Vec::with_capacity(eps.len());
    for (name, q) in eps.iter() {
        values.push((name.clone(), eval_query(q, db)?));
    }
    let mut out = db.clone();
    for (name, v) in values {
        out.set(name, v)?;
    }
    Ok(out)
}

/// Grouped aggregation over a materialized relation (§6 extension).
///
/// Set semantics; an empty input yields an empty output (including when
/// there are no grouping columns — we do not emit SQL's global zero-row).
pub fn eval_aggregate(
    input: &Relation,
    group_by: &[usize],
    aggs: &[AggExpr],
) -> Result<Relation, EvalError> {
    let mut groups: BTreeMap<Tuple, Vec<&Tuple>> = BTreeMap::new();
    for t in input.iter() {
        groups.entry(t.project(group_by)).or_default().push(t);
    }
    let mut out = Relation::empty(group_by.len() + aggs.len());
    for (key, members) in groups {
        let mut fields: Vec<Value> = key.fields().to_vec();
        for agg in aggs {
            fields.push(eval_one_agg(agg, &members)?);
        }
        out.insert(Tuple::new(fields))?;
    }
    Ok(out)
}

fn eval_one_agg(agg: &AggExpr, members: &[&Tuple]) -> Result<Value, EvalError> {
    match agg {
        AggExpr::Count => Ok(Value::int(members.len() as i64)),
        AggExpr::Sum(col) => {
            let mut total: i64 = 0;
            for t in members {
                match t[*col].as_int() {
                    Some(v) => total += v,
                    None => {
                        return Err(EvalError::AggregateType {
                            agg: "sum",
                            value: t[*col].to_string(),
                        })
                    }
                }
            }
            Ok(Value::int(total))
        }
        AggExpr::Min(col) => Ok(members
            .iter()
            .map(|t| t[*col].clone())
            .min()
            .expect("groups are non-empty by construction")),
        AggExpr::Max(col) => Ok(members
            .iter()
            .map(|t| t[*col].clone())
            .max()
            .expect("groups are non-empty by construction")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypoquery_algebra::{CmpOp, Predicate};
    use hypoquery_storage::{tuple, Catalog};

    fn db() -> DatabaseState {
        let mut cat = Catalog::new();
        cat.declare_arity("R", 2).unwrap();
        cat.declare_arity("S", 2).unwrap();
        cat.declare_arity("T", 1).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_rows("R", [tuple![1, 10], tuple![2, 20]]).unwrap();
        db.insert_rows("S", [tuple![2, 200], tuple![3, 300]])
            .unwrap();
        db.insert_rows("T", [tuple![7]]).unwrap();
        db
    }

    #[test]
    fn basic_algebra_semantics() {
        let db = db();
        let q = Query::base("R").union(Query::base("S"));
        assert_eq!(eval_query(&q, &db).unwrap().len(), 4);
        let q = Query::base("R").intersect(Query::base("S"));
        assert!(eval_query(&q, &db).unwrap().is_empty());
        let q = Query::base("R").select(Predicate::col_cmp(0, CmpOp::Ge, 2));
        assert_eq!(eval_query(&q, &db).unwrap().len(), 1);
        let q = Query::base("R").project([0]);
        assert_eq!(
            eval_query(&q, &db).unwrap(),
            Relation::from_rows(1, [tuple![1], tuple![2]]).unwrap()
        );
        let q = Query::base("R").join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2));
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![2, 20, 2, 200]));
    }

    #[test]
    fn update_semantics() {
        let db = db();
        // ins(R, S): R gains S's tuples.
        let u = Update::insert("R", Query::base("S"));
        let db2 = eval_update(&u, &db).unwrap();
        assert_eq!(db2.get(&"R".into()).unwrap().len(), 4);
        // Original untouched.
        assert_eq!(db.get(&"R".into()).unwrap().len(), 2);
        // del(R, σ_{#0=1}(R)) removes one row.
        let u = Update::delete(
            "R",
            Query::base("R").select(Predicate::col_cmp(0, CmpOp::Eq, 1)),
        );
        let db3 = eval_update(&u, &db).unwrap();
        assert_eq!(db3.get(&"R".into()).unwrap().len(), 1);
        // Sequencing: later updates see earlier effects.
        let u = Update::insert("R", Query::base("S")).then(Update::delete("R", Query::base("R")));
        let db4 = eval_update(&u, &db).unwrap();
        assert!(db4.get(&"R".into()).unwrap().is_empty());
    }

    #[test]
    fn conditional_update_semantics() {
        let db = db();
        let grow = Update::insert("R", Query::base("S"));
        let shrink = Update::delete("R", Query::base("R"));
        // Guard non-empty: then-branch.
        let u = Update::cond(Query::base("T"), grow.clone(), shrink.clone());
        assert_eq!(
            eval_update(&u, &db)
                .unwrap()
                .get(&"R".into())
                .unwrap()
                .len(),
            4
        );
        // Guard empty: else-branch.
        let empty_guard = Query::base("T").select(Predicate::col_cmp(0, CmpOp::Gt, 100));
        let u = Update::cond(empty_guard, grow, shrink);
        assert!(eval_update(&u, &db)
            .unwrap()
            .get(&"R".into())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn when_semantics() {
        let db = db();
        // R when {ins(R, S)} sees the inserted tuples; DB unchanged.
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert_eq!(eval_query(&q, &db).unwrap().len(), 4);
        assert_eq!(db.get(&"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn subst_bindings_are_parallel() {
        let db = db();
        // {S/R, R/S} swaps — both sides read the ORIGINAL state.
        let eps = ExplicitSubst::new([
            ("R".into(), Query::base("S")),
            ("S".into(), Query::base("R")),
        ]);
        let swapped = apply_subst(&db, &eps).unwrap();
        assert_eq!(
            swapped.get(&"R".into()).unwrap(),
            db.get(&"S".into()).unwrap()
        );
        assert_eq!(
            swapped.get(&"S".into()).unwrap(),
            db.get(&"R".into()).unwrap()
        );
    }

    #[test]
    fn compose_order_matches_lemma_3_6() {
        let db = db();
        // η1 = ins(R, S); η2 = del(R, R) — compose runs η1 THEN η2.
        let e1 = StateExpr::update(Update::insert("R", Query::base("S")));
        let e2 = StateExpr::update(Update::delete("R", Query::base("R")));
        let out = eval_state(&e1.clone().compose(e2.clone()), &db).unwrap();
        assert!(out.get(&"R".into()).unwrap().is_empty());
        // Reversed: delete first, then insert S — R ends with S's rows.
        let out = eval_state(&e2.compose(e1), &db).unwrap();
        assert_eq!(out.get(&"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn nested_when_inside_state() {
        let db = db();
        // ins(R, (S when {del(S, S)})) inserts the EMPTY relation.
        let inner = Query::base("S").when(StateExpr::update(Update::delete("S", Query::base("S"))));
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", inner)));
        assert_eq!(eval_query(&q, &db).unwrap(), db.get(&"R".into()).unwrap());
    }

    #[test]
    fn aggregate_semantics() {
        let db = db();
        let q = Query::base("R").union(Query::base("S")).aggregate(
            [],
            [
                AggExpr::Count,
                AggExpr::Sum(1),
                AggExpr::Min(0),
                AggExpr::Max(1),
            ],
        );
        let out = eval_query(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![4, 530, 1, 300]));
        // Grouped.
        let mut db2 = db.clone();
        db2.insert_row("R", tuple![1, 90]).unwrap();
        let q = Query::base("R").aggregate([0], [AggExpr::Count]);
        let out = eval_query(&q, &db2).unwrap();
        assert!(out.contains(&tuple![1, 2]));
        assert!(out.contains(&tuple![2, 1]));
        // Empty input → empty output.
        let q = Query::empty(2).aggregate([], [AggExpr::Count]);
        assert!(eval_query(&q, &db).unwrap().is_empty());
    }

    #[test]
    fn sum_over_strings_errors() {
        let mut cat = Catalog::new();
        cat.declare_arity("W", 1).unwrap();
        let mut db = DatabaseState::new(cat);
        db.insert_row("W", tuple!["x"]).unwrap();
        let q = Query::base("W").aggregate([], [AggExpr::Sum(0)]);
        assert!(matches!(
            eval_query(&q, &db),
            Err(EvalError::AggregateType { agg: "sum", .. })
        ));
    }
}
