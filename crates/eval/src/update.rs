//! The update walker: `[[U]]` (§3.1, with §6 conditionals) over a
//! caller-supplied query evaluator.
//!
//! An update only ever needs the values of its source and guard queries;
//! how those are computed is the caller's choice. The direct semantics
//! ([`crate::direct::eval_update`]) passes [`crate::direct::eval_query`];
//! the engine passes its physical-plan executor. Both therefore share one
//! walker, and differ only in how queries are evaluated.

use hypoquery_storage::{DatabaseState, RelName, Relation};

use hypoquery_algebra::{Query, Update};

use crate::error::EvalError;

/// Apply `u` to `db`, evaluating every source and guard query with
/// `eval` in the state it reads: a `Seq`'s second step sees the first
/// step's result, a `Cond`'s guard is read in the state the `Cond`
/// starts in.
pub fn eval_update_with<E>(
    u: &Update,
    db: &DatabaseState,
    eval: &impl Fn(&Query, &DatabaseState) -> Result<Relation, E>,
) -> Result<DatabaseState, E>
where
    E: From<EvalError>,
{
    match u {
        Update::Insert(name, q) => Ok(rebind(db, name, &eval(q, db)?, true)?),
        Update::Delete(name, q) => Ok(rebind(db, name, &eval(q, db)?, false)?),
        Update::Seq(a, b) => eval_update_with(b, &eval_update_with(a, db, eval)?, eval),
        Update::Cond {
            guard,
            then_u,
            else_u,
        } => {
            let branch = if eval(guard, db)?.is_empty() {
                else_u
            } else {
                then_u
            };
            eval_update_with(branch, db, eval)
        }
    }
}

/// `DB[R ← DB(R) ∪ v]` (insert) or `DB[R ← DB(R) − v]` (delete).
fn rebind(
    db: &DatabaseState,
    name: &RelName,
    v: &Relation,
    insert: bool,
) -> Result<DatabaseState, EvalError> {
    let cur = db.get(name)?;
    let next = if insert {
        cur.union(v)?
    } else {
        cur.difference(v)?
    };
    Ok(db.with_binding(name.clone(), next)?)
}
