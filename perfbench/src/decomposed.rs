//! The traced request path: `Database::query` and
//! `Database::execute_update` taken apart into calls to each layer's
//! public entry point, in the order the engine makes them, with a span
//! around each call.
//!
//! Query: `Database::prepare` (parse + typing), typing again (the first
//! step of `Database::execute`), then for `Auto` `Statistics::of` +
//! `plan` and `Statistics::of` + `lower_plan`, or for a pinned strategy
//! the normal form (`fully_lazy` + `optimize` / `to_enf_query` /
//! `to_mod_enf`) + `Statistics::of` + `lower_query`; finally
//! `PhysPlan::execute`. The result must equal `Database::query`'s.

use std::time::{Duration, Instant};

use hypoquery_algebra::typing::arity_of;
use hypoquery_algebra::{Query, StateExpr};
use hypoquery_core::{fully_lazy, to_enf_query, to_mod_enf, RewriteTrace};
use hypoquery_engine::{Database, EngineError, Strategy};
use hypoquery_eval::PhysPlan;
use hypoquery_opt::{estimate_rows, lower_plan, lower_query, optimize, plan, Statistics};
use hypoquery_storage::Relation;

use crate::trace::Tracer;

/// A traced query's result plus the planner's row estimate for it.
pub struct Traced {
    pub rel: Relation,
    pub est_rows: f64,
}

/// `Database::query_with(src, strategy)`, one span per layer call, all
/// under an `engine.query` span.
pub fn query(
    tr: &mut Tracer,
    db: &Database,
    src: &str,
    strategy: Strategy,
) -> Result<Traced, EngineError> {
    let root = tr.enter("engine.query");
    let out = tr
        .time("parser.prepare", || db.prepare(src))
        .and_then(|q| execute(tr, db, &q, strategy));
    tr.exit(root);
    out
}

/// `Database::execute(q, strategy)` taken apart.
pub fn execute(
    tr: &mut Tracer,
    db: &Database,
    q: &Query,
    strategy: Strategy,
) -> Result<Traced, EngineError> {
    let (state, catalog) = (db.state(), db.catalog());
    tr.time("algebra.typing", || arity_of(q, catalog))?;
    let (phys, est_rows): (PhysPlan, f64) = if strategy == Strategy::Auto {
        let stats = tr.time("opt.stats", || Statistics::of(state));
        let p = tr.time("opt.plan", || plan(q, catalog, &stats));
        let est = estimate_rows(&p.query, &stats);
        let stats = tr.time("opt.stats", || Statistics::of(state));
        (
            tr.time("opt.lower", || lower_plan(&p, catalog, &stats))?,
            est,
        )
    } else {
        let normal = tr.time("core.normalize", || normalize(q, strategy, db))?;
        let stats = tr.time("opt.stats", || Statistics::of(state));
        let est = estimate_rows(&normal, &stats);
        (
            tr.time("opt.lower", || lower_query(&normal, catalog, &stats))?,
            est,
        )
    };
    let rel = tr.time("eval.execute", || phys.execute(state))?;
    Ok(Traced { rel, est_rows })
}

/// The logical shape a pinned strategy executes (the engine's
/// `prepare_strategy_query`).
pub fn normalize(q: &Query, strategy: Strategy, db: &Database) -> Result<Query, EngineError> {
    Ok(match strategy {
        Strategy::Auto | Strategy::Lazy => {
            let reduced = fully_lazy(q, &mut RewriteTrace::new());
            optimize(&reduced, db.catalog()).0
        }
        Strategy::Hql1 | Strategy::Hql2 => to_enf_query(q, &mut RewriteTrace::new()),
        Strategy::Delta => to_mod_enf(q)?,
    })
}

/// `Database::execute_update(src)` taken apart: parse + typing, the §1
/// hypothetical check of each `violation` query `when {U}`, then the
/// state change (`Database::apply_update_unchecked`, whose work is
/// `check_update` + `hypoquery_eval::eval_update`).
pub fn update(
    tr: &mut Tracer,
    db: &mut Database,
    src: &str,
    constraints: &[(&str, Query)],
) -> Result<(), EngineError> {
    let root = tr.enter("engine.write");
    let out = (|| {
        let u = tr.time("parser.prepare", || db.prepare_update(src))?;
        let check = tr.enter("engine.constraint_check");
        let mut violated = None;
        for (name, c) in constraints {
            let q = c.clone().when(StateExpr::update(u.clone()));
            let t = execute(tr, db, &q, Strategy::Auto)?;
            if !t.rel.is_empty() && violated.is_none() {
                violated = Some(EngineError::ConstraintViolation {
                    constraint: name.to_string(),
                    violations: t.rel.len(),
                });
            }
        }
        tr.exit(check);
        if let Some(e) = violated {
            return Err(e);
        }
        tr.time("eval.update", || db.apply_update_unchecked(&u))
    })();
    tr.exit(root);
    out
}

/// Time `f` `reps` times and return the median.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut v: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    v.sort();
    v[v.len() / 2]
}

/// Executor probes on one query: plain vs analyzed execution of the same
/// plan, and the rows its operators examined.
pub struct ExecProbe {
    pub execute: Duration,
    pub analyze: Duration,
    /// Rows every operator received, plus the rows sources read.
    pub rows_in: u64,
    pub rows_out: u64,
}

pub fn exec_probe(db: &Database, q: &Query, reps: usize) -> Result<ExecProbe, EngineError> {
    let p = db.plan_query(q);
    let phys = db.physical_plan(&p)?;
    let state = db.state();
    let (rel, m) = phys.execute_analyze(state)?;
    let rows_in = (0..m.len())
        .map(|i| {
            let s = m.node(i);
            if s.rows_in == 0 {
                s.rows_out
            } else {
                s.rows_in
            }
        })
        .sum();
    let execute = median_time(reps, || {
        std::hint::black_box(phys.execute(state).expect("probe plan ran once already"));
    });
    let analyze = median_time(reps, || {
        std::hint::black_box(
            phys.execute_analyze(state)
                .expect("probe plan ran once already"),
        );
    });
    Ok(ExecProbe {
        execute,
        analyze,
        rows_in,
        rows_out: rel.len() as u64,
    })
}

/// Auto's time over the best pinned strategy's time for one query
/// (`reps` untraced runs each, medians).
pub fn auto_regret(
    db: &Database,
    q: &Query,
    pinned: &[Strategy],
    reps: usize,
) -> Result<f64, EngineError> {
    let time = |s: Strategy| -> Result<Duration, EngineError> {
        db.execute(q, s)?;
        Ok(median_time(reps, || {
            std::hint::black_box(db.execute(q, s).expect("ran once already"));
        }))
    };
    let auto = time(Strategy::Auto)?;
    let mut best = Duration::MAX;
    for &s in pinned {
        best = best.min(time(s)?);
    }
    Ok(auto.as_secs_f64() / best.as_secs_f64().max(1e-9))
}

/// q-error of an estimate: `max(est/actual, actual/est)`, both at least 1.
pub fn qerror(est: f64, actual: usize) -> f64 {
    let e = est.max(1.0);
    let a = (actual as f64).max(1.0);
    (e / a).max(a / e)
}

/// Every pinned strategy the engine offers.
pub const PINNED: [Strategy; 4] = [
    Strategy::Lazy,
    Strategy::Hql1,
    Strategy::Hql2,
    Strategy::Delta,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.define("R", 2).unwrap();
        db.define("S", 2).unwrap();
        let mut rng = crate::common::Rng::new(3, 0);
        db.load("R", crate::common::rows(300, 100, &mut rng))
            .unwrap();
        db.load("S", crate::common::rows(300, 100, &mut rng))
            .unwrap();
        db
    }

    #[test]
    fn decomposed_query_matches_database_query() {
        let db = db();
        let mut tr = Tracer::new(Instant::now());
        let src = "(R join S on #0 = #2) when {insert into R (select #0 > 80 (S))}";
        for s in [
            Strategy::Auto,
            Strategy::Lazy,
            Strategy::Hql2,
            Strategy::Delta,
        ] {
            let t = query(&mut tr, &db, src, s).unwrap();
            assert_eq!(t.rel, db.query_with(src, s).unwrap(), "{s}");
        }
        assert_eq!(tr.durations_us("engine.query").len(), 4);
        assert_eq!(tr.durations_us("core.normalize").len(), 3);
    }

    #[test]
    fn decomposed_update_checks_constraints() {
        let mut a = db();
        let mut b = db();
        let c = vec![("c", a.prepare("select #1 < 0 (R)").unwrap())];
        a.add_constraint("c", "select #1 < 0 (R)").unwrap();
        let mut tr = Tracer::new(Instant::now());
        let ok = "insert into R (row(5, 1000))";
        update(&mut tr, &mut b, ok, &c).unwrap();
        a.execute_update(ok).unwrap();
        assert_eq!(a.state().get(&"R".into()), b.state().get(&"R".into()));
        let bad = "insert into R (row(5, -1))";
        assert!(update(&mut tr, &mut b, bad, &c).is_err());
        assert!(a.execute_update(bad).is_err());
        assert_eq!(a.state().get(&"R".into()), b.state().get(&"R".into()));
    }
}
