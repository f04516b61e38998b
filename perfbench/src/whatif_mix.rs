//! `whatif_mix`: read-only hypothetical queries over one shared base.
//!
//! R and S hold 20k rows each, keys over `0..20k`, no index. Requests are
//! the paper's shapes from `hypoquery_bench::workload`, scaled to the key
//! range: the E2 family under a composed state, R ⋈ S under a ~2% E5
//! delta, the E7 body with m occurrences under an expensive binding, E9
//! scenarios, and E12 select and join chains under `when`. Each shape
//! draws its η from a pool of 8 scenarios, so the stream keeps revisiting
//! the same hypothetical states. Most requests use `Auto`; a fixed
//! minority is pinned to `lazy`, `hql2` or `delta`, as a session would pin
//! them with `STRATEGY`. A share of plain reads (each shape's body at the
//! root) rides along.
//!
//! One cycle of the stream holds every (shape, scenario) pair under
//! `Auto` (the join shapes twice), the pinned requests and the reads,
//! shuffled by the seed; the timed window runs whole cycles, so every run
//! sees the same mix.

use std::collections::BTreeMap;
use std::time::Instant;

use hypoquery_algebra::{CmpOp, Query, StateExpr, Update};
use hypoquery_bench::workload::{
    e12_join_chain, e12_select_chain, e2_state, e5_update, e7_query, rs_join, sel,
};
use hypoquery_engine::{Database, Strategy};
use hypoquery_eval::eval_query;
use hypoquery_parser::unparse_query;

use crate::common::{
    digest, e2e_metrics, median, reset_rss_peak, rss_peak_mb, time_setups, Class, Config, Outcome,
    Recorder, Rng,
};
use crate::decomposed::{self, PINNED};
use crate::layers::{Layers, QueryTrace};
use crate::trace::Tracer;

/// Set-ups timed at each end of an untraced run (~0.1 s each).
const SETUPS: usize = 8;

/// Relation sizes and key range of an instance.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub rows: usize,
    pub keys: i64,
}

/// The benchmark's instance.
pub const SIZES: Sizes = Sizes {
    rows: 20_000,
    keys: 20_000,
};

/// Scenarios per shape.
pub const SCENARIOS: usize = 8;

/// The query shapes, with the members of a family (E2 has several).
pub struct Shape {
    pub name: &'static str,
    pub members: usize,
    /// `Auto` requests per scenario in one cycle. The ~12–18 ms join
    /// shapes run twice, so the hypothetical p50 falls inside their band
    /// rather than on the jump between it and the ~2–8 ms selections,
    /// where it would flip from run to run.
    pub auto_rounds: usize,
}

pub const SHAPES: [Shape; 6] = [
    Shape {
        name: "e2_family",
        members: 4,
        auto_rounds: 1,
    },
    Shape {
        name: "e5_join_delta",
        members: 1,
        auto_rounds: 2,
    },
    Shape {
        name: "e7_crossover",
        members: 1,
        auto_rounds: 1,
    },
    Shape {
        name: "e9_scenarios",
        members: 1,
        auto_rounds: 1,
    },
    Shape {
        name: "e12_select_chain",
        members: 1,
        auto_rounds: 1,
    },
    Shape {
        name: "e12_join_chain",
        members: 1,
        auto_rounds: 2,
    },
];

/// The strategies the pinned minority uses; request `i` of a shape's
/// pinned ones runs in scenario `2i + 1`.
pub const PINNED_MIX: [Strategy; 3] = [Strategy::Lazy, Strategy::Hql2, Strategy::Delta];

fn r() -> Query {
    Query::base("R")
}

fn s_() -> Query {
    Query::base("S")
}

/// The body of shape `shape` (member `m`): what a plain read asks.
pub fn body(z: Sizes, shape: usize, s: usize, m: usize) -> Query {
    let k = z.keys;
    match shape {
        0 => sel(r(), CmpOp::Gt, k - k / 20 - m as i64 * k / 40).union(sel(
            s_(),
            CmpOp::Le,
            k / 20 + m as i64 * k / 40,
        )),
        1 => rs_join(),
        2 => e7_body(1 + s % 4),
        3 => sel(r(), CmpOp::Gt, k - k / 100).union(sel(s_(), CmpOp::Le, k / 200)),
        4 => e12_select_chain(4 + 2 * (s % 3), k),
        _ => e12_join_chain(4 + 2 * (s % 3), k, z.rows),
    }
}

/// E7's body: `m` selections of R with distinct payload thresholds.
fn e7_body(m: usize) -> Query {
    match e7_query(m) {
        Query::When(q, _) => *q,
        other => other,
    }
}

/// The hypothetical request of shape `shape` in scenario `s`.
pub fn whatif(z: Sizes, db: &Database, shape: usize, s: usize, m: usize) -> Query {
    let k = z.keys;
    let si = s as i64;
    match shape {
        0 => body(z, 0, s, m).when(e2_state(k - k / 20 - si * k / 80, k / 20 + si * k / 80)),
        1 => rs_join().when(StateExpr::update(e5_update(
            db.state(),
            0.01 + 0.0025 * s as f64,
        ))),
        2 => e7_query(1 + s % 4),
        3 => {
            let t = k / 100 + si * (k * 9 / 10) / SCENARIOS as i64;
            body(z, 3, s, m)
                .when(StateExpr::update(Update::delete(
                    "R",
                    sel(r(), CmpOp::Lt, t),
                )))
                .when(StateExpr::update(Update::insert(
                    "S",
                    sel(r(), CmpOp::Gt, k - t),
                )))
        }
        _ => body(z, shape, s, m).when(StateExpr::update(Update::delete(
            "R",
            sel(r(), CmpOp::Lt, k / 100 * (1 + si % 4)),
        ))),
    }
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    pub shape: usize,
    pub scenario: usize,
    pub member: usize,
    pub strategy: Strategy,
}

/// What a request's result depends on: class, shape, scenario, member
/// (never the strategy).
type Key = (Class, usize, usize, usize);

impl Op {
    fn key(&self) -> Key {
        (self.class, self.shape, self.scenario, self.member)
    }
}

/// One cycle of the stream, a fixed multiset shuffled by the seed: per
/// shape, every scenario under `Auto` (`auto_rounds` times), one request
/// per pinned strategy, and four plain reads.
pub fn cycle(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    for (shape, sh) in SHAPES.iter().enumerate() {
        let op = |class, scenario: usize, strategy| Op {
            class,
            shape,
            scenario: if class == Class::Read {
                read_scenario(shape, scenario)
            } else {
                scenario
            },
            member: scenario % sh.members,
            strategy,
        };
        for s in (0..SCENARIOS).cycle().take(SCENARIOS * sh.auto_rounds) {
            ops.push(op(Class::WhatIf, s, Strategy::Auto));
        }
        for (i, &strategy) in PINNED_MIX.iter().enumerate() {
            ops.push(op(Class::WhatIf, 2 * i + 1, strategy));
        }
        for s in (0..SCENARIOS).step_by(2) {
            ops.push(op(Class::Read, s, Strategy::Auto));
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// Reads only depend on the scenario where the body does (E7's m, E12's
/// depth); other shapes read one body.
fn read_scenario(shape: usize, s: usize) -> usize {
    match shape {
        2 | 4 | 5 => s,
        _ => 0,
    }
}

/// The query an op sends.
pub fn query_of(z: Sizes, db: &Database, op: &Op) -> Query {
    match op.class {
        Class::Read => body(z, op.shape, op.scenario, op.member),
        _ => whatif(z, db, op.shape, op.scenario, op.member),
    }
}

/// Generate and load the base.
pub fn build(z: Sizes, seed: u64) -> Database {
    let mut rng = Rng::new(seed, 1);
    let mut db = Database::new();
    db.define("R", 2).expect("fresh catalog");
    db.define("S", 2).expect("fresh catalog");
    db.load("R", crate::common::rows(z.rows, z.keys, &mut rng))
        .expect("arity 2 rows");
    db.load("S", crate::common::rows(z.rows, z.keys, &mut rng))
        .expect("arity 2 rows");
    db
}

/// Every distinct request of the stream (each cycle holds the same
/// ones): the query and the source text sent for it.
fn requests(z: Sizes, db: &Database) -> BTreeMap<Key, (Query, String)> {
    let mut out = BTreeMap::new();
    for op in cycle(&mut Rng::new(0, 0)) {
        out.entry(op.key()).or_insert_with(|| {
            let q = query_of(z, db, &op);
            let src = unparse_query(&q);
            (q, src)
        });
    }
    out
}

/// Load the base, build every request, and warm every shape once.
fn set_up(z: Sizes, seed: u64) -> (Database, BTreeMap<Key, (Query, String)>) {
    let db = build(z, seed);
    let reqs = requests(z, &db);
    for shape in 0..SHAPES.len() {
        db.query(&reqs[&(Class::WhatIf, shape, 0, 0)].1)
            .expect("warm-up query runs");
    }
    (db, reqs)
}

pub fn run(cfg: &Config) -> Outcome {
    let z = SIZES;
    let mut setup_s = Vec::new();
    let (db, reqs) = time_setups(SETUPS, &mut setup_s, || set_up(z, cfg.seed), drop);

    // Oracle: the direct semantics on the query itself (not its parse),
    // once per distinct request.
    let oracle: BTreeMap<Key, u64> = reqs
        .iter()
        .map(|(&key, (q, _))| {
            let rel = eval_query(q, db.state()).expect("oracle evaluates");
            (key, digest(&rel))
        })
        .collect();
    reset_rss_peak();

    let mut rng = Rng::new(cfg.seed, 2);
    let window = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut rec = Recorder::default();
    let mut by_shape: BTreeMap<(Class, &str, String), Vec<f64>> = BTreeMap::new();
    let mut op_id = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < window {
        for op in cycle(&mut rng) {
            let src = &reqs[&op.key()].1;
            let t = Instant::now();
            let res = db.query_with(src, op.strategy);
            let d = t.elapsed();
            rec.record(op.class, d);
            by_shape
                .entry((op.class, SHAPES[op.shape].name, op.strategy.to_string()))
                .or_default()
                .push(crate::common::ms(d));
            check(&mut rec, op_id, &op, res.map(|r| digest(&r)), &oracle);
            op_id += 1;
        }
    }
    let wall = start.elapsed();
    let rss_mb = rss_peak_mb();
    println!("whatif_mix: R, S = {} rows, keys 0..{}", z.rows, z.keys);
    for ((class, name, strategy), v) in &by_shape {
        println!(
            "  {class:?} {name:<18} {strategy:<6} median {:>9.3} ms (n={})",
            median(v),
            v.len()
        );
    }
    if !cfg.trace {
        time_setups(SETUPS, &mut setup_s, || set_up(z, cfg.seed), drop);
        let metrics = e2e_metrics(&rec, wall, &setup_s, rss_mb);
        return Outcome {
            attempted: rec.attempted,
            failed: rec.failed,
            metrics,
        };
    }

    // Traced window: every request through the decomposed path.
    let mut tr = Tracer::new(Instant::now());
    let mut qt = QueryTrace::default();
    let mut trec = Recorder::default();
    let before = hypoquery_storage::index_counters();
    let start = Instant::now();
    let mut first = true;
    while start.elapsed().as_secs_f64() < window {
        for op in cycle(&mut rng) {
            let src = &reqs[&op.key()].1;
            match qt.run(&mut tr, &db, src, op.strategy, op_id, first) {
                Ok((rel, d)) => {
                    match d {
                        Some(d) => trec.record(op.class, d),
                        None => trec.untimed(),
                    }
                    check(&mut trec, op_id, &op, Ok(digest(&rel)), &oracle);
                }
                Err(e) => {
                    trec.untimed();
                    trec.fail(&op_id.to_string(), &e);
                }
            }
            op_id += 1;
        }
        first = !first;
    }
    let mut layers = Layers::default();
    layers.add_index_delta(before, hypoquery_storage::index_counters());
    layers.add_spans(&tr);
    qt.fill(&mut layers);
    layers.set("trace.overhead", rec.mean_ms() / trec.mean_ms());

    // Probes: executor figures and Auto's regret, per shape, scenario 0.
    let mut probes = Vec::new();
    let mut regrets = Vec::new();
    for (shape, sh) in SHAPES.iter().enumerate() {
        let op = Op {
            class: Class::WhatIf,
            shape,
            scenario: 0,
            member: 0,
            strategy: Strategy::Auto,
        };
        let q = query_of(z, &db, &op);
        probes.push(decomposed::exec_probe(&db, &q, 3).expect("probe query runs"));
        let r = decomposed::auto_regret(&db, &q, &PINNED, 3).expect("every strategy runs");
        regrets.push((sh.name.to_string(), r));
    }
    layers.add_exec_probes(&probes);
    layers.add_regrets(&regrets);
    tr.finish("whatif_mix");
    rec.merge(trec);
    Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics: layers.into_metrics(),
    }
}

fn check(
    rec: &mut Recorder,
    op_id: u64,
    op: &Op,
    got: Result<u64, hypoquery_engine::EngineError>,
    oracle: &BTreeMap<Key, u64>,
) {
    match got {
        Ok(d) if d == oracle[&op.key()] => {}
        Ok(_) => rec.fail(
            &op_id.to_string(),
            &format!("{op:?}: result differs from the direct semantics"),
        ),
        Err(e) => rec.fail(&op_id.to_string(), &format!("{op:?}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digest_of;

    const SMALL: Sizes = Sizes {
        rows: 400,
        keys: 400,
    };

    fn stream_digest(seed: u64) -> u64 {
        let db = build(SMALL, seed);
        let mut rng = Rng::new(seed, 2);
        let ops: Vec<(String, String)> = (0..4)
            .flat_map(|_| cycle(&mut rng))
            .map(|op| (format!("{op:?}"), unparse_query(&query_of(SMALL, &db, &op))))
            .collect();
        let data: Vec<_> = db.state().iter().map(|(_, r)| digest(r)).collect();
        digest_of(&(ops, data))
    }

    #[test]
    fn one_seed_one_stream() {
        assert_eq!(stream_digest(7), stream_digest(7));
        assert_ne!(stream_digest(7), stream_digest(8));
    }

    #[test]
    fn every_shape_and_strategy_matches_the_direct_semantics() {
        let db = build(SMALL, 3);
        for (shape, sh) in SHAPES.iter().enumerate() {
            for scenario in 0..SCENARIOS {
                for member in 0..sh.members {
                    for class in [Class::Read, Class::WhatIf] {
                        let op = Op {
                            class,
                            shape,
                            scenario,
                            member,
                            strategy: Strategy::Auto,
                        };
                        let q = query_of(SMALL, &db, &op);
                        let src = unparse_query(&q);
                        let want = eval_query(&q, db.state()).unwrap();
                        for st in std::iter::once(Strategy::Auto).chain(PINNED) {
                            let got = db
                                .query_with(&src, st)
                                .unwrap_or_else(|e| panic!("{} {st}: {e}", sh.name));
                            assert_eq!(got, want, "{} s{scenario} m{member} {st}", sh.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cycles_hold_the_fixed_mix() {
        let mut rng = Rng::new(1, 2);
        let c = cycle(&mut rng);
        let whatif = c.iter().filter(|o| o.class == Class::WhatIf).count();
        let pinned = c.iter().filter(|o| o.strategy != Strategy::Auto).count();
        let reads = c.iter().filter(|o| o.class == Class::Read).count();
        let auto: usize = SHAPES.iter().map(|s| s.auto_rounds * SCENARIOS).sum();
        assert_eq!(whatif, auto + pinned);
        assert_eq!(pinned, SHAPES.len() * PINNED_MIX.len());
        assert_eq!(reads, 4 * SHAPES.len());
        // The multiset does not depend on the seed; only the order does.
        let mut other = cycle(&mut Rng::new(2, 2));
        let key = |o: &Op| format!("{o:?}");
        let mut a: Vec<String> = c.iter().map(key).collect();
        let mut b: Vec<String> = other.iter_mut().map(|o| key(o)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
