//! `point_rw`: indexed point reads, hypothetical point reads and real
//! single-row writes on one relation.
//!
//! R holds 5k rows with an index on the key column and one declared
//! constraint (no negative payload). Each cycle of 24 requests holds 3
//! real writes, then 3 hypothetical point reads
//! `select #0 = k (R) when {insert into R (row(k, p))}`, then 18 point
//! reads `select #0 = k (R)`; the seed draws the keys. Writes alternate
//! inserting a fresh row and deleting the row inserted before, so |R|
//! stays at 5k or 5k + 1. An independent model of R, updated on each
//! write, checks every read.
//!
//! Every write burst leaves a dead index in the storage layer's cache
//! until the cache sweeps, once every ~256 index builds. At 5k rows a
//! sweep comes every ~2 s, so one run averages over many. A larger R
//! makes the figures jump between runs: at 50k rows one sweep cycle takes
//! ~15 s and latencies rise up to 3x within it, and at 10k rows the index
//! rebuild takes ~1.25 ms in some runs and ~1.95 ms in others, for the
//! whole run, which splits the read p95 in two.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use hypoquery_engine::{Database, Strategy};
use hypoquery_storage::Relation;

use crate::common::{
    e2e_metrics, median, quantile, reset_rss_peak, rss_peak_mb, time_setups, Class, Config,
    Outcome, Recorder, Rng,
};
use crate::decomposed::{self, PINNED};
use crate::layers::{Layers, QueryTrace};
use crate::trace::Tracer;

/// Set-ups timed at each end of an untraced run (~0.012 s each).
const SETUPS: usize = 32;

pub const ROWS: usize = 5_000;
pub const KEYS: i64 = 5_000;
pub const CONSTRAINT_NAME: &str = "payload_nonneg";
pub const CONSTRAINT: &str = "select #1 < 0 (R)";

/// Payloads of hypothetical rows: far above any real one.
const HYPO_PAYLOAD: i64 = 1 << 40;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PointOp {
    Read { k: i64 },
    Hypo { k: i64, p: i64 },
    Insert { k: i64, p: i64 },
    Delete { k: i64, p: i64 },
}

impl PointOp {
    pub fn class(&self) -> Class {
        match self {
            PointOp::Read { .. } => Class::Read,
            PointOp::Hypo { .. } => Class::WhatIf,
            _ => Class::Write,
        }
    }

    pub fn source(&self) -> String {
        match self {
            PointOp::Read { k } => format!("select #0 = {k} (R)"),
            PointOp::Hypo { k, p } => {
                format!("select #0 = {k} (R) when {{insert into R (row({k}, {p}))}}")
            }
            PointOp::Insert { k, p } => format!("insert into R (row({k}, {p}))"),
            PointOp::Delete { k, p } => format!("delete from R (row({k}, {p}))"),
        }
    }
}

/// The order of one cycle's requests (0 = read, 1 = hypothetical read,
/// 2 = write): a burst of 3 writes, 3 hypothetical reads, 18 reads. The
/// order is fixed and the seed draws the keys, so every run sees each
/// request at the same distance from the writes. The first hypothetical
/// read after the burst pays the statistics recount, the first read the
/// index rebuild, and the read after it runs on cold caches; the other 16
/// reads are warm. So the read p50 sits among the warm reads, and, with
/// the rebuild 1 read in 18 (just over 5%), the read p95 near the bottom
/// of the rebuild band, below the rebuild's slow outliers. Writes spread
/// through the cycle would each leave a slow and a cold read behind, and
/// put the read p50 on the edge between warm and cold reads.
const CYCLE: [u8; 24] = [
    2, 2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
];

/// The op stream of one seed.
pub struct Stream {
    rng: Rng,
    cycle: Vec<PointOp>,
    next_payload: i64,
    inserted: Option<(i64, i64)>,
    hypo: i64,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed, 3),
            cycle: Vec::new(),
            next_payload: ROWS as i64,
            inserted: None,
            hypo: HYPO_PAYLOAD,
        }
    }

    /// The next cycle of 24 requests.
    pub fn next_cycle(&mut self) -> Vec<PointOp> {
        self.cycle.clear();
        for slot in CYCLE {
            let k = self.rng.key(KEYS);
            let op = match slot {
                0 => PointOp::Read { k },
                1 => {
                    self.hypo += 1;
                    PointOp::Hypo { k, p: self.hypo }
                }
                _ => match self.inserted.take() {
                    Some((k, p)) => PointOp::Delete { k, p },
                    None => {
                        let p = self.next_payload;
                        self.next_payload += 1;
                        self.inserted = Some((k, p));
                        PointOp::Insert { k, p }
                    }
                },
            };
            self.cycle.push(op);
        }
        std::mem::take(&mut self.cycle)
    }
}

/// An independent model of R: payloads per key.
#[derive(Default)]
pub struct Model {
    by_key: BTreeMap<i64, BTreeSet<i64>>,
    len: usize,
}

impl Model {
    pub fn insert(&mut self, k: i64, p: i64) {
        if self.by_key.entry(k).or_default().insert(p) {
            self.len += 1;
        }
    }

    pub fn remove(&mut self, k: i64, p: i64) {
        if self.by_key.get_mut(&k).is_some_and(|s| s.remove(&p)) {
            self.len -= 1;
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Does `rel` hold exactly R's rows with key `k` (plus `extra`)?
    pub fn matches(&self, rel: &Relation, k: i64, extra: Option<i64>) -> bool {
        let mut want: BTreeSet<i64> = self.by_key.get(&k).cloned().unwrap_or_default();
        want.extend(extra);
        rel.len() == want.len()
            && rel.iter().zip(&want).all(|(t, p)| {
                t.get(0).and_then(|v| v.as_int()) == Some(k)
                    && t.get(1).and_then(|v| v.as_int()) == Some(*p)
            })
    }

    /// Apply a write to the model.
    pub fn apply(&mut self, op: &PointOp) {
        match *op {
            PointOp::Insert { k, p } => self.insert(k, p),
            PointOp::Delete { k, p } => self.remove(k, p),
            _ => {}
        }
    }
}

/// Generate and load R, declare the index and the constraint.
pub fn build(seed: u64) -> (Database, Model) {
    let mut rng = Rng::new(seed, 4);
    let rows = crate::common::rows(ROWS, KEYS, &mut rng);
    let mut model = Model::default();
    for t in &rows {
        let (k, p) = (t.fields()[0].as_int(), t.fields()[1].as_int());
        model.insert(k.expect("int key"), p.expect("int payload"));
    }
    let mut db = Database::new();
    db.define("R", 2).expect("fresh catalog");
    db.load("R", rows).expect("arity 2 rows");
    db.create_index("R", 0).expect("R has column 0");
    db.add_constraint(CONSTRAINT_NAME, CONSTRAINT)
        .expect("constraint parses");
    (db, model)
}

/// Warm every request shape once; a write pair leaves the data as built.
fn warm(db: &mut Database) {
    let k = KEYS / 2;
    for op in [
        PointOp::Read { k },
        PointOp::Hypo { k, p: -1 },
        PointOp::Insert {
            k,
            p: -1 - HYPO_PAYLOAD,
        },
    ] {
        let src = op.source();
        match op.class() {
            Class::Write => {
                // A negative payload: the constraint check rejects it.
                assert!(db.execute_update(&src).is_err(), "constraint must hold");
                let ok = format!("insert into R (row({k}, {HYPO_PAYLOAD}))");
                db.execute_update(&ok).expect("warm insert");
                db.execute_update(&ok.replace("insert into", "delete from"))
                    .expect("warm delete");
            }
            _ => {
                db.query(&src).expect("warm read");
            }
        }
    }
    db.query(&PointOp::Read { k }.source()).expect("warm read");
}

/// Run one op untraced; check it against the model.
fn run_op(db: &mut Database, model: &mut Model, op: &PointOp, rec: &mut Recorder, id: u64) {
    let src = op.source();
    let t = Instant::now();
    let res = match op {
        PointOp::Read { .. } | PointOp::Hypo { .. } => db.query(&src).map(Some),
        _ => db.execute_update(&src).map(|()| None),
    };
    rec.record(op.class(), t.elapsed());
    verdict(model, op, res.map_err(|e| e.to_string()), rec, id);
}

fn verdict(
    model: &mut Model,
    op: &PointOp,
    res: Result<Option<Relation>, String>,
    rec: &mut Recorder,
    id: u64,
) {
    let ok = match (op, &res) {
        (PointOp::Read { k }, Ok(Some(rel))) => model.matches(rel, *k, None),
        (PointOp::Hypo { k, p }, Ok(Some(rel))) => model.matches(rel, *k, Some(*p)),
        (PointOp::Insert { .. } | PointOp::Delete { .. }, Ok(None)) => {
            model.apply(op);
            true
        }
        _ => false,
    };
    if !ok {
        let why = match res {
            Err(e) => e,
            Ok(_) => "result differs from the model of R".into(),
        };
        rec.fail(&id.to_string(), &format!("{}: {why}", op.source()));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let set_up = || {
        let (mut db, model) = build(cfg.seed);
        warm(&mut db);
        (db, model)
    };
    let mut setup_s = Vec::new();
    let (mut db, mut model) = time_setups(SETUPS, &mut setup_s, set_up, drop);
    reset_rss_peak();

    let mut stream = Stream::new(cfg.seed);
    let window = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut rec = Recorder::default();
    let mut id = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < window {
        for op in stream.next_cycle() {
            run_op(&mut db, &mut model, &op, &mut rec, id);
            id += 1;
        }
    }
    let wall = start.elapsed();
    let rss_mb = rss_peak_mb();
    println!(
        "point_rw: R = {ROWS} rows (now {}), keys 0..{KEYS}, index on #0",
        model.len()
    );
    if !cfg.trace {
        time_setups(SETUPS, &mut setup_s, set_up, drop);
        let metrics = e2e_metrics(&rec, wall, &setup_s, rss_mb);
        return Outcome {
            attempted: rec.attempted,
            failed: rec.failed,
            metrics,
        };
    }
    let mut layers = Layers::default();
    let writes = rec.latencies(Class::Write);
    layers.stat("engine.write_p50_ms", median(writes), writes.len());
    layers.stat("engine.write_p95_ms", quantile(writes, 0.95), writes.len());

    // Traced window.
    let constraints = [(
        CONSTRAINT_NAME,
        db.prepare(CONSTRAINT).expect("constraint parses"),
    )];
    let mut tr = Tracer::new(Instant::now());
    let mut qt = QueryTrace::default();
    let mut trec = Recorder::default();
    let before = hypoquery_storage::index_counters();
    // Cycles alternate which of the decomposed and the untraced query runs
    // first, and only cycles where the traced side ran first are timed,
    // so the timed ops keep the stream's mix. After a write, every op up to
    // and including the first read runs decomposed first: the statistics
    // recount and the index rebuild they pay then show in the spans.
    let start = Instant::now();
    let mut timed = true;
    let mut since_write = false;
    while start.elapsed().as_secs_f64() < window {
        for op in stream.next_cycle() {
            let src = op.source();
            let (res, d) = match op {
                PointOp::Read { .. } | PointOp::Hypo { .. } => {
                    let first = timed || since_write;
                    match qt.run(&mut tr, &db, &src, Strategy::Auto, id, first) {
                        Ok((rel, d)) => (Ok(Some(rel)), d),
                        Err(e) => (Err(e), None),
                    }
                }
                _ => {
                    tr.request(id);
                    let t = Instant::now();
                    let r = decomposed::update(&mut tr, &mut db, &src, &constraints);
                    (
                        r.map(|()| None).map_err(|e| e.to_string()),
                        Some(t.elapsed()),
                    )
                }
            };
            match d {
                Some(d) if timed => trec.record(op.class(), d),
                _ => trec.untimed(),
            }
            since_write = match op.class() {
                Class::Write => true,
                Class::Read => false,
                _ => since_write,
            };
            verdict(&mut model, &op, res, &mut trec, id);
            id += 1;
        }
        timed = !timed;
    }
    layers.add_index_delta(before, hypoquery_storage::index_counters());
    layers.add_spans(&tr);
    qt.fill(&mut layers);
    layers.set("trace.overhead", rec.mean_ms() / trec.mean_ms());

    // Probes on warm state: a point read and a hypothetical point read.
    let mut probes = Vec::new();
    let mut regrets = Vec::new();
    for (name, op) in [
        ("point_read", PointOp::Read { k: 17 }),
        (
            "hypo_point_read",
            PointOp::Hypo {
                k: 17,
                p: 3 * HYPO_PAYLOAD,
            },
        ),
    ] {
        let q = db.prepare(&op.source()).expect("probe parses");
        probes.push(decomposed::exec_probe(&db, &q, 5).expect("probe runs"));
        let r = decomposed::auto_regret(&db, &q, &PINNED, 5).expect("every strategy runs");
        regrets.push((name.to_string(), r));
    }
    layers.add_exec_probes(&probes);
    layers.add_regrets(&regrets);
    tr.finish("point_rw");
    rec.merge(trec);
    Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics: layers.into_metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::digest_of;

    fn stream_digest(seed: u64) -> u64 {
        let mut s = Stream::new(seed);
        let ops: Vec<PointOp> = (0..50).flat_map(|_| s.next_cycle()).collect();
        digest_of(&ops)
    }

    #[test]
    fn one_seed_one_stream() {
        assert_eq!(stream_digest(5), stream_digest(5));
        assert_ne!(stream_digest(5), stream_digest(6));
    }

    #[test]
    fn relation_size_stays_in_a_band() {
        let mut model = Model::default();
        for p in 0..ROWS as i64 {
            model.insert(p % KEYS, p);
        }
        let mut s = Stream::new(9);
        for _ in 0..5_000 {
            for op in s.next_cycle() {
                model.apply(&op);
                assert!((ROWS..=ROWS + 1).contains(&model.len()), "{}", model.len());
            }
        }
    }

    #[test]
    fn reads_and_writes_agree_with_the_model() {
        let mut db = Database::new();
        db.define("R", 2).unwrap();
        let mut model = Model::default();
        let mut rng = Rng::new(2, 4);
        let rows = crate::common::rows(2_000, 300, &mut rng);
        for t in &rows {
            model.insert(t[0].as_int().unwrap(), t[1].as_int().unwrap());
        }
        db.load("R", rows).unwrap();
        db.create_index("R", 0).unwrap();
        db.add_constraint(CONSTRAINT_NAME, CONSTRAINT).unwrap();
        let mut rec = Recorder::default();
        let mut s = Stream::new(4);
        for id in 0..200 {
            for op in s.next_cycle() {
                // Keep keys inside the small instance's range.
                let op = match op {
                    PointOp::Read { k } => PointOp::Read { k: k % 300 },
                    PointOp::Hypo { k, p } => PointOp::Hypo { k: k % 300, p },
                    other => other,
                };
                run_op(&mut db, &mut model, &op, &mut rec, id);
            }
        }
        assert_eq!(rec.failed, 0);
        assert_eq!(db.state().get(&"R".into()).unwrap().len(), model.len());
    }
}
