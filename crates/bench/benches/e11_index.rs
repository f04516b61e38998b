//! E11 — snapshot-shared secondary indexes.
//!
//! Two claims:
//!
//! 1. **Point-equality selects probe, not scan.** With an index declared
//!    on `R.#0`, `σ_{#0=k}(R)` at 100k rows is answered from a hash
//!    probe; the undeclared baseline pays a full scan.
//! 2. **CoW branches share the built index.** The cache keys on the
//!    relation's shared storage pointer, so 8 what-if branches that
//!    mutate *other* relations all reuse the one physical index — zero
//!    rebuilds (asserted by the `report` binary, measured here).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hypoquery_algebra::{CmpOp, Query};
use hypoquery_bench::workload::{database_of, sel, two_table_db};
use hypoquery_engine::{Database, Strategy};
use hypoquery_storage::tuple;

const ROWS: usize = 100_000;

fn point(k: i64) -> Query {
    sel(Query::base("R"), CmpOp::Eq, k)
}

/// `Database::execute(point(k))`, reduced to the answer's size.
fn probe(db: &Database, k: i64) -> usize {
    db.execute(&point(k), Strategy::Auto).unwrap().len()
}

/// The base database, optionally with an index declared on `R.#0`.
fn db(indexed: bool) -> Database {
    let mut db = database_of(&two_table_db(ROWS, ROWS, ROWS as i64, 11));
    if indexed {
        db.create_index("R", 0).unwrap();
        // Warm the build so the timed series measures steady-state probes.
        probe(&db, 0);
    }
    db
}

fn bench_point_select(c: &mut Criterion) {
    let scan_db = db(false);
    let indexed_db = db(true);
    let mut g = c.benchmark_group("e11_point_select");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for (name, state) in [("scan", &scan_db), ("indexed", &indexed_db)] {
        g.bench_with_input(BenchmarkId::new(name, ROWS), state, |b, s| {
            let mut k = 0i64;
            b.iter(|| {
                k = (k + 7919) % ROWS as i64;
                probe(s, k)
            })
        });
    }
    g.finish();
}

fn bench_branch_reuse(c: &mut Criterion) {
    let base = db(true);
    // 8 CoW branches, each mutating S: R's storage pointer — and with it
    // the cached index — stays shared across every branch.
    let branches: Vec<Database> = (0..8i64)
        .map(|i| {
            let mut b = base.clone();
            b.load("S", [tuple![ROWS as i64 + i, -i]]).unwrap();
            b
        })
        .collect();
    let mut g = c.benchmark_group("e11_branch_reuse");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_with_input(
        BenchmarkId::new("probe_8_branches", ROWS),
        &branches,
        |b, bs| {
            let mut k = 0i64;
            b.iter(|| {
                k = (k + 7919) % ROWS as i64;
                bs.iter().map(|s| probe(s, k)).sum::<usize>()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_point_select, bench_branch_reuse);
criterion_main!(benches);
