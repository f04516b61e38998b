//! Experiment report generator: runs every experiment (E1–E12) once with
//! wall-clock timing and prints the paper-claim-vs-measured tables that
//! EXPERIMENTS.md records. Every query is timed on the path that ships:
//! `Database::execute` with the strategy pinned (or `Auto`), and
//! `PreparedState` for the materialize-once columns. E9–E12 additionally write machine-readable
//! medians (ns per config) to `BENCH_e9.json` … `BENCH_e12.json` in the
//! current directory — override the paths with `BENCH_E9_JSON` …
//! `BENCH_E12_JSON`.
//!
//! Run with: `cargo run --release -p hypoquery-bench --bin report`
//! (a debug build measures the same shapes, ~20× slower.)
//!
//! Set `HYPOQUERY_BENCH_QUICK=1` for a smoke run (CI): the same
//! experiments over ~20× smaller relations with minimal repetitions —
//! numbers are not meaningful, but every code path runs and every
//! `BENCH_*.json` file is written.

use std::io::Write as _;
use std::time::Instant;

use hypoquery_algebra::{Query, StateExpr};
use hypoquery_bench::workload::{
    database_of, e12_join_chain, e12_select_chain, e1_query, e2_family, e2_state, e3_db, e3_update,
    e4_db, e4_query, e5_update, e7_query, e9_db, e9_scenarios, rs_join, two_table_db,
};
use hypoquery_core::{red_query, red_state, to_enf_query, to_mod_enf, RewriteTrace};
use hypoquery_engine::{Database, PreparedState, Strategy};
use hypoquery_opt::{lower_query, reduce_optimized, Statistics};
use hypoquery_storage::DatabaseState;

/// `HYPOQUERY_BENCH_QUICK` selects the CI smoke configuration.
fn quick() -> bool {
    std::env::var_os("HYPOQUERY_BENCH_QUICK").is_some()
}

/// Relation sizes: full scale, or ~20× smaller in quick mode.
fn scaled(n: usize) -> usize {
    if quick() {
        (n / 20).max(500)
    } else {
        n
    }
}

/// Repetition counts for median timings: minimal in quick mode.
fn reps(n: usize) -> usize {
    if quick() {
        3
    } else {
        n
    }
}

fn time_ms(f: impl FnOnce() -> usize) -> (f64, usize) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Median-of-3 timing to damp scheduler noise.
fn bench_ms(mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut times = Vec::with_capacity(3);
    let mut out = 0;
    for _ in 0..3 {
        let (t, o) = time_ms(&mut f);
        times.push(t);
        out = o;
    }
    times.sort_by(f64::total_cmp);
    (times[1], out)
}

fn main() {
    println!("# hypoquery experiment report\n");
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
    e9();
    e10();
    e11();
    e12();
}

fn e1() {
    println!("## E1 — Example 2.1: eager vs lazy on the alternatives query");
    println!("paper claim: lazy rewriting proves the query ≡ ∅ with no data access;");
    println!("eager cost grows with |R|,|S|.\n");
    println!("| rows | eager HQL-1/2 (ms) | lazy (ms) | auto (ms) | auto picked |");
    println!("|---:|---:|---:|---:|:--|");
    for n in [scaled(1_000), scaled(10_000), scaled(50_000)] {
        let keys = (10 * n) as i64;
        let db = database_of(&two_table_db(n, n, keys, 1));
        let q = e1_query(keys * 3 / 10, keys * 6 / 10);
        let (te, _) = bench_ms(|| run(&db, &q, Strategy::Hql2));
        let (tl, r) = bench_ms(|| run(&db, &q, Strategy::Lazy));
        assert_eq!(r, 0);
        let (ta, _) = bench_ms(|| run(&db, &q, Strategy::Auto));
        let picked = db.plan_query(&q).strategy;
        println!("| {n} | {te:.2} | {tl:.3} | {ta:.3} | {picked} |");
    }
    println!();
}

/// `Database::execute(q, strategy)`, reduced to the answer's size.
fn run(db: &Database, q: &Query, strategy: Strategy) -> usize {
    db.execute(q, strategy).unwrap().len()
}

fn e2() {
    println!("## E2 — Example 2.2: composition amortizes over a query family");
    println!("paper claim: computing the composed substitution once 'might reduce");
    println!("work' when many queries hit the same hypothetical state.\n");
    println!(
        "| k queries | naive per-query (ms) | compose-once eager (ms) | compose-once lazy (ms) |"
    );
    println!("|---:|---:|---:|---:|");
    let n = scaled(20_000);
    let db = database_of(&two_table_db(n, n, 100, 2));
    let eta = e2_state(30, 60);
    for k in [1usize, 4, 16, 64] {
        let family = e2_family(k);
        let (tn, _) = bench_ms(|| {
            family
                .iter()
                .map(|q| run(&db, &q.clone().when(eta.clone()), Strategy::Hql2))
                .sum()
        });
        let (te, _) = bench_ms(|| {
            let mut p = PreparedState::new(&db, eta.clone()).unwrap();
            p.materialize(&db).unwrap();
            family.iter().map(|q| p.query(&db, q).unwrap().len()).sum()
        });
        let (tl, _) = bench_ms(|| {
            let p = PreparedState::new(&db, eta.clone()).unwrap();
            family.iter().map(|q| p.query(&db, q).unwrap().len()).sum()
        });
        println!("| {k} | {tn:.2} | {te:.2} | {tl:.2} |");
    }
    println!();
}

fn e3() {
    println!("## E3 — Example 2.3: binding removal");
    println!("paper claim: dropping the S binding (S not read by the queries)");
    println!("reduces eager data work and lazy optimizer work.\n");
    println!("| rows | eager full subst (ms) | eager binding-removed (ms) | lazy red (ms) | lazy binding-removed (ms) |");
    println!("|---:|---:|---:|---:|---:|");
    for n in [scaled(5_000), scaled(50_000)] {
        let db = database_of(&e3_db(n, 3));
        let eta = StateExpr::update(e3_update());
        let q = Query::base("R").union(Query::base("T"));
        let hq = q.clone().when(eta.clone());
        // Materialize once, query once: every binding of red(η), or only
        // those the query reads.
        let eager = |eta: StateExpr| {
            let mut p = PreparedState::new(&db, eta).unwrap();
            p.materialize(&db).unwrap();
            p.query(&db, &q).unwrap().len()
        };
        let (tf, _) = bench_ms(|| eager(eta.clone()));
        let (tr, _) = bench_ms(|| {
            let free = hypoquery_algebra::scope::free_query(&q);
            let restricted: hypoquery_algebra::ExplicitSubst = red_state(&eta)
                .unwrap()
                .into_bindings()
                .into_iter()
                .filter(|(name, _)| free.contains(name))
                .collect();
            eager(StateExpr::subst(restricted))
        });
        let (tlr, _) = bench_ms(|| run(&db, &red_query(&hq).unwrap(), Strategy::Lazy));
        let (tlb, _) = bench_ms(|| run(&db, &hq, Strategy::Lazy));
        println!("| {n} | {tf:.2} | {tr:.2} | {tlr:.2} | {tlb:.2} |");
    }
    println!();
}

fn e4() {
    println!("## E4 — Example 2.4: exponential blow-up and the rescue");
    println!("paper claims: (a) the lazy equivalent is exponential in n;");
    println!("(b) algebra rewriting finds ∅ cheaply; (c) eager wins on small values.\n");
    println!("| n | input nodes | lazy nodes | lazy red (ms) | rescue (ms) | eager HQL-1 (ms) |");
    println!("|---:|---:|---:|---:|---:|---:|");
    let depths: &[usize] = if quick() { &[6, 8] } else { &[6, 10, 14] };
    for &n in depths {
        let (q, _) = e4_query(n, None);
        let input_nodes = q.node_count();
        let (tred, lazy_nodes) = bench_ms(|| red_query(&q).unwrap().node_count());
        let (q_rescue, catalog) = e4_query(n, Some(1));
        let (tres, rescue_nodes) =
            bench_ms(|| reduce_optimized(&q_rescue, &catalog).0.node_count());
        assert_eq!(rescue_nodes, 1); // ∅
        let eager = if n <= 10 {
            let (qq, cat) = e4_query(n, None);
            let db = database_of(&e4_db(&cat, 1));
            let (te, _) = bench_ms(|| run(&db, &qq, Strategy::Hql1));
            format!("{te:.2}")
        } else {
            "—".to_string()
        };
        println!("| {n} | {input_nodes} | {lazy_nodes} | {tred:.2} | {tres:.3} | {eager} |");
    }
    println!();
}

fn e5() {
    println!("## E5 — §5.5: delta evaluation overhead vs delta size");
    println!("paper claim (rule of thumb): a delta of x% of the base relations");
    println!("makes the join under the delta only nominally more expensive than");
    println!("the plain join (~22% extra at 2% in Heraclitus); full xsub");
    println!("materialization pays the whole hypothetical relation regardless.\n");
    let n = scaled(50_000);
    let state = two_table_db(n, n, (n as i64) * 10, 4);
    let db = database_of(&state);
    let join = rs_join();
    let (tbase, _) = bench_ms(|| run(&db, &join, Strategy::Lazy));
    println!("plain join baseline: {tbase:.2} ms\n");
    println!("| delta % | HQL-3 delta (ms) | overhead vs join | HQL-2 xsub (ms) |");
    println!("|---:|---:|---:|---:|");
    for pct in [0.5f64, 2.0, 10.0, 25.0, 50.0] {
        let q = join
            .clone()
            .when(StateExpr::update(e5_update(&state, pct / 100.0)));
        let (t3, _) = bench_ms(|| run(&db, &q, Strategy::Delta));
        let (t2, _) = bench_ms(|| run(&db, &q, Strategy::Hql2));
        let overhead = (t3 / tbase - 1.0) * 100.0;
        println!("| {pct} | {t3:.2} | {overhead:+.0}% | {t2:.2} |");
    }
    println!();
}

fn e6() {
    println!("## E6 — §5.4: HQL-1 (node-at-a-time) vs HQL-2 (clustered)");
    println!("paper claim: HQL-1 'does not permit grouping of relational algebra");
    println!("operators into single physical operations'. On the pipeline both");
    println!("normalize to ENF and lower to one plan, so the distinction is gone.\n");
    let n = scaled(30_000);
    let state = two_table_db(n, n, 5_000, 5);
    let db = database_of(&state);
    use hypoquery_algebra::{CmpOp, Predicate, Update};
    let q = Query::base("R")
        .join(Query::base("S"), Predicate::col_col(0, CmpOp::Eq, 2))
        .select(Predicate::col_cmp(1, CmpOp::Gt, 100))
        .project([0, 3])
        .when(StateExpr::update(Update::insert(
            "R",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 30)),
        )));
    let enf = to_enf_query(&q, &mut RewriteTrace::new());
    let phys = lower_query(&enf, state.catalog(), &Statistics::of(&state)).unwrap();
    let (t1, r1) = bench_ms(|| run(&db, &q, Strategy::Hql1));
    let (t2, r2) = bench_ms(|| run(&db, &q, Strategy::Hql2));
    assert_eq!(r1, r2);
    println!("| query | plan | HQL-1 (ms) | HQL-2 (ms) |");
    println!("|:--|:--|---:|---:|");
    println!(
        "| π(σ(R ⋈ S)) when {{U}} | one {}-operator plan with XsubRebind for both | {t1:.2} | {t2:.2} |",
        phys.render(None).lines().count()
    );
    println!();
}

fn e7() {
    println!("## E7 — Example 2.1(c): lazy↔eager crossover by occurrence count");
    println!("paper claim: lazy wins when affected names 'occur only once or");
    println!("twice'; eager wins as occurrences grow.\n");
    println!("| occurrences | lazy (ms) | eager HQL-2 (ms) | auto (ms) | auto picked |");
    println!("|---:|---:|---:|---:|:--|");
    let n = scaled(20_000);
    let db = database_of(&two_table_db(n, n, n as i64, 6));
    for m in [1usize, 2, 4, 8, 16] {
        let q = e7_query(m);
        let (tl, _) = bench_ms(|| run(&db, &q, Strategy::Lazy));
        let (te, _) = bench_ms(|| run(&db, &q, Strategy::Hql2));
        let (ta, _) = bench_ms(|| run(&db, &q, Strategy::Auto));
        let picked = db.plan_query(&q).strategy;
        println!("| {m} | {tl:.2} | {te:.2} | {ta:.2} | {picked} |");
    }
    println!();
}

fn e8() {
    println!("## E8 — planner vs fixed strategies across scenarios");
    println!("claim: no fixed strategy wins everywhere; Auto tracks the best.\n");
    println!("| scenario | lazy (ms) | HQL-2 (ms) | HQL-3 (ms) | auto (ms) | auto picked |");
    println!("|:--|---:|---:|---:|---:|:--|");
    let n = scaled(20_000);
    let state = two_table_db(n, n, n as i64, 8);
    let db = database_of(&state);
    let scenarios: Vec<(&str, Query)> = vec![
        ("empty_provable (E1)", e1_query(6_000, 12_000)),
        (
            "small_delta_join (E5)",
            rs_join().when(StateExpr::update(e5_update(&state, 0.02))),
        ),
        ("many_occurrences (E7)", e7_query(8)),
    ];
    for (name, q) in scenarios {
        let (tl, _) = bench_ms(|| run(&db, &q, Strategy::Lazy));
        let (t2, _) = bench_ms(|| run(&db, &q, Strategy::Hql2));
        let t3 = if to_mod_enf(&q).is_ok() {
            let (t, _) = bench_ms(|| run(&db, &q, Strategy::Delta));
            format!("{t:.2}")
        } else {
            "—".to_string()
        };
        let (ta, _) = bench_ms(|| run(&db, &q, Strategy::Auto));
        let picked = db.plan_query(&q).strategy;
        println!("| {name} | {tl:.2} | {t2:.2} | {t3} | {ta:.2} | {picked} |");
    }
    println!();
}

fn e9() {
    println!("## E9 — copy-on-write snapshots + parallel multi-scenario executor");
    println!("claims: state snapshots are O(#relations) pointer bumps, not O(data);");
    println!("k independent what-if branches over one base share it physically and");
    println!("fan out across cores (speedup ~min(k, cores)× when work dominates).\n");

    // Median-of-N nanosecond timings, machine-readable for regression
    // tracking across PRs.
    let mut json: Vec<(String, f64)> = Vec::new();
    let mut bench_ns = |config: &str, reps: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut samples: Vec<f64> = (0..reps.max(3))
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        json.push((config.to_string(), median));
        median
    };

    let rows = scaled(100_000);
    let state = two_table_db(rows, rows, 1000, 9);
    println!("| config | median |");
    println!("|:--|---:|");
    let t = bench_ns("clone_cow_100k", reps(101), &mut || {
        state.clone().total_tuples()
    });
    println!(
        "| `DatabaseState::clone` (CoW, {rows} rows) | {} |",
        fmt_ns(t)
    );
    let t = bench_ns("clone_deep_100k", reps(5), &mut || {
        let mut out = DatabaseState::new(state.catalog().clone());
        for (name, rel) in state.iter() {
            let copy =
                hypoquery_storage::Relation::from_rows(rel.arity(), rel.iter().cloned()).unwrap();
            out.set(name.clone(), copy).unwrap();
        }
        out.total_tuples()
    });
    println!("| deep copy (pre-CoW cost model) | {} |", fmt_ns(t));

    let db = e9_db(rows, 9);
    let k = 8usize;
    let scenarios = e9_scenarios(k);
    let t_deep = bench_ns(
        &format!("scenarios_deepcopy_seq_{k}x100k"),
        reps(5),
        &mut || {
            scenarios
                .iter()
                .map(|q| {
                    let mut snapshot = DatabaseState::new(db.state().catalog().clone());
                    for (name, rel) in db.state().iter() {
                        let copy = hypoquery_storage::Relation::from_rows(
                            rel.arity(),
                            rel.iter().cloned(),
                        )
                        .unwrap();
                        snapshot.set(name.clone(), copy).unwrap();
                    }
                    std::hint::black_box(&snapshot);
                    db.execute(q, Strategy::Lazy).unwrap().len()
                })
                .sum()
        },
    );
    println!(
        "| {k} scenarios, deep snapshot each (seed cost model) | {} |",
        fmt_ns(t_deep)
    );
    let t_seq = bench_ns(&format!("scenarios_cow_seq_{k}x100k"), reps(5), &mut || {
        scenarios
            .iter()
            .map(|q| db.execute(q, Strategy::Lazy).unwrap().len())
            .sum()
    });
    println!(
        "| {k} scenarios, CoW snapshots, sequential | {} |",
        fmt_ns(t_seq)
    );
    let t_par = bench_ns(&format!("scenarios_cow_par_{k}x100k"), reps(5), &mut || {
        db.execute_many(&scenarios, Strategy::Lazy)
            .unwrap()
            .iter()
            .map(|r| r.len())
            .sum()
    });
    println!(
        "| {k} scenarios, CoW snapshots, parallel ({} workers) | {} |",
        hypoquery_eval::num_workers(),
        fmt_ns(t_par)
    );
    println!(
        "\nspeedup vs seed cost model: sequential {:.1}×, parallel {:.1}×\n",
        t_deep / t_seq,
        t_deep / t_par
    );

    let path = std::env::var("BENCH_E9_JSON").unwrap_or_else(|_| "BENCH_e9.json".to_string());
    let mut out = String::from("{\n");
    for (i, (config, median)) in json.iter().enumerate() {
        let comma = if i + 1 < json.len() { "," } else { "" };
        out.push_str(&format!("  \"{config}\": {median:.1}{comma}\n"));
    }
    out.push_str("}\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn e10() {
    println!("## E10 — network service layer: wire overhead and served throughput");
    println!("claims: the wire protocol adds a fixed per-request cost (framing +");
    println!("loopback + dispatch) on top of in-process evaluation, and the worker");
    println!("pool sustains many concurrent sessions with per-session CoW branch");
    println!("state — served results are bit-identical to in-process ones.\n");

    use hypoquery_client::Client;
    use hypoquery_server::{serve, ServerConfig};

    let rows = scaled(10_000);
    let query = "select #0 > 990 (R) union select #0 <= 5 (S)";
    let branch_update = "delete from R (select #0 < 500 (R))";

    let db = database_of(&two_table_db(rows, rows, 1000, 10));

    const CLIENTS: usize = 8;
    let handle = serve(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: CLIENTS,
            ..ServerConfig::default()
        },
        db.clone(),
    )
    .unwrap();
    let addr = handle.addr();

    let mut json: Vec<(String, f64)> = Vec::new();
    let mut bench_ns = |config: &str, reps: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut samples: Vec<f64> = (0..reps.max(3))
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        json.push((config.to_string(), median));
        median
    };

    println!("| config | median |");
    println!("|:--|---:|");
    let t_inproc = bench_ns(&format!("inproc_query_{rows}"), reps(101), &mut || {
        db.query(query).unwrap().len()
    });
    println!(
        "| in-process query ({rows} rows/table) | {} |",
        fmt_ns(t_inproc)
    );

    let mut client = Client::connect(addr).unwrap();
    let t_ping = bench_ns("wire_ping", reps(101), &mut || {
        client.ping().unwrap();
        1
    });
    println!(
        "| wire `PING` round-trip (protocol floor) | {} |",
        fmt_ns(t_ping)
    );
    let t_wire = bench_ns(&format!("wire_query_{rows}"), reps(101), &mut || {
        client.query(query).unwrap().len()
    });
    println!("| wire query round-trip | {} |", fmt_ns(t_wire));

    client.branch("cut", None, branch_update).unwrap();
    client.switch(Some("cut")).unwrap();
    let t_branch = bench_ns(&format!("wire_branch_query_{rows}"), reps(101), &mut || {
        client.query(query).unwrap().len()
    });
    println!(
        "| wire query inside a what-if branch | {} |",
        fmt_ns(t_branch)
    );
    client.switch(None).unwrap();

    // Served results match in-process evaluation exactly.
    assert_eq!(client.query(query).unwrap(), db.query(query).unwrap());

    // Throughput: 8 concurrent clients, a fixed batch of queries each.
    let per_client = if quick() { 20 } else { 200 };
    let t_total = bench_ns(
        &format!("throughput_{CLIENTS}x{per_client}"),
        3,
        &mut || {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    std::thread::spawn(move || {
                        let mut c = Client::connect(addr).unwrap();
                        let mut n = 0usize;
                        for _ in 0..per_client {
                            n += c.query(query).unwrap().len();
                        }
                        n
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().unwrap())
                .sum::<usize>()
        },
    );
    let reqs = (CLIENTS * per_client) as f64;
    let rps = reqs / (t_total / 1e9);
    println!(
        "| {CLIENTS} clients × {per_client} queries (throughput) | {} ({rps:.0} req/s) |",
        fmt_ns(t_total)
    );
    println!(
        "\nwire overhead vs in-process: query {:.2}×, floor (ping) {}\n",
        t_wire / t_inproc,
        fmt_ns(t_ping)
    );

    client.shutdown().unwrap();
    handle.join();

    let path = std::env::var("BENCH_E10_JSON").unwrap_or_else(|_| "BENCH_e10.json".to_string());
    let mut out = String::from("{\n");
    for (i, (config, median)) in json.iter().enumerate() {
        let comma = if i + 1 < json.len() { "," } else { "" };
        out.push_str(&format!("  \"{config}\": {median:.1}{comma}\n"));
    }
    out.push_str("}\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn e11() {
    println!("## E11 — secondary indexes: point queries and snapshot reuse");
    println!("claims: a declared hash index answers point-equality selects ≥10×");
    println!("faster than a full scan at 100k rows, and CoW branches that leave");
    println!("the indexed base untouched share the one physical index — zero");
    println!("rebuilds across an 8-branch what-if tree.\n");

    use hypoquery_algebra::CmpOp;
    use hypoquery_storage::tuple;

    let mut json: Vec<(String, f64)> = Vec::new();
    let mut bench_ns = |config: &str, reps: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut samples: Vec<f64> = (0..reps.max(3))
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        json.push((config.to_string(), median));
        median
    };

    let rows = scaled(100_000);
    let db = database_of(&two_table_db(rows, rows, rows as i64, 11));
    let mut idb = db.clone();
    idb.create_index("R", 0).unwrap();
    // 64 probe keys spread over the key range.
    let keys: Vec<i64> = (0..64i64).map(|i| (i * 7919) % rows as i64).collect();
    let point = |k: i64| hypoquery_bench::workload::sel(Query::base("R"), CmpOp::Eq, k);
    let probe_all = |db: &Database| -> usize {
        keys.iter()
            .map(|&k| run(db, &point(k), Strategy::Auto))
            .sum()
    };

    println!("| config | median |");
    println!("|:--|---:|");
    let t_scan = bench_ns(&format!("point_select_scan_{rows}"), reps(11), &mut || {
        probe_all(&db)
    });
    println!(
        "| {} point selects, full scan | {} |",
        keys.len(),
        fmt_ns(t_scan)
    );
    // Warm the build so the timed series measures steady-state probes.
    run(&idb, &point(keys[0]), Strategy::Auto);
    let t_idx = bench_ns(
        &format!("point_select_indexed_{rows}"),
        reps(11),
        &mut || probe_all(&idb),
    );
    println!(
        "| {} point selects, indexed | {} |",
        keys.len(),
        fmt_ns(t_idx)
    );

    // 8 CoW branches, each mutating S; R's storage pointer — and with it
    // the cached index — stays shared across every branch.
    let branches: Vec<Database> = (0..8i64)
        .map(|i| {
            let mut b = idb.clone();
            b.load("S", [tuple![rows as i64 + i, -i]]).unwrap();
            b
        })
        .collect();
    let before = hypoquery_storage::index_counters();
    let t_branches = bench_ns(&format!("branch_probe_8x{rows}"), reps(11), &mut || {
        branches.iter().map(probe_all).sum()
    });
    let rebuilds = hypoquery_storage::index_counters().builds - before.builds;
    assert_eq!(rebuilds, 0, "CoW branches must reuse the shared index");
    println!(
        "| 8 branches × {} point selects, shared index | {} |",
        keys.len(),
        fmt_ns(t_branches)
    );

    let speedup = t_scan / t_idx;
    println!(
        "\npoint-select speedup: {speedup:.1}×; index rebuilds across 8 branches: {rebuilds}\n"
    );

    json.push(("point_select_speedup".to_string(), speedup));
    json.push(("branch_index_rebuilds_8x".to_string(), rebuilds as f64));
    let path = std::env::var("BENCH_E11_JSON").unwrap_or_else(|_| "BENCH_e11.json".to_string());
    let mut out = String::from("{\n");
    for (i, (config, median)) in json.iter().enumerate() {
        let comma = if i + 1 < json.len() { "," } else { "" };
        out.push_str(&format!("  \"{config}\": {median:.1}{comma}\n"));
    }
    out.push_str("}\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn e12() {
    println!("## E12 — pipelined execution of deep select/join chains");
    println!("claim: the one physical executor streams deep select/project/join");
    println!("chains under a hypothetical update for every strategy's normal form");
    println!("(lazy, HQL-2 over ENF, HQL-3 over mod-ENF), each checked against the");
    println!("direct semantics before it is timed.\n");

    let mut json: Vec<(String, f64)> = Vec::new();
    let mut bench_ns = |config: &str, reps: usize, f: &mut dyn FnMut() -> usize| -> f64 {
        let mut samples: Vec<f64> = (0..reps.max(3))
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        json.push((config.to_string(), median));
        median
    };

    println!("| shape | rows | strategy | median |");
    println!("|:--|---:|:--|---:|");
    for rows in [scaled(10_000), scaled(100_000)] {
        let state = two_table_db(rows, rows, rows as i64, 7);
        let db = database_of(&state);
        let u = e5_update(&state, 0.05);
        for (shape, body) in [
            ("select_chain", e12_select_chain(8, rows as i64)),
            ("join_chain", e12_join_chain(6, rows as i64, rows)),
        ] {
            let q = body.when(StateExpr::update(u.clone()));
            let expected = hypoquery_eval::eval_query(&q, &state).unwrap().len();
            for (label, strategy) in [
                ("lazy", Strategy::Lazy),
                ("hql2", Strategy::Hql2),
                ("hql3", Strategy::Delta),
            ] {
                assert_eq!(run(&db, &q, strategy), expected, "{shape} under {label}");
                let t = bench_ns(
                    &format!("{shape}_{label}_pipelined_{rows}"),
                    reps(7),
                    &mut || run(&db, &q, strategy),
                );
                println!("| {shape} | {rows} | {label} | {} |", fmt_ns(t));
            }
        }
    }
    println!();

    let path = std::env::var("BENCH_E12_JSON").unwrap_or_else(|_| "BENCH_e12.json".to_string());
    let mut out = String::from("{\n");
    for (i, (config, median)) in json.iter().enumerate() {
        let comma = if i + 1 < json.len() { "," } else { "" };
        out.push_str(&format!("  \"{config}\": {median:.1}{comma}\n"));
    }
    out.push_str("}\n");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(out.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}
