//! `wire_sessions`: scripted analyst sessions over loopback TCP.
//!
//! The server runs in this process under its default configuration (on
//! an ephemeral port), serving a 10k-row R and S. Two client connections
//! first PREPARE a fixed pool of states, then loop a scripted session,
//! taking turns request by request from one client thread: BRANCH a
//! scenario, SWITCH to it, QUERY and TABLE on the branch, EXEC on a
//! prepared state, every eighth cycle an EXPLAIN ANALYZE, SWITCH back to
//! the root, QUERY there, UPDATE at the root (alternating insert and
//! delete), DROP the branch, PING.
//!
//! No request of the script should fail, so every error reply counts as
//! a failed op. Every other reply is checked against an in-process
//! `Session` replaying the same request stream after the window.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hypoquery_client::{Client, ClientError};
use hypoquery_engine::{Database, PreparedState, Strategy, WhatIfTree};
use hypoquery_server::{serve, Reply, Request, ServerConfig, ServerHandle, Session, Verb};

use crate::common::{
    digest, digest_of, e2e_metrics, median, quantile, reset_rss_peak, rss_peak_mb, time_setups, us,
    Class, Config, Outcome, Recorder, Rng,
};
use crate::decomposed;
use crate::layers::{Layers, QueryTrace};
use crate::trace::Tracer;

/// Set-ups timed at each end of an untraced run (~0.05 s each).
const SETUPS: usize = 16;

pub const ROWS: usize = 10_000;
pub const KEYS: i64 = 10_000;
pub const CONNECTIONS: usize = 2;

/// The prepared-state pool every connection PREPAREs once.
pub const PREPARED: [&str; 4] = [
    "{delete from R (select #0 < 500 (R))}",
    "{insert into R (select #0 >= 9500 (S))}",
    "{delete from S (select #0 < 1000 (S))}",
    "{delete from R (select #0 < 300 (R))} # {insert into R (select #0 >= 9000 (S))}",
];

/// Rows a range query returns, roughly.
const RANGE: i64 = 300;

/// The update a branch applies in scenario `s` (8 scenarios).
pub fn scenario(s: u64) -> String {
    let t = 200 * (s as i64 + 1);
    if s.is_multiple_of(2) {
        format!("delete from R (select #0 < {t} (R))")
    } else {
        format!("insert into R (select #0 >= {} (S))", KEYS - t)
    }
}

fn range(rel: &str, a: i64) -> String {
    format!("select #0 >= {a} (select #0 < {} ({rel}))", a + RANGE)
}

/// One connection's request script.
pub struct Script {
    rng: Rng,
    conn: u64,
    cycle: u64,
    next_payload: i64,
    inserted: Option<(i64, i64)>,
}

impl Script {
    pub fn new(seed: u64, conn: u64) -> Script {
        Script {
            rng: Rng::new(seed, 10 + conn),
            conn,
            cycle: 0,
            next_payload: (conn as i64 + 1) << 32,
            inserted: None,
        }
    }

    /// Every request a connection sends, in order: the PREPAREs, then
    /// cycle after cycle. The replay regenerates the stream from here.
    pub fn stream(seed: u64, conn: u64) -> impl Iterator<Item = (Class, Request)> {
        let mut script = Script::new(seed, conn);
        Script::prepares()
            .into_iter()
            .chain(std::iter::repeat_with(move || script.next_cycle()).flatten())
    }

    pub fn prepares() -> Vec<(Class, Request)> {
        PREPARED
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    Class::Other,
                    Request::new(Verb::Prepare, format!("p{i}"), *s),
                )
            })
            .collect()
    }

    /// The requests of the next cycle, each with its latency class.
    pub fn next_cycle(&mut self) -> Vec<(Class, Request)> {
        let i = self.cycle;
        self.cycle += 1;
        let b = format!("c{}b{i}", self.conn);
        let r = &mut self.rng;
        let s = r.below(8);
        let mut out = vec![
            (
                Class::Other,
                Request::new(Verb::Branch, b.clone(), scenario(s)),
            ),
            (Class::Other, Request::new(Verb::Switch, b.clone(), "")),
            (
                Class::WhatIf,
                Request::new(Verb::Query, range("R", r.key(KEYS)), ""),
            ),
            (
                Class::WhatIf,
                Request::new(
                    Verb::Table,
                    format!("select #0 < {} (S)", 100 + r.key(200)),
                    "",
                ),
            ),
            (
                Class::WhatIf,
                Request::new(
                    Verb::Exec,
                    format!(
                        "p{} {}",
                        r.below(PREPARED.len() as u64),
                        range("R", r.key(KEYS))
                    ),
                    "",
                ),
            ),
        ];
        if i % 8 == 7 {
            out.push((
                Class::Other,
                Request::new(
                    Verb::Explain,
                    format!("ANALYZE {}", range("S", r.key(KEYS))),
                    "",
                ),
            ));
        }
        out.push((Class::Other, Request::new(Verb::Switch, "-", "")));
        out.push((
            Class::Read,
            Request::new(Verb::Query, range("R", r.key(KEYS)), ""),
        ));
        let update = match self.inserted.take() {
            Some((k, p)) => format!("delete from R (row({k}, {p}))"),
            None => {
                let (k, p) = (r.key(KEYS), self.next_payload);
                self.next_payload += 1;
                self.inserted = Some((k, p));
                format!("insert into R (row({k}, {p}))")
            }
        };
        out.push((Class::Write, Request::new(Verb::Update, update, "")));
        out.push((Class::Other, Request::new(Verb::Drop, b, "")));
        out.push((Class::Other, Request::new(Verb::Ping, "", "")));
        out
    }
}

/// What a reply must agree on with the replay. EXPLAIN ANALYZE carries
/// timings, so only its result row count is compared.
pub fn reply_digest(req: &Request, reply: &Reply) -> u64 {
    match reply {
        Reply::Rows(rel) => digest(rel),
        Reply::Text(t) if req.verb == Verb::Explain => digest_of(
            &t.lines()
                .find(|l| l.starts_with("result:"))
                .map(|l| l.split(';').next().unwrap_or(l).to_string()),
        ),
        Reply::Text(t) => digest_of(&("text", t)),
        Reply::Ok(m) => digest_of(&("ok", m)),
        Reply::Err(e) => digest_of(&("err", e.code.as_str(), &e.message)),
    }
}

/// The `client.rtt_<verb>_us` metric a request's round trip counts under.
fn rtt_metric(class: Class, verb: Verb) -> Option<&'static str> {
    Some(match verb {
        Verb::Query if class == Class::WhatIf => "client.rtt_query_branch_us",
        Verb::Ping => "client.rtt_ping_us",
        Verb::Query => "client.rtt_query_us",
        Verb::Table => "client.rtt_table_us",
        Verb::Exec => "client.rtt_exec_us",
        Verb::Branch => "client.rtt_branch_us",
        Verb::Switch => "client.rtt_switch_us",
        Verb::Update => "client.rtt_update_us",
        Verb::Drop => "client.rtt_drop_us",
        Verb::Explain => "client.rtt_explain_us",
        _ => return None,
    })
}

/// What came back for one sent request.
struct Sent {
    digest: u64,
    /// The server replied with an error; the op is already counted as
    /// failed.
    errored: bool,
    /// Round-trip time, for requests sent in a window.
    rtt: Option<Duration>,
}

/// One connection: its client, script and log.
struct Conn {
    client: Client,
    script: Script,
    log: Vec<Sent>,
}

impl Conn {
    /// Send one request and log its reply's digest. Record it in `rec`:
    /// its round-trip time under `class` (untimed when `None`), and as a
    /// failed op, with its id, when the server replies with an error or
    /// the connection breaks. Returns false when the connection broke.
    fn send(&mut self, req: &Request, class: Option<Class>, rec: &mut Recorder) -> bool {
        let op = format!("conn{} #{}", self.script.conn, self.log.len());
        let t = Instant::now();
        let res = self.client.request(req);
        let rtt = t.elapsed();
        let reply = match res {
            Ok(r) => r,
            Err(ClientError::Server(e)) => Reply::Err(e),
            Err(e) => {
                rec.untimed();
                rec.fail(&op, &e.to_string());
                return false;
            }
        };
        let errored = matches!(reply, Reply::Err(_));
        match (&reply, class) {
            (Reply::Err(e), _) => {
                rec.untimed();
                rec.fail(
                    &op,
                    &format!(
                        "{} {}: server replied {} {}",
                        req.verb.name(),
                        req.args,
                        e.code.as_str(),
                        e.message
                    ),
                );
            }
            (_, Some(class)) => rec.record(class, rtt),
            (_, None) => rec.untimed(),
        }
        self.log.push(Sent {
            digest: reply_digest(req, &reply),
            errored,
            rtt: class.map(|_| rtt),
        });
        true
    }
}

/// Generate and load the base.
pub fn build(seed: u64) -> Database {
    let mut rng = Rng::new(seed, 5);
    let mut db = Database::new();
    db.define("R", 2).expect("fresh catalog");
    db.define("S", 2).expect("fresh catalog");
    db.load("R", crate::common::rows(ROWS, KEYS, &mut rng))
        .expect("arity 2 rows");
    db.load("S", crate::common::rows(ROWS, KEYS, &mut rng))
        .expect("arity 2 rows");
    db
}

struct Setup {
    base: Database,
    server: ServerHandle,
    conns: Vec<Conn>,
    /// The set-up's requests, and those that failed.
    rec: Recorder,
}

/// Load, start the server, connect, PREPARE the pool and warm every
/// request shape with one cycle per connection.
fn set_up(seed: u64) -> Setup {
    let base = build(seed);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let server = serve(config, base.clone()).expect("server binds a loopback port");
    let mut conns = Vec::new();
    let mut rec = Recorder::default();
    for c in 0..CONNECTIONS as u64 {
        let client = Client::connect(server.addr()).expect("loopback connect");
        let mut conn = Conn {
            client,
            script: Script::new(seed, c),
            log: Vec::new(),
        };
        let warm = Script::prepares()
            .into_iter()
            .chain(conn.script.next_cycle());
        for (_, req) in warm {
            if !conn.send(&req, None, &mut rec) {
                break;
            }
        }
        conns.push(conn);
    }
    Setup {
        base,
        server,
        conns,
        rec,
    }
}

fn tear_down(server: ServerHandle, conns: Vec<Conn>) {
    for c in conns {
        let _ = c.client.bye();
    }
    server.shutdown();
    server.join();
}

/// Run whole cycles on every connection for `seconds`, from this one
/// thread: the connections take turns request by request, so both
/// sessions stay open with branches of their own while only one request
/// is in flight. Returns the recorder and the window's wall time.
fn window(conns: &mut [Conn], seconds: f64) -> (Recorder, Duration) {
    let mut rec = Recorder::default();
    let start = Instant::now();
    'run: while start.elapsed().as_secs_f64() < seconds {
        let mut cycles: Vec<_> = conns
            .iter_mut()
            .map(|c| c.script.next_cycle().into_iter())
            .collect();
        let mut sent = true;
        while sent {
            sent = false;
            for (conn, cycle) in conns.iter_mut().zip(&mut cycles) {
                if let Some((class, req)) = cycle.next() {
                    sent = true;
                    if !conn.send(&req, Some(class), &mut rec) {
                        break 'run;
                    }
                }
            }
        }
    }
    (rec, start.elapsed())
}

/// What replaying the logs found, and (when probing) what it timed.
struct Replayed {
    rec: Recorder,
    handle_us: Vec<f64>,
    proto_us: Vec<f64>,
    branch_us: Vec<f64>,
    wire_us: Vec<f64>,
    rtt_us: BTreeMap<&'static str, Vec<f64>>,
    tr: Tracer,
    qt: QueryTrace,
}

impl Replayed {
    fn new(epoch: Instant) -> Replayed {
        Replayed {
            rec: Recorder::default(),
            handle_us: Vec::new(),
            proto_us: Vec::new(),
            branch_us: Vec::new(),
            wire_us: Vec::new(),
            rtt_us: BTreeMap::new(),
            tr: Tracer::new(epoch),
            qt: QueryTrace::default(),
        }
    }

    fn merge(&mut self, other: Replayed) {
        self.rec.merge(other.rec);
        self.handle_us.extend(other.handle_us);
        self.proto_us.extend(other.proto_us);
        self.branch_us.extend(other.branch_us);
        self.wire_us.extend(other.wire_us);
        for (name, v) in other.rtt_us {
            self.rtt_us.entry(name).or_default().extend(v);
        }
        self.tr.absorb(other.tr);
        self.qt.merge(other.qt);
    }

    fn fill(&self, layers: &mut Layers) {
        for (name, v) in [
            ("server.handle_us", &self.handle_us),
            ("server.proto_us", &self.proto_us),
            ("engine.branch_us", &self.branch_us),
            ("server.wire_us", &self.wire_us),
        ] {
            layers.stat(name, median(v), v.len());
        }
        for (&name, v) in &self.rtt_us {
            layers.stat(name, median(v), v.len());
        }
        self.qt.fill(layers);
    }
}

/// Replay each connection's request stream on an in-process `Session`
/// over the same base, one thread per connection (this runs after the
/// window, so it only needs to be quick), and count the replies that
/// differ. With `probe`, also time `Session::handle`, the protocol codec,
/// `WhatIfTree::branch`, and root queries through the decomposed path.
fn replay(base: &Database, seed: u64, logs: &[Vec<Sent>], probe: bool) -> Replayed {
    let epoch = Instant::now();
    let parts: Vec<Replayed> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, log)| {
                scope.spawn(move || replay_conn(base, seed, c as u64, log, probe, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut out = Replayed::new(epoch);
    for p in parts {
        out.merge(p);
    }
    out
}

fn replay_conn(
    base: &Database,
    seed: u64,
    conn: u64,
    log: &[Sent],
    probe: bool,
    epoch: Instant,
) -> Replayed {
    let mut out = Replayed::new(epoch);
    let mut session = Session::new(base.clone());
    for (i, ((class, req), sent)) in Script::stream(seed, conn).zip(log).enumerate() {
        let op = conn << 32 | i as u64;
        if probe && req.verb == Verb::Query && class == Class::Read {
            let src = req.source();
            let db = session.database();
            let first = i.is_multiple_of(2);
            if let Err(e) = out.qt.run(&mut out.tr, db, &src, Strategy::Auto, op, first) {
                out.rec.fail(&format!("conn{conn} #{i} (decomposed)"), &e);
            }
        }
        if probe && req.verb == Verb::Branch {
            let mut tree = WhatIfTree::new();
            let t = Instant::now();
            let res = tree.branch(session.database(), &req.args, None, req.body.trim());
            out.branch_us.push(us(t.elapsed()));
            if let Err(e) = res {
                out.rec
                    .fail(&format!("conn{conn} #{i} (branch probe)"), &e.to_string());
            }
        }
        let t = Instant::now();
        let (reply, _) = session.handle(&req);
        let h = t.elapsed();
        if !sent.errored && reply_digest(&req, &reply) != sent.digest {
            out.rec.fail(
                &format!("conn{conn} #{i}"),
                &format!(
                    "{} {}: reply differs from the in-process session",
                    req.verb.name(),
                    req.args
                ),
            );
        }
        if probe {
            out.handle_us.push(us(h));
            let t = Instant::now();
            let wire = Request::decode(req.encode().as_bytes()).expect("request round-trips");
            let back = Reply::decode(reply.encode().as_bytes()).expect("reply round-trips");
            out.proto_us.push(us(t.elapsed()));
            std::hint::black_box((wire, back));
            if let Some(rtt) = sent.rtt {
                out.wire_us.push(us(rtt) - us(h));
                if let Some(name) = rtt_metric(class, req.verb) {
                    out.rtt_us.entry(name).or_default().push(us(rtt));
                }
            }
        }
    }
    out
}

pub fn run(cfg: &Config) -> Outcome {
    let mut setup_s = Vec::new();
    // Every set-up's requests count, failures included.
    let mut setup_rec = Recorder::default();
    let mut discard = |s: Setup| {
        setup_rec.merge(s.rec);
        tear_down(s.server, s.conns);
    };
    let Setup {
        base,
        server,
        mut conns,
        rec: kept_rec,
    } = time_setups(SETUPS, &mut setup_s, || set_up(cfg.seed), &mut discard);
    reset_rss_peak();

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (mut rec, wall) = window(&mut conns, seconds);
    let rss_mb = rss_peak_mb();
    rec.merge(kept_rec);
    println!(
        "wire_sessions: R, S = {ROWS} rows, {CONNECTIONS} connections, {} server worker(s)",
        ServerConfig::default().workers
    );
    let mut layers = Layers::default();
    let mut traced = None;
    if cfg.trace {
        let writes = rec.latencies(Class::Write);
        layers.stat("engine.write_p50_ms", median(writes), writes.len());
        layers.stat("engine.write_p95_ms", quantile(writes, 0.95), writes.len());
        let (trec, _) = window(&mut conns, seconds);
        layers.set("trace.overhead", rec.mean_ms() / trec.mean_ms());
        traced = Some(trec);
    }
    let logs: Vec<Vec<Sent>> = conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.log))
        .collect();
    tear_down(server, conns);

    match traced {
        None => {
            let last = time_setups(SETUPS, &mut setup_s, || set_up(cfg.seed), &mut discard);
            discard(last);
            rec.merge(setup_rec);
            rec.merge(replay(&base, cfg.seed, &logs, false).rec);
            let metrics = e2e_metrics(&rec, wall, &setup_s, rss_mb);
            Outcome {
                attempted: rec.attempted,
                failed: rec.failed,
                metrics,
            }
        }
        Some(trec) => {
            rec.merge(setup_rec);
            rec.merge(trec);
            let replayed = replay(&base, cfg.seed, &logs, true);
            replayed.fill(&mut layers);
            rec.merge(replayed.rec);
            let tr = replayed.tr;
            layers.add_spans(&tr);
            // Engine probes on the base: PREPARE's materialization, and
            // the executor on a root and a branch query.
            let mut mat = Vec::new();
            for src in PREPARED {
                let mut p = PreparedState::parse(&base, src).expect("pool state parses");
                mat.push(us(decomposed::median_time(3, || {
                    p.materialize(&base).expect("pool state materializes")
                })));
            }
            layers.stat("engine.materialize_us", median(&mat), mat.len());
            let root = base.prepare(&range("R", 4_000)).expect("probe parses");
            let mut tree = WhatIfTree::new();
            tree.branch(&base, "probe", None, &scenario(0))
                .expect("probe branch");
            let on_branch = tree.at("probe", &root).expect("probe branch exists");
            let probes = [&root, &on_branch]
                .map(|q| decomposed::exec_probe(&base, q, 5).expect("probe runs"));
            layers.add_exec_probes(&probes);
            let regrets = [("root_range", &root), ("branch_range", &on_branch)].map(|(n, q)| {
                let r = decomposed::auto_regret(&base, q, &decomposed::PINNED, 5)
                    .expect("every strategy runs");
                (n.to_string(), r)
            });
            layers.add_regrets(&regrets);
            tr.finish("wire_sessions");
            Outcome {
                attempted: rec.attempted,
                failed: rec.failed,
                metrics: layers.into_metrics(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script_digest(seed: u64, conn: u64) -> u64 {
        let mut s = Script::new(seed, conn);
        let reqs: Vec<String> = (0..50)
            .flat_map(|_| s.next_cycle())
            .map(|(c, r)| format!("{c:?} {r:?}"))
            .collect();
        digest_of(&reqs)
    }

    #[test]
    fn one_seed_one_script() {
        assert_eq!(script_digest(3, 0), script_digest(3, 0));
        assert_ne!(script_digest(3, 0), script_digest(4, 0));
        assert_ne!(script_digest(3, 0), script_digest(3, 1));
    }

    #[test]
    fn wire_replies_match_the_in_process_replay() {
        let Setup {
            base,
            server,
            mut conns,
            rec,
        } = set_up(5);
        assert_eq!(rec.failed, 0);
        let (rec, _) = window(&mut conns, 0.3);
        let logs: Vec<Vec<Sent>> = conns
            .iter_mut()
            .map(|c| std::mem::take(&mut c.log))
            .collect();
        // A request the server rejects is counted as a failed op.
        let mut rejected = Recorder::default();
        let bad = Request::new(Verb::Switch, "no-such-branch", "");
        assert!(conns[0].send(&bad, Some(Class::Other), &mut rejected));
        assert_eq!((rejected.attempted, rejected.failed), (1, 1));
        tear_down(server, conns);
        assert!(rec.attempted > 0);
        assert_eq!(rec.failed, 0);
        assert_eq!(replay(&base, 5, &logs, false).rec.failed, 0);
        // A reply that differs is caught.
        let mut bad = logs;
        bad[0][5].digest ^= 1;
        let rec = replay(&base, 5, &bad, false).rec;
        assert_eq!(rec.failed, 1);
    }
}
