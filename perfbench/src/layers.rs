//! The per-layer metrics of the traced run, and the helpers that derive
//! them from spans and probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hypoquery_engine::{Database, Strategy};
use hypoquery_storage::{IndexCounters, Relation};

use crate::common::{median, quantile, us, Metric};
use crate::decomposed::{self, ExecProbe};
use crate::trace::Tracer;

/// Every per-layer metric, in report order, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.prepare_us", "us"),
    ("core.normalize_us", "us"),
    ("opt.stats_p50_us", "us"),
    ("opt.stats_p95_us", "us"),
    ("opt.plan_us", "us"),
    ("opt.lower_us", "us"),
    ("opt.qerror_p50", "ratio"),
    ("opt.qerror_p95", "ratio"),
    ("opt.auto_regret", "ratio"),
    ("eval.execute_us", "us"),
    ("eval.ns_per_row_in", "ns"),
    ("eval.rows_in_per_row_out", "ratio"),
    ("eval.analyze_overhead", "ratio"),
    ("eval.update_us", "us"),
    ("storage.index_builds", "count"),
    ("storage.index_hit_ratio", "ratio"),
    ("engine.constraint_check_us", "us"),
    ("engine.branch_us", "us"),
    ("engine.materialize_us", "us"),
    ("engine.query_us", "us"),
    ("engine.coverage", "ratio"),
    ("engine.write_p50_ms", "ms"),
    ("engine.write_p95_ms", "ms"),
    ("server.handle_us", "us"),
    ("server.proto_us", "us"),
    ("server.wire_us", "us"),
    ("client.rtt_ping_us", "us"),
    ("client.rtt_query_us", "us"),
    ("client.rtt_query_branch_us", "us"),
    ("client.rtt_table_us", "us"),
    ("client.rtt_exec_us", "us"),
    ("client.rtt_branch_us", "us"),
    ("client.rtt_switch_us", "us"),
    ("client.rtt_update_us", "us"),
    ("client.rtt_drop_us", "us"),
    ("client.rtt_explain_us", "us"),
    ("trace.overhead", "ratio"),
];

/// The per-layer values one traced run measured, with sample counts.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, (f64, Option<usize>)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, None));
    }

    /// A median (or other statistic) of `n` samples.
    pub fn stat(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.insert(name, (value, Some(n)));
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (v, n) = self.0.get(name).copied().unwrap_or((0.0, Some(0)));
                let m = Metric::new(name, v, unit);
                match n {
                    Some(n) => m.n(n),
                    None => m,
                }
            })
            .collect()
    }

    /// Medians of the spans every in-process workload records.
    pub fn add_spans(&mut self, tr: &Tracer) {
        for (metric, span) in [
            ("parser.prepare_us", "parser.prepare"),
            ("core.normalize_us", "core.normalize"),
            ("opt.plan_us", "opt.plan"),
            ("opt.lower_us", "opt.lower"),
            ("eval.execute_us", "eval.execute"),
            ("eval.update_us", "eval.update"),
            ("engine.constraint_check_us", "engine.constraint_check"),
        ] {
            let d = tr.durations_us(span);
            self.stat(metric, median(&d), d.len());
        }
        let stats = tr.durations_us("opt.stats");
        self.stat("opt.stats_p50_us", median(&stats), stats.len());
        self.stat("opt.stats_p95_us", quantile(&stats, 0.95), stats.len());
    }

    /// Executor figures from plain-vs-analyzed probe runs.
    pub fn add_exec_probes(&mut self, probes: &[ExecProbe]) {
        let exec: f64 = probes.iter().map(|p| p.execute.as_secs_f64()).sum();
        let analyze: f64 = probes.iter().map(|p| p.analyze.as_secs_f64()).sum();
        let rows_in: u64 = probes.iter().map(|p| p.rows_in).sum();
        let rows_out: u64 = probes.iter().map(|p| p.rows_out.max(1)).sum();
        let n = probes.len();
        self.stat("eval.ns_per_row_in", exec * 1e9 / rows_in.max(1) as f64, n);
        self.stat(
            "eval.rows_in_per_row_out",
            rows_in as f64 / rows_out as f64,
            n,
        );
        self.stat("eval.analyze_overhead", analyze / exec.max(1e-12), n);
    }

    /// Auto-vs-best-pinned ratios: their geometric mean.
    pub fn add_regrets(&mut self, regrets: &[(String, f64)]) {
        for (name, r) in regrets {
            println!("  auto_regret {name:<24} {r:.3}");
        }
        let logs: f64 = regrets.iter().map(|(_, r)| r.ln()).sum();
        let g = (logs / regrets.len().max(1) as f64).exp();
        self.stat("opt.auto_regret", g, regrets.len());
    }

    /// Index counter deltas over a window.
    pub fn add_index_delta(&mut self, before: IndexCounters, after: IndexCounters) {
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        self.set(
            "storage.index_builds",
            (after.builds - before.builds) as f64,
        );
        let probes = hits + misses;
        let ratio = if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        };
        self.stat("storage.index_hit_ratio", ratio, probes as usize);
    }
}

/// Figures gathered while running in-process queries through the traced
/// path.
#[derive(Default)]
pub struct QueryTrace {
    untraced_us: Vec<f64>,
    qerror: Vec<f64>,
    /// Per request, summed phase spans ÷ untraced time: requests whose
    /// decomposed run went first, then those whose untraced run did.
    coverage: [Vec<f64>; 2],
}

/// The child spans of `engine.query`: the phases a request decomposes
/// into.
const PHASES: &[&str] = &[
    "parser.prepare",
    "algebra.typing",
    "core.normalize",
    "opt.stats",
    "opt.plan",
    "opt.lower",
    "eval.execute",
];

impl QueryTrace {
    /// Run one query through the decomposed path (the traced op) and
    /// through untraced `Database::query_with`; the two must agree.
    /// Callers alternate `first` by whole cycles, so neither side always
    /// meets the caches the other warmed and the ops timed first keep the
    /// stream's mix. Returns the decomposed result, and its time when it
    /// ran first (the time an untraced window would have seen).
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        db: &Database,
        src: &str,
        strategy: Strategy,
        op: u64,
        first: bool,
    ) -> Result<(Relation, Option<Duration>), String> {
        tr.request(op);
        let plain = |qt: &mut QueryTrace| {
            let t = Instant::now();
            let rel = db.query_with(src, strategy).map_err(|e| e.to_string());
            qt.untraced_us.push(us(t.elapsed()));
            rel
        };
        let before = if first { None } else { Some(plain(self)?) };
        let t = Instant::now();
        let dec = decomposed::query(tr, db, src, strategy).map_err(|e| e.to_string())?;
        let dec_t = t.elapsed();
        let plain = match before {
            Some(rel) => rel,
            None => plain(self)?,
        };
        if dec.rel != plain {
            return Err(format!(
                "decomposed path returned {} rows, Database::query {}",
                dec.rel.len(),
                plain.len()
            ));
        }
        let untraced_us = *self.untraced_us.last().expect("pushed above");
        self.coverage[usize::from(!first)].push(tr.request_sum_us(PHASES) / untraced_us.max(1e-3));
        self.qerror
            .push(decomposed::qerror(dec.est_rows, dec.rel.len()));
        Ok((dec.rel, first.then_some(dec_t)))
    }

    pub fn merge(&mut self, other: QueryTrace) {
        self.untraced_us.extend(other.untraced_us);
        self.qerror.extend(other.qerror);
        for (mine, theirs) in self.coverage.iter_mut().zip(other.coverage) {
            mine.extend(theirs);
        }
    }

    pub fn fill(&self, layers: &mut Layers) {
        let n = self.untraced_us.len();
        layers.stat("engine.query_us", median(&self.untraced_us), n);
        // Whichever run goes first meets colder caches; the geometric mean
        // of the two orders' medians cancels that.
        let medians: Vec<f64> = self
            .coverage
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        let coverage = medians
            .iter()
            .product::<f64>()
            .powf(1.0 / medians.len().max(1) as f64);
        layers.stat("engine.coverage", coverage, n);
        layers.stat("opt.qerror_p50", median(&self.qerror), n);
        layers.stat("opt.qerror_p95", quantile(&self.qerror, 0.95), n);
    }
}
