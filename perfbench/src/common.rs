//! Pieces every workload shares: the seeded generator, quantiles,
//! result digests, the per-op recorder and the result line.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use hypoquery_storage::{Relation, Tuple, Value};

/// SplitMix64: small, seedable and stable across toolchains, so one seed
/// always yields one op stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `tag`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0..n` as an `i64`.
    pub fn key(&mut self, n: i64) -> i64 {
        self.below(n as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// `n` binary rows `(key, payload)`: keys uniform over `0..key_range`,
/// payloads the dense counter `0..n` (so every row is distinct, and
/// payload thresholds select exact fractions — the convention of
/// `hypoquery_bench::workload`).
pub fn rows(n: usize, key_range: i64, rng: &mut Rng) -> Vec<Tuple> {
    (0..n)
        .map(|i| Tuple::new([Value::int(rng.key(key_range)), Value::int(i as i64)]))
        .collect()
}

/// An order-independent fingerprint of a relation's contents (relations
/// iterate in sorted order, so hashing in iteration order is canonical).
pub fn digest(rel: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    rel.arity().hash(&mut h);
    rel.len().hash(&mut h);
    for t in rel.iter() {
        t.hash(&mut h);
    }
    h.finish()
}

/// Fingerprint of any hashable value.
pub fn digest_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Linearly interpolated quantile of an unsorted sample (0 when empty).
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The end-to-end class an op's latency is reported under.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum Class {
    /// A plain query at the root state.
    Read,
    /// A hypothetical query: `Q when η`, a query on a branch, or `EXEC`.
    WhatIf,
    /// A real update (constraint-checked).
    Write,
    /// Session bookkeeping: BRANCH, SWITCH, DROP, PING, EXPLAIN.
    Other,
}

/// Latencies and failures of one timed window.
#[derive(Default)]
pub struct Recorder {
    lat_ms: BTreeMap<Class, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    pub fn record(&mut self, class: Class, d: Duration) {
        self.lat_ms.entry(class).or_default().push(ms(d));
        self.attempted += 1;
    }

    /// Count an op whose time is not part of the window's figures.
    pub fn untimed(&mut self) {
        self.attempted += 1;
    }

    /// Count a wrong or failed op. It stays in the stream and is printed
    /// with its id.
    pub fn fail(&mut self, op: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED op {op}: {why}");
    }

    pub fn latencies(&self, class: Class) -> &[f64] {
        self.lat_ms.get(&class).map_or(&[], Vec::as_slice)
    }

    /// How many ops were timed: those that completed inside a window.
    pub fn timed(&self) -> usize {
        self.lat_ms.values().map(Vec::len).sum()
    }

    /// Mean latency of the timed ops, in ms.
    pub fn mean_ms(&self) -> f64 {
        let sum: f64 = self.lat_ms.values().flatten().sum();
        sum / self.timed().max(1) as f64
    }

    pub fn merge(&mut self, other: Recorder) {
        for (c, v) in other.lat_ms {
            self.lat_ms.entry(c).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Reset this process's peak resident memory to its current resident
/// memory, so that the next `rss_peak_mb` covers only what runs after.
pub fn reset_rss_peak() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("could not reset the peak resident memory: {e}");
    }
}

/// Peak resident memory of this process (VmHWM) since the last
/// `reset_rss_peak`, in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes, when it is a statistic.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn n(mut self, samples: usize) -> Metric {
        self.samples = Some(samples);
        self
    }
}

fn print_line(m: &Metric) {
    match m.samples {
        Some(n) => println!("{:<28} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
        None => println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit),
    }
}

/// Print every metric as a readable line, then the one-line JSON result
/// that closes standard output.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    metrics.iter().for_each(print_line);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

/// Command-line settings of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to be printed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Time `set_up` `n` times, appending each time to `setup_s`. An untraced
/// run does this before the timed window and again after it, and reports
/// the median of all the times: the host's speed drifts over seconds, and
/// samples taken at both ends of the run straddle the drift. Each workload
/// picks `n` so that its set-ups take under a second at each end, and the
/// cheaper its set-up, the more samples it takes. The first result is
/// returned; every later one is passed to `discard` right after
/// it is timed. Keeping the first means the workload runs on data laid out
/// in a fresh heap, as a process that loads once would, not in the holes
/// the discarded set-ups leave.
pub fn time_setups<T>(
    n: usize,
    setup_s: &mut Vec<f64>,
    mut set_up: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut kept = None;
    for _ in 0..n {
        let t = Instant::now();
        let s = set_up();
        setup_s.push(t.elapsed().as_secs_f64());
        match kept {
            None => kept = Some(s),
            Some(_) => discard(s),
        }
    }
    kept.expect("at least one set-up")
}

/// The end-to-end metrics of an untraced window that ran for `wall` and
/// peaked at `rss_mb` of resident memory. Writes and the failed fraction
/// are printed too; `failed_frac` also travels as the result's
/// `failed`/`attempted`.
pub fn e2e_metrics(rec: &Recorder, wall: Duration, setup_s: &[f64], rss_mb: f64) -> Vec<Metric> {
    let reads = rec.latencies(Class::Read);
    let whatifs = rec.latencies(Class::WhatIf);
    let writes = rec.latencies(Class::Write);
    for m in [
        Metric::new("write_p50_ms", median(writes), "ms").n(writes.len()),
        Metric::new("write_p95_ms", quantile(writes, 0.95), "ms").n(writes.len()),
        Metric::new(
            "failed_frac",
            rec.failed as f64 / rec.attempted.max(1) as f64,
            "ratio",
        )
        .n(rec.attempted as usize),
    ] {
        print_line(&m);
    }
    vec![
        Metric::new("setup_s", median(setup_s), "s").n(setup_s.len()),
        Metric::new(
            "ops_per_s",
            rec.timed() as f64 / wall.as_secs_f64().max(1e-9),
            "ops/s",
        )
        .n(rec.timed()),
        Metric::new("read_p50_ms", median(reads), "ms").n(reads.len()),
        Metric::new("read_p95_ms", quantile(reads, 0.95), "ms").n(reads.len()),
        Metric::new("whatif_p50_ms", median(whatifs), "ms").n(whatifs.len()),
        Metric::new("whatif_p95_ms", quantile(whatifs, 0.95), "ms").n(whatifs.len()),
        Metric::new("rss_peak_mb", rss_mb, "MB"),
    ]
}
