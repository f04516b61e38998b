//! In-memory spans for the traced run.
//!
//! A span is recorded around each call from the benchmark into a layer's
//! public entry point: name (`layer.phase`), start, end, parent span and
//! request id. Spans stay in memory until the run ends, then are written
//! out as tab-separated lines and summarized as per-layer self time (a
//! span's duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

struct Span {
    name: &'static str,
    req: u64,
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Tag the spans that follow with request id `req`.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        let end = self.now();
        self.spans[open.0].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Summed µs of the current request's spans whose name is in `names`.
    pub fn request_sum_us(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .rev()
            .take_while(|s| s.req == self.req)
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Append another recorder's spans (a second replay thread).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut s in other.spans {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s.start_ns += shift;
            s.end_ns += shift;
            self.spans.push(s);
        }
    }

    /// Self time per layer (the span name up to its first `.`), in ms,
    /// with the number of spans.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            let e = out.entry(layer).or_default();
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Write every span as `req  id  parent  name  start_ns  end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }

    /// Print the per-layer self-time table and write the spans to
    /// `perfbench/out/trace-<workload>.tsv`.
    pub fn finish(&self, workload: &str) {
        println!("per-layer self time (traced window):");
        for (layer, (ms, n)) in self.self_time_by_layer() {
            println!("  {layer:<10} {ms:>12.3} ms over {n} span(s)");
        }
        let path = Path::new("perfbench/out").join(format!("trace-{workload}.tsv"));
        match self.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("engine.query");
        let inner = t.enter("eval.execute");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner);
        t.exit(outer);
        let by = t.self_time_by_layer();
        assert!(by["eval"].0 >= 5.0);
        assert!(by["engine"].0 < by["eval"].0);
        assert_eq!(t.durations_us("eval.execute").len(), 1);
    }
}
