//! The hypoquery benchmark: three closed-loop workloads that drive
//! `Database`, `Session` and `Client` the way users do, with output
//! checks, end-to-end metrics and (with `--trace 1`) a per-layer
//! breakdown. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload whatif_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod common;
mod decomposed;
mod layers;
mod point_rw;
mod trace;
mod whatif_mix;
mod wire_sessions;

use common::{print_result, Config};

const USAGE: &str = "usage: perfbench --workload <whatif_mix|point_rw|wire_sessions> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match workload.as_str() {
        "whatif_mix" => whatif_mix::run(&cfg),
        "point_rw" => point_rw::run(&cfg),
        "wire_sessions" => wire_sessions::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    print_result(out.attempted, out.failed, &out.metrics);
}

#[cfg(test)]
mod tests {
    use crate::common::{e2e_metrics, Recorder};
    use crate::layers::Layers;
    use std::time::Duration;

    /// `BENCHMARK.json` declares exactly the metrics the runs print.
    #[test]
    fn benchmark_json_matches_the_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e = e2e_metrics(&Recorder::default(), Duration::from_secs(1), &[1.0], 1.0);
        let per = Layers::default().into_metrics();
        for m in e2e.iter().chain(&per) {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "missing {entry}");
        }
        assert_eq!(json.matches("\"better\"").count(), e2e.len() + per.len());
    }
}
