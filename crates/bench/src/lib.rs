//! # hypoquery-bench
//!
//! Benchmark harness reproducing every quantitative claim of
//! Griffin & Hull (SIGMOD 1997). The paper is an extended abstract with no
//! measured tables; each bench regenerates a *claim* from the examples or
//! §5.5 — see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! Run `cargo run --release -p hypoquery-bench --bin report` for the
//! summary tables of E1–E12 recorded in EXPERIMENTS.md, or
//! `cargo bench -p hypoquery-bench` for the Criterion benches of E9–E11.

#![warn(missing_docs)]

pub mod workload;
