//! # hypoquery-eval
//!
//! Evaluation for HQL: one executor and one specification oracle.
//!
//! * [`physical`] — the executor: [`PhysPlan`], a push-based pipeline of
//!   relational operators plus the two hypothetical operators,
//!   `XsubRebind` (Figure 3's `when ε` rule, HQL-1/HQL-2) and
//!   `DeltaApply` (Figure 4's `when {U}` rule, HQL-3). Every strategy on
//!   the paper's eager↔lazy spectrum runs through it (`hypoquery-opt`
//!   lowers each strategy's normal form onto it);
//! * [`direct`] — the reference semantics `[[Q]]`, `[[U]]`, `[[η]]`
//!   (§3.1, §4.2) and `apply(DB, ρ)` (§3.3), index-free, which every
//!   execution path is property-tested against;
//! * [`bag`] — an independent bag-semantics interpreter (§6), the second
//!   oracle;
//! * [`update`] — the one update walker, parameterized by how queries
//!   are evaluated (the oracle passes [`eval_query`], the engine its
//!   physical plans);
//! * [`xsub`] — xsub-values with `apply` and smash `!` (§5.3);
//! * [`delta`] — Heraclitus-style delta values, delta smash, and the
//!   streaming effective-relation merge behind `DeltaApply` (§5.5);
//! * [`join`] — the hash equi-join of the direct semantics;
//! * [`exec`] — scoped-thread fan-out for independent scenarios
//!   (copy-on-write snapshots make branches share-nothing writers).

#![warn(missing_docs)]

pub mod bag;
pub mod delta;
pub mod direct;
pub mod error;
pub mod exec;
pub mod join;
pub mod physical;
pub mod update;
pub mod xsub;

pub use bag::{apply_bag_subst, eval_bag_query, eval_bag_state, eval_bag_update, BagState};
pub use delta::{DeltaValue, RelDelta};
pub use direct::{apply_subst, eval_query, eval_state, eval_update};
pub use error::EvalError;
pub use exec::{num_workers, parallel_map, try_parallel_map};
pub use physical::{DeltaAtom, ExecMetrics, OpStats, PhysNode, PhysOp, PhysPlan, Side};
pub use update::eval_update_with;
pub use xsub::{materialize_subst, XsubValue};
