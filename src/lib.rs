//! # hypoquery
//!
//! A production-quality Rust implementation of **Griffin & Hull, "A
//! Framework for Implementing Hypothetical Queries" (SIGMOD 1997)**.
//!
//! Hypothetical queries ask *what a query would return if an update had
//! been applied*, without applying it:
//!
//! ```text
//! Q when {U}
//! ```
//!
//! This crate is the facade over the workspace:
//!
//! * [`storage`] — relations, tuples, catalogs, database states;
//! * [`algebra`] — the HQL abstract syntax (RA + `when`, updates,
//!   hypothetical-state expressions, explicit substitutions), scoping and
//!   typing;
//! * [`core`] — the paper's substitution calculus (`sub`, `#`, `slice`,
//!   `red`), the EQUIV_when rewrite system (Figure 1), and the
//!   ENF/mod-ENF normal forms;
//! * [`eval`] — the one executor, the pipelined physical plan, whose
//!   `XsubRebind` and `DeltaApply` operators are Algorithms HQL-1/2 and
//!   HQL-3 (xsub-values, Heraclitus-style delta values); and the direct
//!   semantics, the oracle it is tested against;
//! * [`opt`] — the conventional RA optimizer, cost model, and the
//!   lazy↔eager strategy planner;
//! * [`parser`] — the SQL-flavoured surface language;
//! * [`engine`] — the `Database` facade, what-if branch trees, integrity
//!   constraints, and §6 extensions.
//!
//! ## Quickstart
//!
//! ```
//! use hypoquery::{Database, Strategy};
//! use hypoquery::storage::tuple;
//!
//! let mut db = Database::new();
//! db.define("emp", 2).unwrap();               // (id, salary)
//! db.load("emp", [tuple![1, 100], tuple![2, 200]]).unwrap();
//!
//! // What would the high earners be if row (3, 300) were inserted?
//! let out = db
//!     .query("select #1 >= 200 (emp) when {insert into emp (row(3, 300))}")
//!     .unwrap();
//! assert_eq!(out.len(), 2);
//!
//! // The real state is untouched:
//! assert_eq!(db.query("emp").unwrap().len(), 2);
//!
//! // Force a specific strategy from the paper's spectrum:
//! let lazy = db
//!     .query_with("emp when {delete from emp (emp)}", Strategy::Lazy)
//!     .unwrap();
//! assert!(lazy.is_empty());
//! ```

pub use hypoquery_algebra as algebra;
pub use hypoquery_core as core;
pub use hypoquery_engine as engine;
pub use hypoquery_eval as eval;
pub use hypoquery_opt as opt;
pub use hypoquery_parser as parser;
pub use hypoquery_storage as storage;

pub use hypoquery_engine::{
    Database, EngineError, PreparedState, Strategy, TempTables, Transaction, WhatIfTree,
};
pub use hypoquery_storage::{Catalog, DatabaseState, Relation, Tuple, Value};
