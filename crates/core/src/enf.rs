//! Collapsed ENF syntax trees (§5.2, §5.4) and modified ENF (§5.5).
//!
//! * [`collapse`] — the `collapse` operator of §5.4: maximal pure-RA regions
//!   of an ENF syntax tree are folded into a single node labeled by an RA
//!   query over placeholder names: Algorithm HQL-2's clustering, which
//!   hands each region to a conventional evaluator instead of
//!   interpreting one algebra node at a time. The physical executor gets
//!   the same grouping by streaming every pure region as one pipeline.
//! * [`to_mod_enf`] / [`is_mod_enf`] — modified ENF: every hypothetical
//!   update has the form `{A₁; …; Aₙ}` with each `Aᵢ` an atomic insert or
//!   delete, the shape Algorithm HQL-3's delta construction consumes.

use std::fmt;

use hypoquery_storage::RelName;

use hypoquery_algebra::{Query, StateExpr, Update};

use crate::equiv::is_enf_query;

/// Errors from normal-form operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EnfError {
    /// The input query is not in ENF (contains `#` or `{U}`).
    NotEnf(String),
    /// The query cannot be put in modified ENF (e.g. it contains an
    /// explicit substitution or a conditional update, which have no atomic
    /// insert/delete sequence form in general).
    NotModEnf(String),
}

impl fmt::Display for EnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnfError::NotEnf(s) => write!(f, "query is not in ENF: {s}"),
            EnfError::NotModEnf(s) => write!(f, "query has no modified-ENF form: {s}"),
        }
    }
}

impl std::error::Error for EnfError {}

/// Prefix used for the fresh placeholder names `S₁, …, Sₘ` that stand for
/// `when`-subtrees inside a collapsed RA region. The surface parser rejects
/// `$`, so placeholders can never collide with user relation names.
pub const PLACEHOLDER_PREFIX: &str = "$";

/// Make the `i`-th placeholder name.
pub fn placeholder(i: usize) -> RelName {
    RelName::new(format!("{PLACEHOLDER_PREFIX}{i}"))
}

/// A collapsed ENF syntax tree (§5.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CollapsedTree {
    /// A node labeled by a relation name.
    Leaf(RelName),
    /// A `when` node: `child when {bindings}`.
    When {
        /// The query under the `when`.
        child: Box<CollapsedTree>,
        /// The explicit substitution, with collapsed bound queries.
        bindings: Vec<(RelName, CollapsedTree)>,
    },
    /// A collapsed pure-RA region `Q[S₁, …, Sₘ, R₁, …, Rₖ]`.
    Ra {
        /// The region's RA query; references placeholder names
        /// (`$0`, `$1`, …) where `when`-subtrees sat, and real base names
        /// elsewhere.
        template: Query,
        /// The collapsed `when`-subtrees, in placeholder order: child `i`
        /// provides the value of `$i`.
        when_children: Vec<CollapsedTree>,
        /// The distinct real base names `R₁, …, Rₖ` referenced by the
        /// template.
        leaf_names: Vec<RelName>,
    },
}

impl CollapsedTree {
    /// Total number of nodes (for tests and plan display).
    pub fn node_count(&self) -> usize {
        match self {
            CollapsedTree::Leaf(_) => 1,
            CollapsedTree::When { child, bindings } => {
                1 + child.node_count() + bindings.iter().map(|(_, t)| t.node_count()).sum::<usize>()
            }
            CollapsedTree::Ra { when_children, .. } => {
                1 + when_children
                    .iter()
                    .map(CollapsedTree::node_count)
                    .sum::<usize>()
            }
        }
    }
}

impl fmt::Display for CollapsedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollapsedTree::Leaf(name) => write!(f, "{name}"),
            CollapsedTree::When { child, bindings } => {
                write!(f, "({child} when {{")?;
                for (i, (name, t)) in bindings.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}/{name}")?;
                }
                write!(f, "}})")
            }
            CollapsedTree::Ra {
                template,
                when_children,
                ..
            } => {
                write!(f, "{template}")?;
                if !when_children.is_empty() {
                    write!(f, " where")?;
                    for (i, c) in when_children.iter().enumerate() {
                        write!(f, " ${i} = [{c}]")?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// The `collapse` operator (§5.4) on an ENF query.
///
/// Returns `Err` if the query is not in ENF — run
/// [`crate::equiv::to_enf_query`] first.
pub fn collapse(q: &Query) -> Result<CollapsedTree, EnfError> {
    if !is_enf_query(q) {
        return Err(EnfError::NotEnf(q.to_string()));
    }
    Ok(collapse_enf(q))
}

fn collapse_enf(q: &Query) -> CollapsedTree {
    match q {
        Query::Base(name) => CollapsedTree::Leaf(name.clone()),
        Query::When(body, eta) => {
            let eps = eta
                .as_subst()
                .expect("ENF guarantees explicit substitutions");
            CollapsedTree::When {
                child: Box::new(collapse_enf(body)),
                bindings: eps
                    .iter()
                    .map(|(name, bq)| (name.clone(), collapse_enf(bq)))
                    .collect(),
            }
        }
        _ => {
            // RA-operator root: gather the maximal pure region below it.
            let mut when_children = Vec::new();
            let mut leaf_names = Vec::new();
            let template = gather_region(q, &mut when_children, &mut leaf_names);
            CollapsedTree::Ra {
                template,
                when_children,
                leaf_names,
            }
        }
    }
}

/// Walk down through RA operators, replacing `when`-subtrees by fresh
/// placeholder names and collecting real leaf names.
fn gather_region(
    q: &Query,
    when_children: &mut Vec<CollapsedTree>,
    leaf_names: &mut Vec<RelName>,
) -> Query {
    match q {
        Query::Base(name) => {
            if !leaf_names.contains(name) {
                leaf_names.push(name.clone());
            }
            q.clone()
        }
        Query::Singleton(_) | Query::Empty { .. } => q.clone(),
        Query::When(_, _) => {
            let ph = placeholder(when_children.len());
            when_children.push(collapse_enf(q));
            Query::Base(ph)
        }
        other => other
            .clone()
            .map_subqueries(|sub| gather_region(&sub, when_children, leaf_names)),
    }
}

// ---------------------------------------------------------------------------
// Modified ENF (§5.5)
// ---------------------------------------------------------------------------

/// Whether every hypothetical-state expression in `q` is `{A₁; …; Aₙ}` with
/// atomic `Aᵢ`, recursively including the updates' queries.
pub fn is_mod_enf(q: &Query) -> bool {
    match q {
        Query::Base(_) | Query::Singleton(_) | Query::Empty { .. } => true,
        Query::Select(inner, _) | Query::Project(inner, _) => is_mod_enf(inner),
        Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Product(a, b)
        | Query::Join(a, b, _)
        | Query::Diff(a, b) => is_mod_enf(a) && is_mod_enf(b),
        Query::When(body, eta) => is_mod_enf(body) && state_is_mod_enf(eta),
        Query::Aggregate { input, .. } => is_mod_enf(input),
    }
}

fn state_is_mod_enf(eta: &StateExpr) -> bool {
    match eta {
        StateExpr::Update(u) => {
            u.is_atomic_sequence()
                && u.flatten().iter().all(|a| match a {
                    Update::Insert(_, q) | Update::Delete(_, q) => is_mod_enf(q),
                    _ => false,
                })
        }
        _ => false,
    }
}

/// Normalize a query to modified ENF, if possible.
///
/// Compositions of updates become update sequences
/// (`{U₁} # {U₂} ≡ {U₁; U₂}`); explicit substitutions and conditional
/// updates have no atomic form and yield [`EnfError::NotModEnf`] — the
/// planner falls back to Algorithm HQL-2 for those queries.
pub fn to_mod_enf(q: &Query) -> Result<Query, EnfError> {
    match q.clone() {
        Query::When(body, eta) => {
            let body = to_mod_enf(&body)?;
            let u = state_to_atomic_update(&eta)?;
            Ok(body.when(StateExpr::update(u)))
        }
        other => {
            // Recurse; propagate errors out of map_subqueries via a cell.
            let mut err = None;
            let out = other.map_subqueries(|sub| match to_mod_enf(&sub) {
                Ok(t) => t,
                Err(e) => {
                    err = Some(e);
                    sub
                }
            });
            match err {
                Some(e) => Err(e),
                None => Ok(out),
            }
        }
    }
}

fn state_to_atomic_update(eta: &StateExpr) -> Result<Update, EnfError> {
    match eta {
        StateExpr::Update(u) => update_to_atomic(u),
        StateExpr::Compose(a, b) => {
            // {U₁} # {U₂} ≡ {U₁; U₂}
            Ok(state_to_atomic_update(a)?.then(state_to_atomic_update(b)?))
        }
        StateExpr::Subst(eps) => Err(EnfError::NotModEnf(format!(
            "explicit substitution {eps} has no atomic update form"
        ))),
    }
}

fn update_to_atomic(u: &Update) -> Result<Update, EnfError> {
    match u {
        Update::Insert(r, q) => Ok(Update::Insert(r.clone(), to_mod_enf(q)?)),
        Update::Delete(r, q) => Ok(Update::Delete(r.clone(), to_mod_enf(q)?)),
        Update::Seq(a, b) => Ok(update_to_atomic(a)?.then(update_to_atomic(b)?)),
        Update::Cond { .. } => Err(EnfError::NotModEnf(format!(
            "conditional update {u} has no atomic update form"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{to_enf_query, RewriteTrace};
    use hypoquery_algebra::{CmpOp, ExplicitSubst, Predicate};

    fn eps1() -> ExplicitSubst {
        ExplicitSubst::single("R", Query::base("R").union(Query::base("S")))
    }

    fn eps2() -> ExplicitSubst {
        ExplicitSubst::single(
            "S",
            Query::base("S").select(Predicate::col_cmp(0, CmpOp::Gt, 1)),
        )
    }

    /// Example 5.2: Q = (Q1 when ε1) ⋈ (R ⋈ σ(Q2 when ε2)).
    /// collapse(T) has root `$0 ⋈ (R ⋈ σ($1))` with three children:
    /// Q1 when ε1, Q2 when ε2, and leaf R.
    #[test]
    fn example_5_2_structure() {
        let q1 = Query::base("Q1");
        let q2 = Query::base("Q2");
        let p = Predicate::True;
        let q = q1.clone().when(StateExpr::subst(eps1())).join(
            Query::base("R").join(
                q2.clone()
                    .when(StateExpr::subst(eps2()))
                    .select(Predicate::col_cmp(0, CmpOp::Gt, 0)),
                p.clone(),
            ),
            p.clone(),
        );
        let t = collapse(&q).unwrap();
        match &t {
            CollapsedTree::Ra {
                template,
                when_children,
                leaf_names,
            } => {
                assert_eq!(when_children.len(), 2);
                assert_eq!(leaf_names, &vec![RelName::new("R")]);
                // Template references $0, $1 and R.
                let expected = Query::base(placeholder(0)).join(
                    Query::base("R").join(
                        Query::base(placeholder(1)).select(Predicate::col_cmp(0, CmpOp::Gt, 0)),
                        p.clone(),
                    ),
                    p.clone(),
                );
                assert_eq!(template, &expected);
                // First child is Q1 when ε1.
                match &when_children[0] {
                    CollapsedTree::When { child, bindings } => {
                        assert_eq!(**child, CollapsedTree::Leaf("Q1".into()));
                        assert_eq!(bindings.len(), 1);
                    }
                    other => panic!("expected when child, got {other}"),
                }
            }
            other => panic!("expected Ra root, got {other}"),
        }
    }

    #[test]
    fn collapse_requires_enf() {
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", Query::base("S"))));
        assert!(matches!(collapse(&q), Err(EnfError::NotEnf(_))));
        let mut trace = RewriteTrace::new();
        let enf = to_enf_query(&q, &mut trace);
        assert!(collapse(&enf).is_ok());
    }

    #[test]
    fn collapse_of_leaf_and_when() {
        assert_eq!(
            collapse(&Query::base("R")).unwrap(),
            CollapsedTree::Leaf("R".into())
        );
        let q = Query::base("R").when(StateExpr::subst(eps1()));
        match collapse(&q).unwrap() {
            CollapsedTree::When { child, bindings } => {
                assert_eq!(*child, CollapsedTree::Leaf("R".into()));
                assert_eq!(bindings.len(), 1);
                // The binding's query is itself a collapsed Ra region.
                assert!(matches!(bindings[0].1, CollapsedTree::Ra { .. }));
            }
            other => panic!("expected when root, got {other}"),
        }
    }

    #[test]
    fn leaf_names_are_deduplicated() {
        let q = Query::base("R")
            .union(Query::base("R"))
            .union(Query::base("S"));
        match collapse(&q).unwrap() {
            CollapsedTree::Ra {
                leaf_names,
                when_children,
                ..
            } => {
                assert_eq!(leaf_names, vec![RelName::new("R"), RelName::new("S")]);
                assert!(when_children.is_empty());
            }
            other => panic!("expected Ra, got {other}"),
        }
    }

    #[test]
    fn mod_enf_detection_and_conversion() {
        let atomic = StateExpr::update(
            Update::insert("R", Query::base("S")).then(Update::delete("S", Query::base("S"))),
        );
        let q = Query::base("R").when(atomic);
        assert!(is_mod_enf(&q));
        assert_eq!(to_mod_enf(&q).unwrap(), q);

        // Composition of {U}s becomes one sequence.
        let comp = StateExpr::update(Update::insert("R", Query::base("S")))
            .compose(StateExpr::update(Update::delete("S", Query::base("S"))));
        let q2 = Query::base("R").when(comp);
        assert!(!is_mod_enf(&q2));
        let m = to_mod_enf(&q2).unwrap();
        assert!(is_mod_enf(&m));

        // Explicit substitution: no mod-ENF form.
        let q3 = Query::base("R").when(StateExpr::subst(eps1()));
        assert!(matches!(to_mod_enf(&q3), Err(EnfError::NotModEnf(_))));

        // Conditional: no mod-ENF form.
        let q4 = Query::base("R").when(StateExpr::update(Update::cond(
            Query::base("G"),
            Update::insert("R", Query::base("S")),
            Update::delete("R", Query::base("S")),
        )));
        assert!(matches!(to_mod_enf(&q4), Err(EnfError::NotModEnf(_))));
    }

    #[test]
    fn nested_when_inside_update_query_is_mod_enf() {
        let inner = Query::base("S").when(StateExpr::update(Update::insert("S", Query::base("T"))));
        let q = Query::base("R").when(StateExpr::update(Update::insert("R", inner)));
        assert!(is_mod_enf(&q));
    }

    #[test]
    fn display_forms() {
        let q = Query::base("R")
            .union(Query::base("S"))
            .when(StateExpr::subst(eps2()));
        let t = collapse(&q).unwrap();
        let s = t.to_string();
        assert!(s.contains("when"), "display: {s}");
        assert!(EnfError::NotEnf("x".into())
            .to_string()
            .contains("not in ENF"));
    }
}
