//! Evaluation errors.

use std::fmt;

use hypoquery_storage::StorageError;

/// Errors raised during query/update evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A storage-level failure (unknown relation, arity mismatch).
    Storage(StorageError),
    /// An aggregate was applied to a value of the wrong type
    /// (e.g. `sum` over strings).
    AggregateType {
        /// Which aggregate.
        agg: &'static str,
        /// Display of the offending value.
        value: String,
    },
    /// A query shape the called evaluator does not accept (e.g. a `when`
    /// over a composition or conditional reaching the physical lowering,
    /// which needs ENF or mod-ENF). Indicates a missing normalization step.
    UnsupportedShape(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Storage(e) => write!(f, "{e}"),
            EvalError::AggregateType { agg, value } => {
                write!(f, "aggregate {agg} applied to non-numeric value {value}")
            }
            EvalError::UnsupportedShape(s) => {
                write!(
                    f,
                    "evaluator does not accept this shape (normalize first): {s}"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EvalError {
    fn from(e: StorageError) -> Self {
        EvalError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EvalError::from(StorageError::UnknownRelation("R".into()));
        assert_eq!(e.to_string(), "unknown relation R");
        assert!(std::error::Error::source(&e).is_some());
        let a = EvalError::AggregateType {
            agg: "sum",
            value: "\"x\"".into(),
        };
        assert!(a.to_string().contains("sum"));
        assert!(std::error::Error::source(&a).is_none());
    }
}
