//! The workspace-level error taxonomy.
//!
//! Each pipeline crate keeps its own precise error type; [`QjoError`]
//! is the umbrella the driver layer converges on, so retry/fallback
//! policies and CLI reporting handle one type. Variants for errors from
//! crates *above* `qjo-resil` in the dependency DAG (`AnnealError`,
//! `EmbeddingError`) carry the rendered message; their `From` impls live
//! in `qjo-anneal` where both types are visible.

use std::fmt;

use crate::fault::FaultSpecError;
use qjo_qubo::io::ParseError;
use qjo_qubo::QuboError;

/// Any error the join-order pipeline can surface.
#[derive(Debug, Clone, PartialEq)]
pub enum QjoError {
    /// A QUBO model construction/evaluation error.
    Qubo(QuboError),
    /// A QUBO text-format parse error.
    Parse(ParseError),
    /// A minor-embedding failure (message of an `EmbeddingError`).
    Embedding(String),
    /// An annealer sampling failure (message of an `AnnealError`).
    Anneal(String),
    /// A malformed `--faults` spec.
    FaultSpec(FaultSpecError),
    /// An artifact/checkpoint IO failure.
    Io(String),
    /// A retry budget ran dry: `attempts` tries at `site` all failed.
    Exhausted {
        /// The fault/retry site that gave up.
        site: String,
        /// How many attempts were made.
        attempts: usize,
        /// The rendered last error.
        last: String,
    },
}

impl fmt::Display for QjoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QjoError::Qubo(e) => write!(f, "qubo: {e}"),
            QjoError::Parse(e) => write!(f, "parse: {e}"),
            QjoError::Embedding(msg) => write!(f, "embedding: {msg}"),
            QjoError::Anneal(msg) => write!(f, "anneal: {msg}"),
            QjoError::FaultSpec(e) => write!(f, "fault spec: {e}"),
            QjoError::Io(msg) => write!(f, "io: {msg}"),
            QjoError::Exhausted { site, attempts, last } => {
                write!(f, "{site}: retry budget exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for QjoError {}

impl From<QuboError> for QjoError {
    fn from(e: QuboError) -> Self {
        QjoError::Qubo(e)
    }
}

impl From<ParseError> for QjoError {
    fn from(e: ParseError) -> Self {
        QjoError::Parse(e)
    }
}

impl From<FaultSpecError> for QjoError {
    fn from(e: FaultSpecError) -> Self {
        QjoError::FaultSpec(e)
    }
}

impl From<std::io::Error> for QjoError {
    fn from(e: std::io::Error) -> Self {
        QjoError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_the_wrapped_message() {
        let e = QjoError::from(ParseError::MissingHeader);
        assert!(e.to_string().starts_with("parse: "), "{e}");
        let e = QjoError::Io("disk on fire".into());
        assert_eq!(e.to_string(), "io: disk on fire");
        let e = QjoError::Exhausted { site: "anneal.embed".into(), attempts: 3, last: "x".into() };
        assert_eq!(e.to_string(), "anneal.embed: retry budget exhausted after 3 attempts: x");
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        match QjoError::from(io) {
            QjoError::Io(msg) => assert!(msg.contains("gone")),
            other => panic!("unexpected variant {other:?}"),
        }
    }
}
