//! Typed API errors.
//!
//! Every failure a client can observe is an [`ApiError`]: a machine-readable
//! [`ErrorKind`] (stable across releases, encoded on the wire) plus a
//! human-readable message. Engine-internal error types are mapped into this
//! one surface at the session boundary, so transports and clients never see
//! implementation details.

use std::fmt;

/// Declares [`ErrorKind`] and its wire tokens from one list, so a kind
/// cannot exist without a token.
macro_rules! error_kinds {
    ($($(#[$doc:meta])* $kind:ident = $code:literal,)+) => {
        /// Stable, machine-readable classification of an API failure.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ErrorKind {
            $($(#[$doc])* $kind,)+
        }

        /// Every kind with its stable wire token, in declaration order.
        const CODES: &[(ErrorKind, &str)] = &[$((ErrorKind::$kind, $code),)+];
    };
}

error_kinds! {
    /// The peer speaks a different protocol version.
    Version = "version",
    /// The message could not be parsed.
    Malformed = "malformed",
    /// A referenced relation id or name is not in the catalog.
    UnknownRelation = "unknown-relation",
    /// The referenced relation exists but has been dropped.
    RelationDropped = "relation-dropped",
    /// The requested scoring name is not in the engine's registry.
    UnknownScoring = "unknown-scoring",
    /// The scoring parameters were rejected by the scoring factory.
    InvalidParams = "invalid-params",
    /// The query itself is invalid (empty relation list, k = 0, dimension
    /// mismatch, …).
    InvalidQuery = "invalid-query",
    /// The ProxRJ operator rejected or failed the run.
    Operator = "operator",
    /// Transport failure (connection lost, short read, …).
    Io = "io",
    /// A cluster worker needed for the request is unreachable and no
    /// replica could take over.
    WorkerUnavailable = "worker-unavailable",
    /// The cluster answered, but in a degraded state: part of the fleet is
    /// inconsistent or lost and the operation could not be completed
    /// exactly.
    Degraded = "degraded",
    /// A worker's replicated catalog is at a different epoch than the
    /// coordinator snapshot that produced the request; the caller should
    /// re-snapshot and retry.
    StaleEpoch = "stale-epoch",
    /// The request kind is understood but not served by this endpoint
    /// (e.g. a cluster-internal message sent to a plain server).
    Unsupported = "unsupported",
    /// Anything else; a bug if ever observed.
    Internal = "internal",
}

impl ErrorKind {
    /// The stable wire token for this kind.
    pub fn code(&self) -> &'static str {
        CODES[*self as usize].1
    }

    /// Parses a wire token back into a kind.
    pub fn from_code(code: &str) -> Option<ErrorKind> {
        CODES
            .iter()
            .find(|(_, c)| *c == code)
            .map(|(kind, _)| *kind)
    }
}

/// A typed API failure: stable kind + diagnostic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// Human-readable diagnostic (single line; newlines are replaced on the
    /// wire).
    pub message: String,
}

impl ApiError {
    /// Creates an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ApiError {
        ApiError {
            kind,
            message: message.into(),
        }
    }

    /// Convenience constructor for parse failures.
    pub fn malformed(message: impl Into<String>) -> ApiError {
        ApiError::new(ErrorKind::Malformed, message)
    }

    /// Convenience constructor for transport failures.
    pub fn io(err: std::io::Error) -> ApiError {
        ApiError::new(ErrorKind::Io, err.to_string())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.code(), self.message)
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_codes() {
        for (i, (kind, code)) in CODES.iter().enumerate() {
            assert_eq!(*kind as usize, i, "CODES is in declaration order");
            assert_eq!(kind.code(), *code);
            assert_eq!(ErrorKind::from_code(code), Some(*kind));
        }
        assert_eq!(ErrorKind::from_code("no-such-kind"), None);
    }

    #[test]
    fn display_includes_kind_and_message() {
        let e = ApiError::new(ErrorKind::UnknownRelation, "no relation named hotels");
        assert_eq!(e.to_string(), "unknown-relation: no relation named hotels");
    }
}
