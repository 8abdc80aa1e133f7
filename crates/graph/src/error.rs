//! Error types for graph construction, querying, and I/O.

use std::fmt;

/// Errors produced by the graph substrate.
#[derive(Debug)]
pub enum GraphError {
    /// A node id was outside `0..num_nodes`.
    NodeOutOfBounds {
        /// The offending node id.
        node: u64,
        /// Number of nodes in the graph.
        num_nodes: u64,
    },
    /// A snapshot operation referenced a page id that is not present.
    UnknownPage(u64),
    /// Two snapshot series or snapshots were expected to be aligned
    /// (same page universe, same order) but were not.
    MisalignedSnapshots(String),
    /// A timestamped event log was not in non-decreasing time order.
    OutOfOrderEvent {
        /// Timestamp of the offending event.
        at: f64,
        /// Latest timestamp seen before it.
        latest: f64,
    },
    /// A timestamped event log was given a NaN or infinite time.
    NonFiniteTime(f64),
    /// Parse failure while reading a text edge list.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        msg: String,
    },
    /// Malformed binary encoding.
    Decode(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of bounds for graph with {num_nodes} nodes"
                )
            }
            GraphError::UnknownPage(p) => write!(f, "unknown page id {p}"),
            GraphError::MisalignedSnapshots(msg) => write!(f, "misaligned snapshots: {msg}"),
            GraphError::OutOfOrderEvent { at, latest } => {
                write!(f, "event at t={at} precedes latest t={latest}")
            }
            GraphError::NonFiniteTime(at) => write!(f, "event time {at} is not finite"),
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Decode(msg) => write!(f, "decode error: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::NodeOutOfBounds {
            node: 7,
            num_nodes: 3,
        };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("3"));
        let e = GraphError::Parse {
            line: 12,
            msg: "bad int".into(),
        };
        assert!(e.to_string().contains("line 12"));
    }

    #[test]
    fn io_error_roundtrips_source() {
        let ioe = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: GraphError = ioe.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn out_of_order_event_display() {
        let e = GraphError::OutOfOrderEvent {
            at: 1.0,
            latest: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("t=1") && s.contains("t=2"));
    }
}
