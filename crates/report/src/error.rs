//! Error type for renderers that can reject their input.
//!
//! The paper pipeline always hands renderers well-formed data, so the
//! `render()` methods keep their infallible signatures;
//! [`Heatmap::try_render`](crate::chart::Heatmap::try_render) returns
//! [`ReportError`] instead of panicking, for callers that cannot prove
//! their grid well-shaped up front.

/// Why a renderer rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The renderer was handed no data at all (zero rows or columns);
    /// `what` names the missing piece.
    EmptyData {
        /// What was empty, e.g. `"heatmap rows"`.
        what: &'static str,
    },
    /// Two dimensions that must agree did not.
    ShapeMismatch {
        /// Which invariant broke, e.g. `"column count mismatch"`.
        what: &'static str,
        /// The length the renderer expected.
        expected: usize,
        /// The length it got.
        got: usize,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::EmptyData { what } => write!(f, "nothing to render: {what} empty"),
            ReportError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
        }
    }
}

impl std::error::Error for ReportError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = ReportError::EmptyData { what: "rows" };
        assert_eq!(e.to_string(), "nothing to render: rows empty");
        let m = ReportError::ShapeMismatch {
            what: "column count mismatch",
            expected: 3,
            got: 1,
        };
        assert_eq!(m.to_string(), "column count mismatch: expected 3, got 1");
    }
}
