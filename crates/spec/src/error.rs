//! Spec-layer error type.
//!
//! Hand-implemented `Display`/`Error` (the offline build has no `thiserror`),
//! but shaped the way a `thiserror` derive would shape it: one variant per
//! failure class, each carrying the context a caller needs to print a
//! actionable message.

/// Why a spec document could not be parsed, validated or built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The JSON text itself is malformed.
    Parse(String),
    /// A required object field is absent.
    MissingField {
        /// The absent field.
        field: String,
        /// The JSON type of the value the field was looked up in.
        in_type: &'static str,
    },
    /// A field holds the wrong JSON type.
    TypeMismatch {
        /// What the spec schema expects.
        expected: &'static str,
        /// What the document contains.
        found: &'static str,
    },
    /// A tagged enum's `kind` is not one of the known variants.
    UnknownKind {
        /// What kind of spec object was being read.
        what: &'static str,
        /// The unrecognized tag.
        kind: String,
        /// Accepted tags, for the error message.
        expected: String,
    },
    /// A value is structurally valid JSON but semantically invalid
    /// (negative rate, empty DVS table, zero replications, ...).
    Invalid(String),
    /// A policy pins a DVS level index the scenario's table does not have.
    SpeedOutOfRange {
        /// The pinned level index.
        speed: usize,
        /// How many levels the DVS table has.
        levels: usize,
    },
    /// Reading or writing a spec file failed.
    Io(String),
    /// One point of a grid failed: the point's error, with its flat index
    /// and name.
    GridPoint {
        /// The point's flat index in the grid.
        index: usize,
        /// The point's name.
        name: String,
        /// Why the point failed.
        error: Box<SpecError>,
    },
}

impl SpecError {
    pub(crate) fn parse(msg: impl Into<String>) -> Self {
        SpecError::Parse(msg.into())
    }

    pub(crate) fn missing_field(field: &str, in_type: &'static str) -> Self {
        SpecError::MissingField {
            field: field.to_owned(),
            in_type,
        }
    }

    pub(crate) fn type_mismatch(expected: &'static str, found: &'static str) -> Self {
        SpecError::TypeMismatch { expected, found }
    }

    pub(crate) fn unknown_kind(
        what: &'static str,
        kind: impl Into<String>,
        expected: impl Into<String>,
    ) -> Self {
        SpecError::UnknownKind {
            what,
            kind: kind.into(),
            expected: expected.into(),
        }
    }

    /// A semantic-validation error.
    pub fn invalid(msg: impl Into<String>) -> Self {
        SpecError::Invalid(msg.into())
    }

    /// `error`, raised by the grid point `index` named `name`.
    pub fn grid_point(index: usize, name: &str, error: SpecError) -> Self {
        SpecError::GridPoint {
            index,
            name: name.to_owned(),
            error: Box::new(error),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "invalid JSON: {msg}"),
            SpecError::MissingField { field, in_type } => {
                write!(f, "missing field {field:?} (in a JSON {in_type})")
            }
            SpecError::TypeMismatch { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            SpecError::UnknownKind {
                what,
                kind,
                expected,
            } => write!(
                f,
                "unknown {what} kind {kind:?} (expected one of: {expected})"
            ),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
            SpecError::SpeedOutOfRange { speed, levels } => write!(
                f,
                "invalid spec: policy speed {speed} is past the DVS table's {levels} level(s) \
                 (valid indices 0..={})",
                levels.saturating_sub(1)
            ),
            SpecError::Io(msg) => write!(f, "spec file I/O: {msg}"),
            SpecError::GridPoint { index, name, error } => {
                write!(f, "grid point {index} ({name}): {error}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<std::io::Error> for SpecError {
    fn from(e: std::io::Error) -> Self {
        SpecError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = SpecError::missing_field("lambda", "object");
        assert_eq!(e.to_string(), "missing field \"lambda\" (in a JSON object)");
        let e = SpecError::unknown_kind("policy", "bogus", "poisson, kft");
        assert!(e.to_string().contains("bogus"));
        assert!(e.to_string().contains("poisson"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SpecError::invalid("x"));
    }
}
