use std::fmt;

/// Errors produced by the execution engine, the storage catalogs, the
/// refresh controller, and the session that owns them.
#[derive(Debug)]
pub enum EngineError {
    /// A value or column had the wrong type for an operation.
    TypeMismatch {
        /// Type the operation required.
        expected: String,
        /// Type actually found.
        got: String,
        /// Operation or column being evaluated.
        context: String,
    },
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// A referenced table does not exist in any catalog.
    UnknownTable(String),
    /// A table already exists where a new one was to be created.
    TableExists(String),
    /// Row or column arity did not match the schema.
    ArityMismatch {
        /// Arity the schema requires.
        expected: usize,
        /// Arity actually supplied.
        got: usize,
    },
    /// Division by zero or a similar arithmetic fault.
    Arithmetic(String),
    /// The on-disk file was not a valid table (corrupt or truncated).
    Corrupt(String),
    /// The catalog directory is already owned by another open handle
    /// (one directory, one owner: the handle holds the directory's lock
    /// until it drops).
    CatalogLocked(std::path::PathBuf),
    /// Two distinct table names sanitize to the same on-disk file stem;
    /// letting both through would silently alias their stored state.
    NameCollision {
        /// The name whose write/registration was rejected.
        name: String,
        /// The previously seen name occupying the same file stem.
        existing: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An invalid refresh plan (wrong node count, non-topological order…).
    InvalidPlan(String),
    /// A background materialization worker failed.
    Materialize(String),
    /// The S/C optimizer rejected its input.
    Opt(sc_core::OptError),
    /// The MV dependency graph could not be built.
    Dag(sc_dag::DagError),
    /// An MV with this name is already registered with the session.
    DuplicateMv(String),
    /// The session builder was not given a storage directory.
    MissingStorageDir,
}

impl EngineError {
    /// Stable machine-readable tag for the error variant, independent of
    /// the human-facing [`fmt::Display`] text. Wire protocols (the serve
    /// tier) ship this tag so clients can match on error class without
    /// parsing messages.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::TypeMismatch { .. } => "type_mismatch",
            EngineError::UnknownColumn(_) => "unknown_column",
            EngineError::UnknownTable(_) => "unknown_table",
            EngineError::TableExists(_) => "table_exists",
            EngineError::ArityMismatch { .. } => "arity_mismatch",
            EngineError::Arithmetic(_) => "arithmetic",
            EngineError::Corrupt(_) => "corrupt",
            EngineError::CatalogLocked(_) => "catalog_locked",
            EngineError::NameCollision { .. } => "name_collision",
            EngineError::Io(_) => "io",
            EngineError::InvalidPlan(_) => "invalid_plan",
            EngineError::Materialize(_) => "materialize",
            EngineError::Opt(_) => "opt",
            EngineError::Dag(_) => "dag",
            EngineError::DuplicateMv(_) => "duplicate_mv",
            EngineError::MissingStorageDir => "missing_storage_dir",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TypeMismatch {
                expected,
                got,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, got {got}"
                )
            }
            EngineError::UnknownColumn(c) => write!(f, "unknown column '{c}'"),
            EngineError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            EngineError::TableExists(t) => write!(f, "table '{t}' already exists"),
            EngineError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            EngineError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            EngineError::Corrupt(m) => write!(f, "corrupt table file: {m}"),
            EngineError::CatalogLocked(dir) => write!(
                f,
                "catalog directory '{}' is already open in another handle",
                dir.display()
            ),
            EngineError::NameCollision { name, existing } => write!(
                f,
                "table name '{name}' collides with '{existing}' on disk (same sanitized file stem)"
            ),
            EngineError::Io(e) => write!(f, "io error: {e}"),
            EngineError::InvalidPlan(m) => write!(f, "invalid refresh plan: {m}"),
            EngineError::Materialize(m) => write!(f, "materialization failed: {m}"),
            EngineError::Opt(e) => write!(f, "optimizer: {e}"),
            EngineError::Dag(e) => write!(f, "dag: {e}"),
            EngineError::DuplicateMv(n) => write!(f, "duplicate MV '{n}'"),
            EngineError::MissingStorageDir => {
                write!(f, "ScSessionBuilder::storage_dir was never called")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<sc_core::OptError> for EngineError {
    fn from(e: sc_core::OptError) -> Self {
        EngineError::Opt(e)
    }
}

impl From<sc_dag::DagError> for EngineError {
    fn from(e: sc_dag::DagError) -> Self {
        EngineError::Dag(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<(EngineError, &str)> = vec![
            (
                EngineError::TypeMismatch {
                    expected: "Int64".into(),
                    got: "Utf8".into(),
                    context: "filter".into(),
                },
                "type mismatch",
            ),
            (EngineError::UnknownColumn("x".into()), "unknown column"),
            (EngineError::UnknownTable("t".into()), "unknown table"),
            (EngineError::TableExists("t".into()), "already exists"),
            (
                EngineError::ArityMismatch {
                    expected: 2,
                    got: 3,
                },
                "arity",
            ),
            (EngineError::Arithmetic("div by zero".into()), "arithmetic"),
            (EngineError::Corrupt("bad magic".into()), "corrupt"),
            (
                EngineError::CatalogLocked("/data/sc".into()),
                "already open",
            ),
            (
                EngineError::NameCollision {
                    name: "mv.a".into(),
                    existing: "mv_a".into(),
                },
                "collides",
            ),
            (
                EngineError::InvalidPlan("cycle".into()),
                "invalid refresh plan",
            ),
            (
                EngineError::Materialize("disk full".into()),
                "materialization",
            ),
            (EngineError::Opt(sc_core::OptError::ZeroBudget), "optimizer"),
            (
                EngineError::Dag(sc_dag::DagError::SelfLoop {
                    node: sc_dag::NodeId(0),
                }),
                "dag",
            ),
            (EngineError::DuplicateMv("x".into()), "duplicate"),
            (EngineError::MissingStorageDir, "storage_dir"),
        ];
        for (e, frag) in cases {
            assert!(e.to_string().contains(frag), "{e} missing '{frag}'");
            assert!(!e.kind().is_empty());
        }
        let io = EngineError::from(std::io::Error::other("x"));
        assert!(io.to_string().contains("io error"));
        use std::error::Error as _;
        assert!(io.source().is_some());
    }
}
