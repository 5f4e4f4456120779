//! Error type shared across the workspace.

use std::fmt;

/// Errors produced anywhere in the Relational Fabric stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// A named column does not exist in the schema.
    UnknownColumn(String),
    /// A column index is out of range for the schema.
    ColumnIndexOutOfRange { index: usize, len: usize },
    /// A row position (e.g. from a selection vector) is out of range for
    /// the table.
    RowIndexOutOfRange { index: usize, len: usize },
    /// Two values/columns had incompatible types for an operation.
    TypeMismatch { expected: String, found: String },
    /// A geometry referenced bytes outside its base region.
    GeometryOutOfBounds {
        offset: usize,
        width: usize,
        row_width: usize,
    },
    /// A geometry is structurally invalid (empty field list, zero rows, ...).
    InvalidGeometry(String),
    /// An arena allocation or access was out of bounds.
    ArenaOutOfBounds { addr: u64, len: usize, size: usize },
    /// Attempt to allocate more memory than the arena can hold.
    ArenaExhausted { requested: usize, available: usize },
    /// Transaction-level failure (conflict, state error).
    Txn(String),
    /// Codec failure (corrupt stream, unsupported shape).
    Codec(String),
    /// SQL front-end failure (lex/parse/bind).
    Sql(String),
    /// Storage-device failure.
    Storage(String),
    /// A simulated device failed to deliver within its retry budget
    /// (engine hang, bus timeout, or an open circuit breaker).
    DeviceTimeout {
        /// Which device timed out (`"rm-engine"`, `"relstore-ssd"`, ...).
        device: String,
        /// Delivery attempts made before giving up (0 = breaker open,
        /// the device was not even tried).
        attempts: u32,
    },
    /// A delivered batch failed its CRC32 frame check on every retry:
    /// the data is corrupt and must not be consumed.
    CorruptBatch {
        /// Producing device or link (`"rm-engine"`, `"host-link"`, ...).
        device: String,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// A flash page could not be read (latent sector error persisting
    /// across the retry budget).
    FlashReadError { page: u64, attempts: u32 },
    /// A flash page could not be programmed within the retry budget.
    FlashWriteError { page: u64, attempts: u32 },
    /// Simulated power cut during a durable write. Everything in volatile
    /// state is gone; only bytes already on the medium survive, and the
    /// in-flight write may be torn. Recovery goes through `replay()`.
    PowerLoss {
        /// The durable device that lost power (`"wal"`, `"relstore-ssd"`).
        device: String,
        /// Durable writes fully completed before the cut.
        writes_done: u64,
    },
    /// Catch-all for invariant violations that indicate a library bug.
    Internal(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            FabricError::ColumnIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "column index {index} out of range for schema with {len} columns"
                )
            }
            FabricError::RowIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "row index {index} out of range for table with {len} rows"
                )
            }
            FabricError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            FabricError::GeometryOutOfBounds {
                offset,
                width,
                row_width,
            } => write!(
                f,
                "geometry field at offset {offset} width {width} exceeds row width {row_width}"
            ),
            FabricError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            FabricError::ArenaOutOfBounds { addr, len, size } => {
                write!(
                    f,
                    "arena access at {addr:#x}+{len} out of bounds (size {size})"
                )
            }
            FabricError::ArenaExhausted {
                requested,
                available,
            } => {
                write!(
                    f,
                    "arena exhausted: requested {requested} bytes, {available} available"
                )
            }
            FabricError::Txn(msg) => write!(f, "transaction error: {msg}"),
            FabricError::Codec(msg) => write!(f, "codec error: {msg}"),
            FabricError::Sql(msg) => write!(f, "SQL error: {msg}"),
            FabricError::Storage(msg) => write!(f, "storage error: {msg}"),
            FabricError::DeviceTimeout { device, attempts } => {
                write!(f, "device `{device}` timed out after {attempts} attempts")
            }
            FabricError::CorruptBatch { device, attempts } => {
                write!(
                    f,
                    "batch from `{device}` failed CRC after {attempts} attempts"
                )
            }
            FabricError::FlashReadError { page, attempts } => {
                write!(f, "flash page {page} unreadable after {attempts} attempts")
            }
            FabricError::FlashWriteError { page, attempts } => {
                write!(
                    f,
                    "flash page {page} failed to program after {attempts} attempts"
                )
            }
            FabricError::PowerLoss {
                device,
                writes_done,
            } => {
                write!(
                    f,
                    "power loss on `{device}` after {writes_done} durable writes"
                )
            }
            FabricError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Rendering into a `String` cannot fail, but every `write!` still
/// propagates: a formatter error surfaces instead of being discarded.
impl From<fmt::Error> for FabricError {
    fn from(e: fmt::Error) -> Self {
        FabricError::Internal(format!("rendering: {e}"))
    }
}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, FabricError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FabricError::UnknownColumn("l_tax".into());
        assert!(e.to_string().contains("l_tax"));
        let e = FabricError::GeometryOutOfBounds {
            offset: 60,
            width: 8,
            row_width: 64,
        };
        assert!(e.to_string().contains("60"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn fault_variants_render_device_and_attempts() {
        let e = FabricError::DeviceTimeout {
            device: "rm-engine".into(),
            attempts: 4,
        };
        assert!(e.to_string().contains("rm-engine"));
        assert!(e.to_string().contains('4'));
        let e = FabricError::CorruptBatch {
            device: "host-link".into(),
            attempts: 3,
        };
        assert!(e.to_string().contains("CRC"));
        let e = FabricError::FlashReadError {
            page: 17,
            attempts: 4,
        };
        assert!(e.to_string().contains("17"));
        let e = FabricError::FlashWriteError {
            page: 23,
            attempts: 4,
        };
        assert!(e.to_string().contains("23"));
        assert!(e.to_string().contains("program"));
        let e = FabricError::PowerLoss {
            device: "wal".into(),
            writes_done: 9,
        };
        assert!(e.to_string().contains("wal"));
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FabricError::Internal("x".into()));
    }
}
