use std::fmt;

use crate::PageAddr;

/// Errors produced by the flash unit and its page stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The page was already written; the address space is write-once.
    AlreadyWritten {
        /// The offending page address.
        addr: PageAddr,
    },
    /// The page (or its whole prefix) has been trimmed.
    Trimmed {
        /// The offending page address.
        addr: PageAddr,
    },
    /// The address is the last one, which no page may take: the local tail,
    /// one past the highest consumed address, must fit in a [`PageAddr`].
    OutOfRange {
        /// The offending page address.
        addr: PageAddr,
    },
    /// The unit was sealed at a higher epoch than the request's.
    Sealed {
        /// The unit's current epoch.
        current_epoch: u64,
    },
    /// The payload exceeds the unit's fixed page size.
    PageTooLarge {
        /// Bytes offered.
        len: usize,
        /// The unit's page size.
        page_size: usize,
    },
    /// An I/O error from the backing store.
    Io(String),
    /// On-disk state failed validation (bad magic, CRC, or geometry).
    Corrupt(String),
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::AlreadyWritten { addr } => write!(f, "page {addr} already written"),
            FlashError::Trimmed { addr } => write!(f, "page {addr} is trimmed"),
            FlashError::OutOfRange { addr } => {
                write!(f, "page {addr} is the last address, which takes no page")
            }
            FlashError::Sealed { current_epoch } => {
                write!(f, "unit sealed at epoch {current_epoch}")
            }
            FlashError::PageTooLarge { len, page_size } => {
                write!(f, "payload of {len} bytes exceeds page size {page_size}")
            }
            FlashError::Io(e) => write!(f, "flash I/O error: {e}"),
            FlashError::Corrupt(e) => write!(f, "corrupt flash state: {e}"),
        }
    }
}

impl std::error::Error for FlashError {}

impl From<std::io::Error> for FlashError {
    fn from(e: std::io::Error) -> Self {
        FlashError::Io(e.to_string())
    }
}
