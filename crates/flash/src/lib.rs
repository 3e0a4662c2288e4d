#![warn(missing_docs)]
//! Write-once flash storage for CORFU storage nodes.
//!
//! The paper (§2.2) describes a CORFU storage node as "an SSD with a custom
//! interface (i.e., a write-once, 64-bit address space instead of a
//! conventional LBA, where space is freed by explicit trims rather than
//! overwrites)". This crate implements that device:
//!
//! * [`FlashUnit`] — the write-once 64-bit page address space with
//!   `write`/`read`/`trim`/`trim_prefix`/`seal` and wear accounting. Pages can
//!   hold data or *junk* (the fill value used to patch holes left by crashed
//!   clients). Its slot table — chunks of 1 024 consecutive addresses,
//!   allocated only where pages are — is the only record of a page: a slot
//!   is unwritten, hot (the payload is in the slot), cold (the payload is in
//!   a segment file) or trimmed, and a page changes tier by changing slot.
//! * [`Page`] — what an address holds as a reader sees it: data, junk,
//!   unwritten or trimmed. `Page<Bytes>` owns the data (`read`,
//!   `read_many`), `Page<&[u8]>` lends it (`lend`, from a hot slot or a
//!   walk's readahead buffer). The storage node's replies and the CORFU
//!   client use the same type, so no layer converts one page into another.
//! * [`FileStore`] — the optional cold device: segment files of packed,
//!   append-only, CRC-checked records, crash recovery by parsing them, reads
//!   of records that sit next to each other in one `pread`, a walk down the
//!   records through one [`Readahead`] buffer, and whole-segment reclamation
//!   below the prefix-trim horizon. [`FlashUnit::in_memory`] has
//!   none; a unit opened over a `FileStore` writes every page through; a
//!   unit opened over a [`TieredStore`] (a `FileStore` plus a hot capacity)
//!   keeps a volatile hot tail and migrates older pages cold.
//!
//! We do not have the paper's Intel X25-V SSDs; `FileStore` over a local
//! filesystem is the substitution. It preserves the semantics that matter to
//! CORFU — write-once pages, explicit trim, sealing, persistence across
//! restarts — while the figures charge the original cluster's flash service
//! times on the simulated transport (`corfu::cluster::Testbed`, see
//! DESIGN.md).

#[cfg(test)]
mod crash;
mod disk;
mod error;
mod file;
mod metrics;
mod store;
mod tiered;
mod unit;

pub use error::FlashError;
pub use file::{FileStore, Readahead};
pub use metrics::FlashMetrics;
pub use store::{Page, ScrubReport, TierStats};
pub use tiered::TieredStore;
pub use unit::{FlashUnit, WearStats};

/// A page address in the unit's 64-bit write-once address space.
pub type PageAddr = u64;

/// Convenience alias for flash results.
pub type Result<T> = std::result::Result<T, FlashError>;
