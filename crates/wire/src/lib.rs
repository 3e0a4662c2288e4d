#![warn(missing_docs)]
//! Binary wire format for the Tango/CORFU stack.
//!
//! A shared-log system controls its own on-disk and on-the-wire layout, so
//! this crate implements a small, explicit binary codec instead of pulling in
//! a serialization framework:
//!
//! * [`Writer`] / [`Reader`] — little-endian primitives, LEB128 varints, and
//!   length-prefixed byte strings over a growable buffer.
//! * [`Encode`] / [`Decode`] — record traits implemented by every RPC message
//!   and log-record type in the workspace.
//! * [`crc32c`] — the Castagnoli CRC used to checksum flash pages and TCP
//!   frames.
//! * [`IdHasher`] (with [`IdMap`] / [`IdSet`]) — one-multiply hashing for the
//!   tables keyed by integers this system mints (offsets, ids, tokens).
//!
//! All decoding is fallible and total: malformed input yields a [`WireError`]
//! rather than a panic, because log entries and frames can be corrupted or
//! truncated (junk fills, torn writes).

mod crc;
mod error;
mod hash;
mod reader;
mod traits;
mod writer;

pub use crc::crc32c;
pub use error::WireError;
pub use hash::{IdHasher, IdMap, IdSet};
pub use reader::Reader;
pub use traits::{decode_all, decode_from_slice, decode_seq, encode_to_vec, Decode, Encode};
pub use writer::Writer;

/// Convenience alias for results produced by decoding.
pub type Result<T> = std::result::Result<T, WireError>;
