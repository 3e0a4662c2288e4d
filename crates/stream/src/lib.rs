#![warn(missing_docs)]
//! Streams over the CORFU shared log (§5 of the Tango paper).
//!
//! A stream is the subsequence of log entries tagged with a stream id. Each
//! Tango object lives on its own stream, which is what lets a client
//! selectively consume only the objects it hosts ("layered partitioning",
//! §4) instead of playing the whole log.
//!
//! Stream membership is materialized client-side as a linked list of
//! offsets, reconstructed lazily from the per-entry backpointer headers: the
//! sequencer reports the last K offsets issued for a stream, and the client
//! strides backward through entry headers, a K-entry window at a time,
//! until it reconnects with what it already knows. The paper counts N/K
//! reads for N entries, one behind the other; here a stride's read is a
//! `ReadChase`, which the storage node extends along the stream's
//! backpointers to its own pages, so a round trip brings up to 256 entries
//! (128 KiB of pages at most) and most strides find their window in the
//! entry cache (N/256 round trips for small entries; the walk still looks
//! at every header itself). Junk entries — holes
//! patched after a client crash — carry no headers and break the chain; the
//! client then falls back to a backward linear scan, exactly as described
//! in the paper (also batched). After `sync`, a readahead prefetcher bulk-fetches
//! the next window of member entries so steady-state `readnext` is served
//! from the entry cache without touching the network. The cache holds each
//! entry as the page it arrived in — a handle on the storage node's reply
//! and a range of it ([`corfu::Entry`]) — so neither a replay nor dropping
//! the client afterwards costs an allocator call per entry.
//!
//! [`StreamClient::sync`] brings a stream's linked list up to date and must
//! be called before [`StreamClient::readnext`] for linearizable semantics;
//! [`StreamClient::multiappend`] appends one entry to several streams
//! atomically (it occupies a single log position).

mod cache;
mod client;
mod cursor;

pub use cache::EntryCache;
pub use client::StreamClient;
pub use cursor::{Delivery, Run, StreamCursor};

pub use corfu::{Entry, LogOffset, StreamId};
