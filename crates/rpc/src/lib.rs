#![warn(missing_docs)]
//! Transport layer for the CORFU/Tango services.
//!
//! Tango runtimes on different machines never talk to each other; all
//! interaction flows through the shared log's services (sequencer, storage
//! nodes, layout). This crate provides the request/response plumbing those
//! services run over:
//!
//! * [`RpcHandler`] — the server side: a function from request bytes to
//!   response bytes.
//! * [`ClientConn`] — the client side: a blocking `call`, also available
//!   as its two halves, `start` (issue the request, get a [`Ticket`]) and
//!   `finish` (wait for that ticket's response), so one thread can have
//!   several requests in flight without a helper thread.
//! * [`LocalConn`] — in-process transport used by tests, examples, and the
//!   single-process cluster harness.
//! * [`TcpServer`] / [`TcpConn`] — a real socket transport: length-framed,
//!   CRC-checked messages over TCP. Frames carry a `u64` request id (see
//!   [`frame`]), so a single connection multiplexes many pipelined RPCs:
//!   the client matches responses to callers by id, and the server
//!   completes requests out of order on a fixed pool of threads that
//!   share one epoll set, so the thread budget stays constant from 1
//!   connection to 10K+. On both ends the thread that waits on the socket
//!   does the work — a pool thread reads the request, runs the handler
//!   and writes the response; a caller reads its own connection, routing
//!   other callers' responses while it holds the reader role — so an RPC
//!   costs two wake-ups and the client side owns no thread. Clients
//!   reconnect transparently with a dial bounded by the per-call timeout.
//!   Traced calls carry their `TraceContext` in the frame header.
//! * [`Clock`] — the time protocol timing runs on: the wall clock, or the
//!   [`Timeline`] of a simulated transport, reported where its connections
//!   are dialled.
//! * [`serve_snapshot`] / [`fetch_snapshot`] — the one reserved request
//!   ([`SNAPSHOT_REQUEST`]) a node answers with its metrics registry's
//!   binary snapshot, on the port its service listens on: a deployment is
//!   observable from outside the process without a second server.
//!
//! The framing is still deliberately minimal — request/response only, no
//! streaming — because CORFU's protocol needs nothing more.

mod clock;
mod error;
pub mod frame;
mod local;
mod reactor;
mod snapshot;
mod tcp;
mod traits;

pub use clock::{Clock, Joiner, Timeline};
pub use error::RpcError;
pub use local::LocalConn;
pub use snapshot::{fetch_snapshot, serve_snapshot, SNAPSHOT_REQUEST};
pub use tcp::{
    ConnMetrics, ServerMetrics, ServerOptions, TcpConn, TcpServer, DEFAULT_MAX_CONNS,
    SERVER_WORKERS,
};
pub use traits::{ClientConn, RpcHandler, Ticket};

/// Convenience alias for transport results.
pub type Result<T> = std::result::Result<T, RpcError>;
