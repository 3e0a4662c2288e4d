use crate::Result;

/// The server side of a service: turns request bytes into response bytes.
///
/// Handlers must be safe to invoke concurrently: a TCP server calls `handle`
/// from every thread of its pool, so several requests — from the *same*
/// connection too — may be in `handle` simultaneously and complete out of
/// order.
pub trait RpcHandler: Send + Sync {
    /// Processes one request and produces its response.
    fn handle(&self, request: &[u8]) -> Vec<u8>;
}

impl<F> RpcHandler for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// The client side of a service: a blocking request/response call.
///
/// Implementations are shared across threads; concurrent `call`s on one
/// connection are allowed and (for the TCP transport) pipelined over a
/// single socket.
pub trait ClientConn: Send + Sync {
    /// Sends `request` and waits for the response.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>>;
}
