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

/// A started RPC: what [`ClientConn::start`] hands out and
/// [`ClientConn::finish`] redeems. Dropping it unfinished abandons the call
/// the way a timeout does: a response that still arrives is discarded.
pub struct Ticket(pub(crate) TicketKind);

pub(crate) enum TicketKind {
    /// `start` ran the whole call; the outcome waits here.
    Called(Result<Vec<u8>>),
    /// The request is on a [`TcpConn`](crate::TcpConn)'s socket.
    Tcp(crate::tcp::Started),
    /// A transport outside this crate numbered the call.
    Numbered(u64),
}

impl Ticket {
    /// A ticket for call `id` of a transport that keeps its own table of
    /// calls in flight.
    pub fn numbered(id: u64) -> Self {
        Self(TicketKind::Numbered(id))
    }

    /// The number [`Ticket::numbered`] gave this ticket, if it has one.
    pub fn number(&self) -> Option<u64> {
        match self.0 {
            TicketKind::Numbered(id) => Some(id),
            _ => None,
        }
    }
}

/// The client side of a service: a blocking request/response call, which a
/// caller may also take in its two halves to have several in flight from
/// one thread — `start` them all, then `finish` each.
///
/// Implementations are shared across threads; concurrent calls on one
/// connection are allowed and (for the TCP transport) pipelined over a
/// single socket.
pub trait ClientConn: Send + Sync {
    /// Sends `request` and waits for the response.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>>;

    /// Issues `request` without waiting for its response. The default runs
    /// the whole [`call`](ClientConn::call), so a connection that implements
    /// only that — every wrapper and the in-process transport — is correct,
    /// just not concurrent.
    fn start(&self, request: &[u8]) -> Ticket {
        Ticket(TicketKind::Called(self.call(request)))
    }

    /// Waits for the response to a call this connection started.
    fn finish(&self, ticket: Ticket) -> Result<Vec<u8>> {
        match ticket.0 {
            TicketKind::Called(outcome) => outcome,
            TicketKind::Tcp(_) | TicketKind::Numbered(_) => Err(crate::RpcError::Io(
                "ticket finished on a connection that did not start it".into(),
            )),
        }
    }
}
