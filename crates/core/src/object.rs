//! The Tango object model: state machines, apply upcalls, and views.

use std::sync::Arc;

use parking_lot::Mutex;
use tango_rpc::Clock;

use crate::record::TxId;
use crate::runtime::TangoRuntime;
use crate::{KeyHash, LogOffset, Oid, Result, TangoError};

/// Context passed to every [`StateMachine::apply`] upcall.
#[derive(Debug, Clone, Copy)]
pub struct ApplyMeta {
    /// The log position of the entry that carried this update. Objects may
    /// store it instead of the value, turning the view into an index over
    /// log-structured storage (§3.1 "Durability").
    pub offset: LogOffset,
    /// The object being updated.
    pub oid: Oid,
    /// The fine-grained key the mutator tagged this update with.
    pub key: Option<KeyHash>,
    /// The transaction that carried the update, if any.
    pub txid: Option<TxId>,
}

impl ApplyMeta {
    /// A placeholder meta for non-log applications (checkpoint restore,
    /// doc examples).
    pub fn synthetic() -> Self {
        Self { offset: 0, oid: 0, key: None, txid: None }
    }
}

/// The in-memory view of a Tango object (the paper's mandatory `apply`
/// upcall plus optional checkpoint support).
///
/// The view must be modified *only* through [`StateMachine::apply`], driven
/// by the runtime as it plays the shared history forward — never directly by
/// application threads (§3.1).
pub trait StateMachine: Send + 'static {
    /// Applies one update record to the view. `data` is the opaque buffer a
    /// mutator passed to [`ObjectView::update`].
    fn apply(&mut self, data: &[u8], meta: &ApplyMeta);

    /// Serializes the view for a checkpoint record. Returning `None`
    /// (the default) opts out of checkpointing.
    fn checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Reconstructs the view from checkpoint bytes. Objects that emit
    /// checkpoints must also restore them: the default returns
    /// [`TangoError::RestoreUnsupported`], and implementations should
    /// surface malformed bytes as [`TangoError::Codec`] rather than
    /// silently keeping a stale view.
    fn restore(&mut self, _data: &[u8]) -> Result<()> {
        Err(TangoError::RestoreUnsupported)
    }
}

/// Per-object registration options.
#[derive(Debug, Clone, Default)]
pub struct ObjectOptions {
    /// Mark the object as requiring decision records: set when some client
    /// may host this object without hosting the read sets of transactions
    /// that write it (§4.1 case C).
    pub needs_decision: bool,
}

/// A handle to a locally hosted Tango object: the typed state plus the
/// runtime that keeps it in sync with the shared log.
///
/// Cloning is cheap and shares the underlying view.
pub struct ObjectView<S> {
    runtime: Arc<TangoRuntime>,
    oid: Oid,
    state: Arc<Mutex<S>>,
}

impl<S> Clone for ObjectView<S> {
    fn clone(&self) -> Self {
        Self { runtime: Arc::clone(&self.runtime), oid: self.oid, state: Arc::clone(&self.state) }
    }
}

impl<S: StateMachine> ObjectView<S> {
    pub(crate) fn new(runtime: Arc<TangoRuntime>, oid: Oid, state: Arc<Mutex<S>>) -> Self {
        Self { runtime, oid, state }
    }

    /// The object's id (== its stream id).
    pub fn oid(&self) -> Oid {
        self.oid
    }

    /// The runtime this view is attached to.
    pub fn runtime(&self) -> &Arc<TangoRuntime> {
        &self.runtime
    }

    /// The paper's `update_helper`: coalesce the mutation into an opaque
    /// buffer and hand it to the runtime. Outside a transaction this
    /// appends to the object's stream immediately; inside one it buffers
    /// the write until `end_tx`.
    pub fn update(&self, key: Option<KeyHash>, data: Vec<u8>) -> Result<()> {
        self.runtime.update_helper(self.oid, key, data)
    }

    /// The paper's `query_helper` plus the accessor body: synchronize the
    /// view with the log tail (outside transactions), then compute an
    /// arbitrary function over the state. Inside a transaction this skips
    /// the sync and records `(oid, key, version)` in the read set instead.
    pub fn query<R>(&self, key: Option<KeyHash>, f: impl FnOnce(&S) -> R) -> Result<R> {
        self.runtime.query_helper(self.oid, key)?;
        Ok(f(&self.runtime.clock().lock(&self.state)))
    }

    /// Direct access to the shared state cell, bypassing the runtime.
    ///
    /// Intended ONLY for *local-only* bookkeeping that is not replicated
    /// state — e.g. registering watch callbacks that `apply` will fire.
    /// Replicated state must change exclusively through
    /// [`StateMachine::apply`]; mutating it here forks the view from the
    /// shared history.
    pub fn local_state(&self) -> &Arc<Mutex<S>> {
        &self.state
    }

    /// Reads the state without synchronizing with the log: a dirty read of
    /// whatever the view has applied so far. Still records the read when a
    /// transaction is active.
    pub fn query_dirty<R>(&self, key: Option<KeyHash>, f: impl FnOnce(&S) -> R) -> Result<R> {
        self.runtime.record_tx_read_if_active(self.oid, key)?;
        Ok(f(&self.runtime.clock().lock(&self.state)))
    }
}

/// Type-erased hook the runtime drives during playback.
pub(crate) trait ApplySink: Send {
    fn apply(&self, data: &[u8], meta: &ApplyMeta);
    fn checkpoint(&self) -> Option<Vec<u8>>;
}

/// An apply may sleep on the clock (a simulated CPU cost), so the state is
/// taken through it.
pub(crate) struct SinkFor<S: StateMachine> {
    pub state: Arc<Mutex<S>>,
    pub clock: Clock,
}

impl<S: StateMachine> ApplySink for SinkFor<S> {
    fn apply(&self, data: &[u8], meta: &ApplyMeta) {
        self.clock.lock(&self.state).apply(data, meta);
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.clock.lock(&self.state).checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoRestore;

    impl StateMachine for NoRestore {
        fn apply(&mut self, _data: &[u8], _meta: &ApplyMeta) {}

        fn checkpoint(&self) -> Option<Vec<u8>> {
            Some(vec![1, 2, 3])
        }
    }

    #[test]
    fn default_restore_is_a_typed_error_not_a_panic() {
        let mut obj = NoRestore;
        assert_eq!(obj.restore(&[1, 2, 3]), Err(TangoError::RestoreUnsupported));
    }
}
