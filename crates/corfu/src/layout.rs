//! The layout (auxiliary) service: stores projections and arbitrates
//! reconfiguration races.
//!
//! The paper's CORFU delegates membership to an auxiliary. Here that is
//! the **metalog** (`tango-meta`): a replicated write-once log of
//! projection records where epoch *e* lives at metalog position *e* — the
//! CORFU discipline turned inward on its own metadata. The epoch CAS is a
//! write-once proposal at position `current + 1`, arbitrated by the
//! replicas exactly like a data-plane address, so concurrent
//! reconfigurations converge on the quorum winner. A single-node layout
//! service is the 1-replica metalog, not a second mechanism.
//!
//! [`LayoutClient`] is the typed face of that log: `get`/`propose` over
//! projections. Retry with bounded exponential backoff, replica failover
//! and discovery live in the [`MetaClient`] (counted on `meta.retries`).

use std::sync::Arc;

use bytes::Bytes;
use tango_meta::MetaClient;
use tango_wire::{decode_from_slice, encode_to_vec};

use crate::{CorfuError, Projection, Result};

/// Client stub for the layout service: projections over a metalog.
#[derive(Clone)]
pub struct LayoutClient {
    meta: Arc<MetaClient>,
}

impl LayoutClient {
    /// A client over a replicated metalog. Projections are stored at their
    /// epoch's metalog position; retry, failover, and discovery live in the
    /// [`MetaClient`].
    pub fn replicated(meta: Arc<MetaClient>) -> Self {
        Self { meta }
    }

    /// Fetches the current projection.
    pub fn get(&self) -> Result<Projection> {
        let (pos, record) = self.meta.latest()?;
        let p: Projection = decode_from_slice(&record)?;
        if p.epoch != pos {
            return Err(CorfuError::Layout(format!(
                "metalog position {pos} holds projection for epoch {}",
                p.epoch
            )));
        }
        Ok(p)
    }

    /// Proposes `p` (whose epoch must be current + 1). `Ok(None)` means it
    /// was installed; `Ok(Some(winner))` means a concurrent reconfiguration
    /// won — adopt the winner and carry on.
    pub fn propose(&self, p: Projection) -> Result<Option<Projection>> {
        // The epoch CAS, restated over a write-once log: epoch e's
        // projection is the record decided at position e, so "install at
        // current + 1" is a write-once proposal there.
        let current = self.get()?;
        if p.epoch != current.epoch + 1 {
            return Ok(Some(current));
        }
        match self.meta.propose_at(p.epoch, Bytes::from(encode_to_vec(&p)))? {
            None => Ok(None),
            Some(winner) => Ok(Some(decode_from_slice(&winner)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeInfo;
    use tango_meta::{MetaNode, ReplicaInfo};
    use tango_rpc::{ClientConn, LocalConn};

    fn proj(epoch: u64) -> Projection {
        Projection::single(
            epoch,
            vec![vec![0]],
            1,
            vec![NodeInfo { id: 0, addr: "s0".into() }, NodeInfo { id: 1, addr: "seq".into() }],
        )
    }

    fn layout_client() -> (Vec<Arc<MetaNode>>, LayoutClient) {
        let nodes: Vec<Arc<MetaNode>> = (0..3).map(|_| Arc::new(MetaNode::new())).collect();
        let replicas: Vec<ReplicaInfo> =
            (0..3).map(|i| ReplicaInfo { id: i, addr: format!("meta-{i}") }).collect();
        for node in &nodes {
            node.bootstrap(Bytes::from(encode_to_vec(&proj(0))));
            node.set_peers(replicas.clone());
        }
        let dial_nodes = nodes.clone();
        let meta = Arc::new(MetaClient::new(
            replicas,
            Arc::new(move |replica: &ReplicaInfo| -> Arc<dyn ClientConn> {
                Arc::new(LocalConn::new(dial_nodes[replica.id as usize].clone()))
            }),
        ));
        (nodes, LayoutClient::replicated(meta))
    }

    #[test]
    fn epoch_cas_installs_only_the_next_epoch() {
        let (_nodes, client) = layout_client();
        assert_eq!(client.get().unwrap().epoch, 0);
        assert_eq!(client.propose(proj(1)).unwrap(), None);
        assert_eq!(client.get().unwrap().epoch, 1);
        // Same epoch: conflict with the incumbent.
        assert_eq!(client.propose(proj(1)).unwrap().unwrap().epoch, 1);
        // Skipping ahead: conflict.
        assert_eq!(client.propose(proj(5)).unwrap().unwrap().epoch, 1);
        // Exactly +1: installed.
        assert_eq!(client.propose(proj(2)).unwrap(), None);
        assert_eq!(client.get().unwrap().epoch, 2);
    }

    #[test]
    fn propose_race_has_one_winner() {
        let (_nodes, client) = layout_client();
        let a = proj(1);
        let mut b = proj(1);
        b.logs[0].sequencer = 0;
        let ra = client.propose(a.clone()).unwrap();
        let rb = client.propose(b.clone()).unwrap();
        // The first proposal installed; the second observed it.
        assert_eq!(ra, None);
        assert_eq!(rb, Some(a.clone()));
        assert_eq!(client.get().unwrap(), a);
    }
}
