//! The one reconfiguration procedure (seal, change the projection, install)
//! under the two things that interrupt it: a reconfigurer that dies between
//! its seals and its install, and a twin running the same procedure while
//! a client keeps appending. Every scenario is a schedule on the simulated
//! transport, swept over seeds that delay and reorder its calls.

mod support;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use corfu::cluster::{ClusterConfig, SimCluster};
use corfu::proto::{SequencerRequest, SequencerResponse, StorageRequest, StorageResponse};
use corfu::reconfig::{
    bump_epoch, remap_stream, replace_sequencer_in_log, replace_storage_node, seal_log,
};
use corfu::{CorfuClient, CorfuError, Epoch, Result};
use support::history::{History, Recorded};

/// Jitter on every call, and now and then a call that arrives very late:
/// what makes one seed's interleaving differ from the next one's.
fn jittered(seed: u64, config: ClusterConfig) -> SimCluster {
    let cluster = SimCluster::simulated(seed, config);
    cluster.sim().delay_calls("", 5, Duration::from_millis(5));
    cluster.sim().delay_calls("", 25, Duration::from_micros(200));
    cluster
}

fn append(client: &Recorded, streams: &[u32], tag: &str, count: u32) {
    for i in 0..count {
        client.append_streams(streams, Bytes::from(format!("{tag}-{i}").into_bytes())).unwrap();
    }
}

/// A reconfigurer sealed log 0 — every storage node and the sequencer — at
/// `epoch + 1` and died before installing anything. `reconfigure` (run
/// afterwards, by someone else) must complete, and clients — one that saw
/// the old projection, one that did not — append again.
fn survives_an_orphaned_seal<R>(
    seed: u64,
    reconfigure: impl FnOnce(&SimCluster, &CorfuClient) -> Result<R>,
) {
    let cluster = jittered(seed, ClusterConfig::default());
    let history = History::new(cluster.sim().clock());
    let client = history.client("stale", cluster.client().unwrap());
    append(&client, &[7], "before", 10);

    for node in cluster.storage() {
        let sealed = node.process(StorageRequest::Seal { epoch: 1 });
        assert!(matches!(sealed, StorageResponse::Tail(_)), "{sealed:?}");
    }
    let sealed = cluster.sequencer().process(SequencerRequest::Seal { epoch: 1 });
    assert_eq!(sealed, SequencerResponse::Ok);
    assert_eq!(cluster.layout_client().get().unwrap().epoch, 0, "nothing installed");

    if let Err(e) = reconfigure(&cluster, &cluster.client().unwrap()) {
        panic!("the log is wedged at the orphaned epoch: {e}");
    }
    assert_eq!(cluster.layout_client().get().unwrap().epoch_of_log(0), 1);

    append(&client, &[7], "after-stale", 5);
    append(&history.client("fresh", cluster.client().unwrap()), &[7], "after-fresh", 5);
    history.judge(&cluster);
}

#[test]
fn seal_log_completes_a_seal_its_predecessor_left_uninstalled() {
    support::sweep!(seal_log_completes_a_seal_its_predecessor_left_uninstalled, |seed| {
        survives_an_orphaned_seal(seed, |_, client| seal_log(client, 0));
    });
}

#[test]
fn bump_epoch_completes_a_seal_its_predecessor_left_uninstalled() {
    support::sweep!(bump_epoch_completes_a_seal_its_predecessor_left_uninstalled, |seed| {
        survives_an_orphaned_seal(seed, |_, client| bump_epoch(client));
    });
}

#[test]
fn replace_sequencer_completes_a_seal_its_predecessor_left_uninstalled() {
    support::sweep!(replace_sequencer_completes_a_seal_its_predecessor_left_uninstalled, |seed| {
        survives_an_orphaned_seal(seed, |cluster, client| {
            cluster.kill_sequencer();
            let (new_seq, _server) = cluster.spawn_replacement_sequencer()?;
            let outcome = replace_sequencer_in_log(client, 0, new_seq, 4)?;
            assert_eq!(outcome.recovered_tail, 10, "the tail comes from the sealed nodes");
            Ok(())
        });
    });
}

/// What a twin runs; it reports the epoch of the projection it installed
/// (or converged on).
type Reconfigure = Arc<dyn Fn(&CorfuClient) -> Result<Epoch> + Send + Sync>;

/// Appends `count` entries, alternately to each of `streams`; a `patient`
/// appender retries each through whatever a reconfiguration in progress
/// makes it meet.
fn append_alternately(client: &Recorded, streams: [u32; 2], tag: &str, count: u32, patient: bool) {
    for i in 0..count {
        let stream = streams[i as usize % 2];
        let payload = Bytes::from(format!("{tag}-{i}").into_bytes());
        loop {
            match client.append_streams(&[stream], payload.clone()) {
                Ok(_) => break,
                Err(_) if patient => client.unrecorded().clock().sleep(Duration::from_millis(1)),
                Err(e) => panic!("append {tag}-{i}: {e}"),
            }
        }
    }
}

/// After `fail` breaks what they are there to repair, two reconfigurers run
/// `reconfigure` on their own threads while a third client appends to
/// `stream` and a companion stream through the race; the seed decides how
/// their calls interleave, down to one twin standing between its seals and
/// its install while the other runs from start to finish. One twin
/// completes; the other completes too (it proposed the very projection that
/// won, or — if the seed let it start after the first one's install — did
/// the work again on top) or learns it lost the race — never any other
/// error — and there is one install per epoch they completed at. The third
/// client's appends from before, during and after the race go to the
/// history's checker, which holds each stream's backpointers to its newest
/// acked entries: a twin's late step never rewinds or reorders what the
/// winner's install put to work.
fn twins_converge(
    cluster: &SimCluster,
    stream: u32,
    fail: impl FnOnce(),
    reconfigure: Reconfigure,
) {
    let sim = cluster.sim();
    let streams = [stream, stream + 1];
    let history = History::new(sim.clock());
    let third = history.client("third", cluster.client().unwrap());
    append_alternately(&third, streams, "before", 10, false);
    let epoch = cluster.layout_client().get().unwrap().epoch;
    fail();

    let twins: Vec<_> = (0..2)
        .map(|_| {
            let client = cluster.client().unwrap();
            let reconfigure = Arc::clone(&reconfigure);
            sim.spawn("twin", move || reconfigure(&client))
        })
        .collect();
    let appender = sim.spawn("appender", move || {
        append_alternately(&third, streams, "during", 10, true);
        third
    });
    let results: Vec<Result<Epoch>> = twins.into_iter().map(|twin| twin.join().unwrap()).collect();
    let third = appender.join().unwrap();

    assert!(results.iter().any(|r| r.is_ok()), "one twin must complete: {results:?}");
    for result in &results {
        assert!(
            matches!(result, Ok(_) | Err(CorfuError::RaceLost { .. })),
            "a twin either converges or learns it lost: {results:?}"
        );
    }
    let completed: BTreeSet<Epoch> = results.iter().flatten().copied().collect();
    assert_eq!(completed.first(), Some(&(epoch + 1)), "{results:?}");
    assert_eq!(
        cluster.layout_client().get().unwrap().epoch,
        epoch + completed.len() as Epoch,
        "one install per epoch the twins completed at: {results:?}"
    );

    append_alternately(&third, streams, "after", 10, false);
    history.judge(cluster);
}

#[test]
fn twin_seal_logs_converge() {
    support::sweep!(twin_seal_logs_converge, |seed| {
        let cluster = jittered(seed, ClusterConfig::default());
        let seal = |client: &CorfuClient| seal_log(client, 0).map(|(epoch, _)| epoch);
        twins_converge(&cluster, 7, || {}, Arc::new(seal));
    });
}

#[test]
fn twin_bump_epochs_converge() {
    support::sweep!(twin_bump_epochs_converge, |seed| {
        let cluster = jittered(seed, ClusterConfig::sharded(2));
        let bump = |client: &CorfuClient| bump_epoch(client).map(|(epoch, _)| epoch);
        twins_converge(&cluster, 7, || {}, Arc::new(bump));
    });
}

/// Both twins bootstrap the *same* replacement: the first twin's bootstrap
/// must not rewind a sequencer the second twin's install has put to work.
#[test]
fn twin_sequencer_replacements_converge() {
    support::sweep!(twin_sequencer_replacements_converge, |seed| {
        let cluster = jittered(seed, ClusterConfig::default());
        let (new_seq, _server) = cluster.spawn_replacement_sequencer().unwrap();
        twins_converge(
            &cluster,
            7,
            || cluster.kill_sequencer(),
            Arc::new(move |client: &CorfuClient| {
                let outcome = replace_sequencer_in_log(client, 0, new_seq.clone(), 4)?;
                Ok(outcome.projection.epoch)
            }),
        );
    });
}

#[test]
fn twin_storage_replacements_converge() {
    support::sweep!(twin_storage_replacements_converge, |seed| {
        let cluster = jittered(seed, ClusterConfig::default());
        let (replacement, _server) = cluster.spawn_replacement_storage().unwrap();
        twins_converge(
            &cluster,
            7,
            || cluster.kill_storage_node(0),
            Arc::new(move |client: &CorfuClient| {
                Ok(replace_storage_node(client, 0, replacement.clone())?.projection.epoch)
            }),
        );
    });
}

/// One remap twin's `AdoptStream` can reach the target sequencer after the
/// other twin's install and after appends to the stream there: it must not
/// merge the old window back in as the newest.
fn twin_remaps(seed: u64) {
    let cluster = jittered(seed, ClusterConfig::sharded(2));
    let proj = cluster.layout_client().get().unwrap();
    let stream = (1..).find(|&s| proj.log_of_stream(s) == 0).unwrap();
    twins_converge(
        &cluster,
        stream,
        || {},
        Arc::new(move |client: &CorfuClient| Ok(remap_stream(client, stream, 1)?.epoch)),
    );
    assert_eq!(cluster.layout_client().get().unwrap().log_of_stream(stream), 1);
}

#[test]
fn twin_remaps_converge() {
    support::sweep!(twin_remaps_converge, twin_remaps);
}

/// The seed on which an append that met the remap's seal retried its token
/// in the stream's old log — at that log's new epoch, outside the window
/// the remap had handed over — before a retry went back to routing.
#[test]
fn an_append_racing_a_remap_takes_its_token_in_the_new_log() {
    twin_remaps(0xcf59_81d7_1d6d_0236);
}

/// The seed on which a late `AdoptStream` reordered the stream's window
/// before a second adopt into an epoch became a no-op.
#[test]
fn a_late_twin_adopt_leaves_the_window_alone() {
    twin_remaps(0xcf59_81d7_1d6d_0239);
}
