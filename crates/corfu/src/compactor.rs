//! The background compactor/scrub task attached to a storage node.
//!
//! Each pass calls [`StorageServer::compact_once`]: advance the prefix-trim
//! horizon over accumulated contiguous trim marks, migrate hot pages into
//! cold segments, and (every `scrub_every` passes) verify cold-tier CRCs.
//! The pass publishes `corfu.storage.{occupancy,reclaimed_pages,migrations,
//! scrub_errors}` and emits `segment_reclaimed`/`cold_migration`
//! flight-recorder events, so `tangoctl storage` sees the reclamation loop
//! working without touching the data path.
//!
//! The task is deliberately dumb — a fixed-interval loop over an
//! incremental pass — because all the policy lives below it: the unit
//! decides how far the horizon can advance, the tiered store decides what
//! migrates and which segments die. Dropping the [`Compactor`] handle (or
//! calling [`Compactor::stop`]) stops the thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tango_rpc::{Clock, Joiner};

use crate::storage::StorageServer;

/// Cadence and scrub policy for a storage node's background compactor.
#[derive(Debug, Clone)]
pub struct CompactorConfig {
    /// Time between compaction passes.
    pub interval: Duration,
    /// Run the CRC scrub every this many passes (0 disables scrubbing).
    pub scrub_every: u32,
}

impl Default for CompactorConfig {
    fn default() -> Self {
        Self { interval: Duration::from_millis(25), scrub_every: 40 }
    }
}

/// Handle to a running background compactor. Stops the thread on drop.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<Joiner>,
}

impl Compactor {
    /// Spawns a compactor over `server` with the given cadence, on the wall
    /// clock.
    pub fn spawn(server: Arc<StorageServer>, config: CompactorConfig) -> Self {
        Self::spawn_on(&Clock::real(), server, config)
    }

    /// [`Compactor::spawn`] on `clock`: the cadence is its time, and on a
    /// simulated transport's clock the thread is one the simulation
    /// schedules.
    pub fn spawn_on(clock: &Clock, server: Arc<StorageServer>, config: CompactorConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let sleeper = clock.clone();
        let handle = clock.spawn("corfu-compactor", move || {
            let mut pass: u32 = 0;
            while !stop_flag.load(Ordering::Relaxed) {
                pass = pass.wrapping_add(1);
                let scrub = config.scrub_every != 0 && pass.is_multiple_of(config.scrub_every);
                let _ = server.compact_once(scrub);
                // Sleep in small slices so stop() returns promptly even
                // with a long interval.
                let mut remaining = config.interval;
                while !remaining.is_zero() && !stop_flag.load(Ordering::Relaxed) {
                    let slice = remaining.min(Duration::from_millis(20));
                    sleeper.sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        Self { stop, handle: Some(handle) }
    }

    /// Stops the background thread and waits for it to exit. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{StorageRequest, StorageResponse, WriteKind};
    use bytes::Bytes;
    use tango_metrics::{EventKind, Registry};

    fn write(server: &StorageServer, addr: u64, payload: &'static [u8]) {
        let req = StorageRequest::Write {
            epoch: 0,
            addr,
            kind: WriteKind::Data,
            payload: Bytes::from_static(payload),
        };
        assert_eq!(server.process(req), StorageResponse::Ok);
    }

    #[test]
    fn compact_once_advances_horizon_over_trim_marks() {
        let registry = Registry::new();
        let server = StorageServer::in_memory(4096).with_metrics(&registry);
        for addr in 0..8 {
            write(&server, addr, b"x");
        }
        for addr in 0..5 {
            assert_eq!(
                server.process(StorageRequest::Trim { epoch: 0, addr }),
                StorageResponse::Ok
            );
        }
        let report = server.compact_once(true);
        assert_eq!(report.trim_horizon, 5);
        assert_eq!(report.occupancy, 3);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("corfu.storage.occupancy"), 3);
        assert_eq!(snap.gauge("corfu.storage.trim_horizon"), 5);
        assert_eq!(snap.counter("corfu.storage.random_trims"), 5);
        // The horizon advance converted the 5 marked slots into a
        // sequential prefix trim.
        assert_eq!(snap.counter("corfu.storage.prefix_trimmed_pages"), 5);
    }

    #[test]
    fn background_compactor_keeps_tiered_node_bounded() {
        let dir = std::env::temp_dir().join(format!("tango-compactor-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = tango_flash::TieredStore::open(&dir, 4096, 8, 4).unwrap();
        let unit = tango_flash::FlashUnit::open(Box::new(store), 4096).unwrap();
        let registry = Registry::new();
        let server = Arc::new(StorageServer::new(unit).with_metrics(&registry));
        let mut compactor = Compactor::spawn(
            Arc::clone(&server),
            CompactorConfig { interval: Duration::from_millis(1), scrub_every: 2 },
        );

        // Append/trim churn: write a window, prefix-trim behind it.
        for round in 0u64..10 {
            let base = round * 16;
            for addr in base..base + 16 {
                write(&server, addr, b"payload");
            }
            assert_eq!(
                server.process(StorageRequest::TrimPrefix { epoch: 0, horizon: base + 8 }),
                StorageResponse::Ok
            );
        }
        // Give the compactor a few passes to migrate and scrub.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let tier = server.tier_stats();
            if tier.hot_pages <= 4 && tier.reclaimed_segments > 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "compactor stalled: {tier:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        compactor.stop();

        let tier = server.tier_stats();
        assert!(tier.migrated_pages > 0);
        assert!(tier.reclaimed_segments > 0, "{tier:?}");
        let snap = registry.snapshot();
        assert!(snap.counter("corfu.storage.scrubbed_pages") > 0);
        assert_eq!(snap.counter("corfu.storage.scrub_errors"), 0);
        assert!(snap.counter("corfu.storage.reclaimed_pages") > 0);
        assert!(snap.counter("corfu.storage.migrations") > 0);
        let kinds: Vec<EventKind> = registry.events().records().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SegmentReclaimed), "{kinds:?}");
        assert!(kinds.contains(&EventKind::ColdMigration), "{kinds:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
