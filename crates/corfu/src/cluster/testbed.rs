//! The resources a [`super::Sim`] built with [`super::Sim::on_testbed`]
//! charges a call for: the paper's testbed (§6: "36 8-core machines in two
//! racks, with gigabit NICs on each node and 20 Gbps between the
//! top-of-rack switches"; 18 storage nodes with Intel X25-V SSDs; a 32-core
//! sequencer machine), which we do not have.
//!
//! A call leaves its machine's NIC, crosses the rack latency, enters the
//! node's NIC, waits in the node's FIFO service queue, and its reply goes
//! back the same way. Each NIC serializes the real frame's bytes at its
//! bandwidth; the service time depends on what the call is and on the pages
//! it carries.

use super::sim::SimTime;
use crate::proto::StorageResponse;
use crate::Page;

/// One microsecond of virtual time.
pub const US: SimTime = 1_000;

/// The testbed's calibration: every value derives from the paper's own
/// component numbers, none from a figure it should reproduce (EXPERIMENTS.md
/// has the derivation).
#[derive(Debug, Clone)]
pub struct Testbed {
    /// One-way latency within a rack.
    pub same_rack: SimTime,
    /// One-way latency across the top-of-rack switches.
    pub cross_rack: SimTime,
    /// NIC bandwidth of client and storage machines, bytes/s.
    pub nic: u64,
    /// NIC bandwidth of the sequencer's machine, bytes/s.
    pub sequencer_nic: u64,
    /// Service time of one sequencer call: Figure 2's plateau at ≈ 570 K
    /// tokens/s.
    pub seq_service: SimTime,
    /// Storage service time per page read: ≈ 60 K 4 KB reads/s a node,
    /// recent pages coming from the SSD's cache.
    pub page_read: SimTime,
    /// Storage service time per page written: ≈ 12.5 K 4 KB writes/s a
    /// node (two X25-Vs, a write-once pattern).
    pub page_write: SimTime,
}

impl Testbed {
    /// The paper's testbed.
    pub fn paper() -> Self {
        Self {
            same_rack: 40 * US,
            cross_rack: 55 * US,
            nic: 125_000_000,
            sequencer_nic: 1_250_000_000,
            seq_service: 1_750,
            page_read: 17 * US,
            page_write: 80 * US,
        }
    }

    /// A machine serving `label`: the sequencer's (and a timestamp
    /// oracle's) is the fast one in rack 0; a storage node sits in the rack
    /// of its position in a chain of two (ids count along the chains).
    pub(super) fn server(&self, label: &str) -> Machine {
        let (kind, id) = label.split_once('-').unwrap_or((label, ""));
        match kind {
            "sequencer" | "oracle" => Machine::new(0, self.sequencer_nic),
            _ => Machine::new(id.parse::<u64>().map_or(0, |id| (id % 2) as u8), self.nic),
        }
    }

    /// What node `label` spends serving a call to `point` that it answered
    /// with `response`, and whether that is a storage read: a flash node's
    /// reads and writes queue apart, its read path being far faster.
    pub(super) fn service(&self, label: &str, point: &str, response: &[u8]) -> (SimTime, bool) {
        match label.split_once('-').map_or(label, |(kind, _)| kind) {
            "sequencer" | "oracle" => (self.seq_service, false),
            "storage" if point == "storage.write" => (self.page_write, false),
            "storage" if point.starts_with("storage.read") => {
                (self.page_read * pages(response), true)
            }
            _ => (0, false),
        }
    }

    /// The one-way latency between two racks.
    fn latency(&self, a: u8, b: u8) -> SimTime {
        if a == b {
            self.same_rack
        } else {
            self.cross_rack
        }
    }

    /// Moves `bytes` from machine `from` to machine `to`, leaving `from` no
    /// earlier than `at`; returns when the last byte is in.
    pub(super) fn transfer(
        &self,
        machines: &mut [Machine],
        from: usize,
        to: usize,
        bytes: u64,
        at: SimTime,
    ) -> SimTime {
        let sent = machines[from].through(OUT, at, bytes);
        let arrival = sent + self.latency(machines[from].rack, machines[to].rack);
        machines[to].through(IN, arrival, bytes)
    }
}

/// The pages a storage reply carries: a read's data or junk page, or those
/// of a batch or a chase. Holes and errors carry none.
fn pages(response: &[u8]) -> u64 {
    let page = |page: &Page<bytes::Bytes>| matches!(page, Page::Data(_) | Page::Junk);
    match tango_wire::decode_from_slice::<StorageResponse>(response) {
        Ok(StorageResponse::Page(read)) => page(&read) as usize,
        Ok(StorageResponse::BatchOutcomes(outcomes)) => outcomes.iter().filter(|o| page(o)).count(),
        Ok(StorageResponse::Chased(pages)) => pages.iter().filter(|(_, o)| page(o)).count(),
        _ => 0,
    }
    .try_into()
    .unwrap_or(u64::MAX)
}

/// One machine: its rack, its NIC and its FIFO service queues (one for
/// storage reads, one for everything else).
#[derive(Debug, Clone)]
pub(super) struct Machine {
    rack: u8,
    /// NIC bandwidth both ways, bytes/s.
    bandwidth: u64,
    /// When the NIC's way out and way in are free.
    nic_free_at: [SimTime; 2],
    /// When the service queues (others, storage reads) are free.
    busy_until: [SimTime; 2],
}

const OUT: usize = 0;
const IN: usize = 1;

impl Machine {
    pub(super) fn new(rack: u8, bandwidth: u64) -> Self {
        Self { rack, bandwidth, nic_free_at: [0; 2], busy_until: [0; 2] }
    }

    /// Passes `bytes` one `way` through the NIC, no earlier than `at` and
    /// behind what it is already passing that way; returns when the last
    /// byte is through.
    fn through(&mut self, way: usize, at: SimTime, bytes: u64) -> SimTime {
        let serialization = bytes.saturating_mul(1_000_000_000) / self.bandwidth.max(1);
        self.nic_free_at[way] = self.nic_free_at[way].max(at) + serialization;
        self.nic_free_at[way]
    }

    /// Queues a job arriving at `at` that takes `service` (on the read
    /// queue if `read`); returns when it is done.
    pub(super) fn serve(&mut self, at: SimTime, (service, read): (SimTime, bool)) -> SimTime {
        let queue = &mut self.busy_until[read as usize];
        *queue = (*queue).max(at) + service;
        *queue
    }
}
