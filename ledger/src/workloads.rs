//! The five workloads. Each `round_*` function sets up a fresh cluster, runs
//! a fixed number of operations in a closed loop (the next operation is
//! issued only when the previous one returned — Tango clients are
//! application servers calling a blocking library), checks the outputs, and
//! tears the cluster down. There is one load thread: the whole process is
//! pinned to one CPU, so a second one would only add the scheduler's choice
//! of who runs next to every latency. Where a workload needs two clients
//! (each playing back the other's writes) the thread runs one operation of
//! each in turn. A round holds the same number of operations
//! on every commit, so counts, bytes and resident memory compare exactly;
//! how many rounds fit into `--seconds` is what varies with speed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::os::cpu_ns;
use crate::stats::{self, Block, Mark, OpSample};
use crate::sut::{
    Appender, ClientCounts, Cluster, FlashTotals, HandlerTimers, HandlerTimes, MapNode, Res,
    SplitMix64, Zipf, PAYLOAD_LEN,
};
use crate::trace::{now_ns, Probe, Span};

/// Share of a round's operations run before the clock starts (on top of
/// the measured ones), so caches, connections and lazy set-up are warm.
const WARMUP_SHARE: f64 = 0.10;
/// A round is given up after this many failed operations rather than
/// ground through timeouts.
const MAX_FAILURES: u64 = 100;

/// Map workloads: key count, zipf skew, value every key starts with.
const MAP_KEYS: u64 = 10_000;
const ZIPF_THETA: f64 = 0.99;
const TX_INITIAL: i64 = 1_000;
/// Bytes a user submits per map write: a u64 key and an i64 value.
const KV_BYTES: u64 = 16;

/// Catch-up: distinct keys the writers overwrite, and the tiered store's
/// geometry (cold segment size, RAM pages per node). The log is ~20x the
/// hot tier at scale 1.
const CATCHUP_KEYS: u64 = 2_000;
const CATCHUP_SEGMENT_PAGES: u64 = 64;
const CATCHUP_HOT_PAGES: usize = 128;
const CATCHUP_COLD_SHARE: f64 = 0.90;

/// Measured operations per client per round at scale 1, sized so a round's
/// timed phase takes 0.3-3 s on the reference box.
fn round_ops(workload: &str) -> usize {
    match workload {
        "append_tcp" => 16_000,
        "append_local" => 100_000,
        "tx_mix_tcp" => 5_000,
        "read_mostly_tcp" => 20_000,
        "catchup_tcp" => 120,
        other => unreachable!("unknown workload {other}"),
    }
}

/// Entries each of the two catch-up writers appends in set-up at scale 1.
const CATCHUP_ENTRIES: usize = 2_560;

/// What a round is asked to do.
pub struct Ctx<'a> {
    pub workload: &'a str,
    pub seed: u64,
    /// Index of the round within the run; mixed into every generator seed.
    pub round: u64,
    pub scale: f64,
    pub traced: bool,
    /// Keep every operation's sample in the [`Round`] (the per-layer metrics
    /// of a `--trace 1` run read them); otherwise only the blocks survive
    /// the round, so that a run's memory does not grow with its rounds.
    pub keep_samples: bool,
    pub scratch: &'a Path,
}

impl Ctx<'_> {
    fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(1)
    }

    fn ops(&self) -> usize {
        // Catch-up replays are few and long: never fewer than 2 per round.
        self.scaled(round_ops(self.workload)).max(2)
    }

    /// Operations per block of the timed phase, `loads` clients taking
    /// turns: an eighth of the round, but at least 20 (so that a block's
    /// 95th percentile is not its slowest operation) unless the whole round
    /// is shorter.
    fn block_len(&self, loads: usize) -> usize {
        let round = self.ops() * loads;
        (round / 8).max(20).min(round)
    }

    fn warmup(&self) -> usize {
        ((self.ops() as f64 * WARMUP_SHARE).round() as usize).max(1)
    }

    /// A generator seed for `client` in this round.
    fn seed_for(&self, client: u64) -> u64 {
        SplitMix64::new(self.seed).next_u64() ^ (self.round << 32) ^ (client << 24)
    }

    fn probe(&self, client: u64, spans_per_op: usize) -> Option<Arc<Probe>> {
        let capacity = (self.ops() + self.warmup()) * spans_per_op;
        // Span ids must stay unique across the rounds of a run.
        self.traced.then(|| Arc::new(Probe::new(self.round * 16 + client, capacity)))
    }
}

/// Everything one round measured.
pub struct Round {
    pub setup_s: f64,
    /// Length of the timed phase: clock start to last completion.
    pub timed_s: f64,
    /// Operations completed in the timed phase.
    pub completed: u64,
    /// The timed phase cut into blocks of [`Ctx::block_len`] operations.
    pub blocks: Vec<Block>,
    /// The timed operations in completion order; empty unless
    /// [`Ctx::keep_samples`].
    pub ops: Vec<OpSample>,
    pub kinds: &'static [&'static str],
    /// Work units per operation: 1, except catch-up, where an operation is
    /// a whole replay and the unit is one applied log entry.
    pub units_per_op: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Whole-round totals, set-up included: they are a ratio's two halves.
    pub user_bytes: u64,
    pub stored_bytes: u64,
    /// Timed-phase deltas.
    pub flash: FlashTotals,
    pub client: ClientCounts,
    pub tx_attempts: u64,
    pub tx_aborts: u64,
    pub cold_share: f64,
    pub spans: Vec<Span>,
    /// In-process handler durations of the timed phase (traced `append_local`).
    pub handler_ns: Option<HandlerTimes>,
}

impl Round {
    pub fn units(&self) -> u64 {
        self.completed * self.units_per_op
    }
}

pub fn run_round(ctx: &Ctx) -> Res<Round> {
    match ctx.workload {
        "append_tcp" => round_append(ctx, Cluster::tcp()?),
        "append_local" => round_append(ctx, Cluster::local()),
        "tx_mix_tcp" => round_tx_mix(ctx),
        "read_mostly_tcp" => round_read_mostly(ctx),
        "catchup_tcp" => round_catchup(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

// ---------------------------------------------------------------------------
// The closed-loop driver
// ---------------------------------------------------------------------------

/// One client's load: generates its next operation (untimed) and runs it
/// (timed). The generator sees only the seed; the system sees only the
/// generated inputs.
trait Load {
    type Op;
    /// The next operation and its kind (index into the round's kind names).
    fn next_op(&mut self) -> (u8, Self::Op);
    fn run(&mut self, op: Self::Op) -> Res<()>;
    fn probe(&self) -> Option<&Arc<Probe>>;
    /// Payload bytes this client has submitted so far.
    fn user_bytes(&self) -> u64;
    /// Transaction (attempts, aborts) so far.
    fn tx_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// Runs `loads` to completion on the calling thread, one operation of each
/// in turn, and fills in a [`Round`]. `setup_started` is when the caller
/// began building the cluster, `setup_bytes` the payload bytes it submitted
/// while doing so. The caller's checks run afterwards; they only read, so
/// the byte totals taken here stay whole-round totals.
fn drive<L: Load>(
    cluster: &Cluster,
    setup_started: Instant,
    mut loads: Vec<L>,
    kinds: &'static [&'static str],
    ctx: &Ctx,
    handlers: Option<HandlerTimers>,
    setup_bytes: u64,
) -> Res<(Vec<L>, Round)> {
    let (warmup, ops) = (ctx.warmup(), ctx.ops());
    for _ in 0..warmup {
        for load in &mut loads {
            let (_, op) = load.next_op();
            load.run(op).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    // Warm-up is over: everything up to here is set-up.
    let setup_s = setup_started.elapsed().as_secs_f64();
    let probes: Vec<Arc<Probe>> = loads.iter().filter_map(|l| l.probe().cloned()).collect();
    for probe in &probes {
        probe.take();
    }
    if let Some(timers) = &handlers {
        timers.take();
    }
    let tx_base: Vec<(u64, u64)> = loads.iter().map(|l| l.tx_counts()).collect();
    let (flash0, client0) = (cluster.flash_totals(), cluster.client_counts());
    let block_len = ctx.block_len(loads.len());
    let mut marks = vec![Mark { ops: 0, at_ns: now_ns(), cpu_ns: cpu_ns() }];

    let mut samples = Vec::with_capacity(ops * loads.len());
    let (mut attempted, mut failed) = (0, 0);
    let mut first_error = None;
    'timed: for _ in 0..ops {
        for load in &mut loads {
            let (kind, op) = load.next_op();
            attempted += 1;
            let start = now_ns();
            let span = load.probe().map(|p| p.open(kinds[kind as usize]));
            let result = load.run(op);
            if let (Some(p), Some(span)) = (load.probe(), span) {
                p.close(span);
            }
            let end = now_ns();
            match result {
                Ok(()) => {
                    samples.push(OpSample { end_ns: end, lat_ns: end - start, kind });
                    if samples.len() % block_len == 0 {
                        marks.push(Mark { ops: samples.len(), at_ns: end, cpu_ns: cpu_ns() });
                    }
                }
                Err(e) => {
                    failed += 1;
                    first_error.get_or_insert(e);
                    if failed >= MAX_FAILURES {
                        break 'timed;
                    }
                }
            }
        }
    }
    let (flash1, client1) = (cluster.flash_totals(), cluster.client_counts());
    if let Some(e) = &first_error {
        eprintln!("ledger: operation failed: {e}");
    }
    if marks.len() < 2 {
        let why = first_error.unwrap_or_else(|| "no operations ran".into());
        return Err(format!(
            "the load completed {} operations, not one block: {why}",
            samples.len()
        ));
    }

    let tx = |pick: fn((u64, u64)) -> u64| -> u64 {
        loads.iter().zip(&tx_base).map(|(l, base)| pick(l.tx_counts()) - pick(*base)).sum()
    };
    let round = Round {
        setup_s,
        timed_s: samples.last().map_or(0, |o| o.end_ns - marks[0].at_ns) as f64 / 1e9,
        completed: samples.len() as u64,
        blocks: stats::blocks(&samples, &marks),
        kinds,
        units_per_op: 1,
        attempted,
        failed,
        user_bytes: setup_bytes + loads.iter().map(|l| l.user_bytes()).sum::<u64>(),
        stored_bytes: flash1.bytes_written,
        flash: FlashTotals {
            pages_written: flash1.pages_written - flash0.pages_written,
            bytes_written: flash1.bytes_written - flash0.bytes_written,
            reads: flash1.reads - flash0.reads,
            hot_pages: flash0.hot_pages,
            cold_pages: flash0.cold_pages,
        },
        client: ClientCounts {
            hole_polls: client1.hole_polls - client0.hole_polls,
            read_batches: client1.read_batches - client0.read_batches,
            read_batch_entries: client1.read_batch_entries - client0.read_batch_entries,
            cache_hits: client1.cache_hits - client0.cache_hits,
            cache_misses: client1.cache_misses - client0.cache_misses,
        },
        tx_attempts: tx(|t| t.0),
        tx_aborts: tx(|t| t.1),
        cold_share: flash0.cold_pages as f64 / (flash0.hot_pages + flash0.cold_pages).max(1) as f64,
        spans: probes.iter().flat_map(|p| p.take()).collect(),
        handler_ns: handlers.map(|timers| timers.take()),
        ops: if ctx.keep_samples { samples } else { Vec::new() },
    };
    Ok((loads, round))
}

// ---------------------------------------------------------------------------
// append_tcp / append_local
// ---------------------------------------------------------------------------

/// The 512 payload bytes of append number `index`: a pure function of the
/// seed, so the read-back check can regenerate them.
pub fn append_payload(seed: u64, index: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut payload = Vec::with_capacity(PAYLOAD_LEN);
    while payload.len() < PAYLOAD_LEN {
        payload.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    payload
}

struct AppendLoad {
    appender: Appender,
    stream: u32,
    seed: u64,
    next: u64,
    /// (append index, offset the log returned).
    written: Vec<(u64, u64)>,
    probe: Option<Arc<Probe>>,
}

impl Load for AppendLoad {
    type Op = (u64, Vec<u8>);

    fn next_op(&mut self) -> (u8, Self::Op) {
        let index = self.next;
        self.next += 1;
        (0, (index, append_payload(self.seed, index)))
    }

    fn run(&mut self, (index, payload): Self::Op) -> Res<()> {
        let offset = self.appender.append(self.stream, payload)?;
        self.written.push((index, offset));
        Ok(())
    }

    fn probe(&self) -> Option<&Arc<Probe>> {
        self.probe.as_ref()
    }

    fn user_bytes(&self) -> u64 {
        (self.written.len() * PAYLOAD_LEN) as u64
    }
}

fn round_append(ctx: &Ctx, cluster: Cluster) -> Res<Round> {
    let setup_started = Instant::now();
    let handlers = if ctx.traced { cluster.time_handlers() } else { None };
    let probe = ctx.probe(0, 4);
    let loads = vec![AppendLoad {
        appender: Appender::new(cluster.client(probe.as_ref())?),
        stream: 1,
        seed: ctx.seed_for(0),
        next: 0,
        written: Vec::with_capacity(ctx.ops() + ctx.warmup()),
        probe,
    }];
    let (loads, round) = drive(&cluster, setup_started, loads, &["append"], ctx, handlers, 0)?;

    // Check: every returned offset is unique, and a seeded 1 % sample reads
    // back byte-equal.
    let mut offsets: Vec<u64> = loads.iter().flat_map(|l| l.written.iter().map(|w| w.1)).collect();
    let total = offsets.len();
    offsets.sort_unstable();
    offsets.dedup();
    if offsets.len() != total {
        return Err(format!("{} appends shared an offset", total - offsets.len()));
    }
    for load in &loads {
        let first = SplitMix64::new(load.seed).gen_range(100) as usize;
        for &(index, offset) in load.written.iter().skip(first).step_by(100) {
            if load.appender.read_back(offset)? != append_payload(load.seed, index) {
                return Err(format!("append {index} read back different bytes at offset {offset}"));
            }
        }
    }
    Ok(round)
}

// ---------------------------------------------------------------------------
// tx_mix_tcp
// ---------------------------------------------------------------------------

/// Three distinct zipf-distributed keys per transaction.
pub struct TxGen {
    rng: SplitMix64,
    zipf: Zipf,
}

impl TxGen {
    pub fn new(seed: u64) -> Self {
        Self { rng: SplitMix64::new(seed), zipf: Zipf::new(MAP_KEYS, ZIPF_THETA) }
    }

    pub fn next(&mut self) -> [u64; 3] {
        let a = self.zipf.sample(&mut self.rng);
        let mut b = self.zipf.sample(&mut self.rng);
        while b == a {
            b = self.zipf.sample(&mut self.rng);
        }
        let mut c = self.zipf.sample(&mut self.rng);
        while c == a || c == b {
            c = self.zipf.sample(&mut self.rng);
        }
        [a, b, c]
    }
}

struct TxLoad {
    node: MapNode,
    gen: TxGen,
    attempts: u64,
    aborts: u64,
    commits: u64,
    probe: Option<Arc<Probe>>,
}

impl TxLoad {
    /// One attempt: read the three balances, move 2 units from the first to
    /// the other two. `Ok(false)` is an abort on conflict.
    fn attempt(&self, keys: [u64; 3]) -> Res<bool> {
        let exec = self.probe.as_ref().map(|p| p.open("tx.exec"));
        self.node.begin()?;
        let body = (|| {
            let mut balance = [0i64; 3];
            for (slot, key) in balance.iter_mut().zip(keys) {
                *slot = self.node.get(key)?.ok_or_else(|| format!("key {key} missing"))?;
            }
            self.node.put(keys[0], balance[0] - 2)?;
            self.node.put(keys[1], balance[1] + 1)?;
            self.node.put(keys[2], balance[2] + 1)
        })();
        if let (Some(p), Some(span)) = (&self.probe, exec) {
            p.close(span);
        }
        if let Err(e) = body {
            self.node.abandon();
            return Err(e);
        }
        let commit = self.probe.as_ref().map(|p| p.open("tx.commit"));
        let outcome = self.node.commit();
        if let (Some(p), Some(span)) = (&self.probe, commit) {
            p.close(span);
        }
        outcome
    }
}

impl Load for TxLoad {
    type Op = [u64; 3];

    fn next_op(&mut self) -> (u8, Self::Op) {
        (0, self.gen.next())
    }

    /// Retries until the transaction commits; the operation's latency
    /// includes the aborted attempts.
    fn run(&mut self, keys: Self::Op) -> Res<()> {
        for _ in 0..1_000 {
            self.attempts += 1;
            if self.attempt(keys)? {
                self.commits += 1;
                return Ok(());
            }
            self.aborts += 1;
        }
        Err(format!("transaction on {keys:?} aborted 1000 times"))
    }

    fn probe(&self) -> Option<&Arc<Probe>> {
        self.probe.as_ref()
    }

    fn user_bytes(&self) -> u64 {
        self.commits * 3 * KV_BYTES
    }

    fn tx_counts(&self) -> (u64, u64) {
        (self.attempts, self.aborts)
    }
}

/// Payload bytes [`prefill`] submits.
const PREFILL_BYTES: u64 = MAP_KEYS * KV_BYTES;

/// Fills keys `0..MAP_KEYS` with `value` in write-only transactions of 50
/// puts (one log entry each).
fn prefill(node: &MapNode, value: i64) -> Res<()> {
    for chunk in 0..MAP_KEYS / 50 {
        node.begin()?;
        for key in chunk * 50..(chunk + 1) * 50 {
            node.put(key, value)?;
        }
        if !node.commit()? {
            return Err("write-only prefill transaction aborted".into());
        }
    }
    Ok(())
}

/// Two map nodes on one TCP cluster, the map prefilled by the first.
fn map_nodes(ctx: &Ctx, cluster: &Cluster, value: i64) -> Res<Vec<(MapNode, Option<Arc<Probe>>)>> {
    let mut nodes = Vec::new();
    for client in 0..2 {
        let probe = ctx.probe(client, 16);
        nodes.push((MapNode::open(cluster.client(probe.as_ref())?, "ledger-map")?, probe));
    }
    prefill(&nodes[0].0, value)?;
    // Reads inside a transaction do not sync; one linearizable read brings
    // every node's view up to the prefilled state before its first one.
    for (node, _) in &nodes {
        node.get(0)?;
    }
    Ok(nodes)
}

fn round_tx_mix(ctx: &Ctx) -> Res<Round> {
    let setup_started = Instant::now();
    let cluster = Cluster::tcp()?;
    let nodes = map_nodes(ctx, &cluster, TX_INITIAL)?;
    let loads = nodes
        .into_iter()
        .zip(0..)
        .map(|((node, probe), client)| TxLoad {
            node,
            gen: TxGen::new(ctx.seed_for(client)),
            attempts: 0,
            aborts: 0,
            commits: 0,
            probe,
        })
        .collect();
    let (_, round) = drive(&cluster, setup_started, loads, &["tx"], ctx, None, PREFILL_BYTES)?;

    // Check: transfers conserve the total, as seen by a runtime that took
    // no part in them.
    let fresh = MapNode::open(cluster.client(None)?, "ledger-map")?.snapshot()?;
    let total: i64 = fresh.iter().map(|(_, v)| v).sum();
    if fresh.len() as u64 != MAP_KEYS || total != MAP_KEYS as i64 * TX_INITIAL {
        return Err(format!(
            "{} keys sum to {total}, not {}",
            fresh.len(),
            MAP_KEYS as i64 * TX_INITIAL
        ));
    }
    Ok(round)
}

// ---------------------------------------------------------------------------
// read_mostly_tcp
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    Get(u64),
    Put(u64, i64),
}

/// 90 % gets on any key, 10 % puts on a key this client owns (key ≡ client
/// mod clients) with a value that only grows — so every key has one writer
/// writing increasing values, and "never goes backwards" is checkable.
pub struct MixGen {
    rng: SplitMix64,
    zipf: Zipf,
    client: u64,
    clients: u64,
    next_value: i64,
}

impl MixGen {
    pub fn new(seed: u64, client: u64, clients: u64) -> Self {
        let zipf = Zipf::new(MAP_KEYS, ZIPF_THETA);
        Self { rng: SplitMix64::new(seed), zipf, client, clients, next_value: 0 }
    }

    pub fn next(&mut self) -> MixOp {
        let key = self.zipf.sample(&mut self.rng);
        if self.rng.gen_f64() < 0.10 {
            self.next_value += 1;
            MixOp::Put(key - key % self.clients + self.client, self.next_value)
        } else {
            MixOp::Get(key)
        }
    }
}

struct MixLoad {
    node: MapNode,
    gen: MixGen,
    /// Per key: the largest value this client has observed or written.
    seen: Vec<i64>,
    /// Per key: the last value this client wrote (0: never).
    wrote: Vec<i64>,
    puts: u64,
    went_backwards: u64,
    probe: Option<Arc<Probe>>,
}

impl Load for MixLoad {
    type Op = MixOp;

    fn next_op(&mut self) -> (u8, Self::Op) {
        let op = self.gen.next();
        (matches!(op, MixOp::Put(..)) as u8, op)
    }

    fn run(&mut self, op: Self::Op) -> Res<()> {
        match op {
            MixOp::Get(key) => {
                let value = self.node.get(key)?.ok_or_else(|| format!("key {key} missing"))?;
                let seen = &mut self.seen[key as usize];
                if value < *seen {
                    self.went_backwards += 1;
                    return Err(format!("key {key} went from {seen} back to {value}"));
                }
                *seen = value;
            }
            MixOp::Put(key, value) => {
                self.node.put(key, value)?;
                self.puts += 1;
                self.wrote[key as usize] = value;
                self.seen[key as usize] = value;
            }
        }
        Ok(())
    }

    fn probe(&self) -> Option<&Arc<Probe>> {
        self.probe.as_ref()
    }

    fn user_bytes(&self) -> u64 {
        self.puts * KV_BYTES
    }
}

fn round_read_mostly(ctx: &Ctx) -> Res<Round> {
    let setup_started = Instant::now();
    let cluster = Cluster::tcp()?;
    let nodes = map_nodes(ctx, &cluster, 0)?;
    let loads = nodes
        .into_iter()
        .zip(0..)
        .map(|((node, probe), client)| MixLoad {
            node,
            gen: MixGen::new(ctx.seed_for(client), client, 2),
            seen: vec![0; MAP_KEYS as usize],
            wrote: vec![0; MAP_KEYS as usize],
            puts: 0,
            went_backwards: 0,
            probe,
        })
        .collect();
    let (loads, round) =
        drive(&cluster, setup_started, loads, &["get", "put"], ctx, None, PREFILL_BYTES)?;

    // Check: no reader saw a key go backwards, and the final state is the
    // last write per key.
    let backwards: u64 = loads.iter().map(|l| l.went_backwards).sum();
    if backwards > 0 {
        return Err(format!("{backwards} reads went backwards"));
    }
    let fresh: HashMap<u64, i64> =
        MapNode::open(cluster.client(None)?, "ledger-map")?.snapshot()?.into_iter().collect();
    for key in 0..MAP_KEYS {
        let expected = loads[(key % 2) as usize].wrote[key as usize];
        if fresh.get(&key) != Some(&expected) {
            return Err(format!(
                "key {key} ended as {:?}, last write was {expected}",
                fresh.get(&key)
            ));
        }
    }
    Ok(round)
}

// ---------------------------------------------------------------------------
// catchup_tcp
// ---------------------------------------------------------------------------

/// The writers' puts: keys from a small space (so the final map is much
/// smaller than the log that built it), arbitrary values.
pub struct PutGen {
    rng: SplitMix64,
}

impl PutGen {
    pub fn new(seed: u64) -> Self {
        Self { rng: SplitMix64::new(seed) }
    }

    pub fn next(&mut self) -> (u64, i64) {
        (self.rng.gen_range(CATCHUP_KEYS), self.rng.next_u64() as i64)
    }
}

/// Order-independent digest of a map's contents.
fn checksum(entries: impl Iterator<Item = (u64, i64)>) -> (usize, u64) {
    entries.fold((0, 0), |(len, sum), (k, v)| {
        let mixed = SplitMix64::new(k ^ (v as u64).rotate_left(32)).next_u64();
        (len + 1, sum.wrapping_add(mixed))
    })
}

/// Writes `entries` puts into each of maps `a` and `b`, one put to each in
/// turn so the two streams interleave in the log the same way on every
/// run, and returns the digest of the state `a` is left in.
fn write_streams(cluster: &Cluster, ctx: &Ctx, entries: usize) -> Res<(usize, u64)> {
    let a = MapNode::open(cluster.client(None)?, "a")?;
    let b = MapNode::open(cluster.client(None)?, "b")?;
    let (mut gen_a, mut gen_b) = (PutGen::new(ctx.seed_for(0)), PutGen::new(ctx.seed_for(1)));
    let mut model = HashMap::new();
    for _ in 0..entries {
        let (key, value) = gen_a.next();
        a.put(key, value)?;
        model.insert(key, value);
        let (key, value) = gen_b.next();
        b.put(key, value)?;
    }
    Ok(checksum(model.into_iter()))
}

struct ReplayLoad<'a> {
    cluster: &'a Cluster,
    expect: (usize, u64),
    probe: Option<Arc<Probe>>,
}

impl Load for ReplayLoad<'_> {
    type Op = ();

    fn next_op(&mut self) -> (u8, Self::Op) {
        (0, ())
    }

    /// A cold client: new connections, new runtime, empty cache; opens map
    /// `a` and plays its whole stream.
    fn run(&mut self, (): Self::Op) -> Res<()> {
        let node = MapNode::open(self.cluster.client(self.probe.as_ref())?, "a")?;
        let got = checksum(node.snapshot()?.into_iter());
        if got != self.expect {
            return Err(format!("replay built {got:?}, the writer had {:?}", self.expect));
        }
        Ok(())
    }

    fn probe(&self) -> Option<&Arc<Probe>> {
        self.probe.as_ref()
    }

    fn user_bytes(&self) -> u64 {
        0
    }
}

fn round_catchup(ctx: &Ctx) -> Res<Round> {
    let setup_started = Instant::now();
    let entries = ctx.scaled(CATCHUP_ENTRIES).max(CATCHUP_HOT_PAGES * 20);
    let dir = ctx.scratch.join(format!("catchup-{}", ctx.round));
    let cluster = Cluster::tcp_tiered(&dir, CATCHUP_SEGMENT_PAGES, CATCHUP_HOT_PAGES)?;

    let expect = write_streams(&cluster, ctx, entries)?;
    cluster.compact_until_cold(CATCHUP_COLD_SHARE)?;

    let written_bytes = 2 * entries as u64 * KV_BYTES;
    let probe = ctx.probe(0, 4 * entries);
    let loads = vec![ReplayLoad { cluster: &cluster, expect, probe }];
    // A replay that built the wrong map is a failed check, not a slow op.
    let (loads, mut round) =
        drive(&cluster, setup_started, loads, &["replay"], ctx, None, written_bytes)?;
    if round.failed > 0 {
        return Err(format!("{} of {} replays failed their check", round.failed, round.attempted));
    }
    round.units_per_op = entries as u64;
    drop(loads);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take<T>(n: usize, mut next: impl FnMut() -> T) -> Vec<T> {
        (0..n).map(|_| next()).collect()
    }

    #[test]
    fn same_seed_same_ops_different_seed_different_ops() {
        let (mut a, mut b, mut c) = (TxGen::new(1), TxGen::new(1), TxGen::new(2));
        let (a, b, c) = (take(200, || a.next()), take(200, || b.next()), take(200, || c.next()));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|k| k[0] != k[1] && k[1] != k[2] && k[0] != k[2]));

        let (mut a, mut b, mut c) =
            (MixGen::new(1, 0, 2), MixGen::new(1, 0, 2), MixGen::new(2, 0, 2));
        let (a, b, c) = (take(500, || a.next()), take(500, || b.next()), take(500, || c.next()));
        assert_eq!(a, b);
        assert_ne!(a, c);

        let (mut a, mut b, mut c) = (PutGen::new(1), PutGen::new(1), PutGen::new(2));
        assert_eq!(take(50, || a.next()), take(50, || b.next()));
        assert_ne!(take(50, || PutGen::new(1).next()), take(50, || c.next()));

        assert_eq!(append_payload(1, 7), append_payload(1, 7));
        assert_ne!(append_payload(1, 7), append_payload(2, 7));
        assert_ne!(append_payload(1, 7), append_payload(1, 8));
        assert_eq!(append_payload(1, 7).len(), PAYLOAD_LEN);
    }

    #[test]
    fn round_seeds_differ_by_seed_round_and_client() {
        let ctx = |seed, round| Ctx {
            workload: "append_tcp",
            seed,
            round,
            scale: 1.0,
            traced: false,
            keep_samples: false,
            scratch: Path::new("."),
        };
        let base = ctx(1, 0).seed_for(0);
        assert_eq!(base, ctx(1, 0).seed_for(0));
        assert_ne!(base, ctx(2, 0).seed_for(0));
        assert_ne!(base, ctx(1, 1).seed_for(0));
        assert_ne!(base, ctx(1, 0).seed_for(1));
    }

    #[test]
    fn a_block_is_an_eighth_of_the_round_at_least_20_at_most_the_round() {
        let ctx = |workload, scale| Ctx {
            workload,
            seed: 1,
            round: 0,
            scale,
            traced: false,
            keep_samples: false,
            scratch: Path::new("."),
        };
        assert_eq!(ctx("append_tcp", 1.0).block_len(1), 2_000);
        assert_eq!(ctx("tx_mix_tcp", 1.0).block_len(2), 1_250);
        assert_eq!(ctx("catchup_tcp", 1.0).block_len(1), 20);
        // --quick: a catch-up round is 6 replays, and they are one block.
        assert_eq!(ctx("catchup_tcp", 0.05).block_len(1), 6);
    }

    #[test]
    fn mix_is_one_tenth_puts_on_owned_keys_with_growing_values() {
        let mut gen = MixGen::new(3, 1, 2);
        let ops = take(20_000, || gen.next());
        let puts: Vec<(u64, i64)> = ops
            .iter()
            .filter_map(|op| match op {
                MixOp::Put(k, v) => Some((*k, *v)),
                MixOp::Get(_) => None,
            })
            .collect();
        let share = puts.len() as f64 / ops.len() as f64;
        assert!((0.08..0.12).contains(&share), "{share}");
        assert!(puts.iter().all(|(k, _)| k % 2 == 1 && *k < MAP_KEYS));
        assert!(puts.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn checksum_ignores_order_and_sees_changes() {
        let a = checksum([(1, 10), (2, 20), (3, 30)].into_iter());
        assert_eq!(a, checksum([(3, 30), (1, 10), (2, 20)].into_iter()));
        assert_ne!(a, checksum([(1, 10), (2, 20), (3, 31)].into_iter()));
        assert_ne!(a, checksum([(1, 10), (2, 20)].into_iter()));
    }
}
