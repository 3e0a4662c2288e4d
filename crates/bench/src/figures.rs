//! The evaluation's figures (§6) on the code that ships: real
//! [`CorfuClient`]s, [`TangoRuntime`]s and objects on a [`SimCluster`]
//! whose [`Sim`] charges the testbed's resources ([`Testbed::paper`]).
//!
//! A client machine of the paper is a [`Sim::machine`]; a client's window
//! of outstanding operations or transactions is one scheduled thread per
//! slot, all sharing that machine's runtime. What the transport does not
//! charge — the client's CPU — the figure charges here, in virtual time, on
//! one core per machine (`Cpu`): [`OP_CPU`] per operation its loop issues
//! and [`APPLY_CPU`] or [`UPDATE_CPU`] per record playback applies
//! (`Charged`). A point warms up, then counts what completes during its
//! measured interval.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use corfu::cluster::{Cluster, ClusterConfig, Sim, SimCluster, SimJoin, Testbed};
use corfu::CorfuClient;
use parking_lot::Mutex;
use tango::{ApplyMeta, LogOffset, ObjectOptions, ObjectView, Oid, StateMachine, TangoRuntime};
use tango::{RuntimeOptions, TxStatus};
use tango_rpc::Clock;
use workload::{KeyDist, SplitMix64, TxMix};

use crate::twopl;

/// Client CPU to issue one operation or transaction: Figure 8 (left) tops
/// out around 135 K check-only reads/s on one client.
pub const OP_CPU: Duration = Duration::from_micros(7);

/// Client CPU to apply one commit record during playback: §6.2's playback
/// bottleneck caps a fully replicated TangoMap near 40 K transactions/s per
/// consuming client.
pub const APPLY_CPU: Duration = Duration::from_micros(20);

/// Client CPU to apply one plain update (a put outside a transaction): far
/// cheaper than replaying a commit record's buffered writes.
pub const UPDATE_CPU: Duration = Duration::from_micros(4);

/// How long a point warms up, then how long it measures.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Virtual time before counting starts.
    pub warmup: Duration,
    /// Virtual time counted.
    pub measure: Duration,
}

impl Interval {
    /// A figure main's interval: `TANGO_QUICK=1` shortens it.
    pub fn for_main() -> Self {
        let (warmup, measure) = if crate::quick() { (20, 50) } else { (50, 200) };
        Self { warmup: Duration::from_millis(warmup), measure: Duration::from_millis(measure) }
    }
}

/// A machine's one core: charging it sleeps on the clock while holding it,
/// so concurrent charges queue.
#[derive(Clone)]
pub(crate) struct Cpu {
    core: Arc<Mutex<()>>,
    clock: Clock,
}

impl Cpu {
    fn new(clock: Clock) -> Self {
        Self { core: Arc::default(), clock }
    }

    /// Spends `time` of this core.
    pub(crate) fn charge(&self, time: Duration) {
        let _core = self.clock.lock(&self.core);
        self.clock.sleep(time);
    }
}

/// A state machine whose applies cost CPU: the object's own apply runs,
/// then the core is charged once per log entry — [`APPLY_CPU`] for a
/// commit record (its writes are one record), [`UPDATE_CPU`] for a plain
/// update.
struct Charged<S> {
    inner: S,
    cpu: Cpu,
    last: Option<LogOffset>,
}

impl<S: StateMachine> StateMachine for Charged<S> {
    fn apply(&mut self, data: &[u8], meta: &ApplyMeta) {
        self.inner.apply(data, meta);
        if self.last != Some(meta.offset) {
            self.last = Some(meta.offset);
            self.cpu.charge(if meta.txid.is_some() { APPLY_CPU } else { UPDATE_CPU });
        }
    }
}

/// The figures' object: a map from `u64` keys to `u64` values, versioned
/// per key. An update is the key and the value, little-endian.
#[derive(Default)]
struct Table(HashMap<u64, u64>);

impl StateMachine for Table {
    fn apply(&mut self, data: &[u8], _meta: &ApplyMeta) {
        if let (Some(key), Some(value)) = (data.get(..8), data.get(8..16)) {
            let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
            self.0.insert(word(key), word(value));
        }
    }
}

type View = ObjectView<Charged<Table>>;

/// A [`Table`] update: the key and the value, little-endian.
fn update(key: u64, value: u64) -> Vec<u8> {
    [key.to_le_bytes(), value.to_le_bytes()].concat()
}

fn put(view: &View, key: u64, value: u64) -> Option<Done> {
    view.update(Some(key), update(key, value)).ok().map(|_| Done::Write)
}

fn get(view: &View, key: u64) -> Option<Done> {
    view.query(Some(key), |t| t.inner.0.get(&key).copied()).ok().map(|_| Done::Read)
}

/// What an operation or transaction came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Done {
    Read,
    Write,
    Committed,
    Aborted,
}

/// What the threads completed, in order, with how long each took.
type Log = Arc<Mutex<Vec<(Done, Duration)>>>;

/// One figure point: the cluster, its client machines' threads, and what
/// they complete.
pub(crate) struct World {
    pub(crate) cluster: SimCluster,
    stop: Arc<AtomicBool>,
    log: Log,
    threads: Vec<SimJoin<()>>,
    seed: u64,
}

/// What completed during a point's measured interval.
struct Measured {
    done: Vec<(Done, Duration)>,
    secs: f64,
}

impl Measured {
    /// Thousands a second of completions of `kinds`.
    fn ks(&self, kinds: &[Done]) -> f64 {
        self.of(kinds).count() as f64 / self.secs / 1_000.0
    }

    /// Latencies (ms) of completions of `kinds`, sorted.
    fn latencies_ms(&self, kinds: &[Done]) -> Vec<f64> {
        let mut ms: Vec<f64> = self.of(kinds).map(|took| took.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    fn of<'a>(&'a self, kinds: &'a [Done]) -> impl Iterator<Item = Duration> + 'a {
        self.done.iter().filter(|(done, _)| kinds.contains(done)).map(|&(_, took)| took)
    }
}

fn mean(ms: &[f64]) -> f64 {
    ms.iter().sum::<f64>() / ms.len().max(1) as f64
}

fn p99(ms: &[f64]) -> f64 {
    ms.get(ms.len() * 99 / 100).copied().unwrap_or(0.0)
}

/// A client machine: its simulation handle and its core.
#[derive(Clone)]
pub(crate) struct Machine {
    pub(crate) sim: Sim,
    pub(crate) cpu: Cpu,
}

impl World {
    /// A log of `num_sets` replica sets of two on the testbed.
    pub(crate) fn new(num_sets: usize, seed: u64) -> Self {
        let config = ClusterConfig { num_sets, ..ClusterConfig::paper_testbed() };
        let cluster = Cluster::start(Sim::on_testbed(seed, Testbed::paper()), config)
            .expect("start the simulated testbed");
        Self { cluster, stop: Arc::default(), log: Log::default(), threads: Vec::new(), seed }
    }

    pub(crate) fn sim(&self) -> &Sim {
        self.cluster.sim()
    }

    /// Client machine `i`: half in each rack, like the testbed's.
    pub(crate) fn machine(&self, i: usize) -> Machine {
        let sim = self.sim().machine((i % 2) as u8);
        let cpu = Cpu::new(sim.clock());
        Machine { sim, cpu }
    }

    pub(crate) fn client(&self) -> CorfuClient {
        self.cluster.client().expect("a client of the simulated cluster")
    }

    /// A runtime for client `i`, hosting a charged [`Table`] at each of
    /// `oids` (with `needs_decision`, if set, on the last).
    fn runtime(&self, i: usize, machine: &Machine, oids: &[Oid], decide_last: bool) -> Vec<View> {
        let options = RuntimeOptions { client_id: i as u64 + 1, ..RuntimeOptions::default() };
        let rt = TangoRuntime::with_options(self.client(), options).expect("runtime");
        let views = oids.iter().enumerate().map(|(n, &oid)| {
            let needs_decision = decide_last && n + 1 == oids.len();
            let state = Charged { inner: Table::default(), cpu: machine.cpu.clone(), last: None };
            rt.register_object(oid, state, ObjectOptions { needs_decision }).expect("register")
        });
        views.collect()
    }

    /// Starts `slots` threads on `machine` that each charge [`OP_CPU`] and
    /// run `op`, until the point ends: back to back, or — given a `rate` a
    /// second — together at that rate, a slot that falls behind dropping
    /// the ticks it missed.
    fn run(
        &mut self,
        i: usize,
        machine: &Machine,
        slots: usize,
        rate: Option<f64>,
        op: impl Fn(&mut SplitMix64) -> Option<Done> + Send + Sync + 'static,
    ) {
        if rate.is_some_and(|rate| rate <= 0.0) {
            return;
        }
        let op = Arc::new(op);
        let period = rate.map(|rate| Duration::from_secs_f64(slots as f64 / rate));
        let start = self.sim().clock().now();
        for n in 0..slots {
            let (op, stop, log) = (op.clone(), self.stop.clone(), self.log.clone());
            let (cpu, clock) = (machine.cpu.clone(), machine.sim.clock());
            let seed = self.seed ^ ((i as u64) << 32 | n as u64).wrapping_mul(0x9e37_79b9);
            let mut rng = SplitMix64::new(seed);
            let mut tick = period.map(|period| start + period.mul_f64(n as f64 / slots as f64));
            self.threads.push(machine.sim.spawn(&format!("client{i}-{n}"), move || {
                while !stop.load(Ordering::Relaxed) {
                    if let (Some(tick), Some(period)) = (tick.as_mut(), period) {
                        let now = clock.now();
                        if now < *tick {
                            clock.sleep(*tick - now);
                        }
                        while *tick <= clock.now() {
                            *tick += period;
                        }
                    }
                    cpu.charge(OP_CPU);
                    let started = clock.now();
                    if let Some(done) = op(&mut rng) {
                        log.lock().push((done, clock.now() - started));
                    }
                }
            }));
        }
    }

    /// Warms up, measures, then stops every thread and waits for them.
    fn measure(self, interval: Interval) -> Measured {
        let clock = self.sim().clock();
        clock.sleep(interval.warmup);
        let from = self.log.lock().len();
        clock.sleep(interval.measure);
        let to = self.log.lock().len();
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads {
            thread.join().expect("a figure thread crashed");
        }
        let done = self.log.lock()[from..to].to_vec();
        Measured { done, secs: interval.measure.as_secs_f64() }
    }
}

// ----------------------------------------------------------------------
// Figure 2: sequencer throughput vs number of clients.
// ----------------------------------------------------------------------

/// One Figure 2 point: thousands of tokens a second the sequencer grants
/// `clients` machines with `window` outstanding requests each.
pub fn fig2_sequencer(clients: usize, window: usize, seed: u64, interval: Interval) -> f64 {
    let mut world = World::new(9, seed);
    for i in 0..clients {
        let (machine, client) = (world.machine(i), world.client());
        world.run(i, &machine, window, None, move |_| client.token(&[]).ok().map(|_| Done::Write));
    }
    world.measure(interval).ks(&[Done::Write])
}

// ----------------------------------------------------------------------
// Figure 8: single-object linearizability.
// ----------------------------------------------------------------------

/// One Figure 8 (left) point: one client with `window` outstanding
/// operations on a map only it hosts, `write_ratio` of them puts, the rest
/// linearizable gets. Returns (K ops/s, mean latency ms, p99 latency ms).
pub fn fig8_left(
    write_ratio: f64,
    window: usize,
    seed: u64,
    interval: Interval,
) -> (f64, f64, f64) {
    let mut world = World::new(9, seed);
    let machine = world.machine(0);
    let view = world.runtime(0, &machine, &[1], false).remove(0);
    world.run(0, &machine, window, None, move |rng| {
        let key = rng.gen_range(100_000);
        match rng.gen_bool(write_ratio) {
            true => put(&view, key, key),
            false => get(&view, key),
        }
    });
    let m = world.measure(interval);
    let ops = [Done::Read, Done::Write];
    let ms = m.latencies_ms(&ops);
    (m.ks(&ops), mean(&ms), p99(&ms))
}

/// One Figure 8 (middle) point: one client puts at `write_rate` a second,
/// the other — hosting the same map — gets at 100 K a second. Returns
/// (read K/s, write K/s, mean read latency ms).
pub fn fig8_middle(write_rate: f64, seed: u64, interval: Interval) -> (f64, f64, f64) {
    let mut world = World::new(9, seed);
    let (writer, reader) = (world.machine(0), world.machine(1));
    let writes = world.runtime(0, &writer, &[1], false).remove(0);
    let reads = world.runtime(1, &reader, &[1], false).remove(0);
    world.run(0, &writer, 64, Some(write_rate), move |rng| {
        let key = rng.gen_range(100_000);
        put(&writes, key, key)
    });
    world.run(1, &reader, 64, Some(100_000.0), move |rng| get(&reads, rng.gen_range(100_000)));
    let m = world.measure(interval);
    (m.ks(&[Done::Read]), m.ks(&[Done::Write]), mean(&m.latencies_ms(&[Done::Read])))
}

/// One Figure 8 (right) point: `readers` clients each reading at 10 K a
/// second against a 10 K puts/s writer, over a log of `num_sets` replica
/// sets. A read checks the tail and reads one recent entry from the log —
/// a view that indexes log-structured storage (§3.1). Returns aggregate
/// K reads/s.
pub fn fig8_right(readers: usize, num_sets: usize, seed: u64, interval: Interval) -> f64 {
    let mut world = World::new(num_sets, seed);
    let writer = world.machine(0);
    let writes = world.runtime(0, &writer, &[1], false).remove(0);
    world.run(0, &writer, 64, Some(10_000.0), move |rng| {
        let key = rng.gen_range(100_000);
        put(&writes, key, key)
    });
    for i in 1..=readers {
        let (machine, client) = (world.machine(i), world.client());
        world.run(i, &machine, 32, Some(10_000.0), move |_| {
            let tail = client.check_tail_fast().ok()?;
            client.read(tail.saturating_sub(64)).ok().map(|_| Done::Read)
        });
    }
    world.measure(interval).ks(&[Done::Read])
}

// ----------------------------------------------------------------------
// Figures 9 and 10: transactions.
// ----------------------------------------------------------------------

/// Which objects a client's transactions touch.
#[derive(Clone, Copy)]
enum Target {
    /// Its own object only.
    Local,
    /// Also writes one key of another client's object, with probability.
    Remote(f64),
    /// Also reads and writes one key of the shared object, with
    /// probability.
    Shared(f64),
}

/// Oid of client `i`'s own object; every client of Figure 9 shares 1.
fn own(i: usize) -> Oid {
    i as Oid + 1
}

const SHARED: Oid = 1000;

const TRANSACTIONS: [Done; 2] = [Done::Committed, Done::Aborted];

/// Starts client `i`: a runtime hosting `oids` and a window of
/// transactions drawn from `mix` on the first.
fn tx_client(
    world: &mut World,
    i: usize,
    clients: usize,
    oids: &[Oid],
    window: usize,
    mix: TxMix,
    target: Target,
) {
    let machine = world.machine(i);
    let views = world.runtime(i, &machine, oids, matches!(target, Target::Shared(_)));
    let rt = Arc::clone(views[0].runtime());
    world.run(i, &machine, window, None, move |rng| {
        let spec = mix.sample(rng);
        let (local, (key, value)) = (&views[0], (spec.writes[0], spec.writes[0]));
        rt.begin_tx().ok()?;
        let mut body = || -> Option<()> {
            for &k in &spec.reads {
                get(local, k)?;
            }
            for &k in &spec.writes {
                put(local, k, k)?;
            }
            match target {
                Target::Remote(p) if clients > 1 && rng.gen_bool(p) => {
                    let other = (i + 1 + rng.gen_range(clients as u64 - 1) as usize) % clients;
                    rt.update_remote(own(other), Some(key), update(key, value)).ok()?;
                }
                Target::Shared(p) if rng.gen_bool(p) => {
                    get(&views[1], spec.reads[0])?;
                    put(&views[1], key, value)?;
                }
                _ => {}
            }
            Some(())
        };
        if body().is_none() {
            let _ = rt.abort_tx();
            return None;
        }
        match rt.end_tx().ok()? {
            TxStatus::Committed => Some(Done::Committed),
            TxStatus::Aborted => Some(Done::Aborted),
        }
    });
}

/// One Figure 9 point: `nodes` clients, each with 16 outstanding
/// transactions on one map they all host, keys drawn from `total_keys`
/// (zipf or uniform). Returns (K tx/s, K committed tx/s).
pub fn fig9(
    nodes: usize,
    total_keys: u64,
    zipf: bool,
    seed: u64,
    interval: Interval,
) -> (f64, f64) {
    let mut world = World::new(9, seed);
    let dist = if zipf { KeyDist::zipf_ycsb(total_keys) } else { KeyDist::uniform(total_keys) };
    for i in 0..nodes {
        tx_client(&mut world, i, nodes, &[1], 16, TxMix::paper(dist.clone()), Target::Local);
    }
    let m = world.measure(interval);
    (m.ks(&TRANSACTIONS), m.ks(&[Done::Committed]))
}

/// Starts `clients` clients, each running 8 outstanding transactions on
/// its own map (and `also_shared`, the shared one) reaching out as
/// `target` says, and measures K tx/s.
fn partitions(
    mut world: World,
    clients: usize,
    also_shared: bool,
    target: Target,
    interval: Interval,
) -> f64 {
    for i in 0..clients {
        let oids = if also_shared { vec![own(i), SHARED] } else { vec![own(i)] };
        let mix = TxMix::paper(KeyDist::uniform(100_000));
        tx_client(&mut world, i, clients, &oids, 8, mix, target);
    }
    world.measure(interval).ks(&TRANSACTIONS)
}

/// One Figure 10 (left) point: `clients` clients, each running
/// single-object transactions on a map only it hosts, over a log of
/// `num_sets` replica sets. Returns K tx/s.
pub fn fig10_left(clients: usize, num_sets: usize, seed: u64, interval: Interval) -> f64 {
    partitions(World::new(num_sets, seed), clients, false, Target::Local, interval)
}

/// One Figure 10 (middle) point for Tango: `clients` partitioned clients;
/// `cross_pct` of transactions also write one key of another partition,
/// whose owner then waits for the writer's decision record. Returns K tx/s.
pub fn fig10_middle_tango(clients: usize, cross_pct: f64, seed: u64, interval: Interval) -> f64 {
    let target = Target::Remote(cross_pct / 100.0);
    partitions(World::new(9, seed), clients, false, target, interval)
}

/// One Figure 10 (middle) point for the 2PL baseline (module
/// `twopl`): the same clients and transactions, committed by
/// locking instead of the log. Returns K committed tx/s.
pub fn fig10_middle_2pl(clients: usize, cross_pct: f64, seed: u64, interval: Interval) -> f64 {
    let mut world = World::new(9, seed);
    for (i, twopl) in twopl::serve(&world, clients).into_iter().enumerate() {
        let machine = world.machine(i);
        let clock = machine.sim.clock();
        let (mix, cpu) = (TxMix::paper(KeyDist::uniform(100_000)), machine.cpu.clone());
        // The same transaction body as Tango's: the paper swapped only the
        // commit; its apply is charged as playback would charge it.
        world.run(i, &machine, 2, None, move |rng| {
            let spec = mix.sample(rng);
            cpu.charge(APPLY_CPU);
            let remote = (clients > 1 && rng.gen_bool(cross_pct / 100.0)).then(|| {
                ((i + 1 + rng.gen_range(clients as u64 - 1) as usize) % clients, spec.writes[0])
            });
            if twopl.commit(&spec.writes, remote) {
                return Some(Done::Committed);
            }
            clock.sleep(Duration::from_micros(100));
            Some(Done::Aborted)
        });
    }
    world.measure(interval).ks(&[Done::Committed])
}

/// One Figure 10 (right) point: `clients` clients each hosting their own
/// map and one shared map; `shared_pct` of transactions also read and write
/// the shared one, whose other hosts wait for the writer's decision record.
/// Returns K tx/s.
pub fn fig10_right(clients: usize, shared_pct: f64, seed: u64, interval: Interval) -> f64 {
    let target = Target::Shared(shared_pct / 100.0);
    partitions(World::new(9, seed), clients, true, target, interval)
}

/// §6.3 TangoBK: `writers` clients appending 4 KB ledger entries, 8
/// outstanding each. Returns K appends/s.
pub fn sec63_bk(writers: usize, seed: u64, interval: Interval) -> f64 {
    let mut world = World::new(9, seed);
    let entry = bytes::Bytes::from(vec![7u8; 3_900]);
    for i in 0..writers {
        let (machine, client, entry) = (world.machine(i), world.client(), entry.clone());
        world.run(i, &machine, 8, None, move |_| {
            client.append(entry.clone()).ok().map(|_| Done::Write)
        });
    }
    world.measure(interval).ks(&[Done::Write])
}
