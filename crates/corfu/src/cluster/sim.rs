//! [`Sim`]: the simulated transport. The real servers answer the real
//! blocking clients, but every call is an event on one seeded queue and
//! time is virtual.
//!
//! * **One thread at a time.** The thread that made the [`Sim`] and every
//!   thread [`Sim::spawn`] (or a [`Clock::spawn`] on the sim's clock — a
//!   cluster's compactors) starts are *scheduled*: exactly one of them runs
//!   at a time. A thread parked in [`ClientConn::finish`], [`Clock::sleep`]
//!   or [`SimJoin::join`] gives up the baton, and the seed picks which
//!   runnable thread takes it.
//! * **Virtual time.** A call is delivered a fixed latency after it is sent
//!   and answered as long after that — or, on [`Sim::on_testbed`], after
//!   the NICs, racks and service queues of [`super::Testbed`]; time advances
//!   to the next event only when every scheduled thread is parked, so a
//!   client's retry backoff or hole-fill wait costs nothing on the wall
//!   clock.
//! * **Faults.** Every decision — delay a call (which reorders it behind
//!   later ones), drop it, crash the node it goes to, crash the thread that
//!   sends it — is a pure function of `(seed, point, nth)`: the call's
//!   protocol point (`storage.write`, `seq.next`, `shard1.seq.next`,
//!   `meta.write`, ...) and which occurrence of that point it is.
//!
//! So a run is a function of its seed: two runs of one seed deliver the
//! same calls at the same virtual times ([`Sim::trace`]).
//!
//! A lock held across a call (a runtime's playback mutex) is taken through
//! [`Clock::lock`]: a thread that finds it held parks until the holder's
//! guard drops ([`Timeline::wait_unlock`]), where a plain `lock()` would
//! block for real while holding the baton.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tango_metrics::{Registry, Snapshot};
use tango_rpc::frame::HEADER_LEN;
use tango_rpc::{ClientConn, Clock, RpcError, RpcHandler, Ticket, Timeline};

use super::testbed::{Machine, Testbed, US};
use super::{Transport, SEQUENCER_BASE_ID};
use crate::client::ConnFactory;
use crate::{NodeId, NodeInfo, Result};

/// Virtual time in nanoseconds.
pub type SimTime = u64;
const MS: SimTime = 1_000 * US;
const SEC: SimTime = 1_000 * MS;

/// One-way latency of every message off the testbed.
const LATENCY: SimTime = 20 * US;
/// How long a caller waits on a dropped call before it times out.
const DROP_TIMEOUT: SimTime = 10 * MS;
/// Virtual time past which a run counts as stuck (only a background thread
/// is still waking up).
const HORIZON: SimTime = 3_600 * SEC;

/// Request tags by node kind, as the wire protocols number them.
const SEQUENCER_OPS: [&str; 8] =
    ["next", "query", "seal", "bootstrap", "dump", "other", "adopt_stream", "next_observe"];
const META_OPS: [&str; 6] = ["read", "write", "tail", "peers", "set_peers", "latest"];
const STORAGE_OPS: [&str; 9] = [
    "write",
    "read",
    "trim",
    "trim_prefix",
    "seal",
    "local_tail",
    "copy_range",
    "read_batch",
    "read_chase",
];

/// What became of one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Delivered after the base latency.
    Passed,
    /// Delivered after a seeded extra delay.
    Delayed,
    /// Never delivered; the caller timed out.
    Dropped,
    /// Crashed the node it reached, unanswered.
    NodeCrashed,
    /// Reached an address nothing serves.
    NodeDead,
    /// Crashed the thread that sent it, before it left.
    CallerCrashed,
}

/// One call as [`Sim::trace`] records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Virtual time it arrived — or was dropped, or crashed its sender.
    pub at: SimTime,
    /// The sending thread: 0 made the [`Sim`], spawned threads count up in
    /// spawn order.
    pub from: usize,
    /// The address called.
    pub to: String,
    /// The protocol point, e.g. `storage.write`.
    pub point: String,
    /// Which occurrence of `point` this call was (1-based).
    pub nth: u64,
    /// What became of it.
    pub outcome: Outcome,
}

/// What [`SimJoin::join`] returns for a thread a `crash_thread_at` rule
/// crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCrashed;

/// The unwind payload of a scheduled thread whose simulation stopped.
struct Stopped;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Delay(SimTime),
    Drop,
    CrashNode,
    CrashThread,
}

/// Fires on occurrence `nth` of a point under `prefix`, or — without one —
/// on a seeded `percent` of them.
struct Rule {
    prefix: String,
    nth: Option<u64>,
    percent: u64,
    action: Action,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Sleeping,
    Calling(u64),
    Joining(usize),
    /// Waiting for the lock at this address ([`Timeline::wait_unlock`]).
    Locking(usize),
    Done,
}

enum Event {
    Wake(usize),
    /// A call arrives: its number, node, request, fault and trace record.
    Deliver(u64, NodeId, Vec<u8>, Option<Action>, Delivery),
    Reply(u64, tango_rpc::Result<Vec<u8>>),
}

#[derive(Default)]
struct State {
    now: SimTime,
    /// Scheduling choices made so far: the seeded draw's counter.
    draws: u64,
    running: Option<usize>,
    threads: Vec<Status>,
    /// Each thread waits for its turn on its own condvar, so a handoff
    /// wakes only the thread it hands to.
    turns: Vec<Arc<Condvar>>,
    /// The machine each thread runs on.
    thread_machine: Vec<usize>,
    /// The testbed's resources, if the sim charges for them.
    testbed: Option<Testbed>,
    /// Client machines first (0 is the one [`Sim::new`]'s thread runs on),
    /// then one per served node.
    machines: Vec<Machine>,
    node_machine: HashMap<String, usize>,
    /// Pending events by `(time, sequence)`: ties go in insertion order.
    events: BTreeMap<(SimTime, u64), Event>,
    next_seq: u64,
    /// The threads waiting for each lock, first come first served.
    lock_waiters: HashMap<usize, VecDeque<usize>>,
    /// Calls in flight, with their answer once it has arrived.
    calls: HashMap<u64, Option<tango_rpc::Result<Vec<u8>>>>,
    nodes: HashMap<String, Arc<dyn RpcHandler>>,
    rules: Vec<Rule>,
    counters: HashMap<String, u64>,
    trace: Vec<Delivery>,
    crashed: Vec<NodeId>,
    /// Why the run stopped, once it has.
    stopped: Option<String>,
}

impl State {
    fn push(&mut self, at: SimTime, event: Event) {
        self.next_seq += 1;
        self.events.insert((at, self.next_seq), event);
    }

    fn wake(&mut self, waiting: Status) {
        for status in self.threads.iter_mut().filter(|s| **s == waiting) {
            *status = Status::Runnable;
        }
    }

    /// When a message of `bytes` (a frame's payload) sent at `at` from
    /// machine `from` to machine `to` is in: off the testbed, a fixed latency
    /// later.
    fn arrival(&mut self, from: usize, to: Option<usize>, bytes: usize, at: SimTime) -> SimTime {
        match (&self.testbed, to) {
            (Some(testbed), Some(to)) => {
                let bytes = (HEADER_LEN + bytes) as u64;
                testbed.transfer(&mut self.machines, from, to, bytes, at)
            }
            _ => at + LATENCY,
        }
    }
}

struct Inner {
    /// Tells simulations apart in the thread-local scheduling slot.
    id: u64,
    seed: u64,
    /// Virtual time zero on the [`Instant`] scale [`Clock::now`] reports.
    origin: Instant,
    state: Mutex<State>,
}

thread_local! {
    /// The simulation and thread index of the scheduled thread running here.
    static CURRENT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}

/// The simulated transport; see the module docs. Every clone is the same
/// simulation; a handle from [`Sim::machine`] starts its threads on its own
/// client machine.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<Inner>,
    machine: usize,
}

/// Waits for a thread [`Sim::spawn`] started.
pub struct SimJoin<R> {
    sim: Sim,
    thread: usize,
    result: Arc<Mutex<Option<std::thread::Result<R>>>>,
}

impl<R> SimJoin<R> {
    /// Waits (parked, in virtual time) for the thread to end and returns
    /// what it returned — [`ThreadCrashed`] if a fault rule crashed it. A
    /// panic in the thread is resumed here.
    pub fn join(self) -> std::result::Result<R, ThreadCrashed> {
        self.sim.join_thread(self.thread);
        match self.result.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(Ok(value)) => Ok(value),
            Some(Err(payload)) if payload.is::<ThreadCrashed>() => Err(ThreadCrashed),
            Some(Err(payload)) if !payload.is::<Stopped>() => resume_unwind(payload),
            _ => panic!("{}", self.sim.stop_reason()),
        }
    }
}

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Names the protocol point of `request` to the node served at `addr`: the
/// node kind from the address label, the operation from the request's
/// leading wire tag. A sequencer's log comes from its id (initial ids are
/// `SEQUENCER_BASE_ID + log`, replacements `+ generation * 100 + log`);
/// log 0's points are the bare `seq.*`.
fn classify(addr: &str, node: NodeId, request: &[u8]) -> String {
    let tag = request.first().map_or(usize::MAX, |&t| t as usize);
    let op = |ops: &[&'static str]| ops.get(tag).copied().unwrap_or("other");
    if addr.starts_with("sequencer") {
        let log = node.wrapping_sub(SEQUENCER_BASE_ID) % 100;
        let op = op(&SEQUENCER_OPS);
        return if log == 0 { format!("seq.{op}") } else { format!("shard{log}.seq.{op}") };
    }
    match addr.split_once('-').map_or(addr, |(kind, _)| kind) {
        "meta" => format!("meta.{}", op(&META_OPS)),
        "storage" => format!("storage.{}", op(&STORAGE_OPS)),
        kind => format!("{kind}.{tag}"),
    }
}

impl Sim {
    /// A simulation with no fault rules; the calling thread becomes its
    /// first scheduled thread (thread 0) and holds the baton.
    pub fn new(seed: u64) -> Self {
        static IDS: AtomicU64 = AtomicU64::new(1);
        let id = IDS.fetch_add(1, Ordering::Relaxed);
        CURRENT.set(Some((id, 0)));
        let state = State {
            running: Some(0),
            threads: vec![Status::Runnable],
            turns: vec![Arc::default()],
            thread_machine: vec![0],
            machines: vec![Machine::new(0, u64::MAX)],
            ..State::default()
        };
        let (origin, state) = (Instant::now(), Mutex::new(state));
        Self { inner: Arc::new(Inner { id, seed, origin, state }), machine: 0 }
    }

    /// [`Sim::new`] on the testbed's resources: NICs, rack latency and the
    /// nodes' service queues (module `testbed`). The calling
    /// thread runs on a client machine in rack 0.
    pub fn on_testbed(seed: u64, testbed: Testbed) -> Self {
        let sim = Self::new(seed);
        {
            let mut st = sim.lock();
            st.machines[0] = Machine::new(0, testbed.nic);
            st.testbed = Some(testbed);
        }
        sim
    }

    /// A handle on a new client machine in `rack`: the threads it spawns
    /// run there, sending and receiving through its NIC.
    pub fn machine(&self, rack: u8) -> Sim {
        let mut st = self.lock();
        let nic = st.testbed.as_ref().map_or(u64::MAX, |t| t.nic);
        st.machines.push(Machine::new(rack, nic));
        Sim { inner: Arc::clone(&self.inner), machine: st.machines.len() - 1 }
    }

    /// Every call so far, in the order it was delivered, dropped or crashed.
    pub fn trace(&self) -> Vec<Delivery> {
        self.lock().trace.clone()
    }

    /// The nodes crash rules have crashed, in crash order.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        self.lock().crashed.clone()
    }

    /// Delays calls whose point starts with `prefix`, each with `percent`
    /// probability, by a seeded amount up to `max` on top of the latency.
    pub fn delay_calls(&self, prefix: &str, percent: u64, max: Duration) {
        let max = (max.as_nanos() as SimTime).max(1);
        self.rule(prefix, None, percent, Action::Delay(max));
    }

    /// Drops calls whose point starts with `prefix` with `percent`
    /// probability: the node never sees them and the caller times out.
    pub fn drop_calls(&self, prefix: &str, percent: u64) {
        self.rule(prefix, None, percent, Action::Drop);
    }

    /// Crashes the node the `nth` (1-based) call whose point starts with
    /// `prefix` is delivered to, leaving that call unanswered.
    pub fn crash_node_at(&self, prefix: &str, nth: u64) {
        self.rule(prefix, Some(nth), 0, Action::CrashNode);
    }

    /// Crashes the spawned thread that makes the `nth` (1-based) call whose
    /// point starts with `prefix`, before the call leaves: the thread
    /// unwinds and its [`SimJoin::join`] returns [`ThreadCrashed`].
    pub fn crash_thread_at(&self, prefix: &str, nth: u64) {
        self.rule(prefix, Some(nth), 0, Action::CrashThread);
    }

    fn rule(&self, prefix: &str, nth: Option<u64>, percent: u64, action: Action) {
        self.lock().rules.push(Rule { prefix: prefix.to_owned(), nth, percent, action });
    }

    /// The action for occurrence `nth` of `point`: a pure function of
    /// `(seed, point, nth)` and the rule list. Scheduled (`nth`) rules
    /// outrank probabilistic ones, so a seeded delay never shadows a
    /// planned crash.
    fn decide(&self, rules: &[Rule], point: &str, nth: u64) -> Option<Action> {
        let point_hash = point
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        let mut candidates: Vec<(usize, &Rule)> =
            rules.iter().enumerate().filter(|(_, r)| point.starts_with(&r.prefix)).collect();
        candidates.sort_by_key(|(_, rule)| rule.nth.is_none());
        candidates.into_iter().find_map(|(idx, rule)| {
            let h = splitmix64(
                self.inner.seed
                    ^ point_hash
                    ^ nth.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ ((idx as u64) << 56),
            );
            let fires = rule.nth.map_or(h % 100 < rule.percent, |target| nth == target);
            fires.then_some(match rule.action {
                Action::Delay(max) => Action::Delay(1 + (h >> 33) % max),
                other => other,
            })
        })
    }

    /// Starts `body` on a new scheduled thread. It runs when the seed gives
    /// it the baton.
    pub fn spawn<R: Send + 'static>(
        &self,
        name: &str,
        body: impl FnOnce() -> R + Send + 'static,
    ) -> SimJoin<R> {
        let thread = {
            let mut st = self.lock();
            st.threads.push(Status::Runnable);
            st.turns.push(Arc::default());
            st.thread_machine.push(self.machine);
            st.threads.len() - 1
        };
        let result = Arc::new(Mutex::new(None));
        let (slot, sim) = (Arc::clone(&result), self.clone());
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                CURRENT.set(Some((sim.inner.id, thread)));
                let mut st = sim.lock();
                while st.running != Some(thread) && st.stopped.is_none() {
                    st = sim.wait_turn(st, thread);
                }
                let started = st.stopped.is_none();
                drop(st);
                let outcome: std::thread::Result<R> = match started {
                    true => catch_unwind(AssertUnwindSafe(body)),
                    false => Err(Box::new(Stopped)),
                };
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                let mut st = sim.lock();
                st.threads[thread] = Status::Done;
                st.wake(Status::Joining(thread));
                if st.running == Some(thread) {
                    drop(sim.pass(st));
                }
            })
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        SimJoin { sim: self.clone(), thread, result }
    }

    /// The simulation's clock, for code that takes one.
    pub fn clock(&self) -> Clock {
        Clock::on(Arc::new(self.clone()))
    }

    /// The state. No update under this lock is left half done by a panic —
    /// each is one assignment, insertion or push — so a poisoned lock still
    /// guards valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_turn<'a>(&'a self, st: MutexGuard<'a, State>, me: usize) -> MutexGuard<'a, State> {
        let turn = Arc::clone(&st.turns[me]);
        turn.wait(st).unwrap_or_else(|e| e.into_inner())
    }

    fn stop_reason(&self) -> String {
        let reason = self.lock().stopped.clone().unwrap_or_default();
        format!("simulation (seed {:#x}) stopped: {reason}", self.inner.seed)
    }

    /// The scheduled thread calling in.
    fn me(&self) -> usize {
        match CURRENT.get() {
            Some((id, thread)) if id == self.inner.id => thread,
            _ => panic!("a thread the simulation does not schedule called into it"),
        }
    }

    /// Hands the baton to a runnable thread the seed picks, first running
    /// events — advancing virtual time — until one is runnable. Called by
    /// the baton holder once it has parked or ended.
    fn pass<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        while st.stopped.is_none() {
            let runnable: Vec<usize> =
                (0..st.threads.len()).filter(|&t| st.threads[t] == Status::Runnable).collect();
            if !runnable.is_empty() {
                let draw =
                    splitmix64(self.inner.seed ^ st.draws.wrapping_mul(0xa076_1d64_78bd_642f));
                st.draws += 1;
                st.running = Some(runnable[(draw % runnable.len() as u64) as usize]);
                break;
            }
            match st.events.pop_first() {
                Some(((at, _), event)) if at <= HORIZON => {
                    st.now = at;
                    st = self.fire(st, event);
                }
                Some(_) => st.stopped = Some("virtual time ran past the horizon".into()),
                None => {
                    let parked = format!("{:?}", st.threads);
                    st.stopped = Some(format!("every thread is parked, none in flight: {parked}"));
                }
            }
        }
        match (st.running, &st.stopped) {
            (Some(next), None) => st.turns[next].notify_one(),
            _ => st.turns.iter().for_each(|turn| turn.notify_one()),
        }
        st
    }

    fn fire<'a>(&'a self, mut st: MutexGuard<'a, State>, event: Event) -> MutexGuard<'a, State> {
        match event {
            Event::Wake(thread) if st.threads[thread] == Status::Sleeping => {
                st.threads[thread] = Status::Runnable;
            }
            Event::Wake(_) => {}
            Event::Reply(call, answer) => {
                st.calls.insert(call, Some(answer));
                st.wake(Status::Calling(call));
            }
            Event::Deliver(call, node, request, action, mut delivery) => {
                let answer = match (st.nodes.get(&delivery.to).cloned(), action) {
                    (None, _) => {
                        delivery.outcome = Outcome::NodeDead;
                        Err(RpcError::Disconnected)
                    }
                    (Some(_), Some(Action::CrashNode)) => {
                        st.nodes.remove(&delivery.to);
                        st.crashed.push(node);
                        delivery.outcome = Outcome::NodeCrashed;
                        Err(RpcError::Disconnected)
                    }
                    (Some(handler), _) => {
                        // Outside the lock; nothing else runs meanwhile: the
                        // baton holder is in here.
                        drop(st);
                        let response = handler.handle(&request);
                        st = self.lock();
                        Ok(response)
                    }
                };
                let (now, caller) = (st.now, st.thread_machine[delivery.from]);
                let at = match (st.node_machine.get(&delivery.to).copied(), &answer) {
                    (Some(machine), Ok(response)) if st.testbed.is_some() => {
                        let testbed = st.testbed.as_ref().expect("checked");
                        let service = testbed.service(&delivery.to, &delivery.point, response);
                        let done = st.machines[machine].serve(now, service);
                        st.arrival(machine, Some(caller), response.len(), done)
                    }
                    _ => now + LATENCY,
                };
                delivery.at = now;
                st.trace.push(delivery);
                st.push(at, Event::Reply(call, answer));
            }
        }
        st
    }

    /// Parks the calling thread (its status already says on what) until the
    /// baton comes back. A spawned thread of a stopped run unwinds; thread 0
    /// panics with the reason, unless it is unwinding already.
    fn park<'a>(&'a self, st: MutexGuard<'a, State>, me: usize) -> MutexGuard<'a, State> {
        let mut st = self.pass(st);
        while st.running != Some(me) && st.stopped.is_none() {
            st = self.wait_turn(st, me);
        }
        if st.stopped.is_some() && !std::thread::panicking() {
            drop(st);
            match me {
                0 => panic!("{}", self.stop_reason()),
                _ => resume_unwind(Box::new(Stopped)),
            }
        }
        st
    }

    /// Sends `request` to the node at `addr`; returns the call's number.
    fn send(&self, addr: &str, node: NodeId, request: &[u8]) -> u64 {
        let me = self.me();
        let mut st = self.lock();
        let point = classify(addr, node, request);
        let counter = st.counters.entry(point.clone()).or_insert(0);
        *counter += 1;
        let nth = *counter;
        let action = self.decide(&st.rules, &point, nth);
        st.next_seq += 1;
        let (id, now) = (st.next_seq, st.now);
        st.calls.insert(id, None);
        let outcome = match action {
            Some(Action::Delay(_)) => Outcome::Delayed,
            Some(Action::Drop) => Outcome::Dropped,
            Some(Action::CrashThread) => Outcome::CallerCrashed,
            _ => Outcome::Passed,
        };
        let delivery = Delivery { at: now, from: me, to: addr.into(), point, nth, outcome };
        match action {
            Some(Action::CrashThread) => {
                assert_ne!(me, 0, "a crash_thread_at rule hit the thread that made the Sim");
                st.trace.push(delivery);
                drop(st);
                resume_unwind(Box::new(ThreadCrashed));
            }
            Some(Action::Drop) => {
                st.trace.push(delivery);
                st.push(now + DROP_TIMEOUT, Event::Reply(id, Err(RpcError::Timeout)));
            }
            _ => {
                let extra = match action {
                    Some(Action::Delay(extra)) => extra,
                    _ => 0,
                };
                let (from, to) = (st.thread_machine[me], st.node_machine.get(addr).copied());
                let arrival = st.arrival(from, to, request.len(), now);
                let deliver = Event::Deliver(id, node, request.to_vec(), action, delivery);
                st.push(arrival + extra, deliver);
            }
        }
        id
    }

    /// Parks until call `id` is answered and returns the answer.
    fn receive(&self, id: u64) -> tango_rpc::Result<Vec<u8>> {
        let me = self.me();
        let mut st = self.lock();
        while st.stopped.is_none() {
            if let Some(Some(_)) = st.calls.get(&id) {
                return st.calls.remove(&id).flatten().expect("answered");
            }
            st.threads[me] = Status::Calling(id);
            st = self.park(st, me);
        }
        Err(RpcError::Disconnected)
    }

    fn join_thread(&self, thread: usize) {
        let me = self.me();
        let mut st = self.lock();
        while st.threads[thread] != Status::Done && st.stopped.is_none() {
            st.threads[me] = Status::Joining(thread);
            st = self.park(st, me);
        }
    }
}

impl Timeline for Sim {
    fn now(&self) -> Instant {
        self.inner.origin + Duration::from_nanos(self.lock().now)
    }

    fn sleep(&self, duration: Duration) {
        let me = self.me();
        let mut st = self.lock();
        let at = st.now + duration.as_nanos() as SimTime;
        st.push(at, Event::Wake(me));
        st.threads[me] = Status::Sleeping;
        drop(self.park(st, me));
    }

    fn spawn(&self, name: String, body: Box<dyn FnOnce() + Send>) -> Box<dyn FnOnce() + Send> {
        let SimJoin { sim, thread, .. } = Sim::spawn(self, &name, body);
        Box::new(move || sim.join_thread(thread))
    }

    fn wait_unlock(&self, lock: usize) {
        let me = self.me();
        let mut st = self.lock();
        st.threads[me] = Status::Locking(lock);
        st.lock_waiters.entry(lock).or_default().push_back(me);
        drop(self.park(st, me));
    }

    /// Wakes the longest waiter, if any: it takes the lock unless a thread
    /// that runs first does, and then waits again.
    fn unlocked(&self, lock: usize) {
        let mut st = self.lock();
        let Some(waiters) = st.lock_waiters.get_mut(&lock) else { return };
        let next = waiters.pop_front();
        if waiters.is_empty() {
            st.lock_waiters.remove(&lock);
        }
        if let Some(thread) = next {
            st.threads[thread] = Status::Runnable;
        }
    }
}

/// A connection whose calls are the simulation's events.
struct SimConn {
    sim: Sim,
    addr: String,
    node: NodeId,
}

impl ClientConn for SimConn {
    fn call(&self, request: &[u8]) -> tango_rpc::Result<Vec<u8>> {
        self.finish(self.start(request))
    }

    fn start(&self, request: &[u8]) -> Ticket {
        Ticket::numbered(self.sim.send(&self.addr, self.node, request))
    }

    fn finish(&self, ticket: Ticket) -> tango_rpc::Result<Vec<u8>> {
        let foreign =
            || RpcError::Io("ticket finished on a connection that did not start it".into());
        self.sim.receive(ticket.number().ok_or_else(foreign)?)
    }
}

impl ConnFactory for Sim {
    fn connect(&self, node: &NodeInfo) -> Arc<dyn ClientConn> {
        Arc::new(SimConn { sim: self.clone(), addr: node.addr.clone(), node: node.id })
    }

    fn clock(&self) -> Clock {
        Sim::clock(self)
    }
}

impl Transport for Sim {
    /// The registered address.
    type Endpoint = String;
    const SHARED_REGISTRY: bool = true;

    fn serve(
        &self,
        label: &str,
        handler: Arc<dyn RpcHandler>,
        _: &Registry,
    ) -> Result<(String, String)> {
        let mut st = self.lock();
        st.nodes.insert(label.to_owned(), handler);
        if let Some(machine) = st.testbed.as_ref().map(|testbed| testbed.server(label)) {
            st.machines.push(machine);
            let index = st.machines.len() - 1;
            st.node_machine.insert(label.to_owned(), index);
        }
        Ok((label.to_owned(), label.to_owned()))
    }

    fn conn_factory(&self, _metrics: &Registry) -> Arc<dyn ConnFactory> {
        Arc::new(self.clone())
    }

    fn kill(&self, addr: String) {
        self.lock().nodes.remove(&addr);
    }

    fn scrape(&self, _addr: &String) -> tango_rpc::Result<Snapshot> {
        Ok(Snapshot::default())
    }

    fn clock(&self) -> Clock {
        Sim::clock(self)
    }
}
