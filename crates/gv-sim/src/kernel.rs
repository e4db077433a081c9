//! The discrete-event engine.
//!
//! A [`Simulation`] owns a set of *processes*, each a stackful coroutine
//! (`crate::coro`) with a stack of its own, all run by one run loop on one
//! engine thread taken from a process-wide pool. The run loop takes every
//! scheduling step (`State::dispatch`, under the state lock) and resumes
//! the process that step picks. A process runs until it performs a
//! *yielding* operation (`hold`, `park`, `park_timeout`) or returns: a
//! yield records its blocking operation under the lock, drops the lock and
//! switches back to the run loop; a return marks its slot finished. Only
//! one process ever runs at a time, and because every step pops the same
//! FIFO run queue and `(time, sequence)`-ordered timer heap in the same
//! order, runs are fully deterministic for a fixed program.
//!
//! Non-yielding operations (`unpark`, `spawn`, channel pushes, …) mutate the
//! shared kernel state directly under a mutex; this is race-free because only
//! the single running process (or the run loop, between two resumes) ever
//! touches it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::VClock;
use crate::coro::{self, Coroutine};
use crate::oracle::{Candidate, DecisionKind, OracleHandle};
use crate::pool;
use crate::process::Ctx;
use crate::time::{SimDuration, SimTime};
use crate::trace::{AnalysisRecord, Tracer};

/// Identifier of a simulation process. Stable for the life of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Raw index (useful for dense per-process arrays in user code).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a `Pid` from a raw index — only for reloading dumped
    /// analysis records, where pids are opaque labels. A forged `Pid` has
    /// no meaning inside a live simulation.
    pub fn from_index(i: usize) -> Pid {
        Pid(i as u32)
    }
}

/// Why a parked/held process was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// First resume after spawn.
    Spawn,
    /// A `hold` elapsed or a `park_timeout` timed out.
    Timer,
    /// Another process called [`Ctx::unpark`].
    Unpark,
}

/// What blocking operation a parked process is stuck in. Set by the sync
/// primitives (channels, semaphores, barriers, gates, condition queues)
/// just before they park, so a deadlock report can say *why* each process
/// is blocked rather than just naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Blocked in a channel/message-queue receive.
    Recv,
    /// Blocked sending on a full bounded channel.
    Send,
    /// Blocked acquiring a semaphore permit.
    SemAcquire,
    /// Blocked at a barrier awaiting the remaining parties.
    BarrierWait,
    /// Blocked on a gate that has not opened.
    GateWait,
    /// Blocked on a condition queue awaiting a notify.
    CondWait,
    /// A bare `Ctx::park` with no recorded cause.
    Park,
}

impl WaitKind {
    /// Stable label used by the trace dump format and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            WaitKind::Recv => "recv",
            WaitKind::Send => "send",
            WaitKind::SemAcquire => "sem-acquire",
            WaitKind::BarrierWait => "barrier-wait",
            WaitKind::GateWait => "gate-wait",
            WaitKind::CondWait => "cond-wait",
            WaitKind::Park => "park",
        }
    }

    /// Inverse of [`label`](Self::label) (for reloading dumped traces).
    pub fn from_label(s: &str) -> Option<WaitKind> {
        Some(match s {
            "recv" => WaitKind::Recv,
            "send" => WaitKind::Send,
            "sem-acquire" => WaitKind::SemAcquire,
            "barrier-wait" => WaitKind::BarrierWait,
            "gate-wait" => WaitKind::GateWait,
            "cond-wait" => WaitKind::CondWait,
            "park" => WaitKind::Park,
            _ => return None,
        })
    }
}

/// Why a blocked process is waiting, and on whom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitCause {
    /// The blocking operation.
    pub kind: WaitKind,
    /// The resource being waited on (channel label, semaphore label, …).
    pub resource: String,
    /// Processes that could plausibly unblock the waiter (channel peers,
    /// semaphore holders). Wait-for cycle detection follows these edges.
    pub holders: Vec<Pid>,
}

/// One blocked process in a [`SimError::Deadlock`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedProcess {
    /// The blocked process.
    pub pid: Pid,
    /// Its name.
    pub name: String,
    /// Why it is blocked (`None` when it parked without recording a cause).
    pub cause: Option<WaitCause>,
    /// Rendered state of each holder in `cause` at detection time, e.g.
    /// `"gvm-0 (parked)"`. Parallel to `cause.holders`.
    pub holder_states: Vec<String>,
}

impl BlockedProcess {
    /// One-line description: `name: recv on '/gvm-req' (peers: gvm (parked))`.
    pub fn describe(&self) -> String {
        match &self.cause {
            None => format!("{}: parked (no wait cause recorded)", self.name),
            Some(c) => {
                let mut s = format!("{}: {} on '{}'", self.name, c.kind.label(), c.resource);
                if !self.holder_states.is_empty() {
                    s.push_str(&format!(" (peers: {})", self.holder_states.join(", ")));
                }
                s
            }
        }
    }
}

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No process is runnable, no timer is pending, yet processes are alive.
    Deadlock {
        /// The processes that are still blocked, with their wait causes.
        blocked: Vec<BlockedProcess>,
        /// A wait-for cycle among the blocked processes (first element
        /// repeated at the end), empty when the deadlock is acyclic (e.g. a
        /// lone process waiting on a message that never comes).
        cycle: Vec<Pid>,
    },
    /// A process panicked; the panic message is captured when it is a string.
    ProcessPanicked {
        /// Name of the panicking process.
        name: String,
        /// Panic payload, when representable as text.
        message: String,
    },
}

impl SimError {
    /// Names of the blocked processes for a deadlock (empty otherwise).
    pub fn blocked_names(&self) -> Vec<String> {
        match self {
            SimError::Deadlock { blocked, .. } => blocked.iter().map(|b| b.name.clone()).collect(),
            SimError::ProcessPanicked { .. } => Vec::new(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { blocked, cycle } => {
                write!(f, "simulation deadlock; {} blocked: ", blocked.len())?;
                let descs: Vec<String> = blocked.iter().map(|b| b.describe()).collect();
                write!(f, "{}", descs.join("; "))?;
                if !cycle.is_empty() {
                    let names: Vec<&str> = cycle
                        .iter()
                        .map(|p| {
                            blocked
                                .iter()
                                .find(|b| b.pid == *p)
                                .map(|b| b.name.as_str())
                                .unwrap_or("?")
                        })
                        .collect();
                    write!(f, "; wait-for cycle: {}", names.join(" -> "))?;
                }
                Ok(())
            }
            SimError::ProcessPanicked { name, message } => {
                write!(f, "process '{name}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Statistics describing a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Simulated time when the run ended.
    pub end_time: SimTime,
    /// Total processes spawned over the run.
    pub processes_spawned: usize,
    /// Number of scheduling steps that resumed a process (including a
    /// yielding process that the step picked again).
    pub events_processed: u64,
    /// True when the run ended because every process finished (as opposed
    /// to hitting a `run_until` horizon).
    pub completed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// In the run queue (wake reason stored alongside).
    Ready,
    /// Currently executing.
    Running,
    /// Blocked awaiting an unpark or armed timer.
    Parked,
    /// Blocked in a `hold`; unparks are deferred via the token.
    Holding,
    /// Returned (or was terminated).
    Finished,
}

/// The words a resume hands a suspended process: one per [`WakeReason`],
/// and `STOP` for teardown.
const SPAWN: usize = 1;
const TIMER: usize = 2;
const UNPARK: usize = 3;
const STOP: usize = 4;

/// A process body not yet started.
type Body = Box<dyn FnOnce(&mut Ctx) + Send>;

pub(crate) struct Slot {
    pub(crate) name: String,
    pub(crate) state: ProcState,
    /// Pending-unpark token (same semantics as `std::thread::park`).
    pub(crate) token: bool,
    /// Wake generation; bumped on every wake so stale timers are discarded.
    pub(crate) gen: u64,
    /// The closure, until the first resume builds the process's frame
    /// around it (or teardown drops it, if that never happens).
    body: Option<Body>,
    /// Vector clock for happens-before analysis (maintained only while the
    /// tracer's analysis flag is on; empty otherwise).
    pub(crate) clock: VClock,
    /// Why this process is blocked, recorded by sync primitives before
    /// parking and cleared on wake. Read by deadlock reporting.
    pub(crate) wait: Option<WaitCause>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimerEntry {
    time: SimTime,
    seq: u64,
    pid: Pid,
    gen: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What one scheduling step decided.
enum Step {
    /// Resume this process (already marked `Running`).
    Run(Pid, WakeReason),
    /// The run is over: `Ok(completed)` or the error that ended it.
    End(Result<bool, SimError>),
}

pub(crate) struct State {
    pub(crate) now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<TimerEntry>>,
    runnable: VecDeque<(Pid, WakeReason)>,
    pub(crate) slots: Vec<Slot>,
    live: usize,
    terminating: bool,
    /// Scheduling steps that resumed a process.
    events: u64,
    /// The `run_until` horizon.
    limit: SimTime,
    oracle: Option<OracleHandle>,
    /// Set by a panicking process, taken by the run loop: the run is over.
    outcome: Option<Result<bool, SimError>>,
}

impl State {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    pub(crate) fn arm_timer(&mut self, pid: Pid, at: SimTime) {
        let gen = self.slots[pid.index()].gen;
        let seq = self.next_seq();
        self.heap.push(Reverse(TimerEntry {
            time: at,
            seq,
            pid,
            gen,
        }));
    }

    pub(crate) fn make_ready(&mut self, pid: Pid, reason: WakeReason) {
        let slot = &mut self.slots[pid.index()];
        slot.state = ProcState::Ready;
        slot.gen += 1;
        slot.wait = None;
        self.runnable.push_back((pid, reason));
    }

    pub(crate) fn set_wait_cause(&mut self, pid: Pid, cause: WaitCause) {
        self.slots[pid.index()].wait = Some(cause);
    }

    /// `unpark` semantics shared by `Ctx::unpark` and internal wakeups.
    pub(crate) fn unpark(&mut self, pid: Pid) {
        match self.slots[pid.index()].state {
            ProcState::Parked => self.make_ready(pid, WakeReason::Unpark),
            ProcState::Finished => {}
            // Running / Ready / Holding: remember the token for the next park.
            _ => self.slots[pid.index()].token = true,
        }
    }

    /// Happens-before edge `from → to`: tick `from`'s clock, then join it
    /// into `to`'s. Called on every unpark while analysis recording is on;
    /// safe for any target state because only one process runs at a time.
    pub(crate) fn propagate_clock(&mut self, from: Pid, to: Pid) {
        if from == to {
            return;
        }
        let snapshot = {
            let slot = &mut self.slots[from.index()];
            slot.clock.tick(from.index());
            slot.clock.clone()
        };
        self.slots[to.index()].clock.join(&snapshot);
    }

    /// Record the blocking operation the running process `pid` yields with.
    fn apply(&mut self, pid: Pid, op: YieldOp) {
        match op {
            YieldOp::Hold(d) => {
                let at = self.now + d;
                self.slots[pid.index()].state = ProcState::Holding;
                self.arm_timer(pid, at);
            }
            YieldOp::Park | YieldOp::ParkTimeout(_) => {
                let slot = &mut self.slots[pid.index()];
                if slot.token {
                    slot.token = false;
                    self.make_ready(pid, WakeReason::Unpark);
                } else {
                    slot.state = ProcState::Parked;
                    if let YieldOp::ParkTimeout(d) = op {
                        let at = self.now + d;
                        self.arm_timer(pid, at);
                    }
                }
            }
        }
    }

    /// The scheduling step, taken by the run loop after every yield or
    /// exit (and once to start the run): pop the run queue, or advance the
    /// clock to the next valid timer and pop that, until a process is
    /// chosen or the run is over.
    fn dispatch(&mut self, tracer: &Tracer) -> Step {
        loop {
            if !self.runnable.is_empty() {
                let (pid, reason) = self.pick_ready();
                self.events += 1;
                return Step::Run(pid, reason);
            }
            if let Some(outcome) = self.advance_time(tracer) {
                return Step::End(outcome);
            }
        }
    }

    /// Take the next process off the (non-empty) run queue.
    fn pick_ready(&mut self) -> (Pid, WakeReason) {
        // The FIFO front is the default; an installed oracle may pick any
        // ready process instead. Consulting it under the state lock is
        // fine: oracles never call back into the kernel.
        let idx = match (&self.oracle, self.runnable.len()) {
            (Some(oracle), n) if n > 1 => {
                let candidates = candidates_of(self, self.runnable.iter().copied());
                oracle
                    .lock()
                    .choose(DecisionKind::Run, self.now, &candidates)
                    .min(n - 1)
            }
            _ => 0,
        };
        let (pid, reason) = self.runnable.remove(idx).expect("oracle index in range");
        self.slots[pid.index()].state = ProcState::Running;
        (pid, reason)
    }

    /// Pop timers until a valid one is found, then advance the clock.
    /// Returns `Some(outcome)` when the run is over.
    ///
    /// Timers expiring at the same instant fire in **arm order** (their
    /// monotonic sequence numbers) by default; an installed oracle is
    /// consulted to tie-break instead, making same-time wake order an
    /// explorable scheduling decision rather than an accident of heap
    /// layout.
    fn advance_time(&mut self, tracer: &Tracer) -> Option<Result<bool, SimError>> {
        // Find the earliest valid timer, discarding stale entries.
        let front = loop {
            match self.heap.peek() {
                None => {
                    return if self.live == 0 {
                        Some(Ok(true))
                    } else {
                        Some(Err(self.deadlock_error(tracer)))
                    };
                }
                Some(Reverse(entry)) => {
                    let entry = *entry;
                    if !self.timer_valid(&entry) {
                        self.heap.pop();
                        continue;
                    }
                    if entry.time > self.limit {
                        // Horizon reached with pending work.
                        self.now = self.limit;
                        return Some(Ok(false));
                    }
                    break entry;
                }
            }
        };
        self.heap.pop();
        let chosen = match &self.oracle {
            Some(oracle) => {
                // Collect every other valid timer due at the same instant so
                // the oracle can reorder the tie. Heap pops arrive in (time,
                // seq) order, so `ties` is sorted by arm order.
                let mut ties = vec![front];
                while let Some(Reverse(peek)) = self.heap.peek() {
                    if peek.time != front.time {
                        break;
                    }
                    let entry = *peek;
                    self.heap.pop();
                    if self.timer_valid(&entry) {
                        ties.push(entry);
                    }
                }
                let idx = if ties.len() > 1 {
                    let candidates =
                        candidates_of(self, ties.iter().map(|e| (e.pid, WakeReason::Timer)));
                    oracle
                        .lock()
                        .choose(DecisionKind::Timer, front.time, &candidates)
                        .min(ties.len() - 1)
                } else {
                    0
                };
                let chosen = ties.swap_remove(idx);
                for entry in ties {
                    self.heap.push(Reverse(entry));
                }
                chosen
            }
            None => front,
        };
        self.now = chosen.time;
        tracer.set_now_hint(chosen.time);
        self.make_ready(chosen.pid, WakeReason::Timer);
        None
    }

    fn timer_valid(&self, entry: &TimerEntry) -> bool {
        let slot = &self.slots[entry.pid.index()];
        slot.gen == entry.gen && matches!(slot.state, ProcState::Parked | ProcState::Holding)
    }

    /// Build the enriched deadlock report: per-process wait causes with
    /// holder states, a wait-for cycle if one exists, and (while analysis
    /// recording is on) matching trace records for the deadlock checker.
    fn deadlock_error(&self, tracer: &Tracer) -> SimError {
        let blocked: Vec<BlockedProcess> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state != ProcState::Finished)
            .map(|(i, s)| {
                let cause = s.wait.clone();
                let holder_states = cause
                    .as_ref()
                    .map(|c| {
                        c.holders
                            .iter()
                            .map(|h| {
                                let hs = &self.slots[h.index()];
                                let state = match hs.state {
                                    ProcState::Finished => "finished",
                                    ProcState::Parked => "parked",
                                    ProcState::Holding => "holding",
                                    ProcState::Ready | ProcState::Running => "runnable",
                                };
                                format!("{} ({state})", hs.name)
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                BlockedProcess {
                    pid: Pid::from_index(i),
                    name: s.name.clone(),
                    cause,
                    holder_states,
                }
            })
            .collect();
        let cycle = wait_cycle(&blocked);
        if tracer.analysis_enabled() {
            let time = self.now;
            for b in &blocked {
                let (kind, resource, holders) = match &b.cause {
                    Some(c) => (c.kind, c.resource.clone(), c.holders.clone()),
                    None => (WaitKind::Park, String::new(), Vec::new()),
                };
                tracer.record_analysis(AnalysisRecord::DeadlockWaiter {
                    time,
                    pid: b.pid,
                    process: b.name.clone(),
                    kind,
                    resource,
                    holders,
                });
            }
            tracer.record_analysis(AnalysisRecord::Deadlock {
                time,
                cycle: cycle.clone(),
            });
        }
        SimError::Deadlock { blocked, cycle }
    }
}

pub(crate) enum YieldOp {
    Hold(SimDuration),
    Park,
    ParkTimeout(SimDuration),
}

/// Shared between the engine, every process `Ctx`, and all sync primitives.
pub struct KernelShared {
    pub(crate) state: Mutex<State>,
    pub(crate) tracer: Tracer,
}

impl KernelShared {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.state.lock().now
    }

    /// Yield the running process `pid`: record `op` under the state lock,
    /// then switch to the run loop, which takes the scheduling step. Returns
    /// when a later step resumes `pid`; unwinds with [`Terminated`] when
    /// teardown resumes it instead.
    pub(crate) fn yield_process(&self, pid: Pid, op: YieldOp) -> WakeReason {
        let mut st = self.state.lock();
        if st.terminating {
            // Only reachable from a process being torn down (a destructor,
            // or code that caught the unwind): the schedule is gone, so
            // keep unwinding.
            drop(st);
            panic::panic_any(Terminated);
        }
        st.apply(pid, op);
        drop(st);
        match coro::suspend() {
            SPAWN => WakeReason::Spawn,
            TIMER => WakeReason::Timer,
            UNPARK => WakeReason::Unpark,
            _ => panic::panic_any(Terminated),
        }
    }

    /// Exit protocol for a process whose closure returned (its closure and
    /// `Ctx` already dropped): mark it finished. The run loop reclaims its
    /// stack and takes the next step.
    fn exit(&self, pid: Pid) {
        let mut st = self.state.lock();
        st.slots[pid.index()].state = ProcState::Finished;
        st.live -= 1;
    }

    /// Panic protocol: mark the process finished and record
    /// [`SimError::ProcessPanicked`] as the run's outcome. The run loop
    /// takes no further step; it tears down every other process.
    fn panicked(&self, pid: Pid, message: String) {
        let mut st = self.state.lock();
        let slot = &mut st.slots[pid.index()];
        slot.state = ProcState::Finished;
        let name = slot.name.clone();
        st.live -= 1;
        st.outcome = Some(Err(SimError::ProcessPanicked { name, message }));
    }

    pub(crate) fn spawn_process<F>(
        &self,
        name: &str,
        start_at: Option<SimTime>,
        parent: Option<Pid>,
        f: F,
    ) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        let body: Body = Box::new(f);
        let analysis = self.tracer.analysis_enabled();
        let mut state = self.state.lock();
        let pid = Pid(state.slots.len() as u32);
        // Spawn is a synchronization edge: the child inherits the parent's
        // (ticked) clock, so parent work before the spawn happens-before
        // everything the child does.
        let clock = match parent {
            Some(pp) if analysis => {
                let slot = &mut state.slots[pp.index()];
                slot.clock.tick(pp.index());
                slot.clock.clone()
            }
            _ => VClock::new(),
        };
        state.slots.push(Slot {
            name: name.to_string(),
            state: ProcState::Parked,
            token: false,
            gen: 0,
            body: Some(body),
            clock,
            wait: None,
        });
        state.live += 1;
        match start_at {
            None => state.make_ready(pid, WakeReason::Spawn),
            Some(t) => {
                let t = t.max(state.now);
                state.arm_timer(pid, t);
            }
        }
        pid
    }

    /// Take the closures of processes that never started, for the caller
    /// to drop outside the state lock (their destructors may take it).
    fn take_unstarted(&self) -> Vec<Body> {
        let mut st = self.state.lock();
        st.slots.iter_mut().filter_map(|s| s.body.take()).collect()
    }
}

/// The first Rust frame of every process, on the process's own stack: run
/// the closure under the unwind guard, then report how it ended.
fn process_main(shared: Arc<KernelShared>, pid: Pid, f: Body) {
    let ctx = Ctx::new(Arc::clone(&shared), pid);
    // The closure and the `Ctx` are both dropped inside the guard, before
    // the process leaves the schedule.
    let result = panic::catch_unwind(AssertUnwindSafe(move || {
        let mut ctx = ctx;
        f(&mut ctx);
    }));
    match result {
        Ok(()) => shared.exit(pid),
        // Orderly teardown: vanish without reporting.
        Err(payload) if payload.is::<Terminated>() => {}
        Err(payload) => shared.panicked(pid, panic_message(&*payload)),
    }
}

/// The run loop, on an engine thread: every scheduling step is taken here,
/// and every process runs as a coroutine resumed from here. Returns how
/// the run ended, with the coroutines of the processes still unfinished.
fn run_loop(shared: &Arc<KernelShared>) -> (Result<bool, SimError>, Vec<Option<Coroutine>>) {
    let mut procs: Vec<Option<Coroutine>> = Vec::new();
    let outcome = loop {
        let mut st = shared.state.lock();
        if let Some(outcome) = st.outcome.take() {
            break outcome;
        }
        let (pid, reason) = match st.dispatch(&shared.tracer) {
            Step::Run(pid, reason) => (pid, reason),
            Step::End(outcome) => break outcome,
        };
        let i = pid.index();
        if procs.len() <= i {
            procs.resize_with(st.slots.len(), || None);
        }
        let proc = match &mut procs[i] {
            Some(proc) => proc,
            unstarted => {
                let f = st.slots[i]
                    .body
                    .take()
                    .expect("unstarted process has its body");
                let shared = Arc::clone(shared);
                unstarted.insert(Coroutine::new(Box::new(move || {
                    process_main(shared, pid, f)
                })))
            }
        };
        drop(st);
        let word = match reason {
            WakeReason::Spawn => SPAWN,
            WakeReason::Timer => TIMER,
            WakeReason::Unpark => UNPARK,
        };
        if proc.resume(word) {
            procs[i] = None;
        }
    };
    (outcome, procs)
}

/// Teardown protocol, for horizon stops, deadlocks and panics: mark every
/// unfinished process finished, resume each started one with the stop
/// word so it unwinds out of its pending yield with the [`Terminated`]
/// sentinel, then drop the closures of those that never started. Every
/// process is gone when this returns.
fn terminate_all(shared: &KernelShared, procs: Vec<Option<Coroutine>>) {
    {
        let mut st = shared.state.lock();
        st.terminating = true;
        for s in st.slots.iter_mut() {
            s.state = ProcState::Finished;
        }
    }
    for mut proc in procs.into_iter().flatten() {
        let finished = proc.resume(STOP);
        assert!(finished, "a process yielded during teardown");
    }
    drop(shared.take_unstarted());
}

/// Sentinel panic payload used to unwind process stacks during teardown.
pub(crate) struct Terminated;

/// Keep the orderly [`Terminated`] unwind out of stderr: the default panic
/// hook would print a `Box<dyn Any>` backtrace for every process parked at
/// teardown (horizon stops, deadlock replays). Installed once, chaining to
/// the previous hook for every real panic.
fn install_teardown_panic_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Terminated>().is_none() {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A discrete-event simulation: spawn processes, then [`run`](Self::run).
pub struct Simulation {
    shared: Arc<KernelShared>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Create an empty simulation at `t = 0`.
    pub fn new() -> Self {
        let shared = Arc::new(KernelShared {
            state: Mutex::new(State {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                runnable: VecDeque::new(),
                slots: Vec::new(),
                live: 0,
                terminating: false,
                events: 0,
                limit: SimTime::MAX,
                oracle: None,
                outcome: None,
            }),
            tracer: Tracer::new(),
        });
        Simulation { shared }
    }

    /// Install a scheduling oracle. The oracle is consulted whenever the
    /// engine has more than one candidate — run-queue picks and same-time
    /// timer tie-breaks — and its choices fully determine the schedule.
    /// With no oracle installed the engine always takes the FIFO/arm-order
    /// default (index 0), preserving the historical behavior.
    pub fn set_oracle(&mut self, oracle: OracleHandle) {
        self.shared.state.lock().oracle = Some(oracle);
    }

    /// Handle to the shared kernel (used by sync primitives constructed
    /// outside any process).
    pub fn kernel(&self) -> Arc<KernelShared> {
        Arc::clone(&self.shared)
    }

    /// The trace recorder for this simulation (cheap to clone).
    pub fn tracer(&self) -> Tracer {
        self.shared.tracer.clone()
    }

    /// Spawn a root process that becomes runnable at `t = 0`.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, None, None, f)
    }

    /// Spawn a root process that first runs at simulated time `at`.
    pub fn spawn_at<F>(&mut self, at: SimTime, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, Some(at), None, f)
    }

    /// Run until all processes finish. Equivalent to
    /// `run_until(SimTime::MAX)` except that reaching the horizon is
    /// reported as completion.
    pub fn run(self) -> Result<Summary, SimError> {
        self.run_until(SimTime::MAX)
    }

    /// Run until all processes finish or simulated time would pass `limit`.
    ///
    /// The run loop and every process run on an engine thread taken from
    /// a process-wide pool; this thread blocks until the run is over and
    /// every process of it is gone.
    pub fn run_until(self, limit: SimTime) -> Result<Summary, SimError> {
        install_teardown_panic_filter();
        let shared = Arc::clone(&self.shared);
        pool::run(move || {
            shared.state.lock().limit = limit;
            let (result, procs) = run_loop(&shared);
            if shared.tracer.analysis_enabled() {
                // Terminal record: tells whole-trace checkers (liveness)
                // the run actually ended here rather than being dumped
                // mid-flight.
                let time = shared.state.lock().now;
                let (completed, deadlocked) = match &result {
                    Ok(c) => (*c, false),
                    Err(SimError::Deadlock { .. }) => (false, true),
                    Err(_) => (false, false),
                };
                shared.tracer.record_analysis(AnalysisRecord::RunEnd {
                    time,
                    completed,
                    deadlocked,
                });
            }
            terminate_all(&shared, procs);
            result.map(|completed| {
                let st = shared.state.lock();
                Summary {
                    end_time: st.now,
                    processes_spawned: st.slots.len(),
                    events_processed: st.events,
                    completed,
                }
            })
        })
    }
}

impl Drop for Simulation {
    /// A simulation dropped unrun drops the closures of its processes,
    /// none of which has started.
    fn drop(&mut self) {
        drop(self.shared.take_unstarted());
    }
}

/// Snapshot oracle candidates for a set of wakeable processes.
fn candidates_of(st: &State, items: impl Iterator<Item = (Pid, WakeReason)>) -> Vec<Candidate> {
    items
        .map(|(pid, reason)| {
            let slot = &st.slots[pid.index()];
            Candidate {
                pid,
                reason,
                name: slot.name.clone(),
                clock: slot.clock.clone(),
            }
        })
        .collect()
}

/// Find a wait-for cycle among blocked processes, following each process's
/// `cause.holders` edges (restricted to processes that are themselves
/// blocked). Returns the cycle with its first node repeated at the end, or
/// empty when the wait graph is acyclic.
fn wait_cycle(blocked: &[BlockedProcess]) -> Vec<Pid> {
    let holders_of = |p: Pid| -> &[Pid] {
        blocked
            .iter()
            .find(|b| b.pid == p)
            .and_then(|b| b.cause.as_ref())
            .map(|c| c.holders.as_slice())
            .unwrap_or(&[])
    };
    let is_blocked = |p: Pid| blocked.iter().any(|b| b.pid == p);
    for start in blocked {
        // Bounded DFS from each blocked process; the graph is tiny.
        let mut stack = vec![(start.pid, vec![start.pid])];
        let mut visited: Vec<Pid> = Vec::new();
        while let Some((p, path)) = stack.pop() {
            for &h in holders_of(p) {
                if !is_blocked(h) {
                    continue;
                }
                if let Some(pos) = path.iter().position(|&q| q == h) {
                    let mut cycle: Vec<Pid> = path[pos..].to_vec();
                    cycle.push(h);
                    return cycle;
                }
                if !visited.contains(&h) {
                    visited.push(h);
                    let mut next = path.clone();
                    next.push(h);
                    stack.push((h, next));
                }
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_completes_at_zero() {
        let sim = Simulation::new();
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, SimTime::ZERO);
        assert!(s.completed);
        assert_eq!(s.processes_spawned, 0);
    }

    #[test]
    fn single_process_holds_advance_clock() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            ctx.hold(SimDuration::from_millis(5));
            ctx.hold(SimDuration::from_millis(7));
            assert_eq!(ctx.now(), SimTime::from_nanos(12_000_000));
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 12.0);
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let order = Arc::new(AtomicU64::new(0));
        let mut sim = Simulation::new();
        let (o1, o2) = (order.clone(), order.clone());
        sim.spawn("a", move |ctx| {
            ctx.hold(SimDuration::from_millis(2));
            // a wakes at t=2, after b's t=1 wake.
            assert_eq!(o1.fetch_add(1, Ordering::SeqCst), 1);
        });
        sim.spawn("b", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            assert_eq!(o2.fetch_add(1, Ordering::SeqCst), 0);
        });
        sim.run().unwrap();
        assert_eq!(order.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn park_unpark_roundtrip() {
        let mut sim = Simulation::new();
        let kernel = sim.kernel();
        let target = sim.spawn("sleeper", |ctx| {
            let reason = ctx.park();
            assert_eq!(reason, WakeReason::Unpark);
            assert_eq!(ctx.now().as_millis_f64(), 3.0);
        });
        let _ = kernel;
        sim.spawn("waker", move |ctx| {
            ctx.hold(SimDuration::from_millis(3));
            ctx.unpark(target);
        });
        sim.run().unwrap();
    }

    #[test]
    fn unpark_token_is_remembered() {
        let mut sim = Simulation::new();
        let target = sim.spawn("late-parker", |ctx| {
            ctx.hold(SimDuration::from_millis(10));
            // Unpark happened at t=1 while we were holding: token redeems now.
            assert_eq!(ctx.park(), WakeReason::Unpark);
            assert_eq!(ctx.now().as_millis_f64(), 10.0);
        });
        sim.spawn("early-waker", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.unpark(target);
        });
        sim.run().unwrap();
    }

    #[test]
    fn park_timeout_fires_timer() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            let reason = ctx.park_timeout(SimDuration::from_millis(4));
            assert_eq!(reason, WakeReason::Timer);
            assert_eq!(ctx.now().as_millis_f64(), 4.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn park_timeout_unparked_early_cancels_timer() {
        let mut sim = Simulation::new();
        let target = sim.spawn("p", |ctx| {
            let reason = ctx.park_timeout(SimDuration::from_millis(100));
            assert_eq!(reason, WakeReason::Unpark);
            assert_eq!(ctx.now().as_millis_f64(), 1.0);
            // The stale timer must not wake us again.
            ctx.hold(SimDuration::from_millis(500));
        });
        sim.spawn("w", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            ctx.unpark(target);
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 501.0);
    }

    #[test]
    fn deadlock_is_reported_with_names() {
        let mut sim = Simulation::new();
        sim.spawn("stuck", |ctx| {
            ctx.park();
        });
        match sim.run() {
            Err(err @ SimError::Deadlock { .. }) => {
                assert_eq!(err.blocked_names(), vec!["stuck"]);
                let SimError::Deadlock { blocked, cycle } = &err else {
                    unreachable!()
                };
                // A bare park records no cause and forms no cycle.
                assert!(blocked[0].cause.is_none());
                assert!(cycle.is_empty());
                assert!(err.to_string().contains("no wait cause recorded"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn same_time_timers_fire_in_arm_order_by_default() {
        // Regression for timer-wheel tie-breaking: both processes hold to
        // the same instant; the one that armed its timer first must wake
        // first. This holds with and without an (FIFO-default) oracle.
        use crate::oracle::{SchedOracle, ScriptOracle};
        for with_oracle in [false, true] {
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Simulation::new();
            if with_oracle {
                sim.set_oracle(ScriptOracle::recording().into_handle());
            }
            for name in ["first", "second"] {
                let order = order.clone();
                sim.spawn(name, move |ctx| {
                    ctx.hold(SimDuration::from_millis(1));
                    order.lock().push(ctx.name());
                });
            }
            sim.run().unwrap();
            assert_eq!(
                *order.lock(),
                vec!["first".to_string(), "second".to_string()],
                "with_oracle={with_oracle}"
            );
        }
    }

    #[test]
    fn oracle_can_flip_timer_tie_break() {
        use crate::oracle::{DecisionKind, SchedOracle, ScriptOracle};
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        // Decision 0 is the t=0 run-queue pick (both spawns ready);
        // decision 1 is the t=1ms timer tie — index 1 flips it.
        let oracle = ScriptOracle::replay(vec![0, 1]);
        let log = oracle.log();
        sim.set_oracle(oracle.into_handle());
        for name in ["first", "second"] {
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                ctx.hold(SimDuration::from_millis(1));
                order.lock().push(ctx.name());
            });
        }
        sim.run().unwrap();
        assert_eq!(
            *order.lock(),
            vec!["second".to_string(), "first".to_string()]
        );
        let decisions = log.snapshot();
        assert!(decisions
            .iter()
            .any(|d| d.kind == DecisionKind::Timer && d.candidates.len() == 2));
    }

    #[test]
    fn oracle_reorders_run_queue() {
        use crate::oracle::{SchedOracle, ScriptOracle};
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        // Both spawns are ready at t=0; choosing index 1 runs "b" first.
        let oracle = ScriptOracle::replay(vec![1]);
        sim.set_oracle(oracle.into_handle());
        for name in ["a", "b"] {
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                order.lock().push(ctx.name());
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("bomb", |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            panic!("boom");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bomb");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new();
        sim.spawn("long", |ctx| {
            ctx.hold(SimDuration::from_secs(100));
        });
        let s = sim.run_until(SimTime::from_nanos(5_000)).unwrap();
        assert!(!s.completed);
        assert_eq!(s.end_time.as_nanos(), 5_000);
    }

    #[test]
    fn nested_spawn_runs_child() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |c| {
                c.hold(SimDuration::from_millis(2));
            });
            assert_eq!(child.index(), 1);
            ctx.hold(SimDuration::from_millis(5));
        });
        let s = sim.run().unwrap();
        assert_eq!(s.processes_spawned, 2);
        assert_eq!(s.end_time.as_millis_f64(), 5.0);
    }

    #[test]
    fn spawn_at_delays_first_run() {
        let mut sim = Simulation::new();
        sim.spawn_at(SimTime::from_nanos(7_000_000), "late", |ctx| {
            assert_eq!(ctx.now().as_millis_f64(), 7.0);
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_millis_f64(), 7.0);
    }

    #[test]
    fn yield_now_lets_peer_run_at_same_time() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let peer_ran = Arc::new(AtomicBool::new(false));
        let flag = peer_ran.clone();
        let mut sim = Simulation::new();
        sim.spawn("a", move |ctx| {
            ctx.yield_now();
            assert!(flag.load(Ordering::SeqCst));
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        let flag2 = peer_ran.clone();
        sim.spawn("b", move |_ctx| {
            flag2.store(true, Ordering::SeqCst);
        });
        sim.run().unwrap();
    }

    #[test]
    fn lone_yielder_is_picked_by_every_step() {
        // Every step picks the yielder itself: the clock never moves.
        let mut sim = Simulation::new();
        sim.spawn("spinner", |ctx| {
            for _ in 0..10_000 {
                ctx.yield_now();
            }
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time, SimTime::ZERO);
        assert_eq!(s.events_processed, 10_001);
    }

    #[test]
    fn exited_process_is_finished_and_its_stack_reclaimed() {
        let mut sim = Simulation::new();
        let kernel = sim.kernel();
        sim.spawn("parent", move |ctx| {
            let child = ctx.spawn("child", |c| c.hold(SimDuration::from_millis(1)));
            // The child starts (taking a stack) once this process yields.
            ctx.yield_now();
            let free = coro::free_stacks();
            ctx.hold(SimDuration::from_millis(2));
            let st = kernel.state.lock();
            let slot = &st.slots[child.index()];
            assert_eq!(slot.state, ProcState::Finished);
            assert!(slot.body.is_none());
            assert_eq!(st.live, 1);
            assert_eq!(coro::free_stacks(), free + 1, "child's stack not reclaimed");
        });
        let s = sim.run().unwrap();
        assert!(s.completed);
        assert_eq!(s.end_time.as_millis_f64(), 2.0);
        // parent: spawn + yield + timer; child: spawn + timer.
        assert_eq!(s.events_processed, 5);
    }

    #[test]
    fn sequential_processes_reuse_a_bounded_set_of_stacks() {
        // 10,000 short processes, one at a time: at most two are alive at
        // once (the spawner and its child), so at most two stacks are ever
        // mapped on the engine thread.
        let mut sim = Simulation::new();
        sim.spawn("spawner", |ctx| {
            let mapped = coro::stacks_mapped();
            for i in 0..10_000 {
                ctx.spawn(&format!("short-{i}"), |c| {
                    c.hold(SimDuration::from_nanos(1))
                });
                ctx.hold(SimDuration::from_nanos(2));
            }
            assert!(coro::stacks_mapped() - mapped <= 1, "stacks not reused");
        });
        let s = sim.run().unwrap();
        assert_eq!(s.processes_spawned, 10_001);
    }

    #[test]
    fn panic_with_peers_parked_holding_and_ready_is_reported() {
        let mut sim = Simulation::new();
        sim.spawn("parker", |ctx| {
            ctx.park();
        });
        sim.spawn("holder", |ctx| ctx.hold(SimDuration::from_secs(1)));
        sim.spawn("bomb", |ctx| {
            // Leave a peer in the run queue when the panic hits.
            ctx.spawn("ready", |c| c.hold(SimDuration::from_secs(1)));
            panic!("boom with peers");
        });
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bomb");
                assert_eq!(message, "boom with peers");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_found_inside_a_process_reports_causes_and_cycle() {
        // The last process to park takes the step that finds the deadlock.
        let mut sim = Simulation::new();
        let (a, b) = (Pid(0), Pid(1));
        sim.spawn("a", move |ctx| {
            ctx.set_wait_cause(WaitKind::Recv, "/to-a", vec![b]);
            ctx.park();
        });
        sim.spawn("b", move |ctx| {
            ctx.hold(SimDuration::from_millis(3));
            ctx.set_wait_cause(WaitKind::SemAcquire, "sem-b", vec![a]);
            ctx.park();
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, cycle }) => {
                assert_eq!(blocked.len(), 2);
                assert_eq!(
                    blocked[0].describe(),
                    "a: recv on '/to-a' (peers: b (parked))"
                );
                assert_eq!(
                    blocked[1].describe(),
                    "b: sem-acquire on 'sem-b' (peers: a (parked))"
                );
                assert_eq!(cycle, vec![a, b, a]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn horizon_stop_tears_down_peers_mid_hold() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Counts the processes whose stacks were unwound by teardown.
        struct Unwound(Arc<AtomicUsize>);
        impl Drop for Unwound {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let unwound = Arc::new(AtomicUsize::new(0));
        let mut sim = Simulation::new();
        for (i, ms) in [1u64, 4, 9, 30].into_iter().enumerate() {
            let guard = Unwound(unwound.clone());
            sim.spawn(&format!("h{i}"), move |ctx| {
                let _guard = guard;
                loop {
                    ctx.hold(SimDuration::from_millis(ms));
                }
            });
        }
        sim.spawn("parked", |ctx| {
            ctx.park();
        });
        let s = sim.run_until(SimTime::from_nanos(10_000_000)).unwrap();
        assert!(!s.completed);
        assert_eq!(s.end_time.as_millis_f64(), 10.0);
        // 5 spawns + timer wakes at 1..=10 (10), 4 and 8 (2), and 9 (1).
        assert_eq!(s.events_processed, 18);
        // run_until waited for every torn-down process before returning.
        assert_eq!(unwound.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn fan_out_of_4096_processes_completes() {
        const N: u64 = 4096;
        let mut sim = Simulation::new();
        for i in 0..N {
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.hold(SimDuration::from_micros(i % 7));
                ctx.hold(SimDuration::from_micros(1));
            });
        }
        let s = sim.run().unwrap();
        assert!(s.completed);
        assert_eq!(s.processes_spawned, N as usize);
        assert_eq!(s.end_time.as_nanos(), 7_000);
        assert_eq!(s.events_processed, 3 * N);
    }

    #[test]
    fn dropping_unran_simulation_drops_its_closures() {
        let kept = Arc::new(());
        let mut sim = Simulation::new();
        let held = Arc::clone(&kept);
        sim.spawn("never-run", move |ctx| {
            let _held = held;
            ctx.park();
        });
        drop(sim);
        assert_eq!(
            Arc::strong_count(&kept),
            1,
            "closure outlived its simulation"
        );
    }
}
