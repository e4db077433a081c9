//! The process-side handle, [`Ctx`].
//!
//! A `Ctx` is handed to every process closure. All blocking operations
//! (`hold`, `park`, `park_timeout`) are yields: the process records what it
//! waits for and switches from its own stack to the run loop, which takes
//! the scheduling step and resumes whichever process it picks (possibly
//! this one again). All other
//! operations mutate shared kernel state directly and return without
//! yielding, so a process observes no interleaving between two consecutive
//! non-yielding calls.

use std::sync::Arc;

use crate::clock::VClock;
use crate::kernel::{KernelShared, Pid, WaitCause, WaitKind, WakeReason, YieldOp};
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;

/// Per-process simulation context: the handle through which a process
/// observes and advances simulated time.
pub struct Ctx {
    shared: Arc<KernelShared>,
    pid: Pid,
}

impl Ctx {
    pub(crate) fn new(shared: Arc<KernelShared>, pid: Pid) -> Self {
        Ctx { shared, pid }
    }

    fn do_yield(&mut self, op: YieldOp) -> WakeReason {
        self.shared.yield_process(self.pid, op)
    }

    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's name.
    pub fn name(&self) -> String {
        self.shared.state.lock().slots[self.pid.index()]
            .name
            .clone()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// The trace recorder shared by the whole simulation.
    pub fn tracer(&self) -> &Tracer {
        &self.shared.tracer
    }

    /// Advance simulated time by `d`. Unparks received while holding are
    /// remembered as a token for the next `park`.
    pub fn hold(&mut self, d: SimDuration) {
        let reason = self.do_yield(YieldOp::Hold(d));
        debug_assert_eq!(reason, WakeReason::Timer);
    }

    /// Advance simulated time to `at` (no-op if `at` is in the past).
    pub fn hold_until(&mut self, at: SimTime) {
        let now = self.now();
        if at > now {
            self.hold(at.duration_since(now));
        }
    }

    /// Yield to any other process runnable at the current instant.
    pub fn yield_now(&mut self) {
        self.hold(SimDuration::ZERO);
    }

    /// Block until another process unparks us (or immediately, consuming
    /// the token, if an unpark is already pending).
    pub fn park(&mut self) -> WakeReason {
        self.do_yield(YieldOp::Park)
    }

    /// Like [`park`](Self::park) but also wakes after `d`; the return value
    /// distinguishes the two causes.
    pub fn park_timeout(&mut self, d: SimDuration) -> WakeReason {
        self.do_yield(YieldOp::ParkTimeout(d))
    }

    /// Record why this process is about to block. Sync primitives call this
    /// right before parking so a deadlock report can explain each stuck
    /// process (wait kind, resource, and the peers that could unblock it).
    /// The cause is cleared automatically on the next wake.
    pub fn set_wait_cause(&self, kind: WaitKind, resource: impl Into<String>, holders: Vec<Pid>) {
        let mut st = self.shared.state.lock();
        st.set_wait_cause(
            self.pid,
            WaitCause {
                kind,
                resource: resource.into(),
                holders,
            },
        );
    }

    /// Wake `pid` if parked; otherwise leave it a wake token.
    ///
    /// While analysis recording is on, an unpark is also a happens-before
    /// edge from this process to `pid` (clock propagation).
    pub fn unpark(&self, pid: Pid) {
        let mut st = self.shared.state.lock();
        if self.shared.tracer.analysis_enabled() {
            st.propagate_clock(self.pid, pid);
        }
        st.unpark(pid);
    }

    /// Tick this process's vector clock and return a snapshot, or `None`
    /// while analysis recording is off. Used by channels to stamp messages.
    pub fn clock_stamp(&self) -> Option<VClock> {
        if !self.shared.tracer.analysis_enabled() {
            return None;
        }
        let mut st = self.shared.state.lock();
        let slot = &mut st.slots[self.pid.index()];
        slot.clock.tick(self.pid.index());
        Some(slot.clock.clone())
    }

    /// Join `clock` into this process's vector clock (receive-side half of
    /// a synchronization edge). No-op while analysis recording is off.
    pub fn clock_join(&self, clock: &VClock) {
        if !self.shared.tracer.analysis_enabled() {
            return;
        }
        let mut st = self.shared.state.lock();
        st.slots[self.pid.index()].clock.join(clock);
    }

    /// Spawn a child process, runnable at the current instant (it runs only
    /// once this process yields). The child inherits this process's clock
    /// (spawn is a happens-before edge).
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, None, Some(self.pid), f)
    }

    /// Spawn a child process that first runs at simulated time `at`.
    pub fn spawn_at<F>(&self, at: SimTime, name: &str, f: F) -> Pid
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_process(name, Some(at), Some(self.pid), f)
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("now", &self.now())
            .finish()
    }
}
