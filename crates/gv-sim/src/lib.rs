//! # gv-sim — deterministic discrete-event simulation kernel
//!
//! The execution substrate for the GPU-virtualization reproduction: a
//! SimPy-style process-oriented discrete-event simulator. Simulation
//! *processes* are ordinary Rust closures, each run as a stackful coroutine
//! on a stack of its own. One run loop on one engine thread takes every
//! scheduling step and resumes the process it picks; a process that yields
//! switches back to the loop in user space, with no kernel context switch.
//! Exactly one process runs at a time, so execution is deterministic and
//! all shared state is effectively single-threaded. See [`kernel`].
//!
//! ```
//! use gv_sim::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new();
//! sim.spawn("worker", |ctx| {
//!     ctx.hold(SimDuration::from_millis(10));
//!     assert_eq!(ctx.now().as_millis_f64(), 10.0);
//! });
//! let summary = sim.run().unwrap();
//! assert_eq!(summary.end_time.as_millis_f64(), 10.0);
//! ```
//!
//! Modules:
//! * [`time`] — `SimTime` / `SimDuration` (nanosecond clock)
//! * [`kernel`] — the engine ([`Simulation`]): run loop, scheduling step,
//!   process lifecycle and teardown
//! * [`process`] — the per-process handle ([`Ctx`])
//! * [`sync`] — semaphores, condition queues, barriers, gates
//! * [`channel`] — blocking MPMC channels
//! * [`resource`] — FIFO servers with utilization accounting
//! * [`trace`] — timeline recording for overlap audits
//! * [`clock`] — vector clocks for happens-before analysis
//! * [`oracle`] — pluggable scheduling oracles (record / replay / explore)

#![warn(missing_docs)]

pub mod channel;
pub mod clock;
mod coro;
pub mod kernel;
pub mod oracle;
mod pool;
pub mod process;
pub mod resource;
pub mod sync;
pub mod time;
pub mod trace;

pub use channel::{RecvTimeout, SendError, SimChannel};
pub use clock::{happens_before, VClock};
pub use kernel::{
    BlockedProcess, Pid, SimError, Simulation, Summary, WaitCause, WaitKind, WakeReason,
};
pub use oracle::{
    Candidate, Decision, DecisionKind, DecisionLog, OracleHandle, RandomOracle, SchedOracle,
    ScriptOracle,
};
pub use process::Ctx;
pub use resource::FifoServer;
pub use sync::{CondQueue, Gate, Semaphore, SimBarrier};
pub use time::{SimDuration, SimTime};
pub use trace::{AnalysisRecord, Span, SpanIssue, TraceEvent, TraceKind, Tracer, FAULT_CATEGORY};
