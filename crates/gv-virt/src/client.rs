//! The user-process API layer: the Virtual GPU view.
//!
//! A [`VgpuClient`] is what an SPMD process links against instead of the
//! CUDA runtime: `REQ()`, `SND()`, `STR()`, `STP()`, `RCV()`, `RLS()`
//! exactly as in the paper's Fig. 8, plus [`run_task`](VgpuClient::run_task)
//! which performs the whole cycle and reports the Fig. 3 phase timestamps.
//!
//! Two client tiers coexist:
//!
//! * the legacy infallible methods (`req`, `snd`, …) assume a fault-free
//!   transport and panic on protocol violations — identical to the seed
//!   behavior, used by every timing experiment;
//! * the `try_*` methods drive the same protocol under a [`ClientPolicy`]:
//!   responses are awaited with a deadline, lost messages are retried with
//!   exponential backoff (sequence numbers make retries idempotent on the
//!   GVM side), and a `NAK` or exhausted retry budget surfaces as a
//!   [`TaskError`] instead of a deadlock.

use std::cell::{Cell, RefCell};

use gv_ipc::{MessageQueue, SharedMem};
use gv_mem::{Span, StagingDescriptor};
use gv_sim::{Ctx, RecvTimeout, SimDuration};

use crate::gvm::GvmHandle;
use crate::protocol::{
    NakReason, Request, RequestKind, Response, ResponseKind, TaskRun, STP_POLL_INITIAL,
    STP_POLL_MAX,
};

/// Backoff before the first retry of a timed-out request; doubles per
/// retry up to [`RETRY_BACKOFF_MAX`].
const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(100);

/// Retry backoff cap.
const RETRY_BACKOFF_MAX: SimDuration = SimDuration::from_millis(8);

/// Fault-handling policy for one client. The default waits forever and
/// never retries (the legacy fault-free behavior).
#[derive(Debug, Clone, Default)]
pub struct ClientPolicy {
    /// How long to wait for each response before retrying. `None` waits
    /// forever (the legacy fault-free behavior).
    pub response_timeout: Option<SimDuration>,
    /// How many times to re-send a request after a timeout before giving
    /// up with [`TaskError::TimedOut`].
    pub max_retries: u32,
}

impl ClientPolicy {
    /// A policy that retries lost messages: per-response deadline
    /// `timeout`, up to `max_retries` re-sends with exponential backoff.
    pub fn with_timeout(timeout: SimDuration, max_retries: u32) -> Self {
        ClientPolicy {
            response_timeout: Some(timeout),
            max_retries,
        }
    }
}

/// Why a fault-aware protocol call gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskError {
    /// No response arrived within the retry budget.
    TimedOut {
        /// Stage whose response never came.
        stage: RequestKind,
    },
    /// The GVM answered `NAK`: this rank was evicted or refused.
    Rejected {
        /// Stage that was refused.
        stage: RequestKind,
        /// Why the GVM refused it.
        reason: NakReason,
    },
    /// The response queue closed while waiting (GVM gone).
    Disconnected {
        /// Stage in flight when the queue closed.
        stage: RequestKind,
    },
    /// This client was scripted (via [`VgpuClient::abort_at`]) to abandon
    /// the protocol at this stage — models a crashed/killed SPMD process.
    Aborted {
        /// Stage at which the client walked away.
        stage: RequestKind,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::TimedOut { stage } => {
                write!(f, "timed out waiting for {} response", stage.label())
            }
            TaskError::Rejected { stage, reason } => {
                write!(f, "{} rejected by GVM ({})", stage.label(), reason.label())
            }
            TaskError::Disconnected { stage } => {
                write!(f, "GVM disconnected during {}", stage.label())
            }
            TaskError::Aborted { stage } => write!(f, "client aborted at {}", stage.label()),
        }
    }
}

impl std::error::Error for TaskError {}

/// A process's connection to the GVM.
pub struct VgpuClient {
    rank: usize,
    handle: GvmHandle,
    req: MessageQueue<Request>,
    resp: MessageQueue<Response>,
    shm: SharedMem,
    policy: ClientPolicy,
    abort_stage: Option<RequestKind>,
    seq: Cell<u64>,
    /// Zero-copy transport: the staging-lease grant received on the `REQ`
    /// `ACK`, presented back on every `SND`. `None` on the staged path.
    desc: Cell<Option<StagingDescriptor>>,
    /// Reusable span scratch so steady-state `SND`/`RCV` plan without
    /// allocating.
    spans: RefCell<Vec<Span>>,
    /// Rounds whose `SND` was acknowledged — the round index the *next*
    /// `SND` stages, so shaped sessions
    /// ([`GpuTask::round_bytes_in`](gv_kernels::GpuTask::round_bytes_in))
    /// write each round's own input size into shm.
    snds_sent: Cell<u32>,
}

impl VgpuClient {
    /// Connect rank `rank` to a GVM with the default (legacy, infinite
    /// patience) policy. Blocks until the GVM is initialized (its
    /// resources exist only after boot).
    pub fn connect(ctx: &mut Ctx, handle: &GvmHandle, rank: usize) -> VgpuClient {
        Self::connect_with_policy(ctx, handle, rank, ClientPolicy::default())
    }

    /// Connect with an explicit fault-handling policy.
    pub fn connect_with_policy(
        ctx: &mut Ctx,
        handle: &GvmHandle,
        rank: usize,
        policy: ClientPolicy,
    ) -> VgpuClient {
        handle.ready.wait(ctx);
        let req = handle
            .req_mq
            .open(&handle.endpoints.request_queue())
            .expect("GVM request queue exists after ready");
        let resp = handle
            .resp_mq
            .open(&handle.endpoints.response_queue(rank))
            .expect("GVM response queue exists after ready");
        let shm = handle
            .shm
            .open(&handle.endpoints.shm(rank))
            .expect("GVM shm exists after ready");
        VgpuClient {
            rank,
            handle: handle.clone(),
            req,
            resp,
            shm,
            policy,
            abort_stage: None,
            seq: Cell::new(0),
            desc: Cell::new(None),
            spans: RefCell::new(Vec::new()),
            snds_sent: Cell::new(0),
        }
    }

    /// This client's SPMD rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Script this client to abandon the protocol when it reaches `stage`:
    /// the stage's request is never sent (for `SND`, the shm staging write
    /// is skipped too) and the `try_*` flow returns
    /// [`TaskError::Aborted`]. Models a crashed SPMD process.
    pub fn abort_at(&mut self, stage: RequestKind) {
        self.abort_stage = Some(stage);
    }

    /// Sequence number of the most recent request sent.
    pub fn last_seq(&self) -> u64 {
        self.seq.get()
    }

    /// The staging-lease grant this client currently holds (`None` until
    /// a zero-copy `REQ` is acknowledged, and always on the staged path).
    pub fn descriptor(&self) -> Option<StagingDescriptor> {
        self.desc.get()
    }

    /// One fault-aware protocol exchange: send `kind`, await the matching
    /// response within the policy's deadline, re-send on timeout with
    /// exponential backoff. Stale responses (sequence number below the
    /// current request's — answers to sends we already gave up on) are
    /// discarded without consuming the retry budget.
    fn try_call(&self, ctx: &mut Ctx, kind: RequestKind) -> Result<ResponseKind, TaskError> {
        if self.abort_stage == Some(kind) {
            return Err(TaskError::Aborted { stage: kind });
        }
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        let msg = Request {
            rank: self.rank,
            kind,
            seq,
            // The descriptor rides only on SND — the stage that consumes
            // the lease window. A stale grant is the GVM's to refuse.
            desc: if kind == RequestKind::Snd {
                self.desc.get()
            } else {
                None
            },
        };
        let mut backoff = RETRY_BACKOFF;
        let mut sends = 0u32;
        loop {
            self.req
                .send(ctx, msg)
                .map_err(|_| TaskError::Disconnected { stage: kind })?;
            sends += 1;
            let deadline = self.policy.response_timeout.map(|t| ctx.now() + t);
            loop {
                let got = match deadline {
                    None => match self.resp.recv(ctx) {
                        Some(r) => r,
                        None => return Err(TaskError::Disconnected { stage: kind }),
                    },
                    Some(d) => {
                        let left = d.duration_since(ctx.now());
                        match self.resp.recv_timeout(ctx, left) {
                            RecvTimeout::Msg(r) => r,
                            RecvTimeout::Closed => {
                                return Err(TaskError::Disconnected { stage: kind })
                            }
                            RecvTimeout::TimedOut => break,
                        }
                    }
                };
                if got.seq != 0 && got.seq < seq {
                    continue; // stale answer to an abandoned send
                }
                // A response carrying a staging-lease grant (the REQ ACK
                // on the zero-copy path) updates the stored descriptor.
                if got.desc.is_some() {
                    self.desc.set(got.desc);
                }
                return match got.kind {
                    ResponseKind::Nak(reason) => Err(TaskError::Rejected {
                        stage: kind,
                        reason,
                    }),
                    other => Ok(other),
                };
            }
            if sends > self.policy.max_retries {
                return Err(TaskError::TimedOut { stage: kind });
            }
            ctx.hold(backoff);
            backoff = next_backoff(backoff, RETRY_BACKOFF_MAX);
        }
    }

    fn call(&self, ctx: &mut Ctx, kind: RequestKind) -> ResponseKind {
        self.try_call(ctx, kind)
            .unwrap_or_else(|e| panic!("GVM protocol failure: {e}"))
    }

    /// `REQ()`: request VGPU resources.
    pub fn req(&self, ctx: &mut Ctx) {
        let r = self.call(ctx, RequestKind::Req);
        debug_assert_eq!(r, ResponseKind::Ack);
    }

    /// Fault-aware `REQ()`.
    pub fn try_req(&self, ctx: &mut Ctx) -> Result<(), TaskError> {
        self.try_call(ctx, RequestKind::Req).map(|_| ())
    }

    /// `SND()`: stage this rank's input into virtual shared memory (the
    /// client-side copy), then ask the GVM to move it to pinned memory.
    pub fn snd(&self, ctx: &mut Ctx) {
        self.try_snd(ctx)
            .unwrap_or_else(|e| panic!("GVM protocol failure: {e}"));
    }

    /// Fault-aware `SND()`. An abort scripted at `SND` fires before the
    /// staging write, like a process dying before it produced its input.
    pub fn try_snd(&self, ctx: &mut Ctx) -> Result<(), TaskError> {
        if self.abort_stage == Some(RequestKind::Snd) {
            return Err(TaskError::Aborted {
                stage: RequestKind::Snd,
            });
        }
        let task = self.handle.task(self.rank);
        let bytes_in = task.bytes_in_for_round(self.snds_sent.get());
        if bytes_in > 0 {
            // Span-wise, mirroring the GVM's staging plan: under chunked
            // pipelining the input lands in shm in the same tiles the GVM
            // will stage, with the single-span plan degenerating to the
            // whole-payload write. On the zero-copy path the segment is
            // backed by the GVM's pinned lease, so this write *is* the
            // staging copy — the GVM never touches the bytes again before
            // H2D. The span scratch is reused so steady-state SNDs do not
            // allocate.
            let mut spans = self.spans.borrow_mut();
            self.handle
                .config
                .mem
                .pipeline
                .plan_into(bytes_in, &mut spans);
            for span in spans.iter() {
                match &task.input {
                    Some(data) => self
                        .shm
                        .write(
                            ctx,
                            span.offset,
                            &data[span.offset as usize..(span.offset + span.len) as usize],
                        )
                        .expect("input fits the shm segment"),
                    None => self
                        .shm
                        .touch(ctx, span.offset, span.len, true)
                        .expect("input size fits the shm segment"),
                }
            }
        }
        self.try_call(ctx, RequestKind::Snd)?;
        self.snds_sent.set(self.snds_sent.get() + 1);
        Ok(())
    }

    /// `STR()`: start execution. Blocks until all ranks reached this point
    /// (the GVM's barrier) and the streams were flushed.
    pub fn str(&self, ctx: &mut Ctx) {
        let r = self.call(ctx, RequestKind::Str);
        debug_assert_eq!(r, ResponseKind::Ack);
    }

    /// Fault-aware `STR()`.
    pub fn try_str(&self, ctx: &mut Ctx) -> Result<(), TaskError> {
        self.try_call(ctx, RequestKind::Str).map(|_| ())
    }

    /// `STP()` poll loop: query status with exponential backoff until the
    /// GVM acknowledges completion ("If(WAIT), resends STP").
    pub fn stp_until_done(&self, ctx: &mut Ctx) {
        self.try_stp_until_done(ctx)
            .unwrap_or_else(|e| panic!("GVM protocol failure: {e}"));
    }

    /// Fault-aware `STP()` poll loop.
    pub fn try_stp_until_done(&self, ctx: &mut Ctx) -> Result<(), TaskError> {
        let mut backoff = STP_POLL_INITIAL;
        loop {
            match self.try_call(ctx, RequestKind::Stp)? {
                ResponseKind::Ack => return Ok(()),
                _ => {
                    ctx.hold(backoff);
                    backoff = next_backoff(backoff, STP_POLL_MAX);
                }
            }
        }
    }

    /// `RCV()`: ask the GVM to copy results into shared memory, then read
    /// them out (the client-side copy). Returns the bytes for functional
    /// tasks, `None` for timing-only tasks, whose read only charges its
    /// time.
    pub fn rcv(&self, ctx: &mut Ctx) -> Option<Vec<u8>> {
        self.try_rcv(ctx)
            .unwrap_or_else(|e| panic!("GVM protocol failure: {e}"))
    }

    /// Fault-aware `RCV()`.
    pub fn try_rcv(&self, ctx: &mut Ctx) -> Result<Option<Vec<u8>>, TaskError> {
        let task = self.handle.task(self.rank);
        self.try_call(ctx, RequestKind::Rcv)?;
        if task.bytes_out == 0 {
            return Ok(None);
        }
        // On the zero-copy path the RCV ACK means the results already sit
        // in the lease-backed segment (the GVM's final-iteration D2H wrote
        // them there); this read is the only result copy. On the staged
        // path it reads what the GVM's pinned→shm copy produced.
        let mut spans = self.spans.borrow_mut();
        self.handle
            .config
            .mem
            .pipeline
            .plan_into(task.bytes_out, &mut spans);
        if !task.is_functional() {
            for span in spans.iter() {
                self.shm
                    .touch(ctx, span.offset, span.len, false)
                    .expect("output fits the shm segment");
            }
            return Ok(None);
        }
        // The spans tile `[0, bytes_out)`, so each lands at its own offset.
        let mut bytes = vec![0u8; task.bytes_out as usize];
        for span in spans.iter() {
            let range = span.offset as usize..(span.offset + span.len) as usize;
            self.shm
                .read_into(ctx, span.offset, &mut bytes[range])
                .expect("output fits the shm segment");
        }
        Ok(Some(bytes))
    }

    /// `RLS()`: release VGPU resources.
    pub fn rls(&self, ctx: &mut Ctx) {
        let r = self.call(ctx, RequestKind::Rls);
        debug_assert_eq!(r, ResponseKind::Ack);
    }

    /// Fault-aware `RLS()`.
    pub fn try_rls(&self, ctx: &mut Ctx) -> Result<(), TaskError> {
        self.try_call(ctx, RequestKind::Rls).map(|_| ())
    }

    /// Run `rounds` back-to-back execution cycles under one resource
    /// acquisition: REQ once, then rounds × (SND → STR → STP* → RCV), then
    /// RLS — how an iterating SPMD program uses its VGPU. Returns the last
    /// round's timestamps and output. All ranks must use the same round
    /// count (each STR barriers across the group).
    pub fn run_rounds(&self, ctx: &mut Ctx, rounds: u32) -> (TaskRun, Option<Vec<u8>>) {
        self.try_run_rounds(ctx, rounds)
            .unwrap_or_else(|e| panic!("GVM protocol failure: {e}"))
    }

    /// Fault-aware multi-round cycle.
    pub fn try_run_rounds(
        &self,
        ctx: &mut Ctx,
        rounds: u32,
    ) -> Result<(TaskRun, Option<Vec<u8>>), TaskError> {
        assert!(rounds >= 1);
        let steady = self.handle.config.mem.pipeline.steady;
        let start = ctx.now();
        self.try_req(ctx)?;
        let init_done = ctx.now();
        let mut last = None;
        let mut sent_next = false;
        for round in 0..rounds {
            if !sent_next {
                self.try_snd(ctx)?;
            }
            let data_in_done = ctx.now();
            self.try_str(ctx)?;
            // Steady-state overlap: hand next round's input to the GVM
            // right after this round's flush ACK, before settling into the
            // STP poll — the GVM stages (and pre-issues) it while this
            // round's compute and D2H still occupy the device.
            sent_next = false;
            if steady && round + 1 < rounds {
                self.try_snd(ctx)?;
                sent_next = true;
            }
            self.try_stp_until_done(ctx)?;
            let comp_done = ctx.now();
            let output = self.try_rcv(ctx)?;
            let data_out_done = ctx.now();
            last = Some((data_in_done, comp_done, data_out_done, output));
        }
        self.try_rls(ctx)?;
        let end = ctx.now();
        let (data_in_done, comp_done, data_out_done, output) = last.expect("at least one round");
        Ok((
            TaskRun {
                rank: self.rank,
                start,
                init_done,
                data_in_done,
                comp_done,
                data_out_done,
                end,
            },
            output,
        ))
    }

    /// The full execution cycle (paper Fig. 8 right column): REQ → SND →
    /// STR → STP* → RCV → RLS, with Fig. 3 phase timestamps.
    pub fn run_task(&self, ctx: &mut Ctx) -> (TaskRun, Option<Vec<u8>>) {
        self.run_rounds(ctx, 1)
    }

    /// Fault-aware full cycle.
    pub fn try_run_task(&self, ctx: &mut Ctx) -> Result<(TaskRun, Option<Vec<u8>>), TaskError> {
        self.try_run_rounds(ctx, 1)
    }
}

impl std::fmt::Debug for VgpuClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VgpuClient")
            .field("rank", &self.rank)
            .field("gvm", &self.handle.endpoints.gvm)
            .finish()
    }
}

/// Client-side poll hold: exported for tests that emulate partial flows.
pub fn next_backoff(current: SimDuration, max: SimDuration) -> SimDuration {
    (current * 2).min(max)
}
