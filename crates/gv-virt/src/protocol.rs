//! The GVM wire protocol (paper Fig. 8).
//!
//! User processes talk to the GPU Virtualization Manager through two POSIX
//! message queues: a shared *request* queue into the GVM and a per-process
//! *response* queue back. The request vocabulary is exactly the paper's:
//!
//! | Message | Meaning |
//! |---------|---------|
//! | `REQ`   | request VGPU resources for this process |
//! | `SND`   | GPU input data is in my virtual shared memory — stage it |
//! | `STR`   | start executing my GPU program (barrier across all processes) |
//! | `STP`   | query execution status (`ACK` done / `WAIT` still running) |
//! | `RCV`   | copy my results back into my virtual shared memory |
//! | `RLS`   | release my VGPU resources |

use gv_mem::StagingDescriptor;
use gv_sim::{SimDuration, SimTime};

/// Client `STP` poll backoff: the first wait after a `WAIT` answer. Each
/// further `WAIT` doubles it, up to [`STP_POLL_MAX`]. The VGPU client and
/// the remote-GPU client share this shape.
pub(crate) const STP_POLL_INITIAL: SimDuration = SimDuration::from_micros(50);

/// Client `STP` poll backoff cap.
pub(crate) const STP_POLL_MAX: SimDuration = SimDuration::from_millis(4);

/// Request kinds a user process can send (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Request VGPU resources.
    Req,
    /// Input staged in virtual shared memory; copy to pinned.
    Snd,
    /// Start execution (GVM barriers until all processes send this).
    Str,
    /// Status query.
    Stp,
    /// Retrieve results into virtual shared memory.
    Rcv,
    /// Release resources.
    Rls,
}

impl RequestKind {
    /// Every protocol stage, in cycle order.
    pub const ALL: [RequestKind; 6] = [
        RequestKind::Req,
        RequestKind::Snd,
        RequestKind::Str,
        RequestKind::Stp,
        RequestKind::Rcv,
        RequestKind::Rls,
    ];

    /// The paper's wire mnemonic, e.g. `"STR"`.
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::Req => "REQ",
            RequestKind::Snd => "SND",
            RequestKind::Str => "STR",
            RequestKind::Stp => "STP",
            RequestKind::Rcv => "RCV",
            RequestKind::Rls => "RLS",
        }
    }

    /// Parse a wire mnemonic produced by [`label`](Self::label).
    pub fn from_label(s: &str) -> Option<RequestKind> {
        RequestKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// A request message: sender rank + kind + per-client sequence number.
///
/// The sequence number makes client retries safe: a GVM that already served
/// `(rank, seq)` re-sends its previous answer instead of re-executing the
/// stage (a retried `STR` must not enter the barrier twice, a retried `RLS`
/// must not release twice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// SPMD rank of the sender.
    pub rank: usize,
    /// What is being asked.
    pub kind: RequestKind,
    /// Per-client monotone sequence number (starts at 1; 0 = unsequenced
    /// legacy traffic, never deduplicated).
    pub seq: u64,
    /// Zero-copy transport: the staging descriptor this `SND` presents
    /// back to the GVM (the grant received at `REQ`). `None` on every
    /// other stage and on the staged-copy path.
    pub desc: Option<StagingDescriptor>,
}

impl Request {
    /// A descriptor-less request (the staged-copy wire format).
    pub fn new(rank: usize, kind: RequestKind, seq: u64) -> Request {
        Request {
            rank,
            kind,
            seq,
            desc: None,
        }
    }
}

/// Why the GVM permanently rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NakReason {
    /// The rank was (or is being) evicted from the session.
    Evicted,
    /// Device memory could not be provided even after demand-swapping.
    Oom,
    /// The session's device-memory demand exceeds its admission quota;
    /// the GVM never silently exceeds a quota.
    OverQuota,
    /// The `SND` presented a staging descriptor whose generation no
    /// longer matches the lease (the lease was recycled or retired since
    /// the grant); writing through it would alias another rank's buffer.
    Stale,
    /// The request broke the stage order — e.g. `STR` before the rank's
    /// `SND`, or `RCV` before any flush — so there is nothing to serve.
    Protocol,
}

impl NakReason {
    /// Short diagnostic label, e.g. `"over-quota"`.
    pub fn label(self) -> &'static str {
        match self {
            NakReason::Evicted => "evicted",
            NakReason::Oom => "oom",
            NakReason::OverQuota => "over-quota",
            NakReason::Stale => "stale-descriptor",
            NakReason::Protocol => "protocol",
        }
    }
}

/// What the GVM answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// Request completed.
    Ack,
    /// Execution still in progress (answer to `STP` only).
    Wait,
    /// Request permanently rejected — the rank was evicted, its resources
    /// could not be provided, or its quota was exceeded; retrying is
    /// pointless. Carries the reason for client-side reporting.
    Nak(NakReason),
}

/// A response message from the GVM, echoing the request's sequence number
/// so clients can discard stale answers after a timeout-and-retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Sequence number of the request being answered.
    pub seq: u64,
    /// The answer.
    pub kind: ResponseKind,
    /// Zero-copy transport: the staging-lease grant handed out at `REQ`
    /// `ACK` time. The client writes its payload through this window and
    /// presents the descriptor back on `SND`. `None` everywhere else.
    pub desc: Option<StagingDescriptor>,
}

impl Response {
    /// An `ACK` for request `seq`.
    pub fn ack(seq: u64) -> Response {
        Response {
            seq,
            kind: ResponseKind::Ack,
            desc: None,
        }
    }

    /// A `WAIT` for request `seq`.
    pub fn wait(seq: u64) -> Response {
        Response {
            seq,
            kind: ResponseKind::Wait,
            desc: None,
        }
    }

    /// An eviction `NAK` for request `seq`.
    pub fn nak(seq: u64) -> Response {
        Response::nak_reason(seq, NakReason::Evicted)
    }

    /// A `NAK` for request `seq` carrying an explicit reason.
    pub fn nak_reason(seq: u64, reason: NakReason) -> Response {
        Response {
            seq,
            kind: ResponseKind::Nak(reason),
            desc: None,
        }
    }

    /// `self` carrying a staging-lease grant.
    pub fn with_desc(self, desc: StagingDescriptor) -> Response {
        Response {
            desc: Some(desc),
            ..self
        }
    }
}

/// Shared-memory and queue names, derived from a GVM instance name so
/// several GVMs can coexist in one simulation.
#[derive(Debug, Clone)]
pub struct Endpoints {
    /// GVM instance name.
    pub gvm: String,
}

impl Endpoints {
    /// Endpoints for a GVM instance called `gvm`.
    pub fn new(gvm: &str) -> Self {
        Endpoints {
            gvm: gvm.to_string(),
        }
    }

    /// Name of the shared request queue.
    pub fn request_queue(&self) -> String {
        format!("/{}-req", self.gvm)
    }

    /// Name of rank `r`'s response queue.
    pub fn response_queue(&self, r: usize) -> String {
        format!("/{}-resp-{r}", self.gvm)
    }

    /// Name of rank `r`'s virtual shared memory segment.
    pub fn shm(&self, r: usize) -> String {
        format!("/{}-shm-{r}", self.gvm)
    }
}

/// Timestamps of one task execution as observed by the client process,
/// aligned with the paper's Fig. 3 execution-cycle stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRun {
    /// SPMD rank.
    pub rank: usize,
    /// Process start (before any GPU initialization).
    pub start: SimTime,
    /// After initialization (context creation / `REQ` acknowledged).
    pub init_done: SimTime,
    /// After input data reached the device path (`SND` acknowledged /
    /// synchronous H2D returned).
    pub data_in_done: SimTime,
    /// After kernel execution finished (`STP` acknowledged / stream sync).
    pub comp_done: SimTime,
    /// After results returned to the process.
    pub data_out_done: SimTime,
    /// After resource release.
    pub end: SimTime,
}

impl TaskRun {
    /// `Tinit` for this process.
    pub fn t_init(&self) -> f64 {
        self.init_done.duration_since(self.start).as_millis_f64()
    }

    /// `Tdata_in` for this process.
    pub fn t_data_in(&self) -> f64 {
        self.data_in_done
            .duration_since(self.init_done)
            .as_millis_f64()
    }

    /// `Tcomp` for this process.
    pub fn t_comp(&self) -> f64 {
        self.comp_done
            .duration_since(self.data_in_done)
            .as_millis_f64()
    }

    /// `Tdata_out` for this process.
    pub fn t_data_out(&self) -> f64 {
        self.data_out_done
            .duration_since(self.comp_done)
            .as_millis_f64()
    }

    /// Whole-cycle duration for this process.
    pub fn total(&self) -> f64 {
        self.end.duration_since(self.start).as_millis_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_sim::SimDuration;

    #[test]
    fn request_kind_labels_roundtrip() {
        for kind in RequestKind::ALL {
            assert_eq!(RequestKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(RequestKind::from_label("NOP"), None);
    }

    #[test]
    fn response_constructors_carry_seq() {
        assert_eq!(Response::ack(7).kind, ResponseKind::Ack);
        assert_eq!(Response::wait(7).seq, 7);
        assert_eq!(
            Response::nak(9),
            Response {
                seq: 9,
                kind: ResponseKind::Nak(NakReason::Evicted),
                desc: None,
            }
        );
        assert_eq!(
            Response::nak_reason(9, NakReason::OverQuota).kind,
            ResponseKind::Nak(NakReason::OverQuota)
        );
    }

    #[test]
    fn descriptor_rides_the_wire() {
        let desc = StagingDescriptor {
            segment: 3,
            offset: 0,
            len: 64,
            generation: 2,
        };
        let granted = Response::ack(5).with_desc(desc);
        assert_eq!(granted.desc, Some(desc));
        assert_eq!(granted.kind, ResponseKind::Ack);
        assert_eq!(Request::new(1, RequestKind::Snd, 2).desc, None);
        assert_eq!(NakReason::Stale.label(), "stale-descriptor");
        assert_eq!(NakReason::Protocol.label(), "protocol");
    }

    #[test]
    fn endpoints_are_namespaced() {
        let e = Endpoints::new("gvm0");
        assert_eq!(e.request_queue(), "/gvm0-req");
        assert_eq!(e.response_queue(3), "/gvm0-resp-3");
        assert_eq!(e.shm(7), "/gvm0-shm-7");
    }

    #[test]
    fn taskrun_phase_math() {
        let t0 = SimTime::ZERO;
        let ms = SimDuration::from_millis;
        let run = TaskRun {
            rank: 0,
            start: t0,
            init_done: t0 + ms(10),
            data_in_done: t0 + ms(30),
            comp_done: t0 + ms(130),
            data_out_done: t0 + ms(150),
            end: t0 + ms(151),
        };
        assert_eq!(run.t_init(), 10.0);
        assert_eq!(run.t_data_in(), 20.0);
        assert_eq!(run.t_comp(), 100.0);
        assert_eq!(run.t_data_out(), 20.0);
        assert_eq!(run.total(), 151.0);
    }
}
