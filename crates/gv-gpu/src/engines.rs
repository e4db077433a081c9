//! The device scheduler: contexts, streams, DMA engines, and the compute
//! dispatch window.
//!
//! One simulation process (`gpu-sched`) owns all device-side scheduling:
//!
//! * **Streams** are in-order FIFOs; only the head command of an idle
//!   stream is eligible.
//! * **Contexts** serialize: only commands of the *current* context may
//!   start. When the device drains and another context has eligible work,
//!   the scheduler waits a short grace period (driver batching hysteresis —
//!   this is what makes a process's send→compute→retrieve run as one
//!   context episode, as the paper's Fig. 4 assumes) and then performs a
//!   context switch, charging that context's switch cost.
//! * **DMA engines**: one H2D and one D2H engine (Fermi's two copy engines),
//!   each serving one transfer at a time — same-direction copies serialize,
//!   opposite directions overlap, and both overlap compute.
//! * **Compute**: up to `max_concurrent_kernels` kernels of the current
//!   context are admitted to the window; their blocks dispatch FIFO onto
//!   the least-loaded SMs under occupancy limits ([`crate::sm`]).

use std::collections::HashMap;
use std::sync::Arc;

use gv_sim::trace::{AnalysisRecord, Tracer};
use gv_sim::{Ctx, Gate, SimDuration, SimTime};
use parking_lot::Mutex;

use crate::config::DeviceConfig;
use crate::kernel_desc::KernelDesc;
use crate::memory::{DeviceMemory, DevicePtr};
use crate::sm::SmState;

/// Identifier of a GPU context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuCtxId(pub(crate) u32);

/// Identifier of a CUDA-like stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub(crate) u32);

/// A host data source for functional H2D copies.
pub type HostData = Arc<Vec<u8>>;
/// A host destination buffer for functional D2H copies.
pub type HostSink = Arc<Mutex<Vec<u8>>>;

/// Recycled H2D snapshot buffers. A functional H2D copy lands what its
/// source held at submit, so submit copies the source into a snapshot;
/// [`land`] hands the snapshot back here once its bytes are written, and
/// the next submit refills it instead of allocating. The free list plus the
/// buffers lent out never exceed the most ever lent at once.
#[derive(Default)]
pub(crate) struct Snapshots {
    free: Vec<HostData>,
    /// Snapshots handed out by `fill` and not yet back.
    lent: usize,
}

impl Snapshots {
    /// A snapshot of `bytes`, in a recycled buffer when one is free.
    pub(crate) fn fill(&mut self, bytes: &[u8]) -> HostData {
        self.lent += 1;
        match self.free.pop() {
            Some(mut data) => {
                let buf = Arc::get_mut(&mut data).expect("free snapshots are unshared");
                buf.clear();
                buf.extend_from_slice(bytes);
                data
            }
            None => Arc::new(bytes.to_vec()),
        }
    }

    /// Take back a landed snapshot unless it is shared or none is out.
    fn recycle(&mut self, mut data: HostData) {
        if self.lent > 0 && Arc::get_mut(&mut data).is_some() {
            self.lent -= 1;
            self.free.push(data);
        }
    }
}

/// The operation a command performs.
pub enum CommandKind {
    /// Host-to-device copy.
    CopyH2D {
        /// Destination on the device.
        dst: DevicePtr,
        /// Transfer size in bytes (drives timing even without `data`).
        bytes: u64,
        /// Real bytes for functional runs (`None` = timing-only).
        data: Option<HostData>,
        /// Source host memory is pinned.
        pinned: bool,
    },
    /// Device-to-host copy.
    CopyD2H {
        /// Source on the device.
        src: DevicePtr,
        /// Transfer size in bytes.
        bytes: u64,
        /// Destination buffer for functional runs (grown to cover the
        /// written range if needed).
        sink: Option<HostSink>,
        /// Byte offset within `sink` the copy lands at (chunked transfers
        /// write their span in place; whole-buffer copies use 0).
        sink_offset: u64,
        /// Destination host memory is pinned.
        pinned: bool,
    },
    /// Device-to-device copy (served by the D2H engine at DRAM bandwidth;
    /// reads and writes device memory, so it costs two DRAM passes).
    CopyD2D {
        /// Source on the device.
        src: DevicePtr,
        /// Destination on the device.
        dst: DevicePtr,
        /// Bytes to copy.
        bytes: u64,
        /// Perform the functional copy (timing-only when false).
        functional: bool,
    },
    /// Kernel launch.
    Kernel(KernelDesc),
}

impl std::fmt::Debug for CommandKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandKind::CopyH2D { bytes, pinned, .. } => f
                .debug_struct("CopyH2D")
                .field("bytes", bytes)
                .field("pinned", pinned)
                .finish(),
            CommandKind::CopyD2H { bytes, pinned, .. } => f
                .debug_struct("CopyD2H")
                .field("bytes", bytes)
                .field("pinned", pinned)
                .finish(),
            CommandKind::CopyD2D { bytes, .. } => {
                f.debug_struct("CopyD2D").field("bytes", bytes).finish()
            }
            CommandKind::Kernel(k) => f.debug_tuple("Kernel").field(&k.name).finish(),
        }
    }
}

pub(crate) struct Command {
    pub(crate) id: u64,
    /// Owning context (checked at enqueue; kept for trace labelling).
    #[allow(dead_code)]
    pub(crate) ctx: GpuCtxId,
    pub(crate) stream: StreamId,
    pub(crate) kind: CommandKind,
    pub(crate) gate: Gate,
    /// Coalesce-group tag: commands submitted as one batched DMA carry the
    /// same id. When a member dispatches back-to-back behind another member
    /// of the same group on the same engine, the per-op DMA setup latency
    /// is charged only once for the whole group.
    pub(crate) fuse: Option<u64>,
}

/// Handle to an asynchronously executing device command.
#[derive(Clone)]
pub struct CommandHandle {
    pub(crate) gate: Gate,
    /// Global submission-order id.
    pub id: u64,
}

impl std::fmt::Debug for CommandHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandHandle")
            .field("id", &self.id)
            .field("done", &self.gate.is_open())
            .finish()
    }
}

impl CommandHandle {
    /// Block (in simulated time) until the command completes.
    pub fn wait(&self, ctx: &mut Ctx) {
        self.gate.wait(ctx);
    }

    /// Has the command completed?
    pub fn is_done(&self) -> bool {
        self.gate.is_open()
    }
}

pub(crate) struct CtxInfo {
    /// Context name (surfaced in panics and future traces).
    #[allow(dead_code)]
    pub(crate) name: String,
    pub(crate) switch_cost: SimDuration,
}

struct StreamState {
    ctx: GpuCtxId,
    queue: std::collections::VecDeque<Command>,
    in_flight: bool,
}

struct DmaEngine {
    active: Option<Command>,
    busy_until: SimTime,
    busy_total: SimDuration,
    served: u64,
    /// Coalesce group of the last completed command (continuation check).
    last_fuse: Option<u64>,
    /// Completion time of the last command: a fused follower only gets the
    /// setup-latency discount when it starts the instant its predecessor
    /// finished (back-to-back on the engine, nothing interleaved).
    last_done: SimTime,
}

impl DmaEngine {
    fn new() -> Self {
        DmaEngine {
            active: None,
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
            served: 0,
            last_fuse: None,
            last_done: SimTime::ZERO,
        }
    }

    /// Does starting a member of coalesce group `fuse` at `now` continue a
    /// fused run (predecessor of the same group completed exactly now)?
    fn continues_fused_run(&self, fuse: Option<u64>, now: SimTime) -> bool {
        fuse.is_some() && self.last_fuse == fuse && self.last_done == now
    }
}

struct RunningKernel {
    seq: u64,
    cmd: Command,
    blocks_left: u64,
    outstanding: u64,
}

/// Aggregate device statistics, snapshot via `GpuDevice::stats`.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Completed context switches.
    pub ctx_switches: u64,
    /// Total simulated time spent switching contexts.
    pub ctx_switch_time: SimDuration,
    /// Kernels run to completion.
    pub kernels_completed: u64,
    /// H2D transfers completed / busy time.
    pub h2d_transfers: u64,
    /// Total H2D engine busy time.
    pub h2d_busy: SimDuration,
    /// D2H transfers completed.
    pub d2h_transfers: u64,
    /// D2D transfers completed.
    pub d2d_transfers: u64,
    /// Total D2H engine busy time.
    pub d2h_busy: SimDuration,
    /// Largest number of kernels ever simultaneously in the window.
    pub max_concurrent_kernels: usize,
    /// Total SM busy cycles delivered.
    pub sm_busy_cycles: f64,
    /// DMA ops that ran as fused continuations (setup latency elided).
    pub fused_dma_ops: u64,
    /// Total DMA setup latency elided by fused continuations.
    pub fused_dma_saved: SimDuration,
}

pub(crate) struct SchedState {
    next_cmd_id: u64,
    next_fuse_id: u64,
    next_kernel_seq: u64,
    next_stream_id: u32,
    next_ctx_id: u32,
    pub(crate) contexts: HashMap<GpuCtxId, CtxInfo>,
    streams: HashMap<StreamId, StreamState>,
    current_ctx: Option<GpuCtxId>,
    switching: Option<(GpuCtxId, SimTime)>,
    last_activity: SimTime,
    h2d: DmaEngine,
    d2h: DmaEngine,
    window: Vec<RunningKernel>,
    sms: Vec<SmState>,
    pub(crate) shutdown: bool,
    stats: DeviceStats,
    /// Tracer ordinal of the owning device (set by `GpuDevice::install`).
    pub(crate) dev_ord: u32,
}

impl SchedState {
    pub(crate) fn new(cfg: &DeviceConfig) -> Self {
        SchedState {
            next_cmd_id: 1,
            next_fuse_id: 1,
            next_kernel_seq: 1,
            next_stream_id: 1,
            next_ctx_id: 1,
            contexts: HashMap::new(),
            streams: HashMap::new(),
            current_ctx: None,
            switching: None,
            last_activity: SimTime::ZERO,
            h2d: DmaEngine::new(),
            d2h: DmaEngine::new(),
            window: Vec::new(),
            sms: (0..cfg.num_sms).map(SmState::new).collect(),
            shutdown: false,
            stats: DeviceStats::default(),
            dev_ord: 0,
        }
    }

    pub(crate) fn register_context(&mut self, name: &str, switch_cost: SimDuration) -> GpuCtxId {
        let id = GpuCtxId(self.next_ctx_id);
        self.next_ctx_id += 1;
        self.contexts.insert(
            id,
            CtxInfo {
                name: name.to_string(),
                switch_cost,
            },
        );
        id
    }

    pub(crate) fn context_count(&self) -> usize {
        self.contexts.len()
    }

    pub(crate) fn register_stream(&mut self, ctx: GpuCtxId) -> StreamId {
        assert!(self.contexts.contains_key(&ctx), "unknown context");
        let id = StreamId(self.next_stream_id);
        self.next_stream_id += 1;
        self.streams.insert(
            id,
            StreamState {
                ctx,
                queue: std::collections::VecDeque::new(),
                in_flight: false,
            },
        );
        id
    }

    pub(crate) fn enqueue(
        &mut self,
        ctx: GpuCtxId,
        stream: StreamId,
        kind: CommandKind,
    ) -> CommandHandle {
        self.enqueue_fused(ctx, stream, kind, None)
    }

    /// Enqueue a command carrying an optional coalesce-group tag (see
    /// [`Command::fuse`]). Plain submissions pass `None`.
    pub(crate) fn enqueue_fused(
        &mut self,
        ctx: GpuCtxId,
        stream: StreamId,
        kind: CommandKind,
        fuse: Option<u64>,
    ) -> CommandHandle {
        let st = self.streams.get_mut(&stream).expect("unknown stream");
        assert_eq!(st.ctx, ctx, "stream belongs to a different context");
        let id = self.next_cmd_id;
        self.next_cmd_id += 1;
        let gate = Gate::new();
        st.queue.push_back(Command {
            id,
            ctx,
            stream,
            kind,
            gate: gate.clone(),
            fuse,
        });
        CommandHandle { gate, id }
    }

    /// Allocate a fresh coalesce-group id for one batched submission.
    pub(crate) fn alloc_fuse_id(&mut self) -> u64 {
        let id = self.next_fuse_id;
        self.next_fuse_id += 1;
        id
    }

    pub(crate) fn stream_idle(&self, stream: StreamId) -> bool {
        self.streams
            .get(&stream)
            .map(|s| s.queue.is_empty() && !s.in_flight)
            .unwrap_or(true)
    }

    pub(crate) fn stats(&self) -> DeviceStats {
        let mut s = self.stats.clone();
        s.sm_busy_cycles = self.sms.iter().map(|sm| sm.busy_cycles).sum();
        s
    }

    /// Eligible stream heads (idle stream, non-empty queue), as
    /// `(command id, stream id, ctx)` sorted by submission order.
    fn eligible_heads(&self) -> Vec<(u64, StreamId, GpuCtxId)> {
        let mut v: Vec<_> = self
            .streams
            .iter()
            .filter(|(_, s)| !s.in_flight && !s.queue.is_empty())
            .map(|(&sid, s)| (s.queue.front().expect("non-empty").id, sid, s.ctx))
            .collect();
        v.sort();
        v
    }

    fn device_busy(&self) -> bool {
        self.h2d.active.is_some() || self.d2h.active.is_some() || !self.window.is_empty()
    }

    /// One scheduling step at time `now`. Returns gates to open (outside
    /// the lock) and the next internal event time, if any. Engine activity
    /// is recorded as spans on `tracer` (no-ops while tracing is off):
    /// category `"h2d"`/`"d2h"` for DMA transfers, `"kernel"` for kernel
    /// residency in the window, `"ctx-switch"` for switch intervals.
    pub(crate) fn step(
        &mut self,
        cfg: &DeviceConfig,
        memory: &Mutex<DeviceMemory>,
        snapshots: &Mutex<Snapshots>,
        tracer: &Tracer,
        now: SimTime,
    ) -> (Vec<Gate>, Option<SimTime>) {
        let mut opened: Vec<Gate> = Vec::new();

        // 1. Context switch completion.
        if let Some((target, t)) = self.switching {
            if t <= now {
                self.current_ctx = Some(target);
                self.switching = None;
                self.stats.ctx_switches += 1;
                self.last_activity = now;
                tracer.end(now, "ctx-switch", format!("to-ctx-{}", target.0), 0);
            }
        }

        // 2. DMA completions.
        for dir in [true, false] {
            let engine = if dir { &mut self.h2d } else { &mut self.d2h };
            if engine.active.is_some() && engine.busy_until <= now {
                let mut cmd = engine.active.take().expect("checked above");
                engine.served += 1;
                engine.last_fuse = cmd.fuse;
                engine.last_done = now;
                land(memory, snapshots, &mut cmd.kind);
                match &cmd.kind {
                    CommandKind::CopyH2D { .. } => self.stats.h2d_transfers += 1,
                    CommandKind::CopyD2H { .. } => self.stats.d2h_transfers += 1,
                    CommandKind::CopyD2D { .. } => self.stats.d2d_transfers += 1,
                    CommandKind::Kernel(_) => unreachable!("DMA engine held a kernel"),
                }
                let category = if matches!(cmd.kind, CommandKind::CopyH2D { .. }) {
                    "h2d"
                } else {
                    "d2h"
                };
                tracer.end(now, category, format!("cmd-{}", cmd.id), cmd.stream.0);
                tracer.record_analysis(AnalysisRecord::CopyEnd {
                    time: now,
                    device: self.dev_ord,
                    engine: if dir { 0 } else { 1 },
                    label: format!("cmd-{}", cmd.id),
                });
                self.streams
                    .get_mut(&cmd.stream)
                    .expect("stream exists")
                    .in_flight = false;
                opened.push(cmd.gate.clone());
                self.last_activity = now;
            }
        }

        // 3. SM advance & kernel completions.
        for sm in &mut self.sms {
            for seq in sm.advance(cfg, now) {
                let rk = self
                    .window
                    .iter_mut()
                    .find(|rk| rk.seq == seq)
                    .expect("completed block belongs to a window kernel");
                rk.outstanding -= 1;
            }
        }
        let mut finished: Vec<RunningKernel> = Vec::new();
        let mut i = 0;
        while i < self.window.len() {
            if self.window[i].blocks_left == 0 && self.window[i].outstanding == 0 {
                finished.push(self.window.remove(i));
            } else {
                i += 1;
            }
        }
        for rk in finished {
            if let CommandKind::Kernel(k) = &rk.cmd.kind {
                if let Some(body) = &k.body {
                    body(&mut memory.lock());
                }
                tracer.end(
                    now,
                    "kernel",
                    format!("{}-{}", k.name, rk.seq),
                    rk.cmd.stream.0,
                );
                tracer.record_analysis(AnalysisRecord::KernelEnd {
                    time: now,
                    device: self.dev_ord,
                    label: format!("{}-{}", k.name, rk.seq),
                });
            }
            self.stats.kernels_completed += 1;
            self.streams
                .get_mut(&rk.cmd.stream)
                .expect("stream exists")
                .in_flight = false;
            opened.push(rk.cmd.gate.clone());
            self.last_activity = now;
        }

        // 4. Dispatch.
        let mut grace_deadline: Option<SimTime> = None;
        if self.switching.is_none() {
            loop {
                let mut progress = self.dispatch_blocks(cfg, now);

                let heads = self.eligible_heads();
                if self.current_ctx.is_none() {
                    if let Some(&(_, _, c)) = heads.first() {
                        // First use of the device: adopting a context is free
                        // (creation cost is charged by the runtime layer).
                        self.current_ctx = Some(c);
                    }
                }
                let current = self.current_ctx;
                for (_, sid, cctx) in heads {
                    if Some(cctx) != current {
                        continue;
                    }
                    let stream = self.streams.get_mut(&sid).expect("stream exists");
                    let startable = match stream.queue.front().map(|c| &c.kind) {
                        Some(CommandKind::Kernel(_)) => {
                            self.window.len() < cfg.max_concurrent_kernels as usize
                        }
                        Some(CommandKind::CopyH2D { .. }) => self.h2d.active.is_none(),
                        Some(CommandKind::CopyD2H { .. }) | Some(CommandKind::CopyD2D { .. }) => {
                            if cfg.unified_copy_engine {
                                self.h2d.active.is_none()
                            } else {
                                self.d2h.active.is_none()
                            }
                        }
                        None => false,
                    };
                    if !startable {
                        continue;
                    }
                    let cmd = stream.queue.pop_front().expect("checked non-empty");
                    stream.in_flight = true;
                    match &cmd.kind {
                        CommandKind::Kernel(k) => {
                            let seq = self.next_kernel_seq;
                            self.next_kernel_seq += 1;
                            tracer.begin(now, "kernel", format!("{}-{seq}", k.name), cmd.stream.0);
                            tracer.record_analysis(AnalysisRecord::KernelBegin {
                                time: now,
                                device: self.dev_ord,
                                label: format!("{}-{seq}", k.name),
                            });
                            let blocks = k.grid_blocks;
                            self.window.push(RunningKernel {
                                seq,
                                cmd,
                                blocks_left: blocks,
                                outstanding: 0,
                            });
                            self.stats.max_concurrent_kernels =
                                self.stats.max_concurrent_kernels.max(self.window.len());
                        }
                        CommandKind::CopyH2D { bytes, pinned, .. } => {
                            let mut t = cfg.copy_time(*bytes, true, *pinned);
                            if self.h2d.continues_fused_run(cmd.fuse, now) {
                                t = t.saturating_sub(cfg.dma_latency);
                                self.stats.fused_dma_ops += 1;
                                self.stats.fused_dma_saved += cfg.dma_latency;
                            }
                            tracer.begin(now, "h2d", format!("cmd-{}", cmd.id), cmd.stream.0);
                            tracer.record_analysis(AnalysisRecord::CopyBegin {
                                time: now,
                                device: self.dev_ord,
                                engine: 0,
                                label: format!("cmd-{}", cmd.id),
                            });
                            self.h2d.busy_until = now + t;
                            self.h2d.busy_total += t;
                            self.stats.h2d_busy += t;
                            self.h2d.active = Some(cmd);
                        }
                        CommandKind::CopyD2D { bytes, .. } => {
                            // Two DRAM passes (read + write) plus setup.
                            let t = cfg.dma_latency
                                + SimDuration::from_secs_f64(
                                    2.0 * *bytes as f64 / cfg.dram_bytes_per_sec(),
                                );
                            tracer.begin(now, "d2h", format!("cmd-{}", cmd.id), cmd.stream.0);
                            tracer.record_analysis(AnalysisRecord::CopyBegin {
                                time: now,
                                device: self.dev_ord,
                                engine: if cfg.unified_copy_engine { 0 } else { 1 },
                                label: format!("cmd-{}", cmd.id),
                            });
                            let engine = if cfg.unified_copy_engine {
                                &mut self.h2d
                            } else {
                                &mut self.d2h
                            };
                            engine.busy_until = now + t;
                            engine.busy_total += t;
                            engine.active = Some(cmd);
                        }
                        CommandKind::CopyD2H { bytes, pinned, .. } => {
                            let mut t = cfg.copy_time(*bytes, false, *pinned);
                            let engine = if cfg.unified_copy_engine {
                                &self.h2d
                            } else {
                                &self.d2h
                            };
                            if engine.continues_fused_run(cmd.fuse, now) {
                                t = t.saturating_sub(cfg.dma_latency);
                                self.stats.fused_dma_ops += 1;
                                self.stats.fused_dma_saved += cfg.dma_latency;
                            }
                            tracer.begin(now, "d2h", format!("cmd-{}", cmd.id), cmd.stream.0);
                            tracer.record_analysis(AnalysisRecord::CopyBegin {
                                time: now,
                                device: self.dev_ord,
                                engine: if cfg.unified_copy_engine { 0 } else { 1 },
                                label: format!("cmd-{}", cmd.id),
                            });
                            let engine = if cfg.unified_copy_engine {
                                &mut self.h2d
                            } else {
                                &mut self.d2h
                            };
                            engine.busy_until = now + t;
                            engine.busy_total += t;
                            self.stats.d2h_busy += t;
                            engine.active = Some(cmd);
                        }
                    }
                    self.last_activity = now;
                    progress = true;
                }
                if !progress {
                    break;
                }
            }

            // 4c. Context-switch decision.
            if !self.device_busy() {
                let current = self.current_ctx;
                let foreign = self
                    .eligible_heads()
                    .into_iter()
                    .find(|&(_, _, c)| Some(c) != current);
                if let Some((_, _, target)) = foreign {
                    let deadline = self.last_activity + cfg.ctx_hold_grace;
                    if now >= deadline || current.is_none() {
                        let cost = self
                            .contexts
                            .get(&target)
                            .expect("context exists")
                            .switch_cost;
                        tracer.begin(now, "ctx-switch", format!("to-ctx-{}", target.0), 0);
                        self.switching = Some((target, now + cost));
                        self.stats.ctx_switch_time += cost;
                    } else {
                        grace_deadline = Some(deadline);
                    }
                }
            }
        }

        // 5. Next internal event.
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(match next {
                Some(n) => n.min(t),
                None => t,
            });
        };
        if let Some((_, t)) = self.switching {
            consider(t);
        }
        if self.h2d.active.is_some() {
            consider(self.h2d.busy_until);
        }
        if self.d2h.active.is_some() {
            consider(self.d2h.busy_until);
        }
        for sm in &self.sms {
            if let Some(t) = sm.next_completion(cfg, now) {
                consider(t);
            }
        }
        if let Some(t) = grace_deadline {
            consider(t);
        }
        (opened, next)
    }

    /// Dispatch pending blocks of window kernels (strict FIFO over kernels)
    /// onto the least-loaded fitting SMs. Returns true if anything placed.
    fn dispatch_blocks(&mut self, cfg: &DeviceConfig, now: SimTime) -> bool {
        let mut placed_any = false;
        for rk in &mut self.window {
            if rk.blocks_left == 0 {
                continue;
            }
            let CommandKind::Kernel(k) = &rk.cmd.kind else {
                unreachable!("window holds only kernels")
            };
            while rk.blocks_left > 0 {
                // Least-loaded SM that fits (ties → lowest id).
                let target = self
                    .sms
                    .iter_mut()
                    .filter(|sm| sm.can_fit(cfg, k))
                    .min_by_key(|sm| (sm.resident_blocks(), sm.id));
                match target {
                    Some(sm) => {
                        sm.place(cfg, rk.seq, k, now);
                        rk.blocks_left -= 1;
                        rk.outstanding += 1;
                        placed_any = true;
                    }
                    None => break,
                }
            }
            if rk.blocks_left > 0 {
                // Head-of-line: don't backfill later kernels past a stalled
                // older one (in-order dispatch, like the hardware).
                break;
            }
        }
        placed_any
    }
}

/// Move a completed DMA command's functional bytes, one copy per
/// transfer: H2D lands its submit-time snapshot in device memory and hands
/// the snapshot back to `snapshots`, D2D copies device to device, and D2H
/// reads device bytes straight into the sink (grown to cover the written
/// range if needed). Timing-only commands move nothing.
fn land(memory: &Mutex<DeviceMemory>, snapshots: &Mutex<Snapshots>, kind: &mut CommandKind) {
    match kind {
        CommandKind::CopyH2D { dst, data, .. } => {
            if let Some(data) = data.take() {
                memory
                    .lock()
                    .write_bytes(*dst, &data)
                    .expect("validated at submit");
                snapshots.lock().recycle(data);
            }
        }
        CommandKind::CopyD2D {
            src,
            dst,
            bytes,
            functional: true,
        } => {
            memory
                .lock()
                .copy_within(*src, *dst, *bytes)
                .expect("validated at submit");
        }
        CommandKind::CopyD2H {
            src,
            bytes,
            sink: Some(sink),
            sink_offset,
            ..
        } => {
            let off = *sink_offset as usize;
            let end = off + *bytes as usize;
            let mut guard = sink.lock();
            if guard.len() < end {
                guard.resize(end, 0);
            }
            memory
                .lock()
                .read_bytes(*src, &mut guard[off..end])
                .expect("validated at submit");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts each thread's heap allocations, so a test can show that a
    /// code path allocates nothing.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        }

        struct Counting;

        // SAFETY: every call is forwarded unchanged to the system allocator.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;

        /// Allocations made so far on the calling thread.
        pub fn allocations() -> u64 {
            ALLOCATIONS.with(Cell::get)
        }
    }

    #[test]
    fn d2h_completion_reads_device_bytes_straight_into_the_sink() {
        let mut mem = DeviceMemory::new(1 << 20);
        let src = mem.alloc(4096).unwrap();
        let payload: Vec<u8> = (0..=255).cycle().take(4096).collect();
        mem.write_bytes(src, &payload).unwrap();
        let memory = Mutex::new(mem);
        let sink: HostSink = Arc::new(Mutex::new(vec![0u8; 8192]));
        let d2h = |offset: u64, sink_offset: u64| CommandKind::CopyD2H {
            src: src.add(offset),
            bytes: 1024,
            sink: Some(Arc::clone(&sink)),
            sink_offset,
            pinned: true,
        };
        let snapshots = Mutex::new(Snapshots::default());
        let (mut first, mut second) = (d2h(0, 0), d2h(1024, 4096));
        land(&memory, &snapshots, &mut first);
        let before = counting::allocations();
        land(&memory, &snapshots, &mut second);
        assert_eq!(counting::allocations(), before, "D2H completion allocated");
        let got = sink.lock();
        assert_eq!(got[..1024], payload[..1024]);
        assert_eq!(got[4096..5120], payload[1024..2048]);
        assert!(got[1024..4096].iter().all(|&b| b == 0));
        drop(got);
        // A short sink grows to cover the written range.
        let short: HostSink = Arc::new(Mutex::new(Vec::new()));
        land(
            &memory,
            &snapshots,
            &mut CommandKind::CopyD2H {
                src,
                bytes: 16,
                sink: Some(Arc::clone(&short)),
                sink_offset: 8,
                pinned: false,
            },
        );
        assert_eq!(short.lock()[8..], payload[..16]);
    }

    #[test]
    fn h2d_snapshots_are_recycled_without_allocating() {
        let mut mem = DeviceMemory::new(1 << 20);
        let dst = mem.alloc(4096).unwrap();
        let memory = Mutex::new(mem);
        let snapshots = Mutex::new(Snapshots::default());
        let h2d = |payload: &[u8]| CommandKind::CopyH2D {
            dst,
            bytes: payload.len() as u64,
            data: Some(snapshots.lock().fill(payload)),
            pinned: true,
        };
        let payload = |seed: u8| -> Vec<u8> { (0..4096).map(|i| (i as u8) ^ seed).collect() };
        // Warm-up: two copies in flight at once.
        let (mut first, mut second) = (h2d(&payload(1)), h2d(&payload(2)));
        land(&memory, &snapshots, &mut first);
        land(&memory, &snapshots, &mut second);
        let inputs: Vec<Vec<u8>> = (3..13).map(payload).collect();
        let before = counting::allocations();
        for input in &inputs {
            let mut copy = h2d(input);
            land(&memory, &snapshots, &mut copy);
        }
        assert_eq!(counting::allocations(), before, "H2D snapshot allocated");
        let mut landed = vec![0u8; 4096];
        memory.lock().read_bytes(dst, &mut landed).unwrap();
        assert_eq!(landed, payload(12));
        // The list holds no more buffers than were ever in flight at once.
        assert_eq!(snapshots.lock().free.len(), 2);
        assert_eq!(snapshots.lock().lent, 0);
    }

    #[test]
    fn eligible_heads_sorted_by_submission() {
        let cfg = DeviceConfig::test_tiny();
        let mut st = SchedState::new(&cfg);
        let c = st.register_context("c", cfg.ctx_switch);
        let s1 = st.register_stream(c);
        let s2 = st.register_stream(c);
        let k = KernelDesc::new("k", 1, 32);
        st.enqueue(c, s2, CommandKind::Kernel(k.clone()));
        st.enqueue(c, s1, CommandKind::Kernel(k));
        let heads = st.eligible_heads();
        assert_eq!(heads.len(), 2);
        assert_eq!(heads[0].1, s2); // submitted first
        assert!(heads[0].0 < heads[1].0);
    }

    #[test]
    fn stream_head_only_is_eligible() {
        let cfg = DeviceConfig::test_tiny();
        let mut st = SchedState::new(&cfg);
        let c = st.register_context("c", cfg.ctx_switch);
        let s = st.register_stream(c);
        let k = KernelDesc::new("k", 1, 32);
        st.enqueue(c, s, CommandKind::Kernel(k.clone()));
        st.enqueue(c, s, CommandKind::Kernel(k));
        assert_eq!(st.eligible_heads().len(), 1);
    }

    #[test]
    #[should_panic(expected = "different context")]
    fn enqueue_on_foreign_context_stream_panics() {
        let cfg = DeviceConfig::test_tiny();
        let mut st = SchedState::new(&cfg);
        let c1 = st.register_context("c1", cfg.ctx_switch);
        let c2 = st.register_context("c2", cfg.ctx_switch);
        let s1 = st.register_stream(c1);
        st.enqueue(c2, s1, CommandKind::Kernel(KernelDesc::new("k", 1, 32)));
    }
}
