//! The GPU Virtualization Manager (paper §V).
//!
//! The GVM is a run-time process that owns the *single* GPU context and all
//! GPU resources. At initialization it creates, for every SPMD rank: a
//! virtual shared memory segment, a response queue, a CUDA stream, device
//! memory, and pinned staging buffers, and pre-binds the rank's kernels —
//! then serves `REQ/SND/STR/STP/RCV/RLS` requests. `STR` requests are
//! buffered behind a barrier and all streams are flushed together so Fermi
//! can overlap copies with compute and run small kernels concurrently
//! within the one context.
//!
//! *When* buffered streams are flushed is delegated to a pluggable
//! [`SchedPolicy`] (see [`crate::sched`]): the paper's joint full-width
//! flush is the default, with FCFS, adaptive batching, and
//! shortest-job-first available for staggered or heterogeneous groups.
//! The scheduler also owns the barrier-width computation, so eviction and
//! release re-arm the barrier through the same policy code path that
//! dispatches it.
//!
//! With [`GvmConfig::fault_tolerance`] on the serve loop degrades
//! gracefully instead of wedging: requests are received with a deadline, a
//! rank that stops responding (crashed client, lost message beyond the
//! client's retry budget) is *evicted* — its device memory, shared-memory
//! segment and response queue are reclaimed as an implicit `RLS` — and the
//! `STR` barrier is re-armed at the reduced width so the surviving ranks
//! still flush and complete. Sequence numbers on requests make client
//! retries idempotent: a stage the GVM already served is answered from the
//! recorded response instead of being re-executed.

use std::sync::Arc;

use gv_cuda::CudaDevice;
use gv_gpu::DevicePtr;
use gv_ipc::{MessageQueue, MqRegistry, Node, SharedMem, ShmRegistry};
use gv_kernels::GpuTask;
use gv_mem::{
    AdaptiveChooser, CachedAlloc, CoalesceMember, CoalescePlan, DeviceAllocCache, LeaseBacking,
    MemConfig, PipelineConfig, StagingDescriptor, StagingLease, StagingPool,
};
use gv_sim::{Ctx, Gate, RecvTimeout, SimDuration, Simulation};
use parking_lot::Mutex;

use crate::protocol::{Endpoints, NakReason, Request, RequestKind, Response, ResponseKind};
use crate::quota::MemQuota;
use crate::sched::{self, Dispatch, SchedPolicy, Scheduler};

/// Fault tolerance: how long the `STR` barrier waits for stragglers once
/// at least one rank has arrived, before evicting the missing ranks and
/// flushing at reduced width.
const BARRIER_TIMEOUT: SimDuration = SimDuration::from_millis(20);

/// Fault tolerance: how long the serve loop waits for *any* request before
/// declaring the remaining active ranks dead and evicting them.
const IDLE_TIMEOUT: SimDuration = SimDuration::from_millis(100);

/// GVM configuration.
#[derive(Debug, Clone)]
pub struct GvmConfig {
    /// Instance name (namespaces queues and segments).
    pub name: String,
    /// Number of SPMD processes served (the `STR` barrier width).
    pub ntask: usize,
    /// Ablation: drain each rank's stream before flushing the next (no
    /// cross-process overlap — what a naive time-sharing manager would do).
    pub serial_flush: bool,
    /// Graceful degradation: timed receives, rank eviction with resource
    /// reclamation, reduced-width barrier re-arming, and device memory
    /// allocated lazily at first `SND` (overcommit) instead of at boot.
    /// `false` keeps the seed's fault-free behavior exactly.
    pub fault_tolerance: bool,
    /// Stream-dispatch policy (default: the paper's joint flush).
    pub scheduler: SchedPolicy,
    /// Buffer-lifecycle configuration (staging pool is always on; chunked
    /// copy/compute pipelining is off by default, which keeps the GVM
    /// bit-identical to serial staging).
    pub mem: MemConfig,
    /// Per-rank device-memory quotas (index = rank; short vectors pad
    /// with [`MemQuota::Unlimited`]). `None` disables quota accounting
    /// entirely. With every quota unlimited the GVM's schedule is
    /// bit-identical to `None` — only `QuotaSet`/`QuotaCharge`/
    /// `QuotaCredit` analysis records are added. Any *finite* quota
    /// switches device allocation to the lazy first-`SND` path so an
    /// over-quota demand is answered with an `OverQuota` NAK at admission
    /// instead of a boot-time panic.
    pub quotas: Option<Vec<MemQuota>>,
    /// Enable VRAM oversubscription by demand-swap: when a lazy
    /// allocation does not fit, idle working sets parked in the
    /// device-allocation cache are evicted to pooled pinned host staging
    /// (LRU by last release) until the allocation fits, and restored
    /// through the chunked planner on next touch.
    pub swap: bool,
}

impl GvmConfig {
    /// Defaults for `ntask` processes.
    pub fn new(ntask: usize) -> Self {
        GvmConfig {
            name: "gvm".to_string(),
            ntask,
            serial_flush: false,
            fault_tolerance: false,
            scheduler: SchedPolicy::JointFlush,
            mem: MemConfig::default(),
            quotas: None,
            swap: false,
        }
    }

    /// `self` with the given stream-dispatch policy.
    pub fn with_scheduler(self, scheduler: SchedPolicy) -> Self {
        GvmConfig { scheduler, ..self }
    }

    /// `self` with the given buffer-lifecycle configuration (e.g.
    /// [`MemConfig::pipelined`] to enable chunked transfers).
    pub fn with_mem(self, mem: MemConfig) -> Self {
        GvmConfig { mem, ..self }
    }

    /// The serial-flush ablation variant.
    pub fn serial_flush(ntask: usize) -> Self {
        GvmConfig {
            serial_flush: true,
            ..Self::new(ntask)
        }
    }

    /// A fault-tolerant instance.
    pub fn fault_tolerant(ntask: usize) -> Self {
        GvmConfig {
            fault_tolerance: true,
            ..Self::new(ntask)
        }
    }

    /// `self` with per-rank device-memory quotas (enables quota
    /// accounting and admission enforcement).
    pub fn with_quotas(self, quotas: Vec<MemQuota>) -> Self {
        GvmConfig {
            quotas: Some(quotas),
            ..self
        }
    }

    /// `self` with demand-swap oversubscription enabled.
    pub fn with_swap(self) -> Self {
        GvmConfig { swap: true, ..self }
    }

    /// The quota governing `rank` (unlimited when none was configured).
    pub fn quota_for(&self, rank: usize) -> MemQuota {
        self.quotas
            .as_ref()
            .and_then(|q| q.get(rank))
            .copied()
            .unwrap_or(MemQuota::Unlimited)
    }

    /// True when any configured quota is finite — the trigger for lazy
    /// first-`SND` device allocation in a fault-free GVM.
    pub fn has_finite_quota(&self) -> bool {
        self.quotas
            .as_ref()
            .is_some_and(|q| q.iter().any(|m| !m.is_unlimited()))
    }
}

/// Counters describing what the GVM did (virtualization-overhead audit).
#[derive(Debug, Clone, Default)]
pub struct GvmStats {
    /// `SND` staging copies performed (shm → pinned).
    pub snd_copies: u64,
    /// `RCV` copies performed (pinned → shm).
    pub rcv_copies: u64,
    /// Total simulated time the GVM spent in staging memcpys.
    pub copy_time: SimDuration,
    /// `STR` barrier flushes performed.
    pub flushes: u64,
    /// Total simulated time spent submitting stream work at flushes.
    pub submit_time: SimDuration,
    /// `STP` queries answered with `WAIT`.
    pub stp_waits: u64,
    /// Ranks evicted by the fault-tolerance layer (timeout or `NAK`).
    pub evictions: u64,
    /// Requests answered with `NAK`.
    pub naks: u64,
    /// Duplicate requests answered from the recorded response (or
    /// silently ignored while the original is still barriered).
    pub dedup_hits: u64,
    /// Flushes that covered a strict subset of the then-active ranks
    /// (partial policies only; always 0 under `JointFlush`).
    pub partial_flushes: u64,
    /// Largest `STR` backlog observed when a new `STR` arrived.
    pub queue_depth_max: u64,
    /// Sum of the `STR` backlog over all arrivals (with
    /// [`GvmStats::queue_depth_samples`], yields the mean depth).
    pub queue_depth_sum: u64,
    /// Number of `STR` arrivals sampled into the queue-depth counters.
    pub queue_depth_samples: u64,
    /// Total simulated time between the first `STR` of each batch window
    /// and the dispatch that drained it — the queueing delay the policy
    /// imposed while the GPU could have been running.
    pub idle_gap: SimDuration,
    /// Staging-pool acquires served from a free list.
    pub pool_hits: u64,
    /// Staging-pool acquires that allocated a fresh pinned buffer.
    pub pool_misses: u64,
    /// Peak pinned bytes simultaneously leased from the staging pool.
    pub pool_high_water_bytes: u64,
    /// Device allocations served from the allocation cache (fault-tolerant
    /// GVMs only; always 0 otherwise).
    pub devcache_hits: u64,
    /// Device-allocation cache lookups that fell through to `cudaMalloc`.
    pub devcache_misses: u64,
    /// Payload transfers that were split into pipelined chunks.
    pub chunked_transfers: u64,
    /// Individual chunk copies submitted for those transfers.
    pub chunks_submitted: u64,
    /// `SND`s served as steady-state prefetches: next round's input staged
    /// into the double buffer while the current round still computed.
    pub steady_prefetches: u64,
    /// Pinned buffers released by the staging pool's high-water shrink.
    pub pool_released_buffers: u64,
    /// Pinned bytes released by the staging pool's high-water shrink.
    pub pool_released_bytes: u64,
    /// Admissions refused because the session's device-memory demand
    /// exceeded its quota (`OverQuota` NAKs; a subset of `naks`).
    pub quota_naks: u64,
    /// Idle parked working sets demand-swapped out to pinned host staging
    /// to make room for another admission.
    pub swap_outs: u64,
    /// Swapped working sets restored to device memory on next touch.
    pub swap_ins: u64,
    /// Bytes moved device→host by swap-outs.
    pub swapped_out_bytes: u64,
    /// Bytes moved host→device by swap-ins.
    pub swapped_in_bytes: u64,
    /// Fused DMA submissions issued by the coalescing flush path (each
    /// covers ≥ 2 ranks' transfers in one engine sweep).
    pub fused_dma_groups: u64,
    /// Individual rank transfers riding inside those fused submissions.
    pub fused_dma_subs: u64,
    /// Batched kernel-launch waves submitted (one launch-overhead charge
    /// covering every co-flushed rank's kernels for that iteration).
    pub batched_launch_waves: u64,
    /// Kernel launches carried by those batched waves.
    pub batched_launches: u64,
    /// All DMA submissions made by the flush path (fused or not) — the
    /// denominator of [`fused_dma_ratio`](Self::fused_dma_ratio).
    pub flush_dma_ops: u64,
}

impl GvmStats {
    /// Mean `STR` backlog at arrival (0.0 if no `STR` was sampled).
    pub fn queue_depth_mean(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// Accumulate another instance's counters into this one (the cluster
    /// front-end merges all per-(device, wave) GVMs into one audit).
    /// Counters and durations add; high-water marks take the max.
    pub fn merge(&mut self, other: &GvmStats) {
        self.snd_copies += other.snd_copies;
        self.rcv_copies += other.rcv_copies;
        self.copy_time += other.copy_time;
        self.flushes += other.flushes;
        self.submit_time += other.submit_time;
        self.stp_waits += other.stp_waits;
        self.evictions += other.evictions;
        self.naks += other.naks;
        self.dedup_hits += other.dedup_hits;
        self.partial_flushes += other.partial_flushes;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.queue_depth_sum += other.queue_depth_sum;
        self.queue_depth_samples += other.queue_depth_samples;
        self.idle_gap += other.idle_gap;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_high_water_bytes = self.pool_high_water_bytes.max(other.pool_high_water_bytes);
        self.devcache_hits += other.devcache_hits;
        self.devcache_misses += other.devcache_misses;
        self.chunked_transfers += other.chunked_transfers;
        self.chunks_submitted += other.chunks_submitted;
        self.steady_prefetches += other.steady_prefetches;
        self.pool_released_buffers += other.pool_released_buffers;
        self.pool_released_bytes += other.pool_released_bytes;
        self.quota_naks += other.quota_naks;
        self.swap_outs += other.swap_outs;
        self.swap_ins += other.swap_ins;
        self.swapped_out_bytes += other.swapped_out_bytes;
        self.swapped_in_bytes += other.swapped_in_bytes;
        self.fused_dma_groups += other.fused_dma_groups;
        self.fused_dma_subs += other.fused_dma_subs;
        self.batched_launch_waves += other.batched_launch_waves;
        self.batched_launches += other.batched_launches;
        self.flush_dma_ops += other.flush_dma_ops;
    }

    /// Fraction of flush-path DMA submissions that rode in a fused group
    /// (0.0 when the flush path moved nothing).
    pub fn fused_dma_ratio(&self) -> f64 {
        if self.flush_dma_ops == 0 {
            0.0
        } else {
            self.fused_dma_subs as f64 / self.flush_dma_ops as f64
        }
    }

    /// Fraction of staging-pool acquires served without allocating
    /// (0.0 if the pool was never used).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Lifecycle of one rank inside the serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Serving normally.
    Active,
    /// Forcibly removed by the fault-tolerance layer; resources reclaimed.
    Evicted,
    /// Sent `RLS`.
    Released,
}

/// The rank's device-side allocation (held from boot in the fault-free
/// GVM; from first `SND` in the fault-tolerant one).
struct RankGpuAlloc {
    dev_base: DevicePtr,
    kernels: Vec<gv_gpu::KernelDesc>,
}

/// The GVM's buffer-lifecycle state: staging pool, device-allocation
/// cache, pipeline config, and the adaptive chunk chooser.
struct MemLayer {
    mem: MemConfig,
    pool: StagingPool,
    devcache: DeviceAllocCache,
    chooser: AdaptiveChooser,
    /// Span scratch filled by [`plan`](Self::plan): steady-state rounds
    /// plan their transfers without allocating.
    spans: Vec<gv_mem::Span>,
    /// Reusable ACK-order scratch for [`GvmCore::flush`].
    ack: Vec<usize>,
    /// Coalescing only: host address one past the end of the most recent
    /// input-lease acquisition, used as the placement hint for the next
    /// one so co-flushed ranks' staging leases reconstitute adjacency
    /// even when served from recycled (LIFO-shuffled) free lists. `None`
    /// when coalescing is off — hinted acquires can reorder free lists,
    /// and the off path must stay bit-identical to the pre-coalescing
    /// schedule.
    chain_next: Option<u64>,
}

impl MemLayer {
    /// The chunk count for a `payload`-byte transfer — the one decision
    /// every DMA path makes before it plans.
    fn choose(&self, payload: u64) -> u64 {
        self.chooser.choose(payload, &self.mem.pipeline)
    }

    /// Tile `payload` into `k` [`spans`](Self::spans), allocate a
    /// transfer-group id, and commit the plan to the analysis stream (so
    /// the staging checker holds the transfer to exactly that tiling);
    /// returns the id. Callers must stage/record every planned span.
    fn plan(&mut self, tracer: &gv_sim::Tracer, rank: usize, payload: u64, k: u64) -> u64 {
        PipelineConfig::plan_exact_into(payload, k, &mut self.spans);
        // Tracer-global id: co-resident GVMs share one analysis stream.
        let xfer = tracer.alloc_xfer_id();
        if payload > 0 {
            gv_mem::record_plan(
                tracer,
                rank,
                xfer,
                payload,
                self.spans.len() as u64,
                self.mem.pipeline.chunks.max(1) as u64,
                self.mem.pipeline.adaptive,
            );
        }
        xfer
    }

    /// Plan `dma`'s payload as `k` spans and issue every span as an async
    /// copy; returns the span count.
    fn submit(&mut self, ctx: &mut Ctx, cc: &gv_cuda::CudaContext, dma: &Dma<'_>, k: u64) -> u64 {
        let xfer = self.plan(ctx.tracer(), dma.rank, dma.payload, k);
        for span in &self.spans {
            dma.span(ctx, cc, xfer, *span, true);
        }
        self.spans.len() as u64
    }
}

/// One payload transfer between a pinned staging lease and device memory
/// on a rank's stream — what every DMA path (SND pre-issue, flush, swap)
/// submits span by span.
struct Dma<'a> {
    rank: usize,
    h2d: bool,
    stream: gv_gpu::StreamId,
    lease: &'a StagingLease,
    /// Device address of the payload's first byte.
    dev: DevicePtr,
    payload: u64,
}

impl Dma<'_> {
    /// Record `span` as a chunk of transfer `xfer`, first issuing its async
    /// copy when `issue` (a span staged now whose copy waits for the flush
    /// is recorded unlabelled).
    fn span(
        &self,
        ctx: &mut Ctx,
        cc: &gv_cuda::CudaContext,
        xfer: u64,
        span: gv_mem::Span,
        issue: bool,
    ) {
        let label = if issue {
            let cmd = if self.h2d {
                cc.memcpy_h2d_async_at(
                    ctx,
                    self.stream,
                    self.lease.buffer(),
                    span.offset,
                    self.dev.add(span.offset),
                    span.len,
                )
            } else {
                cc.memcpy_d2h_async_at(
                    ctx,
                    self.stream,
                    self.dev.add(span.offset),
                    self.lease.buffer(),
                    span.offset,
                    span.len,
                )
            }
            .expect("GVM span DMA submit");
            if ctx.tracer().analysis_enabled() {
                format!("cmd-{}", cmd.id)
            } else {
                String::new()
            }
        } else {
            String::new()
        };
        gv_mem::record_chunk(
            ctx.tracer(),
            cc.cuda().device().tracer_ordinal(),
            self.rank,
            xfer,
            self.h2d,
            span,
            self.payload,
            self.lease.id(),
            label,
        );
    }
}

struct RankResources {
    shm: SharedMem,
    resp: MessageQueue<Response>,
    stream: gv_gpu::StreamId,
    gpu: Option<RankGpuAlloc>,
    /// Pooled pinned staging lease for the current round's input payload
    /// (acquired at `SND`, recycled at `RCV`).
    pinned_in: Option<StagingLease>,
    /// Pooled pinned staging lease for the current round's output payload
    /// (acquired at flush, recycled at `RCV`).
    pinned_out: Option<StagingLease>,
    /// Chunked pipelining pre-issued iteration 0's H2D copies at `SND`;
    /// the flush must not submit that copy again.
    h2d_preissued: bool,
    /// Steady-state double buffer: next round's input lease, staged by a
    /// prefetched `SND` while the current round is still on the device.
    /// Promoted to `pinned_in` at `RCV`.
    pinned_in_next: Option<StagingLease>,
    /// The prefetched `SND` already pre-issued next round's H2D copies
    /// (behind the current round's work on the same in-order stream).
    h2d_preissued_next: bool,
    /// Tail of the stream at the end of this rank's last flush. Steady
    /// `STP` polls this instead of the raw stream tail, which may already
    /// include next round's pre-issued H2D.
    round_tail: Option<gv_gpu::CommandHandle>,
    /// Zero-copy transport: the session-lifetime pinned lease whose bytes
    /// *are* the rank's shm segment (leased at boot, recycled at `RLS`).
    /// `None` on the staged-copy path.
    zc_lease: Option<StagingLease>,
    /// The descriptor granted to the client at `REQ` `ACK` (what a valid
    /// `SND` must present back). Cleared when the lease is recycled.
    zc_desc: Option<StagingDescriptor>,
    /// Completed `RCV` rounds this session (selects a shaped session's
    /// per-round input size).
    rounds_done: u32,
    task: GpuTask,
    state: RankState,
    /// Device bytes currently charged against this rank's quota (0 when
    /// quota accounting is off).
    charged: u64,
    /// Highest request sequence number seen from this rank (0 = none).
    last_seq: u64,
    /// Response recorded for `last_seq`, for idempotent retries. `None`
    /// while the request is still barriered (`STR` awaiting flush).
    last_resp: Option<ResponseKind>,
}

/// The staging lease a rank's transfer sources from (`h2d`) or drains
/// into: the zero-copy segment lease, else the staged input or output
/// lease.
fn xfer_lease(rank: &RankResources, zc: bool, h2d: bool) -> &StagingLease {
    if zc {
        rank.zc_lease.as_ref().expect("zero-copy lease")
    } else if h2d {
        rank.pinned_in.as_ref().expect("SND leased pinned_in")
    } else {
        rank.pinned_out
            .as_ref()
            .expect("pinned_out leased at flush")
    }
}

/// Handle returned by [`Gvm::install`]: everything a client process needs
/// to connect, plus lifecycle gates for the harness.
#[derive(Clone)]
pub struct GvmHandle {
    /// Queue/segment naming.
    pub endpoints: Endpoints,
    /// Configuration (barrier width, dispatch policy, memory path).
    pub config: Arc<GvmConfig>,
    /// Shared-memory namespace for this node.
    pub shm: ShmRegistry,
    /// Request-queue namespace.
    pub req_mq: MqRegistry<Request>,
    /// Response-queue namespace.
    pub resp_mq: MqRegistry<Response>,
    /// Opens once the GVM finished initializing all virtual resources.
    pub ready: Gate,
    /// Opens once every rank has sent `RLS`.
    pub done: Gate,
    /// Per-rank task descriptions (clients read their input sizes here).
    pub tasks: Arc<Vec<GpuTask>>,
    /// Post-run statistics.
    pub stats: Arc<Mutex<GvmStats>>,
}

impl GvmHandle {
    /// The task assigned to `rank`.
    pub fn task(&self, rank: usize) -> &GpuTask {
        &self.tasks[rank]
    }
}

/// The GPU Virtualization Manager installer.
pub struct Gvm;

impl Gvm {
    /// Spawn a GVM process into `sim` serving `tasks[r]` for rank `r` on
    /// the one device `cuda` (paper Fig. 8: one manager per node GPU; a
    /// multi-GPU node runs one GVM per device behind
    /// [`Cluster`](crate::Cluster)). The GVM boots (context creation,
    /// resource setup) before opening `ready`; clients must wait on it.
    pub fn install(
        sim: &mut Simulation,
        node: &Node,
        cuda: &CudaDevice,
        config: GvmConfig,
        tasks: Vec<GpuTask>,
    ) -> GvmHandle {
        let handle = Self::prepare(node, config, tasks);
        Self::spawn_prepared(sim, &handle, cuda, node);
        handle
    }

    /// Construct a [`GvmHandle`] (registries, gates, task table) without
    /// spawning the manager process. Clients may connect to a prepared
    /// handle immediately — they block on `ready` until some process later
    /// boots the manager via [`Gvm::spawn_prepared`] or
    /// [`Gvm::spawn_prepared_from`]. The cluster front-end uses this to
    /// pre-wire every admission wave at install time and boot later waves
    /// only when their predecessors drain.
    pub fn prepare(node: &Node, config: GvmConfig, tasks: Vec<GpuTask>) -> GvmHandle {
        assert_eq!(tasks.len(), config.ntask, "one task per SPMD rank required");
        assert!(config.ntask >= 1);
        let endpoints = Endpoints::new(&config.name);
        let shm_reg = ShmRegistry::new(node.config());
        let req_reg: MqRegistry<Request> = MqRegistry::new(node.config());
        let resp_reg: MqRegistry<Response> = MqRegistry::new(node.config());
        GvmHandle {
            endpoints: endpoints.clone(),
            config: Arc::new(config),
            shm: shm_reg,
            req_mq: req_reg,
            resp_mq: resp_reg,
            ready: Gate::new(),
            done: Gate::new(),
            tasks: Arc::new(tasks),
            stats: Arc::new(Mutex::new(GvmStats::default())),
        }
    }

    /// Boot the manager process for a [prepared](Gvm::prepare) handle on
    /// device `cuda` from the simulation's top level.
    pub fn spawn_prepared(
        sim: &mut Simulation,
        handle: &GvmHandle,
        cuda: &CudaDevice,
        node: &Node,
    ) {
        let (h, cuda, node) = (handle.clone(), cuda.clone(), node.clone());
        sim.spawn(&h.endpoints.gvm.clone(), move |ctx| {
            GvmCore::boot(ctx, h, cuda, &node).serve(ctx);
        });
    }

    /// Boot the manager process for a [prepared](Gvm::prepare) handle on
    /// device `cuda` from within a running process (e.g. a cluster wave
    /// controller releasing the next admission wave once the previous one
    /// drains).
    pub fn spawn_prepared_from(ctx: &Ctx, handle: &GvmHandle, cuda: &CudaDevice, node: &Node) {
        let (h, cuda, node) = (handle.clone(), cuda.clone(), node.clone());
        ctx.spawn(&h.endpoints.gvm.clone(), move |ctx| {
            GvmCore::boot(ctx, h, cuda, &node).serve(ctx);
        });
    }
}

/// The manager process: what [`boot`](Self::boot) sets up (paper Fig. 8,
/// left column top) and the serve loop then drives, one handler per
/// [`RequestKind`].
struct GvmCore {
    h: GvmHandle,
    cfg: Arc<GvmConfig>,
    cuda: CudaDevice,
    /// The one charged context every rank's stream lives in.
    cc: gv_cuda::CudaContext,
    req_q: MessageQueue<Request>,
    ranks: Vec<RankResources>,
    ml: MemLayer,
    scheduler: Box<dyn Scheduler>,
    /// Device memory is allocated at first `SND` rather than at boot.
    lazy_alloc: bool,
    /// Ranks barriered on `STR`, in arrival order.
    str_waiting: Vec<usize>,
    /// When the oldest pending STR arrived — anchors the scheduler's batch
    /// timeout and the idle-gap metric.
    batch_start: Option<gv_sim::SimTime>,
    /// Absolute deadline for the current barrier round, fixed when the
    /// first STR arrives. Retried/duplicated requests received during the
    /// stall must NOT push it out, or steady client retries could keep a
    /// dead barrier alive forever.
    barrier_deadline: Option<gv_sim::SimTime>,
}

impl GvmCore {
    /// Initialization: the context, the request queue, every rank's virtual
    /// resources, and the dispatch policy; opens `ready`.
    fn boot(ctx: &mut Ctx, h: GvmHandle, cuda: CudaDevice, node: &Node) -> GvmCore {
        let cfg = h.config.clone();
        // "Gets the GPU device / Initializes Context": one charged context.
        let cc = cuda.create_context(ctx, &format!("{}-ctx0", h.endpoints.gvm));
        let req_q = h
            .req_mq
            .create(&h.endpoints.request_queue(), None)
            .expect("request queue name free");

        // Fault-free GVMs pre-allocate at boot (Fig. 8); the fault-tolerant
        // one overcommits and allocates at first SND so an OOM can be
        // answered with a NAK instead of a boot-time panic. A finite quota
        // forces the lazy path too (an over-quota demand must become an
        // OverQuota NAK at admission, never a silent boot-time grab), as
        // does swap: an oversubscribed session set cannot all be resident
        // at boot.
        let lazy_alloc = cfg.fault_tolerance || cfg.has_finite_quota() || cfg.swap;

        // One lease window serves both directions on the zero-copy path, so
        // it cannot coexist with the steady-state double buffer (which
        // needs next round's input alive while this round's output drains).
        assert!(
            !(cfg.mem.zero_copy && cfg.mem.pipeline.steady),
            "zero_copy is incompatible with steady double-buffering"
        );

        // The buffer-lifecycle layer: one staging pool and one device
        // allocation cache per GVM instance. The adaptive chunk chooser is
        // seeded from the models this run already uses — staging rate from
        // the node's memcpy bandwidth, transfer rate from the device's
        // pinned H2D bandwidth, per-chunk overhead from the fixed latencies
        // both sides charge per span — and refined online by an EWMA of
        // measured staging latency.
        let dev_cfg = cuda.device().config();
        let chooser = AdaptiveChooser::new(
            1.0 / node.config().memcpy_gbps,
            1.0e9 / dev_cfg.h2d_bytes_per_sec(true),
            (node.config().shm_latency + dev_cfg.dma_latency).as_nanos() as f64,
        );
        let ml = MemLayer {
            mem: cfg.mem,
            pool: StagingPool::new(),
            devcache: DeviceAllocCache::new(),
            chooser,
            spans: Vec::new(),
            ack: Vec::new(),
            chain_next: None,
        };
        // The dispatch policy. Per-rank service estimates feed shortest-
        // job-first ordering; the other policies ignore them.
        let costs_ms: Vec<f64> = (0..cfg.ntask)
            .map(|r| sched::estimate_cost_ms(&h.tasks[r], dev_cfg, node.config()))
            .collect();
        let scheduler = cfg.scheduler.build(costs_ms);
        let mut core = GvmCore {
            ranks: Vec::with_capacity(cfg.ntask),
            h,
            cfg,
            cuda,
            cc,
            req_q,
            ml,
            scheduler,
            lazy_alloc,
            str_waiting: Vec::new(),
            batch_start: None,
            barrier_deadline: None,
        };
        for r in 0..core.cfg.ntask {
            let rank = core.boot_rank(ctx, r);
            core.ranks.push(rank);
            // With quota accounting on, an eager boot allocation is charged
            // (and its quota declared) right here; the lazy path declares
            // at REQ and charges at first SND.
            if core.cfg.quotas.is_some() && !lazy_alloc {
                core.declare_quota(ctx, r);
                let bytes = core.ranks[r].task.device_bytes.max(1);
                core.quota_charge(ctx, r, bytes);
            }
        }
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::ProtoSched {
                time: ctx.now(),
                gvm: core.h.endpoints.gvm.clone(),
                policy: core.scheduler.name().to_string(),
                partial: core.scheduler.partial_flush(),
            });
        core.h.ready.open(ctx);
        core
    }

    /// Rank `r`'s virtual resources: shared-memory segment, response
    /// queue, stream, and — unless allocation is lazy — device memory with
    /// its kernels pre-bound.
    fn boot_rank(&mut self, ctx: &mut Ctx, r: usize) -> RankResources {
        let task = self.h.tasks[r].clone();
        let endpoints = &self.h.endpoints;
        // Shaped multi-round sessions size the segment (and the zero-copy
        // lease) for their largest round.
        let shm_size = task.max_bytes_in().max(task.bytes_out).max(1);
        // Zero-copy: the rank's segment is not a private byte array the
        // GVM copies out of — it is a *view of a pinned pool lease*. The
        // client's SND write lands directly in pinned memory and H2D
        // issues straight from it; the staged-copy path keeps the plain
        // segment.
        let (shm, zc_lease) = if self.cfg.mem.zero_copy {
            let lease = self
                .ml
                .pool
                .acquire(ctx.tracer(), shm_size, task.is_functional());
            let shm = self
                .h
                .shm
                .create_backed(
                    &endpoints.shm(r),
                    shm_size,
                    Arc::new(LeaseBacking::new(&lease)),
                )
                .expect("shm name free");
            (shm, Some(lease))
        } else {
            let shm = self
                .h
                .shm
                .create(&endpoints.shm(r), shm_size)
                .expect("shm name free");
            (shm, None)
        };
        let resp = self
            .h
            .resp_mq
            .create(&endpoints.response_queue(r), None)
            .expect("response queue name free");
        let stream = self.cc.stream_create();
        let gpu = (!self.lazy_alloc).then(|| {
            let dev_base = self
                .cc
                .malloc(task.device_bytes.max(1))
                .expect("GVM device allocation");
            // "Prepares the kernels to be executed when initialized".
            let kernels = task.bind_kernels(dev_base);
            RankGpuAlloc { dev_base, kernels }
        });
        // Pinned staging is leased per round from the shared pool (at SND
        // for input, at flush for output) instead of allocated per rank
        // here — recycled leases make steady-state rounds allocation-free.
        RankResources {
            shm,
            resp,
            stream,
            gpu,
            pinned_in: None,
            pinned_out: None,
            h2d_preissued: false,
            pinned_in_next: None,
            h2d_preissued_next: false,
            round_tail: None,
            zc_lease,
            zc_desc: None,
            rounds_done: 0,
            task,
            state: RankState::Active,
            charged: 0,
            last_seq: 0,
            last_resp: None,
        }
    }

    /// The serve loop: receive and handle requests until no rank is still
    /// being served, then shut down.
    fn serve(mut self, ctx: &mut Ctx) {
        while self.ranks.iter().any(|k| k.state == RankState::Active) {
            if self.str_waiting.is_empty() {
                self.barrier_deadline = None;
                self.batch_start = None;
            }
            // The scheduler's own deadline (AdaptiveBatch timer),
            // independent of fault tolerance: it fires a dispatch, never an
            // eviction.
            let sched_deadline = match (self.scheduler.batch_timeout(), self.batch_start) {
                (Some(t), Some(b)) => Some(b + t),
                _ => None,
            };
            let ft_deadline = self.cfg.fault_tolerance.then(|| {
                self.barrier_deadline
                    .unwrap_or_else(|| ctx.now() + IDLE_TIMEOUT)
            });
            let deadline = match (ft_deadline, sched_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let req = match deadline {
                None => match self.req_q.recv(ctx) {
                    Some(req) => req,
                    None => break,
                },
                Some(d) => match self.req_q.recv_timeout(ctx, d.duration_since(ctx.now())) {
                    RecvTimeout::Msg(req) => req,
                    RecvTimeout::Closed => break,
                    RecvTimeout::TimedOut => {
                        let sched_fired =
                            sched_deadline.is_some_and(|sd| ft_deadline.is_none_or(|fd| sd <= fd));
                        self.on_timeout(ctx, sched_fired);
                        continue;
                    }
                },
            };
            self.handle(ctx, req);
        }
        self.shutdown(ctx);
    }

    /// A timed receive expired. The scheduler's batch timer flushes what
    /// is pending, nobody presumed dead. A fault-tolerance deadline evicts
    /// the ranks presumed gone — every active rank when nothing is
    /// barriered, else the barrier's stragglers, after which the policy
    /// re-arms at the reduced width and flushes so survivors complete.
    fn on_timeout(&mut self, ctx: &mut Ctx, sched_fired: bool) {
        if sched_fired {
            ctx.tracer().instant(ctx.now(), "sched", "batch-timeout");
        } else {
            let stalled_barrier = !self.str_waiting.is_empty();
            for r in 0..self.ranks.len() {
                if self.ranks[r].state == RankState::Active && !self.str_waiting.contains(&r) {
                    self.evict(ctx, r);
                }
            }
            if !stalled_barrier {
                return;
            }
            ctx.tracer().fault(
                ctx.now(),
                format!("barrier-degrade:{}", self.str_waiting.len()),
            );
        }
        let active = self.active_count();
        let groups = self.scheduler.on_deadline(&self.str_waiting, active);
        self.dispatch(ctx, groups);
    }

    /// Route one request: drop forged ranks, answer retries from the
    /// recorded response, refuse ranks no longer served, then run the
    /// stage's handler.
    fn handle(&mut self, ctx: &mut Ctx, req: Request) {
        let r = req.rank;
        // The request queue is shared, so `req.rank` is only a claim. An
        // out-of-range rank has no response queue to NAK on: drop it.
        if r >= self.ranks.len() {
            ctx.tracer().fault(ctx.now(), format!("bad-rank:{r}"));
            return;
        }
        // Record construction clones the instance name; skip it when no
        // analysis sink is attached so the request loop stays
        // allocation-free (the tracer drops gated records anyway).
        if ctx.tracer().analysis_enabled() {
            ctx.tracer().record_analysis(gv_sim::AnalysisRecord::Proto {
                time: ctx.now(),
                gvm: self.h.endpoints.gvm.clone(),
                rank: r,
                kind: req.kind.label(),
                seq: req.seq,
            });
        }

        // Idempotent retry handling: a sequence number at or below the
        // last one served is a duplicate (client retry after a lost
        // response, or a duplicated request message).
        let rank = &mut self.ranks[r];
        if req.seq != 0 && req.seq <= rank.last_seq {
            self.h.stats.lock().dedup_hits += 1;
            if req.seq == rank.last_seq {
                if let Some(kind) = rank.last_resp {
                    // Replay carries the current grant so a client whose
                    // REQ ACK was lost still receives its descriptor.
                    let desc = rank.zc_desc;
                    let _ = rank.resp.send(
                        ctx,
                        Response {
                            seq: req.seq,
                            kind,
                            desc,
                        },
                    );
                }
                // else: the original is still barriered in str_waiting —
                // the ACK will go out at flush; never barrier twice.
            }
            return;
        }
        rank.last_seq = req.seq;
        rank.last_resp = None;

        // An evicted (or already-released) rank gets a NAK so a retrying
        // client stops instead of timing out forever.
        if rank.state != RankState::Active {
            self.h.stats.lock().naks += 1;
            send_recorded(ctx, rank, Response::nak(req.seq));
            return;
        }

        match req.kind {
            RequestKind::Req => self.on_req(ctx, r, req.seq),
            RequestKind::Snd => self.on_snd(ctx, r, &req),
            RequestKind::Str => self.on_str(ctx, r, req.seq),
            RequestKind::Stp => self.on_stp(ctx, r, req.seq),
            RequestKind::Rcv => self.on_rcv(ctx, r, req.seq),
            RequestKind::Rls => self.on_rls(ctx, r, req.seq),
        }
    }

    /// `REQ`: "Provides Virtual and GPU Resource" — pre-created at boot
    /// (fault-free) or deferred to `SND` (lazy). On the lazy path the quota
    /// is declared and enforced here: a session whose declared demand can
    /// never fit its quota is refused at admission, not after staging work.
    fn on_req(&mut self, ctx: &mut Ctx, r: usize, seq: u64) {
        if self.cfg.quotas.is_some() && self.lazy_alloc && !self.declare_quota(ctx, r) {
            self.nak_evict(ctx, r, seq, NakReason::OverQuota);
            return;
        }
        // Zero-copy: the REQ ACK carries the staging descriptor — the
        // client's window into this rank's lease-backed segment. The
        // generation stamp is what later SNDs are validated against.
        let mut resp = Response::ack(seq);
        if self.cfg.mem.zero_copy {
            let rank = &mut self.ranks[r];
            let lease = rank
                .zc_lease
                .as_ref()
                .expect("zero-copy rank leased at boot");
            let len = rank.task.max_bytes_in().max(rank.task.bytes_out).max(1);
            let desc = lease.descriptor(0, len);
            rank.zc_desc = Some(desc);
            if ctx.tracer().analysis_enabled() {
                ctx.tracer()
                    .record_analysis(gv_sim::AnalysisRecord::DescGrant {
                        time: ctx.now(),
                        gvm: self.h.endpoints.gvm.clone(),
                        rank: r,
                        segment: self.h.endpoints.shm(r),
                        buf: desc.segment,
                        generation: desc.generation,
                        len: desc.len,
                    });
            }
            resp = resp.with_desc(desc);
        }
        send_recorded(ctx, &mut self.ranks[r], resp);
    }

    /// `SND`: a lazy GVM first allocates device memory (an OOM becomes a
    /// NAK and an eviction instead of a wedge), then the input is staged
    /// — or, on the zero-copy path, validated where the client wrote it.
    fn on_snd(&mut self, ctx: &mut Ctx, r: usize, req: &Request) {
        if self.lazy_alloc && self.ranks[r].gpu.is_none() {
            let Ok(dev_base) = self.alloc_lazy(ctx, r) else {
                self.nak_evict(ctx, r, req.seq, NakReason::Oom);
                return;
            };
            let rank = &mut self.ranks[r];
            let kernels = rank.task.bind_kernels(dev_base);
            rank.gpu = Some(RankGpuAlloc { dev_base, kernels });
            let bytes = rank.task.device_bytes.max(1);
            self.quota_charge(ctx, r, bytes);
        }
        if self.cfg.mem.zero_copy {
            self.snd_zero_copy(ctx, r, req);
        } else {
            self.snd_staged(ctx, r, req.seq);
        }
    }

    /// Lazy device allocation for rank `r`. Allocations parked by earlier
    /// releases or evictions are reused before touching the device
    /// allocator (a swapped-out one is restored first), and with swap
    /// enabled a miss may evict idle parked working sets to host staging
    /// to make room.
    fn alloc_lazy(&mut self, ctx: &mut Ctx, r: usize) -> Result<DevicePtr, gv_cuda::CudaError> {
        let rank = &self.ranks[r];
        let bytes = rank.task.device_bytes.max(1);
        let functional = rank.task.is_functional();
        let ptr = match self.ml.devcache.take(bytes) {
            None => return self.alloc_with_swap(ctx, r, bytes),
            Some(CachedAlloc::Resident(ptr)) => ptr,
            Some(CachedAlloc::Swapped(lease)) => match self.alloc_with_swap(ctx, r, bytes) {
                Ok(ptr) => {
                    self.swap_in(ctx, r, ptr, lease);
                    ptr
                }
                Err(e) => {
                    // Park the working set back so its bytes are not lost
                    // with the lease.
                    self.ml.devcache.park_swapped(bytes, lease, ctx.now());
                    return Err(e);
                }
            },
        };
        // A recycled allocation holds its previous owner's bytes, but
        // untouched device memory reads as zeroes to a functional task:
        // restore that.
        if functional {
            self.zero_fill(ctx, r, ptr, bytes);
        }
        Ok(ptr)
    }

    /// Restore a swapped-out working set into `ptr` through the chunked
    /// planner, then return its staging lease to the pool — only after
    /// the restore copies completed (no use-after-recycle).
    fn swap_in(&mut self, ctx: &mut Ctx, r: usize, ptr: DevicePtr, lease: StagingLease) {
        let rank = &self.ranks[r];
        let (stream, bytes) = (rank.stream, rank.task.device_bytes.max(1));
        let dma = Dma {
            rank: r,
            h2d: true,
            stream,
            lease: &lease,
            dev: ptr,
            payload: bytes,
        };
        let k = self.ml.choose(bytes);
        self.ml.submit(ctx, &self.cc, &dma, k);
        self.cc.stream_synchronize(ctx, stream);
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::SwapIn {
                time: ctx.now(),
                gvm: self.h.endpoints.gvm.clone(),
                device: self.cuda.device().tracer_ordinal(),
                buf: lease.id(),
                bytes,
            });
        {
            let mut stats = self.h.stats.lock();
            stats.swap_ins += 1;
            stats.swapped_in_bytes += bytes;
        }
        self.ml.pool.recycle(ctx.tracer(), lease);
    }

    /// Zero `bytes` of device memory at `ptr` for rank `r`. The writes go
    /// through the same chunked planner as payload transfers, so the
    /// staging checker audits their tiling too.
    fn zero_fill(&mut self, ctx: &mut Ctx, r: usize, ptr: DevicePtr, bytes: u64) {
        let k = self.ml.choose(bytes);
        let xfer = self.ml.plan(ctx.tracer(), r, bytes, k);
        let zeros = vec![0u8; bytes as usize];
        let device = self.cuda.device();
        for span in &self.ml.spans {
            let range = span.offset as usize..(span.offset + span.len) as usize;
            device
                .with_memory(|m| m.write_bytes(ptr.add(span.offset), &zeros[range]))
                .expect("zero recycled device allocation");
            gv_mem::record_chunk(
                ctx.tracer(),
                device.tracer_ordinal(),
                r,
                xfer,
                true,
                *span,
                bytes,
                0,
                String::new(),
            );
        }
    }

    /// Allocate `bytes` for rank `r`, demand-swapping idle parked working
    /// sets (LRU-first) out to pooled pinned host staging until the
    /// allocation fits — when [`GvmConfig::swap`] is on; a plain `malloc`
    /// otherwise. The requesting rank's (idle) stream carries the D2H
    /// copies, and each victim's device memory is freed only after its
    /// copies completed, so no copy ever references freed memory.
    fn alloc_with_swap(
        &mut self,
        ctx: &mut Ctx,
        r: usize,
        bytes: u64,
    ) -> Result<DevicePtr, gv_cuda::CudaError> {
        let stream = self.ranks[r].stream;
        loop {
            let err = match self.cc.malloc(bytes) {
                Ok(ptr) => return Ok(ptr),
                Err(e) => e,
            };
            if !self.cfg.swap {
                return Err(err);
            }
            // Pick the coldest resident parked allocation; if nothing is
            // parked there is nothing left to swap and the OOM is final.
            let Some((vbytes, vptr, vstamp)) = self.ml.devcache.lru_resident() else {
                return Err(err);
            };
            // Stage the victim's bytes into an opaque pool lease through
            // the chunked planner, then free the device memory and re-park
            // the entry as swapped with its LRU stamp preserved.
            let lease = self.ml.pool.acquire(ctx.tracer(), vbytes, false);
            let dma = Dma {
                rank: r,
                h2d: false,
                stream,
                lease: &lease,
                dev: vptr,
                payload: vbytes,
            };
            let k = self.ml.choose(vbytes);
            self.ml.submit(ctx, &self.cc, &dma, k);
            self.cc.stream_synchronize(ctx, stream);
            let _ = self.cuda.device().free(vptr);
            ctx.tracer()
                .record_analysis(gv_sim::AnalysisRecord::SwapOut {
                    time: ctx.now(),
                    gvm: self.h.endpoints.gvm.clone(),
                    device: self.cuda.device().tracer_ordinal(),
                    buf: lease.id(),
                    bytes: vbytes,
                });
            {
                let mut stats = self.h.stats.lock();
                stats.swap_outs += 1;
                stats.swapped_out_bytes += vbytes;
            }
            self.ml.devcache.park_swapped(vbytes, lease, vstamp);
        }
    }

    /// Zero-copy `SND`: the payload already sits in pinned memory (the
    /// client wrote it through the lease-backed segment), so there is no
    /// shm→pinned copy — snd_copies/copy_time stay untouched. The
    /// presented descriptor's generation is validated first: a recycled
    /// lease means the window now aliases someone else's buffer and the
    /// SND must be refused.
    fn snd_zero_copy(&mut self, ctx: &mut Ctx, r: usize, req: &Request) {
        let ok = req
            .desc
            .is_some_and(|d| self.ranks[r].zc_desc == Some(d) && self.ml.pool.validate(&d));
        if ctx.tracer().analysis_enabled() {
            let (buf, generation) = req
                .desc
                .map(|d| (d.segment, d.generation))
                .unwrap_or((0, 0));
            ctx.tracer()
                .record_analysis(gv_sim::AnalysisRecord::DescUse {
                    time: ctx.now(),
                    gvm: self.h.endpoints.gvm.clone(),
                    rank: r,
                    buf,
                    generation,
                    ok,
                });
        }
        if !ok {
            ctx.tracer().fault(ctx.now(), format!("stale-desc:rank{r}"));
            self.h.stats.lock().naks += 1;
            send_recorded(
                ctx,
                &mut self.ranks[r],
                Response::nak_reason(req.seq, NakReason::Stale),
            );
            return;
        }
        let rank = &self.ranks[r];
        let bytes = rank.task.bytes_in_for_round(rank.rounds_done);
        if bytes > 0 {
            // H2D issues straight from the lease; every span is handed to
            // the copy engine now, ahead of the kernels on the same
            // in-order stream, so the flush skips iteration 0's upload.
            let k = self.ml.choose(bytes);
            self.submit_spans(ctx, r, true, bytes, k);
            self.ranks[r].h2d_preissued = true;
        }
        send_recorded(ctx, &mut self.ranks[r], Response::ack(req.seq));
    }

    /// Staged `SND`: "Copies Data from Virtual Shared Memory to Host
    /// Pinned Memory" — performed by the GVM, charged to the GVM. Payloads
    /// at or above the pipeline threshold are split into chunks, each
    /// handed to the copy engine the moment it is staged, so the H2D of
    /// chunk i overlaps the shm staging of chunk i+1.
    fn snd_staged(&mut self, ctx: &mut Ctx, r: usize, seq: u64) {
        // Steady-state prefetch: a second SND arriving while this rank's
        // round is still on the device stages next round's input into the
        // double buffer and pre-issues its H2D behind the in-flight work on
        // the same in-order stream — iteration overlap across rounds. It
        // is planned at next round's size, so shaped sessions keep
        // prefetching.
        let rank = &mut self.ranks[r];
        let prefetch = self.ml.mem.pipeline.steady && rank.pinned_in.is_some();
        let bytes = rank
            .task
            .bytes_in_for_round(rank.rounds_done + u32::from(prefetch));
        if bytes > 0 {
            let t0 = ctx.now();
            // Coalescing: chain this lease right after the last one handed
            // out, so co-flushed ranks' staging leases sit adjacent and the
            // flush planner can fuse them.
            let coalesce = self.ml.mem.coalesce;
            let slot = if prefetch {
                &mut rank.pinned_in_next
            } else {
                &mut rank.pinned_in
            };
            if slot.is_none() {
                let hint = if coalesce { self.ml.chain_next } else { None };
                let functional = rank.task.is_functional();
                let lease = self
                    .ml
                    .pool
                    .acquire_at(ctx.tracer(), bytes, functional, hint);
                if coalesce {
                    self.ml.chain_next = Some(lease.place_addr() + lease.capacity());
                }
                *slot = Some(lease);
            }
            let k = self.ml.choose(bytes);
            let xfer = self.ml.plan(ctx.tracer(), r, bytes, k);
            let chunked = self.ml.spans.len() > 1;
            let rank = &self.ranks[r];
            let dma = Dma {
                rank: r,
                h2d: true,
                stream: rank.stream,
                lease: if prefetch {
                    rank.pinned_in_next.as_ref()
                } else {
                    rank.pinned_in.as_ref()
                }
                .expect("pinned input leased above"),
                dev: rank.gpu.as_ref().expect("SND after allocation").dev_base,
                payload: bytes,
            };
            let cc = &self.cc;
            let mut stage_ns = 0u64;
            for span in &self.ml.spans {
                let s0 = ctx.now();
                gv_mem::stage_span(ctx, &rank.shm, dma.lease.buffer(), *span, true)
                    .expect("SND staging");
                stage_ns += ctx.now().duration_since(s0).as_nanos();
                // Chunked transfers hand every span to the copy engine as
                // it is staged; prefetched rounds hand over even a single
                // span (the whole point is getting the H2D in before the
                // round boundary).
                dma.span(ctx, cc, xfer, *span, chunked || prefetch);
            }
            let spans = self.ml.spans.len() as u64;
            // Feed the measured staging latency back into the adaptive
            // model.
            self.ml.chooser.observe_stage(bytes, stage_ns);
            let rank = &mut self.ranks[r];
            if prefetch {
                rank.h2d_preissued_next = true;
            } else {
                rank.h2d_preissued = chunked;
            }
            let mut stats = self.h.stats.lock();
            stats.snd_copies += 1;
            stats.copy_time += ctx.now().duration_since(t0);
            if prefetch {
                stats.steady_prefetches += 1;
            }
            if chunked {
                stats.chunked_transfers += 1;
                stats.chunks_submitted += spans;
            }
        }
        send_recorded(ctx, &mut self.ranks[r], Response::ack(seq));
    }

    /// `STR`: "Buffers the STR message … Barrier to synchronize STR from
    /// all processes", then flush per the policy. The ACK is recorded at
    /// flush time (last_resp stays None until then, which is what makes
    /// retried STRs safe). A rank with nothing to run yet — no device
    /// allocation, or a staged input never sent — breaks the stage order
    /// and is refused.
    fn on_str(&mut self, ctx: &mut Ctx, r: usize, seq: u64) {
        let rank = &self.ranks[r];
        let unsent_input = !self.cfg.mem.zero_copy
            && rank.task.bytes_in_for_round(rank.rounds_done) > 0
            && rank.pinned_in.is_none();
        if rank.gpu.is_none() || unsent_input {
            self.nak_evict(ctx, r, seq, NakReason::Protocol);
            return;
        }
        self.str_waiting.push(r);
        self.batch_start.get_or_insert(ctx.now());
        if self.cfg.fault_tolerance {
            self.barrier_deadline
                .get_or_insert(ctx.now() + BARRIER_TIMEOUT);
        }
        let depth = self.str_waiting.len() as u64;
        {
            let mut stats = self.h.stats.lock();
            stats.queue_depth_samples += 1;
            stats.queue_depth_sum += depth;
            stats.queue_depth_max = stats.queue_depth_max.max(depth);
        }
        ctx.tracer()
            .instant(ctx.now(), "sched", format!("queue-depth:{depth}"));
        let active = self.active_count();
        let groups = self.scheduler.on_str(&self.str_waiting, active);
        self.dispatch(ctx, groups);
    }

    /// `STP`: "If status(stream)=0 sends WAIT, otherwise sends ACK". In
    /// steady mode the stream tail may already include next round's
    /// pre-issued H2D, so completion is judged at the round boundary
    /// recorded at flush, not the raw tail.
    fn on_stp(&mut self, ctx: &mut Ctx, r: usize, seq: u64) {
        let rank = &mut self.ranks[r];
        let done = match &rank.round_tail {
            Some(tail) => tail.is_done(),
            None => self.cc.stream_query(rank.stream),
        };
        let resp = if done {
            Response::ack(seq)
        } else {
            self.h.stats.lock().stp_waits += 1;
            Response::wait(seq)
        };
        send_recorded(ctx, rank, resp);
    }

    /// `RCV`: "Copies Result Data from Host Pinned Memory to Virtual Shared
    /// Memory" — the same span-wise staging path as SND, in the other
    /// direction. On the zero-copy path there is nothing to move: the
    /// flush's final-iteration D2H already landed the results in the lease
    /// that *is* the segment, so the ACK alone tells the client to read
    /// them out (rcv_copies stays untouched). A staged RCV with no flushed
    /// output to copy breaks the stage order and is refused.
    fn on_rcv(&mut self, ctx: &mut Ctx, r: usize, seq: u64) {
        let bytes = self.ranks[r].task.bytes_out;
        if bytes > 0 && !self.cfg.mem.zero_copy {
            let rank = &self.ranks[r];
            let Some(lease) = rank.pinned_out.as_ref() else {
                self.nak_evict(ctx, r, seq, NakReason::Protocol);
                return;
            };
            let t0 = ctx.now();
            self.ml.mem.pipeline.plan_into(bytes, &mut self.ml.spans);
            for span in &self.ml.spans {
                gv_mem::stage_span(ctx, &rank.shm, lease.buffer(), *span, false)
                    .expect("RCV staging");
            }
            let mut stats = self.h.stats.lock();
            stats.rcv_copies += 1;
            stats.copy_time += ctx.now().duration_since(t0);
        }
        // End of the rank's round: both staging leases go back to the pool
        // (this round's copies are done — the client's STP was ACKed at the
        // round boundary before it sent RCV — so no copy still references
        // them; a prefetched next round's H2D reads `pinned_in_next`, which
        // is promoted, never recycled, here).
        let rank = &mut self.ranks[r];
        for lease in [rank.pinned_in.take(), rank.pinned_out.take()]
            .into_iter()
            .flatten()
        {
            self.ml.pool.recycle(ctx.tracer(), lease);
        }
        rank.pinned_in = rank.pinned_in_next.take();
        rank.h2d_preissued = std::mem::take(&mut rank.h2d_preissued_next);
        rank.round_tail = None;
        rank.rounds_done += 1;
        send_recorded(ctx, rank, Response::ack(seq));
    }

    /// `RLS`: release the session and re-evaluate the barrier the other
    /// ranks may be waiting behind (in every mode — the seed only
    /// re-evaluated under fault tolerance, which hung non-uniform
    /// fault-free groups).
    fn on_rls(&mut self, ctx: &mut Ctx, r: usize, seq: u64) {
        self.ranks[r].state = RankState::Released;
        self.reclaim(ctx, r, false);
        send_recorded(ctx, &mut self.ranks[r], Response::ack(seq));
        self.reschedule(ctx);
    }

    /// Refuse rank `r`'s request `seq` for `reason`, evict the rank, and
    /// let the scheduler re-arm the barrier without it — the NAK is final,
    /// so a barrier still counting the rank would wait forever.
    fn nak_evict(&mut self, ctx: &mut Ctx, r: usize, seq: u64, reason: NakReason) {
        let tag = match reason {
            NakReason::OverQuota => "quota",
            other => other.label(),
        };
        ctx.tracer().fault(ctx.now(), format!("{tag}-nak:rank{r}"));
        {
            let mut stats = self.h.stats.lock();
            stats.naks += 1;
            if reason == NakReason::OverQuota {
                stats.quota_naks += 1;
            }
        }
        send_recorded(ctx, &mut self.ranks[r], Response::nak_reason(seq, reason));
        self.evict(ctx, r);
        self.reschedule(ctx);
    }

    /// Membership shrank (release or eviction): the barrier other ranks
    /// wait behind may now be satisfied at the reduced width.
    fn reschedule(&mut self, ctx: &mut Ctx) {
        let active = self.active_count();
        let groups = self.scheduler.on_membership(&self.str_waiting, active);
        self.dispatch(ctx, groups);
    }

    /// Evict `r`: reclaim its resources, close and unlink its response
    /// queue, unlink its shared-memory segment, and drop it from the
    /// barrier — an implicit `RLS` performed by the GVM on the rank's
    /// behalf.
    fn evict(&mut self, ctx: &mut Ctx, r: usize) {
        self.ranks[r].state = RankState::Evicted;
        self.reclaim(ctx, r, true);
        self.ranks[r].resp.close(ctx);
        let _ = self.h.resp_mq.unlink(&self.h.endpoints.response_queue(r));
        let _ = self.h.shm.unlink(&self.h.endpoints.shm(r));
        self.str_waiting.retain(|&w| w != r);
        ctx.tracer().fault(ctx.now(), format!("evict:rank{r}"));
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::ProtoEvict {
                time: ctx.now(),
                gvm: self.h.endpoints.gvm.clone(),
                rank: r,
            });
        self.h.stats.lock().evictions += 1;
    }

    /// Take back what rank `r` holds at release or eviction. Buffers are
    /// recycled (device allocation into the cache, staging leases back to
    /// the pool) only when the rank's stream is idle; with work in flight
    /// an evicted rank's allocation is freed for real and the leases are
    /// dropped un-recycled (the zero-copy lease retired), so no other rank
    /// can ever be handed a buffer an in-flight copy still references.
    /// Either way the client's descriptor goes stale and the quota charge
    /// is settled.
    ///
    /// A released rank keeps its allocation to shutdown (the seed
    /// behavior) unless allocation is lazy: then it is parked in the cache
    /// the eviction path feeds, so a later admission of the same shape
    /// reuses it and demand-swap has idle working sets to evict.
    fn reclaim(&mut self, ctx: &mut Ctx, r: usize, evicting: bool) {
        let rank = &mut self.ranks[r];
        let idle = self.cc.stream_query(rank.stream);
        let park = idle && (evicting || self.lazy_alloc);
        if park || evicting {
            if let Some(gpu) = rank.gpu.take() {
                if park {
                    let bytes = rank.task.device_bytes.max(1);
                    self.ml.devcache.put(bytes, gpu.dev_base, ctx.now());
                } else {
                    let _ = self.cuda.device().free(gpu.dev_base);
                }
            }
        }
        self.quota_credit_all(ctx, r);
        let rank = &mut self.ranks[r];
        for lease in [
            rank.pinned_in.take(),
            rank.pinned_in_next.take(),
            rank.pinned_out.take(),
        ]
        .into_iter()
        .flatten()
        {
            if idle {
                self.ml.pool.recycle(ctx.tracer(), lease);
            }
        }
        if let Some(l) = rank.zc_lease.take() {
            rank.zc_desc = None;
            if idle {
                self.ml.pool.recycle(ctx.tracer(), l);
            } else {
                self.ml.pool.retire(ctx.tracer(), l);
            }
        }
        rank.round_tail = None;
    }

    /// Declare rank `r`'s quota and device demand to the analysis stream;
    /// returns whether the quota admits the demand.
    fn declare_quota(&self, ctx: &Ctx, r: usize) -> bool {
        let rank = &self.ranks[r];
        let demand = rank.task.device_bytes.max(1);
        let cap = self.cuda.device().with_memory(|m| m.capacity());
        let quota = self.cfg.quota_for(r);
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::QuotaSet {
                time: ctx.now(),
                gvm: self.h.endpoints.gvm.clone(),
                rank: r,
                quota: quota.resolve(cap).unwrap_or(0),
                demand,
            });
        quota.admits(demand, cap)
    }

    /// Charge `bytes` against rank `r`'s quota meter, the device's
    /// commitment ledger, and the analysis stream. No-op when quota
    /// accounting is off.
    fn quota_charge(&mut self, ctx: &Ctx, r: usize, bytes: u64) {
        if self.cfg.quotas.is_none() {
            return;
        }
        let rank = &mut self.ranks[r];
        rank.charged += bytes;
        self.cuda.device().with_memory(|m| m.charge(bytes));
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::QuotaCharge {
                time: ctx.now(),
                gvm: self.h.endpoints.gvm.clone(),
                rank: r,
                bytes,
                charged: rank.charged,
            });
    }

    /// Release everything rank `r` still has charged against its quota (at
    /// `RLS`, eviction, or GVM shutdown). No-op when nothing is charged.
    fn quota_credit_all(&mut self, ctx: &Ctx, r: usize) {
        let rank = &mut self.ranks[r];
        if rank.charged == 0 {
            return;
        }
        let bytes = std::mem::take(&mut rank.charged);
        self.cuda.device().with_memory(|m| m.credit(bytes));
        ctx.tracer()
            .record_analysis(gv_sim::AnalysisRecord::QuotaCredit {
                time: ctx.now(),
                gvm: self.h.endpoints.gvm.clone(),
                rank: r,
                bytes,
                charged: 0,
            });
    }

    /// Number of ranks still being served.
    fn active_count(&self) -> usize {
        self.ranks
            .iter()
            .filter(|k| k.state == RankState::Active)
            .count()
    }

    /// Execute the scheduler's decision: flush each returned group in
    /// order. Resets the batch window once the backlog drains.
    fn dispatch(&mut self, ctx: &mut Ctx, groups: Vec<Dispatch>) {
        for group in groups {
            if !group.is_empty() {
                self.flush(ctx, &group);
            }
        }
        if self.str_waiting.is_empty() {
            self.batch_start = None;
        }
    }

    /// Flush one group's streams (in the scheduler's submission order),
    /// then ACK the covered ranks in `STR` arrival order and drop them from
    /// the barrier.
    fn flush(&mut self, ctx: &mut Ctx, group: &[usize]) {
        let t0 = ctx.now();
        let active = self.active_count();
        // The coalescing planner only takes over multi-rank flushes on the
        // overlapped (non-serial) schedule, and never in a swapping GVM —
        // demand-swap can relocate lease windows mid-session, so fusing
        // across it is forbidden (the gv-analyze coalesce checker enforces
        // this over traces). Everything else goes through the per-rank
        // path, which stays bit-identical to the pre-coalescing schedule.
        let cfg = &self.cfg;
        let coalesce = cfg.mem.coalesce && group.len() >= 2 && !cfg.serial_flush && !cfg.swap;
        let dma_ops = if coalesce {
            self.flush_coalesced(ctx, group)
        } else {
            let mut dma_ops = 0u64;
            for &r in group {
                dma_ops += self.flush_rank(ctx, r);
                if self.cfg.serial_flush {
                    self.cc.stream_synchronize(ctx, self.ranks[r].stream);
                }
            }
            dma_ops
        };
        // The queueing delay this dispatch imposed: how long the oldest
        // pending STR sat behind the policy's trigger.
        let gap = self
            .batch_start
            .map(|b| t0.duration_since(b))
            .unwrap_or(SimDuration::ZERO);
        {
            let mut stats = self.h.stats.lock();
            stats.flushes += 1;
            stats.submit_time += ctx.now().duration_since(t0);
            stats.idle_gap += gap;
            stats.flush_dma_ops += dma_ops;
            if group.len() < active {
                stats.partial_flushes += 1;
            }
        }
        if gap > SimDuration::ZERO {
            ctx.tracer()
                .instant(t0, "sched", format!("idle-gap:{}ns", gap.as_nanos()));
        }
        // "Barrier to synchronize ACK to all processes" — arrival order, as
        // in the paper's joint flush, restricted to the covered ranks. The
        // order is assembled into a reusable scratch so steady-state
        // flushes do not allocate.
        let ack = &mut self.ml.ack;
        ack.clear();
        ack.extend(
            self.str_waiting
                .iter()
                .filter(|w| group.contains(w))
                .copied(),
        );
        if ctx.tracer().analysis_enabled() {
            ctx.tracer()
                .record_analysis(gv_sim::AnalysisRecord::ProtoFlush {
                    time: ctx.now(),
                    gvm: self.h.endpoints.gvm.clone(),
                    ranks: ack.clone(),
                });
        }
        // Descriptor-passing batches the flush ACKs: the mq latency is
        // charged once per flush instead of once per rank, then every
        // covered rank's ACK is enqueued prepaid (message faults still
        // apply per queue). This is the "one mq round-trip per scheduler
        // flush" half of the zero-copy overhead cut.
        let zc = self.cfg.mem.zero_copy;
        if let (true, Some(&first)) = (zc, ack.first()) {
            self.ranks[first].resp.charge_latency(ctx);
        }
        for &rr in ack.iter() {
            let rank = &mut self.ranks[rr];
            rank.last_resp = Some(ResponseKind::Ack);
            let resp = Response::ack(rank.last_seq);
            if zc {
                let _ = rank.resp.send_prepaid(ctx, resp);
            } else {
                let _ = rank.resp.send(ctx, resp);
            }
        }
        self.str_waiting.retain(|w| !group.contains(w));
    }

    /// Enqueue one rank's complete pipeline into its stream: per iteration,
    /// async H2D from pinned, the kernel sequence, async D2H into pinned.
    /// Returns the DMA submissions made.
    ///
    /// When `SND` already pre-issued the input payload, the first
    /// iteration's H2D is skipped — it is already queued ahead of the
    /// kernels in the same in-order stream. Zero-copy needs no
    /// `pinned_out`: results drain straight into the rank's lease-backed
    /// segment on the final iteration.
    fn flush_rank(&mut self, ctx: &mut Ctx, r: usize) -> u64 {
        let zc = self.cfg.mem.zero_copy;
        let rank = &mut self.ranks[r];
        let (bytes_in, bytes_out, iterations) = (
            rank.task.bytes_in_for_round(rank.rounds_done),
            rank.task.bytes_out,
            rank.task.iterations,
        );
        if bytes_out > 0 && !zc && rank.pinned_out.is_none() {
            let functional = rank.task.is_functional();
            rank.pinned_out = Some(self.ml.pool.acquire(ctx.tracer(), bytes_out, functional));
        }
        let preissued = std::mem::take(&mut rank.h2d_preissued);
        let mut dma_ops = 0u64;
        for it in 0..iterations {
            if bytes_in > 0 && !(it == 0 && preissued) {
                let k = self.ml.choose(bytes_in);
                dma_ops += self.submit_h2d(ctx, r, bytes_in, k);
            }
            let rank = &self.ranks[r];
            let gpu = rank.gpu.as_ref().expect("flushed rank allocated");
            for k in &gpu.kernels {
                self.cc
                    .launch(ctx, rank.stream, k.clone())
                    .expect("GVM launch");
            }
            // Zero-copy drains results only on the final iteration: one
            // lease window serves both directions, and an intermediate D2H
            // would clobber the input region that later iterations'
            // re-loads still read. D2H never mutates device state, so
            // skipping the intermediate drains leaves the final output
            // bit-identical.
            if bytes_out > 0 && (!zc || it + 1 == iterations) {
                let k = self.ml.choose(bytes_out);
                dma_ops += self.submit_spans(ctx, r, false, bytes_out, k);
            }
        }
        // Steady mode pins this round's completion point now, before any
        // prefetched next-round H2D lands on the stream and moves its tail.
        if self.cfg.mem.pipeline.steady {
            let rank = &mut self.ranks[r];
            rank.round_tail = self.cc.stream_tail(rank.stream);
        }
        dma_ops
    }

    /// Upload rank `r`'s `bytes` of input at flush: as `k` planned spans
    /// when `k > 1` — tiles release the shared H2D engine between spans,
    /// so other ranks' copies interleave instead of waiting out one
    /// monolithic transfer — else as one monolithic copy. Returns the DMA
    /// submissions made.
    fn submit_h2d(&mut self, ctx: &mut Ctx, r: usize, bytes: u64, k: u64) -> u64 {
        if k > 1 {
            return self.submit_spans(ctx, r, true, bytes, k);
        }
        let rank = &self.ranks[r];
        let gpu = rank.gpu.as_ref().expect("flushed rank allocated");
        let lease = xfer_lease(rank, self.cfg.mem.zero_copy, true);
        self.cc
            .memcpy_h2d_async(ctx, rank.stream, lease.buffer(), gpu.dev_base, bytes)
            .expect("GVM H2D submit");
        1
    }

    /// Plan rank `r`'s `bytes` in one direction as `k` spans, issue every
    /// span from or into the rank's staging lease, and count a split
    /// transfer in the chunk stats. Returns the span count. Output drains
    /// always go through here, so early chunks overlap compute still
    /// queued on other ranks' streams.
    fn submit_spans(&mut self, ctx: &mut Ctx, r: usize, h2d: bool, bytes: u64, k: u64) -> u64 {
        let rank = &self.ranks[r];
        let dev_base = rank.gpu.as_ref().expect("rank allocated").dev_base;
        let dma = Dma {
            rank: r,
            h2d,
            stream: rank.stream,
            lease: xfer_lease(rank, self.cfg.mem.zero_copy, h2d),
            dev: if h2d {
                dev_base
            } else {
                dev_base.add(rank.task.d2h_offset)
            },
            payload: bytes,
        };
        let spans = self.ml.submit(ctx, &self.cc, &dma, k);
        if spans > 1 {
            let mut stats = self.h.stats.lock();
            stats.chunked_transfers += 1;
            stats.chunks_submitted += spans;
        }
        spans
    }

    /// The coalescing flush: instead of enqueueing each rank's complete
    /// pipeline in turn, the group is submitted *wave-per-iteration* — all
    /// ranks' H2D transfers, then all their kernel launches, then all their
    /// D2H drains, per iteration. Per-stream command order is unchanged
    /// (each rank still sees H2D → kernels → D2H on its own in-order
    /// stream), so functional outputs are bitwise identical to the per-rank
    /// path; only the submission schedule differs (see
    /// [`dma_wave`](Self::dma_wave) and [`launch_wave`](Self::launch_wave)).
    /// Returns the DMA submissions made.
    fn flush_coalesced(&mut self, ctx: &mut Ctx, group: &[usize]) -> u64 {
        let zc = self.cfg.mem.zero_copy;
        // Output leases are acquired upfront, place-chained, so the D2H
        // waves see adjacent regions; pre-issued iteration-0 H2Ds are taken
        // now.
        let mut preissued = vec![false; group.len()];
        let mut chain: Option<u64> = None;
        for (gi, &r) in group.iter().enumerate() {
            let rank = &mut self.ranks[r];
            let (bytes_out, functional) = (rank.task.bytes_out, rank.task.is_functional());
            if bytes_out > 0 && !zc && rank.pinned_out.is_none() {
                let lease = self
                    .ml
                    .pool
                    .acquire_at(ctx.tracer(), bytes_out, functional, chain);
                chain = Some(lease.place_addr() + lease.capacity());
                rank.pinned_out = Some(lease);
            } else if let Some(l) = rank.pinned_out.as_ref() {
                chain = Some(l.place_addr() + l.capacity());
            }
            preissued[gi] = std::mem::take(&mut rank.h2d_preissued);
        }
        let max_iters = group
            .iter()
            .map(|&r| self.ranks[r].task.iterations)
            .max()
            .unwrap_or(0);
        let mut tally = WaveTally::default();
        for it in 0..max_iters {
            self.dma_wave(ctx, group, it, true, &preissued, &mut tally);
            self.launch_wave(ctx, group, it, &mut tally);
            self.dma_wave(ctx, group, it, false, &preissued, &mut tally);
        }
        if self.cfg.mem.pipeline.steady {
            for &r in group {
                let rank = &mut self.ranks[r];
                rank.round_tail = self.cc.stream_tail(rank.stream);
            }
        }
        let mut stats = self.h.stats.lock();
        stats.fused_dma_groups += tally.fused_groups;
        stats.fused_dma_subs += tally.fused_subs;
        stats.batched_launch_waves += tally.launch_waves;
        stats.batched_launches += tally.batched_launches;
        tally.dma_ops
    }

    /// One direction's DMA wave of a coalesced flush at iteration `it`.
    /// Runs of members whose staging leases are adjacent in host memory
    /// ([`CoalescePlan`]) go down as one fused DMA submission — the copy
    /// engine sweeps the combined range and every sub-op after the first
    /// elides the per-op setup latency — with an
    /// [`AnalysisRecord::CoalesceOp`](gv_sim::AnalysisRecord::CoalesceOp)
    /// manifest for the gv-analyze coalesce checker; singletons go through
    /// the per-rank submitters. Staged outputs drain every iteration,
    /// zero-copy outputs only on the final one.
    fn dma_wave(
        &mut self,
        ctx: &mut Ctx,
        group: &[usize],
        it: u32,
        h2d: bool,
        preissued: &[bool],
        tally: &mut WaveTally,
    ) {
        let zc = self.cfg.mem.zero_copy;
        let quota_on = self.cfg.quotas.is_some();
        let mut xfers: Vec<WaveXfer> = Vec::new();
        for (gi, &r) in group.iter().enumerate() {
            let rank = &self.ranks[r];
            let task = &rank.task;
            let (bytes, skip) = if h2d {
                let bytes = task.bytes_in_for_round(rank.rounds_done);
                (bytes, it == 0 && preissued[gi])
            } else {
                (task.bytes_out, zc && it + 1 != task.iterations)
            };
            if it >= task.iterations || bytes == 0 || skip {
                continue;
            }
            xfers.push(WaveXfer {
                r,
                bytes,
                k: self.ml.choose(bytes),
            });
        }
        let members: Vec<CoalesceMember> = xfers
            .iter()
            .map(|x| {
                let rank = &self.ranks[x.r];
                let eligible = x.k == 1 && (!quota_on || rank.charged > 0);
                CoalesceMember::from_lease(x.r, x.bytes, xfer_lease(rank, zc, h2d), eligible)
            })
            .collect();
        for run in &CoalescePlan::plan(&members).runs {
            if let [i] = run[..] {
                let x = &xfers[i];
                tally.dma_ops += if h2d {
                    self.submit_h2d(ctx, x.r, x.bytes, x.k)
                } else {
                    self.submit_spans(ctx, x.r, false, x.bytes, x.k)
                };
                continue;
            }
            let rank_of = |i: usize| &self.ranks[xfers[i].r];
            let dev_base = |i: usize| {
                rank_of(i)
                    .gpu
                    .as_ref()
                    .expect("flushed rank allocated")
                    .dev_base
            };
            let handles = if h2d {
                let items: Vec<gv_cuda::BatchH2d<'_>> = run
                    .iter()
                    .map(|&i| gv_cuda::BatchH2d {
                        stream: rank_of(i).stream,
                        src: xfer_lease(rank_of(i), zc, true).buffer(),
                        src_offset: 0,
                        dst: dev_base(i),
                        bytes: xfers[i].bytes,
                    })
                    .collect();
                self.cc.memcpy_h2d_async_batch(ctx, &items)
            } else {
                let items: Vec<gv_cuda::BatchD2h<'_>> = run
                    .iter()
                    .map(|&i| gv_cuda::BatchD2h {
                        stream: rank_of(i).stream,
                        src: dev_base(i).add(rank_of(i).task.d2h_offset),
                        dst: xfer_lease(rank_of(i), zc, false).buffer(),
                        dst_offset: 0,
                        bytes: xfers[i].bytes,
                    })
                    .collect();
                self.cc.memcpy_d2h_async_batch(ctx, &items)
            }
            .expect("GVM fused DMA submit");
            tally.dma_ops += run.len() as u64;
            tally.fused_groups += 1;
            tally.fused_subs += run.len() as u64;
            if ctx.tracer().analysis_enabled() {
                record_coalesce_op(ctx, &self.h, &self.cc, h2d, run, &members, &handles);
            }
        }
    }

    /// The kernel wave of a coalesced flush at iteration `it`: when ≥ 2
    /// ranks launch, their kernels go down as a single batched submission
    /// charging the host launch overhead once instead of once per kernel.
    fn launch_wave(&self, ctx: &mut Ctx, group: &[usize], it: u32, tally: &mut WaveTally) {
        let mut nranks = 0usize;
        let mut items: Vec<(gv_gpu::StreamId, gv_gpu::KernelDesc)> = Vec::new();
        for &r in group {
            let rank = &self.ranks[r];
            if it >= rank.task.iterations {
                continue;
            }
            let gpu = rank.gpu.as_ref().expect("flushed rank allocated");
            nranks += 1;
            items.extend(gpu.kernels.iter().map(|k| (rank.stream, k.clone())));
        }
        if nranks >= 2 && !items.is_empty() {
            self.cc
                .launch_batch(ctx, &items)
                .expect("GVM batched launch");
            tally.launch_waves += 1;
            tally.batched_launches += items.len() as u64;
        } else {
            for (stream, k) in items {
                self.cc.launch(ctx, stream, k).expect("GVM launch");
            }
        }
    }

    /// Teardown: free device resources still held (released ranks keep
    /// theirs until GVM shutdown; evicted ranks were reclaimed at
    /// eviction), settle quota charges and zero-copy leases a Closed-queue
    /// exit can leave mid-cycle, return parked allocations, publish the
    /// pool and cache counters, and open `done`.
    fn shutdown(mut self, ctx: &mut Ctx) {
        for r in 0..self.ranks.len() {
            self.quota_credit_all(ctx, r);
            let rank = &mut self.ranks[r];
            if let Some(gpu) = &rank.gpu {
                let _ = self.cuda.device().free(gpu.dev_base);
            }
            if let Some(l) = rank.zc_lease.take() {
                self.ml.pool.recycle(ctx.tracer(), l);
            }
        }
        // Parked device allocations get real frees so the device's
        // alloc/free balance (and `used() == 0`) holds at shutdown; swapped
        // entries hold no device memory, their staging leases go back to
        // the pool (`PoolRecycle` is the retirement marker the quota
        // checker matches against outstanding swap-outs).
        for (_bytes, state) in self.ml.devcache.drain() {
            match state {
                CachedAlloc::Resident(ptr) => {
                    let _ = self.cuda.device().free(ptr);
                }
                CachedAlloc::Swapped(lease) => {
                    self.ml.pool.recycle(ctx.tracer(), lease);
                }
            }
        }
        {
            let ps = self.ml.pool.stats();
            let cs = self.ml.devcache.stats();
            let mut stats = self.h.stats.lock();
            stats.pool_hits = ps.hits;
            stats.pool_misses = ps.misses;
            stats.pool_high_water_bytes = ps.high_water_bytes;
            stats.pool_released_buffers = ps.released_buffers;
            stats.pool_released_bytes = ps.released_bytes;
            stats.devcache_hits = cs.hits;
            stats.devcache_misses = cs.misses;
        }
        self.h.done.open(ctx);
    }
}

/// Send `resp` to `rank` and record it for idempotent retries. In the
/// fault-free GVM a send failure is a bug (queues never close); under
/// fault tolerance a closed queue just means the rank is already gone.
fn send_recorded(ctx: &mut Ctx, rank: &mut RankResources, resp: Response) {
    rank.last_resp = Some(resp.kind);
    let _ = rank.resp.send(ctx, resp);
}

/// One transfer a coalescing wave wants to move: the member's rank, its
/// payload this iteration, and the chunk count the per-rank path would
/// use.
struct WaveXfer {
    r: usize,
    bytes: u64,
    k: u64,
}

/// What one coalesced flush submitted, published to [`GvmStats`] at its
/// end.
#[derive(Default)]
struct WaveTally {
    dma_ops: u64,
    fused_groups: u64,
    fused_subs: u64,
    launch_waves: u64,
    batched_launches: u64,
}

/// Emit the fused submission's [`CoalesceOp`] manifest: member ranks in
/// submission order, their byte spans within the fused batch, the backing
/// pool buffers and lease generations, and the engine command id of each
/// sub-op (pairing with the per-device `CopyBegin`/`CopyEnd` labels).
///
/// [`CoalesceOp`]: gv_sim::AnalysisRecord::CoalesceOp
fn record_coalesce_op(
    ctx: &mut Ctx,
    h: &GvmHandle,
    cc: &gv_cuda::CudaContext,
    h2d: bool,
    run: &[usize],
    members: &[CoalesceMember],
    handles: &[gv_gpu::CommandHandle],
) {
    let mut offsets = Vec::with_capacity(run.len());
    let mut cursor = 0u64;
    for &i in run {
        offsets.push(cursor);
        cursor += members[i].bytes;
    }
    ctx.tracer()
        .record_analysis(gv_sim::AnalysisRecord::CoalesceOp {
            time: ctx.now(),
            gvm: h.endpoints.gvm.clone(),
            device: cc.cuda().device().tracer_ordinal(),
            h2d,
            total: cursor,
            ranks: run.iter().map(|&i| members[i].rank as u64).collect(),
            offsets,
            lens: run.iter().map(|&i| members[i].bytes).collect(),
            bufs: run.iter().map(|&i| members[i].buf).collect(),
            gens: run.iter().map(|&i| members[i].generation).collect(),
            cmds: handles.iter().map(|cmd| cmd.id).collect(),
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `merge` into an empty audit reproduces its argument exactly. The
    /// literal names every field (no `..Default::default()`) with a
    /// distinct nonzero value, so a field added without a `merge` line
    /// breaks the build here or shows up as a `Debug` mismatch.
    #[test]
    fn merge_covers_every_field() {
        let ns = SimDuration::from_nanos;
        let stats = GvmStats {
            snd_copies: 1,
            rcv_copies: 2,
            copy_time: ns(3),
            flushes: 4,
            submit_time: ns(5),
            stp_waits: 6,
            evictions: 7,
            naks: 8,
            dedup_hits: 9,
            partial_flushes: 10,
            queue_depth_max: 11,
            queue_depth_sum: 12,
            queue_depth_samples: 13,
            idle_gap: ns(14),
            pool_hits: 15,
            pool_misses: 16,
            pool_high_water_bytes: 17,
            devcache_hits: 18,
            devcache_misses: 19,
            chunked_transfers: 20,
            chunks_submitted: 21,
            steady_prefetches: 22,
            pool_released_buffers: 23,
            pool_released_bytes: 24,
            quota_naks: 25,
            swap_outs: 26,
            swap_ins: 27,
            swapped_out_bytes: 28,
            swapped_in_bytes: 29,
            fused_dma_groups: 30,
            fused_dma_subs: 31,
            batched_launch_waves: 32,
            batched_launches: 33,
            flush_dma_ops: 34,
        };
        let mut merged = GvmStats::default();
        merged.merge(&stats);
        assert_eq!(format!("{merged:?}"), format!("{stats:?}"));
    }
}
