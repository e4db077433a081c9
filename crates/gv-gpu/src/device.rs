//! The device façade: install a GPU into a simulation and talk to it.
//!
//! [`GpuDevice::install`] spawns the `gpu-sched` scheduler process and hands
//! back a cloneable handle. Host-side simulation processes then create
//! contexts and streams, allocate device memory, and submit asynchronous
//! commands; [`CommandHandle::wait`] blocks the caller in simulated time
//! until the device completes the command.

use std::sync::Arc;

use gv_sim::{Ctx, Pid, SimTime, Simulation};
use parking_lot::Mutex;

use crate::config::{ComputeMode, DeviceConfig};
use crate::engines::{
    CommandHandle, CommandKind, DeviceStats, GpuCtxId, HostData, SchedState, Snapshots, StreamId,
};
use crate::memory::{DeviceMemory, DevicePtr, MemError};

/// Errors surfaced when submitting a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// A copy referenced device memory that is dead or too small.
    Memory(MemError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Memory(e) => write!(f, "submit failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Error creating a GPU context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxError {
    /// The device is in exclusive compute mode and already has a context
    /// ("all CUDA-capable devices are busy" on real hardware).
    ExclusiveModeBusy,
}

impl std::fmt::Display for CtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtxError::ExclusiveModeBusy => {
                write!(f, "device is in exclusive compute mode and busy")
            }
        }
    }
}

impl std::error::Error for CtxError {}

pub(crate) struct DeviceShared {
    pub(crate) config: DeviceConfig,
    pub(crate) memory: Mutex<DeviceMemory>,
    /// Recycled H2D snapshot buffers (a leaf lock).
    pub(crate) snapshots: Mutex<Snapshots>,
    pub(crate) sched: Mutex<SchedState>,
    pub(crate) sched_pid: Mutex<Option<Pid>>,
    /// Tracer ordinal of this device (disambiguates analysis records).
    pub(crate) ord: u32,
    /// Simulation tracer, kept for Ctx-less call sites (alloc/free).
    pub(crate) tracer: gv_sim::trace::Tracer,
}

/// Handle to a simulated GPU. Cheap to clone; all clones share the device.
#[derive(Clone)]
pub struct GpuDevice {
    pub(crate) shared: Arc<DeviceShared>,
}

impl GpuDevice {
    /// Create the device and spawn its scheduler process into `sim`.
    pub fn install(sim: &mut Simulation, config: DeviceConfig) -> GpuDevice {
        let tracer = sim.tracer();
        let ord = tracer.register_device(config.max_concurrent_kernels);
        let mut sched = SchedState::new(&config);
        sched.dev_ord = ord;
        let shared = Arc::new(DeviceShared {
            memory: Mutex::new(DeviceMemory::new(config.global_mem_bytes)),
            snapshots: Mutex::new(Snapshots::default()),
            sched: Mutex::new(sched),
            sched_pid: Mutex::new(None),
            config,
            ord,
            tracer,
        });
        let dev = GpuDevice {
            shared: Arc::clone(&shared),
        };
        let pid = sim.spawn("gpu-sched", {
            let shared = Arc::clone(&shared);
            move |ctx| scheduler_main(ctx, shared)
        });
        *shared.sched_pid.lock() = Some(pid);
        dev
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.shared.config
    }

    /// Tracer ordinal assigned at install: the `device` field carried by
    /// this device's analysis records.
    pub fn tracer_ordinal(&self) -> u32 {
        self.shared.ord
    }

    /// Register a GPU context using the device's default switch cost.
    /// (Creation *time* is charged by the runtime layer, serialized through
    /// the driver — see `gv-cuda`.) Panics in exclusive compute mode when a
    /// context exists; use [`try_create_context`](Self::try_create_context)
    /// to handle that case.
    pub fn create_context(&self, name: &str) -> GpuCtxId {
        let cost = self.shared.config.ctx_switch;
        self.try_create_context(name, cost)
            .expect("device in exclusive compute mode is busy")
    }

    /// Register a GPU context with an explicit switch cost (the paper's
    /// Table II measures per-benchmark switch costs; benchmarks carry them).
    pub fn create_context_with_switch_cost(
        &self,
        name: &str,
        switch_cost: gv_sim::SimDuration,
    ) -> GpuCtxId {
        self.try_create_context(name, switch_cost)
            .expect("device in exclusive compute mode is busy")
    }

    /// Fallible context registration honouring the compute mode.
    pub fn try_create_context(
        &self,
        name: &str,
        switch_cost: gv_sim::SimDuration,
    ) -> Result<GpuCtxId, CtxError> {
        let mut sched = self.shared.sched.lock();
        if self.shared.config.compute_mode == ComputeMode::Exclusive && sched.context_count() > 0 {
            return Err(CtxError::ExclusiveModeBusy);
        }
        Ok(sched.register_context(name, switch_cost))
    }

    /// Create an in-order command stream within `ctx`.
    pub fn create_stream(&self, ctx: GpuCtxId) -> StreamId {
        self.shared.sched.lock().register_stream(ctx)
    }

    /// Allocate device global memory (instantaneous driver call).
    pub fn alloc(&self, bytes: u64) -> Result<DevicePtr, MemError> {
        let ptr = self.shared.memory.lock().alloc(bytes)?;
        self.shared
            .tracer
            .record_analysis(gv_sim::AnalysisRecord::Alloc {
                time: self.shared.tracer.now_hint(),
                device: self.shared.ord,
                id: ptr.allocation_id(),
                bytes,
            });
        Ok(ptr)
    }

    /// Free a device allocation.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), MemError> {
        self.shared.memory.lock().dealloc(ptr)?;
        self.shared
            .tracer
            .record_analysis(gv_sim::AnalysisRecord::Free {
                time: self.shared.tracer.now_hint(),
                device: self.shared.ord,
                id: ptr.allocation_id(),
            });
        Ok(())
    }

    /// Direct access to device memory, for seeding inputs and verifying
    /// outputs outside the timed path (tests and harness plumbing).
    pub fn with_memory<R>(&self, f: impl FnOnce(&mut DeviceMemory) -> R) -> R {
        f(&mut self.shared.memory.lock())
    }

    /// Copy `bytes` into a snapshot for a functional H2D command: what the
    /// command lands is what the source held now, whatever the source holds
    /// by then. The buffer is one an earlier H2D landed, when one is free,
    /// so steady-state copies allocate nothing.
    pub fn snapshot(&self, bytes: &[u8]) -> HostData {
        self.shared.snapshots.lock().fill(bytes)
    }

    /// Arm a deterministic OOM fault at the `nth` upcoming device
    /// allocation (fault injection; see [`DeviceMemory::arm_oom`]).
    pub fn arm_oom(&self, nth: u64) {
        self.shared.memory.lock().arm_oom(nth);
    }

    /// Validate a command's memory references ahead of enqueue, so
    /// completion cannot fail.
    fn validate_kind(&self, kind: &CommandKind) -> Result<(), SubmitError> {
        match kind {
            CommandKind::CopyH2D {
                dst, bytes, data, ..
            } => {
                if let Some(d) = data {
                    assert_eq!(
                        d.len() as u64,
                        *bytes,
                        "functional H2D payload length must equal byte count"
                    );
                }
                self.shared
                    .memory
                    .lock()
                    .validate_range(*dst, *bytes)
                    .map_err(SubmitError::Memory)
            }
            CommandKind::CopyD2H { src, bytes, .. } => self
                .shared
                .memory
                .lock()
                .validate_range(*src, *bytes)
                .map_err(SubmitError::Memory),
            CommandKind::CopyD2D {
                src, dst, bytes, ..
            } => {
                let mem = self.shared.memory.lock();
                mem.validate_range(*src, *bytes)
                    .and_then(|()| mem.validate_range(*dst, *bytes))
                    .map_err(SubmitError::Memory)
            }
            CommandKind::Kernel(_) => Ok(()),
        }
    }

    /// Submit an asynchronous command to `stream`. Copy ranges are
    /// validated now, so completion cannot fail.
    pub fn submit(
        &self,
        ctx: &mut Ctx,
        gpu_ctx: GpuCtxId,
        stream: StreamId,
        kind: CommandKind,
    ) -> Result<CommandHandle, SubmitError> {
        self.validate_kind(&kind)?;
        let handle = self.shared.sched.lock().enqueue(gpu_ctx, stream, kind);
        self.kick(ctx);
        Ok(handle)
    }

    /// Submit several commands as **one coalesced batch**: every item is
    /// validated up front, then all are enqueued under a single scheduler
    /// lock with consecutive command ids and a shared coalesce-group tag,
    /// followed by one scheduler kick. Copy members of the group that run
    /// back-to-back on a DMA engine pay the per-op setup latency only once
    /// (the follower ops run at pure bandwidth cost); each member keeps its
    /// own [`CommandHandle`], so completion fans out per sub-op exactly as
    /// with individual submission. On validation failure nothing is
    /// enqueued.
    pub fn submit_batch(
        &self,
        ctx: &mut Ctx,
        gpu_ctx: GpuCtxId,
        items: Vec<(StreamId, CommandKind)>,
    ) -> Result<Vec<CommandHandle>, SubmitError> {
        for (_, kind) in &items {
            self.validate_kind(kind)?;
        }
        let handles = {
            let mut sched = self.shared.sched.lock();
            let fuse = sched.alloc_fuse_id();
            items
                .into_iter()
                .map(|(stream, kind)| sched.enqueue_fused(gpu_ctx, stream, kind, Some(fuse)))
                .collect()
        };
        self.kick(ctx);
        Ok(handles)
    }

    /// Is `stream` drained (no queued or in-flight command)?
    pub fn stream_idle(&self, stream: StreamId) -> bool {
        self.shared.sched.lock().stream_idle(stream)
    }

    /// Snapshot device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.shared.sched.lock().stats()
    }

    /// Stop the scheduler process so the simulation can complete. Call once
    /// all device work is done.
    pub fn shutdown(&self, ctx: &Ctx) {
        self.shared.sched.lock().shutdown = true;
        self.kick(ctx);
    }

    /// Wake the scheduler (submission or shutdown).
    fn kick(&self, ctx: &Ctx) {
        let pid = self
            .sched_pid()
            .expect("device scheduler not yet installed");
        ctx.unpark(pid);
    }

    fn sched_pid(&self) -> Option<Pid> {
        *self.shared.sched_pid.lock()
    }
}

/// The `gpu-sched` process: repeatedly settle device state at `now`, open
/// completion gates, then sleep until the next internal event or external
/// submission.
fn scheduler_main(ctx: &mut Ctx, shared: Arc<DeviceShared>) {
    loop {
        if shared.sched.lock().shutdown {
            break;
        }
        let now = ctx.now();
        let tracer = ctx.tracer().clone();
        let (opened, next) = {
            let mut sched = shared.sched.lock();
            sched.step(
                &shared.config,
                &shared.memory,
                &shared.snapshots,
                &tracer,
                now,
            )
        };
        for gate in opened {
            gate.open(ctx);
        }
        match next {
            Some(t) => {
                let now = ctx.now();
                if t > now {
                    ctx.park_timeout(t.duration_since(now));
                }
                // t <= now: immediately re-step.
            }
            None => {
                ctx.park();
            }
        }
    }
}

/// Convenience: the simulated time at which the device last did anything —
/// used by tests to reason about makespans.
pub fn device_now(_ctx: &Ctx) -> SimTime {
    _ctx.now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::CommandKind;
    use crate::kernel_desc::{estimate_kernel_time, KernelDesc};
    use gv_sim::{SimDuration, Simulation};

    fn tiny() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    /// One process, one stream: H2D → kernel → D2H must serialize in-order.
    #[test]
    fn single_stream_runs_in_order() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p0");
            let stream = d.create_stream(gctx);
            let buf = d.alloc(1 << 20).unwrap();
            // 1 MiB pinned at 1 GB/s ≈ 1.049 ms + 1 µs latency.
            let h2d = d
                .submit(
                    ctx,
                    gctx,
                    stream,
                    CommandKind::CopyH2D {
                        dst: buf,
                        bytes: 1 << 20,
                        data: None,
                        pinned: true,
                    },
                )
                .unwrap();
            let mut k = KernelDesc::new("k", 2, 32).regs(1);
            k.block_demand_cycles = 1.0e6; // 1 ms at full rate, eff 1/4 → 4 ms
            let kt = estimate_kernel_time(d.config(), &k);
            let kh = d.submit(ctx, gctx, stream, CommandKind::Kernel(k)).unwrap();
            let d2h = d
                .submit(
                    ctx,
                    gctx,
                    stream,
                    CommandKind::CopyD2H {
                        src: buf,
                        bytes: 1 << 20,
                        sink: None,
                        sink_offset: 0,
                        pinned: true,
                    },
                )
                .unwrap();
            h2d.wait(ctx);
            let t_h2d = ctx.now();
            kh.wait(ctx);
            let t_k = ctx.now();
            d2h.wait(ctx);
            let t_d2h = ctx.now();
            assert!(t_h2d < t_k && t_k < t_d2h);
            // Kernel time matches the analytic oracle.
            let measured = t_k.duration_since(t_h2d);
            let err = (measured.as_secs_f64() - kt.as_secs_f64()).abs() / kt.as_secs_f64();
            assert!(err < 1e-6, "kernel time {measured} vs oracle {kt}");
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// Two streams in one context: H2D of stream B overlaps kernel of A
    /// (copy/compute overlap), and both kernels run concurrently.
    #[test]
    fn same_context_streams_overlap() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let s1 = d.create_stream(gctx);
            let s2 = d.create_stream(gctx);
            let mut k = KernelDesc::new("k", 1, 32).regs(1);
            k.block_demand_cycles = 8.0e6; // 8 ms at full rate; eff 1/4 → 32 ms
            let k1 = d
                .submit(ctx, gctx, s1, CommandKind::Kernel(k.clone()))
                .unwrap();
            let k2 = d.submit(ctx, gctx, s2, CommandKind::Kernel(k)).unwrap();
            k1.wait(ctx);
            k2.wait(ctx);
            // Two 1-block kernels land on different SMs → fully concurrent:
            // makespan ≈ one kernel, not two.
            let t = ctx.now().as_millis_f64();
            assert!(t < 40.0, "expected concurrency, makespan {t} ms");
            let stats = d.stats();
            assert_eq!(stats.kernels_completed, 2);
            assert_eq!(stats.max_concurrent_kernels, 2);
            assert_eq!(stats.ctx_switches, 0);
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// Two contexts serialize and pay the switch cost.
    #[test]
    fn cross_context_serializes_with_switch() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let c1 = d.create_context("p1");
            let c2 = d.create_context("p2");
            let s1 = d.create_stream(c1);
            let s2 = d.create_stream(c2);
            let mut k = KernelDesc::new("k", 1, 32).regs(1);
            k.block_demand_cycles = 1.0e6; // 4 ms with eff 1/4
            let k1 = d
                .submit(ctx, c1, s1, CommandKind::Kernel(k.clone()))
                .unwrap();
            let k2 = d.submit(ctx, c2, s2, CommandKind::Kernel(k)).unwrap();
            k1.wait(ctx);
            let t1 = ctx.now().as_millis_f64();
            k2.wait(ctx);
            let t2 = ctx.now().as_millis_f64();
            // k1: 4 ms. Then grace (0.05 ms) + switch (5 ms) + k2 (4 ms).
            assert!((t1 - 4.0).abs() < 0.1, "t1 = {t1}");
            assert!((t2 - 13.05).abs() < 0.1, "t2 = {t2}");
            assert_eq!(d.stats().ctx_switches, 1);
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// H2D and D2H engines overlap (bi-directional transfers).
    #[test]
    fn bidirectional_copies_overlap() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let s1 = d.create_stream(gctx);
            let s2 = d.create_stream(gctx);
            let a = d.alloc(8 << 20).unwrap();
            let b = d.alloc(8 << 20).unwrap();
            let bytes = 8u64 << 20; // 8 MiB at 1 GB/s ≈ 8.39 ms
            let h1 = d
                .submit(
                    ctx,
                    gctx,
                    s1,
                    CommandKind::CopyH2D {
                        dst: a,
                        bytes,
                        data: None,
                        pinned: true,
                    },
                )
                .unwrap();
            let h2 = d
                .submit(
                    ctx,
                    gctx,
                    s2,
                    CommandKind::CopyD2H {
                        src: b,
                        bytes,
                        sink: None,
                        sink_offset: 0,
                        pinned: true,
                    },
                )
                .unwrap();
            h1.wait(ctx);
            h2.wait(ctx);
            let t = ctx.now().as_millis_f64();
            assert!(t < 9.0, "bidirectional copies should overlap, got {t} ms");
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// Same-direction copies serialize on the single H2D engine.
    #[test]
    fn same_direction_copies_serialize() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let s1 = d.create_stream(gctx);
            let s2 = d.create_stream(gctx);
            let a = d.alloc(8 << 20).unwrap();
            let b = d.alloc(8 << 20).unwrap();
            let bytes = 8u64 << 20;
            let h1 = d
                .submit(
                    ctx,
                    gctx,
                    s1,
                    CommandKind::CopyH2D {
                        dst: a,
                        bytes,
                        data: None,
                        pinned: true,
                    },
                )
                .unwrap();
            let h2 = d
                .submit(
                    ctx,
                    gctx,
                    s2,
                    CommandKind::CopyH2D {
                        dst: b,
                        bytes,
                        data: None,
                        pinned: true,
                    },
                )
                .unwrap();
            h1.wait(ctx);
            h2.wait(ctx);
            let t = ctx.now().as_millis_f64();
            assert!(t > 16.0, "same-direction copies must serialize, got {t} ms");
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// Functional copies move real bytes through device memory.
    #[test]
    fn functional_roundtrip_h2d_d2h() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let s = d.create_stream(gctx);
            let buf = d.alloc(16).unwrap();
            let payload = Arc::new(vec![1u8, 2, 3, 4, 5, 6, 7, 8]);
            let sink: crate::engines::HostSink = Arc::new(Mutex::new(Vec::new()));
            d.submit(
                ctx,
                gctx,
                s,
                CommandKind::CopyH2D {
                    dst: buf,
                    bytes: 8,
                    data: Some(payload.clone()),
                    pinned: true,
                },
            )
            .unwrap();
            let d2h = d
                .submit(
                    ctx,
                    gctx,
                    s,
                    CommandKind::CopyD2H {
                        src: buf,
                        bytes: 8,
                        sink: Some(sink.clone()),
                        sink_offset: 0,
                        pinned: true,
                    },
                )
                .unwrap();
            d2h.wait(ctx);
            assert_eq!(*sink.lock(), *payload);
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// Submitting a copy that overruns its allocation fails fast.
    #[test]
    fn submit_validates_ranges() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let s = d.create_stream(gctx);
            let buf = d.alloc(256).unwrap();
            let err = d
                .submit(
                    ctx,
                    gctx,
                    s,
                    CommandKind::CopyH2D {
                        dst: buf,
                        bytes: 512,
                        data: None,
                        pinned: true,
                    },
                )
                .unwrap_err();
            assert!(matches!(
                err,
                SubmitError::Memory(MemError::OutOfBounds { .. })
            ));
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// A big grid is processed in waves and matches the analytic oracle.
    #[test]
    fn multi_wave_kernel_matches_oracle() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let s = d.create_stream(gctx);
            // tiny device: 2 SMs × 2 blocks resident; 12 blocks → 3 waves.
            let mut k = KernelDesc::new("waves", 12, 64).regs(1);
            k.block_demand_cycles = 5.0e5;
            let oracle = estimate_kernel_time(d.config(), &k);
            let h = d.submit(ctx, gctx, s, CommandKind::Kernel(k)).unwrap();
            h.wait(ctx);
            let t = ctx.now();
            let err = (t.as_secs_f64() - oracle.as_secs_f64()).abs() / oracle.as_secs_f64();
            assert!(err < 1e-6, "engine {t} vs oracle {oracle}");
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// The 16-kernel (here 4) window limit throttles admission.
    #[test]
    fn concurrent_kernel_window_is_limited() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            let gctx = d.create_context("p");
            let streams: Vec<_> = (0..6).map(|_| d.create_stream(gctx)).collect();
            let mut k = KernelDesc::new("w", 1, 32).regs(1);
            k.block_demand_cycles = 1.0e6;
            let handles: Vec<_> = streams
                .iter()
                .map(|&s| {
                    d.submit(ctx, gctx, s, CommandKind::Kernel(k.clone()))
                        .unwrap()
                })
                .collect();
            for h in &handles {
                h.wait(ctx);
            }
            let stats = d.stats();
            assert_eq!(stats.kernels_completed, 6);
            assert!(stats.max_concurrent_kernels <= 4); // test_tiny window
            d.shutdown(ctx);
        });
        sim.run().unwrap();
    }

    /// A coalesced batch of same-direction copies pays the DMA setup
    /// latency once: back-to-back followers run at pure bandwidth cost.
    #[test]
    fn batched_copies_elide_follower_setup_latency() {
        let run = |batched: bool| -> (f64, DeviceStats) {
            let mut sim = Simulation::new();
            let dev = GpuDevice::install(&mut sim, tiny());
            let d = dev.clone();
            let done = Arc::new(Mutex::new(0.0f64));
            let out = Arc::clone(&done);
            sim.spawn("host", move |ctx| {
                let gctx = d.create_context("p");
                let streams: Vec<_> = (0..3).map(|_| d.create_stream(gctx)).collect();
                let bufs: Vec<_> = (0..3).map(|_| d.alloc(1 << 20).unwrap()).collect();
                let kind = |i: usize| CommandKind::CopyH2D {
                    dst: bufs[i],
                    bytes: 1 << 20,
                    data: None,
                    pinned: true,
                };
                let handles: Vec<_> = if batched {
                    d.submit_batch(ctx, gctx, (0..3).map(|i| (streams[i], kind(i))).collect())
                        .unwrap()
                } else {
                    (0..3)
                        .map(|i| d.submit(ctx, gctx, streams[i], kind(i)).unwrap())
                        .collect()
                };
                for h in &handles {
                    h.wait(ctx);
                }
                *out.lock() = ctx.now().as_millis_f64();
                d.shutdown(ctx);
            });
            sim.run().unwrap();
            let t = *done.lock();
            (t, dev.stats())
        };
        let (t_plain, s_plain) = run(false);
        let (t_batch, s_batch) = run(true);
        assert_eq!(s_plain.fused_dma_ops, 0);
        assert_eq!(
            s_batch.fused_dma_ops, 2,
            "two followers fuse behind the head"
        );
        let saved_ms = tiny().dma_latency.as_millis_f64() * 2.0;
        assert!(
            (t_plain - t_batch - saved_ms).abs() < 1e-9,
            "batch must be exactly two setup latencies faster: plain {t_plain} batch {t_batch}"
        );
        assert_eq!(s_batch.h2d_transfers, 3, "per-sub-op completion fan-out");
    }

    /// Shutdown lets the simulation finish even though the scheduler would
    /// otherwise park forever.
    #[test]
    fn shutdown_terminates_scheduler() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, tiny());
        let d = dev.clone();
        sim.spawn("host", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            d.shutdown(ctx);
        });
        let s = sim.run().unwrap();
        assert!(s.completed);
    }
}
