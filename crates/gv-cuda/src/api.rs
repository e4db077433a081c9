//! The CUDA-like runtime API.
//!
//! Mirrors the slice of the CUDA 3.2 runtime the paper uses: context
//! creation (serialized through a driver lock and charged the calibrated
//! per-process cost), in-order streams, synchronous and asynchronous
//! copies (async requires pinned host memory, as on real hardware), kernel
//! launches (asynchronous, returning after the launch-call overhead), and
//! stream synchronization.

use std::collections::HashMap;
use std::sync::Arc;

use gv_gpu::{CommandHandle, CommandKind, DevicePtr, GpuCtxId, GpuDevice, KernelDesc, StreamId};
use gv_sim::{Ctx, Semaphore, SimDuration};
use parking_lot::Mutex;

use crate::error::CudaError;
use crate::host_mem::HostBuffer;

/// One member of a coalesced H2D batch copy
/// ([`CudaContext::memcpy_h2d_async_batch`]).
pub struct BatchH2d<'a> {
    /// Stream the member is ordered on.
    pub stream: StreamId,
    /// Pinned host source buffer.
    pub src: &'a HostBuffer,
    /// Byte offset of the payload within `src`.
    pub src_offset: u64,
    /// Device destination.
    pub dst: DevicePtr,
    /// Bytes to copy.
    pub bytes: u64,
}

/// One member of a coalesced D2H batch copy
/// ([`CudaContext::memcpy_d2h_async_batch`]).
pub struct BatchD2h<'a> {
    /// Stream the member is ordered on.
    pub stream: StreamId,
    /// Device source.
    pub src: DevicePtr,
    /// Pinned host destination buffer.
    pub dst: &'a HostBuffer,
    /// Byte offset within `dst` the payload lands at.
    pub dst_offset: u64,
    /// Bytes to copy.
    pub bytes: u64,
}

/// Runtime handle to a device, shared by all processes on the node.
#[derive(Clone)]
pub struct CudaDevice {
    device: GpuDevice,
    /// Serializes context creation through the driver, making N process
    /// initializations take N × `ctx_create` — the paper's Tinit.
    driver_lock: Semaphore,
}

impl CudaDevice {
    /// Wrap an installed GPU device.
    pub fn new(device: GpuDevice) -> Self {
        CudaDevice {
            device,
            driver_lock: Semaphore::new(1),
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Create a GPU context for the calling process, charging the
    /// calibrated creation cost under the driver lock.
    pub fn create_context(&self, ctx: &mut Ctx, name: &str) -> CudaContext {
        let cost = self.device.config().ctx_switch;
        self.create_context_with_switch_cost(ctx, name, cost)
    }

    /// Like [`create_context`](Self::create_context) with an explicit
    /// context-switch cost (per-benchmark calibration from Table II).
    pub fn create_context_with_switch_cost(
        &self,
        ctx: &mut Ctx,
        name: &str,
        switch_cost: SimDuration,
    ) -> CudaContext {
        self.driver_lock.acquire(ctx);
        ctx.hold(self.device.config().ctx_create);
        let gctx = self
            .device
            .create_context_with_switch_cost(name, switch_cost);
        self.driver_lock.release(ctx);
        CudaContext {
            cuda: self.clone(),
            gctx,
            tails: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Create a context without charging creation time (the GVM pays it at
    /// boot, outside the measured task window — and tests use it freely).
    pub fn create_context_uncharged(&self, name: &str, switch_cost: SimDuration) -> CudaContext {
        let gctx = self
            .device
            .create_context_with_switch_cost(name, switch_cost);
        CudaContext {
            cuda: self.clone(),
            gctx,
            tails: Arc::new(Mutex::new(HashMap::new())),
        }
    }
}

/// A per-process GPU context: streams, memory, copies, launches.
#[derive(Clone)]
pub struct CudaContext {
    cuda: CudaDevice,
    gctx: GpuCtxId,
    /// Last command submitted per stream (stream synchronization target).
    tails: Arc<Mutex<HashMap<StreamId, CommandHandle>>>,
}

impl CudaContext {
    /// The raw context id.
    pub fn id(&self) -> GpuCtxId {
        self.gctx
    }

    /// The runtime handle.
    pub fn cuda(&self) -> &CudaDevice {
        &self.cuda
    }

    /// Create an in-order stream in this context.
    pub fn stream_create(&self) -> StreamId {
        self.cuda.device.create_stream(self.gctx)
    }

    /// Allocate device global memory.
    pub fn malloc(&self, bytes: u64) -> Result<DevicePtr, CudaError> {
        Ok(self.cuda.device.alloc(bytes)?)
    }

    /// Free device memory.
    pub fn free(&self, ptr: DevicePtr) -> Result<(), CudaError> {
        Ok(self.cuda.device.free(ptr)?)
    }

    fn remember_tail(&self, stream: StreamId, h: &CommandHandle) {
        self.tails.lock().insert(stream, h.clone());
    }

    /// `cudaMemcpyAsync(H2D)`: requires pinned host memory (as on hardware —
    /// async copies from pageable memory silently degrade; we reject them).
    pub fn memcpy_h2d_async(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: &HostBuffer,
        dst: DevicePtr,
        bytes: u64,
    ) -> Result<CommandHandle, CudaError> {
        assert!(
            src.is_pinned(),
            "async H2D requires pinned host memory (use memcpy_h2d for pageable)"
        );
        self.h2d_common(ctx, stream, src, 0, dst, bytes)
    }

    /// `cudaMemcpyAsync(H2D)` of a sub-range: copies `bytes` starting at
    /// byte `src_offset` of the (pinned) host buffer to `dst`. Chunked
    /// staging issues one of these per span so host-side staging of span
    /// `i+1` overlaps the device-side transfer of span `i`.
    pub fn memcpy_h2d_async_at(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: &HostBuffer,
        src_offset: u64,
        dst: DevicePtr,
        bytes: u64,
    ) -> Result<CommandHandle, CudaError> {
        assert!(
            src.is_pinned(),
            "async H2D requires pinned host memory (use memcpy_h2d for pageable)"
        );
        self.h2d_common(ctx, stream, src, src_offset, dst, bytes)
    }

    /// `cudaMemcpy(H2D)`: synchronous copy, any host memory kind.
    pub fn memcpy_h2d(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: &HostBuffer,
        dst: DevicePtr,
        bytes: u64,
    ) -> Result<(), CudaError> {
        let h = self.h2d_common(ctx, stream, src, 0, dst, bytes)?;
        h.wait(ctx);
        Ok(())
    }

    fn h2d_common(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: &HostBuffer,
        src_offset: u64,
        dst: DevicePtr,
        bytes: u64,
    ) -> Result<CommandHandle, CudaError> {
        if src_offset
            .checked_add(bytes)
            .is_none_or(|end| end > src.len())
        {
            return Err(CudaError::HostBufferTooSmall {
                requested: src_offset.saturating_add(bytes),
                capacity: src.len(),
            });
        }
        let data = src.with_range(src_offset, bytes, |b| self.cuda.device.snapshot(b));
        let h = self.cuda.device.submit(
            ctx,
            self.gctx,
            stream,
            CommandKind::CopyH2D {
                dst,
                bytes,
                data,
                pinned: src.is_pinned(),
            },
        )?;
        self.remember_tail(stream, &h);
        Ok(h)
    }

    /// Submit several pinned H2D sub-range copies as **one coalesced DMA
    /// batch** (see [`GpuDevice::submit_batch`]): members that run
    /// back-to-back on the copy engine pay the DMA setup latency once,
    /// while every member keeps its own handle, stream ordering, and
    /// completion fan-out. All members are validated (pinned source, span
    /// within the buffer) before anything is enqueued.
    pub fn memcpy_h2d_async_batch(
        &self,
        ctx: &mut Ctx,
        items: &[BatchH2d<'_>],
    ) -> Result<Vec<CommandHandle>, CudaError> {
        let mut cmds = Vec::with_capacity(items.len());
        for it in items {
            assert!(
                it.src.is_pinned(),
                "async H2D requires pinned host memory (use memcpy_h2d for pageable)"
            );
            if it
                .src_offset
                .checked_add(it.bytes)
                .is_none_or(|end| end > it.src.len())
            {
                return Err(CudaError::HostBufferTooSmall {
                    requested: it.src_offset.saturating_add(it.bytes),
                    capacity: it.src.len(),
                });
            }
            let data = it
                .src
                .with_range(it.src_offset, it.bytes, |b| self.cuda.device.snapshot(b));
            cmds.push((
                it.stream,
                CommandKind::CopyH2D {
                    dst: it.dst,
                    bytes: it.bytes,
                    data,
                    pinned: true,
                },
            ));
        }
        let handles = self.cuda.device.submit_batch(ctx, self.gctx, cmds)?;
        for (it, h) in items.iter().zip(&handles) {
            self.remember_tail(it.stream, h);
        }
        Ok(handles)
    }

    /// Submit several pinned D2H sub-range copies as one coalesced DMA
    /// batch; the D2H counterpart of
    /// [`memcpy_h2d_async_batch`](Self::memcpy_h2d_async_batch).
    pub fn memcpy_d2h_async_batch(
        &self,
        ctx: &mut Ctx,
        items: &[BatchD2h<'_>],
    ) -> Result<Vec<CommandHandle>, CudaError> {
        let mut cmds = Vec::with_capacity(items.len());
        for it in items {
            assert!(
                it.dst.is_pinned(),
                "async D2H requires pinned host memory (use memcpy_d2h for pageable)"
            );
            if it
                .dst_offset
                .checked_add(it.bytes)
                .is_none_or(|end| end > it.dst.len())
            {
                return Err(CudaError::HostBufferTooSmall {
                    requested: it.dst_offset.saturating_add(it.bytes),
                    capacity: it.dst.len(),
                });
            }
            cmds.push((
                it.stream,
                CommandKind::CopyD2H {
                    src: it.src,
                    bytes: it.bytes,
                    sink: it.dst.storage(),
                    sink_offset: it.dst_offset,
                    pinned: true,
                },
            ));
        }
        let handles = self.cuda.device.submit_batch(ctx, self.gctx, cmds)?;
        for (it, h) in items.iter().zip(&handles) {
            self.remember_tail(it.stream, h);
        }
        Ok(handles)
    }

    /// `cudaMemcpyAsync(D2H)`: requires pinned host memory.
    pub fn memcpy_d2h_async(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: DevicePtr,
        dst: &HostBuffer,
        bytes: u64,
    ) -> Result<CommandHandle, CudaError> {
        assert!(
            dst.is_pinned(),
            "async D2H requires pinned host memory (use memcpy_d2h for pageable)"
        );
        self.d2h_common(ctx, stream, src, dst, 0, bytes)
    }

    /// `cudaMemcpyAsync(D2H)` of a sub-range: copies `bytes` from `src`
    /// into the (pinned) host buffer starting at byte `dst_offset`. The
    /// flush path issues one of these per chunk so early chunks land while
    /// later stream work is still running.
    pub fn memcpy_d2h_async_at(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: DevicePtr,
        dst: &HostBuffer,
        dst_offset: u64,
        bytes: u64,
    ) -> Result<CommandHandle, CudaError> {
        assert!(
            dst.is_pinned(),
            "async D2H requires pinned host memory (use memcpy_d2h for pageable)"
        );
        self.d2h_common(ctx, stream, src, dst, dst_offset, bytes)
    }

    /// `cudaMemcpy(D2H)`: synchronous copy, any host memory kind.
    pub fn memcpy_d2h(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: DevicePtr,
        dst: &HostBuffer,
        bytes: u64,
    ) -> Result<(), CudaError> {
        let h = self.d2h_common(ctx, stream, src, dst, 0, bytes)?;
        h.wait(ctx);
        Ok(())
    }

    fn d2h_common(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: DevicePtr,
        dst: &HostBuffer,
        dst_offset: u64,
        bytes: u64,
    ) -> Result<CommandHandle, CudaError> {
        if dst_offset
            .checked_add(bytes)
            .is_none_or(|end| end > dst.len())
        {
            return Err(CudaError::HostBufferTooSmall {
                requested: dst_offset.saturating_add(bytes),
                capacity: dst.len(),
            });
        }
        let h = self.cuda.device.submit(
            ctx,
            self.gctx,
            stream,
            CommandKind::CopyD2H {
                src,
                bytes,
                sink: dst.storage(),
                sink_offset: dst_offset,
                pinned: dst.is_pinned(),
            },
        )?;
        self.remember_tail(stream, &h);
        Ok(h)
    }

    /// `cudaMemcpyAsync(D2D)`: device-to-device copy within this context.
    pub fn memcpy_d2d_async(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: DevicePtr,
        dst: DevicePtr,
        bytes: u64,
        functional: bool,
    ) -> Result<CommandHandle, CudaError> {
        let h = self.cuda.device.submit(
            ctx,
            self.gctx,
            stream,
            CommandKind::CopyD2D {
                src,
                dst,
                bytes,
                functional,
            },
        )?;
        self.remember_tail(stream, &h);
        Ok(h)
    }

    /// `cudaMemcpy(D2D)`: synchronous device-to-device copy.
    pub fn memcpy_d2d(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        src: DevicePtr,
        dst: DevicePtr,
        bytes: u64,
        functional: bool,
    ) -> Result<(), CudaError> {
        let h = self.memcpy_d2d_async(ctx, stream, src, dst, bytes, functional)?;
        h.wait(ctx);
        Ok(())
    }

    /// Launch a kernel into `stream`. Asynchronous: the call occupies the
    /// host for the launch overhead (the paper's 0.038 ms `Tcomp` artifact
    /// for VectorAdd), then returns a handle.
    pub fn launch(
        &self,
        ctx: &mut Ctx,
        stream: StreamId,
        kernel: KernelDesc,
    ) -> Result<CommandHandle, CudaError> {
        ctx.hold(self.cuda.device.config().kernel_launch_overhead);
        let h = self
            .cuda
            .device
            .submit(ctx, self.gctx, stream, CommandKind::Kernel(kernel))?;
        self.remember_tail(stream, &h);
        Ok(h)
    }

    /// Launch several kernels as **one grouped submission** that amortizes
    /// the host-side launch-call overhead: the calling process is held for
    /// a single `kernel_launch_overhead` for the whole group (the CUDA-
    /// graph / batched-launch amortization), then all kernels enqueue under
    /// one scheduler lock and one wake-up. Device-side semantics are
    /// unchanged — each kernel keeps its own stream ordering, window slot,
    /// and completion handle.
    pub fn launch_batch(
        &self,
        ctx: &mut Ctx,
        items: &[(StreamId, KernelDesc)],
    ) -> Result<Vec<CommandHandle>, CudaError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        ctx.hold(self.cuda.device.config().kernel_launch_overhead);
        let cmds = items
            .iter()
            .map(|(stream, kernel)| (*stream, CommandKind::Kernel(kernel.clone())))
            .collect();
        let handles = self.cuda.device.submit_batch(ctx, self.gctx, cmds)?;
        for ((stream, _), h) in items.iter().zip(&handles) {
            self.remember_tail(*stream, h);
        }
        Ok(handles)
    }

    /// `cudaStreamSynchronize`: block until everything submitted to
    /// `stream` so far has completed.
    pub fn stream_synchronize(&self, ctx: &mut Ctx, stream: StreamId) {
        let tail = self.tails.lock().get(&stream).cloned();
        if let Some(h) = tail {
            h.wait(ctx);
        }
    }

    /// `cudaStreamQuery`: has everything submitted to `stream` completed?
    pub fn stream_query(&self, stream: StreamId) -> bool {
        match self.tails.lock().get(&stream) {
            Some(h) => h.is_done(),
            None => true,
        }
    }

    /// The last command submitted to `stream`, if any (event recording).
    pub fn stream_tail(&self, stream: StreamId) -> Option<CommandHandle> {
        self.tails.lock().get(&stream).cloned()
    }

    /// Synchronize every stream this context has touched.
    pub fn synchronize_all(&self, ctx: &mut Ctx) {
        let tails: Vec<CommandHandle> = self.tails.lock().values().cloned().collect();
        for h in tails {
            h.wait(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_gpu::DeviceConfig;
    use gv_sim::Simulation;

    fn setup() -> (Simulation, CudaDevice) {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
        (sim, CudaDevice::new(dev))
    }

    #[test]
    fn context_creation_serializes_and_charges() {
        let (mut sim, cuda) = setup();
        for i in 0..2 {
            let cuda = cuda.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                let _cc = cuda.create_context(ctx, "c");
                // test_tiny ctx_create = 10 ms; serialized: 10 or 20 ms.
                let t = ctx.now().as_millis_f64();
                assert!((t - 10.0).abs() < 1e-6 || (t - 20.0).abs() < 1e-6, "t={t}");
                cuda.device().shutdown(ctx);
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn full_execution_cycle_fig3() {
        // The paper's Fig. 3 cycle: init → send → compute → retrieve.
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let t_init = ctx.now();
            let stream = cc.stream_create();
            let dbuf = cc.malloc(1 << 20).unwrap();
            let hin = HostBuffer::opaque(1 << 20, false);
            let hout = HostBuffer::opaque(1 << 20, false);
            cc.memcpy_h2d(ctx, stream, &hin, dbuf, 1 << 20).unwrap();
            let t_in = ctx.now();
            let mut k = KernelDesc::new("k", 2, 64).regs(1);
            k.block_demand_cycles = 1.0e6;
            let kh = cc.launch(ctx, stream, k).unwrap();
            kh.wait(ctx);
            let t_comp = ctx.now();
            cc.memcpy_d2h(ctx, stream, dbuf, &hout, 1 << 20).unwrap();
            let t_out = ctx.now();
            assert!(t_init < t_in && t_in < t_comp && t_comp < t_out);
            // Pageable H2D at 0.5 GB/s: 1 MiB ≈ 2.098 ms.
            let d_in = t_in.duration_since(t_init).as_millis_f64();
            assert!((d_in - 2.098).abs() < 0.01, "d_in = {d_in}");
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn async_pipeline_overlaps_streams() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let t0 = ctx.now();
            let s1 = cc.stream_create();
            let s2 = cc.stream_create();
            let b1 = cc.malloc(4 << 20).unwrap();
            let b2 = cc.malloc(4 << 20).unwrap();
            let hin = HostBuffer::opaque(4 << 20, true);
            let mut k = KernelDesc::new("k", 1, 32).regs(1);
            k.block_demand_cycles = 4.0e6; // 16 ms at eff 1/4
                                           // Submit both pipelines back-to-back.
            cc.memcpy_h2d_async(ctx, s1, &hin, b1, 4 << 20).unwrap();
            cc.launch(ctx, s1, k.clone()).unwrap();
            cc.memcpy_h2d_async(ctx, s2, &hin, b2, 4 << 20).unwrap();
            cc.launch(ctx, s2, k).unwrap();
            cc.stream_synchronize(ctx, s1);
            cc.stream_synchronize(ctx, s2);
            let t = ctx.now().duration_since(t0).as_millis_f64();
            // Serial would be ≈ 2×(4.2 + 16) ≈ 40.4 ms; overlap of copy2
            // with kernel1 and concurrent kernels give ≈ 4.2+4.2+16 ≈ 24.6.
            assert!(t < 27.0, "expected overlap, got {t} ms");
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn stream_query_reflects_completion() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            assert!(cc.stream_query(s)); // nothing submitted
            let mut k = KernelDesc::new("k", 1, 32).regs(1);
            k.block_demand_cycles = 1.0e6;
            let h = cc.launch(ctx, s, k).unwrap();
            assert!(!cc.stream_query(s));
            h.wait(ctx);
            assert!(cc.stream_query(s));
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn functional_data_flows_end_to_end() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            let dbuf = cc.malloc(16).unwrap();
            let hin = HostBuffer::from_f32(&[1.0, 2.0, 3.0, 4.0], true);
            let hout = HostBuffer::zeroed(16, true);
            cc.memcpy_h2d(ctx, s, &hin, dbuf, 16).unwrap();
            cc.memcpy_d2h(ctx, s, dbuf, &hout, 16).unwrap();
            assert_eq!(hout.to_f32().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn chunked_offset_copies_roundtrip() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            let dbuf = cc.malloc(16).unwrap();
            let hin = HostBuffer::from_f32(&[1.0, 2.0, 3.0, 4.0], true);
            let hout = HostBuffer::zeroed(16, true);
            // Two 8-byte chunks each way, offsets in lockstep.
            cc.memcpy_h2d_async_at(ctx, s, &hin, 0, dbuf, 8).unwrap();
            cc.memcpy_h2d_async_at(ctx, s, &hin, 8, dbuf.add(8), 8)
                .unwrap();
            cc.memcpy_d2h_async_at(ctx, s, dbuf, &hout, 0, 8).unwrap();
            let h = cc
                .memcpy_d2h_async_at(ctx, s, dbuf.add(8), &hout, 8, 8)
                .unwrap();
            h.wait(ctx);
            assert_eq!(hout.to_f32().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
            // An overrunning span is rejected up front.
            let err = cc
                .memcpy_h2d_async_at(ctx, s, &hin, 12, dbuf, 8)
                .unwrap_err();
            assert!(matches!(err, CudaError::HostBufferTooSmall { .. }));
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn refilling_the_source_after_submit_does_not_change_what_lands() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            let dbuf = cc.malloc(24).unwrap();
            let hin = HostBuffer::from_bytes((1..=8).collect(), true);
            let landed = |ctx: &mut Ctx, at: u64| {
                cc.stream_synchronize(ctx, s);
                let mut out = vec![0u8; 8];
                cuda.device()
                    .with_memory(|m| m.read_bytes(dbuf.add(at), &mut out))
                    .unwrap();
                out
            };
            // Refill while the copy is still in flight: the copy lands the
            // bytes the source held at submit.
            cc.memcpy_h2d_async_at(ctx, s, &hin, 0, dbuf, 8).unwrap();
            hin.fill_at(0, &[0xee; 8]);
            assert_eq!(landed(ctx, 0), (1..=8).collect::<Vec<u8>>());
            // The next copy reuses the landed snapshot's buffer.
            cc.memcpy_h2d_async_at(ctx, s, &hin, 0, dbuf.add(8), 8)
                .unwrap();
            hin.fill_at(0, &[0x11; 8]);
            assert_eq!(landed(ctx, 8), vec![0xee; 8]);
            // So does a batched copy.
            cc.memcpy_h2d_async_batch(
                ctx,
                &[BatchH2d {
                    stream: s,
                    src: &hin,
                    src_offset: 0,
                    dst: dbuf.add(16),
                    bytes: 8,
                }],
            )
            .unwrap();
            hin.fill_at(0, &[0x22; 8]);
            assert_eq!(landed(ctx, 16), vec![0x11; 8]);
            assert_eq!(landed(ctx, 0), (1..=8).collect::<Vec<u8>>());
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn batched_copies_carry_data_and_fuse() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s1 = cc.stream_create();
            let s2 = cc.stream_create();
            let d1 = cc.malloc(16).unwrap();
            let d2 = cc.malloc(16).unwrap();
            let hin = HostBuffer::from_f32(&[1.0, 2.0, 3.0, 4.0], true);
            let hs = cc
                .memcpy_h2d_async_batch(
                    ctx,
                    &[
                        BatchH2d {
                            stream: s1,
                            src: &hin,
                            src_offset: 0,
                            dst: d1,
                            bytes: 8,
                        },
                        BatchH2d {
                            stream: s2,
                            src: &hin,
                            src_offset: 8,
                            dst: d2,
                            bytes: 8,
                        },
                    ],
                )
                .unwrap();
            assert_eq!(hs.len(), 2);
            assert_eq!(hs[1].id, hs[0].id + 1, "consecutive command ids");
            for h in &hs {
                h.wait(ctx);
            }
            let o1 = HostBuffer::zeroed(8, true);
            let o2 = HostBuffer::zeroed(8, true);
            let ds = cc
                .memcpy_d2h_async_batch(
                    ctx,
                    &[
                        BatchD2h {
                            stream: s1,
                            src: d1,
                            dst: &o1,
                            dst_offset: 0,
                            bytes: 8,
                        },
                        BatchD2h {
                            stream: s2,
                            src: d2,
                            dst: &o2,
                            dst_offset: 0,
                            bytes: 8,
                        },
                    ],
                )
                .unwrap();
            for h in &ds {
                h.wait(ctx);
            }
            assert_eq!(o1.to_f32().unwrap(), vec![1.0, 2.0]);
            assert_eq!(o2.to_f32().unwrap(), vec![3.0, 4.0]);
            // Each direction fused its second member behind the first.
            assert_eq!(cuda.device().stats().fused_dma_ops, 2);
            // A batch with an overrunning member enqueues nothing.
            let err = cc
                .memcpy_h2d_async_batch(
                    ctx,
                    &[BatchH2d {
                        stream: s1,
                        src: &hin,
                        src_offset: 12,
                        dst: d1,
                        bytes: 8,
                    }],
                )
                .unwrap_err();
            assert!(matches!(err, CudaError::HostBufferTooSmall { .. }));
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn launch_batch_charges_one_launch_overhead() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let streams: Vec<_> = (0..4).map(|_| cc.stream_create()).collect();
            let mut k = KernelDesc::new("k", 1, 32).regs(1);
            k.block_demand_cycles = 1.0e6;
            let t0 = ctx.now();
            let items: Vec<_> = streams.iter().map(|&s| (s, k.clone())).collect();
            let hs = cc.launch_batch(ctx, &items).unwrap();
            // The host is held for exactly ONE launch overhead (5 µs on
            // test_tiny), not four.
            let held = ctx.now().duration_since(t0);
            assert_eq!(held, cuda.device().config().kernel_launch_overhead);
            assert_eq!(hs.len(), 4);
            for h in &hs {
                h.wait(ctx);
            }
            assert_eq!(cuda.device().stats().kernels_completed, 4);
            assert!(cc.launch_batch(ctx, &[]).unwrap().is_empty());
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn oversized_copy_rejected() {
        let (mut sim, cuda) = setup();
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            let dbuf = cc.malloc(1024).unwrap();
            let hin = HostBuffer::opaque(64, false);
            let err = cc.memcpy_h2d(ctx, s, &hin, dbuf, 128).unwrap_err();
            assert!(matches!(err, CudaError::HostBufferTooSmall { .. }));
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }
}

#[cfg(test)]
mod d2d_tests {
    use super::*;
    use gv_gpu::{DeviceConfig, GpuDevice};
    use gv_sim::Simulation;

    #[test]
    fn d2d_copies_functionally_and_costs_dram_time() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
        let cuda = CudaDevice::new(dev);
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            let a = cc.malloc(1 << 20).unwrap();
            let b = cc.malloc(1 << 20).unwrap();
            let hin = HostBuffer::from_f32(&[1.5, 2.5, 3.5], true);
            cc.memcpy_h2d(ctx, s, &hin, a, 12).unwrap();
            let t0 = ctx.now();
            cc.memcpy_d2d(ctx, s, a, b, 1 << 20, true).unwrap();
            // test_tiny DRAM = 10 GB/s; 2 passes over 1 MiB ≈ 0.21 ms.
            let dt = ctx.now().duration_since(t0).as_millis_f64();
            assert!((dt - 0.211).abs() < 0.02, "D2D took {dt} ms");
            let hout = HostBuffer::zeroed(12, true);
            cc.memcpy_d2h(ctx, s, b, &hout, 12).unwrap();
            assert_eq!(hout.to_f32().unwrap(), vec![1.5, 2.5, 3.5]);
            assert_eq!(cuda.device().stats().d2d_transfers, 1);
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }

    #[test]
    fn d2d_validates_both_ranges() {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
        let cuda = CudaDevice::new(dev);
        sim.spawn("p", move |ctx| {
            let cc = cuda.create_context(ctx, "p");
            let s = cc.stream_create();
            let a = cc.malloc(512).unwrap();
            let b = cc.malloc(64).unwrap(); // rounds up to one 256 B unit
                                            // dst too small for a 512 B copy
            assert!(cc.memcpy_d2d(ctx, s, a, b, 512, false).is_err());
            cuda.device().shutdown(ctx);
        });
        sim.run().unwrap();
    }
}
