//! # gv-virt — GPU resource virtualization for SPMD execution
//!
//! The paper's contribution: a user-space run-time layer that exposes one
//! **Virtual GPU** per CPU core so SPMD programs keep their 1:1
//! processor-to-accelerator view on nodes where many cores share one GPU.
//!
//! * [`gvm`] — the GPU Virtualization Manager: owns the single GPU context,
//!   per-rank shared-memory segments, response queues, CUDA streams, and
//!   pinned staging buffers; barriers `STR` requests and flushes all
//!   streams together for maximal overlap.
//! * [`client`] — the user-process API layer (`REQ/SND/STR/STP/RCV/RLS`).
//! * [`baseline`] — conventional direct sharing: per-process contexts,
//!   serialized by the device with context-switch costs (the comparison
//!   baseline of every figure).
//! * [`protocol`] — message vocabulary and the Fig. 3 phase timestamps.
//! * [`fault`] — deterministic fault injection: a seeded, serializable
//!   [`FaultPlan`] schedules message drops/delays/duplicates, shm
//!   corruption, device OOM and client aborts; the GVM recovers by
//!   evicting dead ranks and re-arming the `STR` barrier at reduced
//!   width, and clients recover by retrying with sequence-numbered
//!   idempotent requests.

#![warn(missing_docs)]

pub mod baseline;
pub mod client;
pub mod cluster;
pub mod fault;
pub mod gvm;
pub mod protocol;
pub mod quota;
pub mod remote;
pub mod sched;

pub use baseline::{run_direct, run_direct_abortable};
pub use client::{ClientPolicy, TaskError, VgpuClient};
pub use cluster::{
    plan, Cluster, ClusterConfig, ClusterHandle, ClusterPlan, ClusterStats, DeviceCap, PlacePolicy,
    PlanError, SessionResult, VgpuRequest,
};
pub use fault::{FaultPlan, FaultSpec, PlanParseError, QueueSel};
pub use gv_mem::{MemConfig, PipelineConfig};
pub use gvm::{Gvm, GvmConfig, GvmHandle, GvmStats};
pub use protocol::{Endpoints, NakReason, Request, RequestKind, Response, ResponseKind, TaskRun};
pub use quota::MemQuota;
pub use remote::{RemoteClient, RemoteConfig, RemoteGpuDaemon, RemoteGpuHandle};
pub use sched::{SchedPolicy, Scheduler};

#[cfg(test)]
mod tests {
    use super::*;
    use gv_cuda::CudaDevice;
    use gv_gpu::{DeviceConfig, GpuDevice};
    use gv_ipc::{Node, NodeConfig};
    use gv_kernels::{vecadd, Benchmark, BenchmarkId};
    use gv_sim::Simulation;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// End-to-end functional vecadd through the GVM: two SPMD ranks add
    /// different vectors and each gets its own correct result back.
    #[test]
    fn gvm_functional_vecadd_two_ranks() {
        let mut sim = Simulation::new();
        let cfg = DeviceConfig::tesla_c2070_paper();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());

        let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..2)
            .map(|r| {
                let a: Vec<f32> = (0..256).map(|i| (i + r * 1000) as f32).collect();
                let b: Vec<f32> = (0..256).map(|i| (i * 2) as f32).collect();
                (a, b)
            })
            .collect();
        let tasks: Vec<_> = inputs
            .iter()
            .map(|(a, b)| vecadd::functional_task(&cfg, a, b))
            .collect();

        let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(2), tasks);
        type Results = Arc<Mutex<Vec<(usize, Vec<u8>)>>>;
        let results: Results = Arc::new(Mutex::new(Vec::new()));
        for rank in 0..2 {
            let handle = handle.clone();
            let results = results.clone();
            node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let client = VgpuClient::connect(ctx, &handle, rank);
                let (_run, out) = client.run_task(ctx);
                results.lock().push((rank, out.expect("functional output")));
            })
            .unwrap();
        }
        let h2 = handle.clone();
        let dev2 = device.clone();
        sim.spawn("supervisor", move |ctx| {
            h2.done.wait(ctx);
            dev2.shutdown(ctx);
        });
        sim.run().unwrap();

        let results = results.lock();
        assert_eq!(results.len(), 2);
        for (rank, bytes) in results.iter() {
            let got = vecadd::decode_output(bytes);
            let (a, b) = &inputs[*rank];
            assert_eq!(got, vecadd::reference(a, b), "rank {rank} output wrong");
        }
    }

    /// The GVM must eliminate context switches entirely, while the
    /// baseline pays N-1 of them (paper Eq. 1 vs Eq. 4).
    #[test]
    fn gvm_eliminates_context_switches() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let mut sim = Simulation::new();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());
        let tasks: Vec<_> = (0..3)
            .map(|_| Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 100))
            .collect();
        let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(3), tasks);
        for rank in 0..3 {
            let handle = handle.clone();
            node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let client = VgpuClient::connect(ctx, &handle, rank);
                let _ = client.run_task(ctx);
            })
            .unwrap();
        }
        let h2 = handle.clone();
        let dev2 = device.clone();
        sim.spawn("supervisor", move |ctx| {
            h2.done.wait(ctx);
            dev2.shutdown(ctx);
        });
        sim.run().unwrap();
        assert_eq!(device.stats().ctx_switches, 0);
        assert_eq!(handle.stats.lock().flushes, 1);
    }

    /// Fault tolerance enabled but no faults armed: every rank completes
    /// normally, nothing is evicted, and the functional result is intact.
    #[test]
    fn fault_tolerant_mode_without_faults_is_transparent() {
        let mut sim = Simulation::new();
        let cfg = DeviceConfig::tesla_c2070_paper();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());
        let a: Vec<f32> = (0..128).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..128).map(|i| (i * 3) as f32).collect();
        let tasks = vec![vecadd::functional_task(&cfg, &a, &b); 2];
        let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::fault_tolerant(2), tasks);
        let outs: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        for rank in 0..2 {
            let handle = handle.clone();
            let outs = outs.clone();
            node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let client = VgpuClient::connect_with_policy(
                    ctx,
                    &handle,
                    rank,
                    client::ClientPolicy::with_timeout(gv_sim::SimDuration::from_millis(10), 3),
                );
                let (_run, out) = client.try_run_task(ctx).expect("fault-free run succeeds");
                outs.lock().push(out.expect("functional output"));
            })
            .unwrap();
        }
        let h2 = handle.clone();
        let dev2 = device.clone();
        sim.spawn("supervisor", move |ctx| {
            h2.done.wait(ctx);
            dev2.shutdown(ctx);
        });
        sim.run().unwrap();
        let stats = handle.stats.lock();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.naks, 0);
        assert_eq!(stats.flushes, 1);
        let outs = outs.lock();
        assert_eq!(outs.len(), 2);
        for bytes in outs.iter() {
            assert_eq!(vecadd::decode_output(bytes), vecadd::reference(&a, &b));
        }
        // Every device byte reclaimed at shutdown.
        assert_eq!(device.with_memory(|m| m.used()), 0);
    }

    /// Baseline with N processes pays N-1 context switches and serializes.
    #[test]
    fn baseline_pays_context_switches() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let mut sim = Simulation::new();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());
        let finished = Arc::new(Mutex::new(0usize));
        for rank in 0..3 {
            let cuda = cuda.clone();
            let cfg = cfg.clone();
            let device = device.clone();
            let finished = finished.clone();
            node.spawn_pinned(&mut sim, rank, &format!("direct-{rank}"), move |ctx| {
                let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 100);
                let (_run, _) = run_direct(ctx, &cuda, &task, rank);
                let mut f = finished.lock();
                *f += 1;
                if *f == 3 {
                    device.shutdown(ctx);
                }
            })
            .unwrap();
        }
        sim.run().unwrap();
        assert_eq!(device.stats().ctx_switches, 2);
    }

    /// Virtualized turnaround beats the baseline for several processes
    /// (the headline claim).
    #[test]
    fn virtualized_beats_baseline_at_n4() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let n = 4;

        // Baseline.
        let mut sim = Simulation::new();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());
        let finished = Arc::new(Mutex::new(0usize));
        for rank in 0..n {
            let cuda = cuda.clone();
            let cfg = cfg.clone();
            let device = device.clone();
            let finished = finished.clone();
            node.spawn_pinned(&mut sim, rank, &format!("direct-{rank}"), move |ctx| {
                let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 20);
                let _ = run_direct(ctx, &cuda, &task, rank);
                let mut f = finished.lock();
                *f += 1;
                if *f == n {
                    device.shutdown(ctx);
                }
            })
            .unwrap();
        }
        let baseline_time = sim.run().unwrap().end_time;

        // Virtualized.
        let mut sim = Simulation::new();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());
        let tasks: Vec<_> = (0..n)
            .map(|_| Benchmark::scaled_task(BenchmarkId::VecAdd, &cfg, 20))
            .collect();
        let handle = Gvm::install(&mut sim, &node, &cuda, GvmConfig::new(n), tasks);
        for rank in 0..n {
            let handle = handle.clone();
            node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let client = VgpuClient::connect(ctx, &handle, rank);
                let _ = client.run_task(ctx);
            })
            .unwrap();
        }
        let h2 = handle.clone();
        let dev2 = device.clone();
        sim.spawn("supervisor", move |ctx| {
            h2.done.wait(ctx);
            dev2.shutdown(ctx);
        });
        let virt_time = sim.run().unwrap().end_time;

        assert!(
            virt_time < baseline_time,
            "virtualized {virt_time} should beat baseline {baseline_time}"
        );
    }
}
