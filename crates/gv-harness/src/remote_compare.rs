//! Local virtualization vs remote GPU access (extension quantifying the
//! paper's §II argument against remote-GPU middleware).
//!
//! Three ways to give N processes a GPU:
//! 1. conventional local sharing (per-process contexts);
//! 2. the paper's GVM (local virtualization);
//! 3. an rCUDA/gVirtuS-style remote daemon over an interconnect.
//!
//! The paper dismisses (3) qualitatively — "communication overheads in
//! accessing GPUs from remote compute nodes" — this experiment puts numbers
//! on it for both interconnect generations.

use gv_cuda::CudaDevice;
use gv_gpu::GpuDevice;
use gv_ipc::net::{LinkConfig, NetworkLink};
use gv_ipc::Node;
use gv_kernels::{Benchmark, BenchmarkId};
use gv_sim::Simulation;
use gv_virt::remote::remote_turnaround;

use crate::scenario::{ExecutionMode, Scenario};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct RemoteComparePoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Process/client count.
    pub nprocs: usize,
    /// Conventional local sharing, ms.
    pub direct_ms: f64,
    /// GVM local virtualization, ms.
    pub gvm_ms: f64,
    /// Remote daemon over DDR InfiniBand, ms.
    pub remote_ib_ms: f64,
    /// Remote daemon over gigabit Ethernet, ms.
    pub remote_eth_ms: f64,
}

fn remote_ms(scenario: &Scenario, id: BenchmarkId, n: usize, scale: u32, link: LinkConfig) -> f64 {
    let task = if scale <= 1 {
        Benchmark::paper_task(id, &scenario.device)
    } else {
        Benchmark::scaled_task(id, &scenario.device, scale)
    };
    let mut sim = Simulation::new();
    let device = GpuDevice::install(&mut sim, scenario.device.clone());
    let cuda = CudaDevice::new(device);
    let gpu_node = Node::new(scenario.node.clone());
    let runs = remote_turnaround(&cuda, &mut sim, &gpu_node, NetworkLink::new(link), &task, n);
    sim.run().expect("remote run completes");
    let runs = runs.lock();
    assert_eq!(runs.len(), n, "every remote client must report");
    let start = runs.iter().map(|r| r.start).min().expect("non-empty");
    let end = runs.iter().map(|r| r.end).max().expect("non-empty");
    end.duration_since(start).as_millis_f64()
}

/// Compare all three schemes for one benchmark at `n` processes.
pub fn compare(scenario: &Scenario, id: BenchmarkId, n: usize, scale: u32) -> RemoteComparePoint {
    let task = if scale <= 1 {
        Benchmark::paper_task(id, &scenario.device)
    } else {
        Benchmark::scaled_task(id, &scenario.device, scale)
    };
    let direct = scenario.run_uniform(ExecutionMode::Direct, &task, n);
    let gvm = scenario.run_uniform(ExecutionMode::Virtualized, &task, n);
    RemoteComparePoint {
        benchmark: Benchmark::describe(id).name.to_string(),
        nprocs: n,
        direct_ms: direct.turnaround_ms,
        gvm_ms: gvm.turnaround_ms,
        remote_ib_ms: remote_ms(scenario, id, n, scale, LinkConfig::infiniband_ddr()),
        remote_eth_ms: remote_ms(scenario, id, n, scale, LinkConfig::gigabit_ethernet()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For an I/O-heavy task, the GVM (node-local shared memory) must beat
    /// both remote links, and Ethernet must be the worst option.
    #[test]
    fn io_task_ranks_gvm_before_remote() {
        let sc = Scenario::default();
        let p = compare(&sc, BenchmarkId::VecAdd, 2, 32);
        assert!(
            p.gvm_ms < p.remote_ib_ms,
            "GVM {:.1} ms should beat remote IB {:.1} ms",
            p.gvm_ms,
            p.remote_ib_ms
        );
        assert!(
            p.remote_ib_ms < p.remote_eth_ms,
            "IB {:.1} ms should beat Ethernet {:.1} ms",
            p.remote_ib_ms,
            p.remote_eth_ms
        );
    }

    /// For a compute-bound task the wire barely matters: remote-IB lands
    /// within a few percent of the GVM (both eliminate context switching).
    #[test]
    fn compute_task_is_insensitive_to_the_wire() {
        let sc = Scenario::default();
        let p = compare(&sc, BenchmarkId::Ep, 4, 64);
        let gap = (p.remote_ib_ms - p.gvm_ms) / p.gvm_ms;
        assert!(
            gap.abs() < 0.10,
            "EP remote-IB should be within 10% of GVM: gvm {:.1}, remote {:.1}",
            p.gvm_ms,
            p.remote_ib_ms
        );
        // And both beat conventional sharing handily.
        assert!(p.gvm_ms < p.direct_ms && p.remote_ib_ms < p.direct_ms);
    }
}
