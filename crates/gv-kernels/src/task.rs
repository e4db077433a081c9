//! The process-level GPU task abstraction.
//!
//! A [`GpuTask`] is what one SPMD process asks the GPU to do: a number of
//! *iterations*, each consisting of an H2D transfer, a sequence of kernel
//! launches, and a D2H transfer (the paper's Fig. 3 execution cycle; most
//! benchmarks have one iteration, BlackScholes re-stages data every
//! iteration, which is what makes it I/O-intensive).
//!
//! Tasks are declarative: executors (the conventional direct-sharing client
//! and the GVM) allocate one device region of [`GpuTask::device_bytes`] and
//! bind kernels to it via [`GpuTask::bind_kernels`]. Functional tasks carry
//! real input bytes and body factories so results can be verified end to
//! end; timing-only tasks carry just sizes.

use std::sync::Arc;

use gv_gpu::{DevicePtr, KernelBody, KernelDesc};
use gv_sim::SimDuration;

/// The paper's benchmark classification (Table IV "Class").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Turnaround dominated by host↔device I/O.
    IoIntensive,
    /// Turnaround dominated by kernel execution.
    ComputeIntensive,
    /// Comparable I/O and compute.
    Intermediate,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadClass::IoIntensive => write!(f, "I/O-intensive"),
            WorkloadClass::ComputeIntensive => write!(f, "Comp-intensive"),
            WorkloadClass::Intermediate => write!(f, "Intermediate"),
        }
    }
}

/// Builds a kernel body once the executor knows the device base pointer.
pub type BodyFactory = Arc<dyn Fn(DevicePtr) -> KernelBody + Send + Sync>;

/// One kernel launch within a task: geometry/cost plus an optional
/// functional body factory.
#[derive(Clone)]
pub struct KernelTemplate {
    /// Geometry and timing (body left `None`; bound at execution).
    pub desc: KernelDesc,
    /// Optional functional body, parameterized by the task's device region.
    pub body_factory: Option<BodyFactory>,
}

impl KernelTemplate {
    /// A timing-only template.
    pub fn timing(desc: KernelDesc) -> Self {
        KernelTemplate {
            desc,
            body_factory: None,
        }
    }

    /// A functional template.
    pub fn functional(desc: KernelDesc, factory: BodyFactory) -> Self {
        KernelTemplate {
            desc,
            body_factory: Some(factory),
        }
    }
}

impl std::fmt::Debug for KernelTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelTemplate")
            .field("desc", &self.desc)
            .field("functional", &self.body_factory.is_some())
            .finish()
    }
}

/// A complete process-level GPU task.
#[derive(Clone)]
pub struct GpuTask {
    /// Benchmark name.
    pub name: String,
    /// I/O vs compute classification.
    pub class: WorkloadClass,
    /// Per-benchmark context-switch cost (paper Table II measurement,
    /// charged by the device when the conventional scheme switches to this
    /// task's context).
    pub ctx_switch_cost: SimDuration,
    /// Device memory this task allocates.
    pub device_bytes: u64,
    /// Number of (H2D → kernels → D2H) cycles.
    pub iterations: u32,
    /// Input bytes staged per iteration.
    pub bytes_in: u64,
    /// Per-*round* input shape for multi-round sessions: round `j` stages
    /// `round_bytes_in[j]` bytes per iteration instead of [`bytes_in`]
    /// (rounds past the end fall back to `bytes_in`). Empty — the common
    /// case — means every round stages `bytes_in`. Shaped sessions must
    /// be timing-only: a functional task's verified input is a single
    /// fixed byte string.
    ///
    /// [`bytes_in`]: Self::bytes_in
    pub round_bytes_in: Vec<u64>,
    /// Functional input (written at device offset 0), timing-only if `None`.
    pub input: Option<Arc<Vec<u8>>>,
    /// Output bytes retrieved per iteration.
    pub bytes_out: u64,
    /// Offset of the output region within the device allocation.
    pub d2h_offset: u64,
    /// Kernels launched per iteration, in order.
    pub kernels: Vec<KernelTemplate>,
}

impl GpuTask {
    /// Bind this task's kernels to a concrete device region.
    pub fn bind_kernels(&self, base: DevicePtr) -> Vec<KernelDesc> {
        self.kernels
            .iter()
            .map(|t| {
                let mut desc = t.desc.clone();
                if let Some(factory) = &t.body_factory {
                    desc.body = Some(factory(base));
                }
                desc
            })
            .collect()
    }

    /// Total bytes staged to the device over all iterations.
    pub fn total_bytes_in(&self) -> u64 {
        self.bytes_in * self.iterations as u64
    }

    /// Input bytes round `round` stages per iteration: the shaped
    /// per-round size when one was declared, else
    /// [`bytes_in`](Self::bytes_in).
    pub fn bytes_in_for_round(&self, round: u32) -> u64 {
        self.round_bytes_in
            .get(round as usize)
            .copied()
            .unwrap_or(self.bytes_in)
    }

    /// Largest per-iteration input any round stages — what boot-time
    /// sizing (shm segments, zero-copy leases) must provision for.
    pub fn max_bytes_in(&self) -> u64 {
        self.round_bytes_in
            .iter()
            .copied()
            .fold(self.bytes_in, u64::max)
    }

    /// `self` with a per-round input shape (see
    /// [`round_bytes_in`](Self::round_bytes_in)). Panics on functional
    /// tasks — their verified input is a single fixed byte string.
    pub fn with_round_shape(mut self, rounds: Vec<u64>) -> Self {
        assert!(
            !self.is_functional() || rounds.is_empty(),
            "per-round input shapes require a timing-only task"
        );
        self.round_bytes_in = rounds;
        self
    }

    /// Total bytes retrieved over all iterations.
    pub fn total_bytes_out(&self) -> u64 {
        self.bytes_out * self.iterations as u64
    }

    /// Total kernel launches over all iterations.
    pub fn total_launches(&self) -> usize {
        self.kernels.len() * self.iterations as usize
    }

    /// Is this task functional (carries real data)?
    pub fn is_functional(&self) -> bool {
        self.input.is_some() || self.kernels.iter().any(|k| k.body_factory.is_some())
    }
}

impl std::fmt::Debug for GpuTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuTask")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("iterations", &self.iterations)
            .field("bytes_in", &self.bytes_in)
            .field("bytes_out", &self.bytes_out)
            .field("kernels", &self.kernels.len())
            .field("functional", &self.is_functional())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_task() -> GpuTask {
        GpuTask {
            name: "t".into(),
            class: WorkloadClass::Intermediate,
            ctx_switch_cost: SimDuration::from_millis(1),
            device_bytes: 1024,
            iterations: 3,
            bytes_in: 100,
            round_bytes_in: Vec::new(),
            input: None,
            bytes_out: 50,
            d2h_offset: 512,
            kernels: vec![KernelTemplate::timing(KernelDesc::new("k", 4, 64))],
        }
    }

    #[test]
    fn totals_scale_with_iterations() {
        let t = dummy_task();
        assert_eq!(t.total_bytes_in(), 300);
        assert_eq!(t.total_bytes_out(), 150);
        assert_eq!(t.total_launches(), 3);
        assert!(!t.is_functional());
    }

    #[test]
    fn bind_attaches_bodies() {
        let mut t = dummy_task();
        t.kernels = vec![KernelTemplate::functional(
            KernelDesc::new("k", 1, 32),
            Arc::new(|base: DevicePtr| {
                Arc::new(move |mem: &mut gv_gpu::DeviceMemory| {
                    mem.write_f32(base, &[42.0]).unwrap();
                }) as KernelBody
            }),
        )];
        assert!(t.is_functional());
        let mut mem = gv_gpu::DeviceMemory::new(4096);
        let base = mem.alloc(1024).unwrap();
        let bound = t.bind_kernels(base);
        assert_eq!(bound.len(), 1);
        (bound[0].body.as_ref().unwrap())(&mut mem);
        assert_eq!(mem.read_f32(base, 1).unwrap(), vec![42.0]);
    }
}
