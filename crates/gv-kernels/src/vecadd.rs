//! Vector addition — the paper's I/O-intensive microbenchmark.
//!
//! Paper configuration (Table II): 50M single-precision elements,
//! grid size 50 000, `Tdata_in` 135.874 ms (two 200 MB operand arrays),
//! `Tcomp` 0.038 ms, `Tdata_out` 66.656 ms (200 MB result),
//! `Tctx_switch` 148.226 ms.
//!
//! The kernel itself is calibrated to the paper's measured `Tcomp` (an
//! async-launch-dominated figure — see EXPERIMENTS.md); the task-level
//! behaviour is bandwidth-bound either way.

use std::sync::Arc;

use gv_gpu::{DeviceConfig, DeviceMemory, DevicePtr, KernelBody, KernelDesc};
use gv_sim::SimDuration;

use crate::task::{BodyFactory, GpuTask, KernelTemplate, WorkloadClass};

/// Paper problem size: 50M floats.
pub const PAPER_N: u64 = 50_000_000;
/// Paper grid size (Table II).
pub const PAPER_GRID: u64 = 50_000;
/// Threads per block implied by N and the grid.
pub const PAPER_TPB: u32 = 1_000;
/// Paper-measured per-task context-switch cost, ms (Table II).
pub const PAPER_CTX_SWITCH_MS: f64 = 148.226;
/// Paper-measured kernel time, ms (Table II `Tcomp` minus the launch call).
pub const PAPER_KERNEL_MS: f64 = 0.030;

/// The paper-sized, timing-only task.
pub fn paper_task(cfg: &DeviceConfig) -> GpuTask {
    scaled_task(cfg, PAPER_N)
}

/// A timing-only task over `n` elements (same geometry rules as the paper:
/// one thread per element, 1000-thread blocks; kernel time scales with n).
pub fn scaled_task(cfg: &DeviceConfig, n: u64) -> GpuTask {
    let grid = n.div_ceil(PAPER_TPB as u64);
    let scale = n as f64 / PAPER_N as f64;
    let desc = KernelDesc::new("vecadd", grid, PAPER_TPB)
        .regs(10)
        .with_target_time(cfg, SimDuration::from_millis_f64(PAPER_KERNEL_MS * scale));
    GpuTask {
        name: "VectorAdd".into(),
        class: WorkloadClass::IoIntensive,
        ctx_switch_cost: SimDuration::from_millis_f64(PAPER_CTX_SWITCH_MS),
        device_bytes: 12 * n,
        iterations: 1,
        bytes_in: 8 * n,
        round_bytes_in: Vec::new(),
        input: None,
        bytes_out: 4 * n,
        d2h_offset: 8 * n,
        kernels: vec![KernelTemplate::timing(desc)],
    }
}

/// CPU reference: element-wise sum.
pub fn reference(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Functional device body over the task's device region
/// (layout: `[a(n) | b(n) | c(n)]` as f32): adds `a` and `b` straight into
/// `c` in place, the same f32 adds as [`reference`].
fn body(base: DevicePtr, n: usize) -> KernelBody {
    Arc::new(move |mem: &mut DeviceMemory| {
        let region = mem.bytes_mut(base, 12 * n).expect("vecadd: region");
        let (ab, c) = region.split_at_mut(8 * n);
        let (a, b) = ab.split_at(4 * n);
        for ((c, a), b) in c
            .chunks_exact_mut(4)
            .zip(a.chunks_exact(4))
            .zip(b.chunks_exact(4))
        {
            let sum = f32::from_le_bytes(a.try_into().expect("chunk of 4"))
                + f32::from_le_bytes(b.try_into().expect("chunk of 4"));
            c.copy_from_slice(&sum.to_le_bytes());
        }
    })
}

/// A functional task over `n` elements with the given operand values.
pub fn functional_task(cfg: &DeviceConfig, a: &[f32], b: &[f32]) -> GpuTask {
    assert_eq!(a.len(), b.len());
    let n = a.len() as u64;
    let mut task = scaled_task(cfg, n);
    let mut input = Vec::with_capacity(8 * n as usize);
    input.extend(a.iter().flat_map(|v| v.to_le_bytes()));
    input.extend(b.iter().flat_map(|v| v.to_le_bytes()));
    task.input = Some(Arc::new(input));
    let n_usize = n as usize;
    let factory: BodyFactory = Arc::new(move |base| body(base, n_usize));
    task.kernels = vec![KernelTemplate::functional(
        task.kernels[0].desc.clone(),
        factory,
    )];
    task
}

/// Decode a functional task's output bytes into f32s.
pub fn decode_output(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_gpu::estimate_kernel_time;

    #[test]
    fn paper_task_geometry_matches_table2() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let t = paper_task(&cfg);
        assert_eq!(t.kernels[0].desc.grid_blocks, PAPER_GRID);
        assert_eq!(t.bytes_in, 400_000_000);
        assert_eq!(t.bytes_out, 200_000_000);
        assert_eq!(t.iterations, 1);
    }

    #[test]
    fn kernel_calibrated_to_paper_tcomp() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let t = paper_task(&cfg);
        let est = estimate_kernel_time(&cfg, &t.kernels[0].desc);
        let err = (est.as_millis_f64() - PAPER_KERNEL_MS).abs() / PAPER_KERNEL_MS;
        assert!(
            err < 0.01,
            "kernel time {est} vs target {PAPER_KERNEL_MS} ms"
        );
    }

    #[test]
    fn reference_adds() {
        assert_eq!(reference(&[1.0, 2.0], &[0.5, -2.0]), vec![1.5, 0.0]);
    }

    #[test]
    fn functional_body_computes_sum() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let mut a: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut b: Vec<f32> = (0..64).map(|i| (i * 2) as f32).collect();
        // Signed zeros, subnormals and rounding must match bit for bit.
        a[..4].copy_from_slice(&[-0.0, f32::from_bits(1), 0.1, f32::MAX]);
        b[..4].copy_from_slice(&[-0.0, -f32::MIN_POSITIVE, 0.2, f32::MAX]);
        let task = functional_task(&cfg, &a, &b);
        assert!(task.is_functional());

        let mut mem = DeviceMemory::new(1 << 20);
        let base = mem.alloc(task.device_bytes).unwrap();
        mem.write_bytes(base, task.input.as_ref().unwrap()).unwrap();
        for k in task.bind_kernels(base) {
            (k.body.unwrap())(&mut mem);
        }
        let out = mem.read_f32(base.add(task.d2h_offset), 64).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&reference(&a, &b)));
    }

    #[test]
    fn scaled_task_shrinks_io() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let t = scaled_task(&cfg, 1_000_000);
        assert_eq!(t.bytes_in, 8_000_000);
        assert_eq!(t.kernels[0].desc.grid_blocks, 1000);
    }
}
