//! Virtualization-overhead microbenchmark — regenerates Fig. 10.
//!
//! One process runs a VectorAdd-shaped task of varying data size through
//! the GVM. Following the paper's methodology, we compare the process
//! turnaround time with the time spent in the *base layer* — the GVM's
//! staging copies plus the GPU operations — so the reported overhead is the
//! API layer's contribution: the client-side shared-memory copies and the
//! request/response messaging.

use gv_gpu::estimate_kernel_time;
use gv_kernels::vecadd;

use crate::scenario::{ExecutionMode, Scenario};

/// One Fig. 10 data point.
#[derive(Debug, Clone, Copy)]
pub struct OverheadPoint {
    /// Total staged data (input) size in MB.
    pub data_mb: f64,
    /// Process turnaround through the GVM, ms.
    pub turnaround_ms: f64,
    /// Base-layer time (GVM staging copies + GPU transfers + kernel), ms.
    pub base_layer_ms: f64,
    /// Overhead fraction `(turnaround − base) / turnaround`.
    pub overhead_frac: f64,
}

/// Run the overhead microbenchmark for the given input sizes (MB of H2D
/// data; the paper sweeps up to 400 MB).
pub fn sweep(scenario: &Scenario, sizes_mb: &[u64]) -> Vec<OverheadPoint> {
    let cfg = &scenario.device;
    sizes_mb
        .iter()
        .map(|&mb| {
            // VectorAdd layout: input = 2/3 arrays, output = 1/3.
            let n = mb * 1_000_000 / 8; // elements such that bytes_in = mb MB
            let task = vecadd::scaled_task(cfg, n);
            let r = scenario.run_uniform(ExecutionMode::Virtualized, &task, 1);
            let gvm = r.gvm.as_ref().expect("virtualized run has GVM stats");

            // Base layer: GVM staging copies + device transfers + kernel.
            let gpu_ms = cfg.copy_time(task.bytes_in, true, true).as_millis_f64()
                + estimate_kernel_time(cfg, &task.kernels[0].desc).as_millis_f64()
                + cfg.copy_time(task.bytes_out, false, true).as_millis_f64();
            let base_layer_ms = gvm.copy_time.as_millis_f64() + gpu_ms;
            let turnaround_ms = r.turnaround_ms;
            OverheadPoint {
                data_mb: mb as f64,
                turnaround_ms,
                base_layer_ms,
                overhead_frac: (turnaround_ms - base_layer_ms) / turnaround_ms,
            }
        })
        .collect()
}

/// The paper's sweep sizes (MB of staged input data).
pub fn paper_sizes() -> Vec<u64> {
    vec![25, 50, 100, 150, 200, 250, 300, 350, 400]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_size_but_stays_bounded() {
        let sc = Scenario::default();
        let pts = sweep(&sc, &[25, 100, 400]);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.turnaround_ms > p.base_layer_ms, "{p:?}");
            assert!(p.overhead_frac > 0.0 && p.overhead_frac < 0.5, "{p:?}");
        }
        // Absolute overhead (ms) grows with data size…
        let abs: Vec<f64> = pts
            .iter()
            .map(|p| p.turnaround_ms - p.base_layer_ms)
            .collect();
        assert!(abs[2] > abs[1] && abs[1] > abs[0]);
        // …and the paper's headline bound holds at 400 MB.
        assert!(
            pts[2].overhead_frac < 0.25,
            "overhead at 400 MB = {:.1}% (paper: <25%)",
            pts[2].overhead_frac * 100.0
        );
    }
}
