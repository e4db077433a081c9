//! Microbenchmark profiling — regenerates Table II.
//!
//! Methodology (mirroring the paper's):
//! * `Tdata_in`, `Tcomp`, `Tdata_out`: single-process conventional run,
//!   phases measured at the process (`Tcomp` spans launch → completion via
//!   an explicit stream synchronize);
//! * `Tinit`: 8-process conventional run, time until the last process
//!   finishes device/context initialization (driver-serialized);
//! * `Tctx_switch`: 8-process conventional run, mean of the device's
//!   charged context-switch costs.

use gv_kernels::{Benchmark, BenchmarkId};
use gv_model::ExecutionProfile;

use crate::scenario::{ExecutionMode, Scenario};

/// A measured Table II column, plus the geometry rows.
#[derive(Debug, Clone)]
pub struct MeasuredProfile {
    /// Benchmark name.
    pub benchmark: String,
    /// Problem-size string (catalogue).
    pub problem_size: String,
    /// Grid size (catalogue).
    pub grid_size: u64,
    /// The measured model parameters (ms).
    pub profile: ExecutionProfile,
}

/// Profile one benchmark (paper-sized when `scale_down <= 1`).
pub fn measure(scenario: &Scenario, id: BenchmarkId, scale_down: u32) -> MeasuredProfile {
    let desc = Benchmark::describe(id);
    let task = if scale_down <= 1 {
        Benchmark::paper_task(id, &scenario.device)
    } else {
        Benchmark::scaled_task(id, &scenario.device, scale_down)
    };

    // Phase measurements: clean single-process run.
    let single = scenario.run_uniform(ExecutionMode::Direct, &task, 1);
    let run = &single.runs[0];

    // Initialization and switching: contended 8-process run.
    let n = scenario.node.cores;
    let group = scenario.run_uniform(ExecutionMode::Direct, &task, n);
    let t_init = group.t_init_total();
    let switches = group.device.ctx_switches.max(1);
    let t_ctx_switch = group.device.ctx_switch_time.as_millis_f64() / switches as f64;

    MeasuredProfile {
        benchmark: desc.name.to_string(),
        problem_size: desc.problem_size.to_string(),
        grid_size: desc.grid_size,
        profile: ExecutionProfile {
            t_init,
            t_ctx_switch,
            t_data_in: run.t_data_in(),
            t_comp: run.t_comp(),
            t_data_out: run.t_data_out(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline calibration check: the simulated Table II must land on
    /// the paper's published VectorAdd column.
    #[test]
    fn vecadd_profile_matches_table2() {
        let sc = Scenario::default();
        let m = measure(&sc, BenchmarkId::VecAdd, 1);
        let p = &m.profile;
        let close = |got: f64, want: f64, tol_frac: f64, what: &str| {
            let err = (got - want).abs() / want.max(1e-9);
            assert!(
                err < tol_frac,
                "{what}: got {got}, paper {want} ({:.1}% off)",
                err * 100.0
            );
        };
        close(p.t_init, 1519.386, 0.01, "Tinit");
        close(p.t_data_in, 135.874, 0.02, "Tdata_in");
        close(p.t_comp, 0.038, 0.15, "Tcomp");
        close(p.t_data_out, 66.656, 0.02, "Tdata_out");
        close(p.t_ctx_switch, 148.226, 0.02, "Tctx_switch");
    }

    /// EP column.
    #[test]
    fn ep_profile_matches_table2() {
        let sc = Scenario::default();
        let m = measure(&sc, BenchmarkId::Ep, 1);
        let p = &m.profile;
        assert!(
            (p.t_init - 1519.4).abs() / 1519.4 < 0.01,
            "Tinit = {}",
            p.t_init
        );
        assert_eq!(p.t_data_in, 0.0, "EP stages no input");
        assert!(
            (p.t_comp - 8951.346).abs() / 8951.346 < 0.01,
            "Tcomp = {}",
            p.t_comp
        );
        // Paper prints ~0 (55 ns); our DMA latency floor gives ~0.03 ms.
        assert!(p.t_data_out < 0.1, "Tdata_out = {}", p.t_data_out);
        assert!(
            (p.t_ctx_switch - 220.599).abs() / 220.599 < 0.02,
            "Tctx_switch = {}",
            p.t_ctx_switch
        );
    }
}
