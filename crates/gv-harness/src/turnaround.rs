//! Turnaround-time experiments: the machinery behind Figs. 9 and 11–16
//! and the experimental half of Table III.

use gv_kernels::{Benchmark, BenchmarkId};

use crate::scenario::{ExecutionMode, Scenario};

/// Configuration of a turnaround sweep for one benchmark.
#[derive(Debug, Clone)]
pub struct TurnaroundConfig {
    /// Which benchmark.
    pub benchmark: BenchmarkId,
    /// Largest process count (the paper sweeps 1–8).
    pub max_procs: usize,
    /// Cost divisor for quick runs (1 = paper-sized).
    pub scale_down: u32,
}

impl TurnaroundConfig {
    /// Paper-sized sweep over 1–8 processes.
    pub fn paper(benchmark: BenchmarkId) -> Self {
        TurnaroundConfig {
            benchmark,
            max_procs: 8,
            scale_down: 1,
        }
    }
}

/// One point of a turnaround series.
#[derive(Debug, Clone, Copy)]
pub struct TurnaroundPoint {
    /// Process count.
    pub nprocs: usize,
    /// Conventional-sharing turnaround, ms.
    pub no_vt_ms: f64,
    /// Virtualized turnaround, ms.
    pub vt_ms: f64,
}

impl TurnaroundPoint {
    /// Speedup at this process count.
    pub fn speedup(&self) -> f64 {
        self.no_vt_ms / self.vt_ms
    }
}

/// A complete sweep (one paper figure's data).
#[derive(Debug, Clone)]
pub struct TurnaroundSeries {
    /// Benchmark name.
    pub benchmark: String,
    /// Points for `n = 1..=max_procs`.
    pub points: Vec<TurnaroundPoint>,
}

impl TurnaroundSeries {
    /// Speedup at the largest process count (the paper's Fig. 16 bars).
    pub fn final_speedup(&self) -> f64 {
        self.points.last().expect("non-empty sweep").speedup()
    }
}

/// Run both modes for `n = 1..=max_procs` (a Fig. 9 / Fig. 11–15 series).
pub fn sweep(scenario: &Scenario, cfg: &TurnaroundConfig) -> TurnaroundSeries {
    let task = if cfg.scale_down <= 1 {
        Benchmark::paper_task(cfg.benchmark, &scenario.device)
    } else {
        Benchmark::scaled_task(cfg.benchmark, &scenario.device, cfg.scale_down)
    };
    let mut points = Vec::with_capacity(cfg.max_procs);
    for n in 1..=cfg.max_procs {
        let direct = scenario.run_uniform(ExecutionMode::Direct, &task, n);
        let virt = scenario.run_uniform(ExecutionMode::Virtualized, &task, n);
        points.push(TurnaroundPoint {
            nprocs: n,
            no_vt_ms: direct.turnaround_ms,
            vt_ms: virt.turnaround_ms,
        });
    }
    TurnaroundSeries {
        benchmark: Benchmark::describe(cfg.benchmark).name.to_string(),
        points,
    }
}

/// Run both modes at a single process count (a Table III / Fig. 16 entry).
pub fn at_n(
    scenario: &Scenario,
    benchmark: BenchmarkId,
    n: usize,
    scale_down: u32,
) -> TurnaroundPoint {
    let task = if scale_down <= 1 {
        Benchmark::paper_task(benchmark, &scenario.device)
    } else {
        Benchmark::scaled_task(benchmark, &scenario.device, scale_down)
    };
    let direct = scenario.run_uniform(ExecutionMode::Direct, &task, n);
    let virt = scenario.run_uniform(ExecutionMode::Virtualized, &task, n);
    TurnaroundPoint {
        nprocs: n,
        no_vt_ms: direct.turnaround_ms,
        vt_ms: virt.turnaround_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_monotone_nprocs() {
        let sc = Scenario::default();
        let cfg = TurnaroundConfig {
            benchmark: BenchmarkId::VecAdd,
            max_procs: 3,
            scale_down: 200,
        };
        let series = sweep(&sc, &cfg);
        assert_eq!(series.points.len(), 3);
        for (i, p) in series.points.iter().enumerate() {
            assert_eq!(p.nprocs, i + 1);
            assert!(p.no_vt_ms > 0.0 && p.vt_ms > 0.0);
        }
        // Conventional turnaround grows with n (ctx switches accumulate).
        assert!(series.points[2].no_vt_ms > series.points[0].no_vt_ms);
        // Virtualization wins by n = 3.
        assert!(series.final_speedup() > 1.0);
    }

    #[test]
    fn at_n_matches_sweep_point() {
        let sc = Scenario::default();
        let p = at_n(&sc, BenchmarkId::VecAdd, 2, 200);
        assert_eq!(p.nprocs, 2);
        assert!(p.speedup() > 0.5);
    }
}
