//! Device-sensitivity study (extension): how do the paper's speedups move
//! across Fermi-generation devices and node widths?
//!
//! The paper evaluates one device (Tesla C2070) and one node width (8
//! cores). Because the virtualization gain is a function of *asymmetry* —
//! how much idle GPU a single process leaves — both knobs matter for
//! anyone provisioning CPU:GPU ratios. This module sweeps them.

use gv_gpu::DeviceConfig;
use gv_kernels::BenchmarkId;

use crate::scenario::Scenario;
use crate::turnaround;

/// Speedup of one benchmark at `nprocs` on one device preset.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// Device preset name.
    pub device: &'static str,
    /// Benchmark name.
    pub benchmark: String,
    /// Process count.
    pub nprocs: usize,
    /// Virtualization speedup.
    pub speedup: f64,
}

/// The device presets swept.
pub fn presets() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::tesla_c2070_paper(),
        DeviceConfig::tesla_c2050(),
        DeviceConfig::gtx_480(),
    ]
}

/// Sweep benchmarks × presets at a fixed node width.
pub fn device_sweep(
    base: &Scenario,
    benchmarks: &[BenchmarkId],
    nprocs: usize,
    scale_down: u32,
) -> Vec<SensitivityPoint> {
    let mut out = Vec::new();
    for device in presets() {
        let scenario = Scenario {
            device: device.clone(),
            ..base.clone()
        };
        for &id in benchmarks {
            let p = turnaround::at_n(&scenario, id, nprocs, scale_down);
            out.push(SensitivityPoint {
                device: device.name,
                benchmark: gv_kernels::Benchmark::describe(id).name.to_string(),
                nprocs,
                speedup: p.speedup(),
            });
        }
    }
    out
}

/// Sweep node widths (1..=max cores) on the paper device for one benchmark.
pub fn width_sweep(
    base: &Scenario,
    id: BenchmarkId,
    widths: &[usize],
    scale_down: u32,
) -> Vec<SensitivityPoint> {
    widths
        .iter()
        .map(|&n| {
            let p = turnaround::at_n(base, id, n, scale_down);
            SensitivityPoint {
                device: base.device.name,
                benchmark: gv_kernels::Benchmark::describe(id).name.to_string(),
                nprocs: n,
                speedup: p.speedup(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct_devices() {
        let p = presets();
        assert_eq!(p.len(), 3);
        let names: Vec<_> = p.iter().map(|d| d.name).collect();
        assert!(names.contains(&"GeForce GTX 480"));
    }

    #[test]
    fn ep_speedup_grows_with_width_on_every_preset() {
        let sc = Scenario::default();
        let pts = width_sweep(&sc, BenchmarkId::Ep, &[2, 4], 64);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].speedup > pts[0].speedup,
            "EP speedup should grow with node width: {pts:?}"
        );
    }

    #[test]
    fn device_sweep_covers_grid() {
        let sc = Scenario::default();
        let pts = device_sweep(&sc, &[BenchmarkId::Ep], 2, 64);
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(p.speedup > 1.0, "{p:?}");
        }
    }
}
