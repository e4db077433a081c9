//! The cluster placement sweep — `repro_bench --only cluster`.
//!
//! One experiment: a fixed 128-session workload — a heterogeneous mix of
//! VectorAdd / EP / MM / BlackScholes sessions across four tenants, with
//! a quarter of the sessions grouped into 4-wide gangs — placed over
//! {8, 16, 32} simulated C2070 devices by every [`PlacePolicy`]. The
//! interesting comparisons:
//!
//! * **Turnaround distribution** — p50/p95/mean session turnaround.
//!   BinPack concentrates load (fewer devices, more queueing); Spread
//!   and DRF flatten the tail.
//! * **Device utilization** — busy fraction per device (SM + copy
//!   engines over the makespan). BinPack drives fewer devices harder;
//!   Spread touches all of them lightly.
//! * **Placement shape** — admission waves, deferral events, and the
//!   per-device session spread (min–max).
//!
//! With `analyze` on, every point also records its trace and is gated on
//! the `gv-analyze` checkers, including the cluster co-residency linter.

use gv_cuda::CudaDevice;
use gv_gpu::{DeviceConfig, GpuDevice};
use gv_ipc::Node;
use gv_kernels::{Benchmark, BenchmarkId};
use gv_sim::Simulation;
use gv_virt::{Cluster, ClusterConfig, MemQuota, PlacePolicy, VgpuRequest};

use crate::analysis;
use crate::report::{Row, Sweep};
use crate::scenario::Scenario;

/// Sessions per sweep point (fixed across device counts so the policy
/// comparison holds the workload constant).
pub const SESSIONS: usize = 128;

/// Device counts the sweep covers.
pub const DEVICES: [usize; 3] = [8, 16, 32];

/// Tenants the workload is spread across.
pub const TENANTS: u64 = 4;

/// Number of all-or-nothing gangs in the workload.
pub const GANGS: u64 = 12;

/// Sessions per gang.
pub const GANG_SIZE: u64 = 4;

/// Benchmark rotation: I/O-bound, compute-bound, and two in between.
const MIX: [BenchmarkId; 4] = [
    BenchmarkId::VecAdd,
    BenchmarkId::Ep,
    BenchmarkId::Mm,
    BenchmarkId::BlackScholes,
];

/// Build the fixed 128-session workload: the first `GANGS × GANG_SIZE`
/// requests form 4-wide single-tenant gangs (gang `g` runs benchmark
/// `MIX[g % 4]`), the rest are singletons rotating tenant and benchmark
/// by request id. Deterministic — every policy and device count places
/// the identical request stream.
pub fn requests(cfg: &DeviceConfig, scale_down: u32) -> Vec<VgpuRequest> {
    (0..SESSIONS as u64)
        .map(|i| {
            let (tenant, gang, bench) = if i < GANGS * GANG_SIZE {
                let g = i / GANG_SIZE;
                // Gang members must share a tenant.
                (g % TENANTS, Some(g + 1), MIX[(g % 4) as usize])
            } else {
                (i % TENANTS, None, MIX[(i % 4) as usize])
            };
            VgpuRequest {
                id: i,
                tenant,
                gang,
                quota: MemQuota::Unlimited,
                task: Benchmark::scaled_task(bench, cfg, scale_down.max(1)),
            }
        })
        .collect()
}

/// Nearest-rank percentile of an unsorted sample, `q` in [0, 1].
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one policy × device-count point: session turnaround p50/p95/mean,
/// the makespan, per-device busy fractions (`util_*`), admission waves,
/// deferral events, GVMs booted, and the per-device session spread
/// (`sessions_min`–`sessions_max`).
pub fn run_point(
    base: &Scenario,
    policy: PlacePolicy,
    ndev: usize,
    scale_down: u32,
    analyze: bool,
) -> Row {
    let mut sim = Simulation::new();
    let tracer = sim.tracer();
    if analyze {
        tracer.set_analysis(true);
    }
    let devices: Vec<GpuDevice> = (0..ndev)
        .map(|_| GpuDevice::install(&mut sim, base.device.clone()))
        .collect();
    let cudas: Vec<CudaDevice> = devices.iter().map(|d| CudaDevice::new(d.clone())).collect();
    let node = Node::new(base.node.clone());
    let reqs = requests(&base.device, scale_down);
    let handle = Cluster::install(&mut sim, &node, &cudas, ClusterConfig::new(policy), reqs)
        .expect("feasible placement");
    let summary = sim.run().expect("cluster run completes");
    let results = handle.session_results();
    assert_eq!(results.len(), SESSIONS, "every session finished");
    let stats = handle.stats();

    let mut turnarounds: Vec<f64> = results
        .iter()
        .map(|s| s.run.end.duration_since(s.run.start).as_millis_f64())
        .collect();
    turnarounds.sort_by(|a, b| a.total_cmp(b));
    let mean_ms = turnarounds.iter().sum::<f64>() / turnarounds.len() as f64;

    // Busy fraction: SM cycles (converted to seconds at the device clock)
    // plus copy-engine busy time, over the makespan. A coarse proxy — the
    // engines overlap — but it separates "driven hard" from "barely used".
    let makespan_ms = summary
        .end_time
        .duration_since(gv_sim::SimTime::ZERO)
        .as_millis_f64();
    let sm_hz = base.device.num_sms as f64 * base.device.clock_ghz * 1e9;
    let utils: Vec<f64> = devices
        .iter()
        .map(|d| {
            let s = d.stats();
            let sm_ms = s.sm_busy_cycles / sm_hz * 1e3;
            let busy_ms = sm_ms + s.h2d_busy.as_millis_f64() + s.d2h_busy.as_millis_f64();
            (busy_ms / makespan_ms).min(1.0)
        })
        .collect();
    let util_mean = utils.iter().sum::<f64>() / utils.len() as f64;
    let util_min = utils.iter().cloned().fold(f64::MAX, f64::min);
    let util_max = utils.iter().cloned().fold(f64::MIN, f64::max);

    let what = format!("{} × {ndev} devices", policy.name());
    let per_device = &stats.per_device_sessions;
    Row::new(
        "placement",
        analyze.then(|| analysis::check(&tracer, &what)),
    )
    .text("policy", policy.name())
    .int("devices", ndev as u64)
    .int("sessions", results.len() as u64)
    .int("waves", u64::from(stats.waves))
    .int("deferred_groups", stats.deferred_groups)
    .int("gvms", stats.gvms)
    .ms("makespan_ms", makespan_ms)
    .ms("p50_ms", percentile(&turnarounds, 0.50))
    .ms("p95_ms", percentile(&turnarounds, 0.95))
    .ms("mean_ms", mean_ms)
    .num("util_mean", util_mean, 4)
    .num("util_min", util_min, 4)
    .num("util_max", util_max, 4)
    .int(
        "sessions_min",
        per_device.iter().copied().min().unwrap_or(0),
    )
    .int(
        "sessions_max",
        per_device.iter().copied().max().unwrap_or(0),
    )
}

/// Run the full policy × device-count matrix.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let rows = DEVICES
        .into_iter()
        .flat_map(|ndev| PlacePolicy::all().map(move |p| (p, ndev)))
        .map(|(policy, ndev)| run_point(base, policy, ndev, scale_down, analyze))
        .collect();
    Sweep {
        name: "cluster",
        title: format!(
            "CLUSTER PLACEMENT SWEEP — {SESSIONS} sessions ({GANGS} gangs of \
             {GANG_SIZE}, {TENANTS} tenants)"
        ),
        scale: scale_down,
        rows,
        notes: "BinPack packs the fewest devices (highest util max, deepest\n\
                queues); Spread and DRF flatten per-device load; Gang holds\n\
                4-wide groups on one device, trading waves for co-residency.\n"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_well_formed() {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let reqs = requests(&cfg, 64);
        assert_eq!(reqs.len(), SESSIONS);
        // Gang members share a tenant; ids are dense and unique.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            if let Some(g) = r.gang {
                assert_eq!(r.tenant, (g - 1) % TENANTS);
            }
        }
        let gangs: std::collections::HashSet<u64> = reqs.iter().filter_map(|r| r.gang).collect();
        assert_eq!(gangs.len(), GANGS as usize);
        // Every gang is exactly GANG_SIZE wide.
        for g in gangs {
            let width = reqs.iter().filter(|r| r.gang == Some(g)).count();
            assert_eq!(width, GANG_SIZE as usize);
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0); // round(1.5) = 2
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn one_point_runs_and_balances() {
        let base = Scenario::default();
        let p = run_point(&base, PlacePolicy::Spread, 8, 64, false);
        assert_eq!(p.value("sessions"), SESSIONS as f64);
        assert!(p.value("waves") >= 1.0);
        assert!(p.value("p95_ms") >= p.value("p50_ms"));
        assert!(p.value("makespan_ms") > 0.0);
        assert!(p.value("util_max") <= 1.0 && p.value("util_min") >= 0.0);
        // Spread balances: no device is idle while another hosts the lot.
        let (lo, hi) = (p.value("sessions_min"), p.value("sessions_max"));
        assert!(hi > 0.0 && hi - lo <= SESSIONS as f64 / 2.0);
    }
}
