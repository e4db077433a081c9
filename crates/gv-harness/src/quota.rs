//! Device-memory quota and VRAM-oversubscription measurements —
//! `repro_bench --only quota`.
//!
//! Each point runs the same staggered FCFS wave of 8 quota'd sessions
//! twice against a deliberately small device: once **hard-fit** (finite
//! quotas, demand-swap off — a session whose working set does not fit in
//! free VRAM is NAKed away) and once **oversubscribed** (demand-swap on —
//! the GVM evicts idle parked working sets to pinned host staging and
//! restores them on the next touch). Sweeping the aggregate demand from
//! 1× to 8× of device capacity shows the trade: hard-fit admission decays
//! toward one session while swap keeps admitting all eight, at the cost
//! of the swap traffic the model's `swap_cost` equation prices.
//!
//! Every rank's working set has a *distinct* byte size, so the
//! device-allocation cache can never serve a later session from an
//! exact-shape parked buffer and mask the hard-fit ceiling.

use std::sync::Arc;

use gv_cuda::CudaDevice;
use gv_gpu::{DeviceConfig, GpuDevice};
use gv_ipc::Node;
use gv_kernels::vecadd;
use gv_sim::{SimDuration, Simulation};
use gv_virt::sched::estimate_cost_ms;
use gv_virt::{Gvm, GvmConfig, GvmStats, MemQuota, SchedPolicy, VgpuClient};
use parking_lot::Mutex;

use crate::analysis;
use crate::report::{Row, Sweep};
use crate::scenario::Scenario;

/// Sessions per wave.
const NPROCS: usize = 8;

/// What one wave (one mode at one ratio) measured.
struct Wave {
    admitted: usize,
    group_ms: f64,
    stats: GvmStats,
    clean: Option<bool>,
}

/// The small device the sweep overcommits: the base device with its VRAM
/// shrunk to `64 MiB / scale_down`, so paper-sized cost parameters apply
/// but capacity is something eight sessions can actually strain.
fn quota_device(base: &Scenario, scale_down: u32) -> DeviceConfig {
    DeviceConfig {
        global_mem_bytes: (64 << 20) / u64::from(scale_down.max(1)),
        ..base.device.clone()
    }
}

/// Per-rank working sets at `ratio`× aggregate overcommit: each of the 8
/// ranks demands `ratio/8` of device capacity, minus a distinct per-rank
/// offset so no two sessions share a buffer shape (element counts, so the
/// VectorAdd task's `12·n` device bytes stay exact).
fn working_set_elems(capacity: u64, ratio: u32) -> Vec<u64> {
    let step = (capacity / 256).max(24) / 12; // distinct-shape offset, elems
    let base = u64::from(ratio) * capacity / NPROCS as u64 / 12;
    (0..NPROCS as u64).map(|i| base - i * step).collect()
}

/// Run one wave: 8 staggered FCFS sessions with per-session quotas equal
/// to their working sets, demand-swap on or off. Returns how many
/// sessions the GVM actually served.
fn run_wave(
    base: &Scenario,
    device_cfg: &DeviceConfig,
    elems: &[u64],
    swap: bool,
    analyze: bool,
) -> Wave {
    let mut sim = Simulation::new();
    let tracer = sim.tracer();
    tracer.set_analysis(analyze);
    let device = GpuDevice::install(&mut sim, device_cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(base.node.clone());

    let tasks: Vec<_> = elems
        .iter()
        .map(|&n| vecadd::scaled_task(device_cfg, n))
        .collect();
    let quotas: Vec<MemQuota> = tasks
        .iter()
        .map(|t| MemQuota::Bytes(t.device_bytes))
        .collect();
    // Stagger like the ft wave: each session fully drains (working set
    // parked at RLS) before the next session's SND arrives, so hard-fit
    // admission is limited by *accumulated parked* memory, not by racing
    // live sessions.
    let cost = tasks
        .iter()
        .map(|t| estimate_cost_ms(t, device_cfg, &base.node))
        .fold(0.0, f64::max);
    let stagger = SimDuration::from_millis_f64(cost * 2.0);

    let mut config = GvmConfig::new(tasks.len())
        .with_scheduler(SchedPolicy::Fcfs)
        .with_mem(base.mem)
        .with_quotas(quotas);
    if swap {
        config = config.with_swap();
    }
    let n = tasks.len();
    let handle = Gvm::install(&mut sim, &node, &cuda, config, tasks);

    type Spans = Arc<Mutex<Vec<(gv_sim::SimTime, gv_sim::SimTime, bool)>>>;
    let spans: Spans = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..n {
        let handle = handle.clone();
        let spans = spans.clone();
        let arrival = SimDuration::from_nanos(stagger.as_nanos().saturating_mul(rank as u64));
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            let client = VgpuClient::connect(ctx, &handle, rank);
            if !arrival.is_zero() {
                ctx.hold(arrival);
            }
            let start = ctx.now();
            let admitted = client.try_run_task(ctx).is_ok();
            spans.lock().push((start, ctx.now(), admitted));
        })
        .expect("pin SPMD process");
    }
    let h = handle.clone();
    let dev = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h.done.wait(ctx);
        dev.shutdown(ctx);
    });
    sim.run().expect("quota wave must complete");

    let spans = spans.lock();
    let start = spans.iter().map(|(s, _, _)| *s).min().expect("non-empty");
    let end = spans.iter().map(|(_, e, _)| *e).max().expect("non-empty");
    let stats = handle.stats.lock().clone();
    Wave {
        admitted: spans.iter().filter(|(_, _, ok)| *ok).count(),
        group_ms: end.duration_since(start).as_millis_f64(),
        stats,
        clean: analyze.then(|| analysis::check(&tracer, &format!("quota wave (swap={swap})"))),
    }
}

/// Sweep aggregate demand over 1×, 2×, 4×, and 8× of device capacity,
/// one row per ratio measuring the hard-fit and the swap-backed wave.
/// `admit_gain` is the swap run's admissions over the hard-fit run's.
/// With `analyze`, every wave's trace is checked by the full `gv-analyze`
/// suite (including the quota/swap checker).
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let device_cfg = quota_device(base, scale_down);
    let capacity = device_cfg.global_mem_bytes;
    let rows: Vec<Row> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|ratio| {
            let elems = working_set_elems(capacity, ratio);
            let hard = run_wave(base, &device_cfg, &elems, false, analyze);
            let swap = run_wave(base, &device_cfg, &elems, true, analyze);
            let clean = hard.clean.zip(swap.clean).map(|(h, s)| h && s);
            let gain = swap.admitted as f64 / hard.admitted.max(1) as f64;
            Row::new("oversubscription", clean)
                .int("ratio", u64::from(ratio))
                .int("nprocs", NPROCS as u64)
                .int("admitted_hard", hard.admitted as u64)
                .int("admitted_swap", swap.admitted as u64)
                .num("admit_gain", gain, 3)
                .int("naks_hard", hard.stats.naks)
                .int("swap_outs", swap.stats.swap_outs)
                .int("swap_ins", swap.stats.swap_ins)
                .int("swapped_out_bytes", swap.stats.swapped_out_bytes)
                .ms("group_ms_hard", hard.group_ms)
                .ms("group_ms_swap", swap.group_ms)
        })
        .collect();
    let best = rows
        .iter()
        .map(|r| r.value("admit_gain"))
        .fold(0.0, f64::max);
    Sweep {
        name: "quota",
        title: "DEVICE-MEMORY QUOTAS AND VRAM OVERSUBSCRIPTION — DEMAND-SWAP".to_string(),
        scale: scale_down,
        rows,
        notes: format!(
            "Aggregate demand sweeps 1x-8x of device VRAM. Hard-fit NAKs any\n\
             session whose quota'd working set cannot be placed; demand-swap\n\
             parks idle working sets in pinned host staging instead, admitting\n\
             up to {best:.1}x more sessions at the cost of the swap traffic above.\n"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_admits_4x_more_than_hard_fit() {
        let pts = sweep(&Scenario::default(), 16, false).rows;
        for p in &pts {
            assert_eq!(
                p.value("admitted_swap"),
                NPROCS as f64,
                "demand-swap must admit every session at {}x",
                p.value("ratio")
            );
        }
        // Hard-fit admission decays as demand grows past capacity…
        let hard: Vec<f64> = pts.iter().map(|p| p.value("admitted_hard")).collect();
        assert_eq!(hard[0], NPROCS as f64, "everything fits at 1x");
        assert!(
            hard.windows(2).all(|w| w[1] <= w[0]),
            "hard-fit admission must be monotone in demand: {hard:?}"
        );
        // …and the acceptance headline: ≥4× more sessions admitted under
        // oversubscription than hard-fit.
        let best = pts
            .iter()
            .map(|p| p.value("admit_gain"))
            .fold(0.0, f64::max);
        assert!(best >= 4.0, "admission gain only {best:.2}x: {hard:?}");
    }

    #[test]
    fn swap_traffic_appears_exactly_when_overcommitted() {
        let sweep = sweep(&Scenario::default(), 32, true);
        assert!(sweep.clean(), "every swept trace must analyze clean");
        for p in &sweep.rows {
            // Both waves (hard-fit and swap) analyzed clean.
            assert_eq!(p.clean, Some(true));
            let ratio = p.value("ratio");
            if ratio == 1.0 {
                assert_eq!(
                    p.value("swap_outs"),
                    0.0,
                    "nothing to swap when everything fits"
                );
                assert_eq!(p.value("naks_hard"), 0.0);
            } else {
                assert!(
                    p.value("swap_outs") > 0.0,
                    "{ratio}x overcommit must demand-swap at least once"
                );
                assert!(
                    p.value("naks_hard") > 0.0,
                    "hard-fit must reject at {ratio}x"
                );
            }
        }
    }
}
