//! Cross-rank DMA coalescing and batched kernel launch sweep —
//! `repro_bench --only coalesce`.
//!
//! Compares the per-rank flush (coalescing off, the seed schedule kept as
//! a config-selectable ablation) against the coalescing flush — staging
//! leases placed adjacently, wave-per-iteration submission, adjacent
//! same-direction transfers fused into one DMA submission per run, and
//! co-flushed ranks' kernel launches batched into grouped submissions —
//! over payload size at 8 processes.
//!
//! The workload is deliberately *launch-dense*: several small kernels per
//! iteration, so the per-submission fixed costs (DMA setup latency, host
//! launch overhead) that coalescing amortizes are a visible fraction of
//! each request. The headline metric is mean per-request *overhead*: the
//! mean per-rank turnaround of the virtualized run minus a single direct
//! (unvirtualized) execution of the same task. The acceptance gate is a
//! ≥ 25 % overhead reduction at the small-payload points; the largest
//! swept payload sits above the fuse threshold, pinning that oversized
//! transfers fall back to per-rank submission.
//!
//! With `analyze` on, every point's trace runs the full `gv-analyze`
//! suite — including the coalesce checker's manifest-partition,
//! command-fan-out, and generation-currency rules.

use gv_gpu::KernelDesc;
use gv_kernels::{vecadd, GpuTask, KernelTemplate};
use gv_model::coalesce_saving;
use gv_sim::SimDuration;
use gv_virt::MemConfig;

use crate::report::{ms, Row, Sweep, TextTable};
use crate::scenario::{ExecutionMode, ExperimentResult, Scenario};

/// Staged input payload sizes (KiB per rank) — the acceptance
/// points. 16 MiB sits above the default 4 MiB fuse threshold, so its
/// transfers must go down unfused.
pub const PAYLOADS_KIB: [u64; 3] = [64, 1024, 16384];

/// Process count for every swept point.
pub const NPROCS: usize = 8;

/// Kernel launches per iteration — the launch-dense shape whose host
/// overhead the batched submission amortizes.
pub const KERNELS_PER_ITER: usize = 32;

/// The workload: a VectorAdd-shaped timing-only task (`payload` in, half
/// that out) whose single kernel is split into [`KERNELS_PER_ITER`] small
/// stages of equal cost — a short multi-stage pipeline, as launch-heavy
/// workloads (graph analytics steps, fused-op chains) present per request.
pub fn launch_dense_task(scenario: &Scenario, payload_bytes: u64) -> GpuTask {
    let mut task = vecadd::scaled_task(&scenario.device, (payload_bytes / 8).max(1));
    let grid = task.kernels[0].desc.grid_blocks;
    let tpb = task.kernels[0].desc.threads_per_block;
    let per_stage = SimDuration::from_micros(4);
    task.name = "LaunchDense".into();
    task.kernels = (0..KERNELS_PER_ITER)
        .map(|i| {
            KernelTemplate::timing(
                KernelDesc::new(format!("stage{i}"), grid, tpb)
                    .regs(10)
                    .with_target_time(&scenario.device, per_stage),
            )
        })
        .collect();
    task
}

/// Run one payload point: the direct baseline once, then the virtualized
/// group with coalescing off (the per-rank flush) and on.
///
/// `direct_ms` is the post-init turnaround of one direct (unvirtualized,
/// single process) execution — the raw-device baseline the overheads are
/// measured against. `fused_ratio` is the fraction of flush DMA ops that
/// rode in fused submissions.
pub fn run_point(base: &Scenario, payload_bytes: u64, n: usize, analyze: bool) -> Row {
    let run = |mem: MemConfig| {
        let scenario = Scenario {
            analyze,
            ..base.clone()
        }
        .with_mem(mem);
        let task = launch_dense_task(&scenario, payload_bytes);
        scenario.run_uniform(ExecutionMode::Virtualized, &task, n)
    };
    let direct = {
        let scenario = base.clone();
        let task = launch_dense_task(&scenario, payload_bytes);
        scenario.run_uniform(ExecutionMode::Direct, &task, 1)
    };
    let off = run(MemConfig::default());
    let on = run(MemConfig::default().with_coalesce(true));
    let og = on.gvm.as_ref().expect("virtualized run has GVM stats");
    let mean =
        |r: &ExperimentResult| r.mean_phase(|t| t.end.duration_since(t.start).as_millis_f64());
    let clean = match (&off.analysis, &on.analysis) {
        (Some(o), Some(c)) => Some(o.is_clean() && c.is_clean()),
        _ => None,
    };
    let direct_ms = direct.mean_phase(|t| t.end.duration_since(t.init_done).as_millis_f64());
    let (off_ms, on_ms) = (mean(&off), mean(&on));
    let (off_ovh, on_ovh) = (off_ms - direct_ms, on_ms - direct_ms);
    Row::new("overhead", clean)
        .num("payload_kib", payload_bytes as f64 / 1024.0, 1)
        .int("nprocs", n as u64)
        .ms("direct_ms", direct_ms)
        .ms("off_rank_ms", off_ms)
        .ms("on_rank_ms", on_ms)
        .ms("off_overhead_ms", off_ovh)
        .ms("on_overhead_ms", on_ovh)
        .num("improvement", 1.0 - on_ovh / off_ovh, 4)
        .int("fused_dma_groups", og.fused_dma_groups)
        .int("fused_dma_subs", og.fused_dma_subs)
        .int("batched_launches", og.batched_launches)
        .num("fused_ratio", og.fused_dma_ratio(), 4)
}

/// Run the sweep over [`PAYLOADS_KIB`] at [`NPROCS`] processes.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let rows = PAYLOADS_KIB
        .iter()
        .map(|&kib| {
            let payload = (kib << 10) / u64::from(scale_down.max(1));
            run_point(base, payload.max(4096), NPROCS, analyze)
        })
        .collect();
    // The analytical side (gv-model's coalesce terms): per-flush fixed
    // submission cost saved when n sub-ops fuse to one group per
    // direction and n·K launches batch to one wave.
    let mut m = TextTable::new(vec!["n", "DMA saving (ms)", "launch saving (ms)"]);
    let l_dma = base.device.dma_latency.as_millis_f64();
    let l_launch = base.device.kernel_launch_overhead.as_millis_f64();
    for n in [2u32, 4, 8] {
        m.row(vec![
            format!("{n}"),
            ms(2.0 * coalesce_saving(n, 1, l_dma)),
            ms(coalesce_saving(n * KERNELS_PER_ITER as u32, 1, l_launch)),
        ]);
    }
    Sweep {
        name: "coalesce",
        title: format!(
            "CROSS-RANK COALESCING SWEEP — mean per-request overhead over direct \
             execution, {NPROCS} processes, {KERNELS_PER_ITER} kernels per iteration, \
             per-rank flush vs coalescing flush"
        ),
        scale: scale_down,
        rows,
        notes: format!(
            "Model prediction (gv-model coalesce_saving, per flush):\n{}\n\
             Coalescing places co-flushed ranks' staging leases adjacently,\n\
             fuses adjacent same-direction transfers into one DMA submission\n\
             per run (followers elide the setup latency), and batches the\n\
             group's kernel launches into one submission per device wave.\n",
            m.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_cuts_small_payload_overhead_by_a_quarter() {
        // The acceptance gate: ≥ 25 % lower mean per-request
        // overhead at the small-payload points.
        for &kib in &PAYLOADS_KIB[..2] {
            let p = run_point(&Scenario::default(), kib << 10, NPROCS, false);
            assert!(
                p.value("improvement") >= 0.25,
                "{kib} KiB: improvement {:.1} % must be ≥ 25 % \
                 (off {:.4} ms, on {:.4} ms)",
                p.value("improvement") * 100.0,
                p.value("off_overhead_ms"),
                p.value("on_overhead_ms")
            );
            assert!(
                p.value("fused_dma_groups") > 0.0,
                "{kib} KiB: nothing fused"
            );
            assert!(
                p.value("batched_launches") > 0.0,
                "{kib} KiB: nothing batched"
            );
        }
    }

    #[test]
    fn oversized_payloads_do_not_fuse() {
        // 16 MiB sits above the 4 MiB fuse threshold: transfers go down
        // per rank (launch batching still applies).
        let p = run_point(&Scenario::default(), 16 << 20, NPROCS, false);
        assert_eq!(p.value("fused_dma_groups"), 0.0);
        assert!(p.value("batched_launches") > 0.0);
    }

    #[test]
    fn coalesce_traces_are_analyze_clean() {
        let p = run_point(&Scenario::default(), 1 << 20, 4, true);
        assert_eq!(p.clean, Some(true));
        assert!(p.value("fused_dma_groups") > 0.0);
    }
}
