//! Chunked copy/compute pipelining sweeps — `repro_bench --only pipeline`
//! and `--only pipeline_steady`.
//!
//! `pipeline` compares the serial-staging GVM (chunking off, the seed
//! behavior) with the chunked+pooled pipeline over chunk count × payload
//! size × group size, all on an I/O-bound VectorAdd-shaped timing-only
//! workload. The headline configuration is the acceptance point:
//! 8 processes staging ≥ 16 MiB each, where interleaving shm→pinned
//! staging with the pre-issued H2D chunks keeps the copy engine busy while
//! the GVM is still staging the next rank. `pipeline_steady` runs
//! multi-round groups with per-round adaptive chunking, with and without
//! the steady-state double buffer that stages round `r + 1` while round
//! `r` computes.
//!
//! With `analyze` on, every point also records its trace and is gated on
//! the `gv-analyze` checkers — including the `staging` checker, which
//! proves each chunked transfer tiles its payload exactly and that no
//! pooled buffer is recycled while a chunk copy is still in flight.

use gv_kernels::{vecadd, GpuTask};
use gv_sim::SimDuration;
use gv_virt::sched::estimate_cost_ms;
use gv_virt::{MemConfig, SchedPolicy};

use crate::report::{Row, Sweep, Value};
use crate::scenario::{ExecutionMode, ExperimentResult, Scenario};

/// Chunk counts swept; 1 is the serial-staging baseline.
pub const CHUNKS: [usize; 4] = [1, 2, 4, 8];

/// Group sizes swept.
pub const PROCS: [usize; 3] = [2, 4, 8];

/// Staged input payload sizes (MiB per rank). The headline point
/// is the ≥ 16 MiB row.
pub const PAYLOADS_MIB: [u64; 2] = [16, 64];

/// Chunking threshold used by every swept point: low enough that even
/// `--quick`-scaled payloads split.
pub const THRESHOLD: u64 = 64 << 10;

/// Compute rounds per rank in the steady-state sweep (the acceptance
/// point asks for ≥ 4 iterations).
pub const STEADY_ROUNDS: u32 = 4;

/// Payload sizes (MiB per rank) for the steady-state before/after record.
pub const STEADY_PAYLOADS_MIB: [u64; 3] = [1, 16, 64];

/// The workload: a VectorAdd-shaped timing-only task staging
/// `payload_bytes` of input per rank (output is half that, as in
/// VectorAdd's 2-in/1-out layout). Timing-only, so paper-sized payloads
/// cost no host RAM.
pub fn payload_task(scenario: &Scenario, payload_bytes: u64) -> GpuTask {
    vecadd::scaled_task(&scenario.device, payload_bytes / 8)
}

/// Mean per-rank turnaround (own end − own start) in ms.
fn mean_rank_ms(result: &ExperimentResult) -> f64 {
    result.mean_phase(|r| r.end.duration_since(r.start).as_millis_f64())
}

/// The row of one chunked-pipeline run.
fn point_row(
    label: &str,
    chunks: usize,
    payload_bytes: u64,
    n: usize,
    result: &ExperimentResult,
) -> Row {
    let gvm = result.gvm.as_ref().expect("virtualized run has GVM stats");
    Row::new(label, result.analysis.as_ref().map(|r| r.is_clean()))
        .int("chunks", chunks as u64)
        .num("payload_mib", payload_bytes as f64 / (1 << 20) as f64, 3)
        .int("nprocs", n as u64)
        .ms("group_ms", result.turnaround_ms)
        .ms("mean_rank_ms", mean_rank_ms(result))
        .ms("copy_ms", gvm.copy_time.as_millis_f64())
        .num("pool_hit_rate", gvm.pool_hit_rate(), 4)
        .int("chunked_transfers", gvm.chunked_transfers)
        .int("chunks_submitted", gvm.chunks_submitted)
}

/// Run one point. `chunks <= 1` runs the serial-staging baseline.
pub fn run_point(
    base: &Scenario,
    chunks: usize,
    payload_bytes: u64,
    n: usize,
    analyze: bool,
) -> Row {
    let mem = if chunks > 1 {
        MemConfig::pipelined(chunks, THRESHOLD)
    } else {
        MemConfig::default()
    };
    let scenario = Scenario {
        analyze,
        ..base.clone()
    }
    .with_mem(mem);
    let task = payload_task(&scenario, payload_bytes);
    let result = scenario.run_uniform(ExecutionMode::Virtualized, &task, n);
    point_row("matrix", chunks, payload_bytes, n, &result)
}

/// Every [`CHUNKS`] count at one payload × group size, each row with its
/// mean-rank-turnaround improvement over the serial baseline
/// (`vs_serial`, a fraction).
pub fn chunk_series(base: &Scenario, payload_bytes: u64, n: usize, analyze: bool) -> Vec<Row> {
    let rows: Vec<Row> = CHUNKS
        .iter()
        .map(|&k| run_point(base, k, payload_bytes, n, analyze))
        .collect();
    let serial = rows[0].value("mean_rank_ms");
    rows.into_iter()
        .map(|r| {
            let gain = 1.0 - r.value("mean_rank_ms") / serial;
            r.num("vs_serial", gain, 4)
        })
        .collect()
}

/// The pool-reuse demonstration: 8 ranks × the headline payload arrive
/// far enough apart (FCFS dispatch) that each rank's round completes —
/// recycling its staging leases — before the next rank's `SND`. Every
/// rank after the first is then served from the pool's free lists.
pub fn pool_reuse_point(base: &Scenario, scale_down: u32, analyze: bool) -> Row {
    let payload = (16 << 20) / scale_down.max(1) as u64;
    let scenario = Scenario {
        analyze,
        ..base.clone()
    }
    .with_mem(MemConfig::pipelined(4, THRESHOLD))
    .with_scheduler(SchedPolicy::Fcfs);
    let task = payload_task(&scenario, payload);
    // 1.5× the modeled single-rank service time of skew: each round is
    // fully drained (leases recycled at RCV) before the next SND arrives.
    let cost = estimate_cost_ms(&task, &scenario.device, &scenario.node);
    let scenario = scenario.with_stagger(SimDuration::from_millis_f64(cost * 1.5));
    let result = scenario.run_uniform(ExecutionMode::Virtualized, &task, 8);
    point_row("staggered-reuse", 4, payload, 8, &result).cell("vs_serial", Value::Null)
}

/// The `pipeline` sweep: the chunk-count matrix over [`PAYLOADS_MIB`] ×
/// [`PROCS`] plus the staggered pool-reuse run. The headline is the
/// matrix's 8-process × 16 MiB series.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let mut rows = Vec::new();
    let mut best = f64::MIN;
    for payload_mib in PAYLOADS_MIB {
        let payload = (payload_mib << 20) / scale_down.max(1) as u64;
        for n in PROCS {
            let series = chunk_series(base, payload, n, analyze);
            if payload_mib == 16 && n == 8 {
                best = series
                    .iter()
                    .map(|r| r.value("vs_serial"))
                    .fold(best, f64::max);
            }
            rows.extend(series);
        }
    }
    let reuse = pool_reuse_point(base, scale_down, analyze);
    let notes = format!(
        "Headline (8 processes × 16 MiB): best chunked improvement over serial\n\
         staging (mean rank turnaround) {:.1}%. The staggered FCFS reuse run hits\n\
         the staging pool {:.2}% of the time: every rank after the first is\n\
         served from recycled pinned buffers.\n",
        best * 100.0,
        reuse.value("pool_hit_rate") * 100.0,
    );
    rows.push(reuse);
    Sweep {
        name: "pipeline",
        title: "CHUNKED STAGING PIPELINE SWEEP".to_string(),
        scale: scale_down,
        rows,
        notes,
    }
}

/// Run one steady-state point: `n` ranks × `rounds` rounds at
/// `payload_bytes`, before (adaptive chunk sizing on every round, each
/// round's SND staged only after the previous round drained) and after
/// (the same chooser plus steady-state double-buffered prefetch), so the
/// difference is the double buffer alone.
pub fn steady_point(
    base: &Scenario,
    payload_bytes: u64,
    n: usize,
    rounds: u32,
    analyze: bool,
) -> Row {
    let run = |mem: MemConfig| {
        let scenario = Scenario {
            analyze,
            ..base.clone()
        }
        .with_mem(mem)
        .with_rounds(rounds);
        let task = payload_task(&scenario, payload_bytes);
        scenario.run_uniform(ExecutionMode::Virtualized, &task, n)
    };
    let before = run(MemConfig::adaptive(4, THRESHOLD));
    let after = run(MemConfig::adaptive(4, THRESHOLD).with_steady());
    let gvm = after.gvm.as_ref().expect("virtualized run has GVM stats");
    let clean = match (&before.analysis, &after.analysis) {
        (Some(b), Some(a)) => Some(b.is_clean() && a.is_clean()),
        _ => None,
    };
    let (before_ms, after_ms) = (mean_rank_ms(&before), mean_rank_ms(&after));
    let mean_k = if gvm.chunked_transfers > 0 {
        gvm.chunks_submitted as f64 / gvm.chunked_transfers as f64
    } else {
        0.0
    };
    Row::new("steady", clean)
        .int("max_chunks", 4)
        .num("payload_mib", payload_bytes as f64 / (1 << 20) as f64, 3)
        .int("nprocs", n as u64)
        .int("rounds", u64::from(rounds))
        .ms("before_mean_rank_ms", before_ms)
        .ms("after_mean_rank_ms", after_ms)
        .num("improvement", 1.0 - after_ms / before_ms, 4)
        .int("steady_prefetches", gvm.steady_prefetches)
        .num("mean_adaptive_k", mean_k, 3)
}

/// The `pipeline_steady` sweep: 8 ranks × [`STEADY_ROUNDS`] rounds at
/// each [`STEADY_PAYLOADS_MIB`] payload.
pub fn steady_sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let rows = STEADY_PAYLOADS_MIB
        .iter()
        .map(|&mib| {
            let payload = (mib << 20) / scale_down.max(1) as u64;
            steady_point(base, payload, 8, STEADY_ROUNDS, analyze)
        })
        .collect();
    Sweep {
        name: "pipeline_steady",
        title: format!(
            "STEADY STATE — 8 processes × {STEADY_ROUNDS} rounds, adaptive chunking \
             with vs without the steady double buffer"
        ),
        scale: scale_down,
        rows,
        notes: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_beats_serial_at_n8_16mib() {
        // The acceptance point, at full payload (timing-only tasks
        // make 16 MiB free to simulate).
        let best = chunk_series(&Scenario::default(), 16 << 20, 8, false)
            .iter()
            .map(|r| r.value("vs_serial"))
            .fold(f64::MIN, f64::max);
        assert!(
            best > 0.0,
            "chunked+pooled must beat serial staging at 8×16 MiB, got {best:.4}"
        );
    }

    #[test]
    fn staggered_rounds_hit_the_staging_pool() {
        // Lockstep single-round groups can't reuse (every rank acquires
        // before any recycles); staggered FCFS rounds must.
        let p = pool_reuse_point(&Scenario::default(), 16, false);
        let hits = p.value("pool_hit_rate");
        assert!(
            hits > 0.5,
            "staggered rounds should mostly hit the pool, got {hits:.3}"
        );
    }

    #[test]
    fn chunked_traces_are_analyze_clean() {
        let p = run_point(&Scenario::default(), 4, 1 << 20, 2, true);
        assert_eq!(p.clean, Some(true));
        let chunked = p.value("chunked_transfers");
        assert!(chunked > 0.0, "payload above threshold must chunk");
        assert_eq!(p.value("chunks_submitted"), chunked * 4.0);
    }

    #[test]
    fn steady_overlap_beats_per_iteration_pipelining() {
        // 8 processes × 4 rounds × 16 MiB: the double buffer must beat the
        // same adaptive chooser without it. The margin is small (~1%):
        // per-round chunking already carries most of the pipelining win.
        let p = steady_point(&Scenario::default(), 16 << 20, 8, STEADY_ROUNDS, false);
        let (before, after) = (
            p.value("before_mean_rank_ms"),
            p.value("after_mean_rank_ms"),
        );
        assert!(
            after < before,
            "steady overlap must beat per-round adaptive chunking at 8×16 MiB×{STEADY_ROUNDS} \
             rounds ({after:.3} ms vs {before:.3} ms)"
        );
        assert!(
            p.value("steady_prefetches") > 0.0,
            "steady runs must absorb next-round SNDs early"
        );
    }

    #[test]
    fn steady_traces_are_analyze_clean() {
        // Smoke-scaled, both runs under the full checker suite (staging
        // tiling under adaptive k included).
        let p = steady_point(&Scenario::default(), 1 << 20, 4, 3, true);
        assert_eq!(p.clean, Some(true));
        assert!(p.value("steady_prefetches") > 0.0);
    }
}
