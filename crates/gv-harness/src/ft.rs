//! Fault-tolerant buffer-lifecycle measurements — `repro_bench --only ft`.
//!
//! The fault-tolerant GVM allocates device memory lazily at `SND`, parks
//! allocations in gv-mem's `DeviceAllocCache` when a rank is evicted or
//! releases with an idle stream, and re-issues them to later admissions
//! of the same shape. These scenarios measure that cache instead of just
//! unit-testing it: a lockstep group (every rank allocates before anyone
//! releases — all misses), a staggered FCFS wave (each rank inherits its
//! predecessor's parked allocation), and the same wave with a crashed rank
//! whose eviction routes its allocation through the cache. With `analyze`
//! on, each scenario's trace is checked by the full `gv-analyze` suite.

use std::sync::Arc;

use gv_cuda::CudaDevice;
use gv_gpu::GpuDevice;
use gv_ipc::Node;
use gv_sim::{SimDuration, Simulation};
use gv_virt::sched::estimate_cost_ms;
use gv_virt::{
    FaultPlan, FaultSpec, Gvm, GvmConfig, GvmStats, RequestKind, SchedPolicy, VgpuClient,
};
use parking_lot::Mutex;

use crate::analysis;
use crate::pipeline::payload_task;
use crate::report::{Row, Sweep};
use crate::scenario::Scenario;

/// Run one fault-tolerant group: `n` ranks of the pipeline payload task,
/// arrivals `stagger` apart, under `plan`. Ranks scripted to abort walk
/// away mid-protocol; everyone else runs to completion. `group_ms` spans
/// min start to max end over every rank; `hit_rate` is the fraction of
/// device allocations served from the cache instead of `cudaMalloc`.
/// `base.analyze` turns on trace checking.
fn run_ft(
    base: &Scenario,
    name: &'static str,
    payload_bytes: u64,
    n: usize,
    scheduler: SchedPolicy,
    stagger: SimDuration,
    plan: &FaultPlan,
) -> Row {
    let mut sim = Simulation::new();
    let tracer = sim.tracer();
    tracer.set_analysis(base.analyze);
    let device = GpuDevice::install(&mut sim, base.device.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(base.node.clone());
    let task = payload_task(base, payload_bytes);
    let config = GvmConfig::fault_tolerant(n)
        .with_scheduler(scheduler)
        .with_mem(base.mem);
    let handle = Gvm::install(&mut sim, &node, &cuda, config, vec![task; n]);
    plan.install(&handle, &device);

    type Spans = Arc<Mutex<Vec<(gv_sim::SimTime, gv_sim::SimTime)>>>;
    let spans: Spans = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..n {
        let handle = handle.clone();
        let spans = spans.clone();
        let abort = plan.abort_stage(rank);
        let arrival = SimDuration::from_nanos(stagger.as_nanos().saturating_mul(rank as u64));
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            let mut client = VgpuClient::connect(ctx, &handle, rank);
            if !arrival.is_zero() {
                ctx.hold(arrival);
            }
            if let Some(stage) = abort {
                client.abort_at(stage);
            }
            let start = ctx.now();
            let _ = client.try_run_task(ctx);
            spans.lock().push((start, ctx.now()));
        })
        .expect("pin SPMD process");
    }
    let h = handle.clone();
    let dev = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h.done.wait(ctx);
        dev.shutdown(ctx);
    });
    sim.run().expect("fault-tolerant scenario must complete");

    let spans = spans.lock();
    let start = spans.iter().map(|(s, _)| *s).min().expect("non-empty");
    let end = spans.iter().map(|(_, e)| *e).max().expect("non-empty");
    let stats: GvmStats = handle.stats.lock().clone();
    let allocs = stats.devcache_hits + stats.devcache_misses;
    let hit_rate = if allocs == 0 {
        0.0
    } else {
        stats.devcache_hits as f64 / allocs as f64
    };
    Row::new(name, base.analyze.then(|| analysis::check(&tracer, name)))
        .int("nprocs", n as u64)
        .ms("group_ms", end.duration_since(start).as_millis_f64())
        .int("devcache_hits", stats.devcache_hits)
        .int("devcache_misses", stats.devcache_misses)
        .num("hit_rate", hit_rate, 4)
        .int("evictions", stats.evictions)
        .int("naks", stats.naks)
}

/// Run the three scenarios at `16 MiB / scale_down` payloads.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let base = &Scenario {
        analyze,
        ..base.clone()
    };
    let payload = (16 << 20) / scale_down.max(1) as u64;
    let n = 8;
    let task = payload_task(base, payload);
    let cost = estimate_cost_ms(&task, &base.device, &base.node);
    // 2× the modeled single-rank service time: each rank's session fully
    // drains (allocation parked at RLS) before the next rank's SND. The
    // fault-free estimate undershoots the fault-tolerant round (device
    // allocation happens lazily at SND), hence the margin.
    let stagger = SimDuration::from_millis_f64(cost * 2.0);
    let rows = vec![
        // Lockstep joint flush: every rank allocates before anyone
        // releases, so the cache cannot help — the all-miss baseline.
        run_ft(
            base,
            "lockstep-joint",
            payload,
            n,
            SchedPolicy::JointFlush,
            SimDuration::ZERO,
            &FaultPlan::new(0),
        ),
        // Staggered FCFS wave: rank i's SND arrives after rank i−1's RLS
        // parked its allocation; every rank after the first reuses it.
        run_ft(
            base,
            "staggered-fcfs",
            payload,
            n,
            SchedPolicy::Fcfs,
            stagger,
            &FaultPlan::new(0),
        ),
        // The same wave with rank 0 crashing after its flush: the idle
        // eviction routes its allocation through the cache too, and the
        // survivors still inherit their predecessors' buffers.
        run_ft(
            base,
            "staggered-abort",
            payload,
            n,
            SchedPolicy::Fcfs,
            stagger,
            &FaultPlan::new(0).push(FaultSpec::ClientAbort {
                rank: 0,
                stage: RequestKind::Stp,
            }),
        ),
    ];
    Sweep {
        name: "ft",
        title: "FAULT-TOLERANT BUFFER LIFECYCLE — DEVICE-ALLOCATION CACHE".to_string(),
        scale: scale_down,
        rows,
        notes: "Lockstep groups allocate all at once (all misses); staggered\n\
                waves inherit parked allocations from released and evicted\n\
                ranks instead of paying cudaMalloc again.\n"
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_misses_staggered_hits() {
        let pts = sweep(&Scenario::default(), 16, false).rows;
        let lockstep = &pts[0];
        let staggered = &pts[1];
        assert_eq!(
            lockstep.value("devcache_hits"),
            0.0,
            "lockstep cannot reuse"
        );
        assert_eq!(lockstep.value("devcache_misses"), lockstep.value("nprocs"));
        let hits = staggered.value("devcache_hits");
        assert!(
            hits >= staggered.value("nprocs") - 1.0,
            "every rank after the first inherits a parked allocation, got {hits} hits"
        );
    }

    #[test]
    fn aborted_rank_is_evicted_and_survivors_reuse() {
        let pts = sweep(&Scenario::default(), 16, false).rows;
        let abort = &pts[2];
        assert_eq!(
            abort.value("evictions"),
            1.0,
            "exactly the crashed rank is evicted"
        );
        assert!(
            abort.value("devcache_hits") > 0.0,
            "survivors still reuse parked allocations"
        );
    }
}
