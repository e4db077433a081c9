//! The scheduling-policy sweep — `repro_bench --only sched`.
//!
//! Two experiments:
//!
//! * **Matrix** — every policy × {VectorAdd, EP, MM, BlackScholes} ×
//!   N ∈ {2, 4, 8}, lockstep arrivals: the SPMD steady state the paper
//!   targets. Shows the policies agree on turnaround there (dispatch
//!   order barely matters when everyone arrives together) while the
//!   queue-depth/idle-gap counters expose how differently they wait.
//! * **Headline** — an 8-process VectorAdd group with staggered arrivals
//!   (rank `r` starts `r × stagger` late). The joint flush holds every
//!   early rank hostage to the last straggler; FCFS and the adaptive
//!   batch dispatch early work immediately and win on mean per-rank
//!   turnaround.
//!
//! With `analyze` on, every policy run also records its trace and is
//! gated on the `gv-analyze` checkers (the relaxed flush-width rule for
//! partial policies comes from the trace's `ProtoSched` record).

use gv_kernels::{Benchmark, BenchmarkId, GpuTask};
use gv_sim::SimDuration;
use gv_virt::sched::{calibrated_batch_timeout, estimate_cost_ms};
use gv_virt::SchedPolicy;

use crate::report::{Row, Sweep};
use crate::scenario::{ExecutionMode, Scenario};

/// Benchmarks the matrix sweeps (Table II microbenchmarks plus two
/// Table IV applications).
pub const BENCHMARKS: [BenchmarkId; 4] = [
    BenchmarkId::VecAdd,
    BenchmarkId::Ep,
    BenchmarkId::Mm,
    BenchmarkId::BlackScholes,
];

/// Process counts the matrix sweeps.
pub const PROCS: [usize; 3] = [2, 4, 8];

/// The four policies for an `n`-rank group running `tasks`: the adaptive
/// batch triggers at half the group (min 2) with a timeout calibrated to
/// the task mix.
pub fn policies(n: usize, tasks: &[GpuTask], scenario: &Scenario) -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::JointFlush,
        SchedPolicy::Fcfs,
        SchedPolicy::AdaptiveBatch {
            k: (n / 2).clamp(2, n.max(2)),
            timeout: Some(calibrated_batch_timeout(
                tasks,
                &scenario.device,
                &scenario.node,
            )),
        },
        SchedPolicy::ShortestJobFirst,
    ]
}

/// Run one policy point. `stagger` skews rank arrivals; `base.analyze`
/// turns on trace checking. `idle_gap_ms` is the total queueing delay the
/// policy imposed; `queue_depth_mean` the mean `STR` backlog at arrival.
pub fn run_point(
    base: &Scenario,
    label: &str,
    policy: SchedPolicy,
    id: BenchmarkId,
    n: usize,
    scale_down: u32,
    stagger: SimDuration,
) -> Row {
    let name = policy.name();
    let scenario = base.clone().with_scheduler(policy).with_stagger(stagger);
    let task = Benchmark::scaled_task(id, &scenario.device, scale_down.max(1));
    let result = scenario.run_uniform(ExecutionMode::Virtualized, &task, n);
    let gvm = result.gvm.as_ref().expect("virtualized run has GVM stats");
    let mean_rank_ms = result.mean_phase(|r| r.end.duration_since(r.start).as_millis_f64());
    Row::new(label, result.analysis.as_ref().map(|r| r.is_clean()))
        .text("policy", name)
        .text("benchmark", Benchmark::describe(id).name)
        .int("nprocs", n as u64)
        .ms("stagger_ms", stagger.as_millis_f64())
        .ms("group_ms", result.turnaround_ms)
        .ms("mean_rank_ms", mean_rank_ms)
        .int("flushes", gvm.flushes)
        .int("partial_flushes", gvm.partial_flushes)
        .num("queue_depth_mean", gvm.queue_depth_mean(), 2)
        .ms("idle_gap_ms", gvm.idle_gap.as_millis_f64())
}

/// The staggered-arrival headline: every policy on an 8-process
/// VectorAdd group whose ranks arrive half a modeled service time apart.
pub fn headline(base: &Scenario, scale_down: u32) -> Vec<Row> {
    let n = 8;
    let id = BenchmarkId::VecAdd;
    let task = Benchmark::scaled_task(id, &base.device, scale_down.max(1));
    // Half the modeled single-cycle service time per rank of skew: enough
    // that the joint barrier idles the GPU for most of the window, small
    // enough that a real launcher plausibly produces it.
    let cost = estimate_cost_ms(&task, &base.device, &base.node);
    let stagger = SimDuration::from_millis_f64(cost * 0.5);
    let tasks = vec![task; n];
    policies(n, &tasks, base)
        .into_iter()
        .map(|p| run_point(base, "staggered", p, id, n, scale_down, stagger))
        .collect()
}

/// Best mean-rank-turnaround improvement of `fcfs`/`adaptive` over
/// `joint`, as a fraction (0.10 = 10 %), from [`headline`]'s rows (in
/// [`policies`] order: joint, fcfs, adaptive, sjf).
pub fn best_improvement(rows: &[Row]) -> f64 {
    let joint = rows[0].value("mean_rank_ms");
    rows[1..3]
        .iter()
        .map(|r| 1.0 - r.value("mean_rank_ms") / joint)
        .fold(f64::MIN, f64::max)
}

/// Run the full lockstep matrix plus the staggered headline.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let base = &Scenario {
        analyze,
        ..base.clone()
    };
    let mut rows = Vec::new();
    for id in BENCHMARKS {
        for n in PROCS {
            let task = Benchmark::scaled_task(id, &base.device, scale_down.max(1));
            let tasks = vec![task; n];
            for policy in policies(n, &tasks, base) {
                rows.push(run_point(
                    base,
                    "matrix",
                    policy,
                    id,
                    n,
                    scale_down,
                    SimDuration::ZERO,
                ));
            }
        }
    }
    let staggered = headline(base, scale_down);
    let notes = format!(
        "Best fcfs/adaptive improvement over joint in the staggered 8-process\n\
         VectorAdd headline (mean rank turnaround): {:.1}%\n",
        best_improvement(&staggered) * 100.0
    );
    rows.extend(staggered);
    Sweep {
        name: "sched",
        title: "SCHEDULING POLICY SWEEP".to_string(),
        scale: scale_down,
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_vecadd_headline_beats_joint_by_10pct() {
        // The acceptance criterion, at smoke scale so the suite stays fast.
        let best = best_improvement(&headline(&Scenario::default(), 64));
        assert!(
            best >= 0.10,
            "best fcfs/adaptive improvement {best:.3} < 10%"
        );
    }

    #[test]
    fn lockstep_policies_all_complete_with_identical_group_shape() {
        let base = Scenario::default();
        let task = Benchmark::scaled_task(BenchmarkId::VecAdd, &base.device, 256);
        let tasks = vec![task; 2];
        for policy in policies(2, &tasks, &base) {
            let name = policy.name();
            let p = run_point(
                &base,
                "matrix",
                policy,
                BenchmarkId::VecAdd,
                2,
                256,
                SimDuration::ZERO,
            );
            assert!(p.value("group_ms") > 0.0);
            assert!(p.value("flushes") >= 1.0, "{name}: no flush");
        }
    }
}
