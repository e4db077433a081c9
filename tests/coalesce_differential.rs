//! Differential oracle for cross-rank DMA coalescing and batched kernel
//! launch: the coalescing flush is a performance knob, never a semantic
//! one. Every benchmark family × group size must produce rank-by-rank
//! bit-identical functional output whether the flush goes down the
//! per-rank path (coalescing off) or the wave-per-iteration fused path
//! (coalescing on), and both must match the conventional direct-sharing
//! baseline.
//!
//! The file also pins:
//! * the fused path really fuses (the stats counters are non-vacuous) and
//!   every fused submission survives the gv-analyze coalesce checker;
//! * [`CoalescePlan`] is an exact order-preserving partition of its input
//!   (property-based: no member lost, none duplicated, order kept).

use gvirt::gpu::DeviceConfig;
use gvirt::harness::scenario::{ExecutionMode, Scenario};
use gvirt::kernels::{blackscholes, ep, mm, vecadd, GpuTask};
use gvirt::mem::{CoalesceMember, CoalescePlan, FUSE_THRESHOLD, MAX_GROUP};
use gvirt::virt::MemConfig;
use proptest::prelude::*;

/// Rank-distinct functional tasks for one benchmark family.
fn tasks_for(benchmark: &str, cfg: &DeviceConfig, n: usize) -> Vec<GpuTask> {
    (0..n)
        .map(|rank| match benchmark {
            "vecadd" => {
                let a: Vec<f32> = (0..192).map(|i| (i * (rank + 1)) as f32 * 0.25).collect();
                let b: Vec<f32> = (0..192).map(|i| (i + rank * 1000) as f32).collect();
                vecadd::functional_task(cfg, &a, &b)
            }
            "ep" => ep::functional_task(cfg, 8 + (rank % 3) as u32),
            "mm" => {
                let dim = 8;
                let a: Vec<f32> = (0..dim * dim)
                    .map(|i| ((i * 7 + rank * 13) % 17) as f32 - 8.0)
                    .collect();
                let b: Vec<f32> = (0..dim * dim)
                    .map(|i| ((i * 3 + rank * 5) % 11) as f32 * 0.5)
                    .collect();
                mm::functional_task(cfg, &a, &b, dim)
            }
            "blackscholes" => {
                let (s, x, t) = blackscholes::generate_options(48, 7 + rank as u64);
                blackscholes::functional_task(cfg, &s, &x, &t)
            }
            other => panic!("unknown benchmark family {other}"),
        })
        .collect()
}

/// Outputs of one run, unwrapped (all these tasks are functional).
fn outputs(result: &gvirt::harness::scenario::ExperimentResult) -> Vec<Vec<u8>> {
    result
        .outputs
        .iter()
        .map(|o| o.clone().expect("functional task must produce output"))
        .collect()
}

/// Every benchmark × N × round count: the coalescing flush produces output
/// bit-identical to the per-rank flush and to the direct baseline, rank by
/// rank — fused DMA sweeps and batched launches never leak into results.
#[test]
fn coalesce_on_matches_off_and_direct_bitwise() {
    let base = Scenario::default();
    for benchmark in ["vecadd", "ep", "mm", "blackscholes"] {
        for n in [2usize, 4, 8] {
            let tasks = tasks_for(benchmark, &base.device, n);
            let direct = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
            for rounds in [1u32, 3] {
                let off = base
                    .clone()
                    .with_mem(MemConfig::default())
                    .with_rounds(rounds);
                let on = base
                    .clone()
                    .with_mem(MemConfig::default().with_coalesce(true))
                    .with_rounds(rounds);
                let off_out = outputs(&off.run(ExecutionMode::Virtualized, tasks.clone()));
                let on_out = outputs(&on.run(ExecutionMode::Virtualized, tasks.clone()));
                assert_eq!(on_out.len(), direct.len(), "{benchmark} n={n}");
                for rank in 0..n {
                    assert_eq!(
                        on_out[rank], off_out[rank],
                        "{benchmark} n={n} rounds={rounds}: rank {rank} \
                         coalesce-on vs coalesce-off output differs"
                    );
                    assert_eq!(
                        on_out[rank], direct[rank],
                        "{benchmark} n={n} rounds={rounds}: rank {rank} \
                         coalesce-on vs direct output differs"
                    );
                }
            }
        }
    }
}

/// The fused path is really exercised (the oracle above isn't vacuous):
/// a coalesced multi-rank run reports fused DMA groups and batched
/// launches, the uncoalesced run reports none, and every fused submission
/// in the coalesced trace survives the gv-analyze coalesce checker.
#[test]
fn coalescing_fuses_and_passes_the_checker() {
    let base = Scenario::analyzed();
    let tasks = tasks_for("vecadd", &base.device, 4);
    let on = base
        .clone()
        .with_mem(MemConfig::default().with_coalesce(true));
    let r = on.run(ExecutionMode::Virtualized, tasks.clone());
    let gvm = r.gvm.as_ref().expect("virtualized run has GVM stats");
    assert!(gvm.fused_dma_groups > 0, "no DMA submission was fused");
    assert!(
        gvm.fused_dma_subs >= gvm.fused_dma_groups * 2,
        "fused groups must carry at least two sub-ops each"
    );
    assert!(gvm.batched_launches > 0, "no kernel launch was batched");
    assert!(gvm.fused_dma_ratio() > 0.0);
    let report = r.analysis.as_ref().expect("analyzed scenario has report");
    assert!(report.coalesce_events > 0, "no CoalesceOp manifest emitted");
    let coalesce_diags: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.checker == "coalesce")
        .collect();
    assert!(
        coalesce_diags.is_empty(),
        "coalesce checker flagged the fused trace: {coalesce_diags:?}"
    );

    let off = base.clone().with_mem(MemConfig::default());
    let r = off.run(ExecutionMode::Virtualized, tasks);
    let gvm = r.gvm.as_ref().expect("virtualized run has GVM stats");
    assert_eq!(gvm.fused_dma_groups, 0);
    assert_eq!(gvm.batched_launches, 0);
    assert_eq!(gvm.fused_dma_ratio(), 0.0);
}

/// Arbitrary members for the planner property: a mix of adjacent and
/// scattered leases, eligible and not, with payloads straddling the fuse
/// threshold.
fn arb_members() -> impl Strategy<Value = Vec<CoalesceMember>> {
    prop::collection::vec(
        (
            0usize..16,
            0u64..=(8 << 20),
            0u64..64,
            0u8..3,
            any::<bool>(),
        ),
        0..24,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(i, (rank, bytes, slot, cap_class, eligible))| CoalesceMember {
                    rank,
                    bytes,
                    place: slot * (1 << 20),
                    cap: [4096u64, 65536, 1 << 20][cap_class as usize],
                    buf: i as u64,
                    generation: 1,
                    eligible,
                },
            )
            .collect()
    })
}

proptest! {
    /// Any plan is an exact partition: concatenating its runs in order
    /// reproduces `0..n` — every member covered once (no gap), none twice
    /// (no overlap), input order preserved.
    #[test]
    fn plan_is_an_exact_order_preserving_partition(members in arb_members()) {
        let plan = CoalescePlan::plan(&members);
        let flat: Vec<usize> = plan.runs.iter().flatten().copied().collect();
        prop_assert_eq!(flat, (0..members.len()).collect::<Vec<_>>());
        prop_assert_eq!(plan.len(), members.len());
        for run in &plan.runs {
            prop_assert!(!run.is_empty(), "runs are never empty");
            prop_assert!(run.len() <= MAX_GROUP, "run exceeds MAX_GROUP");
        }
    }

    /// Every fused run obeys the fusion rules: all members eligible, in
    /// `(0, FUSE_THRESHOLD]`, and each lease region starting exactly where
    /// the previous one ends.
    #[test]
    fn fused_runs_are_adjacent_and_eligible(members in arb_members()) {
        let plan = CoalescePlan::plan(&members);
        for run in plan.runs.iter().filter(|r| r.len() >= 2) {
            for window in run.windows(2) {
                let (a, b) = (&members[window[0]], &members[window[1]]);
                prop_assert!(a.eligible && b.eligible);
                prop_assert!(a.bytes > 0 && a.bytes <= FUSE_THRESHOLD);
                prop_assert!(b.bytes > 0 && b.bytes <= FUSE_THRESHOLD);
                prop_assert_eq!(a.place + a.cap, b.place);
            }
        }
    }
}
