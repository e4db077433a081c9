//! Criterion microbenchmark for [`CoalescePlan`] construction cost.
//!
//! The planner runs on the GVM flush path — inside the simulated host's
//! critical section — so its *real* (wall-clock) cost must stay trivial
//! as the co-flushed rank count grows. This bench is offline-safe: it
//! touches no simulation, no files, and no device model; it just builds
//! member slices in three lease-layout shapes and times the pure
//! partition.
//!
//! * `adjacent` — every lease placed back-to-back: one maximal run, the
//!   planner's happy path (what the contiguity-aware pool produces).
//! * `fragmented` — a hole after every lease: all singletons, the
//!   worst case for run-extension checks.
//! * `mixed` — every third member ineligible (quota-skipped or
//!   multi-span): alternating short runs and singletons.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gv_mem::{CoalesceMember, CoalescePlan, MAX_GROUP};

/// Member slices per layout at one rank count. 64 KiB payloads in 64 KiB
/// size classes — the sweep's small-payload point.
fn members(n: usize, layout: &str) -> Vec<CoalesceMember> {
    const CAP: u64 = 64 << 10;
    (0..n)
        .map(|i| {
            let stride = if layout == "fragmented" { 2 * CAP } else { CAP };
            CoalesceMember {
                rank: i,
                bytes: CAP,
                place: i as u64 * stride,
                cap: CAP,
                buf: i as u64 + 1,
                generation: 1,
                eligible: layout != "mixed" || i % 3 != 2,
            }
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("coalesce_planner");
    for n in [8usize, 64, 512, 4096] {
        for layout in ["adjacent", "fragmented", "mixed"] {
            let input = members(n, layout);
            g.bench_function(&format!("{layout}_{n}"), |b| {
                b.iter(|| CoalescePlan::plan(black_box(&input)))
            });
        }
    }
    g.finish();

    // Print the partition shape once per count so a bench run doubles as
    // a sanity table (matches the other benches' println convention).
    for n in [8usize, 64, 512, 4096] {
        let plan = CoalescePlan::plan(&members(n, "adjacent"));
        println!(
            "planner[adjacent/{n}]: {} runs, {} fused members (MAX_GROUP {MAX_GROUP})",
            plan.runs.len(),
            plan.fused_members(),
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
