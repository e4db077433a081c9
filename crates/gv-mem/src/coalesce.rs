//! The cross-rank coalescing planner for the GVM flush path.
//!
//! When a flush admits multiple ranks, each rank's payload sits in its own
//! pinned staging lease and would normally be moved by its own DMA
//! submission, paying the per-op setup latency n times. The planner looks
//! at the admitted members *in flush order* and partitions them into
//! *runs*: maximal stretches of fusable members whose staging leases are
//! **adjacent in host memory** (`prev.place + prev.cap == next.place`),
//! so one large DMA submission can sweep the whole stretch and the
//! follower sub-ops elide the setup latency (see
//! `DmaEngine::continues_fused_run` in `gv-gpu`).
//!
//! The plan is a pure partition: every member lands in exactly one run,
//! runs preserve the input order, and concatenating the runs reproduces
//! the input exactly. Runs of length 1 are *singletons* — submitted on
//! the unfused per-rank path — and only runs of length ≥ 2 become fused
//! submissions with a [`CoalesceOp`](gv_sim::AnalysisRecord::CoalesceOp)
//! manifest.
//!
//! Fusion eligibility is decided per member by the *caller* (quota
//! admission, monolithic single-span transfer, swap not configured) and
//! passed in via [`CoalesceMember::eligible`]; the planner itself gates
//! only on what it can see: the per-member payload threshold
//! ([`FUSE_THRESHOLD`]), lease adjacency, and the group-size cap
//! ([`MAX_GROUP`]). The GVM consults the planner only when coalescing is
//! on ([`MemConfig::coalesce`](crate::MemConfig::coalesce)).

use crate::pool::StagingLease;

/// Largest per-member payload (bytes) eligible for DMA fusion. Big
/// transfers are bandwidth-bound — fusing them buys one `dma_latency`
/// against a multi-millisecond copy — so fusion targets the small
/// fixed-cost-dominated end. Kernel-launch batching is *not* gated by this
/// threshold.
pub const FUSE_THRESHOLD: u64 = 4 << 20;

/// Cap on members per fused DMA submission. Bounds the blast radius of one
/// fused op (a fault mid-batch re-exposes every member).
pub const MAX_GROUP: usize = 16;

/// One admitted flush member, as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceMember {
    /// SPMD rank of the member (manifest bookkeeping; not a fusion key).
    pub rank: usize,
    /// Payload bytes the member moves this round.
    pub bytes: u64,
    /// Host address of the member's staging lease
    /// ([`StagingLease::place_addr`]).
    pub place: u64,
    /// Size-class capacity of the lease — adjacency means the *regions*
    /// touch, so the capacity (not the payload) is the stride.
    pub cap: u64,
    /// Pool buffer id backing the lease (manifest bookkeeping).
    pub buf: u64,
    /// Lease generation at planning time (manifest bookkeeping).
    pub generation: u64,
    /// Caller-side gate: `false` for members that must not fuse (multi-
    /// span pipelined transfer, unadmitted under quota, pre-issued H2D,
    /// swap configured). Ineligible members always become singletons.
    pub eligible: bool,
}

impl CoalesceMember {
    /// Build a member from its lease plus the caller-side facts.
    pub fn from_lease(rank: usize, bytes: u64, lease: &StagingLease, eligible: bool) -> Self {
        CoalesceMember {
            rank,
            bytes,
            place: lease.place_addr(),
            cap: lease.capacity(),
            buf: lease.id(),
            generation: lease.generation(),
            eligible,
        }
    }
}

/// An order-preserving partition of flush members into fusable runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescePlan {
    /// Each run holds **indices into the planner's input slice**, in
    /// input order; concatenating all runs yields `0..n` exactly. Runs of
    /// length ≥ 2 are fused submissions, singletons take the unfused path.
    pub runs: Vec<Vec<usize>>,
}

impl CoalescePlan {
    /// Partition `members` (in flush order) into fusable runs.
    ///
    /// A member extends the current run iff both it and the run's tail are
    /// [`eligible`](CoalesceMember::eligible), its payload is non-zero and
    /// at most [`FUSE_THRESHOLD`], its lease region starts exactly where
    /// the tail's region ends, and the run is still under [`MAX_GROUP`].
    /// Otherwise it starts a new run.
    pub fn plan(members: &[CoalesceMember]) -> Self {
        let mut runs: Vec<Vec<usize>> = Vec::new();
        for (i, m) in members.iter().enumerate() {
            let fusable = m.eligible && m.bytes > 0 && m.bytes <= FUSE_THRESHOLD;
            let extends = fusable
                && runs.last().is_some_and(|run| {
                    let tail = &members[*run.last().expect("runs are never empty")];
                    // The tail must itself be fusable (a singleton run may
                    // exist because its member was ineligible), the
                    // regions must touch, and the group must have room.
                    tail.eligible
                        && tail.bytes > 0
                        && tail.bytes <= FUSE_THRESHOLD
                        && tail.place + tail.cap == m.place
                        && run.len() < MAX_GROUP
                });
            if extends {
                runs.last_mut().expect("checked above").push(i);
            } else {
                runs.push(vec![i]);
            }
        }
        CoalescePlan { runs }
    }

    /// Total members across all runs.
    pub fn len(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }

    /// True when the plan covers no members.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of fused submissions (runs of length ≥ 2).
    pub fn fused_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.len() >= 2).count()
    }

    /// Total members riding in fused submissions.
    pub fn fused_members(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.len() >= 2)
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` members with contiguous leases, 4 KiB payload in 4 KiB classes.
    fn adjacent(n: usize) -> Vec<CoalesceMember> {
        (0..n)
            .map(|i| CoalesceMember {
                rank: i,
                bytes: 4096,
                place: i as u64 * 4096,
                cap: 4096,
                buf: i as u64 + 1,
                generation: 1,
                eligible: true,
            })
            .collect()
    }

    fn flat(plan: &CoalescePlan) -> Vec<usize> {
        plan.runs.iter().flatten().copied().collect()
    }

    #[test]
    fn adjacent_members_fuse_into_one_run() {
        let members = adjacent(4);
        let plan = CoalescePlan::plan(&members);
        assert_eq!(plan.runs, vec![vec![0, 1, 2, 3]]);
        assert_eq!(plan.fused_runs(), 1);
        assert_eq!(plan.fused_members(), 4);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn a_gap_splits_the_run() {
        let mut members = adjacent(4);
        members[2].place += 4096; // hole between members 1 and 2
        members[3].place += 4096;
        let plan = CoalescePlan::plan(&members);
        assert_eq!(plan.runs, vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(plan.fused_runs(), 2);
    }

    #[test]
    fn ineligible_and_oversized_members_are_singletons() {
        let mut members = adjacent(5);
        members[1].eligible = false;
        members[3].bytes = FUSE_THRESHOLD + 1;
        let plan = CoalescePlan::plan(&members);
        // 0 can't fuse past ineligible 1; 2 can't fuse into oversized 3;
        // 4 can't extend a run whose tail (3) is unfusable.
        assert_eq!(plan.runs, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
        assert_eq!(plan.fused_runs(), 0);
    }

    #[test]
    fn max_group_caps_run_length() {
        let n = MAX_GROUP + 3;
        let plan = CoalescePlan::plan(&adjacent(n));
        assert_eq!(
            plan.runs,
            vec![(0..MAX_GROUP).collect::<Vec<_>>(), (MAX_GROUP..n).collect()]
        );
        assert_eq!(flat(&plan), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn zero_byte_members_never_fuse() {
        let mut members = adjacent(3);
        members[1].bytes = 0;
        let plan = CoalescePlan::plan(&members);
        assert_eq!(plan.runs, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn capacity_not_payload_is_the_adjacency_stride() {
        // Payloads smaller than the size class still fuse when the
        // *regions* touch: stride is the class capacity.
        let members = vec![
            CoalesceMember {
                rank: 0,
                bytes: 3000,
                place: 0,
                cap: 4096,
                buf: 1,
                generation: 1,
                eligible: true,
            },
            CoalesceMember {
                rank: 1,
                bytes: 3000,
                place: 4096,
                cap: 4096,
                buf: 2,
                generation: 1,
                eligible: true,
            },
        ];
        let plan = CoalescePlan::plan(&members);
        assert_eq!(plan.runs, vec![vec![0, 1]]);
    }

    #[test]
    fn empty_input_yields_empty_plan() {
        let plan = CoalescePlan::plan(&[]);
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }
}
