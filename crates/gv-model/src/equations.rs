//! The paper's analytical execution model, Eqs. (1)–(6).
//!
//! * Eq. (1): conventional sharing — serialized cycles plus context
//!   switches plus the one-time initialization.
//! * Eqs. (2)/(3): virtualized execution for the two pipeline regimes
//!   (whichever transfer direction dominates becomes the steady-state
//!   bottleneck).
//! * Eq. (4): their closed combination.
//! * Eq. (5): speedup.
//! * Eq. (6): the upper bound `S_max` as `Ntask → ∞`.

use crate::params::ExecutionProfile;

/// The analytical model for one benchmark profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupModel {
    /// The measured profile the model is evaluated on.
    pub profile: ExecutionProfile,
}

impl SpeedupModel {
    /// Wrap a profile.
    pub fn new(profile: ExecutionProfile) -> Self {
        assert!(profile.is_valid(), "invalid execution profile");
        SpeedupModel { profile }
    }

    /// Eq. (1): `Ttotal_no_vt` for `n` tasks, in ms.
    ///
    /// `(n−1)(Tctx + Tin + Tcomp + Tout) + Tinit + Tin + Tcomp + Tout`
    pub fn total_no_vt(&self, n: u32) -> f64 {
        assert!(n >= 1);
        let p = &self.profile;
        (n as f64 - 1.0) * (p.t_ctx_switch + p.cycle()) + p.t_init + p.cycle()
    }

    /// Eq. (2): virtualized total when `Tin ≥ Tout` (H2D-bound pipeline).
    pub fn total_vt_in_bound(&self, n: u32) -> f64 {
        let p = &self.profile;
        n as f64 * p.t_data_in + p.t_comp + p.t_data_out
    }

    /// Eq. (3): virtualized total when `Tin < Tout` (D2H-bound pipeline).
    pub fn total_vt_out_bound(&self, n: u32) -> f64 {
        let p = &self.profile;
        p.t_data_in + p.t_comp + n as f64 * p.t_data_out
    }

    /// Eq. (4): `Ttotal_vt = n·MAX(Tin,Tout) + Tcomp + MIN(Tin,Tout)`.
    pub fn total_vt(&self, n: u32) -> f64 {
        assert!(n >= 1);
        let p = &self.profile;
        n as f64 * p.max_io() + p.t_comp + p.min_io()
    }

    /// Eq. (5): theoretical speedup `S = Ttotal_no_vt / Ttotal_vt`.
    pub fn speedup(&self, n: u32) -> f64 {
        self.total_no_vt(n) / self.total_vt(n)
    }

    /// Eq. (6): `S_max = (Tctx + Tin + Tcomp + Tout) / MAX(Tin, Tout)`,
    /// the `n → ∞` limit of Eq. (5). Infinite for zero-I/O profiles.
    pub fn s_max(&self) -> f64 {
        let p = &self.profile;
        (p.t_ctx_switch + p.cycle()) / p.max_io()
    }

    /// Relative deviation between a measured speedup and the theoretical
    /// one at `n` tasks (paper Table III's "Theoretical Deviation").
    pub fn deviation(&self, n: u32, measured_speedup: f64) -> f64 {
        let s = self.speedup(n);
        (s - measured_speedup).abs() / s
    }
}

/// Extension of the paper's model for the chunked staging pipeline: the
/// makespan of one payload whose shm→pinned staging (`t_stage`) and
/// pinned→device copy (`t_xfer`) are split into `k` equal chunks, with the
/// staging of chunk `i+1` overlapped against the copy of chunk `i` (a
/// two-stage software pipeline):
///
/// `T(k) = s + x + (k−1)·max(s, x)`, where `s = t_stage/k`, `x = t_xfer/k`.
///
/// `k = 1` degenerates to the serial `t_stage + t_xfer`; as `k → ∞` the
/// makespan approaches `max(t_stage, t_xfer)` — the classic pipeline
/// bound. Per-chunk fixed overheads are not modeled here; they are what
/// the harness sweep (`repro_bench --only pipeline`) measures
/// empirically.
pub fn pipelined_staging(t_stage: f64, t_xfer: f64, k: u32) -> f64 {
    assert!(k >= 1, "pipeline needs at least one chunk");
    assert!(t_stage >= 0.0 && t_xfer >= 0.0);
    let s = t_stage / k as f64;
    let x = t_xfer / k as f64;
    s + x + (k as f64 - 1.0) * s.max(x)
}

/// The chunk count minimizing the pipelined makespan once each chunk also
/// pays a fixed `overhead` (shm latency + copy submit): the model behind
/// the adaptive chooser in `gv-mem`.
///
/// `pipelined_staging` simplifies to `max + min/k` (with `max`/`min` over
/// the two stage times), so the objective is
///
/// `T(k) = max(t_stage, t_xfer) + min(t_stage, t_xfer)/k + k·overhead`,
///
/// whose continuous optimum is `k* = sqrt(min/overhead)`. The returned
/// value is the exact discrete argmin (the better of `floor(k*)` and
/// `ceil(k*)`, ties to the smaller `k`), clamped to `[1, cap]`. Because
/// `k*` grows with `min(t_stage, t_xfer)`, the choice is monotone
/// non-decreasing in the payload size for fixed per-byte rates — bigger
/// transfers never pipeline less.
///
/// A non-positive `overhead` means chunking is free under the model and
/// the cap is returned outright.
pub fn optimal_chunks(t_stage: f64, t_xfer: f64, overhead: f64, cap: u32) -> u32 {
    assert!(cap >= 1, "chunk cap must allow at least one chunk");
    assert!(t_stage >= 0.0 && t_xfer >= 0.0);
    if overhead <= 0.0 {
        return cap;
    }
    let makespan = |k: u32| pipelined_staging(t_stage, t_xfer, k) + k as f64 * overhead;
    let k_star = (t_stage.min(t_xfer) / overhead).sqrt();
    let lo = (k_star.floor() as u32).clamp(1, cap);
    let hi = (k_star.ceil() as u32).clamp(1, cap);
    // Ties go to the smaller k: fewer chunks, identical predicted makespan.
    if makespan(hi) < makespan(lo) {
        hi
    } else {
        lo
    }
}

/// Cost of one demand-swap round trip under VRAM oversubscription: a
/// victim working set of `bytes` is evicted to pinned host staging (D2H at
/// `r_d2h` time units per byte) and restored on its next touch (H2D at
/// `r_h2d`), each direction tiled into `k` chunks that pay a fixed
/// `overhead` (copy submit + staging bookkeeping) apiece:
///
/// `T_swap = bytes·(r_d2h + r_h2d) + 2k·overhead`
///
/// Both directions go through the same chunked planner as payload
/// transfers, and neither overlaps anything — the GVM synchronizes the
/// evict before freeing the device memory and the restore before handing
/// the allocation back — so the model is a straight sum, not a pipeline.
/// Setting `r_h2d = 0` (or `r_d2h = 0`) prices a one-way trip.
///
/// The term closes the oversubscription trade-off: admitting a session
/// beyond VRAM is profitable when the queueing delay it avoids exceeds
/// the `T_swap` round trips its residency churn induces (`repro_bench
/// --only quota` measures the empirical side of that inequality).
pub fn swap_cost(bytes: f64, r_d2h: f64, r_h2d: f64, k: u32, overhead: f64) -> f64 {
    assert!(k >= 1, "a swap copies at least one chunk");
    assert!(bytes >= 0.0 && r_d2h >= 0.0 && r_h2d >= 0.0 && overhead >= 0.0);
    bytes * (r_d2h + r_h2d) + 2.0 * k as f64 * overhead
}

/// Per-request *transport* overhead of the GVM request path — everything a
/// request pays beyond the device copies and kernels themselves — for the
/// two wire formats (`repro_bench --only zerocopy` measures the empirical
/// side):
///
/// * **Staged** (`zero_copy = false`): the payload crosses host memory
///   three extra times — client write into shm (`bytes_in`), the GVM's
///   shm→pinned staging copy at `SND` (`bytes_in`), the GVM's pinned→shm
///   retrieval copy at `RCV` (`bytes_out`) — plus the client's read of the
///   result (`bytes_out`), each at `r_copy` time units per byte; and the
///   `STR` barrier flush answers each of the `n` ranks with its own mq
///   send, so every rank bears a full `l_mq` queue latency.
///
/// * **Zero-copy** (`zero_copy = true`): the client writes straight into
///   the pinned staging lease (its shm write *is* the staging copy) and
///   reads the result out of the same window — one traversal per
///   direction, the GVM-side copies vanish — and the flush batches its
///   ACKs into one queue round trip, so each rank bears `l_mq / n`.
///
/// `T_staged − T_zc = (bytes_in + bytes_out)·r_copy + l_mq·(1 − 1/n)`,
/// strictly positive whenever any payload moves or `n > 1`: descriptor
/// passing is never slower under the model.
pub fn request_overhead(
    bytes_in: f64,
    bytes_out: f64,
    r_copy: f64,
    l_mq: f64,
    n: u32,
    zero_copy: bool,
) -> f64 {
    assert!(n >= 1, "a flush answers at least one rank");
    assert!(bytes_in >= 0.0 && bytes_out >= 0.0 && r_copy >= 0.0 && l_mq >= 0.0);
    let traversals = if zero_copy {
        bytes_in + bytes_out
    } else {
        2.0 * (bytes_in + bytes_out)
    };
    let flush = if zero_copy { l_mq / n as f64 } else { l_mq };
    traversals * r_copy + flush
}

/// Fixed submission cost of a flush wave under cross-rank coalescing: when
/// `ops` same-direction DMA sub-ops (or kernel launches) go down in
/// `groups` submissions instead of one apiece, only the *first* member of
/// each group pays the per-submission fixed cost `l_op` (DMA setup
/// latency, or host launch overhead) — followers ride the open engine run:
///
/// `T_fixed = groups·l_op`   (uncoalesced: `groups = ops`, so `ops·l_op`)
///
/// The predicted saving of a coalesced flush over the per-rank flush is
/// therefore `(ops − groups)·l_op` — what `DeviceStats::fused_dma_saved`
/// meters on the simulated engine and `repro_bench --only coalesce`
/// measures end to end. Per-byte copy time is unchanged by fusion (the same bytes cross
/// the bus either way), so it does not appear in the term.
pub fn coalesced_overhead(ops: u32, groups: u32, l_op: f64) -> f64 {
    assert!(
        groups >= 1 && groups <= ops,
        "a flush wave has between 1 and `ops` submissions"
    );
    assert!(l_op >= 0.0);
    groups as f64 * l_op
}

/// The saving side of [`coalesced_overhead`]: `(ops − groups)·l_op`.
pub fn coalesce_saving(ops: u32, groups: u32, l_op: f64) -> f64 {
    coalesced_overhead(ops, ops, l_op) - coalesced_overhead(ops, groups, l_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecadd() -> SpeedupModel {
        SpeedupModel::new(ExecutionProfile::vecadd_paper())
    }

    fn ep() -> SpeedupModel {
        SpeedupModel::new(ExecutionProfile::ep_paper())
    }

    #[test]
    fn eq4_combines_eq2_and_eq3() {
        for n in 1..=16 {
            let m = vecadd();
            // vecadd: Tin > Tout → Eq. 2 branch.
            assert!((m.total_vt(n) - m.total_vt_in_bound(n)).abs() < 1e-9);
            let m = SpeedupModel::new(ExecutionProfile {
                t_data_in: 10.0,
                t_data_out: 50.0,
                ..ExecutionProfile::vecadd_paper()
            });
            assert!((m.total_vt(n) - m.total_vt_out_bound(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn table3_theoretical_speedups_reproduced() {
        // Paper Table III, EP column: plugging the paper's own Table II
        // numbers into its own Eq. (5) gives exactly the published 8.341 —
        // strong validation of the equation implementation.
        let s_ep = ep().speedup(8);
        assert!(
            (s_ep - 8.341).abs() < 0.01,
            "EP theoretical speedup {s_ep}, paper says 8.341"
        );
        // VectorAdd: the same substitution yields 3.621, not the published
        // 2.721 — the paper's printed value is not derivable from its own
        // Table II inputs (see EXPERIMENTS.md). We pin our arithmetic.
        let s_vecadd = vecadd().speedup(8);
        assert!(
            (s_vecadd - 3.621).abs() < 0.01,
            "VectorAdd theoretical speedup from Table II inputs is {s_vecadd}"
        );
    }

    #[test]
    fn speedup_at_least_one() {
        for n in 1..=64 {
            assert!(vecadd().speedup(n) >= 1.0);
            assert!(ep().speedup(n) >= 1.0);
        }
    }

    #[test]
    fn speedup_converges_to_smax_at_large_n() {
        // Note the direction: with the full (all-process) Tinit in Eq. (1),
        // S(n) can exceed S_max at small n — the one-time initialization
        // term inflates the numerator faster than n amortizes it. The
        // limit still holds.
        let m = vecadd();
        let smax = m.s_max();
        assert!(m.speedup(8) > smax, "Tinit dominates at n = 8");
        let s_big = m.speedup(10_000_000);
        assert!((smax - s_big).abs() / smax < 1e-3);
    }

    #[test]
    fn ep_smax_is_huge() {
        // EP's max I/O is 55 ns → S_max ≈ 167 million.
        assert!(ep().s_max() > 1.0e8);
    }

    #[test]
    fn no_vt_grows_linearly_with_ctx_switch() {
        let m = vecadd();
        let d = m.total_no_vt(9) - m.total_no_vt(8);
        let p = ExecutionProfile::vecadd_paper();
        assert!((d - (p.t_ctx_switch + p.cycle())).abs() < 1e-9);
    }

    #[test]
    fn deviation_matches_definition() {
        let m = vecadd();
        let s = m.speedup(8);
        assert!((m.deviation(8, s) - 0.0).abs() < 1e-12);
        assert!((m.deviation(8, s * 0.8) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn pipelined_staging_k1_is_serial() {
        assert!((pipelined_staging(3.0, 5.0, 1) - 8.0).abs() < 1e-12);
        assert!((pipelined_staging(0.0, 5.0, 1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_staging_monotone_in_k() {
        let mut prev = f64::INFINITY;
        for k in 1..=64 {
            let t = pipelined_staging(3.0, 5.0, k);
            assert!(t <= prev + 1e-12, "T(k) must not increase with k");
            prev = t;
        }
    }

    #[test]
    fn pipelined_staging_limit_is_max() {
        let t = pipelined_staging(3.0, 5.0, 1_000_000);
        assert!(
            (t - 5.0).abs() < 1e-4,
            "limit is max(t_stage, t_xfer), got {t}"
        );
        // Balanced stages halve the serial time in the limit.
        let t = pipelined_staging(4.0, 4.0, 1_000_000);
        assert!((t - 4.0).abs() < 1e-4);
    }

    /// Brute-force argmin of the overhead-extended makespan over 1..=cap.
    fn brute_force_k(t_stage: f64, t_xfer: f64, overhead: f64, cap: u32) -> u32 {
        let mut best = 1;
        let mut best_t = f64::INFINITY;
        for k in 1..=cap {
            let t = pipelined_staging(t_stage, t_xfer, k) + k as f64 * overhead;
            if t < best_t - 1e-12 {
                best = k;
                best_t = t;
            }
        }
        best
    }

    #[test]
    fn optimal_chunks_matches_brute_force() {
        for &(s, x, o) in &[
            (3.0, 5.0, 0.1),
            (5.0, 3.0, 0.1),
            (1.0, 1.0, 0.01),
            (0.5, 8.0, 0.25),
            (16.0, 16.0, 1.0),
            (100.0, 2.0, 0.5),
            (0.0, 4.0, 0.1),
        ] {
            for cap in [1u32, 2, 4, 8, 64] {
                let got = optimal_chunks(s, x, o, cap);
                let want = brute_force_k(s, x, o, cap);
                let t_got = pipelined_staging(s, x, got) + got as f64 * o;
                let t_want = pipelined_staging(s, x, want) + want as f64 * o;
                assert!(
                    (t_got - t_want).abs() < 1e-9,
                    "s={s} x={x} o={o} cap={cap}: got k={got} (T={t_got}), \
                     brute force k={want} (T={t_want})"
                );
            }
        }
    }

    #[test]
    fn optimal_chunks_tiny_payload_is_serial() {
        // When the overhead dwarfs the pipeline win, k = 1.
        assert_eq!(optimal_chunks(0.001, 0.002, 1.0, 8), 1);
        assert_eq!(optimal_chunks(0.0, 0.0, 0.5, 8), 1);
    }

    #[test]
    fn optimal_chunks_monotone_in_payload() {
        // Fixed per-byte rates, growing payload: k never decreases.
        let stage_rate = 0.08; // time units per MiB
        let xfer_rate = 0.06;
        let overhead = 0.02;
        let mut prev = 0;
        for mib in 1..=128u32 {
            let k = optimal_chunks(stage_rate * mib as f64, xfer_rate * mib as f64, overhead, 8);
            assert!(k >= prev, "k dropped from {prev} to {k} at {mib} MiB");
            prev = k;
        }
        assert!(prev > 1, "large payloads must pipeline");
    }

    #[test]
    fn optimal_chunks_respects_cap_and_free_overhead() {
        assert!(optimal_chunks(1e6, 1e6, 1e-9, 4) <= 4);
        assert_eq!(optimal_chunks(1e6, 1e6, 1e-9, 4), 4);
        assert_eq!(optimal_chunks(3.0, 5.0, 0.0, 6), 6);
        assert_eq!(optimal_chunks(3.0, 5.0, -1.0, 6), 6);
    }

    /// Brute-force `swap_cost` by summing the per-span times of the exact
    /// near-equal tiling the planner uses (`ceil`-sized head spans), both
    /// directions: per span `len·rate + overhead`.
    fn brute_force_swap(bytes: u64, r_d2h: f64, r_h2d: f64, k: u32) -> f64 {
        let overhead = 0.125;
        let mut t = 0.0;
        for rate in [r_d2h, r_h2d] {
            for i in 0..u64::from(k) {
                let base = bytes / u64::from(k);
                let len = base + u64::from(i < bytes % u64::from(k));
                t += len as f64 * rate + overhead;
            }
        }
        t
    }

    #[test]
    fn swap_cost_matches_per_span_sum() {
        // The tiling splits exactly (span lengths sum to `bytes`), so the
        // closed form equals the per-span brute force for any k.
        for &(bytes, d2h, h2d) in &[
            (1u64 << 20, 2e-6, 3e-6),
            (4096, 1e-3, 0.0),
            (7777, 0.5, 0.25),
        ] {
            for k in [1u32, 2, 3, 8, 16] {
                let got = swap_cost(bytes as f64, d2h, h2d, k, 0.125);
                let want = brute_force_swap(bytes, d2h, h2d, k);
                assert!(
                    (got - want).abs() < 1e-6 * want.max(1.0),
                    "bytes={bytes} k={k}: closed form {got}, span sum {want}"
                );
            }
        }
    }

    #[test]
    fn swap_cost_monotone_and_one_way() {
        // More bytes, more chunks, or faster rates never cheapen a swap.
        assert!(swap_cost(2048.0, 1e-3, 1e-3, 2, 0.1) > swap_cost(1024.0, 1e-3, 1e-3, 2, 0.1));
        assert!(swap_cost(1024.0, 1e-3, 1e-3, 8, 0.1) > swap_cost(1024.0, 1e-3, 1e-3, 2, 0.1));
        // One-way pricing: zeroing a rate drops exactly that direction.
        let round = swap_cost(1024.0, 2e-3, 3e-3, 1, 0.0);
        let out = swap_cost(1024.0, 2e-3, 0.0, 1, 0.0);
        let back = swap_cost(1024.0, 0.0, 3e-3, 1, 0.0);
        assert!((round - (out + back)).abs() < 1e-12);
    }

    /// Brute-force the staged overhead by pricing each host-memory
    /// traversal and mq send individually, exactly as the GVM issues them.
    fn brute_force_overhead(
        bytes_in: f64,
        bytes_out: f64,
        r_copy: f64,
        l_mq: f64,
        n: u32,
        zero_copy: bool,
    ) -> f64 {
        let mut t = 0.0;
        // Client write of the input (staged: into plain shm; zc: into the
        // lease — same bytes either way).
        t += bytes_in * r_copy;
        if !zero_copy {
            // GVM shm→pinned at SND and pinned→shm at RCV.
            t += bytes_in * r_copy;
            t += bytes_out * r_copy;
        }
        // Client read of the result.
        t += bytes_out * r_copy;
        // Flush ACK share: staged pays a full queue latency per rank,
        // zero-copy amortizes one latency across the n-rank batch.
        t += if zero_copy { l_mq / n as f64 } else { l_mq };
        t
    }

    #[test]
    fn request_overhead_matches_per_traversal_sum() {
        for &(bi, bo, r, l) in &[
            (1048576.0, 1048576.0, 2e-6, 0.02),
            (4096.0, 0.0, 1e-4, 0.5),
            (0.0, 8192.0, 3e-5, 0.1),
            (0.0, 0.0, 1e-3, 0.25),
        ] {
            for n in [1u32, 2, 8, 64] {
                for zc in [false, true] {
                    let got = request_overhead(bi, bo, r, l, n, zc);
                    let want = brute_force_overhead(bi, bo, r, l, n, zc);
                    assert!(
                        (got - want).abs() < 1e-9 * want.max(1.0),
                        "bi={bi} bo={bo} n={n} zc={zc}: closed form {got}, sum {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_copy_never_slower() {
        for &(bi, bo) in &[(1048576.0, 1048576.0), (4096.0, 0.0), (0.0, 0.0)] {
            for n in [1u32, 2, 8] {
                let staged = request_overhead(bi, bo, 2e-6, 0.02, n, false);
                let zc = request_overhead(bi, bo, 2e-6, 0.02, n, true);
                assert!(
                    zc <= staged,
                    "bi={bi} bo={bo} n={n}: zc {zc} > staged {staged}"
                );
                // Strict whenever payload moves or the flush batches >1 rank.
                if bi + bo > 0.0 || n > 1 {
                    assert!(zc < staged);
                }
                // The gap is exactly the two dropped GVM copies plus the
                // amortized flush latency.
                let gap = (bi + bo) * 2e-6 + 0.02 * (1.0 - 1.0 / n as f64);
                assert!((staged - zc - gap).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn request_overhead_flush_batching_amortizes() {
        // Pure-latency profile: staged is flat in n, zero-copy decays as 1/n.
        let staged: Vec<f64> = [1u32, 2, 4, 8]
            .iter()
            .map(|&n| request_overhead(0.0, 0.0, 0.0, 0.4, n, false))
            .collect();
        let zc: Vec<f64> = [1u32, 2, 4, 8]
            .iter()
            .map(|&n| request_overhead(0.0, 0.0, 0.0, 0.4, n, true))
            .collect();
        assert!(staged.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        assert!(zc.windows(2).all(|w| w[1] < w[0]));
        assert!((zc[3] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn coalesced_overhead_pays_once_per_group() {
        // 8 sub-ops in one fused submission pay one setup; unfused they
        // pay eight. The saving is exactly the elided setups.
        let l = 8.0;
        assert!((coalesced_overhead(8, 1, l) - 8.0).abs() < 1e-12);
        assert!((coalesced_overhead(8, 8, l) - 64.0).abs() < 1e-12);
        assert!((coalesce_saving(8, 1, l) - 56.0).abs() < 1e-12);
        // Degenerate: everything its own group saves nothing.
        assert_eq!(coalesce_saving(8, 8, l), 0.0);
        // Monotone: fewer groups never cost more.
        for g in 1..8u32 {
            assert!(coalesced_overhead(8, g, l) < coalesced_overhead(8, g + 1, l));
        }
    }

    #[test]
    #[should_panic(expected = "between 1 and `ops`")]
    fn coalesced_overhead_rejects_more_groups_than_ops() {
        coalesced_overhead(2, 3, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid execution profile")]
    fn invalid_profile_rejected() {
        SpeedupModel::new(ExecutionProfile {
            t_init: -1.0,
            ..ExecutionProfile::vecadd_paper()
        });
    }
}
