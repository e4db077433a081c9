//! Transfer-pipelining configuration and the chunked transfer planner.

/// One contiguous byte span of a payload transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the span within the payload.
    pub offset: u64,
    /// Span length in bytes (never zero in a plan).
    pub len: u64,
}

/// How (and whether) to split payload transfers into pipelined chunks.
///
/// The default is **disabled** (`chunks == 1`): every payload moves as a
/// single span and the GVM behaves bit-identically to serial staging. With
/// `chunks > 1`, payloads of at least `threshold` bytes are split into
/// `chunks` near-equal spans so the staging of span *i+1* overlaps the
/// async H2D copy of span *i* (and, at flush, early D2H chunks overlap
/// remaining compute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of chunks a qualifying payload is split into. `1` disables
    /// chunking entirely. Under [`adaptive`](Self::adaptive) sizing this is
    /// the chunk *cap*: the chooser never picks more spans than this.
    pub chunks: usize,
    /// Minimum payload size (bytes) eligible for chunking. Payloads below
    /// this always move as one span. Irrelevant while `chunks == 1`.
    pub threshold: u64,
    /// Model-driven chunk sizing: instead of always splitting qualifying
    /// payloads into exactly `chunks` spans, the GVM's
    /// [`AdaptiveChooser`](crate::AdaptiveChooser) picks a per-transfer
    /// `k ∈ [1, chunks]` from the `pipelined_staging` model term and an
    /// online EWMA of measured staging latency.
    pub adaptive: bool,
    /// Steady-state iteration overlap: the client prefetches round *j+1*'s
    /// `SND` while round *j* still computes, and the GVM double-buffers the
    /// pinned input lease so next-round staging and H2D overlap current-
    /// round compute and D2H drain. Off by default (protocol timing is then
    /// bit-identical to the non-overlapped schedule).
    pub steady: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            chunks: 1,
            threshold: 16 << 20,
            adaptive: false,
            steady: false,
        }
    }
}

impl PipelineConfig {
    /// Chunking enabled: split payloads of at least `threshold` bytes into
    /// `chunks` spans.
    pub fn chunked(chunks: usize, threshold: u64) -> Self {
        PipelineConfig {
            chunks,
            threshold,
            ..Self::default()
        }
    }

    /// Adaptive chunking: payloads of at least `threshold` bytes split
    /// into a model-chosen `k ≤ cap` spans.
    pub fn adaptive(cap: usize, threshold: u64) -> Self {
        PipelineConfig {
            chunks: cap,
            threshold,
            adaptive: true,
            ..Self::default()
        }
    }

    /// The same configuration with steady-state iteration overlap on.
    pub fn with_steady(mut self) -> Self {
        self.steady = true;
        self
    }

    /// Is chunking enabled at all?
    pub fn enabled(&self) -> bool {
        self.chunks > 1
    }

    /// The fixed chunk count [`plan`](Self::plan) uses for `payload`: 1
    /// for sub-threshold, disabled, or adaptive configs (under adaptive
    /// sizing only the GVM's chooser knows `k`, so plain `plan` callers —
    /// the client-side shm mirror, the RCV drain — stay single-span), else
    /// `chunks` clamped so no span is empty.
    pub fn fixed_k(&self, payload: u64) -> u64 {
        if self.chunks <= 1 || self.adaptive || payload < self.threshold {
            1
        } else {
            (self.chunks as u64).min(payload)
        }
    }

    /// Split `payload` bytes into the spans this configuration prescribes.
    ///
    /// Spans tile `[0, payload)` exactly once, in ascending order. A
    /// payload of zero yields no spans; a payload below `threshold` (or a
    /// disabled config) yields exactly one. The chunk count is clamped so
    /// no span is empty.
    pub fn plan(&self, payload: u64) -> Vec<Span> {
        Self::plan_exact(payload, self.fixed_k(payload))
    }

    /// [`plan`](Self::plan) into a caller-owned scratch vector (cleared
    /// first). Hot-path callers reuse one scratch across requests so the
    /// planner allocates nothing after warm-up; the produced spans are
    /// identical to [`plan`](Self::plan)'s.
    pub fn plan_into(&self, payload: u64, out: &mut Vec<Span>) {
        Self::plan_exact_into(payload, self.fixed_k(payload), out);
    }

    /// Split `payload` bytes into exactly `k` near-equal spans (clamped so
    /// no span is empty): the first `payload % k` spans carry one extra
    /// byte. This is the planner's kernel; adaptive callers pick `k` first
    /// and tile with it, and the staging checker holds every planned
    /// transfer to exactly `k` emitted spans.
    pub fn plan_exact(payload: u64, k: u64) -> Vec<Span> {
        let mut spans = Vec::new();
        Self::plan_exact_into(payload, k, &mut spans);
        spans
    }

    /// [`plan_exact`](Self::plan_exact) into a caller-owned scratch vector
    /// (cleared first).
    pub fn plan_exact_into(payload: u64, k: u64, out: &mut Vec<Span>) {
        out.clear();
        if payload == 0 {
            return;
        }
        let k = k.clamp(1, payload);
        let base = payload / k;
        let rem = payload % k;
        out.reserve(k as usize);
        let mut offset = 0;
        for i in 0..k {
            let len = base + u64::from(i < rem);
            out.push(Span { offset, len });
            offset += len;
        }
    }
}

/// Buffer-lifecycle configuration carried by the GVM.
///
/// The pinned staging pool and device-allocation cache are always on (they
/// cost no simulated time); the transfer path is configurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemConfig {
    /// Chunked copy/compute pipelining; disabled by default.
    pub pipeline: PipelineConfig,
    /// Zero-copy transport: the GVM exports each rank's pinned staging
    /// lease *as* its shared-memory segment and hands the client a
    /// generation-stamped [`StagingDescriptor`](crate::StagingDescriptor)
    /// at `REQ`/ACK. Client writes land directly in the lease, `SND`
    /// carries only the descriptor, H2D issues straight from the lease,
    /// and flush ACKs batch to one mq latency charge per flush. Off by
    /// default — the staged-copy path is then bit-identical to the
    /// pre-zero-copy schedule and serves as the ablation baseline.
    /// Incompatible with [`PipelineConfig::steady`] double-buffering (a
    /// single exported segment cannot also be a double buffer).
    pub zero_copy: bool,
    /// Cross-rank DMA coalescing and batched kernel launch at flush. When
    /// a flush admits several ranks, the coalescing planner
    /// ([`CoalescePlan`](crate::CoalescePlan)) fuses adjacent
    /// same-direction staging transfers into single large DMA submissions
    /// (the follower sub-ops elide the per-op DMA setup latency) and groups
    /// the co-flushed ranks' kernel launches into one batched submission
    /// that charges the host launch overhead once. Off by default: the
    /// flush path never consults the planner and the schedule is
    /// bit-identical to the uncoalesced one, the ablation baseline.
    pub coalesce: bool,
}

impl MemConfig {
    /// Convenience: the zero-copy descriptor-passing transport.
    pub fn zero_copy() -> Self {
        MemConfig {
            zero_copy: true,
            ..Self::default()
        }
    }

    /// The same configuration with the zero-copy transport toggled.
    pub fn with_zero_copy(mut self, on: bool) -> Self {
        self.zero_copy = on;
        self
    }

    /// Convenience: the coalescing flush path.
    pub fn coalesced() -> Self {
        MemConfig {
            coalesce: true,
            ..Self::default()
        }
    }

    /// The same configuration with the coalescing flush path toggled.
    pub fn with_coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Convenience: a config with chunked pipelining enabled.
    pub fn pipelined(chunks: usize, threshold: u64) -> Self {
        MemConfig {
            pipeline: PipelineConfig::chunked(chunks, threshold),
            ..Self::default()
        }
    }

    /// Convenience: adaptive chunk sizing up to `cap` spans.
    pub fn adaptive(cap: usize, threshold: u64) -> Self {
        MemConfig {
            pipeline: PipelineConfig::adaptive(cap, threshold),
            ..Self::default()
        }
    }

    /// The same configuration with steady-state iteration overlap on.
    pub fn with_steady(mut self) -> Self {
        self.pipeline = self.pipeline.with_steady();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(spans: &[Span], payload: u64) {
        let mut cursor = 0;
        for s in spans {
            assert_eq!(s.offset, cursor, "spans must be ascending and gapless");
            assert!(s.len > 0, "no empty spans");
            cursor += s.len;
        }
        assert_eq!(cursor, payload);
    }

    #[test]
    fn default_plans_single_span() {
        let cfg = PipelineConfig::default();
        assert!(!cfg.enabled());
        let spans = cfg.plan(64 << 20);
        assert_eq!(
            spans,
            vec![Span {
                offset: 0,
                len: 64 << 20
            }]
        );
        assert!(cfg.plan(0).is_empty());
    }

    #[test]
    fn chunked_plan_tiles_payload() {
        let cfg = PipelineConfig::chunked(4, 1 << 20);
        let payload = (16 << 20) + 5; // deliberately not divisible by 4
        let spans = cfg.plan(payload);
        assert_eq!(spans.len(), 4);
        covers(&spans, payload);
    }

    #[test]
    fn threshold_keeps_small_payloads_whole() {
        let cfg = PipelineConfig::chunked(8, 1 << 20);
        assert_eq!(cfg.plan(4096).len(), 1);
        assert_eq!(cfg.plan(1 << 20).len(), 8);
    }

    #[test]
    fn chunk_count_clamps_to_payload() {
        let cfg = PipelineConfig::chunked(8, 1);
        let spans = cfg.plan(3);
        assert_eq!(spans.len(), 3);
        covers(&spans, 3);
    }

    #[test]
    fn mem_config_builders() {
        assert!(!MemConfig::default().pipeline.enabled());
        let m = MemConfig::pipelined(4, 64);
        assert_eq!(m.pipeline.chunks, 4);
        assert_eq!(m.pipeline.threshold, 64);
        assert!(!m.pipeline.adaptive);
        assert!(!m.pipeline.steady);
        let a = MemConfig::adaptive(8, 1 << 20).with_steady();
        assert!(a.pipeline.adaptive);
        assert!(a.pipeline.steady);
        assert_eq!(a.pipeline.chunks, 8);
        assert!(!MemConfig::default().zero_copy);
        let z = MemConfig::zero_copy();
        assert!(z.zero_copy);
        assert!(!z.pipeline.steady);
        assert!(!MemConfig::zero_copy().with_zero_copy(false).zero_copy);
    }

    #[test]
    fn coalesce_config_builders() {
        assert!(!MemConfig::default().coalesce);
        let c = MemConfig::coalesced();
        assert!(c.coalesce);
        assert!(!c.zero_copy);
        assert!(!MemConfig::coalesced().with_coalesce(false).coalesce);
        assert!(MemConfig::zero_copy().with_coalesce(true).coalesce);
    }

    #[test]
    fn plan_into_matches_plan_and_clears_scratch() {
        let mut scratch = vec![
            Span {
                offset: 99,
                len: 99
            };
            3
        ];
        for cfg in [
            PipelineConfig::default(),
            PipelineConfig::chunked(4, 64),
            PipelineConfig::chunked(8, 1 << 20),
        ] {
            for payload in [0u64, 1, 63, 4096, (16 << 20) + 5] {
                cfg.plan_into(payload, &mut scratch);
                assert_eq!(scratch, cfg.plan(payload));
            }
        }
    }

    #[test]
    fn plan_exact_tiles_any_k() {
        for payload in [1u64, 3, 4096, (16 << 20) + 7] {
            for k in [1u64, 2, 3, 8, 1000] {
                let spans = PipelineConfig::plan_exact(payload, k);
                assert_eq!(spans.len() as u64, k.clamp(1, payload));
                covers(&spans, payload);
            }
        }
        assert!(PipelineConfig::plan_exact(0, 4).is_empty());
    }

    #[test]
    fn fixed_k_matches_plan() {
        for cfg in [
            PipelineConfig::default(),
            PipelineConfig::chunked(4, 64),
            PipelineConfig::adaptive(8, 1 << 20),
        ] {
            for payload in [1u64, 63, 64, 4096, 1 << 20, 16 << 20] {
                assert_eq!(cfg.plan(payload).len() as u64, cfg.fixed_k(payload));
            }
        }
    }
}
