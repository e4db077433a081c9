//! The unified staging path: one span-wise data mover for both protocol
//! directions, plus the analysis-record emitter that makes chunked
//! transfers auditable.
//!
//! The GVM's SND handler (shm → pinned, ahead of H2D) and RCV handler
//! (pinned → shm, after D2H) used to carry two near-identical staging
//! blocks. Both now funnel through [`stage_span`], which handles the
//! functional/timing-only split in one place: functional buffers move real
//! bytes span-by-span; timing-only buffers charge the node's memcpy cost
//! for the span without touching storage.

use gv_cuda::HostBuffer;
use gv_ipc::{SharedMem, ShmError};
use gv_sim::{AnalysisRecord, Ctx, Tracer};

use crate::config::Span;

/// Move one span between a shared-memory segment and a pinned staging
/// buffer, charging shm memcpy time either way.
///
/// `h2d == true` is the input direction (shm → pinned, ahead of an H2D
/// copy); `h2d == false` is the output direction (pinned → shm, after a
/// D2H copy). Whether real bytes move is decided by the pinned buffer:
/// functional buffers transfer the span's contents, opaque buffers charge
/// timing only (the shm side is then only touched, never stored to).
///
/// The hold is charged first ([`SharedMem::touch`]); the bytes then move
/// in one memcpy straight between the two storages, under both locks and
/// with no yield in between.
pub fn stage_span(
    ctx: &mut Ctx,
    shm: &SharedMem,
    pinned: &HostBuffer,
    span: Span,
    h2d: bool,
) -> Result<(), ShmError> {
    if span.len == 0 {
        return Ok(());
    }
    shm.touch(ctx, span.offset, span.len, !h2d)?;
    let copied = if h2d {
        pinned.with_range_mut(span.offset, span.len, |dst| shm.load(span.offset, dst))
    } else {
        pinned.with_range(span.offset, span.len, |src| {
            shm.store(ctx, span.offset, src)
        })
    };
    copied.unwrap_or(Ok(()))
}

/// Emit the [`AnalysisRecord::StageChunk`] describing one staged span.
///
/// `xfer` groups every span of one payload transfer (gv-analyze proves the
/// group tiles `[0, payload)` exactly once); `buf` is the staging pool
/// buffer id backing the span (0 when unpooled); `label` is the engine
/// command label of the async copy issued for this span, or empty when no
/// copy was issued at staging time.
#[allow(clippy::too_many_arguments)]
pub fn record_chunk(
    tracer: &Tracer,
    device: u32,
    rank: usize,
    xfer: u64,
    h2d: bool,
    span: Span,
    payload: u64,
    buf: u64,
    label: impl Into<String>,
) {
    tracer.record_analysis(AnalysisRecord::StageChunk {
        time: tracer.now_hint(),
        device,
        rank,
        xfer,
        h2d,
        offset: span.offset,
        len: span.len,
        payload,
        buf,
        label: label.into(),
    });
}

/// Emit the [`AnalysisRecord::StagePlan`] committing one transfer to `k`
/// chunks before its spans are staged.
///
/// The staging checker cross-validates: the group `xfer` must then emit
/// exactly `k` [`AnalysisRecord::StageChunk`] spans tiling `payload`, and
/// `k` must not exceed `cap` — so adaptive sizing stays auditable.
pub fn record_plan(
    tracer: &Tracer,
    rank: usize,
    xfer: u64,
    payload: u64,
    k: u64,
    cap: u64,
    adaptive: bool,
) {
    tracer.record_analysis(AnalysisRecord::StagePlan {
        time: tracer.now_hint(),
        rank,
        xfer,
        payload,
        k: u32::try_from(k).unwrap_or(u32::MAX),
        cap: u32::try_from(cap).unwrap_or(u32::MAX),
        adaptive,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use gv_ipc::{NodeConfig, ShmRegistry};
    use gv_sim::Simulation;

    /// Counts each thread's heap allocations, so a test can show that a
    /// code path allocates nothing.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        }

        struct Counting;

        // SAFETY: every call is forwarded unchanged to the system allocator.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;

        /// Allocations made so far on the calling thread.
        pub fn allocations() -> u64 {
            ALLOCATIONS.with(Cell::get)
        }
    }

    #[test]
    fn functional_spans_roundtrip_through_pinned() {
        let node = NodeConfig::test_tiny();
        let reg = ShmRegistry::new(&node);
        let shm = reg.create("seg", 64).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("p", move |ctx| {
            let payload: Vec<u8> = (0u8..48).collect();
            shm.write(ctx, 0, &payload).unwrap();
            let pinned = HostBuffer::zeroed(64, true);
            let spans = PipelineConfig::chunked(4, 1).plan(48);
            assert_eq!(spans.len(), 4);
            for s in &spans {
                stage_span(ctx, &shm, &pinned, *s, true).unwrap();
            }
            assert_eq!(pinned.to_bytes().unwrap()[..48], payload);
            // Now drain back out through a second segment.
            let out = reg.create("out", 64).unwrap();
            for s in &spans {
                stage_span(ctx, &out, &pinned, *s, false).unwrap();
            }
            assert_eq!(out.peek(0, 48).unwrap(), payload);
        });
        sim.run().unwrap();
    }

    #[test]
    fn functional_spans_allocate_nothing_in_either_direction() {
        let node = NodeConfig::test_tiny();
        let reg = ShmRegistry::new(&node);
        let shm = reg.create("seg", 1 << 20).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("p", move |ctx| {
            let pinned = HostBuffer::zeroed(1 << 20, true);
            let spans = PipelineConfig::chunked(4, 1).plan(1 << 20);
            // The first pass materializes the segment and sizes the
            // engine's timer queue.
            for h2d in [false, true] {
                stage_span(ctx, &shm, &pinned, spans[0], h2d).unwrap();
            }
            for h2d in [true, false] {
                let before = counting::allocations();
                for s in &spans {
                    stage_span(ctx, &shm, &pinned, *s, h2d).unwrap();
                }
                assert_eq!(counting::allocations(), before, "h2d={h2d} allocated");
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn functional_output_spans_keep_the_write_fault_schedule() {
        let node = NodeConfig::test_tiny();
        let reg = ShmRegistry::new(&node);
        // Writes 0..4 are this transfer's four spans; the third is armed.
        reg.arm_corrupt("out", 2);
        let out = reg.create("out", 64).unwrap();
        let probe = out.clone();
        let mut sim = Simulation::new();
        sim.tracer().set_enabled(true);
        let tracer = sim.tracer().clone();
        sim.spawn("p", move |ctx| {
            let pinned = HostBuffer::from_bytes(vec![0x0F; 64], true);
            for s in PipelineConfig::chunked(4, 1).plan(64) {
                stage_span(ctx, &out, &pinned, s, false).unwrap();
            }
            // A timing-only output span is only touched: no write counted.
            let opaque = HostBuffer::opaque(64, true);
            stage_span(ctx, &out, &opaque, Span { offset: 0, len: 64 }, false).unwrap();
        });
        sim.run().unwrap();
        let got = probe.peek(0, 64).unwrap();
        assert!(got[..32].iter().chain(&got[48..]).all(|&b| b == 0x0F));
        assert!(got[32..48].iter().all(|&b| b == 0xF0));
        let faults = tracer.fault_events();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].label, "shm-corrupt:out#2");
    }

    #[test]
    fn timing_only_spans_charge_memcpy_per_span() {
        let node = NodeConfig::test_tiny();
        let reg = ShmRegistry::new(&node);
        let shm = reg.create("seg", 1 << 20).unwrap();
        let expect = {
            // 4 spans of 256 KiB each: 4 latencies + total bandwidth term.
            let per = node.memcpy_time(256 << 10);
            per * 4
        };
        let mut sim = Simulation::new();
        sim.spawn("p", move |ctx| {
            let pinned = HostBuffer::opaque(1 << 20, true);
            for s in PipelineConfig::chunked(4, 1).plan(1 << 20) {
                stage_span(ctx, &shm, &pinned, s, true).unwrap();
            }
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_nanos(), expect.as_nanos());
    }

    #[test]
    fn single_span_matches_whole_payload_cost() {
        let node = NodeConfig::test_tiny();
        let reg = ShmRegistry::new(&node);
        let shm = reg.create("seg", 4096).unwrap();
        let mut sim = Simulation::new();
        sim.spawn("p", move |ctx| {
            let pinned = HostBuffer::opaque(4096, true);
            for s in PipelineConfig::default().plan(4096) {
                stage_span(ctx, &shm, &pinned, s, false).unwrap();
            }
        });
        let s = sim.run().unwrap();
        assert_eq!(s.end_time.as_nanos(), node.memcpy_time(4096).as_nanos());
    }

    #[test]
    fn record_plan_emits_stage_plan() {
        let t = Tracer::new();
        t.set_analysis(true);
        record_plan(&t, 2, 9, 1 << 20, 4, 8, true);
        let recs = t.analysis_snapshot();
        assert!(matches!(
            &recs[..],
            [AnalysisRecord::StagePlan {
                rank: 2,
                xfer: 9,
                payload: 0x100000,
                k: 4,
                cap: 8,
                adaptive: true,
                ..
            }]
        ));
    }

    #[test]
    fn record_chunk_emits_stage_chunk() {
        let t = Tracer::new();
        t.set_analysis(true);
        record_chunk(
            &t,
            0,
            3,
            9,
            true,
            Span { offset: 0, len: 64 },
            64,
            5,
            "cmd-1",
        );
        let recs = t.analysis_snapshot();
        assert!(matches!(
            &recs[..],
            [AnalysisRecord::StageChunk {
                device: 0,
                rank: 3,
                xfer: 9,
                h2d: true,
                offset: 0,
                len: 64,
                payload: 64,
                buf: 5,
                ..
            }]
        ));
    }
}
