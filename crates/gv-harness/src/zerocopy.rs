//! Zero-copy descriptor-passing transport sweep — `repro_bench --only
//! zerocopy`.
//!
//! Compares the staged-copy request path (the seed wire format, kept as a
//! config-selectable ablation) against the zero-copy transport — the GVM
//! exports each rank's pinned staging lease *as* its shm segment, hands
//! the client a generation-stamped descriptor at `REQ`/ACK, `SND` carries
//! only the descriptor, H2D issues straight from the lease, and `STR`
//! flush ACKs batch to one mq latency charge per flush — over payload
//! size at 8 processes.
//!
//! The headline metric is mean per-request *overhead*: the mean per-rank
//! turnaround of the virtualized run minus a single direct (unvirtualized)
//! execution of the same task, i.e. everything the transport adds on top
//! of raw device time. The acceptance gate is that zero-copy's overhead
//! is strictly below the staged ablation's at every swept payload.
//!
//! With `analyze` on, every point's trace runs the full `gv-analyze`
//! suite — including the staging checker's descriptor-currency and
//! write-after-`SND` rules.

use gv_model::request_overhead;
use gv_virt::MemConfig;

use crate::pipeline::payload_task;
use crate::report::{ms, Row, Sweep, TextTable};
use crate::scenario::{ExecutionMode, ExperimentResult, Scenario};

/// Staged input payload sizes (MiB per rank) — the acceptance
/// points.
pub const PAYLOADS_MIB: [u64; 3] = [1, 16, 64];

/// Process count for every swept point.
pub const NPROCS: usize = 8;

/// Run one payload point: the direct baseline once, then the virtualized
/// group under the staged ablation and under the zero-copy transport.
///
/// `direct_ms` is the post-init turnaround (`end − init_done`) of one
/// direct (unvirtualized, single process) execution — the raw-device
/// baseline the overheads are measured against; initialization is
/// one-time, not per-request. `*_overhead_ms` is the mean per-rank
/// turnaround minus that baseline.
pub fn run_point(base: &Scenario, payload_bytes: u64, n: usize, analyze: bool) -> Row {
    let run = |mem: MemConfig| {
        let scenario = Scenario {
            analyze,
            ..base.clone()
        }
        .with_mem(mem);
        let task = payload_task(&scenario, payload_bytes);
        scenario.run_uniform(ExecutionMode::Virtualized, &task, n)
    };
    let direct = {
        let scenario = base.clone();
        let task = payload_task(&scenario, payload_bytes);
        scenario.run_uniform(ExecutionMode::Direct, &task, 1)
    };
    let staged = run(MemConfig::zero_copy().with_zero_copy(false));
    let zc = run(MemConfig::zero_copy());
    let sg = staged.gvm.as_ref().expect("virtualized run has GVM stats");
    let zg = zc.gvm.as_ref().expect("virtualized run has GVM stats");
    let mean =
        |r: &ExperimentResult| r.mean_phase(|t| t.end.duration_since(t.start).as_millis_f64());
    let clean = match (&staged.analysis, &zc.analysis) {
        (Some(s), Some(z)) => Some(s.is_clean() && z.is_clean()),
        _ => None,
    };
    let direct_ms = direct.mean_phase(|t| t.end.duration_since(t.init_done).as_millis_f64());
    let (staged_ms, zc_ms) = (mean(&staged), mean(&zc));
    let (staged_ovh, zc_ovh) = (staged_ms - direct_ms, zc_ms - direct_ms);
    Row::new("overhead", clean)
        .num("payload_mib", payload_bytes as f64 / (1 << 20) as f64, 3)
        .int("nprocs", n as u64)
        .ms("direct_ms", direct_ms)
        .ms("staged_rank_ms", staged_ms)
        .ms("zc_rank_ms", zc_ms)
        .ms("staged_overhead_ms", staged_ovh)
        .ms("zc_overhead_ms", zc_ovh)
        .num("improvement", 1.0 - zc_ovh / staged_ovh, 4)
        .ms("staged_copy_ms", sg.copy_time.as_millis_f64())
        .ms("zc_copy_ms", zg.copy_time.as_millis_f64())
        .int("staged_snd_copies", sg.snd_copies)
        .int("zc_snd_copies", zg.snd_copies)
}

/// Run the sweep over [`PAYLOADS_MIB`] at [`NPROCS`] processes.
pub fn sweep(base: &Scenario, scale_down: u32, analyze: bool) -> Sweep {
    let rows = PAYLOADS_MIB
        .iter()
        .map(|&mib| {
            let payload = (mib << 20) / u64::from(scale_down.max(1));
            run_point(base, payload, NPROCS, analyze)
        })
        .collect();
    // The analytical side of the same comparison (gv-model's
    // `request_overhead` term): per-byte copy rate and mq latency are
    // arbitrary units here — the point is the *shape* of the predicted
    // gap, which the measured table must reproduce.
    let mut m = TextTable::new(vec!["payload (MiB)", "model staged", "model zero-copy"]);
    for &mib in &PAYLOADS_MIB {
        let bytes = (mib << 20) as f64;
        // VectorAdd-shaped: output is half the input payload.
        let model =
            |zero_copy| request_overhead(bytes, bytes / 2.0, 1e-6, 0.02, NPROCS as u32, zero_copy);
        m.row(vec![format!("{mib}"), ms(model(false)), ms(model(true))]);
    }
    Sweep {
        name: "zerocopy",
        title: format!(
            "ZERO-COPY TRANSPORT SWEEP — mean per-request overhead over direct \
             execution, {NPROCS} processes, staged-copy ablation vs descriptor-passing \
             zero-copy transport"
        ),
        scale: scale_down,
        rows,
        notes: format!(
            "Model prediction (gv-model request_overhead, arbitrary units):\n{}\n\
             Zero-copy drops both GVM staging copies (shm→pinned at SND,\n\
             pinned→shm at RCV) and batches STR flush ACKs to one mq latency\n\
             charge per flush; the client's shm write IS the staging copy.\n",
            m.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_copy_overhead_strictly_below_staged_at_every_payload() {
        // The acceptance gate, at full payload (timing-only tasks
        // make 64 MiB free to simulate).
        for &mib in &PAYLOADS_MIB {
            let p = run_point(&Scenario::default(), mib << 20, NPROCS, false);
            let (zc, staged) = (p.value("zc_overhead_ms"), p.value("staged_overhead_ms"));
            assert!(
                zc < staged,
                "{mib} MiB: zero-copy overhead {zc:.4} ms must be strictly \
                 below staged {staged:.4} ms"
            );
            assert_eq!(
                p.value("zc_snd_copies"),
                0.0,
                "zero-copy must not stage at SND"
            );
            assert!(p.value("staged_snd_copies") > 0.0);
            assert_eq!(
                p.value("zc_copy_ms"),
                0.0,
                "no GVM-side staging copies under zc"
            );
        }
    }

    #[test]
    fn zero_copy_traces_are_analyze_clean() {
        let p = run_point(&Scenario::default(), 1 << 20, 4, true);
        assert_eq!(p.clean, Some(true));
    }
}
