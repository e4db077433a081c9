//! Regenerate the paper's execution diagrams (Figs. 4–6) as measured
//! ASCII Gantt charts: conventional sharing serializes context episodes
//! (Fig. 4); virtualized compute-intensive tasks overlap kernels (Fig. 5);
//! virtualized I/O-intensive tasks pipeline transfers (Fig. 6).

use gv_harness::repro;
use gv_harness::scenario::{ExecutionMode, Scenario};
use gv_kernels::{Benchmark, BenchmarkId};

fn main() {
    let scale = repro::scale_from_args().max(8); // diagrams read best scaled
    let sc = Scenario::traced();
    let n = 3;

    let show = |title: &str, id: BenchmarkId, mode: ExecutionMode| -> String {
        let task = Benchmark::scaled_task(id, &sc.device, scale);
        let r = sc.run_uniform(mode, &task, n);
        // Also persist a Chrome-trace JSON per diagram (open in Perfetto).
        if let Some(tracer) = &r.tracer {
            let fname = format!(
                "trace_{:?}_{}.json",
                id,
                match mode {
                    ExecutionMode::Direct => "direct",
                    ExecutionMode::Virtualized => "gvm",
                }
            );
            gv_harness::report::write(&fname, &tracer.to_chrome_trace());
        }
        let tl = r.timeline.as_ref().expect("traced scenario");
        format!(
            "{title}\n({} processes, {}, turnaround {:.1} ms)\n\n{}\n\
             kernels overlap: {} | copy overlaps foreign kernel: {} | bidirectional DMA: {}\n",
            n,
            mode,
            r.turnaround_ms,
            tl.render_gantt(96),
            tl.kernels_overlap(),
            tl.copy_overlaps_foreign_kernel(),
            tl.bidirectional_overlap(),
        )
    };

    let mut text = String::new();
    text.push_str(&show(
        "FIGURE 4 — CONVENTIONAL SHARING (EP): context-switch serialization",
        BenchmarkId::Ep,
        ExecutionMode::Direct,
    ));
    text.push('\n');
    text.push_str(&show(
        "FIGURE 5 — VIRTUALIZED COMPUTE-INTENSIVE (EP): concurrent kernels",
        BenchmarkId::Ep,
        ExecutionMode::Virtualized,
    ));
    text.push('\n');
    text.push_str(&show(
        "FIGURE 6 — VIRTUALIZED I/O-INTENSIVE (VectorAdd): pipelined transfers",
        BenchmarkId::VecAdd,
        ExecutionMode::Virtualized,
    ));
    println!("{text}");
    gv_harness::report::save("fig4_6", &text, None);
}
