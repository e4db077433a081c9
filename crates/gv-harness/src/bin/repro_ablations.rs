//! Ablation study: contribution of each mechanism (beyond the paper).
use gv_harness::ablation::{self, Ablation};
use gv_harness::report::{ms, x, TextTable};
use gv_harness::repro;
use gv_harness::scenario::Scenario;
use gv_kernels::BenchmarkId;

fn main() {
    let scale = repro::scale_from_args();
    let sc = Scenario::default();
    let n = sc.node.cores;
    let mut table = TextTable::new(vec![
        "Benchmark",
        "Variant",
        "T_vt (ms)",
        "Speedup vs direct",
    ]);
    for id in [BenchmarkId::VecAdd, BenchmarkId::Ep, BenchmarkId::Cg] {
        for p in ablation::sweep(&sc, id, n, scale) {
            table.row(vec![
                p.benchmark.clone(),
                p.ablation.to_string(),
                ms(p.vt_ms),
                x(p.speedup),
            ]);
        }
    }
    let text = format!(
        "ABLATIONS — MECHANISM CONTRIBUTIONS AT {n} PROCESSES (scale 1/{scale})\n\n{}\n\
         Variants: {} / {} / {} / {}\n",
        table.render(),
        Ablation::Full,
        Ablation::NoConcurrentKernels,
        Ablation::UnifiedCopyEngine,
        Ablation::SerialFlush,
    );
    println!("{text}");
    gv_harness::report::save("ablations", &text, Some(&table.to_csv()));
}
