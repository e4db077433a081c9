//! Device/width sensitivity study (extension beyond the paper).
use gv_harness::report::{x, TextTable};
use gv_harness::scenario::Scenario;
use gv_harness::{repro, sensitivity};
use gv_kernels::BenchmarkId;

fn main() {
    // Floor at 1/4 scale: eight paper-sized VectorAdd working sets
    // (8 × 600 MB) exceed the GTX 480 preset's 1.5 GB of device memory —
    // the sweep must fit the smallest card it visits.
    let scale = repro::scale_from_args().max(4);
    let sc = Scenario::default();

    let mut t1 = TextTable::new(vec!["Device", "Benchmark", "Speedup @8"]);
    for p in sensitivity::device_sweep(
        &sc,
        &[BenchmarkId::VecAdd, BenchmarkId::Ep, BenchmarkId::Cg],
        8,
        scale,
    ) {
        t1.row(vec![
            p.device.to_string(),
            p.benchmark.clone(),
            x(p.speedup),
        ]);
    }

    let mut t2 = TextTable::new(vec!["Benchmark", "n", "Speedup"]);
    for id in [BenchmarkId::Ep, BenchmarkId::VecAdd] {
        for p in sensitivity::width_sweep(&sc, id, &[1, 2, 4, 6, 8], scale) {
            t2.row(vec![
                p.benchmark.clone(),
                p.nprocs.to_string(),
                x(p.speedup),
            ]);
        }
    }

    let text = format!(
        "SENSITIVITY — DEVICE PRESETS AND NODE WIDTHS (scale 1/{scale})\n\n\
         Across Fermi-generation devices (8 processes):\n{}\n\
         Across node widths (paper C2070):\n{}\n\
         Reading: the virtualization gain tracks asymmetry — more cores per\n\
         GPU and more idle SMs per kernel both raise it; device clock and\n\
         SM-count differences within the Fermi family barely move it.\n",
        t1.render(),
        t2.render()
    );
    println!("{text}");
    gv_harness::report::save("sensitivity", &text, Some(&t1.to_csv()));
}
