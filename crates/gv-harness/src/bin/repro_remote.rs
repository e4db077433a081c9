//! Local virtualization vs remote-GPU middleware (extension, paper §II).
use gv_harness::report::{ms, TextTable};
use gv_harness::scenario::Scenario;
use gv_harness::{remote_compare, repro};
use gv_kernels::BenchmarkId;

fn main() {
    let scale = repro::scale_from_args();
    let sc = Scenario::default();
    let mut t = TextTable::new(vec![
        "Benchmark",
        "n",
        "direct (ms)",
        "GVM (ms)",
        "remote IB (ms)",
        "remote GbE (ms)",
    ]);
    for id in [BenchmarkId::VecAdd, BenchmarkId::Ep] {
        for n in [1usize, 4, 8] {
            let p = remote_compare::compare(&sc, id, n, scale);
            t.row(vec![
                p.benchmark.clone(),
                n.to_string(),
                ms(p.direct_ms),
                ms(p.gvm_ms),
                ms(p.remote_ib_ms),
                ms(p.remote_eth_ms),
            ]);
        }
    }
    let text = format!(
        "REMOTE-GPU COMPARISON (extension; scale 1/{scale})\n\n{}\n\
         The paper's §II argument, quantified: remote middleware eliminates\n\
         context switching like the GVM does, so compute-bound workloads are\n\
         wire-insensitive — but I/O-bound workloads pay the interconnect on\n\
         every byte, where the GVM's node-local shared memory does not.\n",
        t.render()
    );
    println!("{text}");
    gv_harness::report::save("remote_compare", &text, Some(&t.to_csv()));
}
