//! Regenerate every table and figure of the paper's evaluation, plus the
//! execution-diagram figures and the extension studies.
//!
//! Flags: `--quick` / `--scale N` shrink costs; `--analyze` additionally
//! runs the `gv-analyze` checkers over representative traces and fails
//! (exit 1) on any diagnostic; `--dump-trace` (with `--analyze`) saves
//! each analyzed trace under `results/` for the `gv-analyze` binary.
use std::process::ExitCode;

use gv_harness::scenario::Scenario;
use gv_harness::{analysis, overhead, repro};

fn main() -> ExitCode {
    let scale = repro::scale_from_args();
    let sc = Scenario::default();
    let artifacts = vec![
        repro::table2(&sc, scale),
        repro::table3(&sc, scale),
        repro::table4(),
        repro::fig9(&sc, scale),
        repro::fig10(
            &sc,
            &overhead::paper_sizes()
                .into_iter()
                .map(|s| (s / scale as u64).max(1))
                .collect::<Vec<_>>(),
        ),
        repro::fig11_15(&sc, scale, None),
        repro::fig16(&sc, scale),
    ];
    for a in &artifacts {
        println!("{}\n", a.text);
        a.save();
    }
    println!("(artifacts saved under results/; run repro_fig4_6, repro_ablations");
    println!(" and repro_sensitivity for the execution diagrams and extensions)");

    if repro::has_flag("--analyze") {
        let scenarios = analysis::run_all(scale);
        let (text, clean) = analysis::render(&scenarios);
        println!("\n{text}");
        gv_harness::report::save("analyze", &text, None);
        if repro::has_flag("--dump-trace") {
            analysis::dump_traces(&scenarios);
        }
        if !clean {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
