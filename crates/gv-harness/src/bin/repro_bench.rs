//! Run the extension sweeps ([`gv_harness::SWEEPS`]: pipeline,
//! pipeline_steady, zerocopy, coalesce, quota, ft, sched, cluster); each
//! prints its table and writes `results/{name}.txt`, `results/{name}.csv`
//! and `results/BENCH_{name}.json`.
//!
//! ```text
//! repro_bench [--only <name>] [--quick | --scale N] [--analyze]
//! ```
//!
//! `--only` runs one sweep; `--quick` / `--scale N` shrink costs;
//! `--analyze` records every run's trace and checks it with `gv-analyze`.
//! Exits 1 only when the analyzer reports a diagnostic (the sweeps'
//! acceptance gates are their unit tests) and 2 on a bad flag.
use std::process::ExitCode;

use gv_harness::scenario::Scenario;
use gv_harness::{repro, SweepFn, SWEEPS};

/// The sweeps `--only` selects (all of them without it).
fn select(args: &[String]) -> Result<Vec<(&'static str, SweepFn)>, String> {
    let Some(i) = args.iter().position(|a| a == "--only") else {
        return Ok(SWEEPS.to_vec());
    };
    let names: Vec<&str> = SWEEPS.iter().map(|(n, _)| *n).collect();
    match args.get(i + 1) {
        Some(want) => SWEEPS
            .iter()
            .find(|(n, _)| n == want)
            .map(|&s| vec![s])
            .ok_or_else(|| format!("unknown sweep {want:?} (have: {})", names.join(", "))),
        None => Err(format!("--only needs one of: {}", names.join(", "))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let scale = repro::scale_from_args();
    let sweeps = match select(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro_bench: {e}");
            eprintln!("usage: repro_bench [--only <name>] [--quick | --scale N] [--analyze]");
            return ExitCode::from(2);
        }
    };
    let analyze = repro::has_flag("--analyze");
    let mut clean = true;
    for (name, run) in sweeps {
        let sweep = run(&Scenario::default(), scale, analyze);
        println!("{}", sweep.text());
        sweep.save();
        if !sweep.clean() {
            eprintln!("gv-analyze diagnostics found in {name} traces — failing");
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
