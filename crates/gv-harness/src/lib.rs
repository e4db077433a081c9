//! # gv-harness — experiment drivers for every table and figure
//!
//! * [`scenario`] — assemble node + device + SPMD group, run one experiment
//! * [`turnaround`] — 1–8-process sweeps (Figs. 9, 11–15) and speedups
//!   (Table III experimental half, Fig. 16)
//! * [`profile`] — microbenchmark profiling (Table II)
//! * [`overhead`] — virtualization-overhead sweep (Fig. 10)
//! * [`timeline`] — per-engine timelines and overlap audits (Figs. 4–6)
//! * [`repro`] — the paper's tables and figures as rendered artifacts
//! * [`analysis`] — the `--analyze` pass: `gv-analyze` checkers over traces
//! * [`ablation`], [`sensitivity`], [`remote_compare`] — extension studies
//!   (mechanism ablations, device/node sensitivity, local vs remote GPU)
//! * [`SWEEPS`] — the extension sweeps beyond the paper, each a module
//!   returning one [`report::Sweep`]: [`pipeline`] (chunked and
//!   steady-state staging), [`zerocopy`], [`coalesce`], [`quota`], [`ft`],
//!   [`sched`], [`cluster`]
//! * [`report`] — text tables and the sweep record's text/CSV/JSON writers
//!
//! Binaries: `repro_table2`, `repro_table3`, `repro_table4`, `repro_fig9`,
//! `repro_fig10`, `repro_fig11_15`, `repro_fig16`, `repro_fig4_6`,
//! `repro_ablations`, `repro_sensitivity`, `repro_remote` and `repro_all`
//! regenerate the paper's artifacts and the extension studies;
//! `repro_bench [--only <name>]` runs the [`SWEEPS`]; `repro_explore`
//! model-checks the exploration catalog. All but `repro_explore` accept
//! `--quick` / `--scale N` for a scaled-down run.

#![warn(missing_docs)]

pub mod ablation;
pub mod analysis;
pub mod cluster;
pub mod coalesce;
pub mod ft;
pub mod overhead;
pub mod pipeline;
pub mod profile;
pub mod quota;
pub mod remote_compare;
pub mod report;
pub mod repro;
pub mod scenario;
pub mod sched;
pub mod sensitivity;
pub mod timeline;
pub mod turnaround;
pub mod zerocopy;

pub use scenario::{ExecutionMode, ExperimentResult, Scenario};
pub use turnaround::{sweep, TurnaroundConfig, TurnaroundPoint, TurnaroundSeries};

/// A sweep runner: base scenario, scale-down divisor, `--analyze`.
pub type SweepFn = fn(&Scenario, u32, bool) -> report::Sweep;

/// The extension sweeps `repro_bench` runs, by name (the `bench` value and
/// file stem of each sweep's artifacts).
pub const SWEEPS: [(&str, SweepFn); 8] = [
    ("pipeline", pipeline::sweep),
    ("pipeline_steady", pipeline::steady_sweep),
    ("zerocopy", zerocopy::sweep),
    ("coalesce", coalesce::sweep),
    ("quota", quota::sweep),
    ("ft", ft::sweep),
    ("sched", sched::sweep),
    ("cluster", cluster::sweep),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_sweep_runs_clean_at_scale_256() {
        for (name, run) in SWEEPS {
            let sweep = run(&Scenario::default(), 256, true);
            assert_eq!(sweep.name, name);
            assert!(!sweep.rows.is_empty(), "{name}: no rows");
            assert!(sweep.clean(), "{name}: gv-analyze diagnostics");
        }
    }
}
