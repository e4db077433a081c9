//! The `--analyze` repro pass: run representative scenarios with analysis
//! recording on and check every trace with the `gv-analyze` suite.
//!
//! Each scenario is analyzed separately (a trace is one run; protocol
//! stages and vector clocks do not compose across simulations). The pass
//! is a regression gate: every checked scenario must analyze clean, so CI
//! runs `repro_all --quick --analyze` and fails on any diagnostic.

use gv_kernels::{Benchmark, BenchmarkId};

use crate::scenario::{ExecutionMode, Scenario};

/// One analyzed scenario: its name, the checker report, and the raw
/// records (for `--dump-trace`).
pub struct AnalyzedScenario {
    /// Scenario label (`virt-vecadd-n4`, …).
    pub name: String,
    /// Combined report from all three checkers.
    pub report: gv_analyze::Report,
    /// The trace the report was computed from.
    pub records: Vec<gv_sim::AnalysisRecord>,
}

fn run_one(
    base: &Scenario,
    mode: ExecutionMode,
    id: BenchmarkId,
    n: usize,
    scale_down: u32,
) -> AnalyzedScenario {
    let task = Benchmark::scaled_task(id, &base.device, scale_down.max(1));
    let result = base.run_uniform(mode, &task, n);
    let tracer = result
        .tracer
        .as_ref()
        .expect("analysis scenario has tracer");
    let prefix = match mode {
        ExecutionMode::Direct => "direct",
        ExecutionMode::Virtualized => "virt",
    };
    AnalyzedScenario {
        name: format!(
            "{prefix}-{}-n{n}",
            Benchmark::describe(id).name.to_lowercase()
        ),
        report: result.analysis.expect("analysis scenario has report"),
        records: tracer.analysis_snapshot(),
    }
}

/// Run the analysis pass over a representative scenario set: virtualized
/// and direct execution, an I/O-bound and a compute-bound benchmark, at
/// small and full node width.
pub fn run_all(scale_down: u32) -> Vec<AnalyzedScenario> {
    let base = Scenario::analyzed();
    vec![
        run_one(
            &base,
            ExecutionMode::Virtualized,
            BenchmarkId::VecAdd,
            2,
            scale_down,
        ),
        run_one(
            &base,
            ExecutionMode::Virtualized,
            BenchmarkId::VecAdd,
            8,
            scale_down,
        ),
        run_one(
            &base,
            ExecutionMode::Virtualized,
            BenchmarkId::Ep,
            4,
            scale_down,
        ),
        run_one(
            &base,
            ExecutionMode::Direct,
            BenchmarkId::VecAdd,
            2,
            scale_down,
        ),
    ]
}

/// Run every `gv-analyze` checker over `tracer`'s analysis records and
/// print any diagnostics under the heading `what`; `true` when clean.
pub fn check(tracer: &gv_sim::Tracer, what: &str) -> bool {
    let report = gv_analyze::analyze(&tracer.analysis_snapshot());
    if !report.is_clean() {
        eprintln!("{what}: gv-analyze diagnostics:\n{}", report.render());
    }
    report.is_clean()
}

/// Render the pass result; returns `true` when every scenario is clean.
pub fn render(scenarios: &[AnalyzedScenario]) -> (String, bool) {
    use std::fmt::Write;
    let mut out = String::from("TRACE ANALYSIS (gv-analyze)\n\n");
    let mut clean = true;
    for s in scenarios {
        let _ = writeln!(out, "{}: {}", s.name, s.report.summary());
        for d in &s.report.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        clean &= s.report.is_clean();
    }
    let _ = writeln!(
        out,
        "\n{}",
        if clean {
            "all scenarios clean"
        } else {
            "DIAGNOSTICS FOUND — see above"
        }
    );
    (out, clean)
}

/// Dump every scenario's trace under `results/` in the `gv-analyze`
/// line format, one `trace-<name>.gvtrace` per scenario (best effort).
pub fn dump_traces(scenarios: &[AnalyzedScenario]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create results/; skipping trace dump");
        return;
    }
    for s in scenarios {
        let path = dir.join(format!("trace-{}.gvtrace", s.name));
        if std::fs::write(&path, gv_analyze::model::to_dump(&s.records)).is_err() {
            eprintln!("warning: cannot write {}", path.display());
        } else {
            println!("dumped {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_analysis_pass_is_clean() {
        let base = Scenario::analyzed();
        let s = run_one(
            &base,
            ExecutionMode::Virtualized,
            BenchmarkId::VecAdd,
            2,
            256,
        );
        assert!(s.report.is_clean(), "{}", s.report.render());
        assert!(s.report.proto_messages > 0);
        assert!(!s.records.is_empty());
        assert_eq!(s.name, "virt-vectoradd-n2");
    }

    #[test]
    fn render_reports_clean_verdict() {
        let base = Scenario::analyzed();
        let scenarios = vec![run_one(
            &base,
            ExecutionMode::Direct,
            BenchmarkId::VecAdd,
            2,
            256,
        )];
        let (text, clean) = render(&scenarios);
        assert!(clean, "{text}");
        assert!(text.contains("all scenarios clean"));
    }
}
