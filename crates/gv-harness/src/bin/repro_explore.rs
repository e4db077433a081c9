//! Schedule-exploration driver: model-check the scenario catalog under
//! many interleavings and gate on any checker diagnostic.
//!
//! ```text
//! repro_explore [--scenario a,b,...] [--budget N] [--pb N] [--no-por]
//!               [--mode dfs|random] [--seed N] [--expect-bug]
//! repro_explore --replay <file.gvsched>
//! ```
//!
//! Default pass: DFS-explore every catalog scenario (`vecadd2`, `vecadd3`,
//! `vecadd2-faulty`, plus `bug-lost-wakeup` with the `seeded-bug` feature)
//! under the budget, writing `results/explore.txt` and
//! `results/BENCH_explore.json`. Any counterexample is shrunk, written to
//! `results/counterexample-<scenario>.gvsched`, and fails the run (exit 1)
//! — unless `--expect-bug` is given, in which case the run fails (exit 1)
//! when NO counterexample is found and additionally verifies the shrunk
//! schedule replays to the same diagnostic.
//!
//! `--replay` re-executes a `.gvsched` file and exits 0 iff its recorded
//! expectation (or cleanliness) is reproduced.

use std::process::ExitCode;

use gv_analyze::explore::{explore, find_scenario, scenarios, ExploreConfig, Mode, Schedule};
use gv_harness::report::{self, Row, Sweep, Value};
use gv_sim::SimDuration;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() -> ExitCode {
    if has_flag("-h") || has_flag("--help") {
        eprintln!("usage: repro_explore [--scenario a,b,...] [--budget N] [--pb N] [--no-por]");
        eprintln!("                     [--mode dfs|random] [--seed N] [--expect-bug]");
        eprintln!("       repro_explore --replay <file.gvsched>");
        return ExitCode::from(2);
    }

    if let Some(path) = arg_value("--replay") {
        return replay_file(&path);
    }

    let mut cfg = ExploreConfig::default();
    if let Some(b) = arg_value("--budget").and_then(|v| v.parse().ok()) {
        cfg.budget = b;
    }
    if let Some(pb) = arg_value("--pb").and_then(|v| v.parse().ok()) {
        cfg.preemption_bound = pb;
    }
    if let Some(seed) = arg_value("--seed").and_then(|v| v.parse().ok()) {
        cfg.seed = seed;
    }
    if has_flag("--no-por") {
        cfg.por = false;
    }
    match arg_value("--mode").as_deref() {
        Some("random") => cfg.mode = Mode::Random,
        Some("dfs") | None => cfg.mode = Mode::Dfs,
        Some(other) => {
            eprintln!("unknown --mode '{other}' (dfs|random)");
            return ExitCode::from(2);
        }
    }
    let expect_bug = has_flag("--expect-bug");

    let selected: Vec<String> = match arg_value("--scenario") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => scenarios().iter().map(|s| s.name.to_string()).collect(),
    };

    let mut text = String::new();
    let mut rows: Vec<Row> = Vec::new();
    let mut found_bug = false;
    let mut failed = false;
    text.push_str(&format!(
        "schedule exploration: mode={:?} budget={} pb={} por={}\n\n",
        cfg.mode, cfg.budget, cfg.preemption_bound, cfg.por
    ));
    for name in &selected {
        let Some(scenario) = find_scenario(name) else {
            eprintln!("unknown scenario '{name}' (have: {:?})", scenario_names());
            return ExitCode::from(2);
        };
        let outcome = explore(&scenario, &cfg);
        let verdict = match &outcome.counterexample {
            None => "clean".to_string(),
            Some(c) => format!("FAIL[{}]", c.checker),
        };
        text.push_str(&format!(
            "{:<18} {:>4} schedules, {:>3} distinct behaviors, {:>3} pruned: {}\n",
            scenario.name, outcome.schedules_run, outcome.distinct, outcome.pruned, verdict
        ));
        let cex = &outcome.counterexample;
        rows.push(
            Row::new(scenario.name, Some(cex.is_none()))
                .text("mode", format!("{:?}", cfg.mode))
                .int("budget", cfg.budget as u64)
                .int("preemption_bound", cfg.preemption_bound as u64)
                .int("schedules", outcome.schedules_run as u64)
                .int("distinct", outcome.distinct as u64)
                .int("pruned", outcome.pruned as u64)
                .cell(
                    "counterexample",
                    cex.as_ref()
                        .map_or(Value::Null, |c| Value::Text(c.checker.clone())),
                ),
        );
        if let Some(cex) = outcome.counterexample {
            found_bug = true;
            let sched = cex.schedule();
            let path = format!("results/counterexample-{}.gvsched", scenario.name);
            let _ = std::fs::create_dir_all("results");
            let _ = std::fs::write(&path, sched.encode());
            text.push_str(&format!(
                "  counterexample (choices {:?}) written to {path}\n",
                cex.choices
            ));
            for d in &cex.diagnostics {
                text.push_str(&format!("  {d}\n"));
            }
            // The shrunk schedule must replay to the same diagnostic.
            match sched.replay(SimDuration::from_secs(10)) {
                Ok(r) if r.expected_hit == Some(true) => {
                    text.push_str("  replay reproduces the diagnostic\n");
                }
                _ => {
                    text.push_str("  REPLAY FAILED to reproduce the diagnostic\n");
                    failed = true;
                }
            }
            if !expect_bug {
                failed = true;
            }
        }
    }
    if expect_bug && !found_bug {
        text.push_str("\nexpected a counterexample but every schedule was clean\n");
        failed = true;
    }

    print!("{text}");
    report::save("explore", &text, None);
    let sweep = Sweep {
        name: "explore",
        title: String::new(),
        scale: 1,
        rows,
        notes: String::new(),
    };
    report::write("BENCH_explore.json", &sweep.json());

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn scenario_names() -> Vec<&'static str> {
    scenarios().iter().map(|s| s.name).collect()
}

fn replay_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: cannot read: {e}");
            return ExitCode::from(2);
        }
    };
    let sched = match Schedule::decode(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match sched.replay(SimDuration::from_secs(10)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &result.diagnostics {
        println!("{d}");
    }
    let ok = match result.expected_hit {
        Some(hit) => hit,
        None => result.diagnostics.is_empty(),
    };
    if ok {
        println!(
            "{path}: replay of '{}' matched its recorded outcome",
            sched.scenario
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "{path}: replay of '{}' did NOT match its recorded outcome",
            sched.scenario
        );
        ExitCode::from(1)
    }
}
