//! Systematic schedule exploration (DPOR-lite model checking) over the
//! deterministic simulator.
//!
//! The engine consults a [`SchedOracle`] at every point where more than one
//! continuation is possible (a run queue with ≥2 ready processes, a timer
//! tie). A schedule is therefore fully determined by its *choice vector* —
//! the sequence of candidate indices the oracle returned — and index `0`
//! always reproduces the engine's historical FIFO/arm-order behavior. The
//! explorer drives a scenario through many choice vectors and runs the full
//! checker suite over every resulting trace:
//!
//! * **DFS mode** — loom/shuttle-style stateless search: run the baseline
//!   (all zeros), then branch at every decision whose alternatives fit the
//!   *preemption bound* (number of non-default choices per schedule). A
//!   sleep-set-style reduction keyed on the engine's vector clocks prunes
//!   alternatives that provably commute with the step taken: if candidate
//!   `p` reappears at the next decision with an unchanged clock, the chosen
//!   step neither woke, blocked, nor synchronized with `p`, so running `p`
//!   first reaches the same state the later branch will explore anyway.
//! * **Random mode** — seeded random walks (the same xorshift64* generator
//!   as [`RandomOracle`](gv_sim::RandomOracle)) as a fallback for state
//!   spaces too wide to enumerate.
//!
//! Distinct behaviors are counted by fingerprinting each run's analysis
//! trace, so two choice vectors that collapse to the same execution count
//! once. On the first failing schedule the explorer greedily *shrinks* the
//! choice vector — re-running with each non-default choice reverted — to a
//! minimal counterexample that still trips the same checker, and packages
//! it as a replayable `.gvsched` file (see [`Schedule`]).

use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use gv_cuda::CudaDevice;
use gv_gpu::{DeviceConfig, GpuDevice};
use gv_ipc::{Node, NodeConfig};
use gv_kernels::vecadd;
use gv_sim::{
    AnalysisRecord, Decision, SchedOracle, ScriptOracle, SimDuration, SimError, SimTime,
    Simulation, Summary,
};
use gv_virt::fault::{FaultPlan, FaultSpec, QueueSel};
use gv_virt::{ClientPolicy, Gvm, GvmConfig, VgpuClient};

use crate::{analyze, Diagnostic};

/// One execution of a scenario under a scripted schedule.
pub struct ExploredRun {
    /// Analysis records the run produced.
    pub records: Vec<AnalysisRecord>,
    /// Run statistics when the engine returned normally.
    pub summary: Option<Summary>,
    /// The engine error when it did not (deadlock, process panic).
    pub error: Option<SimError>,
    /// Every scheduling decision taken, including candidates and clocks.
    pub decisions: Vec<Decision>,
}

impl ExploredRun {
    /// The full diagnostic set for this run: the seven trace checkers plus
    /// two synthetic findings only the explorer can produce — a process
    /// panic under a legal reordering (`panic`) and a run that outlived the
    /// exploration horizon (`horizon`).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut diags = analyze(&self.records).diagnostics;
        let end = self
            .summary
            .as_ref()
            .map_or_else(|| SimTime::from_nanos(0), |s| s.end_time);
        match &self.error {
            Some(SimError::ProcessPanicked { name, message }) => diags.push(Diagnostic {
                checker: "panic",
                time: end,
                message: format!("process '{name}' panicked under this schedule: {message}"),
            }),
            Some(SimError::Deadlock { .. }) | None => {}
        }
        if self.error.is_none() && self.summary.as_ref().is_some_and(|s| !s.completed) {
            diags.push(Diagnostic {
                checker: "horizon",
                time: end,
                message: "schedule did not terminate within the exploration horizon".to_string(),
            });
        }
        diags
    }
}

/// A scenario the explorer knows how to run under an arbitrary schedule.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Stable name used in `.gvsched` files and on the command line.
    pub name: &'static str,
    /// One-line description for listings.
    pub about: &'static str,
    runner: fn(&[u32], SimDuration) -> ExploredRun,
}

impl Scenario {
    /// Run this scenario under `choices` with a termination `horizon`.
    pub fn run(&self, choices: &[u32], horizon: SimDuration) -> ExploredRun {
        (self.runner)(choices, horizon)
    }
}

/// Every scenario in the catalog (the seeded-bug scenario only with the
/// `seeded-bug` feature).
pub fn scenarios() -> Vec<Scenario> {
    #[allow(unused_mut)]
    let mut all = vec![
        Scenario {
            name: "vecadd2",
            about: "2-rank functional vecadd through the GVM, fault-free",
            runner: |c, h| vecadd_run(2, 64, c, h, false),
        },
        Scenario {
            name: "vecadd3",
            about: "3-rank functional vecadd through the GVM, fault-free",
            runner: |c, h| vecadd_run(3, 48, c, h, false),
        },
        Scenario {
            name: "vecadd2-faulty",
            about: "2-rank vecadd with a dropped request and client retries",
            runner: |c, h| vecadd_run(2, 64, c, h, true),
        },
    ];
    all.push(Scenario {
        name: "quota-pressure",
        about: "4 staggered quota'd ranks oversubscribing a tiny device with demand-swap",
        runner: quota_pressure_run,
    });
    #[cfg(feature = "seeded-bug")]
    all.push(Scenario {
        name: "bug-lost-wakeup",
        about: "deliberately stale flag check racing a notify (test-only)",
        runner: bug_lost_wakeup_run,
    });
    all
}

/// Look up a scenario by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Run `build`'s simulation under the scripted schedule `choices`.
///
/// This is the generic harness the catalog runners use; it is public so
/// tests can explore ad-hoc simulations without registering a scenario.
pub fn run_scripted(
    choices: &[u32],
    horizon: SimDuration,
    build: impl FnOnce(&mut Simulation),
) -> ExploredRun {
    let mut sim = Simulation::new();
    sim.tracer().set_analysis(true);
    let oracle = ScriptOracle::replay(choices.to_vec());
    let log = oracle.log();
    sim.set_oracle(oracle.into_handle());
    build(&mut sim);
    let tracer = sim.tracer();
    let result = sim.run_until(SimTime::from_nanos(0) + horizon);
    let (summary, error) = match result {
        Ok(s) => (Some(s), None),
        Err(e) => (None, Some(e)),
    };
    ExploredRun {
        records: tracer.analysis_snapshot(),
        summary,
        error,
        decisions: log.snapshot(),
    }
}

fn vecadd_run(
    nranks: usize,
    elems: usize,
    choices: &[u32],
    horizon: SimDuration,
    faulty: bool,
) -> ExploredRun {
    run_scripted(choices, horizon, |sim| {
        let cfg = DeviceConfig::tesla_c2070_paper();
        let device = GpuDevice::install(sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());

        let inputs: Vec<(Vec<f32>, Vec<f32>)> = (0..nranks)
            .map(|r| {
                let a: Vec<f32> = (0..elems).map(|i| (i + r * 1000) as f32).collect();
                let b: Vec<f32> = (0..elems).map(|i| (i * 2) as f32).collect();
                (a, b)
            })
            .collect();
        let tasks: Vec<_> = inputs
            .iter()
            .map(|(a, b)| vecadd::functional_task(&cfg, a, b))
            .collect();

        let config = if faulty {
            GvmConfig::fault_tolerant(nranks)
        } else {
            GvmConfig::new(nranks)
        };
        let handle = Gvm::install(sim, &node, &cuda, config, tasks);
        if faulty {
            // Drop the first request-queue send: the client's timeout and
            // retry path must converge under any legal interleaving.
            FaultPlan::new(0)
                .push(FaultSpec::MqDrop {
                    queue: QueueSel::Request,
                    nth: 0,
                })
                .install(&handle, &device);
        }
        for rank in 0..nranks {
            let handle = handle.clone();
            let inputs = inputs.clone();
            node.spawn_pinned(sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let (a, b) = &inputs[rank];
                if faulty {
                    let client = VgpuClient::connect_with_policy(
                        ctx,
                        &handle,
                        rank,
                        ClientPolicy::with_timeout(SimDuration::from_millis(10), 8),
                    );
                    if let Ok((_run, out)) = client.try_run_task(ctx) {
                        let got = vecadd::decode_output(&out.expect("functional output"));
                        assert_eq!(got, vecadd::reference(a, b), "rank {rank} output wrong");
                    }
                } else {
                    let client = VgpuClient::connect(ctx, &handle, rank);
                    let (_run, out) = client.run_task(ctx);
                    let got = vecadd::decode_output(&out.expect("functional output"));
                    assert_eq!(got, vecadd::reference(a, b), "rank {rank} output wrong");
                }
            })
            .unwrap();
        }
        let h2 = handle.clone();
        let dev2 = device.clone();
        sim.spawn("supervisor", move |ctx| {
            h2.done.wait(ctx);
            dev2.shutdown(ctx);
        });
    })
}

/// Quota-pressure scenario: four staggered quota'd ranks share a device
/// deliberately sized at ~1.5 working sets, with demand-swap on and FCFS
/// dispatch. Rank 0 seeds a parked working set; ranks 1 and 2 wake at the
/// same instant and race for the leftover memory — whichever is served
/// first demand-swaps rank 0's parked set out and wins, the other takes a
/// clean OOM NAK (there is nothing idle left to evict); rank 3 arrives
/// last and swap-*ins* rank 0's shape. Every interleaving must stay
/// deadlock-free — a swap-in must never wait on admission backpressure —
/// and every trace must satisfy the quota checker.
fn quota_pressure_run(choices: &[u32], horizon: SimDuration) -> ExploredRun {
    use gv_virt::{MemQuota, SchedPolicy};
    run_scripted(choices, horizon, |sim| {
        let elems = [48usize, 40, 40, 48];
        let mut cfg = DeviceConfig::tesla_c2070_paper();
        // vecadd's device working set is 12 bytes/element: size the device
        // at the largest set plus half the smallest so no two fit at once.
        let sets: Vec<u64> = elems.iter().map(|&n| 12 * n as u64).collect();
        cfg.global_mem_bytes =
            sets.iter().copied().max().unwrap() + sets.iter().copied().min().unwrap() / 2;
        let device = GpuDevice::install(sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());

        let inputs: Vec<(Vec<f32>, Vec<f32>)> = elems
            .iter()
            .enumerate()
            .map(|(r, &n)| {
                let a: Vec<f32> = (0..n).map(|i| (i + r * 1000) as f32).collect();
                let b: Vec<f32> = (0..n).map(|i| (i * 3) as f32).collect();
                (a, b)
            })
            .collect();
        let tasks: Vec<_> = inputs
            .iter()
            .map(|(a, b)| vecadd::functional_task(&cfg, a, b))
            .collect();
        let quotas: Vec<MemQuota> = tasks
            .iter()
            .map(|t| MemQuota::Bytes(t.device_bytes))
            .collect();

        let config = GvmConfig::new(tasks.len())
            .with_scheduler(SchedPolicy::Fcfs)
            .with_quotas(quotas)
            .with_swap();
        let handle = Gvm::install(sim, &node, &cuda, config, tasks);
        for rank in 0..elems.len() {
            let handle = handle.clone();
            let inputs = inputs.clone();
            node.spawn_pinned(sim, rank, &format!("spmd-{rank}"), move |ctx| {
                let client = VgpuClient::connect_with_policy(
                    ctx,
                    &handle,
                    rank,
                    ClientPolicy::with_timeout(SimDuration::from_millis(10), 8),
                );
                // Rank 0 arrives first; ranks 1 and 2 race at the same
                // instant (which one is served first is a genuine race
                // the explorer can flip — the loser is NAKed either way);
                // rank 3 arrives last to restore the swapped-out shape.
                let hold = [0u64, 5, 5, 10][rank];
                if hold > 0 {
                    ctx.hold(SimDuration::from_millis(hold));
                }
                if let Ok((_run, out)) = client.try_run_task(ctx) {
                    let (a, b) = &inputs[rank];
                    let got = vecadd::decode_output(&out.expect("functional output"));
                    assert_eq!(got, vecadd::reference(a, b), "rank {rank} output wrong");
                }
            })
            .unwrap();
        }
        let h2 = handle.clone();
        let dev2 = device.clone();
        sim.spawn("supervisor", move |ctx| {
            h2.done.wait(ctx);
            dev2.shutdown(ctx);
        });
    })
}

/// Test-only scenario with a deliberately stale flag check: the worker
/// samples the flag at `t=0`, holds, and decides whether to wait based on
/// the *stale* sample. Under the default arm-order timer tie-break the
/// worker reaches its wait before the coordinator's notify and everything
/// is fine; a flipped tie-break delivers the notify into an empty queue and
/// the worker then blocks forever — the canonical lost wakeup.
#[cfg(feature = "seeded-bug")]
fn bug_lost_wakeup_run(choices: &[u32], horizon: SimDuration) -> ExploredRun {
    use gv_sim::CondQueue;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    run_scripted(choices, horizon, |sim| {
        let flag = Arc::new(AtomicBool::new(false));
        let cq = CondQueue::labeled("ready-cq");
        {
            let flag = flag.clone();
            let cq = cq.clone();
            sim.spawn("worker", move |ctx| {
                // BUG under test: sample once, act on the sample later.
                let ready = flag.load(Ordering::SeqCst);
                ctx.hold(SimDuration::from_millis(1));
                if !ready {
                    cq.wait(ctx);
                }
            });
        }
        sim.spawn("coordinator", move |ctx| {
            ctx.hold(SimDuration::from_millis(1));
            flag.store(true, Ordering::SeqCst);
            cq.notify_one(ctx);
        });
    })
}

/// Search strategy for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Bounded DFS over choice vectors with sleep-set pruning.
    Dfs,
    /// Seeded random walks.
    Random,
}

/// Tunables for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum schedules to execute (exploration runs, not shrink runs).
    pub budget: usize,
    /// Maximum non-default choices per schedule (DFS mode).
    pub preemption_bound: usize,
    /// Enable the vector-clock sleep-set reduction (DFS mode).
    pub por: bool,
    /// Walk seed (random mode).
    pub seed: u64,
    /// Search strategy.
    pub mode: Mode,
    /// Per-run simulated-time horizon; a run that exceeds it is reported
    /// as a `horizon` diagnostic.
    pub horizon: SimDuration,
    /// Maximum extra runs the shrinker may spend on a counterexample.
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            budget: 200,
            preemption_bound: 2,
            por: true,
            seed: 1,
            mode: Mode::Dfs,
            horizon: SimDuration::from_secs(10),
            shrink_budget: 64,
        }
    }
}

/// A failing schedule, shrunk and ready to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Scenario that failed.
    pub scenario: String,
    /// Minimal choice vector that still reproduces the failure.
    pub choices: Vec<u32>,
    /// Checker whose diagnostic defines the failure signature.
    pub checker: String,
    /// Rendered diagnostics from the (shrunk) failing run.
    pub diagnostics: Vec<Diagnostic>,
}

impl Counterexample {
    /// Package as a replayable [`Schedule`].
    pub fn schedule(&self) -> Schedule {
        Schedule {
            scenario: self.scenario.clone(),
            expect: Some(self.checker.clone()),
            choices: self.choices.clone(),
        }
    }
}

/// What one call to [`explore`] did.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Scenario explored.
    pub scenario: String,
    /// Schedules actually executed (≤ budget, plus shrink runs).
    pub schedules_run: usize,
    /// Distinct behaviors observed (by trace fingerprint).
    pub distinct: usize,
    /// Alternatives skipped by the sleep-set reduction.
    pub pruned: usize,
    /// First failure found, shrunk — `None` means every schedule was clean.
    pub counterexample: Option<Counterexample>,
}

fn fingerprint(run: &ExploredRun) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    crate::model::to_dump(&run.records).hash(&mut h);
    match &run.error {
        None => 0u8.hash(&mut h),
        Some(SimError::Deadlock { .. }) => 1u8.hash(&mut h),
        Some(SimError::ProcessPanicked { .. }) => 2u8.hash(&mut h),
    }
    h.finish()
}

fn deviations(script: &[u32]) -> usize {
    script.iter().filter(|c| **c != 0).count()
}

/// Explore `scenario` under `cfg`, checking every executed schedule.
pub fn explore(scenario: &Scenario, cfg: &ExploreConfig) -> ExploreOutcome {
    let mut outcome = ExploreOutcome {
        scenario: scenario.name.to_string(),
        schedules_run: 0,
        distinct: 0,
        pruned: 0,
        counterexample: None,
    };
    let mut seen: HashSet<u64> = HashSet::new();

    let check = |outcome: &mut ExploreOutcome,
                 seen: &mut HashSet<u64>,
                 choices: &[u32]|
     -> Option<ExploredRun> {
        let run = scenario.run(choices, cfg.horizon);
        outcome.schedules_run += 1;
        if seen.insert(fingerprint(&run)) {
            outcome.distinct += 1;
        }
        let diags = run.diagnostics();
        if let Some(first) = diags.first() {
            let checker = first.checker.to_string();
            let shrunk = shrink(scenario, choices, &checker, cfg);
            let final_run = scenario.run(&shrunk, cfg.horizon);
            outcome.counterexample = Some(Counterexample {
                scenario: scenario.name.to_string(),
                choices: shrunk,
                checker,
                diagnostics: final_run.diagnostics(),
            });
            return None;
        }
        Some(run)
    };

    match cfg.mode {
        Mode::Random => {
            // Each walk is a seeded scripted prefix rather than a live
            // RandomOracle: the choice vector is then known up front, so a
            // failing walk shrinks and replays exactly like a DFS one.
            for i in 0..cfg.budget {
                let script = random_script(cfg.seed.wrapping_add(i as u64), 64);
                if check(&mut outcome, &mut seen, &script).is_none() {
                    return outcome;
                }
            }
        }
        Mode::Dfs => {
            let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
            while let Some(script) = stack.pop() {
                if outcome.schedules_run >= cfg.budget {
                    break;
                }
                let Some(run) = check(&mut outcome, &mut seen, &script) else {
                    return outcome;
                };
                // Branch at every decision past this script's frozen
                // prefix. Positions inside the prefix are someone else's
                // subtree; freezing them keeps the search free of
                // duplicates without a visited set.
                let d = &run.decisions;
                for i in script.len()..d.len() {
                    for alt in 1..d[i].candidates.len() {
                        if deviations(&script) + 1 > cfg.preemption_bound {
                            continue;
                        }
                        if cfg.por && commutes(d, i, alt) {
                            outcome.pruned += 1;
                            continue;
                        }
                        let mut next = script.clone();
                        next.resize(i, 0);
                        next.push(alt as u32);
                        stack.push(next);
                    }
                }
            }
        }
    }
    outcome
}

/// Sleep-set test: does deferring `candidates[alt]` at decision `i` lose
/// nothing? If the same process shows up at decision `i+1` with an
/// unchanged vector clock, the step actually chosen at `i` did not
/// synchronize with it, so the `alt`-first ordering reaches a state the
/// search will cover from the later decision anyway.
fn commutes(decisions: &[Decision], i: usize, alt: usize) -> bool {
    let Some(next) = decisions.get(i + 1) else {
        return false;
    };
    let cand = &decisions[i].candidates[alt];
    next.candidates
        .iter()
        .any(|n| n.pid == cand.pid && n.clock == cand.clock)
}

/// Deterministic pseudo-random choice vector (xorshift64*, same generator
/// as [`RandomOracle`]). Values are taken modulo each decision's arity at
/// run time by the script oracle's clamping, so large raw values are safe.
fn random_script(seed: u64, len: usize) -> Vec<u32> {
    let mut state = if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    };
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    // Mostly-default walks stay near the interesting frontier; a fully
    // uniform vector almost always degenerates into one giant preemption
    // storm that the checkers reject as a horizon timeout.
    (0..len)
        .map(|_| {
            let r = next();
            if r % 4 == 0 {
                ((r >> 8) % 3) as u32
            } else {
                0
            }
        })
        .collect()
}

/// Greedily shrink `choices` to a minimal vector that still produces a
/// diagnostic from `checker`: repeatedly revert each non-default choice
/// (right to left) and drop trailing defaults, keeping any reduction that
/// preserves the failure, until a fixpoint or the shrink budget runs out.
pub fn shrink(
    scenario: &Scenario,
    choices: &[u32],
    checker: &str,
    cfg: &ExploreConfig,
) -> Vec<u32> {
    let fails = |c: &[u32], spent: &mut usize| -> bool {
        *spent += 1;
        scenario
            .run(c, cfg.horizon)
            .diagnostics()
            .iter()
            .any(|d| d.checker == checker)
    };
    let trim = |mut c: Vec<u32>| -> Vec<u32> {
        while c.last() == Some(&0) {
            c.pop();
        }
        c
    };

    let mut best = trim(choices.to_vec());
    let mut spent = 0usize;
    let mut changed = true;
    while changed && spent < cfg.shrink_budget {
        changed = false;
        for i in (0..best.len()).rev() {
            if best[i] == 0 || spent >= cfg.shrink_budget {
                continue;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            let cand = trim(cand);
            if fails(&cand, &mut spent) {
                best = cand;
                changed = true;
            }
        }
    }
    best
}

/// A parsed `.gvsched` replay file: which scenario to run, the choice
/// vector to script, and (optionally) the checker the replay is expected
/// to trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Catalog name of the scenario.
    pub scenario: String,
    /// Checker expected to fire on replay, if recorded.
    pub expect: Option<String>,
    /// The choice vector (`-` in the file encodes an empty vector).
    pub choices: Vec<u32>,
}

/// Header line of the `.gvsched` format.
pub const SCHED_HEADER: &str = "gv-explore-schedule v1";

impl Schedule {
    /// Serialize to the `.gvsched` text format.
    pub fn encode(&self) -> String {
        let mut out = format!("{SCHED_HEADER}\nscenario {}\n", self.scenario);
        if let Some(e) = &self.expect {
            out.push_str(&format!("expect {e}\n"));
        }
        let list = if self.choices.is_empty() {
            "-".to_string()
        } else {
            self.choices
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!("choices {list}\n"));
        out
    }

    /// Parse the `.gvsched` text format (blank lines and `#` comments are
    /// ignored).
    pub fn decode(text: &str) -> Result<Schedule, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        if lines.next() != Some(SCHED_HEADER) {
            return Err(format!("missing header '{SCHED_HEADER}'"));
        }
        let mut scenario = None;
        let mut expect = None;
        let mut choices = None;
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "scenario" => scenario = Some(rest.to_string()),
                "expect" => expect = Some(rest.to_string()),
                "choices" => {
                    let parsed = if rest == "-" || rest.is_empty() {
                        Vec::new()
                    } else {
                        rest.split(',')
                            .map(|p| {
                                p.trim()
                                    .parse::<u32>()
                                    .map_err(|_| format!("bad choice '{p}'"))
                            })
                            .collect::<Result<Vec<_>, _>>()?
                    };
                    choices = Some(parsed);
                }
                other => return Err(format!("unknown directive '{other}'")),
            }
        }
        Ok(Schedule {
            scenario: scenario.ok_or("missing 'scenario' line")?,
            expect,
            choices: choices.ok_or("missing 'choices' line")?,
        })
    }

    /// Re-execute this schedule and report what the checkers said.
    pub fn replay(&self, horizon: SimDuration) -> Result<ReplayResult, String> {
        let scenario = find_scenario(&self.scenario)
            .ok_or_else(|| format!("unknown scenario '{}'", self.scenario))?;
        let run = scenario.run(&self.choices, horizon);
        let diagnostics = run.diagnostics();
        let expected_hit = self
            .expect
            .as_ref()
            .map(|e| diagnostics.iter().any(|d| d.checker == *e));
        Ok(ReplayResult {
            diagnostics,
            expected_hit,
            run,
        })
    }
}

/// Outcome of replaying a [`Schedule`].
pub struct ReplayResult {
    /// Diagnostics the replayed schedule produced.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the expected checker fired (`None` when none was recorded).
    pub expected_hit: Option<bool>,
    /// The full re-executed run.
    pub run: ExploredRun,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gvsched_roundtrip() {
        let s = Schedule {
            scenario: "vecadd2".to_string(),
            expect: Some("deadlock".to_string()),
            choices: vec![0, 0, 3, 1],
        };
        assert_eq!(Schedule::decode(&s.encode()).unwrap(), s);
        let empty = Schedule {
            scenario: "vecadd2".to_string(),
            expect: None,
            choices: Vec::new(),
        };
        assert_eq!(Schedule::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn gvsched_rejects_garbage() {
        assert!(Schedule::decode("").is_err());
        assert!(Schedule::decode("gv-explore-schedule v2\nscenario x\nchoices -\n").is_err());
        assert!(Schedule::decode(&format!("{SCHED_HEADER}\nchoices -\n")).is_err());
        assert!(
            Schedule::decode(&format!("{SCHED_HEADER}\nscenario x\nchoices 1,zebra\n")).is_err()
        );
    }

    #[test]
    fn random_script_is_deterministic() {
        assert_eq!(random_script(7, 32), random_script(7, 32));
        assert_ne!(random_script(7, 32), random_script(8, 32));
    }
}
