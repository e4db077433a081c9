//! Property tests for the simulation kernel: identical programs produce
//! identical schedules, and synchronization primitives conserve work.

use std::sync::Arc;

use gv_sim::{
    DecisionLog, OracleHandle, RandomOracle, RecvTimeout, SchedOracle, ScriptOracle, Semaphore,
    SimBarrier, SimChannel, SimDuration, Simulation,
};
use parking_lot::Mutex;
use proptest::prelude::*;

/// A producer sending at the given microsecond gaps into a consumer that
/// does timed receives; return the consumer's `(time_ns, outcome)` trace.
fn run_timed_recv(gaps: &[u64], timeout_us: u64) -> Vec<(u64, String)> {
    let mut sim = Simulation::new();
    let chan: SimChannel<u64> = SimChannel::unbounded();
    let trace: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let tx = chan.clone();
    let gaps_tx = gaps.to_vec();
    sim.spawn("producer", move |ctx| {
        for (i, &gap) in gaps_tx.iter().enumerate() {
            ctx.hold(SimDuration::from_micros(gap));
            let _ = tx.send(ctx, i as u64);
        }
        tx.close(ctx);
    });
    let n = gaps.len();
    let trace2 = trace.clone();
    sim.spawn("consumer", move |ctx| {
        let mut got = 0usize;
        // Bounded by total messages plus the timeouts it can possibly see.
        while got < n {
            let out = match chan.recv_timeout(ctx, SimDuration::from_micros(timeout_us)) {
                RecvTimeout::Msg(v) => {
                    got += 1;
                    format!("msg {v}")
                }
                RecvTimeout::TimedOut => "timeout".to_string(),
                RecvTimeout::Closed => break,
            };
            trace2.lock().push((ctx.now().as_nanos(), out));
        }
    });
    sim.run().unwrap();
    let t = trace.lock().clone();
    t
}

/// What one run of a hold program observably did: completion order, end
/// time (ns) and scheduling steps.
type Outcome = (Vec<usize>, u64, u64);

/// Run a program of per-process hold sequences, under `oracle` if given.
fn run_program_with(holds: &[Vec<u64>], oracle: Option<OracleHandle>) -> Outcome {
    let mut sim = Simulation::new();
    if let Some(oracle) = oracle {
        sim.set_oracle(oracle);
    }
    let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    for (i, seq) in holds.iter().enumerate() {
        let seq = seq.clone();
        let order = order.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            for &us in &seq {
                ctx.hold(SimDuration::from_micros(us));
            }
            order.lock().push(i);
        });
    }
    let summary = sim.run().unwrap();
    let order = order.lock().clone();
    (order, summary.end_time.as_nanos(), summary.events_processed)
}

fn run_program(holds: &[Vec<u64>]) -> Outcome {
    run_program_with(holds, None)
}

/// Record a run under `oracle`, replay its decision log, and return both
/// outcomes plus whether the replay was consulted on the same decisions.
fn record_and_replay(
    holds: &[Vec<u64>],
    oracle: OracleHandle,
    log: DecisionLog,
) -> (Outcome, Outcome, bool) {
    let recorded = run_program_with(holds, Some(oracle));
    let replayer = ScriptOracle::replay(log.choices());
    let replay_log = replayer.log();
    let replayed = run_program_with(holds, Some(replayer.into_handle()));
    (recorded, replayed, replay_log.snapshot() == log.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Re-running the same program yields the identical schedule — the
    /// same completion order, end time and number of scheduling steps.
    #[test]
    fn schedules_are_reproducible(
        holds in prop::collection::vec(prop::collection::vec(0u64..500, 0..8), 1..6)
    ) {
        let a = run_program(&holds);
        let b = run_program(&holds);
        prop_assert_eq!(a, b);
    }

    /// A recording oracle changes nothing: a recording run equals the
    /// oracle-free run, and replaying its log (or a random oracle's)
    /// reproduces the run and the decisions it was asked.
    #[test]
    fn recorded_schedules_replay(
        holds in prop::collection::vec(prop::collection::vec(0u64..50, 0..8), 1..6),
        seed in 1u64..1_000,
    ) {
        let recorder = ScriptOracle::recording();
        let log = recorder.log();
        let (recorded, replayed, same) = record_and_replay(&holds, recorder.into_handle(), log);
        prop_assert_eq!(&recorded, &run_program(&holds));
        prop_assert_eq!(&recorded, &replayed);
        prop_assert!(same, "replay consulted on different decisions");

        let random = RandomOracle::seeded(seed);
        let log = random.log();
        let (recorded, replayed, same) = record_and_replay(&holds, random.into_handle(), log);
        prop_assert_eq!(&recorded, &replayed);
        prop_assert!(same, "random replay consulted on different decisions");
    }

    /// End time equals the maximum per-process hold total (processes are
    /// independent), regardless of interleaving.
    #[test]
    fn end_time_is_max_of_sums(
        holds in prop::collection::vec(prop::collection::vec(0u64..500, 0..8), 1..6)
    ) {
        let (_, end_ns, _) = run_program(&holds);
        let want: u64 = holds
            .iter()
            .map(|seq| seq.iter().sum::<u64>() * 1_000)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(end_ns, want);
    }

    /// A k-server semaphore over n identical jobs behaves like a makespan
    /// scheduler: total time = ceil(n / k) × job (work conservation).
    #[test]
    fn semaphore_conserves_work(jobs in 1usize..12, permits in 1usize..4, job_ms in 1u64..20) {
        let mut sim = Simulation::new();
        let sem = Semaphore::new(permits);
        for i in 0..jobs {
            let sem = sem.clone();
            sim.spawn(&format!("j{i}"), move |ctx| {
                sem.acquire(ctx);
                ctx.hold(SimDuration::from_millis(job_ms));
                sem.release(ctx);
            });
        }
        let end = sim.run().unwrap().end_time.as_nanos();
        let waves = jobs.div_ceil(permits) as u64;
        prop_assert_eq!(end, waves * job_ms * 1_000_000);
    }

    /// Timed receives are part of the deterministic schedule: the same
    /// producer gaps and the same timeout replay the identical
    /// `(virtual-time, outcome)` trace — including which polls time out —
    /// and every message is eventually delivered exactly once, in order.
    #[test]
    fn timed_receives_replay_identically(
        gaps in prop::collection::vec(0u64..300, 1..10),
        timeout_us in 1u64..200,
    ) {
        let a = run_timed_recv(&gaps, timeout_us);
        let b = run_timed_recv(&gaps, timeout_us);
        prop_assert_eq!(&a, &b);
        let msgs: Vec<&String> = a.iter()
            .map(|(_, s)| s)
            .filter(|s| s.starts_with("msg"))
            .collect();
        let want: Vec<String> = (0..gaps.len()).map(|i| format!("msg {i}")).collect();
        prop_assert_eq!(msgs, want.iter().collect::<Vec<_>>());
    }

    /// A barrier releases everyone exactly at the last arrival, for any
    /// arrival pattern.
    #[test]
    fn barrier_release_time_is_last_arrival(arrivals in prop::collection::vec(0u64..1000, 2..8)) {
        let n = arrivals.len();
        let mut sim = Simulation::new();
        let bar = SimBarrier::new(n);
        let releases: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let last = *arrivals.iter().max().unwrap();
        for (i, &a) in arrivals.iter().enumerate() {
            let bar = bar.clone();
            let releases = releases.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.hold(SimDuration::from_micros(a));
                bar.wait(ctx);
                releases.lock().push(ctx.now().as_nanos());
            });
        }
        sim.run().unwrap();
        let releases = releases.lock().clone();
        prop_assert_eq!(releases.len(), n);
        for r in releases {
            prop_assert_eq!(r, last * 1_000);
        }
    }
}
