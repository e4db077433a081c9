//! The process-wide worker pool: finished processes hand their OS thread to
//! later spawns, across simulations, without changing any schedule.
//!
//! This binary holds only pool tests, and each takes [`SERIAL`], so no
//! concurrently running test takes or returns workers behind its back.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::thread::ThreadId;

use gv_sim::{SimChannel, SimDuration, SimError, Simulation, Summary};
use parking_lot::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Run one process per name, each recording the thread it ran on.
fn run_named(names: &[&str]) -> BTreeMap<String, ThreadId> {
    let seen = Arc::new(Mutex::new(BTreeMap::new()));
    let mut sim = Simulation::new();
    for (i, name) in names.iter().enumerate() {
        let seen = Arc::clone(&seen);
        sim.spawn(name, move |ctx| {
            ctx.hold(SimDuration::from_micros(i as u64 + 1));
            seen.lock().insert(ctx.name(), std::thread::current().id());
        });
    }
    assert!(sim.run().unwrap().completed);
    let seen = seen.lock().clone();
    seen
}

#[test]
fn a_second_simulation_reuses_the_first_ones_threads() {
    let _serial = SERIAL.lock();
    let names = ["w0", "w1", "w2", "w3"];
    let first = run_named(&names);
    let distinct: HashSet<_> = first.values().collect();
    assert_eq!(distinct.len(), names.len(), "live processes share a thread");
    // Every worker is idle again once `run` returns, and each name goes
    // back to the worker that last ran it.
    let second = run_named(&names);
    assert_eq!(second, first);
    // A name no worker has run takes the most recently idled worker: one
    // of the four the second simulation just returned.
    let fresh = run_named(&["fresh"]);
    assert!(second.values().any(|id| *id == fresh["fresh"]));
}

#[test]
fn a_panicking_process_leaves_its_worker_usable() {
    let _serial = SERIAL.lock();
    let bomb_thread = Arc::new(Mutex::new(None));
    let mut sim = Simulation::new();
    let record = Arc::clone(&bomb_thread);
    sim.spawn("bomb", move |ctx| {
        *record.lock() = Some(std::thread::current().id());
        ctx.hold(SimDuration::from_micros(1));
        panic!("boom");
    });
    sim.spawn("bystander", |ctx| ctx.hold(SimDuration::from_secs(1)));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bomb"),
        other => panic!("expected a panic report, got {other:?}"),
    }
    let bomb_thread = bomb_thread.lock().expect("bomb ran");
    // The next "bomb" runs on the same worker and completes normally.
    let next = run_named(&["bomb"]);
    assert_eq!(next["bomb"], bomb_thread);
}

/// A workload with channels, nested spawns and staggered holds; returns its
/// summary and the `(time, name)` order in which its processes finished.
fn workload(seed: u64) -> (Summary, Vec<(u64, String)>) {
    let done = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let ch: SimChannel<u64> = SimChannel::unbounded();
    for p in 0..8u64 {
        let (ch, done) = (ch.clone(), Arc::clone(&done));
        sim.spawn(&format!("producer-{p}"), move |ctx| {
            for k in 0..50 {
                ctx.hold(SimDuration::from_nanos(1 + (p * 7 + k * seed) % 13));
                ch.send(ctx, p).unwrap();
            }
            let child_done = Arc::clone(&done);
            ctx.spawn(&format!("child-{p}"), move |c| {
                c.hold(SimDuration::from_nanos(p + 1));
                child_done.lock().push((c.now().as_nanos(), c.name()));
            });
            done.lock().push((ctx.now().as_nanos(), ctx.name()));
        });
    }
    let consumer_done = Arc::clone(&done);
    sim.spawn("consumer", move |ctx| {
        for _ in 0..400 {
            ch.recv(ctx).unwrap();
        }
        consumer_done
            .lock()
            .push((ctx.now().as_nanos(), ctx.name()));
    });
    let summary = sim.run().unwrap();
    let order = done.lock().clone();
    (summary, order)
}

#[test]
fn concurrent_simulations_match_their_solo_runs() {
    let _serial = SERIAL.lock();
    let solo = [workload(3), workload(5)];
    for _ in 0..4 {
        let start = Arc::new(std::sync::Barrier::new(2));
        let runs: Vec<_> = [3u64, 5]
            .into_iter()
            .map(|seed| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    workload(seed)
                })
            })
            .collect();
        for (run, want) in runs.into_iter().zip(&solo) {
            assert_eq!(&run.join().unwrap(), want);
        }
    }
}
