//! The coroutine engine seen from outside: stack headroom, engine-thread
//! reuse, and simulations that run inside or beside one another.
//!
//! The engine-thread pool is process-wide, so every test here takes
//! [`SERIAL`]: no concurrently running test takes or returns an engine
//! thread behind another's back.

use std::sync::Arc;
use std::thread::ThreadId;

use gv_sim::{SimChannel, SimDuration, SimError, Simulation, Summary};
use parking_lot::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Recurse through `depth` frames of 4 KiB each, holding at the bottom so
/// the process is switched out and back in with its stack that deep.
fn deep(ctx: &mut gv_sim::Ctx, depth: usize) -> u64 {
    let mut frame = [0u8; 4096];
    frame[depth % 4096] = depth as u8;
    std::hint::black_box(&mut frame);
    if depth == 0 {
        ctx.hold(SimDuration::from_nanos(1));
        return frame[0] as u64;
    }
    deep(ctx, depth - 1) + frame[depth % 4096] as u64
}

#[test]
fn a_process_can_use_a_mebibyte_of_stack() {
    let _serial = SERIAL.lock();
    let mut sim = Simulation::new();
    for p in 0..2 {
        sim.spawn(&format!("deep-{p}"), |ctx| {
            // 256 frames of 4 KiB: about 1 MiB below the body's frame.
            let sum = deep(ctx, 256);
            assert_eq!(sum, (1..=256u64).map(|d| d % 256).sum::<u64>());
        });
    }
    let s = sim.run().unwrap();
    assert!(s.completed);
    assert_eq!(s.end_time.as_nanos(), 1);
}

/// The engine thread each of `names` ran on.
fn engine_threads(names: &[&str]) -> Vec<ThreadId> {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    for (i, name) in names.iter().enumerate() {
        let seen = Arc::clone(&seen);
        sim.spawn(name, move |ctx| {
            ctx.hold(SimDuration::from_micros(i as u64 + 1));
            seen.lock().push(std::thread::current().id());
        });
    }
    assert!(sim.run().unwrap().completed);
    let seen = seen.lock().clone();
    seen
}

#[test]
fn back_to_back_runs_share_one_engine_thread() {
    let _serial = SERIAL.lock();
    let first = engine_threads(&["w0", "w1", "w2", "w3"]);
    assert!(first.iter().all(|t| *t == first[0]), "a run spans threads");
    assert_ne!(first[0], std::thread::current().id(), "ran on the caller");
    // The engine thread is idle again once `run` returns.
    assert_eq!(engine_threads(&["again"]), vec![first[0]]);
}

#[test]
fn a_panicking_process_leaves_the_engine_usable() {
    let _serial = SERIAL.lock();
    let mut sim = Simulation::new();
    sim.spawn("bomb", |ctx| {
        ctx.hold(SimDuration::from_micros(1));
        panic!("boom");
    });
    sim.spawn("bystander", |ctx| ctx.hold(SimDuration::from_secs(1)));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bomb"),
        other => panic!("expected a panic report, got {other:?}"),
    }
    assert_eq!(engine_threads(&["after"]).len(), 1);
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
fn a_simulation_runs_inside_another_simulations_process() {
    let _serial = SERIAL.lock();
    let solo = workload(3);
    let inner = Arc::new(Mutex::new(None));
    let mut sim = Simulation::new();
    let slot = Arc::clone(&inner);
    sim.spawn("host", move |ctx| {
        ctx.hold(SimDuration::from_nanos(5));
        *slot.lock() = Some(workload(3));
        ctx.hold(SimDuration::from_nanos(5));
    });
    sim.spawn("peer", |ctx| ctx.hold(SimDuration::from_nanos(7)));
    let outer = sim.run().unwrap();
    assert_eq!(outer.end_time.as_nanos(), 10);
    // host: spawn + two timers; peer: spawn + one timer.
    assert_eq!(outer.events_processed, 5);
    assert_eq!(inner.lock().take().expect("inner run finished"), solo);
}

#[test]
fn simulations_on_two_threads_match_their_serial_runs() {
    let _serial = SERIAL.lock();
    let serial = [workload(3), workload(5)];
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
        for (run, want) in runs.into_iter().zip(&serial) {
            assert_eq!(&run.join().unwrap(), want);
        }
    }
}
