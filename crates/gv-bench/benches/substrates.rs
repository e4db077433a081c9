//! Substrate microbenchmarks: simulation-engine event throughput, IPC
//! primitives, the device allocator, and the numerical kernels' host cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gv_cuda::HostBuffer;
use gv_gpu::{DeviceConfig, DeviceMemory};
use gv_ipc::{NodeConfig, ShmRegistry};
use gv_kernels::{blackscholes, cg, ep, mg, vecadd};
use gv_mem::{stage_span, PipelineConfig};
use gv_sim::{SimChannel, SimDuration, Simulation, Summary};

/// Scheduling steps per hold fan-out run.
const FANOUT_EVENTS: u64 = 400_000;

/// `procs` processes that each hold until the run has taken about
/// [`FANOUT_EVENTS`] steps. Hold lengths are staggered per process so the
/// timer heap, not just the run queue, orders the wakes.
fn hold_fanout(procs: u64) -> Summary {
    let holds = FANOUT_EVENTS / procs - 1;
    let mut sim = Simulation::new();
    for p in 0..procs {
        sim.spawn(&format!("p{p}"), move |ctx| {
            for k in 0..holds {
                ctx.hold(SimDuration::from_nanos(1 + (p * 7 + k) % 13));
            }
        });
    }
    sim.run().unwrap()
}

fn sim_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engine");
    g.sample_size(20);
    // Event throughput: two processes ping-pong through a channel.
    g.bench_function("pingpong_1000_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            let ch: SimChannel<u32> = SimChannel::unbounded();
            let ch2 = ch.clone();
            sim.spawn("producer", move |ctx| {
                for i in 0..500u32 {
                    ch2.send(ctx, i).unwrap();
                    ctx.hold(SimDuration::from_nanos(10));
                }
            });
            sim.spawn("consumer", move |ctx| {
                for _ in 0..500 {
                    ch.recv(ctx).unwrap();
                }
            });
            sim.run().unwrap()
        })
    });
    g.bench_function("spawn_join_100_processes", |b| {
        b.iter(|| {
            let mut sim = Simulation::new();
            for i in 0..100 {
                sim.spawn(&format!("p{i}"), |ctx| {
                    ctx.hold(SimDuration::from_micros(1));
                });
            }
            sim.run().unwrap()
        })
    });
    // Event throughput against process count: divide ms/iter by the
    // printed step count for µs/event.
    g.sample_size(3);
    for procs in [16u64, 512, 4096] {
        let events = hold_fanout(procs).events_processed;
        g.bench_function(&format!("hold_fanout_{procs}p_{events}_events"), |b| {
            b.iter(|| hold_fanout(procs))
        });
    }
    g.finish();
}

fn allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocator");
    g.bench_function("alloc_free_churn_1000", |b| {
        b.iter_batched(
            || DeviceMemory::new(64 << 20),
            |mut mem| {
                let mut live = Vec::new();
                for i in 0..1000u64 {
                    live.push(mem.alloc(1024 + (i % 7) * 512).unwrap());
                    if i % 3 == 0 {
                        let p = live.swap_remove((i as usize * 7) % live.len());
                        mem.dealloc(p).unwrap();
                    }
                }
                for p in live {
                    mem.dealloc(p).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn kernels_host(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels_host");
    g.sample_size(10);
    g.bench_function("ep_reference_2^16", |b| b.iter(|| ep::reference(16)));
    g.bench_function("mg_vcycle_16^3", |b| {
        let v = mg::class_s_rhs(16);
        let u = mg::Grid3::zeros(16);
        b.iter(|| mg::v_cycle(&u, &v))
    });
    g.bench_function("cg_solve_300x25", |b| {
        let a = cg::make_matrix(300, 7, 42);
        let x = vec![1.0; 300];
        b.iter(|| cg::cg_solve(&a, &x, 25))
    });
    g.bench_function("blackscholes_10k", |b| {
        let (s, x, t) = blackscholes::generate_options(10_000, 1);
        b.iter(|| blackscholes::reference(&s, &x, &t))
    });
    // The functional byte path apart from the engine: one vecadd body in
    // place over its device region, and one 8 MiB payload staged
    // shm → pinned → shm in four spans.
    g.bench_function("vecadd_body_1M", |b| {
        let n = 1 << 20;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let task = vecadd::functional_task(&DeviceConfig::tesla_c2070_paper(), &a, &a);
        let mut mem = DeviceMemory::new(task.device_bytes);
        let base = mem.alloc(task.device_bytes).unwrap();
        mem.write_bytes(base, task.input.as_ref().unwrap()).unwrap();
        let body = task.bind_kernels(base)[0].body.clone().unwrap();
        b.iter(|| body(&mut mem))
    });
    g.bench_function("stage_span_functional_8MiB", |b| {
        let payload = 8u64 << 20;
        let shm = ShmRegistry::new(&NodeConfig::test_tiny())
            .create("seg", payload)
            .unwrap();
        shm.poke(0, &vec![7u8; payload as usize]).unwrap();
        let pinned = HostBuffer::zeroed(payload, true);
        let spans = PipelineConfig::chunked(4, 1).plan(payload);
        b.iter(|| {
            let (shm, pinned, spans) = (shm.clone(), pinned.clone(), spans.clone());
            let mut sim = Simulation::new();
            sim.spawn("stage", move |ctx| {
                for h2d in [true, false] {
                    for s in &spans {
                        stage_span(ctx, &shm, &pinned, *s, h2d).unwrap();
                    }
                }
            });
            sim.run().unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, sim_engine, allocator, kernels_host);
criterion_main!(benches);
