//! Differential oracle for the zero-copy descriptor-passing transport:
//! leasing the pinned staging pool *as* the client's shm segment is a
//! transport optimization, never a semantic one. Every benchmark family ×
//! group size × mem config must produce rank-by-rank bit-identical
//! functional output whether payloads move through the staged-copy path
//! or directly through exported leases — and both must match the direct
//! (unvirtualized) baseline.
//!
//! The file also pins the ablation contract: selecting the staged path
//! through the zero-copy builder chain (`with_zero_copy(false)`) leaves
//! the analysis trace bitwise identical to the default configuration's,
//! and that staged trace — plus the coalesced zero-copy and steady
//! adaptive schedules — match checked-in trace fixtures, so a refactor
//! must not perturb the schedules it replaced.

use gvirt::analyze::model::to_dump;
use gvirt::gpu::DeviceConfig;
use gvirt::harness::scenario::{ExecutionMode, Scenario};
use gvirt::kernels::{blackscholes, ep, mm, vecadd, GpuTask};
use gvirt::mem::StagingPool;
use gvirt::sim::Tracer;
use gvirt::virt::MemConfig;
use proptest::prelude::*;

/// The zero-copy matrix: serial, chunked, and adaptive planners all
/// layered over the descriptor transport. (`steady` double-buffering is
/// excluded by construction — the GVM rejects that combination.)
fn zc_configs() -> Vec<(String, MemConfig)> {
    let mut v = vec![("zc-serial".to_string(), MemConfig::zero_copy())];
    for k in [2usize, 3, 8] {
        v.push((
            format!("zc-chunked-{k}"),
            MemConfig::pipelined(k, 64).with_zero_copy(true),
        ));
    }
    v.push((
        "zc-adaptive-4".to_string(),
        MemConfig::adaptive(4, 64).with_zero_copy(true),
    ));
    v
}

/// Rank-distinct functional tasks for one benchmark family.
fn tasks_for(benchmark: &str, cfg: &DeviceConfig, n: usize) -> Vec<GpuTask> {
    (0..n)
        .map(|rank| match benchmark {
            "vecadd" => {
                let a: Vec<f32> = (0..192).map(|i| (i * (rank + 1)) as f32 * 0.25).collect();
                let b: Vec<f32> = (0..192).map(|i| (i + rank * 1000) as f32).collect();
                vecadd::functional_task(cfg, &a, &b)
            }
            "ep" => ep::functional_task(cfg, 8 + (rank % 3) as u32),
            "mm" => {
                let dim = 8;
                let a: Vec<f32> = (0..dim * dim)
                    .map(|i| ((i * 7 + rank * 13) % 17) as f32 - 8.0)
                    .collect();
                let b: Vec<f32> = (0..dim * dim)
                    .map(|i| ((i * 3 + rank * 5) % 11) as f32 * 0.5)
                    .collect();
                mm::functional_task(cfg, &a, &b, dim)
            }
            "blackscholes" => {
                let (s, x, t) = blackscholes::generate_options(48, 7 + rank as u64);
                blackscholes::functional_task(cfg, &s, &x, &t)
            }
            other => panic!("unknown benchmark family {other}"),
        })
        .collect()
}

/// Outputs of one run, unwrapped (all these tasks are functional).
fn outputs(result: &gvirt::harness::scenario::ExperimentResult) -> Vec<Vec<u8>> {
    result
        .outputs
        .iter()
        .map(|o| o.clone().expect("functional task must produce output"))
        .collect()
}

/// Every zero-copy config × benchmark × N: device-side results are
/// bit-identical both to the staged-copy run and to the direct baseline,
/// rank by rank — descriptor passing never leaks into results.
#[test]
fn zero_copy_matches_staged_and_direct_bitwise() {
    let base = Scenario::default();
    for benchmark in ["vecadd", "ep", "mm", "blackscholes"] {
        for n in [2usize, 4, 8] {
            let tasks = tasks_for(benchmark, &base.device, n);
            let direct = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
            let staged = outputs(
                &base
                    .clone()
                    .with_mem(MemConfig::default())
                    .run(ExecutionMode::Virtualized, tasks.clone()),
            );
            assert_eq!(staged, direct, "{benchmark} n={n}: staged vs direct");
            for (label, mem) in zc_configs() {
                let scenario = base.clone().with_mem(mem);
                let got = outputs(&scenario.run(ExecutionMode::Virtualized, tasks.clone()));
                assert_eq!(got.len(), staged.len(), "{benchmark} n={n} {label}: ranks");
                for (rank, (g, want)) in got.iter().zip(&staged).enumerate() {
                    assert_eq!(
                        g, want,
                        "{benchmark} n={n} {label}: rank {rank} output differs"
                    );
                }
            }
        }
    }
}

/// Multi-round zero-copy sessions (each round re-presents the descriptor
/// at SND, results overwrite the lease window on the final iteration
/// only) still match the direct baseline bitwise.
#[test]
fn multi_round_zero_copy_matches_direct_bitwise() {
    let base = Scenario::default();
    for benchmark in ["vecadd", "mm"] {
        for n in [2usize, 4] {
            let tasks = tasks_for(benchmark, &base.device, n);
            let direct = outputs(&base.run(ExecutionMode::Direct, tasks.clone()));
            for rounds in [2u32, 3] {
                for (label, mem) in zc_configs() {
                    let scenario = base.clone().with_mem(mem).with_rounds(rounds);
                    let got = outputs(&scenario.run(ExecutionMode::Virtualized, tasks.clone()));
                    for (rank, (g, want)) in got.iter().zip(&direct).enumerate() {
                        assert_eq!(
                            g, want,
                            "{benchmark} n={n} rounds={rounds} {label}: \
                             rank {rank} output differs"
                        );
                    }
                }
            }
        }
    }
}

/// The zero-copy path really drops the GVM-side copies (the matrix above
/// isn't vacuous) while the staged ablation still performs them.
#[test]
fn zero_copy_drops_gvm_staging_copies() {
    let base = Scenario::default();
    let tasks = tasks_for("vecadd", &base.device, 4);
    let zc = base
        .clone()
        .with_mem(MemConfig::zero_copy())
        .run(ExecutionMode::Virtualized, tasks.clone());
    let gvm = zc.gvm.expect("virtualized run has GVM stats");
    assert_eq!(gvm.snd_copies, 0, "zero-copy must not stage at SND");
    assert_eq!(gvm.rcv_copies, 0, "zero-copy must not copy at RCV");
    assert_eq!(gvm.copy_time.as_nanos(), 0);
    let staged = base
        .clone()
        .with_mem(MemConfig::default())
        .run(ExecutionMode::Virtualized, tasks);
    let gvm = staged.gvm.expect("virtualized run has GVM stats");
    assert_eq!(gvm.snd_copies, 4);
    assert_eq!(gvm.rcv_copies, 4);
}

/// Analysis-trace dump of one deterministic 4-rank vecadd run of `rounds`
/// rounds.
fn staged_trace(mem: MemConfig, rounds: u32) -> String {
    let base = Scenario {
        analyze: true,
        ..Scenario::default()
    }
    .with_mem(mem)
    .with_rounds(rounds);
    let tasks = tasks_for("vecadd", &base.device, 4);
    let result = base.run(ExecutionMode::Virtualized, tasks);
    let tracer = result.tracer.expect("analysis run keeps its tracer");
    to_dump(&tracer.analysis_snapshot())
}

/// The ablation contract, part 1: the staged path selected through the
/// zero-copy builder chain is bitwise the same schedule as the default
/// configuration — toggling the flag off really is the pre-refactor path.
#[test]
fn staged_ablation_trace_bitwise_identical_to_default() {
    let default_dump = staged_trace(MemConfig::default(), 1);
    let ablated_dump = staged_trace(MemConfig::zero_copy().with_zero_copy(false), 1);
    assert_eq!(
        default_dump, ablated_dump,
        "with_zero_copy(false) must reproduce the default staged schedule bitwise"
    );
    assert!(!default_dump.is_empty());
}

/// The schedules pinned bitwise by checked-in trace fixtures, one per
/// flush/transport path: `(mem config, rounds, fixture path)`.
fn fixture_cases() -> Vec<(MemConfig, u32, &'static str)> {
    vec![
        // The staged, single-round, per-rank flush.
        (
            MemConfig::default(),
            1,
            "tests/fixtures/zerocopy_staged.trace",
        ),
        // The zero-copy coalesced wave flush (fused DMA, batched launch).
        (
            MemConfig::zero_copy().with_coalesce(true),
            2,
            "tests/fixtures/zerocopy_coalesced.trace",
        ),
        // Steady double-buffered SND prefetch with adaptive chunking.
        (
            MemConfig::adaptive(4, 64).with_steady(),
            3,
            "tests/fixtures/adaptive_steady.trace",
        ),
        // The same SND/prefetch/flush paths with every transfer chunked.
        (
            MemConfig::pipelined(3, 64).with_steady(),
            3,
            "tests/fixtures/chunked_steady.trace",
        ),
        // The wave flush's unfused runs: chunked transfers never fuse.
        (
            MemConfig::pipelined(3, 64)
                .with_zero_copy(true)
                .with_coalesce(true),
            2,
            "tests/fixtures/zerocopy_chunked_coalesced.trace",
        ),
    ]
}

/// The ablation contract, part 2: every fixture case's schedule matches
/// its checked-in trace bitwise, so a refactor cannot perturb the
/// schedules it replaced. Regenerate with
/// `BLESS=1 cargo test --test zerocopy_differential` after an intentional
/// schedule change.
#[test]
fn staged_trace_matches_prerefactor_fixture() {
    for (mem, rounds, path) in fixture_cases() {
        let dump = staged_trace(mem, rounds);
        if std::env::var("BLESS").is_ok() || !std::path::Path::new(path).exists() {
            std::fs::create_dir_all("tests/fixtures").expect("create fixture dir");
            std::fs::write(path, &dump).expect("write fixture");
        }
        let golden = std::fs::read_to_string(path).expect("fixture present");
        assert_eq!(dump, golden, "trace drifted from the fixture {path}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lease-generation discipline: descriptors minted under a lease are
    /// valid exactly until that lease is recycled or retired — after any
    /// number of recycle/re-acquire rounds, every descriptor from an
    /// earlier generation is rejected and only the newest one validates.
    #[test]
    fn recycled_descriptors_are_always_rejected(
        bytes in 1u64..=(1 << 20),
        rounds in 1usize..=12,
        retire_last in any::<bool>(),
    ) {
        let tracer = Tracer::new();
        let pool = StagingPool::new();
        let mut stale = Vec::new();
        for round in 0..rounds {
            let lease = pool.acquire(&tracer, bytes, false);
            let desc = lease.descriptor(0, bytes);
            prop_assert!(
                pool.validate(&desc),
                "round {round}: a freshly minted descriptor must validate"
            );
            // Every descriptor from an earlier round is now stale.
            for (r, old) in stale.iter().enumerate() {
                prop_assert!(
                    !pool.validate(old),
                    "round {round}: descriptor from round {r} must be rejected"
                );
            }
            if retire_last && round + 1 == rounds {
                pool.retire(&tracer, lease);
            } else {
                pool.recycle(&tracer, lease);
            }
            prop_assert!(
                !pool.validate(&desc),
                "round {round}: recycling must invalidate the descriptor"
            );
            stale.push(desc);
        }
    }
}
