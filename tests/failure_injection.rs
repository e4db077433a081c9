//! Failure injection: the stack must fail loudly and precisely, not hang
//! or corrupt — and, with fault tolerance enabled, the GVM must *recover*:
//! evict dead ranks, reclaim their resources, re-arm the `STR` barrier at
//! reduced width, and keep serving the survivors.
//!
//! The second half of this file drives the deterministic [`FaultPlan`]
//! subsystem end to end: scripted client aborts at every protocol stage,
//! message drop/delay/duplication on both queue directions, shared-memory
//! corruption, and device OOM mid-`SND`, in both the GVM and the
//! direct-sharing baseline.

use gvirt::cuda::{CudaDevice, CudaError, HostBuffer};
use gvirt::gpu::{DeviceConfig, GpuDevice, MemError};
use gvirt::ipc::{AffinityError, Node, NodeConfig};
use gvirt::kernels::vecadd;
use gvirt::sim::{Ctx, SimDuration, SimError, SimTime, Simulation};
use gvirt::virt::{
    run_direct_abortable, ClientPolicy, FaultPlan, FaultSpec, Gvm, GvmConfig, GvmHandle, MemConfig,
    NakReason, QueueSel, Request, RequestKind, TaskError, VgpuClient,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Allocating past device capacity fails with a precise OOM, and the
/// process that unwraps it surfaces as a simulation error naming it.
#[test]
fn device_oom_is_loud() {
    let mut sim = Simulation::new();
    let cfg = DeviceConfig::tesla_c2070_paper();
    let capacity = cfg.global_mem_bytes;
    let device = GpuDevice::install(&mut sim, cfg);
    let d = device.clone();
    sim.spawn("hog", move |ctx| {
        // First allocation is fine; the second overflows.
        let _a = d.alloc(capacity / 2).unwrap();
        match d.alloc(capacity) {
            Err(MemError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, capacity);
                assert!(free < capacity);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        d.shutdown(ctx);
    });
    sim.run().unwrap();
}

/// A process panic inside a simulation is reported with the process name
/// and message — not a hang.
#[test]
fn panicking_client_is_reported() {
    let mut sim = Simulation::new();
    let device = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
    let _keep = device.clone();
    sim.spawn("bad-client", |_ctx| panic!("injected failure"));
    match sim.run() {
        Err(SimError::ProcessPanicked { name, message }) => {
            assert_eq!(name, "bad-client");
            assert!(message.contains("injected failure"));
        }
        other => panic!("expected panic report, got {other:?}"),
    }
}

/// A client that blocks forever (lost response) turns into a deadlock
/// report listing the stuck processes — the scheduler is not implicated.
#[test]
fn lost_response_becomes_deadlock_report() {
    let mut sim = Simulation::new();
    sim.spawn("orphan", |ctx| {
        ctx.park(); // waits for a response that never comes
    });
    match sim.run() {
        Err(err @ SimError::Deadlock { .. }) => {
            assert!(err.blocked_names().contains(&"orphan".to_string()));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// Oversubscribing the node violates the SPMD condition.
#[test]
fn spmd_oversubscription_rejected() {
    let mut sim = Simulation::new();
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let err = node.spawn_spmd(&mut sim, 9, "p", |_, _| {}).unwrap_err();
    assert_eq!(
        err,
        AffinityError::TooManyProcesses {
            requested: 9,
            cores: 8
        }
    );
}

/// An async copy from pageable memory is a programming error the runtime
/// rejects immediately (real CUDA silently degrades; we are stricter).
#[test]
fn async_copy_from_pageable_rejected() {
    let mut sim = Simulation::new();
    let device = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
    let cuda = CudaDevice::new(device.clone());
    sim.spawn("p", move |ctx| {
        let cc = cuda.create_context(ctx, "p");
        let s = cc.stream_create();
        let d = cc.malloc(1024).unwrap();
        let pageable = HostBuffer::opaque(1024, false);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cc.memcpy_h2d_async(ctx, s, &pageable, d, 1024);
        }));
        assert!(result.is_err(), "async pageable copy must be rejected");
        cuda.device().shutdown(ctx);
    });
    sim.run().unwrap();
}

/// Copies larger than their host buffer fail cleanly.
#[test]
fn oversized_copy_errors() {
    let mut sim = Simulation::new();
    let device = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
    let cuda = CudaDevice::new(device.clone());
    sim.spawn("p", move |ctx| {
        let cc = cuda.create_context(ctx, "p");
        let s = cc.stream_create();
        let d = cc.malloc(4096).unwrap();
        let small = HostBuffer::opaque(16, false);
        match cc.memcpy_h2d(ctx, s, &small, d, 4096) {
            Err(CudaError::HostBufferTooSmall {
                requested,
                capacity,
            }) => {
                assert_eq!((requested, capacity), (4096, 16));
            }
            other => panic!("expected HostBufferTooSmall, got {other:?}"),
        }
        cuda.device().shutdown(ctx);
    });
    sim.run().unwrap();
}

/// `run_until` horizon stops a runaway experiment and reaps every thread
/// (no leaks, no hangs) even with a device installed.
#[test]
fn horizon_stop_reaps_device_scheduler() {
    let mut sim = Simulation::new();
    let device = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
    let cuda = CudaDevice::new(device);
    sim.spawn("forever", move |ctx| {
        let cc = cuda.create_context(ctx, "p");
        let s = cc.stream_create();
        let mut k = gvirt::gpu::KernelDesc::new("endless", 1, 32).regs(1);
        k.block_demand_cycles = 1.0e18; // ~31 years of device time
        let h = cc.launch(ctx, s, k).unwrap();
        h.wait(ctx); // never completes within the horizon
    });
    let s = sim.run_until(SimTime::from_nanos(1_000_000_000)).unwrap();
    assert!(!s.completed);
    assert_eq!(s.end_time, SimTime::from_nanos(1_000_000_000));
}

/// Freeing a dangling device pointer is an error, not UB.
#[test]
fn double_free_rejected() {
    let mut sim = Simulation::new();
    let device = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
    let d = device.clone();
    sim.spawn("p", move |ctx| {
        let ptr = d.alloc(256).unwrap();
        d.free(ptr).unwrap();
        assert_eq!(d.free(ptr), Err(MemError::InvalidPointer));
        d.shutdown(ctx);
    });
    sim.run().unwrap();
}

// ---------------------------------------------------------------------------
// FaultPlan-driven scenarios: scripted faults, GVM recovery, baseline loss.
// ---------------------------------------------------------------------------

/// Per-rank vecadd inputs, distinct so cross-rank mixups are visible.
fn ft_inputs(n: usize) -> Vec<(Vec<f32>, Vec<f32>)> {
    (0..n)
        .map(|r| {
            let a: Vec<f32> = (0..256).map(|i| (i + r * 1000) as f32).collect();
            let b: Vec<f32> = (0..256).map(|i| (i * 2 + r) as f32).collect();
            (a, b)
        })
        .collect()
}

/// Everything a fault scenario needs to assert on afterwards.
struct FtOutcome {
    /// Per-rank `try_run_task` results, sorted by rank.
    #[allow(clippy::type_complexity)]
    results: Vec<(usize, Result<Option<Vec<u8>>, TaskError>)>,
    handle: GvmHandle,
    /// Device bytes still allocated after the run drained.
    used_after: u64,
    /// `fault`-category trace events as `"<ns> <label>"` lines.
    fault_labels: Vec<String>,
    /// Every trace event as `"<ns> <category> <label>"` lines.
    full_trace: Vec<String>,
    inputs: Vec<(Vec<f32>, Vec<f32>)>,
    /// The [`Rogue`]'s own verdict, if one ran.
    rogue: Option<Result<(), TaskError>>,
}

impl FtOutcome {
    fn stats(&self) -> gvirt::virt::GvmStats {
        self.handle.stats.lock().clone()
    }

    fn assert_rank_output_correct(&self, rank: usize) {
        let (_, res) = self
            .results
            .iter()
            .find(|(r, _)| *r == rank)
            .unwrap_or_else(|| panic!("rank {rank} did not run"));
        let bytes = res
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"))
            .as_ref()
            .expect("functional output");
        let got: Vec<u32> = vecadd::decode_output(bytes)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        let (a, b) = &self.inputs[rank];
        let want: Vec<u32> = vecadd::reference(a, b)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(got, want, "rank {rank} output wrong");
    }

    fn has_fault_event(&self, needle: &str) -> bool {
        self.fault_labels.iter().any(|l| l.contains(needle))
    }
}

/// A misbehaving process started once the GVM is ready: it forges
/// requests of its own (`rank: None`) or connects as `rank`, whose honest
/// run it replaces. It returns its own verdict.
struct Rogue {
    rank: Option<usize>,
    #[allow(clippy::type_complexity)]
    run: Box<dyn FnOnce(&mut Ctx, &GvmHandle) -> Result<(), TaskError> + Send>,
}

/// Run `config.ntask` ranks of functional vecadd on a GVM built from
/// `config`, under `plan`, alongside an optional `rogue`.
fn run_ft(
    config: GvmConfig,
    plan: &FaultPlan,
    policy: ClientPolicy,
    trace: bool,
    rogue: Option<Rogue>,
) -> FtOutcome {
    let n = config.ntask;
    let mut sim = Simulation::new();
    let cfg = DeviceConfig::tesla_c2070_paper();
    let device = GpuDevice::install(&mut sim, cfg.clone());
    let cuda = CudaDevice::new(device.clone());
    let node = Node::new(NodeConfig::dual_xeon_x5560());
    let inputs = ft_inputs(n);
    let tasks: Vec<_> = inputs
        .iter()
        .map(|(a, b)| vecadd::functional_task(&cfg, a, b))
        .collect();
    let handle = Gvm::install(&mut sim, &node, &cuda, config, tasks);
    plan.install(&handle, &device);
    if trace {
        sim.tracer().set_enabled(true);
    }
    type Results = Arc<Mutex<Vec<(usize, Result<Option<Vec<u8>>, TaskError>)>>>;
    let results: Results = Arc::new(Mutex::new(Vec::new()));
    let rogue_rank = rogue.as_ref().and_then(|g| g.rank);
    for rank in (0..n).filter(|&r| Some(r) != rogue_rank) {
        let handle = handle.clone();
        let results = results.clone();
        let policy = policy.clone();
        let abort = plan.abort_stage(rank);
        node.spawn_pinned(&mut sim, rank, &format!("spmd-{rank}"), move |ctx| {
            let mut client = VgpuClient::connect_with_policy(ctx, &handle, rank, policy);
            if let Some(stage) = abort {
                client.abort_at(stage);
            }
            let res = client.try_run_task(ctx).map(|(_, out)| out);
            results.lock().push((rank, res));
        })
        .unwrap();
    }
    let verdict = Arc::new(Mutex::new(None));
    if let Some(rogue) = rogue {
        let (h, v) = (handle.clone(), verdict.clone());
        sim.spawn("rogue", move |ctx| {
            h.ready.wait(ctx);
            *v.lock() = Some((rogue.run)(ctx, &h));
        });
    }
    let h2 = handle.clone();
    let dev2 = device.clone();
    sim.spawn("supervisor", move |ctx| {
        h2.done.wait(ctx);
        dev2.shutdown(ctx);
    });
    let tracer = sim.tracer();
    sim.run().unwrap();
    let used_after = device.with_memory(|m| m.used());
    let fault_labels = tracer
        .fault_events()
        .iter()
        .map(|e| format!("{} {}", e.time.as_nanos(), e.label))
        .collect();
    let full_trace = tracer
        .snapshot()
        .iter()
        .map(|e| format!("{} {} {}", e.time.as_nanos(), e.category, e.label))
        .collect();
    let mut results = Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("client still holds results"))
        .into_inner();
    results.sort_by_key(|(r, _)| *r);
    let rogue = verdict.lock().take();
    FtOutcome {
        results,
        handle,
        used_after,
        fault_labels,
        full_trace,
        inputs,
        rogue,
    }
}

/// The acceptance scenario: a client aborts at *any* protocol stage with
/// 8 ranks connected, and the GVM keeps serving — every survivor's output
/// is bit-exact, the dead rank is evicted exactly once, its queues and
/// shared memory are unlinked, and allocator accounting returns to zero.
#[test]
fn gvm_survives_client_abort_at_every_stage() {
    for stage in RequestKind::ALL {
        let n = 8;
        let victim = 3;
        let plan = FaultPlan::new(1).push(FaultSpec::ClientAbort {
            rank: victim,
            stage,
        });
        let policy = ClientPolicy::with_timeout(SimDuration::from_millis(50), 5);
        let out = run_ft(GvmConfig::fault_tolerant(n), &plan, policy, false, None);

        assert_eq!(
            out.results[victim].1,
            Err(TaskError::Aborted { stage }),
            "victim must report its scripted abort at {stage:?}"
        );
        for rank in 0..n {
            if rank != victim {
                out.assert_rank_output_correct(rank);
            }
        }
        let stats = out.stats();
        assert_eq!(stats.evictions, 1, "abort at {stage:?}: one eviction");
        assert_eq!(stats.flushes, 1, "abort at {stage:?}: one barrier flush");
        assert_eq!(
            out.used_after, 0,
            "abort at {stage:?}: every device byte reclaimed"
        );
        // The evicted rank's endpoints are gone; a survivor's remain.
        assert!(
            out.handle
                .shm
                .open(&out.handle.endpoints.shm(victim))
                .is_err(),
            "abort at {stage:?}: victim shm must be unlinked"
        );
        assert!(
            out.handle
                .resp_mq
                .open(&out.handle.endpoints.response_queue(victim))
                .is_err(),
            "abort at {stage:?}: victim response queue must be unlinked"
        );
        assert!(out.handle.shm.open(&out.handle.endpoints.shm(0)).is_ok());
    }
}

/// The contrast case the paper's architecture motivates: in *direct*
/// sharing there is no manager to reclaim a crashed process's device
/// state, so an abort at any stage past `REQ` leaks device memory.
#[test]
fn direct_abort_leaks_device_memory_without_a_manager() {
    for stage in RequestKind::ALL {
        let mut sim = Simulation::new();
        let cfg = DeviceConfig::tesla_c2070_paper();
        let device = GpuDevice::install(&mut sim, cfg.clone());
        let cuda = CudaDevice::new(device.clone());
        let node = Node::new(NodeConfig::dual_xeon_x5560());
        let a: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..256).map(|i| (i * 2) as f32).collect();
        let task = vecadd::functional_task(&cfg, &a, &b);
        let used = Arc::new(Mutex::new(0u64));
        let used2 = used.clone();
        let dev2 = device.clone();
        node.spawn_pinned(&mut sim, 0, "direct-0", move |ctx| {
            let err = run_direct_abortable(ctx, &cuda, &task, 0, Some(stage)).unwrap_err();
            assert_eq!(err, TaskError::Aborted { stage });
            // Let any abandoned stream work drain before auditing.
            ctx.hold(SimDuration::from_millis(500));
            *used2.lock() = dev2.with_memory(|m| m.used());
            dev2.shutdown(ctx);
        })
        .unwrap();
        sim.run().unwrap();
        let used = *used.lock();
        if stage == RequestKind::Req {
            assert_eq!(used, 0, "abort before any allocation leaks nothing");
        } else {
            assert!(
                used > 0,
                "direct abort at {stage:?} must leak device memory (no manager)"
            );
        }
    }
}

/// Device OOM at the first lazy `SND` allocation: the losing rank is
/// NAKed and evicted, the other rank completes correctly, and the
/// allocator returns to zero.
#[test]
fn oom_mid_snd_evicts_only_the_loser() {
    let plan = FaultPlan::new(2).push(FaultSpec::DeviceOom { nth_alloc: 1 });
    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(10), 3);
    let out = run_ft(GvmConfig::fault_tolerant(2), &plan, policy, true, None);

    let rejected: Vec<usize> = out
        .results
        .iter()
        .filter(|(_, res)| {
            matches!(
                res,
                Err(TaskError::Rejected {
                    stage: RequestKind::Snd,
                    reason: NakReason::Oom
                })
            )
        })
        .map(|(r, _)| *r)
        .collect();
    assert_eq!(rejected.len(), 1, "exactly one rank loses the allocation");
    let survivor = 1 - rejected[0];
    out.assert_rank_output_correct(survivor);

    let stats = out.stats();
    assert_eq!(stats.evictions, 1);
    assert!(stats.naks >= 1);
    assert_eq!(out.used_after, 0, "survivor's memory reclaimed at release");
    assert!(out.has_fault_event("oom-nak:rank"));
    assert!(out.has_fault_event(&format!("evict:rank{}", rejected[0])));
}

/// A dropped *response* is recovered by the client's timeout retry: the
/// GVM recognizes the re-sent sequence number and answers from its
/// recorded-response cache instead of re-executing the request.
#[test]
fn dropped_response_is_resent_from_the_dedup_cache() {
    let plan = FaultPlan::new(3).push(FaultSpec::MqDrop {
        queue: QueueSel::Response(0),
        nth: 0,
    });
    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(5), 3);
    let out = run_ft(GvmConfig::fault_tolerant(1), &plan, policy, true, None);
    out.assert_rank_output_correct(0);
    let stats = out.stats();
    assert!(stats.dedup_hits >= 1, "retry must hit the dedup cache");
    assert_eq!(stats.evictions, 0);
    assert!(out.has_fault_event("mq-drop:"));
}

/// A dropped *request* (the `STR` send, lifetime send #2 on the request
/// queue after `REQ` and `SND`) is recovered by a retry the GVM processes
/// as new — it never saw the original.
#[test]
fn dropped_request_is_retried_and_reprocessed() {
    let plan = FaultPlan::new(4).push(FaultSpec::MqDrop {
        queue: QueueSel::Request,
        nth: 2,
    });
    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(5), 3);
    let out = run_ft(GvmConfig::fault_tolerant(1), &plan, policy, true, None);
    out.assert_rank_output_correct(0);
    let stats = out.stats();
    assert_eq!(stats.flushes, 1);
    assert_eq!(stats.evictions, 0);
    assert!(out.has_fault_event("mq-drop:"));
}

/// Duplicated messages in both directions are harmless: the GVM
/// deduplicates re-seen sequence numbers and the client discards stale
/// response sequence numbers.
#[test]
fn duplicated_messages_are_deduplicated() {
    let plan = FaultPlan::new(5)
        .push(FaultSpec::MqDuplicate {
            queue: QueueSel::Request,
            nth: 1,
        })
        .push(FaultSpec::MqDuplicate {
            queue: QueueSel::Response(0),
            nth: 0,
        });
    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(10), 3);
    let out = run_ft(GvmConfig::fault_tolerant(1), &plan, policy, true, None);
    out.assert_rank_output_correct(0);
    let stats = out.stats();
    assert!(stats.dedup_hits >= 1, "duplicate SND must be deduplicated");
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        out.fault_labels
            .iter()
            .filter(|l| l.contains("mq-dup:"))
            .count(),
        2
    );
}

/// A delayed message charges the sender extra latency but needs no
/// retry: the deadline starts when the send returns.
#[test]
fn delayed_message_is_absorbed_by_the_deadline() {
    let plan = FaultPlan::new(6).push(FaultSpec::MqDelay {
        queue: QueueSel::Request,
        nth: 0,
        delay: SimDuration::from_millis(2),
    });
    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(10), 3);
    let out = run_ft(GvmConfig::fault_tolerant(1), &plan, policy, true, None);
    out.assert_rank_output_correct(0);
    let stats = out.stats();
    assert_eq!(stats.dedup_hits, 0, "no retry should have been needed");
    assert_eq!(stats.evictions, 0);
    assert!(out.has_fault_event("mq-delay:"));
}

/// Corrupting the client's `SND` staging write (the segment's first timed
/// write) propagates visibly into the computed output — the data path has
/// no silent re-read of clean data.
#[test]
fn shm_corruption_shows_up_in_the_output() {
    let plan = FaultPlan::new(7).push(FaultSpec::ShmCorrupt {
        rank: 0,
        nth_write: 0,
    });
    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(10), 3);
    let out = run_ft(GvmConfig::fault_tolerant(1), &plan, policy, true, None);
    let bytes = out.results[0]
        .1
        .as_ref()
        .expect("corrupted run still completes")
        .as_ref()
        .expect("functional output");
    let got: Vec<u32> = vecadd::decode_output(bytes)
        .iter()
        .map(|f| f.to_bits())
        .collect();
    let (a, b) = &out.inputs[0];
    let clean: Vec<u32> = vecadd::reference(a, b)
        .iter()
        .map(|f| f.to_bits())
        .collect();
    assert_ne!(got, clean, "corrupted input must change the output");
    assert!(out.has_fault_event("shm-corrupt:"));
    assert_eq!(out.used_after, 0);
}

/// The full acceptance criterion: 8 ranks, one aborts at `STP`; the plan
/// round-trips through its text format, survivors complete bit-exact, the
/// dead rank's resources are reclaimed — and replaying the identical
/// `FaultPlan` yields a byte-identical virtual-time trace.
#[test]
fn acceptance_eight_rank_abort_replays_identical_trace() {
    let victim = 3;
    let authored = FaultPlan::new(11).push(FaultSpec::ClientAbort {
        rank: victim,
        stage: RequestKind::Stp,
    });
    // Exercise the fixture path: what runs is the decoded text form.
    let plan = FaultPlan::decode(&authored.encode()).unwrap();
    assert_eq!(plan, authored);

    let policy = ClientPolicy::with_timeout(SimDuration::from_millis(50), 5);
    let first = run_ft(
        GvmConfig::fault_tolerant(8),
        &plan,
        policy.clone(),
        true,
        None,
    );
    let second = run_ft(GvmConfig::fault_tolerant(8), &plan, policy, true, None);

    assert_eq!(
        first.results[victim].1,
        Err(TaskError::Aborted {
            stage: RequestKind::Stp
        })
    );
    for rank in 0..8 {
        if rank != victim {
            first.assert_rank_output_correct(rank);
            second.assert_rank_output_correct(rank);
        }
    }
    let stats = first.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(first.used_after, 0);
    assert!(first.has_fault_event(&format!("evict:rank{victim}")));

    assert!(!first.full_trace.is_empty());
    assert_eq!(
        first.full_trace, second.full_trace,
        "same FaultPlan must replay a byte-identical virtual-time trace"
    );
    assert_eq!(first.fault_labels, second.fault_labels);
}

// ---------------------------------------------------------------------------
// Misbehaving clients: the GVM is a shared service, so one tenant's bad
// request must never take down its co-tenants.
// ---------------------------------------------------------------------------

/// The request queue is shared, so a client can claim any rank. A request
/// naming a rank the GVM does not serve is dropped with a `bad-rank` fault
/// instead of indexing past the rank table, and every real rank finishes
/// bit-exact.
#[test]
fn out_of_range_rank_is_dropped() {
    let n = 4;
    let rogue = Rogue {
        rank: None,
        run: Box::new(move |ctx, h| {
            let q = h.req_mq.open(&h.endpoints.request_queue()).unwrap();
            q.send(ctx, Request::new(n + 3, RequestKind::Req, 1))
                .unwrap();
            Ok(())
        }),
    };
    let out = run_ft(
        GvmConfig::new(n),
        &FaultPlan::new(0),
        ClientPolicy::default(),
        true,
        Some(rogue),
    );
    assert_eq!(out.rogue, Some(Ok(())));
    for rank in 0..n {
        out.assert_rank_output_correct(rank);
    }
    assert!(out.has_fault_event(&format!("bad-rank:{}", n + 3)));
    assert_eq!(out.stats().naks, 0);
}

/// Drive rank 2 of 4 through `stages` (stopping at the first refusal) on a
/// GVM built from `config` while the other ranks run honestly, and assert
/// it was refused at `stage` with a protocol NAK and evicted, and that the
/// co-tenants finished bit-exact.
fn assert_protocol_nak(config: GvmConfig, stages: &'static [RequestKind], stage: RequestKind) {
    let rank = 2;
    let rogue = Rogue {
        rank: Some(rank),
        run: Box::new(move |ctx, h| {
            let client = VgpuClient::connect(ctx, h, rank);
            for stage in stages {
                match stage {
                    RequestKind::Req => client.try_req(ctx)?,
                    RequestKind::Snd => client.try_snd(ctx)?,
                    RequestKind::Str => client.try_str(ctx)?,
                    RequestKind::Rcv => client.try_rcv(ctx).map(|_| ())?,
                    other => panic!("unscripted stage {other:?}"),
                }
            }
            Ok(())
        }),
    };
    let n = config.ntask;
    let out = run_ft(
        config,
        &FaultPlan::new(0),
        ClientPolicy::default(),
        true,
        Some(rogue),
    );
    assert_eq!(
        out.rogue,
        Some(Err(TaskError::Rejected {
            stage,
            reason: NakReason::Protocol
        }))
    );
    let stats = out.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.naks, 1);
    assert!(out.has_fault_event(&format!("protocol-nak:rank{rank}")));
    assert_eq!(out.results.len(), n - 1);
    for r in (0..n).filter(|&r| r != rank) {
        out.assert_rank_output_correct(r);
    }
}

/// `STR` before the rank's `SND` on the staged path: there is no input
/// lease to upload from.
#[test]
fn str_before_snd_is_a_protocol_nak() {
    assert_protocol_nak(
        GvmConfig::new(4),
        &[RequestKind::Req, RequestKind::Str],
        RequestKind::Str,
    );
}

/// `STR` before allocation on a lazy-allocation GVM (zero-copy, so the
/// input lease exists): there is no device memory to run on.
#[test]
fn str_before_allocation_is_a_protocol_nak() {
    assert_protocol_nak(
        GvmConfig::fault_tolerant(4).with_mem(MemConfig::zero_copy()),
        &[RequestKind::Req, RequestKind::Str],
        RequestKind::Str,
    );
}

/// `RCV` before any flush on the staged path: there is no output lease to
/// copy results from.
#[test]
fn rcv_before_flush_is_a_protocol_nak() {
    assert_protocol_nak(
        GvmConfig::new(4),
        &[RequestKind::Req, RequestKind::Snd, RequestKind::Rcv],
        RequestKind::Rcv,
    );
}
