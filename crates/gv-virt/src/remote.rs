//! Remote GPU access — the related-work baseline (paper §II).
//!
//! Duato et al. \[11\] and gVirtuS \[10\] share GPUs by shipping CUDA calls
//! from GPU-less client nodes to a daemon on a GPU node over TCP/IP or
//! InfiniBand. The paper argues this "can result in communication
//! overheads in accessing GPUs from remote compute nodes" and that
//! "simultaneous execution of multiple GPU kernels is not discussed".
//! This module implements that architecture so the claim can be measured:
//!
//! * [`RemoteGpuDaemon`] runs on the GPU node: one context (created at
//!   daemon start), one stream per client, requests served FIFO;
//! * [`RemoteClient::run_task`] mirrors the VGPU client cycle, but every
//!   byte of input/output crosses a [`NetworkLink`] first, and — unlike
//!   the GVM — there is no barrier-flush: each client's work is submitted
//!   as it arrives (rCUDA semantics).

use std::cell::Cell;
use std::sync::Arc;

use gv_cuda::{CudaDevice, HostBuffer};
use gv_gpu::DevicePtr;
use gv_ipc::net::NetworkLink;
use gv_ipc::{MessageQueue, MqRegistry, Node};
use gv_kernels::GpuTask;
use gv_sim::{Ctx, Gate, Simulation};
use parking_lot::Mutex;

use crate::client::next_backoff;
use crate::protocol::{
    Request, RequestKind, Response, ResponseKind, TaskRun, STP_POLL_INITIAL, STP_POLL_MAX,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Instance name (namespaces the request queues).
    pub name: String,
    /// Number of remote clients served.
    pub nclients: usize,
}

impl RemoteConfig {
    /// Defaults for `nclients` clients.
    pub fn new(nclients: usize) -> Self {
        RemoteConfig {
            name: "rgpu".to_string(),
            nclients,
        }
    }
}

struct ClientSlot {
    resp: MessageQueue<Response>,
    stream: gv_gpu::StreamId,
    dev_base: DevicePtr,
    pinned_in: HostBuffer,
    pinned_out: HostBuffer,
    kernels: Vec<gv_gpu::KernelDesc>,
    task: GpuTask,
}

/// Handle to a running daemon: what clients connect through.
#[derive(Clone)]
pub struct RemoteGpuHandle {
    config: Arc<RemoteConfig>,
    link: NetworkLink,
    req_mq: MqRegistry<Request>,
    resp_mq: MqRegistry<Response>,
    /// Opens when the daemon finished initialization.
    pub ready: Gate,
    /// Opens when all clients released.
    pub done: Gate,
    tasks: Arc<Vec<GpuTask>>,
}

/// The remote-GPU daemon installer.
pub struct RemoteGpuDaemon;

impl RemoteGpuDaemon {
    /// Spawn the daemon on the GPU node.
    pub fn install(
        sim: &mut Simulation,
        gpu_node: &Node,
        cuda: &CudaDevice,
        link: NetworkLink,
        config: RemoteConfig,
        tasks: Vec<GpuTask>,
    ) -> RemoteGpuHandle {
        assert_eq!(tasks.len(), config.nclients);
        let handle = RemoteGpuHandle {
            config: Arc::new(config),
            link,
            req_mq: MqRegistry::new(gpu_node.config()),
            resp_mq: MqRegistry::new(gpu_node.config()),
            ready: Gate::new(),
            done: Gate::new(),
            tasks: Arc::new(tasks),
        };
        let h = handle.clone();
        let cuda = cuda.clone();
        sim.spawn(&h.config.name.clone(), move |ctx| daemon_main(ctx, h, cuda));
        handle
    }
}

fn daemon_main(ctx: &mut Ctx, h: RemoteGpuHandle, cuda: CudaDevice) {
    let cfg = &h.config;
    let cc = cuda.create_context(ctx, &format!("{}-ctx", cfg.name));
    let req_q = h
        .req_mq
        .create(&format!("/{}-req", cfg.name), None)
        .expect("queue name free");
    let mut slots: Vec<ClientSlot> = Vec::with_capacity(cfg.nclients);
    for r in 0..cfg.nclients {
        let task = h.tasks[r].clone();
        let resp = h
            .resp_mq
            .create(&format!("/{}-resp-{r}", cfg.name), None)
            .expect("queue name free");
        let stream = cc.stream_create();
        let dev_base = cc.malloc(task.device_bytes.max(1)).expect("daemon alloc");
        let kernels = task.bind_kernels(dev_base);
        slots.push(ClientSlot {
            resp,
            stream,
            dev_base,
            pinned_in: HostBuffer::opaque(task.bytes_in.max(1), true),
            pinned_out: HostBuffer::opaque(task.bytes_out.max(1), true),
            kernels,
            task,
        });
    }
    h.ready.open(ctx);

    let mut released = 0usize;
    while released < cfg.nclients {
        let Some(req) = req_q.recv(ctx) else { break };
        let r = req.rank;
        match req.kind {
            RequestKind::Req => {
                slots[r]
                    .resp
                    .send(ctx, Response::ack(req.seq))
                    .expect("resp open");
            }
            RequestKind::Snd => {
                // Input already crossed the wire (client-side cost); the
                // daemon submits its pipeline immediately — rCUDA-style
                // eager execution, no cross-client barrier.
                let slot = &mut slots[r];
                for _ in 0..slot.task.iterations {
                    if slot.task.bytes_in > 0 {
                        cc.memcpy_h2d_async(
                            ctx,
                            slot.stream,
                            &slot.pinned_in,
                            slot.dev_base,
                            slot.task.bytes_in,
                        )
                        .expect("daemon H2D");
                    }
                    for k in &slot.kernels {
                        cc.launch(ctx, slot.stream, k.clone())
                            .expect("daemon launch");
                    }
                    if slot.task.bytes_out > 0 {
                        cc.memcpy_d2h_async(
                            ctx,
                            slot.stream,
                            slot.dev_base.add(slot.task.d2h_offset),
                            &slot.pinned_out,
                            slot.task.bytes_out,
                        )
                        .expect("daemon D2H");
                    }
                }
                slots[r]
                    .resp
                    .send(ctx, Response::ack(req.seq))
                    .expect("resp open");
            }
            RequestKind::Str => {
                // Execution already started at SND; acknowledge.
                slots[r]
                    .resp
                    .send(ctx, Response::ack(req.seq))
                    .expect("resp open");
            }
            RequestKind::Stp => {
                let done = cc.stream_query(slots[r].stream);
                let resp = if done {
                    Response::ack(req.seq)
                } else {
                    Response::wait(req.seq)
                };
                slots[r].resp.send(ctx, resp).expect("resp open");
            }
            RequestKind::Rcv => {
                slots[r]
                    .resp
                    .send(ctx, Response::ack(req.seq))
                    .expect("resp open");
            }
            RequestKind::Rls => {
                released += 1;
                slots[r]
                    .resp
                    .send(ctx, Response::ack(req.seq))
                    .expect("resp open");
            }
        }
    }
    for slot in &slots {
        let _ = cuda.device().free(slot.dev_base);
    }
    h.done.open(ctx);
}

/// A client on a GPU-less node.
pub struct RemoteClient {
    rank: usize,
    handle: RemoteGpuHandle,
    req: MessageQueue<Request>,
    resp: MessageQueue<Response>,
    seq: Cell<u64>,
}

impl RemoteClient {
    /// Connect client `rank` (blocks until the daemon is up).
    pub fn connect(ctx: &mut Ctx, handle: &RemoteGpuHandle, rank: usize) -> RemoteClient {
        handle.ready.wait(ctx);
        let req = handle
            .req_mq
            .open(&format!("/{}-req", handle.config.name))
            .expect("daemon queue exists");
        let resp = handle
            .resp_mq
            .open(&format!("/{}-resp-{rank}", handle.config.name))
            .expect("daemon queue exists");
        RemoteClient {
            rank,
            handle: handle.clone(),
            req,
            resp,
            seq: Cell::new(0),
        }
    }

    fn call(&self, ctx: &mut Ctx, kind: RequestKind) -> ResponseKind {
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        // Every RPC costs a round trip on the wire.
        self.handle.link.send_forward(ctx, 64);
        self.req
            .send(ctx, Request::new(self.rank, kind, seq))
            .expect("daemon up");
        let r = self.resp.recv(ctx).expect("daemon response");
        self.handle.link.send_reverse(ctx, 64);
        r.kind
    }

    /// The full remote execution cycle, with Fig. 3 phase timestamps.
    pub fn run_task(&self, ctx: &mut Ctx) -> TaskRun {
        let task = self.handle.tasks[self.rank].clone();
        let start = ctx.now();
        self.call(ctx, RequestKind::Req);
        let init_done = ctx.now();
        // Ship the input over the interconnect, then SND.
        if task.bytes_in > 0 {
            self.handle.link.send_forward(ctx, task.bytes_in);
        }
        self.call(ctx, RequestKind::Snd);
        let data_in_done = ctx.now();
        self.call(ctx, RequestKind::Str);
        let mut backoff = STP_POLL_INITIAL;
        while self.call(ctx, RequestKind::Stp) != ResponseKind::Ack {
            ctx.hold(backoff);
            backoff = next_backoff(backoff, STP_POLL_MAX);
        }
        let comp_done = ctx.now();
        self.call(ctx, RequestKind::Rcv);
        if task.bytes_out > 0 {
            self.handle.link.send_reverse(ctx, task.bytes_out);
        }
        let data_out_done = ctx.now();
        self.call(ctx, RequestKind::Rls);
        let end = ctx.now();
        TaskRun {
            rank: self.rank,
            start,
            init_done,
            data_in_done,
            comp_done,
            data_out_done,
            end,
        }
    }
}

/// Convenience: run `n` remote clients of `task` over `link`; returns the
/// group turnaround in ms.
pub fn remote_turnaround(
    cuda: &CudaDevice,
    sim: &mut Simulation,
    gpu_node: &Node,
    link: NetworkLink,
    task: &GpuTask,
    n: usize,
) -> Arc<Mutex<Vec<TaskRun>>> {
    let handle = RemoteGpuDaemon::install(
        sim,
        gpu_node,
        cuda,
        link,
        RemoteConfig::new(n),
        vec![task.clone(); n],
    );
    let runs: Arc<Mutex<Vec<TaskRun>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..n {
        let handle = handle.clone();
        let runs = runs.clone();
        // Remote clients live on *other* nodes: plain simulation processes,
        // not pinned to this node's cores.
        sim.spawn(&format!("remote-client-{rank}"), move |ctx| {
            let client = RemoteClient::connect(ctx, &handle, rank);
            // Run the task fully BEFORE taking the collection lock: the
            // receiver of `.push(...)` is evaluated first, so an inline
            // `runs.lock().push(client.run_task(ctx))` would hold the host
            // mutex across simulated time and wedge every other client on
            // a real lock instead of a simulated one.
            let run = client.run_task(ctx);
            runs.lock().push(run);
        });
    }
    let h = handle.clone();
    let cuda = cuda.clone();
    sim.spawn("remote-supervisor", move |ctx| {
        h.done.wait(ctx);
        cuda.device().shutdown(ctx);
    });
    runs
}
