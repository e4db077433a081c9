//! Cluster-scale placement front-end: N per-device GVMs behind pluggable
//! placement policies.
//!
//! The paper virtualizes *one* GPU behind *one* GVM. At cluster scale a
//! resource manager faces the step before that: which device should host
//! which VGPU session? This module adds that front-end without touching
//! the client protocol — it owns one [`Gvm`] per (device, admission wave),
//! plans placements with a pluggable [`PlacePolicy`], and wires clients to
//! their assigned manager:
//!
//! * [`PlacePolicy::BinPack`] — fill the hottest device that still fits
//!   (consolidation: frees whole devices for large arrivals).
//! * [`PlacePolicy::Spread`] — least-loaded device first (load balance:
//!   minimizes per-device contention).
//! * [`PlacePolicy::Gang`] — SPMD gangs land *atomically* on one device or
//!   wait for the next admission wave, all-or-nothing (modeled on
//!   Volcano's gang plugin); gangs are admitted before singletons so
//!   stragglers cannot fragment the cluster under them.
//! * [`PlacePolicy::Drf`] — dominant-resource fairness across tenants:
//!   each admission goes to the tenant whose dominant share (device
//!   memory vs kernel slots) is currently smallest.
//!
//! Placement is *plan-then-execute*: [`plan`] is a pure function from
//! requests + device capacities to a [`ClusterPlan`] (unit-testable,
//! property-testable, deterministic), and [`Cluster::install`] realizes a
//! plan inside a simulation. Sessions that exceed a wave's remaining
//! capacity are deferred to the next wave; wave `w+1`'s managers boot only
//! after every wave-`w` manager drains, so capacity bounds hold at every
//! instant. The front-end emits `ClusterDevice`/`ClusterPlace`/
//! `ClusterEvict` analysis records so `gv-analyze`'s co-residency checker
//! can audit single residency, gang integrity, and capacity from the trace
//! alone.
//!
//! A one-device cluster reduces *structurally* to the direct
//! single-GVM path (same spawn order, same client sequence, no extra
//! simulated-time cost), so its timings are bit-identical to
//! `Gvm::install` — `tests/multi_gpu.rs` locks that differential down for
//! every policy.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use gv_cuda::CudaDevice;
use gv_gpu::DeviceConfig;
use gv_ipc::Node;
use gv_kernels::GpuTask;
use gv_mem::MemConfig;
use gv_sim::{AnalysisRecord, Ctx, Gate, SimDuration, Simulation};
use parking_lot::Mutex;

use crate::client::VgpuClient;
use crate::gvm::{Gvm, GvmConfig, GvmHandle, GvmStats};
use crate::protocol::TaskRun;
use crate::quota::MemQuota;
use crate::sched::SchedPolicy;

// ---------------------------------------------------------------------------
// Requests and capacities
// ---------------------------------------------------------------------------

/// One VGPU session request submitted to the cluster front-end.
#[derive(Debug, Clone)]
pub struct VgpuRequest {
    /// Unique session id (also the trace's `vgpu` id). Arrival order is the
    /// order of the request slice handed to [`plan`] / [`Cluster::install`].
    pub id: u64,
    /// Owning tenant (DRF fairness domain).
    pub tenant: u64,
    /// `Some(g)`: member of SPMD gang `g` — all members of a gang must be
    /// co-placed on one device in one wave, or none of them are.
    pub gang: Option<u64>,
    /// Device-memory quota for the session. The planner refuses devices
    /// whose resolved cap cannot admit the session's demand (and errors
    /// with [`PlanError::OverQuota`] when *no* device can), and the
    /// session's GVM enforces the quota again at `REQ`/`SND` admission.
    pub quota: MemQuota,
    /// The GPU work the session will run through its GVM.
    pub task: GpuTask,
}

/// A device's capacity vector as seen by the placement planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCap {
    /// Global device memory, bytes.
    pub mem_bytes: u64,
    /// Concurrent-kernel window — the number of VGPU sessions a device's
    /// GVM serves per wave without queueing kernels behind the window.
    pub kernel_slots: u32,
}

impl DeviceCap {
    /// Capacity vector of a simulated device.
    pub fn from_config(config: &DeviceConfig) -> Self {
        DeviceCap {
            mem_bytes: config.global_mem_bytes,
            kernel_slots: config.max_concurrent_kernels,
        }
    }
}

/// A device's load during planning: capacity plus what the current wave has
/// already admitted onto it.
#[derive(Debug, Clone, Copy)]
pub struct DeviceLoad {
    /// This device's index in the capacity slice (quota feasibility is
    /// per-device: a `Percent` quota resolves differently on devices of
    /// different sizes).
    pub index: usize,
    /// Static capacity.
    pub cap: DeviceCap,
    /// Device memory admitted this wave.
    pub mem_used: u64,
    /// Sessions admitted this wave.
    pub slots_used: u32,
}

impl DeviceLoad {
    fn empty(index: usize, cap: DeviceCap) -> Self {
        DeviceLoad {
            index,
            cap,
            mem_used: 0,
            slots_used: 0,
        }
    }

    /// Can this device still take `group` in the current wave?
    pub fn fits(&self, group: &PendingGroup) -> bool {
        group.quota_admits(self.index)
            && self.mem_used + group.mem_bytes <= self.cap.mem_bytes
            && self.slots_used + group.sessions <= self.cap.kernel_slots
    }

    /// Lexicographic load key (memory first, then sessions) used for
    /// hottest/least-loaded comparisons.
    pub fn key(&self) -> (u64, u32) {
        (self.mem_used, self.slots_used)
    }
}

/// A placement unit as shown to a [`PlacementPolicy`]: a whole gang, or a
/// single non-gang session.
#[derive(Debug, Clone, Copy)]
pub struct PendingGroup {
    /// Arrival position of the group's first member (FIFO tie-break).
    pub arrival: usize,
    /// Owning tenant.
    pub tenant: u64,
    /// Gang id, `None` for singletons.
    pub gang: Option<u64>,
    /// Total device-memory demand of all members.
    pub mem_bytes: u64,
    /// Member count (kernel-slot demand).
    pub sessions: u32,
    /// Bitmask over device indices where every member's [`MemQuota`]
    /// admits that member's demand (bit `d` set = device `d` is quota-
    /// feasible; devices past 63 share bit 63, conservatively requiring
    /// them all to agree).
    pub quota_fit: u64,
}

impl PendingGroup {
    /// Whether every member's quota admits its demand on device `device`.
    pub fn quota_admits(&self, device: usize) -> bool {
        (self.quota_fit >> device.min(63)) & 1 == 1
    }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// Which placement policy the planner runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacePolicy {
    /// Fill the hottest fitting device first (consolidation).
    #[default]
    BinPack,
    /// Least-loaded fitting device first (load balancing).
    Spread,
    /// Gangs first (largest first), each on the least-loaded fitting
    /// device, atomically; singletons fill in after.
    Gang,
    /// Dominant-resource fairness across tenants over the
    /// (memory, kernel-slot) demand vector.
    Drf,
}

impl PlacePolicy {
    /// Stable label (CSV column, CLI argument).
    pub fn name(&self) -> &'static str {
        match self {
            PlacePolicy::BinPack => "binpack",
            PlacePolicy::Spread => "spread",
            PlacePolicy::Gang => "gang",
            PlacePolicy::Drf => "drf",
        }
    }

    /// Parse a [`name`](Self::name) label.
    pub fn parse(s: &str) -> Option<PlacePolicy> {
        match s {
            "binpack" => Some(PlacePolicy::BinPack),
            "spread" => Some(PlacePolicy::Spread),
            "gang" => Some(PlacePolicy::Gang),
            "drf" => Some(PlacePolicy::Drf),
            _ => None,
        }
    }

    /// Every policy, in sweep order.
    pub fn all() -> [PlacePolicy; 4] {
        [
            PlacePolicy::BinPack,
            PlacePolicy::Spread,
            PlacePolicy::Gang,
            PlacePolicy::Drf,
        ]
    }

    /// Build the per-wave admission strategy (fresh state each wave).
    fn build(&self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacePolicy::BinPack => Box::new(BinPack),
            PlacePolicy::Spread => Box::new(Spread),
            PlacePolicy::Gang => Box::new(GangFirst),
            PlacePolicy::Drf => Box::new(Drf::default()),
        }
    }
}

impl std::fmt::Display for PlacePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One admission decision: place `pending[group]` on `device`.
#[derive(Debug, Clone, Copy)]
pub struct Admit {
    /// Index into the pending-group slice passed to the policy.
    pub group: usize,
    /// Target device index.
    pub device: usize,
}

/// A per-wave admission strategy. The planner calls [`admit`] repeatedly;
/// each returned decision must fit (the planner asserts it), the chosen
/// group is removed from `pending`, and the device load is charged. `None`
/// closes the wave — everything still pending is deferred.
///
/// [`admit`]: PlacementPolicy::admit
pub trait PlacementPolicy {
    /// Choose the next admission, or `None` to close the wave.
    fn admit(&mut self, pending: &[PendingGroup], devices: &[DeviceLoad]) -> Option<Admit>;
}

/// Least-loaded device that fits `group` (ties to the lowest index).
fn least_loaded_fit(devices: &[DeviceLoad], group: &PendingGroup) -> Option<usize> {
    devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.fits(group))
        .min_by_key(|(i, d)| (d.key(), *i))
        .map(|(i, _)| i)
}

/// Hottest device that fits `group` (ties to the lowest index).
fn hottest_fit(devices: &[DeviceLoad], group: &PendingGroup) -> Option<usize> {
    devices
        .iter()
        .enumerate()
        .filter(|(_, d)| d.fits(group))
        .max_by(|(ia, a), (ib, b)| a.key().cmp(&b.key()).then(ib.cmp(ia)))
        .map(|(i, _)| i)
}

struct BinPack;

impl PlacementPolicy for BinPack {
    fn admit(&mut self, pending: &[PendingGroup], devices: &[DeviceLoad]) -> Option<Admit> {
        pending
            .iter()
            .enumerate()
            .find_map(|(i, g)| hottest_fit(devices, g).map(|device| Admit { group: i, device }))
    }
}

struct Spread;

impl PlacementPolicy for Spread {
    fn admit(&mut self, pending: &[PendingGroup], devices: &[DeviceLoad]) -> Option<Admit> {
        pending.iter().enumerate().find_map(|(i, g)| {
            least_loaded_fit(devices, g).map(|device| Admit { group: i, device })
        })
    }
}

struct GangFirst;

impl PlacementPolicy for GangFirst {
    fn admit(&mut self, pending: &[PendingGroup], devices: &[DeviceLoad]) -> Option<Admit> {
        let mut order: Vec<usize> = (0..pending.len()).collect();
        // Gangs before singletons, wide gangs before narrow ones, FIFO
        // within a class — big atomic groups get first pick of space.
        order.sort_by_key(|&i| {
            let g = &pending[i];
            (g.gang.is_none(), std::cmp::Reverse(g.sessions), g.arrival)
        });
        order.into_iter().find_map(|i| {
            least_loaded_fit(devices, &pending[i]).map(|device| Admit { group: i, device })
        })
    }
}

#[derive(Default)]
struct Drf {
    /// tenant → (memory, slots) admitted this wave.
    shares: HashMap<u64, (u64, u32)>,
    /// Tenants with no fitting group left this wave.
    blocked: HashSet<u64>,
}

impl Drf {
    fn dominant_share(&self, tenant: u64, devices: &[DeviceLoad]) -> f64 {
        let (mem_total, slots_total) = devices.iter().fold((0u64, 0u32), |(m, s), d| {
            (m + d.cap.mem_bytes, s + d.cap.kernel_slots)
        });
        let (mem, slots) = self.shares.get(&tenant).copied().unwrap_or((0, 0));
        let ms = if mem_total == 0 {
            0.0
        } else {
            mem as f64 / mem_total as f64
        };
        let ss = if slots_total == 0 {
            0.0
        } else {
            slots as f64 / slots_total as f64
        };
        ms.max(ss)
    }
}

impl PlacementPolicy for Drf {
    fn admit(&mut self, pending: &[PendingGroup], devices: &[DeviceLoad]) -> Option<Admit> {
        loop {
            // Tenants still competing: at least one pending group, not
            // yet blocked by a failed fit this wave.
            let tenant = pending
                .iter()
                .filter(|g| !self.blocked.contains(&g.tenant))
                .map(|g| g.tenant)
                .min_by(|a, b| {
                    let (sa, sb) = (
                        self.dominant_share(*a, devices),
                        self.dominant_share(*b, devices),
                    );
                    sa.partial_cmp(&sb).unwrap().then(a.cmp(b))
                })?;
            // FIFO within the picked tenant (pending is in arrival order).
            let (group, g) = pending
                .iter()
                .enumerate()
                .find(|(_, g)| g.tenant == tenant)
                .expect("picked tenant has a pending group");
            match least_loaded_fit(devices, g) {
                Some(device) => {
                    let e = self.shares.entry(tenant).or_insert((0, 0));
                    e.0 += g.mem_bytes;
                    e.1 += g.sessions;
                    return Some(Admit { group, device });
                }
                None => {
                    self.blocked.insert(tenant);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// Where one request landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// The request's [`VgpuRequest::id`].
    pub request: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// Gang membership.
    pub gang: Option<u64>,
    /// Target device index.
    pub device: usize,
    /// Admission wave (0-based).
    pub wave: u32,
    /// SPMD rank within the (device, wave) GVM — request ids ascending.
    pub slot: usize,
    /// Device-memory demand charged for this session.
    pub mem_bytes: u64,
}

/// One admission decision in the order the policy made it — the audit
/// trail property tests replay to check policy invariants (e.g. DRF's
/// minimal-dominant-share rule) against an independent oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// Wave the decision belongs to.
    pub wave: u32,
    /// Target device.
    pub device: usize,
    /// Tenant whose group was admitted.
    pub tenant: u64,
    /// Gang id for gang groups.
    pub gang: Option<u64>,
    /// Member request ids, ascending.
    pub requests: Vec<u64>,
}

/// The pure output of [`plan`]: every request assigned, plus the decision
/// trail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterPlan {
    /// One entry per request, in arrival order.
    pub assignments: Vec<Assignment>,
    /// Number of admission waves.
    pub waves: u32,
    /// Placement groups (gangs count once).
    pub groups: u64,
    /// Deferral events: groups still pending at a wave close, summed over
    /// waves (a group deferred twice counts twice).
    pub deferred_groups: u64,
    /// Every admission in decision order.
    pub admissions: Vec<Admission>,
}

impl ClusterPlan {
    /// Assignment for a request id.
    pub fn assignment(&self, id: u64) -> Option<&Assignment> {
        self.assignments.iter().find(|a| a.request == id)
    }

    /// Sessions per device over the whole run.
    pub fn sessions_per_device(&self, ndev: usize) -> Vec<u64> {
        let mut v = vec![0u64; ndev];
        for a in &self.assignments {
            v[a.device] += 1;
        }
        v
    }
}

/// Why a request set cannot be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The cluster has no devices.
    NoDevices,
    /// Two requests share an id.
    DuplicateRequestId(u64),
    /// A gang's members name different tenants.
    MixedTenantGang {
        /// The offending gang id.
        gang: u64,
    },
    /// A group exceeds every device's *empty* capacity — no wave can ever
    /// admit it.
    Infeasible {
        /// The group's memory demand.
        mem_bytes: u64,
        /// The group's session count.
        sessions: u32,
    },
    /// A request's own quota cannot admit its demand on *any* device — the
    /// session would be `NAK`ed at admission wherever it lands, so the
    /// planner refuses it up front.
    OverQuota {
        /// The offending request id.
        request: u64,
        /// The request's memory demand.
        mem_bytes: u64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoDevices => write!(f, "cluster has no devices"),
            PlanError::DuplicateRequestId(id) => {
                write!(f, "duplicate VGPU request id {id}")
            }
            PlanError::MixedTenantGang { gang } => {
                write!(f, "gang {gang} spans multiple tenants")
            }
            PlanError::Infeasible {
                mem_bytes,
                sessions,
            } => write!(
                f,
                "group of {sessions} session(s) demanding {mem_bytes} bytes \
                 fits no empty device"
            ),
            PlanError::OverQuota { request, mem_bytes } => write!(
                f,
                "request {request} demands {mem_bytes} bytes, over its own \
                 quota on every device"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plan placements for `requests` over devices with capacities `caps`.
///
/// Pure and deterministic: the same inputs always produce the same plan.
/// Groups (gangs, or singleton sessions) are admitted wave by wave; a
/// wave closes when the policy finds nothing more that fits, and the
/// remainder is deferred to the next wave against empty devices.
pub fn plan(
    policy: PlacePolicy,
    requests: &[VgpuRequest],
    caps: &[DeviceCap],
) -> Result<ClusterPlan, PlanError> {
    if caps.is_empty() {
        return Err(PlanError::NoDevices);
    }
    let mut seen = HashSet::new();
    for r in requests {
        if !seen.insert(r.id) {
            return Err(PlanError::DuplicateRequestId(r.id));
        }
    }

    // Per-request quota feasibility over devices: bit `d` set means the
    // request's quota admits its demand on device `d` (devices past 63
    // collapse onto bit 63 — set only when they all admit). A request no
    // device can ever quota-admit is refused here, mirroring the NAK its
    // GVM would answer with.
    let quota_mask = |r: &VgpuRequest| -> u64 {
        let mut mask = 0u64;
        for (d, c) in caps.iter().enumerate() {
            let bit = d.min(63);
            let ok = r.quota.admits(r.task.device_bytes, c.mem_bytes);
            if d <= 63 {
                if ok {
                    mask |= 1 << bit;
                }
            } else if !ok {
                mask &= !(1 << 63);
            }
        }
        mask
    };
    for r in requests {
        if quota_mask(r) == 0 {
            return Err(PlanError::OverQuota {
                request: r.id,
                mem_bytes: r.task.device_bytes,
            });
        }
    }

    // Group requests: gang members coalesce (arrival = first member),
    // everything else is a singleton.
    struct Group {
        arrival: usize,
        tenant: u64,
        gang: Option<u64>,
        members: Vec<usize>,
        mem_bytes: u64,
        quota_fit: u64,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut gang_idx: HashMap<u64, usize> = HashMap::new();
    for (i, r) in requests.iter().enumerate() {
        match r.gang {
            Some(g) => match gang_idx.get(&g) {
                Some(&gi) => {
                    if groups[gi].tenant != r.tenant {
                        return Err(PlanError::MixedTenantGang { gang: g });
                    }
                    groups[gi].members.push(i);
                    groups[gi].mem_bytes += r.task.device_bytes;
                    groups[gi].quota_fit &= quota_mask(r);
                }
                None => {
                    gang_idx.insert(g, groups.len());
                    groups.push(Group {
                        arrival: i,
                        tenant: r.tenant,
                        gang: Some(g),
                        members: vec![i],
                        mem_bytes: r.task.device_bytes,
                        quota_fit: quota_mask(r),
                    });
                }
            },
            None => groups.push(Group {
                arrival: i,
                tenant: r.tenant,
                gang: None,
                members: vec![i],
                mem_bytes: r.task.device_bytes,
                quota_fit: quota_mask(r),
            }),
        }
    }
    let total_groups = groups.len() as u64;

    // Feasibility: every group must fit at least one *empty*
    // quota-feasible device, or no amount of waves will ever place it (a
    // gang whose members' quota-feasible device sets are disjoint is as
    // unplaceable as one that exceeds raw capacity).
    for g in &groups {
        let sessions = g.members.len() as u32;
        if !caps.iter().enumerate().any(|(d, c)| {
            (g.quota_fit >> d.min(63)) & 1 == 1
                && g.mem_bytes <= c.mem_bytes
                && sessions <= c.kernel_slots
        }) {
            return Err(PlanError::Infeasible {
                mem_bytes: g.mem_bytes,
                sessions,
            });
        }
    }

    // Wave loop.
    let mut pending: Vec<Group> = groups;
    let mut assignments: Vec<(usize, usize, u32)> = Vec::new(); // (request idx, device, wave)
    let mut admissions = Vec::new();
    let mut deferred_groups = 0u64;
    let mut wave = 0u32;
    while !pending.is_empty() {
        let mut strategy = policy.build();
        let mut loads: Vec<DeviceLoad> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| DeviceLoad::empty(i, c))
            .collect();
        let mut admitted_any = false;
        loop {
            let views: Vec<PendingGroup> = pending
                .iter()
                .map(|g| PendingGroup {
                    arrival: g.arrival,
                    tenant: g.tenant,
                    gang: g.gang,
                    mem_bytes: g.mem_bytes,
                    sessions: g.members.len() as u32,
                    quota_fit: g.quota_fit,
                })
                .collect();
            let Some(admit) = strategy.admit(&views, &loads) else {
                break;
            };
            assert!(admit.group < pending.len(), "policy admitted unknown group");
            assert!(
                loads[admit.device].fits(&views[admit.group]),
                "policy admitted a group that does not fit"
            );
            let g = pending.remove(admit.group);
            loads[admit.device].mem_used += g.mem_bytes;
            loads[admit.device].slots_used += g.members.len() as u32;
            let mut ids: Vec<u64> = g.members.iter().map(|&i| requests[i].id).collect();
            ids.sort_unstable();
            admissions.push(Admission {
                wave,
                device: admit.device,
                tenant: g.tenant,
                gang: g.gang,
                requests: ids,
            });
            for &i in &g.members {
                assignments.push((i, admit.device, wave));
            }
            admitted_any = true;
        }
        // Feasibility guarantees progress against empty devices; this
        // protects against a policy that refuses a fitting group.
        assert!(
            admitted_any,
            "placement policy made no progress on a feasible wave"
        );
        deferred_groups += pending.len() as u64;
        wave += 1;
    }

    // Slot order within each (device, wave) GVM: request ids ascending.
    let mut per_gvm: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
    for &(i, device, w) in &assignments {
        per_gvm.entry((w, device)).or_default().push(i);
    }
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    for members in per_gvm.values_mut() {
        members.sort_by_key(|&i| requests[i].id);
        for (slot, &i) in members.iter().enumerate() {
            slot_of.insert(i, slot);
        }
    }

    let mut by_request: Vec<Assignment> = Vec::with_capacity(requests.len());
    let mut placed: HashMap<usize, (usize, u32)> =
        assignments.iter().map(|&(i, d, w)| (i, (d, w))).collect();
    for (i, r) in requests.iter().enumerate() {
        let (device, w) = placed.remove(&i).expect("every request is assigned");
        by_request.push(Assignment {
            request: r.id,
            tenant: r.tenant,
            gang: r.gang,
            device,
            wave: w,
            slot: slot_of[&i],
            mem_bytes: r.task.device_bytes,
        });
    }

    Ok(ClusterPlan {
        assignments: by_request,
        waves: wave,
        groups: total_groups,
        deferred_groups,
        admissions,
    })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Configuration for a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Name prefix for per-(device, wave) GVM instances
    /// (`<name>-d<device>w<wave>` namespaces their queues and segments).
    pub name: String,
    /// Placement policy.
    pub policy: PlacePolicy,
    /// Stream-dispatch policy handed to every GVM.
    pub scheduler: SchedPolicy,
    /// Buffer-lifecycle configuration handed to every GVM.
    pub mem: MemConfig,
    /// `(H2D, kernels, D2H)` rounds each session runs.
    pub rounds: u32,
    /// Arrival skew: session at arrival position `i` starts its protocol
    /// sequence `i * stagger` after connecting.
    pub stagger: SimDuration,
}

impl ClusterConfig {
    /// Defaults for a policy: joint-flush scheduling, default memory
    /// layer, one round, no stagger.
    pub fn new(policy: PlacePolicy) -> Self {
        ClusterConfig {
            name: "cluster".to_string(),
            policy,
            scheduler: SchedPolicy::default(),
            mem: MemConfig::default(),
            rounds: 1,
            stagger: SimDuration::ZERO,
        }
    }

    /// Replace the GVM stream-dispatch policy.
    pub fn with_scheduler(mut self, scheduler: SchedPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Replace the GVM buffer-lifecycle configuration.
    pub fn with_mem(mut self, mem: MemConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Set the per-session round count.
    pub fn with_rounds(mut self, rounds: u32) -> Self {
        self.rounds = rounds;
        self
    }

    /// Set the arrival stagger.
    pub fn with_stagger(mut self, stagger: SimDuration) -> Self {
        self.stagger = stagger;
        self
    }
}

/// One per-(device, wave) GVM instance owned by the front-end.
#[derive(Clone)]
pub struct WaveGvm {
    /// Device index the instance serves.
    pub device: usize,
    /// Admission wave it belongs to.
    pub wave: u32,
    /// The prepared (wave 0: running) manager handle.
    pub handle: GvmHandle,
}

/// What one VGPU session did, as collected by its client process.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The request's id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: u64,
    /// Device the session ran on.
    pub device: usize,
    /// Admission wave.
    pub wave: u32,
    /// Protocol-stage timestamps.
    pub run: TaskRun,
    /// Functional output, if the task carried input data.
    pub output: Option<Vec<u8>>,
}

/// Aggregated counters for a finished cluster run.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Sessions placed.
    pub sessions: u64,
    /// Distinct gangs placed.
    pub gangs: u64,
    /// Admission waves executed.
    pub waves: u32,
    /// Deferral events (see [`ClusterPlan::deferred_groups`]).
    pub deferred_groups: u64,
    /// GVM instances booted.
    pub gvms: u64,
    /// Sessions per device.
    pub per_device_sessions: Vec<u64>,
    /// Every per-GVM counter, merged across instances.
    pub gvm: GvmStats,
}

/// A live (or finished) cluster run.
pub struct ClusterHandle {
    /// The placement plan being executed.
    pub plan: ClusterPlan,
    /// Per-(device, wave) managers, wave-major then device order.
    pub gvms: Vec<WaveGvm>,
    /// Session results, pushed as each client finishes.
    pub sessions: Arc<Mutex<Vec<SessionResult>>>,
    /// Opens after every wave drained and all devices shut down.
    pub done: Gate,
    ndev: usize,
}

impl ClusterHandle {
    /// Session results sorted by request id (call after the run).
    pub fn session_results(&self) -> Vec<SessionResult> {
        let mut v = self.sessions.lock().clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Aggregate per-GVM and placement counters (call after the run).
    pub fn stats(&self) -> ClusterStats {
        let mut gvm = GvmStats::default();
        for g in &self.gvms {
            gvm.merge(&g.handle.stats.lock());
        }
        let gangs = self
            .plan
            .assignments
            .iter()
            .filter_map(|a| a.gang)
            .collect::<HashSet<_>>()
            .len() as u64;
        ClusterStats {
            sessions: self.plan.assignments.len() as u64,
            gangs,
            waves: self.plan.waves,
            deferred_groups: self.plan.deferred_groups,
            gvms: self.gvms.len() as u64,
            per_device_sessions: self.plan.sessions_per_device(self.ndev),
            gvm,
        }
    }
}

/// The cluster front-end installer.
pub struct Cluster;

impl Cluster {
    /// Plan placements for `requests` over `cudas` and wire the whole run
    /// into `sim`: one GVM per (device, admission wave), one client
    /// process per session, and a supervisor that releases wave `w+1`
    /// only after every wave-`w` manager drains, then shuts the devices
    /// down. Call [`Simulation::run`] afterwards to execute.
    ///
    /// A one-device, one-wave cluster reproduces the direct
    /// [`Gvm::install`] path bit-identically: same spawn order, same
    /// client sequence, and the placement records cost no simulated time.
    pub fn install(
        sim: &mut Simulation,
        node: &Node,
        cudas: &[CudaDevice],
        config: ClusterConfig,
        requests: Vec<VgpuRequest>,
    ) -> Result<ClusterHandle, PlanError> {
        let caps: Vec<DeviceCap> = cudas
            .iter()
            .map(|c| DeviceCap::from_config(c.device().config()))
            .collect();
        let plan = plan(config.policy, &requests, &caps)?;

        // Declare capacities to the co-residency checker.
        let tracer = sim.tracer();
        for (d, cap) in caps.iter().enumerate() {
            tracer.record_analysis(AnalysisRecord::ClusterDevice {
                device: d as u32,
                mem_bytes: cap.mem_bytes,
                kernel_slots: cap.kernel_slots,
            });
        }

        // One prepared GVM per (wave, device) that received sessions,
        // tasks in slot order. BTreeMap iteration gives wave-major,
        // device-ascending construction order.
        let mut members: BTreeMap<(u32, usize), Vec<&Assignment>> = BTreeMap::new();
        for a in &plan.assignments {
            members.entry((a.wave, a.device)).or_default().push(a);
        }
        let req_of: HashMap<u64, &VgpuRequest> = requests.iter().map(|r| (r.id, r)).collect();
        let mut gvms: Vec<WaveGvm> = Vec::with_capacity(members.len());
        for ((wave, device), mut list) in members {
            list.sort_by_key(|a| a.slot);
            let tasks: Vec<GpuTask> = list
                .iter()
                .map(|a| req_of[&a.request].task.clone())
                .collect();
            let mut gcfg = GvmConfig::new(tasks.len())
                .with_scheduler(config.scheduler.clone())
                .with_mem(config.mem);
            // Sessions' quotas ride into the serving GVM (slot order) so
            // admission re-enforces what placement assumed; configure
            // them only when some session actually carries a cap, so an
            // all-unlimited cluster keeps the seed GVM byte-for-byte.
            let quotas: Vec<MemQuota> = list.iter().map(|a| req_of[&a.request].quota).collect();
            if quotas.iter().any(|q| !q.is_unlimited()) {
                gcfg = gcfg.with_quotas(quotas);
            }
            gcfg.name = format!("{}-d{device}w{wave}", config.name);
            let handle = Gvm::prepare(node, gcfg, tasks);
            gvms.push(WaveGvm {
                device,
                wave,
                handle,
            });
        }

        // Boot wave 0 now; later waves boot from the supervisor.
        for g in gvms.iter().filter(|g| g.wave == 0) {
            Gvm::spawn_prepared(sim, &g.handle, &cudas[g.device], node);
        }

        // One client process per session, spawned in arrival order and
        // pinned to a core while cores last (the single-GVM SPMD layout);
        // overflow sessions run unpinned. Clients connect immediately —
        // later waves block on their manager's ready gate.
        let sessions: Arc<Mutex<Vec<SessionResult>>> = Arc::new(Mutex::new(Vec::new()));
        let gvm_of: HashMap<(u32, usize), GvmHandle> = gvms
            .iter()
            .map(|g| ((g.wave, g.device), g.handle.clone()))
            .collect();
        for (idx, req) in requests.iter().enumerate() {
            let a = plan.assignments[idx].clone();
            debug_assert_eq!(a.request, req.id);
            let gvm = gvm_of[&(a.wave, a.device)].clone();
            let collected = Arc::clone(&sessions);
            let arrival =
                SimDuration::from_nanos(config.stagger.as_nanos().saturating_mul(idx as u64));
            let rounds = config.rounds;
            let (id, tenant) = (req.id, req.tenant);
            let body = move |ctx: &mut Ctx| {
                let client = VgpuClient::connect(ctx, &gvm, a.slot);
                if !arrival.is_zero() {
                    ctx.hold(arrival);
                }
                ctx.tracer().record_analysis(AnalysisRecord::ClusterPlace {
                    time: ctx.now(),
                    vgpu: id,
                    tenant,
                    gang: a.gang,
                    device: a.device as u32,
                    wave: a.wave,
                    mem_bytes: a.mem_bytes,
                });
                let (run, output) = client.run_rounds(ctx, rounds);
                ctx.tracer().record_analysis(AnalysisRecord::ClusterEvict {
                    time: ctx.now(),
                    vgpu: id,
                    device: a.device as u32,
                });
                collected.lock().push(SessionResult {
                    id,
                    tenant,
                    device: a.device,
                    wave: a.wave,
                    run,
                    output,
                });
            };
            let name = format!("spmd-{idx}");
            if idx < node.cores() {
                node.spawn_pinned(sim, idx, &name, body)
                    .expect("pin VGPU session process");
            } else {
                sim.spawn(&name, body);
            }
        }

        // Supervisor: gate each wave on the previous one draining, then
        // shut every device down.
        let done = Gate::new();
        let waves = plan.waves;
        let sup_gvms = gvms.clone();
        let sup_cudas = cudas.to_vec();
        let sup_node = node.clone();
        let sup_done = done.clone();
        sim.spawn("supervisor", move |ctx| {
            for w in 1..waves {
                for g in sup_gvms.iter().filter(|g| g.wave == w - 1) {
                    g.handle.done.wait(ctx);
                }
                for g in sup_gvms.iter().filter(|g| g.wave == w) {
                    Gvm::spawn_prepared_from(ctx, &g.handle, &sup_cudas[g.device], &sup_node);
                }
            }
            for g in sup_gvms.iter().filter(|g| g.wave + 1 == waves) {
                g.handle.done.wait(ctx);
            }
            for c in &sup_cudas {
                c.device().shutdown(ctx);
            }
            sup_done.open(ctx);
        });

        Ok(ClusterHandle {
            plan,
            gvms,
            sessions,
            done,
            ndev: cudas.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gv_gpu::KernelDesc;
    use gv_kernels::{KernelTemplate, WorkloadClass};

    fn task(mem: u64) -> GpuTask {
        GpuTask {
            name: "t".into(),
            class: WorkloadClass::Intermediate,
            ctx_switch_cost: SimDuration::from_millis(1),
            device_bytes: mem,
            iterations: 1,
            bytes_in: 64,
            round_bytes_in: Vec::new(),
            input: None,
            bytes_out: 64,
            d2h_offset: 0,
            kernels: vec![KernelTemplate::timing(KernelDesc::new("k", 4, 64))],
        }
    }

    fn req(id: u64, tenant: u64, gang: Option<u64>, mem: u64) -> VgpuRequest {
        VgpuRequest {
            id,
            tenant,
            gang,
            quota: MemQuota::Unlimited,
            task: task(mem),
        }
    }

    fn cap(mem: u64, slots: u32) -> DeviceCap {
        DeviceCap {
            mem_bytes: mem,
            kernel_slots: slots,
        }
    }

    #[test]
    fn merged_stats_carry_coalesce_counters_once() {
        // Cluster aggregation sums each instance's coalesce counters
        // exactly once, so the fused-op ratio of the merged struct is the
        // ratio of sums — no per-GVM double counting.
        let a = GvmStats {
            fused_dma_groups: 2,
            fused_dma_subs: 5,
            batched_launch_waves: 1,
            batched_launches: 4,
            flush_dma_ops: 10,
            ..Default::default()
        };
        let b = GvmStats {
            fused_dma_subs: 3,
            flush_dma_ops: 6,
            ..Default::default()
        };
        let mut merged = GvmStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.fused_dma_groups, 2);
        assert_eq!(merged.fused_dma_subs, 8);
        assert_eq!(merged.batched_launch_waves, 1);
        assert_eq!(merged.batched_launches, 4);
        assert_eq!(merged.flush_dma_ops, 16);
        assert_eq!(merged.fused_dma_ratio(), 8.0 / 16.0);
    }

    #[test]
    fn binpack_consolidates_on_one_device() {
        let reqs: Vec<_> = (0..4).map(|i| req(i, 0, None, 100)).collect();
        let p = plan(PlacePolicy::BinPack, &reqs, &[cap(1000, 8), cap(1000, 8)]).unwrap();
        assert_eq!(p.waves, 1);
        assert_eq!(p.sessions_per_device(2), vec![4, 0]);
    }

    #[test]
    fn spread_balances_across_devices() {
        let reqs: Vec<_> = (0..4).map(|i| req(i, 0, None, 100)).collect();
        let p = plan(PlacePolicy::Spread, &reqs, &[cap(1000, 8), cap(1000, 8)]).unwrap();
        assert_eq!(p.waves, 1);
        assert_eq!(p.sessions_per_device(2), vec![2, 2]);
    }

    #[test]
    fn overflow_defers_to_a_second_wave() {
        // 3 sessions of 400 against one 1000-byte device: two fit, the
        // third waits for wave 1.
        let reqs: Vec<_> = (0..3).map(|i| req(i, 0, None, 400)).collect();
        let p = plan(PlacePolicy::Spread, &reqs, &[cap(1000, 8)]).unwrap();
        assert_eq!(p.waves, 2);
        assert_eq!(p.deferred_groups, 1);
        assert_eq!(p.assignment(2).unwrap().wave, 1);
    }

    #[test]
    fn gang_lands_atomically_or_waits() {
        // Gang of 3×300 cannot share a 1000-byte device with the earlier
        // 200-byte singleton under spread-style filling unless admitted
        // first; the gang policy admits it before the singletons.
        let reqs = vec![
            req(0, 0, None, 200),
            req(1, 0, Some(7), 300),
            req(2, 0, Some(7), 300),
            req(3, 0, Some(7), 300),
            req(4, 0, None, 200),
        ];
        let p = plan(PlacePolicy::Gang, &reqs, &[cap(1000, 8), cap(1000, 8)]).unwrap();
        assert_eq!(p.waves, 1);
        let gang_devs: HashSet<usize> = p
            .assignments
            .iter()
            .filter(|a| a.gang == Some(7))
            .map(|a| a.device)
            .collect();
        assert_eq!(gang_devs.len(), 1, "gang split: {:?}", p.assignments);
        let gang_waves: HashSet<u32> = p
            .assignments
            .iter()
            .filter(|a| a.gang == Some(7))
            .map(|a| a.wave)
            .collect();
        assert_eq!(gang_waves.len(), 1);
    }

    #[test]
    fn drf_alternates_between_unequal_tenants() {
        // Tenant 0 asks big (400), tenant 1 asks small (100): DRF must not
        // starve tenant 1 behind tenant 0's arrivals.
        let reqs = vec![
            req(0, 0, None, 400),
            req(1, 0, None, 400),
            req(2, 1, None, 100),
            req(3, 1, None, 100),
        ];
        let p = plan(PlacePolicy::Drf, &reqs, &[cap(2000, 8)]).unwrap();
        assert_eq!(p.waves, 1);
        // First two admissions go to distinct tenants (both start at
        // share 0; tenant 0 wins the tie, then holds the larger share).
        let first_two: Vec<u64> = p.admissions.iter().take(2).map(|a| a.tenant).collect();
        assert_eq!(first_two, vec![0, 1]);
    }

    #[test]
    fn planning_is_deterministic() {
        let reqs: Vec<_> = (0..12)
            .map(|i| req(i, i % 3, (i % 4 == 0).then_some(i / 4), 50 + 30 * (i % 5)))
            .collect();
        let caps = [cap(400, 4), cap(400, 4), cap(400, 4)];
        for policy in PlacePolicy::all() {
            let a = plan(policy, &reqs, &caps).unwrap();
            let b = plan(policy, &reqs, &caps).unwrap();
            assert_eq!(a.assignments, b.assignments);
            assert_eq!(a.admissions, b.admissions);
        }
    }

    #[test]
    fn slots_are_dense_and_id_ordered_per_gvm() {
        let reqs: Vec<_> = (0..9).rev().map(|i| req(i, 0, None, 100)).collect();
        let p = plan(PlacePolicy::Spread, &reqs, &[cap(1000, 4), cap(1000, 4)]).unwrap();
        let mut per_gvm: BTreeMap<(u32, usize), Vec<(usize, u64)>> = BTreeMap::new();
        for a in &p.assignments {
            per_gvm
                .entry((a.wave, a.device))
                .or_default()
                .push((a.slot, a.request));
        }
        for members in per_gvm.values_mut() {
            members.sort();
            for (slot, &(s, _)) in members.iter().enumerate() {
                assert_eq!(s, slot, "slots dense: {members:?}");
            }
            let ids: Vec<u64> = members.iter().map(|&(_, id)| id).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "slot order follows request ids");
        }
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            plan(PlacePolicy::BinPack, &[req(0, 0, None, 10)], &[]),
            Err(PlanError::NoDevices)
        );
        assert_eq!(
            plan(
                PlacePolicy::BinPack,
                &[req(5, 0, None, 10), req(5, 0, None, 10)],
                &[cap(100, 4)]
            ),
            Err(PlanError::DuplicateRequestId(5))
        );
        assert_eq!(
            plan(
                PlacePolicy::BinPack,
                &[req(0, 0, Some(1), 10), req(1, 9, Some(1), 10)],
                &[cap(100, 4)]
            ),
            Err(PlanError::MixedTenantGang { gang: 1 })
        );
        assert_eq!(
            plan(
                PlacePolicy::BinPack,
                &[req(0, 0, None, 500)],
                &[cap(100, 4)]
            ),
            Err(PlanError::Infeasible {
                mem_bytes: 500,
                sessions: 1
            })
        );
    }

    #[test]
    fn every_policy_respects_capacity_in_every_wave() {
        let reqs: Vec<_> = (0..20)
            .map(|i| {
                req(
                    i,
                    (i / 5) % 4,
                    (i % 5 < 2).then_some(i / 5),
                    60 + 25 * (i % 7),
                )
            })
            .collect();
        let caps = [cap(500, 3), cap(400, 4)];
        for policy in PlacePolicy::all() {
            let p = plan(policy, &reqs, &caps).unwrap();
            let mut usage: HashMap<(u32, usize), (u64, u32)> = HashMap::new();
            for a in &p.assignments {
                let e = usage.entry((a.wave, a.device)).or_default();
                e.0 += a.mem_bytes;
                e.1 += 1;
            }
            for ((w, d), (mem, slots)) in usage {
                assert!(mem <= caps[d].mem_bytes, "{policy}: wave {w} dev {d} mem");
                assert!(
                    slots <= caps[d].kernel_slots,
                    "{policy}: wave {w} dev {d} slots"
                );
            }
        }
    }
}
