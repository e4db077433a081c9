//! # gv-mem — unified buffer-lifecycle layer
//!
//! Every payload the GVM moves between an SPMD rank and the GPU crosses
//! three buffers: the rank's shared-memory segment, a pinned host staging
//! buffer, and the device working set. This crate owns the lifecycle of
//! all three hops so the protocol code ([`gv-virt`]) only orchestrates:
//!
//! * [`StagingPool`] — pinned staging buffers on power-of-two size-class
//!   free lists, leased per round and recycled across rounds and ranks.
//!   Replaces per-rank ad-hoc `cudaHostAlloc`-style allocations.
//! * [`DeviceAllocCache`] — freed device allocations parked by size so
//!   the fault-tolerant GVM's evict/re-admit churn reuses buffers instead
//!   of malloc/free cycles.
//! * [`PipelineConfig`] — the chunked transfer planner: payloads at or
//!   above a threshold split into *k* spans issued as interleaved async
//!   copies, so staging of span *i+1* overlaps the H2D copy of span *i*
//!   and early D2H chunks overlap remaining compute at flush. Disabled by
//!   default, in which case every transfer is one span and the GVM is
//!   bit-identical to serial staging.
//! * [`AdaptiveChooser`] — model-driven chunk sizing: per-transfer `k`
//!   from the `pipelined_staging` term in `gv-model` plus an online EWMA
//!   of measured staging latency, capped by the config.
//! * [`CoalescePlan`] — the cross-rank coalescing planner: partitions a
//!   flush's admitted members into runs of adjacent staging leases
//!   ([`StagingLease::place_addr`](pool::StagingLease::place_addr)) so
//!   one fused DMA submission sweeps each run and follower sub-ops elide
//!   the per-op setup latency. Off by default ([`MemConfig::coalesce`]).
//! * [`stage_span`] / [`record_chunk`] / [`record_plan`] — the single
//!   span-wise data mover both protocol directions share, and the
//!   analysis-record emitters that let `gv-analyze` prove chunk tiling
//!   (including under adaptive plans) and pool-lease discipline.
//!
//! [`gv-virt`]: ../gv_virt/index.html

#![warn(missing_docs)]

pub mod adaptive;
pub mod coalesce;
pub mod config;
pub mod devcache;
pub mod pool;
pub mod stage;

pub use adaptive::AdaptiveChooser;
pub use coalesce::{CoalesceMember, CoalescePlan, FUSE_THRESHOLD, MAX_GROUP};
pub use config::{MemConfig, PipelineConfig, Span};
pub use devcache::{CachedAlloc, DevCacheStats, DeviceAllocCache};
pub use pool::{LeaseBacking, PoolStats, StagingDescriptor, StagingLease, StagingPool, MIN_CLASS};
pub use stage::{record_chunk, record_plan, stage_span};
