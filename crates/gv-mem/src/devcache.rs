//! Device-allocation cache for the fault-tolerant GVM.
//!
//! The fault-tolerant GVM allocates a rank's device working set lazily at
//! its first SND and frees it on eviction, so churny membership (evict,
//! re-admit, next job wave) turns into `cudaMalloc`/`cudaFree` churn. The
//! cache keeps freed allocations keyed by size and hands them back to the
//! next rank requesting the same footprint. Each GVM serves one device, so
//! one cache never mixes devices.
//!
//! Each parked entry carries the `SimTime` of the release that parked it,
//! and lives in one of two states:
//!
//! * **Resident** — still backed by device memory ([`CachedAlloc::Resident`]).
//! * **Swapped** — demand-swapped into a pinned host staging lease to free
//!   VRAM for another admission ([`CachedAlloc::Swapped`]); the next
//!   [`take`](DeviceAllocCache::take) of that footprint gets the lease back
//!   so the GVM can re-allocate and restore it through the chunked planner.
//!
//! Swap-victim selection is LRU by last-release time:
//! [`DeviceAllocCache::lru_resident`] removes the resident entry idle the
//! longest, regardless of its size — the entry least likely to be
//! re-admitted soon.
//!
//! The cache deliberately does **not** call into the device itself: the
//! GVM owns allocation (so armed-OOM faults still fire on real allocs) and
//! calls [`DeviceAllocCache::put`] / [`DeviceAllocCache::take`] around it.
//! At shutdown the GVM drains the cache and performs the real frees (and
//! recycles swapped leases back to the pool), so the device's alloc/free
//! balance and `used() == 0` invariants hold.

use gv_gpu::DevicePtr;
use gv_sim::SimTime;
use parking_lot::Mutex;

use crate::pool::StagingLease;

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevCacheStats {
    /// Requests satisfied from the cache (resident or swapped).
    pub hits: u64,
    /// Requests that fell through to a real device allocation.
    pub misses: u64,
    /// Allocations currently parked in the cache, in either state.
    pub cached: u64,
    /// Parked allocations currently swapped out to host staging.
    pub swapped: u64,
}

/// The state a parked allocation comes back in from
/// [`DeviceAllocCache::take`] or [`DeviceAllocCache::drain`].
#[derive(Debug)]
pub enum CachedAlloc {
    /// Still backed by device memory; ready to hand to a rank as-is.
    Resident(DevicePtr),
    /// Swapped out to a pinned staging lease. The caller must allocate
    /// device memory, restore the lease's contents through the planner,
    /// and recycle the lease.
    Swapped(StagingLease),
}

struct Entry {
    bytes: u64,
    /// Time of the release (or swap-out) that parked this entry.
    last_release: SimTime,
    state: CachedAlloc,
}

/// A cache of freed device allocations of one device, keyed by size.
#[derive(Default)]
pub struct DeviceAllocCache {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    stats: DevCacheStats,
}

impl DeviceAllocCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a cached allocation of exactly `bytes`, if one is parked. Resident entries are preferred (most recently released
    /// first); a swapped entry is returned only when no resident one fits.
    /// Counts a hit or a miss either way; on `None` the caller must
    /// allocate for real (and may later [`put`](Self::put) it back).
    pub fn take(&self, bytes: u64) -> Option<CachedAlloc> {
        let mut inner = self.inner.lock();
        let pick = |want_resident: bool, entries: &[Entry]| {
            entries
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    e.bytes == bytes && matches!(e.state, CachedAlloc::Resident(_)) == want_resident
                })
                .max_by_key(|(i, e)| (e.last_release, *i))
                .map(|(i, _)| i)
        };
        let idx = pick(true, &inner.entries).or_else(|| pick(false, &inner.entries));
        match idx {
            Some(i) => {
                let entry = inner.entries.remove(i);
                inner.stats.hits += 1;
                inner.stats.cached -= 1;
                if matches!(entry.state, CachedAlloc::Swapped(_)) {
                    inner.stats.swapped -= 1;
                }
                Some(entry.state)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Park a no-longer-needed allocation instead of freeing it, stamped
    /// with the release time `now` for LRU victim selection. The caller
    /// must have synchronized the owning stream first: a parked allocation
    /// can be re-issued to another rank immediately.
    pub fn put(&self, bytes: u64, ptr: DevicePtr, now: SimTime) {
        let mut inner = self.inner.lock();
        inner.stats.cached += 1;
        inner.entries.push(Entry {
            bytes,
            last_release: now,
            state: CachedAlloc::Resident(ptr),
        });
    }

    /// Remove and return the least-recently-released **resident** entry,
    /// of any size — the demand-swap victim. Returns the footprint,
    /// the device pointer to copy out and free, and the park timestamp (to
    /// preserve across [`park_swapped`](Self::park_swapped)). Does not
    /// count as a hit or miss.
    pub fn lru_resident(&self) -> Option<(u64, DevicePtr, SimTime)> {
        let mut inner = self.inner.lock();
        let idx = inner
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.state, CachedAlloc::Resident(_)))
            .min_by_key(|(i, e)| (e.last_release, *i))
            .map(|(i, _)| i)?;
        let entry = inner.entries.remove(idx);
        inner.stats.cached -= 1;
        let CachedAlloc::Resident(ptr) = entry.state else {
            unreachable!("lru_resident filtered on Resident");
        };
        Some((entry.bytes, ptr, entry.last_release))
    }

    /// Re-park an allocation whose contents were swapped out into `lease`,
    /// keeping its original `last_release` stamp so its LRU position is
    /// unchanged for future [`take`](Self::take) preference.
    pub fn park_swapped(&self, bytes: u64, lease: StagingLease, last_release: SimTime) {
        let mut inner = self.inner.lock();
        inner.stats.cached += 1;
        inner.stats.swapped += 1;
        inner.entries.push(Entry {
            bytes,
            last_release,
            state: CachedAlloc::Swapped(lease),
        });
    }

    /// Empty the cache, returning every parked allocation as
    /// `(bytes, state)` so the caller can perform the real frees
    /// (resident) and pool recycles (swapped).
    pub fn drain(&self) -> Vec<(u64, CachedAlloc)> {
        let mut inner = self.inner.lock();
        inner.stats.cached = 0;
        inner.stats.swapped = 0;
        let mut out: Vec<(u64, CachedAlloc)> = inner
            .entries
            .drain(..)
            .map(|e| (e.bytes, e.state))
            .collect();
        // Deterministic order regardless of park order: resident entries
        // (by allocation id) ahead of swapped ones (by lease id).
        out.sort_by_key(|(bytes, state)| {
            let (kind, id) = match state {
                CachedAlloc::Resident(p) => (0u8, p.allocation_id()),
                CachedAlloc::Swapped(l) => (1u8, l.id()),
            };
            (*bytes, kind, id)
        });
        out
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> DevCacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::StagingPool;
    use gv_gpu::{DeviceConfig, GpuDevice};
    use gv_sim::{Simulation, Tracer};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Allocate two real pointers from a device so the handles are valid.
    fn two_ptrs() -> (DevicePtr, DevicePtr) {
        let mut sim = Simulation::new();
        let dev = GpuDevice::install(&mut sim, DeviceConfig::test_tiny());
        let d = dev.clone();
        let out = std::sync::Arc::new(Mutex::new(None));
        let slot = out.clone();
        sim.spawn("host", move |ctx| {
            let a = d.alloc(1024).unwrap();
            let b = d.alloc(2048).unwrap();
            *slot.lock() = Some((a, b));
            d.free(a).unwrap();
            d.free(b).unwrap();
            d.shutdown(ctx);
        });
        sim.run().unwrap();
        let got = out.lock().take().unwrap();
        got
    }

    fn resident(c: Option<CachedAlloc>) -> DevicePtr {
        match c {
            Some(CachedAlloc::Resident(p)) => p,
            other => panic!("expected resident entry, got {other:?}"),
        }
    }

    #[test]
    fn take_miss_then_put_then_hit() {
        let (a, _) = two_ptrs();
        let cache = DeviceAllocCache::new();
        assert!(cache.take(1024).is_none());
        cache.put(1024, a, t(10));
        assert_eq!(cache.stats().cached, 1);
        assert_eq!(resident(cache.take(1024)), a);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.cached), (1, 1, 0));
    }

    #[test]
    fn keys_are_exact_sizes() {
        let (a, b) = two_ptrs();
        let cache = DeviceAllocCache::new();
        cache.put(1024, a, t(10));
        assert!(cache.take(2048).is_none(), "size must match exactly");
        cache.put(2048, b, t(10));
        assert_eq!(resident(cache.take(2048)), b);
    }

    #[test]
    fn drain_returns_everything_deterministically() {
        let (a, b) = two_ptrs();
        let cache = DeviceAllocCache::new();
        cache.put(2048, b, t(10));
        cache.put(1024, a, t(10));
        let drained = cache.drain();
        assert_eq!(drained.len(), 2);
        assert!(matches!(drained[0], (1024, CachedAlloc::Resident(p)) if p == a));
        assert!(matches!(drained[1], (2048, CachedAlloc::Resident(p)) if p == b));
        assert_eq!(cache.stats().cached, 0);
        assert!(cache.drain().is_empty());
    }

    /// Regression: the swap victim is the entry *released longest ago*, not
    /// the first inserted. B is inserted after A but with an earlier
    /// release stamp, so B must be evicted first.
    #[test]
    fn lru_victim_is_by_release_time_not_insertion_order() {
        let (a, b) = two_ptrs();
        let cache = DeviceAllocCache::new();
        cache.put(1024, a, t(10));
        cache.put(2048, b, t(5));
        let (bytes, ptr, released) = cache.lru_resident().unwrap();
        assert_eq!(
            (bytes, ptr, released),
            (2048, b, t(5)),
            "oldest release wins"
        );
        let (bytes, ptr, _) = cache.lru_resident().unwrap();
        assert_eq!((bytes, ptr), (1024, a));
        assert!(cache.lru_resident().is_none());
        assert_eq!(cache.stats().cached, 0);
    }

    fn lease(pool: &StagingPool, bytes: u64) -> StagingLease {
        pool.acquire(&Tracer::new(), bytes, false)
    }

    #[test]
    fn swapped_entries_round_trip_and_yield_to_resident() {
        let (a, _) = two_ptrs();
        let pool = StagingPool::new();
        let cache = DeviceAllocCache::new();
        cache.park_swapped(1024, lease(&pool, 1024), t(5));
        cache.put(1024, a, t(10));
        let s = cache.stats();
        assert_eq!((s.cached, s.swapped), (2, 1));
        // Resident entry preferred even though the swapped one exists.
        assert_eq!(resident(cache.take(1024)), a);
        // Then the swapped one comes back as a lease.
        match cache.take(1024) {
            Some(CachedAlloc::Swapped(l)) => assert!(l.capacity() >= 1024),
            other => panic!("expected swapped entry, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.cached, s.swapped), (2, 0, 0));
    }

    #[test]
    fn lru_resident_skips_swapped_entries() {
        let (a, _) = two_ptrs();
        let pool = StagingPool::new();
        let cache = DeviceAllocCache::new();
        cache.park_swapped(2048, lease(&pool, 2048), t(1));
        cache.put(1024, a, t(10));
        let (bytes, ptr, _) = cache.lru_resident().unwrap();
        assert_eq!(
            (bytes, ptr),
            (1024, a),
            "swapped entry is not a swap victim"
        );
        assert!(cache.lru_resident().is_none());
    }

    #[test]
    fn drain_orders_swapped_after_resident() {
        let (a, _) = two_ptrs();
        let pool = StagingPool::new();
        let cache = DeviceAllocCache::new();
        cache.park_swapped(1024, lease(&pool, 1024), t(5));
        cache.put(1024, a, t(10));
        let drained = cache.drain();
        assert_eq!(drained.len(), 2);
        assert!(matches!(drained[0].1, CachedAlloc::Resident(_)));
        assert!(matches!(drained[1].1, CachedAlloc::Swapped(_)));
        assert_eq!(cache.stats().swapped, 0);
    }
}
