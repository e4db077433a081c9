//! Pinned staging-buffer pool with size-class free lists.
//!
//! `cudaHostAlloc` / `cudaFreeHost` are expensive host calls, and the GVM
//! needs two pinned staging buffers per active rank per round. The pool
//! rounds requests up to a power-of-two size class and recycles buffers
//! across rounds and ranks, so steady-state traffic allocates nothing.
//! Pool operations cost no *simulated* time — acquiring a recycled buffer
//! models exactly the pointer swap a real pool performs — which keeps the
//! pool golden-safe: timings are unchanged whether a lease hits or misses.
//!
//! The pool is **bounded**: free-list bytes above a 512 MiB cap are
//! released back to the host at recycle time, so one demand burst does not
//! pin peak memory forever.
//!
//! Every acquire/recycle is mirrored onto the tracer's analysis stream
//! ([`AnalysisRecord::PoolAcquire`] / [`AnalysisRecord::PoolRecycle`]) so
//! `gv-analyze` can prove lease discipline and catch use-after-recycle.

use std::collections::HashMap;

use gv_cuda::HostBuffer;
use gv_sim::{AnalysisRecord, Tracer};
use parking_lot::Mutex;

/// Smallest size class handed out, in bytes.
pub const MIN_CLASS: u64 = 4096;

/// Cap on total free-list bytes. When a recycle pushes the resident free
/// bytes above it, whole buffers are released (largest size class first)
/// until back under. Big enough that no current sweep ever shrinks
/// mid-run, small enough to bound a pathological burst.
const MAX_FREE_BYTES: u64 = 512 << 20;

/// Aggregate pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires satisfied from a free list.
    pub hits: u64,
    /// Acquires that had to allocate a fresh buffer.
    pub misses: u64,
    /// Distinct buffers ever created.
    pub buffers: u64,
    /// Total bytes backing all resident buffers (live + free). Decreases
    /// when the high-water shrink releases buffers.
    pub allocated_bytes: u64,
    /// Bytes currently leased out.
    pub in_use_bytes: u64,
    /// Peak of `in_use_bytes` over the pool's lifetime.
    pub high_water_bytes: u64,
    /// Buffers released by the high-water shrink path.
    pub released_buffers: u64,
    /// Bytes released by the high-water shrink path.
    pub released_bytes: u64,
}

impl PoolStats {
    /// Fraction of acquires served from the free lists (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct PooledBuf {
    id: u64,
    buf: HostBuffer,
    /// Simulated host-address ordinal of the pinned region (see
    /// [`StagingLease::place_addr`]). Stable across recycles.
    place: u64,
}

struct Inner {
    /// Free lists keyed by (size class, functional?). Functional buffers
    /// carry real storage and must never be handed to a timing-only lease
    /// (and vice versa), so the flag is part of the key.
    free: HashMap<(u64, bool), Vec<PooledBuf>>,
    /// Current generation per buffer id. Starts at 1 on first allocation
    /// and bumps on every recycle/retire, so a descriptor minted under an
    /// earlier lease of the same buffer is recognizably stale.
    generations: HashMap<u64, u64>,
    stats: PoolStats,
    /// Next simulated host address handed to a freshly allocated buffer.
    /// Fresh allocations are laid out monotonically, so consecutive
    /// acquires that all miss receive *adjacent* pinned regions — the
    /// coalescing planner's contiguity source.
    next_place: u64,
}

/// A zero-copy handle to a window of an exported staging lease —
/// everything a client needs to address payload bytes the GVM leased to it
/// as a shared-memory segment. All-integer and `Copy`, so it rides protocol
/// messages without allocation.
///
/// Descriptors are *generation-stamped*: recycling the lease bumps the
/// buffer's generation, and [`StagingPool::validate`] rejects any
/// descriptor minted under an earlier generation. That is the entire
/// use-after-recycle defense of the zero-copy path, so it must be checked
/// on every use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagingDescriptor {
    /// Pool buffer id backing the exported segment.
    pub segment: u64,
    /// Byte offset of the payload window within the segment.
    pub offset: u64,
    /// Payload window length in bytes.
    pub len: u64,
    /// Lease generation the descriptor was minted under.
    pub generation: u64,
}

/// A pool of pinned host staging buffers.
pub struct StagingPool {
    inner: Mutex<Inner>,
}

/// An exclusive lease on one pooled buffer, from [`StagingPool::acquire`]
/// until [`StagingPool::recycle`].
pub struct StagingLease {
    buf: HostBuffer,
    id: u64,
    class: u64,
    functional: bool,
    generation: u64,
    place: u64,
}

impl StagingLease {
    /// The leased pinned buffer. Its capacity is the size class, which may
    /// exceed the requested bytes — stage exact payload ranges only; slack
    /// bytes are stale from earlier leases and must never be read.
    pub fn buffer(&self) -> &HostBuffer {
        &self.buf
    }

    /// Pool-unique buffer id (correlates with `PoolAcquire` records).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Size-class capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.class
    }

    /// Simulated host address of the pinned region. The pool lays fresh
    /// buffers out monotonically, so two leases with
    /// `a.place_addr() + a.capacity() == b.place_addr()` back *adjacent*
    /// pinned windows — the coalescing planner fuses exactly such runs
    /// into one DMA submission. The address is a model ordinal, not a
    /// real pointer; only adjacency arithmetic is meaningful.
    pub fn place_addr(&self) -> u64 {
        self.place
    }

    /// Generation this lease was granted under (see
    /// [`StagingDescriptor::generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Mint a zero-copy descriptor for a window of this lease. Panics when
    /// the window overruns the lease's size-class capacity.
    pub fn descriptor(&self, offset: u64, len: u64) -> StagingDescriptor {
        assert!(
            offset + len <= self.class,
            "descriptor window {offset}+{len} overruns lease capacity {}",
            self.class
        );
        StagingDescriptor {
            segment: self.id,
            offset,
            len,
            generation: self.generation,
        }
    }
}

impl std::fmt::Debug for StagingLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagingLease")
            .field("id", &self.id)
            .field("class", &self.class)
            .field("functional", &self.functional)
            .finish()
    }
}

fn size_class(bytes: u64) -> u64 {
    bytes.max(MIN_CLASS).next_power_of_two()
}

impl Default for StagingPool {
    fn default() -> Self {
        Self::new()
    }
}

impl StagingPool {
    /// An empty pool.
    pub fn new() -> Self {
        StagingPool {
            inner: Mutex::new(Inner {
                free: HashMap::new(),
                generations: HashMap::new(),
                stats: PoolStats::default(),
                next_place: 0,
            }),
        }
    }

    /// Lease a pinned buffer of at least `bytes` bytes. `functional`
    /// leases carry real (initially zeroed) storage; timing-only leases are
    /// opaque. Records a `PoolAcquire` on `tracer`'s analysis stream.
    pub fn acquire(&self, tracer: &Tracer, bytes: u64, functional: bool) -> StagingLease {
        self.acquire_at(tracer, bytes, functional, None)
    }

    /// Like [`acquire`](Self::acquire), but with a placement hint: when
    /// `prefer_place` is `Some(addr)`, the free list is scanned for the
    /// recycled buffer whose pinned region starts at `addr` (the one
    /// adjacent to a lease the caller already holds) before falling back
    /// to LIFO. A miss on the hint is silent — the lease is still granted,
    /// just not guaranteed adjacent — so hinted acquires are always safe.
    pub fn acquire_at(
        &self,
        tracer: &Tracer,
        bytes: u64,
        functional: bool,
        prefer_place: Option<u64>,
    ) -> StagingLease {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let class = size_class(bytes);
        let recycled = inner.free.get_mut(&(class, functional)).and_then(|list| {
            // Placement hint: prefer the free buffer whose pinned
            // region starts exactly at `prefer_place`, else LIFO.
            if let Some(addr) = prefer_place {
                if let Some(pos) = list.iter().position(|b| b.place == addr) {
                    return Some(list.swap_remove(pos));
                }
            }
            list.pop()
        });
        let hit = recycled.is_some();
        let pooled = recycled.unwrap_or_else(|| {
            // Tracer-global id: pools of co-resident GVMs share one trace,
            // so a per-pool counter would alias lease brackets.
            let id = tracer.alloc_pool_buf_id();
            inner.stats.buffers += 1;
            inner.stats.allocated_bytes += class;
            let place = inner.next_place;
            inner.next_place += class;
            let buf = if functional {
                HostBuffer::zeroed(class, true)
            } else {
                HostBuffer::opaque(class, true)
            };
            PooledBuf { id, buf, place }
        });
        if hit {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        inner.stats.in_use_bytes += class;
        inner.stats.high_water_bytes = inner.stats.high_water_bytes.max(inner.stats.in_use_bytes);
        let generation = *inner.generations.entry(pooled.id).or_insert(1);
        tracer.record_analysis(AnalysisRecord::PoolAcquire {
            time: tracer.now_hint(),
            buf: pooled.id,
            bytes: class,
            hit,
        });
        StagingLease {
            buf: pooled.buf.clone(),
            id: pooled.id,
            class,
            functional,
            generation,
            place: pooled.place,
        }
    }

    /// Return a lease to its free list. Records a `PoolRecycle`. The
    /// caller must not recycle while an async copy into or out of the
    /// buffer is still in flight (gv-analyze's staging checker enforces
    /// this over traces). When the recycle pushes resident free bytes over
    /// the pool's 512 MiB cap, whole buffers are released — largest size
    /// class first — until back under it.
    pub fn recycle(&self, tracer: &Tracer, lease: StagingLease) {
        let mut inner = self.inner.lock();
        inner.stats.in_use_bytes -= lease.class;
        // The recycle invalidates every descriptor minted under this
        // lease: the next acquire of the same buffer sees a new generation.
        *inner.generations.entry(lease.id).or_insert(1) += 1;
        tracer.record_analysis(AnalysisRecord::PoolRecycle {
            time: tracer.now_hint(),
            buf: lease.id,
        });
        inner
            .free
            .entry((lease.class, lease.functional))
            .or_default()
            .push(PooledBuf {
                id: lease.id,
                buf: lease.buf,
                place: lease.place,
            });
        Self::shrink_to(&mut inner, MAX_FREE_BYTES);
    }

    /// Retire a lease without returning its buffer to the free lists: the
    /// generation still bumps (outstanding descriptors go stale) and a
    /// `PoolRecycle` retirement marker is recorded, but the buffer is
    /// dropped — used when an in-flight copy may still reference it, so it
    /// must never be handed out again.
    pub fn retire(&self, tracer: &Tracer, lease: StagingLease) {
        let mut inner = self.inner.lock();
        inner.stats.in_use_bytes -= lease.class;
        inner.stats.allocated_bytes -= lease.class;
        inner.stats.released_buffers += 1;
        inner.stats.released_bytes += lease.class;
        *inner.generations.entry(lease.id).or_insert(1) += 1;
        tracer.record_analysis(AnalysisRecord::PoolRecycle {
            time: tracer.now_hint(),
            buf: lease.id,
        });
    }

    /// Current generation of buffer `buf`, or `None` for an id this pool
    /// never handed out.
    pub fn generation_of(&self, buf: u64) -> Option<u64> {
        self.inner.lock().generations.get(&buf).copied()
    }

    /// Is `desc` current — minted under the buffer's present generation?
    /// A descriptor from a recycled (or retired) lease always fails here;
    /// so does one naming a buffer this pool never granted.
    pub fn validate(&self, desc: &StagingDescriptor) -> bool {
        self.generation_of(desc.segment) == Some(desc.generation)
    }

    /// Drop free buffers (largest class first) until resident free bytes
    /// are at most `cap`. Within one class the functional list goes before
    /// the timing-only one: the victim is the largest full key, so the
    /// choice never depends on the map's iteration order. Zero simulated
    /// time: releasing pinned memory is a host-side operation the model
    /// does not charge.
    fn shrink_to(inner: &mut Inner, cap: u64) {
        while inner.stats.allocated_bytes - inner.stats.in_use_bytes > cap {
            let victim_key = inner
                .free
                .iter()
                .filter(|(_, list)| !list.is_empty())
                .map(|(key, _)| *key)
                .max();
            let Some(key) = victim_key else { break };
            if let Some(list) = inner.free.get_mut(&key) {
                if list.pop().is_some() {
                    inner.stats.allocated_bytes -= key.0;
                    inner.stats.released_buffers += 1;
                    inner.stats.released_bytes += key.0;
                }
                if list.is_empty() {
                    inner.free.remove(&key);
                }
            }
        }
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }
}

/// Adapter exporting a staging lease's pinned buffer as the storage behind
/// a shared-memory segment ([`gv_ipc::ShmBacking`]). Client writes to the
/// segment land directly in the lease region the GVM issues H2D copies
/// from — the zero-copy transport's segment == staging lease identity.
pub struct LeaseBacking(HostBuffer);

impl LeaseBacking {
    /// Back a segment with `lease`'s buffer. The backing holds a shared
    /// handle to the storage, so it stays valid for the lifetime of the
    /// segment even after the lease object moves.
    pub fn new(lease: &StagingLease) -> Self {
        LeaseBacking(lease.buffer().clone())
    }
}

impl gv_ipc::ShmBacking for LeaseBacking {
    fn len(&self) -> u64 {
        self.0.len()
    }
    fn is_functional(&self) -> bool {
        self.0.is_functional()
    }
    fn store(&self, offset: u64, data: &[u8]) {
        self.0.fill_at(offset, data);
    }
    fn load(&self, offset: u64, out: &mut [u8]) {
        self.0.read_into(offset, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new()
    }

    #[test]
    fn miss_then_hit_reuses_buffer() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 5000, false);
        let id = a.id();
        assert_eq!(a.capacity(), 8192, "5000 rounds up to the 8 KiB class");
        pool.recycle(&t, a);
        let b = pool.acquire(&t, 6000, false);
        assert_eq!(b.id(), id, "same class must recycle the same buffer");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.buffers), (1, 1, 1));
        assert_eq!(s.allocated_bytes, 8192);
    }

    #[test]
    fn classes_and_functional_flag_separate_lists() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 4096, false);
        pool.recycle(&t, a);
        // Different class: no hit.
        let b = pool.acquire(&t, 8192, false);
        // Same class but functional: no hit either.
        let c = pool.acquire(&t, 4096, true);
        assert!(c.buffer().is_functional());
        assert!(!b.buffer().is_functional());
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 3);
    }

    #[test]
    fn high_water_tracks_peak_in_use() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, MIN_CLASS, false);
        let b = pool.acquire(&t, MIN_CLASS, false);
        assert_eq!(pool.stats().high_water_bytes, 2 * MIN_CLASS);
        pool.recycle(&t, a);
        pool.recycle(&t, b);
        let s = pool.stats();
        assert_eq!(s.in_use_bytes, 0);
        assert_eq!(s.high_water_bytes, 2 * MIN_CLASS);
        assert!((s.hit_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_requests_share_the_min_class() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 1, false);
        assert_eq!(a.capacity(), MIN_CLASS);
        pool.recycle(&t, a);
        let b = pool.acquire(&t, 100, false);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(b.capacity(), MIN_CLASS);
    }

    #[test]
    fn burst_shrinks_back_under_high_water_cap() {
        // Regression: the pool used to hold its peak demand forever. A
        // burst of 10 × 64 MiB timing-only leases (opaque, so nothing is
        // really allocated) must release buffers on recycle until resident
        // free bytes fit the 512 MiB cap.
        let t = tracer();
        let pool = StagingPool::new();
        let class = 64 << 20;
        let leases: Vec<_> = (0..10).map(|_| pool.acquire(&t, class, false)).collect();
        assert_eq!(pool.stats().allocated_bytes, 10 * class);
        for l in leases {
            pool.recycle(&t, l);
        }
        let s = pool.stats();
        assert_eq!(s.in_use_bytes, 0);
        assert_eq!(
            s.allocated_bytes, MAX_FREE_BYTES,
            "resident bytes must drop to the cap after the burst"
        );
        assert_eq!(s.released_buffers, 2);
        assert_eq!(s.released_bytes, 2 * class);
        assert_eq!(s.high_water_bytes, 10 * class, "peak demand still recorded");
        // The survivors still recycle as hits.
        let a = pool.acquire(&t, class, false);
        assert_eq!(pool.stats().hits, 1);
        pool.recycle(&t, a);
    }

    #[test]
    fn shrink_releases_largest_classes_first() {
        let t = tracer();
        let pool = StagingPool::new();
        let small = pool.acquire(&t, MIN_CLASS, false);
        let big = pool.acquire(&t, MAX_FREE_BYTES, false);
        pool.recycle(&t, small);
        // Still under cap: exactly MIN_CLASS free.
        assert_eq!(pool.stats().released_buffers, 0);
        pool.recycle(&t, big);
        // Over cap: the big class goes first, the small buffer survives.
        let s = pool.stats();
        assert_eq!(s.released_bytes, MAX_FREE_BYTES);
        assert_eq!(s.allocated_bytes, MIN_CLASS);
        assert_eq!(pool.acquire(&t, MIN_CLASS, false).capacity(), MIN_CLASS);
        assert_eq!(pool.stats().hits, 1, "small survivor recycles as a hit");
    }

    #[test]
    fn shrink_tie_between_functional_and_timing_lists_is_deterministic() {
        // One free buffer of the same class on each of the functional and
        // timing-only lists; a shrink that must drop exactly one picks the
        // functional one every time, whatever the free-list map's
        // per-instance iteration order.
        let t = tracer();
        for _ in 0..16 {
            let pool = StagingPool::new();
            let functional = pool.acquire(&t, MIN_CLASS, true);
            let timing = pool.acquire(&t, MIN_CLASS, false);
            let timing_id = timing.id();
            pool.recycle(&t, functional);
            pool.recycle(&t, timing);
            StagingPool::shrink_to(&mut pool.inner.lock(), MIN_CLASS);
            let s = pool.stats();
            assert_eq!((s.released_buffers, s.allocated_bytes), (1, MIN_CLASS));
            let survivor = pool.acquire(&t, MIN_CLASS, false);
            assert_eq!(survivor.id(), timing_id, "timing-only buffer survives");
            assert_eq!(pool.stats().hits, 1);
            pool.acquire(&t, MIN_CLASS, true);
            assert_eq!(pool.stats().misses, 3, "functional buffer was released");
        }
    }

    #[test]
    fn recycle_bumps_generation_and_stales_descriptors() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 4096, false);
        assert_eq!(a.generation(), 1);
        let desc = a.descriptor(0, 100);
        assert_eq!(desc.segment, a.id());
        assert!(pool.validate(&desc));
        pool.recycle(&t, a);
        // The recycle alone stales the descriptor, before any re-acquire.
        assert!(!pool.validate(&desc));
        let b = pool.acquire(&t, 4096, false);
        assert_eq!(b.id(), desc.segment, "same buffer recycled");
        assert_eq!(b.generation(), 2);
        assert!(pool.validate(&b.descriptor(0, 100)));
        assert!(!pool.validate(&desc), "old generation stays stale");
        pool.recycle(&t, b);
    }

    #[test]
    fn retire_stales_descriptors_without_reuse() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 4096, false);
        let id = a.id();
        let desc = a.descriptor(0, 4096);
        pool.retire(&t, a);
        assert!(!pool.validate(&desc));
        let s = pool.stats();
        assert_eq!(s.in_use_bytes, 0);
        assert_eq!(s.allocated_bytes, 0);
        assert_eq!(s.released_buffers, 1);
        // The buffer never re-enters a free list.
        let b = pool.acquire(&t, 4096, false);
        assert_ne!(b.id(), id);
        assert_eq!(pool.stats().hits, 0);
        pool.recycle(&t, b);
    }

    #[test]
    fn validate_rejects_foreign_buffers() {
        let pool = StagingPool::new();
        assert_eq!(pool.generation_of(77), None);
        assert!(!pool.validate(&StagingDescriptor {
            segment: 77,
            offset: 0,
            len: 16,
            generation: 1,
        }));
    }

    #[test]
    #[should_panic(expected = "overruns lease capacity")]
    fn descriptor_window_must_fit_capacity() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 4096, false);
        let _ = a.descriptor(4000, 200);
    }

    #[test]
    fn lease_backing_exports_shared_storage() {
        use gv_ipc::ShmBacking;
        let t = tracer();
        let pool = StagingPool::new();
        let lease = pool.acquire(&t, 4096, true);
        let backing = LeaseBacking::new(&lease);
        assert_eq!(backing.len(), lease.capacity());
        assert!(backing.is_functional());
        backing.store(8, &[1, 2, 3]);
        // The store is visible through the lease buffer itself.
        let mut out = [0u8; 3];
        lease.buffer().read_into(8, &mut out);
        assert_eq!(out, [1, 2, 3]);
        out = [0; 3];
        backing.load(8, &mut out);
        assert_eq!(out, [1, 2, 3]);
        // Timing-only leases export as non-functional backings.
        let opaque = pool.acquire(&t, 4096, false);
        assert!(!LeaseBacking::new(&opaque).is_functional());
        pool.recycle(&t, lease);
        pool.recycle(&t, opaque);
    }

    #[test]
    fn fresh_allocations_are_laid_out_adjacent() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, MIN_CLASS, false);
        let b = pool.acquire(&t, MIN_CLASS, false);
        let c = pool.acquire(&t, 1 << 20, false);
        assert_eq!(a.place_addr() + a.capacity(), b.place_addr());
        assert_eq!(b.place_addr() + b.capacity(), c.place_addr());
        pool.recycle(&t, a);
        pool.recycle(&t, b);
        pool.recycle(&t, c);
    }

    #[test]
    fn place_addr_is_stable_across_recycles() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, MIN_CLASS, false);
        let (id, place) = (a.id(), a.place_addr());
        pool.recycle(&t, a);
        let b = pool.acquire(&t, MIN_CLASS, false);
        assert_eq!(b.id(), id);
        assert_eq!(b.place_addr(), place, "recycle must not move the region");
        pool.recycle(&t, b);
    }

    #[test]
    fn hinted_acquire_prefers_the_adjacent_buffer() {
        let t = tracer();
        let pool = StagingPool::new();
        let a = pool.acquire(&t, MIN_CLASS, false);
        let b = pool.acquire(&t, MIN_CLASS, false);
        let (place_a, place_b) = (a.place_addr(), b.place_addr());
        // Recycle in an order that leaves `b` on top of the LIFO list,
        // then ask for `a`'s address: the hint must beat LIFO.
        pool.recycle(&t, a);
        pool.recycle(&t, b);
        let hinted = pool.acquire_at(&t, MIN_CLASS, false, Some(place_a));
        assert_eq!(hinted.place_addr(), place_a);
        // A hint naming an address not on the free list falls back to
        // LIFO and still grants a lease.
        let fallback = pool.acquire_at(&t, MIN_CLASS, false, Some(999_999_999));
        assert_eq!(fallback.place_addr(), place_b);
        assert_eq!(pool.stats().misses, 2, "both hinted acquires were hits");
        pool.recycle(&t, hinted);
        pool.recycle(&t, fallback);
    }

    #[test]
    fn acquires_are_mirrored_to_analysis_records() {
        let t = Tracer::new();
        t.set_analysis(true);
        let pool = StagingPool::new();
        let a = pool.acquire(&t, 4096, false);
        pool.recycle(&t, a);
        pool.acquire(&t, 4096, false);
        let recs = t.analysis_snapshot();
        let acquires = recs
            .iter()
            .filter(|r| matches!(r, AnalysisRecord::PoolAcquire { .. }))
            .count();
        let hits = recs
            .iter()
            .filter(|r| matches!(r, AnalysisRecord::PoolAcquire { hit: true, .. }))
            .count();
        let recycles = recs
            .iter()
            .filter(|r| matches!(r, AnalysisRecord::PoolRecycle { .. }))
            .count();
        assert_eq!((acquires, hits, recycles), (2, 1, 1));
    }
}
