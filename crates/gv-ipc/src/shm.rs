//! POSIX-like named shared memory with a copy-cost model.
//!
//! The paper's GVM gives every user process its own "virtual shared memory"
//! segment (POSIX `shm_open` + `mmap`) for exchanging GPU data with the
//! virtualization layer. [`ShmRegistry`] provides named creation/opening;
//! reads and writes charge the caller host-memcpy time from the node
//! configuration, and optionally move real bytes for functional runs.

use std::collections::HashMap;
use std::sync::Arc;

use gv_sim::Ctx;
use parking_lot::Mutex;

use crate::node::NodeConfig;

/// Errors from shared-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// `create` on an existing name.
    AlreadyExists(String),
    /// `open` on an unknown name.
    NotFound(String),
    /// Access beyond the segment size.
    OutOfBounds {
        /// Name of the segment the access targeted.
        segment: String,
        /// Byte offset the access started at.
        offset: u64,
        /// First byte past the access.
        end: u64,
        /// Segment size.
        size: u64,
    },
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmError::AlreadyExists(n) => write!(f, "shm '{n}' already exists"),
            ShmError::NotFound(n) => write!(f, "shm '{n}' not found"),
            ShmError::OutOfBounds {
                segment,
                offset,
                end,
                size,
            } => {
                write!(
                    f,
                    "shm '{segment}' access out of bounds: offset {offset}, end {end} > size {size}"
                )
            }
        }
    }
}

/// External storage a segment can be created over ([`ShmRegistry::create_backed`]).
///
/// The zero-copy transport exports a pinned staging-pool lease *as* a
/// shared-memory segment: client writes land directly in the lease region
/// the GVM issues H2D copies from, so `SND` carries only a descriptor.
/// `gv-ipc` stays agnostic of what the backing is — it only needs stores
/// and loads by offset.
#[allow(clippy::len_without_is_empty)]
pub trait ShmBacking: Send + Sync {
    /// Backing capacity in bytes (must cover the segment size).
    fn len(&self) -> u64;
    /// Does the backing carry real bytes? Timing-only backings make the
    /// segment behave like an untouched one (reads are zeroes).
    fn is_functional(&self) -> bool;
    /// Store `data` at `offset` (functional backings only).
    fn store(&self, offset: u64, data: &[u8]);
    /// Fill `out` from `offset` (functional backings only).
    fn load(&self, offset: u64, out: &mut [u8]);
}

impl std::error::Error for ShmError {}

struct Segment {
    size: u64,
    /// Lazily materialized contents (functional runs only). Unused when
    /// `backing` is set.
    data: Option<Vec<u8>>,
    /// External storage the segment was exported over (zero-copy leases).
    backing: Option<Arc<dyn ShmBacking>>,
}

/// Armed deterministic corruption faults for one named segment.
///
/// Indices count *timed writes over the segment's lifetime* (0-based), so a
/// schedule armed before the segment exists fires deterministically once
/// traffic starts. Each armed fault is consumed when it fires.
#[derive(Debug, Default)]
pub struct ShmFaults {
    writes: u64,
    corrupt_at: Vec<u64>,
}

impl ShmFaults {
    /// `(seq, corrupt)` decision for the next timed write.
    fn next_write(&mut self) -> (u64, bool) {
        let seq = self.writes;
        self.writes += 1;
        let corrupt = match self.corrupt_at.iter().position(|&s| s == seq) {
            Some(i) => {
                self.corrupt_at.swap_remove(i);
                true
            }
            None => false,
        };
        (seq, corrupt)
    }
}

/// A handle to one named shared-memory segment.
#[derive(Clone)]
pub struct SharedMem {
    name: String,
    seg: Arc<Mutex<Segment>>,
    node: Arc<NodeConfig>,
    faults: Arc<Mutex<ShmFaults>>,
}

impl std::fmt::Debug for SharedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMem")
            .field("name", &self.name)
            .field("size", &self.seg.lock().size)
            .finish()
    }
}

impl SharedMem {
    /// Segment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record this access for happens-before analysis (no-op unless the
    /// tracer's analysis recording is on — `clock_stamp` returns `None`).
    fn record_access(&self, ctx: &mut Ctx, offset: u64, len: u64, is_write: bool) {
        if let Some(clock) = ctx.clock_stamp() {
            ctx.tracer()
                .record_analysis(gv_sim::AnalysisRecord::ShmAccess {
                    time: ctx.now(),
                    pid: ctx.pid(),
                    process: ctx.name(),
                    segment: self.name.clone(),
                    offset: offset as usize,
                    len: len as usize,
                    is_write,
                    clock,
                });
        }
    }

    /// Segment size in bytes.
    pub fn size(&self) -> u64 {
        self.seg.lock().size
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), ShmError> {
        let size = self.seg.lock().size;
        let end = offset + len;
        if end > size {
            Err(ShmError::OutOfBounds {
                segment: self.name.clone(),
                offset,
                end,
                size,
            })
        } else {
            Ok(())
        }
    }

    /// Charge the caller for copying the `len` bytes at `offset` into
    /// (`is_write`) or out of this segment without moving real data
    /// (timing-only ranks). This is the timed half of every access: the
    /// bounds check, the memcpy hold and the access record that
    /// [`write`](Self::write) and [`read_into`](Self::read_into) also make.
    pub fn touch(
        &self,
        ctx: &mut Ctx,
        offset: u64,
        len: u64,
        is_write: bool,
    ) -> Result<(), ShmError> {
        self.check(offset, len)?;
        ctx.hold(self.node.memcpy_time(len));
        self.record_access(ctx, offset, len, is_write);
        Ok(())
    }

    /// Write `data` at `offset`, charging memcpy time:
    /// [`touch`](Self::touch), then [`store`](Self::store).
    pub fn write(&self, ctx: &mut Ctx, offset: u64, data: &[u8]) -> Result<(), ShmError> {
        self.touch(ctx, offset, data.len() as u64, true)?;
        self.store(ctx, offset, data)
    }

    /// The untimed half of [`write`](Self::write): copy `data` in at
    /// `offset` without a hold, for a caller that already charged the
    /// copy with [`touch`](Self::touch). It never yields, so it may run
    /// under another lock. Every store counts as one timed write for the
    /// fault schedule: if corruption is armed for it, every stored byte is
    /// XORed with `0xFF` after the copy (modelling a torn/garbled transfer)
    /// and a `fault`-category instant is recorded on the tracer.
    pub fn store(&self, ctx: &mut Ctx, offset: u64, data: &[u8]) -> Result<(), ShmError> {
        self.poke(offset, data)?;
        let (seq, corrupt) = self.faults.lock().next_write();
        if corrupt {
            let flipped: Vec<u8> = data.iter().map(|b| b ^ 0xFF).collect();
            self.poke(offset, &flipped)?;
            ctx.tracer()
                .fault(ctx.now(), format!("shm-corrupt:{}#{seq}", self.name));
        }
        Ok(())
    }

    /// Arm a corruption fault at this segment's `nth` timed write (0-based).
    pub fn arm_corrupt(&self, nth: u64) {
        self.faults.lock().corrupt_at.push(nth);
    }

    /// Fill `out` from `offset`, charging memcpy time:
    /// [`touch`](Self::touch), then [`load`](Self::load), so the bytes are
    /// copied once. Untouched regions read as zeroes.
    pub fn read_into(&self, ctx: &mut Ctx, offset: u64, out: &mut [u8]) -> Result<(), ShmError> {
        self.touch(ctx, offset, out.len() as u64, false)?;
        self.load(offset, out)
    }

    /// The untimed half of [`read_into`](Self::read_into): fill `out` from
    /// `offset` without a hold or an access record, for a caller that
    /// already charged the copy with [`touch`](Self::touch) (or for
    /// verification). Backing if present, else the private store; never
    /// yields. Untouched storage reads as zeroes and is never materialized
    /// by a load.
    pub fn load(&self, offset: u64, out: &mut [u8]) -> Result<(), ShmError> {
        self.check(offset, out.len() as u64)?;
        let seg = self.seg.lock();
        if let Some(backing) = seg.backing.clone() {
            drop(seg);
            if backing.is_functional() {
                backing.load(offset, out);
            } else {
                out.fill(0);
            }
            return Ok(());
        }
        match &seg.data {
            Some(store) => {
                out.copy_from_slice(&store[offset as usize..offset as usize + out.len()])
            }
            None => out.fill(0),
        }
        Ok(())
    }

    /// Zero-cost snapshot of the raw contents (verification plumbing, not a
    /// timed operation).
    pub fn peek(&self, offset: u64, len: u64) -> Result<Vec<u8>, ShmError> {
        self.check(offset, len)?;
        let mut out = vec![0u8; len as usize];
        self.load(offset, &mut out)?;
        Ok(out)
    }

    /// Zero-cost raw write with no fault accounting (seeding test
    /// fixtures; [`store`](Self::store) builds on it).
    pub fn poke(&self, offset: u64, data: &[u8]) -> Result<(), ShmError> {
        self.check(offset, data.len() as u64)?;
        let mut seg = self.seg.lock();
        if let Some(backing) = seg.backing.clone() {
            drop(seg);
            if backing.is_functional() {
                backing.store(offset, data);
            }
            return Ok(());
        }
        let size = seg.size as usize;
        let store = seg.data.get_or_insert_with(|| vec![0u8; size]);
        store[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }
}

/// The node-wide shared-memory namespace (`/dev/shm` analogue).
#[derive(Clone)]
pub struct ShmRegistry {
    node: Arc<NodeConfig>,
    segments: Arc<Mutex<HashMap<String, Arc<Mutex<Segment>>>>>,
    /// Fault schedules by segment name, independent of segment lifetime so
    /// a plan can be armed before the target segment is created.
    faults: Arc<Mutex<HashMap<String, Arc<Mutex<ShmFaults>>>>>,
}

impl ShmRegistry {
    /// An empty namespace using `node`'s cost model.
    pub fn new(node: &NodeConfig) -> Self {
        ShmRegistry {
            node: Arc::new(node.clone()),
            segments: Arc::new(Mutex::new(HashMap::new())),
            faults: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The (shared, lazily created) fault schedule for segment `name`.
    pub fn fault_entry(&self, name: &str) -> Arc<Mutex<ShmFaults>> {
        Arc::clone(self.faults.lock().entry(name.to_string()).or_default())
    }

    /// Arm a corruption fault at the `nth` timed write of segment `name`
    /// (armable before the segment exists).
    pub fn arm_corrupt(&self, name: &str, nth: u64) {
        self.fault_entry(name).lock().corrupt_at.push(nth);
    }

    /// `shm_open(O_CREAT|O_EXCL)`: create a named segment.
    pub fn create(&self, name: &str, size: u64) -> Result<SharedMem, ShmError> {
        let mut segs = self.segments.lock();
        if segs.contains_key(name) {
            return Err(ShmError::AlreadyExists(name.to_string()));
        }
        let seg = Arc::new(Mutex::new(Segment {
            size,
            data: None,
            backing: None,
        }));
        segs.insert(name.to_string(), Arc::clone(&seg));
        drop(segs);
        Ok(SharedMem {
            name: name.to_string(),
            seg,
            node: Arc::clone(&self.node),
            faults: self.fault_entry(name),
        })
    }

    /// `shm_open(O_CREAT|O_EXCL)` over external storage: create a named
    /// segment whose bytes live in `backing` (a zero-copy staging lease).
    /// Writes and reads charge the same memcpy model as a private segment
    /// but move bytes directly in the backing, so a copy out of the segment
    /// on the other side is no longer needed.
    pub fn create_backed(
        &self,
        name: &str,
        size: u64,
        backing: Arc<dyn ShmBacking>,
    ) -> Result<SharedMem, ShmError> {
        assert!(
            backing.len() >= size,
            "shm '{name}' backing of {} bytes cannot cover segment of {size} bytes",
            backing.len()
        );
        let mut segs = self.segments.lock();
        if segs.contains_key(name) {
            return Err(ShmError::AlreadyExists(name.to_string()));
        }
        let seg = Arc::new(Mutex::new(Segment {
            size,
            data: None,
            backing: Some(backing),
        }));
        segs.insert(name.to_string(), Arc::clone(&seg));
        drop(segs);
        Ok(SharedMem {
            name: name.to_string(),
            seg,
            node: Arc::clone(&self.node),
            faults: self.fault_entry(name),
        })
    }

    /// `shm_open(0)`: open an existing named segment.
    pub fn open(&self, name: &str) -> Result<SharedMem, ShmError> {
        let seg = {
            let segs = self.segments.lock();
            Arc::clone(
                segs.get(name)
                    .ok_or_else(|| ShmError::NotFound(name.to_string()))?,
            )
        };
        Ok(SharedMem {
            name: name.to_string(),
            seg,
            node: Arc::clone(&self.node),
            faults: self.fault_entry(name),
        })
    }

    /// `shm_unlink`: remove a name (existing handles stay usable).
    pub fn unlink(&self, name: &str) -> Result<(), ShmError> {
        self.segments
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ShmError::NotFound(name.to_string()))
    }

    /// Number of live names.
    pub fn len(&self) -> usize {
        self.segments.lock().len()
    }

    /// Is the namespace empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use gv_sim::{AnalysisRecord, SimTime, Simulation};

    /// Counts each thread's heap allocations, so a test can show that a
    /// code path allocates nothing.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        }

        struct Counting;

        // SAFETY: every call is forwarded unchanged to the system allocator.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;

        /// Allocations made so far on the calling thread.
        pub fn allocations() -> u64 {
            ALLOCATIONS.with(Cell::get)
        }
    }

    fn registry() -> ShmRegistry {
        ShmRegistry::new(&NodeConfig::test_tiny())
    }

    #[test]
    fn create_open_roundtrip() {
        let reg = registry();
        let a = reg.create("/gvm-p0", 1024).unwrap();
        let b = reg.open("/gvm-p0").unwrap();
        a.poke(0, &[1, 2, 3]).unwrap();
        assert_eq!(b.peek(0, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let reg = registry();
        reg.create("/x", 64).unwrap();
        assert_eq!(
            reg.create("/x", 64).unwrap_err(),
            ShmError::AlreadyExists("/x".into())
        );
    }

    #[test]
    fn open_missing_rejected() {
        let reg = registry();
        assert_eq!(reg.open("/y").unwrap_err(), ShmError::NotFound("/y".into()));
    }

    #[test]
    fn unlink_removes_name_but_not_mapping() {
        let reg = registry();
        let seg = reg.create("/z", 64).unwrap();
        reg.unlink("/z").unwrap();
        assert!(reg.open("/z").is_err());
        seg.poke(0, &[9]).unwrap(); // handle still alive
        assert_eq!(seg.peek(0, 1).unwrap(), vec![9]);
    }

    #[test]
    fn timed_write_read_charges_memcpy() {
        let mut sim = Simulation::new();
        let reg = registry();
        let seg = reg.create("/t", 2_000_000).unwrap();
        sim.spawn("p", move |ctx| {
            // 1 MB at 1 GB/s = 1 ms (+1 µs latency), twice.
            let data = vec![7u8; 1_000_000];
            seg.write(ctx, 0, &data).unwrap();
            let mut back = vec![0u8; 1_000_000];
            seg.read_into(ctx, 0, &mut back).unwrap();
            assert_eq!(back, data);
            let t = ctx.now().as_millis_f64();
            assert!((t - 2.002).abs() < 1e-6, "t = {t}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn armed_corruption_flips_exactly_that_write() {
        let mut sim = Simulation::new();
        sim.tracer().set_enabled(true);
        let tracer = sim.tracer().clone();
        let reg = registry();
        // Armed through the registry before the segment exists.
        reg.arm_corrupt("/cor", 1);
        let seg = reg.create("/cor", 16).unwrap();
        sim.spawn("p", move |ctx| {
            seg.write(ctx, 0, &[1, 2, 3]).unwrap();
            assert_eq!(seg.peek(0, 3).unwrap(), vec![1, 2, 3]);
            seg.write(ctx, 0, &[1, 2, 3]).unwrap();
            assert_eq!(seg.peek(0, 3).unwrap(), vec![0xFE, 0xFD, 0xFC]);
            seg.write(ctx, 0, &[1, 2, 3]).unwrap();
            assert_eq!(seg.peek(0, 3).unwrap(), vec![1, 2, 3]);
        });
        sim.run().unwrap();
        let faults = tracer.fault_events();
        assert_eq!(faults.len(), 1);
        // The label carries the segment name so multi-segment fault
        // schedules stay attributable.
        assert_eq!(faults[0].label, "shm-corrupt:/cor#1");
        assert!(faults[0].label.contains("/cor"));
    }

    #[test]
    fn store_and_load_are_untimed_and_store_counts_as_a_write() {
        let mut sim = Simulation::new();
        sim.tracer().set_enabled(true);
        let tracer = sim.tracer().clone();
        let reg = registry();
        reg.arm_corrupt("/sl", 1);
        let seg = reg.create("/sl", 16).unwrap();
        sim.spawn("p", move |ctx| {
            seg.store(ctx, 4, &[1, 2]).unwrap();
            seg.store(ctx, 4, &[1, 2]).unwrap();
            assert_eq!(ctx.now(), SimTime::ZERO, "store charged time");
            let mut out = [0u8; 4];
            seg.load(3, &mut out).unwrap();
            assert_eq!(out, [0, 0xFE, 0xFD, 0]);
            assert!(matches!(
                seg.store(ctx, 15, &[0, 0]),
                Err(ShmError::OutOfBounds { end: 17, .. })
            ));
            seg.load(12, &mut out).unwrap();
            assert!(matches!(
                seg.load(13, &mut out),
                Err(ShmError::OutOfBounds { end: 17, .. })
            ));
        });
        sim.run().unwrap();
        assert_eq!(tracer.fault_events()[0].label, "shm-corrupt:/sl#1");
    }

    #[test]
    fn out_of_bounds_names_segment_and_offset() {
        let mut sim = Simulation::new();
        let reg = registry();
        let seg = reg.create("/b", 16).unwrap();
        sim.spawn("p", move |ctx| {
            let err = seg.write(ctx, 10, &[0u8; 10]).unwrap_err();
            assert_eq!(
                err,
                ShmError::OutOfBounds {
                    segment: "/b".into(),
                    offset: 10,
                    end: 20,
                    size: 16,
                }
            );
            let msg = err.to_string();
            assert!(msg.contains("'/b'"), "missing segment name: {msg}");
            assert!(msg.contains("offset 10"), "missing offset: {msg}");
            assert!(matches!(
                seg.touch(ctx, 0, 17, true),
                Err(ShmError::OutOfBounds { .. })
            ));
        });
        sim.run().unwrap();
    }

    #[test]
    fn touch_checks_the_span_at_its_offset() {
        let mut sim = Simulation::new();
        let reg = registry();
        let seg = reg.create("/span", 16).unwrap();
        sim.spawn("p", move |ctx| {
            // Eight bytes fit the segment, but not at offset 12.
            seg.touch(ctx, 0, 8, true).unwrap();
            let t = ctx.now();
            for is_write in [false, true] {
                assert_eq!(
                    seg.touch(ctx, 12, 8, is_write).unwrap_err(),
                    ShmError::OutOfBounds {
                        segment: "/span".into(),
                        offset: 12,
                        end: 20,
                        size: 16,
                    }
                );
            }
            assert_eq!(ctx.now(), t, "a rejected span charges no time");
            seg.touch(ctx, 8, 8, false).unwrap();
        });
        sim.run().unwrap();
    }

    /// One analysed process that accesses a fresh 4 KiB private segment
    /// through `access`: the run's end time, its analysis records, and the
    /// segment.
    fn traced_access(
        access: impl FnOnce(&SharedMem, &mut Ctx) + Send + 'static,
    ) -> (SimTime, Vec<AnalysisRecord>, SharedMem) {
        let mut sim = Simulation::new();
        sim.tracer().set_analysis(true);
        let tracer = sim.tracer();
        let seg = registry().create("/acc", 4096).unwrap();
        let probe = seg.clone();
        sim.spawn("p", move |ctx| access(&seg, ctx));
        let end = sim.run().unwrap().end_time;
        (end, tracer.analysis_snapshot(), probe)
    }

    #[test]
    fn timing_only_read_charges_and_records_what_read_does() {
        let (read_end, read_records, _) = traced_access(|seg, ctx| {
            seg.read_into(ctx, 1024, &mut [0u8; 2048]).unwrap();
        });
        let (end, records, seg) = traced_access(|seg, ctx| {
            seg.touch(ctx, 1024, 2048, false).unwrap();
        });
        assert_eq!(end, read_end);
        assert!(end > SimTime::ZERO);
        assert_eq!(records, read_records);
        assert!(records.iter().any(|r| matches!(
            r,
            AnalysisRecord::ShmAccess {
                offset: 1024,
                len: 2048,
                is_write: false,
                ..
            }
        )));
        assert!(
            seg.seg.lock().data.is_none(),
            "a timing-only read materialized the segment"
        );
    }

    /// A lease backing with no bytes behind it: any load or store is a bug.
    struct TimingOnlyBacking;

    impl ShmBacking for TimingOnlyBacking {
        fn len(&self) -> u64 {
            1 << 20
        }
        fn is_functional(&self) -> bool {
            false
        }
        fn store(&self, _: u64, _: &[u8]) {
            unreachable!("store into a timing-only backing");
        }
        fn load(&self, _: u64, _: &mut [u8]) {
            unreachable!("load from a timing-only backing");
        }
    }

    #[test]
    fn timing_only_read_allocates_nothing_on_a_timing_only_backing() {
        let mut sim = Simulation::new();
        let seg = registry()
            .create_backed("/lease-t", 1 << 20, Arc::new(TimingOnlyBacking))
            .unwrap();
        sim.spawn("p", move |ctx| {
            // The first hold sizes the engine's timer queue.
            seg.touch(ctx, 0, 64, false).unwrap();
            let before = counting::allocations();
            seg.touch(ctx, 4096, 1 << 19, false).unwrap();
            assert_eq!(counting::allocations(), before, "touch allocated");
            // Reading the same span into a caller's buffer zero-fills it.
            let mut out = vec![1u8; 1 << 19];
            let before = counting::allocations();
            seg.read_into(ctx, 4096, &mut out).unwrap();
            assert_eq!(counting::allocations(), before, "read_into allocated");
            assert!(out.iter().all(|&b| b == 0));
        });
        sim.run().unwrap();
    }

    struct VecBacking(Mutex<Vec<u8>>);

    impl ShmBacking for VecBacking {
        fn len(&self) -> u64 {
            self.0.lock().len() as u64
        }
        fn is_functional(&self) -> bool {
            true
        }
        fn store(&self, offset: u64, data: &[u8]) {
            let mut v = self.0.lock();
            v[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        }
        fn load(&self, offset: u64, out: &mut [u8]) {
            let v = self.0.lock();
            out.copy_from_slice(&v[offset as usize..offset as usize + out.len()]);
        }
    }

    #[test]
    fn backed_segment_moves_bytes_in_external_storage() {
        let mut sim = Simulation::new();
        let reg = registry();
        let backing = Arc::new(VecBacking(Mutex::new(vec![0u8; 32])));
        let seg = reg
            .create_backed("/lease", 16, Arc::clone(&backing) as Arc<dyn ShmBacking>)
            .unwrap();
        let probe = backing.clone();
        sim.spawn("p", move |ctx| {
            seg.write(ctx, 2, &[7, 8, 9]).unwrap();
            // The bytes landed in the backing itself — no private copy.
            assert_eq!(&probe.0.lock()[2..5], &[7, 8, 9]);
            let mut out = [0u8; 3];
            seg.load(2, &mut out).unwrap();
            assert_eq!(out, [7, 8, 9]);
            let mut out = [0u8; 4];
            seg.read_into(ctx, 1, &mut out).unwrap();
            assert_eq!(out, [0, 7, 8, 9]);
            assert_eq!(seg.peek(2, 3).unwrap(), vec![7, 8, 9]);
            seg.poke(0, &[1]).unwrap();
            assert_eq!(probe.0.lock()[0], 1);
            // Bounds are the segment's, not the (larger) backing's.
            assert!(matches!(
                seg.write(ctx, 14, &[0u8; 4]),
                Err(ShmError::OutOfBounds { .. })
            ));
        });
        sim.run().unwrap();
    }

    #[test]
    fn backed_segment_corruption_fires_in_backing() {
        let mut sim = Simulation::new();
        sim.tracer().set_enabled(true);
        let tracer = sim.tracer().clone();
        let reg = registry();
        reg.arm_corrupt("/bl", 0);
        let backing = Arc::new(VecBacking(Mutex::new(vec![0u8; 8])));
        let seg = reg
            .create_backed("/bl", 8, Arc::clone(&backing) as Arc<dyn ShmBacking>)
            .unwrap();
        sim.spawn("p", move |ctx| {
            seg.write(ctx, 0, &[1, 2]).unwrap();
            assert_eq!(seg.peek(0, 2).unwrap(), vec![0xFE, 0xFD]);
        });
        sim.run().unwrap();
        let faults = tracer.fault_events();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].label, "shm-corrupt:/bl#0");
    }
}
