//! Device global memory and its allocator.
//!
//! Allocation is first-fit over a free list with coalescing on free, with
//! 256-byte alignment (the CUDA allocation granularity that matters for
//! coalesced accesses). Backing storage is materialized lazily: timing-only
//! experiments allocate hundreds of MB of *simulated* memory without
//! touching host RAM, while functional runs read and write real bytes.

use std::collections::HashMap;

/// Alignment of every device allocation, in bytes.
pub const DEVICE_ALLOC_ALIGN: u64 = 256;

/// A pointer into device global memory: an allocation handle plus an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr {
    pub(crate) alloc: u64,
    pub(crate) offset: u64,
}

impl DevicePtr {
    /// A pointer `delta` bytes further into the same allocation.
    /// (Deliberately named like pointer arithmetic; this is a plain method,
    /// not `std::ops::Add`.)
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, delta: u64) -> DevicePtr {
        DevicePtr {
            alloc: self.alloc,
            offset: self.offset + delta,
        }
    }

    /// The allocation this pointer refers into (diagnostics only).
    pub fn allocation_id(self) -> u64 {
        self.alloc
    }
}

/// Errors from device memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Not enough contiguous device memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes free (possibly fragmented).
        free: u64,
    },
    /// Pointer did not refer to a live allocation.
    InvalidPointer,
    /// Access past the end of an allocation.
    OutOfBounds {
        /// Offset of the first byte past the access.
        end: u64,
        /// Allocation length.
        len: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, free } => {
                write!(f, "device OOM: requested {requested} B, {free} B free")
            }
            MemError::InvalidPointer => write!(f, "invalid device pointer"),
            MemError::OutOfBounds { end, len } => {
                write!(f, "device access out of bounds: end {end} > len {len}")
            }
        }
    }
}

impl std::error::Error for MemError {}

struct Allocation {
    region_offset: u64,
    len: u64,
    /// Lazily materialized backing bytes (zero-initialized on first touch).
    data: Option<Vec<u8>>,
}

impl Allocation {
    /// The backing bytes, materialized on first touch.
    fn bytes(&mut self) -> &mut [u8] {
        let len = self.len as usize;
        self.data.get_or_insert_with(|| vec![0u8; len])
    }
}

/// Simulated device global memory.
pub struct DeviceMemory {
    capacity: u64,
    used: u64,
    next_id: u64,
    allocs: HashMap<u64, Allocation>,
    /// Sorted, disjoint, coalesced `(offset, len)` free regions.
    free_list: Vec<(u64, u64)>,
    /// Allocation calls observed so far (fault-injection bookkeeping).
    alloc_seq: u64,
    /// Absolute `alloc_seq` indices armed to fail with OOM.
    armed_oom: Vec<u64>,
    /// Quota bytes the virtualization layer has charged against this
    /// device — logical commitments, independent of physical `used`.
    committed: u64,
    /// High-water mark of `committed`.
    peak_committed: u64,
}

impl DeviceMemory {
    /// Device memory of `capacity` bytes, all free.
    pub fn new(capacity: u64) -> Self {
        DeviceMemory {
            capacity,
            used: 0,
            next_id: 1,
            allocs: HashMap::new(),
            free_list: vec![(0, capacity)],
            alloc_seq: 0,
            armed_oom: Vec::new(),
            committed: 0,
            peak_committed: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated (including alignment padding).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.allocs.len()
    }

    /// Allocation calls made so far, successful or not (fault-injection
    /// bookkeeping: the index space [`arm_oom`](Self::arm_oom) counts in).
    pub fn alloc_calls(&self) -> u64 {
        self.alloc_seq
    }

    /// Arm a deterministic out-of-memory fault at the `nth` upcoming
    /// allocation call (`0` = the very next one). The armed call fails with
    /// [`MemError::OutOfMemory`] regardless of actual free space and the
    /// fault is consumed; all other calls behave normally.
    pub fn arm_oom(&mut self, nth: u64) {
        self.armed_oom.push(self.alloc_seq + nth);
    }

    /// Number of armed OOM faults that have not fired yet.
    pub fn armed_oom_count(&self) -> usize {
        self.armed_oom.len()
    }

    /// Charge `bytes` of quota commitment against this device and return
    /// the new committed total. The ledger is logical tenant accounting by
    /// the virtualization layer, separate from physical [`used`](Self::used):
    /// with demand-swap, committed bytes of *idle* working sets may exceed
    /// what is physically resident.
    pub fn charge(&mut self, bytes: u64) -> u64 {
        self.committed += bytes;
        self.peak_committed = self.peak_committed.max(self.committed);
        self.committed
    }

    /// Credit back `bytes` of quota commitment (saturating at zero) and
    /// return the new committed total.
    pub fn credit(&mut self, bytes: u64) -> u64 {
        self.committed = self.committed.saturating_sub(bytes);
        self.committed
    }

    /// Quota bytes currently committed by the virtualization layer.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// High-water mark of [`committed`](Self::committed) over the device's
    /// lifetime; `peak_committed() / capacity()` is the achieved
    /// oversubscription factor.
    pub fn peak_committed(&self) -> u64 {
        self.peak_committed
    }

    /// Allocate `bytes` bytes (rounded up to [`DEVICE_ALLOC_ALIGN`]),
    /// first-fit.
    pub fn alloc(&mut self, bytes: u64) -> Result<DevicePtr, MemError> {
        let len = bytes.max(1).div_ceil(DEVICE_ALLOC_ALIGN) * DEVICE_ALLOC_ALIGN;
        let seq = self.alloc_seq;
        self.alloc_seq += 1;
        if let Some(i) = self.armed_oom.iter().position(|&s| s == seq) {
            self.armed_oom.swap_remove(i);
            return Err(MemError::OutOfMemory {
                requested: len,
                free: self.free(),
            });
        }
        let slot = self
            .free_list
            .iter()
            .position(|&(_, flen)| flen >= len)
            .ok_or(MemError::OutOfMemory {
                requested: len,
                free: self.free(),
            })?;
        let (foff, flen) = self.free_list[slot];
        if flen == len {
            self.free_list.remove(slot);
        } else {
            self.free_list[slot] = (foff + len, flen - len);
        }
        self.used += len;
        let id = self.next_id;
        self.next_id += 1;
        self.allocs.insert(
            id,
            Allocation {
                region_offset: foff,
                len,
                data: None,
            },
        );
        Ok(DevicePtr {
            alloc: id,
            offset: 0,
        })
    }

    /// Absolute device offset of the region `ptr`'s allocation occupies
    /// (ignoring the pointer's own offset), or `None` for a dead pointer.
    /// Introspection for tests and invariant checkers: lets them verify
    /// alignment and first-fit placement without reaching into internals.
    pub fn region_offset(&self, ptr: DevicePtr) -> Option<u64> {
        self.allocs.get(&ptr.alloc).map(|a| a.region_offset)
    }

    /// Free the allocation `ptr` points into (any offset is accepted).
    pub fn dealloc(&mut self, ptr: DevicePtr) -> Result<(), MemError> {
        let alloc = self
            .allocs
            .remove(&ptr.alloc)
            .ok_or(MemError::InvalidPointer)?;
        self.used -= alloc.len;
        // Insert into the sorted free list, coalescing neighbours.
        let off = alloc.region_offset;
        let len = alloc.len;
        let idx = self.free_list.partition_point(|&(foff, _)| foff < off);
        self.free_list.insert(idx, (off, len));
        // Coalesce with successor, then predecessor.
        if idx + 1 < self.free_list.len() {
            let (noff, nlen) = self.free_list[idx + 1];
            if off + len == noff {
                self.free_list[idx].1 += nlen;
                self.free_list.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (poff, plen) = self.free_list[idx - 1];
            if poff + plen == self.free_list[idx].0 {
                self.free_list[idx - 1].1 += self.free_list[idx].1;
                self.free_list.remove(idx);
            }
        }
        Ok(())
    }

    /// The backing bytes of live allocation `alloc_id`.
    fn backing(&mut self, alloc_id: u64) -> Result<&mut [u8], MemError> {
        self.allocs
            .get_mut(&alloc_id)
            .map(Allocation::bytes)
            .ok_or(MemError::InvalidPointer)
    }

    /// The `len` bytes at `ptr`, borrowed in place: the one bounds-checked
    /// accessor every functional read, write and kernel body goes through.
    /// Untouched (never-written) memory reads as zeroes, matching a freshly
    /// materialized backing store.
    pub fn bytes_mut(&mut self, ptr: DevicePtr, len: usize) -> Result<&mut [u8], MemError> {
        let data = self.backing(ptr.alloc)?;
        let (start, end) = span_in(ptr, len, data.len())?;
        Ok(&mut data[start..end])
    }

    /// Write raw bytes at `ptr`.
    pub fn write_bytes(&mut self, ptr: DevicePtr, src: &[u8]) -> Result<(), MemError> {
        self.bytes_mut(ptr, src.len())?.copy_from_slice(src);
        Ok(())
    }

    /// Read raw bytes at `ptr` into `dst`.
    pub fn read_bytes(&mut self, ptr: DevicePtr, dst: &mut [u8]) -> Result<(), MemError> {
        dst.copy_from_slice(self.bytes_mut(ptr, dst.len())?);
        Ok(())
    }

    /// Write a slice of `f32`s at `ptr` (little-endian device layout).
    pub fn write_f32(&mut self, ptr: DevicePtr, src: &[f32]) -> Result<(), MemError> {
        let dst = self.bytes_mut(ptr, 4 * src.len())?;
        for (d, v) in dst.chunks_exact_mut(4).zip(src) {
            d.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Read `count` `f32`s from `ptr`.
    pub fn read_f32(&mut self, ptr: DevicePtr, count: usize) -> Result<Vec<f32>, MemError> {
        let src = self.bytes_mut(ptr, 4 * count)?;
        Ok(src
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect())
    }

    /// Write a slice of `f64`s at `ptr`.
    pub fn write_f64(&mut self, ptr: DevicePtr, src: &[f64]) -> Result<(), MemError> {
        let dst = self.bytes_mut(ptr, 8 * src.len())?;
        for (d, v) in dst.chunks_exact_mut(8).zip(src) {
            d.copy_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    /// Read `count` `f64`s from `ptr`.
    pub fn read_f64(&mut self, ptr: DevicePtr, count: usize) -> Result<Vec<f64>, MemError> {
        let src = self.bytes_mut(ptr, 8 * count)?;
        Ok(src
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Check that `[ptr, ptr+bytes)` lies inside a live allocation without
    /// materializing backing storage (used to validate timing-only copies
    /// at submission).
    pub fn validate_range(&self, ptr: DevicePtr, bytes: u64) -> Result<(), MemError> {
        let alloc = self
            .allocs
            .get(&ptr.alloc)
            .ok_or(MemError::InvalidPointer)?;
        let end = ptr.offset + bytes;
        if end > alloc.len {
            return Err(MemError::OutOfBounds {
                end,
                len: alloc.len,
            });
        }
        Ok(())
    }

    /// Device-to-device copy of `bytes` bytes, with `memmove` semantics
    /// when both ranges lie in one allocation.
    pub fn copy_within(
        &mut self,
        src: DevicePtr,
        dst: DevicePtr,
        bytes: u64,
    ) -> Result<(), MemError> {
        let len = bytes as usize;
        if src.alloc == dst.alloc {
            let data = self.backing(src.alloc)?;
            let (from, end) = span_in(src, len, data.len())?;
            let (to, _) = span_in(dst, len, data.len())?;
            data.copy_within(from..end, to);
            return Ok(());
        }
        let [s, d] = self.allocs.get_disjoint_mut([&src.alloc, &dst.alloc]);
        let s = s.ok_or(MemError::InvalidPointer)?.bytes();
        let (from, end) = span_in(src, len, s.len())?;
        let d = d.ok_or(MemError::InvalidPointer)?.bytes();
        let (to, _) = span_in(dst, len, d.len())?;
        d[to..to + len].copy_from_slice(&s[from..end]);
        Ok(())
    }
}

/// The `[start, end)` byte range `len` bytes at `ptr` cover in an
/// allocation of `alloc_len` bytes, or `OutOfBounds`.
fn span_in(ptr: DevicePtr, len: usize, alloc_len: usize) -> Result<(usize, usize), MemError> {
    let end = ptr.offset + len as u64;
    if end > alloc_len as u64 {
        return Err(MemError::OutOfBounds {
            end,
            len: alloc_len as u64,
        });
    }
    Ok((ptr.offset as usize, end as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_up_to_alignment() {
        let mut m = DeviceMemory::new(4096);
        let _p = m.alloc(1).unwrap();
        assert_eq!(m.used(), 256);
    }

    #[test]
    fn charge_credit_ledger_is_independent_of_used() {
        let mut m = DeviceMemory::new(1024);
        assert_eq!(m.committed(), 0);
        assert_eq!(m.charge(2048), 2048, "commitments may oversubscribe");
        assert_eq!(m.charge(512), 2560);
        assert_eq!(m.used(), 0, "ledger does not touch physical usage");
        assert_eq!(m.credit(2048), 512);
        assert_eq!(m.credit(4096), 0, "credit saturates at zero");
        assert_eq!(m.peak_committed(), 2560);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = DeviceMemory::new(1024);
        let _a = m.alloc(512).unwrap();
        match m.alloc(1024) {
            Err(MemError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 1024);
                assert_eq!(free, 512);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn armed_oom_fires_once_at_the_nth_alloc() {
        let mut m = DeviceMemory::new(1 << 20);
        m.arm_oom(1); // the second upcoming alloc fails
        let a = m.alloc(256).unwrap();
        assert!(matches!(
            m.alloc(256),
            Err(MemError::OutOfMemory { requested: 256, .. })
        ));
        assert_eq!(m.armed_oom_count(), 0);
        // Fault consumed: the next call succeeds again.
        let b = m.alloc(256).unwrap();
        assert_eq!(m.alloc_calls(), 3);
        m.dealloc(a).unwrap();
        m.dealloc(b).unwrap();
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(1024).unwrap();
        let b = m.alloc(1024).unwrap();
        let c = m.alloc(1024).unwrap();
        m.dealloc(a).unwrap();
        m.dealloc(c).unwrap();
        m.dealloc(b).unwrap();
        assert_eq!(m.used(), 0);
        // Fully coalesced: a single allocation of the whole capacity fits.
        let all = m.alloc(4096).unwrap();
        m.dealloc(all).unwrap();
    }

    #[test]
    fn write_read_roundtrip_f32() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(1024).unwrap();
        let data: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
        m.write_f32(p, &data).unwrap();
        assert_eq!(m.read_f32(p, 256).unwrap(), data);
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(64).unwrap();
        assert_eq!(m.read_f32(p, 4).unwrap(), vec![0.0; 4]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(256).unwrap();
        assert!(matches!(
            m.write_bytes(p.add(250), &[0u8; 10]),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn dangling_pointer_rejected() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(256).unwrap();
        m.dealloc(p).unwrap();
        assert_eq!(m.dealloc(p), Err(MemError::InvalidPointer));
        assert_eq!(
            m.read_bytes(p, &mut [0u8; 4]).unwrap_err(),
            MemError::InvalidPointer
        );
    }

    #[test]
    fn ptr_add_offsets_within_allocation() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(1024).unwrap();
        m.write_f32(p.add(512), &[7.0]).unwrap();
        assert_eq!(m.read_f32(p.add(512), 1).unwrap(), vec![7.0]);
        assert_eq!(m.read_f32(p, 1).unwrap(), vec![0.0]);
    }

    #[test]
    fn copy_within_moves_bytes() {
        let mut m = DeviceMemory::new(1 << 20);
        let a = m.alloc(64).unwrap();
        let b = m.alloc(64).unwrap();
        m.write_f32(a, &[1.0, 2.0]).unwrap();
        m.copy_within(a, b, 8).unwrap();
        assert_eq!(m.read_f32(b, 2).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn copy_within_one_allocation_is_a_memmove() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(256).unwrap();
        let bytes: Vec<u8> = (0..16).collect();
        m.write_bytes(p, &bytes).unwrap();
        // Forward overlap: [0, 12) onto [4, 16).
        m.copy_within(p, p.add(4), 12).unwrap();
        let mut out = [0u8; 16];
        m.read_bytes(p, &mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // Backward overlap: [4, 16) onto [0, 12).
        m.copy_within(p.add(4), p, 12).unwrap();
        m.read_bytes(p, &mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 11]);
        assert!(matches!(
            m.copy_within(p, p.add(250), 8),
            Err(MemError::OutOfBounds { end: 258, len: 256 })
        ));
    }

    #[test]
    fn copy_within_checks_both_allocations() {
        let mut m = DeviceMemory::new(1 << 20);
        let a = m.alloc(256).unwrap();
        let b = m.alloc(256).unwrap();
        let dead = m.alloc(256).unwrap();
        m.dealloc(dead).unwrap();
        assert_eq!(m.copy_within(dead, b, 8), Err(MemError::InvalidPointer));
        assert_eq!(m.copy_within(a, dead, 8), Err(MemError::InvalidPointer));
        assert!(matches!(
            m.copy_within(a.add(252), b, 8),
            Err(MemError::OutOfBounds { end: 260, .. })
        ));
        assert!(matches!(
            m.copy_within(a, b.add(252), 8),
            Err(MemError::OutOfBounds { end: 260, .. })
        ));
    }

    #[test]
    fn bytes_mut_borrows_in_place_and_checks_bounds() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(256).unwrap();
        m.bytes_mut(p.add(8), 4)
            .unwrap()
            .copy_from_slice(&[1, 2, 3, 4]);
        let mut out = [0u8; 6];
        m.read_bytes(p.add(7), &mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3, 4, 0]);
        assert_eq!(m.bytes_mut(p.add(256), 0).unwrap().len(), 0);
        assert_eq!(
            m.bytes_mut(p.add(200), 57).unwrap_err(),
            MemError::OutOfBounds { end: 257, len: 256 }
        );
        m.dealloc(p).unwrap();
        assert_eq!(m.bytes_mut(p, 4).unwrap_err(), MemError::InvalidPointer);
    }

    #[test]
    fn float_roundtrips_are_bitwise() {
        let mut m = DeviceMemory::new(1 << 20);
        let p = m.alloc(256).unwrap();
        let f32s = [
            f32::from_bits(0x7fc0_0001), // quiet NaN with a payload
            f32::from_bits(0xff80_0123), // signalling NaN, sign set
            -0.0,
            f32::from_bits(1), // smallest subnormal
            -f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
        ];
        m.write_f32(p, &f32s).unwrap();
        let back = m.read_f32(p, f32s.len()).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            f32s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let f64s = [
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 2.0,
            f64::NEG_INFINITY,
        ];
        m.write_f64(p.add(64), &f64s).unwrap();
        let back = m.read_f64(p.add(64), f64s.len()).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            f64s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
