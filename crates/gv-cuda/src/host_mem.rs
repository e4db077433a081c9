//! Host memory buffers: pageable vs pinned, functional vs timing-only.
//!
//! Pinned (page-locked) host memory transfers at full PCIe bandwidth and is
//! required for asynchronous copies — the GVM allocates pinned staging
//! buffers per process (paper §V). Timing-only experiments use *opaque*
//! buffers that carry a byte count but no storage, so hundreds of simulated
//! megabytes cost nothing on the real host.

use std::sync::Arc;

use parking_lot::Mutex;

/// A host-side buffer.
#[derive(Clone)]
pub struct HostBuffer {
    bytes: u64,
    pinned: bool,
    data: Option<Arc<Mutex<Vec<u8>>>>,
}

impl std::fmt::Debug for HostBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostBuffer")
            .field("bytes", &self.bytes)
            .field("pinned", &self.pinned)
            .field("functional", &self.data.is_some())
            .finish()
    }
}

impl HostBuffer {
    /// A timing-only (opaque) buffer of `bytes` bytes.
    pub fn opaque(bytes: u64, pinned: bool) -> Self {
        HostBuffer {
            bytes,
            pinned,
            data: None,
        }
    }

    /// A zero-filled functional buffer.
    pub fn zeroed(bytes: u64, pinned: bool) -> Self {
        HostBuffer {
            bytes,
            pinned,
            data: Some(Arc::new(Mutex::new(vec![0u8; bytes as usize]))),
        }
    }

    /// A functional buffer initialized from `data`.
    pub fn from_bytes(data: Vec<u8>, pinned: bool) -> Self {
        HostBuffer {
            bytes: data.len() as u64,
            pinned,
            data: Some(Arc::new(Mutex::new(data))),
        }
    }

    /// A functional buffer initialized from `f32`s (little-endian layout).
    pub fn from_f32(values: &[f32], pinned: bool) -> Self {
        Self::from_bytes(
            values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            pinned,
        )
    }

    /// A functional buffer initialized from `f64`s.
    pub fn from_f64(values: &[f64], pinned: bool) -> Self {
        Self::from_bytes(
            values.iter().flat_map(|v| v.to_le_bytes()).collect(),
            pinned,
        )
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.bytes
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Is this pinned (page-locked) memory?
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Does this buffer carry real bytes?
    pub fn is_functional(&self) -> bool {
        self.data.is_some()
    }

    /// Shared storage handle (functional buffers only).
    pub(crate) fn storage(&self) -> Option<Arc<Mutex<Vec<u8>>>> {
        self.data.clone()
    }

    /// Snapshot contents as bytes (functional buffers only).
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        self.data.as_ref().map(|d| d.lock().clone())
    }

    /// Interpret contents as `f32`s (functional buffers only).
    pub fn to_f32(&self) -> Option<Vec<f32>> {
        self.to_bytes().map(|b| {
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        })
    }

    /// Interpret contents as `f64`s (functional buffers only).
    pub fn to_f64(&self) -> Option<Vec<f64>> {
        self.to_bytes().map(|b| {
            b.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect()
        })
    }

    /// Overwrite contents (functional buffers only; panics on size mismatch).
    pub fn fill_bytes(&self, data: &[u8]) {
        let storage = self
            .data
            .as_ref()
            .expect("fill_bytes on a timing-only buffer");
        let mut guard = storage.lock();
        assert_eq!(guard.len(), data.len(), "host buffer size mismatch");
        guard.copy_from_slice(data);
    }

    /// Overwrite a sub-range starting at `offset` (functional buffers
    /// only; panics when the range overruns the buffer). Chunked staging
    /// writes each span in place without touching the rest.
    pub fn fill_at(&self, offset: u64, data: &[u8]) {
        self.with_range_mut(offset, data.len() as u64, |dst| dst.copy_from_slice(data))
            .expect("fill_at on a timing-only buffer");
    }

    /// Fill `out` from the sub-range starting at `offset` without
    /// allocating (functional buffers only; panics when the range overruns
    /// the buffer). The zero-copy shm backing reads through here.
    pub fn read_into(&self, offset: u64, out: &mut [u8]) {
        self.with_range(offset, out.len() as u64, |src| out.copy_from_slice(src))
            .expect("read_into on a timing-only buffer");
    }

    /// Run `f` over the `len` bytes at `offset`, borrowed in place under
    /// the buffer's lock (functional buffers only; `None` for timing-only
    /// buffers; panics when the range overruns the buffer). `f` must not
    /// lock this buffer again.
    pub fn with_range<R>(&self, offset: u64, len: u64, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let guard = self.data.as_ref()?.lock();
        Some(f(&guard[range(offset, len, guard.len())]))
    }

    /// [`with_range`](Self::with_range), mutably: chunked staging copies a
    /// span straight into the buffer through here.
    pub fn with_range_mut<R>(
        &self,
        offset: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Option<R> {
        let mut guard = self.data.as_ref()?.lock();
        let r = range(offset, len, guard.len());
        Some(f(&mut guard[r]))
    }
}

/// The in-bounds byte range `len` bytes at `offset` cover in a buffer of
/// `size` bytes (panics on overrun).
fn range(offset: u64, len: u64, size: usize) -> std::ops::Range<usize> {
    let start = offset as usize;
    let end = start
        .checked_add(len as usize)
        .expect("host range overflow");
    assert!(
        end <= size,
        "range {start}..{end} overruns buffer of {size} bytes"
    );
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opaque_carries_size_only() {
        let b = HostBuffer::opaque(1 << 30, true);
        assert_eq!(b.len(), 1 << 30);
        assert!(!b.is_functional());
        assert!(b.to_bytes().is_none());
    }

    #[test]
    fn f32_roundtrip() {
        let b = HostBuffer::from_f32(&[1.5, -2.25], false);
        assert_eq!(b.len(), 8);
        assert_eq!(b.to_f32().unwrap(), vec![1.5, -2.25]);
        assert!(!b.is_pinned());
    }

    #[test]
    fn f64_roundtrip() {
        let b = HostBuffer::from_f64(&[std::f64::consts::PI], true);
        assert_eq!(b.to_f64().unwrap(), vec![std::f64::consts::PI]);
    }

    #[test]
    fn fill_replaces_contents() {
        let b = HostBuffer::zeroed(4, true);
        b.fill_bytes(&[1, 2, 3, 4]);
        assert_eq!(b.to_bytes().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn fill_size_mismatch_panics() {
        HostBuffer::zeroed(4, true).fill_bytes(&[1, 2]);
    }

    #[test]
    fn fill_at_writes_span_in_place() {
        let b = HostBuffer::zeroed(8, true);
        b.fill_at(2, &[9, 8, 7]);
        assert_eq!(b.to_bytes().unwrap(), vec![0, 0, 9, 8, 7, 0, 0, 0]);
        let mut out = [0u8; 3];
        b.read_into(2, &mut out);
        assert_eq!(out, [9, 8, 7]);
    }

    #[test]
    fn with_range_borrows_the_span_in_place() {
        let b = HostBuffer::zeroed(8, true);
        b.with_range_mut(3, 2, |span| span.copy_from_slice(&[5, 6]))
            .unwrap();
        assert_eq!(
            b.with_range(2, 4, <[u8]>::to_vec).unwrap(),
            vec![0, 5, 6, 0]
        );
        assert_eq!(b.with_range(8, 0, <[u8]>::len), Some(0));
        let opaque = HostBuffer::opaque(8, true);
        assert!(opaque.with_range(0, 4, |_| ()).is_none());
        assert!(opaque.with_range_mut(0, 4, |_| ()).is_none());
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn with_range_overrun_panics() {
        HostBuffer::zeroed(4, true).with_range(3, 2, |_| ());
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn fill_at_overrun_panics() {
        HostBuffer::zeroed(4, true).fill_at(2, &[1, 2, 3]);
    }

    #[test]
    fn clones_share_storage() {
        let a = HostBuffer::zeroed(2, false);
        let b = a.clone();
        a.fill_bytes(&[8, 9]);
        assert_eq!(b.to_bytes().unwrap(), vec![8, 9]);
    }
}
