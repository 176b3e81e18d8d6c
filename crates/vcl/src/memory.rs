//! Device and host memory.
//!
//! The paper's devices have *discrete* address spaces: a buffer created by
//! the application exists once per device plus once on the host, and keeping
//! those copies coherent is FluidiCL's job. [`Memory`] is one address space:
//! a map from [`BufferId`] to an `f32` array (every Polybench buffer is an
//! `f32` array; the paper's byte-granularity merge is modelled at element
//! granularity, which it reduces to for 4-byte base types — paper §4.3).
//!
//! Address spaces are *copy-on-write*: [`Memory::share_from`] makes a
//! second address space hold the same host allocation as the first, and the
//! allocation is copied only when one of them first writes it. The cost of
//! every copy and transfer is charged by the timing model, not measured, so
//! sharing changes no virtual time — only how often the host copies bytes
//! that no device has changed. Each address space counts the host work done
//! in it ([`Memory::work`]), so that difference is measured exactly.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dirty::DirtyRanges;
use crate::{ClError, ClResult, WorkCounters};

/// Handle identifying a logical buffer across address spaces.
///
/// The same `BufferId` refers to the host copy, the CPU-device copy and the
/// GPU-device copy of one application buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

/// One address space: buffer storage for a single device (or the host).
///
/// Each buffer is an `Arc<Vec<f32>>` that several address spaces may share.
/// Reads borrow it; every mutation goes through [`Arc::make_mut`] (or
/// replaces a shared allocation wholesale), so a write in one address
/// space never shows in another. Cloning a `Memory` is therefore cheap and
/// the clone is independent of its source (it starts from a copy of the
/// source's work counters).
#[derive(Clone, Debug, Default)]
pub struct Memory {
    buffers: HashMap<BufferId, Arc<Vec<f32>>>,
    /// Host work done in this address space: executions into it and the
    /// copies that made its buffers private or overwrote them.
    pub(crate) work: WorkCounters,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates (or reallocates) `id` with `len` zeroed elements.
    ///
    /// Re-allocating a buffer this address space owns alone reuses its heap
    /// allocation: the content is zero-filled in place and the vector only
    /// grows when `len` exceeds the existing capacity. A shared buffer is
    /// replaced by a fresh allocation, leaving the other holders intact.
    pub fn alloc(&mut self, id: BufferId, len: usize) {
        if let Some(buf) = self.buffers.get_mut(&id).and_then(Arc::get_mut) {
            buf.clear();
            buf.resize(len, 0.0);
        } else {
            self.buffers.insert(id, Arc::new(vec![0.0; len]));
        }
    }

    /// Installs `data` as the content of `id`, allocating if needed. Takes
    /// either a fresh `Vec` or an allocation moved out by [`take`](Self::take).
    pub fn install(&mut self, id: BufferId, data: impl Into<Arc<Vec<f32>>>) {
        self.buffers.insert(id, data.into());
    }

    /// Makes `id` in this address space share `src`'s allocation of it,
    /// replacing whatever this address space held. No element is copied;
    /// the first later write on either side makes that side's own copy.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if `id` was never allocated in
    /// `src`.
    pub fn share_from(&mut self, src: &Memory, id: BufferId) -> ClResult<()> {
        let buf = src.buffers.get(&id).ok_or(ClError::InvalidBuffer(id.0))?;
        self.buffers.insert(id, Arc::clone(buf));
        Ok(())
    }

    /// Whether this address space and `other` hold one and the same
    /// allocation of `id` (false if either lacks it).
    pub fn shares_with(&self, other: &Memory, id: BufferId) -> bool {
        match (self.buffers.get(&id), other.buffers.get(&id)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// How many holders — address spaces, snapshots, or buffers moved out
    /// by [`take`](Self::take) — share this address space's allocation of
    /// `id`; 0 if `id` is absent. 1 means the allocation is private here.
    pub fn holders(&self, id: BufferId) -> usize {
        self.buffers.get(&id).map_or(0, Arc::strong_count)
    }

    /// Immutable view of a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if `id` was never allocated here.
    pub fn get(&self, id: BufferId) -> ClResult<&[f32]> {
        self.buffers
            .get(&id)
            .map(|b| b.as_slice())
            .ok_or(ClError::InvalidBuffer(id.0))
    }

    /// Mutable view of a buffer. A buffer shared with another address
    /// space is copied first, so the write stays private to this one.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if `id` was never allocated here.
    pub fn get_mut(&mut self, id: BufferId) -> ClResult<&mut [f32]> {
        let buf = self
            .buffers
            .get_mut(&id)
            .ok_or(ClError::InvalidBuffer(id.0))?;
        Ok(make_private(buf, &mut self.work))
    }

    /// Host work done in this address space so far.
    pub fn work(&self) -> WorkCounters {
        self.work
    }

    /// Returns the work done in this address space and resets its counters:
    /// how a runtime collects the work of an address space it is about to
    /// drop.
    pub fn take_work(&mut self) -> WorkCounters {
        std::mem::take(&mut self.work)
    }

    /// Removes and returns a buffer (used by the executor to split borrows
    /// between input and output buffers of one launch). The allocation
    /// keeps its sharing: [`install`](Self::install) it back unchanged and
    /// nothing is copied or reallocated.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if `id` was never allocated here.
    pub fn take(&mut self, id: BufferId) -> ClResult<Arc<Vec<f32>>> {
        self.buffers.remove(&id).ok_or(ClError::InvalidBuffer(id.0))
    }

    /// Overwrites a buffer with `data`: in place when this address space
    /// owns the allocation alone, as a fresh allocation when it is shared.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if absent or
    /// [`ClError::SizeMismatch`] if lengths differ.
    pub fn write(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        let buf = self.slot_of_len(id, data.len())?;
        match Arc::get_mut(buf) {
            Some(own) => own.copy_from_slice(data),
            None => *buf = Arc::new(data.to_vec()),
        }
        self.work.copied_bytes += data.len() as u64 * 4;
        Ok(())
    }

    /// Overwrites a buffer by taking `data`'s allocation as its content:
    /// nothing is copied, and whatever this address space held before is
    /// released (other holders of a shared allocation keep theirs).
    ///
    /// # Errors
    ///
    /// The same as [`write`](Self::write): [`ClError::InvalidBuffer`] if
    /// absent or [`ClError::SizeMismatch`] if lengths differ. On error the
    /// buffer is left as it was and `data` is dropped.
    pub fn replace(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        let buf = self.slot_of_len(id, data.len())?;
        *buf = Arc::new(data);
        Ok(())
    }

    /// The storage slot of `id`, checked to hold `len` elements: the
    /// validation [`write`](Self::write) and [`replace`](Self::replace)
    /// share.
    fn slot_of_len(&mut self, id: BufferId, len: usize) -> ClResult<&mut Arc<Vec<f32>>> {
        let buf = self
            .buffers
            .get_mut(&id)
            .ok_or(ClError::InvalidBuffer(id.0))?;
        if buf.len() != len {
            return Err(ClError::SizeMismatch {
                expected: buf.len(),
                got: len,
            });
        }
        Ok(buf)
    }

    /// Length in elements of a buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if `id` was never allocated here.
    pub fn len_of(&self, id: BufferId) -> ClResult<usize> {
        self.get(id).map(<[f32]>::len)
    }

    /// Size in bytes of a buffer (for transfer costing).
    ///
    /// # Errors
    ///
    /// Returns [`ClError::InvalidBuffer`] if `id` was never allocated here.
    pub fn bytes_of(&self, id: BufferId) -> ClResult<u64> {
        Ok(self.len_of(id)? as u64 * 4)
    }

    /// Ids of every resident buffer, in no particular order.
    pub fn ids(&self) -> impl Iterator<Item = BufferId> + '_ {
        self.buffers.keys().copied()
    }

    /// Whether `id` exists in this address space.
    pub fn contains(&self, id: BufferId) -> bool {
        self.buffers.contains_key(&id)
    }
}

/// Writable view of one buffer allocation, copying it first when another
/// holder shares it; the copy is counted in `work`.
pub(crate) fn make_private<'b>(
    buf: &'b mut Arc<Vec<f32>>,
    work: &mut WorkCounters,
) -> &'b mut [f32] {
    if Arc::get_mut(buf).is_none() {
        work.copied_bytes += buf.len() as u64 * 4;
    }
    Arc::make_mut(buf).as_mut_slice()
}

/// Element-wise diff-merge, the device-side coherence step of paper §4.3:
/// wherever the CPU-computed copy differs from the pristine original, the
/// CPU value overwrites the destination (the GPU buffer).
///
/// Comparison is on bit patterns so `NaN`s and signed zeros behave like the
/// byte comparison the paper performs. This is the `ranges == full` special
/// case of [`diff_merge_ranged`] and the oracle it is tested against: one
/// blockwise pass over the whole buffer that stores nothing in clean
/// blocks. Returns the bytes walked: the whole buffer.
///
/// # Panics
///
/// Panics if the three slices have different lengths.
pub fn diff_merge(dst_gpu: &mut [f32], cpu: &[f32], original: &[f32]) -> u64 {
    assert!(
        dst_gpu.len() == cpu.len() && cpu.len() == original.len(),
        "diff_merge requires equally sized buffers"
    );
    merge_span(dst_gpu, cpu, original);
    dst_gpu.len() as u64 * 4
}

/// Ranged diff-merge: like [`diff_merge`] but walks only the given dirty
/// ranges, skipping elements known to be clean entirely. With
/// `ranges == DirtyRanges::full(len)` it is exactly the full merge. Returns
/// the bytes walked: those of the ranges.
///
/// # Errors
///
/// Returns [`ClError::SizeMismatch`] if the three slices differ in length
/// or a range exceeds them (the fallible twin of [`diff_merge`]'s panic,
/// for callers mid-simulation that must surface a proper error).
pub fn diff_merge_ranged(
    dst_gpu: &mut [f32],
    cpu: &[f32],
    original: &[f32],
    ranges: &DirtyRanges,
) -> ClResult<u64> {
    if dst_gpu.len() != cpu.len() || cpu.len() != original.len() {
        let got = if cpu.len() != dst_gpu.len() {
            cpu.len()
        } else {
            original.len()
        };
        return Err(ClError::SizeMismatch {
            expected: dst_gpu.len(),
            got,
        });
    }
    if ranges.bound() > dst_gpu.len() {
        return Err(ClError::SizeMismatch {
            expected: dst_gpu.len(),
            got: ranges.bound(),
        });
    }
    for (s, e) in ranges.iter() {
        merge_span(&mut dst_gpu[s..e], &cpu[s..e], &original[s..e]);
    }
    Ok(ranges.byte_count())
}

/// Blockwise merge over one span: `dst[i] = cpu[i]` wherever `cpu[i]`
/// differs bitwise from `original[i]`. Eight `f32`s at a time as `u32` bit
/// blocks (XOR, then OR-reduced), storing only inside blocks that actually
/// differ, with a scalar tail. Callers guarantee equal lengths.
fn merge_span(dst: &mut [f32], cpu: &[f32], original: &[f32]) {
    debug_assert!(dst.len() == cpu.len() && cpu.len() == original.len());
    let (d, d_tail) = dst.as_chunks_mut::<8>();
    let (c, c_tail) = cpu.as_chunks::<8>();
    let (o, o_tail) = original.as_chunks::<8>();
    for ((db, cb), ob) in d.iter_mut().zip(c).zip(o) {
        let diff: [u32; 8] = std::array::from_fn(|k| cb[k].to_bits() ^ ob[k].to_bits());
        if diff.iter().fold(0, |acc, x| acc | x) != 0 {
            for ((dv, cv), x) in db.iter_mut().zip(cb).zip(diff) {
                if x != 0 {
                    *dv = *cv;
                }
            }
        }
    }
    for ((dv, cv), ov) in d_tail.iter_mut().zip(c_tail).zip(o_tail) {
        if cv.to_bits() != ov.to_bits() {
            *dv = *cv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_roundtrip() {
        let mut m = Memory::new();
        let id = BufferId(1);
        m.alloc(id, 4);
        assert_eq!(m.get(id).unwrap(), &[0.0; 4]);
        m.write(id, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.get(id).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.len_of(id).unwrap(), 4);
        assert_eq!(m.bytes_of(id).unwrap(), 16);
    }

    #[test]
    fn alloc_reuses_the_existing_allocation() {
        let mut m = Memory::new();
        let id = BufferId(1);
        m.alloc(id, 4);
        m.write(id, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let ptr_before = m.get(id).unwrap().as_ptr();
        // Same length: zero-filled in place, no new allocation.
        m.alloc(id, 4);
        assert_eq!(m.get(id).unwrap(), &[0.0; 4]);
        assert_eq!(m.get(id).unwrap().as_ptr(), ptr_before);
        // Shrinking also reuses the allocation.
        m.write(id, &[5.0, 6.0, 7.0, 8.0]).unwrap();
        m.alloc(id, 2);
        assert_eq!(m.get(id).unwrap(), &[0.0; 2]);
        assert_eq!(m.get(id).unwrap().as_ptr(), ptr_before);
    }

    #[test]
    fn missing_buffer_is_an_error() {
        let m = Memory::new();
        assert_eq!(m.get(BufferId(9)), Err(ClError::InvalidBuffer(9)));
    }

    #[test]
    fn write_checks_length() {
        let mut m = Memory::new();
        m.alloc(BufferId(1), 2);
        assert_eq!(
            m.write(BufferId(1), &[1.0]),
            Err(ClError::SizeMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn take_and_install_move_buffers() {
        let mut m = Memory::new();
        m.install(BufferId(1), vec![5.0, 6.0]);
        let v = m.take(BufferId(1)).unwrap();
        assert!(!m.contains(BufferId(1)));
        m.install(BufferId(1), v);
        assert_eq!(m.get(BufferId(1)).unwrap(), &[5.0, 6.0]);
    }

    #[test]
    fn diff_merge_takes_changed_elements_only() {
        let original = [1.0, 2.0, 3.0, 4.0];
        let cpu = [1.0, 9.0, 3.0, 8.0]; // CPU computed elements 1 and 3
        let mut gpu = [7.0, 2.0, 6.0, 4.0]; // GPU computed elements 0 and 2
        diff_merge(&mut gpu, &cpu, &original);
        assert_eq!(gpu, [7.0, 9.0, 6.0, 8.0]);
    }

    #[test]
    fn diff_merge_distinguishes_nan_patterns() {
        let original = [f32::NAN, 0.0];
        let cpu = [f32::NAN, -0.0]; // same NaN bits, -0.0 differs from 0.0
        let mut gpu = [1.0, 1.0];
        diff_merge(&mut gpu, &cpu, &original);
        assert_eq!(gpu[0], 1.0, "identical NaN bits are not a diff");
        assert_eq!(gpu[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn diff_merge_documents_paper_caveat() {
        // The paper's diff-based merge cannot see a CPU-computed value that
        // happens to equal the original. This is harmless in FluidiCL
        // because any work-group result the merge "misses" was either also
        // computed by the GPU (identical value) or left untouched on the
        // GPU, whose buffer still holds the original — the same value.
        let original = [5.0];
        let cpu = [5.0]; // CPU computed 5.0, identical to the original
        let mut gpu = [5.0]; // GPU buffer holds the original
        diff_merge(&mut gpu, &cpu, &original);
        assert_eq!(gpu, [5.0]); // correct final value either way
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn diff_merge_rejects_mismatched_lengths() {
        let mut d = [0.0f32; 2];
        diff_merge(&mut d, &[0.0; 2], &[0.0; 3]);
    }

    #[test]
    fn diff_merge_ranged_full_matches_diff_merge() {
        let len = 37; // exercises blocks and the scalar tail
        let original: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let mut cpu = original.clone();
        for i in (0..len).step_by(3) {
            cpu[i] = -(i as f32) - 0.5;
        }
        let mut full = original.clone();
        diff_merge(&mut full, &cpu, &original);
        let mut ranged = original.clone();
        diff_merge_ranged(&mut ranged, &cpu, &original, &DirtyRanges::full(len)).unwrap();
        assert_eq!(full, ranged);
    }

    #[test]
    fn diff_merge_ranged_touches_dirty_ranges_only() {
        let original = [0.0f32; 8];
        let cpu = [1.0f32; 8]; // every element differs from the original
        let mut gpu = [9.0f32; 8];
        let ranges = DirtyRanges::from_ranges([(2, 4), (6, 7)]);
        diff_merge_ranged(&mut gpu, &cpu, &original, &ranges).unwrap();
        assert_eq!(gpu, [9.0, 9.0, 1.0, 1.0, 9.0, 9.0, 1.0, 9.0]);
    }

    #[test]
    fn diff_merge_ranged_reports_size_mismatches() {
        let mut d = [0.0f32; 2];
        assert_eq!(
            diff_merge_ranged(&mut d, &[0.0; 2], &[0.0; 3], &DirtyRanges::empty()),
            Err(ClError::SizeMismatch {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(
            diff_merge_ranged(&mut d, &[0.0; 2], &[0.0; 2], &DirtyRanges::full(4)),
            Err(ClError::SizeMismatch {
                expected: 2,
                got: 4
            })
        );
    }

    /// Two address spaces sharing buffer 1 (`[1, 2, 3, 4]`).
    fn shared_pair() -> (Memory, Memory) {
        let mut a = Memory::new();
        a.install(BufferId(1), vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = Memory::new();
        b.share_from(&a, BufferId(1)).unwrap();
        assert!(a.shares_with(&b, BufferId(1)));
        assert_eq!(a.holders(BufferId(1)), 2);
        (a, b)
    }

    fn bits(m: &Memory, id: BufferId) -> Vec<u32> {
        m.get(id).unwrap().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn share_from_copies_nothing_and_rejects_missing_buffers() {
        let (a, b) = shared_pair();
        assert_eq!(
            a.get(BufferId(1)).unwrap().as_ptr(),
            b.get(BufferId(1)).unwrap().as_ptr()
        );
        let mut c = Memory::new();
        assert_eq!(
            c.share_from(&a, BufferId(9)),
            Err(ClError::InvalidBuffer(9))
        );
        assert!(!c.shares_with(&a, BufferId(1)));
        assert_eq!(c.holders(BufferId(1)), 0);
    }

    #[test]
    fn write_to_a_shared_buffer_leaves_the_other_side_intact() {
        let (mut a, b) = shared_pair();
        let before = bits(&b, BufferId(1));
        a.write(BufferId(1), &[9.0; 4]).unwrap();
        assert_eq!(bits(&b, BufferId(1)), before);
        assert_eq!(a.get(BufferId(1)).unwrap(), &[9.0; 4]);
        assert!(!a.shares_with(&b, BufferId(1)));
        assert_eq!((a.holders(BufferId(1)), b.holders(BufferId(1))), (1, 1));
    }

    #[test]
    fn get_mut_on_a_shared_buffer_copies_first() {
        let (a, mut b) = shared_pair();
        let before = bits(&a, BufferId(1));
        b.get_mut(BufferId(1)).unwrap()[2] = -1.0;
        assert_eq!(bits(&a, BufferId(1)), before);
        assert_eq!(b.get(BufferId(1)).unwrap(), &[1.0, 2.0, -1.0, 4.0]);
        // Now private: a second write stays in the same allocation.
        let ptr = b.get(BufferId(1)).unwrap().as_ptr();
        b.get_mut(BufferId(1)).unwrap()[0] = -2.0;
        assert_eq!(b.get(BufferId(1)).unwrap().as_ptr(), ptr);
    }

    #[test]
    fn alloc_over_a_shared_buffer_leaves_the_other_side_intact() {
        let (mut a, b) = shared_pair();
        let before = bits(&b, BufferId(1));
        a.alloc(BufferId(1), 4);
        assert_eq!(a.get(BufferId(1)).unwrap(), &[0.0; 4]);
        assert_eq!(bits(&b, BufferId(1)), before);
        assert!(!a.shares_with(&b, BufferId(1)));
    }

    #[test]
    fn take_and_install_keep_the_share_and_never_leak_writes() {
        let (mut a, b) = shared_pair();
        let before = bits(&b, BufferId(1));
        let mut v = a.take(BufferId(1)).unwrap();
        assert!(!a.contains(BufferId(1)));
        assert_eq!(b.holders(BufferId(1)), 2, "the moved-out copy still shares");
        Arc::make_mut(&mut v)[3] = 7.0;
        a.install(BufferId(1), v);
        assert_eq!(bits(&b, BufferId(1)), before);
        assert_eq!(a.get(BufferId(1)).unwrap(), &[1.0, 2.0, 3.0, 7.0]);
        // Unwritten, a take/install round trip keeps the share.
        let (mut c, d) = shared_pair();
        let v = c.take(BufferId(1)).unwrap();
        c.install(BufferId(1), v);
        assert!(c.shares_with(&d, BufferId(1)));
    }

    #[test]
    fn replace_takes_the_callers_allocation_and_checks_like_write() {
        let (mut a, b) = shared_pair();
        let before = bits(&b, BufferId(1));
        let data = vec![9.0; 4];
        let ptr = data.as_ptr();
        a.replace(BufferId(1), data).unwrap();
        assert_eq!(a.get(BufferId(1)).unwrap().as_ptr(), ptr, "nothing copied");
        assert_eq!(bits(&b, BufferId(1)), before);
        assert_eq!((a.holders(BufferId(1)), b.holders(BufferId(1))), (1, 1));
        for (id, data) in [(BufferId(9), vec![0.0; 4]), (BufferId(1), vec![0.0; 3])] {
            assert_eq!(
                a.replace(id, data.clone()),
                a.write(id, &data),
                "same error as the slice path"
            );
        }
        assert_eq!(a.get(BufferId(1)).unwrap(), &[9.0; 4]);
    }

    #[test]
    fn a_poisoned_clone_leaves_its_source_intact() {
        let mut src = Memory::new();
        src.install(BufferId(1), vec![1.0, 2.0]);
        src.install(BufferId(2), vec![3.0]);
        let before = (bits(&src, BufferId(1)), bits(&src, BufferId(2)));
        let mut poisoned = src.clone();
        poisoned.get_mut(BufferId(1)).unwrap().fill(f32::NAN);
        poisoned.write(BufferId(2), &[f32::INFINITY]).unwrap();
        assert_eq!((bits(&src, BufferId(1)), bits(&src, BufferId(2))), before);
        assert_eq!((src.holders(BufferId(1)), src.holders(BufferId(2))), (1, 1));
    }

    /// Model-based check: random share/write/get_mut/alloc/take/install
    /// sequences over three address spaces always read back exactly what
    /// independent deep-copied vectors would hold.
    #[test]
    fn copy_on_write_matches_deep_copies() {
        use fluidicl_des::SplitMix64;
        const SPACES: usize = 3;
        const IDS: u64 = 3;
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut mems: Vec<Memory> = (0..SPACES).map(|_| Memory::new()).collect();
            let mut model: Vec<HashMap<BufferId, Vec<f32>>> = vec![HashMap::new(); SPACES];
            for step in 0..200 {
                let s = rng.range_usize(0, SPACES);
                let id = BufferId(rng.range_u64(0, IDS));
                let len = rng.range_usize(1, 6);
                let fill = step as f32 + 0.5;
                match rng.range_u64(0, 6) {
                    0 => {
                        let src = rng.range_usize(0, SPACES);
                        if src != s && model[src].contains_key(&id) {
                            let from = mems[src].clone();
                            mems[s].share_from(&from, id).unwrap();
                            let data = model[src][&id].clone();
                            model[s].insert(id, data);
                        }
                    }
                    1 => {
                        if let Some(m) = model[s].get_mut(&id) {
                            let data = vec![fill; m.len()];
                            mems[s].write(id, &data).unwrap();
                            *m = data;
                        }
                    }
                    2 => {
                        if let Some(m) = model[s].get_mut(&id) {
                            let i = rng.range_usize(0, m.len());
                            mems[s].get_mut(id).unwrap()[i] = fill;
                            m[i] = fill;
                        }
                    }
                    3 => {
                        mems[s].alloc(id, len);
                        model[s].insert(id, vec![0.0; len]);
                    }
                    4 => {
                        if let Some(m) = model[s].get_mut(&id) {
                            let mut v = mems[s].take(id).unwrap();
                            let i = rng.range_usize(0, m.len());
                            Arc::make_mut(&mut v)[i] = -fill;
                            m[i] = -fill;
                            mems[s].install(id, v);
                        }
                    }
                    _ => {
                        mems[s].install(id, vec![fill; len]);
                        model[s].insert(id, vec![fill; len]);
                    }
                }
                for (mem, want) in mems.iter().zip(&model) {
                    assert_eq!(mem.ids().count(), want.len(), "seed {seed} step {step}");
                    for (id, v) in want {
                        assert_eq!(
                            mem.get(*id).unwrap(),
                            v.as_slice(),
                            "seed {seed} step {step}"
                        );
                    }
                }
            }
        }
    }
}
