//! Buffer bookkeeping: version tracking, location tracking and the GPU
//! scratch-buffer pool.
//!
//! FluidiCL keeps one copy of every application buffer per device and must
//! know, for each, *which kernel's output* it holds and *when* that content
//! became available (paper §5.3, §6.2). It also needs two extra GPU buffers
//! per modified buffer (the CPU-data landing area and the pristine original
//! for diff-merge), which are pooled to avoid per-kernel allocation costs
//! (paper §6.1).

use std::collections::HashMap;

use fluidicl_des::SimTime;
use fluidicl_vcl::{BufferId, ClError, ClResult};

/// Monotonic kernel identifier assigned per launch (paper §5.3 uses these as
/// buffer version numbers).
pub type KernelId = u64;

/// Per-buffer coherence state across the host/CPU and GPU copies.
#[derive(Clone, Debug)]
pub struct BufferState {
    /// Element count.
    pub len: usize,
    /// Version (kernel id) the buffer is expected to reach: the id of the
    /// latest kernel that writes it.
    pub expected_version: Option<KernelId>,
    /// Version held by the CPU copy and when it arrived.
    pub cpu_version: Option<KernelId>,
    /// Virtual time at which the CPU copy of the current version became
    /// usable.
    pub cpu_ready_at: SimTime,
    /// Version held by the GPU copy.
    pub gpu_version: Option<KernelId>,
    /// Virtual time at which the GPU copy of the current version became
    /// usable.
    pub gpu_ready_at: SimTime,
    /// Whether the GPU-side "original" snapshot for diff-merge matches
    /// the GPU copy, so the next kernel's setup copies nothing: the
    /// previous co-executed kernel's epilogue refreshed it (paper §5.5).
    /// Set only under dirty-range transfers; a host write clears it.
    pub snapshot_current: bool,
    /// Whether the host copy matches the authoritative device copy, so a
    /// D2H read-back ships nothing. A host write sets it, a kernel write
    /// clears it; consulted only under dirty-range transfers.
    pub host_current: bool,
}

impl BufferState {
    fn new(len: usize, now: SimTime) -> Self {
        BufferState {
            len,
            expected_version: None,
            cpu_version: None,
            cpu_ready_at: now,
            gpu_version: None,
            gpu_ready_at: now,
            snapshot_current: false,
            host_current: false,
        }
    }

    /// Whether the CPU copy is stale relative to the expected version —
    /// the condition under which the CPU scheduler must wait (paper §5.3).
    pub fn cpu_is_stale(&self) -> bool {
        self.expected_version != self.cpu_version
    }

    /// Bytes a refresh of the diff-merge snapshot must copy: nothing when
    /// it is current, else the whole buffer.
    pub fn snapshot_refresh_bytes(&self) -> u64 {
        if self.snapshot_current {
            0
        } else {
            self.bytes()
        }
    }

    /// Bytes a D2H read-back of this buffer must ship to bring the host
    /// copy current: nothing when it is current, else the whole buffer.
    pub fn read_back_bytes(&self) -> u64 {
        if self.host_current {
            0
        } else {
            self.bytes()
        }
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * 4
    }
}

/// Table of all application buffers and their coherence state.
#[derive(Clone, Debug, Default)]
pub struct BufferTable {
    states: HashMap<BufferId, BufferState>,
    next_id: u64,
}

impl BufferTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new buffer of `len` elements, fresh on both devices at
    /// time `now`.
    pub fn register(&mut self, len: usize, now: SimTime) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.states.insert(id, BufferState::new(len, now));
        id
    }

    /// State of one buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is unknown (runtime invariant: every handle the
    /// application holds was produced by [`BufferTable::register`]).
    pub fn state(&self, id: BufferId) -> &BufferState {
        self.states.get(&id).expect("unknown buffer id")
    }

    /// Mutable state of one buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is unknown.
    pub fn state_mut(&mut self, id: BufferId) -> &mut BufferState {
        self.states.get_mut(&id).expect("unknown buffer id")
    }

    /// State of one buffer, or [`fluidicl_vcl::ClError::InvalidBuffer`] for
    /// a handle this table never issued — the non-panicking accessor the
    /// runtime uses on paths reachable from application-supplied arguments.
    pub fn try_state(&self, id: BufferId) -> ClResult<&BufferState> {
        self.states.get(&id).ok_or(ClError::InvalidBuffer(id.0))
    }

    /// Whether the table knows this buffer.
    pub fn contains(&self, id: BufferId) -> bool {
        self.states.contains_key(&id)
    }

    /// Marks a host write: both copies now hold a fresh (pre-kernel)
    /// version.
    pub fn record_host_write(&mut self, id: BufferId, cpu_at: SimTime, gpu_at: SimTime) {
        let s = self.state_mut(id);
        s.expected_version = None;
        s.cpu_version = None;
        s.cpu_ready_at = cpu_at;
        s.gpu_version = None;
        s.gpu_ready_at = gpu_at;
        // The host replaced the content: the snapshot no longer matches
        // it, while host and device copies now agree.
        s.snapshot_current = false;
        s.host_current = true;
    }

    /// Marks the start of kernel `kid` writing `id`: the expected version
    /// advances (paper §5.3 sets expected versions at kernel begin).
    pub fn begin_kernel_write(&mut self, id: BufferId, kid: KernelId) {
        let s = self.state_mut(id);
        s.expected_version = Some(kid);
        // The kernel will make the host copy stale.
        s.host_current = false;
    }

    /// Records that a co-executed kernel completed on `id` (dirty-range
    /// transfers only): the epilogue refreshed the snapshot and the D2H
    /// return (or CPU finish) brought the host copy current, which lets
    /// the *next* kernel's snapshot refresh and read-backs skip
    /// whole-buffer copies.
    pub fn record_kernel_coherent(&mut self, id: BufferId) {
        let s = self.state_mut(id);
        s.snapshot_current = true;
        s.host_current = true;
    }

    /// Records that kernel `kid`'s result for `id` is available on the CPU
    /// at `at` (the device-to-host thread finished, or the CPU executed the
    /// whole NDRange — paper §5.6).
    pub fn record_cpu_arrival(&mut self, id: BufferId, kid: KernelId, at: SimTime) {
        let s = self.state_mut(id);
        // Stale messages (older kernel ids) are discarded (paper §5.3).
        if s.expected_version == Some(kid) {
            s.cpu_version = Some(kid);
            s.cpu_ready_at = at;
        }
    }

    /// Records that kernel `kid`'s merged result for `id` is resident on the
    /// GPU at `at`.
    pub fn record_gpu_arrival(&mut self, id: BufferId, kid: KernelId, at: SimTime) {
        let s = self.state_mut(id);
        if s.expected_version == Some(kid) {
            s.gpu_version = Some(kid);
            s.gpu_ready_at = at;
        }
    }

    /// Earliest time the CPU may start executing a kernel that reads
    /// `inputs` (the CPU scheduler waits for stale buffers; paper §5.3).
    pub fn cpu_ready_time(&self, inputs: &[BufferId]) -> SimTime {
        inputs
            .iter()
            .map(|id| self.state(*id).cpu_ready_at)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Earliest time the GPU may start executing a kernel touching `bufs`.
    pub fn gpu_ready_time(&self, bufs: &[BufferId]) -> SimTime {
        bufs.iter()
            .map(|id| self.state(*id).gpu_ready_at)
            .fold(SimTime::ZERO, SimTime::max)
    }
}

/// Statistics of one buffer-pool instance (exercised by paper §6.1's
/// buffer-management optimization).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of acquisitions served from the pool.
    pub hits: u64,
    /// Number of acquisitions that had to allocate.
    pub misses: u64,
}

/// Pool of reusable GPU scratch buffers, keyed by capacity.
///
/// With the pool disabled (paper's unoptimized configuration) every request
/// is a miss and the buffer is "destroyed" after release.
#[derive(Clone, Debug)]
pub struct ScratchPool {
    enabled: bool,
    free: Vec<usize>, // capacities of free buffers
    stats: PoolStats,
}

impl ScratchPool {
    /// Creates a pool; `enabled = false` models per-kernel create/destroy.
    pub fn new(enabled: bool) -> Self {
        ScratchPool {
            enabled,
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Acquires a scratch buffer of at least `len` elements. Returns `true`
    /// when the request was a pool hit (no allocation cost).
    pub fn acquire(&mut self, len: usize) -> bool {
        if self.enabled {
            // Best-fit: smallest free buffer that is large enough.
            let candidate = self
                .free
                .iter()
                .enumerate()
                .filter(|(_, &cap)| cap >= len)
                .min_by_key(|(_, &cap)| cap)
                .map(|(i, _)| i);
            if let Some(i) = candidate {
                self.free.swap_remove(i);
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Releases a scratch buffer of capacity `len` back to the pool (no-op
    /// when disabled: the buffer is destroyed).
    pub fn release(&mut self, len: usize) {
        if self.enabled {
            self.free.push(len);
        }
    }

    /// Usage statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of buffers currently free in the pool.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_fresh_ids() {
        let mut t = BufferTable::new();
        let a = t.register(10, SimTime::ZERO);
        let b = t.register(20, SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(t.state(a).len, 10);
        assert_eq!(t.state(b).bytes(), 80);
        assert!(t.contains(a));
    }

    #[test]
    fn forged_ids_yield_typed_errors() {
        let mut t = BufferTable::new();
        let real = t.register(4, SimTime::ZERO);
        let forged = BufferId(real.0 + 1000);
        assert!(t.try_state(real).is_ok());
        assert!(matches!(
            t.try_state(forged),
            Err(ClError::InvalidBuffer(id)) if id == forged.0
        ));
    }

    #[test]
    fn fresh_buffer_is_not_stale() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        assert!(!t.state(a).cpu_is_stale());
    }

    #[test]
    fn kernel_write_makes_cpu_stale_until_arrival() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 7);
        assert!(t.state(a).cpu_is_stale());
        t.record_cpu_arrival(a, 7, SimTime::from_nanos(100));
        assert!(!t.state(a).cpu_is_stale());
        assert_eq!(t.state(a).cpu_ready_at, SimTime::from_nanos(100));
    }

    #[test]
    fn stale_arrivals_are_discarded() {
        // Paper §5.3: version numbers discard messages that arrive late.
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 7);
        t.begin_kernel_write(a, 9); // a newer kernel supersedes kernel 7
        t.record_cpu_arrival(a, 7, SimTime::from_nanos(50));
        assert!(t.state(a).cpu_is_stale(), "old version must not satisfy");
        t.record_cpu_arrival(a, 9, SimTime::from_nanos(80));
        assert!(!t.state(a).cpu_is_stale());
    }

    #[test]
    fn ready_times_take_the_maximum() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        let b = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 1);
        t.record_cpu_arrival(a, 1, SimTime::from_nanos(500));
        t.begin_kernel_write(b, 2);
        t.record_cpu_arrival(b, 2, SimTime::from_nanos(300));
        assert_eq!(t.cpu_ready_time(&[a, b]), SimTime::from_nanos(500));
        assert_eq!(t.cpu_ready_time(&[]), SimTime::ZERO);
    }

    #[test]
    fn host_write_resets_versions() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 3);
        t.record_host_write(a, SimTime::from_nanos(10), SimTime::from_nanos(40));
        assert!(!t.state(a).cpu_is_stale());
        assert_eq!(t.gpu_ready_time(&[a]), SimTime::from_nanos(40));
    }

    #[test]
    fn fresh_buffer_copies_whole() {
        let mut t = BufferTable::new();
        let a = t.register(256, SimTime::ZERO);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 1024);
        assert_eq!(t.state(a).read_back_bytes(), 1024);
    }

    #[test]
    fn coherent_kernels_skip_refresh_and_read_back() {
        let mut t = BufferTable::new();
        let a = t.register(256, SimTime::ZERO);
        t.record_kernel_coherent(a);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 0);
        assert_eq!(t.state(a).read_back_bytes(), 0);
        // The next kernel write makes the host copy stale; the snapshot
        // still matches the GPU copy the kernel starts from.
        t.begin_kernel_write(a, 1);
        assert_eq!(t.state(a).read_back_bytes(), 1024);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 0);
        // A host write invalidates the snapshot but makes host and device
        // copies agree.
        t.record_host_write(a, SimTime::from_nanos(10), SimTime::from_nanos(40));
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 1024);
        assert_eq!(t.state(a).read_back_bytes(), 0);
    }

    #[test]
    fn stale_gpu_arrivals_are_discarded() {
        // The GPU side uses the same version filter as the CPU side: a
        // merge result for a superseded kernel must not mark the buffer
        // ready (paper §5.3).
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 3);
        t.begin_kernel_write(a, 5);
        t.record_gpu_arrival(a, 3, SimTime::from_nanos(60));
        assert_eq!(t.state(a).gpu_version, None, "old merge must be ignored");
        assert_eq!(t.state(a).gpu_ready_at, SimTime::ZERO);
        t.record_gpu_arrival(a, 5, SimTime::from_nanos(90));
        assert_eq!(t.state(a).gpu_version, Some(5));
        assert_eq!(t.gpu_ready_time(&[a]), SimTime::from_nanos(90));
    }

    #[test]
    fn gpu_ready_time_takes_the_maximum() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        let b = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 1);
        t.record_gpu_arrival(a, 1, SimTime::from_nanos(250));
        t.begin_kernel_write(b, 2);
        t.record_gpu_arrival(b, 2, SimTime::from_nanos(700));
        assert_eq!(t.gpu_ready_time(&[a, b]), SimTime::from_nanos(700));
        assert_eq!(t.gpu_ready_time(&[]), SimTime::ZERO);
    }

    #[test]
    fn arrivals_do_not_clear_staleness_of_the_other_side() {
        // CPU and GPU readiness are independent: a CPU arrival satisfies
        // cpu_is_stale but leaves the GPU copy at its old version.
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a, 2);
        t.record_cpu_arrival(a, 2, SimTime::from_nanos(40));
        assert!(!t.state(a).cpu_is_stale());
        assert_eq!(t.state(a).gpu_version, None);
        assert_eq!(t.gpu_ready_time(&[a]), SimTime::ZERO);
    }

    #[test]
    fn pool_accounts_every_acquire_release_cycle() {
        // Steady-state reuse: after the first allocation each
        // acquire/release pair is a hit and the pool never grows.
        let mut p = ScratchPool::new(true);
        assert!(!p.acquire(64));
        p.release(64);
        for _ in 0..5 {
            assert!(p.acquire(64));
            assert_eq!(p.free_count(), 0, "the sole buffer is checked out");
            p.release(64);
            assert_eq!(p.free_count(), 1);
        }
        assert_eq!(p.stats(), PoolStats { hits: 5, misses: 1 });
    }

    #[test]
    fn disabled_pool_never_retains_buffers() {
        let mut p = ScratchPool::new(false);
        for len in [8, 8, 16, 16] {
            assert!(!p.acquire(len));
            p.release(len);
            assert_eq!(p.free_count(), 0, "released buffers are destroyed");
        }
        assert_eq!(p.stats(), PoolStats { hits: 0, misses: 4 });
    }

    #[test]
    fn pool_reuses_buffers_when_enabled() {
        let mut p = ScratchPool::new(true);
        assert!(!p.acquire(100), "first request allocates");
        p.release(100);
        assert!(p.acquire(50), "smaller request reuses the freed buffer");
        p.release(100);
        assert!(!p.acquire(200), "larger request allocates again");
        assert_eq!(p.stats(), PoolStats { hits: 1, misses: 2 });
    }

    #[test]
    fn pool_prefers_best_fit() {
        let mut p = ScratchPool::new(true);
        p.release(1000);
        p.release(100);
        assert!(p.acquire(50));
        // The 100-capacity buffer should have been chosen, leaving 1000.
        assert!(p.acquire(500));
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn disabled_pool_always_misses() {
        let mut p = ScratchPool::new(false);
        assert!(!p.acquire(10));
        p.release(10);
        assert!(!p.acquire(10));
        assert_eq!(p.stats(), PoolStats { hits: 0, misses: 2 });
        assert_eq!(p.free_count(), 0);
    }
}
