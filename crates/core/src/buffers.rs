//! Buffer bookkeeping: coherence tracking and the GPU scratch-buffer pool.
//!
//! FluidiCL keeps one copy of every application buffer per device and must
//! know, for each, *when* its current content became available and whether
//! the host copy and the diff-merge snapshot still match the device copy
//! (paper §5.3, §5.5, §6.2). A placement begins and records a kernel's
//! writes in one synchronous call, so ready instants carry what the paper's
//! version numbers carry: no result of a superseded kernel can arrive late.
//! FluidiCL also needs two extra GPU buffers per modified buffer (the
//! CPU-data landing area and the pristine original for diff-merge), which
//! are pooled to avoid per-kernel allocation costs (paper §6.1).

use std::collections::HashMap;

use fluidicl_des::SimTime;
use fluidicl_vcl::{BufferId, ClError, ClResult};

/// Monotonic kernel identifier assigned per launch.
pub type KernelId = u64;

/// Per-buffer coherence state across the host/CPU and GPU copies.
#[derive(Clone, Debug)]
pub struct BufferState {
    /// Element count.
    pub len: usize,
    /// Virtual time at which the CPU copy of the current content became
    /// usable.
    pub cpu_ready_at: SimTime,
    /// Virtual time at which the GPU copy of the current content became
    /// usable.
    pub gpu_ready_at: SimTime,
    /// Whether the host copy matches the authoritative device copy: the
    /// CPU may read it (location tracking, paper §6.2) and a D2H read-back
    /// ships nothing. A host write or a kernel result on the host sets it;
    /// a kernel write clears it until then.
    pub host_current: bool,
    /// Whether the GPU-side "original" snapshot for diff-merge matches
    /// the GPU copy, so the next kernel's setup copies nothing: the
    /// previous co-executed kernel's epilogue refreshed it (paper §5.5).
    /// A host write or a solo run clears it.
    pub snapshot_current: bool,
}

impl BufferState {
    fn new(len: usize, now: SimTime) -> Self {
        BufferState {
            len,
            cpu_ready_at: now,
            gpu_ready_at: now,
            // A fresh buffer is the same on both devices.
            host_current: true,
            snapshot_current: false,
        }
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

    /// Marks a host write: both copies now hold the host's content, the
    /// CPU copy from `cpu_at` and the GPU copy from `gpu_at`.
    pub fn record_host_write(&mut self, id: BufferId, cpu_at: SimTime, gpu_at: SimTime) {
        let s = self.state_mut(id);
        s.cpu_ready_at = cpu_at;
        s.gpu_ready_at = gpu_at;
        // The host replaced the content: the snapshot no longer matches
        // it, while host and device copies now agree.
        s.snapshot_current = false;
        s.host_current = true;
    }

    /// Marks the start of a kernel writing `id`: the host copy is stale
    /// until the kernel's result reaches it (paper §5.3).
    pub fn begin_kernel_write(&mut self, id: BufferId) {
        self.state_mut(id).host_current = false;
    }

    /// Records a kernel's result for `id`: it is usable on the CPU at
    /// `cpu_at` (the device-to-host thread finished, or the CPU or a peer
    /// computed into the host copy — paper §5.6) and on the GPU at
    /// `gpu_at`; `None` leaves that side as it was (the host copy stale,
    /// or the GPU copy frozen on a dead card). `snapshot_current` says
    /// whether the kernel's epilogue refreshed the diff-merge original, so
    /// the next co-executed kernel that writes `id` skips the copy.
    pub fn record_kernel(
        &mut self,
        id: BufferId,
        cpu_at: Option<SimTime>,
        gpu_at: Option<SimTime>,
        snapshot_current: bool,
    ) {
        let s = self.state_mut(id);
        if let Some(at) = cpu_at {
            s.cpu_ready_at = at;
        }
        if let Some(at) = gpu_at {
            s.gpu_ready_at = at;
        }
        s.host_current = cpu_at.is_some();
        s.snapshot_current = snapshot_current;
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
    fn kernel_write_makes_the_host_copy_stale_until_its_result_arrives() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        assert!(t.state(a).host_current, "a fresh buffer is current");
        t.begin_kernel_write(a);
        assert!(!t.state(a).host_current);
        t.record_kernel(a, Some(SimTime::from_nanos(100)), None, false);
        assert!(t.state(a).host_current);
        assert_eq!(t.state(a).cpu_ready_at, SimTime::from_nanos(100));
        // A host-side result leaves the GPU copy's ready time alone.
        assert_eq!(t.gpu_ready_time(&[a]), SimTime::ZERO);
    }

    #[test]
    fn ready_times_take_the_maximum() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        let b = t.register(4, SimTime::ZERO);
        t.record_kernel(a, Some(SimTime::from_nanos(500)), None, false);
        t.record_kernel(b, Some(SimTime::from_nanos(300)), None, false);
        assert_eq!(t.cpu_ready_time(&[a, b]), SimTime::from_nanos(500));
        assert_eq!(t.cpu_ready_time(&[]), SimTime::ZERO);
        t.record_kernel(a, None, Some(SimTime::from_nanos(250)), false);
        t.record_kernel(b, None, Some(SimTime::from_nanos(700)), false);
        assert_eq!(t.gpu_ready_time(&[a, b]), SimTime::from_nanos(700));
        assert_eq!(t.gpu_ready_time(&[]), SimTime::ZERO);
    }

    #[test]
    fn a_gpu_result_leaves_the_host_copy_stale() {
        // CPU and GPU readiness are independent: a GPU result moves only
        // the GPU copy's ready time and leaves the host copy stale.
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a);
        t.record_kernel(a, None, Some(SimTime::from_nanos(40)), false);
        assert!(!t.state(a).host_current);
        assert_eq!(t.cpu_ready_time(&[a]), SimTime::ZERO);
        assert_eq!(t.gpu_ready_time(&[a]), SimTime::from_nanos(40));
    }

    #[test]
    fn host_write_makes_both_copies_current() {
        let mut t = BufferTable::new();
        let a = t.register(4, SimTime::ZERO);
        t.begin_kernel_write(a);
        t.record_host_write(a, SimTime::from_nanos(10), SimTime::from_nanos(40));
        assert!(t.state(a).host_current);
        assert_eq!(t.gpu_ready_time(&[a]), SimTime::from_nanos(40));
    }

    #[test]
    fn fresh_buffer_refreshes_its_whole_snapshot() {
        let mut t = BufferTable::new();
        let a = t.register(256, SimTime::ZERO);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 1024);
        assert_eq!(t.state(a).read_back_bytes(), 0);
    }

    #[test]
    fn coherent_kernels_skip_refresh_and_read_back() {
        let mut t = BufferTable::new();
        let a = t.register(256, SimTime::ZERO);
        let (cpu_at, gpu_at) = (SimTime::from_nanos(20), SimTime::from_nanos(30));
        t.record_kernel(a, Some(cpu_at), Some(gpu_at), true);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 0);
        assert_eq!(t.state(a).read_back_bytes(), 0);
        // The next kernel write makes the host copy stale; the snapshot
        // still matches the GPU copy the kernel starts from.
        t.begin_kernel_write(a);
        assert_eq!(t.state(a).read_back_bytes(), 1024);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 0);
        // A solo run leaves the snapshot behind the outputs it wrote.
        t.record_kernel(a, None, Some(gpu_at), false);
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 1024);
        // A host write invalidates the snapshot but makes host and device
        // copies agree.
        t.record_kernel(a, Some(cpu_at), Some(gpu_at), true);
        t.record_host_write(a, SimTime::from_nanos(10), SimTime::from_nanos(40));
        assert_eq!(t.state(a).snapshot_refresh_bytes(), 1024);
        assert_eq!(t.state(a).read_back_bytes(), 0);
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
