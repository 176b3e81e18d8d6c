//! Dynamic device roster: which devices are still healthy across kernels.
//!
//! The paper's runtime is owner-centric and binary about loss — once any
//! device dies, every follow-on kernel degrades to the single survivor.
//! With N devices that model wastes capacity: losing one peer GPU should
//! cost one peer's throughput, not the fleet. The roster tracks the health
//! of every device the machine declares (CPU, primary GPU, peer GPUs) so
//! the runtime can re-form co-execution on all healthy survivors after a
//! loss and only fall back to a single-device degraded run when exactly
//! one device remains.

/// Health state of every device in the machine, tracked across kernels.
///
/// A fresh roster reports everything healthy. Losses are sticky: a device
/// reported lost stays lost for the lifetime of the runtime (the simulated
/// faults are fail-stop). Peer GPUs are identified by their endpoint
/// device index (`1..=peers.len()`, matching [`crate::KernelReport`]
/// endpoint numbering; the CPU endpoint is dev 0).
///
/// # Examples
///
/// ```
/// use fluidicl::DeviceRoster;
///
/// let mut roster = DeviceRoster::new();
/// assert!(roster.cpu_healthy() && roster.gpu_healthy());
/// roster.lose_gpu();
/// assert!(!roster.gpu_healthy());
/// roster.lose_peer(2);
/// assert!(roster.peer_dead(2) && !roster.peer_dead(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceRoster {
    cpu_lost: bool,
    gpu_lost: bool,
    dead_peers: Vec<u32>,
}

impl DeviceRoster {
    /// A roster with every device healthy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the CPU can still execute subkernels.
    pub fn cpu_healthy(&self) -> bool {
        !self.cpu_lost
    }

    /// Whether the primary GPU (the machine's configured owner card) can
    /// still execute waves.
    pub fn gpu_healthy(&self) -> bool {
        !self.gpu_lost
    }

    /// Marks the CPU lost. Idempotent; losses are sticky.
    pub fn lose_cpu(&mut self) {
        self.cpu_lost = true;
    }

    /// Marks the primary GPU lost. Idempotent; losses are sticky.
    pub fn lose_gpu(&mut self) {
        self.gpu_lost = true;
    }

    /// Marks peer GPU endpoint `dev` lost. Idempotent; losses are sticky.
    pub fn lose_peer(&mut self, dev: u32) {
        if !self.dead_peers.contains(&dev) {
            self.dead_peers.push(dev);
        }
    }

    /// Whether peer GPU endpoint `dev` has been lost.
    pub fn peer_dead(&self, dev: u32) -> bool {
        self.dead_peers.contains(&dev)
    }

    /// Endpoint indices of every lost peer GPU, in loss order.
    pub fn dead_peers(&self) -> &[u32] {
        &self.dead_peers
    }

    /// Whether any device at all has been lost.
    pub fn any_lost(&self) -> bool {
        self.cpu_lost || self.gpu_lost || !self.dead_peers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_roster_is_all_healthy() {
        let r = DeviceRoster::new();
        assert!(r.cpu_healthy());
        assert!(r.gpu_healthy());
        assert!(r.dead_peers().is_empty());
        assert!(!r.any_lost());
    }

    #[test]
    fn losses_are_sticky_and_idempotent() {
        let mut r = DeviceRoster::new();
        r.lose_peer(2);
        r.lose_peer(2);
        r.lose_peer(1);
        assert_eq!(r.dead_peers(), &[2, 1], "loss order preserved, no dupes");
        assert!(r.peer_dead(1) && r.peer_dead(2) && !r.peer_dead(3));
        r.lose_cpu();
        r.lose_cpu();
        assert!(!r.cpu_healthy() && r.gpu_healthy());
        assert!(r.any_lost());
    }

    #[test]
    fn each_loss_marks_only_its_device() {
        let mut r = DeviceRoster::new();
        r.lose_cpu();
        assert!(!r.cpu_healthy() && r.gpu_healthy());
        r.lose_gpu();
        assert!(!r.cpu_healthy() && !r.gpu_healthy());
        assert!(r.dead_peers().is_empty());
        let mut peers_only = DeviceRoster::new();
        peers_only.lose_peer(1);
        assert!(
            peers_only.cpu_healthy() && peers_only.gpu_healthy(),
            "a peer loss leaves the primary pair healthy"
        );
        assert!(peers_only.any_lost() && peers_only.peer_dead(1));
    }
}
