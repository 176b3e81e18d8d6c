//! Non-owner endpoint cost models for N-way co-execution.
//!
//! The paper's protocol has exactly one non-owner: the CPU, whose
//! "subkernel → intermediate copy → data+status ship" loop is priced with
//! the CPU, host and h2d models. Generalizing to N devices means that loop
//! must run against *any* worker that can compute a claimed range and ship
//! results to the owner — so the loop's cost surface is extracted into
//! [`NonOwnerEndpoint`], with one implementation per device class:
//!
//! * [`CpuEndpoint`] — the paper's CPU: multicore subkernels, a host
//!   staging memcpy, and the machine's h2d link.
//! * [`PeerGpuEndpoint`] — a second GPU plugged in as a peer worker: wave
//!   execution priced by its own [`fluidicl_hetsim::GpuModel`], results
//!   staged over its d2h link and shipped onward to the owner over its own
//!   upstream lanes (each peer gets its own full-duplex link pair and its
//!   own in-order channel, so peers never contend with the CPU's hd queue).

use fluidicl_des::SimDuration;
use fluidicl_hetsim::{
    CpuModel, GpuModel, HostModel, KernelProfile, LinkModel, MachineConfig, PeerGpu,
};

/// Cost surface of a non-owner device running the claim/compute/ship loop.
///
/// The co-execution engine drives every endpoint through the same state
/// machine; an implementation only answers "how long does this step take on
/// this device".
pub trait NonOwnerEndpoint {
    /// Smallest work-group count worth launching on this endpoint (the
    /// chunk controller's floor, and the profiling-trial allocation).
    fn min_chunk(&self) -> u64;

    /// Virtual time to compute `wgs` work-groups of `items` items each.
    fn compute_time(
        &self,
        profile: &KernelProfile,
        items: u64,
        wgs: u64,
        wg_split: bool,
    ) -> SimDuration;

    /// Time to stage `bytes` of freshly computed results into host memory
    /// for shipping (the paper's intermediate copy, §5.5).
    fn stage_time(&self, bytes: u64) -> SimDuration;

    /// Time to ship `bytes` from the staging area to the owner device over
    /// this endpoint's upstream link. The CPU sits behind the host link of
    /// the card that owns the kernel, `owner_h2d`; a peer has its own.
    fn ship_time(&self, owner_h2d: &LinkModel, bytes: u64) -> SimDuration;

    /// One-time startup delay before this endpoint's first subkernel can
    /// launch: broadcasting the kernel's buffers to the device plus its
    /// launch overhead. Zero for the CPU, which shares host memory.
    fn begin_delay(&self, launch_bytes: u64) -> SimDuration;
}

/// The paper's CPU in the non-owner role.
pub struct CpuEndpoint {
    cpu: CpuModel,
    host: HostModel,
}

impl CpuEndpoint {
    /// The CPU endpoint of `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        CpuEndpoint {
            cpu: machine.cpu.clone(),
            host: machine.host.clone(),
        }
    }
}

impl NonOwnerEndpoint for CpuEndpoint {
    fn min_chunk(&self) -> u64 {
        u64::from(self.cpu.threads())
    }

    fn compute_time(
        &self,
        profile: &KernelProfile,
        items: u64,
        wgs: u64,
        wg_split: bool,
    ) -> SimDuration {
        self.cpu.subkernel_time(profile, items, wgs, wg_split)
    }

    fn stage_time(&self, bytes: u64) -> SimDuration {
        self.host.copy_time(bytes)
    }

    fn ship_time(&self, owner_h2d: &LinkModel, bytes: u64) -> SimDuration {
        owner_h2d.transfer_time(bytes)
    }

    fn begin_delay(&self, _launch_bytes: u64) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A peer GPU in the non-owner role: claims ranges like the CPU does, but
/// computes them as waves and moves data over its own link pair.
pub struct PeerGpuEndpoint {
    gpu: GpuModel,
    h2d: LinkModel,
    d2h: LinkModel,
}

impl PeerGpuEndpoint {
    /// The endpoint for one peer-GPU slot of a machine config.
    pub fn new(peer: &PeerGpu) -> Self {
        PeerGpuEndpoint {
            gpu: peer.gpu.clone(),
            h2d: peer.h2d.clone(),
            d2h: peer.d2h.clone(),
        }
    }
}

impl NonOwnerEndpoint for PeerGpuEndpoint {
    fn min_chunk(&self) -> u64 {
        self.gpu.wave_width()
    }

    fn compute_time(
        &self,
        profile: &KernelProfile,
        items: u64,
        wgs: u64,
        _wg_split: bool,
    ) -> SimDuration {
        // Every claimed range is one launch on the peer: launch overhead
        // plus the wave walk. The peer runs the untransformed kernel — no
        // abort checks; it never races anyone inside its claimed range.
        self.gpu.launch_time(profile, items, wgs)
    }

    fn stage_time(&self, bytes: u64) -> SimDuration {
        // Results come off the peer device into host staging over its d2h.
        self.d2h.transfer_time(bytes)
    }

    fn ship_time(&self, _owner_h2d: &LinkModel, bytes: u64) -> SimDuration {
        // Staged results move onward to the owner over the peer's own
        // upstream lanes; the owner's hd queue is never occupied.
        self.h2d.transfer_time(bytes)
    }

    fn begin_delay(&self, launch_bytes: u64) -> SimDuration {
        self.h2d.transfer_time(launch_bytes) + self.gpu.launch_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_endpoint_mirrors_the_machine_models() {
        let m = MachineConfig::paper_testbed();
        let ep = CpuEndpoint::new(&m);
        assert_eq!(ep.min_chunk(), u64::from(m.cpu.threads()));
        assert_eq!(ep.stage_time(4096), m.host.copy_time(4096));
        // The CPU ships over whichever card's host link owns the kernel.
        let peer = &MachineConfig::paper_testbed_3dev().peers[0];
        assert_eq!(ep.ship_time(&m.h2d, 4096), m.h2d.transfer_time(4096));
        assert_eq!(ep.ship_time(&peer.h2d, 4096), peer.h2d.transfer_time(4096));
        assert_eq!(ep.begin_delay(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn peer_endpoint_pays_launch_and_broadcast_costs() {
        let m = MachineConfig::paper_testbed_3dev();
        let ep = PeerGpuEndpoint::new(&m.peers[0]);
        assert_eq!(ep.min_chunk(), m.peers[0].gpu.wave_width());
        assert!(ep.begin_delay(1 << 20) > m.peers[0].gpu.launch_overhead());
        let profile = KernelProfile::new("probe");
        let small = ep.compute_time(&profile, 64, 8, false);
        let large = ep.compute_time(&profile, 64, 64, false);
        assert!(large >= small);
        assert!(small >= m.peers[0].gpu.launch_overhead());
    }
}
