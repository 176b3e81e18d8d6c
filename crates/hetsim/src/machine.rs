//! Whole-machine configuration: one CPU, one GPU, a full-duplex link.

use fluidicl_des::SimDuration;

use crate::{CpuModel, GpuModel, HostModel, LinkModel};

/// A non-owner peer GPU: a second (third, ...) discrete device that claims
/// work-group ranges from the shared frontier and ships results back to the
/// owner over its own full-duplex link pair.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerGpu {
    /// The peer device model.
    pub gpu: GpuModel,
    /// Host-to-peer link channel.
    pub h2d: LinkModel,
    /// Peer-to-host link channel.
    pub d2h: LinkModel,
}

/// The heterogeneous node every runtime in this reproduction executes on:
/// a multicore CPU and a discrete GPU with separate address spaces joined by
/// a PCIe-like link, plus zero or more peer GPUs on their own links.
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::MachineConfig;
///
/// let m = MachineConfig::paper_testbed();
/// assert_eq!(m.cpu.threads(), 8);
/// assert!(m.peers.is_empty());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// The CPU device model.
    pub cpu: CpuModel,
    /// The GPU device model (the protocol owner).
    pub gpu: GpuModel,
    /// Host-to-device link channel.
    pub h2d: LinkModel,
    /// Device-to-host link channel.
    pub d2h: LinkModel,
    /// Host memory (intermediate copies).
    pub host: HostModel,
    /// Additional non-owner GPUs, each with its own link pair. Empty on
    /// the paper's two-device testbed.
    pub peers: Vec<PeerGpu>,
}

impl MachineConfig {
    /// The paper's experimental system: NVidia Tesla C2070 + quad-core Xeon
    /// W3550 with hyper-threading, PCIe 2.0 x16.
    pub fn paper_testbed() -> Self {
        MachineConfig {
            cpu: CpuModel::xeon_w3550_like(),
            gpu: GpuModel::tesla_c2070_like(),
            h2d: LinkModel::pcie2_x16(),
            d2h: LinkModel::pcie2_x16(),
            host: HostModel::xeon_host(),
            peers: Vec::new(),
        }
    }

    /// Adds a non-owner peer GPU with its own link pair.
    #[must_use]
    fn with_peer(mut self, peer: PeerGpu) -> Self {
        self.peers.push(peer);
        self
    }

    /// A mid-range peer card: laptop-class wave geometry but on a decent
    /// link, the kind of second GPU a workstation actually has next to the
    /// primary card.
    fn midrange_peer() -> PeerGpu {
        PeerGpu {
            gpu: GpuModel::tesla_c2070_like()
                .with_wave(8, 4)
                .with_rates(260.0, 60.0),
            h2d: LinkModel::new(SimDuration::from_micros(18), 4.0),
            d2h: LinkModel::new(SimDuration::from_micros(18), 4.0),
        }
    }

    /// The paper's testbed extended with one mid-range peer GPU: the
    /// three-device configuration the N-way ablation runs on.
    pub fn paper_testbed_3dev() -> Self {
        Self::paper_testbed().with_peer(Self::midrange_peer())
    }

    /// A machine with a much weaker GPU (a laptop-class part: fewer SMs,
    /// a third of the bandwidth) and the same CPU. FluidiCL claims to need
    /// no per-machine retuning (paper §1: "completely portable across
    /// different machines"); the portability experiment runs the unchanged
    /// runtime here.
    pub fn weak_gpu_laptop() -> Self {
        let mut m = Self::paper_testbed();
        m.gpu = m.gpu.with_wave(4, 4).with_rates(120.0, 30.0);
        m.h2d = LinkModel::new(SimDuration::from_micros(20), 3.0);
        m.d2h = LinkModel::new(SimDuration::from_micros(20), 3.0);
        m
    }

    /// A machine with a newer, much stronger GPU and a faster link — the
    /// opposite migration direction from [`MachineConfig::weak_gpu_laptop`].
    pub fn big_gpu_node() -> Self {
        let mut m = Self::paper_testbed();
        m.gpu = m.gpu.with_wave(16, 8).with_rates(2000.0, 320.0);
        m.h2d = LinkModel::new(SimDuration::from_micros(10), 12.0);
        m.d2h = LinkModel::new(SimDuration::from_micros(10), 12.0);
        // A node of that generation also has faster DRAM.
        m.host = HostModel::new(16.0);
        m
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_gpu_strength() {
        let weak = MachineConfig::weak_gpu_laptop();
        let paper = MachineConfig::paper_testbed();
        let big = MachineConfig::big_gpu_node();
        assert!(weak.gpu.peak_flops_per_ns() < paper.gpu.peak_flops_per_ns());
        assert!(big.gpu.peak_flops_per_ns() > paper.gpu.peak_flops_per_ns());
        assert!(weak.h2d.bandwidth() < big.h2d.bandwidth());
        // The CPU is the same across all three machines.
        assert_eq!(weak.cpu, paper.cpu);
        assert_eq!(big.cpu, paper.cpu);
    }

    #[test]
    fn default_is_paper_testbed() {
        assert_eq!(MachineConfig::default(), MachineConfig::paper_testbed());
    }

    #[test]
    fn peer_is_weaker_than_owner() {
        let m = MachineConfig::paper_testbed_3dev();
        let peer = &m.peers[0];
        assert!(peer.gpu.peak_flops_per_ns() < m.gpu.peak_flops_per_ns());
        assert!(peer.h2d.bandwidth() < m.h2d.bandwidth());
    }

    #[test]
    fn debug_rendering_names_every_component() {
        let text = format!("{:?}", MachineConfig::paper_testbed());
        assert!(text.contains("cpu"));
        assert!(text.contains("gpu"));
    }
}
