//! The host-program driver interface.
//!
//! Every runtime in this reproduction — single-device OpenCL, FluidiCL,
//! static partitioning, SOCL — exposes the same small API subset the paper's
//! applications use (`clCreateBuffer`, `clEnqueueWriteBuffer`,
//! `clEnqueueNDRangeKernel`, `clEnqueueReadBuffer`; paper §7). Host programs
//! in `fluidicl-polybench` are written once against [`ClDriver`] and run
//! unmodified on every runtime, mirroring how FluidiCL swaps in for a vendor
//! runtime via find-and-replace (paper §5).

use fluidicl_des::SimDuration;

use crate::{BufferId, ClResult, KernelArg, NdRange};

/// Which physical device a single-device context targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// The multicore CPU OpenCL device.
    Cpu,
    /// The discrete GPU.
    Gpu,
}

impl DeviceKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "CPU",
            DeviceKind::Gpu => "GPU",
        }
    }

    /// The other device of the pair — the survivor when this one is lost.
    pub fn other(self) -> DeviceKind {
        match self {
            DeviceKind::Cpu => DeviceKind::Gpu,
            DeviceKind::Gpu => DeviceKind::Cpu,
        }
    }
}

/// The OpenCL-subset driver interface host programs are written against.
///
/// All operations are *blocking* in virtual time, matching FluidiCL's
/// current implementation (paper §7); internally a runtime is free to
/// overlap work on its own timeline, and `elapsed` reports the final virtual
/// clock.
pub trait ClDriver {
    /// Creates a buffer of `len` `f32` elements in every address space this
    /// runtime manages, returning a handle valid across them.
    fn create_buffer(&mut self, len: usize) -> BufferId;

    /// Writes host data into the buffer (on every device the runtime
    /// manages — FluidiCL duplicates `clEnqueueWriteBuffer` to both devices,
    /// paper §4.1).
    ///
    /// # Errors
    ///
    /// Fails if the handle is unknown or the length differs.
    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()>;

    /// Writes host data the caller no longer needs, handing the allocation
    /// itself to the runtime.
    ///
    /// Use it for inputs that are dead after the write (generated
    /// matrices, staging vectors); use [`write_buffer`](Self::write_buffer)
    /// when the host keeps reading its copy. A runtime that overrides it
    /// installs `data` as its host copy instead of copying it, so host
    /// memory holds the input once. The virtual cost is identical to the
    /// slice form: the same host copy and transfers are charged, and the
    /// clocks, outputs and reports do not depend on which form is used.
    ///
    /// The default forwards to [`write_buffer`](Self::write_buffer), so a
    /// wrapper that does not override it stays correct and simply copies.
    ///
    /// # Errors
    ///
    /// Fails exactly as [`write_buffer`](Self::write_buffer) does, and then
    /// drops `data`.
    fn write_buffer_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        self.write_buffer(id, &data)
    }

    /// Launches a kernel over `ndrange` with `args`.
    ///
    /// # Errors
    ///
    /// Fails if the kernel is unknown or the arguments mismatch.
    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()>;

    /// Reads the up-to-date content of a buffer back to the host.
    ///
    /// # Errors
    ///
    /// Fails if the handle is unknown.
    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>>;

    /// Total virtual time consumed so far (the paper's "total running time",
    /// which includes all data-transfer overheads).
    fn elapsed(&self) -> SimDuration;

    /// Virtual durations of the kernel launches issued so far, in order
    /// (used by per-kernel tables such as the paper's Table 1).
    fn kernel_times(&self) -> Vec<(String, SimDuration)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_kind_names() {
        assert_eq!(DeviceKind::Cpu.name(), "CPU");
        assert_eq!(DeviceKind::Gpu.name(), "GPU");
        assert!(DeviceKind::Cpu < DeviceKind::Gpu);
    }

    #[test]
    fn other_is_an_involution() {
        assert_eq!(DeviceKind::Cpu.other(), DeviceKind::Gpu);
        assert_eq!(DeviceKind::Gpu.other(), DeviceKind::Cpu);
        for d in [DeviceKind::Cpu, DeviceKind::Gpu] {
            assert_eq!(d.other().other(), d);
        }
    }
}
