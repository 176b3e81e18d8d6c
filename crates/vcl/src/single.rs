//! The vanilla single-device runtime: what an application gets from a vendor
//! OpenCL stack when it targets just the CPU or just the GPU. This is the
//! baseline FluidiCL is measured against ("CPU-only" and "GPU-only" in every
//! figure of the paper).
//!
//! OpenCL's execution model (paper §2) revolves around in-order command
//! queues: transfers and kernel launches execute in enqueue order. The
//! runtime is one such queue: every call executes functionally right away
//! and advances the queue's virtual tail by the command's modelled
//! duration.

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::{KernelProfile, MachineConfig};

use crate::exec::{execute_all, Launch};
use crate::{BufferId, ClDriver, ClResult, DeviceKind, KernelArg, Memory, NdRange, Program};

/// A single-device OpenCL-style runtime over the simulated machine.
///
/// Kernels run unmodified (no abort checks) on the one chosen device; host
/// writes/reads cross the PCIe link for the GPU and are memcpys for the CPU
/// device (whose OpenCL buffers live in host RAM).
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::{KernelProfile, MachineConfig};
/// use fluidicl_vcl::{
///     ArgRole, ArgSpec, ClDriver, DeviceKind, KernelArg, KernelDef, NdRange, Program,
///     SingleDeviceRuntime,
/// };
///
/// let mut program = Program::new();
/// program.register(KernelDef::new(
///     "double",
///     vec![ArgSpec::new("x", ArgRole::InOut)],
///     KernelProfile::new("double"),
///     |item, _, _, outs| {
///         let i = item.global_linear();
///         outs.at(0)[i] *= 2.0;
///     },
/// ));
/// let mut rt = SingleDeviceRuntime::new(MachineConfig::paper_testbed(), DeviceKind::Gpu, program);
/// let buf = rt.create_buffer(8);
/// rt.write_buffer(buf, &[1.0; 8])?;
/// rt.enqueue_kernel("double", NdRange::d1(8, 4)?, &[KernelArg::Buffer(buf)])?;
/// assert_eq!(rt.read_buffer(buf)?, vec![2.0; 8]);
/// assert!(!rt.elapsed().is_zero());
/// # Ok::<(), fluidicl_vcl::ClError>(())
/// ```
#[derive(Debug)]
pub struct SingleDeviceRuntime {
    machine: MachineConfig,
    device: DeviceKind,
    program: Program,
    /// The device's address space.
    memory: Memory,
    /// The instant the last enqueued command completes (`clFinish`).
    tail: SimTime,
    next_buffer: u64,
    kernel_log: Vec<(String, SimDuration)>,
}

impl SingleDeviceRuntime {
    /// Creates a runtime targeting `device` on `machine` with `program`,
    /// with an empty address space and its clock at zero.
    pub fn new(machine: MachineConfig, device: DeviceKind, program: Program) -> Self {
        SingleDeviceRuntime {
            machine,
            device,
            program,
            memory: Memory::new(),
            tail: SimTime::ZERO,
            next_buffer: 0,
            kernel_log: Vec::new(),
        }
    }

    /// The device this runtime targets.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Virtual duration of one full kernel launch on this device (including
    /// launch overhead), without executing it. Exposed for schedulers that
    /// need estimates (OracleSP sweeps, SOCL calibration).
    pub fn kernel_duration(&self, kernel: &str, ndrange: NdRange) -> ClResult<SimDuration> {
        let def = self.program.kernel(kernel)?;
        Ok(self.launch_time(&def.default_version().profile, ndrange))
    }

    /// One whole launch of the unmodified kernel on this device.
    fn launch_time(&self, profile: &KernelProfile, ndrange: NdRange) -> SimDuration {
        let items = ndrange.items_per_group();
        let groups = ndrange.num_groups();
        match self.device {
            DeviceKind::Gpu => self.machine.gpu.launch_time(profile, items, groups),
            DeviceKind::Cpu => self
                .machine
                .cpu
                .subkernel_time(profile, items, groups, false),
        }
    }

    /// Copying `bytes` between the host and this device's buffers.
    fn transfer_time(&self, bytes: u64, to_device: bool) -> SimDuration {
        match (self.device, to_device) {
            (DeviceKind::Gpu, true) => self.machine.h2d.transfer_time(bytes),
            (DeviceKind::Gpu, false) => self.machine.d2h.transfer_time(bytes),
            (DeviceKind::Cpu, _) => self.machine.host.copy_time(bytes),
        }
    }
}

impl ClDriver for SingleDeviceRuntime {
    /// Allocates a buffer, charging the device's allocation cost on the
    /// queue (GPU only; CPU-device buffers are host memory).
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.next_buffer);
        self.next_buffer += 1;
        self.memory.alloc(id, len);
        if self.device == DeviceKind::Gpu {
            self.tail += self.machine.gpu.buffer_create_time(len as u64 * 4);
        }
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.write_buffer_owned(id, data.to_vec())
    }

    fn write_buffer_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        let bytes = data.len() as u64 * 4;
        self.memory.replace(id, data)?;
        self.tail += self.transfer_time(bytes, true);
        Ok(())
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let def = self.program.kernel(kernel)?;
        let launch = Launch::new(def, ndrange, args.to_vec());
        execute_all(&launch, &mut self.memory)?;
        let d = self.launch_time(&launch.kernel.default_version().profile, ndrange);
        self.tail += d;
        self.kernel_log.push((kernel.to_string(), d));
        Ok(())
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        let data = self.memory.get(id)?.to_vec();
        self.tail += self.transfer_time(data.len() as u64 * 4, false);
        Ok(data)
    }

    fn elapsed(&self) -> SimDuration {
        self.tail.saturating_since(SimTime::ZERO)
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.kernel_log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgRole, ArgSpec, KernelDef};
    use fluidicl_hetsim::KernelProfile;

    fn test_program() -> Program {
        let mut p = Program::new();
        p.register(KernelDef::new(
            "axpy",
            vec![
                ArgSpec::new("x", ArgRole::In),
                ArgSpec::new("y", ArgRole::InOut),
                ArgSpec::new("a", ArgRole::Scalar),
            ],
            KernelProfile::new("axpy")
                .flops_per_item(2.0)
                .bytes_read_per_item(8.0)
                .bytes_written_per_item(4.0),
            |item, scalars, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] += scalars.f32(0) * ins.get(0)[i];
            },
        ));
        p
    }

    fn run_on(device: DeviceKind) -> (Vec<f32>, SimDuration) {
        let mut rt =
            SingleDeviceRuntime::new(MachineConfig::paper_testbed(), device, test_program());
        let x = rt.create_buffer(64);
        let y = rt.create_buffer(64);
        rt.write_buffer(x, &vec![1.0; 64]).unwrap();
        rt.write_buffer(y, &vec![2.0; 64]).unwrap();
        rt.enqueue_kernel(
            "axpy",
            NdRange::d1(64, 8).unwrap(),
            &[
                KernelArg::Buffer(x),
                KernelArg::Buffer(y),
                KernelArg::F32(3.0),
            ],
        )
        .unwrap();
        (rt.read_buffer(y).unwrap(), rt.elapsed())
    }

    #[test]
    fn both_devices_compute_identical_results() {
        let (cpu, _) = run_on(DeviceKind::Cpu);
        let (gpu, _) = run_on(DeviceKind::Gpu);
        assert_eq!(cpu, gpu);
        assert_eq!(cpu, vec![5.0; 64]);
    }

    #[test]
    fn elapsed_time_is_positive_and_device_dependent() {
        let (_, cpu_t) = run_on(DeviceKind::Cpu);
        let (_, gpu_t) = run_on(DeviceKind::Gpu);
        assert!(!cpu_t.is_zero());
        assert!(!gpu_t.is_zero());
        assert_ne!(cpu_t, gpu_t, "devices have different cost structures");
    }

    #[test]
    fn kernel_log_records_launches() {
        let mut rt = SingleDeviceRuntime::new(
            MachineConfig::paper_testbed(),
            DeviceKind::Cpu,
            test_program(),
        );
        let x = rt.create_buffer(8);
        let y = rt.create_buffer(8);
        rt.write_buffer(x, &[0.0; 8]).unwrap();
        rt.write_buffer(y, &[0.0; 8]).unwrap();
        for _ in 0..3 {
            rt.enqueue_kernel(
                "axpy",
                NdRange::d1(8, 8).unwrap(),
                &[
                    KernelArg::Buffer(x),
                    KernelArg::Buffer(y),
                    KernelArg::F32(1.0),
                ],
            )
            .unwrap();
        }
        let log = rt.kernel_times();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|(name, t)| name == "axpy" && !t.is_zero()));
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let mut rt = SingleDeviceRuntime::new(
            MachineConfig::paper_testbed(),
            DeviceKind::Cpu,
            test_program(),
        );
        assert!(rt
            .enqueue_kernel("nope", NdRange::d1(8, 8).unwrap(), &[])
            .is_err());
    }

    #[test]
    fn gpu_pays_buffer_creation() {
        let mut gpu = SingleDeviceRuntime::new(
            MachineConfig::paper_testbed(),
            DeviceKind::Gpu,
            test_program(),
        );
        let mut cpu = SingleDeviceRuntime::new(
            MachineConfig::paper_testbed(),
            DeviceKind::Cpu,
            test_program(),
        );
        gpu.create_buffer(1 << 20);
        cpu.create_buffer(1 << 20);
        assert!(gpu.elapsed() > cpu.elapsed());
    }
}
