//! SOCL: a StarPU-style task scheduler behind the OpenCL API (paper §9.4).
//!
//! SOCL eliminates StarPU's task API by mapping each enqueued kernel to one
//! StarPU task and scheduling it on a device. The paper compares FluidiCL
//! against two of its schedulers:
//!
//! * **eager** (StarPU's default): greedy first-idle-worker assignment with
//!   no performance model and no transfer awareness;
//! * **dmda** (deque model data aware): picks the device minimising the
//!   expected completion time — calibrated execution estimate plus the data
//!   transfers the placement would require. dmda needs a *calibration*
//!   phase (the paper runs ≥10 differently-sized runs per application);
//!   without it StarPU falls back to eager behaviour.
//!
//! The crucial structural difference from FluidiCL: a task (kernel) is
//! indivisible, so SOCL can never split one kernel across both devices.

use std::collections::HashMap;

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::MachineConfig;
use fluidicl_vcl::exec::{execute_all, Launch};
use fluidicl_vcl::{BufferId, ClDriver, ClResult, DeviceKind, KernelArg, Memory, NdRange, Program};

/// Scheduling policy of the SOCL runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoclScheduler {
    /// StarPU's default greedy scheduler ("SOCLDefault" in Figure 16).
    Eager,
    /// The deque-model data-aware scheduler ("SOCLdmda"); behaves like
    /// eager until [`SoclRuntime::calibrate`] has recorded a performance
    /// model for the kernels it sees.
    Dmda,
}

/// A SOCL/StarPU-style whole-kernel task scheduler over the simulated
/// machine.
///
/// # Examples
///
/// ```
/// use fluidicl_baselines::{SoclRuntime, SoclScheduler};
/// use fluidicl_hetsim::MachineConfig;
/// use fluidicl_vcl::Program;
///
/// let rt = SoclRuntime::new(
///     MachineConfig::paper_testbed(),
///     Program::new(),
///     SoclScheduler::Eager,
/// );
/// assert!(rt.task_log().is_empty());
/// ```
#[derive(Debug)]
pub struct SoclRuntime {
    machine: MachineConfig,
    program: Program,
    scheduler: SoclScheduler,
    calibration: HashMap<(String, u64), (SimDuration, SimDuration)>,
    cpu_mem: Memory,
    gpu_mem: Memory,
    buffer_lens: Vec<usize>,
    valid_cpu: Vec<bool>,
    valid_gpu: Vec<bool>,
    host_clock: SimTime,
    cpu_free: SimTime,
    gpu_free: SimTime,
    /// When the GPU's buffer allocations issued so far are done.
    gpu_alloc_at: SimTime,
    round_robin: usize,
    kernel_log: Vec<(String, SimDuration)>,
    task_log: Vec<(String, DeviceKind)>,
    geometry_log: Vec<(String, NdRange)>,
}

impl SoclRuntime {
    /// Creates a SOCL runtime with the given scheduler.
    pub fn new(machine: MachineConfig, program: Program, scheduler: SoclScheduler) -> Self {
        SoclRuntime {
            machine,
            program,
            scheduler,
            calibration: HashMap::new(),
            cpu_mem: Memory::new(),
            gpu_mem: Memory::new(),
            buffer_lens: Vec::new(),
            valid_cpu: Vec::new(),
            valid_gpu: Vec::new(),
            host_clock: SimTime::ZERO,
            cpu_free: SimTime::ZERO,
            gpu_free: SimTime::ZERO,
            gpu_alloc_at: SimTime::ZERO,
            round_robin: 0,
            kernel_log: Vec::new(),
            task_log: Vec::new(),
            geometry_log: Vec::new(),
        }
    }

    /// Records a performance model for `kernel` at the geometry `ndrange` —
    /// the outcome of StarPU's calibration runs. dmda only makes informed
    /// decisions for calibrated (kernel, size) pairs.
    ///
    /// # Errors
    ///
    /// Fails if the kernel is unknown.
    pub fn calibrate(&mut self, kernel: &str, ndrange: NdRange) -> ClResult<()> {
        let def = self.program.kernel(kernel)?;
        let profile = &def.default_version().profile;
        let items = ndrange.items_per_group();
        let total = ndrange.num_groups();
        let cpu = self
            .machine
            .cpu
            .subkernel_time(profile, items, total, false);
        let gpu = self.machine.gpu.launch_time(profile, items, total);
        self.calibration
            .insert((kernel.to_string(), total), (cpu, gpu));
        Ok(())
    }

    /// Which device ran each task, in order (for analysis/tests).
    pub fn task_log(&self) -> &[(String, DeviceKind)] {
        &self.task_log
    }

    /// Every (kernel, NDRange) pair the application launched, in order —
    /// what a calibration harness replays through [`SoclRuntime::calibrate`]
    /// before the measured run (the paper calibrates dmda with at least ten
    /// prior runs, §9.4).
    pub fn geometry_log(&self) -> &[(String, NdRange)] {
        &self.geometry_log
    }

    /// Whether a (kernel, work-group count) pair has a calibrated model.
    fn is_calibrated(&self, kernel: &str, ndrange: NdRange) -> bool {
        self.calibration
            .contains_key(&(kernel.to_string(), ndrange.num_groups()))
    }

    fn input_transfer_cost(&self, device: DeviceKind, inputs: &[BufferId]) -> SimDuration {
        let mut t = SimDuration::ZERO;
        for id in inputs {
            let idx = id.0 as usize;
            let bytes = self.buffer_lens[idx] as u64 * 4;
            match device {
                DeviceKind::Cpu if !self.valid_cpu[idx] => {
                    t += self.machine.d2h.transfer_time(bytes);
                }
                DeviceKind::Gpu if !self.valid_gpu[idx] => {
                    t += self.machine.h2d.transfer_time(bytes);
                }
                _ => {}
            }
        }
        t
    }

    fn materialize_inputs(&mut self, device: DeviceKind, inputs: &[BufferId]) -> ClResult<()> {
        for id in inputs {
            let idx = id.0 as usize;
            match device {
                DeviceKind::Cpu if !self.valid_cpu[idx] => {
                    self.cpu_mem.share_from(&self.gpu_mem, *id)?;
                    self.valid_cpu[idx] = true;
                }
                DeviceKind::Gpu if !self.valid_gpu[idx] => {
                    self.gpu_mem.share_from(&self.cpu_mem, *id)?;
                    self.valid_gpu[idx] = true;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl ClDriver for SoclRuntime {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.buffer_lens.len() as u64);
        self.buffer_lens.push(len);
        self.valid_cpu.push(true);
        self.valid_gpu.push(true);
        self.cpu_mem.alloc(id, len);
        self.gpu_mem
            .share_from(&self.cpu_mem, id)
            .expect("allocated just above");
        self.gpu_alloc_at =
            self.machine
                .gpu
                .allocate(len as u64 * 4, self.host_clock, self.gpu_alloc_at);
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.write_buffer_owned(id, data.to_vec())
    }

    fn write_buffer_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        let bytes = data.len() as u64 * 4;
        self.cpu_mem.replace(id, data)?;
        self.gpu_mem.share_from(&self.cpu_mem, id)?;
        let idx = id.0 as usize;
        self.valid_cpu[idx] = true;
        self.valid_gpu[idx] = true;
        // The h2d copy cannot start before the GPU allocated the buffer.
        let copy_done = self.host_clock + self.machine.host.copy_time(bytes);
        let h2d_done =
            self.host_clock.max(self.gpu_alloc_at) + self.machine.h2d.transfer_time(bytes);
        self.host_clock = copy_done.max(h2d_done);
        Ok(())
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let def = self.program.kernel(kernel)?;
        let profile = def.default_version().profile.clone();
        let launch = Launch::new(def, ndrange, args.to_vec());
        let in_ids = launch.input_buffers()?;
        let out_ids = launch.output_buffers()?;
        // Task inputs are everything the kernel reads: In plus InOut.
        let mut task_inputs = in_ids;
        task_inputs.extend(out_ids.iter().copied());
        let items = ndrange.items_per_group();
        let total = ndrange.num_groups();

        let exec_cpu = self
            .machine
            .cpu
            .subkernel_time(&profile, items, total, false);
        let exec_gpu = self.machine.gpu.launch_time(&profile, items, total);

        let start = self.host_clock;
        let est = |device: DeviceKind, free: SimTime, exec: SimDuration| {
            start.max(free) + self.input_transfer_cost(device, &task_inputs) + exec
        };
        let cpu_completion = est(DeviceKind::Cpu, self.cpu_free, exec_cpu);
        let gpu_completion = est(
            DeviceKind::Gpu,
            self.gpu_free.max(self.gpu_alloc_at),
            exec_gpu,
        );

        let informed = self.scheduler == SoclScheduler::Dmda && self.is_calibrated(kernel, ndrange);
        let device = if informed {
            // dmda: minimise expected completion including transfers.
            if cpu_completion <= gpu_completion {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            }
        } else {
            // eager (and uncalibrated dmda): the first idle worker grabs the
            // task; with a blocking host both workers are idle, so the
            // assignment degenerates to alternation.
            let free = [
                (DeviceKind::Cpu, self.cpu_free),
                (DeviceKind::Gpu, self.gpu_free),
            ];
            let min_free = free.iter().map(|(_, f)| *f).min().expect("two devices");
            let idle: Vec<DeviceKind> = free
                .iter()
                .filter(|(_, f)| *f == min_free)
                .map(|(d, _)| *d)
                .collect();
            let pick = idle[self.round_robin % idle.len()];
            self.round_robin += 1;
            pick
        };

        self.materialize_inputs(device, &task_inputs)?;
        let done = match device {
            DeviceKind::Cpu => {
                execute_all(&launch, &mut self.cpu_mem)?;
                let t = cpu_completion;
                self.cpu_free = t;
                for id in &out_ids {
                    let idx = id.0 as usize;
                    self.valid_cpu[idx] = true;
                    self.valid_gpu[idx] = false;
                }
                t
            }
            DeviceKind::Gpu => {
                execute_all(&launch, &mut self.gpu_mem)?;
                let t = gpu_completion;
                self.gpu_free = t;
                for id in &out_ids {
                    let idx = id.0 as usize;
                    self.valid_gpu[idx] = true;
                    self.valid_cpu[idx] = false;
                }
                t
            }
        };
        self.host_clock = done;
        self.kernel_log
            .push((kernel.to_string(), done.saturating_since(start)));
        self.task_log.push((kernel.to_string(), device));
        self.geometry_log.push((kernel.to_string(), ndrange));
        Ok(())
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        let idx = id.0 as usize;
        if !self.valid_cpu[idx] {
            self.cpu_mem.share_from(&self.gpu_mem, id)?;
            self.valid_cpu[idx] = true;
            self.host_clock += self.machine.d2h.transfer_time(self.cpu_mem.bytes_of(id)?);
        }
        let data = self.cpu_mem.get(id)?.to_vec();
        self.host_clock += self.machine.host.copy_time(data.len() as u64 * 4);
        Ok(data)
    }

    fn elapsed(&self) -> SimDuration {
        self.host_clock.saturating_since(SimTime::ZERO)
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.kernel_log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::KernelProfile;
    use fluidicl_vcl::{ArgRole, ArgSpec, KernelDef};

    fn two_kernel_program() -> Program {
        let mut p = Program::new();
        // gpu_friendly: high arithmetic intensity, perfectly regular.
        p.register(KernelDef::new(
            "gpu_friendly",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
            ],
            KernelProfile::new("gpu_friendly")
                .flops_per_item(4096.0)
                .bytes_read_per_item(4.0)
                .bytes_written_per_item(4.0),
            |item, _, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = ins.get(0)[i] + 1.0;
            },
        ));
        // cpu_friendly: scattered on the GPU, cache-friendly on the CPU.
        p.register(KernelDef::new(
            "cpu_friendly",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
            ],
            KernelProfile::new("cpu_friendly")
                .flops_per_item(16.0)
                .bytes_read_per_item(256.0)
                .bytes_written_per_item(4.0)
                .gpu_coalescing(0.0)
                .gpu_divergence(0.8)
                .cpu_cache_locality(0.9),
            |item, _, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = ins.get(0)[i] * 2.0;
            },
        ));
        p
    }

    fn drive(rt: &mut SoclRuntime) -> Vec<f32> {
        let n = 1024;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        let c = rt.create_buffer(n);
        rt.write_buffer(a, &vec![1.0; n]).unwrap();
        let nd = NdRange::d1(n, 32).unwrap();
        rt.enqueue_kernel(
            "gpu_friendly",
            nd,
            &[KernelArg::Buffer(a), KernelArg::Buffer(b)],
        )
        .unwrap();
        rt.enqueue_kernel(
            "cpu_friendly",
            nd,
            &[KernelArg::Buffer(b), KernelArg::Buffer(c)],
        )
        .unwrap();
        rt.read_buffer(c).unwrap()
    }

    #[test]
    fn eager_alternates_devices() {
        let mut rt = SoclRuntime::new(
            MachineConfig::paper_testbed(),
            two_kernel_program(),
            SoclScheduler::Eager,
        );
        let out = drive(&mut rt);
        assert_eq!(out, vec![4.0; 1024]);
        let devices: Vec<_> = rt.task_log().iter().map(|(_, d)| *d).collect();
        assert_eq!(devices, vec![DeviceKind::Cpu, DeviceKind::Gpu]);
    }

    #[test]
    fn calibrated_dmda_picks_the_right_device_per_kernel() {
        let mut rt = SoclRuntime::new(
            MachineConfig::paper_testbed(),
            two_kernel_program(),
            SoclScheduler::Dmda,
        );
        let nd = NdRange::d1(1024, 32).unwrap();
        rt.calibrate("gpu_friendly", nd).unwrap();
        rt.calibrate("cpu_friendly", nd).unwrap();
        let out = drive(&mut rt);
        assert_eq!(out, vec![4.0; 1024]);
        let map: std::collections::HashMap<&str, DeviceKind> = rt
            .task_log()
            .iter()
            .map(|(k, d)| (k.as_str(), *d))
            .collect();
        assert_eq!(map["gpu_friendly"], DeviceKind::Gpu);
        assert_eq!(map["cpu_friendly"], DeviceKind::Cpu);
    }

    #[test]
    fn uncalibrated_dmda_degenerates_to_eager() {
        let mk = |sched| {
            let mut rt =
                SoclRuntime::new(MachineConfig::paper_testbed(), two_kernel_program(), sched);
            drive(&mut rt);
            rt.task_log().to_vec()
        };
        assert_eq!(mk(SoclScheduler::Dmda), mk(SoclScheduler::Eager));
    }

    #[test]
    fn dmda_accounts_for_transfer_locality() {
        // After a GPU task produces `b`, a follow-up kernel reading `b`
        // sees an extra d2h cost in its CPU estimate.
        let mut rt = SoclRuntime::new(
            MachineConfig::paper_testbed(),
            two_kernel_program(),
            SoclScheduler::Dmda,
        );
        let n = 1024;
        let a = rt.create_buffer(n);
        let b = rt.create_buffer(n);
        rt.write_buffer(a, &vec![0.0; n]).unwrap();
        let nd = NdRange::d1(n, 32).unwrap();
        rt.calibrate("gpu_friendly", nd).unwrap();
        rt.enqueue_kernel(
            "gpu_friendly",
            nd,
            &[KernelArg::Buffer(a), KernelArg::Buffer(b)],
        )
        .unwrap();
        assert!(rt.input_transfer_cost(DeviceKind::Cpu, &[b]) > SimDuration::ZERO);
        assert_eq!(
            rt.input_transfer_cost(DeviceKind::Gpu, &[b]),
            SimDuration::ZERO
        );
    }

    #[test]
    fn results_are_correct_under_every_scheduler() {
        for sched in [SoclScheduler::Eager, SoclScheduler::Dmda] {
            let mut rt =
                SoclRuntime::new(MachineConfig::paper_testbed(), two_kernel_program(), sched);
            assert_eq!(drive(&mut rt), vec![4.0; 1024]);
        }
    }
}
