//! Static work partitioning: a fixed x% CPU / (100−x)% GPU split of every
//! kernel, applied by hand as a programmer would (paper §3, Figures 2–3,
//! and the OracleSP bars of Figure 13).
//!
//! The split point is chosen once for the whole application; the same
//! flattened-ID partitioning, CPU→GPU result transfer and diff-merge as
//! FluidiCL are applied, but there is no adaptation, no subkernel pipeline
//! and no status protocol — both devices get their share up front and the
//! kernel finishes when the slower side (plus coherence) does.

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::MachineConfig;
use fluidicl_vcl::exec::{execute_groups, Launch};
use fluidicl_vcl::{diff_merge, BufferId, ClDriver, ClResult, KernelArg, Memory, NdRange, Program};

/// A runtime executing every kernel under a fixed CPU/GPU split.
///
/// `cpu_fraction = 0.0` is the pure-GPU baseline, `1.0` pure CPU; interior
/// values split at work-group granularity with the CPU taking the top
/// flattened IDs (as in FluidiCL).
///
/// # Examples
///
/// ```
/// use fluidicl_baselines::StaticPartitionRuntime;
/// use fluidicl_hetsim::MachineConfig;
/// use fluidicl_vcl::Program;
///
/// let rt = StaticPartitionRuntime::new(
///     MachineConfig::paper_testbed(),
///     Program::new(),
///     0.4,
/// );
/// assert_eq!(rt.cpu_fraction(), 0.4);
/// ```
#[derive(Debug)]
pub struct StaticPartitionRuntime {
    machine: MachineConfig,
    program: Program,
    cpu_fraction: f64,
    cpu_mem: Memory,
    gpu_mem: Memory,
    buffer_lens: Vec<usize>,
    host_clock: SimTime,
    gpu_free: SimTime,
    /// When the GPU's buffer allocations issued so far are done.
    gpu_alloc_at: SimTime,
    scratch_created: bool,
    kernel_log: Vec<(String, SimDuration)>,
}

impl StaticPartitionRuntime {
    /// Creates a runtime with the given CPU share of every kernel.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_fraction` is outside `[0, 1]`.
    pub fn new(machine: MachineConfig, program: Program, cpu_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cpu_fraction),
            "cpu fraction must be in [0, 1]"
        );
        StaticPartitionRuntime {
            machine,
            program,
            cpu_fraction,
            cpu_mem: Memory::new(),
            gpu_mem: Memory::new(),
            buffer_lens: Vec::new(),
            host_clock: SimTime::ZERO,
            gpu_free: SimTime::ZERO,
            gpu_alloc_at: SimTime::ZERO,
            scratch_created: false,
            kernel_log: Vec::new(),
        }
    }

    /// The configured CPU share.
    pub fn cpu_fraction(&self) -> f64 {
        self.cpu_fraction
    }

    fn uses_gpu(&self) -> bool {
        self.cpu_fraction < 1.0
    }

    fn splits_work(&self) -> bool {
        self.cpu_fraction > 0.0 && self.cpu_fraction < 1.0
    }
}

impl ClDriver for StaticPartitionRuntime {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.buffer_lens.len() as u64);
        self.buffer_lens.push(len);
        self.cpu_mem.alloc(id, len);
        self.gpu_mem
            .share_from(&self.cpu_mem, id)
            .expect("allocated just above");
        if self.uses_gpu() {
            self.gpu_alloc_at =
                self.machine
                    .gpu
                    .allocate(len as u64 * 4, self.host_clock, self.gpu_alloc_at);
        }
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.write_buffer_owned(id, data.to_vec())
    }

    fn write_buffer_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        let bytes = data.len() as u64 * 4;
        self.cpu_mem.replace(id, data)?;
        self.gpu_mem.share_from(&self.cpu_mem, id)?;
        // Pure-GPU and pure-CPU configurations pay exactly their vendor
        // runtime's transfer; an interior split writes to both devices. The
        // h2d copy cannot start before the GPU allocated the buffer.
        let copy_done = self.host_clock + self.machine.host.copy_time(bytes);
        let h2d_done =
            self.host_clock.max(self.gpu_alloc_at) + self.machine.h2d.transfer_time(bytes);
        self.host_clock = if !self.uses_gpu() {
            copy_done
        } else if self.cpu_fraction == 0.0 {
            h2d_done
        } else {
            copy_done.max(h2d_done)
        };
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
        let out_ids = launch.output_buffers()?;
        let total = ndrange.num_groups();
        let items = ndrange.items_per_group();
        let cpu_wgs = ((total as f64 * self.cpu_fraction).round() as u64).min(total);
        let split = total - cpu_wgs; // GPU executes [0, split), CPU [split, total)

        let out_bytes: u64 = out_ids
            .iter()
            .map(|id| self.buffer_lens[id.0 as usize] as u64 * 4)
            .sum();

        // One-time creation of merge scratch buffers when actually
        // splitting (the programmer's manual data-management code).
        let mut setup = SimDuration::ZERO;
        if self.splits_work() && !self.scratch_created {
            for id in &out_ids {
                let bytes = self.buffer_lens[id.0 as usize] as u64 * 4;
                setup += self.machine.gpu.buffer_create_time(bytes) * 2;
            }
            self.scratch_created = true;
        }

        // Snapshot originals for the merge before either side writes (a
        // share: the GPU's first write copies its buffer).
        let mut origs = Memory::new();
        if self.splits_work() {
            for id in &out_ids {
                origs.share_from(&self.gpu_mem, *id)?;
            }
        }

        let start = self.host_clock;
        // GPU side.
        let gpu_done = if split > 0 {
            let t = start.max(self.gpu_free).max(self.gpu_alloc_at)
                + setup
                + self.machine.gpu.launch_time(&profile, items, split);
            execute_groups(&launch, &mut self.gpu_mem, 0, split)?;
            t
        } else {
            start
        };
        // CPU side plus its result transfer to the GPU.
        let cpu_arrival = if cpu_wgs > 0 {
            let exec = start
                + self
                    .machine
                    .cpu
                    .subkernel_time(&profile, items, cpu_wgs, false);
            execute_groups(&launch, &mut self.cpu_mem, split, total)?;
            if self.splits_work() {
                exec + self.machine.h2d.transfer_time(out_bytes)
            } else {
                exec
            }
        } else {
            start
        };

        let done = if self.splits_work() {
            // Merge on the GPU once both contributions are present, then
            // return the merged result to the host.
            let merge_done = gpu_done.max(cpu_arrival) + self.machine.gpu.merge_time(out_bytes);
            for id in &out_ids {
                diff_merge(
                    self.gpu_mem.get_mut(*id)?,
                    self.cpu_mem.get(*id)?,
                    origs.get(*id)?,
                );
            }
            for id in &out_ids {
                self.cpu_mem.share_from(&self.gpu_mem, *id)?;
            }
            merge_done + self.machine.d2h.transfer_time(out_bytes)
        } else if split > 0 {
            // Pure GPU: results stay on the device until read, but keep the
            // CPU copy coherent for subsequent kernels that may read it.
            for id in &out_ids {
                self.cpu_mem.share_from(&self.gpu_mem, *id)?;
            }
            gpu_done + self.machine.d2h.transfer_time(out_bytes)
        } else {
            // Pure CPU: results live in host memory already, but the GPU
            // copy must be refreshed for any later mixed work.
            for id in &out_ids {
                self.gpu_mem.share_from(&self.cpu_mem, *id)?;
            }
            cpu_arrival
        };
        if split > 0 {
            self.gpu_free = done;
        }
        self.kernel_log
            .push((kernel.to_string(), done.saturating_since(start)));
        self.host_clock = done;
        Ok(())
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
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

    fn scale_program() -> Program {
        let mut p = Program::new();
        p.register(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
                ArgSpec::new("f", ArgRole::Scalar),
            ],
            KernelProfile::new("scale")
                .flops_per_item(8.0)
                .bytes_read_per_item(4.0)
                .bytes_written_per_item(4.0),
            |item, scalars, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = scalars.f32(0) * ins.get(0)[i];
            },
        ));
        p
    }

    fn run_with(fraction: f64) -> (Vec<f32>, SimDuration) {
        let mut rt =
            StaticPartitionRuntime::new(MachineConfig::paper_testbed(), scale_program(), fraction);
        let n = 4096;
        let src = rt.create_buffer(n);
        let dst = rt.create_buffer(n);
        let input: Vec<f32> = (0..n).map(|i| i as f32 + 1.0).collect();
        rt.write_buffer(src, &input).unwrap();
        rt.enqueue_kernel(
            "scale",
            NdRange::d1(n, 64).unwrap(),
            &[
                KernelArg::Buffer(src),
                KernelArg::Buffer(dst),
                KernelArg::F32(2.0),
            ],
        )
        .unwrap();
        (rt.read_buffer(dst).unwrap(), rt.elapsed())
    }

    #[test]
    fn every_split_computes_the_same_result() {
        let (reference, _) = run_with(0.0);
        for f in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let (got, _) = run_with(f);
            assert_eq!(got, reference, "split {f}");
        }
    }

    #[test]
    fn interior_splits_pay_coherence_costs() {
        let (_, t0) = run_with(0.0);
        let (_, t50) = run_with(0.5);
        // The tiny kernel cannot amortise merge + transfer.
        assert!(t50 > t0);
    }

    #[test]
    #[should_panic(expected = "cpu fraction")]
    fn rejects_out_of_range_fraction() {
        let _ = StaticPartitionRuntime::new(MachineConfig::paper_testbed(), Program::new(), 1.5);
    }

    #[test]
    fn pure_cpu_avoids_gpu_costs() {
        let (_, t_cpu) = run_with(1.0);
        let (_, t_gpu) = run_with(0.0);
        // Both valid; just ensure they differ and are positive.
        assert!(!t_cpu.is_zero() && !t_gpu.is_zero());
        assert_ne!(t_cpu, t_gpu);
    }
}
