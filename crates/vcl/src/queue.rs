//! In-order command queues and events.
//!
//! OpenCL's execution model (paper §2) revolves around *command queues*:
//! data transfers and kernel launches are enqueued and executed in order,
//! each producing an event marking its completion. FluidiCL's design leans
//! on this ordering — its hd queue sends computed data *then* the status
//! message, so a status can never arrive before the results it announces
//! (paper §4.2, §5.4).
//!
//! [`CommandQueue`] owns one device's address space and timeline: every
//! enqueue executes functionally right away and advances the queue's
//! virtual tail by the command's modeled duration, returning an [`Event`]
//! with the completion instant. Cross-queue dependencies are expressed with
//! [`CommandQueue::wait_for`].

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::{AbortMode, MachineConfig};

use crate::exec::{execute_all, Launch};
use crate::fault::{FaultInjector, TransferFate};
use crate::{BufferId, ClError, ClResult, DeviceKind, Memory};

/// Completion marker of one enqueued command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Event {
    id: u64,
    complete_at: SimTime,
}

impl Event {
    /// Virtual instant at which the command completes.
    pub fn complete_at(&self) -> SimTime {
        self.complete_at
    }

    /// Queue-local sequence number (monotone per queue).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// An in-order command queue bound to one device.
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::MachineConfig;
/// use fluidicl_vcl::{CommandQueue, DeviceKind};
///
/// let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
/// let buf = q.create_buffer(1024);
/// let e1 = q.enqueue_write(buf, &vec![1.0; 1024]).unwrap();
/// let (data, e2) = q.enqueue_read(buf).unwrap();
/// assert_eq!(data[0], 1.0);
/// assert!(e2.complete_at() > e1.complete_at(), "in-order execution");
/// ```
#[derive(Debug)]
pub struct CommandQueue {
    machine: MachineConfig,
    device: DeviceKind,
    memory: Memory,
    tail: SimTime,
    next_buffer: u64,
    next_event: u64,
    commands: u64,
    injector: Option<FaultInjector>,
}

impl CommandQueue {
    /// Creates a queue for `device` on `machine`, with an empty address
    /// space and its clock at zero.
    pub fn new(machine: MachineConfig, device: DeviceKind) -> Self {
        CommandQueue {
            machine,
            device,
            memory: Memory::new(),
            tail: SimTime::ZERO,
            next_buffer: 0,
            next_event: 0,
            commands: 0,
            injector: None,
        }
    }

    /// Attaches a fault injector: subsequent commands consult it and surface
    /// injected device loss and stalls as typed errors. A single-device
    /// queue has no cooperating peer, so transient failures are retried in
    /// place (at zero modeled cost) and corrupt deliveries are re-read from
    /// host memory — only unrecoverable faults reach the caller.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Kill/health check at the kernel-launch points: a launch on a lost
    /// device fails with [`ClError::DeviceLost`].
    fn check_device(&mut self) -> ClResult<()> {
        let device = self.device;
        if let Some(inj) = self.injector.as_mut() {
            let dead = match device {
                DeviceKind::Gpu => inj.kill_gpu_wave(),
                DeviceKind::Cpu => inj.kill_subkernel(0),
            };
            if dead {
                return Err(ClError::DeviceLost {
                    device,
                    detail: "kernel launch on a lost device".into(),
                });
            }
        }
        Ok(())
    }

    /// Fault check at the transfer points: stalls surface as
    /// [`ClError::Timeout`], a lost device as [`ClError::DeviceLost`];
    /// transient and corrupt fates are consumed and recovered in place.
    fn check_transfer(&mut self, op: &str) -> ClResult<()> {
        let device = self.device;
        if let Some(inj) = self.injector.as_mut() {
            if inj.device_lost(device) {
                return Err(ClError::DeviceLost {
                    device,
                    detail: format!("{op} on a lost device"),
                });
            }
            let mut attempt = 1;
            loop {
                match inj.transfer_fate(attempt) {
                    TransferFate::Stall => {
                        return Err(ClError::Timeout {
                            op: op.into(),
                            detail: "transfer stalled past its watchdog deadline".into(),
                        })
                    }
                    TransferFate::TransientFail
                    | TransferFate::CorruptPayload
                    | TransferFate::CorruptStatus => {
                        // Retry/re-read; the injector bounds consecutive
                        // failures, so this terminates.
                        attempt += 1;
                    }
                    TransferFate::Deliver => return Ok(()),
                }
            }
        }
        Ok(())
    }

    /// The device this queue feeds.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Current queue tail: the instant the last enqueued command completes.
    pub fn tail(&self) -> SimTime {
        self.tail
    }

    /// Number of commands enqueued so far.
    pub fn command_count(&self) -> u64 {
        self.commands
    }

    /// Direct access to the device's address space (for setup and
    /// inspection; timing-free).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Read access to the device's address space.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Allocates a buffer of `len` elements, charging the device's
    /// allocation cost on the queue timeline (GPU only; CPU-device buffers
    /// are host memory).
    pub fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.next_buffer);
        self.next_buffer += 1;
        self.memory.alloc(id, len);
        if self.device == DeviceKind::Gpu {
            let d = self.machine.gpu.buffer_create_time(len as u64 * 4);
            self.push(d);
        }
        id
    }

    /// Blocks this queue until `other` has completed: subsequent commands
    /// start no earlier (an event-wait across queues).
    pub fn wait_for(&mut self, other: Event) {
        self.tail = self.tail.max(other.complete_at());
    }

    fn push(&mut self, duration: SimDuration) -> Event {
        self.tail += duration;
        self.commands += 1;
        let ev = Event {
            id: self.next_event,
            complete_at: self.tail,
        };
        self.next_event += 1;
        ev
    }

    fn transfer_in_time(&self, bytes: u64) -> SimDuration {
        match self.device {
            DeviceKind::Gpu => self.machine.h2d.transfer_time(bytes),
            DeviceKind::Cpu => self.machine.host.copy_time(bytes),
        }
    }

    fn transfer_out_time(&self, bytes: u64) -> SimDuration {
        match self.device {
            DeviceKind::Gpu => self.machine.d2h.transfer_time(bytes),
            DeviceKind::Cpu => self.machine.host.copy_time(bytes),
        }
    }

    /// Enqueues a host→device write (`clEnqueueWriteBuffer`).
    ///
    /// # Errors
    ///
    /// Fails if the buffer is unknown or the size differs.
    pub fn enqueue_write(&mut self, id: BufferId, data: &[f32]) -> ClResult<Event> {
        self.enqueue_write_owned(id, data.to_vec())
    }

    /// Enqueues a host→device write of data the caller hands over: the
    /// queue's address space takes `data`'s allocation instead of copying
    /// it. The modelled cost is exactly [`enqueue_write`](Self::enqueue_write)'s.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is unknown or the size differs.
    pub fn enqueue_write_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<Event> {
        self.check_transfer("enqueue_write")?;
        let bytes = data.len() as u64 * 4;
        self.memory.replace(id, data)?;
        let d = self.transfer_in_time(bytes);
        Ok(self.push(d))
    }

    /// Enqueues several host→device writes as **one** queue command — the
    /// coalesced-send primitive behind the pipelined protocol's batched
    /// result shipping. The payloads land atomically from the queue's point
    /// of view: a waiter on the returned event observes either none or all
    /// of them, and the queue charges a single in-order slot for the whole
    /// batch instead of one per buffer.
    ///
    /// # Errors
    ///
    /// Fails if any buffer is unknown or any size differs; no payload is
    /// written unless all of them validate.
    pub fn enqueue_write_batch(&mut self, writes: &[(BufferId, &[f32])]) -> ClResult<Event> {
        self.check_transfer("enqueue_write_batch")?;
        // Validate the whole batch before writing anything, so a bad entry
        // cannot leave the batch half-applied.
        for (id, data) in writes {
            let dst = self.memory.get(*id)?;
            if dst.len() != data.len() {
                return Err(ClError::SizeMismatch {
                    expected: dst.len(),
                    got: data.len(),
                });
            }
        }
        let mut bytes = 0u64;
        for (id, data) in writes {
            self.memory.write(*id, data)?;
            bytes += data.len() as u64 * 4;
        }
        let d = self.transfer_in_time(bytes);
        Ok(self.push(d))
    }

    /// Enqueues a device→host read (`clEnqueueReadBuffer`), returning the
    /// data and its completion event.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is unknown.
    pub fn enqueue_read(&mut self, id: BufferId) -> ClResult<(Vec<f32>, Event)> {
        self.check_transfer("enqueue_read")?;
        let data = self.memory.get(id)?.to_vec();
        let d = self.transfer_out_time(data.len() as u64 * 4);
        let ev = self.push(d);
        Ok((data, ev))
    }

    /// Enqueues a device-side buffer copy (`clEnqueueCopyBuffer`).
    ///
    /// # Errors
    ///
    /// Fails if either buffer is unknown or sizes differ.
    pub fn enqueue_copy(&mut self, src: BufferId, dst: BufferId) -> ClResult<Event> {
        self.check_transfer("enqueue_copy")?;
        let data = self.memory.get(src)?.to_vec();
        self.memory.write(dst, &data)?;
        let bytes = data.len() as u64 * 4;
        let d = match self.device {
            // Read + write on the device's memory bus.
            DeviceKind::Gpu => SimDuration::from_nanos(
                (2.0 * bytes as f64 / self.machine.gpu.peak_mem_bytes_per_ns()) as u64,
            ),
            DeviceKind::Cpu => self.machine.host.copy_time(bytes * 2),
        };
        Ok(self.push(d))
    }

    /// Enqueues a kernel over its full NDRange
    /// (`clEnqueueNDRangeKernel`), executing it functionally against this
    /// queue's memory and charging the device model's duration.
    ///
    /// # Errors
    ///
    /// Fails on signature mismatches or missing buffers.
    pub fn enqueue_ndrange(&mut self, launch: &Launch) -> ClResult<Event> {
        self.check_device()?;
        execute_all(launch, &mut self.memory)?;
        let version = launch
            .kernel
            .versions()
            .get(launch.version)
            .unwrap_or_else(|| launch.kernel.default_version());
        let profile = &version.profile;
        let items = launch.ndrange.items_per_group();
        let groups = launch.ndrange.num_groups();
        let d = match self.device {
            DeviceKind::Gpu => {
                self.machine.gpu.launch_overhead()
                    + self
                        .machine
                        .gpu
                        .range_time(profile, items, groups, AbortMode::None)
            }
            DeviceKind::Cpu => self
                .machine
                .cpu
                .subkernel_time(profile, items, groups, false),
        };
        Ok(self.push(d))
    }

    /// Enqueues a zero-duration marker (`clEnqueueMarker`).
    pub fn enqueue_marker(&mut self) -> Event {
        self.push(SimDuration::ZERO)
    }

    /// Blocks until every enqueued command has completed, returning that
    /// instant (`clFinish`).
    pub fn finish(&mut self) -> SimTime {
        self.tail
    }
}

/// The top of the OpenCL object hierarchy (paper Figure 1): a machine
/// exposes its devices, and queues are created per device.
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::MachineConfig;
/// use fluidicl_vcl::{DeviceKind, Platform};
///
/// let platform = Platform::new(MachineConfig::paper_testbed());
/// assert_eq!(platform.devices(), vec![DeviceKind::Cpu, DeviceKind::Gpu]);
/// let mut q = platform.create_queue(DeviceKind::Cpu);
/// assert_eq!(q.device(), DeviceKind::Cpu);
/// let _ = q.enqueue_marker();
/// ```
#[derive(Clone, Debug)]
pub struct Platform {
    machine: MachineConfig,
}

impl Platform {
    /// Creates a platform over a machine configuration.
    pub fn new(machine: MachineConfig) -> Self {
        Platform { machine }
    }

    /// The devices this platform exposes.
    pub fn devices(&self) -> Vec<DeviceKind> {
        vec![DeviceKind::Cpu, DeviceKind::Gpu]
    }

    /// The machine configuration backing the platform.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Creates an in-order command queue for `device`
    /// (`clCreateCommandQueue`).
    pub fn create_queue(&self, device: DeviceKind) -> CommandQueue {
        CommandQueue::new(self.machine.clone(), device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgRole, ArgSpec, KernelDef};
    use crate::KernelArg;
    use fluidicl_hetsim::KernelProfile;
    use std::sync::Arc;

    fn scale_launch(src: BufferId, dst: BufferId, n: usize) -> Launch {
        let kernel = Arc::new(KernelDef::new(
            "scale",
            vec![
                ArgSpec::new("src", ArgRole::In),
                ArgSpec::new("dst", ArgRole::Out),
            ],
            KernelProfile::new("scale")
                .flops_per_item(1.0)
                .bytes_read_per_item(4.0)
                .bytes_written_per_item(4.0),
            |item, _, ins, outs| {
                let i = item.global_linear();
                outs.at(0)[i] = 2.0 * ins.get(0)[i];
            },
        ));
        Launch::new(
            kernel,
            crate::NdRange::d1(n, 16).expect("valid range"),
            vec![KernelArg::Buffer(src), KernelArg::Buffer(dst)],
        )
    }

    #[test]
    fn commands_execute_in_order() {
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
        let src = q.create_buffer(64);
        let dst = q.create_buffer(64);
        let e_alloc = q.tail();
        let e1 = q.enqueue_write(src, &vec![3.0; 64]).unwrap();
        let e2 = q.enqueue_ndrange(&scale_launch(src, dst, 64)).unwrap();
        let (data, e3) = q.enqueue_read(dst).unwrap();
        assert_eq!(data, vec![6.0; 64]);
        assert!(e_alloc < e1.complete_at());
        assert!(e1.complete_at() < e2.complete_at());
        assert!(e2.complete_at() < e3.complete_at());
        assert_eq!(q.finish(), e3.complete_at());
        assert_eq!(q.command_count(), 5, "2 allocs + write + kernel + read");
    }

    #[test]
    fn batched_writes_are_one_command_with_summed_payload_time() {
        let machine = MachineConfig::paper_testbed();
        let mut batched = CommandQueue::new(machine.clone(), DeviceKind::Gpu);
        let a = batched.create_buffer(1024);
        let b = batched.create_buffer(2048);
        let before = (batched.tail(), batched.command_count());
        let va = vec![1.0; 1024];
        let vb = vec![2.0; 2048];
        let e = batched.enqueue_write_batch(&[(a, &va), (b, &vb)]).unwrap();
        assert_eq!(batched.command_count(), before.1 + 1, "one queue slot");
        assert_eq!(batched.memory().get(a).unwrap(), &va[..]);
        assert_eq!(batched.memory().get(b).unwrap(), &vb[..]);
        // The batch occupies the link exactly as long as one transfer of
        // the combined payload.
        let expected = before.0 + machine.h2d.transfer_time((1024 + 2048) * 4);
        assert_eq!(e.complete_at(), expected);
    }

    #[test]
    fn a_bad_batch_entry_applies_nothing() {
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
        let a = q.create_buffer(64);
        let b = q.create_buffer(64);
        q.enqueue_write(a, &vec![0.0; 64]).unwrap();
        q.enqueue_write(b, &vec![0.0; 64]).unwrap();
        let tail = q.tail();
        let good = vec![5.0; 64];
        let short = vec![5.0; 32];
        let err = q.enqueue_write_batch(&[(a, &good), (b, &short)]);
        assert!(matches!(err, Err(ClError::SizeMismatch { .. })));
        assert_eq!(q.memory().get(a).unwrap(), &[0.0; 64][..], "atomic batch");
        assert_eq!(q.tail(), tail, "a rejected batch charges no time");
    }

    #[test]
    fn markers_are_free_but_ordered() {
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Cpu);
        let before = q.tail();
        let m = q.enqueue_marker();
        assert_eq!(m.complete_at(), before);
        assert_eq!(q.command_count(), 1);
    }

    #[test]
    fn wait_for_orders_across_queues() {
        let platform = Platform::new(MachineConfig::paper_testbed());
        let mut gpu = platform.create_queue(DeviceKind::Gpu);
        let mut cpu = platform.create_queue(DeviceKind::Cpu);
        let b = gpu.create_buffer(1 << 16);
        let e = gpu.enqueue_write(b, &vec![1.0; 1 << 16]).unwrap();
        cpu.wait_for(e);
        let m = cpu.enqueue_marker();
        assert!(m.complete_at() >= e.complete_at());
    }

    #[test]
    fn copy_moves_data_and_costs_time() {
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
        let a = q.create_buffer(128);
        let b = q.create_buffer(128);
        q.enqueue_write(a, &vec![7.0; 128]).unwrap();
        let before = q.tail();
        let e = q.enqueue_copy(a, b).unwrap();
        assert!(e.complete_at() > before);
        assert_eq!(q.memory().get(b).unwrap(), &[7.0; 128][..]);
    }

    #[test]
    fn cpu_and_gpu_queues_cost_differently() {
        let platform = Platform::new(MachineConfig::paper_testbed());
        let run = |device| {
            let mut q = platform.create_queue(device);
            let src = q.create_buffer(4096);
            let dst = q.create_buffer(4096);
            q.enqueue_write(src, &vec![1.0; 4096]).unwrap();
            q.enqueue_ndrange(&scale_launch(src, dst, 4096)).unwrap();
            q.finish()
        };
        assert_ne!(run(DeviceKind::Cpu), run(DeviceKind::Gpu));
    }

    #[test]
    fn event_ids_are_monotone() {
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Cpu);
        let a = q.enqueue_marker();
        let b = q.enqueue_marker();
        assert!(b.id() > a.id());
    }

    #[test]
    fn injected_gpu_loss_fails_launches_permanently() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
        q.set_fault_injector(FaultInjector::new(FaultPlan::new(FaultKind::GpuLost, 42)));
        let src = q.create_buffer(64);
        let dst = q.create_buffer(64);
        q.enqueue_write(src, &vec![1.0; 64]).unwrap();
        let launch = scale_launch(src, dst, 64);
        let results: Vec<_> = (0..4).map(|_| q.enqueue_ndrange(&launch)).collect();
        let first_err = results
            .iter()
            .position(Result::is_err)
            .expect("loss fires within 3 launches");
        assert!(first_err < 3);
        for r in &results[first_err..] {
            assert!(
                matches!(
                    r,
                    Err(ClError::DeviceLost {
                        device: DeviceKind::Gpu,
                        ..
                    })
                ),
                "loss is permanent and typed: {r:?}"
            );
        }
        // Transfers on the dead device fail too.
        assert!(matches!(
            q.enqueue_write(src, &vec![2.0; 64]),
            Err(ClError::DeviceLost { .. })
        ));
    }

    #[test]
    fn injected_stall_surfaces_as_timeout() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
        q.set_fault_injector(FaultInjector::new(FaultPlan::new(
            FaultKind::TransferStall,
            5,
        )));
        let b = q.create_buffer(16);
        let results: Vec<_> = (0..4).map(|_| q.enqueue_write(b, &[0.5; 16])).collect();
        let stalled = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(stalled, 1, "exactly one transfer stalls: {results:?}");
        let err = results.iter().find(|r| r.is_err()).unwrap();
        assert!(matches!(err, Err(ClError::Timeout { .. })));
    }

    #[test]
    fn transient_and_corrupt_faults_recover_in_place() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        for kind in [
            FaultKind::TransferTransient,
            FaultKind::CorruptPayload,
            FaultKind::CorruptStatus,
        ] {
            let mut q = CommandQueue::new(MachineConfig::paper_testbed(), DeviceKind::Gpu);
            q.set_fault_injector(FaultInjector::new(FaultPlan::new(kind, 9)));
            let b = q.create_buffer(16);
            for i in 0..4 {
                q.enqueue_write(b, &[i as f32; 16])
                    .unwrap_or_else(|e| panic!("{} attempt {i} must recover: {e}", kind.name()));
            }
            assert_eq!(q.memory().get(b).unwrap(), &[3.0; 16][..]);
        }
    }
}
