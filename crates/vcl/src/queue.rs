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
//! with the completion instant. It is the single device queue behind
//! [`SingleDeviceRuntime`](crate::SingleDeviceRuntime).

use fluidicl_des::{SimDuration, SimTime};
use fluidicl_hetsim::{AbortMode, MachineConfig};

use crate::exec::{execute_all, Launch};
use crate::{BufferId, ClResult, DeviceKind, Memory};

/// Completion marker of one enqueued command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Event {
    complete_at: SimTime,
}

impl Event {
    /// Virtual instant at which the command completes.
    pub fn complete_at(&self) -> SimTime {
        self.complete_at
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
        }
    }

    /// The device this queue feeds.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// Current queue tail: the instant the last enqueued command completes
    /// (`clFinish`).
    pub fn tail(&self) -> SimTime {
        self.tail
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

    fn push(&mut self, duration: SimDuration) -> Event {
        self.tail += duration;
        Event {
            complete_at: self.tail,
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
        let bytes = data.len() as u64 * 4;
        self.memory.replace(id, data)?;
        let d = match self.device {
            DeviceKind::Gpu => self.machine.h2d.transfer_time(bytes),
            DeviceKind::Cpu => self.machine.host.copy_time(bytes),
        };
        Ok(self.push(d))
    }

    /// Enqueues a device→host read (`clEnqueueReadBuffer`), returning the
    /// data and its completion event.
    ///
    /// # Errors
    ///
    /// Fails if the buffer is unknown.
    pub fn enqueue_read(&mut self, id: BufferId) -> ClResult<(Vec<f32>, Event)> {
        let data = self.memory.get(id)?.to_vec();
        let bytes = data.len() as u64 * 4;
        let d = match self.device {
            DeviceKind::Gpu => self.machine.d2h.transfer_time(bytes),
            DeviceKind::Cpu => self.machine.host.copy_time(bytes),
        };
        let ev = self.push(d);
        Ok((data, ev))
    }

    /// Enqueues a kernel over its full NDRange
    /// (`clEnqueueNDRangeKernel`), executing it functionally against this
    /// queue's memory and charging the device model's duration.
    ///
    /// # Errors
    ///
    /// Fails on signature mismatches or missing buffers.
    pub fn enqueue_ndrange(&mut self, launch: &Launch) -> ClResult<Event> {
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
        assert!(e_alloc > SimTime::ZERO, "GPU allocations take queue time");
        assert!(e_alloc < e1.complete_at());
        assert!(e1.complete_at() < e2.complete_at());
        assert!(e2.complete_at() < e3.complete_at());
        assert_eq!(q.tail(), e3.complete_at());
    }

    #[test]
    fn cpu_and_gpu_queues_cost_differently() {
        let run = |device| {
            let mut q = CommandQueue::new(MachineConfig::paper_testbed(), device);
            let src = q.create_buffer(4096);
            let dst = q.create_buffer(4096);
            q.enqueue_write(src, &vec![1.0; 4096]).unwrap();
            q.enqueue_ndrange(&scale_launch(src, dst, 4096)).unwrap();
            q.tail()
        };
        assert_ne!(run(DeviceKind::Cpu), run(DeviceKind::Gpu));
    }
}
