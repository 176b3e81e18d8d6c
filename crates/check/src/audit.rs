//! A sanitizing [`ClDriver`]: run any host program, audit every launch.

use fluidicl::LintDiagnostic;
use fluidicl_des::SimDuration;
use fluidicl_vcl::exec::execute_all;
use fluidicl_vcl::{BufferId, ClDriver, ClResult, KernelArg, Launch, Memory, NdRange, Program};

use crate::sanitize::sanitize_launch;

/// Sanitizer diagnostics of one audited kernel launch.
#[derive(Clone, Debug)]
pub struct KernelFinding {
    /// Kernel name.
    pub kernel: String,
    /// Diagnostics for this launch; empty means the launch was clean.
    pub diagnostics: Vec<LintDiagnostic>,
}

/// A [`ClDriver`] that executes kernels functionally on a single address
/// space and runs [`sanitize_launch`] on every enqueue.
///
/// Host programs written against `ClDriver` — every Polybench benchmark —
/// run on it unmodified, so auditing a whole application is one driver
/// swap, mirroring how FluidiCL itself integrates (paper §5). Results are
/// exact (the same kernel bodies run over the same data), so the usual
/// reference validation works on top; virtual time is not modelled and
/// [`ClDriver::elapsed`] reports zero.
///
/// # Examples
///
/// ```
/// use fluidicl_check::AuditDriver;
/// use fluidicl_polybench::find;
///
/// let b = find("SYRK").unwrap();
/// let mut driver = AuditDriver::new((b.program)(16));
/// assert!(b.run_and_validate_sized(&mut driver, 16, 7).unwrap());
/// assert_eq!(driver.diagnostic_count(), 0);
/// ```
pub struct AuditDriver {
    program: Program,
    mem: Memory,
    next_id: u64,
    findings: Vec<KernelFinding>,
}

impl AuditDriver {
    /// Creates an audit driver for `program`.
    pub fn new(program: Program) -> Self {
        AuditDriver {
            program,
            mem: Memory::new(),
            next_id: 0,
            findings: Vec::new(),
        }
    }

    /// Per-launch findings, in enqueue order.
    pub fn findings(&self) -> &[KernelFinding] {
        &self.findings
    }

    /// Total diagnostics across all launches.
    pub fn diagnostic_count(&self) -> usize {
        self.findings.iter().map(|f| f.diagnostics.len()).sum()
    }
}

impl ClDriver for AuditDriver {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.next_id);
        self.next_id += 1;
        self.mem.alloc(id, len);
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.write_buffer_owned(id, data.to_vec())
    }

    fn write_buffer_owned(&mut self, id: BufferId, data: Vec<f32>) -> ClResult<()> {
        self.mem.replace(id, data)
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let def = self.program.kernel(kernel)?;
        let launch = Launch::new(def, ndrange, args.to_vec());
        self.findings.push(KernelFinding {
            kernel: kernel.to_string(),
            diagnostics: sanitize_launch(&launch, &self.mem),
        });
        execute_all(&launch, &mut self.mem)
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        self.mem.get(id).map(<[f32]>::to_vec)
    }

    fn elapsed(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.findings
            .iter()
            .map(|f| (f.kernel.clone(), SimDuration::ZERO))
            .collect()
    }
}
