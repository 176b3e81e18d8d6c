//! The timing wrapper is transparent, and every kind of failure is counted
//! rather than panicking.

use fluidicl::{Fluidicl, FluidiclConfig, TraceKind};
use fluidicl_benchmark::{
    lint_reports, run_app, Cell, Failure, Layer, Recorder, Tally, TimedDriver, Workload,
};
use fluidicl_des::SimDuration;
use fluidicl_vcl::{BufferId, ClDriver, ClError, ClResult, KernelArg, NdRange};

const SEED: u64 = 7;

fn cell(workload: Workload, app: &str) -> Cell {
    workload
        .cells()
        .into_iter()
        .find(|c| c.app.name == app)
        .expect("cell exists")
}

fn runtime(cell: &Cell) -> Fluidicl {
    Fluidicl::new(
        cell.machine.config(),
        FluidiclConfig::default(),
        (cell.app.program)(cell.n),
    )
}

fn bits(outputs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|b| b.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn the_timing_wrapper_changes_no_output_or_report() {
    for c in [
        cell(Workload::SmallKernels, "SYRK"),
        cell(Workload::SmallKernels, "BATCHMM"),
        cell(Workload::Ndev3Dev, "GESUMMV"),
    ] {
        let mut bare = runtime(&c);
        let want = (c.app.run)(&mut bare, c.n, SEED).expect("bare run");

        let mut wrapped = runtime(&c);
        let mut rec = Recorder::default();
        rec.begin_app(c.key());
        let got = (c.app.run)(
            &mut TimedDriver::new(&mut wrapped, &mut rec, Layer::Runtime),
            c.n,
            SEED,
        )
        .expect("wrapped run");

        assert_eq!(bits(&got), bits(&want), "{}", c.key());
        assert_eq!(wrapped.elapsed(), bare.elapsed());
        assert_eq!(
            format!("{:?}", wrapped.reports()),
            format!("{:?}", bare.reports()),
            "{}",
            c.key()
        );
        assert!(rec.spans().iter().any(|s| s.name == "runtime.enqueue"));
    }
}

/// Flips the lowest bit of the first element of every buffer read back.
struct FlipOnRead<'a>(&'a mut Fluidicl);

impl ClDriver for FlipOnRead<'_> {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        self.0.create_buffer(len)
    }
    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.0.write_buffer(id, data)
    }
    fn enqueue_kernel(&mut self, k: &str, nd: NdRange, args: &[KernelArg]) -> ClResult<()> {
        self.0.enqueue_kernel(k, nd, args)
    }
    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        let mut v = self.0.read_buffer(id)?;
        if let Some(x) = v.first_mut() {
            *x = f32::from_bits(x.to_bits() ^ 1);
        }
        Ok(v)
    }
    fn elapsed(&self) -> SimDuration {
        self.0.elapsed()
    }
    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.0.kernel_times()
    }
}

/// Fails every kernel launch.
struct FailingLaunch<'a>(&'a mut Fluidicl);

impl ClDriver for FailingLaunch<'_> {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        self.0.create_buffer(len)
    }
    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        self.0.write_buffer(id, data)
    }
    fn enqueue_kernel(&mut self, k: &str, _: NdRange, _: &[KernelArg]) -> ClResult<()> {
        Err(ClError::UnknownKernel(k.to_string()))
    }
    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        self.0.read_buffer(id)
    }
    fn elapsed(&self) -> SimDuration {
        self.0.elapsed()
    }
    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.0.kernel_times()
    }
}

#[test]
fn a_flipped_output_bit_is_counted_as_a_failure() {
    let c = cell(Workload::SmallKernels, "ATAX");
    let reference = (c.app.reference)(c.n, SEED);
    let mut tally = Tally::default();

    let mut rt = runtime(&c);
    tally.record(&c.key(), run_app(&c, &mut rt, SEED, &reference));
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    let mut rt = runtime(&c);
    let outcome = run_app(&c, &mut FlipOnRead(&mut rt), SEED, &reference);
    assert!(matches!(outcome, Err(Failure::Mismatch)), "{outcome:?}");
    tally.record(&c.key(), outcome);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.messages[0].contains("differs from the reference"));
}

#[test]
fn driver_errors_and_lint_errors_are_counted_as_failures() {
    let c = cell(Workload::SmallKernels, "SYRK");
    let reference = (c.app.reference)(c.n, SEED);
    let mut tally = Tally::default();

    let mut rt = runtime(&c);
    let outcome = run_app(&c, &mut FailingLaunch(&mut rt), SEED, &reference);
    assert!(matches!(outcome, Err(Failure::Driver(_))), "{outcome:?}");
    tally.record(&c.key(), outcome);

    let mut rt = runtime(&c);
    run_app(&c, &mut rt, SEED, &reference).expect("clean run");
    assert!(lint_reports(rt.reports()).is_ok());
    let mut broken = rt.reports().to_vec();
    broken[0]
        .trace
        .retain(|e| !matches!(e.kind, TraceKind::KernelComplete { .. }));
    let outcome = lint_reports(&broken);
    assert!(
        matches!(outcome, Err(Failure::Finding { stage: "lint", .. })),
        "{outcome:?}"
    );
    tally.record(&c.key(), outcome);

    assert_eq!((tally.attempted, tally.failed), (2, 2));
}
