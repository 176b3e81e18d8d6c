//! Host-time tracing from outside the program: an in-memory span recorder,
//! a forwarding [`ClDriver`] that times every call into the runtime, and a
//! null driver that runs only the host program.
//!
//! Untraced runs never construct any of these, so tracing costs nothing
//! when it is off.

use std::io::Write;
use std::time::Instant;

use fluidicl_des::SimDuration;
use fluidicl_vcl::{BufferId, ClDriver, ClError, ClResult, KernelArg, NdRange};

use crate::json::escape;

/// One timed interval. Spans of one app run share its `app` id; nesting is
/// by time containment.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name, e.g. `runtime.enqueue`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Id of the app run the span belongs to.
    pub app: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans in memory; [`Recorder::write_jsonl`] writes them out.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Cell key of each app run, indexed by app id.
    app_cells: Vec<String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            app_cells: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new app run of `cell`; later spans belong to it.
    pub fn begin_app(&mut self, cell: String) {
        self.app_cells.push(cell);
    }

    fn app(&self) -> u32 {
        self.app_cells.len().saturating_sub(1) as u32
    }

    /// Records a span named `name` from `start_ns` to now and returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, name: &'static str, start_ns: u64) -> u64 {
        let end_ns = self.now();
        let app = self.app();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            app,
        });
        end_ns - start_ns
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"app\":{},\"cell\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.app,
                escape(&self.app_cells[s.app as usize]),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Which layer a [`TimedDriver`] wraps; selects its span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The FluidiCL runtime under test.
    Runtime,
    /// The single-device runtime replay.
    Vcl,
}

impl Layer {
    fn names(self) -> [&'static str; 4] {
        match self {
            Layer::Runtime => [
                "runtime.create_buffer",
                "runtime.write_buffer",
                "runtime.enqueue",
                "runtime.read_buffer",
            ],
            Layer::Vcl => [
                "vcl.create_buffer",
                "vcl.write_buffer",
                "vcl.enqueue",
                "vcl.read_buffer",
            ],
        }
    }
}

/// Forwards every call to `inner` and records a span around it.
pub struct TimedDriver<'a, D: ClDriver + ?Sized> {
    inner: &'a mut D,
    rec: &'a mut Recorder,
    names: [&'static str; 4],
}

impl<'a, D: ClDriver + ?Sized> TimedDriver<'a, D> {
    /// Wraps `inner`, recording into `rec` under `layer`'s span names.
    pub fn new(inner: &'a mut D, rec: &'a mut Recorder, layer: Layer) -> Self {
        TimedDriver {
            inner,
            rec,
            names: layer.names(),
        }
    }
}

impl<D: ClDriver + ?Sized> ClDriver for TimedDriver<'_, D> {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        let start = self.rec.now();
        let id = self.inner.create_buffer(len);
        self.rec.close(self.names[0], start);
        id
    }

    fn write_buffer(&mut self, id: BufferId, data: &[f32]) -> ClResult<()> {
        let start = self.rec.now();
        let r = self.inner.write_buffer(id, data);
        self.rec.close(self.names[1], start);
        r
    }

    fn enqueue_kernel(
        &mut self,
        kernel: &str,
        ndrange: NdRange,
        args: &[KernelArg],
    ) -> ClResult<()> {
        let start = self.rec.now();
        let r = self.inner.enqueue_kernel(kernel, ndrange, args);
        self.rec.close(self.names[2], start);
        r
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        let start = self.rec.now();
        let r = self.inner.read_buffer(id);
        self.rec.close(self.names[3], start);
        r
    }

    fn elapsed(&self) -> SimDuration {
        self.inner.elapsed()
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        self.inner.kernel_times()
    }
}

/// A driver that does nothing: running an app on it costs only the host
/// program (input generation and call glue), which no runtime change can
/// remove.
#[derive(Debug, Default)]
pub struct NullDriver {
    lens: Vec<usize>,
}

impl NullDriver {
    fn len(&self, id: BufferId) -> ClResult<usize> {
        usize::try_from(id.0)
            .ok()
            .and_then(|i| self.lens.get(i).copied())
            .ok_or(ClError::InvalidBuffer(id.0))
    }
}

impl ClDriver for NullDriver {
    fn create_buffer(&mut self, len: usize) -> BufferId {
        self.lens.push(len);
        BufferId(self.lens.len() as u64 - 1)
    }

    fn write_buffer(&mut self, id: BufferId, _data: &[f32]) -> ClResult<()> {
        self.len(id).map(drop)
    }

    fn enqueue_kernel(&mut self, _: &str, _: NdRange, _: &[KernelArg]) -> ClResult<()> {
        Ok(())
    }

    fn read_buffer(&mut self, id: BufferId) -> ClResult<Vec<f32>> {
        Ok(vec![0.0; self.len(id)?])
    }

    fn elapsed(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn kernel_times(&self) -> Vec<(String, SimDuration)> {
        Vec::new()
    }
}
