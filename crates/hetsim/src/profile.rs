//! Kernel cost descriptors.
//!
//! A [`KernelProfile`] captures the per-work-item characteristics that decide
//! how fast a kernel runs on each device: arithmetic intensity, memory
//! traffic, and the architectural friction terms (coalescing, divergence,
//! cache locality) that make GPUs great at some Polybench kernels and CPUs
//! competitive at others. The FluidiCL paper's motivation (Section 3) is
//! precisely that these properties differ per kernel *and* interact with
//! input size through transfer overheads, so no static device choice wins.

/// Per-work-item execution characteristics of a kernel.
///
/// All quantities are *per work-item*; the device models scale them by the
/// work-group size and count. Friction factors live in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use fluidicl_hetsim::KernelProfile;
///
/// let p = KernelProfile::new("syrk")
///     .flops_per_item(2.0 * 256.0)
///     .bytes_read_per_item(8.0 * 256.0)
///     .bytes_written_per_item(4.0)
///     .inner_loop_trips(256);
/// assert_eq!(p.name(), "syrk");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    name: String,
    flops_per_item: f64,
    bytes_read_per_item: f64,
    bytes_written_per_item: f64,
    inner_loop_trips: u32,
    gpu_coalescing: f64,
    gpu_divergence: f64,
    cpu_cache_locality: f64,
    cpu_simd_friendliness: f64,
}

impl KernelProfile {
    /// Creates a profile with neutral defaults: one flop, no memory traffic,
    /// a single loop trip, perfect coalescing/locality, no divergence.
    pub fn new(name: impl Into<String>) -> Self {
        KernelProfile {
            name: name.into(),
            flops_per_item: 1.0,
            bytes_read_per_item: 0.0,
            bytes_written_per_item: 0.0,
            inner_loop_trips: 1,
            gpu_coalescing: 1.0,
            gpu_divergence: 0.0,
            cpu_cache_locality: 1.0,
            cpu_simd_friendliness: 1.0,
        }
    }

    /// Kernel name (for reporting and calibration tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arithmetic operations one work-item performs.
    #[must_use]
    pub fn flops_per_item(mut self, flops: f64) -> Self {
        assert!(flops >= 0.0, "flops must be non-negative");
        self.flops_per_item = flops;
        self
    }

    /// Bytes one work-item reads from global memory.
    #[must_use]
    pub fn bytes_read_per_item(mut self, bytes: f64) -> Self {
        assert!(bytes >= 0.0, "bytes must be non-negative");
        self.bytes_read_per_item = bytes;
        self
    }

    /// Bytes one work-item writes to global memory.
    #[must_use]
    pub fn bytes_written_per_item(mut self, bytes: f64) -> Self {
        assert!(bytes >= 0.0, "bytes must be non-negative");
        self.bytes_written_per_item = bytes;
        self
    }

    /// Trip count of the innermost loop (1 for straight-line kernels).
    ///
    /// Determines how often an in-loop abort check executes (paper §6.4) and
    /// therefore the granularity at which a GPU work-group can terminate
    /// early.
    #[must_use]
    pub fn inner_loop_trips(mut self, trips: u32) -> Self {
        assert!(trips >= 1, "a kernel body runs at least once");
        self.inner_loop_trips = trips;
        self
    }

    /// GPU memory-coalescing quality in `[0, 1]`; 1 means fully coalesced
    /// accesses, 0 means fully scattered.
    #[must_use]
    pub fn gpu_coalescing(mut self, c: f64) -> Self {
        assert!((0.0..=1.0).contains(&c), "coalescing must be in [0,1]");
        self.gpu_coalescing = c;
        self
    }

    /// GPU branch-divergence fraction in `[0, 1]`; 0 means uniform control
    /// flow across a warp.
    #[must_use]
    pub fn gpu_divergence(mut self, d: f64) -> Self {
        assert!((0.0..=1.0).contains(&d), "divergence must be in [0,1]");
        self.gpu_divergence = d;
        self
    }

    /// CPU cache locality in `[0, 1]`; 1 means streaming/cache-friendly
    /// access, 0 means cache-hostile (e.g. large-stride column walks).
    #[must_use]
    pub fn cpu_cache_locality(mut self, l: f64) -> Self {
        assert!((0.0..=1.0).contains(&l), "locality must be in [0,1]");
        self.cpu_cache_locality = l;
        self
    }

    /// How well the CPU vectorizes the body, in `[0, 1]`; 1 means full SIMD
    /// utilisation.
    #[must_use]
    pub fn cpu_simd_friendliness(mut self, s: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&s),
            "simd friendliness must be in [0,1]"
        );
        self.cpu_simd_friendliness = s;
        self
    }

    /// Arithmetic operations per work-item.
    pub fn flops(&self) -> f64 {
        self.flops_per_item
    }

    /// Total global-memory bytes (read + written) per work-item.
    pub fn bytes(&self) -> f64 {
        self.bytes_read_per_item + self.bytes_written_per_item
    }

    /// Innermost-loop trip count.
    pub fn loop_trips(&self) -> u32 {
        self.inner_loop_trips
    }

    /// GPU coalescing factor.
    pub fn coalescing(&self) -> f64 {
        self.gpu_coalescing
    }

    /// GPU divergence factor.
    pub fn divergence(&self) -> f64 {
        self.gpu_divergence
    }

    /// CPU cache-locality factor.
    pub fn cache_locality(&self) -> f64 {
        self.cpu_cache_locality
    }

    /// CPU SIMD-friendliness factor.
    pub fn simd_friendliness(&self) -> f64 {
        self.cpu_simd_friendliness
    }

    /// Arithmetic operations per innermost-loop iteration, used to estimate
    /// how much an in-loop abort check dilutes the loop body.
    pub fn flops_per_trip(&self) -> f64 {
        self.flops_per_item / f64::from(self.inner_loop_trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = KernelProfile::new("k")
            .flops_per_item(10.0)
            .bytes_read_per_item(4.0)
            .bytes_written_per_item(2.0)
            .inner_loop_trips(5)
            .gpu_coalescing(0.5)
            .gpu_divergence(0.25)
            .cpu_cache_locality(0.75)
            .cpu_simd_friendliness(0.9);
        assert_eq!(p.name(), "k");
        assert_eq!(p.flops(), 10.0);
        assert_eq!(p.bytes(), 6.0);
        assert_eq!(p.loop_trips(), 5);
        assert_eq!(p.coalescing(), 0.5);
        assert_eq!(p.divergence(), 0.25);
        assert_eq!(p.cache_locality(), 0.75);
        assert_eq!(p.simd_friendliness(), 0.9);
        assert_eq!(p.flops_per_trip(), 2.0);
    }

    #[test]
    fn defaults_are_neutral() {
        let p = KernelProfile::new("n");
        assert_eq!(p.flops(), 1.0);
        assert_eq!(p.bytes(), 0.0);
        assert_eq!(p.loop_trips(), 1);
        assert_eq!(p.coalescing(), 1.0);
        assert_eq!(p.divergence(), 0.0);
    }

    #[test]
    #[should_panic(expected = "coalescing must be in [0,1]")]
    fn rejects_out_of_range_coalescing() {
        let _ = KernelProfile::new("bad").gpu_coalescing(1.5);
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn rejects_zero_trips() {
        let _ = KernelProfile::new("bad").inner_loop_trips(0);
    }
}
