//! One benchmark for the tuner: end-to-end cost of tuning and serving,
//! and per-layer costs, on three workloads (`tune-op`, `tune-net`,
//! `serve-mix`). See `README.md` in this directory for what each metric
//! means and how to run it.

use std::path::PathBuf;
use std::time::Instant;

pub mod checks;
pub mod layers;
pub mod probe;
pub mod provenance;
pub mod report;
pub mod serve_mix;
pub mod spans;
pub mod stats;
pub mod tune;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tune-op", "tune-net", "serve-mix"];

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds the measured loop runs for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Private scratch directory for files the run writes.
    pub scratch: PathBuf,
    /// Time origin of the run's spans.
    pub origin: Instant,
}

impl Ctx {
    /// Jobs a run measures: `--seconds` divided by the workload's nominal
    /// job time, at least `min`. The count depends only on the arguments,
    /// so two builds measured with the same arguments do the same work.
    pub fn jobs(&self, nominal_job_s: f64, min: usize) -> usize {
        ((self.seconds / nominal_job_s).round() as usize).max(min)
    }

    /// Seed of stream `index` for purpose `tag`, derived from the
    /// workload seed.
    pub fn derive(&self, tag: u64, index: u64) -> u64 {
        ansor_runtime::derive_seed(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15), index)
    }
}

/// Megabytes of peak live heap so far (the binary installs
/// `telemetry::CountingAlloc`; 0 when it is not the global allocator).
pub fn peak_heap_mb() -> f64 {
    telemetry::alloc::stats().map_or(0.0, |s| s.peak_bytes as f64 / 1e6)
}
