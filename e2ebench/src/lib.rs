//! End-to-end benchmark of the SkinnyMine public API.
//!
//! Three workloads, each driven through the library's public entry points
//! from one thread:
//!
//! * `mine-fig16` — a default-config `SkinnyMine::mine` on the Figure-16
//!   Erdős–Rényi preset (Stage I heavy, cycle-seed ladder included);
//! * `serve-fig16` — one closed-loop client sending `serve_text` requests
//!   to a `MinimalPatternIndex` whose cache is smaller than the working set
//!   (Stage II plus cache; Stage I runs only at build);
//! * `update-stream` — an `IncrementalMiner` absorbing a deterministic
//!   stream of transaction replacements, refreshing after every step.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) times each layer's public functions from outside and
//! reports the per-layer metrics.  Both check the mined output outside the
//! timed region; a failed check makes the run incorrect.

pub mod measure;
pub mod mine;
pub mod report;
pub mod serve;
pub mod update;

use measure::Ops;
use report::{Metrics, Report};

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: &[&str] = &["mine-fig16", "serve-fig16", "update-stream"];

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Vertices of the Figure-16 graph `mine-fig16` mines and
    /// `serve-fig16` indexes.
    pub fig16_vertices: usize,
    /// Requests per pass of the serving schedule.
    pub serve_pass: usize,
    /// Families of the update-stream corpus (8 transactions each).
    pub update_families: usize,
    /// Refreshes between two from-scratch comparisons on `update-stream`.
    pub update_check_every: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes =
        Sizes { fig16_vertices: 1250, serve_pass: 500, update_families: 16, update_check_every: 400 };

    /// Small inputs for the benchmark's own tests.
    pub const TINY: Sizes =
        Sizes { fig16_vertices: 120, serve_pass: 40, update_families: 2, update_check_every: 5 };
}

/// Runs workload `name` for `seconds` of measured time.
pub fn run(name: &str, sizes: &Sizes, seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    match name {
        "mine-fig16" => Some(mine::run(sizes, seed, seconds, trace)),
        "serve-fig16" => Some(serve::run(sizes, seed, seconds, trace)),
        "update-stream" => Some(update::run(sizes, seed, seconds, trace)),
        _ => None,
    }
}

/// Wraps a run's accounting and metrics into its report.
pub(crate) fn finish(ops: Ops, metrics: Metrics) -> Report {
    Report {
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        errors: ops.errors,
    }
}
