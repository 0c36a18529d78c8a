//! The three workloads and what they share.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cnt_cache::{CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_encoding::ProtectionMode;
use cnt_sim::trace::AccessBatch;

use crate::spans::Tracer;
use crate::stats::Tally;

pub mod file_replay;
pub mod kernel_suite;
pub mod serve_loopback;

/// The workloads, by command-line name.
pub const NAMES: [&str; 3] = ["file-replay", "kernel-suite", "serve-loopback"];

/// What every workload is run with.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The input seed.
    pub seed: u64,
    /// Worker threads and client connections: the box's `nproc`.
    pub jobs: usize,
    /// The repository checkout (for `BENCH_workloads.json`).
    pub root: PathBuf,
    /// A scratch directory owned by this workload run.
    pub work: PathBuf,
}

/// One op of a measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Op {
    /// Host wall time, milliseconds.
    pub ms: f64,
    /// Simulated accesses the op replayed (0 when it failed).
    pub accesses: u64,
}

/// One measured interval.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Every op, in completion order per thread.
    pub ops: Vec<Op>,
    /// `serve-loopback` only: `finish` to first obs frame, milliseconds.
    pub first_snapshot_ms: Vec<f64>,
    /// `kernel-suite` only: wall time of each whole pass over the
    /// cells, milliseconds. Its cells differ in size by two orders of
    /// magnitude, so the tail is taken over passes instead of cells.
    pub pass_ms: Vec<f64>,
    /// Host seconds the interval lasted.
    pub interval_s: f64,
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Times the server answered `Queued` to an open.
    pub queued: u64,
}

impl Measured {
    /// Host wall time of every op, milliseconds.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.ms).collect()
    }

    /// Appends another interval's ops, samples and counts.
    pub fn merge(&mut self, other: Measured) {
        self.ops.extend(other.ops);
        self.first_snapshot_ms.extend(other.first_snapshot_ms);
        self.pass_ms.extend(other.pass_ms);
        self.interval_s += other.interval_s;
        self.tally.merge(other.tally);
        self.queued += other.queued;
    }

    /// Simulated accesses replayed, every pass and config counted.
    #[must_use]
    pub fn sim_accesses(&self) -> u64 {
        self.ops.iter().map(|op| op.accesses).sum()
    }
}

/// Simulated energy of one workload's inputs, for `energy_saving_pct`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyTotals {
    /// Σ baseline (no encoding) total energy, fJ.
    pub baseline_fj: f64,
    /// Σ adaptive total energy, fJ.
    pub adaptive_fj: f64,
    /// Mean of the per-input savings, percent.
    pub mean_saving_pct: f64,
}

impl EnergyTotals {
    /// Totals over (baseline, adaptive) report pairs.
    #[must_use]
    pub fn from_pairs<'a>(
        pairs: impl Iterator<Item = (&'a EnergyReport, &'a EnergyReport)>,
    ) -> Self {
        let mut t = EnergyTotals::default();
        let mut savings = Vec::new();
        for (base, adaptive) in pairs {
            t.baseline_fj += base.total().femtojoules();
            t.adaptive_fj += adaptive.total().femtojoules();
            savings.push(adaptive.saving_vs(base));
        }
        if !savings.is_empty() {
            t.mean_saving_pct = savings.iter().sum::<f64>() / savings.len() as f64;
        }
        t
    }

    /// `100·(1 − Σadaptive/Σbaseline)`.
    #[must_use]
    pub fn saving_pct(&self) -> f64 {
        if self.baseline_fj > 0.0 {
            100.0 * (1.0 - self.adaptive_fj / self.baseline_fj)
        } else {
            0.0
        }
    }
}

/// The inputs the per-layer ledger replays: the workload's own
/// accesses, in memory and packed.
pub struct LedgerInputs<'a> {
    /// Decoded accesses, one batch per input.
    pub batches: Vec<&'a AccessBatch>,
    /// The same inputs as `.ctr` files.
    pub files: Vec<&'a Path>,
    /// Metrics epoch for the observed stacks.
    pub metrics_every: u64,
    /// Streaming-reader budget of the workload's replays.
    pub budget_bytes: usize,
}

/// A workload the runner can set up, measure and check.
pub trait Workload: Sized {
    /// Builds the inputs (and, for serve, boots the server). Everything
    /// timed as `setup_s` happens here.
    ///
    /// # Errors
    ///
    /// Any failure to generate, pack or boot.
    fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String>;

    /// Computes the references ops are checked against. Not timed.
    ///
    /// # Errors
    ///
    /// A reference that cannot be computed.
    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String>;

    /// Runs ops for `seconds`, checking each op's output.
    fn measure(&mut self, ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Measured;

    /// Checks made once per run, outside the ops (none by default:
    /// every op is checked as it completes).
    fn checks(&mut self, _ctx: &Ctx) -> Tally {
        Tally::default()
    }

    /// Simulated energy of this run's inputs.
    fn energy(&self) -> EnergyTotals;

    /// The inputs for the per-layer ledger.
    fn ledger_inputs(&self) -> LedgerInputs<'_>;

    /// Stops anything the workload started.
    fn teardown(self);
}

/// The three configs every in-memory replay is measured under.
#[must_use]
pub fn configs() -> [CntCacheConfig; 3] {
    let base = cnt_bench::runner::dcache_config("L1D", EncodingPolicy::None);
    let adaptive = cnt_bench::runner::dcache_config("L1D", EncodingPolicy::adaptive_default());
    let mut secded = adaptive.clone();
    secded.protection = ProtectionMode::Secded;
    [base, adaptive, secded]
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
