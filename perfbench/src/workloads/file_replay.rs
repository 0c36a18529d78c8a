//! `file-replay`: the canonical offline path. One op is one full
//! two-pass (baseline, then adaptive) streamed replay of a seeded `.ctr`
//! file through `cnt_bench::driver::run_two_pass`, checked against the
//! in-memory `run_dcache_batch` replay of the same accesses.

use std::path::PathBuf;
use std::time::Instant;

use cnt_bench::driver::{
    run_two_pass, stream_config_pair, DriverError, SessionPlan, TwoPassOutcome,
};
use cnt_bench::runner::run_dcache_batch;
use cnt_cache::{CntCacheConfig, EncodingPolicy, EnergyReport};
use cnt_sim::trace::AccessBatch;
use cnt_trace::{CorruptionPolicy, ReadOptions};

use super::{ms_since, Ctx, EnergyTotals, LedgerInputs, Measured, Op, Workload};
use crate::inputs::{self, FILE_BUDGET_BYTES};
use crate::spans::Tracer;

/// Metrics epoch for the ledger's observed stacks on this workload.
const METRICS_EVERY: u64 = 8_000;

/// Set-up state of `file-replay`.
pub struct FileReplay {
    path: PathBuf,
    batch: AccessBatch,
    pair: (CntCacheConfig, CntCacheConfig),
    reference: Option<(EnergyReport, EnergyReport)>,
}

/// The reader options of every `file-replay` op.
#[must_use]
pub fn read_options() -> ReadOptions {
    ReadOptions {
        budget_bytes: FILE_BUDGET_BYTES,
        corruption: CorruptionPolicy::FailFast,
    }
}

impl FileReplay {
    /// One op: the two-pass replay.
    fn replay(&self) -> Result<TwoPassOutcome, DriverError> {
        let plan = SessionPlan {
            input: &self.path,
            opts: read_options(),
            base_cfg: &self.pair.0,
            cnt_cfg: &self.pair.1,
            metrics_every: None,
            checkpoint: None,
            cancel: None,
        };
        run_two_pass(plan, None)
    }

    /// Whether an op's reports equal the in-memory reference.
    fn matches(&self, out: &Result<TwoPassOutcome, DriverError>) -> bool {
        match (out, &self.reference) {
            (Ok(out), Some((base, cnt))) => out.base.report == *base && out.cnt.report == *cnt,
            _ => false,
        }
    }
}

impl Workload for FileReplay {
    fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let root = tracer.open("setup", None);
        let trace = tracer.time("workloads.generate", root.at(), || {
            inputs::file_replay_spec(ctx.seed).generate()
        });
        let path = ctx.work.join("file-replay.ctr");
        tracer
            .time("trace.pack", root.at(), || inputs::pack_file(&trace, &path))
            .map_err(|e| format!("packing `{}`: {e}", path.display()))?;
        Ok(FileReplay {
            path,
            batch: AccessBatch::from_trace(&trace),
            pair: stream_config_pair(),
            reference: None,
        })
    }

    fn prepare(&mut self, _ctx: &Ctx) -> Result<(), String> {
        self.reference = Some((
            run_dcache_batch(EncodingPolicy::None, &self.batch),
            run_dcache_batch(EncodingPolicy::adaptive_default(), &self.batch),
        ));
        Ok(())
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Measured {
        let mut m = Measured::default();
        let per_op = 2 * self.batch.len() as u64;
        let start = Instant::now();
        // At least one op, however short the interval.
        loop {
            let span = tracer.open("file-replay.op", None);
            let t = Instant::now();
            let out = tracer.time("bench.run_two_pass", span.at(), || self.replay());
            let ms = ms_since(t);
            let ok = self.matches(&out);
            m.ops.push(Op {
                ms,
                accesses: if ok { per_op } else { 0 },
            });
            m.tally.record(ok);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        m.interval_s = start.elapsed().as_secs_f64();
        m
    }

    fn energy(&self) -> EnergyTotals {
        let (base, cnt) = self.reference.as_ref().expect("prepared before use");
        EnergyTotals::from_pairs(std::iter::once((base, cnt)))
    }

    fn ledger_inputs(&self) -> LedgerInputs<'_> {
        LedgerInputs {
            batches: vec![&self.batch],
            files: vec![self.path.as_path()],
            metrics_every: METRICS_EVERY,
            budget_bytes: FILE_BUDGET_BYTES,
        }
    }

    fn teardown(self) {
        std::fs::remove_file(&self.path).ok();
    }
}
