//! `kernel-suite`: the fourteen `suite_extended` kernels replayed in
//! memory under three configs (no encoding, adaptive, adaptive with
//! SECDED-protected metadata). One op is one (kernel, config) cell; a
//! pass fans every cell out through `cnt_bench::pool::par_map`. The
//! cells differ in size by two orders of magnitude, so `op_tail_ms` is
//! taken over whole passes, not cells.

use std::path::PathBuf;
use std::time::Instant;

use cnt_bench::pool;
use cnt_bench::runner::run_trace_batch;
use cnt_bench::WorkloadBenchRecord;
use cnt_cache::{CntCacheConfig, EnergyReport};
use cnt_sim::trace::AccessBatch;

use super::{configs, ms_since, Ctx, EnergyTotals, LedgerInputs, Measured, Op, Workload};
use crate::inputs::{self, BUDGET_BYTES, DEFAULT_SEED};
use crate::spans::Tracer;
use crate::stats::Tally;

/// Metrics epoch for the ledger's observed stacks on this workload.
const METRICS_EVERY: u64 = 5_000;

/// Span name of a cell, by config index.
const CELL_SPANS: [&str; 3] = [
    "core.run_batch.none",
    "core.run_batch.adaptive",
    "core.run_batch.secded",
];

/// Largest relative difference from the committed energies allowed.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// Set-up state of `kernel-suite`.
pub struct KernelSuite {
    names: Vec<String>,
    batches: Vec<AccessBatch>,
    files: Vec<PathBuf>,
    configs: [CntCacheConfig; 3],
    cells: Vec<(usize, usize)>,
    /// The `--jobs 1` replay of every cell, in cell order.
    reference: Vec<EnergyReport>,
    /// The check against `BENCH_workloads.json`, made while preparing.
    committed: Tally,
}

/// Replays every cell of `batches` × `configs` on the shared pool.
fn replay_cells(
    batches: &[AccessBatch],
    configs: &[CntCacheConfig; 3],
    cells: &[(usize, usize)],
) -> Vec<EnergyReport> {
    pool::par_map(cells, |&(k, c)| {
        run_trace_batch(configs[c].clone(), &batches[k])
    })
}

fn all_cells(kernels: usize) -> Vec<(usize, usize)> {
    (0..kernels)
        .flat_map(|k| (0..3).map(move |c| (k, c)))
        .collect()
}

impl Workload for KernelSuite {
    fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let root = tracer.open("setup", None);
        let kernels = tracer.time("workloads.generate", root.at(), || {
            inputs::kernel_suite(ctx.seed)
        });
        // Each kernel's trace is dropped once it is packed and batched.
        let cells = all_cells(kernels.len());
        let mut names = Vec::new();
        let mut files = Vec::new();
        let mut batches = Vec::new();
        for w in kernels {
            let path = ctx.work.join(format!("kernel-{}.ctr", w.name));
            tracer
                .time("trace.pack", root.at(), || {
                    inputs::pack_file(&w.trace, &path)
                })
                .map_err(|e| format!("packing kernel `{}`: {e}", w.name))?;
            files.push(path);
            batches.push(AccessBatch::from_trace(&w.trace));
            names.push(w.name);
        }
        Ok(KernelSuite {
            names,
            batches,
            files,
            configs: configs(),
            cells,
            reference: Vec::new(),
            committed: Tally::default(),
        })
    }

    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String> {
        pool::set_jobs(1);
        self.reference = replay_cells(&self.batches, &self.configs, &self.cells);
        pool::set_jobs(ctx.jobs);
        // Made here rather than after the measured interval, so its
        // memory is used while the heap is still fresh and does not
        // move `peak_rss_mib` from run to run.
        self.committed = self.check_committed(ctx);
        Ok(())
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        // At least one pass, however short the interval.
        loop {
            let pass = tracer.open("kernel-suite.pass", None);
            let parent = pass.at();
            let pass_start = Instant::now();
            let results = pool::par_map(&self.cells, |&(k, c)| {
                let span = tracer.open(CELL_SPANS[c], parent);
                let t = Instant::now();
                let report = run_trace_batch(self.configs[c].clone(), &self.batches[k]);
                let op = Op {
                    ms: ms_since(t),
                    accesses: self.batches[k].len() as u64,
                };
                span.end();
                (op, report)
            });
            pass.end();
            m.pass_ms.push(ms_since(pass_start));
            for ((mut op, report), expected) in results.into_iter().zip(&self.reference) {
                let ok = report == *expected;
                if !ok {
                    op.accesses = 0;
                }
                m.ops.push(op);
                m.tally.record(ok);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        m.interval_s = start.elapsed().as_secs_f64();
        m
    }

    fn checks(&mut self, _ctx: &Ctx) -> Tally {
        self.committed
    }

    fn energy(&self) -> EnergyTotals {
        EnergyTotals::from_pairs(
            self.reference
                .chunks_exact(3)
                .map(|cell| (&cell[0], &cell[1])),
        )
    }

    fn ledger_inputs(&self) -> LedgerInputs<'_> {
        LedgerInputs {
            batches: self.batches.iter().collect(),
            files: self.files.iter().map(PathBuf::as_path).collect(),
            metrics_every: METRICS_EVERY,
            budget_bytes: BUDGET_BYTES,
        }
    }

    fn teardown(self) {
        for path in &self.files {
            std::fs::remove_file(path).ok();
        }
    }
}

impl KernelSuite {
    /// The suite at the reference seed against the `synth/*` rows of
    /// `BENCH_workloads.json`.
    fn check_committed(&self, ctx: &Ctx) -> Tally {
        let mut tally = Tally::default();
        // The committed per-kernel energies hold at the reference seed.
        let at_reference: Vec<EnergyReport> = if ctx.seed == DEFAULT_SEED {
            self.reference.clone()
        } else {
            let batches: Vec<AccessBatch> = inputs::kernel_suite(DEFAULT_SEED)
                .into_iter()
                .map(|w| AccessBatch::from_trace(&w.trace))
                .collect();
            replay_cells(&batches, &self.configs, &self.cells)
        };
        let committed = std::fs::read_to_string(ctx.root.join("BENCH_workloads.json"))
            .map_err(|e| e.to_string())
            .and_then(|text| {
                serde_json::from_str::<WorkloadBenchRecord>(&text).map_err(|e| e.to_string())
            });
        let record = match committed {
            Ok(record) => record,
            Err(e) => {
                eprintln!("kernel-suite: cannot load BENCH_workloads.json: {e}");
                tally.check(false);
                return tally;
            }
        };
        for (k, name) in self.names.iter().enumerate() {
            let id = format!("synth/{name}");
            let Some(row) = record.rows.iter().find(|r| r.id == id) else {
                eprintln!("kernel-suite: BENCH_workloads.json has no row `{id}`");
                tally.check(false);
                continue;
            };
            let base = at_reference[3 * k].total().femtojoules();
            let adaptive = at_reference[3 * k + 1].total().femtojoules();
            let close = |a: f64, b: f64| (a - b).abs() <= REFERENCE_TOLERANCE * b.abs();
            let ok = close(base, row.baseline_total_fj) && close(adaptive, row.adaptive_total_fj);
            if !ok {
                eprintln!(
                    "kernel-suite: `{id}` energies {base} / {adaptive} fJ differ from the committed {} / {} fJ",
                    row.baseline_total_fj, row.adaptive_total_fj
                );
            }
            tally.check(ok);
        }
        tally
    }
}
