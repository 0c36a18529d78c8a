//! The per-layer ledger of the traced run.
//!
//! The workload's own inputs are replayed through progressively fuller
//! stacks, each timed from this file around calls into one crate's
//! public functions:
//!
//! | stack | calls |
//! |---|---|
//! | sim | `cnt_sim::Cache::{read,write}_outcome`, `()` observer, `MainMemory` |
//! | base | `CntCache::run_batch`, `EncodingPolicy::None` |
//! | adaptive | `CntCache::run_batch`, `adaptive_default` |
//! | secded | the same with `ProtectionMode::Secded` |
//! | decide | `DirectionPredictor::decide` |
//! | decode | `StreamReader::next_raw` + `RawChunk::decode_batch` |
//! | two-pass | `driver::run_two_pass`, obs off |
//! | observed | `run_two_pass` under `cnt_obs::install_local` |
//! | serve | one loopback `cnt-serve` session per input |
//! | pool | `pool::par_map` over (input, config) cells |
//!
//! Stacks run round-robin so slow drift on the box hits each alike; a
//! layer's cost is the per-round difference between two stacks, and the
//! ledger reports the median over rounds.

use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use cnt_bench::pool;
use cnt_bench::runner::run_trace_batch;
use cnt_cache::{CntCache, CntCacheConfig, EnergyReport};
use cnt_encoding::{DirectionBits, DirectionPredictor, PredictorConfig, WindowSummary};
use cnt_energy::BitEnergies;
use cnt_sim::trace::{AccessBatch, AccessKind};
use cnt_sim::{Cache, CacheGeometry, MainMemory, ReplacementKind};
use cnt_trace::{CorruptionPolicy, ReadOptions, StreamReader};

use crate::inputs::mix;
use crate::run::Metric;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::serve_loopback::{forget, offline, session, RunningServer};
use crate::workloads::{configs, Ctx, LedgerInputs};

/// `DirectionPredictor::decide` calls per round.
const DECIDES: usize = 1 << 14;

/// Rounds run whatever the time budget.
const MIN_ROUNDS: usize = 3;

/// Host seconds of each stack in one round.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    sim: f64,
    base: f64,
    adaptive: f64,
    secded: f64,
    decide: f64,
    decode: f64,
    two_pass: f64,
    observed: f64,
    serve: f64,
    pool_wall: f64,
    pool_busy: f64,
}

/// What the deterministic counts are read from (one round's worth).
#[derive(Default)]
struct Counts {
    adaptive: Vec<EnergyReport>,
    chunks: u64,
    peak_buffered: u64,
    snapshots: u64,
}

/// Replays `batch` through a plain `cnt_sim::Cache` with no observer.
fn replay_sim(batch: &AccessBatch) -> f64 {
    let geometry = CacheGeometry::new(32 * 1024, 64, 8).expect("static D-Cache geometry is valid");
    let mut cache = Cache::new("L1D", geometry, ReplacementKind::Lru);
    let mut memory = MainMemory::new();
    let t = Instant::now();
    for i in 0..batch.len() {
        let (addr, width) = (batch.addr(i), batch.width(i));
        let outcome = match batch.kind(i) {
            AccessKind::Write => {
                cache.write_outcome(addr, width, batch.values()[i], &mut memory, &mut ())
            }
            AccessKind::Read | AccessKind::InstrFetch => {
                cache.read_outcome(addr, width, &mut memory, &mut ())
            }
        };
        std::hint::black_box(outcome.expect("generated accesses are well-formed"));
    }
    cache.flush(&mut memory, &mut ());
    let s = t.elapsed().as_secs_f64();
    std::hint::black_box(cache.stats());
    s
}

/// Replays `batch` through a `CntCache`; returns seconds and report.
fn replay_cnt(config: &CntCacheConfig, batch: &AccessBatch) -> (f64, EnergyReport) {
    let mut cache = CntCache::new(config.clone()).expect("benchmark configs are valid");
    let t = Instant::now();
    cache
        .run_batch(batch)
        .expect("generated accesses are well-formed");
    cache.flush();
    let s = t.elapsed().as_secs_f64();
    (s, cache.into_report())
}

/// Reads and decodes every chunk of `path`; returns seconds and records.
fn decode_file(path: &Path, budget_bytes: usize) -> Result<(f64, u64), String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let opts = ReadOptions {
        budget_bytes,
        corruption: CorruptionPolicy::FailFast,
    };
    let t = Instant::now();
    let mut reader = StreamReader::new(BufReader::new(file), opts).map_err(|e| e.to_string())?;
    let mut batch = AccessBatch::new();
    let mut records = 0;
    while let Some(raw) = reader.next_raw().map_err(|e| e.to_string())? {
        raw.decode_batch(&mut batch).map_err(|e| e.to_string())?;
        records += batch.len() as u64;
    }
    Ok((t.elapsed().as_secs_f64(), records))
}

/// Seeded predictor inputs: paper-shaped lines, directions and window
/// summaries.
struct DecideInputs {
    predictor: DirectionPredictor,
    window: u32,
    lines: Vec<u64>,
    dirs: Vec<DirectionBits>,
}

impl DecideInputs {
    fn new(seed: u64) -> DecideInputs {
        const WORDS_PER_LINE: usize = 8;
        let config = PredictorConfig::paper_default();
        let predictor = DirectionPredictor::new(&BitEnergies::cnfet_default(), config)
            .expect("paper-default predictor is valid");
        let lines = (0..DECIDES * WORDS_PER_LINE)
            .map(|i| mix(seed, 0xDEC1_DE00 + i as u64))
            .collect();
        let dirs = (0..DECIDES)
            .map(|i| DirectionBits::from_mask(mix(seed, i as u64) & 0xFF, config.partitions))
            .collect();
        DecideInputs {
            predictor,
            window: config.window,
            lines,
            dirs,
        }
    }

    fn run(&self) -> f64 {
        let t = Instant::now();
        for (i, line) in self.lines.chunks_exact(8).enumerate() {
            let summary = WindowSummary {
                wr_num: (i % (self.window as usize + 1)) as u32,
            };
            std::hint::black_box(self.predictor.decide(summary, line, &self.dirs[i]));
        }
        t.elapsed().as_secs_f64()
    }
}

/// Runs the ledger over `inputs` for about `budget_s` seconds (at least
/// [`MIN_ROUNDS`] rounds).
///
/// # Errors
///
/// Any replay, decode or serve failure: the ledger is only meaningful
/// when every stack completed.
pub fn run(
    ctx: &Ctx,
    inputs: &LedgerInputs<'_>,
    budget_s: f64,
    tracer: &Tracer,
) -> Result<Vec<Metric>, String> {
    let cfgs = configs();
    let decide = DecideInputs::new(ctx.seed);
    let server = RunningServer::boot(ctx.work.join("ledger_serve_state"))?;
    let accesses: u64 = inputs.batches.iter().map(|b| b.len() as u64).sum();
    let file_bytes: u64 = inputs
        .files
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    let cells: Vec<(usize, usize)> = (0..inputs.batches.len())
        .flat_map(|k| (0..cfgs.len()).map(move |c| (k, c)))
        .collect();

    let mut rounds: Vec<Round> = Vec::new();
    let mut counts = Counts::default();
    let mut records = 0;
    let start = Instant::now();
    let result = (|| -> Result<(), String> {
        while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget_s {
            let mut r = Round::default();
            counts = Counts::default();
            records = 0;
            for batch in &inputs.batches {
                r.sim += tracer.time("ledger.sim", None, || replay_sim(batch));
                r.base += tracer
                    .time("ledger.base", None, || replay_cnt(&cfgs[0], batch))
                    .0;
                let (s, report) =
                    tracer.time("ledger.adaptive", None, || replay_cnt(&cfgs[1], batch));
                r.adaptive += s;
                counts.adaptive.push(report);
                r.secded += tracer
                    .time("ledger.secded", None, || replay_cnt(&cfgs[2], batch))
                    .0;
            }
            r.decide = tracer.time("ledger.decide", None, || decide.run());
            for path in &inputs.files {
                let (s, n) = tracer.time("ledger.decode", None, || {
                    decode_file(path, inputs.budget_bytes)
                })?;
                r.decode += s;
                records += n;
                let plain = tracer.time("ledger.two_pass", None, || {
                    offline(path, inputs.budget_bytes, None)
                })?;
                r.two_pass += plain.replay_s;
                counts.chunks += plain.outcome.cnt.ingest.chunks_read;
                counts.peak_buffered = counts
                    .peak_buffered
                    .max(plain.outcome.cnt.ingest.peak_buffered_bytes);
                let observed = tracer.time("ledger.observed", None, || {
                    offline(path, inputs.budget_bytes, Some(inputs.metrics_every))
                })?;
                r.observed += observed.replay_s;
                counts.snapshots += observed.snapshots as u64;
                let op = tracer.open("ledger.serve", None);
                let t = Instant::now();
                let s = session(&server.addr, path, inputs.metrics_every, tracer, op.at())
                    .map_err(|e| format!("ledger session: {e}"))?;
                r.serve += t.elapsed().as_secs_f64();
                op.end();
                forget(&server.state_dir, &s.done.session);
                // Sessions lease whole MiB, so the streamed ingest gauges
                // may differ from the offline replay's; the energies may not.
                let offline_fj = (
                    observed.outcome.base.report.total().femtojoules(),
                    observed.outcome.cnt.report.total().femtojoules(),
                );
                if (s.done.baseline_fj, s.done.cnt_fj) != offline_fj {
                    return Err(format!(
                        "ledger session of `{}` reported other energies than its offline replay",
                        path.display()
                    ));
                }
            }
            let pass = tracer.open("ledger.pool", None);
            let parent = pass.at();
            let t = Instant::now();
            let busy = pool::par_map(&cells, |&(k, c)| {
                let cell = tracer.open("ledger.pool.cell", parent);
                let t = Instant::now();
                std::hint::black_box(run_trace_batch(cfgs[c].clone(), inputs.batches[k]));
                let s = t.elapsed().as_secs_f64();
                cell.end();
                s
            });
            r.pool_wall = t.elapsed().as_secs_f64();
            pass.end();
            r.pool_busy = busy.iter().sum();
            rounds.push(r);
        }
        Ok(())
    })();
    server.stop();
    result?;

    let n = accesses.max(1) as f64;
    let jobs = ctx.jobs as f64;
    let timed = |name, unit, better, f: &dyn Fn(&Round) -> f64| {
        let per_round: Vec<f64> = rounds.iter().map(f).collect();
        Metric::new(name, unit, median(&per_round), better, "ledger".into())
    };
    let mut out = vec![
        timed("sim.ns_per_access", "ns", "lower", &|r| r.sim * 1e9 / n),
        timed("energy.meter_ns_per_access", "ns", "lower", &|r| {
            (r.base - r.sim) * 1e9 / n
        }),
        timed("encoding.adaptive_ns_per_access", "ns", "lower", &|r| {
            (r.adaptive - r.base) * 1e9 / n
        }),
        timed("encoding.decide_ns", "ns", "lower", &|r| {
            r.decide * 1e9 / DECIDES as f64
        }),
        timed("encoding.protect_ns_per_access", "ns", "lower", &|r| {
            (r.secded - r.adaptive) * 1e9 / n
        }),
        timed("trace.decode_ns_per_record", "ns", "lower", &|r| {
            r.decode * 1e9 / records.max(1) as f64
        }),
        timed("trace.read_mib_per_s", "MiB/s", "higher", &|r| {
            file_bytes as f64 / (1024.0 * 1024.0) / r.decode
        }),
        timed("bench.stream_overhead_ns_per_access", "ns", "lower", &|r| {
            (r.two_pass - 2.0 * r.decode - r.base - r.adaptive) * 1e9 / (2.0 * n)
        }),
        timed("bench.pool_busy_ratio", "ratio", "higher", &|r| {
            r.pool_busy / (r.pool_wall * jobs)
        }),
        timed("bench.pool_idle_ms", "ms", "lower", &|r| {
            (r.pool_wall * jobs - r.pool_busy) * 1e3
        }),
        timed("obs.ns_per_access", "ns", "lower", &|r| {
            (r.observed - r.two_pass) * 1e9 / (2.0 * n)
        }),
        timed("serve.overhead_ratio", "ratio", "lower", &|r| {
            r.serve / r.observed
        }),
    ];
    out.extend(count_metrics(&counts, inputs.budget_bytes));
    Ok(out)
}

/// The deterministic counts, from the adaptive reports and the streamed
/// replays of one round.
fn count_metrics(counts: &Counts, budget_bytes: usize) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&EnergyReport) -> f64| counts.adaptive.iter().map(f).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let count = |name, unit, better, value| Metric::new(name, unit, value, better, "count".into());
    vec![
        count(
            "sim.hit_rate",
            "ratio",
            "higher",
            ratio(
                sum(&|r| (r.stats.read_hits + r.stats.write_hits) as f64),
                sum(&|r| r.stats.accesses() as f64),
            ),
        ),
        count(
            "sim.writebacks",
            "count",
            "lower",
            sum(&|r| r.stats.writebacks as f64),
        ),
        count(
            "encoding.switches_applied",
            "count",
            "higher",
            sum(&|r| r.encoding.switches_applied as f64),
        ),
        count(
            "encoding.realized_over_projected",
            "ratio",
            "higher",
            ratio(
                sum(&|r| r.encoding.realized_saving_fj),
                sum(&|r| r.encoding.projected_saving_fj),
            ),
        ),
        count(
            "encoding.suppressed_ratio",
            "ratio",
            "lower",
            ratio(
                sum(&|r| r.encoding.suppressed_by_confirmation as f64),
                sum(&|r| r.encoding.windows as f64),
            ),
        ),
        count(
            "encoding.fifo_dropped",
            "count",
            "lower",
            sum(&|r| r.fifo.dropped as f64),
        ),
        count("trace.chunks", "count", "lower", counts.chunks as f64),
        count(
            "trace.peak_buffered_ratio",
            "ratio",
            "lower",
            counts.peak_buffered as f64 / budget_bytes as f64,
        ),
        count("obs.snapshots", "count", "lower", counts.snapshots as f64),
    ]
}
