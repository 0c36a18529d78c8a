//! Runs one workload: set-up (timed, repeated), references, the
//! measured interval, checks, and — in traced mode — the traced interval
//! and the per-layer ledger. Renders the result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Serialize;

use crate::boxinfo::BoxRecord;
use crate::calib::{self, Calibrator};
use crate::ledger;
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, quartiles, tail, Tally};
use crate::workloads::{Ctx, EnergyTotals, Measured, Op, Workload};

/// Points spread over the measured interval at which set-ups are
/// sampled (besides the set-up of the instance being measured). The
/// box's speed moves in phases of seconds, so set-ups taken together at
/// the start of a run would all see one phase. Set-up is compute
/// (generation and packing) on every workload, so each sample is
/// scaled like an op, by the calibration slots around it;
/// `setup_s` is the median of the scaled samples.
pub const SETUP_GAPS: usize = 8;

/// Set-up time sampled at each gap: set-ups repeat until this much has
/// been measured, so a cheap set-up is timed several times per gap.
pub const SETUP_GAP_BUDGET_S: f64 = 0.2;

/// Calibration slots timed just before and just after each set-up; a
/// set-up is scaled by the medians. One slot is a few milliseconds,
/// too short a look at the box's phase for a set-up that lasts half a
/// second.
pub const SETUP_SLOTS: usize = 5;

/// The paper's mean dynamic-power saving, printed beside the
/// `kernel-suite` saving for context only.
pub const PAPER_SAVING_PCT: f64 = 22.2;

/// A metric as printed and reported.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Which direction is better: `higher` or `lower`.
    pub better: &'static str,
    /// How it was measured.
    pub note: String,
}

impl Metric {
    /// A metric. A non-finite value (nothing was measured) reads 0.
    #[must_use]
    pub fn new(
        name: &str,
        unit: &'static str,
        value: f64,
        better: &'static str,
        note: String,
    ) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
            better,
            note,
        }
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Ops and checks.
    pub tally: Tally,
    /// Every end-to-end metric (from the untraced interval).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced mode only).
    pub per_layer: Vec<Metric>,
    /// Spans by name (traced mode only).
    pub spans: Vec<Span>,
}

/// Names of the end-to-end metrics the result line carries: those that
/// apply on every workload and are never 0.
pub const GATED: [&str; 5] = [
    "setup_s",
    "throughput_macc_per_s",
    "op_p50_ms",
    "op_tail_ms",
    "peak_rss_mib",
];

/// Process high-water resident memory, MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `W` for `seconds` (split in three when traced).
///
/// # Errors
///
/// Set-up or reference failures: nothing could be measured.
pub fn run_workload<W: Workload>(
    name: &'static str,
    ctx: &Ctx,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let tracer = Tracer::new(traced);
    let untraced = Tracer::new(false);

    // The live instance's set-up is the first set-up sample; more are
    // taken in the gaps of the measured interval.
    let mut calibrator = Calibrator::new(ctx.jobs);
    let mut setup = Setups::default();
    let mut w: W = setup.time(ctx, &tracer, &mut calibrator)?;
    if let Err(e) = w.prepare(ctx) {
        w.teardown();
        return Err(e);
    }

    let interval = if traced { seconds / 3.0 } else { seconds };
    let warm = w.measure(ctx, (seconds * 0.05).min(1.0), &untraced);
    let mut raw = Measured::default();
    let mut scaled = Measured::default();
    for gap in 0..SETUP_GAPS {
        match sample_setups_in_child(name, ctx, gap) {
            Ok(samples) => setup.merge(samples),
            Err(e) => {
                w.teardown();
                return Err(e);
            }
        }
        let (part_raw, part_scaled) = measure_calibrated(
            &mut w,
            ctx,
            interval / SETUP_GAPS as f64,
            &untraced,
            &mut calibrator,
        );
        raw.merge(part_raw);
        scaled.merge(part_scaled);
    }
    let calibrated = Calibrated {
        raw,
        scaled,
        calib_ns: median(calibrator.samples()),
    };
    let measured = &calibrated.raw;
    let mut tally = warm.tally;
    tally.merge(measured.tally);

    let mut per_layer = Vec::new();
    let mut span_list = Vec::new();
    if traced {
        let traced_run = w.measure(ctx, interval, &tracer);
        tally.merge(traced_run.tally);
        match ledger::run(ctx, &w.ledger_inputs(), interval, &tracer) {
            Ok(ledger) => {
                span_list = tracer.take();
                per_layer = layer_metrics(ledger, measured, &traced_run, &span_list);
            }
            Err(e) => {
                eprintln!("{name}: ledger failed: {e}");
                tally.check(false);
                span_list = tracer.take();
            }
        }
    }
    tally.merge(w.checks(ctx));
    let energy = w.energy();
    w.teardown();

    Ok(Outcome {
        workload: name,
        tally,
        end_to_end: end_to_end(name, &setup, &calibrated, &energy, tally),
        per_layer,
        spans: span_list,
    })
}

/// Set-up times of one run.
#[derive(Debug, Clone, Default)]
pub struct Setups {
    /// Host seconds as measured.
    pub raw_s: Vec<f64>,
    /// The same, scaled by the calibration slots around each set-up.
    pub scaled_s: Vec<f64>,
}

impl Setups {
    /// Runs one set-up of `W` between calibration slots and records its
    /// time.
    ///
    /// # Errors
    ///
    /// A failed set-up.
    pub fn time<W: Workload>(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        calibrator: &mut Calibrator,
    ) -> Result<W, String> {
        let slots = |calibrator: &mut Calibrator| {
            median(
                &(0..SETUP_SLOTS)
                    .map(|_| calibrator.sample())
                    .collect::<Vec<_>>(),
            )
        };
        let before = slots(calibrator);
        let t = Instant::now();
        let w = W::setup(ctx, tracer)?;
        let raw = t.elapsed().as_secs_f64();
        let after = slots(calibrator);
        self.raw_s.push(raw);
        self.scaled_s.push(raw * calib::factor(before, after));
        Ok(w)
    }

    /// Appends another set of samples.
    pub fn merge(&mut self, other: Setups) {
        self.raw_s.extend(other.raw_s);
        self.scaled_s.extend(other.scaled_s);
    }
}

/// Takes the set-up samples of gap `gap` in a child process (this
/// program, run with `--sample-setups`), so their memory never shares
/// a heap with the instance measured and `peak_rss_mib` stays the
/// measured run's own. Waits for the child.
fn sample_setups_in_child(name: &str, ctx: &Ctx, gap: usize) -> Result<Setups, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let work = ctx.work.join(format!("setup-{gap}"));
    let out = Command::new(exe)
        .arg("--workload")
        .arg(name)
        .arg("--seed")
        .arg(ctx.seed.to_string())
        .arg("--sample-setups")
        .arg(&work)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up sampler: {e}"))?;
    std::fs::remove_dir_all(&work).ok();
    if !out.status.success() {
        return Err(format!("set-up sampler exited with {}", out.status));
    }
    let mut samples = Setups::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut fields = line.split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(raw)), Some(Ok(scaled))) => {
                samples.raw_s.push(raw);
                samples.scaled_s.push(scaled);
            }
            _ => return Err(format!("set-up sampler printed `{line}`")),
        }
    }
    if samples.raw_s.is_empty() {
        return Err("set-up sampler printed nothing".into());
    }
    Ok(samples)
}

/// The child side of [`sample_setups_in_child`]: set-ups of `W` below
/// `ctx.work`, each into a directory of its own and torn down at once,
/// until [`SETUP_GAP_BUDGET_S`] of set-up time has been measured (at
/// least one). A first, untimed set-up grows the fresh process's heap,
/// so that cost, which follows the host's memory load more than the
/// program, is left out of the timed ones.
///
/// # Errors
///
/// A failed set-up.
pub fn sample_setups<W: Workload>(ctx: &Ctx) -> Result<Setups, String> {
    let mut setup = Setups::default();
    let mut calibrator = Calibrator::new(ctx.jobs);
    let tracer = Tracer::new(false);
    let warm = ctx.work.join("setup-warm");
    std::fs::create_dir_all(&warm)
        .map_err(|e| format!("cannot create `{}`: {e}", warm.display()))?;
    W::setup(
        &Ctx {
            work: warm.clone(),
            ..ctx.clone()
        },
        &tracer,
    )?
    .teardown();
    std::fs::remove_dir_all(&warm).ok();
    let mut spent = 0.0;
    let mut i = 0;
    while i == 0 || spent < SETUP_GAP_BUDGET_S {
        let work = ctx.work.join(format!("setup-{i}"));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create `{}`: {e}", work.display()))?;
        let sample = Ctx {
            work: work.clone(),
            ..ctx.clone()
        };
        setup
            .time::<W>(&sample, &tracer, &mut calibrator)
            .map(W::teardown)?;
        std::fs::remove_dir_all(&work).ok();
        spent += setup.raw_s.last().copied().unwrap_or(0.0);
        i += 1;
    }
    Ok(setup)
}

/// A measured interval, raw and scaled to the reference speed.
#[derive(Debug, Clone)]
pub struct Calibrated {
    /// Host times as measured.
    pub raw: Measured,
    /// Host times scaled to the reference speed: each op by the
    /// calibration slots around it.
    pub scaled: Measured,
    /// Median ns per access of the calibration kernel over the run.
    pub calib_ns: f64,
}

/// Measures `seconds` of `w`, one op (a pass for `kernel-suite`, a
/// session per client for `serve-loopback`) at a time with a
/// calibration slot between each; each op is scaled by the mean of the
/// slots just before and after it: the box's slow phases last seconds,
/// so the slots see the phase the op ran in. The slots are not part of
/// the measured interval. Returns the raw and the scaled interval.
fn measure_calibrated<W: Workload>(
    w: &mut W,
    ctx: &Ctx,
    seconds: f64,
    tracer: &Tracer,
    calibrator: &mut Calibrator,
) -> (Measured, Measured) {
    let mut before = calibrator.sample();
    let mut raw = Measured::default();
    let mut scaled = Measured::default();
    while raw.interval_s < seconds {
        let m = w.measure(ctx, 0.0, tracer);
        let after = calibrator.sample();
        let f = calib::factor(before, after);
        before = after;
        scaled.merge(Measured {
            ops: m
                .ops
                .iter()
                .map(|op| Op {
                    ms: op.ms * f,
                    accesses: op.accesses,
                })
                .collect(),
            pass_ms: m.pass_ms.iter().map(|ms| ms * f).collect(),
            interval_s: m.interval_s * f,
            tally: m.tally,
            ..Measured::default()
        });
        raw.merge(m);
    }
    (raw, scaled)
}

fn end_to_end(
    name: &str,
    setup: &Setups,
    c: &Calibrated,
    energy: &EnergyTotals,
    tally: Tally,
) -> Vec<Metric> {
    let raw = |v: f64| {
        format!(
            "; raw {v:.6}, calibration median {:.2} ns/access",
            c.calib_ns
        )
    };
    // The tail is over whole passes where a workload records them.
    let tail_of = |m: &Measured| {
        if m.pass_ms.is_empty() {
            tail(&m.latencies_ms())
        } else {
            tail(&m.pass_ms)
        }
    };
    let m = &c.scaled;
    let raw_latencies = c.raw.latencies_ms();
    let latencies = m.latencies_ms();
    let n = latencies.len();
    let throughput = |m: &Measured| m.sim_accesses() as f64 / m.interval_s / 1e6;
    let raw_throughput = throughput(&c.raw);
    let mut out = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setup.scaled_s),
            "lower",
            format!(
                "median of {} set-ups across the run, each scaled by the calibration around it; raw {:.6}",
                setup.scaled_s.len(),
                median(&setup.raw_s)
            ),
        ),
        Metric::new(
            "throughput_macc_per_s",
            "Macc/s",
            throughput(m),
            "higher",
            format!(
                "{} simulated accesses in {:.3} s{}",
                c.raw.sim_accesses(),
                c.raw.interval_s,
                raw(raw_throughput)
            ),
        ),
    ];
    if n > 0 {
        let quartiles = if n >= 2 {
            let (q1, q3) = quartiles(&latencies);
            format!(", quartiles {q1:.4}..{q3:.4}")
        } else {
            String::new()
        };
        out.push(Metric::new(
            "op_p50_ms",
            "ms",
            median(&latencies),
            "lower",
            format!("n={n}{quartiles}{}", raw(median(&raw_latencies))),
        ));
    }
    if let Some(t) = tail_of(m) {
        let over = if m.pass_ms.is_empty() {
            "ops"
        } else {
            "passes"
        };
        out.push(Metric::new(
            "op_tail_ms",
            "ms",
            t.value,
            "lower",
            format!(
                "p{} of {} {over}, beyond={}{}",
                t.percentile,
                t.samples,
                t.beyond,
                tail_of(&c.raw).map_or(String::new(), |t| raw(t.value))
            ),
        ));
    }
    if !m.first_snapshot_ms.is_empty() {
        out.push(Metric::new(
            "first_snapshot_p50_ms",
            "ms",
            median(&m.first_snapshot_ms),
            "lower",
            format!("n={}", m.first_snapshot_ms.len()),
        ));
    }
    let mut note = "simulated, deterministic".to_string();
    if name == "kernel-suite" {
        let _ = write!(
            note,
            "; mean per-kernel saving {:.2}% beside the paper's {PAPER_SAVING_PCT}% (context only, model unvalidated against hardware)",
            energy.mean_saving_pct
        );
    }
    out.push(Metric::new(
        "energy_saving_pct",
        "%",
        energy.saving_pct(),
        "higher",
        note,
    ));
    out.push(Metric::new(
        "failed_ratio",
        "ratio",
        tally.failed_ratio(),
        "lower",
        format!("{} failed of {} attempted", tally.failed, tally.attempted),
    ));
    out.push(Metric::new(
        "peak_rss_mib",
        "MiB",
        peak_rss_mib(),
        "lower",
        "process high-water resident memory".into(),
    ));
    out
}

/// Ledger entries plus the span-derived layer metrics and the tracing
/// overhead.
fn layer_metrics(
    mut out: Vec<Metric>,
    untraced: &Measured,
    traced: &Measured,
    span_list: &[Span],
) -> Vec<Metric> {
    let summary = spans::summarise(span_list);
    let span_median_ms = |name: &str| {
        summary.get(name).map_or(0.0, |s| {
            median(
                &s.durations_ns
                    .iter()
                    .map(|&d| d as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        })
    };
    // Set-up spans: the per-set-up total of each child, median over
    // set-ups.
    let setup_median_s = |child: &str| {
        let roots: Vec<u64> = span_list
            .iter()
            .filter(|s| s.name == "setup")
            .map(|s| s.id)
            .collect();
        let mut per: BTreeMap<u64, f64> = roots.iter().map(|&id| (id, 0.0)).collect();
        for s in span_list.iter().filter(|s| s.name == child) {
            if let Some(v) = per.get_mut(&s.parent) {
                *v += s.duration_ns() as f64 / 1e9;
            }
        }
        let values: Vec<f64> = per.into_values().collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };

    out.push(Metric::new(
        "serve.queued",
        "count",
        (untraced.queued + traced.queued) as f64,
        "lower",
        "opens the server answered `Queued`, both intervals".into(),
    ));
    for (name, span) in [
        ("serve.connect_ms", "serve.connect"),
        ("serve.admission_ms", "serve.admission"),
        ("serve.upload_ms", "serve.upload"),
        ("serve.first_snapshot_ms", "serve.first_snapshot"),
        ("serve.drain_ms", "serve.drain"),
    ] {
        let n = summary.get(span).map_or(0, |s| s.count);
        out.push(Metric::new(
            name,
            "ms",
            span_median_ms(span),
            "lower",
            format!("median of {n} `{span}` spans"),
        ));
    }
    out.push(Metric::new(
        "workloads.generate_s",
        "s",
        setup_median_s("workloads.generate"),
        "lower",
        "span in the measured instance's set-up".into(),
    ));
    out.push(Metric::new(
        "trace.pack_s",
        "s",
        setup_median_s("trace.pack"),
        "lower",
        "span in the measured instance's set-up".into(),
    ));
    let p50 = |m: &Measured| {
        if m.ops.is_empty() {
            0.0
        } else {
            median(&m.latencies_ms())
        }
    };
    let overhead_ms = p50(traced) - p50(untraced);
    out.push(Metric::new(
        "tracing.overhead_ms",
        "ms",
        overhead_ms,
        "lower",
        "traced minus untraced op p50".into(),
    ));
    out.push(Metric::new(
        "tracing.overhead_pct",
        "%",
        if p50(untraced) > 0.0 {
            100.0 * overhead_ms / p50(untraced)
        } else {
            0.0
        },
        "lower",
        "traced minus untraced op p50, share of untraced".into(),
    ));
    out
}

/// Human-readable lines for one outcome.
#[must_use]
pub fn render_table(o: &Outcome) -> String {
    let mut s = String::new();
    for m in &o.end_to_end {
        let _ = writeln!(
            s,
            "{:<12} {:<24} {:>16} {:<7} {:<6} {}",
            o.workload, m.name, m.value, m.unit, m.better, m.note
        );
    }
    for m in &o.per_layer {
        let _ = writeln!(
            s,
            "{:<12} {:<36} {:>16} {:<6} {:<6} {}",
            o.workload, m.name, m.value, m.unit, m.better, m.note
        );
    }
    if !o.spans.is_empty() {
        let _ = writeln!(
            s,
            "{:<12} {:<28} {:>8} {:>12} {:>12} {:>10}",
            o.workload, "span", "count", "total_ms", "self_ms", "p50_ms"
        );
        for (name, sum) in spans::summarise(&o.spans) {
            let p50 = median(
                &sum.durations_ns
                    .iter()
                    .map(|&d| d as f64 / 1e6)
                    .collect::<Vec<_>>(),
            );
            let _ = writeln!(
                s,
                "{:<12} {:<28} {:>8} {:>12.3} {:>12.3} {:>10.3}",
                o.workload,
                name,
                sum.count,
                sum.total_ns as f64 / 1e6,
                sum.self_ns as f64 / 1e6,
                p50
            );
        }
    }
    s
}

/// A metric as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Reported {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The last line of the command's output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResultLine {
    /// Every op and check was right.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, refused or wrong, plus failed run-wide checks.
    pub failed: u64,
    /// The gated end-to-end metrics, or every per-layer metric when
    /// traced, keyed by name.
    pub metrics: BTreeMap<String, Reported>,
}

/// The metrics a result line carries for one outcome, keyed by `prefix`
/// + name.
#[must_use]
pub fn result_metrics(o: &Outcome, traced: bool, prefix: &str) -> Vec<(String, Reported)> {
    let all = if traced { &o.per_layer } else { &o.end_to_end };
    all.iter()
        .filter(|m| traced || GATED.contains(&m.name.as_str()))
        .map(|m| {
            (
                format!("{prefix}{}", m.name),
                Reported {
                    value: m.value,
                    unit: m.unit,
                },
            )
        })
        .collect()
}

/// One workload of a run record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Every end-to-end and per-layer metric, with notes.
    pub metrics: Vec<Metric>,
}

/// The whole run, as written to the results directory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRecord {
    /// The machine and code that produced it.
    pub box_record: BoxRecord,
    /// The input seed.
    pub seed: u64,
    /// The requested measuring time.
    pub seconds: f64,
    /// One entry per workload run.
    pub workloads: Vec<WorkloadRecord>,
}

impl RunRecord {
    /// The record of `outcomes`.
    #[must_use]
    pub fn new(box_record: BoxRecord, seed: u64, seconds: f64, outcomes: &[Outcome]) -> Self {
        RunRecord {
            box_record,
            seed,
            seconds,
            workloads: outcomes
                .iter()
                .map(|o| WorkloadRecord {
                    workload: o.workload,
                    attempted: o.tally.attempted,
                    failed: o.tally.failed,
                    metrics: o.end_to_end.iter().chain(&o.per_layer).cloned().collect(),
                })
                .collect(),
        }
    }
}
