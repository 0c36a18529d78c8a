//! The CNT-Cache benchmark command.
//!
//! ```text
//! perfbench [--workload file-replay|kernel-suite|serve-loopback|all]
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any op or check produced a wrong result, 2 on a usage
//! or set-up error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cnt_perfbench::boxinfo::BoxRecord;
use cnt_perfbench::inputs::{DEFAULT_SEED, HELD_OUT_SEED};
use cnt_perfbench::run::{self, Outcome, ResultLine, RunRecord};
use cnt_perfbench::workloads::file_replay::FileReplay;
use cnt_perfbench::workloads::kernel_suite::KernelSuite;
use cnt_perfbench::workloads::serve_loopback::ServeLoopback;
use cnt_perfbench::workloads::{Ctx, NAMES};

const USAGE: &str = "usage: perfbench [--workload file-replay|kernel-suite|serve-loopback|all] \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set when the benchmark runs itself to take set-up samples in a
    /// directory of their own: see `run::sample_setups`.
    sample_setups: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        sample_setups: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--sample-setups" => args.sample_setups = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn run_one(name: &str, ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    match name {
        "file-replay" => {
            run::run_workload::<FileReplay>("file-replay", ctx, args.seconds, args.trace)
        }
        "kernel-suite" => {
            run::run_workload::<KernelSuite>("kernel-suite", ctx, args.seconds, args.trace)
        }
        "serve-loopback" => {
            run::run_workload::<ServeLoopback>("serve-loopback", ctx, args.seconds, args.trace)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The child side of set-up sampling: prints `raw scaled` seconds, one
/// set-up a line.
fn sample_setups(args: &Args, root: PathBuf, work: &Path) -> ExitCode {
    let jobs = cnt_bench::pool::default_jobs();
    cnt_bench::pool::set_jobs(jobs);
    let ctx = Ctx {
        seed: args.seed,
        jobs,
        root,
        work: work.to_path_buf(),
    };
    let samples = match args.workload.as_str() {
        "file-replay" => run::sample_setups::<FileReplay>(&ctx),
        "kernel-suite" => run::sample_setups::<KernelSuite>(&ctx),
        "serve-loopback" => run::sample_setups::<ServeLoopback>(&ctx),
        other => Err(format!("cannot sample set-ups of `{other}`")),
    };
    match samples {
        Ok(samples) => {
            for (raw, scaled) in samples.raw_s.iter().zip(&samples.scaled_s) {
                println!("{raw} {scaled}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf();
    if let Some(work) = &args.sample_setups {
        return sample_setups(&args, root, work);
    }
    let mut boxrec = BoxRecord::capture(&root);
    let jobs = boxrec.nproc;
    cnt_bench::pool::set_jobs(jobs);

    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let results = root.join(".bench_work").join("results");
    let mut outcomes = Vec::new();
    for name in &names {
        let work = root
            .join(".bench_work")
            .join(format!("run-{}-{name}", std::process::id()));
        if let Err(e) = std::fs::create_dir_all(&work) {
            eprintln!("error: cannot create `{}`: {e}", work.display());
            return ExitCode::from(2);
        }
        let ctx = Ctx {
            seed: args.seed,
            jobs,
            root: root.clone(),
            work: work.clone(),
        };
        let outcome = run_one(name, &ctx, &args);
        std::fs::remove_dir_all(&work).ok();
        match outcome {
            Ok(o) => {
                print!("{}", run::render_table(&o));
                outcomes.push(o);
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    boxrec.finish();

    println!(
        "box nproc={} cpu={:?} rustc={:?} commit={} source_digest={} load_start={} load_end={} overloaded={}",
        boxrec.nproc,
        boxrec.cpu_model,
        boxrec.rustc,
        boxrec.commit,
        boxrec.source_digest,
        boxrec.load_start,
        boxrec.load_end,
        boxrec.overloaded
    );
    println!(
        "seeds: default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}; this run {}",
        args.seed
    );

    // Results and spans stay in the checkout for later inspection.
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&results).is_ok() {
        let record = RunRecord::new(boxrec, args.seed, args.seconds, &outcomes);
        if let Ok(text) = serde_json::to_string(&record) {
            std::fs::write(results.join(format!("{tag}.json")), text + "\n").ok();
        }
        let spans: String = outcomes
            .iter()
            .flat_map(|o| &o.spans)
            .filter_map(|span| serde_json::to_string(span).ok())
            .map(|line| line + "\n")
            .collect();
        if !spans.is_empty() {
            std::fs::write(results.join(format!("{tag}.spans.jsonl")), spans).ok();
        }
    }

    let mut line = ResultLine {
        correct: outcomes.iter().all(|o| o.tally.all_ok()),
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for o in &outcomes {
        line.attempted += o.tally.attempted;
        line.failed += o.tally.failed;
        let prefix = if outcomes.len() > 1 {
            format!("{}.", o.workload)
        } else {
            String::new()
        };
        line.metrics
            .extend(run::result_metrics(o, args.trace, &prefix));
    }
    let correct = line.correct;
    match serde_json::to_string(&line) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("error: result line: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
