//! The box record every result carries: which machine, toolchain and
//! code produced it, and how loaded the machine was.

use std::path::Path;
use std::process::Command;

use serde::Serialize;

/// Facts about the machine and the code under test.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BoxRecord {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of every source file under `crates/`, so a result
    /// names its code even where there is no git history.
    pub source_digest: String,
    /// 1-minute load average when the run started.
    pub load_start: f64,
    /// 1-minute load average when the run ended.
    pub load_end: f64,
    /// `true` when the machine was busier than it has cores at either
    /// end of the run; such a run is flagged, not dropped.
    pub overloaded: bool,
}

impl BoxRecord {
    /// Records the box at the start of a run; `root` is the repository
    /// checkout.
    #[must_use]
    pub fn capture(root: &Path) -> BoxRecord {
        let load = load_average();
        let nproc = cnt_bench::pool::default_jobs();
        BoxRecord {
            nproc,
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"], root)
                .unwrap_or_else(|| "unknown".into()),
            source_digest: format!("{:016x}", source_digest(&root.join("crates"))),
            load_start: load,
            load_end: load,
            overloaded: load > nproc as f64,
        }
    }

    /// Records the load average at the end of the run.
    pub fn finish(&mut self) {
        self.load_end = load_average();
        self.overloaded |= self.load_end > self.nproc as f64;
    }
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output; the child is waited for.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over (relative path, contents) of every `.rs` and `.toml`
/// file below `dir`, in sorted path order.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for path in files {
        if let Ok(rel) = path.strip_prefix(dir) {
            feed(rel.to_string_lossy().as_bytes());
        }
        if let Ok(bytes) = std::fs::read(&path) {
            feed(&bytes);
        }
    }
    hash
}
