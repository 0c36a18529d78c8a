//! `serve-loopback`: an in-process `cnt_serve::Server` on 127.0.0.1,
//! driven closed-loop by `nproc` client threads. One op is one session:
//! connect, open, upload a `.ctr`, finish, then read events until
//! `Done`. The clients run in rounds of one session each, so the box's
//! speed can be calibrated between rounds. Each session's streamed metrics must be byte-identical to an
//! offline `run_two_pass` of the same file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cnt_bench::driver::{run_two_pass, stream_config_pair, SessionPlan, TwoPassOutcome};
use cnt_cache::EnergyReport;
use cnt_serve::proto::{Done, OpenSession};
use cnt_serve::{Client, ClientError, Event, Server, ServerConfig};
use cnt_sim::trace::AccessBatch;
use cnt_trace::{CorruptionPolicy, ReadOptions};

use super::{ms_since, Ctx, EnergyTotals, LedgerInputs, Measured, Op, Workload};
use crate::inputs::{self, BUDGET_BYTES, BUDGET_MIB};
use crate::spans::{SpanRef, Tracer};

/// Metrics epoch of every session: about a dozen obs frames per pass.
pub const METRICS_EVERY: u64 = 32_000;

/// How long a client waits on the server before the op counts as failed.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A server running on its own thread.
pub struct RunningServer {
    /// `127.0.0.1:<port>`.
    pub addr: String,
    /// Where sessions spool.
    pub state_dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl RunningServer {
    /// Boots a server with the default config apart from `state_dir`
    /// and a global budget that fits two sessions.
    ///
    /// # Errors
    ///
    /// Bind or state-directory failures.
    pub fn boot(state_dir: PathBuf) -> Result<RunningServer, String> {
        std::fs::remove_dir_all(&state_dir).ok();
        let cfg = ServerConfig {
            state_dir: state_dir.clone(),
            global_budget_mib: 2 * BUDGET_MIB,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag, None));
        Ok(RunningServer {
            addr,
            state_dir,
            shutdown,
            handle,
        })
    }

    /// Stops the accept loop, waits for every handler, and removes the
    /// state directory.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("serve-loopback: listener failed: {e}"),
            Err(_) => eprintln!("serve-loopback: server thread panicked"),
        }
        std::fs::remove_dir_all(&self.state_dir).ok();
    }
}

/// Removes a finished session's spool directory from `state_dir`.
pub fn forget(state_dir: &Path, session: &str) {
    std::fs::remove_dir_all(state_dir.join(session)).ok();
}

/// What one session returned.
pub struct Session {
    /// The server's summary.
    pub done: Done,
    /// Every streamed obs line, concatenated.
    pub metrics_jsonl: String,
    /// `finish` to the first obs frame, milliseconds.
    pub first_snapshot_ms: Option<f64>,
    /// Times the open was queued for budget.
    pub queued: u64,
}

/// Runs one session of `path` with a metrics epoch of `metrics_every`,
/// with spans around each client call.
///
/// # Errors
///
/// Any client or protocol failure, including a refusal.
pub fn session(
    addr: &str,
    path: &Path,
    metrics_every: u64,
    tracer: &Tracer,
    parent: Option<SpanRef>,
) -> Result<Session, ClientError> {
    let trace_bytes = std::fs::metadata(path)
        .map_err(|e| ClientError::Trace(format!("`{}`: {e}", path.display())))?
        .len();
    let mut client = tracer.time("serve.connect", parent, || Client::connect(addr))?;
    client.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    let mut queued = 0;
    let open = OpenSession {
        budget_mib: BUDGET_MIB,
        metrics_every,
        trace_bytes,
        workload: None,
    };
    tracer.time("serve.admission", parent, || {
        client.open(&open, |_| queued += 1)
    })?;
    tracer.time("serve.upload", parent, || client.send_trace_file(path))?;
    client.finish()?;
    let finished = Instant::now();
    let mut first = Some(tracer.open("serve.first_snapshot", parent));
    let mut drain = None;
    let mut first_snapshot_ms = None;
    let mut metrics_jsonl = String::new();
    loop {
        match client.recv_event()? {
            Event::Obs(line) => {
                if let Some(span) = first.take() {
                    span.end();
                    first_snapshot_ms = Some(ms_since(finished));
                    drain = Some(tracer.open("serve.drain", parent));
                }
                metrics_jsonl.push_str(&line);
            }
            Event::Done(done) => {
                drop(first);
                drop(drain);
                return Ok(Session {
                    done,
                    metrics_jsonl,
                    first_snapshot_ms,
                    queued,
                });
            }
            Event::Status(_) | Event::Warning(_) => {}
        }
    }
}

/// An in-process two-pass replay of one file.
pub struct Offline {
    /// Both passes' outcomes.
    pub outcome: TwoPassOutcome,
    /// The metrics JSONL (empty when unobserved).
    pub jsonl: String,
    /// Snapshots recorded.
    pub snapshots: usize,
    /// Host seconds spent inside `run_two_pass`.
    pub replay_s: f64,
}

/// The offline counterpart of a session: `run_two_pass` of `path` at
/// `budget_bytes`, under a thread-local metrics sink when
/// `metrics_every` is given, on a fresh thread exactly as the server
/// runs each session.
///
/// # Errors
///
/// A replay or serialisation failure, as text.
pub fn offline(
    path: &Path,
    budget_bytes: usize,
    metrics_every: Option<u64>,
) -> Result<Offline, String> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let (base_cfg, cnt_cfg) = stream_config_pair();
                let guard = metrics_every.map(|every| cnt_obs::install_local(every, None));
                let plan = SessionPlan {
                    input: path,
                    opts: ReadOptions {
                        budget_bytes,
                        corruption: CorruptionPolicy::FailFast,
                    },
                    base_cfg: &base_cfg,
                    cnt_cfg: &cnt_cfg,
                    metrics_every,
                    checkpoint: None,
                    cancel: None,
                };
                let t = Instant::now();
                let outcome = run_two_pass(plan, None).map_err(|e| e.to_string())?;
                let replay_s = t.elapsed().as_secs_f64();
                let snapshots = guard
                    .map(cnt_obs::LocalSinkGuard::finish)
                    .unwrap_or_default();
                let jsonl = cnt_obs::to_jsonl(&snapshots).map_err(|e| e.to_string())?;
                Ok(Offline {
                    outcome,
                    jsonl,
                    snapshots: snapshots.len(),
                    replay_s,
                })
            })
            .join()
            .unwrap_or_else(|_| Err("offline replay panicked".into()))
    })
}

/// What the client threads share: where the server is, and each
/// upload with what its session must return.
struct Uploads {
    addr: String,
    state_dir: PathBuf,
    files: Vec<PathBuf>,
    /// Demand accesses of each upload.
    accesses: Vec<u64>,
    /// Offline metrics JSONL and (baseline, adaptive) reports per file.
    reference: Vec<(String, EnergyReport, EnergyReport)>,
}

/// One stretch of closed-loop sessions for a client thread.
struct Job {
    start: Instant,
    seconds: f64,
    tracer: Tracer,
}

/// The `nproc` client threads. They live as long as the workload, so
/// the measured interval can be taken in several parts without starting
/// new threads for each: every fresh thread leaves allocator memory
/// behind, and peak RSS would creep with the number of parts.
struct ClientPool {
    uploads: Arc<Uploads>,
    jobs: Vec<mpsc::Sender<Job>>,
    done: mpsc::Receiver<Measured>,
    handles: Vec<JoinHandle<()>>,
}

impl ClientPool {
    fn start(uploads: &Arc<Uploads>, clients: usize) -> ClientPool {
        let (done_tx, done) = mpsc::channel();
        let mut jobs = Vec::new();
        let mut handles = Vec::new();
        for c in 0..clients {
            let (tx, rx) = mpsc::channel::<Job>();
            let uploads = Arc::clone(uploads);
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut n = 0;
                for job in rx {
                    let m = uploads.client_loop(c, clients, &mut n, &job);
                    if done_tx.send(m).is_err() {
                        return;
                    }
                }
            }));
            jobs.push(tx);
        }
        ClientPool {
            uploads: Arc::clone(uploads),
            jobs,
            done,
            handles,
        }
    }

    /// Runs every client for `seconds`; merges what they measured.
    fn run(&self, seconds: f64, tracer: &Tracer) -> Measured {
        let start = Instant::now();
        for tx in &self.jobs {
            tx.send(Job {
                start,
                seconds,
                tracer: tracer.clone(),
            })
            .expect("client thread");
        }
        let mut m = Measured::default();
        for _ in &self.jobs {
            m.merge(self.done.recv().expect("client thread"));
        }
        m.interval_s = start.elapsed().as_secs_f64();
        m
    }

    /// Ends every client thread and waits for it.
    fn stop(self) {
        drop(self.jobs);
        for h in self.handles {
            if h.join().is_err() {
                eprintln!("serve-loopback: client thread panicked");
            }
        }
    }
}

/// Set-up state of `serve-loopback`.
pub struct ServeLoopback {
    files: Vec<PathBuf>,
    batches: Vec<AccessBatch>,
    server: RunningServer,
    /// Started once the references exist.
    clients: Option<ClientPool>,
}
impl Workload for ServeLoopback {
    fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let root = tracer.open("setup", None);
        // One upload at a time, so only one full trace is held at once.
        let mut files = Vec::new();
        let mut batches = Vec::new();
        for (i, spec) in inputs::serve_specs(ctx.seed).iter().enumerate() {
            let trace = tracer.time("workloads.generate", root.at(), || spec.generate());
            let path = ctx.work.join(format!("serve-{i}.ctr"));
            tracer
                .time("trace.pack", root.at(), || inputs::pack_file(&trace, &path))
                .map_err(|e| format!("packing upload {i}: {e}"))?;
            files.push(path);
            batches.push(AccessBatch::from_trace(&trace));
        }
        let server = tracer.time("serve.boot", root.at(), || {
            RunningServer::boot(ctx.work.join("serve_state"))
        })?;
        Ok(ServeLoopback {
            files,
            batches,
            server,
            clients: None,
        })
    }

    fn prepare(&mut self, ctx: &Ctx) -> Result<(), String> {
        let reference = self
            .files
            .iter()
            .map(|path| {
                offline(path, BUDGET_BYTES, Some(METRICS_EVERY))
                    .map(|off| (off.jsonl, off.outcome.base.report, off.outcome.cnt.report))
            })
            .collect::<Result<_, _>>()?;
        let uploads = Arc::new(Uploads {
            addr: self.server.addr.clone(),
            state_dir: self.server.state_dir.clone(),
            files: self.files.clone(),
            accesses: self.batches.iter().map(|b| b.len() as u64).collect(),
            reference,
        });
        self.clients = Some(ClientPool::start(&uploads, ctx.jobs.max(1)));
        Ok(())
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64, tracer: &Tracer) -> Measured {
        self.clients
            .as_ref()
            .expect("prepared before measuring")
            .run(seconds, tracer)
    }

    fn energy(&self) -> EnergyTotals {
        self.clients
            .as_ref()
            .map_or_else(EnergyTotals::default, |pool| {
                EnergyTotals::from_pairs(
                    pool.uploads
                        .reference
                        .iter()
                        .map(|(_, base, cnt)| (base, cnt)),
                )
            })
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
        if let Some(pool) = self.clients {
            pool.stop();
        }
        self.server.stop();
        for path in &self.files {
            std::fs::remove_file(path).ok();
        }
    }
}

impl Uploads {
    /// One client's closed loop: back-to-back sessions until the job's
    /// interval ends (at least one), rotating through the uploads from
    /// where this client's previous job left off (`n` sessions so far).
    fn client_loop(&self, client: usize, clients: usize, n: &mut usize, job: &Job) -> Measured {
        let mut m = Measured::default();
        loop {
            let file = (*n * clients + client) % self.files.len();
            *n += 1;
            let op = job.tracer.open("serve.session", None);
            let t = Instant::now();
            let result = session(
                &self.addr,
                &self.files[file],
                METRICS_EVERY,
                &job.tracer,
                op.at(),
            );
            let ms = ms_since(t);
            op.end();
            let (jsonl, base, cnt) = &self.reference[file];
            let ok = match &result {
                Ok(s) => {
                    m.queued += s.queued;
                    m.first_snapshot_ms.extend(s.first_snapshot_ms);
                    forget(&self.state_dir, &s.done.session);
                    s.metrics_jsonl == *jsonl
                        && s.done.accesses == self.accesses[file]
                        && s.done.baseline_fj == base.total().femtojoules()
                        && s.done.cnt_fj == cnt.total().femtojoules()
                }
                Err(e) => {
                    eprintln!("serve-loopback: session failed: {e}");
                    false
                }
            };
            let accesses = match &result {
                Ok(s) if ok => 2 * s.done.accesses,
                _ => 0,
            };
            m.ops.push(Op { ms, accesses });
            m.tally.record(ok);
            if job.start.elapsed().as_secs_f64() >= job.seconds {
                return m;
            }
        }
    }
}
