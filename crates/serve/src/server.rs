//! The job daemon: dedup, scheduling, streaming, and crash recovery.
//!
//! One [`Server`] owns three maps behind a single mutex — jobs by id,
//! chase points by cache key, and a FIFO work queue — plus a bounded worker
//! pool sized to the `LATENCY_THREADS` budget. Submissions dedup at two
//! levels:
//!
//! * **job level** — an identical spec (same [`JobSpec::job_id`]) joins the
//!   existing job instead of spawning a second one; every attached client
//!   receives the same result line, byte for byte;
//! * **point level** — distinct jobs sharing a grid point (same
//!   `latency_core::chase_key`) wait on one in-flight execution, and the
//!   measurement fans out to all of them.
//!
//! Durability: each accepted job persists its canonical spec under
//! `state/jobs/<id>/spec.json` before any work runs, terminal results land
//! atomically in `result.json`, and BFS jobs checkpoint the whole GPU into
//! `ckpt/` via [`Gpu::run_checkpointed`]. On boot, [`Server::recover`]
//! rescans the tree: finished jobs reload their result lines, unfinished
//! ones re-enqueue (BFS resuming from the newest checkpoint), so a kill -9
//! mid-job costs at most one checkpoint interval of re-simulation and the
//! final result is bit-identical to an uninterrupted run.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use gpu_sim::{CheckpointPolicy, GpuConfig, RunOutcome};
use gpu_snapshot::{store, StableHasher};
use gpu_workloads::{BfsExperiment, Workload};
use latency_core::{chase_key, measure_chase, ChaseMeasurement, ChaseParams};

use crate::proto::{
    accepted_event, cancelled_event, error_event, event, format_job_id, parse_request,
    progress_event, status_event, LineReader, Request,
};
use crate::spec::{JobKind, JobSpec, SPEC_VERSION};

/// How the daemon is laid out on disk and how wide its pool is.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the persistent state: `cache/`, `jobs/`, `serve.addr`.
    pub state_dir: PathBuf,
    /// Worker threads executing grid points and BFS jobs.
    pub workers: usize,
}

impl ServerConfig {
    /// Config with the default pool width: the `LATENCY_THREADS` budget
    /// ([`latency_core::worker_count`]).
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            state_dir: state_dir.into(),
            workers: latency_core::worker_count(),
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobPhase {
    fn as_str(self) -> &'static str {
        match self {
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// A subscriber receives event lines; the flag marks the terminal one.
type StreamMsg = (String, bool);

struct Job {
    spec: JobSpec,
    phase: JobPhase,
    total: usize,
    done: usize,
    results: Vec<Option<ChaseMeasurement>>,
    result_line: Option<String>,
    subscribers: Vec<Sender<StreamMsg>>,
}

/// A chase point is executed at most once per daemon lifetime; jobs arriving
/// while it is in flight just add themselves as waiters.
enum PointState {
    InFlight(Vec<(u64, usize)>),
    Done(ChaseMeasurement),
}

enum Task {
    Point {
        key: u64,
        config: Arc<GpuConfig>,
        params: ChaseParams,
    },
    Bfs {
        job: u64,
    },
}

#[derive(Default)]
struct Inner {
    jobs: HashMap<u64, Job>,
    points: HashMap<u64, PointState>,
    queue: VecDeque<Task>,
}

/// Daemon-wide monotonic counters, exposed by the `stats` command. All
/// simulation-pure: none depend on wall-clock time.
#[derive(Default)]
struct Counters {
    jobs_submitted: AtomicU64,
    jobs_deduped: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_recovered: AtomicU64,
    points_requested: AtomicU64,
    points_executed: AtomicU64,
    points_deduped: AtomicU64,
}

/// What a submit produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// The job's deterministic id.
    pub job: u64,
    /// `"running"` or `"done"` (everything already cached / deduped onto a
    /// finished job).
    pub state: &'static str,
    /// Grid points (1 for BFS).
    pub total: usize,
    /// True when this submit joined an existing job instead of creating one.
    pub deduped: bool,
}

/// Result of attaching to a job's event stream.
pub enum WatchAttach {
    /// No such job.
    Unknown,
    /// The job already ended; here is its terminal line.
    Terminal(String),
    /// The job is live: an initial status line plus the event stream.
    Stream(String, Receiver<StreamMsg>),
}

/// The daemon state shared by every connection and worker.
pub struct Server {
    cfg: ServerConfig,
    inner: Mutex<Inner>,
    work: Condvar,
    counters: Counters,
    shutdown: AtomicBool,
}

impl Server {
    /// Creates the on-disk layout and points the process-global chase cache
    /// at `state/cache`, so every worker's `measure_chase` goes through the
    /// content-addressed store.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(cfg: ServerConfig) -> std::io::Result<Arc<Server>> {
        std::fs::create_dir_all(cfg.state_dir.join("jobs"))?;
        std::fs::create_dir_all(cfg.state_dir.join("cache"))?;
        latency_core::set_cache_dir(cfg.state_dir.join("cache"));
        Ok(Arc::new(Server {
            cfg,
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        }))
    }

    fn jobs_root(&self) -> PathBuf {
        self.cfg.state_dir.join("jobs")
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.jobs_root().join(format_job_id(id))
    }

    /// Scans `state/jobs` on boot: jobs with a persisted result reload it,
    /// unfinished jobs re-enqueue (sweeps rebuild from the chase cache, BFS
    /// resumes from its newest checkpoint). Returns how many jobs were
    /// re-enqueued.
    pub fn recover(self: &Arc<Self>) -> usize {
        let Ok(entries) = std::fs::read_dir(self.jobs_root()) else {
            return 0;
        };
        let mut resumed = 0;
        for entry in entries.flatten() {
            let dir = entry.path();
            let Some(id) = entry
                .file_name()
                .to_str()
                .and_then(crate::proto::parse_job_id)
            else {
                continue;
            };
            let Ok(spec_text) = std::fs::read_to_string(dir.join("spec.json")) else {
                continue;
            };
            let Ok(spec) = JobSpec::parse_str(&spec_text) else {
                continue;
            };
            if spec.job_id() != id {
                // A corrupted or hand-edited spec must not be served under
                // the old identity.
                continue;
            }
            if let Ok(line) = std::fs::read_to_string(dir.join("result.json")) {
                let total = match &spec.kind {
                    JobKind::Sweep { .. } => spec.kind.sweep_points().len(),
                    JobKind::Bfs { .. } => 1,
                };
                let mut inner = self.inner.lock().unwrap();
                inner.jobs.insert(
                    id,
                    Job {
                        spec,
                        phase: JobPhase::Done,
                        total,
                        done: total,
                        results: Vec::new(),
                        result_line: Some(line.trim_end().to_string()),
                        subscribers: Vec::new(),
                    },
                );
                continue;
            }
            let Ok(config) = spec.build_config() else {
                continue;
            };
            self.counters.jobs_recovered.fetch_add(1, Ordering::Relaxed);
            if self.admit(spec, config, false).is_ok() {
                resumed += 1;
            }
        }
        resumed
    }

    /// Submits a job, deduping against live and finished ones.
    ///
    /// # Errors
    ///
    /// Propagates the spec-persistence write failure (the job is not
    /// admitted in that case).
    pub fn submit(&self, spec: JobSpec, config: GpuConfig) -> std::io::Result<Submission> {
        self.admit(spec, config, true)
    }

    fn admit(
        &self,
        spec: JobSpec,
        config: GpuConfig,
        persist: bool,
    ) -> std::io::Result<Submission> {
        let id = spec.job_id();
        let config = Arc::new(config);
        let mut inner = self.inner.lock().unwrap();
        if let Some(job) = inner.jobs.get(&id) {
            match job.phase {
                JobPhase::Running | JobPhase::Done => {
                    self.counters.jobs_deduped.fetch_add(1, Ordering::Relaxed);
                    return Ok(Submission {
                        job: id,
                        state: job.phase.as_str(),
                        total: job.total,
                        deduped: true,
                    });
                }
                // A failed or cancelled job may be resubmitted fresh.
                JobPhase::Failed | JobPhase::Cancelled => {
                    inner.jobs.remove(&id);
                }
            }
        }
        if persist {
            self.counters.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            let dir = self.job_dir(id);
            std::fs::create_dir_all(&dir)?;
            store::write_atomic(&dir.join("spec.json"), spec.canonical_json().as_bytes())?;
        }
        let points = spec.kind.sweep_points();
        let is_sweep = matches!(spec.kind, JobKind::Sweep { .. });
        let total = if is_sweep { points.len() } else { 1 };
        inner.jobs.insert(
            id,
            Job {
                spec,
                phase: JobPhase::Running,
                total,
                done: 0,
                results: vec![None; total],
                result_line: None,
                subscribers: Vec::new(),
            },
        );
        if is_sweep {
            self.counters
                .points_requested
                .fetch_add(total as u64, Ordering::Relaxed);
            let mut ready = Vec::new();
            for (idx, params) in points.iter().enumerate() {
                let key = chase_key(&config, params);
                match inner.points.get_mut(&key) {
                    Some(PointState::Done(m)) => {
                        self.counters.points_deduped.fetch_add(1, Ordering::Relaxed);
                        ready.push((idx, *m));
                    }
                    Some(PointState::InFlight(waiters)) => {
                        self.counters.points_deduped.fetch_add(1, Ordering::Relaxed);
                        waiters.push((id, idx));
                    }
                    None => {
                        inner
                            .points
                            .insert(key, PointState::InFlight(vec![(id, idx)]));
                        inner.queue.push_back(Task::Point {
                            key,
                            config: Arc::clone(&config),
                            params: *params,
                        });
                        self.work.notify_one();
                    }
                }
            }
            let mut finalize = false;
            for (idx, m) in ready {
                finalize |= self.record_point(&mut inner, id, idx, &m);
            }
            if finalize {
                self.finalize_sweep(&mut inner, id);
            }
        } else {
            inner.queue.push_back(Task::Bfs { job: id });
            self.work.notify_one();
        }
        let state = inner.jobs[&id].phase.as_str();
        Ok(Submission {
            job: id,
            state,
            total,
            deduped: false,
        })
    }

    /// Records one measured point into a job; true when the job is now
    /// complete and needs finalizing.
    fn record_point(
        &self,
        inner: &mut Inner,
        job_id: u64,
        idx: usize,
        m: &ChaseMeasurement,
    ) -> bool {
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return false;
        };
        if job.phase != JobPhase::Running || job.results[idx].is_some() {
            return false;
        }
        job.results[idx] = Some(*m);
        job.done += 1;
        if job.done < job.total {
            if !job.subscribers.is_empty() {
                let line = progress_event(job_id, job.done, job.total);
                job.subscribers
                    .retain(|s| s.send((line.clone(), false)).is_ok());
            }
            false
        } else {
            true
        }
    }

    /// Builds, persists, and fans out a completed sweep's result line.
    fn finalize_sweep(&self, inner: &mut Inner, job_id: u64) {
        let job = inner.jobs.get_mut(&job_id).expect("finalizing unknown job");
        let line = sweep_result_line(job_id, &job.spec, &job.results);
        self.finish_job(job_id, job, line, JobPhase::Done, true);
    }

    /// Common terminal transition: persist (for successes), notify, count.
    fn finish_job(&self, job_id: u64, job: &mut Job, line: String, phase: JobPhase, persist: bool) {
        if persist {
            let path = self.job_dir(job_id).join("result.json");
            if let Err(e) = store::write_atomic(&path, line.as_bytes()) {
                eprintln!("serve: failed to persist {}: {e}", path.display());
            }
        }
        job.phase = phase;
        job.result_line = Some(line.clone());
        for sub in job.subscribers.drain(..) {
            let _ = sub.send((line.clone(), true));
        }
        let counter = match phase {
            JobPhase::Done => &self.counters.jobs_completed,
            JobPhase::Failed => &self.counters.jobs_failed,
            JobPhase::Cancelled => &self.counters.jobs_cancelled,
            JobPhase::Running => unreachable!("finish_job to a live phase"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn fail_job(&self, inner: &mut Inner, job_id: u64, message: &str) {
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return;
        };
        if job.phase != JobPhase::Running {
            return;
        }
        let mut w = event("result", Some(job_id));
        w.field("status", "failed").field("error", message);
        let line = w.finish();
        // Failures are not persisted: the spec stays on disk, so a restart
        // retries the job (transient errors heal; deterministic ones fail
        // again and keep reporting).
        self.finish_job(job_id, job, line, JobPhase::Failed, false);
    }

    /// One-shot state query.
    pub fn status(&self, job_id: u64) -> Option<(String, usize, usize)> {
        let inner = self.inner.lock().unwrap();
        inner
            .jobs
            .get(&job_id)
            .map(|j| (j.phase.as_str().to_string(), j.done, j.total))
    }

    /// Attaches to a job's event stream.
    pub fn attach_watch(&self, job_id: u64) -> WatchAttach {
        let mut inner = self.inner.lock().unwrap();
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return WatchAttach::Unknown;
        };
        match job.phase {
            JobPhase::Running => {
                let (tx, rx) = channel();
                job.subscribers.push(tx);
                WatchAttach::Stream(
                    status_event(job_id, job.phase.as_str(), job.done, job.total),
                    rx,
                )
            }
            JobPhase::Cancelled => WatchAttach::Terminal(cancelled_event(job_id)),
            JobPhase::Done | JobPhase::Failed => WatchAttach::Terminal(
                job.result_line
                    .clone()
                    .unwrap_or_else(|| error_event("lost_result", "job ended without a result")),
            ),
        }
    }

    /// Cancels a queued or running job. Shared in-flight points keep
    /// running (another job may need them); this job stops listening, its
    /// persisted spec is removed so a restart will not resurrect it.
    pub fn cancel(&self, job_id: u64) -> Option<&'static str> {
        let mut inner = self.inner.lock().unwrap();
        let job = inner.jobs.get_mut(&job_id)?;
        match job.phase {
            JobPhase::Running => {
                let line = cancelled_event(job_id);
                self.finish_job(job_id, job, line, JobPhase::Cancelled, false);
                let _ = std::fs::remove_dir_all(self.job_dir(job_id));
                Some("cancelled")
            }
            phase => Some(phase.as_str()),
        }
    }

    /// The `stats` event line: every daemon counter plus the chase-cache
    /// counters, all simulation-pure.
    pub fn stats_line(&self) -> String {
        let c = &self.counters;
        let cache = latency_core::cache_stats();
        let queue_depth = self.inner.lock().unwrap().queue.len();
        let n = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut w = event("stats", None);
        w.field("jobs_submitted", n(&c.jobs_submitted))
            .field("jobs_deduped", n(&c.jobs_deduped))
            .field("jobs_completed", n(&c.jobs_completed))
            .field("jobs_failed", n(&c.jobs_failed))
            .field("jobs_cancelled", n(&c.jobs_cancelled))
            .field("jobs_recovered", n(&c.jobs_recovered))
            .field("points_requested", n(&c.points_requested))
            .field("points_executed", n(&c.points_executed))
            .field("points_deduped", n(&c.points_deduped))
            .field("queue_depth", queue_depth)
            .field("cache", cache);
        w.finish()
    }

    /// Asks every worker and acceptor loop to wind down.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
    }

    /// True once [`Server::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Spawns the worker pool.
    pub fn start_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|i| {
                let server = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || server.worker_loop())
                    .expect("spawn worker")
            })
            .collect()
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            let task = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if let Some(task) = inner.queue.pop_front() {
                        break task;
                    }
                    if self.is_shutdown() {
                        return;
                    }
                    inner = self.work.wait(inner).unwrap();
                }
            };
            match task {
                Task::Point {
                    key,
                    config,
                    params,
                } => self.execute_point(key, &config, &params),
                Task::Bfs { job } => self.execute_bfs(job),
            }
        }
    }

    fn execute_point(&self, key: u64, config: &GpuConfig, params: &ChaseParams) {
        // `measure_chase` consults the content-addressed cache itself, so a
        // point already on disk costs one read, not a simulation.
        let result = measure_chase(config, params);
        self.counters
            .points_executed
            .fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        let waiters = match inner.points.get_mut(&key) {
            Some(PointState::InFlight(w)) => std::mem::take(w),
            _ => Vec::new(),
        };
        match result {
            Ok(m) => {
                inner.points.insert(key, PointState::Done(m));
                let mut finalize = Vec::new();
                for (job, idx) in waiters {
                    if self.record_point(&mut inner, job, idx, &m) {
                        finalize.push(job);
                    }
                }
                for job in finalize {
                    self.finalize_sweep(&mut inner, job);
                }
            }
            Err(e) => {
                // Drop the point so a resubmission retries it.
                inner.points.remove(&key);
                let message = e.to_string();
                for (job, _) in waiters {
                    self.fail_job(&mut inner, job, &message);
                }
            }
        }
    }

    fn execute_bfs(&self, job_id: u64) {
        let spec = {
            let inner = self.inner.lock().unwrap();
            match inner.jobs.get(&job_id) {
                Some(job) if job.phase == JobPhase::Running => job.spec.clone(),
                // Cancelled (or vanished) while queued.
                _ => return,
            }
        };
        let JobKind::Bfs {
            exp,
            checkpoint_every,
        } = spec.kind
        else {
            return;
        };
        let ckpt = self.job_dir(job_id).join("ckpt");
        let policy = CheckpointPolicy::new(checkpoint_every, &ckpt);
        let outcome = run_or_resume_bfs(&spec, &exp, &policy, &ckpt);
        let mut inner = self.inner.lock().unwrap();
        match outcome {
            Ok(line) => {
                let Some(job) = inner.jobs.get_mut(&job_id) else {
                    return;
                };
                if job.phase != JobPhase::Running {
                    return;
                }
                job.done = job.total;
                self.finish_job(job_id, job, line, JobPhase::Done, true);
                drop(inner);
                // The result is durable; the checkpoints have served their
                // purpose.
                let _ = std::fs::remove_dir_all(&ckpt);
            }
            Err(message) => self.fail_job(&mut inner, job_id, &message),
        }
    }
}

/// Runs (or, when `ckpt` already holds a checkpoint, resumes) one
/// checkpointed BFS job to completion through the workload table's run path
/// and renders its terminal result line. The line contains only
/// simulation-pure fields, so a resumed run is byte-identical to an
/// uninterrupted one.
fn run_or_resume_bfs(
    spec: &JobSpec,
    exp: &BfsExperiment,
    policy: &CheckpointPolicy,
    ckpt: &Path,
) -> Result<String, String> {
    let config = spec.build_config().map_err(|e| e.to_string())?;
    let execute = |config: GpuConfig, resume| {
        // A traversal that fails verification (or, in debug builds, trips
        // the sanitizer) panics; the job must fail, not take the worker
        // thread down with it.
        catch_unwind(AssertUnwindSafe(|| {
            Workload::bfs().execute(config, exp, policy, resume, |_| {})
        }))
        .map_err(|_| "BFS run panicked (device output failed verification?)".to_string())?
        .map_err(|e| e.to_string())
    };
    let run = match execute(config.clone(), Some(ckpt))? {
        Some(resumed) => resumed,
        None => execute(config, None)?.expect("a fresh run always starts"),
    };
    let summary = match run.1 {
        RunOutcome::Completed(summary) => summary,
        RunOutcome::Killed { at } => return Err(format!("unexpected kill at cycle {at}")),
    };
    // Each level is two launches (expand, commit) of one CTA per block.
    let levels = summary.ctas / (2 * u64::from(exp.nodes.div_ceil(exp.block_dim)));
    let mut w = event("result", Some(spec.job_id()));
    w.field("kind", "bfs").field("status", "done");
    w.field("levels", levels);
    w.field("cycles", summary.cycles);
    w.field("instructions", summary.instructions);
    w.field("content_hash", format!("{:016x}", summary.content_hash));
    Ok(w.finish())
}

/// Renders a finished sweep's terminal line: the measured grid in submission
/// order plus a stable content hash over every measurement. Nothing in it is
/// wall-clock-derived, so two clients — or two daemon lifetimes — render the
/// same bytes.
fn sweep_result_line(job_id: u64, spec: &JobSpec, results: &[Option<ChaseMeasurement>]) -> String {
    let points = spec.kind.sweep_points();
    let mut h = StableHasher::new();
    h.u32(SPEC_VERSION);
    h.u64(job_id);
    let mut w = event("result", Some(job_id));
    w.field("kind", "sweep").field("status", "done");
    w.key("points").array();
    for (params, m) in points.iter().zip(results) {
        let m = m.as_ref().expect("finalized sweep with a hole");
        h.u64(params.footprint);
        h.u64(params.stride);
        h.u64(m.per_access.to_bits());
        h.u64(m.accesses);
        h.u64(m.cycles_short);
        h.u64(m.cycles_long);
        w.object().field("footprint", params.footprint);
        w.field("stride", params.stride);
        w.field("per_access", m.per_access);
        w.field("accesses", m.accesses);
        w.field("cycles_short", m.cycles_short);
        w.field("cycles_long", m.cycles_long).end();
    }
    w.end();
    w.field("content_hash", format!("{:016x}", h.finish()));
    w.finish()
}

/// Serves one connection: reads request lines, answers with event lines.
/// Malformed input — bad JSON, unknown commands, broken specs, oversized
/// lines — is answered with a typed error event and the loop continues;
/// only EOF, transport errors, and `shutdown` end the session.
///
/// # Errors
///
/// Propagates transport I/O failures.
pub fn serve_session<R: Read, W: Write>(
    server: &Arc<Server>,
    reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    let mut lines = LineReader::new(BufReader::new(reader));
    loop {
        let Some(next) = lines.next_line()? else {
            return Ok(());
        };
        let request = match next.and_then(|line| parse_request(&line)) {
            Ok(request) => request,
            Err(e) => {
                send(&mut writer, &error_event(e.code(), &e.to_string()))?;
                continue;
            }
        };
        match request {
            Request::Submit { spec, watch } => {
                let config = match spec.build_config() {
                    Ok(config) => config,
                    Err(e) => {
                        send(&mut writer, &error_event(e.code(), &e.to_string()))?;
                        continue;
                    }
                };
                let sub = match server.submit(*spec, config) {
                    Ok(sub) => sub,
                    Err(e) => {
                        send(
                            &mut writer,
                            &error_event("io_error", &format!("persisting job spec: {e}")),
                        )?;
                        continue;
                    }
                };
                send(
                    &mut writer,
                    &accepted_event(sub.job, sub.state, sub.total, sub.deduped),
                )?;
                if watch {
                    stream_job(server, sub.job, &mut writer)?;
                }
            }
            Request::Status(job) => match server.status(job) {
                Some((state, done, total)) => {
                    send(&mut writer, &status_event(job, &state, done, total))?;
                }
                None => send(&mut writer, &unknown_job(job))?,
            },
            Request::Watch(job) => stream_job(server, job, &mut writer)?,
            Request::Cancel(job) => match server.cancel(job) {
                Some("cancelled") => send(&mut writer, &cancelled_event(job))?,
                Some(state) => send(&mut writer, &status_event(job, state, 0, 0))?,
                None => send(&mut writer, &unknown_job(job))?,
            },
            Request::Stats => send(&mut writer, &server.stats_line())?,
            Request::Shutdown => {
                send(&mut writer, &event("shutdown", None).finish())?;
                server.shutdown();
                return Ok(());
            }
        }
    }
}

fn unknown_job(job: u64) -> String {
    error_event("unknown_job", &format!("no job {}", format_job_id(job)))
}

fn send<W: Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Streams a job's events to a writer until its terminal line.
fn stream_job<W: Write>(server: &Arc<Server>, job: u64, writer: &mut W) -> std::io::Result<()> {
    match server.attach_watch(job) {
        WatchAttach::Unknown => send(writer, &unknown_job(job)),
        WatchAttach::Terminal(line) => send(writer, &line),
        WatchAttach::Stream(status, rx) => {
            send(writer, &status)?;
            for (line, terminal) in rx {
                send(writer, &line)?;
                if terminal {
                    break;
                }
            }
            Ok(())
        }
    }
}

/// The accept loop: one thread per connection, polling the shutdown flag
/// between accepts.
pub fn serve_listener(server: Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if server.is_shutdown() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    if let Ok(reader) = stream.try_clone() {
                        let _ = serve_session(&server, reader, stream);
                    }
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
}

/// An in-process daemon: recovery, worker pool, and TCP acceptor all
/// running, with the bound address written to `state/serve.addr` so clients
/// (and the CI smoke script) can find an ephemeral port.
pub struct ServerHandle {
    /// The bound address.
    pub addr: std::net::SocketAddr,
    /// Jobs re-enqueued by boot recovery.
    pub recovered: usize,
    server: Arc<Server>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Boots a full daemon on `bind` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates state-dir and socket setup failures.
    pub fn spawn(cfg: ServerConfig, bind: &str) -> std::io::Result<ServerHandle> {
        let state_dir = cfg.state_dir.clone();
        let server = Server::new(cfg)?;
        let recovered = server.recover();
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        store::write_atomic(&state_dir.join("serve.addr"), addr.to_string().as_bytes())?;
        let mut threads = server.start_workers();
        let acceptor = Arc::clone(&server);
        threads.push(
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    let _ = serve_listener(acceptor, listener);
                })
                .expect("spawn acceptor"),
        );
        Ok(ServerHandle {
            addr,
            recovered,
            server,
            threads,
        })
    }

    /// The shared daemon state (for counters in tests and benches).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Graceful stop: signal, then join workers and the acceptor.
    pub fn shutdown(self) {
        self.server.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_sweep() -> JobSpec {
        JobSpec::parse_str(
            "{\"preset\":\"gf106\",\"sweep\":{\"footprints\":[2048,4096],\"strides\":[256]}}",
        )
        .unwrap()
    }

    fn boot(dir: &Path) -> (Arc<Server>, Vec<JoinHandle<()>>) {
        let server = Server::new(ServerConfig {
            state_dir: dir.to_path_buf(),
            workers: 1,
        })
        .unwrap();
        let threads = server.start_workers();
        (server, threads)
    }

    fn wait_done(server: &Arc<Server>, job: u64) -> String {
        match server.attach_watch(job) {
            WatchAttach::Terminal(line) => line,
            WatchAttach::Stream(_, rx) => {
                let mut last = String::new();
                for (line, terminal) in rx {
                    last = line;
                    if terminal {
                        break;
                    }
                }
                last
            }
            WatchAttach::Unknown => panic!("job vanished"),
        }
    }

    /// Terminal lines are what `result.json` holds and what clients
    /// byte-diff: the failed, sweep and stats shapes, pinned exactly.
    #[test]
    fn result_and_stats_lines_are_pinned_byte_for_byte() {
        let dir = tmp_dir("pins");
        // Workers are never started: nothing races the injected failure.
        let server = Server::new(ServerConfig {
            state_dir: dir.clone(),
            workers: 1,
        })
        .unwrap();
        let spec = tiny_sweep();
        let id = spec.job_id();
        server
            .submit(spec.clone(), spec.build_config().unwrap())
            .unwrap();
        let message = "simulation failed: \"cycle limit\"";
        server.fail_job(&mut server.inner.lock().unwrap(), id, message);
        let WatchAttach::Terminal(failed) = server.attach_watch(id) else {
            panic!("failed job is terminal");
        };
        assert_eq!(
            failed,
            format!(
                r#"{{"event":"result","job":"{id:016x}","status":"failed","error":"simulation failed: \"cycle limit\""}}"#
            )
        );
        let stats = server.stats_line();
        let counters = r#"{"event":"stats","jobs_submitted":1,"jobs_deduped":0,"jobs_completed":0,"jobs_failed":1,"jobs_cancelled":0,"jobs_recovered":0,"points_requested":2,"points_executed":0,"points_deduped":0,"queue_depth":2,"cache":{"hits":"#;
        assert!(stats.starts_with(counters), "{stats}");
        assert!(stats.ends_with("}}"), "{stats}");

        let m = |per_access| {
            Some(ChaseMeasurement {
                per_access,
                accesses: 512,
                cycles_short: 100,
                cycles_long: 300,
            })
        };
        let line = sweep_result_line(id, &spec, &[m(45.0), m(0.390625)]);
        let (points, hash) = line.split_once("],\"content_hash\":").unwrap();
        assert_eq!(
            points,
            format!(
                r#"{{"event":"result","job":"{id:016x}","kind":"sweep","status":"done","points":[{{"footprint":2048,"stride":256,"per_access":45,"accesses":512,"cycles_short":100,"cycles_long":300}},{{"footprint":4096,"stride":256,"per_access":0.390625,"accesses":512,"cycles_short":100,"cycles_long":300}}"#
            )
        );
        assert_eq!(hash.len(), "\"0123456789abcdef\"}".len(), "{hash}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dedup_and_byte_identical_results() {
        let dir = tmp_dir("dedup");
        let (server, threads) = boot(&dir);
        let spec = tiny_sweep();
        let id = spec.job_id();
        let a = server
            .submit(spec.clone(), spec.build_config().unwrap())
            .unwrap();
        let b = server
            .submit(spec.clone(), spec.build_config().unwrap())
            .unwrap();
        assert!(!a.deduped);
        assert!(b.deduped, "identical spec must join the existing job");
        let line_a = wait_done(&server, id);
        let line_b = wait_done(&server, id);
        assert_eq!(line_a, line_b);
        assert!(line_a.contains("\"status\":\"done\""));
        // Exactly one execution per grid point despite two submissions.
        assert_eq!(
            server.counters.points_executed.load(Ordering::Relaxed),
            spec.kind.sweep_points().len() as u64
        );
        assert_eq!(server.counters.jobs_deduped.load(Ordering::Relaxed), 1);
        // The result is also durable.
        let persisted = std::fs::read_to_string(server.job_dir(id).join("result.json")).unwrap();
        assert_eq!(persisted, line_a);
        server.shutdown();
        for t in threads {
            t.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_recovers_done_jobs_and_reruns_pending_ones() {
        let dir = tmp_dir("recover");
        let spec = tiny_sweep();
        let id = spec.job_id();
        let first_line;
        {
            let (server, threads) = boot(&dir);
            server
                .submit(spec.clone(), spec.build_config().unwrap())
                .unwrap();
            first_line = wait_done(&server, id);
            server.shutdown();
            for t in threads {
                t.join().unwrap();
            }
        }
        // Second lifetime: the finished job must come back with the same
        // bytes, without re-simulating anything.
        {
            let (server, threads) = boot(&dir);
            assert_eq!(server.recover(), 0, "done jobs re-enqueue nothing");
            assert_eq!(wait_done(&server, id), first_line);
            assert_eq!(server.counters.points_executed.load(Ordering::Relaxed), 0);
            server.shutdown();
            for t in threads {
                t.join().unwrap();
            }
        }
        // Third lifetime: drop the result (keep the spec) to model a crash
        // before completion; recovery re-enqueues, the chase cache makes the
        // rerun cheap, and the bytes still match.
        std::fs::remove_file(dir.join("jobs").join(format_job_id(id)).join("result.json")).unwrap();
        {
            let (server, threads) = boot(&dir);
            assert_eq!(server.recover(), 1);
            assert_eq!(server.counters.jobs_recovered.load(Ordering::Relaxed), 1);
            assert_eq!(wait_done(&server, id), first_line);
            server.shutdown();
            for t in threads {
                t.join().unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_is_terminal_and_forgets_the_spec() {
        let dir = tmp_dir("cancel");
        // No workers: the job stays queued so cancel always wins the race.
        let server = Server::new(ServerConfig {
            state_dir: dir.clone(),
            workers: 1,
        })
        .unwrap();
        let spec = JobSpec::parse_str(
            "{\"preset\":\"gf106\",\"bfs\":{\"nodes\":64,\"degree\":4,\"seed\":1,\
             \"block_dim\":32,\"checkpoint_every\":100000}}",
        )
        .unwrap();
        let id = spec.job_id();
        server
            .submit(spec.clone(), spec.build_config().unwrap())
            .unwrap();
        assert_eq!(server.cancel(id), Some("cancelled"));
        assert!(!server.job_dir(id).exists());
        assert!(matches!(server.attach_watch(id), WatchAttach::Terminal(_)));
        // And the queued task is a no-op if a worker picks it up later.
        let threads = server.start_workers();
        assert_eq!(server.status(id).unwrap().0, "cancelled");
        server.shutdown();
        for t in threads {
            t.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
