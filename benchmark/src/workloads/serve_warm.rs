//! `serve-warm`: closed-loop clients against an in-process daemon whose
//! chase cache is warm, on TCP loopback. The simulator does nothing here;
//! `serve::{proto, spec, server}`, `core::cache`, `snapshot::store` and the
//! socket path do everything.
//!
//! Set-up boots a daemon (two workers), runs the 18-point `gf106` warm
//! grid, shuts down, wipes `jobs/` and reboots, so a round's first touch of
//! a point is a disk cache hit. The first set-up of a pass starts from an
//! empty state dir and simulates the grid; later ones replay it from the
//! cache, and `setup_s`, the fastest set-up, is one of those. A round is two
//! clients, each submitting its job list and waiting for every terminal
//! line before sending the next (closed loop). A job is a non-empty
//! sub-grid of the warm grid; two in five are new job ids, the rest
//! job-level dedup replays, in seed-shuffled order; one job in five opens a
//! fresh connection as `serve-client submit` does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use gpu_serve::proto::is_terminal_event;
use gpu_serve::{preset_token, Client, Server, ServerConfig, ServerHandle};
use gpu_sim::GpuConfig;
use gpu_snapshot::StableHasher;
use gpu_trace::json::{self, Value};
use gpu_types::Xoshiro256pp;
use latency_core::ArchPreset;

use crate::runner::{Op, Round, Traced, Workload};
use crate::schema::MetricSet;
use crate::spans::Recorder;
use crate::stats::{median, percentile};

const PRESET: ArchPreset = ArchPreset::FermiGf106;
const FOOTPRINTS: [u64; 6] = [2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10];
const STRIDES: [u64; 3] = [128, 512, 1024];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

/// One submission of a client's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub spec: String,
    /// Connect anew for this job instead of reusing the client's connection.
    pub fresh_connection: bool,
}

fn sweep_spec(footprints: &[u64], strides: &[u64]) -> String {
    format!(
        "{{\"preset\":\"{}\",\"sweep\":{{\"footprints\":{footprints:?},\"strides\":{strides:?}}}}}",
        preset_token(PRESET)
    )
}

/// The round's job lists, one per client. The jobs are a fixed multiset —
/// `2/5` of them distinct specs (new job ids), the rest repeats of those
/// (job-level dedup replays) — so every seed delivers the same results and
/// moves the same daemon counters; the seed shuffles the order and deals
/// the jobs to the clients. Every fifth job of a client reconnects.
pub fn job_lists(seed: u64, jobs_per_client: usize) -> Vec<Vec<Job>> {
    let total = jobs_per_client * CLIENTS;
    let distinct = (total * 2 / 5).clamp(1, 63);
    let subset = |mask: usize, all: &[u64]| -> Vec<u64> {
        all.iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect()
    };
    let mut specs: Vec<String> = (0..total)
        .map(|job| {
            let k = job % distinct;
            // 11 is coprime to the 63 footprint subsets, so the first 63
            // specs are pairwise distinct.
            sweep_spec(
                &subset(1 + 11 * k % 63, &FOOTPRINTS),
                &subset(1 + k % 7, &STRIDES),
            )
        })
        .collect();
    Xoshiro256pp::seed_from_u64(seed).shuffle(&mut specs);
    specs
        .chunks(jobs_per_client)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(position, spec)| Job {
                    spec: spec.clone(),
                    fresh_connection: position % 5 == 0,
                })
                .collect()
        })
        .collect()
}

/// What a client saw of one job.
struct JobOutcome {
    op: Op,
    result_bytes: usize,
}

pub struct ServeWarm {
    quick: bool,
    jobs: Vec<Vec<Job>>,
    state: PathBuf,
    handle: Option<ServerHandle>,
    /// First terminal line seen per spec, over the whole pass: identical
    /// specs must always answer with identical bytes.
    answers: Mutex<BTreeMap<String, String>>,
}

impl ServeWarm {
    pub fn new(seed: u64, quick: bool, scratch: &Path) -> Self {
        ServeWarm {
            quick,
            jobs: job_lists(seed, if quick { 5 } else { 50 }),
            state: scratch.join("serve-state"),
            handle: None,
            answers: Mutex::new(BTreeMap::new()),
        }
    }

    fn boot(&self, rec: &mut Recorder) -> ServerHandle {
        let span = rec.begin("serve.boot");
        let handle = ServerHandle::spawn(
            ServerConfig {
                state_dir: self.state.clone(),
                workers: WORKERS,
            },
            "127.0.0.1:0",
        )
        .expect("daemon boots on loopback");
        rec.end(span);
        handle
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }

    /// Submits `job` and waits for its terminal line, timing connect,
    /// accept and run separately.
    fn submit(
        &self,
        addr: &str,
        connection: &mut Option<Client>,
        job: &Job,
        rec: &mut Recorder,
    ) -> std::io::Result<JobOutcome> {
        rec.next_op();
        let started = Instant::now();
        if job.fresh_connection || connection.is_none() {
            let span = rec.begin("serve.connect");
            *connection = Some(Client::connect_tcp(addr)?);
            rec.end(span);
        }
        let client = connection.as_mut().expect("connected above");
        let span = rec.begin("serve.accept");
        client.send(&format!(
            "{{\"cmd\":\"submit\",\"watch\":true,\"spec\":{}}}",
            job.spec
        ))?;
        let eof = || std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon hung up");
        let accepted = client.recv()?.ok_or_else(eof)?;
        rec.end(span);
        let deduped = accepted.contains("\"deduped\":true");
        let span = rec.begin(if deduped {
            "serve.run_deduped"
        } else {
            "serve.run_new"
        });
        let mut terminal = accepted;
        while !is_terminal_event(&terminal) {
            terminal = client.recv()?.ok_or_else(eof)?;
        }
        rec.end(span);
        let ms = started.elapsed().as_secs_f64() * 1e3;

        // Everything below is the benchmark checking the answer, off the
        // clock.
        let doc = json::parse(&terminal).unwrap_or(Value::Null);
        let text = |key: &str| doc.get(key).and_then(Value::as_str);
        let done = text("event") == Some("result") && text("status") == Some("done");
        let same_bytes = {
            let mut answers = self.answers.lock().expect("answers lock");
            let first = answers
                .entry(job.spec.clone())
                .or_insert_with(|| terminal.clone());
            *first == terminal
        };
        let (mut cycles, mut loads) = (0, 0);
        for point in doc
            .get("points")
            .and_then(Value::as_arr)
            .unwrap_or_default()
        {
            let num = |key: &str| point.get(key).and_then(Value::as_num).unwrap_or(0.0) as u64;
            cycles += num("cycles_short") + num("cycles_long");
            loads += num("accesses") + num("accesses") / 2;
        }
        Ok(JobOutcome {
            op: Op {
                ms,
                cycles,
                instrs: loads,
                ok: done && same_bytes,
                lane: 0,
            },
            result_bytes: terminal.len(),
        })
    }

    fn client(&self, addr: &str, index: usize, rec: &mut Recorder) -> Vec<JobOutcome> {
        let mut connection = None;
        self.jobs[index]
            .iter()
            .map(|job| {
                let mut outcome =
                    self.submit(addr, &mut connection, job, rec)
                        .unwrap_or_else(|e| {
                            eprintln!("serve-warm: client {index}: {e}");
                            connection = None;
                            JobOutcome {
                                op: Op::default(),
                                result_bytes: 0,
                            }
                        });
                outcome.op.lane = index;
                outcome
            })
            .collect()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload for ServeWarm {
    fn setup_reps(&self) -> usize {
        3
    }

    fn setup(&mut self, rec: &mut Recorder) {
        self.stop();
        // The state dir lives in the pass's own scratch dir, so the first
        // set-up of a pass finds it empty and simulates the warm grid; later
        // set-ups find `cache/` filled and replay the grid from it. Either
        // way the round starts from the same state: full cache, no jobs.
        let warmer = self.boot(rec);
        let span = rec.begin("serve.warm_grid");
        let run = Client::connect_tcp(&warmer.addr.to_string())
            .and_then(|mut c| c.submit_watched(&sweep_spec(&FOOTPRINTS, &STRIDES)));
        rec.end(span);
        assert!(
            run.is_ok_and(|r| r.terminal.contains("\"status\":\"done\"")),
            "warm-up grid failed"
        );
        warmer.shutdown();
        let _ = std::fs::remove_dir_all(self.state.join("jobs"));
        latency_core::reset_cache_stats();
        self.handle = Some(self.boot(rec));
    }

    fn round(&mut self, rec: &mut Recorder) -> Round {
        let addr = self
            .handle
            .as_ref()
            .expect("setup booted the daemon")
            .addr
            .to_string();
        let outcomes: Vec<Vec<JobOutcome>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|index| {
                    let mut lane = rec.fork(index as u64 + 1);
                    let (this, addr) = (&*self, addr.as_str());
                    scope.spawn(move || (this.client(addr, index, &mut lane), lane))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| {
                    let (outcomes, lane) = c.join().expect("client thread");
                    rec.absorb(lane);
                    outcomes
                })
                .collect()
        });

        // The daemon's counters, read in process: a `stats` request over the
        // socket would put one more round trip inside the measured round.
        let stats = self
            .handle
            .as_ref()
            .and_then(|h| json::parse(&h.server().stats_line()).ok())
            .unwrap_or(Value::Null);
        let counter = |path: &[&str]| {
            path.iter()
                .try_fold(&stats, |v, key| v.get(key))
                .and_then(Value::as_num)
                .unwrap_or(0.0)
        };
        let jobs: Vec<&JobOutcome> = outcomes.iter().flatten().collect();
        let mut round = Round {
            ops: jobs.iter().map(|j| j.op).collect(),
            ..Round::default()
        };
        round.counts = vec![
            ("serve.jobs_submitted", counter(&["jobs_submitted"])),
            ("serve.jobs_deduped", counter(&["jobs_deduped"])),
            ("serve.points_executed", counter(&["points_executed"])),
            ("serve.points_deduped", counter(&["points_deduped"])),
            ("serve.cache_hits", counter(&["cache", "hits"])),
            ("serve.cache_misses", counter(&["cache", "misses"])),
            (
                "serve.result_bytes_per_job",
                jobs.iter().map(|j| j.result_bytes).sum::<usize>() as f64 / jobs.len() as f64,
            ),
            ("serve.state_dir_bytes", dir_bytes(&self.state) as f64),
        ];
        // Which job ids were new and which replayed depends on how the two
        // clients interleave, so the digest covers what does not: every
        // answer, in each client's own order.
        let mut digest = StableHasher::new();
        for job in &jobs {
            digest.u64(job.op.cycles);
            digest.u64(job.op.instrs);
            digest.u64(job.result_bytes as u64);
        }
        round.digest = digest.finish();
        round
    }

    fn machine(&self) -> GpuConfig {
        PRESET.config_microbench()
    }

    fn layer_metrics(&self, traced: &Traced, out: &mut MetricSet) {
        let ms = |name: &str| -> Vec<f64> {
            traced
                .trace
                .durations(name)
                .iter()
                .map(|s| s * 1e3)
                .collect()
        };
        let p95 = |v: &[f64]| percentile(v, 0.95).unwrap_or(0.0);
        let (connect, accept) = (ms("serve.connect"), ms("serve.accept"));
        let (new, deduped) = (ms("serve.run_new"), ms("serve.run_deduped"));
        let run: Vec<f64> = new.iter().chain(&deduped).copied().collect();
        out.set("serve.boot_ms", median(&ms("serve.boot")));
        out.set("serve.connect_ms_p50", median(&connect));
        out.set("serve.accepted_ms_p50", median(&accept));
        out.set("serve.run_ms_p50", median(&run));
        out.set("serve.run_ms_p95", p95(&run));
        out.set("serve.new_job_ms_p50", median(&new));
        out.set("serve.dedup_job_ms_p50", median(&deduped));

        // `stats` round trips against the daemon the last round left running.
        if let Some(mut client) = self
            .handle
            .as_ref()
            .and_then(|h| Client::connect_tcp(&h.addr.to_string()).ok())
        {
            let rtts: Vec<f64> = (0..if self.quick { 3 } else { 20 })
                .filter_map(|_| {
                    let t = Instant::now();
                    client.request("{\"cmd\":\"stats\"}").ok()?;
                    Some(t.elapsed().as_secs_f64() * 1e3)
                })
                .collect();
            out.set("serve.stats_rtt_ms_p50", median(&rtts));
        }

        // Recovery: a fresh `Server` over the state dir the last round left,
        // every job of which has a result to reload. No listener, no workers.
        let recoveries: Vec<f64> = (0..5)
            .map(|_| {
                let server = Server::new(ServerConfig {
                    state_dir: self.state.clone(),
                    workers: WORKERS,
                })
                .expect("state dir exists");
                let t = Instant::now();
                server.recover();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("serve.recover_ms", median(&recoveries));
    }
}

impl Drop for ServeWarm {
    /// Joins the daemon's threads and hands the process-global chase cache
    /// back to "off", where the runner put it.
    fn drop(&mut self) {
        self.stop();
        latency_core::disable_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_serve::JobSpec;

    #[test]
    fn job_lists_follow_the_seed() {
        let a = job_lists(7, 50);
        assert_eq!(a, job_lists(7, 50));
        assert_ne!(a, job_lists(8, 50));
        assert_eq!(a.len(), CLIENTS);
        assert!(a.iter().all(|list| list.len() == 50));
    }

    #[test]
    fn every_seed_submits_the_same_multiset_of_valid_sub_grids() {
        let warm = JobSpec::parse_str(&sweep_spec(&FOOTPRINTS, &STRIDES)).expect("warm grid");
        let warm_points = warm.kind.sweep_points();
        assert_eq!(warm_points.len(), 18);
        let sorted_specs = |seed: u64| -> Vec<String> {
            let mut specs: Vec<String> = job_lists(seed, 50)
                .into_iter()
                .flatten()
                .map(|j| j.spec)
                .collect();
            specs.sort();
            specs
        };
        let specs = sorted_specs(3);
        assert_eq!(specs, sorted_specs(4));
        for spec in &specs {
            let parsed = JobSpec::parse_str(spec).expect("generated spec parses");
            let points = parsed.kind.sweep_points();
            assert!(!points.is_empty());
            assert!(points.iter().all(|p| warm_points.contains(p)));
        }
        // Two in five are distinct job ids; the rest replay them.
        let mut ids: Vec<u64> = specs
            .iter()
            .map(|s| JobSpec::parse_str(s).unwrap().job_id())
            .collect();
        ids.dedup();
        assert_eq!(ids.len(), 40);
        let fresh = job_lists(3, 50)
            .iter()
            .flatten()
            .filter(|j| j.fresh_connection)
            .count();
        assert_eq!(fresh, 20);
    }
}
