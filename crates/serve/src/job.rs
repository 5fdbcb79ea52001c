//! Jobs: what the server queues, runs, streams, and reports on.

use crate::http::json_escape;
use crate::stream::LineBuffer;
use bbncg_core::{CancelToken, CostKernel, CostModel, Realization, RoundExecutor};
use bbncg_obs::Counter;
use bbncg_scenario::ScenarioSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What a job computes.
pub enum JobKind {
    /// Run a scenario spec (single seed or whole sweep): one JSONL
    /// metric record per phase streams out exactly as `bbncg scenario
    /// run --out` would have written it.
    Scenario {
        /// The validated spec (validated at submit time, so a bad spec
        /// is a 400 at the door, not a failed job later).
        spec: Box<ScenarioSpec>,
    },
    /// Audit a posted `bbncg v1` profile for Nash equilibrium: one
    /// JSON verdict line streams out.
    Verify {
        /// The profile to audit.
        realization: Box<Realization>,
        /// Cost model to audit under.
        model: CostModel,
        /// Cost kernel pricing the audit.
        kernel: CostKernel,
        /// Execution discipline of the audit sweep (verdict-neutral;
        /// `?rounds=` override, else the server default).
        executor: RoundExecutor,
    },
}

impl JobKind {
    /// Label for status reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Scenario { .. } => "scenario",
            JobKind::Verify { .. } => "verify",
        }
    }
}

/// Lifecycle of a job. Terminal states are `Completed`, `Failed`, and
/// `Cancelled`; exactly one is ever reached, after which the job's
/// stream is closed and its queue/worker slot is free again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// In the bounded queue, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished the whole computation.
    Completed,
    /// The computation returned an error (carried in the payload).
    Failed(String),
    /// A cancel request (or an abort-mode shutdown) stopped it.
    Cancelled,
}

impl JobStatus {
    /// Status label as served in JSON.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed(_) => "failed",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// Is this one of the three terminal states?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Failed(_) | JobStatus::Cancelled
        )
    }
}

/// One submitted job. Shared between the HTTP handlers (status,
/// stream, cancel) and the worker executing it.
pub struct Job {
    /// Server-assigned id (monotonic per server).
    pub id: u64,
    /// What to compute.
    pub kind: JobKind,
    /// Cooperative cancellation flag, fired by `POST /jobs/{id}/cancel`
    /// and by abort-mode shutdown.
    pub cancel: CancelToken,
    /// The result stream (JSONL lines; closed exactly once, when the
    /// job reaches a terminal status).
    pub lines: Arc<LineBuffer>,
    status: Mutex<JobStatus>,
    status_cv: Condvar,
    /// Monotonic birth instant; the other lifecycle timestamps are
    /// microseconds measured from here.
    created: Instant,
    /// Micros from `created` to the `Running` transition, plus one
    /// (zero means "not started yet"). The `+1` sentinel keeps the
    /// legitimate 0µs reading distinguishable from "unset".
    started_us: AtomicU64,
    /// Micros from `created` to the terminal transition, plus one.
    finished_us: AtomicU64,
    /// Cumulative micros from `created` at each completed phase
    /// boundary (single-seed scenario jobs only; sweeps interleave
    /// phases across seeds, so per-phase timing is not well-defined).
    phase_us: Mutex<Vec<u64>>,
    /// The result-cache slot this job is (or was) registered under —
    /// how retirement paths (failure, cancellation, history eviction)
    /// find their cache entry to drop.
    cache_key: Mutex<Option<u64>>,
}

impl Job {
    /// A fresh `Queued` job.
    pub fn new(id: u64, kind: JobKind) -> Arc<Job> {
        Arc::new(Job {
            id,
            kind,
            cancel: CancelToken::new(),
            lines: LineBuffer::new(),
            status: Mutex::new(JobStatus::Queued),
            status_cv: Condvar::new(),
            created: Instant::now(),
            started_us: AtomicU64::new(0),
            finished_us: AtomicU64::new(0),
            phase_us: Mutex::new(Vec::new()),
            cache_key: Mutex::new(None),
        })
    }

    /// Record the cache slot this job was inserted under.
    pub fn set_cache_key(&self, key: u64) {
        *self.cache_key.lock().expect("cache key poisoned") = Some(key);
    }

    /// The cache slot this job was inserted under, if any.
    pub fn cache_key(&self) -> Option<u64> {
        *self.cache_key.lock().expect("cache key poisoned")
    }

    /// Record a completed phase boundary (worker hook; feeds the
    /// `phase_us` durations in [`Job::status_json`]).
    pub fn mark_phase(&self) {
        self.phase_us
            .lock()
            .expect("phase timings poisoned")
            .push(self.created.elapsed().as_micros() as u64);
    }

    /// Current status (cloned).
    pub fn status(&self) -> JobStatus {
        self.status.lock().expect("job status poisoned").clone()
    }

    /// Transition to `next`. Terminal states also close the stream, so
    /// every follower unblocks; transitions out of a terminal state are
    /// ignored (first terminal verdict wins — e.g. a cancel racing a
    /// natural completion).
    pub fn set_status(&self, next: JobStatus) {
        let mut st = self.status.lock().expect("job status poisoned");
        if st.is_terminal() {
            return;
        }
        let terminal = next.is_terminal();
        let stamp = self.created.elapsed().as_micros() as u64 + 1;
        match &next {
            JobStatus::Running => {
                self.started_us.store(stamp, Ordering::Relaxed);
            }
            JobStatus::Completed => {
                self.finished_us.store(stamp, Ordering::Relaxed);
                bbncg_obs::counter_inc(Counter::JobsCompleted);
            }
            JobStatus::Failed(_) => {
                self.finished_us.store(stamp, Ordering::Relaxed);
                bbncg_obs::counter_inc(Counter::JobsFailed);
            }
            JobStatus::Cancelled => {
                self.finished_us.store(stamp, Ordering::Relaxed);
                bbncg_obs::counter_inc(Counter::JobsCancelled);
            }
            JobStatus::Queued => {}
        }
        *st = next;
        drop(st);
        if terminal {
            self.lines.close();
        }
        self.status_cv.notify_all();
    }

    /// Block until the job reaches a terminal status, and return it.
    pub fn wait_terminal(&self) -> JobStatus {
        let mut st = self.status.lock().expect("job status poisoned");
        while !st.is_terminal() {
            st = self.status_cv.wait(st).expect("job status poisoned");
        }
        st.clone()
    }

    /// One-line JSON status document (the `GET /jobs/{id}` body).
    ///
    /// Lifecycle timings appear as they become defined:
    /// `queue_wait_us` once the job has started (submit → worker
    /// pickup), `run_us` once it is terminal (pickup → terminal), and
    /// `phase_us` as per-phase durations for single-seed scenario
    /// jobs. A job cancelled straight out of the queue reports
    /// neither (it never ran).
    pub fn status_json(&self) -> String {
        let status = self.status();
        let mut s = format!(
            "{{\"job\":{},\"kind\":\"{}\",\"state\":\"{}\",\"records\":{}",
            self.id,
            self.kind.label(),
            status.label(),
            self.lines.len()
        );
        let started = self.started_us.load(Ordering::Relaxed);
        if started > 0 {
            s.push_str(&format!(",\"queue_wait_us\":{}", started - 1));
            let finished = self.finished_us.load(Ordering::Relaxed);
            if finished > 0 {
                s.push_str(&format!(
                    ",\"run_us\":{}",
                    (finished - 1).saturating_sub(started - 1)
                ));
            }
            let boundaries = self.phase_us.lock().expect("phase timings poisoned");
            if !boundaries.is_empty() {
                s.push_str(",\"phase_us\":[");
                let mut prev = started - 1;
                for (i, &b) in boundaries.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&b.saturating_sub(prev).to_string());
                    prev = b;
                }
                s.push(']');
            }
        }
        if let JobStatus::Failed(err) = &status {
            s.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_job(id: u64) -> Arc<Job> {
        let spec = bbncg_scenario::parse_spec(
            "[init]\nfamily = \"path\"\nparams = [4]\n[[phase]]\nkind = \"dynamics\"",
        )
        .unwrap();
        Job::new(
            id,
            JobKind::Scenario {
                spec: Box::new(spec),
            },
        )
    }

    #[test]
    fn terminal_status_wins_and_closes_stream() {
        let job = scenario_job(7);
        assert_eq!(job.status(), JobStatus::Queued);
        job.set_status(JobStatus::Running);
        job.set_status(JobStatus::Completed);
        assert!(job.lines.is_closed());
        // A late cancel must not overwrite the completion.
        job.set_status(JobStatus::Cancelled);
        assert_eq!(job.status(), JobStatus::Completed);
        assert_eq!(job.wait_terminal(), JobStatus::Completed);
    }

    #[test]
    fn lifecycle_timestamps_surface_in_status_json() {
        let job = scenario_job(1);
        // Queued: no timings yet.
        assert!(!job.status_json().contains("queue_wait_us"));
        job.set_status(JobStatus::Running);
        let running = job.status_json();
        assert!(running.contains("\"queue_wait_us\":"), "{running}");
        assert!(!running.contains("run_us"), "{running}");
        job.mark_phase();
        job.mark_phase();
        job.set_status(JobStatus::Completed);
        let done = job.status_json();
        assert!(done.contains("\"run_us\":"), "{done}");
        assert!(done.contains("\"phase_us\":["), "{done}");
        // Two boundaries → two durations.
        let phases = done.split("\"phase_us\":[").nth(1).unwrap();
        let phases = phases.split(']').next().unwrap();
        assert_eq!(phases.split(',').count(), 2, "{done}");
    }

    #[test]
    fn queue_cancelled_job_reports_no_run_timings() {
        let job = scenario_job(2);
        job.set_status(JobStatus::Cancelled);
        let json = job.status_json();
        assert!(!json.contains("queue_wait_us"), "{json}");
        assert!(!json.contains("run_us"), "{json}");
    }

    #[test]
    fn status_json_carries_error_detail() {
        let job = scenario_job(3);
        job.set_status(JobStatus::Failed("phase 2: \"bad\"".into()));
        let json = job.status_json();
        assert!(json.contains("\"state\":\"failed\""), "{json}");
        assert!(json.contains("\\\"bad\\\""), "{json}");
    }
}
