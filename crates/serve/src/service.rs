//! The benchmark service: bounded submission queue, worker pool, tiered
//! result cache, request coalescing, per-client admission control, and the
//! job registry behind one mutex + two condvars.
//!
//! Locking discipline: the state mutex guards only bookkeeping (queue, job
//! map, in-memory cache, coalescing tables). Pipeline runs — the expensive
//! part — happen outside the lock; workers reacquire it only to publish
//! state transitions. The disk tier has its own mutex, acquired only while
//! the state lock is **not** held (submission drops the state lock before
//! probing disk; workers publish results first, then persist), so file I/O
//! never extends a state critical section and the two locks cannot deadlock.
//! `work_available` wakes idle workers, `job_changed` wakes anyone waiting
//! on a job (the drain path and the test helpers).
//!
//! Coalescing: the pipeline is deterministic per canonical config, so when
//! a submission matches a config already queued or running, the service
//! registers the new job as a *follower* of that leader instead of queueing
//! a second run. When the leader finishes, every follower is published with
//! the same shared summary — one pipeline run, N waiters, bit-identical
//! results for all of them.

use std::collections::{BTreeMap, VecDeque};
use std::net::IpAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ppbench_core::{KernelTiming, Pipeline, PipelineConfig, PipelineObserver, RunRecord};

use crate::cache::{DiskCache, ResultCache};
use crate::job::{Job, JobId, JobState, RunSummary};
use crate::metrics::{Gauges, Metrics};

/// Tunables for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing pipeline runs.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions are
    /// rejected with [`SubmitError::QueueFull`]. Coalesced followers do
    /// not occupy queue slots.
    pub queue_depth: usize,
    /// In-memory result-cache byte budget.
    pub cache_bytes: usize,
    /// Largest accepted scale factor; protects the host from a request
    /// for 2^40 vertices.
    pub max_scale: u32,
    /// Maximum terminal (done / failed / cancelled) job records retained;
    /// the oldest are evicted first, so a long-running service does not
    /// grow its job registry (and the rank vectors pinned by `Done`
    /// records) without bound. Values below 1 are treated as 1.
    pub max_terminal_jobs: usize,
    /// Directory under which per-job working directories are created.
    pub work_root: PathBuf,
    /// Directory for the on-disk result tier; `None` disables it. With a
    /// directory set, completed results are persisted as canonical JSON
    /// and survive a service restart.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the on-disk tier (actual file sizes).
    pub disk_cache_bytes: u64,
    /// Maximum non-terminal (queued / running, leader or follower) jobs
    /// any single client IP may hold; further submissions are rejected
    /// with [`SubmitError::QuotaExceeded`]. `0` disables the quota.
    /// In-process submissions (no client IP) are never limited.
    pub max_jobs_per_client: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            cache_bytes: 64 << 20,
            max_scale: 22,
            max_terminal_jobs: 1024,
            work_root: std::env::temp_dir().join("ppbench-serve"),
            cache_dir: None,
            disk_cache_bytes: 256 << 20,
            max_jobs_per_client: 0,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at `queue_depth`; retry later (HTTP 429).
    QueueFull,
    /// The client already holds `max_jobs_per_client` non-terminal jobs
    /// (HTTP 429).
    QuotaExceeded,
    /// The service is draining and accepts no new work (HTTP 503).
    Draining,
    /// The requested scale exceeds `max_scale` (HTTP 400).
    ScaleTooLarge {
        /// Scale the client asked for.
        requested: u32,
        /// The service's limit.
        limit: u32,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::QuotaExceeded => {
                write!(f, "client has too many jobs in flight")
            }
            SubmitError::Draining => write!(f, "service is draining"),
            SubmitError::ScaleTooLarge { requested, limit } => {
                write!(
                    f,
                    "scale {requested} exceeds this server's limit of {limit}"
                )
            }
        }
    }
}

/// Outcome of a cancel request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was queued and is now cancelled.
    Cancelled,
    /// The job is running or already terminal; nothing changed.
    NotCancellable(JobState),
    /// No such job.
    NotFound,
}

/// What `submit` returns: the job id plus how the submission was
/// satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// Assigned job id.
    pub id: JobId,
    /// Canonical hash of the submitted config.
    pub config_hash: u64,
    /// True when the job was satisfied from the result cache (either
    /// tier) and is already `Done`.
    pub cached: bool,
    /// True when the job coalesced onto an identical in-flight run and
    /// will complete together with it.
    pub coalesced: bool,
}

struct State {
    // BTreeMap, not HashMap: `/jobs`-style listings and the drain path
    // observe iteration order, and the determinism invariant (the
    // workspace's `clippy::disallowed_types` lint) requires that order to
    // be stable across runs.
    jobs: BTreeMap<JobId, Job>,
    queue: VecDeque<JobId>,
    /// Terminal job ids in completion order; the pruning window.
    terminal_order: VecDeque<JobId>,
    cache: ResultCache,
    /// Canonical config hash → leader job currently queued or running for
    /// it. Entries exist exactly while a run is in flight.
    inflight: BTreeMap<u64, JobId>,
    /// Leader job → followers coalesced onto it, in arrival order.
    followers: BTreeMap<JobId, Vec<JobId>>,
    /// Non-terminal jobs per client IP; the admission-control ledger.
    active_by_client: BTreeMap<IpAddr, u64>,
    next_id: JobId,
    draining: bool,
    shutdown: bool,
    running: usize,
}

impl State {
    /// Records that job `id` reached a terminal state and evicts the
    /// oldest terminal records beyond `cap`. Jobs in the queue or running
    /// are never evicted — only finished history is.
    fn retire(&mut self, id: JobId, cap: usize) {
        self.terminal_order.push_back(id);
        while self.terminal_order.len() > cap.max(1) {
            if let Some(old) = self.terminal_order.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }

    /// Charges one non-terminal job to `client`'s quota ledger.
    fn charge_client(&mut self, client: Option<IpAddr>) {
        if let Some(ip) = client {
            *self.active_by_client.entry(ip).or_insert(0) += 1;
        }
    }

    /// Releases one non-terminal job from `client`'s ledger.
    fn release_client(&mut self, client: Option<IpAddr>) {
        if let Some(ip) = client {
            let drained = match self.active_by_client.get_mut(&ip) {
                Some(n) => {
                    *n = n.saturating_sub(1);
                    *n == 0
                }
                None => false,
            };
            if drained {
                self.active_by_client.remove(&ip);
            }
        }
    }

    /// Registers an already-`Done` job (cache hit, either tier).
    fn admit_done(
        &mut self,
        config: PipelineConfig,
        hash: u64,
        summary: Arc<RunSummary>,
        client: Option<IpAddr>,
        cap: usize,
    ) -> SubmitReceipt {
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                config,
                config_hash: hash,
                state: JobState::Done,
                summary: Some(summary),
                error: None,
                from_cache: true,
                submitted_at: Instant::now(),
                client,
            },
        );
        self.retire(id, cap);
        SubmitReceipt {
            id,
            config_hash: hash,
            cached: true,
            coalesced: false,
        }
    }
}

struct Inner {
    state: Mutex<State>,
    /// The on-disk tier, `None` when disabled. Never locked while the
    /// state mutex is held (see module docs).
    disk: Option<Mutex<DiskCache>>,
    work_available: Condvar,
    job_changed: Condvar,
    metrics: Metrics,
    cfg: ServiceConfig,
}

impl Inner {
    /// Quota gate for one new non-terminal job from `client`.
    fn check_quota(&self, state: &State, client: Option<IpAddr>) -> Result<(), SubmitError> {
        let limit = self.cfg.max_jobs_per_client;
        if limit == 0 {
            return Ok(());
        }
        let Some(ip) = client else {
            return Ok(());
        };
        let active = state.active_by_client.get(&ip).copied().unwrap_or(0);
        if active >= limit as u64 {
            Metrics::inc(&self.metrics.rejected_quota);
            return Err(SubmitError::QuotaExceeded);
        }
        Ok(())
    }
}

/// The benchmark service. Dropping it (or calling [`Service::drain`])
/// finishes all accepted work and stops the workers.
pub struct Service {
    inner: Arc<Inner>,
    // Behind a mutex so `drain` works through `&self` (the HTTP layer
    // shares the service via `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Opens the disk tier (if configured) and starts the worker pool.
    /// Fails if the cache directory cannot be created or the OS refuses to
    /// spawn a worker thread; any threads spawned before the failure are
    /// shut down cleanly before the error is returned.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        let disk = match &cfg.cache_dir {
            Some(dir) => Some(Mutex::new(DiskCache::open(dir, cfg.disk_cache_bytes)?)),
            None => None,
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                terminal_order: VecDeque::new(),
                cache: ResultCache::new(cfg.cache_bytes),
                inflight: BTreeMap::new(),
                followers: BTreeMap::new(),
                active_by_client: BTreeMap::new(),
                next_id: 1,
                draining: false,
                shutdown: false,
                running: 0,
            }),
            disk,
            work_available: Condvar::new(),
            job_changed: Condvar::new(),
            metrics: Metrics::default(),
            cfg,
        });
        let mut workers = Vec::with_capacity(inner.cfg.workers.max(1));
        for i in 0..inner.cfg.workers.max(1) {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("ppbench-worker-{i}"))
                .spawn(move || worker_loop(&worker_inner));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    inner.state.lock().shutdown = true;
                    inner.work_available.notify_all();
                    for handle in workers {
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "already failing with the spawn error; a worker panic here cannot add information"
                        )]
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self {
            inner,
            workers: Mutex::new(workers),
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// The metrics registry (shared with the HTTP layer).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Submits a configuration with no client attribution (in-process
    /// callers; never quota-limited). See [`Service::submit_from`].
    pub fn submit(&self, config: PipelineConfig) -> Result<SubmitReceipt, SubmitError> {
        self.submit_from(config, None)
    }

    /// Submits a configuration on behalf of `client`.
    ///
    /// Resolution order: in-memory cache hit (job is already `Done`) →
    /// coalesce onto an identical in-flight run (job completes with the
    /// leader) → disk-tier hit (revived, promoted to memory, `Done`) →
    /// queue a fresh run.
    pub fn submit_from(
        &self,
        config: PipelineConfig,
        client: Option<IpAddr>,
    ) -> Result<SubmitReceipt, SubmitError> {
        let hash = config.canonical_hash();
        let scale = config.spec.scale();
        if scale > self.inner.cfg.max_scale {
            return Err(SubmitError::ScaleTooLarge {
                requested: scale,
                limit: self.inner.cfg.max_scale,
            });
        }
        {
            let mut state = self.inner.state.lock();
            if state.draining || state.shutdown {
                return Err(SubmitError::Draining);
            }
            if let Some(receipt) = self.try_admit_locked(&mut state, &config, hash, client)? {
                return Ok(receipt);
            }
        }
        // Miss in memory and nothing in flight: probe the disk tier with
        // the state lock released (file reads must not stall submissions).
        if let Some(disk) = &self.inner.disk {
            let revived = disk.lock().get(hash);
            if let Some(summary) = revived {
                let mut state = self.inner.state.lock();
                if state.draining || state.shutdown {
                    return Err(SubmitError::Draining);
                }
                Metrics::inc(&self.inner.metrics.disk_cache_hits);
                Metrics::inc(&self.inner.metrics.jobs_submitted);
                Metrics::inc(&self.inner.metrics.jobs_done);
                state.cache.insert(hash, Arc::clone(&summary));
                return Ok(state.admit_done(
                    config,
                    hash,
                    summary,
                    client,
                    self.inner.cfg.max_terminal_jobs,
                ));
            }
        }
        let mut state = self.inner.state.lock();
        if state.draining || state.shutdown {
            return Err(SubmitError::Draining);
        }
        // Re-check both fast paths: a leader may have completed (memory
        // hit) or started (coalesce) while the state lock was released.
        if let Some(receipt) = self.try_admit_locked(&mut state, &config, hash, client)? {
            return Ok(receipt);
        }
        self.inner.check_quota(&state, client)?;
        Metrics::inc(&self.inner.metrics.cache_misses);
        if state.queue.len() >= self.inner.cfg.queue_depth {
            Metrics::inc(&self.inner.metrics.rejected_queue_full);
            return Err(SubmitError::QueueFull);
        }
        Metrics::inc(&self.inner.metrics.jobs_submitted);
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            Job {
                id,
                config,
                config_hash: hash,
                state: JobState::Queued,
                summary: None,
                error: None,
                from_cache: false,
                submitted_at: Instant::now(),
                client,
            },
        );
        state.inflight.insert(hash, id);
        state.charge_client(client);
        state.queue.push_back(id);
        drop(state);
        self.inner.work_available.notify_one();
        Ok(SubmitReceipt {
            id,
            config_hash: hash,
            cached: false,
            coalesced: false,
        })
    }

    /// The two under-lock fast paths shared by both submission attempts:
    /// an in-memory cache hit, or coalescing onto an in-flight leader.
    /// Returns `Ok(None)` when neither applies.
    fn try_admit_locked(
        &self,
        state: &mut State,
        config: &PipelineConfig,
        hash: u64,
        client: Option<IpAddr>,
    ) -> Result<Option<SubmitReceipt>, SubmitError> {
        if let Some(summary) = state.cache.get(hash) {
            Metrics::inc(&self.inner.metrics.cache_hits);
            Metrics::inc(&self.inner.metrics.jobs_submitted);
            Metrics::inc(&self.inner.metrics.jobs_done);
            return Ok(Some(state.admit_done(
                config.clone(),
                hash,
                summary,
                client,
                self.inner.cfg.max_terminal_jobs,
            )));
        }
        if let Some(&leader) = state.inflight.get(&hash) {
            self.inner.check_quota(state, client)?;
            Metrics::inc(&self.inner.metrics.jobs_submitted);
            Metrics::inc(&self.inner.metrics.jobs_coalesced);
            // A follower mirrors the leader's progress from the moment it
            // joins (the leader may already be mid-kernel).
            let leader_state = state
                .jobs
                .get(&leader)
                .map(|j| j.state)
                .unwrap_or(JobState::Queued);
            let id = state.next_id;
            state.next_id += 1;
            state.jobs.insert(
                id,
                Job {
                    id,
                    config: config.clone(),
                    config_hash: hash,
                    state: leader_state,
                    summary: None,
                    error: None,
                    from_cache: false,
                    submitted_at: Instant::now(),
                    client,
                },
            );
            state.followers.entry(leader).or_default().push(id);
            state.charge_client(client);
            return Ok(Some(SubmitReceipt {
                id,
                config_hash: hash,
                cached: false,
                coalesced: true,
            }));
        }
        Ok(None)
    }

    /// A point-in-time copy of the job, for rendering.
    pub fn job(&self, id: JobId) -> Option<Job> {
        self.inner.state.lock().jobs.get(&id).cloned()
    }

    /// Cancels a queued job. Cancelling a queued *leader* promotes its
    /// first follower (if any) into the queue slot, so the remaining
    /// waiters still get their run; cancelling a follower detaches only
    /// that waiter.
    pub fn cancel(&self, id: JobId) -> CancelOutcome {
        let mut state = self.inner.state.lock();
        let (job_state, hash, client) = match state.jobs.get(&id) {
            None => return CancelOutcome::NotFound,
            Some(job) => (job.state, job.config_hash, job.client),
        };
        if job_state != JobState::Queued {
            return CancelOutcome::NotCancellable(job_state);
        }
        let was_leader = state.inflight.get(&hash) == Some(&id) && state.queue.contains(&id);
        if was_leader {
            state.queue.retain(|&qid| qid != id);
            let orphans = state.followers.remove(&id).unwrap_or_default();
            let mut rest = orphans.into_iter();
            match rest.next() {
                Some(promoted) => {
                    state.inflight.insert(hash, promoted);
                    state.queue.push_back(promoted);
                    let remaining: Vec<JobId> = rest.collect();
                    if !remaining.is_empty() {
                        state.followers.insert(promoted, remaining);
                    }
                }
                None => {
                    state.inflight.remove(&hash);
                }
            }
        } else {
            // A queued non-leader is a follower; detach it from whichever
            // leader currently owns the hash.
            if let Some(&leader) = state.inflight.get(&hash) {
                let emptied = match state.followers.get_mut(&leader) {
                    Some(list) => {
                        list.retain(|&fid| fid != id);
                        list.is_empty()
                    }
                    None => false,
                };
                if emptied {
                    state.followers.remove(&leader);
                }
            }
        }
        if let Some(job) = state.jobs.get_mut(&id) {
            job.state = JobState::Cancelled;
        }
        state.release_client(client);
        state.retire(id, self.inner.cfg.max_terminal_jobs);
        Metrics::inc(&self.inner.metrics.jobs_cancelled);
        drop(state);
        self.inner.job_changed.notify_all();
        if was_leader {
            // A promoted follower is new queue work.
            self.inner.work_available.notify_one();
        }
        CancelOutcome::Cancelled
    }

    /// Blocks until job `id` reaches a terminal state, up to `timeout`.
    /// Returns the final job, or `None` on timeout / unknown id.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<Job> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        loop {
            match state.jobs.get(&id) {
                None => return None,
                Some(job) if job.state.is_terminal() => return Some(job.clone()),
                Some(_) => {}
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (next, timed_out) = self.inner.job_changed.wait_timeout(state, left);
            state = next;
            if timed_out {
                let job = state.jobs.get(&id)?;
                return job.state.is_terminal().then(|| job.clone());
            }
        }
    }

    /// Current gauge values. The state and disk locks are taken briefly
    /// and strictly in sequence, never nested.
    pub fn gauges(&self) -> Gauges {
        let (jobs_queued, jobs_running, cache_bytes, cache_entries) = {
            let state = self.inner.state.lock();
            (
                state.queue.len() as u64,
                state.running as u64,
                state.cache.used_bytes() as u64,
                state.cache.len() as u64,
            )
        };
        let (disk_cache_bytes, disk_cache_entries) = match &self.inner.disk {
            Some(disk) => {
                let disk = disk.lock();
                (disk.used_bytes(), disk.len() as u64)
            }
            None => (0, 0),
        };
        Gauges {
            jobs_queued,
            jobs_running,
            queue_depth: jobs_queued,
            cache_bytes,
            cache_entries,
            disk_cache_bytes,
            disk_cache_entries,
        }
    }

    /// Whether the service is draining (rejecting new submissions).
    pub fn is_draining(&self) -> bool {
        let state = self.inner.state.lock();
        state.draining || state.shutdown
    }

    /// Stops accepting submissions, waits for every queued and running job
    /// to finish, then stops the workers. Idempotent; called by `Drop`.
    pub fn drain(&self) {
        {
            let mut state = self.inner.state.lock();
            state.draining = true;
            while !state.queue.is_empty() || state.running > 0 {
                state = self.inner.job_changed.wait(state);
            }
            state.shutdown = true;
        }
        self.inner.work_available.notify_all();
        for handle in self.workers.lock().drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "worker bodies catch panics; a join error here is a bug in the loop itself and drain must still stop the rest"
            )]
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Observer that publishes kernel progress onto the leader job *and* every
/// follower coalesced onto it, and feeds the latency histograms.
struct JobObserver<'a> {
    inner: &'a Inner,
    id: JobId,
}

impl PipelineObserver for JobObserver<'_> {
    fn kernel_started(&self, kernel: u8) {
        let mut state = self.inner.state.lock();
        let members = party(&state, self.id);
        for jid in members {
            if let Some(job) = state.jobs.get_mut(&jid) {
                job.state = JobState::Running(kernel);
            }
        }
    }

    fn kernel_finished(&self, kernel: u8, timing: &KernelTiming) {
        if let Some(hist) = self
            .inner
            .metrics
            .kernel_seconds
            .get(usize::from(kernel.min(3)))
        {
            hist.observe(timing.seconds);
        }
    }
}

/// The leader plus its current followers, leader first.
fn party(state: &State, leader: JobId) -> Vec<JobId> {
    let mut members = vec![leader];
    if let Some(followers) = state.followers.get(&leader) {
        members.extend(followers.iter().copied());
    }
    members
}

fn worker_loop(inner: &Inner) {
    loop {
        let (id, hash, config) = {
            let mut state = inner.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    // A queued id without a job record would be a registry
                    // bug; skip it rather than poisoning the worker.
                    state.running += 1;
                    let Some(job) = state.jobs.get_mut(&id) else {
                        state.running -= 1;
                        continue;
                    };
                    job.state = JobState::Running(0);
                    break (id, job.config_hash, job.config.clone());
                }
                state = inner.work_available.wait(state);
            }
        };

        Metrics::inc(&inner.metrics.pipeline_runs);
        let started = Instant::now();
        let work_dir = inner.cfg.work_root.join(format!("job-{id}"));
        let pipeline = Pipeline::new(config, &work_dir);
        let observer = JobObserver { inner, id };
        // A panicking kernel must not unwind past this point: the
        // `running` counter would never be decremented and `drain` (hence
        // `Drop`) would block forever. Catch it and fail the job instead.
        let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline.run_with_observer(&observer)
        })) {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                Err(format!("pipeline panicked: {msg}"))
            }
        };
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best-effort cleanup of a scratch dir; the job outcome must be published even if removal fails"
        )]
        let _ = std::fs::remove_dir_all(&work_dir);

        // Publish to the leader and every follower under the state lock;
        // persist to the disk tier only after releasing it.
        let mut persist: Option<Arc<RunSummary>> = None;
        let mut state = inner.state.lock();
        state.running -= 1;
        let members = party(&state, id);
        state.followers.remove(&id);
        if state.inflight.get(&hash) == Some(&id) {
            state.inflight.remove(&hash);
        }
        match outcome {
            Ok(result) => {
                let record = RunRecord::from_result(&result);
                let ranks = result.kernel3.map(|k| k.ranks).unwrap_or_default();
                let summary = Arc::new(RunSummary {
                    record,
                    ranks,
                    total_seconds: started.elapsed().as_secs_f64(),
                });
                state.cache.insert(hash, Arc::clone(&summary));
                for jid in members {
                    let client = state.jobs.get(&jid).and_then(|j| j.client);
                    if let Some(job) = state.jobs.get_mut(&jid) {
                        job.state = JobState::Done;
                        job.summary = Some(Arc::clone(&summary));
                    }
                    state.release_client(client);
                    state.retire(jid, inner.cfg.max_terminal_jobs);
                    Metrics::inc(&inner.metrics.jobs_done);
                }
                persist = Some(summary);
            }
            Err(err) => {
                for jid in members {
                    let client = state.jobs.get(&jid).and_then(|j| j.client);
                    if let Some(job) = state.jobs.get_mut(&jid) {
                        job.state = JobState::Failed;
                        job.error = Some(err.clone());
                    }
                    state.release_client(client);
                    state.retire(jid, inner.cfg.max_terminal_jobs);
                    Metrics::inc(&inner.metrics.jobs_failed);
                }
            }
        }
        drop(state);
        inner.job_changed.notify_all();
        if let (Some(disk), Some(summary)) = (&inner.disk, persist) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "persisting to the disk tier is best-effort; the result is already published in memory and a full disk must not fail the job"
            )]
            let _ = disk.lock().insert(hash, &summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> PipelineConfig {
        PipelineConfig::builder()
            .scale(6)
            .edge_factor(4)
            .seed(seed)
            .build()
    }

    fn test_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ppbench-serve-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn test_config(workers: usize, queue_depth: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_depth,
            cache_bytes: 1 << 20,
            max_scale: 10,
            max_terminal_jobs: 64,
            work_root: test_root("work"),
            cache_dir: None,
            disk_cache_bytes: 1 << 20,
            max_jobs_per_client: 0,
        }
    }

    fn test_service(workers: usize, queue_depth: usize) -> Service {
        Service::start(test_config(workers, queue_depth)).expect("service starts")
    }

    #[test]
    fn submit_run_and_fetch() {
        let service = test_service(1, 8);
        let receipt = service.submit(tiny_config(1)).unwrap();
        assert!(!receipt.cached);
        assert!(!receipt.coalesced);
        let job = service
            .wait(receipt.id, Duration::from_secs(30))
            .expect("job finishes");
        assert_eq!(job.state, JobState::Done);
        let summary = job.summary.expect("done job has a summary");
        assert_eq!(summary.ranks.len(), 64);
        assert!(summary.record.kernels.iter().all(Option::is_some));
    }

    #[test]
    fn duplicate_config_hits_the_cache() {
        let service = test_service(1, 8);
        let first = service.submit(tiny_config(2)).unwrap();
        service
            .wait(first.id, Duration::from_secs(30))
            .expect("first run finishes");
        let second = service.submit(tiny_config(2)).unwrap();
        assert!(second.cached, "identical config must be a cache hit");
        let job = service.job(second.id).unwrap();
        assert_eq!(job.state, JobState::Done);
        let a = service.job(first.id).unwrap().summary.unwrap();
        let b = job.summary.unwrap();
        assert_eq!(a.ranks.len(), b.ranks.len());
        assert!(
            a.ranks
                .iter()
                .zip(&b.ranks)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "cached ranks must be bit-identical"
        );
    }

    #[test]
    fn algo_workloads_are_servable_and_cached_per_workload() {
        let service = test_service(1, 8);
        let bfs_cfg = || {
            PipelineConfig::builder()
                .scale(6)
                .edge_factor(4)
                .seed(4)
                .workload(ppbench_core::Workload::Bfs)
                .build()
        };
        let receipt = service.submit(bfs_cfg()).unwrap();
        assert!(!receipt.cached);
        let job = service
            .wait(receipt.id, Duration::from_secs(30))
            .expect("bfs job finishes");
        assert_eq!(job.state, JobState::Done, "{:?}", job.error);
        let summary = job.summary.expect("done job has a summary");
        assert_eq!(summary.record.workload, "bfs");
        assert!(summary.record.checksum.is_some());
        assert!(summary.ranks.is_empty(), "bfs produces no rank vector");
        // The same graph config with the default (PageRank) workload must
        // MISS the cache — workload is part of the run identity.
        let pr = service.submit(tiny_config(4)).unwrap();
        assert!(!pr.cached, "pagerank must not reuse the bfs result");
        service
            .wait(pr.id, Duration::from_secs(30))
            .expect("pagerank run finishes");
        // Resubmitting the bfs config is a hit.
        let again = service.submit(bfs_cfg()).unwrap();
        assert!(again.cached, "identical bfs config must be a cache hit");
        let cached = service.job(again.id).unwrap().summary.unwrap();
        assert_eq!(cached.record.checksum, summary.record.checksum);
    }

    #[test]
    fn queue_overflow_is_rejected() {
        // Zero-depth queue: no submission can wait, so the first
        // non-cached submission after the workers are busy is rejected.
        let service = test_service(1, 0);
        assert_eq!(service.submit(tiny_config(3)), Err(SubmitError::QueueFull));
    }

    #[test]
    fn oversized_scale_is_rejected() {
        let service = test_service(1, 8);
        let cfg = PipelineConfig::builder().scale(11).build();
        assert_eq!(
            service.submit(cfg),
            Err(SubmitError::ScaleTooLarge {
                requested: 11,
                limit: 10
            })
        );
    }

    #[test]
    fn cancel_only_affects_queued_jobs() {
        let service = test_service(1, 8);
        assert_eq!(service.cancel(999), CancelOutcome::NotFound);
        let receipt = service.submit(tiny_config(4)).unwrap();
        let done = service.wait(receipt.id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(
            service.cancel(receipt.id),
            CancelOutcome::NotCancellable(JobState::Done)
        );
    }

    #[test]
    fn terminal_jobs_are_pruned_beyond_the_cap() {
        let mut cfg = test_config(1, 8);
        cfg.max_terminal_jobs = 2;
        cfg.work_root = test_root("prune");
        let service = Service::start(cfg).expect("service starts");
        let ids: Vec<JobId> = (0..4)
            .map(|seed| {
                let receipt = service.submit(tiny_config(200 + seed)).unwrap();
                service
                    .wait(receipt.id, Duration::from_secs(30))
                    .expect("job finishes");
                receipt.id
            })
            .collect();
        assert!(service.job(ids[0]).is_none(), "oldest record evicted");
        assert!(service.job(ids[1]).is_none());
        assert_eq!(service.job(ids[2]).unwrap().state, JobState::Done);
        assert_eq!(service.job(ids[3]).unwrap().state, JobState::Done);
        // Cache-hit submissions are terminal immediately and count too.
        let hit = service.submit(tiny_config(203)).unwrap();
        assert!(hit.cached);
        assert!(service.job(ids[2]).is_none(), "window advanced past it");
        assert!(service.job(hit.id).is_some());
    }

    #[test]
    fn drain_finishes_accepted_work_then_rejects() {
        let service = test_service(2, 8);
        let ids: Vec<JobId> = (0..4)
            .map(|seed| service.submit(tiny_config(100 + seed)).unwrap().id)
            .collect();
        service.drain();
        for id in ids {
            let job = service.job(id).expect("job retained after drain");
            assert_eq!(job.state, JobState::Done, "drain completes accepted jobs");
        }
        assert_eq!(service.submit(tiny_config(5)), Err(SubmitError::Draining));
    }
}
