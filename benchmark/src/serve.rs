//! Serve segment: an in-process `Service` behind the real `HttpServer`,
//! driven as a **closed loop** — each client sends its next request when
//! the previous one completes, because callers of a benchmark service
//! wait for their result. Two phases alternate, never overlapping, so
//! neither contaminates the other's tail: *hit* (cached receipts over
//! HTTP from two clients, the read path) and *cold* (never-seen configs
//! submitted one at a time, one real pipeline run each, the write path).

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppbench_core::{Pipeline, PipelineConfig};
use ppbench_prng::SplitMix64;
use ppbench_serve::{
    config_from_json, http_request, DiskCache, HttpServer, JobState, Json, ResultCache, Service,
    ServiceConfig,
};

use crate::stats::{median, p99};
use crate::tally::{parallel_threads, put, size_pool, Metrics, Tally, TIMED_THREADS};
use crate::trace::Recorder;

/// Size of a serve segment.
#[derive(Debug, Clone, Copy)]
pub struct ServePlan {
    /// Hit windows per round. `hit_p99_ms` is the median of the windows'
    /// p99s.
    pub windows: usize,
    /// Requests per window, all clients together. At least 1 100, so a
    /// window's p99 has ten samples beyond it.
    pub window: usize,
    /// Cold jobs per round.
    pub cold_jobs: usize,
    /// Scale of each cold job.
    pub cold_scale: u32,
}

/// Hot configs the hit phase rotates through; pre-warmed in set-up.
const HOT_CONFIGS: u64 = 8;
/// Scale of the hot configs.
const HOT_SCALE: u32 = 10;
/// How long a client waits for one cold job.
const COLD_TIMEOUT: Duration = Duration::from_secs(60);

fn hot_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::mix(seed ^ 0x484f_5400 ^ i)
}

fn cold_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::mix(seed ^ 0x434f_4c44_0000 ^ i)
}

fn body(scale: u32, seed: u64) -> String {
    format!("{{\"scale\":{scale},\"seed\":{seed}}}")
}

fn config(scale: u32, seed: u64) -> PipelineConfig {
    PipelineConfig::builder().scale(scale).seed(seed).build()
}

/// A running service + HTTP server and the samples taken against it.
pub struct ServeSegment {
    plan: ServePlan,
    seed: u64,
    dir: PathBuf,
    service: Arc<Service>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<()>>,
    /// Hit latencies in ms, one vector per window.
    hit_windows_ms: Vec<Vec<f64>>,
    /// Seconds spent inside hit windows.
    hit_s: f64,
    /// Cache (hits, misses) counted during hit windows.
    hit_counters: (u64, u64),
    /// Cold submit→done latencies in ms.
    cold_ms: Vec<f64>,
    /// Cache (hits, misses) counted during cold jobs.
    cold_counters: (u64, u64),
}

impl ServeSegment {
    /// Starts the service (two workers, memory + disk cache under `dir`)
    /// and the HTTP server on an ephemeral loopback port, then pre-warms
    /// the hot configs.
    pub fn start(
        plan: ServePlan,
        seed: u64,
        dir: &Path,
        tally: &mut Tally,
    ) -> std::io::Result<Self> {
        size_pool(TIMED_THREADS);
        let service = Arc::new(Service::start(ServiceConfig {
            workers: 2,
            max_scale: plan.cold_scale.max(HOT_SCALE),
            work_root: dir.join("jobs"),
            cache_dir: Some(dir.join("cache")),
            ..ServiceConfig::default()
        })?);
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service))?;
        let addr = server.local_addr()?;
        let shutdown = server.shutdown_flag();
        let handle = std::thread::Builder::new()
            .name("ppmark-http".into())
            .spawn(move || server.run())?;
        let segment = Self {
            plan,
            seed,
            dir: dir.to_path_buf(),
            service,
            addr,
            shutdown,
            server: Some(handle),
            hit_windows_ms: Vec::new(),
            hit_s: 0.0,
            hit_counters: (0, 0),
            cold_ms: Vec::new(),
            cold_counters: (0, 0),
        };
        for i in 0..HOT_CONFIGS {
            let done = segment
                .service
                .submit(config(HOT_SCALE, hot_seed(seed, i)))
                .ok()
                .and_then(|r| segment.service.wait(r.id, COLD_TIMEOUT));
            tally.check(done.is_some_and(|j| j.state == JobState::Done), || {
                format!("pre-warming hot config {i} did not finish")
            });
        }
        Ok(segment)
    }

    fn cache_counters(&self) -> (u64, u64) {
        let m = self.service.metrics();
        (
            m.cache_hits.load(Ordering::Relaxed),
            m.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// One hit-phase window: `plan.window` `POST /runs` of pre-warmed
    /// configs, split over the closed-loop clients. Every response must
    /// be 2xx and say `"cached":true`.
    fn hit_window(&mut self, tally: &mut Tally) {
        let before = self.cache_counters();
        let start = Instant::now();
        let offset = (self.hit_windows_ms.len() * self.plan.window) as u64;
        let clients = parallel_threads();
        let per_client = self.plan.window / clients;
        let (addr, seed) = (self.addr, self.seed);
        let failures = AtomicU64::new(0);
        let mut latencies: Vec<f64> = Vec::with_capacity(per_client * clients);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let failures = &failures;
                    scope.spawn(move || {
                        let mut ms = Vec::with_capacity(per_client);
                        for i in 0..per_client as u64 {
                            let hot = (offset + i * clients as u64 + c as u64) % HOT_CONFIGS;
                            let body = body(HOT_SCALE, hot_seed(seed, hot));
                            let start = Instant::now();
                            let response = http_request(addr, "POST", "/runs", Some(&body));
                            ms.push(start.elapsed().as_secs_f64() * 1e3);
                            let ok = response.is_ok_and(|r| {
                                (200..300).contains(&r.status) && r.body.contains("\"cached\":true")
                            });
                            if !ok {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        ms
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(ms) => latencies.extend(ms),
                    Err(_) => {
                        failures.fetch_add(per_client as u64, Ordering::Relaxed);
                    }
                }
            }
        });
        let sent = (per_client * clients) as u64;
        let failed = failures.load(Ordering::Relaxed).min(sent);
        tally.ok(sent - failed);
        for _ in 0..failed {
            tally.fail("hit request was not a cached 2xx".into());
        }
        self.hit_windows_ms.push(latencies);
        self.hit_s += start.elapsed().as_secs_f64();
        let after = self.cache_counters();
        self.hit_counters.0 += after.0 - before.0;
        self.hit_counters.1 += after.1 - before.1;
    }

    /// One cold job: in-process `submit` + `wait` of a never-seen seed.
    /// It must end `done` and must not come from the cache. One at a
    /// time: with two in flight, latency would measure whether the host
    /// delivered one or two CPUs that second.
    fn cold_job(&mut self, tally: &mut Tally) {
        let before = self.cache_counters();
        let cfg = config(
            self.plan.cold_scale,
            cold_seed(self.seed, self.cold_ms.len() as u64),
        );
        let start = Instant::now();
        let job = self
            .service
            .submit(cfg)
            .ok()
            .and_then(|r| self.service.wait(r.id, COLD_TIMEOUT));
        self.cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.check(
            job.is_some_and(|j| j.state == JobState::Done && !j.from_cache),
            || "cold job did not end done from a fresh run".into(),
        );
        let after = self.cache_counters();
        self.cold_counters.0 += after.0 - before.0;
        self.cold_counters.1 += after.1 - before.1;
    }

    /// One round: the planned hit windows, then the planned cold jobs.
    pub fn round(&mut self, tally: &mut Tally) {
        // Workers run the default staged pipeline at the timed thread count.
        size_pool(TIMED_THREADS);
        for _ in 0..self.plan.windows {
            self.hit_window(tally);
        }
        for _ in 0..self.plan.cold_jobs {
            self.cold_job(tally);
        }
    }

    /// The phases must not leak into each other: no miss among the hits,
    /// no hit among the cold jobs.
    pub fn check_phase_counters(&self, tally: &mut Tally) {
        tally.check(self.hit_counters.1 == 0, || {
            format!("{} cache misses in the hit phase", self.hit_counters.1)
        });
        tally.check(self.cold_counters.0 == 0, || {
            format!("{} cache hits in the cold phase", self.cold_counters.0)
        });
    }

    /// Checks that what the service returns is what the pipeline
    /// computes: top-10 ranks of every hot config and of the first cold
    /// configs equal a direct `Pipeline::run` of the same config.
    /// Returns the direct runs' median seconds for the cold configs.
    pub fn verify_against_direct_runs(&self, tally: &mut Tally) -> f64 {
        size_pool(TIMED_THREADS);
        let hot = (0..HOT_CONFIGS).map(|i| config(HOT_SCALE, hot_seed(self.seed, i)));
        let cold_checked = (self.cold_ms.len() as u64).min(8);
        let cold = (0..cold_checked).map(|i| config(self.plan.cold_scale, cold_seed(self.seed, i)));
        let mut cold_direct_s = Vec::new();
        for (n, cfg) in hot.chain(cold).enumerate() {
            let dir = self.dir.join("direct");
            let start = Instant::now();
            let direct = Pipeline::new(cfg.clone(), &dir).run();
            let secs = start.elapsed().as_secs_f64();
            // Best effort: a leftover is removed with the work root.
            let _ = std::fs::remove_dir_all(&dir);
            if n as u64 >= HOT_CONFIGS {
                cold_direct_s.push(secs);
            }
            let served = self
                .service
                .submit(cfg)
                .ok()
                .and_then(|r| self.service.wait(r.id, COLD_TIMEOUT))
                .and_then(|j| j.summary);
            let same = match (direct, served) {
                (Ok(d), Some(s)) => d.kernel3.is_some_and(|k3| k3.top_k(10) == s.top_k(10)),
                _ => false,
            };
            tally.check(same, || {
                format!("served top-10 ranks differ from a direct run (config {n})")
            });
        }
        median(&cold_direct_s)
    }

    /// Completed hit requests ÷ phase seconds, the median of the
    /// windows' p99s, and the cold submit→done median.
    pub fn end_to_end(&self, out: &mut Metrics) {
        let requests: usize = self.hit_windows_ms.iter().map(Vec::len).sum();
        put(out, "hit_rps", requests as f64 / self.hit_s);
        let p99s: Vec<f64> = self.hit_windows_ms.iter().map(|w| p99(w)).collect();
        put(out, "hit_p99_ms", median(&p99s));
        put(out, "cold_result_p50_ms", median(&self.cold_ms));
    }

    /// The `serve.*` per-layer metrics: micro-probes of the hit and cold
    /// paths' parts, then the service's own counters at quiescence.
    /// `cold_direct_s` comes from
    /// [`ServeSegment::verify_against_direct_runs`].
    pub fn traced_pass(
        &self,
        rec: &Recorder,
        cold_direct_s: f64,
        out: &mut Metrics,
        tally: &mut Tally,
    ) {
        // The service's own counters, read before the probes below add to
        // them: fixed request counts make them repeat exactly.
        let m = self.service.metrics();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        put(out, "serve.metrics.http_requests", load(&m.http_requests));
        put(out, "serve.metrics.conns_accepted", load(&m.conns_accepted));
        put(out, "serve.metrics.cache_hits", load(&m.cache_hits));
        put(out, "serve.metrics.cache_misses", load(&m.cache_misses));
        put(out, "serve.metrics.pipeline_runs", load(&m.pipeline_runs));
        put(
            out,
            "serve.metrics.rejected",
            load(&m.rejected_queue_full)
                + load(&m.rejected_quota)
                + load(&m.rejected_over_capacity),
        );
        put(
            out,
            "serve.metrics.http_errors",
            load(&m.http_read_timeouts)
                + load(&m.http_write_timeouts)
                + load(&m.http_write_errors)
                + load(&m.http_half_requests),
        );

        let root = rec.begin("serve.probes", None, 5);
        let hot_body = body(HOT_SCALE, hot_seed(self.seed, 0));
        let hot_cfg = config(HOT_SCALE, hot_seed(self.seed, 0));

        // Median µs of `f` over `n` calls, all inside one span.
        let probe = |name: &str, n: usize, f: &mut dyn FnMut() -> bool| -> f64 {
            let id = rec.begin(name, Some(root), 5);
            let mut us = Vec::with_capacity(n);
            let mut ok = true;
            for _ in 0..n {
                let start = Instant::now();
                ok &= f();
                us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            rec.end(id);
            if !ok {
                return f64::NAN;
            }
            median(&us)
        };

        let parse_us = probe("serve.json.parse", 2000, &mut || {
            Json::parse(&hot_body)
                .ok()
                .is_some_and(|j| config_from_json(&j).is_ok())
        });
        put(out, "serve.json.parse_us", parse_us);

        let summary = self
            .service
            .submit(hot_cfg.clone())
            .ok()
            .and_then(|r| self.service.job(r.id))
            .and_then(|j| j.summary);
        let Some(summary) = summary else {
            tally.fail("no cached summary for the hot config".into());
            rec.end(root);
            return;
        };
        let hash = hot_cfg.canonical_hash();
        let mut mem = ResultCache::new(64 << 20);
        mem.insert(hash, Arc::clone(&summary));
        let mem_get_us = probe("serve.cache.mem_get", 2000, &mut || {
            std::hint::black_box(mem.get(hash)).is_some()
        });
        put(out, "serve.cache.mem_get_us", mem_get_us);

        let submit_hit_us = probe("serve.service.submit_hit", 2000, &mut || {
            self.service.submit(hot_cfg.clone()).is_ok_and(|r| r.cached)
        });
        put(out, "serve.service.submit_hit_us", submit_hit_us);
        let all_hits: Vec<f64> = self.hit_windows_ms.iter().flatten().copied().collect();
        // HTTP hit p50 minus the in-process submit p50: connect, accept,
        // event-loop tick, head and body parse, response write.
        put(
            out,
            "serve.http.overhead_us",
            median(&all_hits) * 1e3 - submit_hit_us,
        );

        let disk_dir = self.dir.join("disk-probe");
        match DiskCache::open(&disk_dir, 256 << 20) {
            Ok(mut disk) => {
                let mut key = 0u64;
                let insert_us = probe("serve.cache.disk_insert", 50, &mut || {
                    key += 1;
                    disk.insert(key, &summary).is_ok()
                });
                put(out, "serve.cache.disk_insert_us", insert_us);
                let mut key = 0u64;
                let get_us = probe("serve.cache.disk_get", 50, &mut || {
                    key += 1;
                    disk.get(key).is_some()
                });
                put(out, "serve.cache.disk_get_us", get_us);
            }
            Err(e) => tally.fail(format!("cannot open the probe disk cache: {e}")),
        }
        rec.end(root);

        // Cold p50 minus a direct run of the same configs: queue wait,
        // worker hand-off, cache insert.
        put(
            out,
            "serve.service.cold_overhead_ms",
            median(&self.cold_ms) - cold_direct_s * 1e3,
        );

        let (hits, misses) = self.hit_counters;
        put(
            out,
            "serve.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        // At quiescence every submitted job is accounted for.
        let gauges = self.service.gauges();
        let accounted = load(&m.jobs_done)
            + load(&m.jobs_failed)
            + load(&m.jobs_cancelled)
            + gauges.jobs_queued as f64
            + gauges.jobs_running as f64;
        let conserved = load(&m.jobs_submitted) == accounted;
        tally.check(conserved, || {
            format!(
                "jobs not conserved: {} submitted, {accounted} accounted for",
                load(&m.jobs_submitted)
            )
        });
        put(
            out,
            "serve.service.jobs_conserved",
            if conserved { 1.0 } else { 0.0 },
        );
    }

    /// Stops the event loop (which drains the service) and joins it.
    pub fn stop(mut self, tally: &mut Tally) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.server.take() {
            tally.check(handle.join().is_ok(), || {
                "the HTTP server thread panicked".into()
            });
        }
    }
}
