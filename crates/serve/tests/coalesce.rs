//! Request coalescing, per-client admission control, and disk-tier
//! restart survival — the service-level contracts added alongside the
//! event-loop front end.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use std::net::{IpAddr, Ipv4Addr};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ppbench_core::PipelineConfig;
use ppbench_serve::{CancelOutcome, JobState, Service, ServiceConfig, SubmitError};

fn test_config(tag: &str, workers: usize, queue_depth: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_depth,
        work_root: std::env::temp_dir().join(format!(
            "ppbench-coalesce-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )),
        ..ServiceConfig::default()
    }
}

fn config(scale: u32, seed: u64) -> PipelineConfig {
    PipelineConfig::builder()
        .scale(scale)
        .edge_factor(4)
        .seed(seed)
        .build()
}

fn client(last_octet: u8) -> Option<IpAddr> {
    Some(IpAddr::V4(Ipv4Addr::new(10, 0, 0, last_octet)))
}

#[test]
fn duplicates_of_an_in_flight_config_coalesce_onto_one_run() {
    // One worker, occupied by a blocker: the leader sits in the queue, so
    // duplicates submitted behind it must coalesce instead of queueing.
    let service = Service::start(test_config("dup", 1, 32)).expect("service starts");
    let blocker = service.submit(config(9, 999)).expect("blocker accepted");
    let leader = service.submit(config(8, 1)).expect("leader accepted");
    assert!(!leader.cached && !leader.coalesced);

    let follower_a = service.submit(config(8, 1)).expect("follower accepted");
    let follower_b = service.submit(config(8, 1)).expect("follower accepted");
    assert!(follower_a.coalesced, "duplicate must coalesce, not queue");
    assert!(follower_b.coalesced);
    assert_eq!(leader.config_hash, follower_a.config_hash);
    assert!(!follower_a.cached, "coalescing is not a cache hit");

    for id in [blocker.id, leader.id, follower_a.id, follower_b.id] {
        let job = service
            .wait(id, Duration::from_secs(60))
            .expect("job finishes");
        assert_eq!(job.state, JobState::Done, "job {id}");
    }

    // Exactly two pipeline executions: the blocker and the leader. The
    // followers rode along.
    let metrics = service.metrics();
    assert_eq!(metrics.pipeline_runs.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.jobs_coalesced.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.jobs_done.load(Ordering::Relaxed), 4);
    assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 0);

    // All members of the party share the one stored summary, so their
    // ranks are bit-identical by construction.
    let a = service.job(leader.id).unwrap().summary.unwrap();
    let b = service.job(follower_a.id).unwrap().summary.unwrap();
    let c = service.job(follower_b.id).unwrap().summary.unwrap();
    assert!(Arc::ptr_eq(&a, &b), "followers share the leader's summary");
    assert!(Arc::ptr_eq(&a, &c));
    service.drain();
}

#[test]
fn cancelling_the_leader_promotes_the_first_follower() {
    let service = Service::start(test_config("promote", 1, 32)).expect("service starts");
    let blocker = service.submit(config(9, 999)).expect("blocker accepted");
    let leader = service.submit(config(8, 2)).expect("leader accepted");
    let follower = service.submit(config(8, 2)).expect("follower accepted");
    assert!(follower.coalesced);

    assert_eq!(service.cancel(leader.id), CancelOutcome::Cancelled);
    assert_eq!(
        service.job(leader.id).unwrap().state,
        JobState::Cancelled,
        "the cancelled leader is terminal"
    );

    // The follower inherited the queue slot: it must still reach Done.
    let job = service
        .wait(follower.id, Duration::from_secs(60))
        .expect("promoted follower finishes");
    assert_eq!(job.state, JobState::Done);
    service
        .wait(blocker.id, Duration::from_secs(60))
        .expect("blocker finishes");
    assert_eq!(
        service.metrics().pipeline_runs.load(Ordering::Relaxed),
        2,
        "blocker + promoted follower"
    );
    service.drain();
}

#[test]
fn cancelling_a_follower_leaves_the_leader_running() {
    let service = Service::start(test_config("follower-cancel", 1, 32)).expect("service starts");
    let blocker = service.submit(config(9, 999)).expect("blocker accepted");
    let leader = service.submit(config(8, 3)).expect("leader accepted");
    let follower = service.submit(config(8, 3)).expect("follower accepted");
    assert!(follower.coalesced);

    assert_eq!(service.cancel(follower.id), CancelOutcome::Cancelled);
    assert_eq!(service.job(follower.id).unwrap().state, JobState::Cancelled);

    let job = service
        .wait(leader.id, Duration::from_secs(60))
        .expect("leader finishes");
    assert_eq!(job.state, JobState::Done, "leader unaffected");
    service
        .wait(blocker.id, Duration::from_secs(60))
        .expect("blocker finishes");
    service.drain();
}

#[test]
fn per_client_quota_caps_in_flight_jobs_and_releases_on_completion() {
    let mut cfg = test_config("quota", 1, 32);
    cfg.max_jobs_per_client = 2;
    let service = Service::start(cfg).expect("service starts");

    // Client A fills its quota with two distinct configs.
    let first = service
        .submit_from(config(8, 10), client(1))
        .expect("first accepted");
    let second = service
        .submit_from(config(8, 11), client(1))
        .expect("second accepted");
    assert_eq!(
        service.submit_from(config(8, 12), client(1)),
        Err(SubmitError::QuotaExceeded),
        "third in-flight job from the same client must be rejected"
    );

    // Another client and in-process submissions are unaffected.
    let other = service
        .submit_from(config(8, 13), client(2))
        .expect("different client admitted");
    let local = service
        .submit(config(8, 14))
        .expect("in-process submissions are never quota-limited");

    for id in [first.id, second.id, other.id, local.id] {
        service.wait(id, Duration::from_secs(60)).expect("finishes");
    }

    // Quota charges are released when jobs reach a terminal state.
    service
        .submit_from(config(8, 12), client(1))
        .expect("quota released after completion");
    assert!(
        service.metrics().rejected_quota.load(Ordering::Relaxed) >= 1,
        "quota rejections must be counted"
    );
    service.drain();
}

#[test]
fn disk_tier_serves_cached_results_across_a_service_restart() {
    let cache_dir: PathBuf = std::env::temp_dir().join(format!(
        "ppbench-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut cfg = test_config("restart-a", 1, 8);
    cfg.cache_dir = Some(cache_dir.clone());
    let first_run;
    {
        let service = Service::start(cfg.clone()).expect("first service starts");
        let receipt = service.submit(config(8, 42)).expect("accepted");
        assert!(!receipt.cached);
        let job = service
            .wait(receipt.id, Duration::from_secs(60))
            .expect("finishes");
        assert_eq!(job.state, JobState::Done);
        first_run = job.summary.expect("done job has a summary");
        service.drain();
    }

    // A brand-new service over the same directory: the in-memory cache is
    // empty, so the hit must come from the disk tier.
    cfg.work_root = std::env::temp_dir().join(format!(
        "ppbench-restart-b-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let service = Service::start(cfg).expect("second service starts");
    let receipt = service.submit(config(8, 42)).expect("accepted");
    assert!(
        receipt.cached,
        "identical config must be served from the disk tier after restart"
    );
    let job = service.job(receipt.id).expect("job exists");
    assert_eq!(job.state, JobState::Done, "disk hits are immediately done");
    assert!(job.from_cache);

    let metrics = service.metrics();
    assert_eq!(metrics.disk_cache_hits.load(Ordering::Relaxed), 1);
    assert_eq!(
        metrics.pipeline_runs.load(Ordering::Relaxed),
        0,
        "no pipeline ran in the second service"
    );

    let revived = job.summary.expect("summary restored from disk");
    assert_eq!(revived.ranks.len(), first_run.ranks.len());
    assert!(
        revived
            .ranks
            .iter()
            .zip(&first_run.ranks)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "ranks must round-trip through the disk tier bit-identically"
    );
    assert_eq!(revived.record.to_json(), first_run.record.to_json());
    service.drain();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn late_duplicate_after_completion_is_a_cache_hit_not_a_coalesce() {
    let service = Service::start(test_config("late", 1, 8)).expect("service starts");
    let first = service.submit(config(8, 77)).expect("accepted");
    service
        .wait(first.id, Duration::from_secs(60))
        .expect("finishes");
    let second = service.submit(config(8, 77)).expect("accepted");
    assert!(second.cached, "completed config must hit the cache");
    assert!(!second.coalesced, "nothing in flight to coalesce with");
    assert_eq!(service.metrics().jobs_coalesced.load(Ordering::Relaxed), 0);
    service.drain();
}
