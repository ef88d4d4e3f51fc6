//! One workload, start to finish: set-up, the timed session, the
//! correctness gate, and (with `--trace 1`) the traced pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ppbench_core::model::HardwareModel;

use crate::algo::AlgoSegment;
use crate::env::Env;
use crate::pipe::PipeSegment;
use crate::plan::{Plan, Seeds, MIN_ROUNDS};
use crate::serve::ServeSegment;
use crate::stats::median;
use crate::tally::{put, Metrics, Tally};
use crate::trace::Recorder;

/// How often set-up is repeated when `setup_s` is reported; the median
/// is what a run prints, so one slow set-up does not decide it.
const SETUPS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload's plan.
    pub plan: Plan,
    /// The benchmark's only random input.
    pub seed: u64,
    /// Length of the measurement window in seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Repository root (for the commit in the environment header).
    pub repo_root: PathBuf,
    /// `benchmark/out`: traces and the work root live under it.
    pub out_dir: PathBuf,
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed, with the failures' messages.
    pub tally: Tally,
    /// The metrics of the requested kind.
    pub metrics: Metrics,
    /// The environment header.
    pub env: Env,
}

/// Everything set-up produces: the calibrated hardware model, the warmed
/// pipeline segment, the built graph, and the running, pre-warmed server.
struct Session {
    hw: HardwareModel,
    pipe: PipeSegment,
    algo: AlgoSegment,
    serve: ServeSegment,
}

impl Session {
    fn set_up(plan: &Plan, seeds: &Seeds, dir: &Path, tally: &mut Tally) -> Result<Self, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let hw = HardwareModel::calibrate();
        let mut pipe = PipeSegment::new(plan.pipe, seeds.pipe, &dir.join("pipe"));
        pipe.warm_up(tally);
        let algo = AlgoSegment::build(plan.algo, seeds.algo, &dir.join("algo"))?;
        let serve = ServeSegment::start(plan.serve, seeds.serve, &dir.join("serve"), tally)
            .map_err(|e| format!("cannot start the service: {e}"))?;
        Ok(Self {
            hw,
            pipe,
            algo,
            serve,
        })
    }
}

/// Runs the workload described by `opts`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = opts.out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    // `HardwareModel::calibrate` probes the system temp dir; point it at
    // the work root so nothing is written outside the checkout. Safe:
    // no other thread exists yet.
    std::env::set_var("TMPDIR", &work);
    let outcome = run_in(opts, &work);
    let removed = std::fs::remove_dir_all(&work);
    let mut outcome = outcome?;
    outcome.tally.check(removed.is_ok(), || {
        format!("cannot remove the work root {}", work.display())
    });
    Ok(outcome)
}

fn run_in(opts: &Options, work: &Path) -> Result<Outcome, String> {
    let plan = &opts.plan;
    let mut env = Env::probe(&opts.repo_root, work, opts.seed, opts.seconds);
    let mut tally = Tally::default();
    let seeds = Seeds::derive(opts.seed);

    // Set-up, repeated when its time is what this run reports; the last
    // repetition's products are the ones measured.
    let repeats = if opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut session = None;
    for rep in 0..repeats {
        if let Some(Session { serve, .. }) = session.take() {
            serve.stop(&mut tally);
        }
        let start = Instant::now();
        session = Some(Session::set_up(
            plan,
            &seeds,
            &work.join(format!("setup-{rep}")),
            &mut tally,
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Session {
        hw,
        mut pipe,
        mut algo,
        mut serve,
    } = session.ok_or("set-up did not run")?;

    let rec = Recorder::new();
    let mut metrics = Metrics::new();

    // The timed session: rounds of (serve, pipeline, algorithms) until
    // the window is used up, so every metric samples the whole window
    // and a slow stretch of the host lands on all of them alike.
    let window = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || window.elapsed().as_secs_f64() < opts.seconds {
        serve.round(&mut tally);
        pipe.round(&mut tally);
        algo.round(&mut tally);
        rounds += 1;
    }
    let peak_rss_mb = crate::env::peak_rss_mb();

    serve.check_phase_counters(&mut tally);
    let cold_direct_s = serve.verify_against_direct_runs(&mut tally);
    if opts.trace {
        serve.traced_pass(&rec, cold_direct_s, &mut metrics, &mut tally);
    } else {
        serve.end_to_end(&mut metrics);
    }
    serve.stop(&mut tally);
    pipe.cross_check(&mut tally);
    let oracle_s = algo.verify_against_oracles(&mut tally);

    env.set(
        "samples",
        format!(
            "{rounds} rounds, {} pipeline trials of {} edges, algo graph of {} edges",
            pipe.samples.run_s.len(),
            pipe.edges(),
            algo.edges()
        ),
    );
    if opts.trace {
        pipe.traced_pass(&rec, &hw, &mut metrics, &mut tally);
        algo.traced_pass(&rec, &oracle_s, &mut metrics, &mut tally);
        put(
            &mut metrics,
            "rayon.dispatch_us",
            crate::pipe::rayon_dispatch_us(),
        );
        if let Err(e) = rec.check() {
            tally.fail(format!("trace: {e}"));
        }
        let path = opts.out_dir.join(format!("trace-{}.json", plan.name));
        std::fs::write(&path, rec.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        env.set("trace_spans", rec.len().to_string());
    } else {
        pipe.end_to_end(&mut metrics);
        algo.end_to_end(&mut metrics);
        put(&mut metrics, "setup_s", median(&setup_s));
        put(&mut metrics, "peak_rss_mb", peak_rss_mb);
    }
    Ok(Outcome {
        tally,
        metrics,
        env,
    })
}
