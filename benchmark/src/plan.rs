//! The four workloads.
//!
//! Every workload is one *session* of the whole system, because every
//! end-to-end metric must be measured on every workload: rounds of a
//! served hit window and cold jobs, pipeline trials, and algorithm
//! passes, repeated until `--seconds` is used up. What differs is which
//! part runs at its full working set (and so does most of the timed
//! work) and which pipeline path the session uses. The other two parts
//! run at a small size, so each part is also measured cache-resident,
//! where per-call overheads rather than bandwidth dominate.

use ppbench_prng::SplitMix64;

use crate::algo::AlgoPlan;
use crate::pipe::PipePlan;
use crate::serve::ServePlan;

/// One workload: what a round of its session runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Pipeline part.
    pub pipe: PipePlan,
    /// Algorithm part.
    pub algo: AlgoPlan,
    /// Serve part.
    pub serve: ServePlan,
}

/// Names of the workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "pipeline-spec",
    "pipeline-fast",
    "algo-suite",
    "serve-closed",
];

/// Rounds a session runs at least, however short `--seconds` is: enough
/// samples for every median.
pub const MIN_ROUNDS: usize = 3;

// Full sizes are what the 2-core reference host can repeat inside the
// acceptance budget (92 runs in under an hour); the paper's scale 20 is
// not. Small sizes keep a round's side parts to a fraction of a second.
const PIPE_LARGE: PipePlan = PipePlan {
    scale: 17,
    fast: false,
    trials: 1,
};
const PIPE_SMALL: PipePlan = PipePlan {
    scale: 14,
    fast: false,
    trials: 2,
};
const ALGO_LARGE: AlgoPlan = AlgoPlan {
    scale: 16,
    passes: 1,
};
const ALGO_SMALL: AlgoPlan = AlgoPlan {
    scale: 13,
    passes: 1,
};
const SERVE_LARGE: ServePlan = ServePlan {
    windows: 2,
    window: 1200,
    cold_jobs: 8,
    cold_scale: 12,
};
const SERVE_SMALL: ServePlan = ServePlan {
    windows: 1,
    window: 1200,
    cold_jobs: 4,
    cold_scale: 10,
};

/// The plan for workload `name`; `smoke` shrinks every part to the size
/// the self-test runs in a few seconds.
pub fn plan(name: &str, smoke: bool) -> Option<Plan> {
    let fast = |p: PipePlan| PipePlan { fast: true, ..p };
    let mut plan = match name {
        // The paper's literal pipeline at full size: every kernel
        // boundary is a file set.
        "pipeline-spec" => Plan {
            name: "pipeline-spec",
            pipe: PIPE_LARGE,
            algo: ALGO_SMALL,
            serve: SERVE_SMALL,
        },
        // The same graph through the production fast path.
        "pipeline-fast" => Plan {
            name: "pipeline-fast",
            pipe: fast(PIPE_LARGE),
            algo: ALGO_SMALL,
            serve: SERVE_SMALL,
        },
        // Its graph comes from the fused path, so its small pipeline part
        // uses that path too.
        "algo-suite" => Plan {
            name: "algo-suite",
            pipe: fast(PIPE_SMALL),
            algo: ALGO_LARGE,
            serve: SERVE_SMALL,
        },
        // Service workers run the default staged pipeline, so its small
        // pipeline part does too.
        "serve-closed" => Plan {
            name: "serve-closed",
            pipe: PIPE_SMALL,
            algo: ALGO_SMALL,
            serve: SERVE_LARGE,
        },
        _ => return None,
    };
    if smoke {
        plan.pipe.scale = 12;
        plan.algo.scale = 10;
        plan.serve.cold_scale = 8;
    }
    Some(plan)
}

/// The seeds a session hands the program, all derived from `--seed`
/// with SplitMix64: the program never sees the benchmark seed itself.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Graph seed of the pipeline part.
    pub pipe: u64,
    /// Graph seed of the algorithm part (also keys its sources and SSSP
    /// weights).
    pub algo: u64,
    /// Base seed of the hot and cold request configs.
    pub serve: u64,
}

impl Seeds {
    /// Derives the per-part seeds from the benchmark seed.
    pub fn derive(seed: u64) -> Self {
        let part = |tag: u64| SplitMix64::mix(seed.wrapping_mul(SplitMix64::GAMMA) ^ tag);
        Self {
            pipe: part(1),
            algo: part(2),
            serve: part(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_has_a_plan_and_nothing_else_does() {
        for name in WORKLOADS {
            assert_eq!(plan(name, false).unwrap().name, name);
            assert!(plan(name, true).unwrap().pipe.scale <= 12);
        }
        assert!(plan("pipeline", false).is_none());
    }

    #[test]
    fn the_two_pipeline_workloads_share_one_graph() {
        let (spec, fast) = (
            plan("pipeline-spec", false).unwrap(),
            plan("pipeline-fast", false).unwrap(),
        );
        assert_eq!(spec.pipe.scale, fast.pipe.scale);
        assert!(!spec.pipe.fast && fast.pipe.fast);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let (a, b) = (Seeds::derive(1), Seeds::derive(2));
        assert_eq!(a.pipe, Seeds::derive(1).pipe);
        assert_ne!(a.pipe, b.pipe);
        assert_ne!(a.pipe, a.algo);
        assert_ne!(a.algo, a.serve);
    }

    #[test]
    fn hit_windows_leave_ten_samples_beyond_their_p99() {
        for name in WORKLOADS {
            assert!(plan(name, false).unwrap().serve.window >= 1100);
        }
    }
}
