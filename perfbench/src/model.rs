//! The model-check workload: `explore(&ModelParams::ci(),
//! Mode::Persistent)`, repeated. It is deterministic and takes no seed.
//!
//! The explored state space is pinned: a change that explores fewer
//! states has changed coverage, not speed, so any other count fails the
//! run.

use crate::{pct, stats, timed, Outcome};
use nvdimmc_model::{explore, ExploreReport, Mode, ModelParams};
use std::time::{Duration, Instant};

/// `(distinct states, transitions, terminals)` of the CI bound under
/// persistent-set reduction.
pub const CI_COUNTS: (u64, u64, u64) = (573_301, 1_338_750, 43_681);

/// The warm-up instance explored before each CI exploration: the CI
/// bound without its fault budget, about 33 thousand states. It grows
/// the allocator's heap and fills the caches the CI exploration then
/// runs in.
fn warm_up_params() -> ModelParams {
    ModelParams {
        fault_budget: 0,
        ..ModelParams::ci()
    }
}

fn counts(r: &ExploreReport) -> (u64, u64, u64) {
    (r.distinct_states, r.transitions, r.terminals)
}

/// Explores the CI bound for about `seconds`, each time after a
/// warm-up exploration. `host_ops_per_s` is the median over CI
/// explorations of distinct states per host second; `setup_s` is the
/// median host time of the warm-ups.
pub fn run(seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (warm_up, params) = (warm_up_params(), ModelParams::ci());
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut explore_time = Duration::ZERO;
    let start = Instant::now();
    loop {
        let (w, t) = timed(|| explore(&warm_up, Mode::Persistent));
        setups.push(t.as_secs_f64());
        if let Some(v) = &w.violation {
            out.problem(format!("warm-up model violation: {:?}", v.violation));
        }
        let (r, t) = timed(|| explore(&params, Mode::Persistent));
        explore_time += t;
        if let Some(v) = &r.violation {
            out.tally.failed(r.distinct_states);
            out.problem(format!("model violation: {:?}", v.violation));
        } else {
            out.tally.succeeded(r.distinct_states);
        }
        if counts(&r) != CI_COUNTS {
            out.problem(format!(
                "explored (states, transitions, terminals) = {:?}, expected {CI_COUNTS:?}",
                counts(&r)
            ));
        }
        rates.push(r.distinct_states as f64 / t.as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.set("setup_s", stats::median(&setups), setups.len() as u64);
    let (rate, runs) = (stats::median(&rates), rates.len() as u64);
    out.set("host_ops_per_s", rate, runs);
    out.set("model.states", CI_COUNTS.0 as f64, 1);
    out.set("model.transitions", CI_COUNTS.1 as f64, 1);
    out.set("model.terminals", CI_COUNTS.2 as f64, 1);
    if trace {
        out.set(
            "host.model.explore_pct",
            pct(explore_time, start.elapsed()),
            runs,
        );
        out.set("host.ns_per_op", 1e9 / rate, runs);
        // The untraced run already times each `explore` call and the
        // traced run adds nothing to it, so tracing costs nothing here.
        out.set("host.trace_overhead_pct", 0.0, 0);
    }
    out
}
