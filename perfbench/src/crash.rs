//! The crash-sweep workload: exhaustive [`CrashSweep::small`] sweeps on
//! four channels at rank-level refresh, over consecutive seeds.
//!
//! Each seed's sweep calls the public [`CrashSweep::rehearse`] once and
//! [`CrashSweep::run_trial`] for every boundary it found, timing the two
//! apart; the first seed's result must equal [`CrashSweep::sweep`]'s.
//! `run_trial` gives no split of its own time, so the host time of its
//! power cut, recovery and oracle is left to tracing inside the program.

use crate::{pct, stats, timed, Outcome};
use nvdimmc_core::{CoreError, CrashPoint, CrashPointKind};
use nvdimmc_workloads::CrashSweep;
use std::time::{Duration, Instant};

/// Channels swept.
pub const CHANNELS: u32 = 4;

// The FNV-1 fold `CrashSweep::sweep` applies to the trial digests, so
// the benchmark's loop can be checked against it.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

const KIND_NAMES: [&str; 4] = [
    "crash.boundaries.bus_op",
    "crash.boundaries.cp_window",
    "crash.boundaries.nvmc_burst",
    "crash.boundaries.maintenance",
];

fn kind_index(kind: CrashPointKind) -> usize {
    match kind {
        CrashPointKind::BusOp => 0,
        CrashPointKind::CpWindow => 1,
        CrashPointKind::NvmcBurst => 2,
        CrashPointKind::Maintenance => 3,
    }
}

/// One seed's sweep.
#[derive(Debug, Clone, Default)]
pub struct SeedSweep {
    /// Host time of `rehearse`: enumerating the boundaries.
    pub rehearse: Duration,
    /// Host time of all trials.
    pub trials_time: Duration,
    /// Trials run (one per boundary).
    pub trials: u64,
    /// Trials with an oracle violation.
    pub violations: u64,
    /// Boundaries per kind.
    pub per_kind: [u64; 4],
    /// FNV fold of the trial digests, as `sweep` folds them.
    pub digest: u64,
}

impl SeedSweep {
    /// Trials per host second of trial time.
    pub fn rate(&self) -> f64 {
        self.trials as f64 / self.trials_time.as_secs_f64()
    }
}

/// Sweeps every boundary of `sweep`'s schedule.
///
/// # Errors
///
/// Propagates device errors outside the modelled power cuts, with the
/// number of trials the sweep was to run.
pub fn sweep_seed(sweep: &CrashSweep) -> Result<SeedSweep, (CoreError, u64)> {
    let ops = sweep.make_ops();
    let (bounds, rehearse) = timed(|| sweep.rehearse(&ops));
    let bounds: Vec<Vec<CrashPoint>> = bounds.map_err(|e| (e, 1))?;
    let total = bounds.iter().map(|b| b.len() as u64).sum();
    let mut s = SeedSweep {
        rehearse,
        digest: FNV_OFFSET,
        ..SeedSweep::default()
    };
    let start = Instant::now();
    for (shard, points) in bounds.iter().enumerate() {
        for p in points {
            s.per_kind[kind_index(p.kind)] += 1;
            let trial = sweep
                .run_trial(&ops, shard, p.index)
                .map_err(|e| (e, total))?;
            s.trials += 1;
            s.violations += u64::from(!trial.violations.is_empty());
            s.digest = s.digest.wrapping_mul(FNV_PRIME).wrapping_add(trial.digest);
        }
    }
    s.trials_time = start.elapsed();
    Ok(s)
}

/// Runs consecutive seeds from `seed` for about `seconds`.
/// `host_ops_per_s` is the median over seeds of crash trials per host
/// second; `setup_s` is the median time of the boundary enumeration. The
/// traced run adds the two host-time shares; it times nothing the
/// untraced run does not.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut sweeps: Vec<SeedSweep> = Vec::new();
    let start = Instant::now();
    for i in 0u64.. {
        let s = seed.wrapping_add(i);
        match sweep_seed(&CrashSweep::small(CHANNELS).with_seed(s)) {
            Ok(r) => {
                out.tally.succeeded(r.trials - r.violations);
                out.tally.failed(r.violations);
                if r.violations > 0 {
                    out.problem(format!(
                        "seed {s}: {} trials violated the oracle",
                        r.violations
                    ));
                }
                sweeps.push(r);
            }
            Err((e, ops)) => {
                eprintln!("seed {s}: sweep failed: {e}");
                out.tally.failed(ops);
                break;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let Some(first) = sweeps.first() else {
        out.problem("no sweep succeeded");
        return out;
    };
    match CrashSweep::small(CHANNELS).with_seed(seed).sweep() {
        Ok(r)
            if r.is_clean()
                && (r.trials, r.per_kind, r.digest)
                    == (first.trials, first.per_kind, first.digest) => {}
        Ok(r) => out.problem(format!(
            "seed {seed}: sweep() gave {} trials {:?} digest {:#x} clean {}; the benchmark's loop \
             gave {} trials {:?} digest {:#x}",
            r.trials,
            r.per_kind,
            r.digest,
            r.is_clean(),
            first.trials,
            first.per_kind,
            first.digest
        )),
        Err(e) => out.problem(format!("seed {seed}: sweep() failed: {e}")),
    }
    out.set("crash.trials", first.trials as f64, 1);
    for (name, n) in KIND_NAMES.iter().zip(first.per_kind) {
        out.set(name, n as f64, 1);
    }
    let n = sweeps.len() as u64;
    let rates: Vec<f64> = sweeps.iter().map(SeedSweep::rate).collect();
    let setups: Vec<f64> = sweeps.iter().map(|s| s.rehearse.as_secs_f64()).collect();
    out.set("host_ops_per_s", stats::median(&rates), n);
    out.set("setup_s", stats::median(&setups), n);
    if !trace {
        return out;
    }
    let rehearse: Duration = sweeps.iter().map(|s| s.rehearse).sum();
    let trials_time: Duration = sweeps.iter().map(|s| s.trials_time).sum();
    let whole = rehearse + trials_time;
    out.set("host.crash.rehearse_pct", pct(rehearse, whole), n);
    out.set("host.crash.trial_pct", pct(trials_time, whole), n);
    let trials: u64 = sweeps.iter().map(|s| s.trials).sum();
    out.set(
        "host.ns_per_op",
        whole.as_secs_f64() * 1e9 / trials as f64,
        n,
    );
    out.set("host.trace_overhead_pct", 0.0, 0);
    out
}
