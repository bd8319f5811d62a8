//! The repository benchmark for the NVDIMM-C simulator.
//!
//! One command runs one named workload in its own process and prints
//! every metric by name with its unit and sample count, then one JSON
//! result line. Two clocks are measured:
//!
//! - the *simulated* clock (what the modelled NVDIMM-C would take):
//!   `sim.*` throughput and latency percentiles plus the per-layer
//!   counters read from the public stats getters — deterministic for a
//!   seed, so every repetition, worker count and traced run must agree
//!   bit for bit;
//! - the *host* clock (what the simulator takes to run): simulated I/Os,
//!   crash trials or model states handled per host second, set-up time
//!   and peak memory — the end-to-end metrics a later change may not
//!   worsen beyond the bounds in `BENCHMARK.json`.
//!
//! Every layer is measured from outside: the benchmark times calls into
//! each layer's public functions and reads the public stats getters.
//! The traced run (`--trace 1`) drives the executor with one worker over
//! [`fio::Timed`] shards, so the executor's self time is the run's wall
//! time minus the time spent inside the shards.

pub mod crash;
pub mod fio;
pub mod model;
pub mod schema;
pub mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics, `(name, unit)`, printed with `--trace 0`. All
/// are on the host clock; they are the ones every workload has.
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, `(name, unit)`, printed with `--trace 1`. A
/// metric of a layer the workload does not run reads 0. Host-time
/// metrics are shares (`%`) of the traced run's host time, or of set-up
/// time for the `host.front.*` set-up calls, so they compare across
/// workloads and run lengths.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Simulated end-to-end numbers of the fio workloads.
    ("sim.kiops", "kIOPS"),
    ("sim.p50_us", "us"),
    ("sim.p50_samples", "count"),
    ("sim.p99_us", "us"),
    ("sim.p99_beyond", "count"),
    // Host clock, whole run.
    ("host.ns_per_op", "ns/op"),
    ("host.trace_overhead_pct", "%"),
    // core::exec
    ("host.exec.self_pct", "%"),
    ("exec.dmas", "count"),
    ("exec.coalesced_reqs", "count"),
    ("exec.ring_full_bounces", "count"),
    ("exec.util_mean", "fraction"),
    // core::shard with host and ddr underneath
    ("host.shard.serve_read_pct", "%"),
    ("host.shard.serve_write_pct", "%"),
    // core::fpga / cp / refresh
    ("fpga.windows_seen", "count"),
    ("fpga.windows_used", "count"),
    ("fpga.window_use_ratio", "fraction"),
    ("fpga.windows_wrong_bank", "count"),
    ("fpga.windows_skipped_busy", "count"),
    ("fpga.bursts_split", "count"),
    ("refresh.pb_detections", "count"),
    ("refresh.planner_demand", "count"),
    ("refresh.planner_forced", "count"),
    ("refresh.per_host_ms", "1/ms"),
    // core::cache and the shard's miss driver
    ("cache.hit_ratio", "fraction"),
    ("cache.dirty_evictions", "count"),
    ("shard.cachefills", "count"),
    ("shard.writebacks", "count"),
    ("shard.zero_fills", "count"),
    ("shard.fault_p99_us", "us"),
    // ddr
    ("imc.row_hit_ratio", "fraction"),
    ("imc.refresh_stall_us", "us"),
    ("bus.host_commands", "count"),
    ("bus.nvmc_commands", "count"),
    ("bus.refreshes", "count"),
    // nand
    ("nvmc.reads", "count"),
    ("nvmc.writes", "count"),
    ("nvmc.buffer_stalls", "count"),
    ("ftl.gc_runs", "count"),
    ("ftl.gc_moved_pages", "count"),
    ("ftl.hk_runs", "count"),
    // front / sched through crash sweeps, and the check passes
    ("host.crash.rehearse_pct", "%"),
    ("host.crash.trial_pct", "%"),
    ("host.check.trace_pct", "%"),
    ("crash.trials", "count"),
    ("crash.boundaries.bus_op", "count"),
    ("crash.boundaries.cp_window", "count"),
    ("crash.boundaries.nvmc_burst", "count"),
    ("crash.boundaries.maintenance", "count"),
    // set-up through the front end
    ("host.front.new_pct", "%"),
    ("host.front.prefault_pct", "%"),
    ("host.front.write_at_pct", "%"),
    // model
    ("model.states", "count"),
    ("model.transitions", "count"),
    ("model.terminals", "count"),
    ("host.model.explore_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "cached_read_64ch",
    "uncached_rw_pb",
    "crash_sweep_4ch",
    "model_check_ci",
];

/// One reported number and how many samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number, in the catalogue unit of its metric.
    pub value: f64,
    /// Samples behind it: repetitions for a median, latency samples for
    /// a percentile, 1 for an exact count.
    pub samples: u64,
}

/// Operations attempted and failed, for `error_rate`.
///
/// A run that returns an error counts every op it was to issue as
/// failed, and the benchmark goes on. A retry is not a failure: the
/// executor's ring-full bounces are served later and reported as
/// `exec.ring_full_bounces`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Records `ops` operations of a run that succeeded.
    pub fn succeeded(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Records `ops` operations of a run that failed: all count as failed.
    pub fn failed(&mut self, ops: u64) {
        self.attempted += ops;
        self.failed += ops;
    }

    /// Records one run of `ops` operations by its result.
    pub fn record<T, E>(&mut self, ops: u64, result: &Result<T, E>) {
        match result {
            Ok(_) => self.succeeded(ops),
            Err(_) => self.failed(ops),
        }
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks; any entry withholds every number.
    pub problems: Vec<String>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Metrics that apply to the workload, by catalogue name.
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, Value { value, samples });
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// Runs `workload` for about `seconds` of measurement. `trace` selects
/// the traced run that records the per-layer numbers.
///
/// # Errors
///
/// Rejects an unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = match workload {
        "cached_read_64ch" => fio::run(&fio::FioSpec::cached_read_64ch(), seed, seconds, trace),
        "uncached_rw_pb" => fio::run(&fio::FioSpec::uncached_rw_pb(), seed, seconds, trace),
        "crash_sweep_4ch" => crash::run(seed, seconds, trace),
        "model_check_ci" => model::run(seconds, trace),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    match stats::peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb, 1),
        None => out.problem("peak RSS unavailable (no VmHWM in /proc/self/status)"),
    }
    if out.tally.attempted == 0 {
        out.problem("no operation was attempted");
    }
    if !trace {
        for (name, _) in END_TO_END {
            if !out.metrics.contains_key(name) {
                out.problem(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    let bad: Vec<&str> = out
        .metrics
        .iter()
        .filter(|(_, v)| !v.value.is_finite())
        .map(|(name, _)| *name)
        .collect();
    if !bad.is_empty() {
        out.problem(format!("non-finite metrics: {bad:?}"));
    }
    Ok(out)
}

/// Runs `f` and returns its result with the host time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// `part` as a percentage of `whole`; 0 when `whole` is zero.
pub fn pct(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / whole.as_secs_f64()
    }
}

/// The human-readable lines: every metric the workload produced, with
/// its unit and sample count, then `error_rate`.
pub fn table(out: &Outcome) -> Vec<String> {
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("?", |(_, u)| *u)
    };
    let mut lines: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{name:<38} {:>18} {:<8} n={}",
                v.value,
                unit(name),
                v.samples
            )
        })
        .collect();
    lines.push(format!(
        "{:<38} {:>18} {:<8} n={}",
        "error_rate",
        out.tally.error_rate(),
        "fraction",
        out.tally.attempted
    ));
    lines
}

/// The final JSON result line. With problems, `correct` is false and no
/// metric is given. Otherwise it carries every catalogue metric of the
/// mode; a per-layer metric of a layer the workload does not run is 0.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let correct = out.problems.is_empty();
    let mut metrics = Vec::new();
    if correct {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in catalogue {
            let value = out.metrics.get(name).map_or(0.0, |v| v.value);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                stats::json_number(value)
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    )
}
