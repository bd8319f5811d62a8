//! The fio workloads: closed-loop simulated threads driving
//! [`ConcurrentFio::run_executor`] over a freshly set-up
//! [`MultiChannelSystem`].
//!
//! Each repetition sets the system up again and runs the job on the next
//! input seed. The untraced repetitions run on the spec's worker count
//! ([`FioSpec::parallel`]); the traced ones run on one worker over
//! [`Timed`] shards, so their self times add up to wall time, and are
//! compared with untraced one-worker repetitions of the same seeds. Every repetition of a seed must
//! reproduce its [`SimRecord`] bit for bit: the simulated results may not
//! depend on the worker count or on tracing, and the benchmark withholds
//! its numbers if they do.

use crate::{pct, stats, timed, Outcome, PER_LAYER};
use nvdimmc_check::check_shards;
use nvdimmc_core::{
    BlockDevice, ChannelShard, CoreError, ExecStats, MultiChannelConfig, MultiChannelSystem,
    NvdimmCConfig, QueuedDevice, PAGE_BYTES,
};
use nvdimmc_ddr::{RefreshMode, TraceEntry};
use nvdimmc_sim::{DeterministicRng, Histogram, SimDuration, SimTime};
use nvdimmc_workloads::{ConcurrentFio, ConcurrentReport, FioJob, RwMode};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How the DRAM cache is prepared before the measured job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// Map every page of the span without writing it: the cache starts
    /// warm and holds the whole span.
    Prefault,
    /// Write every page of the span with blocking writes, in address
    /// order. A span larger than the cache leaves the cache full of
    /// dirty pages and the rest of the span on NAND.
    DirtyWrites,
}

/// One fio workload.
#[derive(Debug, Clone, Copy)]
pub struct FioSpec {
    /// Channels (shards) behind the front end.
    pub channels: u32,
    /// Refresh scheduling of every shard.
    pub refresh_mode: RefreshMode,
    /// DRAM-cache slots per shard; `None` keeps the configuration's.
    pub cache_slots: Option<u64>,
    /// Closed-loop simulated threads per channel.
    pub threads_per_channel: u32,
    /// Operations per simulated thread.
    pub ops_per_thread: u64,
    /// Access mix (4 KB blocks).
    pub rw: RwMode,
    /// Bytes the job touches, from offset 0.
    pub span: u64,
    /// Cache preparation.
    pub fill: Fill,
    /// Whether the untraced runs use `nproc` executor workers rather
    /// than one. Many shards keep the workers busy; with two shards the
    /// workers mostly wait on each other's rounds, which on a host whose
    /// cores are shared made two-worker runs slower and, when one core
    /// was contended, up to a third slower for minutes at a time.
    pub parallel: bool,
    /// Whether the traced run captures bus traces and checks them.
    pub check_traces: bool,
}

impl FioSpec {
    /// 64 channels, rank-level refresh, 4 threads per channel, 4 KB
    /// random reads over a prefaulted span that fits in the cache: every
    /// op hits, so the host time goes to the executor and the hit path.
    pub fn cached_read_64ch() -> Self {
        FioSpec {
            channels: 64,
            refresh_mode: RefreshMode::RankLevel,
            cache_slots: None,
            threads_per_channel: 4,
            ops_per_thread: 128,
            rw: RwMode::RandRead,
            span: 64 * (4 << 20),
            fill: Fill::Prefault,
            parallel: true,
            check_traces: false,
        }
    }

    /// 2 channels, per-bank refresh, 512 cache slots per channel, 70/30
    /// random 4 KB reads/writes over twice the cache after a dirty fill:
    /// the paper's Uncached regime, where misses pay a writeback and a
    /// cachefill through the CP mailbox and refresh windows.
    pub fn uncached_rw_pb() -> Self {
        FioSpec {
            channels: 2,
            refresh_mode: RefreshMode::PerBank,
            cache_slots: Some(512),
            threads_per_channel: 4,
            ops_per_thread: 384,
            rw: RwMode::RandRw { read_fraction: 0.7 },
            span: 2 * 2 * 512 * PAGE_BYTES,
            fill: Fill::DirtyWrites,
            parallel: false,
            check_traces: true,
        }
    }

    fn threads(&self) -> u32 {
        self.threads_per_channel * self.channels
    }

    /// Operations one repetition issues.
    pub fn ops(&self) -> u64 {
        u64::from(self.threads()) * self.ops_per_thread
    }

    fn config(&self) -> MultiChannelConfig {
        let mut shard = NvdimmCConfig::small_for_tests().with_refresh_mode(self.refresh_mode);
        if let Some(slots) = self.cache_slots {
            shard.cache_slots = slots;
        }
        MultiChannelConfig::new(shard, self.channels)
    }

    fn fio(&self, seed: u64) -> ConcurrentFio {
        ConcurrentFio {
            job: FioJob {
                mode: self.rw,
                seed,
                ..FioJob::rand_read_4k(self.span, self.ops())
            },
            threads: self.threads(),
        }
    }
}

/// A shard whose `serve_read` and `serve_write` calls are timed on the
/// host clock; every other call passes straight through.
pub struct Timed<'a> {
    shard: &'a mut ChannelShard,
    /// Host time inside `serve_read`.
    pub read: Duration,
    /// Host time inside `serve_write`.
    pub write: Duration,
}

impl<'a> Timed<'a> {
    /// Wraps `shard` with zeroed timers.
    pub fn new(shard: &'a mut ChannelShard) -> Self {
        Timed {
            shard,
            read: Duration::ZERO,
            write: Duration::ZERO,
        }
    }
}

impl QueuedDevice for Timed<'_> {
    fn capacity_bytes(&self) -> u64 {
        QueuedDevice::capacity_bytes(&*self.shard)
    }
    fn clock(&self) -> SimTime {
        self.shard.clock()
    }
    fn pre_cost(&self, len: u64, write: bool) -> SimDuration {
        self.shard.pre_cost(len, write)
    }
    fn copy_cost(&self, len: u64) -> SimDuration {
        self.shard.copy_cost(len)
    }
    fn serve_read(
        &mut self,
        not_before: SimTime,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimTime, CoreError> {
        let t = Instant::now();
        let r = self.shard.serve_read(not_before, offset, buf);
        self.read += t.elapsed();
        r
    }
    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError> {
        let t = Instant::now();
        let r = self.shard.serve_write(not_before, offset, data);
        self.write += t.elapsed();
        r
    }
    fn drain_trace(&mut self) -> Vec<TraceEntry> {
        self.shard.drain_trace()
    }
    fn set_fill_priority(&mut self, prio: u8) {
        self.shard.set_fill_priority(prio);
    }
    fn note_queue_depth(&mut self, depth: usize) {
        self.shard.note_queue_depth(depth);
    }
}

/// Host time of one set-up, by front-end call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `MultiChannelSystem::new`.
    pub new: Duration,
    /// `prefault` calls.
    pub prefault: Duration,
    /// Blocking `write_at` calls.
    pub write_at: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.new + self.prefault + self.write_at
    }
}

/// Builds the system and prepares its cache.
///
/// # Errors
///
/// Propagates construction and set-up I/O errors.
pub fn set_up(spec: &FioSpec, seed: u64) -> Result<(MultiChannelSystem, SetupTimes), CoreError> {
    let mut times = SetupTimes::default();
    let (sys, t) = timed(|| MultiChannelSystem::new(spec.config()));
    times.new = t;
    let mut sys = sys?;
    let pages = spec.span / PAGE_BYTES;
    match spec.fill {
        Fill::Prefault => {
            let t = Instant::now();
            for page in 0..pages {
                sys.prefault(page)?;
            }
            times.prefault = t.elapsed();
        }
        Fill::DirtyWrites => {
            let mut rng = DeterministicRng::new(seed);
            let mut buf = vec![0u8; PAGE_BYTES as usize];
            for page in 0..pages {
                rng.fill_bytes(&mut buf);
                let t = Instant::now();
                sys.write_at(page * PAGE_BYTES, &buf)?;
                times.write_at += t.elapsed();
            }
        }
    }
    Ok((sys, times))
}

/// Cumulative counters from the public stats getters, summed over shards.
fn counters(sys: &MultiChannelSystem) -> Vec<(&'static str, u64)> {
    let cache = sys.cache_stats();
    let fpga = sys.fpga_stats();
    let bus = sys.bus_stats();
    let mut c = vec![
        ("cache.hits", cache.hits),
        ("cache.misses", cache.misses),
        ("cache.dirty_evictions", cache.dirty_evictions),
        ("fpga.windows_seen", fpga.windows_seen),
        ("fpga.windows_used", fpga.windows_used),
        ("fpga.windows_wrong_bank", fpga.windows_wrong_bank),
        ("fpga.windows_skipped_busy", fpga.windows_skipped_busy),
        ("fpga.bursts_split", fpga.bursts_split),
        ("bus.host_commands", bus.host_commands),
        ("bus.nvmc_commands", bus.nvmc_commands),
        ("bus.refreshes", bus.refreshes),
    ];
    type Getter = fn(&ChannelShard) -> u64;
    let per_shard: [(&'static str, Getter); 15] = [
        ("refresh.pb_detections", |s| {
            s.detector_stats().pb_detections
        }),
        ("refresh.planner_demand", |s| s.refresh_planner_counts().0),
        ("refresh.planner_forced", |s| s.refresh_planner_counts().1),
        ("shard.cachefills", |s| s.stats().cachefills),
        ("shard.writebacks", |s| s.stats().writebacks),
        ("shard.zero_fills", |s| s.stats().zero_fills),
        ("imc.row_hits", |s| s.imc_stats().row_hits),
        ("imc.row_misses", |s| s.imc_stats().row_misses),
        ("imc.refresh_stall_ps", |s| {
            s.imc_stats().refresh_stall.as_ps()
        }),
        ("nvmc.reads", |s| s.nvmc_stats().reads),
        ("nvmc.writes", |s| s.nvmc_stats().writes),
        ("nvmc.buffer_stalls", |s| s.nvmc_stats().buffer_stalls),
        ("ftl.gc_runs", |s| s.ftl_stats().gc_runs),
        ("ftl.gc_moved_pages", |s| s.ftl_stats().gc_moved_pages),
        ("ftl.hk_runs", |s| s.ftl_stats().hk_runs),
    ];
    for (name, get) in per_shard {
        c.push((name, sys.shards().iter().map(get).sum()));
    }
    c
}

/// Everything on the simulated clock one repetition produced. Floats
/// are kept as bits, so equality is bit-identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRecord {
    /// Order-independent digest of every read payload.
    pub data_digest: u64,
    /// Executor counters.
    pub exec: ExecStats,
    /// Per-shard device-busy fractions, as bits.
    pub utilisation: Vec<u64>,
    /// Counter deltas over the measured job.
    pub counters: Vec<(&'static str, u64)>,
    /// Reported simulated metrics: `(name, value bits, samples)`.
    pub values: Vec<(&'static str, u64, u64)>,
}

impl SimRecord {
    fn new(
        report: &ConcurrentReport,
        before: &[(&'static str, u64)],
        sys: &MultiChannelSystem,
    ) -> Self {
        let counters: Vec<(&'static str, u64)> = counters(sys)
            .into_iter()
            .zip(before)
            .map(|((name, after), (_, b))| (name, after - b))
            .collect();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut values: Vec<(&'static str, f64, u64)> = vec![("sim.kiops", report.kiops(), 1)];
        let mut latency = report.read_latency.clone();
        latency.merge(&report.write_latency);
        if let Some(p) = stats::percentile(&latency, 50.0) {
            values.push(("sim.p50_us", p.us, p.samples));
            values.push(("sim.p50_samples", p.samples as f64, 1));
        }
        if let Some(p) = stats::percentile(&latency, 99.0) {
            values.push(("sim.p99_us", p.us, p.samples));
            values.push(("sim.p99_beyond", p.beyond as f64, 1));
        }
        let util_mean = if report.utilisation.is_empty() {
            0.0
        } else {
            report.utilisation.iter().sum::<f64>() / report.utilisation.len() as f64
        };
        values.extend([
            ("exec.dmas", report.exec.dmas as f64, 1),
            ("exec.coalesced_reqs", report.exec.coalesced_reqs as f64, 1),
            (
                "exec.ring_full_bounces",
                report.exec.rejected_ring_full as f64,
                1,
            ),
            ("exec.util_mean", util_mean, report.utilisation.len() as u64),
            (
                "fpga.window_use_ratio",
                ratio(get("fpga.windows_used"), get("fpga.windows_seen")),
                get("fpga.windows_seen"),
            ),
            (
                "cache.hit_ratio",
                ratio(get("cache.hits"), get("cache.hits") + get("cache.misses")),
                get("cache.hits") + get("cache.misses"),
            ),
            (
                "imc.row_hit_ratio",
                ratio(
                    get("imc.row_hits"),
                    get("imc.row_hits") + get("imc.row_misses"),
                ),
                get("imc.row_hits") + get("imc.row_misses"),
            ),
            (
                "imc.refresh_stall_us",
                get("imc.refresh_stall_ps") as f64 / 1e6,
                1,
            ),
        ]);
        for &(name, v) in &counters {
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                values.push((name, v as f64, 1));
            }
        }
        // The shard keeps one fault histogram from construction on, so
        // this percentile covers the set-up's faults as well.
        let mut faults = Histogram::new();
        for s in sys.shards() {
            faults.merge(&s.stats().fault_latency);
        }
        if let Some(p) = stats::percentile(&faults, 99.0) {
            values.push(("shard.fault_p99_us", p.us, p.samples));
        }
        SimRecord {
            data_digest: report.data_digest,
            exec: report.exec,
            utilisation: report.utilisation.iter().map(|u| u.to_bits()).collect(),
            counters,
            values: values
                .into_iter()
                .map(|(n, v, s)| (n, v.to_bits(), s))
                .collect(),
        }
    }

    /// A reported value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, bits, _)| f64::from_bits(*bits))
    }
}

/// One repetition: set-up, the measured job, and in a traced repetition
/// the host time inside the shards and the trace check.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Set-up host time.
    pub setup: SetupTimes,
    /// Host time of `run_executor`.
    pub run: Duration,
    /// Host time inside `serve_read` (traced only).
    pub serve_read: Duration,
    /// Host time inside `serve_write` (traced only).
    pub serve_write: Duration,
    /// Host time of the `check` passes over the bus traces.
    pub check: Duration,
    /// Diagnostics the `check` passes found.
    pub diagnostics: usize,
    /// Bus-trace entries captured, when the repetition captured them.
    pub trace_entries: Option<usize>,
    /// The simulated results.
    pub sim: SimRecord,
}

impl Rep {
    /// Host time of the measured part: the job and its trace check.
    pub fn measured(&self) -> Duration {
        self.run + self.check
    }
}

/// Sets up and runs one repetition of `spec`'s job on `workers` executor
/// workers; `traced` times the shards, and `capture` records the bus
/// traces and runs the `check` passes over them.
///
/// # Errors
///
/// Propagates set-up and device errors.
pub fn run_rep(
    spec: &FioSpec,
    seed: u64,
    workers: usize,
    traced: bool,
    capture: bool,
) -> Result<Rep, CoreError> {
    let (mut sys, setup) = set_up(spec, seed)?;
    let before = counters(&sys);
    let fio = spec.fio(seed);
    let cfg = fio.executor_config().with_workers(workers);
    if capture {
        sys.set_trace_capture(true);
    }
    let (shards, map, _) = sys.parts_mut();
    let (report, run, serve_read, serve_write) = if traced {
        let mut devices: Vec<Timed> = shards.iter_mut().map(Timed::new).collect();
        let (report, run) = timed(|| fio.run_executor(&mut devices, map, cfg));
        let read = devices.iter().map(|d| d.read).sum();
        let write = devices.iter().map(|d| d.write).sum();
        (report?, run, read, write)
    } else {
        let (report, run) = timed(|| fio.run_executor(shards, map, cfg));
        (report?, run, Duration::ZERO, Duration::ZERO)
    };
    let (mut check, mut diagnostics, mut trace_entries) = (Duration::ZERO, 0, None);
    if capture {
        let traces = sys.set_trace_capture(false).unwrap_or_default();
        trace_entries = Some(traces.iter().map(Vec::len).sum());
        let timing = sys.shards()[0].config().timing;
        let (reports, t) = timed(|| check_shards(&traces, &timing));
        check = t;
        diagnostics = reports.iter().map(|r| r.diagnostics().len()).sum();
    }
    let sim = SimRecord::new(&report, &before, &sys);
    Ok(Rep {
        setup,
        run,
        serve_read,
        serve_write,
        check,
        diagnostics,
        trace_entries,
        sim,
    })
}

/// Checks a repetition: its captured traces are not empty and are
/// clean, its executor served what it accepted, and its simulated
/// results equal those of any earlier repetition of the same input seed.
fn agree(
    records: &mut BTreeMap<u64, SimRecord>,
    seed: u64,
    rep: &Rep,
    label: &str,
    out: &mut Outcome,
) {
    if rep.trace_entries == Some(0) {
        out.problem(format!(
            "{label}: trace capture recorded no bus commands, so the check passes saw nothing"
        ));
    }
    if rep.diagnostics > 0 {
        out.problem(format!(
            "{label}: check passes found {} diagnostics in the bus traces",
            rep.diagnostics
        ));
    }
    if rep.sim.exec.accepted != rep.sim.exec.served {
        out.problem(format!(
            "{label}: executor accepted {} requests but served {}",
            rep.sim.exec.accepted, rep.sim.exec.served
        ));
    }
    match records.get(&seed) {
        None => {
            records.insert(seed, rep.sim.clone());
        }
        Some(r) if *r == rep.sim => {}
        Some(r) => {
            let diff: Vec<&str> = r
                .values
                .iter()
                .zip(&rep.sim.values)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.0)
                .collect();
            out.problem(format!(
                "{label}, seed {seed}: simulated results differ from an earlier run of the \
                 same seed (digest {:#x} vs {:#x}; values {diff:?})",
                r.data_digest, rep.sim.data_digest
            ));
        }
    }
}

/// Input seed of repetition `i`: consecutive repetitions run different
/// inputs, so the host rate summarises many inputs instead of timing one.
fn rep_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(i)
}

fn secs_median(xs: impl Iterator<Item = Duration>) -> (f64, u64) {
    let v: Vec<f64> = xs.map(|d| d.as_secs_f64()).collect();
    (stats::median(&v), v.len() as u64)
}

/// Operations per host second over `reps`: every operation they ran
/// over the host time of all their measured parts.
///
/// A host whose cores are shared changes speed by a fifth and more in
/// phases of about a minute (seen on a 2-vCPU Xeon VM), which no
/// statistic of one run's repetitions removes. Over an 11-minute series
/// of `uncached_rw_pb` repetitions cut into 20-second runs, this total
/// spread less from run to run than the median of the repetitions' own
/// rates (interquartile range 16% against 18% of the median).
fn rate(ops: u64, reps: &[Rep]) -> f64 {
    let time: Duration = reps.iter().map(Rep::measured).sum();
    (ops * reps.len() as u64) as f64 / time.as_secs_f64()
}

/// Runs the workload for about `seconds`, repetition by repetition,
/// each on the next input seed.
///
/// Untraced (`trace == false`): repetitions on the spec's worker count
/// give `host_ops_per_s` and `setup_s`; then a traced one-worker
/// repetition of the first seed, and an untraced `nproc`-worker one if
/// the measured ones used one worker, check the simulated results. Traced:
/// an `nproc`-worker repetition of the first seed, then untraced and
/// traced one-worker repetitions of each seed, giving the per-layer
/// shares and the tracing overhead. The simulated per-layer numbers are
/// the first seed's.
pub fn run(spec: &FioSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let ops = spec.ops();
    let mut out = Outcome::default();
    let mut records = BTreeMap::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut attempt = |i: u64, workers: usize, is_traced: bool, out: &mut Outcome| {
        let label = format!(
            "{}, {workers} worker(s), repetition {i}",
            if is_traced { "traced" } else { "untraced" }
        );
        let s = rep_seed(seed, i);
        // Captured traces take memory, so only the traced run, which
        // reports no peak RSS, captures them.
        let r = run_rep(spec, s, workers, is_traced, trace && spec.check_traces);
        out.tally.record(ops, &r);
        match r {
            Ok(rep) => {
                agree(&mut records, s, &rep, &label, out);
                Some(rep)
            }
            Err(e) => {
                eprintln!("{label}: run failed: {e}");
                None
            }
        }
    };
    let start = Instant::now();
    if trace {
        attempt(0, nproc, false, &mut out);
    }
    // The traced run compares one-worker runs with one-worker runs.
    let workers = if spec.parallel && !trace { nproc } else { 1 };
    for i in 0.. {
        plain.extend(attempt(i, workers, false, &mut out));
        if trace {
            traced.extend(attempt(i, 1, true, &mut out));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if !trace {
        // The traced one-worker repetition also covers the worker count
        // when the measured ones ran on `nproc`.
        if workers == 1 {
            attempt(0, nproc, false, &mut out);
        }
        attempt(0, 1, true, &mut out);
    }
    let Some(sim) = records.get(&rep_seed(seed, 0)) else {
        out.problem("the first repetition failed");
        return out;
    };
    for (name, bits, samples) in &sim.values {
        out.set(name, f64::from_bits(*bits), *samples);
    }
    let all = plain.iter().chain(&traced);
    let (setup, n) = secs_median(all.clone().map(|r| r.setup.total()));
    out.set("setup_s", setup, n);
    if !trace {
        out.set("host_ops_per_s", rate(ops, &plain), plain.len() as u64);
        return out;
    }
    if traced.is_empty() {
        out.problem("no traced repetition succeeded");
        return out;
    }
    let n = traced.len() as u64;
    let sum = |f: fn(&Rep) -> Duration| traced.iter().map(f).sum::<Duration>();
    let whole = sum(Rep::measured);
    let (read, write) = (sum(|r| r.serve_read), sum(|r| r.serve_write));
    out.set(
        "host.exec.self_pct",
        pct(sum(|r| r.run) - read - write, whole),
        n,
    );
    out.set("host.shard.serve_read_pct", pct(read, whole), n);
    out.set("host.shard.serve_write_pct", pct(write, whole), n);
    out.set("host.check.trace_pct", pct(sum(|r| r.check), whole), n);
    out.set(
        "host.ns_per_op",
        whole.as_secs_f64() * 1e9 / (ops * n) as f64,
        n,
    );
    let refreshes: f64 = traced
        .iter()
        .map(|r| r.sim.value("bus.refreshes").unwrap_or(0.0))
        .sum();
    out.set(
        "refresh.per_host_ms",
        refreshes / (whole.as_secs_f64() * 1e3),
        n,
    );
    let (plain_rate, traced_rate) = (rate(ops, &plain), rate(ops, &traced));
    out.set(
        "host.trace_overhead_pct",
        100.0 * (plain_rate - traced_rate) / plain_rate,
        n.min(plain.len() as u64),
    );
    let n = (plain.len() + traced.len()) as u64;
    let setups: Duration = all.clone().map(|r| r.setup.total()).sum();
    let setup_sum = |f: fn(&SetupTimes) -> Duration| all.clone().map(|r| f(&r.setup)).sum();
    out.set("host.front.new_pct", pct(setup_sum(|s| s.new), setups), n);
    out.set(
        "host.front.prefault_pct",
        pct(setup_sum(|s| s.prefault), setups),
        n,
    );
    out.set(
        "host.front.write_at_pct",
        pct(setup_sum(|s| s.write_at), setups),
        n,
    );
    out
}
