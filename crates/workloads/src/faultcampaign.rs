//! Deterministic fault-injection campaigns with end-to-end recovery
//! verification.
//!
//! A campaign drives a [`MultiChannelSystem`] with a seeded mixed
//! read/write load while a [`FaultPlan`] injects uncorrectable NAND
//! reads, lost and corrupted CP acks, refresh-window overruns, DRAM
//! cache-slot corruption and mid-transfer power failures — then proves
//! three things:
//!
//! 1. **No silent corruption.** Every byte read back matches a host-side
//!    oracle; pages whose loss was *surfaced* (typed error) are excluded
//!    explicitly, never silently.
//! 2. **Full accounting.** The merged [`RecoveryStats`] ledger balances:
//!    every injected fault was recovered or surfaced
//!    (`nvdimmc_check::check_recovery` audits the report).
//! 3. **Determinism.** The same seed reproduces the same campaign
//!    bit-exactly — same digest, same clocks, same counters — on any
//!    channel count, because every fault draw comes from forked
//!    [`DeterministicRng`] streams.
//!
//! The working set is sized to overflow each shard's DRAM cache, so
//! writeback/cachefill CP traffic continues for the whole run and armed
//! mailbox/window faults always find a command to bite on.

use crate::verify::{ReadBack, DIGEST_SEED};
use nvdimmc_core::{
    BlockDevice, CoreError, FaultKind, FaultPlan, MultiChannelConfig, MultiChannelSystem,
    NvdimmCConfig, RecoveryParams, RecoveryStats, PAGE_BYTES,
};
use nvdimmc_ddr::TraceEntry;
use nvdimmc_nand::ecc::crc32;
use nvdimmc_sim::{DeterministicRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// Campaign configuration: load shape plus the fault mix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCampaign {
    /// Channels (= shards) behind the front-end.
    pub channels: u32,
    /// Working-set pages *per channel* (kept larger than the shard cache
    /// so eviction traffic never dries up).
    pub pages_per_channel: u64,
    /// Scheduled operations (page-granular reads/writes).
    pub ops: u64,
    /// Seed for the load generator and the fault plan.
    pub seed: u64,
    /// Fault classes to inject, with per-class counts.
    pub faults: Vec<(FaultKind, u64)>,
    /// Extra operations allowed after the scheduled load to flush every
    /// remaining armed/pending fault before the final verification.
    pub drain_cap: u64,
    /// Overrides the shards' CP-recovery ladder (`None` keeps the
    /// [`RecoveryParams`] defaults). Long ladders — 15 attempts wrap the
    /// 4-bit mailbox phase — are how the stale-ack regression is driven
    /// end to end.
    pub recovery: Option<RecoveryParams>,
}

impl FaultCampaign {
    /// The standard all-recoverable mix: every class whose recovery is
    /// transparent (transient NAND, lost/corrupt acks, window overruns,
    /// clean-slot corruption). Persistent NAND poisoning and power
    /// failures have their own campaigns.
    pub fn recoverable(channels: u32) -> Self {
        FaultCampaign {
            channels,
            pages_per_channel: 24,
            ops: 250 * u64::from(channels.max(1)),
            seed: 0x00C4_15CA_DE01,
            faults: vec![
                (FaultKind::NandTransient, 3),
                (FaultKind::AckDrop, 2),
                (FaultKind::AckCorrupt, 2),
                (FaultKind::WindowOverrun, 3),
                (FaultKind::SlotCorruption, 3),
            ],
            drain_cap: 2000,
            recovery: None,
        }
    }

    /// Replaces the shards' CP-recovery ladder parameters.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryParams) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Adds `count` mid-operation power failures to the mix.
    #[must_use]
    pub fn with_power_fails(mut self, count: u64) -> Self {
        self.faults.push((FaultKind::PowerFail, count));
        self
    }

    /// Replaces the seed (determinism experiments).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn plan(&self) -> FaultPlan {
        // The horizon is a per-shard operation count: uniform pages give
        // each shard roughly ops/channels operations.
        let horizon = (self.ops / u64::from(self.channels.max(1))).max(1);
        let mut p = FaultPlan::new(self.seed).horizon(horizon);
        for &(kind, count) in &self.faults {
            p = p.with(kind, count);
        }
        p
    }

    fn config(&self) -> MultiChannelConfig {
        let mut shard = NvdimmCConfig::small_for_tests();
        // A deliberately tiny cache: the working set must overflow it so
        // CP traffic (writebacks + cachefills) continues all campaign.
        shard.cache_slots = 16;
        if let Some(recovery) = self.recovery {
            shard.recovery = recovery;
        }
        MultiChannelConfig::new(shard, self.channels)
    }

    /// Runs the campaign to completion (load, drain, final verification).
    ///
    /// # Errors
    ///
    /// Propagates device errors that are not part of the recovery model
    /// (anything other than power interruptions, degraded-shard
    /// rejections, CP timeouts and surfaced media/cache corruption).
    ///
    /// # Panics
    ///
    /// Panics if the working set exceeds the exported capacity.
    pub fn run(&self) -> Result<CampaignReport, CoreError> {
        Ok(self.run_traced(false)?.0)
    }

    /// Like [`FaultCampaign::run`], optionally capturing each shard's full
    /// bus trace so `nvdimmc-check`'s timing/race/refresh passes can audit
    /// the campaign afterwards.
    ///
    /// Traces come back as one [`TraceEpoch`] per boot: a power-fail
    /// rebuild restarts the simulated clock (it *is* a reboot), so the
    /// epochs cannot be concatenated into one monotonic trace — each must
    /// be checked standalone (see `check_shards` in `nvdimmc-check` per
    /// epoch). Without power faults there is exactly one epoch.
    ///
    /// # Errors
    ///
    /// See [`FaultCampaign::run`].
    ///
    /// # Panics
    ///
    /// Panics if the working set exceeds the exported capacity.
    #[allow(clippy::too_many_lines)]
    pub fn run_traced(
        &self,
        capture: bool,
    ) -> Result<(CampaignReport, Vec<TraceEpoch>), CoreError> {
        assert!(
            self.channels > 0 && self.pages_per_channel > 0,
            "empty campaign"
        );
        let plan = self.plan();
        let mut sys = MultiChannelSystem::new(self.config())?;
        sys.attach_fault_plan(&plan);
        let mut traces: Vec<TraceEpoch> = Vec::new();
        if capture {
            sys.set_trace_capture(true);
        }
        let pages = self.pages_per_channel * u64::from(self.channels);
        assert!(
            pages * PAGE_BYTES <= sys.capacity_bytes(),
            "working set exceeds exported capacity"
        );
        let mut rng = DeterministicRng::new(self.seed).fork(0xC0FF);
        let mut oracle: Vec<Vec<u8>> = vec![vec![0u8; PAGE_BYTES as usize]; pages as usize];
        let mut poisoned: HashSet<u64> = HashSet::new();
        // Rejected-write ledger: page → CRC of the payload the device
        // refused. The final read-back must never reflect a rejected
        // payload; a later *successful* write to the page supersedes the
        // rejection (the oracle check governs from then on), so the
        // entry is cleared.
        let mut rejected: BTreeMap<u64, u32> = BTreeMap::new();
        let mut report = CampaignReport::new(self.channels, self.seed);
        let mut buf = vec![0u8; PAGE_BYTES as usize];
        let mut data = vec![0u8; PAGE_BYTES as usize];

        // Scheduled load, then drain ops until every fault has fired and
        // been consumed (or the cap trips — check_recovery will warn).
        let mut extra = 0u64;
        let mut executed = 0u64;
        while executed < self.ops || (!sys.faults_quiescent() && extra < self.drain_cap) {
            if executed >= self.ops {
                extra += 1;
            }
            executed += 1;
            report.ops_attempted += 1;
            // Draw before executing so the stream stays aligned across
            // error paths (determinism).
            let page = rng.gen_range(0..pages);
            let write = rng.gen_bool(0.6);
            if write {
                rng.fill_bytes(&mut data);
            }
            if poisoned.contains(&page) {
                continue;
            }
            let off = page * PAGE_BYTES;
            let res = if write {
                sys.write_at(off, &data).map(|_| ())
            } else {
                sys.read_at(off, &mut buf).map(|_| ())
            };
            if write && res.is_err() {
                report.writes_rejected += 1;
                rejected.insert(page, crc32(&data));
            }
            match res {
                Ok(()) => {
                    report.ops_completed += 1;
                    if write {
                        oracle[page as usize].copy_from_slice(&data);
                        rejected.remove(&page);
                    } else if buf != oracle[page as usize] {
                        report.oracle_mismatches += 1;
                    }
                }
                // The op did not apply: power-cycle and rebuild. The
                // FPGA's battery-backed dump persists every dirty slot,
                // so the oracle stays valid.
                Err(CoreError::PowerInterrupted) => {
                    report.power_cycles += 1;
                    report.power_fail_points.push(report.ops_attempted - 1);
                    Self::splice_traces(&mut sys, capture, &mut traces);
                    sys.power_fail(true)?;
                    sys = sys.into_recovered()?;
                    if capture {
                        sys.set_trace_capture(true);
                    }
                }
                Err(CoreError::DegradedShard { .. }) => report.degraded_rejections += 1,
                Err(CoreError::CpTimeout { .. }) => report.cp_timeouts += 1,
                Err(CoreError::MediaFailed { .. }) => {
                    report.media_failures += 1;
                    poisoned.insert(page);
                }
                Err(CoreError::CacheCorruption { .. }) => {
                    report.cache_corruptions += 1;
                    poisoned.insert(page);
                }
                Err(e) => return Err(e),
            }
        }

        // Final verification: every non-poisoned page byte-exact against
        // the oracle. This also forces the scrub over any still-resident
        // corrupted slot, closing the detection ledger.
        //
        // The quiescent case (every armed fault consumed, no shard left
        // degraded — the standard campaign shape) batches the read-back
        // through the scale-out executor. A drain-cap trip or a
        // still-degraded shard falls back to the blocking per-page loop,
        // whose power-cycle and failover semantics cannot be replayed
        // from a half-served batch. Trace capture is untouched either
        // way: entries stay in each shard's recorder until the epoch is
        // spliced below.
        let mut check = ReadBack::new(&oracle, &rejected);
        if sys.faults_quiescent() && sys.degraded_shards().is_empty() {
            check.sweep(&mut sys, pages, |page| poisoned.contains(&page))?;
        } else {
            for page in 0..pages {
                if poisoned.contains(&page) {
                    check.excluded += 1;
                    continue;
                }
                let off = page * PAGE_BYTES;
                match sys.read_at(off, &mut buf) {
                    Ok(_) => check.judge(page, &buf),
                    // A straggler power failure from a drain cap trip.
                    Err(CoreError::PowerInterrupted) => {
                        report.power_cycles += 1;
                        report.power_fail_points.push(report.ops_attempted + page);
                        Self::splice_traces(&mut sys, capture, &mut traces);
                        sys.power_fail(true)?;
                        sys = sys.into_recovered()?;
                        if capture {
                            sys.set_trace_capture(true);
                        }
                        sys.read_at(off, &mut buf)?;
                        check.judge(page, &buf);
                    }
                    Err(CoreError::DegradedShard { .. }) => {
                        report.degraded_rejections += 1;
                        check.excluded += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        report.pages_excluded += check.excluded;
        report.oracle_mismatches += check.mismatches;
        report.rejected_write_leaks += check.leaks;
        report.digest = check.digest;
        report.degraded_shards = sys.degraded_shards().len() as u64;
        report.recovery = sys.recovery_stats();
        report.final_clock = sys.now();
        Self::splice_traces(&mut sys, capture, &mut traces);
        Ok((report, traces))
    }

    /// Closes the current boot epoch's capture and appends it (used at
    /// power cycles and at campaign end).
    fn splice_traces(sys: &mut MultiChannelSystem, capture: bool, traces: &mut Vec<TraceEpoch>) {
        if !capture {
            return;
        }
        if let Some(epoch) = sys.set_trace_capture(false) {
            traces.push(epoch);
        }
    }
}

/// One boot epoch's bus traces, one `Vec<TraceEntry>` per shard. A
/// campaign that power-cycles produces several epochs; the simulated
/// clock restarts at each reboot, so every epoch is a standalone trace.
pub type TraceEpoch = Vec<Vec<TraceEntry>>;

/// Everything a campaign run produced, sufficient for bit-identity
/// comparison across reruns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Channels the campaign ran on.
    pub channels: u32,
    /// Seed the campaign ran with (replaying it is the reproduction).
    pub seed: u64,
    /// Crash point of every power cut taken, as the zero-based attempted
    /// -op index it interrupted; cuts during the final verification
    /// sweep are recorded as `ops_attempted + page`. Together with
    /// `seed` this pins each cut exactly — see
    /// [`CampaignReport::repro`].
    pub power_fail_points: Vec<u64>,
    /// Operations attempted (scheduled + drain).
    pub ops_attempted: u64,
    /// Operations that completed without a surfaced fault.
    pub ops_completed: u64,
    /// Power-fail/rebuild cycles taken.
    pub power_cycles: u64,
    /// Operations rejected by a degraded shard.
    pub degraded_rejections: u64,
    /// CP transactions that exhausted their retransmit budget.
    pub cp_timeouts: u64,
    /// Typed uncorrectable-media failures surfaced.
    pub media_failures: u64,
    /// Typed dirty-slot corruption losses surfaced.
    pub cache_corruptions: u64,
    /// Shards degraded at campaign end.
    pub degraded_shards: u64,
    /// Pages excluded from the final verification because their loss was
    /// surfaced (never silently).
    pub pages_excluded: u64,
    /// Writes the device refused with a typed error (ledgered).
    pub writes_rejected: u64,
    /// Final read-backs that matched a still-ledgered rejected payload —
    /// a write the device claimed to refuse but applied; must be zero.
    pub rejected_write_leaks: u64,
    /// Bytes that differed from the oracle — the silent-corruption
    /// counter; must be zero.
    pub oracle_mismatches: u64,
    /// FNV-folded CRC digest of the final read-back (bit-identity probe).
    pub digest: u64,
    /// Merged recovery ledger across all shards.
    pub recovery: RecoveryStats,
    /// Final simulated clock (bit-identity probe).
    pub final_clock: SimTime,
}

impl CampaignReport {
    fn new(channels: u32, seed: u64) -> Self {
        CampaignReport {
            channels,
            seed,
            power_fail_points: Vec::new(),
            ops_attempted: 0,
            ops_completed: 0,
            power_cycles: 0,
            degraded_rejections: 0,
            cp_timeouts: 0,
            media_failures: 0,
            cache_corruptions: 0,
            degraded_shards: 0,
            pages_excluded: 0,
            writes_rejected: 0,
            rejected_write_leaks: 0,
            oracle_mismatches: 0,
            digest: DIGEST_SEED,
            recovery: RecoveryStats::default(),
            final_clock: SimTime::ZERO,
        }
    }

    /// One-command reproduction hint for this run's power cuts: the
    /// campaign is fully deterministic in `(seed, channels)`, so
    /// rerunning `FaultCampaign::recoverable(channels)` with this seed
    /// replays every cut at the recorded op index bit-identically.
    /// Embed this in assertion messages so a failure is reproducible
    /// without archaeology.
    pub fn repro(&self) -> String {
        format!(
            "repro: FaultCampaign::recoverable({}) with seed {:#x} \
             (power cuts at op indices {:?}; rerun is bit-identical)",
            self.channels, self.seed, self.power_fail_points
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_campaign_without_faults_verifies() {
        let mut c = FaultCampaign::recoverable(1);
        c.faults.clear();
        c.ops = 60;
        let r = c.run().expect("campaign");
        assert_eq!(r.oracle_mismatches, 0);
        assert_eq!(r.ops_completed, r.ops_attempted);
        assert_eq!(r.recovery, RecoveryStats::default());
    }

    #[test]
    fn single_channel_campaign_recovers_everything() {
        let r = FaultCampaign::recoverable(1).run().expect("campaign");
        assert_eq!(r.oracle_mismatches, 0, "silent corruption; {}", r.repro());
        assert_eq!(
            r.rejected_write_leaks,
            0,
            "rejected write applied; {}",
            r.repro()
        );
        assert_eq!(r.recovery.faults_fired, r.recovery.faults_scheduled);
        assert_eq!(r.degraded_shards, 0);
        let diags = nvdimmc_check::check_recovery(&r.recovery);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
