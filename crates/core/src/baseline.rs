//! The comparison device: Linux's emulated persistent memory
//! (`/dev/pmem0`, paper §VI).
//!
//! A DRAM-backed region exposed through the same XFS-DAX mount as
//! NVDIMM-C. It "actually does not guarantee the persistency property" —
//! it is a ramdisk — so it serves as the performance upper bound in every
//! figure. Table I gives it the same stretched tRFC (1250 ns) as the
//! NVDIMM-C channel.

use crate::config::PAGE_BYTES;
use crate::error::CoreError;
use crate::perf::PerfParams;
use crate::shard::{BlockDevice, QueuedDevice};
use nvdimmc_ddr::{DramDevice, Imc, ImcConfig, SharedBus, TimingParams};
use nvdimmc_sim::{Histogram, SimDuration, SimTime};

/// Statistics for the baseline device.
#[derive(Debug, Clone, Default)]
pub struct BaselineStats {
    /// Read operations.
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Read latency distribution.
    pub read_latency: Histogram,
    /// Write latency distribution.
    pub write_latency: Histogram,
}

/// The emulated-NVDIMM baseline.
///
/// # Example
///
/// ```
/// use nvdimmc_core::{BlockDevice, EmulatedPmem, PerfParams};
/// use nvdimmc_ddr::{SpeedBin, TimingParams};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let timing = TimingParams::nvdimmc_poc(SpeedBin::Ddr4_1600);
/// let mut pmem = EmulatedPmem::new(64 << 20, timing, PerfParams::poc())?;
/// pmem.write_at(4096, &[1u8; 4096])?;
/// let mut buf = [0u8; 4096];
/// pmem.read_at(4096, &mut buf)?;
/// assert_eq!(buf[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EmulatedPmem {
    bus: SharedBus,
    imc: Imc,
    perf: PerfParams,
    capacity: u64,
    clock: SimTime,
    stats: BaselineStats,
}

impl EmulatedPmem {
    /// Creates a pmem region of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] if `capacity` is zero.
    pub fn new(capacity: u64, timing: TimingParams, perf: PerfParams) -> Result<Self, CoreError> {
        if capacity == 0 {
            return Err(CoreError::Config("pmem capacity must be positive".into()));
        }
        let stripe = 8 * 1024 * 16;
        let dram = capacity.div_ceil(stripe) * stripe;
        let device = DramDevice::new(timing, dram);
        Ok(EmulatedPmem {
            bus: SharedBus::new(device),
            imc: Imc::new(ImcConfig::from_timing(&timing)),
            perf,
            capacity,
            clock: SimTime::ZERO,
            stats: BaselineStats::default(),
        })
    }

    /// Statistics.
    pub fn stats(&self) -> &BaselineStats {
        &self.stats
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<(), CoreError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(CoreError::OutOfRange {
                offset,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    fn sw_cost(&self, len: u64, write: bool) -> SimDuration {
        let mut c = self.perf.fio_base_op;
        if write {
            c += self.perf.fio_write_extra;
        }
        // Sub-page ops skip nothing on the baseline: the block-layer-ish
        // fixed cost applies regardless of size.
        let _ = len;
        c
    }
}

impl BlockDevice for EmulatedPmem {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn now(&self) -> SimTime {
        self.clock
    }

    fn advance(&mut self, d: SimDuration) {
        self.clock += d;
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration, CoreError> {
        let len = buf.len() as u64;
        if len == 0 {
            return Ok(SimDuration::ZERO);
        }
        self.check_range(offset, len)?;
        let t0 = self.clock;
        self.clock += self.sw_cost(len, false);
        let start = self.clock;
        let pace = self.perf.copy_time(64);
        let end = self
            .imc
            .read_bytes_paced(&mut self.bus, start, offset, buf, pace)?;
        self.clock = end.max(start + self.perf.copy_time(len));
        let lat = self.clock.since(t0);
        self.stats.reads += 1;
        self.stats.read_latency.record(lat);
        Ok(lat)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, CoreError> {
        let len = data.len() as u64;
        if len == 0 {
            return Ok(SimDuration::ZERO);
        }
        self.check_range(offset, len)?;
        let t0 = self.clock;
        self.clock += self.sw_cost(len, true);
        let start = self.clock;
        let pace = self.perf.copy_time(64);
        let end = self
            .imc
            .write_bytes_paced(&mut self.bus, start, offset, data, pace)?;
        self.clock = end.max(start + self.perf.copy_time(len));
        let lat = self.clock.since(t0);
        self.stats.writes += 1;
        self.stats.write_latency.record(lat);
        Ok(lat)
    }
}

impl QueuedDevice for EmulatedPmem {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn pre_cost(&self, len: u64, write: bool) -> SimDuration {
        self.sw_cost(len, write)
    }

    fn copy_cost(&self, len: u64) -> SimDuration {
        self.perf.copy_time(len)
    }

    fn serve_read(
        &mut self,
        not_before: SimTime,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimTime, CoreError> {
        let len = buf.len() as u64;
        if len == 0 {
            return Ok(self.clock.max(not_before));
        }
        self.check_range(offset, len)?;
        if self.clock <= not_before {
            // Idle at arrival: lock-step with the issuing thread's copy,
            // exactly like the blocking path.
            self.clock = not_before;
            let t0 = self.clock;
            let pace = self.perf.copy_time(64);
            let end = self
                .imc
                .read_bytes_paced(&mut self.bus, t0, offset, buf, pace)?;
            self.clock = end.max(t0 + self.perf.copy_time(len));
            self.stats.reads += 1;
            self.stats.read_latency.record(self.clock.since(t0));
        } else {
            // Contended: the copy overlaps other requests' transfers; the
            // device holds only the raw (tCCD-pipelined) bus occupancy.
            let t0 = self.clock;
            let end = self.imc.read_bytes(&mut self.bus, t0, offset, buf)?;
            self.clock = end;
            self.stats.reads += 1;
            self.stats.read_latency.record(self.clock.since(t0));
        }
        Ok(self.clock)
    }

    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError> {
        let len = data.len() as u64;
        if len == 0 {
            return Ok(self.clock.max(not_before));
        }
        self.check_range(offset, len)?;
        if self.clock <= not_before {
            self.clock = not_before;
            let t0 = self.clock;
            let pace = self.perf.copy_time(64);
            let end = self
                .imc
                .write_bytes_paced(&mut self.bus, t0, offset, data, pace)?;
            self.clock = end.max(t0 + self.perf.copy_time(len));
            self.stats.writes += 1;
            self.stats.write_latency.record(self.clock.since(t0));
        } else {
            let t0 = self.clock;
            let end = self.imc.write_bytes(&mut self.bus, t0, offset, data)?;
            self.clock = end;
            self.stats.writes += 1;
            self.stats.write_latency.record(self.clock.since(t0));
        }
        Ok(self.clock)
    }
}

// `PAGE_BYTES` is re-used by callers sizing baseline experiments.
const _: () = assert!(PAGE_BYTES == 4096);
