//! The comparison device: Linux's emulated persistent memory
//! (`/dev/pmem0`, paper §VI).
//!
//! A DRAM-backed region exposed through the same XFS-DAX mount as
//! NVDIMM-C. It "actually does not guarantee the persistency property" —
//! it is a ramdisk — so it serves as the performance upper bound in every
//! figure. Table I gives it the same stretched tRFC (1250 ns) as the
//! NVDIMM-C channel.

use crate::config::PAGE_BYTES;
use crate::error::{check_range, CoreError};
use crate::perf::PerfParams;
use crate::shard::{BlockDevice, Io, QueuedDevice};
use nvdimmc_ddr::{DramDevice, Imc, ImcConfig, SharedBus, TimingParams};
use nvdimmc_sim::{SimDuration, SimTime};

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
        })
    }

    /// Per-op software cost. Sub-page ops skip nothing on the baseline:
    /// the block-layer-ish fixed cost applies regardless of size.
    fn sw_cost(&self, write: bool) -> SimDuration {
        let mut c = self.perf.fio_base_op;
        if write {
            c += self.perf.fio_write_extra;
        }
        c
    }

    /// A blocking call: the software cost, then the request served on
    /// the idle device it leaves behind. Returns the operation latency.
    fn serve_blocking(&mut self, offset: u64, io: Io<'_>) -> Result<SimDuration, CoreError> {
        let t0 = self.clock;
        let sw = if io.len() == 0 {
            SimDuration::ZERO
        } else {
            self.sw_cost(io.is_write())
        };
        let end = self.serve(t0 + sw, offset, io)?;
        Ok(end.since(t0))
    }

    /// The one service routine behind every read and write, blocking or
    /// queued. Idle at arrival, the transfer runs lock-step with the
    /// issuing thread's copy (paced at the CPU copy rate; the slower
    /// wins). Contended, the copy overlaps other requests' transfers and
    /// the device holds only the raw (tCCD-pipelined) bus occupancy.
    /// Returns the completion instant on the device clock.
    fn serve(
        &mut self,
        not_before: SimTime,
        offset: u64,
        io: Io<'_>,
    ) -> Result<SimTime, CoreError> {
        let len = io.len();
        if len == 0 {
            return Ok(self.clock.max(not_before));
        }
        check_range(offset, len, self.capacity)?;
        let (pace, copy) = if self.clock <= not_before {
            (self.perf.copy_time(64), self.perf.copy_time(len))
        } else {
            (SimDuration::ZERO, SimDuration::ZERO)
        };
        self.clock = self.clock.max(not_before);
        let start = self.clock;
        let end = match io {
            Io::Read(buf) => self
                .imc
                .read_bytes_paced(&mut self.bus, start, offset, buf, pace)?,
            Io::Write(data) => {
                self.imc
                    .write_bytes_paced(&mut self.bus, start, offset, data, pace)?
            }
        };
        self.clock = end.max(start + copy);
        Ok(self.clock)
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
        self.serve_blocking(offset, Io::Read(buf))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration, CoreError> {
        self.serve_blocking(offset, Io::Write(data))
    }
}

impl QueuedDevice for EmulatedPmem {
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn clock(&self) -> SimTime {
        self.clock
    }

    fn pre_cost(&self, _len: u64, write: bool) -> SimDuration {
        self.sw_cost(write)
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
        self.serve(not_before, offset, Io::Read(buf))
    }

    fn serve_write(
        &mut self,
        not_before: SimTime,
        offset: u64,
        data: &[u8],
    ) -> Result<SimTime, CoreError> {
        self.serve(not_before, offset, Io::Write(data))
    }
}

// `PAGE_BYTES` is re-used by callers sizing baseline experiments.
const _: () = assert!(PAGE_BYTES == 4096);
