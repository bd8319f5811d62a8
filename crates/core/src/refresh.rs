//! The FPGA's refresh-detection pipeline (paper §IV-A, Figure 4).
//!
//! Six CA pins (CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n) are routed into the
//! FPGA. Each feeds a **1:8 deserializer** that parallelises the
//! double-data-rate pin stream into 8-bit words every four clock cycles.
//! The **refresh detector** then checks whether any captured bit position
//! shows the REFRESH state — CKE, ACT_n, WE_n high with CS_n, RAS_n,
//! CAS_n low — and asserts `is_refresh`. Self-refresh entry/exit must not
//! trigger it (SRE carries CKE low).
//!
//! The per-bank extension detects REFpb too: the same six pins in the
//! (formerly reserved) state with CAS_n *high* instead of low. The bank
//! and stretch level ride on BG/BA and the address pins, which the
//! detector state machine does not monitor — the [`DetectorPipeline`]
//! recovers them from the full captured CA word, as the production FPGA
//! would from additionally-tapped pins.
//!
//! A bus command holds its pin state for the whole capture window, so
//! [`RefreshDetector::feed_command`] sees eight identical samples. When
//! the deserializer is *aligned* (no partial capture pending), those
//! samples fill exactly one word whose eight bits are equal, and the
//! serial result has a closed form: one word examined, a detection iff
//! the pins show REF or REFpb (both need CKE high, so from the second bit
//! on the CKE-history gate is the command's own CKE), eight SRE
//! rejections on the SRE pattern, and the command's CKE as the new
//! history bit. `feed_command` computes that directly. A capture left
//! misaligned by stray [`RefreshDetector::push_sample`] calls straddles
//! two commands, and takes the serial sample-by-sample path instead.

use nvdimmc_ddr::{BankAddr, CaPins, Command};
use nvdimmc_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Number of monitored CA pins.
pub const MONITORED_PINS: usize = 6;
/// Deserialization ratio (bits per parallel word).
pub const DESER_RATIO: usize = 8;

/// A 1:8 serial-to-parallel converter for one pin.
#[derive(Debug, Clone, Default)]
struct PinDeserializer {
    shift: u8,
    count: u8,
}

impl PinDeserializer {
    /// Pushes one serial sample; returns the parallel word every eighth
    /// sample.
    fn push(&mut self, level: bool) -> Option<u8> {
        self.shift = (self.shift << 1) | u8::from(level);
        self.count += 1;
        if self.count == DESER_RATIO as u8 {
            self.count = 0;
            let w = self.shift;
            self.shift = 0;
            Some(w)
        } else {
            None
        }
    }
}

/// The six-pin deserializer bank.
#[derive(Debug, Clone, Default)]
pub struct Deserializer {
    pins: [PinDeserializer; MONITORED_PINS],
}

impl Deserializer {
    /// Creates an empty deserializer bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no partial capture is pending: the next sample starts a
    /// fresh 8-bit word on every pin.
    fn is_aligned(&self) -> bool {
        self.pins.iter().all(|p| p.count == 0)
    }

    /// Pushes one sample of all six pins (paper order: CKE, CS_n, ACT_n,
    /// RAS_n, CAS_n, WE_n); returns the six parallel 8-bit words when a
    /// capture completes.
    pub fn push(&mut self, sample: [bool; MONITORED_PINS]) -> Option<[u8; MONITORED_PINS]> {
        let mut out = [0u8; MONITORED_PINS];
        let mut ready = false;
        for (i, (pin, &level)) in self.pins.iter_mut().zip(sample.iter()).enumerate() {
            if let Some(w) = pin.push(level) {
                out[i] = w;
                ready = true;
            }
        }
        ready.then_some(out)
    }
}

/// Detector statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Parallel words examined.
    pub words: u64,
    /// Refresh detections asserted (rank REF and per-bank REFpb).
    pub detections: u64,
    /// Of [`Self::detections`], how many were per-bank REFpb states.
    pub pb_detections: u64,
    /// Samples matching refresh-family encodings rejected for CKE
    /// transitions (SRE).
    pub sre_rejected: u64,
}

/// The combinational refresh detector over deserialized pin words.
///
/// # Example
///
/// ```
/// use nvdimmc_core::refresh::RefreshDetector;
/// use nvdimmc_ddr::{CaPins, Command};
///
/// let mut det = RefreshDetector::new();
/// let hits = det.feed_command(&CaPins::encode(&Command::Refresh));
/// assert_eq!(hits, 1);
/// let miss = det.feed_command(&CaPins::encode(&Command::PrechargeAll));
/// assert_eq!(miss, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefreshDetector {
    deser: Deserializer,
    prev_cke_bit: bool,
    stats: DetectorStats,
}

impl RefreshDetector {
    /// Creates a detector with idle-bus history.
    pub fn new() -> Self {
        RefreshDetector {
            deser: Deserializer::new(),
            prev_cke_bit: true,
            stats: DetectorStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Feeds one raw pin sample; returns `true` when a completed capture
    /// contains the REFRESH state.
    pub fn push_sample(&mut self, sample: [bool; MONITORED_PINS]) -> bool {
        match self.deser.push(sample) {
            Some(words) => self.examine(words),
            None => false,
        }
    }

    /// Examines one parallel capture (six 8-bit words).
    fn examine(&mut self, words: [u8; MONITORED_PINS]) -> bool {
        self.stats.words += 1;
        let mut hit = false;
        let mut pb_hit = false;
        for bit in (0..DESER_RATIO).rev() {
            let levels = words.map(|w| w & (1u8 << bit) != 0);
            // The refresh state requires CKE high at the command edge and
            // at the previous sample, which is what tells SRE (the REF
            // pin pattern *with CKE dropping*) apart.
            match PinState::of(levels) {
                PinState::Refresh if self.prev_cke_bit => hit = true,
                PinState::RefreshBank if self.prev_cke_bit => pb_hit = true,
                PinState::SreLike => self.stats.sre_rejected += 1,
                _ => {}
            }
            self.prev_cke_bit = levels[0];
        }
        self.count(hit, pb_hit)
    }

    /// Counts one examined word's verdict.
    fn count(&mut self, hit: bool, pb_hit: bool) -> bool {
        if hit || pb_hit {
            self.stats.detections += 1;
        }
        if pb_hit {
            self.stats.pb_detections += 1;
        }
        hit || pb_hit
    }

    /// Feeds the eight serial samples a held command edge produces (the
    /// pin state is stable across the capture window) and returns how
    /// many detections fired. On an aligned capture this is the closed
    /// form in the module docs; otherwise the samples go through
    /// [`Self::push_sample`] one by one.
    pub fn feed_command(&mut self, pins: &CaPins) -> u64 {
        let sample = pins.monitored_pins();
        if !self.deser.is_aligned() {
            let before = self.stats.detections;
            for _ in 0..DESER_RATIO {
                self.push_sample(sample);
            }
            return self.stats.detections - before;
        }
        self.stats.words += 1;
        let state = PinState::of(sample);
        if state == PinState::SreLike {
            self.stats.sre_rejected += DESER_RATIO as u64;
        }
        self.prev_cke_bit = sample[0];
        u64::from(self.count(state == PinState::Refresh, state == PinState::RefreshBank))
    }
}

/// What one sample of the six monitored pins shows to the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PinState {
    /// REF: CKE, ACT_n, WE_n high; CS_n, RAS_n, CAS_n low.
    Refresh,
    /// REFpb: the same state with CAS_n high (the formerly reserved
    /// RAS_n-low CAS_n-high WE_n-high decode slot).
    RefreshBank,
    /// The REF pattern with CKE low: self-refresh entry.
    SreLike,
    /// Anything else.
    Other,
}

impl PinState {
    fn of(pins: [bool; MONITORED_PINS]) -> Self {
        // Pin order: CKE, CS_n, ACT_n, RAS_n, CAS_n, WE_n.
        match pins {
            [true, false, true, false, false, true] => PinState::Refresh,
            [true, false, true, false, true, true] => PinState::RefreshBank,
            [false, false, true, false, false, true] => PinState::SreLike,
            _ => PinState::Other,
        }
    }
}

/// A detected refresh with its command time — what the FPGA's window
/// scheduler consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshEvent {
    /// When the REFRESH / REFpb command was captured.
    pub at: SimTime,
    /// `Some(bank)` for a per-bank REFpb (the window covers only that
    /// bank), `None` for a rank-level REF.
    pub bank: Option<BankAddr>,
    /// Window stretch level recovered from the address pins (REFpb only;
    /// zero for rank REF).
    pub stretch: u8,
}

impl RefreshEvent {
    /// A rank-level refresh event at `at`.
    pub fn rank(at: SimTime) -> Self {
        RefreshEvent {
            at,
            bank: None,
            stretch: 0,
        }
    }
}

/// Runs CA-bus captures through the detector and emits timed refresh
/// events.
#[derive(Debug, Default)]
pub struct DetectorPipeline {
    detector: RefreshDetector,
}

impl DetectorPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inner detector (stats).
    pub fn detector(&self) -> &RefreshDetector {
        &self.detector
    }

    /// Processes a drained CA log, returning one event per detected
    /// REFRESH or REFpb. For REFpb the bank and stretch are recovered
    /// from the captured BG/BA/address pins.
    pub fn process(&mut self, log: &[(SimTime, CaPins)]) -> Vec<RefreshEvent> {
        let mut out = Vec::new();
        for (at, pins) in log {
            if self.detector.feed_command(pins) > 0 {
                let (bank, stretch) = match CaPins::decode(pins) {
                    Some(Command::RefreshBank { bank, stretch }) => (Some(bank), stretch),
                    _ => (None, 0),
                };
                out.push(RefreshEvent {
                    at: *at,
                    bank,
                    stretch,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvdimmc_ddr::{BankAddr, Command};

    #[test]
    fn deserializer_is_one_to_eight() {
        let mut d = Deserializer::new();
        for i in 0..7 {
            assert!(d.push([true; 6]).is_none(), "sample {i} completed early");
        }
        let words = d.push([true; 6]).unwrap();
        assert_eq!(words, [0xFF; 6]);
    }

    #[test]
    fn deserializer_preserves_bit_order() {
        let mut d = Deserializer::new();
        // Pin 0 pattern: 1,0,0,0,0,0,0,1 -> MSB-first 0b1000_0001.
        let pattern = [true, false, false, false, false, false, false, true];
        let mut out = None;
        for &b in &pattern {
            out = d.push([b, false, false, false, false, false]);
        }
        assert_eq!(out.unwrap()[0], 0b1000_0001);
    }

    #[test]
    fn detects_refresh_and_only_refresh() {
        let b = BankAddr::new(0, 0);
        let commands = [
            (Command::Refresh, true),
            (Command::PrechargeAll, false),
            (
                Command::Activate {
                    bank: b,
                    row: 0x1_4000, // row bits that set A16/A14 high
                },
                false,
            ),
            (
                Command::Read {
                    bank: b,
                    col: 0,
                    auto_precharge: false,
                },
                false,
            ),
            (
                Command::Write {
                    bank: b,
                    col: 0,
                    auto_precharge: true,
                },
                false,
            ),
            (Command::Deselect, false),
            (Command::ZqCalibration, false),
            (
                Command::ModeRegisterSet {
                    register: 0,
                    value: 0,
                },
                false,
            ),
        ];
        for (cmd, expect) in commands {
            let mut det = RefreshDetector::new();
            let hits = det.feed_command(&CaPins::encode(&cmd));
            assert_eq!(hits > 0, expect, "{cmd:?}");
        }
    }

    #[test]
    fn self_refresh_entry_not_detected() {
        let mut det = RefreshDetector::new();
        assert_eq!(
            det.feed_command(&CaPins::encode(&Command::SelfRefreshEnter)),
            0
        );
        assert!(
            det.stats().sre_rejected > 0,
            "SRE pattern seen and rejected"
        );
    }

    #[test]
    fn self_refresh_exit_not_detected() {
        let mut det = RefreshDetector::new();
        assert_eq!(
            det.feed_command(&CaPins::encode(&Command::SelfRefreshExit)),
            0
        );
    }

    #[test]
    fn refresh_right_after_sre_requires_cke_high_history() {
        let mut det = RefreshDetector::new();
        det.feed_command(&CaPins::encode(&Command::SelfRefreshEnter));
        // First sample after SRE has prev CKE low; a real REF (held 8
        // samples with CKE high) is still detected from the second sample.
        let hits = det.feed_command(&CaPins::encode(&Command::Refresh));
        assert_eq!(hits, 1);
    }

    #[test]
    fn pipeline_emits_timed_events() {
        let mut p = DetectorPipeline::new();
        let log = vec![
            (
                SimTime::from_ns(100),
                CaPins::encode(&Command::PrechargeAll),
            ),
            (SimTime::from_ns(120), CaPins::encode(&Command::Refresh)),
            (SimTime::from_ns(900), CaPins::encode(&Command::Deselect)),
            (SimTime::from_us(8), CaPins::encode(&Command::Refresh)),
        ];
        let events = p.process(&log);
        assert_eq!(
            events,
            vec![
                RefreshEvent::rank(SimTime::from_ns(120)),
                RefreshEvent::rank(SimTime::from_us(8)),
            ]
        );
        assert_eq!(p.detector().stats().detections, 2);
    }

    #[test]
    fn per_bank_refresh_detected_with_bank_and_stretch() {
        let mut p = DetectorPipeline::new();
        let b = BankAddr::new(2, 3);
        let log = vec![
            (
                SimTime::from_ns(100),
                CaPins::encode(&Command::Precharge { bank: b }),
            ),
            (
                SimTime::from_ns(120),
                CaPins::encode(&Command::RefreshBank {
                    bank: b,
                    stretch: 9,
                }),
            ),
            (SimTime::from_ns(140), CaPins::encode(&Command::Refresh)),
        ];
        let events = p.process(&log);
        assert_eq!(
            events,
            vec![
                RefreshEvent {
                    at: SimTime::from_ns(120),
                    bank: Some(b),
                    stretch: 9,
                },
                RefreshEvent::rank(SimTime::from_ns(140)),
            ]
        );
        let s = p.detector().stats();
        assert_eq!(s.detections, 2);
        assert_eq!(s.pb_detections, 1);
    }

    #[test]
    fn refpb_after_sre_requires_cke_high_history() {
        let mut det = RefreshDetector::new();
        det.feed_command(&CaPins::encode(&Command::SelfRefreshEnter));
        let hits = det.feed_command(&CaPins::encode(&Command::RefreshBank {
            bank: BankAddr::new(0, 1),
            stretch: 0,
        }));
        assert_eq!(hits, 1);
        assert_eq!(det.stats().pb_detections, 1);
    }

    /// The serial reference for [`RefreshDetector::feed_command`]: the
    /// eight held samples through the deserializer one by one.
    fn feed_serial(det: &mut RefreshDetector, pins: &CaPins) -> u64 {
        let before = det.stats.detections;
        for _ in 0..DESER_RATIO {
            det.push_sample(pins.monitored_pins());
        }
        det.stats.detections - before
    }

    fn random_command(rng: &mut nvdimmc_sim::DeterministicRng) -> Command {
        let bank = BankAddr::from_index(rng.gen_range(0..u64::from(BankAddr::COUNT)) as u8);
        match rng.gen_range(0..10) {
            0 => Command::Refresh,
            1 => Command::RefreshBank {
                bank,
                stretch: rng.gen_range(0..16) as u8,
            },
            2 => Command::SelfRefreshEnter,
            3 => Command::SelfRefreshExit,
            4 => Command::Activate {
                bank,
                row: rng.gen_range(0..1 << 17) as u32,
            },
            5 => Command::Read {
                bank,
                col: rng.gen_range(0..1024) as u16,
                auto_precharge: rng.gen_bool(0.5),
            },
            6 => Command::Write {
                bank,
                col: rng.gen_range(0..1024) as u16,
                auto_precharge: rng.gen_bool(0.5),
            },
            7 => Command::Precharge { bank },
            8 => Command::PrechargeAll,
            _ => Command::Deselect,
        }
    }

    #[test]
    fn closed_form_matches_serial_samples_on_random_streams() {
        use nvdimmc_sim::DeterministicRng;
        let (mut aligned, mut misaligned) = (0u32, 0u32);
        for seed in 0..64 {
            let mut rng = DeterministicRng::new(seed);
            let mut det = RefreshDetector::new();
            let mut serial = RefreshDetector::new();
            for step in 0..300 {
                if rng.gen_bool(0.05) {
                    // A stray raw sample (random CKE edge included) shifts
                    // both captures off the command boundary alike.
                    let sample = [(); MONITORED_PINS].map(|()| rng.gen_bool(0.5));
                    assert_eq!(det.push_sample(sample), serial.push_sample(sample));
                } else {
                    if det.deser.is_aligned() {
                        aligned += 1;
                    } else {
                        misaligned += 1;
                    }
                    let cmd = random_command(&mut rng);
                    let pins = CaPins::encode(&cmd);
                    assert_eq!(
                        det.feed_command(&pins),
                        feed_serial(&mut serial, &pins),
                        "seed {seed} step {step}: {cmd:?}"
                    );
                }
                assert_eq!(det.stats(), serial.stats(), "seed {seed} step {step}");
                assert_eq!(
                    det.prev_cke_bit, serial.prev_cke_bit,
                    "seed {seed} step {step}"
                );
            }
        }
        assert!(
            aligned > 1_000 && misaligned > 1_000,
            "{aligned} / {misaligned}"
        );
    }

    #[test]
    fn long_random_stream_no_false_positives() {
        use nvdimmc_sim::DeterministicRng;
        let mut rng = DeterministicRng::new(99);
        let mut det = RefreshDetector::new();
        let b = BankAddr::new(1, 1);
        for _ in 0..5_000 {
            let cmd = match rng.gen_range(0..5) {
                0 => Command::Activate {
                    bank: b,
                    row: rng.gen_range(0..1 << 17) as u32,
                },
                1 => Command::Read {
                    bank: b,
                    col: rng.gen_range(0..1024) as u16,
                    auto_precharge: rng.gen_bool(0.5),
                },
                2 => Command::Write {
                    bank: b,
                    col: rng.gen_range(0..1024) as u16,
                    auto_precharge: rng.gen_bool(0.5),
                },
                3 => Command::Precharge { bank: b },
                _ => Command::Deselect,
            };
            assert_eq!(det.feed_command(&CaPins::encode(&cmd)), 0, "{cmd:?}");
        }
    }
}
