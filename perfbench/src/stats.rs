//! Summaries: medians of repeated host timings, latency percentiles with
//! their sample counts, peak memory, and JSON number formatting.

use nvdimmc_sim::Histogram;

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of samples, not a
/// percentile.
pub const MIN_BEYOND: u64 = 10;

/// A reported latency percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Value in simulated microseconds.
    pub us: f64,
    /// Samples in the distribution.
    pub samples: u64,
    /// Samples ranked above the percentile.
    pub beyond: u64,
}

/// Samples ranked above the `p`-th percentile of `count` samples: the
/// percentile is the sample of rank `ceil(p/100 · count)` (at least 1).
pub fn samples_beyond(count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
    count.saturating_sub(rank)
}

/// The `p`-th percentile of `h`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(h: &Histogram, p: f64) -> Option<Percentile> {
    let beyond = samples_beyond(h.count(), p);
    (beyond >= MIN_BEYOND).then(|| Percentile {
        us: h.percentile(p).as_us_f64(),
        samples: h.count(),
        beyond,
    })
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `v` as a JSON number with every digit of Rust's shortest round-trip
/// formatting. The caller rejects non-finite values, which JSON cannot
/// carry.
pub fn json_number(v: f64) -> String {
    format!("{v:?}")
}
