//! Measurement helpers: order statistics, process memory, operation
//! accounting and order-sensitive output fingerprints.

use skinnymine::{MineResult, SkinnyPattern};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count),
/// 0 for an empty slice.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`, 0 for an empty
/// slice.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t0`.
pub(crate) fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`) in MB (10^6 bytes),
/// 0 where `/proc/self/status` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Attempted and failed calls into the library's mining entry points
/// (`mine`, `serve_text`, `refresh`, ...) and output checks.
#[derive(Debug, Default)]
pub(crate) struct Ops {
    /// Calls and checks attempted.
    pub(crate) attempted: u64,
    /// Calls that returned an error plus checks that did not hold.
    pub(crate) failed: u64,
    /// One line per failure, printed to standard error.
    pub(crate) errors: Vec<String>,
}

impl Ops {
    /// Counts one call; returns its value, or records the error.
    pub(crate) fn call<T>(&mut self, what: &str, result: MineResult<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check; records it as failed unless `ok`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

/// Feeds formatted text into a hasher without materializing it.
struct HashWriter(DefaultHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Hash of one pattern's `Debug` form: graph, diameter, support, flags and
/// every embedding.
pub(crate) fn pattern_hash(p: &SkinnyPattern) -> u64 {
    let mut w = HashWriter(DefaultHasher::new());
    write!(w, "{p:?}").expect("hashing never fails");
    w.0.finish()
}

/// Order-sensitive fingerprint of a pattern list: equal fingerprints mean
/// byte-identical `Debug` output (up to a 64-bit hash collision).
pub fn ordered_fingerprint(patterns: &[SkinnyPattern]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(patterns.len());
    for p in patterns {
        h.write_u64(pattern_hash(p));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
