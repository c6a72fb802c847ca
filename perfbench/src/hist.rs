//! A log-linear latency histogram with bounded relative error.
//!
//! Values below 256 ns are kept exactly. Above that, every power of two
//! is split into 128 equal sub-buckets, so a reported percentile is off by
//! at most half a sub-bucket: under 0.4% of the value. Memory is fixed
//! (about 60 KiB), so a ten-second run at any throughput costs the same.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = (LINEAR + (64 - (SUB_BITS + 1)) as u64 * SUB) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let top = v >> (exp - SUB_BITS);
    (LINEAR + (exp - SUB_BITS - 1) as u64 * SUB + (top - SUB)) as usize
}

/// Midpoint of bucket `i`, the value a percentile landing in it reports.
fn value_of(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR {
        return i;
    }
    let exp = (i - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
    let top = (i - LINEAR) % SUB + SUB;
    let width = 1u64 << (exp - u64::from(SUB_BITS));
    top * width + width / 2
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.count += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds, 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i);
            }
        }
        unreachable!("rank {rank} exceeds count {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..LINEAR {
            assert_eq!(value_of(index_of(v)), v);
        }
    }

    #[test]
    fn relative_error_stays_under_half_a_percent() {
        let mut v = LINEAR;
        while v < u64::MAX / 17 {
            let got = value_of(index_of(v)) as f64;
            assert!((got - v as f64).abs() / v as f64 <= 0.004, "{v} -> {got}");
            v = v * 17 / 16 + 1;
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_rank() {
        let mut h = Hist::default();
        for v in 1..=1000 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.004);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.004);
    }
}
