//! Bounded-state statistics. Every aggregate the harness keeps is a
//! count, a sum, a maximum or a fixed array of buckets, so the memory a
//! run uses does not grow with the number of events it measures.

/// Count, sum and maximum of a stream of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Samples seen.
    pub n: u64,
    /// Their sum.
    pub sum: f64,
    /// Their maximum (0 when empty).
    pub max: f64,
}

impl Agg {
    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        if x > self.max {
            self.max = x;
        }
    }

    /// Mean of the samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Median of a few samples (the mean of the middle two for an even
/// count; 0 when empty).
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// A quantile read from a histogram, with the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile's value (0 when the histogram is empty).
    pub value: f64,
    /// Samples in the histogram.
    pub n: u64,
    /// Samples ranked strictly above the quantile.
    pub beyond: u64,
}

impl Quantile {
    /// Whether at least ten samples lie beyond the quantile: the smallest
    /// tail that supports reporting it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest rank (1-based) of quantile `q` among `n` samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Walks bucket counts in value order to the bucket holding rank `r`.
fn bucket_of_rank(counts: impl Iterator<Item = u64>, r: u64) -> usize {
    let mut seen = 0;
    for (i, c) in counts.enumerate() {
        seen += c;
        if seen >= r {
            return i;
        }
    }
    unreachable!("rank {r} exceeds the histogram's {seen} samples")
}

const SUB_BITS: u32 = 6;
const MIN_EXP: i32 = -40;
const MAX_EXP: i32 = 40;
const LOG_BUCKETS: usize = 1 + (((MAX_EXP - MIN_EXP + 1) as usize) << SUB_BITS);

/// Histogram of non-negative values in log-linear buckets: 64 per power
/// of two from 2^-40 to 2^41, so a reported value (the bucket midpoint)
/// is within 0.8 % of every sample in its bucket. Zero and smaller
/// values share bucket 0.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; LOG_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    fn bucket(x: f64) -> usize {
        let lo = 2f64.powi(MIN_EXP);
        if x.is_nan() || x < lo {
            return 0;
        }
        let x = x.min(2f64.powi(MAX_EXP + 1) * (1.0 - f64::EPSILON));
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let sub = ((bits >> (52 - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        1 + (((exp - MIN_EXP) as usize) << SUB_BITS) + sub
    }

    fn midpoint(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let j = i - 1;
        let exp = (j >> SUB_BITS) as i32 + MIN_EXP;
        let sub = (j & ((1 << SUB_BITS) - 1)) as f64;
        2f64.powi(exp) * (1.0 + (sub + 0.5) / f64::from(1u32 << SUB_BITS))
    }

    /// Records one sample.
    pub fn add(&mut self, x: f64) {
        self.counts[Self::bucket(x)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank quantile `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Quantile {
        if self.n == 0 {
            return Quantile {
                value: 0.0,
                n: 0,
                beyond: 0,
            };
        }
        let r = rank(q, self.n);
        let i = bucket_of_rank(self.counts.iter().copied(), r);
        Quantile {
            value: Self::midpoint(i),
            n: self.n,
            beyond: self.n - r,
        }
    }
}

/// Histogram over `[lo, lo + width * buckets)` in equal-width buckets,
/// with underflow and overflow counts and the exact extremes. For
/// quantities that need absolute rather than relative resolution and
/// whose origin is only known after the run (see [`LinHist::shifted`]).
#[derive(Debug, Clone)]
pub struct LinHist {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    under: u64,
    over: u64,
    n: u64,
    min: f64,
    max: f64,
}

impl LinHist {
    /// An empty histogram of `buckets` buckets of `width` from `lo`.
    pub fn new(lo: f64, width: f64, buckets: usize) -> LinHist {
        LinHist {
            lo,
            width,
            counts: vec![0; buckets],
            under: 0,
            over: 0,
            n: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let pos = (x - self.lo) / self.width;
        if pos < 0.0 {
            self.under += 1;
        } else if pos >= self.counts.len() as f64 {
            self.over += 1;
        } else {
            self.counts[pos as usize] += 1;
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Nearest-rank quantile of the samples minus `origin`: the quantile
    /// of `x - origin` for every recorded `x`. Samples outside the bucket
    /// range read as the exact extreme on their side.
    pub fn shifted(&self, q: f64, origin: f64) -> Quantile {
        if self.n == 0 {
            return Quantile {
                value: 0.0,
                n: 0,
                beyond: 0,
            };
        }
        let r = rank(q, self.n);
        let all = std::iter::once(self.under)
            .chain(self.counts.iter().copied())
            .chain(std::iter::once(self.over));
        let i = bucket_of_rank(all, r);
        let value = if i == 0 {
            self.min
        } else if i == self.counts.len() + 1 {
            self.max
        } else {
            self.lo + (i as f64 - 0.5) * self.width
        };
        Quantile {
            value: value - origin,
            n: self.n,
            beyond: self.n - r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_tracks_count_sum_max_mean() {
        let mut a = Agg::default();
        assert_eq!(a.mean(), 0.0);
        for x in [1.0, 4.0, 2.0] {
            a.add(x);
        }
        assert_eq!((a.n, a.sum, a.max), (3, 7.0, 4.0));
        assert!((a.mean() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn log_quantiles_land_within_a_bucket_of_the_exact_rank() {
        let mut h = LogHist::default();
        for i in 1..=1000 {
            h.add(f64::from(i) * 1e-3);
        }
        for (q, exact) in [(0.5, 0.5), (0.99, 0.99), (1.0, 1.0), (0.001, 0.001)] {
            let got = h.quantile(q).value;
            assert!(
                (got - exact).abs() <= exact / 64.0,
                "q{q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn quantiles_carry_their_sample_counts() {
        let mut h = LogHist::default();
        for i in 0..1000 {
            h.add(1.0 + f64::from(i));
        }
        let p50 = h.quantile(0.5);
        assert_eq!((p50.n, p50.beyond), (1000, 500));
        // p99 of 1000 samples has exactly ten beyond it: just supported.
        let p99 = h.quantile(0.99);
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());
        // p99.9 of 1000 samples has one beyond it: not supported.
        assert!(!h.quantile(0.999).supported());
        assert_eq!(LogHist::default().quantile(0.5).n, 0);
    }

    #[test]
    fn log_hist_puts_zero_and_tiny_values_in_the_zero_bucket() {
        let mut h = LogHist::default();
        h.add(0.0);
        h.add(1e-30);
        h.add(3.0);
        assert_eq!(h.quantile(0.5).value, 0.0);
        assert!((h.quantile(1.0).value - 3.0).abs() < 3.0 / 64.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn shifted_quantile_subtracts_the_origin_at_bucket_resolution() {
        // Samples 5 ms + k µs for k in 0..100, shifted by their minimum:
        // the quantiles of 0..100 µs.
        let mut h = LinHist::new(0.0, 1e-6, 100_000);
        for k in 0..100 {
            h.add(5e-3 + f64::from(k) * 1e-6);
        }
        let min = h.min();
        assert!((min - 5e-3).abs() < 1e-12);
        let p50 = h.shifted(0.5, min);
        assert!((p50.value - 49e-6).abs() <= 1e-6, "{p50:?}");
        assert_eq!(p50.beyond, 50);
    }

    #[test]
    fn out_of_range_samples_read_as_the_exact_extremes() {
        let mut h = LinHist::new(0.0, 1.0, 10);
        h.add(-3.0);
        h.add(4.2);
        h.add(50.0);
        assert_eq!(h.shifted(0.0, 0.0).value, -3.0);
        assert!((h.shifted(0.5, 0.0).value - 4.5).abs() < 1e-12);
        assert_eq!(h.shifted(1.0, 0.0).value, 50.0);
    }
}
