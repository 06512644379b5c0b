//! Fixed-bucket log2 histograms on relaxed atomics.
//!
//! A [`Histogram`] holds 32 power-of-two microsecond buckets (`< 1 µs`,
//! `< 2 µs`, … `< 2^30 µs` ≈ 18 min, plus overflow) next to count / sum /
//! min / max registers. Every field is a relaxed `AtomicU64`, so recording
//! is wait-free and safe from any number of rank threads; reads produce a
//! [`Snapshot`] that is internally *approximately* consistent (fields are
//! loaded one by one while writers may race), which is the usual contract
//! for scrape-style metrics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (the last one is the overflow bucket).
pub const BUCKETS: usize = 32;

const R: Ordering = Ordering::Relaxed;

/// A wait-free log2(µs) histogram.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket a `us` value falls into: bucket `i` counts values
/// with `value < 2^i`, i.e. `i = bit_length(us)` clamped to the overflow
/// bucket.
pub fn bucket_index(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Upper bound (exclusive, in µs) of bucket `i`; `None` for the overflow
/// bucket (Prometheus `+Inf`).
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 < BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

impl Histogram {
    /// An empty histogram (const, so it can live in statics).
    pub const fn new() -> Self {
        // `[const { ... }; N]` array-of-atomics initializer needs a const
        // block; spell it via a const item to stay on older idiom.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Record one observation of `us` microseconds. Wait-free.
    pub fn record(&self, us: u64) {
        self.count.fetch_add(1, R);
        self.sum.fetch_add(us, R);
        self.buckets[bucket_index(us)].fetch_add(1, R);
        self.min.fetch_min(us, R);
        self.max.fetch_max(us, R);
    }

    /// Zero every register.
    pub fn reset(&self) {
        self.count.store(0, R);
        self.sum.store(0, R);
        self.min.store(u64::MAX, R);
        self.max.store(0, R);
        for b in &self.buckets {
            b.store(0, R);
        }
    }

    /// Load a point-in-time copy of every register.
    pub fn snapshot(&self) -> Snapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(R);
        }
        Snapshot {
            count: self.count.load(R),
            sum: self.sum.load(R),
            min: self.min.load(R),
            max: self.max.load(R),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed microseconds.
    pub sum: u64,
    /// Smallest observation (µs); `u64::MAX` when empty.
    pub min: u64,
    /// Largest observation (µs).
    pub max: u64,
    /// Per-bucket counts (bucket `i` holds values `< 2^i µs`).
    pub buckets: [u64; BUCKETS],
}

impl Snapshot {
    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean in microseconds, `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest observation, `None` when empty (hides the `u64::MAX`
    /// sentinel).
    pub fn min_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub fn max_us(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket-resolution quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `q·count` (so accurate to a
    /// factor of 2, which is what log2 buckets buy). `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Report the bucket's inclusive upper edge, clamped by the
                // true max so p99 of a single observation equals that
                // observation's bucket, never past the real maximum.
                return Some(match bucket_bound(i) {
                    Some(b) => (b - 1).min(self.max),
                    None => self.max,
                });
            }
        }
        Some(self.max)
    }

    /// p99 estimate (see [`Snapshot::quantile_us`]).
    pub fn p99_us(&self) -> Option<u64> {
        self.quantile_us(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every non-overflow bucket bound is consistent with the index map.
        for i in 0..BUCKETS - 1 {
            let bound = bucket_bound(i).unwrap();
            assert!(bucket_index(bound - 1) <= i);
            assert!(bucket_index(bound) > i);
        }
        assert_eq!(bucket_bound(BUCKETS - 1), None);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().mean_us(), None);
        assert_eq!(h.snapshot().min_us(), None);

        for v in [10, 20, 30, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1060);
        assert_eq!(s.min_us(), Some(10));
        assert_eq!(s.max_us(), Some(1000));
        assert_eq!(s.mean_us(), Some(265.0));
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);

        h.reset();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::new();
        // 99 fast observations and one slow outlier.
        for _ in 0..99 {
            h.record(5);
        }
        h.record(100_000);
        let s = h.snapshot();
        // p50 lands in the bucket containing 5 (bucket 3, bound 8).
        assert_eq!(s.quantile_us(0.5), Some(7));
        // p99 still lands among the fast observations (rank 99 of 100).
        assert_eq!(s.p99_us(), Some(7));
        // The true tail is visible through max.
        assert_eq!(s.max_us(), Some(100_000));
        // A higher quantile reaches the outlier bucket.
        assert_eq!(s.quantile_us(1.0), Some(100_000));
    }

    #[test]
    fn single_observation_quantile_never_exceeds_max() {
        let h = Histogram::new();
        h.record(33);
        let s = h.snapshot();
        assert_eq!(s.quantile_us(0.5), Some(33));
        assert_eq!(s.p99_us(), Some(33));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.min_us(), Some(0));
        assert_eq!(s.max_us(), Some(3999));
    }
}
