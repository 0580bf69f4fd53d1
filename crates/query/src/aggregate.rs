//! The vocabulary of group-by aggregation: aggregation functions, the
//! streaming per-group accumulator, and the partitioning of numerical
//! domains into *basic intervals* (§5.2.2).
//!
//! The one scan that feeds these is [`crate::multi_group_by_exec`]; the
//! row-at-a-time single-attribute kernels it is property-tested against
//! live in `tests/support/`.

/// Bitmap words per parallel aggregation chunk (8192 rows). Small enough
/// that even the 60k-fact synthetic warehouse splits into several chunks;
/// chunking depends only on the universe size, so chunked results are
/// identical for every thread count ≥ 2.
pub(crate) const AGG_CHUNK_WORDS: usize = 128;

/// Aggregation function over the measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the measure.
    Sum,
    /// Count of contributing fact points.
    Count,
    /// Arithmetic mean of the measure.
    Avg,
    /// Minimum measure value.
    Min,
    /// Maximum measure value.
    Max,
}

/// Streaming accumulator for one group.
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    /// Running sum.
    pub sum: f64,
    /// Number of values fed.
    pub count: u64,
    /// Smallest value seen (+∞ when empty).
    pub min: f64,
    /// Largest value seen (−∞ when empty).
    pub max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Accumulator {
    /// Feeds one measure value.
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another accumulator into this one. Parallel kernels build one
    /// accumulator per chunk and merge them in chunk order.
    pub fn merge(&mut self, other: &Accumulator) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Final aggregate under `func`.
    ///
    /// Empty groups follow SQL semantics: `SUM`/`COUNT` yield 0 (what the
    /// score formulas expect for missing segments), while `AVG`/`MIN`/`MAX`
    /// are undefined and yield NaN — surfacing 0.0 there would fabricate a
    /// measure value that never occurred. Callers that need to distinguish
    /// "no rows" explicitly should use [`Accumulator::finish_opt`].
    pub fn finish(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            _ if self.count == 0 => f64::NAN,
            AggFunc::Avg => self.sum / self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
        }
    }

    /// Like [`Accumulator::finish`], but reports an empty group as `None`
    /// for every function (including `SUM`/`COUNT`, whose 0 is otherwise
    /// indistinguishable from a real aggregate of 0).
    pub fn finish_opt(&self, func: AggFunc) -> Option<f64> {
        (self.count > 0).then(|| self.finish(func))
    }
}

/// Partitioning of a numerical domain into basic intervals.
#[derive(Debug, Clone, PartialEq)]
pub enum Bucketizer {
    /// `n` equal-width buckets over `[min, max]`.
    EqualWidth {
        /// Domain minimum (inclusive).
        min: f64,
        /// Domain maximum (inclusive).
        max: f64,
        /// Bucket count.
        n: usize,
    },
    /// One bucket per distinct value (the paper's *ground truth*
    /// partitioning in §6.4). Values must be sorted and deduplicated.
    Distinct {
        /// The sorted distinct values.
        values: Vec<f64>,
    },
}

impl Bucketizer {
    /// Equal-width bucketizer spanning the given values.
    pub fn equal_width(values: impl IntoIterator<Item = f64>, n: usize) -> Option<Self> {
        assert!(n > 0, "bucket count must be positive");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for v in values {
            if v.is_finite() {
                any = true;
                min = min.min(v);
                max = max.max(v);
            }
        }
        any.then_some(Bucketizer::EqualWidth { min, max, n })
    }

    /// One-bucket-per-distinct-value partitioning.
    pub fn per_distinct(values: impl IntoIterator<Item = f64>) -> Option<Self> {
        // Normalize -0.0 to 0.0 so total_cmp ordering matches value
        // equality for every finite input.
        let mut vals: Vec<f64> = values
            .into_iter()
            .filter(|v| v.is_finite())
            .map(|v| if v == 0.0 { 0.0 } else { v })
            .collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(f64::total_cmp);
        vals.dedup();
        Some(Bucketizer::Distinct { values: vals })
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        match self {
            Bucketizer::EqualWidth { n, .. } => *n,
            Bucketizer::Distinct { values } => values.len(),
        }
    }

    /// The bucket of a value, or `None` when it falls outside the domain.
    pub fn bucket_of(&self, v: f64) -> Option<usize> {
        if !v.is_finite() {
            return None;
        }
        match self {
            Bucketizer::EqualWidth { min, max, n } => {
                if v < *min || v > *max {
                    return None;
                }
                if max == min {
                    return Some(0);
                }
                let frac = (v - min) / (max - min);
                Some(((frac * *n as f64) as usize).min(n - 1))
            }
            Bucketizer::Distinct { values } => {
                let v = if v == 0.0 { 0.0 } else { v };
                values.binary_search_by(|x| x.total_cmp(&v)).ok()
            }
        }
    }

    /// Human-readable bounds of bucket `i` (used to render numerical facet
    /// entries like `323 – 470`).
    pub fn bounds(&self, i: usize) -> (f64, f64) {
        match self {
            Bucketizer::EqualWidth { min, max, n } => {
                let width = (max - min) / *n as f64;
                (min + width * i as f64, min + width * (i + 1) as f64)
            }
            Bucketizer::Distinct { values } => (values[i], values[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_opt_flags_empty_groups() {
        let empty = Accumulator::default();
        assert_eq!(empty.finish_opt(AggFunc::Sum), None);
        assert_eq!(empty.finish_opt(AggFunc::Min), None);
        let mut acc = Accumulator::default();
        acc.add(3.0);
        acc.add(5.0);
        assert_eq!(acc.finish_opt(AggFunc::Sum), Some(8.0));
        assert_eq!(acc.finish_opt(AggFunc::Min), Some(3.0));
        assert_eq!(acc.finish_opt(AggFunc::Max), Some(5.0));
        assert_eq!(acc.finish_opt(AggFunc::Avg), Some(4.0));
        assert_eq!(acc.finish_opt(AggFunc::Count), Some(2.0));
    }

    #[test]
    fn per_distinct_bucketizer_is_exact() {
        let b = Bucketizer::per_distinct([3.0, 1.0, 2.0, 1.0]).unwrap();
        assert_eq!(b.n_buckets(), 3);
        assert_eq!(b.bucket_of(1.0), Some(0));
        assert_eq!(b.bucket_of(3.0), Some(2));
        assert_eq!(b.bucket_of(1.5), None);
        assert_eq!(b.bounds(1), (2.0, 2.0));
    }

    #[test]
    fn equal_width_bucket_edges() {
        let b = Bucketizer::equal_width([0.0, 10.0], 5).unwrap();
        assert_eq!(b.bucket_of(0.0), Some(0));
        assert_eq!(b.bucket_of(10.0), Some(4), "max value lands in last bucket");
        assert_eq!(b.bucket_of(-0.1), None);
        assert_eq!(b.bucket_of(10.1), None);
        assert_eq!(b.bounds(0), (0.0, 2.0));
    }

    #[test]
    fn degenerate_single_value_domain() {
        let b = Bucketizer::equal_width([5.0, 5.0], 3).unwrap();
        assert_eq!(b.bucket_of(5.0), Some(0));
        assert!(Bucketizer::equal_width(std::iter::empty(), 3).is_none());
        assert!(Bucketizer::per_distinct(std::iter::empty()).is_none());
    }
}
