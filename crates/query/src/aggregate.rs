//! The vocabulary of group-by aggregation: aggregation functions, the
//! fold a scan keeps per group to answer one of them, and the
//! partitioning of numerical domains into *basic intervals* (§5.2.2).
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

impl AggFunc {
    /// The fold a scan must run for its groups to answer this function:
    /// SUM, AVG and COUNT read the running sum (COUNT only the count,
    /// which every fold keeps), MIN and MAX their own extremum.
    pub fn fold(self) -> Fold {
        match self {
            AggFunc::Sum | AggFunc::Count | AggFunc::Avg => Fold::Sum,
            AggFunc::Min => Fold::Min,
            AggFunc::Max => Fold::Max,
        }
    }
}

/// The one running value a group-by scan keeps per group. A scan folds
/// only what its answer reads: a group's finished aggregate under any
/// [`AggFunc`] whose [`AggFunc::fold`] is this fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fold {
    /// `+`, from 0.
    Sum,
    /// `min`, from +∞.
    Min,
    /// `max`, from −∞.
    Max,
}

impl Fold {
    /// The value of a group that has folded nothing.
    pub(crate) fn identity(self) -> f64 {
        match self {
            Fold::Sum => 0.0,
            Fold::Min => f64::INFINITY,
            Fold::Max => f64::NEG_INFINITY,
        }
    }

    /// `acc` with `v` folded in (a measure value, or another partial's
    /// value when partials merge).
    #[inline]
    pub fn apply(self, acc: f64, v: f64) -> f64 {
        match self {
            Fold::Sum => acc + v,
            Fold::Min => acc.min(v),
            Fold::Max => acc.max(v),
        }
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

    /// The closed value range the buckets span (empty, +∞ to −∞, for a
    /// per-distinct bucketizer of no values).
    pub fn span(&self) -> (f64, f64) {
        match self {
            Bucketizer::EqualWidth { min, max, .. } => (*min, *max),
            Bucketizer::Distinct { values } => (
                values.first().copied().unwrap_or(f64::INFINITY),
                values.last().copied().unwrap_or(f64::NEG_INFINITY),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
