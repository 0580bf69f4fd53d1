//! Key → row lookup over one integer key column: how a foreign-key edge
//! is validated ([`crate::WarehouseBuilder::finish`]) and resolved to row
//! ids (the query crate's join index). Built, used and dropped; nothing
//! keeps one.

use std::collections::HashMap;

use crate::column::Column;

/// Marks a slot of the dense array that no key occupies.
const ABSENT: u32 = u32::MAX;

/// The row of each non-null key of one integer column.
///
/// When the `n` non-null keys span at most `2·n + 64` values (the
/// surrogate keys of a star schema: dense, or nearly so), a lookup is one
/// array load at `key − min`. The array holds at most `8·n + 256` bytes,
/// below the ≥ 19 bytes per key a hash map takes once `n` passes about
/// two dozen. Any other key set is hashed.
#[derive(Debug, Clone)]
pub struct KeyRows {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// `rows[key − min]` is the row of `key`, [`ABSENT`] if none.
    Dense {
        min: i64,
        rows: Vec<u32>,
    },
    Hash(HashMap<i64, u32>),
}

impl KeyRows {
    /// Indexes the non-null keys of `col` (a non-integer column has
    /// none). A key on two rows is `Err`: the first key, in row order, that
    /// repeats one seen before.
    pub fn build(col: &Column) -> Result<Self, i64> {
        let (mut n, mut min, mut max) = (0usize, i64::MAX, i64::MIN);
        col.for_each_int(|_, key| {
            if let Some(key) = key {
                n += 1;
                min = min.min(key);
                max = max.max(key);
            }
        });
        // In i128: `max − min` of keys at both ends of i64 overflows i64.
        let span = i128::from(max) - i128::from(min) + 1;
        // The first key, in row order, that repeats one seen before.
        let mut repeat = None;
        let repr = if n == 0 {
            Repr::Dense {
                min: 0,
                rows: Vec::new(),
            }
        } else if span <= 2 * n as i128 + 64 {
            let mut rows = vec![ABSENT; span as usize];
            col.for_each_int(|row, key| {
                let Some(key) = key else { return };
                let slot = &mut rows[(key - min) as usize];
                if *slot == ABSENT {
                    *slot = row as u32;
                } else {
                    repeat = repeat.or(Some(key));
                }
            });
            Repr::Dense { min, rows }
        } else {
            let mut rows = HashMap::with_capacity(n);
            col.for_each_int(|row, key| {
                let Some(key) = key else { return };
                if rows.insert(key, row as u32).is_some() {
                    repeat = repeat.or(Some(key));
                }
            });
            Repr::Hash(rows)
        };
        match repeat {
            Some(key) => Err(key),
            None => Ok(KeyRows { repr }),
        }
    }

    /// The row holding `key`, if any.
    #[inline]
    pub fn get(&self, key: i64) -> Option<u32> {
        match &self.repr {
            Repr::Dense { min, rows } => {
                let at = usize::try_from(key.checked_sub(*min)?).ok()?;
                rows.get(at).copied().filter(|&row| row != ABSENT)
            }
            Repr::Hash(rows) => rows.get(&key).copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Value, ValueType};

    impl KeyRows {
        fn is_dense(&self) -> bool {
            matches!(self.repr, Repr::Dense { .. })
        }
    }

    fn column(keys: &[Option<i64>]) -> Column {
        let mut col = Column::new("Key", ValueType::Int, false);
        for key in keys {
            col.push(key.map_or(Value::Null, Value::Int)).unwrap();
        }
        col
    }

    fn some(keys: &[i64]) -> Vec<Option<i64>> {
        keys.iter().copied().map(Some).collect()
    }

    /// Every key finds its row, and the probes around them find nothing.
    fn assert_resolves(keys: &[Option<i64>]) -> KeyRows {
        let rows = KeyRows::build(&column(keys)).unwrap();
        for (row, key) in keys.iter().enumerate() {
            if let Some(k) = *key {
                assert_eq!(rows.get(k), Some(row as u32), "key {k}");
            }
        }
        for probe in [i64::MIN, -1, 0, 1, 1 << 40, i64::MAX] {
            if !keys.contains(&Some(probe)) {
                assert_eq!(rows.get(probe), None, "probe {probe}");
            }
        }
        rows
    }

    #[test]
    fn dense_exactly_up_to_two_n_plus_64() {
        // Two keys: dense while max − min + 1 ≤ 2·2 + 64 = 68.
        let at_bound = assert_resolves(&some(&[5, 5 + 67]));
        assert!(at_bound.is_dense());
        assert_eq!(at_bound.get(5 + 1), None, "a gap in the array");
        let past_bound = assert_resolves(&some(&[5, 5 + 68]));
        assert!(!past_bound.is_dense());
        // NULLs do not count towards n: with n = 3 this span would be dense.
        let keys = [Some(0), None, Some(68)];
        assert!(!assert_resolves(&keys).is_dense());
    }

    #[test]
    fn keys_at_both_ends_of_i64() {
        // The span overflows i64: hashed.
        let ends = assert_resolves(&some(&[i64::MAX, 0, i64::MIN]));
        assert!(!ends.is_dense());
        // Near either end alone: dense, and no probe wraps into range.
        let top = assert_resolves(&some(&[i64::MAX, i64::MAX - 2]));
        assert!(top.is_dense());
        assert_eq!(top.get(i64::MIN), None);
        let bottom = assert_resolves(&some(&[i64::MIN + 1, i64::MIN]));
        assert!(bottom.is_dense());
        assert_eq!(bottom.get(i64::MAX), None);
    }

    #[test]
    fn negative_and_null_keys() {
        assert!(assert_resolves(&[Some(-3), None, Some(-7), Some(0), None]).is_dense());
        assert!(!assert_resolves(&[Some(-1 << 40), None, Some(1 << 40)]).is_dense());
        let all_null = assert_resolves(&[None, None]);
        assert_eq!(all_null.get(0), None);
    }

    #[test]
    fn empty_and_non_integer_columns_hold_no_key() {
        let empty = assert_resolves(&[]);
        assert_eq!(empty.get(0), None);
        let mut names = Column::new("Name", ValueType::Str, true);
        names.push("a".into()).unwrap();
        assert_eq!(KeyRows::build(&names).unwrap().get(0), None);
    }

    #[test]
    fn first_repeated_key_in_row_order_is_the_error() {
        // Dense: 4 repeats before 2 does.
        let dense = some(&[1, 4, 2, 3, 4, 2]);
        assert_eq!(KeyRows::build(&column(&dense)).unwrap_err(), 4);
        // Hashed: the same order over keys 2⁴⁰ apart.
        let hashed: Vec<Option<i64>> = dense.iter().map(|k| k.map(|k| k << 40)).collect();
        assert_eq!(KeyRows::build(&column(&hashed)).unwrap_err(), 4 << 40);
        // NULLs repeat freely.
        assert!(KeyRows::build(&column(&[None, Some(1), None])).is_ok());
    }
}
