//! Columnar storage with dictionary encoding for strings.
//!
//! Strings are dictionary-encoded: each column keeps a sorted-insertion
//! dictionary of distinct values plus a `u32` code per row. This serves two
//! purposes: (a) compact storage, and (b) the set of distinct attribute
//! values *is* the set of "virtual documents" that the KDAP text index
//! indexes (the paper indexes attribute instances, not tuples — §3).
//!
//! Physically, codes live in bit-packed fixed-size chunks
//! ([`crate::chunk::PackedCodes`]) and numeric columns in dense vectors
//! with lazy null bitmaps ([`crate::chunk::NullableVec`]). Everything
//! outside this module reads columns through the accessor API below —
//! `get`/`get_int`/`get_float`/`get_code`/`for_each_code` — never through
//! raw vectors.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::chunk::{NullableVec, PackedCodes};
use crate::error::WarehouseError;
use crate::value::{Value, ValueType};

/// A typed cell on its way into a column. Its string is borrowed and
/// interned from `&str`: no `Arc` for a value the dictionary holds.
pub(crate) enum Cell<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
}

impl<'a> From<&'a Value> for Cell<'a> {
    fn from(value: &'a Value) -> Self {
        match value {
            Value::Null => Cell::Null,
            Value::Int(x) => Cell::Int(*x),
            Value::Float(x) => Cell::Float(*x),
            Value::Str(s) => Cell::Str(Cow::Borrowed(s)),
        }
    }
}

/// Dictionary of distinct strings for one column.
#[derive(Debug, Default, Clone)]
pub struct StrDict {
    values: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

impl StrDict {
    /// Interns `s`, returning its stable code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = self.values.len() as u32;
        self.values.push(arc.clone());
        self.lookup.insert(arc, code);
        code
    }

    /// Looks up the code of a string without interning it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Returns the string for `code`.
    pub fn resolve(&self, code: u32) -> Option<&Arc<str>> {
        self.values.get(code as usize)
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dictionary holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Arc<str>)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v))
    }

    /// Approximate heap bytes: string payloads plus per-entry bookkeeping
    /// (one `Arc<str>` in the vector, one in the lookup map, a code).
    pub fn heap_bytes(&self) -> usize {
        let payload: usize = self.values.iter().map(|s| s.len()).sum();
        let entry = 2 * std::mem::size_of::<Arc<str>>() + std::mem::size_of::<u32>();
        payload + self.values.len() * entry
    }
}

/// The physical data of one column. External code should prefer the
/// [`Column`] accessors; the variants are exposed for type dispatch only.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Nullable 64-bit integers.
    Int(NullableVec<i64>),
    /// Nullable 64-bit floats.
    Float(NullableVec<f64>),
    /// Dictionary-encoded nullable strings.
    Str {
        /// Distinct values of the column.
        dict: StrDict,
        /// Per-row dictionary codes, bit-packed in chunks.
        codes: PackedCodes,
    },
}

/// One named, typed column of a table.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
    /// Whether the full-text index should index this column's distinct
    /// values as virtual documents. Only meaningful for `Str` columns.
    searchable: bool,
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(name: impl Into<String>, ty: ValueType, searchable: bool) -> Self {
        let data = match ty {
            ValueType::Int => ColumnData::Int(NullableVec::new()),
            ValueType::Float => ColumnData::Float(NullableVec::new()),
            ValueType::Str => ColumnData::Str {
                dict: StrDict::default(),
                codes: PackedCodes::new(),
            },
        };
        Column {
            name: name.into(),
            data,
            searchable,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn value_type(&self) -> ValueType {
        match &self.data {
            ColumnData::Int(_) => ValueType::Int,
            ColumnData::Float(_) => ValueType::Float,
            ColumnData::Str { .. } => ValueType::Str,
        }
    }

    /// Whether the column participates in full-text search.
    pub fn is_searchable(&self) -> bool {
        self.searchable && matches!(self.data, ColumnData::Str { .. })
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one value, checking the type.
    pub fn push(&mut self, value: Value) -> Result<(), WarehouseError> {
        self.push_cell(&Cell::from(&value))
    }

    /// Appends one typed cell, checking the type: the one append path.
    pub(crate) fn push_cell(&mut self, cell: &Cell<'_>) -> Result<(), WarehouseError> {
        match (&mut self.data, cell) {
            (ColumnData::Int(v), Cell::Int(x)) => v.push(Some(*x)),
            (ColumnData::Int(v), Cell::Null) => v.push(None),
            (ColumnData::Float(v), Cell::Float(x)) => v.push(Some(*x)),
            // Integers widen silently into float columns; measure data is
            // frequently generated as integers (quantities).
            (ColumnData::Float(v), Cell::Int(x)) => v.push(Some(*x as f64)),
            (ColumnData::Float(v), Cell::Null) => v.push(None),
            (ColumnData::Str { dict, codes }, Cell::Str(s)) => codes.push(Some(dict.intern(s))),
            (ColumnData::Str { codes, .. }, Cell::Null) => codes.push(None),
            // Every column takes NULL, so the cell has a type.
            (_, cell) => {
                return Err(WarehouseError::TypeMismatch {
                    column: self.name.clone(),
                    expected: self.value_type(),
                    got: Some(match cell {
                        Cell::Int(_) => ValueType::Int,
                        Cell::Float(_) => ValueType::Float,
                        _ => ValueType::Str,
                    }),
                })
            }
        }
        Ok(())
    }

    /// Seals partially-filled chunks and trims spare capacity. Called once
    /// when a warehouse build completes; reads work identically before
    /// and after.
    pub fn freeze(&mut self) {
        match &mut self.data {
            ColumnData::Int(v) => v.freeze(),
            ColumnData::Float(v) => v.freeze(),
            ColumnData::Str { codes, .. } => codes.freeze(),
        }
    }

    /// Returns the value at `row` (NULL when out of bounds is an error by
    /// contract; callers index within `0..len()`).
    pub fn get(&self, row: usize) -> Value {
        match &self.data {
            ColumnData::Int(v) => v.get(row).map(Value::Int).unwrap_or(Value::Null),
            ColumnData::Float(v) => v.get(row).map(Value::Float).unwrap_or(Value::Null),
            ColumnData::Str { dict, codes } => match codes.get(row) {
                // Infallible: stored codes are handed out by this column's
                // own dictionary during construction.
                #[allow(clippy::expect_used)]
                Some(c) => Value::Str(dict.resolve(c).expect("valid code").clone()),
                None => Value::Null,
            },
        }
    }

    /// Integer value at `row`, if the column is Int and non-null.
    pub fn get_int(&self, row: usize) -> Option<i64> {
        match &self.data {
            ColumnData::Int(v) => v.get(row),
            _ => None,
        }
    }

    /// Float value at `row` (Int columns widen), if non-null.
    pub fn get_float(&self, row: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Float(v) => v.get(row),
            ColumnData::Int(v) => v.get(row).map(|x| x as f64),
            _ => None,
        }
    }

    /// Dictionary code at `row` for string columns.
    pub fn get_code(&self, row: usize) -> Option<u32> {
        match &self.data {
            ColumnData::Str { codes, .. } => codes.get(row),
            _ => None,
        }
    }

    /// Visits `(row, code)` over the whole column in row order, decoding
    /// packed chunks one word at a time (several codes per word load).
    /// No-op for numeric columns.
    pub fn for_each_code<F: FnMut(usize, Option<u32>)>(&self, f: F) {
        if let ColumnData::Str { codes, .. } = &self.data {
            codes.for_each(0..codes.len(), f);
        }
    }

    /// Bulk-decodes a string column's codes into `out` (cleared first):
    /// one `u32` per row, NULL rows as [`crate::kernel::NULL_CODE`],
    /// decoded through the vectorized kernel. Returns `false`
    /// (leaving `out` empty) for numeric columns.
    pub fn unpack_codes_into(&self, out: &mut Vec<u32>) -> bool {
        match &self.data {
            ColumnData::Str { codes, .. } => {
                codes.unpack_all(out);
                true
            }
            _ => {
                out.clear();
                false
            }
        }
    }

    /// Bulk-decodes a numeric column into `out` (cleared first): one `f64`
    /// per row (Int columns widen, matching [`Column::get_float`]), NULL
    /// rows as NaN. Returns `false` (leaving `out` empty) for string
    /// columns. NaN is a faithful NULL stand-in for the aggregation
    /// kernels: stored NaN and NULL are both skipped by bucket and domain
    /// logic, exactly as with per-row `get_float`.
    pub fn unpack_floats_into(&self, out: &mut Vec<f64>) -> bool {
        out.clear();
        match &self.data {
            ColumnData::Float(v) => {
                out.extend_from_slice(v.values_slice());
            }
            ColumnData::Int(v) => {
                out.extend(v.values_slice().iter().map(|&x| x as f64));
            }
            ColumnData::Str { .. } => return false,
        }
        let nulls = match &self.data {
            ColumnData::Float(v) => v.null_bitmap(),
            ColumnData::Int(v) => v.null_bitmap(),
            ColumnData::Str { .. } => None,
        };
        if let Some(bitmap) = nulls {
            crate::kernel::for_each_null(bitmap, 0..out.len(), |i| out[i] = f64::NAN);
        }
        true
    }

    /// The string dictionary, for string columns.
    pub fn dict(&self) -> Option<&StrDict> {
        match &self.data {
            ColumnData::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }

    /// Distinct-code count of a dictionary-encoded column, `None` for
    /// numeric columns. This is the single source of truth for both the
    /// `distinct` count `summarize` reports and the dense/hash group-by
    /// kernel cutoff: dense accumulator arrays are sized by exactly this
    /// value.
    ///
    /// Sourced from the packed-chunk metadata (largest code ever stored);
    /// codes are handed out densely by this column's own dictionary, so
    /// `max_code + 1 == dict.len()` whenever any row is non-null.
    pub fn cardinality(&self) -> Option<usize> {
        match &self.data {
            ColumnData::Str { dict, codes } => Some(
                codes
                    .max_code()
                    .map_or_else(|| dict.len(), |m| m as usize + 1),
            ),
            _ => None,
        }
    }

    /// Heap bytes held by this column's physical storage (packed chunks,
    /// null bitmaps, dictionary), from the chunk metadata.
    pub fn heap_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.heap_bytes(),
            ColumnData::Float(v) => v.heap_bytes(),
            ColumnData::Str { dict, codes } => dict.heap_bytes() + codes.heap_bytes(),
        }
    }

    /// Raw access to the physical data (type dispatch only; row access
    /// goes through the accessors).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Scans for all row indices whose string code is in `codes`.
    ///
    /// `codes` should be small (it comes from a hit group); rows are
    /// scanned with the word-at-a-time decoder, which is the dominant
    /// cost either way.
    pub fn rows_with_codes(&self, wanted: &[u32]) -> Vec<usize> {
        let ColumnData::Str { codes, .. } = &self.data else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if wanted.is_empty() {
            return out;
        }
        if wanted.len() <= 4 {
            codes.for_each(0..codes.len(), |row, c| {
                if let Some(c) = c {
                    if wanted.contains(&c) {
                        out.push(row);
                    }
                }
            });
        } else {
            let set: std::collections::HashSet<u32> = wanted.iter().copied().collect();
            codes.for_each(0..codes.len(), |row, c| {
                if let Some(c) = c {
                    if set.contains(&c) {
                        out.push(row);
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::CHUNK_ROWS;

    #[test]
    fn dict_interning_is_stable() {
        let mut d = StrDict::default();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        let a2 = d.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a).unwrap().as_ref(), "alpha");
        assert_eq!(d.code_of("beta"), Some(b));
        assert_eq!(d.code_of("gamma"), None);
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::new("city", ValueType::Str, true);
        c.push(Value::from("Columbus")).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::from("Seattle")).unwrap();
        c.push(Value::from("Columbus")).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(0).as_str(), Some("Columbus"));
        assert!(c.get(1).is_null());
        assert_eq!(c.get_code(0), c.get_code(3));
        assert_eq!(c.dict().unwrap().len(), 2);
        assert_eq!(c.cardinality(), Some(2));
    }

    #[test]
    fn roundtrip_survives_freeze_and_chunk_seal() {
        let mut c = Column::new("city", ValueType::Str, true);
        let names = ["Columbus", "Seattle", "Berlin", "Osaka", "Quito"];
        let n = CHUNK_ROWS + 777;
        for i in 0..n {
            if i % 53 == 0 {
                c.push(Value::Null).unwrap();
            } else {
                c.push(Value::from(names[i % names.len()])).unwrap();
            }
        }
        c.freeze();
        assert_eq!(c.len(), n);
        assert_eq!(c.cardinality(), Some(5));
        for i in [0, 1, 52, 53, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1] {
            if i % 53 == 0 {
                assert!(c.get(i).is_null(), "row {i}");
            } else {
                assert_eq!(c.get(i).as_str(), Some(names[i % names.len()]), "row {i}");
            }
        }
        // Packed footprint beats the unpacked Vec<Option<u32>> layout.
        assert!(c.heap_bytes() < n * std::mem::size_of::<Option<u32>>());
    }

    #[test]
    fn for_each_code_matches_get_code() {
        let mut c = Column::new("s", ValueType::Str, true);
        for i in 0..1000usize {
            if i % 7 == 0 {
                c.push(Value::Null).unwrap();
            } else {
                c.push(Value::from(format!("v{}", i % 19).as_str()))
                    .unwrap();
            }
        }
        c.freeze();
        let mut scanned = Vec::new();
        c.for_each_code(|row, code| scanned.push((row, code)));
        assert_eq!(scanned.len(), 1000);
        for (row, code) in scanned {
            assert_eq!(code, c.get_code(row), "row {row}");
        }
    }

    #[test]
    fn unpack_codes_matches_get_code() {
        let mut c = Column::new("s", ValueType::Str, true);
        for i in 0..(CHUNK_ROWS + 100) {
            if i % 11 == 0 {
                c.push(Value::Null).unwrap();
            } else {
                c.push(Value::from(format!("v{}", i % 300).as_str()))
                    .unwrap();
            }
        }
        c.freeze();
        let mut codes = Vec::new();
        assert!(c.unpack_codes_into(&mut codes));
        assert_eq!(codes.len(), c.len());
        for (i, &got) in codes.iter().enumerate() {
            match c.get_code(i) {
                Some(code) => assert_eq!(got, code, "row {i}"),
                None => assert_eq!(got, crate::kernel::NULL_CODE, "row {i}"),
            }
        }
        let mut floats = Vec::new();
        assert!(!c.unpack_floats_into(&mut floats));
        assert!(floats.is_empty());
    }

    #[test]
    fn unpack_floats_matches_get_float() {
        let mut f = Column::new("price", ValueType::Float, false);
        let mut q = Column::new("qty", ValueType::Int, false);
        for i in 0..500i64 {
            if i % 9 == 0 {
                f.push(Value::Null).unwrap();
                q.push(Value::Null).unwrap();
            } else {
                f.push(Value::Float(i as f64 * 1.5)).unwrap();
                q.push(Value::Int(i)).unwrap();
            }
        }
        for c in [&f, &q] {
            let mut out = Vec::new();
            assert!(c.unpack_floats_into(&mut out));
            assert_eq!(out.len(), 500);
            for (i, &got) in out.iter().enumerate() {
                match c.get_float(i) {
                    Some(v) => assert_eq!(got.to_bits(), v.to_bits(), "row {i}"),
                    None => assert!(got.is_nan(), "row {i}"),
                }
            }
        }
        let mut codes = Vec::new();
        assert!(!f.unpack_codes_into(&mut codes));
    }

    #[test]
    fn cardinality_is_none_for_numeric_columns() {
        let mut c = Column::new("qty", ValueType::Int, false);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.cardinality(), None);
        let f = Column::new("price", ValueType::Float, false);
        assert_eq!(f.cardinality(), None);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut c = Column::new("qty", ValueType::Int, false);
        assert!(c.push(Value::from("oops")).is_err());
        assert!(c.push(Value::Int(3)).is_ok());
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new("price", ValueType::Float, false);
        c.push(Value::Int(3)).unwrap();
        c.push(Value::Float(1.5)).unwrap();
        assert_eq!(c.get_float(0), Some(3.0));
        assert_eq!(c.get_float(1), Some(1.5));
    }

    #[test]
    fn rows_with_codes_finds_matches() {
        let mut c = Column::new("name", ValueType::Str, true);
        for s in ["a", "b", "a", "c", "b", "a"] {
            c.push(Value::from(s)).unwrap();
        }
        let code_a = c.dict().unwrap().code_of("a").unwrap();
        let code_c = c.dict().unwrap().code_of("c").unwrap();
        assert_eq!(c.rows_with_codes(&[code_a]), vec![0, 2, 5]);
        assert_eq!(c.rows_with_codes(&[code_a, code_c]), vec![0, 2, 3, 5]);
        assert!(c.rows_with_codes(&[]).is_empty());
    }

    #[test]
    fn heap_bytes_counts_numeric_storage() {
        let mut c = Column::new("qty", ValueType::Int, false);
        for i in 0..100 {
            c.push(Value::Int(i)).unwrap();
        }
        c.freeze();
        // 8 bytes per row, no null bitmap: half the Vec<Option<i64>> cost.
        assert_eq!(c.heap_bytes(), 100 * 8);
    }

    #[test]
    fn searchable_only_applies_to_strings() {
        let c = Column::new("qty", ValueType::Int, true);
        assert!(!c.is_searchable());
        let c = Column::new("name", ValueType::Str, true);
        assert!(c.is_searchable());
        let c = Column::new("name", ValueType::Str, false);
        assert!(!c.is_searchable());
    }
}
