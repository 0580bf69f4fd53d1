//! Per-column statistics and the catalog summary behind `kdap stats`:
//! row/null counts, distinct counts, and min/max for numeric columns,
//! computed in one scan per column whenever [`summarize`] is called.

use crate::catalog::Warehouse;
use crate::column::{Column, ColumnData};

/// Summary statistics of one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Total rows stored (including NULLs).
    pub rows: usize,
    /// NULL rows.
    pub nulls: usize,
    /// Distinct non-null values (dictionary size for string columns).
    pub distinct: usize,
    /// Minimum value (numeric columns with at least one non-null row).
    pub min: Option<f64>,
    /// Maximum value (numeric columns with at least one non-null row).
    pub max: Option<f64>,
}

impl ColumnStats {
    /// Computes statistics over `col` in one scan.
    pub fn compute(col: &Column) -> Self {
        match col.data() {
            ColumnData::Str { dict, .. } => {
                let mut nulls = 0usize;
                // Word-at-a-time decode of the packed chunks.
                col.for_each_code(|_, c| nulls += usize::from(c.is_none()));
                ColumnStats {
                    rows: col.len(),
                    nulls,
                    // Sourced from the same accessor the dense/hash kernel
                    // cutoff uses, so the two can never disagree.
                    distinct: col.cardinality().unwrap_or(dict.len()),
                    min: None,
                    max: None,
                }
            }
            ColumnData::Int(values) => {
                let mut distinct = std::collections::HashSet::new();
                let (mut nulls, mut min, mut max) = (0usize, None::<f64>, None::<f64>);
                values.for_each(|_, v| match v {
                    Some(x) => {
                        distinct.insert(x);
                        let x = x as f64;
                        min = Some(min.map_or(x, |m: f64| m.min(x)));
                        max = Some(max.map_or(x, |m: f64| m.max(x)));
                    }
                    None => nulls += 1,
                });
                ColumnStats {
                    rows: values.len(),
                    nulls,
                    distinct: distinct.len(),
                    min,
                    max,
                }
            }
            ColumnData::Float(values) => {
                let mut distinct = std::collections::HashSet::new();
                let (mut nulls, mut min, mut max) = (0usize, None::<f64>, None::<f64>);
                for v in values.iter() {
                    match v {
                        Some(x) => {
                            distinct.insert(x.to_bits());
                            min = Some(min.map_or(x, |m: f64| m.min(x)));
                            max = Some(max.map_or(x, |m: f64| m.max(x)));
                        }
                        None => nulls += 1,
                    }
                }
                ColumnStats {
                    rows: values.len(),
                    nulls,
                    distinct: distinct.len(),
                    min,
                    max,
                }
            }
        }
    }
}

/// One column's line in a [`WarehouseSummary`].
#[derive(Debug, Clone)]
pub struct ColumnSummary {
    /// Column name (without the table prefix).
    pub name: String,
    /// Value type rendered as `str`/`int`/`float`.
    pub value_type: String,
    /// Distinct non-null values.
    pub distinct: usize,
    /// NULL rows.
    pub nulls: usize,
    /// True when the column is full-text searchable.
    pub searchable: bool,
    /// Minimum value, for numeric columns with data.
    pub min: Option<f64>,
    /// Maximum value, for numeric columns with data.
    pub max: Option<f64>,
    /// Heap bytes of the column's storage, from chunk metadata.
    pub heap_bytes: usize,
    /// Offset widths of an Int column's sealed chunks, in chunk order
    /// (empty for other columns): its encoding.
    pub chunk_bits: Vec<u8>,
}

/// One table's line in a [`WarehouseSummary`].
#[derive(Debug, Clone)]
pub struct TableSummary {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Compressed column-storage footprint in bytes, from chunk metadata.
    pub heap_bytes: usize,
    /// True when this is the fact table.
    pub fact: bool,
    /// Per-column summaries, in definition order.
    pub columns: Vec<ColumnSummary>,
}

/// Catalog-wide summary — row counts and per-column cardinalities — the
/// data behind the `kdap stats` console command.
#[derive(Debug, Clone)]
pub struct WarehouseSummary {
    /// Per-table summaries, in catalog order.
    pub tables: Vec<TableSummary>,
    /// Fact-table row count.
    pub fact_rows: usize,
    /// Rough in-memory footprint in bytes.
    pub approx_bytes: usize,
}

/// Computes a full catalog summary in one pass over every column.
pub fn summarize(wh: &Warehouse) -> WarehouseSummary {
    use crate::value::ValueType;
    let fact = wh.schema().fact_table();
    let tables = wh
        .tables()
        .iter()
        .enumerate()
        .map(|(ti, t)| TableSummary {
            name: t.name().to_string(),
            rows: t.nrows(),
            heap_bytes: t.heap_bytes(),
            fact: ti == fact.0 as usize,
            columns: t
                .columns()
                .iter()
                .map(|c| {
                    let s = ColumnStats::compute(c);
                    ColumnSummary {
                        name: c.name().to_string(),
                        value_type: match c.value_type() {
                            ValueType::Str => "str",
                            ValueType::Int => "int",
                            ValueType::Float => "float",
                        }
                        .to_string(),
                        distinct: s.distinct,
                        nulls: s.nulls,
                        searchable: c.is_searchable(),
                        min: s.min,
                        max: s.max,
                        heap_bytes: c.heap_bytes(),
                        chunk_bits: c.int_chunk_bits(),
                    }
                })
                .collect(),
        })
        .collect();
    WarehouseSummary {
        tables,
        fact_rows: wh.fact_rows(),
        approx_bytes: wh.approx_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Value, ValueType};

    fn str_column(values: &[Option<&str>]) -> Column {
        let mut c = Column::new("s", ValueType::Str, true);
        for v in values {
            match v {
                Some(s) => c.push(Value::from(*s)).unwrap(),
                None => c.push(Value::Null).unwrap(),
            }
        }
        c
    }

    #[test]
    fn string_stats_count_nulls_and_distinct_codes() {
        let c = str_column(&[Some("a"), Some("b"), Some("a"), None, Some("a")]);
        let s = ColumnStats::compute(&c);
        assert_eq!(s.rows, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.distinct, 2);
        assert_eq!((s.min, s.max), (None, None));
    }

    #[test]
    fn numeric_min_max_and_distinct() {
        let mut c = Column::new("x", ValueType::Float, false);
        for v in [Some(0.0), Some(10.0), Some(5.0), None] {
            match v {
                Some(x) => c.push(Value::Float(x)).unwrap(),
                None => c.push(Value::Null).unwrap(),
            }
        }
        let s = ColumnStats::compute(&c);
        assert_eq!(s.min, Some(0.0));
        assert_eq!(s.max, Some(10.0));
        assert_eq!(s.distinct, 3);
        assert_eq!(s.nulls, 1);
    }

    #[test]
    fn int_columns_widen_for_ranges() {
        let mut c = Column::new("n", ValueType::Int, false);
        for x in [1i64, 2, 3, 4] {
            c.push(Value::Int(x)).unwrap();
        }
        let s = ColumnStats::compute(&c);
        assert_eq!((s.min, s.max), (Some(1.0), Some(4.0)));
        assert_eq!(s.distinct, 4);
    }

    #[test]
    fn summarize_covers_every_table_and_column() {
        use crate::builder::WarehouseBuilder;
        let mut b = WarehouseBuilder::new();
        b.table(
            "F",
            &[
                ("Id", ValueType::Int, false),
                ("City", ValueType::Str, true),
                ("Price", ValueType::Float, false),
            ],
        )
        .unwrap();
        b.row("F", vec![1i64.into(), "Columbus".into(), 9.5.into()])
            .unwrap();
        b.row("F", vec![2i64.into(), "Seattle".into(), 1.5.into()])
            .unwrap();
        b.row("F", vec![3i64.into(), "Columbus".into(), 4.0.into()])
            .unwrap();
        b.fact("F").unwrap();
        let wh = b.finish().unwrap();
        let s = crate::stats::summarize(&wh);
        assert_eq!(s.fact_rows, 3);
        assert!(s.approx_bytes > 0);
        assert_eq!(s.tables.len(), 1);
        let t = &s.tables[0];
        assert!(t.fact);
        assert_eq!(t.rows, 3);
        assert_eq!(t.columns.len(), 3);
        let city = &t.columns[1];
        assert_eq!(city.name, "City");
        assert_eq!(city.value_type, "str");
        assert_eq!(city.distinct, 2);
        assert!(city.searchable);
        let price = &t.columns[2];
        assert_eq!(price.value_type, "float");
        assert_eq!((price.min, price.max), (Some(1.5), Some(9.5)));
        assert!(price.chunk_bits.is_empty());
        // Ids 1..=3 are offsets 0..=2 from base 1: one 2-bit chunk.
        let id = &t.columns[0];
        assert_eq!(id.chunk_bits, vec![2]);
        assert_eq!(
            id.heap_bytes,
            wh.table(wh.schema().fact_table()).column(0).heap_bytes()
        );
        assert_eq!(
            t.columns.iter().map(|c| c.heap_bytes).sum::<usize>(),
            t.heap_bytes
        );
    }
}
