//! CSV ingestion: load tables into a [`crate::WarehouseBuilder`] from
//! typed CSV text, so downstream users can point KDAP at their own data
//! without writing row-building code.
//!
//! The header declares column types inline:
//!
//! ```csv
//! ProductKey:int,Name:str:text,Price:float
//! 1,"Mountain-200 Black, 42",2319.99
//! 2,Road-650,699.10
//! ```
//!
//! * types: `int`, `float`, `str`; numbers are trimmed, strings are not
//! * the `:text` suffix marks a string column as full-text searchable
//! * RFC-4180-style quoting (doubled embedded quotes; commas and newlines
//!   inside quotes); a quote anywhere opens a quoted run, and a `\r`
//!   outside quotes is dropped
//! * as in PostgreSQL's `COPY … CSV`, an unquoted empty field is NULL and
//!   `""` is the empty string (NULL in a numeric column)
//!
//! One pass: fields are slices of the input (copied only to drop a `\r`
//! or a doubled quote), typed in place and appended a row at a time, so
//! errors come in file order — an unterminated quote in the last record
//! loses to an earlier bad record.

use std::borrow::Cow;

use crate::builder::WarehouseBuilder;
use crate::column::Cell;
use crate::error::WarehouseError;
use crate::value::{Value, ValueType};

/// Parses the typed header and rows of `csv` and loads them as `table`.
pub fn load_csv_table(
    b: &mut WarehouseBuilder,
    table: &str,
    csv: &str,
) -> Result<usize, WarehouseError> {
    let (mut pos, mut fields) = (0, Vec::new());
    if !next_record(csv, &mut pos, &mut fields)? {
        return Err(WarehouseError::InvalidEdge(format!(
            "CSV for table {table} has no header"
        )));
    }
    let mut cols: Vec<(String, ValueType, bool)> = Vec::with_capacity(fields.len());
    for (spec, _) in &fields {
        let mut parts = spec.split(':');
        let name = parts.next().unwrap_or("").trim();
        let ty = parts.next().unwrap_or("").trim();
        let text = parts.next().map(str::trim) == Some("text");
        if name.is_empty() {
            return Err(WarehouseError::InvalidEdge(format!(
                "empty column name in CSV header of {table}"
            )));
        }
        let ty = match ty {
            "int" => ValueType::Int,
            "float" => ValueType::Float,
            "str" => ValueType::Str,
            other => {
                return Err(WarehouseError::InvalidEdge(format!(
                    "column {table}.{name}: unknown type `{other}` (use int|float|str)"
                )))
            }
        };
        cols.push((name.to_string(), ty, text));
    }
    let col_refs: Vec<(&str, ValueType, bool)> =
        cols.iter().map(|(n, t, s)| (n.as_str(), *t, *s)).collect();
    let t = b.table(table, &col_refs)?.table_mut(table)?;

    // Records count from the header (record 1), skipping blank ones.
    let (mut n, mut row) = (0, Vec::with_capacity(cols.len()));
    while next_record(csv, &mut pos, &mut fields)? {
        n += 1;
        if fields.len() != cols.len() {
            return Err(WarehouseError::ArityMismatch {
                table: format!("{table} (csv record {})", n + 1),
                expected: cols.len(),
                got: fields.len(),
            });
        }
        row.clear();
        for ((text, quoted), (name, ty, _)) in fields.drain(..).zip(&cols) {
            row.push(
                cell(text, quoted, *ty).ok_or_else(|| WarehouseError::TypeMismatch {
                    column: format!("{table}.{name}"),
                    expected: *ty,
                    got: Some(ValueType::Str),
                })?,
            );
        }
        // Typed in full before any column is touched: no partial row.
        t.push_cells(row.drain(..))?;
    }
    Ok(n)
}

/// A field typed for a `ty` column; `None` when a number does not parse.
fn cell(text: Cow<'_, str>, quoted: bool, ty: ValueType) -> Option<Cell<'_>> {
    Some(match ty {
        _ if text.is_empty() && !(quoted && ty == ValueType::Str) => Cell::Null,
        ValueType::Int => Cell::Int(text.trim().parse().ok()?),
        ValueType::Float => Cell::Float(text.trim().parse().ok()?),
        ValueType::Str => Cell::Str(text),
    })
}

/// Scans the record at `*pos` into `out` as `(text, quoted)` fields,
/// skipping blank records; `false` at the end of the input. It stops only
/// at ASCII bytes, so each slice it takes lies on `char` boundaries.
fn next_record<'a>(
    csv: &'a str,
    pos: &mut usize,
    out: &mut Vec<(Cow<'a, str>, bool)>,
) -> Result<bool, WarehouseError> {
    let bytes = csv.as_bytes();
    out.clear();
    let (mut text, mut quoted) = (Cow::Borrowed(""), false);
    // A record is blank until it has a character, a comma or a quote.
    let mut any = false;
    loop {
        let start = *pos;
        let end = find(bytes, start, |b| matches!(b, b'"' | b',' | b'\r' | b'\n'));
        append(&mut text, &csv[start..end]);
        any |= end > start;
        *pos = (end + 1).min(bytes.len());
        match bytes.get(end) {
            // A quoted run, up to its closing quote; `""` is one quote.
            Some(b'"') => loop {
                (quoted, any) = (true, true);
                let (start, quote) = (*pos, find(bytes, *pos, |b| b == b'"'));
                if quote == bytes.len() {
                    let msg = "unterminated quoted CSV field";
                    return Err(WarehouseError::InvalidEdge(msg.into()));
                }
                let doubled = usize::from(bytes.get(quote + 1) == Some(&b'"'));
                append(&mut text, &csv[start..quote + doubled]);
                *pos = quote + 1 + doubled;
                if doubled == 0 {
                    break;
                }
            },
            Some(b',') => {
                out.push((std::mem::take(&mut text), std::mem::take(&mut quoted)));
                any = true;
            }
            Some(b'\n') | None if any => {
                out.push((text, quoted));
                return Ok(true);
            }
            None => return Ok(false),
            _ => {} // a `\r`, or the end of a blank record
        }
    }
}

/// The first index from `start` on whose byte `stop` accepts, or the end.
fn find(bytes: &[u8], start: usize, stop: impl Fn(u8) -> bool) -> usize {
    let found = bytes[start..].iter().position(|&b| stop(b));
    found.map_or(bytes.len(), |i| start + i)
}

/// Appends `piece`; the field stays borrowed until a second piece arrives.
fn append<'a>(text: &mut Cow<'a, str>, piece: &'a str) {
    if text.is_empty() {
        *text = Cow::Borrowed(piece);
    } else if !piece.is_empty() {
        text.to_mut().push_str(piece);
    }
}

/// Exports a table back to the typed CSV format [`load_csv_table`]
/// understands, so warehouses round-trip through text. A NULL is an empty
/// field, except where that would make a blank line, which the loader
/// skips: in a one-column table a NULL number is written `""`, and a NULL
/// string has no spelling and is a [`WarehouseError::UnexportableNull`].
pub fn export_table(wh: &crate::catalog::Warehouse, table: &str) -> Result<String, WarehouseError> {
    let tid = wh.table_id(table)?;
    let t = wh.table(tid);
    let mut out = String::new();
    for (i, col) in t.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(col.name());
        out.push(':');
        out.push_str(match col.value_type() {
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "str",
        });
        if col.is_searchable() {
            out.push_str(":text");
        }
    }
    out.push('\n');
    for row in 0..t.nrows() {
        for (i, col) in t.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match col.get(row) {
                Value::Null if t.ncols() > 1 => {}
                Value::Null if col.value_type() != ValueType::Str => out.push_str("\"\""),
                Value::Null => {
                    return Err(WarehouseError::UnexportableNull {
                        column: format!("{table}.{}", col.name()),
                        row,
                    })
                }
                Value::Int(v) => out.push_str(&v.to_string()),
                Value::Float(v) => out.push_str(&v.to_string()),
                Value::Str(s) => out.push_str(&quote_field(&s)),
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Quotes a field when it is empty (an unquoted empty field is NULL) or
/// contains CSV metacharacters.
fn quote_field(s: &str) -> String {
    if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_load_roundtrip() {
        let mut b = WarehouseBuilder::new();
        let n = load_csv_table(
            &mut b,
            "P",
            "PKey:int,Name:str:text,Price:float\n1,Widget,9.5\n2,Gadget,3.25\n",
        )
        .unwrap();
        assert_eq!(n, 2);
        b.fact("P").unwrap();
        let wh = b.finish().unwrap();
        let t = wh.table(wh.table_id("P").unwrap());
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.row(0)[1].as_str(), Some("Widget"));
        assert_eq!(t.row(1)[2].as_float(), Some(3.25));
        assert!(t.column_by_name("Name").unwrap().is_searchable());
        assert!(!t.column_by_name("PKey").unwrap().is_searchable());
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let mut b = WarehouseBuilder::new();
        load_csv_table(
            &mut b,
            "P",
            "Id:int,Name:str:text\n1,\"Mountain-200 Black, 42\"\n2,\"He said \"\"hi\"\"\"\n",
        )
        .unwrap();
        b.fact("P").unwrap();
        let wh = b.finish().unwrap();
        let t = wh.table(wh.table_id("P").unwrap());
        assert_eq!(t.row(0)[1].as_str(), Some("Mountain-200 Black, 42"));
        assert_eq!(t.row(1)[1].as_str(), Some("He said \"hi\""));
    }

    #[test]
    fn empty_fields_become_null() {
        let mut b = WarehouseBuilder::new();
        load_csv_table(&mut b, "T", "A:int,B:str\n1,\n,x\n").unwrap();
        b.fact("T").unwrap();
        let wh = b.finish().unwrap();
        let t = wh.table(wh.table_id("T").unwrap());
        assert!(t.row(0)[1].is_null());
        assert!(t.row(1)[0].is_null());
    }

    #[test]
    fn quoted_empty_is_the_empty_string_in_str_columns_only() {
        let mut b = WarehouseBuilder::new();
        load_csv_table(&mut b, "T", "A:str,B:int,C:float\n\"\",\"\",\"\"\n,1,2\n").unwrap();
        b.fact("T").unwrap();
        let wh = b.finish().unwrap();
        let t = wh.table(wh.table_id("T").unwrap());
        assert_eq!(t.row(0)[0].as_str(), Some(""));
        assert!(t.row(0)[1].is_null());
        assert!(t.row(0)[2].is_null());
        assert!(t.row(1)[0].is_null());

        // The empty string survives a save and load, and keeps its code.
        let csv = export_table(&wh, "T").unwrap();
        assert!(csv.contains("\n\"\",,\n"), "{csv}");
        let mut b2 = WarehouseBuilder::new();
        load_csv_table(&mut b2, "T", &csv).unwrap();
        b2.fact("T").unwrap();
        let wh2 = b2.finish().unwrap();
        let t2 = wh2.table(wh2.table_id("T").unwrap());
        for r in 0..t.nrows() {
            assert_eq!(t2.row(r), t.row(r), "row {r}");
            assert_eq!(t2.column(0).get_code(r), t.column(0).get_code(r), "row {r}");
        }
        assert_eq!(wh2.approx_bytes(), wh.approx_bytes());
    }

    #[test]
    fn errors_are_reported_in_file_order() {
        // A bad record before an unterminated quote wins over the quote.
        let mut b = WarehouseBuilder::new();
        let err = load_csv_table(&mut b, "T", "A:int\nx\n\"open\n").unwrap_err();
        assert!(matches!(err, WarehouseError::TypeMismatch { .. }), "{err}");
        // Within a record, the arity comes before the cells.
        let mut b = WarehouseBuilder::new();
        let err = load_csv_table(&mut b, "T", "A:int,B:int\n1,2\nx\n").unwrap_err();
        assert!(err.to_string().contains("(csv record 3)"), "{err}");
        // A bad cell leaves no partial row behind.
        let mut b = WarehouseBuilder::new();
        assert!(load_csv_table(&mut b, "T", "A:str,B:int\n\n\na,1\nb,x\n").is_err());
        b.fact("T").unwrap();
        let wh = b.finish().unwrap();
        let t = wh.table(wh.table_id("T").unwrap());
        assert_eq!((t.nrows(), t.column(0).len(), t.column(1).len()), (1, 1, 1));
    }

    #[test]
    fn bad_type_and_bad_value_rejected() {
        let mut b = WarehouseBuilder::new();
        assert!(load_csv_table(&mut b, "T", "A:datetime\n1\n").is_err());
        let mut b = WarehouseBuilder::new();
        assert!(load_csv_table(&mut b, "T", "A:int\nnot_a_number\n").is_err());
    }

    #[test]
    fn arity_mismatch_reports_record() {
        let mut b = WarehouseBuilder::new();
        let err = load_csv_table(&mut b, "T", "A:int,B:int\n1,2\n3\n").unwrap_err();
        assert!(matches!(err, WarehouseError::ArityMismatch { .. }));
        assert!(err.to_string().contains("record 3"));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let mut b = WarehouseBuilder::new();
        assert!(load_csv_table(&mut b, "T", "A:str\n\"oops\n").is_err());
    }

    #[test]
    fn crlf_and_trailing_newlines_handled() {
        let mut b = WarehouseBuilder::new();
        let n = load_csv_table(&mut b, "T", "A:int\r\n1\r\n2\r\n\r\n").unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut b = WarehouseBuilder::new();
        load_csv_table(
            &mut b,
            "P",
            "Id:int,Name:str:text,Price:float\n1,\"Quoted, name\",9.5\n2,,\n",
        )
        .unwrap();
        b.fact("P").unwrap();
        let wh = b.finish().unwrap();
        let csv = export_table(&wh, "P").unwrap();
        assert!(csv.starts_with("Id:int,Name:str:text,Price:float\n"));
        // Load the export again and compare every cell.
        let mut b2 = WarehouseBuilder::new();
        load_csv_table(&mut b2, "P", &csv).unwrap();
        b2.fact("P").unwrap();
        let wh2 = b2.finish().unwrap();
        let (t1, t2) = (
            wh.table(wh.table_id("P").unwrap()),
            wh2.table(wh2.table_id("P").unwrap()),
        );
        assert_eq!(t1.nrows(), t2.nrows());
        for r in 0..t1.nrows() {
            assert_eq!(t1.row(r), t2.row(r), "row {r}");
        }
        assert!(export_table(&wh, "NOPE").is_err());
    }

    #[test]
    fn whole_warehouse_from_csv() {
        let mut b = WarehouseBuilder::new();
        load_csv_table(
            &mut b,
            "SALES",
            "Id:int,PKey:int,Qty:int,Price:float\n1,1,2,10\n2,2,1,5\n",
        )
        .unwrap();
        load_csv_table(&mut b, "PRODUCT", "PKey:int,Name:str:text\n1,TV\n2,Radio\n").unwrap();
        b.edge("SALES.PKey", "PRODUCT.PKey", None, Some("Product"))
            .unwrap();
        b.dimension("Product", &["PRODUCT"], vec![], vec![])
            .unwrap();
        b.fact("SALES").unwrap();
        b.measure_product("Rev", "SALES.Price", "SALES.Qty")
            .unwrap();
        let wh = b.finish().unwrap();
        assert_eq!(wh.fact_rows(), 2);
    }
}
