//! The CSV loader against an independent oracle, and the CSV and spec
//! loaders under hostile input.
//!
//! The oracle is the loader this crate shipped before it became one
//! streaming pass: `parse_records` builds every record as
//! `Vec<Vec<String>>` first, then each row is typed into `Value`s and
//! pushed through the public builder. It is kept verbatim except that a
//! field remembers whether it was quoted, for the `""` rule (a quoted
//! empty field is the empty string in a `str` column).
//!
//! Each loop runs at a tier-1 case count by default; an `#[ignore]`d copy
//! runs 20,000 cases (`cargo test --release -p kdap-warehouse --
//! --ignored`).

use proptest::prelude::*;

use kdap_warehouse::{
    export_table, load_csv_table, load_spec, Table, Value, ValueType, Warehouse, WarehouseBuilder,
    WarehouseError,
};

// ----------------------------------------------------------------- oracle

fn oracle_load_csv_table(
    b: &mut WarehouseBuilder,
    table: &str,
    csv: &str,
) -> Result<usize, WarehouseError> {
    let mut records = parse_records(csv)?;
    if records.is_empty() {
        return Err(WarehouseError::InvalidEdge(format!(
            "CSV for table {table} has no header"
        )));
    }
    let header = records.remove(0);
    let mut cols: Vec<(String, ValueType, bool)> = Vec::with_capacity(header.len());
    for (spec, _) in &header {
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
    b.table(table, &col_refs)?;

    let n = records.len();
    for (line, record) in records.into_iter().enumerate() {
        if record.len() != cols.len() {
            return Err(WarehouseError::ArityMismatch {
                table: format!("{table} (csv record {})", line + 2),
                expected: cols.len(),
                got: record.len(),
            });
        }
        let mut row = Vec::with_capacity(cols.len());
        for ((field, quoted), (name, ty, _)) in record.into_iter().zip(&cols) {
            let v = if field.is_empty() {
                if quoted && *ty == ValueType::Str {
                    Value::from("")
                } else {
                    Value::Null
                }
            } else {
                match ty {
                    ValueType::Int => Value::Int(field.trim().parse().map_err(|_| {
                        WarehouseError::TypeMismatch {
                            column: format!("{table}.{name}"),
                            expected: ValueType::Int,
                            got: Some(ValueType::Str),
                        }
                    })?),
                    ValueType::Float => Value::Float(field.trim().parse().map_err(|_| {
                        WarehouseError::TypeMismatch {
                            column: format!("{table}.{name}"),
                            expected: ValueType::Float,
                            got: Some(ValueType::Str),
                        }
                    })?),
                    ValueType::Str => Value::from(field),
                }
            };
            row.push(v);
        }
        b.row(table, row)?;
    }
    Ok(n)
}

/// RFC-4180-ish record parser (quoted fields, doubled quotes, embedded
/// commas/newlines). Returns one `Vec<(field, quoted)>` per record; blank
/// records are skipped.
#[allow(clippy::type_complexity)]
fn parse_records(csv: &str) -> Result<Vec<Vec<(String, bool)>>, WarehouseError> {
    let mut records = Vec::new();
    let mut record: Vec<(String, bool)> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = csv.chars().peekable();
    let mut any_field_content = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' => {
                in_quotes = true;
                quoted = true;
                any_field_content = true;
            }
            ',' => {
                record.push((std::mem::take(&mut field), std::mem::take(&mut quoted)));
                any_field_content = true;
            }
            '\r' => {}
            '\n' => {
                if any_field_content || !field.is_empty() {
                    record.push((std::mem::take(&mut field), std::mem::take(&mut quoted)));
                    records.push(std::mem::take(&mut record));
                }
                any_field_content = false;
            }
            _ => {
                field.push(c);
                any_field_content = true;
            }
        }
    }
    if in_quotes {
        return Err(WarehouseError::InvalidEdge(
            "unterminated quoted CSV field".into(),
        ));
    }
    if any_field_content || !field.is_empty() {
        record.push((field, quoted));
        records.push(record);
    }
    Ok(records)
}

// -------------------------------------------------------------- generator

/// A generated CSV file. When `tail` is set, the text from that byte on
/// is one record holding an unterminated quote.
#[derive(Debug, Clone)]
struct Case {
    text: String,
    tail: Option<usize>,
}

/// Structured CSV: a typed header, then records of fields drawn per
/// column type and written with every quoting style the format allows.
/// One case in four is dirty: bad header types, duplicate or empty column
/// names, short and long records, numbers that do not parse.
struct CsvCase;

const WORDS: &[&str] = &[
    "Columbus",
    "Zürich",
    "東京",
    "🚲 bike",
    "a,b",
    "say \"hi\"",
    "\"",
    "line\nbreak",
    "crlf\r\nline",
    " padded ",
    "tab\there",
    "",
    "x",
    "Mountain-200 Black, 42",
];
const INTS: &[&str] = &[
    "0",
    "-0",
    "+5",
    " 42 ",
    "\t7",
    "9223372036854775807",
    "-9223372036854775808",
    "",
];
const BAD_INTS: &[&str] = &["9223372036854775808", "1.5", "abc", "1e3", " "];
const FLOATS: &[&str] = &[
    "3", "-2.5", " 2.5 ", "1e3", "1e400", "nan", "inf", "-inf", "-0", ".5", "5.", "",
];
const BAD_FLOATS: &[&str] = &["x", "1,5", " ", "1e"];

fn pick<'s>(rng: &mut TestRng, from: &[&'s str]) -> &'s str {
    from[rng.below(from.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    rng.below(one_in) == 0
}

/// Writes `s` as one field in a randomly chosen quoting style. A style
/// that would leave a quote unbalanced or a metacharacter unquoted falls
/// back to quoting the whole field.
fn write_field(rng: &mut TestRng, s: &str, out: &mut String) {
    let plain = |t: &str| !t.contains([',', '"', '\n', '\r']);
    let escape = |t: &str| format!("\"{}\"", t.replace('"', "\"\""));
    let cut = s
        .char_indices()
        .map(|(i, _)| i)
        .nth(rng.below(s.chars().count() as u64 + 1) as usize)
        .unwrap_or(s.len());
    let (head, rest) = s.split_at(cut);
    match rng.below(5) {
        0 if plain(s) => out.push_str(s),
        // A quote mid-field opens a quoted run.
        1 if plain(head) => {
            out.push_str(head);
            out.push_str(&escape(rest));
        }
        // Text after the closing quote continues the field.
        2 if plain(rest) => {
            out.push_str(&escape(head));
            out.push_str(rest);
        }
        // A `\r` outside quotes is dropped wherever it appears.
        3 if plain(s) => {
            out.push_str(head);
            out.push('\r');
            out.push_str(rest);
        }
        _ => out.push_str(&escape(s)),
    }
}

impl Strategy for CsvCase {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let dirty = chance(rng, 4);
        let bad = |rng: &mut TestRng| dirty && chance(rng, 10);
        let ncols = 1 + rng.below(4) as usize;
        let types: Vec<&str> = (0..ncols)
            .map(|_| match rng.below(3) {
                _ if bad(rng) => "date",
                0 => "int",
                1 => "float",
                _ => "str",
            })
            .collect();
        let mut text = String::new();
        for (i, ty) in types.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let name = match i {
                _ if bad(rng) => String::new(),
                _ if bad(rng) => "C0".to_string(),
                _ => format!("C{i}"),
            };
            let suffix = if chance(rng, 2) { ":text" } else { "" };
            write_field(rng, &format!("{name}:{ty}{suffix}"), &mut text);
        }
        let eol = |rng: &mut TestRng| if chance(rng, 3) { "\r\n" } else { "\n" };
        text.push_str(eol(rng));

        for _ in 0..rng.below(10) {
            if chance(rng, 6) {
                text.push_str(pick(rng, &["\n", "\r\n", "\r\r\n"]));
            }
            let len = match ncols {
                _ if bad(rng) => ncols - 1,
                _ if bad(rng) => ncols + 1,
                _ => ncols,
            };
            for c in 0..len {
                if c > 0 {
                    text.push(',');
                }
                let value = match types.get(c).copied().unwrap_or("str") {
                    "int" if bad(rng) => pick(rng, BAD_INTS).to_string(),
                    "int" if chance(rng, 2) => (rng.next_u64() as i64 >> rng.below(64)).to_string(),
                    "int" => pick(rng, INTS).to_string(),
                    "float" if bad(rng) => pick(rng, BAD_FLOATS).to_string(),
                    "float" if chance(rng, 2) => (rng.unit_f64() * 1e6 - 5e5).to_string(),
                    "float" => pick(rng, FLOATS).to_string(),
                    _ => pick(rng, WORDS).to_string(),
                };
                if value.is_empty() && chance(rng, 2) {
                    continue; // an unquoted empty field
                }
                write_field(rng, &value, &mut text);
            }
            text.push_str(eol(rng));
        }
        if chance(rng, 3) {
            // A missing final newline.
            text.truncate(text.trim_end_matches(['\r', '\n']).len());
        }
        let tail = chance(rng, 8).then(|| {
            if !text.ends_with('\n') {
                text.push('\n');
            }
            let at = text.len();
            text.push_str(pick(rng, &["\"open", "1,\"a,b\nc", "x\"y\"\"z"]));
            at
        });
        Case { text, tail }
    }
}

/// Arbitrary text biased toward what the CSV and spec grammars react to.
struct Hostile;

const FRAGMENTS: &[&str] = &[
    "\"",
    "\"\"",
    ",",
    "\n",
    "\r",
    "\r\n",
    ":",
    " ",
    "\\\n",
    "#",
    "=",
    "*",
    ">",
    ".",
    "int",
    "float",
    "str",
    ":text",
    "A:int",
    "B:str",
    "1",
    "-1",
    "2.5",
    "9223372036854775808",
    "é",
    "東",
    "\u{0}",
    "table T t.csv\n",
    "table U u.csv\n",
    "fact T\n",
    "fact U\n",
    "edge T.A U.A",
    " role=R",
    " dim=D",
    "dimension D tables=U",
    " hierarchy=H:U.B>U.A",
    " groupby=U.B:cat,U.A:num",
    "measure M = T.A",
    " * T.A",
    "T.A",
    "U.B",
];

impl Strategy for Hostile {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut s = String::new();
        for _ in 0..rng.below(48) {
            if chance(rng, 8) {
                // Any Unicode scalar value, skipping the surrogate gap.
                let c = rng.below(0x10_FFFF - 0x800) as u32;
                let c = if c >= 0xD800 { c + 0x800 } else { c };
                s.push(char::from_u32(c).unwrap_or('?'));
            } else {
                s.push_str(pick(rng, FRAGMENTS));
            }
        }
        s
    }
}

// ----------------------------------------------------------- comparisons

/// Loads `csv` as the fact table `T` of a one-table warehouse.
fn load(
    loader: fn(&mut WarehouseBuilder, &str, &str) -> Result<usize, WarehouseError>,
    csv: &str,
) -> Result<(usize, Warehouse), WarehouseError> {
    let mut b = WarehouseBuilder::new();
    let n = loader(&mut b, "T", csv)?;
    b.fact("T")?;
    Ok((n, b.finish()?))
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Same columns, cells (floats by bits) and dictionary codes.
fn assert_same_table(got: &Table, want: &Table, context: &str) {
    assert_eq!(got.nrows(), want.nrows(), "{context}");
    assert_eq!(got.ncols(), want.ncols(), "{context}");
    for (g, w) in got.columns().iter().zip(want.columns()) {
        assert_eq!(g.name(), w.name(), "{context}");
        assert_eq!(g.value_type(), w.value_type(), "{context}");
        assert_eq!(g.is_searchable(), w.is_searchable(), "{context}");
        assert_eq!(g.len(), w.len(), "{context}");
        assert_eq!(
            g.dict().map(|d| d.len()),
            w.dict().map(|d| d.len()),
            "{context}"
        );
    }
    for r in 0..want.nrows() {
        let (g, w) = (got.row(r), want.row(r));
        assert!(
            g.iter().zip(&w).all(|(a, b)| same_value(a, b)),
            "{context}: row {r}: {g:?} != {w:?}"
        );
        for (c, col) in want.columns().iter().enumerate() {
            assert_eq!(
                got.column(c).get_code(r),
                col.get_code(r),
                "{context}: row {r} col {c}"
            );
        }
    }
    assert_eq!(got.heap_bytes(), want.heap_bytes(), "{context}");
}

/// The streaming loader gives the oracle's table, or the oracle's error.
/// The one allowed difference: errors come in file order, so when the
/// last record holds an unterminated quote, an earlier bad record is
/// reported instead of the quote.
fn check_against_oracle(case: &Case) {
    let context = format!("{:?}", case.text);
    let got = load(load_csv_table, &case.text);
    let mut want = load(oracle_load_csv_table, &case.text);
    if let (Some(at), Err(_)) = (case.tail, &want) {
        if let Err(earlier) = load(oracle_load_csv_table, &case.text[..at]) {
            want = Err(earlier);
        }
    }
    match (got, want) {
        (Ok((gn, g)), Ok((wn, w))) => {
            assert_eq!(gn, wn, "{context}");
            let id = w.table_id("T").unwrap();
            assert_same_table(g.table(id), w.table(id), &context);
            assert_eq!(g.approx_bytes(), w.approx_bytes(), "{context}");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{context}"),
        (g, w) => panic!(
            "{context}: loader {:?} vs oracle {:?}",
            g.map(|(n, _)| n),
            w.map(|(n, _)| n)
        ),
    }
}

/// Neither loader may panic on any text, whatever the resolver returns.
fn check_never_panics(csv: &str, spec: &str, files: &[String]) {
    let mut b = WarehouseBuilder::new();
    let _ = load_csv_table(&mut b, "T", csv);
    let _ = load_spec(spec, |name| {
        files
            .get(name.len() % files.len().max(1))
            .cloned()
            .ok_or_else(|| format!("no {name}"))
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn streaming_loader_matches_the_oracle(case in CsvCase) {
        check_against_oracle(&case);
    }

    #[test]
    fn hostile_text_never_panics_a_loader(
        csv in Hostile,
        spec in Hostile,
        files in collection::vec(Hostile, 0..3),
    ) {
        check_never_panics(&csv, &spec, &files);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn streaming_loader_matches_the_oracle_20k(case in CsvCase) {
        check_against_oracle(&case);
    }

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn hostile_text_never_panics_a_loader_20k(
        csv in Hostile,
        spec in Hostile,
        files in collection::vec(Hostile, 0..3),
    ) {
        check_never_panics(&csv, &spec, &files);
    }
}

#[test]
fn the_generator_reaches_every_shape() {
    // Guards the generator: each shape the differential loop claims to
    // cover turns up within the default case count, and most cases load,
    // so tables (not only errors) are compared.
    let (mut seen, mut loaded) = ([false; 8], 0);
    for case in 0..512 {
        let mut rng = TestRng::for_case("csv_oracle::shapes", case);
        let c = CsvCase.generate(&mut rng);
        let t = &c.text;
        seen[0] |= t.contains("\"\"\"");
        seen[1] |= t.contains("\r\n");
        seen[2] |= !t.ends_with('\n');
        seen[3] |= c.tail.is_some();
        seen[4] |= t.contains("\n\n") || t.contains("\n\r\n");
        seen[5] |= t.contains("9223372036854775808");
        seen[6] |= t.contains("\",\n") || t.contains("\",,");
        seen[7] |= t.contains("\",\"\"\n") || t.contains("\",\"\",");
        loaded += usize::from(load(load_csv_table, t).is_ok_and(|(n, _)| n > 0));
    }
    assert!(seen.iter().all(|&s| s), "{seen:?}");
    assert!(loaded > 256, "only {loaded} of 512 cases load");
}

/// A table of one column exports every row: a NULL number as `""`, which
/// loads back as NULL, not as a blank line the loader skips. A NULL in a
/// lone string column has no spelling and is refused by name.
#[test]
fn one_column_tables_export_every_null_or_refuse() {
    let cases = [
        (
            ValueType::Int,
            vec![Value::Null, Value::Int(-7), Value::Null],
        ),
        (ValueType::Float, vec![Value::Float(0.5), Value::Null]),
        (
            ValueType::Str,
            vec![Value::Str("".into()), Value::Str("a,b".into())],
        ),
        (ValueType::Str, vec![Value::Str("x".into()), Value::Null]),
    ];
    let fact = |wh: &Warehouse| wh.schema().fact_table();
    for (ty, values) in cases {
        let context = format!("{values:?}");
        let mut b = WarehouseBuilder::new();
        b.table("T", &[("V", ty, false)]).unwrap();
        b.rows("T", values.iter().map(|v| vec![v.clone()]).collect())
            .unwrap();
        b.fact("T").unwrap();
        let wh = b.finish().unwrap();
        match export_table(&wh, "T") {
            Ok(text) => {
                let (n, back) = load(load_csv_table, &text).unwrap();
                assert_eq!(n, values.len(), "{context}: {text:?}");
                assert_same_table(back.table(fact(&back)), wh.table(fact(&wh)), &context);
            }
            Err(e) => {
                assert!(
                    ty == ValueType::Str && values.contains(&Value::Null),
                    "{context}"
                );
                let want = WarehouseError::UnexportableNull {
                    column: "T.V".into(),
                    row: 1,
                };
                assert_eq!(e, want, "{context}");
            }
        }
    }
}
