//! A Google-Trends-style query-log warehouse.
//!
//! The paper's related work (§2) notes that "Google Trends is the only
//! system that provides some rudimentary KDAP functionality … a
//! multi-faceted search interface over the query log, showing aggregated
//! search query volume for the typed keywords over time and location",
//! and argues general OLAP models need more: dynamic group-by selection
//! by interestingness. This generator produces that query log so the
//! `trends_demo` example can show KDAP subsuming the Trends experience —
//! the time and location facets appear as ordinary dimensions, plus
//! facets Google Trends never had.
//!
//! Seasonality is seeded so the interestingness machinery has signal:
//! each term carries a monthly profile ("sunscreen" peaks in summer,
//! "christmas gifts" in December, "world cup" in June/July).

use kdap_warehouse::{AttrKind, ValueType, Warehouse, WarehouseBuilder, WarehouseError};

use crate::rng::Sampler;
use crate::vocab;

/// Search terms with their category and a 12-month seasonality profile
/// (relative weights, January..December).
const TERMS: &[(&str, &str, [u32; 12])] = &[
    (
        "ipod nano",
        "Electronics",
        [8, 7, 6, 6, 6, 6, 6, 7, 8, 9, 12, 20],
    ),
    (
        "lcd tv",
        "Electronics",
        [9, 8, 7, 7, 7, 8, 8, 8, 9, 10, 14, 18],
    ),
    (
        "digital camera",
        "Electronics",
        [7, 6, 6, 7, 8, 10, 10, 9, 8, 8, 11, 16],
    ),
    (
        "laptop deals",
        "Electronics",
        [10, 8, 7, 7, 7, 8, 9, 14, 12, 9, 13, 15],
    ),
    (
        "sunscreen",
        "Health",
        [2, 2, 4, 7, 12, 18, 20, 16, 8, 3, 2, 2],
    ),
    (
        "flu shot",
        "Health",
        [8, 6, 4, 3, 2, 2, 2, 3, 10, 18, 16, 10],
    ),
    (
        "gym membership",
        "Health",
        [22, 14, 10, 8, 7, 6, 5, 5, 6, 6, 5, 6],
    ),
    (
        "world cup",
        "Sports",
        [3, 3, 4, 5, 8, 22, 24, 10, 5, 4, 4, 4],
    ),
    (
        "ski resort",
        "Sports",
        [18, 16, 10, 4, 2, 1, 1, 1, 2, 5, 12, 20],
    ),
    (
        "surfboard",
        "Sports",
        [4, 4, 6, 8, 12, 16, 18, 16, 10, 6, 4, 4],
    ),
    (
        "christmas gifts",
        "Shopping",
        [1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 16, 40],
    ),
    (
        "halloween costume",
        "Shopping",
        [1, 1, 1, 1, 1, 1, 2, 4, 12, 38, 3, 1],
    ),
    (
        "tax software",
        "Finance",
        [14, 18, 24, 20, 4, 2, 2, 2, 2, 3, 3, 4],
    ),
    (
        "mortgage rates",
        "Finance",
        [10, 10, 11, 11, 10, 9, 9, 9, 9, 9, 8, 8],
    ),
    (
        "columbus day sale",
        "Shopping",
        [1, 1, 1, 1, 1, 1, 1, 2, 6, 30, 4, 1],
    ),
];

/// Scale of the generated query log.
#[derive(Debug, Clone, Copy)]
pub struct TrendsScale {
    /// Fact rows (aggregated log entries).
    pub entries: usize,
    /// Number of calendar years covered.
    pub years: u32,
}

impl TrendsScale {
    /// Demo scale.
    pub fn full() -> Self {
        TrendsScale {
            entries: 40_000,
            years: 2,
        }
    }

    /// Fast test scale.
    pub fn small() -> Self {
        TrendsScale {
            entries: 2_000,
            years: 1,
        }
    }

    /// Multiplies the fact-row count by `factor` (clamped to 1..=200).
    /// The calendar span is left alone: a busier query log over the same
    /// years, like the other generators' sub-linear dimension growth.
    pub fn scaled(self, factor: usize) -> Self {
        TrendsScale {
            entries: self.entries * factor.clamp(1, 200),
            years: self.years,
        }
    }
}

/// Builds the query-log warehouse deterministically from `seed`.
pub fn build_trends(scale: TrendsScale, seed: u64) -> Result<Warehouse, WarehouseError> {
    let mut s = Sampler::new(seed);
    let mut b = WarehouseBuilder::new();

    b.table(
        "SEARCHTERM",
        &[
            ("TermKey", ValueType::Int, false),
            ("Term", ValueType::Str, true),
            ("Category", ValueType::Str, true),
        ],
    )?;
    for (i, (term, category, _)) in TERMS.iter().enumerate() {
        b.row(
            "SEARCHTERM",
            vec![(i as i64 + 1).into(), (*term).into(), (*category).into()],
        )?;
    }

    b.table(
        "GEO",
        &[
            ("GeoKey", ValueType::Int, false),
            ("City", ValueType::Str, true),
            ("State", ValueType::Str, true),
            ("Country", ValueType::Str, true),
        ],
    )?;
    let mut geo_key = 0i64;
    for (country, states) in vocab::GEOGRAPHY {
        for state in *states {
            let cities = vocab::CITIES
                .iter()
                .find(|(st, _)| st == state)
                .map(|(_, cs)| *cs)
                .unwrap_or(&[]);
            for city in cities {
                geo_key += 1;
                b.row(
                    "GEO",
                    vec![
                        geo_key.into(),
                        (*city).into(),
                        (*state).into(),
                        (*country).into(),
                    ],
                )?;
            }
        }
    }

    b.table(
        "MONTH",
        &[
            ("MonthKey", ValueType::Int, false),
            ("MonthName", ValueType::Str, true),
            ("Year", ValueType::Str, true),
        ],
    )?;
    let base_year = 2005i64;
    let n_months = scale.years as i64 * 12;
    for m in 0..n_months {
        b.row(
            "MONTH",
            vec![
                (m + 1).into(),
                vocab::MONTHS[(m % 12) as usize].into(),
                (base_year + m / 12).to_string().into(),
            ],
        )?;
    }

    b.table(
        "QUERYLOG",
        &[
            ("LogKey", ValueType::Int, false),
            ("TermKey", ValueType::Int, false),
            ("GeoKey", ValueType::Int, false),
            ("MonthKey", ValueType::Int, false),
            ("SearchCount", ValueType::Int, false),
        ],
    )?;
    for lk in 1..=scale.entries as i64 {
        let ti = s.index(TERMS.len());
        let (_, _, profile) = TERMS[ti];
        // Sample the month proportionally to the term's seasonality.
        let total: u32 = profile.iter().sum();
        let mut draw = s.int(0, total as i64 - 1) as u32;
        let mut month_of_year = 0usize;
        for (mi, &w) in profile.iter().enumerate() {
            if draw < w {
                month_of_year = mi;
                break;
            }
            draw -= w;
        }
        let year_offset = s.index(scale.years as usize) as i64;
        let month_key = year_offset * 12 + month_of_year as i64 + 1;
        let count = (s.skewed_index(500) + 1) as i64;
        b.row(
            "QUERYLOG",
            vec![
                lk.into(),
                (ti as i64 + 1).into(),
                s.int(1, geo_key).into(),
                month_key.into(),
                count.into(),
            ],
        )?;
    }

    b.edge(
        "QUERYLOG.TermKey",
        "SEARCHTERM.TermKey",
        None,
        Some("SearchTerm"),
    )?;
    b.edge("QUERYLOG.GeoKey", "GEO.GeoKey", None, Some("Location"))?;
    b.edge("QUERYLOG.MonthKey", "MONTH.MonthKey", None, Some("Time"))?;

    b.dimension(
        "SearchTerm",
        &["SEARCHTERM"],
        vec![("Terms", vec!["SEARCHTERM.Category", "SEARCHTERM.Term"])],
        vec![
            ("SEARCHTERM.Term", AttrKind::Categorical),
            ("SEARCHTERM.Category", AttrKind::Categorical),
        ],
    )?;
    b.dimension(
        "Location",
        &["GEO"],
        vec![("Geo", vec!["GEO.Country", "GEO.State", "GEO.City"])],
        vec![
            ("GEO.Country", AttrKind::Categorical),
            ("GEO.State", AttrKind::Categorical),
            ("GEO.City", AttrKind::Categorical),
        ],
    )?;
    b.dimension(
        "Time",
        &["MONTH"],
        vec![("Calendar", vec!["MONTH.Year", "MONTH.MonthName"])],
        vec![
            ("MONTH.MonthName", AttrKind::Categorical),
            ("MONTH.Year", AttrKind::Categorical),
        ],
    )?;
    b.fact("QUERYLOG")?;
    b.measure_column("SearchVolume", "QUERYLOG.SearchCount")?;
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_expected_shape() {
        let wh = build_trends(TrendsScale::small(), 3).unwrap();
        assert_eq!(wh.tables().len(), 4);
        assert_eq!(wh.schema().dimensions().len(), 3);
        assert_eq!(wh.fact_rows(), TrendsScale::small().entries);
        assert!(wh.schema().measure_by_name("SearchVolume").is_some());
    }

    #[test]
    fn seasonality_is_visible_in_the_data() {
        // "christmas gifts" searches should concentrate in December.
        let wh = build_trends(TrendsScale::small(), 3).unwrap();
        let log = wh.table(wh.table_id("QUERYLOG").unwrap());
        let month_tbl = wh.table(wh.table_id("MONTH").unwrap());
        let term_col = wh.column(wh.col_ref("QUERYLOG", "TermKey").unwrap());
        let month_col = wh.column(wh.col_ref("QUERYLOG", "MonthKey").unwrap());
        let christmas_key = TERMS
            .iter()
            .position(|(t, _, _)| *t == "christmas gifts")
            .unwrap() as i64
            + 1;
        let mut december = 0usize;
        let mut total = 0usize;
        for r in 0..log.nrows() {
            if term_col.get_int(r) == Some(christmas_key) {
                total += 1;
                let mk = month_col.get_int(r).unwrap() as usize - 1;
                let name = month_tbl.row(mk)[1].as_str().unwrap().to_string();
                if name == "December" {
                    december += 1;
                }
            }
        }
        assert!(total > 10, "term sampled often enough: {total}");
        assert!(
            december * 2 > total,
            "December holds the majority: {december}/{total}"
        );
    }

    #[test]
    fn deterministic() {
        let a = build_trends(TrendsScale::small(), 9).unwrap();
        let b = build_trends(TrendsScale::small(), 9).unwrap();
        let (ta, tb) = (
            a.table(a.table_id("QUERYLOG").unwrap()),
            b.table(b.table_id("QUERYLOG").unwrap()),
        );
        assert_eq!(ta.row(100), tb.row(100));
    }
}
