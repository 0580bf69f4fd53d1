//! # kdap-bench
//!
//! Shared machinery for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (§6). See DESIGN.md for the
//! experiment ↔ binary map and EXPERIMENTS.md for recorded outputs.

#![forbid(unsafe_code)]

pub mod anneal;

use kdap_core::{Kdap, QueryRequest, RankedStarNet, StarNet, Verb};
use kdap_datagen::LabeledQuery;
use kdap_obs::{JsonWriter, Layout};
use kdap_query::{
    multi_group_by_exec, paths_between, AggFunc, Bucketizer, ExecConfig, FacetSpec, JoinIndex,
    JoinPath, MeasureVector, RowSet, Selection, DENSE_GROUP_LIMIT, MAX_PATH_LEN,
};
use kdap_warehouse::{ColRef, Measure, Warehouse};

/// The ranked interpretations of `keywords`: [`Kdap::run`] with
/// `differentiate`. Panics on a typed error, which no experiment's
/// keywords should cause.
pub fn differentiate(kdap: &Kdap, keywords: &str) -> Vec<RankedStarNet> {
    kdap.run(&QueryRequest::new(Verb::Differentiate, keywords))
        .unwrap_or_else(|err| panic!("`{keywords}` differentiates: {err}"))
        .ranked
}

/// Does a star net match a labeled query's intended interpretation?
///
/// It must constrain exactly the intended attribute domains (no more, no
/// fewer), each hit group must contain the intended instance, and — when
/// the ground truth pins a dimension — the join path must enter it.
pub fn matches_intended(wh: &Warehouse, net: &StarNet, q: &LabeledQuery) -> bool {
    if net.constraints.len() != q.intended.len() {
        return false;
    }
    let schema = wh.schema();
    q.intended.iter().all(|want| {
        net.constraints.iter().any(|c| {
            if c.group.attr != want.attr {
                return false;
            }
            if !c.group.hits.iter().any(|h| h.value.as_ref() == want.value) {
                return false;
            }
            match (&want.dimension, c.path.dimension(schema)) {
                (Some(dname), Some(did)) => schema.dimension(did).name == *dname,
                (Some(_), None) => false,
                (None, _) => true,
            }
        })
    })
}

/// 1-based rank of the first star net matching the ground truth, if any.
pub fn rank_of_intended(
    wh: &Warehouse,
    ranked: &[RankedStarNet],
    q: &LabeledQuery,
) -> Option<usize> {
    ranked
        .iter()
        .position(|r| matches_intended(wh, &r.net, q))
        .map(|p| p + 1)
}

/// Cumulative satisfaction curve: entry `x-1` is the percentage of
/// queries whose intended interpretation appears within the top-`x`.
pub fn cumulative_curve(ranks: &[Option<usize>], max_rank: usize) -> Vec<f64> {
    let n = ranks.len().max(1) as f64;
    (1..=max_rank)
        .map(|x| {
            let hit = ranks
                .iter()
                .filter(|r| matches!(r, Some(rank) if *rank <= x))
                .count();
            100.0 * hit as f64 / n
        })
        .collect()
}

/// One roll-up case for the bucket-count experiments (Figures 5/6): a
/// child-level subspace and its parent-level background space.
pub struct RollupCase {
    pub label: String,
    pub ds: RowSet,
    pub rup: RowSet,
}

/// The unique fact path to `table` (panics when ambiguous — the AW
/// schemata have exactly one path per dimension table).
pub fn unique_fact_path(wh: &Warehouse, table: &str) -> JoinPath {
    let schema = wh.schema();
    let tid = wh.table_id(table).expect("table exists");
    let paths = paths_between(schema, schema.fact_table(), tid, MAX_PATH_LEN);
    assert_eq!(paths.len(), 1, "expected a unique path to {table}");
    paths.into_iter().next().unwrap()
}

/// Builds one roll-up case per distinct child value: DS′ = facts with
/// `child_attr = v`, RUP = facts with `parent_attr = parent(v)`. Cases
/// with fewer than `min_facts` subspace facts are dropped (their
/// correlations are noise).
pub fn hierarchy_rollup_cases(
    wh: &Warehouse,
    jidx: &JoinIndex,
    child_attr: ColRef,
    parent_attr: ColRef,
    min_facts: usize,
) -> Vec<RollupCase> {
    let schema = wh.schema();
    let fact = schema.fact_table();
    let child_table = wh.table(child_attr.table);
    let child_col = wh.column(child_attr);
    let parent_col = wh.column(parent_attr);
    let child_path = unique_fact_path(wh, child_table.name());
    let parent_path = unique_fact_path(wh, wh.table(parent_attr.table).name());

    // child code → parent code, via the child table rows.
    // (The empty path, i.e. the identity, when both levels share a table.)
    let sub = paths_between(schema, child_attr.table, parent_attr.table, 4)
        .into_iter()
        .next()
        .expect("hierarchy levels are connected");
    let to_parent = jidx.row_mapper(&sub);

    let dict = child_col.dict().expect("categorical child level");
    let mut cases = Vec::new();
    for (code, value) in dict.iter() {
        let rows = child_col.rows_with_codes(&[code]);
        let parent_code = rows
            .iter()
            .find_map(|&r| parent_col.get_code(to_parent.get(r)? as usize));
        let Some(parent_code) = parent_code else {
            continue;
        };
        let ds = Selection::by_codes(child_path.clone(), child_attr, vec![code])
            .try_eval(wh, jidx, fact)
            .expect("the level lives on its own path's target");
        if ds.len() < min_facts {
            continue;
        }
        let rup = Selection::by_codes(parent_path.clone(), parent_attr, vec![parent_code])
            .try_eval(wh, jidx, fact)
            .expect("the level lives on its own path's target");
        cases.push(RollupCase {
            label: value.to_string(),
            ds,
            rup,
        });
    }
    cases
}

/// The numeric values of `attr` reached from `rows` along `path` — the
/// domain a bucketizer spans ("the set of all distinct values projected
/// from DS′", §5.2).
pub fn numeric_values(
    wh: &Warehouse,
    jidx: &JoinIndex,
    path: &JoinPath,
    attr: ColRef,
    rows: &RowSet,
) -> Vec<f64> {
    let mapper = jidx.row_mapper(path);
    let col = wh.column(attr);
    rows.iter()
        .filter_map(|row| mapper.get(row))
        .filter_map(|target| col.get_float(target as usize))
        .collect()
}

/// The SUM series of one roll-up case per bucket of a numerical
/// attribute, with the DS′ bucket occupancy.
pub struct BucketSeries {
    pub ds: Vec<f64>,
    pub rup: Vec<f64>,
    occupancy: Vec<f64>,
}

impl BucketSeries {
    /// Correlation of the DS′ and RUP series. §5.2.1: only segments that
    /// exist in DS′ participate in the comparison — buckets with no DS′
    /// fact are dropped from both series.
    pub fn correlation(&self) -> f64 {
        let (xs, ys): (Vec<f64>, Vec<f64>) = self
            .ds
            .iter()
            .zip(&self.rup)
            .zip(&self.occupancy)
            .filter(|(_, &cnt)| cnt > 0.0)
            .map(|((a, b), _)| (*a, *b))
            .unzip();
        kdap_core::pearson(&xs, &ys)
    }
}

/// Scans both spaces of `case` once, bucketizing `attr` (reached along
/// `attr_path`) with `buckets`.
pub fn bucket_series(
    wh: &Warehouse,
    jidx: &JoinIndex,
    case: &RollupCase,
    attr: ColRef,
    attr_path: &JoinPath,
    mv: &MeasureVector,
    buckets: &Bucketizer,
) -> BucketSeries {
    let specs = [FacetSpec::Buckets {
        attr,
        mapper: jidx.row_mapper(attr_path),
        buckets: buckets.clone(),
    }];
    let scan = |rows: &RowSet| {
        multi_group_by_exec(
            wh,
            &specs,
            rows,
            mv,
            &ExecConfig::serial(),
            DENSE_GROUP_LIMIT,
        )
        .expect("ungoverned scan")
        .remove(0)
    };
    let ds = scan(&case.ds);
    BucketSeries {
        ds: ds.to_series(AggFunc::Sum),
        rup: scan(&case.rup).to_series(AggFunc::Sum),
        occupancy: ds.to_series(AggFunc::Count),
    }
}

/// One sweep point of Figures 5/6: mean error (in percentage points of
/// correlation, |corr_n − corr_truth| × 100) over all roll-up cases, at a
/// given basic-interval count.
pub struct SweepPoint {
    pub buckets: usize,
    pub mean_error_pct: f64,
    pub cases: usize,
}

/// Sweeps basic-interval counts for one numerical attribute over a set of
/// roll-up cases, comparing against the per-distinct-value ground truth.
pub fn bucket_sweep(
    wh: &Warehouse,
    jidx: &JoinIndex,
    cases: &[RollupCase],
    attr: ColRef,
    measure: &Measure,
    bucket_counts: &[usize],
) -> Vec<SweepPoint> {
    let attr_path = unique_fact_path(wh, wh.table(attr.table).name());
    let mv = MeasureVector::build(wh, measure);
    let correlation = |case: &RollupCase, buckets: &Bucketizer| {
        bucket_series(wh, jidx, case, attr, &attr_path, &mv, buckets).correlation()
    };

    // Per-case ground truth: one bucket per distinct value in DS′.
    let truths: Vec<Option<(f64, Vec<f64>)>> = cases
        .iter()
        .map(|case| {
            let values = numeric_values(wh, jidx, &attr_path, attr, &case.ds);
            let gt_buckets = Bucketizer::per_distinct(values.iter().copied())?;
            if gt_buckets.n_buckets() < 3 {
                return None;
            }
            Some((correlation(case, &gt_buckets), values))
        })
        .collect();

    bucket_counts
        .iter()
        .map(|&n| {
            let mut total = 0.0;
            let mut counted = 0usize;
            for (case, truth) in cases.iter().zip(&truths) {
                let Some((gt_corr, values)) = truth else {
                    continue;
                };
                let Some(buckets) = Bucketizer::equal_width(values.iter().copied(), n) else {
                    continue;
                };
                total += (correlation(case, &buckets) - gt_corr).abs() * 100.0;
                counted += 1;
            }
            SweepPoint {
                buckets: n,
                mean_error_pct: if counted == 0 {
                    0.0
                } else {
                    total / counted as f64
                },
                cases: counted,
            }
        })
        .collect()
}

/// Renders a simple aligned table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    line(&hdr);
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// A `BENCH_*.json` document: the `"experiment"` name, the stamp every
/// such file opens with, then the members `body` writes.
pub fn bench_json(experiment: &str, smoke: bool, body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).object(Layout::Block, |w| {
        w.key("experiment").str(experiment);
        write_stamp(w, smoke);
        body(w);
    });
    out.push('\n');
    out
}

/// Writes the `"profile"` and `"host"` members: `smoke` or `full`, so a
/// smoke run is never mistaken for a committed one, and the host that
/// produced it — cores, CPU features, git sha (`-dirty` when the tree
/// has uncommitted changes), UTC date — so a number can be traced to the
/// machine and commit behind it.
fn write_stamp(w: &mut JsonWriter, smoke: bool) {
    let git_sha = std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=12",
            "--exclude=*",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    w.key("profile").str(if smoke { "smoke" } else { "full" });
    w.key("host").object(Layout::Inline, |w| {
        w.key("available_parallelism")
            .int(std::thread::available_parallelism().map_or(1, usize::from));
        w.key("cpu_features").array(Layout::Inline, |w| {
            for f in kdap_core::kernel::detected_features() {
                w.str(f);
            }
        });
        w.key("git_sha").str(&git_sha);
        w.key("utc_date").str(&utc_date(unix_secs));
    });
}

/// Writes an experiment's JSON: a full run to `results/<file>` (the
/// committed copy), a smoke run to `target/<file>`, so a smoke run never
/// replaces a committed number. Paths are relative to the working
/// directory; a failed write is reported, not fatal.
pub fn write_bench_json(file: &str, smoke: bool, json: &str) {
    let path = format!("{}/{file}", if smoke { "target" } else { "results" });
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// `YYYY-MM-DD` of a Unix timestamp (proleptic Gregorian, UTC).
fn utc_date(unix_secs: u64) -> String {
    // Howard Hinnant's civil-from-days.
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdap_core::{generate_star_nets, rank_star_nets, GenConfig, RankMethod};
    use kdap_datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};

    #[test]
    fn host_stamp_names_every_field_and_dates_correctly() {
        let host = bench_json("E0", true, |_| {});
        for key in [
            "profile",
            "available_parallelism",
            "cpu_features",
            "git_sha",
            "utc_date",
        ] {
            assert!(host.contains(&format!("\"{key}\": ")), "{key} in {host}");
        }
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(951_782_400), "2000-02-29");
        assert_eq!(utc_date(1_798_761_599), "2026-12-31");
    }

    #[test]
    fn cumulative_curve_counts_correctly() {
        let ranks = vec![Some(1), Some(1), Some(3), None, Some(11)];
        let curve = cumulative_curve(&ranks, 5);
        assert_eq!(curve[0], 40.0);
        assert_eq!(curve[1], 40.0);
        assert_eq!(curve[2], 60.0);
        assert_eq!(curve[4], 60.0);
    }

    #[test]
    fn intended_interpretation_is_rankable_end_to_end() {
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        let index = kdap_textindex::TextIndex::build(&wh);
        let cfg = WorkloadConfig {
            n_queries: 10,
            ..WorkloadConfig::default()
        };
        let queries = generate_workload(&wh, &cfg);
        let mut found = 0;
        for q in &queries {
            let refs: Vec<&str> = q.keywords.iter().map(String::as_str).collect();
            let nets = generate_star_nets(&wh, &index, &refs, &GenConfig::default());
            let ranked = rank_star_nets(nets, RankMethod::Standard);
            if rank_of_intended(&wh, &ranked, q).is_some() {
                found += 1;
            }
        }
        // The intended interpretation must be generatable for most
        // queries (this is the precondition for Figure 4 to be
        // meaningful).
        assert!(found >= 8, "only {found}/10 intended interpretations found");
    }

    #[test]
    fn rollup_cases_are_proper_supersets() {
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        let jidx = JoinIndex::build(&wh);
        let sub = wh
            .col_ref("DimProductSubcategory", "ProductSubcategoryName")
            .unwrap();
        let cat = wh.col_ref("DimProductCategory", "CategoryName").unwrap();
        let cases = hierarchy_rollup_cases(&wh, &jidx, sub, cat, 5);
        assert!(!cases.is_empty());
        for c in &cases {
            assert!(c.rup.len() >= c.ds.len(), "case {}", c.label);
            for row in c.ds.iter() {
                assert!(c.rup.contains(row));
            }
        }
    }

    #[test]
    fn bucket_sweep_error_decreases_with_buckets() {
        let wh = build_aw_online(Scale::small(), 42).unwrap();
        let jidx = JoinIndex::build(&wh);
        let sub = wh
            .col_ref("DimProductSubcategory", "ProductSubcategoryName")
            .unwrap();
        let cat = wh.col_ref("DimProductCategory", "CategoryName").unwrap();
        let cases = hierarchy_rollup_cases(&wh, &jidx, sub, cat, 8);
        let attr = wh.col_ref("DimProduct", "DealerPrice").unwrap();
        let measure = wh.schema().measure_by_name("SalesRevenue").unwrap().clone();
        let sweep = bucket_sweep(&wh, &jidx, &cases, attr, &measure, &[5, 80]);
        assert_eq!(sweep.len(), 2);
        assert!(sweep[0].cases > 0);
        // More basic intervals → closer to ground truth on average.
        assert!(
            sweep[1].mean_error_pct <= sweep[0].mean_error_pct + 1e-9,
            "5 buckets: {:.2}, 80 buckets: {:.2}",
            sweep[0].mean_error_pct,
            sweep[1].mean_error_pct
        );
    }
}
