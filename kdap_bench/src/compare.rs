//! `kdap_bench compare A.json B.json`: did B regress against A?
//!
//! One row per (end-to-end metric, workload). A metric regresses when
//! B's median is worse than A's by more than the metric's bound. Where
//! the run-to-run spread of either side is wider than the bound the row
//! is *unresolved* — not "unchanged" — unless every run of one side
//! beats every run of the other. An exact metric (bound 0: `failed_ratio`,
//! `intended_top5_ratio`) is judged by each side's worst run, so one
//! failing run of B regresses however many healthy runs surround it.

use std::path::Path;

use crate::record::{EndToEnd, RunRecord, SuiteFile, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (metric, workload) pair.
pub struct Row {
    pub a: f64,
    pub b: f64,
    /// How much worse B's median (worst run, for an exact metric) is, as a
    /// share of A's (negative = better).
    pub worse: f64,
    /// The wider of the two sides' quartile spreads, when both have ≥ 2
    /// runs; an exact metric has none.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Compares the runs of one metric on one workload; `None` when either
/// side never measured it.
pub fn judge(spec: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Row> {
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worst = |v: &[f64]| {
        v.iter()
            .copied()
            .max_by(|x, y| (sign * x).total_cmp(&(sign * y)))
    };
    let (med_a, med_b) = if spec.bound == 0.0 {
        (worst(a)?, worst(b)?)
    } else {
        (median(a)?, median(b)?)
    };
    let diff = sign * (med_b - med_a);
    // A zero baseline (failed_ratio) has no relative change: any
    // worsening is infinitely worse, none is no change.
    let worse = if med_a != 0.0 {
        diff / med_a.abs()
    } else if diff > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let spread = match (quartile_spread(a), quartile_spread(b)) {
        (Some(x), Some(y)) if spec.bound > 0.0 => Some(x.max(y)),
        _ => None,
    };
    let is_worse = |x: f64, than: f64| sign * (x - than) > 0.0;
    let every_b_worse = b.iter().all(|&y| a.iter().all(|&x| is_worse(y, x)));
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| is_worse(x, y)));
    let verdict = if spread.is_some_and(|s| s > spec.bound) && !every_b_worse && !every_b_better {
        Verdict::Unresolved
    } else if worse > spec.bound {
        Verdict::Regressed
    } else if worse < -spec.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Some(Row {
        a: med_a,
        b: med_b,
        worse,
        spread,
        verdict,
    })
}

fn values(runs: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| r.metrics.get(metric).and_then(|m| m.value))
        .collect()
}

/// `Ok(true)` when nothing regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SuiteFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.profile != b.profile {
        return Err(format!(
            "refusing to compare a `{}` result with a `{}` result: run lengths differ",
            a.profile, b.profile
        ));
    }
    println!("A: {} ({})", a_path.display(), a.host_summary);
    println!("B: {} ({})", b_path.display(), b.host_summary);
    println!(
        "{:<24} {:<22} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse %", "bound %", "spread %"
    );
    let mut regressions = 0;
    for workload in WORKLOADS {
        for spec in &END_TO_END {
            let Some(row) = judge(
                spec,
                &values(&a.runs, workload, spec.name),
                &values(&b.runs, workload, spec.name),
            ) else {
                continue;
            };
            regressions += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{workload:<24} {:<22} {:>12.4} {:>12.4} {:>+9.2} {:>7.1} {:>8}  {}",
                spec.name,
                row.a,
                row.b,
                row.worse * 100.0,
                spec.bound * 100.0,
                row.spread
                    .map_or("-".to_string(), |s| format!("{:.2}", s * 100.0)),
                row.verdict.label()
            );
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound (0 for `exact`), whatever the table says today.
    fn spec(higher_is_better: bool, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "metric",
            unit: "unit",
            higher_is_better,
            bound,
            everywhere: true,
        }
    }

    #[test]
    fn bound_decides_with_tight_runs() {
        let p50 = &spec(false, 0.10);
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(p50, &a, &[10.5, 10.6, 10.4, 10.5]).unwrap().verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(p50, &a, &[11.5, 11.6, 11.4, 11.5]).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, &a, &[8.0, 8.1, 7.9, 8.0]).unwrap().verdict,
            Verdict::Improved
        );
        let rps = &spec(true, 0.10);
        assert_eq!(
            judge(rps, &[100.0], &[80.0]).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(rps, &[100.0], &[120.0]).unwrap().verdict,
            Verdict::Improved
        );
        assert!(judge(rps, &[], &[1.0]).is_none());
    }

    #[test]
    fn wide_spread_is_unresolved_unless_runs_separate() {
        let p50 = &spec(false, 0.10);
        let noisy = [8.0, 10.0, 12.0, 14.0];
        // Medians differ by 18 %, but the runs interleave.
        assert_eq!(
            judge(p50, &noisy, &[9.0, 13.0, 13.0, 15.0])
                .unwrap()
                .verdict,
            Verdict::Unresolved
        );
        // Every run of B is worse than every run of A: resolved, regressed.
        assert_eq!(
            judge(p50, &noisy, &[15.0, 17.0, 19.0, 21.0])
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(p50, &noisy, &[4.0, 5.0, 6.0, 7.0]).unwrap().verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn any_increase_of_failed_ratio_regresses() {
        let failed = &spec(false, 0.0);
        assert_eq!(
            judge(failed, &[0.0, 0.0], &[0.0, 0.0]).unwrap().verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(failed, &[0.0], &[0.001]).unwrap().verdict,
            Verdict::Regressed
        );
        // One failing run in three: the median is 0, the worst run is not.
        assert_eq!(
            judge(failed, &[0.0, 0.0, 0.0], &[0.0, 0.002, 0.0])
                .unwrap()
                .verdict,
            Verdict::Regressed
        );
        // Higher is better and exact: the lowest run counts.
        let top5 = &spec(true, 0.0);
        assert_eq!(
            judge(top5, &[0.97, 0.97], &[0.97, 0.96]).unwrap().verdict,
            Verdict::Regressed
        );
    }
}
