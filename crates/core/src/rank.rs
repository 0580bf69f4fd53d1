//! Star-net ranking (paper §4.4).
//!
//! The standard score is
//!
//! ```text
//!                Σ_HG  [ Σ_h Sim(h.val, q)  /  (|HG| · (1 + ln|HG|)) ]
//! SCORE(SN, q) = ─────────────────────────────────────────────────────
//!                                     |SN|²
//! ```
//!
//! Two normalizations are ablated exactly as in the paper's Figure 4:
//! * *group-size* normalization, `|HG| · (1 + ln|HG|)`, penalizing
//!   attribute domains with many matched instances ("California Street"
//!   addresses vs. the state California);
//! * *group-number* normalization, `|SN|²`, prioritizing star nets where
//!   multiple keywords fall in the same attribute instance ("San Jose" as
//!   one city beats "San Antonio" + first-name "Jose").
//!
//! The baseline method averages the raw text-engine scores (Hristidis et
//! al., VLDB'03 style).

use kdap_query::JoinPath;
use kdap_warehouse::ColRef;

use crate::interpret::StarNet;

/// Ranking methods evaluated in the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankMethod {
    /// Full formula with both normalizations.
    Standard,
    /// Group-number normalization disabled: the `|SN|²` divisor is
    /// removed entirely (plain sum of group terms), so star nets with more
    /// groups are no longer penalized.
    NoGroupNumberNorm,
    /// Group-size normalization disabled: the per-group term is the plain
    /// average `Σ Sim / |HG|` without the `(1 + ln|HG|)` factor.
    NoGroupSizeNorm,
    /// Raw text-engine scores, directly averaged over all hits.
    Baseline,
}

impl RankMethod {
    /// All four methods, in the order the experiment reports them.
    pub const ALL: [RankMethod; 4] = [
        RankMethod::Standard,
        RankMethod::NoGroupNumberNorm,
        RankMethod::NoGroupSizeNorm,
        RankMethod::Baseline,
    ];

    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            RankMethod::Standard => "standard",
            RankMethod::NoGroupNumberNorm => "no-group-number-norm",
            RankMethod::NoGroupSizeNorm => "no-group-size-norm",
            RankMethod::Baseline => "baseline",
        }
    }
}

/// Scores one star net under the chosen method.
pub fn score_star_net(net: &StarNet, method: RankMethod) -> f64 {
    let n_groups = net.n_groups();
    if n_groups == 0 {
        return 0.0;
    }
    match method {
        RankMethod::Standard | RankMethod::NoGroupNumberNorm | RankMethod::NoGroupSizeNorm => {
            let group_sum: f64 = net
                .constraints
                .iter()
                .map(|c| {
                    let sum = c.group.score_sum();
                    let size = c.group.len() as f64;
                    if size == 0.0 {
                        return 0.0;
                    }
                    match method {
                        RankMethod::NoGroupSizeNorm => sum / size,
                        _ => sum / (size * (1.0 + size.ln())),
                    }
                })
                .sum();
            match method {
                RankMethod::NoGroupNumberNorm => group_sum,
                _ => group_sum / (n_groups * n_groups) as f64,
            }
        }
        RankMethod::Baseline => {
            let (sum, count) = net.constraints.iter().fold((0.0, 0usize), |(s, c), con| {
                (s + con.group.score_sum(), c + con.group.len())
            });
            if count == 0 {
                0.0
            } else {
                sum / count as f64
            }
        }
    }
}

/// A star net with its score under some method.
#[derive(Debug, Clone)]
pub struct RankedStarNet {
    /// The interpretation.
    pub net: StarNet,
    /// Its score under the chosen ranking method.
    pub score: f64,
}

/// Scores and sorts star nets: descending score, then fewer groups first,
/// then by what the nets constrain ([`StarNet::fingerprint`] as the last
/// word) — so the order depends on the nets alone, never on the order
/// they were generated in.
pub fn rank_star_nets(nets: Vec<StarNet>, method: RankMethod) -> Vec<RankedStarNet> {
    let mut ranked: Vec<RankedStarNet> = nets
        .into_iter()
        .map(|net| RankedStarNet {
            score: score_star_net(&net, method),
            net,
        })
        .collect();
    let by_score_then_size = |a: &RankedStarNet, b: &RankedStarNet| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.net.n_groups().cmp(&b.net.n_groups()))
    };
    ranked.sort_by(by_score_then_size);
    // Ties are the rule on ambiguous queries (one hit group along several
    // join paths scores the same) and a fingerprint is built and written
    // per net: compare where the constraints sit first, in place, and
    // write the fingerprint once per net only where those sites tie too.
    fn sites(r: &RankedStarNet) -> impl Iterator<Item = (ColRef, &JoinPath)> {
        r.net.constraints.iter().map(|c| (c.group.attr, &c.path))
    }
    for tied in ranked.chunk_by_mut(|a, b| by_score_then_size(a, b).is_eq()) {
        tied.sort_by(|a, b| sites(a).cmp(sites(b)));
        for same_sites in tied.chunk_by_mut(|a, b| sites(a).eq(sites(b))) {
            same_sites.sort_by_cached_key(|r| r.net.fingerprint());
        }
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hit::{Hit, HitGroup};
    use crate::interpret::Constraint;
    use kdap_query::JoinPath;
    use kdap_warehouse::{ColRef, TableId};
    use std::sync::Arc;

    fn group(attr_col: u32, scores: &[f64]) -> HitGroup {
        HitGroup {
            attr: ColRef::new(TableId(0), attr_col),
            hits: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| Hit {
                    code: i as u32,
                    value: Arc::from("v"),
                    score: s,
                })
                .collect(),
            keywords: vec![0],
            numeric: None,
        }
    }

    fn net(groups: Vec<HitGroup>) -> StarNet {
        StarNet {
            constraints: groups
                .into_iter()
                .map(|g| Constraint {
                    group: Arc::new(g),
                    path: JoinPath::empty(),
                })
                .collect(),
        }
    }

    #[test]
    fn standard_formula_matches_hand_computation() {
        // One group, two hits 0.8 and 0.4: term = 1.2 / (2·(1+ln2)),
        // |SN|² = 1.
        let n = net(vec![group(0, &[0.8, 0.4])]);
        let expected = 1.2 / (2.0 * (1.0 + 2.0f64.ln()));
        assert!((score_star_net(&n, RankMethod::Standard) - expected).abs() < 1e-12);
    }

    #[test]
    fn group_number_norm_prefers_fewer_groups() {
        // Same total similarity mass: one group with score 1.0 vs two
        // groups with 0.5 each (all singleton groups).
        let single = net(vec![group(0, &[1.0])]);
        let double = net(vec![group(0, &[0.5]), group(1, &[0.5])]);
        let s1 = score_star_net(&single, RankMethod::Standard);
        let s2 = score_star_net(&double, RankMethod::Standard);
        assert!(s1 > s2, "{s1} vs {s2}");
        // Without the |SN|² normalization the two tie.
        let s1 = score_star_net(&single, RankMethod::NoGroupNumberNorm);
        let s2 = score_star_net(&double, RankMethod::NoGroupNumberNorm);
        assert!((s1 - s2).abs() < 1e-12);
    }

    #[test]
    fn group_size_norm_penalizes_bushy_groups() {
        // "California" the state (1 hit, 0.9) vs 10 street addresses each
        // scoring 0.9.
        let state = net(vec![group(0, &[0.9])]);
        let streets = net(vec![group(1, &[0.9; 10])]);
        let s_state = score_star_net(&state, RankMethod::Standard);
        let s_streets = score_star_net(&streets, RankMethod::Standard);
        assert!(s_state > s_streets);
        // Disabled: both are plain averages → tie.
        let s_state = score_star_net(&state, RankMethod::NoGroupSizeNorm);
        let s_streets = score_star_net(&streets, RankMethod::NoGroupSizeNorm);
        assert!((s_state - s_streets).abs() < 1e-12);
    }

    #[test]
    fn baseline_is_plain_average() {
        let n = net(vec![group(0, &[0.8, 0.4]), group(1, &[0.6])]);
        let s = score_star_net(&n, RankMethod::Baseline);
        assert!((s - (0.8 + 0.4 + 0.6) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_net_scores_zero() {
        let n = net(vec![]);
        for m in RankMethod::ALL {
            assert_eq!(score_star_net(&n, m), 0.0);
        }
    }

    #[test]
    fn ranking_sorts_descending() {
        let nets = vec![
            net(vec![group(0, &[0.2])]),
            net(vec![group(0, &[0.9])]),
            net(vec![group(0, &[0.5])]),
        ];
        let ranked = rank_star_nets(nets, RankMethod::Standard);
        assert!(ranked[0].score >= ranked[1].score);
        assert!(ranked[1].score >= ranked[2].score);
    }

    #[test]
    fn phrase_merge_outranks_split_interpretation() {
        // "San Jose" as one city instance (score 1.0) vs
        // "San Antonio"(0.55) + "Jose"(0.7) as two groups.
        let merged = net(vec![group(0, &[1.0])]);
        let split = net(vec![group(0, &[0.55]), group(1, &[0.7])]);
        assert!(
            score_star_net(&merged, RankMethod::Standard)
                > score_star_net(&split, RankMethod::Standard)
        );
    }
}
