//! Attribute-instance ranking within a chosen group-by attribute
//! (paper §5.3.1, Eq. 2).
//!
//! The intra-attribute score of category `cat` is the deviation of its
//! share of the subspace aggregate from its share of the roll-up
//! aggregate:
//!
//! ```text
//! SCORE(cat) = G(DS′|cat) / G(DS′)  −  G(RUP|cat) / G(RUP)
//! ```
//!
//! With several roll-up spaces, the deviation of largest magnitude is
//! kept. Instances that carry query hits are pinned first — the user
//! started from them and needs them for navigation (paper §6.2, the
//! "Mountain Bikes" entry).

use std::collections::HashSet;
use std::sync::Arc;

use kdap_warehouse::{ColRef, Warehouse};

use crate::facet::FacetConfig;

/// One ranked attribute instance.
#[derive(Debug, Clone)]
pub struct RankedInstance {
    /// Dictionary code of the instance.
    pub code: u32,
    /// The instance's text.
    pub label: Arc<str>,
    /// Aggregate of the instance's partition within DS′.
    pub aggregate: f64,
    /// `G(DS′|cat)/G(DS′)`.
    pub share: f64,
    /// The Eq. 2 deviation (worst case over roll-up spaces).
    pub deviation: f64,
    /// Mode-dependent ranking key.
    pub score: f64,
    /// True when the instance is one of the query's hits.
    pub is_hit: bool,
}

/// The pure Eq. 2 ranking over precomputed aggregates: `dom`, the DS′
/// group-by map, the DS′ total, and per-roll-up `(total, group-by map)`
/// pairs, all read out of the explore pipeline's fused scans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_instances_from(
    wh: &Warehouse,
    attr: ColRef,
    dom: &[u32],
    x_map: &std::collections::HashMap<u32, f64>,
    g_ds: f64,
    rup_data: &[(f64, &std::collections::HashMap<u32, f64>)],
    cfg: &FacetConfig,
    hit_codes: &HashSet<u32>,
) -> Vec<RankedInstance> {
    if dom.is_empty() {
        return Vec::new();
    }
    // Infallible: callers pass attributes of kind Categorical, which are
    // dictionary-encoded by construction in the warehouse.
    #[allow(clippy::expect_used)]
    let dict = wh
        .column(attr)
        .dict()
        .expect("categorical attr is a string");
    let mut out: Vec<RankedInstance> = dom
        .iter()
        .map(|&code| {
            let g_cat = *x_map.get(&code).unwrap_or(&0.0);
            let share = if g_ds.abs() > f64::EPSILON {
                g_cat / g_ds
            } else {
                0.0
            };
            // Worst-case (largest-magnitude) deviation across roll-ups.
            let deviation = rup_data
                .iter()
                .map(|(g_rup, y_map)| {
                    let rup_share = if g_rup.abs() > f64::EPSILON {
                        y_map.get(&code).unwrap_or(&0.0) / g_rup
                    } else {
                        0.0
                    };
                    share - rup_share
                })
                .fold(0.0f64, |acc, d| if d.abs() > acc.abs() { d } else { acc });
            RankedInstance {
                code,
                label: dict
                    .resolve(code)
                    .cloned()
                    .unwrap_or_else(|| Arc::from("?")),
                aggregate: g_cat,
                share,
                deviation,
                score: cfg.mode.instance_score(deviation),
                is_hit: hit_codes.contains(&code),
            }
        })
        .collect();

    out.sort_by(|a, b| {
        b.is_hit
            .cmp(&a.is_hit)
            .then(
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.code.cmp(&b.code))
    });
    out
}
