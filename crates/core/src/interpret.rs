//! Candidate star-net generation (paper §4.2, Algorithm 1).
//!
//! A *star seed* picks one hit group per keyword (merged phrase groups
//! cover several keywords at once); a *star net* additionally fixes one
//! join path from each group's table to the fact table. Unlike
//! Discover-style candidate networks, every star net joins **through the
//! fact table**: dimension hit groups slice the subspace, fact-table hit
//! groups select fact points inside it.
//!
//! Two KDAP-specific rules from the paper are embodied here:
//! * *aliasing*: the same table reached via different join paths (buyer
//!   city vs. store city) yields distinct constraints, because a
//!   constraint is a `(group, path)` pair;
//! * *same-dimension merging*: two hit groups whose paths enter the same
//!   dimension produce intersection semantics on the fact table, and
//!   structurally identical star nets are deduplicated by canonical key.

use kdap_query::{
    fact_paths_by_table, ExecConfig, Fingerprint, JoinPath, QueryError, Selection, MAX_PATH_LEN,
};
use kdap_textindex::TextIndex;
use kdap_warehouse::{ColRef, DimId, Warehouse};

use crate::hit::{build_hit_sets, Hit, HitConfig, HitGroup};
use crate::numeric_hits::{numeric_groups, NumericConfig};
use crate::phrase::merged_group_pool;

/// One hit group applied along one join path — a star-net constraint.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The hit group being applied.
    pub group: HitGroup,
    /// The join path from the fact table to the group's table.
    pub path: JoinPath,
}

impl Constraint {
    /// The dimension this constraint slices (None for fact-table groups).
    pub fn dimension(&self, wh: &Warehouse) -> Option<DimId> {
        self.path.dimension(wh.schema())
    }

    /// The selection this constraint denotes on the fact table: hits OR
    /// within the group (dictionary codes), numeric groups select by
    /// value range (§7 future-work extension).
    pub fn selection(&self) -> Selection {
        match self.group.numeric {
            Some((lo, hi)) => Selection::by_range(self.path.clone(), self.group.attr, lo, hi),
            None => Selection::by_codes(self.path.clone(), self.group.attr, self.group.codes()),
        }
    }

    /// Canonical `(group, path)` identity of this constraint — equal
    /// fingerprints denote the same fact bitmap, across all nets.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.selection())
    }

    /// An exact selection of `codes` on `attr` reached via `path` — what
    /// navigation adds to a net (score 1.0: a picked instance is not a
    /// fuzzy match). `None` when `attr` is not dictionary-coded or a code
    /// lies outside its dictionary.
    pub fn exact(
        wh: &Warehouse,
        attr: ColRef,
        path: JoinPath,
        codes: &[u32],
    ) -> Option<Constraint> {
        let dict = wh.column(attr).dict()?;
        let hits = codes
            .iter()
            .map(|&code| {
                Some(Hit {
                    code,
                    value: dict.resolve(code)?.clone(),
                    score: 1.0,
                })
            })
            .collect::<Option<Vec<Hit>>>()?;
        Some(Constraint {
            group: HitGroup {
                attr,
                hits,
                keywords: Vec::new(),
                numeric: None,
            },
            path,
        })
    }

    /// Human-readable rendering, e.g.
    /// `LOC/City/{Columbus} via ITEM → TRANS → STORE → LOC`.
    pub fn display(&self, wh: &Warehouse) -> String {
        let values: Vec<&str> = self.group.hits.iter().take(3).map(|h| &*h.value).collect();
        let ellipsis = if self.group.hits.len() > 3 {
            ", …"
        } else {
            ""
        };
        format!(
            "{}/{{{}{}}} via {}",
            wh.col_name(self.group.attr),
            values.join(" OR "),
            ellipsis,
            self.path.display(wh, wh.schema().fact_table())
        )
    }
}

/// Canonical form of a star net: sorted constraint fingerprints.
type CanonicalKey = Vec<Fingerprint>;

/// A candidate interpretation: a join expression through the fact table.
#[derive(Debug, Clone)]
pub struct StarNet {
    /// The net's constraints; conjunctive on the fact table.
    pub constraints: Vec<Constraint>,
}

impl StarNet {
    /// `|SN|`: the number of hit groups in the net.
    pub fn n_groups(&self) -> usize {
        self.constraints.len()
    }

    /// A stable, order-independent fingerprint of the net's constraints:
    /// identifies the net's *subspace* (used for deduplication and
    /// ranking tie-breaks).
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self.canonical_key())
    }

    /// The constraint fingerprints in net order: identifies the net's
    /// *exploration* (the session cache's key). Order matters there and
    /// only there — promoted facets are listed, and a role-playing
    /// dimension's facet path is chosen, in constraint order — while
    /// nothing else of a constraint (hit scores, matched keywords,
    /// display values) reaches the explore stage.
    pub fn explore_key(&self) -> String {
        let ordered: Vec<Fingerprint> = self.constraints.iter().map(|c| c.fingerprint()).collect();
        format!("{ordered:?}")
    }

    /// Canonical identity used for deduplication: the multiset of
    /// constraint fingerprints.
    fn canonical_key(&self) -> CanonicalKey {
        let mut key: CanonicalKey = self.constraints.iter().map(|c| c.fingerprint()).collect();
        key.sort();
        key
    }

    /// Human-readable rendering: the constraints' own, joined by `⋈`.
    pub fn display(&self, wh: &Warehouse) -> String {
        self.constraints
            .iter()
            .map(|c| c.display(wh))
            .collect::<Vec<_>>()
            .join("  ⋈  ")
    }
}

/// Generation limits and knobs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Hit-set construction limits and text-engine options.
    pub hit: HitConfig,
    /// Maximum join-path length explored in the schema graph.
    pub max_path_len: usize,
    /// Hard cap on produced star nets (guards exponential blowup; the
    /// ranked list shown to a user is far shorter anyway).
    pub max_star_nets: usize,
    /// Numeric/measure hit candidates (§7 future-work extension,
    /// disabled by default).
    pub numeric: NumericConfig,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            hit: HitConfig::default(),
            max_path_len: MAX_PATH_LEN,
            max_star_nets: 5_000,
            numeric: NumericConfig::default(),
        }
    }
}

/// Runs the full differentiate-phase generation: hit sets → phrase merge →
/// star seeds (exact keyword covers) → star nets (join-path products),
/// deduplicated. Scores are assigned separately by [`crate::rank`].
pub fn generate_star_nets(
    wh: &Warehouse,
    index: &TextIndex,
    keywords: &[&str],
    cfg: &GenConfig,
) -> Vec<StarNet> {
    // A serial ungoverned config cannot breach any limit.
    try_generate_star_nets(wh, index, keywords, cfg, &ExecConfig::serial()).unwrap_or_default()
}

/// Governable [`generate_star_nets`]: polls `exec`'s deadline and
/// cancellation token once per generated net, so a runaway join-path
/// product aborts mid-differentiate instead of running to the cap.
pub fn try_generate_star_nets(
    wh: &Warehouse,
    index: &TextIndex,
    keywords: &[&str],
    cfg: &GenConfig,
    exec: &ExecConfig,
) -> Result<Vec<StarNet>, QueryError> {
    let hit_sets = build_hit_sets(index, keywords, &cfg.hit, &exec.obs);
    let mut pool = merged_group_pool(index, &hit_sets, &exec.obs);
    if cfg.numeric.enabled {
        for (ki, hs) in hit_sets.iter().enumerate() {
            pool.extend(numeric_groups(wh, &hs.keyword, ki, &cfg.numeric));
        }
    }
    let pool = pool;

    // Keywords with no hits at all cannot constrain anything; they are
    // ignored rather than failing the whole query.
    let mut coverable: Vec<usize> = pool.iter().flat_map(|g| g.keywords.clone()).collect();
    coverable.sort_unstable();
    coverable.dedup();
    if coverable.is_empty() {
        return Ok(Vec::new());
    }

    // Enumerate star seeds: exact covers of the coverable keywords.
    let mut seeds: Vec<Vec<&HitGroup>> = Vec::new();
    let mut chosen: Vec<&HitGroup> = Vec::new();
    cover(&pool, &coverable, 0, &mut chosen, &mut seeds);

    // Expand each seed into star nets via the join-path product.
    let fact_paths = fact_paths_by_table(wh.schema(), cfg.max_path_len);
    let mut nets: Vec<StarNet> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    'seeds: for seed in seeds {
        let path_options: Option<Vec<&Vec<JoinPath>>> =
            seed.iter().map(|g| fact_paths.get(&g.attr.table)).collect();
        // A group on a table with no join path to the fact table cannot
        // form a star net (the net must go through the fact table).
        let Some(path_options) = path_options else {
            continue;
        };
        let mut indices = vec![0usize; seed.len()];
        loop {
            // One governance poll per candidate net: the join-path
            // product is where differentiate-phase time concentrates.
            exec.check_at("generate_star_nets", nets.len() as u64, 0)?;
            let net = StarNet {
                constraints: seed
                    .iter()
                    .enumerate()
                    .zip(&indices)
                    .map(|((gi, g), &pi)| Constraint {
                        group: (*g).clone(),
                        path: path_options[gi][pi].clone(),
                    })
                    .collect(),
            };
            if seen.insert(net.canonical_key()) {
                nets.push(net);
                if nets.len() >= cfg.max_star_nets {
                    break 'seeds;
                }
            }
            // Odometer increment over path choices.
            let mut i = 0;
            loop {
                if i == indices.len() {
                    break;
                }
                indices[i] += 1;
                if indices[i] < path_options[i].len() {
                    break;
                }
                indices[i] = 0;
                i += 1;
            }
            if i == indices.len() {
                break;
            }
        }
    }
    Ok(nets)
}

/// Backtracking exact cover: pick a group covering the first uncovered
/// keyword; groups may cover several consecutive keywords (phrases).
fn cover<'a>(
    pool: &'a [HitGroup],
    coverable: &[usize],
    next: usize,
    chosen: &mut Vec<&'a HitGroup>,
    out: &mut Vec<Vec<&'a HitGroup>>,
) {
    if next == coverable.len() {
        out.push(chosen.clone());
        return;
    }
    let kw = coverable[next];
    for g in pool {
        // The group must cover `kw` and must not touch already-covered or
        // non-coverable keywords out of order.
        if !g.keywords.contains(&kw) {
            continue;
        }
        if g.keywords.iter().any(|k| coverable[..next].contains(k)) {
            continue;
        }
        let advance = g
            .keywords
            .iter()
            .filter(|k| coverable[next..].contains(k))
            .count();
        chosen.push(g);
        cover(pool, coverable, next + advance, chosen, out);
        chosen.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ebiz_fixture;

    #[test]
    fn columbus_lcd_produces_expected_interpretation_count() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "lcd"],
            &GenConfig::default(),
        );
        // "columbus": city (3 paths: store/buyer/seller) + holiday (1 path)
        //   → 4 constraint options.
        // "lcd": product group name (1 path) → 1 option.
        // Product of options: 4 × 1 = 4 star nets.
        assert_eq!(nets.len(), 4);
        for net in &nets {
            assert_eq!(net.n_groups(), 2);
        }
    }

    #[test]
    fn aliasing_distinguishes_buyer_and_seller_paths() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        // City via store, buyer, seller + holiday = 4 interpretations.
        assert_eq!(nets.len(), 4);
        let rendered: Vec<String> = nets.iter().map(|n| n.display(&fx.wh)).collect();
        assert!(rendered.iter().any(|s| s.contains("(Buyer)")));
        assert!(rendered.iter().any(|s| s.contains("(Seller)")));
        assert!(rendered.iter().any(|s| s.contains("STORE")));
        assert!(rendered.iter().any(|s| s.contains("HOLIDAY")));
    }

    #[test]
    fn unmatched_keywords_are_ignored() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(
            &fx.wh,
            &fx.index,
            &["columbus", "zzzunknown"],
            &GenConfig::default(),
        );
        assert_eq!(nets.len(), 4, "same as plain columbus");
        let none = generate_star_nets(&fx.wh, &fx.index, &["zzzunknown"], &GenConfig::default());
        assert!(none.is_empty());
    }

    #[test]
    fn max_star_nets_caps_output() {
        let fx = ebiz_fixture();
        let cfg = GenConfig {
            max_star_nets: 2,
            ..GenConfig::default()
        };
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus", "lcd"], &cfg);
        assert_eq!(nets.len(), 2);
    }

    #[test]
    fn star_nets_are_deduplicated() {
        let fx = ebiz_fixture();
        let nets = generate_star_nets(&fx.wh, &fx.index, &["columbus"], &GenConfig::default());
        let mut keys: Vec<_> = nets.iter().map(|n| n.canonical_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), nets.len());
    }
}
