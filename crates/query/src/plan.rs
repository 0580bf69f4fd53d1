//! Conjunctive queries over the fact table and the session's cache of
//! their constraint bitmaps.
//!
//! A star net in the core layer denotes the AND of its constraints, each
//! a [`Selection`] along its own join path. [`and_selections`] takes
//! several such conjunctions (a subspace, or its roll-up spaces),
//! semi-joins every distinct selection into a fact bitmap once, and
//! intersects each conjunction's bitmaps. Each selection reads the whole
//! fact table on its own, so no evaluation order does less work than
//! another, and they run in the given order.
//!
//! A session's [`SemijoinCache`] holds each distinct constraint's bitmap
//! under its canonical [`Fingerprint`], so it is evaluated once however
//! many queries of the session contain it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kdap_obs::{CacheCounters, CacheOutcome, LeafData};
use kdap_warehouse::{ColRef, TableId, Warehouse};

use crate::bitmap::RowSet;
use crate::error::QueryError;
use crate::exec::{par_map, ExecConfig};
use crate::path::JoinPath;
use crate::semijoin::{JoinIndex, Predicate, Selection};

/// Canonical identity of one constraint: join-path edges (in path order),
/// attribute, and predicate (sorted codes or numeric-range bits). Two
/// selections with equal fingerprints denote the same fact bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    edges: Vec<u32>,
    attr: (u32, u32),
    codes: Vec<u32>,
    range: Option<(u64, u64)>,
}

impl Fingerprint {
    /// The fingerprint of a selection.
    pub fn of(sel: &Selection) -> Self {
        Fingerprint::new(&sel.path, sel.attr, sel.predicate.clone())
    }

    /// The fingerprint of the selection of `predicate` on `attr` along
    /// `path`, without building the selection.
    pub fn new(path: &JoinPath, attr: ColRef, predicate: Predicate) -> Self {
        let edges = path.edges().iter().map(|e| e.0).collect();
        let (codes, range) = match predicate {
            Predicate::Codes(mut codes) => {
                codes.sort_unstable();
                (codes, None)
            }
            Predicate::Range { lo, hi } => (Vec::new(), Some((lo.to_bits(), hi.to_bits()))),
        };
        Fingerprint {
            edges,
            attr: (attr.table.0, attr.col),
            codes,
            range,
        }
    }

    /// Appends the fingerprint's wire form to `out`:
    /// `Fingerprint { edges: [..], attr: (t, c), codes: [..], range: None }`,
    /// with `range: Some((lo, hi))` holding the bounds' bit patterns —
    /// byte-identical to the derived `Debug`.
    pub fn write_to(&self, out: &mut String) {
        out.push_str("Fingerprint { edges: ");
        push_list(out, &self.edges);
        out.push_str(", attr: (");
        push_decimal(out, self.attr.0.into());
        out.push_str(", ");
        push_decimal(out, self.attr.1.into());
        out.push_str("), codes: ");
        push_list(out, &self.codes);
        out.push_str(", range: ");
        match self.range {
            None => out.push_str("None"),
            Some((lo, hi)) => {
                out.push_str("Some((");
                push_decimal(out, lo);
                out.push_str(", ");
                push_decimal(out, hi);
                out.push_str("))");
            }
        }
        out.push_str(" }");
    }

    /// Appends `fps` in order as one list, `[a, b]`: a star net's
    /// `explore_key` string; its `fingerprint` string is the same list,
    /// sorted, framed by [`Fingerprint::write_list_with`] from each
    /// fingerprint's [`Fingerprint::write_to`] text. The text is
    /// byte-identical to the slice's derived `Debug`, which is kept only
    /// as this writer's test oracle.
    pub fn write_list(fps: &[Fingerprint], out: &mut String) {
        // Room for the frame, the attribute and ten digits and a
        // separator per id: one allocation for most lists.
        out.reserve(
            fps.iter()
                .map(|f| 80 + 12 * (f.edges.len() + f.codes.len()))
                .sum(),
        );
        Fingerprint::write_list_with(fps, out, Fingerprint::write_to);
    }

    /// Appends `items` in order as one list, `[a, b]`, each written by
    /// `write`: the one framing of the fingerprint lists, whether written
    /// from fingerprints or from their already-written text.
    pub fn write_list_with<T>(
        items: &[T],
        out: &mut String,
        mut write: impl FnMut(&T, &mut String),
    ) {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write(item, out);
        }
        out.push(']');
    }
}

/// Appends `xs` as `[1, 2, 3]`.
fn push_list(out: &mut String, xs: &[u32]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_decimal(out, x.into());
    }
    out.push(']');
}

/// Appends `n` in decimal. Not `write!`: through the `fmt` machinery the
/// fingerprint strings of a differentiate took 1.4–2× as long (E28).
fn push_decimal(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// A shared constraint-bitmap cache: constraint fingerprint → fact bitmap.
///
/// One instance per session deduplicates semi-join work across *all*
/// plans executed in that session — the same `(group, path)` constraint
/// appearing in dozens of candidate star nets is propagated once. A
/// bitmap is inserted whole, as soon as its step has been evaluated and
/// charged; nothing is ever evicted.
#[derive(Debug, Default)]
pub struct SemijoinCache {
    map: Mutex<HashMap<Fingerprint, Arc<RowSet>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SemijoinCache {
    /// An empty cache.
    pub fn new() -> Self {
        SemijoinCache::default()
    }

    /// Looks up a constraint's bitmap, counting a hit or a miss.
    pub fn lookup(&self, key: &Fingerprint) -> Option<Arc<RowSet>> {
        match self.map.lock().get(key) {
            Some(rows) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(rows.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a constraint's bitmap is held, without counting a hit or
    /// a miss.
    pub fn contains(&self, key: &Fingerprint) -> bool {
        self.map.lock().contains_key(key)
    }

    /// Stores a constraint's bitmap (first insert wins on a race).
    pub fn insert(&self, key: Fingerprint, rows: Arc<RowSet>) {
        self.map.lock().entry(key).or_insert(rows);
    }

    /// Hit/miss counters; evictions are always 0.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: 0,
        }
    }

    /// Number of cached bitmaps (nothing asks whether it is empty).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Container histogram over every cached row set — how the session's
    /// live constraint bitmaps compress (array/bitmap/run block counts).
    /// The bitmaps are walked after the lock is released, so a scrape
    /// never stalls a concurrent lookup or insert.
    pub fn container_histogram(&self) -> crate::bitmap::ContainerHistogram {
        let cached: Vec<Arc<RowSet>> = self.map.lock().values().cloned().collect();
        let mut h = crate::bitmap::ContainerHistogram::default();
        for rows in &cached {
            h.merge(&rows.container_histogram());
        }
        h
    }
}

/// Evaluates one selection through an optional cache (paired with the
/// selection's fingerprint), returning the fact bitmap and whether it
/// came from the cache. A freshly evaluated bitmap is charged to the
/// memory budget, then inserted whole: a breach in a later step leaves
/// only complete bitmaps behind.
fn execute_step(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    sel: &Selection,
    cache: Option<(&SemijoinCache, &Fingerprint)>,
    exec: &ExecConfig,
) -> Result<(Arc<RowSet>, bool), QueryError> {
    if let Some(rows) = cache.and_then(|(c, fp)| c.lookup(fp)) {
        return Ok((rows, true));
    }
    let rows = Arc::new(sel.try_eval(wh, jidx, origin)?);
    exec.charge("semijoin", rows.heap_bytes())?;
    if let Some((cache, fp)) = cache {
        cache.insert(fp.clone(), Arc::clone(&rows));
    }
    Ok((rows, false))
}

/// ANDs each of `conjunctions` on `origin`, returning one bitmap of
/// origin rows per conjunction, in order. Each selection
/// semi-joins down its own path into a bitmap (through `cache` when one
/// is provided), and a conjunction's bitmaps intersect. While a tree is
/// recorded, each selection adds a `semijoin` leaf, conjunction by
/// conjunction in selection order: the rows it selects on its own, its
/// cache outcome, and notes naming its attribute, join path and hit
/// count.
///
/// Selections evaluate across `exec`'s worker threads, independently:
/// the intersection is order-insensitive, so every thread count is
/// bit-identical to serial. With a cache, a selection that repeats an
/// earlier one of the call, in its own conjunction or another, is
/// neither looked up nor evaluated: it shares the earlier step's bitmap
/// and cache outcome (its leaf has wall 0), so no outcome depends on
/// which worker ran first.
pub fn and_selections(
    wh: &Warehouse,
    jidx: &JoinIndex,
    origin: TableId,
    conjunctions: &[Vec<Selection>],
    cache: Option<&SemijoinCache>,
    exec: &ExecConfig,
) -> Result<Vec<RowSet>, QueryError> {
    let n = wh.table(origin).nrows();
    let selections: Vec<&Selection> = conjunctions.iter().flatten().collect();
    let total_steps = selections.len() as u64;
    let keys: Vec<Option<Fingerprint>> = selections
        .iter()
        .map(|sel| cache.map(|_| Fingerprint::of(sel)))
        .collect();
    // The step each selection's bitmap comes from: its own, or that of
    // the first selection of the call with the same fingerprint.
    let source: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| match key {
            Some(key) => keys
                .iter()
                .position(|k| k.as_ref() == Some(key))
                .unwrap_or(i),
            None => i,
        })
        .collect();
    let steps: Vec<usize> = (0..selections.len()).filter(|&i| source[i] == i).collect();
    // Each (worker or serial) evaluation polls governance, then measures
    // its own wall time; the coordinator below records the leaves in
    // selection order, so the profile structure is identical at any
    // thread count.
    let results = par_map(exec, &steps, |_, &i| {
        let t = exec.obs.timer();
        let probe = cache.zip(keys[i].as_ref());
        let result = exec
            .check_at("semijoin", i as u64, total_steps)
            .and_then(|()| execute_step(wh, jidx, origin, selections[i], probe, exec));
        (result, t.stop())
    });
    let obs_on = exec.obs.is_enabled();
    // Metric handles hoisted out of the step loop: one registry lookup
    // per call instead of one lock + map probe per step.
    let step_hist = exec.obs.histogram_handle("query.semijoin_step_ns");
    let hit_ctr = exec.obs.counter_handle("query.step_cache_hits");
    let miss_ctr = exec.obs.counter_handle("query.step_cache_misses");
    let mut evaluated = Vec::with_capacity(steps.len());
    for (result, step_ns) in results {
        let (bitmap, cache_hit) = result?;
        if obs_on {
            if let Some(h) = &step_hist {
                h.record(step_ns);
            }
            if let Some(c) = if cache_hit { &hit_ctr } else { &miss_ctr } {
                c.add(1);
            }
        }
        evaluated.push((bitmap, cache_hit, step_ns));
    }
    let step_of = |i: usize| &evaluated[steps.partition_point(|&s| s < source[i])];
    let mut out = Vec::with_capacity(conjunctions.len());
    let mut start = 0;
    for conjunction in conjunctions {
        let mut rows = RowSet::full(n);
        for i in start..start + conjunction.len() {
            rows.intersect_with(&step_of(i).0)?;
        }
        start += conjunction.len();
        out.push(rows);
    }
    // Leaf construction only pays off while a profile is being
    // collected.
    if exec.obs.is_profiling() {
        for (i, sel) in selections.iter().enumerate() {
            let (bitmap, cache_hit, step_ns) = step_of(i);
            let hits = match &sel.predicate {
                Predicate::Codes(codes) => codes.len(),
                Predicate::Range { .. } => 1,
            };
            exec.obs.leaf(
                "semijoin",
                LeafData {
                    wall_ns: if source[i] == i { *step_ns } else { 0 },
                    rows_in: Some(n as u64),
                    rows_out: Some(bitmap.len() as u64),
                    cache: cache.map(|_| {
                        if *cache_hit {
                            CacheOutcome::Hit
                        } else {
                            CacheOutcome::Miss
                        }
                    }),
                    notes: vec![
                        ("attr".into(), wh.col_name(sel.attr)),
                        ("path".into(), sel.path.display(wh, origin)),
                        ("hits".into(), hits.to_string()),
                    ],
                },
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::paths_between;
    use kdap_warehouse::{ValueType, WarehouseBuilder};
    use proptest::prelude::*;

    /// FACT(6) → DIM(3); FACT carries a local Tag column and a Score.
    fn fixture() -> Warehouse {
        let mut b = WarehouseBuilder::new();
        b.table(
            "FACT",
            &[
                ("Id", ValueType::Int, false),
                ("DKey", ValueType::Int, false),
                ("Tag", ValueType::Str, true),
                ("Score", ValueType::Float, false),
            ],
        )
        .unwrap();
        b.table(
            "DIM",
            &[
                ("DKey", ValueType::Int, false),
                ("Name", ValueType::Str, true),
            ],
        )
        .unwrap();
        b.rows(
            "DIM",
            vec![
                vec![1i64.into(), "Widget".into()],
                vec![2i64.into(), "Gadget".into()],
                vec![3i64.into(), "Gizmo".into()],
            ],
        )
        .unwrap();
        b.rows(
            "FACT",
            vec![
                vec![0i64.into(), 1i64.into(), "hot".into(), 1.0.into()],
                vec![1i64.into(), 1i64.into(), "cold".into(), 2.0.into()],
                vec![2i64.into(), 2i64.into(), "hot".into(), 3.0.into()],
                vec![3i64.into(), 2i64.into(), "hot".into(), 4.0.into()],
                vec![4i64.into(), 3i64.into(), "cold".into(), 5.0.into()],
                vec![5i64.into(), 3i64.into(), "hot".into(), 6.0.into()],
            ],
        )
        .unwrap();
        b.edge("FACT.DKey", "DIM.DKey", None, Some("D")).unwrap();
        b.dimension("D", &["DIM"], vec![], vec![]).unwrap();
        b.fact("FACT").unwrap();
        b.finish().unwrap()
    }

    fn dim_selection(wh: &Warehouse, name: &str) -> Selection {
        let fact = wh.schema().fact_table();
        let dim = wh.table_id("DIM").unwrap();
        let path = paths_between(wh.schema(), fact, dim, 4).remove(0);
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of(name).unwrap();
        Selection::by_codes(path, attr, vec![code])
    }

    fn tag_selection(wh: &Warehouse, tag: &str) -> Selection {
        let attr = wh.col_ref("FACT", "Tag").unwrap();
        let code = wh.column(attr).dict().unwrap().code_of(tag).unwrap();
        Selection::by_codes(crate::path::JoinPath::empty(), attr, vec![code])
    }

    /// [`and_selections`] of the one conjunction `sels` on the fact table.
    fn and_one(
        wh: &Warehouse,
        jidx: &JoinIndex,
        sels: &[Selection],
        cache: Option<&SemijoinCache>,
        exec: &ExecConfig,
    ) -> Result<RowSet, QueryError> {
        let fact = wh.schema().fact_table();
        Ok(and_selections(wh, jidx, fact, &[sels.to_vec()], cache, exec)?.remove(0))
    }

    #[test]
    fn fingerprints_identify_equal_constraints() {
        let wh = fixture();
        let a = Fingerprint::of(&dim_selection(&wh, "Widget"));
        let b = Fingerprint::of(&dim_selection(&wh, "Widget"));
        let c = Fingerprint::of(&dim_selection(&wh, "Gadget"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Code order is canonicalized.
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let p = paths_between(
            wh.schema(),
            wh.schema().fact_table(),
            wh.table_id("DIM").unwrap(),
            4,
        )
        .remove(0);
        let x = Fingerprint::of(&Selection::by_codes(p.clone(), attr, vec![0, 1]));
        let y = Fingerprint::of(&Selection::by_codes(p, attr, vec![1, 0]));
        assert_eq!(x, y);
    }

    /// Fingerprints of every shape the writer must spell: 0–8 edges, 0–64
    /// codes, ids at the `u32` extremes, and ranges whose bounds are the
    /// bit patterns of ±0.0, ±∞, NaN, `u64::MAX` or anything else.
    struct Fingerprints;

    impl Strategy for Fingerprints {
        type Value = Fingerprint;

        fn generate(&self, rng: &mut TestRng) -> Fingerprint {
            fn id(rng: &mut TestRng) -> u32 {
                match rng.below(4) {
                    0 => u32::MAX - rng.below(2) as u32,
                    1 => rng.below(10) as u32,
                    _ => rng.next_u64() as u32,
                }
            }
            fn bound(rng: &mut TestRng) -> u64 {
                let specials = [
                    0.0f64.to_bits(),
                    (-0.0f64).to_bits(),
                    f64::INFINITY.to_bits(),
                    f64::NEG_INFINITY.to_bits(),
                    f64::NAN.to_bits(),
                    u64::MAX,
                ];
                match rng.below(3) {
                    0 => specials[rng.below(specials.len() as u64) as usize],
                    1 => (rng.unit_f64() * 2e6 - 1e6).to_bits(),
                    _ => rng.next_u64(),
                }
            }
            let edges = (0..rng.below(9)).map(|_| id(rng)).collect();
            let attr = (id(rng), id(rng));
            let codes = (0..rng.below(65)).map(|_| id(rng)).collect();
            let range = match rng.below(2) {
                0 => None,
                _ => Some((bound(rng), bound(rng))),
            };
            Fingerprint {
                edges,
                attr,
                codes,
                range,
            }
        }
    }

    fn check_writer(fps: &[Fingerprint]) {
        for fp in fps {
            let mut wire = String::new();
            fp.write_to(&mut wire);
            assert_eq!(wire, format!("{fp:?}"));
        }
        let mut list = String::new();
        Fingerprint::write_list(fps, &mut list);
        assert_eq!(list, format!("{fps:?}"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_writer_spells_the_debug_form(fps in collection::vec(Fingerprints, 0..4)) {
            check_writer(&fps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        #[ignore = "fuzz smoke: run with --release -- --ignored"]
        fn the_writer_spells_the_debug_form_20k(fps in collection::vec(Fingerprints, 0..4)) {
            check_writer(&fps);
        }
    }

    #[test]
    fn the_writer_covers_the_edge_shapes() {
        let mut fps = vec![Fingerprint {
            edges: Vec::new(),
            attr: (0, 0),
            codes: Vec::new(),
            range: None,
        }];
        for bits in [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN].map(f64::to_bits) {
            fps.push(Fingerprint {
                edges: (0..8).collect(),
                attr: (u32::MAX, 7),
                codes: Vec::new(),
                range: Some((bits, u64::MAX)),
            });
        }
        fps.push(Fingerprint {
            edges: vec![u32::MAX; 8],
            attr: (3, u32::MAX),
            codes: (0..63).chain([u32::MAX]).collect(),
            range: None,
        });
        check_writer(&fps);
        check_writer(&[]);
    }

    #[test]
    fn conjunction_matches_direct_evaluation() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let mut sels = vec![dim_selection(&wh, "Widget"), tag_selection(&wh, "hot")];
        let mut expect = RowSet::full(wh.fact_rows());
        for s in &sels {
            expect
                .intersect_with(&s.try_eval(&wh, &jidx, fact).unwrap())
                .unwrap();
        }
        for _ in 0..2 {
            let rows = and_one(&wh, &jidx, &sels, None, &ExecConfig::serial()).unwrap();
            assert_eq!(
                rows.iter().collect::<Vec<_>>(),
                expect.iter().collect::<Vec<_>>()
            );
            sels.reverse();
        }
    }

    #[test]
    fn fact_local_predicates_and_with_joined_ones() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let attr = wh.col_ref("FACT", "Score").unwrap();
        let range = Selection {
            path: JoinPath::empty(),
            attr,
            predicate: Predicate::Range { lo: 2.0, hi: 5.0 },
        };
        let sels = [
            tag_selection(&wh, "hot"),
            range,
            dim_selection(&wh, "Gadget"),
        ];
        let rows = and_one(&wh, &jidx, &sels, None, &ExecConfig::serial()).unwrap();
        // hot ∧ score∈[2,5] ∧ Gadget → facts 2, 3.
        assert_eq!(rows.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn cache_deduplicates_shared_steps() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let cache = SemijoinCache::new();
        let sels = [dim_selection(&wh, "Widget")];
        let serial = ExecConfig::serial();
        let a = and_one(&wh, &jidx, &sels, Some(&cache), &serial).unwrap();
        assert_eq!(cache.counters(), CacheCounters::new(0, 1, 0));
        let b = and_one(&wh, &jidx, &sels, Some(&cache), &serial).unwrap();
        // The second call's one step is served from the cache.
        assert_eq!(cache.counters(), CacheCounters::new(1, 1, 0));
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.container_histogram(),
            a.container_histogram(),
            "one cached bitmap"
        );
    }

    #[test]
    fn execution_feeds_profile_leaves() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let sels = [dim_selection(&wh, "Widget"), tag_selection(&wh, "hot")];
        let obs = kdap_obs::Obs::enabled().profiled("q");
        let exec = ExecConfig::serial().with_obs(obs.clone());
        let _ = and_one(&wh, &jidx, &sels, None, &exec).unwrap();
        let p = obs.take_profile().unwrap();
        assert_eq!(p.stage_names(), vec!["semijoin", "semijoin"]);
        assert_eq!(p.roots[0].rows_out, Some(2));
        let note = |k: &str| {
            p.roots[0]
                .notes
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(note("attr"), Some("DIM.Name"));
        assert_eq!(note("path"), Some("FACT → DIM"));
        assert_eq!(note("hits"), Some("1"));
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.histograms["query.semijoin_step_ns"].count, 2);
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let sels = [
            dim_selection(&wh, "Widget"),
            tag_selection(&wh, "hot"),
            tag_selection(&wh, "cold"),
        ];
        let serial = and_one(&wh, &jidx, &sels, None, &ExecConfig::serial()).unwrap();
        for threads in [2usize, 4] {
            let exec = ExecConfig::with_threads(threads);
            let par = and_one(&wh, &jidx, &sels, None, &exec).unwrap();
            assert_eq!(
                serial.iter().collect::<Vec<_>>(),
                par.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn steps_are_recorded_in_selection_order() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let cache = SemijoinCache::new();
        let sels = [tag_selection(&wh, "hot"), dim_selection(&wh, "Widget")];
        let obs = kdap_obs::Obs::disabled().recording("q");
        let exec = ExecConfig::serial().with_obs(obs.clone());
        and_one(&wh, &jidx, &sels, Some(&cache), &exec).unwrap();
        let steps: Vec<_> = obs
            .take_profile()
            .unwrap()
            .roots
            .iter()
            .map(|n| (n.rows_out, n.cache))
            .collect();
        // hot: 4 of 6 facts; Widget: 2 — in selection order, not by size,
        // both evaluated.
        let miss = Some(CacheOutcome::Miss);
        assert_eq!(steps, vec![(Some(4), miss), (Some(2), miss)]);
        assert_eq!(cache.counters(), CacheCounters::new(0, 2, 0));
    }

    #[test]
    fn conjunctions_share_their_repeated_steps() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        let fact = wh.schema().fact_table();
        let (widget, hot, cold) = (
            dim_selection(&wh, "Widget"),
            tag_selection(&wh, "hot"),
            tag_selection(&wh, "cold"),
        );
        let conjunctions = vec![
            vec![widget.clone(), hot.clone()],
            vec![widget.clone(), cold],
            vec![hot],
        ];
        let serial = ExecConfig::serial();
        for threads in [1usize, 4] {
            let cache = SemijoinCache::new();
            // Widget is in the cache before the call; hot and cold are not.
            and_one(
                &wh,
                &jidx,
                std::slice::from_ref(&widget),
                Some(&cache),
                &serial,
            )
            .unwrap();
            let obs = kdap_obs::Obs::enabled().profiled("q");
            let exec = ExecConfig::with_threads(threads).with_obs(obs.clone());
            let spaces =
                and_selections(&wh, &jidx, fact, &conjunctions, Some(&cache), &exec).unwrap();
            for (space, conjunction) in spaces.iter().zip(&conjunctions) {
                let alone = and_one(&wh, &jidx, conjunction, None, &serial).unwrap();
                assert_eq!(*space, alone);
            }
            // One lookup per distinct selection: Widget hits, hot and cold
            // miss (after the first call's miss).
            assert_eq!(cache.counters(), CacheCounters::new(1, 3, 0));
            let snap = obs.metrics_snapshot();
            assert_eq!(snap.counters["query.step_cache_hits"], 1);
            assert_eq!(snap.counters["query.step_cache_misses"], 2);
            // One leaf per occurrence, conjunction by conjunction; a
            // repeat shares the first occurrence's outcome at wall 0.
            let leaves = obs.take_profile().unwrap().roots;
            let seen: Vec<_> = leaves.iter().map(|n| (n.rows_out, n.cache)).collect();
            let (hit, miss) = (Some(CacheOutcome::Hit), Some(CacheOutcome::Miss));
            assert_eq!(
                seen,
                vec![
                    (Some(2), hit),
                    (Some(4), miss),
                    (Some(2), hit),
                    (Some(2), miss),
                    (Some(4), miss),
                ]
            );
            assert_eq!((leaves[2].wall_ns, leaves[4].wall_ns), (0, 0));
        }
    }

    #[test]
    fn invalid_selection_surfaces_typed_error() {
        let wh = fixture();
        let jidx = JoinIndex::build(&wh);
        // DIM attribute with an empty path: off the origin table.
        let attr = wh.col_ref("DIM", "Name").unwrap();
        let bad = [Selection::by_codes(
            crate::path::JoinPath::empty(),
            attr,
            vec![0],
        )];
        let err = and_one(&wh, &jidx, &bad, None, &ExecConfig::serial());
        assert!(matches!(err, Err(QueryError::AttrOffPathTarget { .. })));
    }
}
