//! Shared test support: the key-walking join resolver, the
//! row-at-a-time net and aggregation oracles built on it, the
//! AW_ONLINE workload fixture the equivalence suites sweep, and the one
//! way every suite turns keywords into ranked star nets.
//!
//! The oracle is the engine's single-attribute group-by in its plainest
//! form — one attribute, one row at a time through the public per-row
//! accessors (`RowSet::iter_word_range`, `Column::get_int`/`get_code`/
//! `get_float`, `Warehouse::eval_measure`): no batches, no predecoded
//! columns, no gather or unpack kernels, no threads, and no
//! [`JoinIndex`] — joins follow key *values* through [`KeyWalker`], so
//! the engine's row-id index is compared against key semantics rather
//! than against itself. It keeps exactly one thing in
//! common with `multi_group_by_exec`, because it is the engine's
//! documented floating-point contract: rows accumulate in ascending order
//! within fixed [`CHUNK_WORDS`]-word (8192-row) chunks of the bitmap, and
//! the per-chunk partials merge in chunk order.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use kdap_suite::core::phrase::merged_group_pool;
use kdap_suite::core::{
    build_hit_sets, numeric_groups, Constraint, GenConfig, HitGroup, Kdap, QueryRequest,
    RankedStarNet, Refine, StarNet, Verb,
};
use kdap_suite::datagen::{build_aw_online, generate_workload, Scale, WorkloadConfig};
use kdap_suite::obs::{json_string, Obs};
use kdap_suite::query::{
    fact_paths_by_table, AggFunc, Bucketizer, FacetSpec, Fingerprint, Fold, JoinPath, JoinedColumn,
    Predicate, RowSet, Selection, MAX_PATH_LEN,
};
use kdap_suite::textindex::TextIndex;
use kdap_suite::warehouse::{
    AttrKind, ColRef, EdgeId, Measure, TableId, Value, ValueType, Warehouse, WarehouseBuilder,
    WarehouseError,
};

/// The ranked interpretations of `keywords`: [`Kdap::run`] with
/// `differentiate`. Panics on a typed error (an empty or stopword-only
/// query, a governance breach), which a caller that expects one checks
/// through `run` itself.
pub fn differentiate(kdap: &Kdap, keywords: &str) -> Vec<RankedStarNet> {
    kdap.run(&QueryRequest::new(Verb::Differentiate, keywords))
        .unwrap_or_else(|err| panic!("`{keywords}` differentiates: {err}"))
        .ranked
}

/// A net's `display` as each net wrote its own before a request's
/// summaries shared their constraints' text: every constraint's
/// `Constraint::display`, in net order, joined by `  ⋈  `. The oracle
/// of `StarNet::display` and of the summaries' `display` strings.
pub fn reference_net_display(wh: &Warehouse, net: &StarNet) -> String {
    net.constraints
        .iter()
        .map(|c| c.display(wh))
        .collect::<Vec<_>>()
        .join("  ⋈  ")
}

/// Star-net generation as it was before candidates were deduplicated on
/// interned fingerprint ids: every candidate of every seed is built in
/// full, and its key is its constraints' `Fingerprint`s of their
/// `selection()`s, sorted. The first candidate per key is kept, in
/// generation order, up to `cfg.max_star_nets`. The reference the
/// production `try_generate_star_nets` is compared against.
pub fn reference_star_nets(
    wh: &Warehouse,
    index: &TextIndex,
    keywords: &[&str],
    cfg: &GenConfig,
) -> Vec<StarNet> {
    let obs = Obs::disabled();
    let hit_sets = build_hit_sets(index, keywords, &cfg.hit, &obs);
    let mut pool = merged_group_pool(index, &hit_sets, &obs);
    for (ki, hs) in hit_sets.iter().enumerate() {
        pool.extend(numeric_groups(wh, &hs.keyword, ki, &cfg.numeric));
    }
    let mut coverable: Vec<usize> = pool.iter().flat_map(|g| g.keywords.clone()).collect();
    coverable.sort_unstable();
    coverable.dedup();
    let mut seeds = Vec::new();
    if !coverable.is_empty() {
        exact_covers(&pool, &coverable, 0, &mut Vec::new(), &mut seeds);
    }
    let fact_paths = fact_paths_by_table(wh.schema(), cfg.max_path_len);
    let mut nets: Vec<StarNet> = Vec::new();
    let mut seen: HashSet<Vec<Fingerprint>> = HashSet::new();
    for seed in seeds {
        let Some(options) = seed
            .iter()
            .map(|g| fact_paths.get(&g.attr.table))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let mut indices = vec![0usize; seed.len()];
        loop {
            let net = StarNet {
                constraints: seed
                    .iter()
                    .zip(&options)
                    .zip(&indices)
                    .map(|((g, paths), &pi)| Constraint {
                        group: Arc::new((*g).clone()),
                        path: paths[pi].clone(),
                    })
                    .collect(),
            };
            let mut key: Vec<Fingerprint> = net
                .constraints
                .iter()
                .map(|c| Fingerprint::of(&c.selection()))
                .collect();
            key.sort();
            if seen.insert(key) {
                nets.push(net);
                if nets.len() >= cfg.max_star_nets {
                    return nets;
                }
            }
            // Odometer increment over path choices.
            let mut i = 0;
            while i < indices.len() {
                indices[i] += 1;
                if indices[i] < options[i].len() {
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
    nets
}

/// The exact covers of `coverable` by pool groups, in backtracking order.
fn exact_covers<'a>(
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
    for g in pool {
        if !g.keywords.contains(&coverable[next])
            || g.keywords.iter().any(|k| coverable[..next].contains(k))
        {
            continue;
        }
        let advance = g
            .keywords
            .iter()
            .filter(|k| coverable[next..].contains(k))
            .count();
        chosen.push(g);
        exact_covers(pool, coverable, next + advance, chosen, out);
        chosen.pop();
    }
}

/// Resolves joins by key value: a child row's FK is read with `get_int`
/// and looked up among the parent column's keys (one `get_int` pass per
/// edge at construction). Shares nothing with `JoinIndex`.
pub struct KeyWalker<'a> {
    /// The warehouse walked.
    pub wh: &'a Warehouse,
    /// Per edge: parent key → the parent row holding it.
    parent_row_of_key: Vec<HashMap<i64, usize>>,
}

impl<'a> KeyWalker<'a> {
    /// Reads every edge's parent key column. A repeated key has no
    /// row-level meaning for a join, so it panics.
    pub fn new(wh: &'a Warehouse) -> Self {
        let parent_row_of_key = wh
            .schema()
            .edges()
            .iter()
            .map(|edge| {
                let keys = wh.column(edge.parent);
                let mut rows = HashMap::new();
                for row in 0..keys.len() {
                    if let Some(key) = keys.get_int(row) {
                        assert!(rows.insert(key, row).is_none(), "key {key} repeats");
                    }
                }
                rows
            })
            .collect();
        KeyWalker {
            wh,
            parent_row_of_key,
        }
    }

    /// The row of `path`'s target table that `row` of its origin table
    /// joins to; `None` on a NULL key along the way.
    pub fn resolve(&self, path: &JoinPath, row: usize) -> Option<usize> {
        path.edges().iter().try_fold(row, |at, &eid| {
            let key = self
                .wh
                .column(self.wh.schema().edge(eid).child)
                .get_int(at)?;
            self.parent_row_of_key[eid.0 as usize].get(&key).copied()
        })
    }
}

/// The fact rows `net` selects, in ascending order, decided one row at a
/// time: a row qualifies when, for every constraint, the row its join
/// path reaches by key value ([`KeyWalker::resolve`]) satisfies the
/// constraint's predicate. No `JoinIndex`, no `RowSet` intersection.
pub fn net_rows(keys: &KeyWalker, net: &StarNet) -> Vec<usize> {
    let selections: Vec<Selection> = net.constraints.iter().map(|c| c.selection()).collect();
    (0..keys.wh.fact_rows())
        .filter(|&row| selections.iter().all(|sel| selects(keys, sel, row)))
        .collect()
}

/// Does fact row `row` satisfy `sel`?
fn selects(keys: &KeyWalker, sel: &Selection, row: usize) -> bool {
    let Some(target) = keys.resolve(&sel.path, row) else {
        return false;
    };
    let col = keys.wh.column(sel.attr);
    match &sel.predicate {
        Predicate::Codes(codes) => col.get_code(target).is_some_and(|c| codes.contains(&c)),
        Predicate::Range { lo, hi } => col.get_float(target).is_some_and(|v| *lo <= v && v <= *hi),
    }
}

/// Bitmap words per accumulation chunk (8192 rows).
const CHUNK_WORDS: usize = 128;

/// The word ranges of `rows`' bitmap, one per chunk, in order.
fn chunks(rows: &RowSet) -> impl Iterator<Item = std::ops::Range<usize>> {
    let n = rows.n_words();
    (0..n)
        .step_by(CHUNK_WORDS)
        .map(move |w| w..(w + CHUNK_WORDS).min(n))
}

/// The oracle's state of one group: every aggregate any fold of the
/// engine keeps, at once, and the rows that reached the group.
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    /// Running sum.
    pub sum: f64,
    /// Number of measure values fed.
    pub count: u64,
    /// Smallest value seen (+∞ when empty).
    pub min: f64,
    /// Largest value seen (−∞ when empty).
    pub max: f64,
    /// Rows that reached the group, measure-null or not.
    pub rows: u64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rows: 0,
        }
    }
}

impl Accumulator {
    /// Counts one row that reached the group and feeds its measure value,
    /// when it has one.
    pub fn add_row(&mut self, measure: Option<f64>) {
        self.rows += 1;
        if let Some(v) = measure {
            self.sum += v;
            self.count += 1;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Folds another chunk's accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.rows += other.rows;
    }

    /// The value a scan under `fold` keeps for this group.
    pub fn folded(&self, fold: Fold) -> f64 {
        match fold {
            Fold::Sum => self.sum,
            Fold::Min => self.min,
            Fold::Max => self.max,
        }
    }

    /// Final aggregate under `func`, with SQL's empty-group semantics
    /// (SUM/COUNT 0, AVG/MIN/MAX NaN).
    pub fn finish(&self, func: AggFunc) -> f64 {
        match func {
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            _ if self.count == 0 => f64::NAN,
            AggFunc::Avg => self.sum / self.count as f64,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
        }
    }
}

/// The bit patterns a scan under `fold` must reproduce: count and rows
/// always, and the folded value.
pub fn bits(acc: &Accumulator, fold: Fold) -> (u64, u64, u64) {
    (acc.count, acc.rows, acc.folded(fold).to_bits())
}

/// The measure accumulated over an entire row set (every row counts as
/// a row of the one group).
pub fn aggregate_total(wh: &Warehouse, measure: &Measure, rows: &RowSet) -> Accumulator {
    let mut total = Accumulator::default();
    for chunk in chunks(rows) {
        let mut partial = Accumulator::default();
        for row in rows.iter_word_range(chunk) {
            partial.add_row(wh.eval_measure(measure, row));
        }
        total.merge(&partial);
    }
    total
}

/// Groups `rows` (origin-table rows) by the dictionary code of `attr`
/// reached via `path`, accumulating the measure. Rows with NULL joins or
/// NULL attribute values are skipped; a row with a NULL measure counts
/// for its group's rows only.
pub fn group_by_categorical(
    keys: &KeyWalker,
    path: &JoinPath,
    attr: ColRef,
    rows: &RowSet,
    measure: &Measure,
) -> HashMap<u32, Accumulator> {
    let wh = keys.wh;
    let col = wh.column(attr);
    let mut merged: HashMap<u32, Accumulator> = HashMap::new();
    for chunk in chunks(rows) {
        let mut partial: HashMap<u32, Accumulator> = HashMap::new();
        for row in rows.iter_word_range(chunk) {
            let Some(code) = keys.resolve(path, row).and_then(|t| col.get_code(t)) else {
                continue;
            };
            partial
                .entry(code)
                .or_default()
                .add_row(wh.eval_measure(measure, row));
        }
        for (code, acc) in partial {
            merged.entry(code).or_default().merge(&acc);
        }
    }
    merged
}

/// Groups `rows` by bucketized numeric value of `attr` via `path`,
/// accumulating the measure: one accumulator per bucket.
pub fn group_by_buckets(
    keys: &KeyWalker,
    path: &JoinPath,
    attr: ColRef,
    rows: &RowSet,
    measure: &Measure,
    buckets: &Bucketizer,
) -> Vec<Accumulator> {
    let wh = keys.wh;
    let col = wh.column(attr);
    let mut merged = vec![Accumulator::default(); buckets.n_buckets()];
    for chunk in chunks(rows) {
        let mut partial = vec![Accumulator::default(); buckets.n_buckets()];
        for row in rows.iter_word_range(chunk) {
            let Some(b) = keys
                .resolve(path, row)
                .and_then(|t| col.get_float(t))
                .and_then(|v| buckets.bucket_of(v))
            else {
                continue;
            };
            partial[b].add_row(wh.eval_measure(measure, row));
        }
        for (m, p) in merged.iter_mut().zip(&partial) {
            m.merge(p);
        }
    }
    merged
}

/// The numeric values of `attr` observed across `rows` via `path` (the
/// domain the bucketizer spans — "the set of all distinct values
/// projected from DS′", §5.2).
pub fn project_numeric(keys: &KeyWalker, path: &JoinPath, attr: ColRef, rows: &RowSet) -> Vec<f64> {
    let col = keys.wh.column(attr);
    rows.iter()
        .filter_map(|row| keys.resolve(path, row).and_then(|t| col.get_float(t)))
        .collect()
}

/// The sorted distinct dictionary codes of `attr` observed across `rows`
/// via `path` (DOM(DS′, attr), §5.2).
pub fn project_categorical(
    keys: &KeyWalker,
    path: &JoinPath,
    attr: ColRef,
    rows: &RowSet,
) -> Vec<u32> {
    let col = keys.wh.column(attr);
    let seen: BTreeSet<u32> = rows
        .iter()
        .filter_map(|row| keys.resolve(path, row).and_then(|t| col.get_code(t)))
        .collect();
    seen.into_iter().collect()
}

/// The bucketizers a float attribute is scanned under, given the values
/// `rows` project: 8 equal-width buckets over the observed domain, one
/// bucket per distinct value, and 5 equal-width buckets over the middle
/// half of the sorted finite values — which leaves some values outside
/// its `[min, max]`. None when no value is finite.
fn bucketizers_for(values: &[f64]) -> Vec<Bucketizer> {
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let inner = (!finite.is_empty()).then(|| Bucketizer::EqualWidth {
        min: finite[finite.len() / 4],
        max: finite[finite.len() * 3 / 4],
        n: 5,
    });
    [
        Bucketizer::equal_width(values.iter().copied(), 8),
        Bucketizer::per_distinct(values.iter().copied()),
        inner,
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Every categorical and float attribute reachable from the fact table
/// as one spec list (plus a Total), each tagged with the join path the
/// oracle walks. Float attributes contribute a domain spec and, when
/// they have a finite value in `rows`, one bucket spec per
/// [`bucketizers_for`] arm.
pub fn candidate_specs(kdap: &Kdap, keys: &KeyWalker, rows: &RowSet) -> Vec<(JoinPath, FacetSpec)> {
    let wh = kdap.warehouse();
    let jidx = kdap.join_index();
    let schema = wh.schema();
    let fact = schema.fact_table();
    let by_table = fact_paths_by_table(schema, MAX_PATH_LEN);
    let mut out = vec![(JoinPath::empty(), FacetSpec::Total)];
    for t in 0..wh.tables().len() as u32 {
        let tid = TableId(t);
        if tid == fact {
            continue;
        }
        let Some(path) = by_table.get(&tid).and_then(|paths| paths.first()) else {
            continue;
        };
        let mapper = jidx.row_mapper(path);
        for (c, col) in wh.tables()[t as usize].columns().iter().enumerate() {
            let attr = ColRef::new(tid, c as u32);
            if col.dict().is_none() && col.value_type() != ValueType::Float {
                continue;
            }
            let column: Arc<JoinedColumn> = JoinedColumn::new(wh, attr, &mapper).into();
            if col.dict().is_some() {
                out.push((
                    path.clone(),
                    FacetSpec::Categorical {
                        attr,
                        column: Arc::clone(&column),
                    },
                ));
            } else if col.value_type() == ValueType::Float {
                out.push((
                    path.clone(),
                    FacetSpec::NumericDomain {
                        attr,
                        column: Arc::clone(&column),
                    },
                ));
                let values = project_numeric(keys, path, attr, rows);
                for buckets in bucketizers_for(&values) {
                    out.push((
                        path.clone(),
                        FacetSpec::Buckets {
                            attr,
                            column: Arc::clone(&column),
                            buckets,
                        },
                    ));
                }
            }
        }
    }
    out
}

/// Scans that exercise the group-by's row-major loop per first edge, as
/// lists of indices into `tagged` (a [`candidate_specs`] list, in scan
/// order): one to nine specs that read through the first edge with the
/// most candidates (cycling through them, a spec repeated when there are
/// fewer); then every spec, the first edges interleaved in spec order,
/// the total first.
pub fn spec_layouts(tagged: &[(JoinPath, FacetSpec)]) -> Vec<Vec<usize>> {
    let mut by_edge: BTreeMap<Option<EdgeId>, Vec<usize>> = BTreeMap::new();
    let mut totals = Vec::new();
    for (i, (path, spec)) in tagged.iter().enumerate() {
        match spec {
            FacetSpec::Total => totals.push(i),
            _ => by_edge
                .entry(path.edges().first().copied())
                .or_default()
                .push(i),
        }
    }
    let mut layouts = Vec::new();
    if let Some(widest) = by_edge.values().max_by_key(|specs| specs.len()) {
        for n in 1..=9 {
            layouts.push((0..n).map(|k| widest[k % widest.len()]).collect());
        }
    }
    let longest = by_edge.values().map(Vec::len).max().unwrap_or(0);
    let mut interleaved = totals;
    for k in 0..longest {
        interleaved.extend(by_edge.values().filter_map(|specs| specs.get(k)));
    }
    layouts.push(interleaved);
    layouts
}

/// Row sets that exercise the group-by's 8,192-row chunks, over
/// universes of one, two and three chunks (as far as `n` facts reach;
/// `null_measure` says which facts have a NULL measure). Per universe: a
/// pattern whose chunks cycle through rows with no NULL measure, no row
/// and every fifth row, so an empty chunk lies between two non-empty ones
/// and a chunk without a NULL measure beside one that may hold some; and
/// the same cycle one chunk on.
pub fn chunk_shapes(n: usize, null_measure: impl Fn(usize) -> bool) -> Vec<RowSet> {
    const CHUNK_ROWS: usize = 8192;
    let mut universes = vec![n.min(CHUNK_ROWS / 2), n.min(CHUNK_ROWS + 700), n];
    universes.dedup();
    let mut shapes = Vec::new();
    for universe in universes {
        for shift in 0..2 {
            let keep = |r: usize| match (r / CHUNK_ROWS + shift) % 3 {
                0 => !null_measure(r) && r.is_multiple_of(3),
                1 => false,
                _ => r.is_multiple_of(5),
            };
            shapes.push(RowSet::from_rows(
                universe,
                (0..universe).filter(|&r| keep(r)),
            ));
        }
    }
    shapes
}

/// The JSON array a client sends as a request's `refine` field.
pub fn refine_json(steps: &[Refine]) -> String {
    let steps: Vec<String> = steps
        .iter()
        .map(|step| match step {
            Refine::Drill {
                dimension,
                attr,
                value,
            } => format!(
                "{{\"drill\": {{\"dimension\": {}, \"attr\": {}, \"value\": {}}}}}",
                json_string(dimension),
                json_string(attr),
                json_string(value)
            ),
            Refine::Up(n) => format!("{{\"up\": {n}}}"),
            Refine::Drop(n) => format!("{{\"drop\": {n}}}"),
        })
        .collect();
    format!("[{}]", steps.join(", "))
}

/// AW_ONLINE small (seed 42) behind a serial and a four-thread session,
/// with the candidate star nets of the default workload.
pub struct Workload {
    /// Session at `threads = 1`.
    pub serial: Kdap,
    /// Session at `threads = 4` over an identical build.
    pub threaded: Kdap,
    /// The keyword text and ranked nets of every query that has any.
    pub queries: Vec<(String, Vec<StarNet>)>,
}

impl Workload {
    /// The session at the given thread count (1 or 4).
    pub fn session(&self, threads: usize) -> &Kdap {
        match threads {
            1 => &self.serial,
            4 => &self.threaded,
            _ => panic!("the fixture holds sessions at 1 and 4 threads"),
        }
    }

    /// The candidate nets of query `idx` (modulo the workload size).
    pub fn nets(&self, idx: usize) -> &[StarNet] {
        &self.queries[idx % self.queries.len()].1
    }
}

/// The `Item.Weight` values of [`hostile_floats`], one per item row.
const HOSTILE_WEIGHTS: [Option<f64>; 12] = [
    None,
    Some(f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
    Some(-0.0),
    Some(0.0),
    Some(1.5),
    Some(2.5),
    Some(-3.25),
    Some(1e9),
    Some(7.0),
    Some(1.5),
];

/// `Maker.Rating`, one per maker row of [`hostile_floats`].
const HOSTILE_RATINGS: [Option<f64>; 4] = [Some(2.5), None, Some(-0.0), Some(9.0)];

/// A one-dimension snowflake whose float attribute `Item.Weight` holds
/// every value a bucket code must survive: NULL, NaN, ±∞, −0.0 beside
/// +0.0, a duplicate, and values [`bucketizers_for`]'s middle-half arm
/// leaves outside its domain. Its 20,000 facts span three 8192-row
/// chunks; every seventh has a NULL foreign key and every eleventh a
/// NULL measure. Every third item has a NULL `MakerKey`, so the path to
/// `Maker` dead-ends on its tail hop as well as on its first.
pub fn hostile_floats() -> &'static Kdap {
    static SESSION: OnceLock<Kdap> = OnceLock::new();
    SESSION.get_or_init(|| {
        let build = || -> Result<Warehouse, WarehouseError> {
            let mut b = WarehouseBuilder::new();
            b.table(
                "Maker",
                &[
                    ("MakerKey", ValueType::Int, false),
                    ("Name", ValueType::Str, true),
                    ("Rating", ValueType::Float, false),
                ],
            )?;
            for (m, r) in HOSTILE_RATINGS.iter().enumerate() {
                let name = if m == 3 {
                    Value::Null
                } else {
                    format!("maker {m}").into()
                };
                let rating = r.map_or(Value::Null, Value::Float);
                b.row("Maker", vec![(m as i64).into(), name, rating])?;
            }
            b.table(
                "Item",
                &[
                    ("ItemKey", ValueType::Int, false),
                    ("Label", ValueType::Str, true),
                    ("Weight", ValueType::Float, false),
                    ("MakerKey", ValueType::Int, false),
                ],
            )?;
            for (i, w) in HOSTILE_WEIGHTS.iter().enumerate() {
                let weight = w.map_or(Value::Null, Value::Float);
                let maker = if i % 3 == 2 {
                    Value::Null
                } else {
                    ((i % 4) as i64).into()
                };
                b.row(
                    "Item",
                    vec![(i as i64).into(), format!("item {i}").into(), weight, maker],
                )?;
            }
            b.table(
                "Sale",
                &[
                    ("SaleKey", ValueType::Int, false),
                    ("ItemKey", ValueType::Int, false),
                    ("Amount", ValueType::Float, false),
                ],
            )?;
            for r in 0..20_000i64 {
                let item = if r % 7 == 3 {
                    Value::Null
                } else {
                    ((r * 5) % 12).into()
                };
                let amount = if r % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float((r % 97) as f64 * 0.25 - 3.0)
                };
                b.row("Sale", vec![r.into(), item, amount])?;
            }
            b.edge("Sale.ItemKey", "Item.ItemKey", None, Some("Item"))?;
            b.edge("Item.MakerKey", "Maker.MakerKey", None, None)?;
            b.dimension(
                "Item",
                &["Item", "Maker"],
                vec![],
                vec![
                    ("Item.Label", AttrKind::Categorical),
                    ("Item.Weight", AttrKind::Numerical),
                    ("Maker.Name", AttrKind::Categorical),
                    ("Maker.Rating", AttrKind::Numerical),
                ],
            )?;
            b.fact("Sale")?;
            b.measure_column("Amount", "Sale.Amount")?;
            b.finish()
        };
        Kdap::builder(build().expect("valid star"))
            .build()
            .expect("measure defined")
    })
}

/// One build per test binary, shared by every proptest case.
pub fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let session = |threads: usize| {
            Kdap::builder(build_aw_online(Scale::small(), 42).expect("generator is valid"))
                .threads(threads)
                .observability(true)
                .build()
                .expect("measure defined")
        };
        let serial = session(1);
        let queries = generate_workload(serial.warehouse(), &WorkloadConfig::default())
            .iter()
            .map(|q| {
                let nets: Vec<StarNet> = differentiate(&serial, &q.text())
                    .into_iter()
                    .map(|r| r.net)
                    .collect();
                (q.text(), nets)
            })
            .filter(|(_, nets)| !nets.is_empty())
            .collect();
        Workload {
            serial,
            threaded: session(4),
            queries,
        }
    })
}
