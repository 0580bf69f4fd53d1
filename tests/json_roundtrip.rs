//! The JSON writer against the request parser: every tree the writer
//! forms, in either layout, parses back to the same tree.
//!
//! Generated trees carry strings with every control character, `"`,
//! `\`, U+2028, U+2029 and astral code points; the finite `f64` edge
//! cases (`-0.0`, subnormals, `f64::MAX`, integers above 2^53) compared
//! bit for bit; non-finite numbers, which must come back as `null`; and
//! nesting down to the parser's depth limit. Every committed golden
//! document must parse too.
//!
//! The loop runs at a tier-1 case count by default; an `#[ignore]`d copy
//! runs 20,000 cases (`cargo test --release --test json_roundtrip --
//! --ignored`).

use std::path::PathBuf;

use proptest::prelude::*;

use kdap_suite::core::api::json::{parse, Json};
use kdap_suite::obs::{JsonWriter, Layout};

/// The parser's `MAX_DEPTH`: a root container plus 32 nested levels
/// parse, one more is refused.
const MAX_DEPTH: usize = 32;

/// Characters a generated string is drawn from.
fn pick_char(rng: &mut TestRng) -> char {
    const SPECIAL: &[char] = &[
        '"',
        '\\',
        '/',
        '\u{7f}',
        '\u{2028}',
        '\u{2029}',
        'é',
        '→',
        '∅',
        '𝄞',
        '😀',
        '\u{10ffff}',
    ];
    match rng.below(4) {
        0 => char::from(rng.below(0x20) as u8),
        1 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
        _ => char::from(b' ' + rng.below(95) as u8),
    }
}

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| pick_char(rng)).collect()
}

fn number(rng: &mut TestRng) -> f64 {
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        5e-324,
        -2.5e-320,
        2.2250738585072014e-308,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        9_007_199_254_740_994.0,
        18_446_744_073_709_551_616.0,
        -1e300,
        0.1,
        1.0,
        -42.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => f64::from_bits(rng.next_u64()),
        _ => (rng.next_u64() >> rng.below(64)) as f64 * if rng.below(2) == 0 { 1.0 } else { -0.5 },
    }
}

/// A random tree; on a `spine` every container holds one child that
/// nests one level deeper, down to the depth limit.
fn tree(rng: &mut TestRng, depth: usize, spine: bool) -> Json {
    let nest = depth < MAX_DEPTH;
    let kind = if spine && nest {
        5 + rng.below(2)
    } else {
        rng.below(if nest && depth < 4 { 7 } else { 5 })
    };
    let children = |rng: &mut TestRng| -> Vec<Json> {
        let n = rng.below(4) as usize;
        let deep = spine.then(|| rng.below(n as u64 + 1) as usize);
        (0..=n)
            .filter(|&i| i < n || deep.is_some())
            .map(|i| tree(rng, depth + 1, deep == Some(i)))
            .collect()
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 0),
        2 => Json::Num(number(rng)),
        3 | 4 => Json::Str(string(rng)),
        5 => Json::Arr(children(rng)),
        _ => Json::Obj(
            children(rng)
                .into_iter()
                .map(|v| (string(rng), v))
                .collect(),
        ),
    }
}

/// What the parser must return for `v`: a non-finite number is `null`.
fn expected(v: &Json) -> Json {
    match v {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Arr(items) => Json::Arr(items.iter().map(expected).collect()),
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), expected(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Equality with numbers compared bit for bit, so `-0.0` is not `0.0`.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

fn write(w: &mut JsonWriter, v: &Json, rng: &mut TestRng) {
    let layout = if rng.below(2) == 0 {
        Layout::Block
    } else {
        Layout::Inline
    };
    match v {
        Json::Null => {
            w.null();
        }
        Json::Bool(b) => {
            w.bool(*b);
        }
        Json::Num(n) => {
            w.f64(*n);
        }
        Json::Str(s) => {
            w.str(s);
        }
        Json::Arr(items) => {
            w.array(layout, |w| items.iter().for_each(|v| write(w, v, rng)));
        }
        Json::Obj(fields) => {
            w.object(layout, |w| {
                for (k, v) in fields {
                    w.key(k);
                    write(w, v, rng);
                }
            });
        }
    }
}

/// A generated tree and the seed its layouts are drawn from.
struct Case;

impl Strategy for Case {
    type Value = (Json, u64);

    fn generate(&self, rng: &mut TestRng) -> (Json, u64) {
        let spine = rng.below(8) == 0;
        (tree(rng, 0, spine), rng.next_u64())
    }
}

fn check_round_trip((tree, seed): &(Json, u64)) {
    let mut out = String::new();
    write(
        &mut JsonWriter::new(&mut out),
        tree,
        &mut TestRng::for_case("layout", *seed),
    );
    let back = parse(&out).unwrap_or_else(|e| panic!("{e} in {out}"));
    assert!(same(&back, &expected(tree)), "{out}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn every_written_tree_parses_back_to_itself(case in Case) {
        check_round_trip(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "fuzz smoke: run with --release -- --ignored"]
    fn every_written_tree_parses_back_to_itself_20k(case in Case) {
        check_round_trip(&case);
    }
}

#[test]
fn the_generator_reaches_the_limits() {
    let mut rng = TestRng::for_case("limits", 0);
    let (mut max_depth, mut controls, mut non_finite) = (0, [false; 0x20], false);
    fn mark(s: &str, ctl: &mut [bool; 0x20]) {
        for c in s.chars().filter(|c| (*c as u32) < 0x20) {
            ctl[c as usize] = true;
        }
    }
    fn walk(v: &Json, depth: usize, max: &mut usize, ctl: &mut [bool; 0x20], nf: &mut bool) {
        *max = (*max).max(depth);
        match v {
            Json::Str(s) => mark(s, ctl),
            Json::Num(n) => *nf |= !n.is_finite(),
            Json::Arr(items) => items.iter().for_each(|v| walk(v, depth + 1, max, ctl, nf)),
            Json::Obj(fields) => fields.iter().for_each(|(k, v)| {
                mark(k, ctl);
                walk(v, depth + 1, max, ctl, nf);
            }),
            _ => {}
        }
    }
    for _ in 0..2_000 {
        let (tree, _) = Case.generate(&mut rng);
        walk(&tree, 0, &mut max_depth, &mut controls, &mut non_finite);
    }
    assert_eq!(max_depth, MAX_DEPTH, "a spine reaches the parser's limit");
    assert!(controls.iter().all(|&c| c), "every control character");
    assert!(non_finite);
}

#[test]
fn every_golden_document_parses() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut parsed = 0;
    for dir in ["wire", "docs"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let docs: Vec<&str> = match path.extension().and_then(|e| e.to_str()) {
                Some("json") => vec![&text],
                Some("jsonl") => text.lines().collect(),
                _ => continue,
            };
            for doc in docs {
                parse(doc).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                parsed += 1;
            }
        }
    }
    assert!(parsed >= 24, "{parsed} documents");
}
