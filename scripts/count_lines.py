#!/usr/bin/env python3
"""Counts the non-test Rust lines of each workspace crate.

A line counts when it is not blank and sits in a `crates/<name>/src`
file before that file's first column-0 `#[cfg(test)]`. A column-0
`#[cfg(test)]` directly above `mod <name>;` declares a test-only module:
that declaration does not end the file's count, and the module's own
file (`<name>.rs` or `<name>/mod.rs`) is skipped whole.

    python3 scripts/count_lines.py [repo root]

prints one row per crate: its lines, and how many of them declare a
`pub fn` and a `pub mod`; then the engine crates' sums (obs, warehouse,
textindex, query, core) and the workspace totals. It gates nothing.
"""

import pathlib
import re
import sys

ENGINE = ("obs", "warehouse", "textindex", "query", "core")
TEST_MOD = re.compile(r"\s*(?:pub(?:\([a-z]+\))?\s+)?mod\s+(\w+)\s*;")
PUB_FN = re.compile(r"\s*pub (?:const )?fn ")
PUB_MOD = re.compile(r"\s*pub mod ")


def count_file(path, skipped):
    """(lines, pub fns, pub mods) of `path` before its first column-0
    `#[cfg(test)]`; adds the files of the test-only modules it declares
    to `skipped`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    n = [0, 0, 0]
    i = 0
    while i < len(lines):
        if lines[i].rstrip() == "#[cfg(test)]":
            declared = TEST_MOD.fullmatch(lines[i + 1]) if i + 1 < len(lines) else None
            if not declared:
                break
            # A module file sits beside `lib.rs`/`main.rs`/`mod.rs`, or in
            # the directory named after any other declaring file.
            base = path.parent if path.stem in ("lib", "main", "mod") else path.with_suffix("")
            name = declared.group(1)
            skipped.update({base / f"{name}.rs", base / name / "mod.rs"})
            i += 2
            continue
        n[0] += bool(lines[i].strip())
        n[1] += bool(PUB_FN.match(lines[i]))
        n[2] += bool(PUB_MOD.match(lines[i]))
        i += 1
    return n


def count_crate(src):
    files = sorted(src.rglob("*.rs"))
    skipped = set()
    counts = {f: count_file(f, skipped) for f in files}
    kept = [n for f, n in counts.items() if f not in skipped]
    return [sum(column) for column in zip(*kept)]


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    crates = sorted(p for p in (root / "crates").iterdir() if (p / "src").is_dir())
    counts = {c.name: count_crate(c / "src") for c in crates}
    engine = [counts[c] for c in ENGINE if c in counts]
    rows = list(counts.items()) + [
        ("engine", [sum(column) for column in zip(*engine)]),
        ("total", [sum(column) for column in zip(*counts.values())]),
    ]
    print(f"{'crate':<10} {'lines':>6} {'pub fn':>6} {'pub mod':>7}")
    for name, (lines, pub_fns, pub_mods) in rows:
        print(f"{name:<10} {lines:>6} {pub_fns:>6} {pub_mods:>7}")


if __name__ == "__main__":
    main()
