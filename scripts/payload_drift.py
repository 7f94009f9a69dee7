#!/usr/bin/env python3
"""Drift table of two run directories: for each NDJSON and CSV payload found
under both, the largest change |b - a| of every numeric field over the
file's records, relative to the field's largest |a| there (inf where that
is 0 and a value changed), so that entries at rounding level near zero do
not read as large changes.

A field is a column of a CSV, or the path of a value inside an NDJSON record
(`hypothesis_bullets[3].value`); its records are the file's rows or lines.
A field that is not a number is listed only where it changed, and a file
whose records or fields differ in number or names is listed as such.

    python scripts/payload_drift.py DIR_A DIR_B
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _leaves(value, path=""):
    """(path, value) of every scalar inside a decoded JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _number(value):
    """value as a float, or None for a non-number (booleans included)."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _records(path: Path):
    """The file's records, each a dict of field -> scalar."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.DictReader(text.splitlines()))
    return [dict(_leaves(json.loads(line))) for line in text.splitlines() if line.strip()]


def drift(path_a: Path, path_b: Path) -> list:
    """[(field, largest relative change or a note)] of one payload pair."""
    ra, rb = _records(path_a), _records(path_b)
    if len(ra) != len(rb):
        return [("(records)", f"{len(ra)} against {len(rb)}")]
    change, scale, notes = {}, {}, {}
    for a, b in zip(ra, rb):
        if a.keys() != b.keys():
            return [("(fields)", f"{sorted(a.keys() ^ b.keys())} in one side only")]
        for field, va in a.items():
            na, nb = _number(va), _number(b[field])
            if na is not None and nb is not None:
                same = na == nb or (math.isnan(na) and math.isnan(nb))
                change[field] = max(change.get(field, 0.0), 0.0 if same else abs(nb - na))
                scale[field] = max(scale.get(field, 0.0), abs(na))
            elif va != b[field]:
                notes[field] = "changed"
    rel = {field: c / scale[field] if scale[field] else (math.inf if c else 0.0)
           for field, c in change.items()}
    return [(field, notes.get(field, rel.get(field))) for field in {**rel, **notes}]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    names = sorted({p.relative_to(d) for d in (args.dir_a, args.dir_b)
                    for p in d.rglob("*") if p.suffix in (".ndjson", ".csv")})
    for name in names:
        a, b = args.dir_a / name, args.dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}\t(only in {args.dir_a if a.is_file() else args.dir_b})")
            continue
        for field, w in drift(a, b):
            print(f"{name}\t{field}\t{w:.3g}" if isinstance(w, float) else f"{name}\t{field}\t{w}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
