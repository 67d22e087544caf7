#!/usr/bin/env python3
"""Compare two CLI output trees (``--out`` directories) file by file.

Prints a markdown table with one row per file found in either tree: the
largest relative difference over the float fields and the field attaining
it (a difference of nearly equal numbers, such as a step norm, shows the
rounding of its terms magnified), the integer fields that
changed (iteration counts, CSV row counts and list lengths), and any other
field that changed or exists in one tree only.  JSON documents are compared
field by field along their key paths, CSV files cell by cell under their
header; other files only byte for byte.

Usage:
    python scripts/diff_outputs.py RESULTS_A RESULTS_B

Exit status 0 when the trees are byte-identical, 1 when any file differs.
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

MISSING = object()


def _flatten(doc, key=""):
    """(key path, leaf) pairs of a JSON document; a list also yields its length."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _flatten(v, f"{key}.{k}" if key else k)
    elif isinstance(doc, list):
        yield f"len({key})", len(doc)
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{key}[{i}]")
    else:
        yield key, doc


def _cell(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def fields(path: Path) -> dict:
    """The comparable fields of one output file: key path -> value."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return dict(_flatten(json.loads(text)))
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        out = {"rows": len(rows)}
        for i, row in enumerate(rows):
            out.update((f"{col}[{i}]", _cell(v)) for col, v in zip(header, row))
        return out
    return {"bytes": text}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def compare(a: dict, b: dict):
    """((largest relative difference over float fields, its key), changed
    integer fields, other changed fields) between two field maps."""
    worst, ints, other = (0.0, None), [], []
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key, MISSING), b.get(key, MISSING)
        if _is_int(va) and _is_int(vb):
            if va != vb:
                ints.append(f"{key} {va} -> {vb}")
        elif _is_number(va) and _is_number(vb) and math.isfinite(va) and math.isfinite(vb):
            if va != vb:
                worst = max(worst, (abs(va - vb) / max(abs(va), abs(vb)), key))
        elif va is MISSING or vb is MISSING:
            other.append(f"{key} only in {'B' if va is MISSING else 'A'}")
        elif va != vb and not (va != va and vb != vb):  # NaN equals NaN here
            other.append(f"{key} {va!r} -> {vb!r}")
    return worst, ints, other


def diff_trees(root_a: Path, root_b: Path) -> list:
    """One (file, (max relative difference, its key), integer changes,
    other changes) row per file; a byte-identical file gives None in place
    of the three results."""
    names = sorted(
        str(f.relative_to(root))
        for root in (root_a, root_b)
        for f in root.rglob("*")
        if f.is_file()
    )
    rows = []
    for name in dict.fromkeys(names):
        fa, fb = root_a / name, root_b / name
        if fa.is_file() and fb.is_file() and fa.read_bytes() == fb.read_bytes():
            rows.append((name, None, None, None))
            continue
        if not (fa.is_file() and fb.is_file()):
            rows.append((name, (0.0, None), [], [f"only in {'A' if fa.is_file() else 'B'}"]))
            continue
        rows.append((name, *compare(fields(fa), fields(fb))))
    return rows


def _summary(changes: list) -> str:
    if len(changes) > 4:
        changes = changes[:4] + [f"... {len(changes) - 4} more"]
    return "; ".join(changes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="first output tree")
    ap.add_argument("b", type=Path, help="second output tree")
    args = ap.parse_args(argv)
    rows = diff_trees(args.a, args.b)
    print("| file | max rel diff | integer changes | other changes |")
    print("|---|---|---|---|")
    for name, worst, ints, other in rows:
        if worst is None:
            print(f"| {name} | identical | | |")
        else:
            rel = f"{worst[0]:.1e}" + (f" ({worst[1]})" if worst[1] else "")
            print(f"| {name} | {rel} | {_summary(ints)} | {_summary(other)} |")
    return 0 if all(row[1] is None for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
