"""Size every numeric move between two output trees.

    python tools/diff_outputs.py OLD/ NEW/

Every file found under both roots is compared number by number at each
location: a JSON file by key path (list indices fold into ``[]``), a CSV
file by column (by header name when each header's names are distinct, by
position otherwise), any other text file by line pattern (the line with each
number replaced by ``#``). A number may also be written as ``float.hex``
writes it, in text and CSV as in a JSON string (the records under
``tests/golden/`` keep every float so). For each file the report gives how
many values it compared and how many moved; for each location where a value
moved, how many moved, the largest absolute move and the largest relative
move (|new - old| / |old|, ``inf`` when old is 0). Files found on one side only,
and differences that are not numeric (text, keys, lengths), are listed too.
The exit status is 0 when the trees hold the same values, 1 otherwise.

Standard library only, so it runs on any checkout.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

_HEX = r"[-+]?(?:0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]?\d+|inf|nan)"
_NUMBER = re.compile(rf"{_HEX}|[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


class _Tally:
    """Value pairs per location, and the differences that are not numeric."""

    def __init__(self):
        self.pairs: dict[str, list[tuple[float, float]]] = {}
        self.other: list[str] = []

    def number(self, loc: str, old: float, new: float) -> None:
        self.pairs.setdefault(loc, []).append((old, new))

    def text(self, loc: str, old, new) -> None:
        if old != new:
            self.other.append(f"{loc}: {old!r} -> {new!r}")


def _hex_float(value):
    """The float a ``float.hex`` string stands for, else None."""
    if isinstance(value, str) and re.fullmatch(_HEX, value):
        return float.fromhex(value)
    return None


def _as_float(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return _hex_float(value)


def _walk_json(old, new, loc: str, tally: _Tally) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{loc}.{key}" if loc else key
            if key not in old or key not in new:
                tally.other.append(f"{sub}: only in {'new' if key in new else 'old'}")
            else:
                _walk_json(old[key], new[key], sub, tally)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            tally.other.append(f"{loc}: length {len(old)} -> {len(new)}")
        for a, b in zip(old, new):
            _walk_json(a, b, f"{loc}[]", tally)
    elif isinstance(old, str) or isinstance(new, str):
        a, b = _hex_float(old), _hex_float(new)
        if a is None or b is None:
            tally.text(loc, old, new)
        else:
            tally.number(loc, a, b)
    else:
        a, b = _as_float(old), _as_float(new)
        if a is None or b is None:
            tally.text(loc, old, new)
        else:
            tally.number(loc, a, b)


def _walk_csv(old: str, new: str, tally: _Tally) -> None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    old_head = old_rows[0] if old_rows else []
    new_head = new_rows[0] if new_rows else []
    if len(set(old_head)) == len(old_head) and len(set(new_head)) == len(new_head):
        # distinct names on both sides: match columns by name, so an inserted
        # or dropped column moves no other column's values
        for head, other, side in ((old_head, new_head, "old"), (new_head, old_head, "new")):
            tally.other.extend(f"column {n!r} only in {side}" for n in head if n not in other)
        columns = [(n, old_head.index(n), new_head.index(n))
                   for n in old_head if n in new_head]
        tally.text("header order", [c[0] for c in columns],
                   [n for n in new_head if n in old_head])
    else:
        tally.text("header", old_head, new_head)
        width = max(map(len, old_rows + new_rows), default=0)
        columns = [(old_head[i] if i < len(old_head) else f"column {i + 1}", i, i)
                   for i in range(width)]
    if len(old_rows) != len(new_rows):
        tally.other.append(f"rows: {len(old_rows) - 1} -> {len(new_rows) - 1}")
    for a_row, b_row in zip(old_rows[1:], new_rows[1:]):
        for col, i, k in columns:
            if i >= len(a_row) or k >= len(b_row):
                continue
            a, b = a_row[i], b_row[k]
            fa, fb = _as_float(a), _as_float(b)
            if fa is None or fb is None:
                tally.text(col, a, b)
            else:
                tally.number(col, fa, fb)


def _walk_text(old: str, new: str, tally: _Tally) -> None:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        tally.other.append(f"lines: {len(old_lines)} -> {len(new_lines)}")
    for a, b in zip(old_lines, new_lines):
        pattern = _NUMBER.sub("#", a)
        if pattern != _NUMBER.sub("#", b):
            tally.text("line", a, b)
            continue
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            tally.number(pattern, _as_float(x), _as_float(y))


def compare_file(old: Path, new: Path) -> _Tally:
    tally = _Tally()
    old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
    try:
        old_text, new_text = old_bytes.decode(), new_bytes.decode()
    except UnicodeDecodeError:
        if old_bytes != new_bytes:
            tally.other.append("binary content differs")
        return tally
    if old.suffix == ".json":
        try:
            _walk_json(json.loads(old_text), json.loads(new_text), "", tally)
            return tally
        except json.JSONDecodeError:
            pass
    if old.suffix == ".csv":
        _walk_csv(old_text, new_text, tally)
    else:
        _walk_text(old_text, new_text, tally)
    return tally


def _moved(pairs) -> tuple[int, float, float]:
    """How many pairs differ, the largest absolute and the largest relative move."""
    count, max_abs, max_rel = 0, 0.0, 0.0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        count += 1
        move = abs(b - a)
        if math.isnan(move):  # a NaN on one side only
            move = math.inf
        max_abs = max(max_abs, move)
        max_rel = max(max_rel, move / abs(a) if a != 0 else math.inf)
    return count, max_abs, max_rel


def report(old_root: Path, new_root: Path, out=sys.stdout) -> bool:
    """Print the report; True when no value or file differs."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old_root), files(new_root)
    same = old_files == new_files
    for name in sorted(old_files ^ new_files):
        print(f"{name}: only in {'NEW' if name in new_files else 'OLD'}", file=out)
    total = moved_total = 0
    for name in sorted(old_files & new_files):
        tally = compare_file(old_root / name, new_root / name)
        values = sum(len(p) for p in tally.pairs.values())
        rows = [(loc, len(p), *_moved(p)) for loc, p in tally.pairs.items()]
        moved = sum(r[2] for r in rows)
        total += values
        moved_total += moved
        print(f"{name}: {moved} of {values} values moved", file=out)
        for loc, n, count, max_abs, max_rel in rows:
            if count:
                print(f"  {loc}: {count} of {n} moved, max abs {max_abs:.3g}, "
                      f"max rel {max_rel:.3g}", file=out)
        for line in tally.other:
            print(f"  not numeric: {line}", file=out)
        same = same and not moved and not tally.other
    print(f"total: {moved_total} of {total} values moved in "
          f"{len(old_files & new_files)} common files", file=out)
    return same


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: diff_outputs.py OLD/ NEW/", file=sys.stderr)
        return 2
    return 0 if report(Path(args[0]), Path(args[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
