#!/usr/bin/env python3
"""Check that a table-shaped BENCH_lint.json carries every value of an
object-shaped one.

The lint bench used to write one object per cross-check ("fs_twin",
"mdb_sync"), each a flat record of the static hint, the dynamic counters
and the agreement.  It now writes two tables under "tables", one row per
cross-check, whose columns carry the same names.  Usage:

    python3 bench/compare_lint.py OLD.json NEW.json

Prints each old value beside the new one and exits 1 if any differs or
is missing.  Simulated values are deterministic, so numbers compare
exactly; the old booleans compare with the new "true"/"false" cells and
the old null homing hint with "none".
"""

import json
import sys

# The old record's key -> the new table's title and row key.
SECTIONS = {
    "fs_twin": ("Affinity lint: fs-twin false-sharing cross-check", "fs-twin"),
    "mdb_sync": ("Affinity lint: mdb-sync migratory cross-check", "mdb-sync"),
}


def cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return v


def main(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    tables = {t["title"]: t["rows"] for t in new.get("tables", [])}
    bad = 0
    for section, (title, kernel) in SECTIONS.items():
        rows = [r for r in tables.get(title, []) if r.get("kernel") == kernel]
        row = rows[0] if rows else {}
        for key, value in old[section].items():
            got = row.get(key, "<missing>")
            same = cell(value) == got
            bad += not same
            print(f"{section}.{key:24} {value!s:>16}  {got!s:>16}  {'ok' if same else 'DIFFERS'}")
    for key in ("nodes", "nprocs", "iters"):
        same = old.get(key) == new.get(key)
        bad += not same
        print(f"{key:32} {old.get(key)!s:>16}  {new.get(key)!s:>16}  {'ok' if same else 'DIFFERS'}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
