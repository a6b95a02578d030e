#!/usr/bin/env python3
"""Compare two wallbench run records (or two directories of them).

    python3 wallbench/compare.py BASE NEW

BASE and NEW are run records written by `wallbench` (the `.json` files
under `<cargo target dir>/wallbench-runs/`) or directories holding them;
records are paired by workload, seed and trace flag. The comparison is
refused (exit 3) when the two sides ran in different environments: CPU
count, resolved PASTA_THREADS, SIMD backend, multiplication backend,
compiler or CPU model, or with different --seconds. It also reports (exit 4) any exact count that
should repeat run to run but differs. Otherwise it prints, per workload
and metric, the median of each side and NEW / BASE.
"""

import json
import statistics
import sys
from pathlib import Path

# Per-layer counts that must repeat exactly between runs of one program.
EXACT = [
    "hw.cycles_per_block.a",
    "hw.cycles_per_block.b",
    "core.keccak_perms_per_block.a",
    "core.keccak_perms_per_block.b",
    "hhe.packed_key_switches",
    "pipeline.wire_bytes_per_block.a",
    "pipeline.wire_bytes_per_block.b",
]


def load(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = {}
    for f in files:
        r = json.loads(f.read_text())
        records[(r["workload"], r["seed"], r["trace"])] = r
    if not records:
        sys.exit(f"compare: no run records under {path}")
    return records


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    envs = {
        json.dumps({**r["environment"], "seconds": r["seconds"]}, sort_keys=True)
        for r in [*base.values(), *new.values()]
    }
    if len(envs) != 1:
        print("compare: refused, the runs' environments or lengths differ:", file=sys.stderr)
        for env in sorted(envs):
            print("  " + env, file=sys.stderr)
        sys.exit(3)
    mismatched = []
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        if b["trace"] and n["trace"]:
            for name in EXACT:
                bv, nv = b["per_layer"][name]["value"], n["per_layer"][name]["value"]
                if bv != nv:
                    mismatched.append(f"{key}: {name} {bv} -> {nv}")
    for workload in sorted({k[0] for k in base} & {k[0] for k in new}):
        for section in ("end_to_end", "per_layer"):
            sides = []
            for records in (base, new):
                runs = [r for k, r in records.items() if k[0] == workload]
                runs = [r for r in runs if r["trace"] == (section == "per_layer")]
                sides.append(runs)
            if not all(sides):
                continue
            print(f"{workload} ({section}, {len(sides[0])} vs {len(sides[1])} runs)")
            for name in sides[0][0][section]:
                meds = [statistics.median(r[section][name]["value"] for r in runs) for runs in sides]
                unit = sides[0][0][section][name]["unit"]
                ratio = f"{meds[1] / meds[0]:.3f}" if meds[0] else "-"
                print(f"  {name:34s} {meds[0]:>14.6g} {meds[1]:>14.6g} {unit:7s} x{ratio}")
    if mismatched:
        print("compare: exact counts differ:", file=sys.stderr)
        for m in mismatched:
            print("  " + m, file=sys.stderr)
        sys.exit(4)


if __name__ == "__main__":
    main()
