"""Compare two sets of benchmark runs, for example parent and change.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories (or lists of files joined with commas) of
run records written by run.py.  For each workload and end-to-end metric
this prints both sides' median and quartiles, the share of seed-matched
pairs the change wins, and a verdict against the bounds in
BENCHMARK.json:

- improved:  the change wins at least 9 in 10 pairs and the medians
  differ by more than the base's own quartile distance;
- no worse:  the change's median is within the bound of the base's;
- worse:     it is beyond the bound while the base's spread is within it;
- unresolved: the base's spread is wider than the bound, and not every
  change run reads better than every base run.

Each side's host.calib_s median is printed too, so a slow host shows.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(spec: str) -> list[dict]:
    paths: list[Path] = []
    for part in spec.split(","):
        p = Path(part)
        paths += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for p in paths:
        rec = json.loads(p.read_text())
        if rec.get("trace") == 0 and "metrics" in rec:
            runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple]:
    """Runs of the two sides with the same seed; in order if none match."""
    by_seed = {r["seed"]: r for r in change}
    matched = [(b, by_seed[b["seed"]]) for b in base if b["seed"] in by_seed]
    return matched or list(zip(base, change))


def verdict(spec: dict, base: list[float], change: list[float],
            won: float) -> str:
    lower = spec["better"] == "lower"
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    gain = (med_b - med_c) if lower else (med_c - med_b)
    if won >= 0.9 and gain > q3 - q1:
        return "improved"
    all_better = (max(change) < min(base)) if lower \
        else (min(change) > max(base))
    spread = (q3 - q1) / med_b if med_b else float("inf")
    if spread > spec["bound"] and not all_better:
        return "unresolved"
    worse_by = -gain / med_b if med_b else 0.0
    return "worse" if worse_by > spec["bound"] else "no worse"


def compare(base_runs: list[dict], change_runs: list[dict],
            bench: dict) -> list[str]:
    lines = []
    workloads = sorted({r["workload"] for r in base_runs + change_runs})
    for wl in workloads:
        base = [r for r in base_runs if r["workload"] == wl]
        change = [r for r in change_runs if r["workload"] == wl]
        if not base or not change:
            lines.append(f"{wl}: runs on one side only "
                         f"({len(base)} base, {len(change)} change)")
            continue
        calib = [statistics.median(r["host"]["calib_s"] for r in side)
                 for side in (base, change)]
        lines.append(f"{wl}: {len(base)} base runs, {len(change)} change "
                     f"runs, host.calib_s {calib[0]:.4f} -> {calib[1]:.4f}")
        matched = pairs(base, change)
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            wins = 0
            for rb, rc in matched:
                vb = rb["metrics"][name]["value"]
                vc = rc["metrics"][name]["value"]
                if (vc < vb) if spec["better"] == "lower" else (vc > vb):
                    wins += 1
            won = wins / len(matched)
            bq, cq = quartiles(b), quartiles(c)
            lines.append(
                f"  {name} [{spec['unit']}, {spec['better']} is better, "
                f"bound {spec['bound']}]: base {bq[1]:.6g} ({bq[0]:.6g}.."
                f"{bq[2]:.6g})  change {cq[1]:.6g} ({cq[0]:.6g}..{cq[2]:.6g})"
                f"  won {wins}/{len(matched)}  {verdict(spec, b, c, won)}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [part for a in argv for part in a.split(",")
               if not Path(part).exists()]
    if missing:
        print(f"no such run records: {', '.join(missing)}", file=sys.stderr)
        return 2
    base, change = load_runs(argv[0]), load_runs(argv[1])
    if not base or not change:
        print("no untraced run records found", file=sys.stderr)
        return 2
    print("\n".join(compare(base, change, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
