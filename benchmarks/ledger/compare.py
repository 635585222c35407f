"""``--compare A.json [B.json]``: judge one result set against another.

Per workload × end-to-end metric: both medians, the ratio with its base,
the bound, and a verdict —

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   B is worse than A by more than the bound;
* ``unresolved``  the runs inside a set spread wider than the bound, so
                  a difference of that size cannot be told from noise
                  (unless every run of B reads better than every run of A).

Must-be-zero metrics (``overload_pct``, ``failed_ops_share``) regress on
any rise. A file may hold one set (a ledger ``--out`` document) or
several under ``"sets"`` (``baseline.json`` holds its two A/A sets that
way); exactly two sets must be named in total. Exit code 1 on any
``regressed``. Run two sets of the same commit through this for the A/A
check: every row must read ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from .stats import spread

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def load_sets(paths: List[Path]) -> List[dict]:
    sets: List[dict] = []
    for path in paths:
        document = json.loads(path.read_text())
        sets.extend(document["sets"] if "sets" in document else [document])
    return sets


def cells(result: dict, workload: str) -> Dict[str, dict]:
    """Every end-to-end cell of a workload, primary and secondary."""
    entry = result["workloads"][workload]
    return {**entry["end_to_end"], **entry.get("secondary", {})}


def runs_of(cell: dict) -> List[float]:
    return list(cell.get("runs") or [cell["value"]])


def judge(
    base: List[float], new: List[float], better: str, bound: float
) -> Tuple[str, float, Optional[float]]:
    """Verdict, how much worse B's median is (as a share of A's), spread."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = median(base), median(new)
    if a == 0:
        worse = float("inf") if sign * (b - a) > 0 else 0.0
    else:
        worse = sign * (b - a) / abs(a)
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    noise = max(spreads) if spreads else None
    if bound == 0.0:
        return (REGRESSED if worse > 0 else OK), worse, noise
    if noise is not None and noise > bound:
        all_better = (
            max(new) < min(base) if better == "lower" else min(new) > max(base)
        )
        return (OK if all_better else UNRESOLVED), worse, noise
    return (REGRESSED if worse > bound else OK), worse, noise


def compare(first: dict, second: dict, declared: Dict[str, dict]) -> Tuple[List[dict], List[str]]:
    """Rows of the comparison table, and notes about what could not be compared."""
    rows: List[dict] = []
    notes: List[str] = []
    for result in (first, second):
        if not result.get("comparable", True):
            notes.append(f"a set ran at scale {result.get('scale')!r}: not comparable with full-scale sets")
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            notes.append(f"{workload}: missing from the second set")
            continue
        base_cells, new_cells = cells(first, workload), cells(second, workload)
        for name, cell in base_cells.items():
            if name not in new_cells or name not in declared:
                notes.append(f"{workload}/{name}: not in both sets and BENCHMARK.json")
                continue
            spec = declared[name]
            base, new = runs_of(cell), runs_of(new_cells[name])
            verdict, worse, noise = judge(base, new, spec["better"], spec["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "a": median(base),
                    "b": median(new),
                    "worse": worse,
                    "bound": spec["bound"],
                    "spread": noise,
                    "verdict": verdict,
                    "primary": name in first["workloads"][workload]["end_to_end"],
                }
            )
    return rows, notes


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<22} {'A':>12} {'B':>12} {'B/A':>8} "
        f"{'bound':>6} {'spread':>7}  verdict"
    ]
    for row in rows:
        ratio = f"{row['b'] / row['a']:.3f}" if row["a"] else "-"
        noise = "-" if row["spread"] is None else f"{100 * row['spread']:.1f}%"
        mark = "" if row["primary"] else "  (secondary)"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<22} {row['a']:>12.6g} {row['b']:>12.6g} "
            f"{ratio:>8} {100 * row['bound']:>5.0f}% {noise:>7}  {row['verdict']}{mark}"
        )
    return "\n".join(lines)


def main(paths: List[Path]) -> int:
    from .contract import END_TO_END

    sets = load_sets(paths)
    if len(sets) != 2:
        print(f"ledger --compare: need exactly two result sets, found {len(sets)}", file=sys.stderr)
        return 2
    rows, notes = compare(sets[0], sets[1], END_TO_END)
    print(f"A: commit {sets[0]['host'].get('commit')} seed {sets[0]['seed']}   "
          f"B: commit {sets[1]['host'].get('commit')} seed {sets[1]['seed']}   (B/A: A is the base)")
    print(render(rows))
    for note in notes:
        print(f"note: {note}")
    tally = {verdict: sum(row["verdict"] == verdict for row in rows) for verdict in (OK, REGRESSED, UNRESOLVED)}
    print(f"{tally[OK]} ok, {tally[REGRESSED]} regressed, {tally[UNRESOLVED]} unresolved")
    return 1 if tally[REGRESSED] else 0
