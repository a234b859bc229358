"""``run.py --compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric): both medians, the quartiles
over each side's repetitions, the metric's bound, and a verdict.

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
* ``unresolved`` — either side's own spread (inter-quartile distance as
  a share of its median) is wider than the bound, so the difference
  cannot be told from noise — unless every repetition of one side beats
  every repetition of the other, which is reported as better or worse;
* ``within`` — anything else.

``error_rate`` rows carry an absolute bound of 0.  Exact counts are
compared for equality.  The exit code is non-zero on any ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from .metrics import END_TO_END, HIGHER
from .stats import quartiles, spread


def verdict(
    a_reps: Sequence[float], b_reps: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, signed worsening of B's median as a share of A's)."""
    _, a_median, _ = quartiles(a_reps)
    _, b_median, _ = quartiles(b_reps)
    sign = -1.0 if better == HIGHER else 1.0
    worsening = sign * (b_median - a_median) / a_median if a_median else 0.0
    if better == HIGHER:
        b_always_better = min(b_reps) > max(a_reps)
        b_always_worse = max(b_reps) < min(a_reps)
    else:
        b_always_better = max(b_reps) < min(a_reps)
        b_always_worse = min(b_reps) > max(a_reps)
    noisy = any(spread(reps) > bound for reps in (a_reps, b_reps))
    if noisy and not (b_always_better or b_always_worse):
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "within", worsening


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    """Report lines and the number of ``worse`` (or unequal) rows."""
    lines = [
        f"A: sha {a['environment'].get('git_sha')} seed {a['seed']} "
        f"nproc {a['environment'].get('nproc')}",
        f"B: sha {b['environment'].get('git_sha')} seed {b['seed']} "
        f"nproc {b['environment'].get('nproc')}",
        "",
        f"{'workload':<12} {'metric':<24} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'bound':>6} {'change':>8}  verdict",
    ]
    bad = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            row_a = side_a["end_to_end"].get(metric.name)
            row_b = side_b["end_to_end"].get(metric.name)
            if row_a is None or row_b is None:
                continue
            word, worsening = verdict(
                row_a["reps"], row_b["reps"], metric.better, metric.bound
            )
            bad += word == "worse"
            lines.append(
                f"{name:<12} {metric.name:<24} {_cell(row_a):<34} {_cell(row_b):<34} "
                f"{metric.bound:>6.0%} {worsening:>+8.1%}  {word}"
            )
        rate_a, rate_b = side_a["error_rate"], side_b["error_rate"]
        word = "worse" if rate_b > rate_a else "within"
        bad += word == "worse"
        lines.append(
            f"{name:<12} {'error_rate':<24} {rate_a:<34g} {rate_b:<34g} "
            f"{'0 abs':>6} {rate_b - rate_a:>+8.3g}  {word}"
        )
        if a["seed"] == b["seed"] and a.get("scale") == b.get("scale"):
            unequal = sorted(
                key
                for key in set(side_a["counts"]) | set(side_b["counts"])
                if side_a["counts"].get(key) != side_b["counts"].get(key)
            )
            word = "differ: " + ", ".join(unequal) if unequal else "identical"
            bad += bool(unequal)
            lines.append(f"{name:<12} {'exact counts':<24} {word}")
    return lines, bad


def _cell(row: Dict[str, Any]) -> str:
    q1, q2, q3 = quartiles(row["reps"])
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {row['unit']}"


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    lines, bad = compare(a, b)
    print("\n".join(lines))
    print(f"\n{bad} row(s) worse" if bad else "\nno row worse")
    return 1 if bad else 0
