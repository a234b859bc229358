"""Output checks run on every repetition.

A benchmark number only counts when the program's answer was right, so
every repetition's outputs are checked: golden counts where the inputs'
counts are known (``golden.json``), and seed-independent invariants
everywhere (bookkeeping consistency, query results against a brute-force
scan, serial/pooled MPP bit-identity, streamed == from-scratch facts,
marginals in [0, 1], the paper example's known closure).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

Pattern = Dict[str, str]

#: Figure 3(g) of the paper: the closure of the Ruth Gruber KB
PAPER_CLOSURE = {
    ("born_in", "Ruth Gruber", "New York City"),
    ("born_in", "Ruth Gruber", "Brooklyn"),
    ("live_in", "Ruth Gruber", "New York City"),
    ("live_in", "Ruth Gruber", "Brooklyn"),
    ("grow_up_in", "Ruth Gruber", "New York City"),
    ("grow_up_in", "Ruth Gruber", "Brooklyn"),
    ("located_in", "Brooklyn", "New York City"),
}
PAPER_FACTORS = 8


class Checks:
    """Counts checks attempted and keeps the message of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def equal(self, what: str, actual: Any, expected: Any) -> bool:
        return self.expect(
            actual == expected, f"{what}: got {actual!r}, expected {expected!r}"
        )

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


# -- golden counts ---------------------------------------------------------------


def golden_key(workload: str, scale: float) -> str:
    return f"{workload}@{scale:g}"


def load_golden(path: Optional[str] = None) -> Dict[str, Any]:
    with open(path or GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def golden_counts(
    golden: Mapping[str, Any], workload: str, scale: float, seed: int
) -> Optional[Dict[str, Any]]:
    """The pinned counts for this run, or None when none apply.

    ``every_seed`` counts hold on any seed (the seed reorders the pinned
    dataset, which they do not depend on); ``by_seed`` adds the counts
    that follow the seed's own draws (S2 edges, batch order, patterns)."""
    entry = golden.get(golden_key(workload, scale))
    if entry is None:
        return None
    pinned = dict(entry.get("every_seed", {}))
    pinned.update(entry.get("by_seed", {}).get(str(seed), {}))
    return pinned


def check_counts(
    checks: Checks, counts: Mapping[str, Any], pinned: Optional[Mapping[str, Any]]
) -> None:
    if pinned is None:
        return
    for name, expected in pinned.items():
        checks.equal(f"golden {name}", counts.get(name), expected)


# -- seed-independent invariants ---------------------------------------------------


def check_paper_example(checks: Checks) -> None:
    """The paper's Table 1 KB must ground to Figure 3's closure."""
    from repro.api import ExpansionSession
    from repro.datasets import paper_kb

    with ExpansionSession(paper_kb()) as session:
        result = session.ground()
        closure = {(f.relation, f.subject, f.object) for f in session.all_facts()}
    checks.expect(result.converged, "paper example did not converge")
    checks.equal("paper example closure", closure, PAPER_CLOSURE)
    checks.equal("paper example factors", result.factors, PAPER_FACTORS)


def check_grounding(
    checks: Checks,
    grounding: Any,
    input_facts: int,
    removed_up_front: int,
    fact_count: int,
    factor_count: int,
    constraints: bool,
    expect_converged: bool,
) -> None:
    """Algorithm 1's bookkeeping must add up."""
    running = input_facts - removed_up_front
    for stats in grounding.iterations:
        running += stats.new_facts - stats.removed_facts
        checks.equal(
            f"iteration {stats.iteration} fact count", stats.fact_count, running
        )
        checks.expect(
            stats.derived_rows >= stats.new_facts,
            f"iteration {stats.iteration}: more new facts than derived rows",
        )
        if not constraints:
            checks.equal(
                f"iteration {stats.iteration} removed (constraints off)",
                stats.removed_facts,
                0,
            )
    checks.equal("final fact count", fact_count, running)
    checks.equal("factor count", factor_count, grounding.factors)
    checks.equal("converged", grounding.converged, expect_converged)


def check_marginals(
    checks: Checks, marginals: Mapping[Any, float], variables: int, stored: int,
    fact_count: int,
) -> None:
    """One marginal per fact of the factor graph, each a probability."""
    bad = [p for p in marginals.values() if not 0.0 <= p <= 1.0]
    checks.equal("marginals outside [0, 1]", len(bad), 0)
    checks.equal("marginals per graph variable", len(marginals), variables)
    checks.equal("marginals stored in TProb", stored, len(marginals))
    checks.expect(
        len(marginals) <= fact_count,
        f"{len(marginals)} marginals for {fact_count} facts",
    )


def pattern_key(pattern: Pattern) -> Tuple[str, ...]:
    return tuple(pattern.get(field, "") for field in ("relation", "subject"))


def expected_result_sizes(facts: Iterable[Any]) -> Counter:
    """Result size of every (relation, subject) pattern shape, by a scan
    that shares no code with ``query_facts``."""
    sizes: Counter = Counter()
    for fact in facts:
        sizes[(fact.relation, "")] += 1
        sizes[("", fact.subject)] += 1
        sizes[(fact.relation, fact.subject)] += 1
    return sizes


def result_matches(pattern: Pattern, result: Sequence[Tuple[Any, Any]]) -> bool:
    relation = pattern.get("relation")
    subject = pattern.get("subject")
    for fact, probability in result:
        if relation is not None and fact.relation != relation:
            return False
        if subject is not None and fact.subject != subject:
            return False
        if probability is not None and not 0.0 <= probability <= 1.0:
            return False
    return True


def check_query_sizes(
    checks: Checks,
    patterns: Sequence[Pattern],
    sizes: Sequence[int],
    facts: Iterable[Any],
) -> None:
    expected = expected_result_sizes(facts)
    for pattern, got in zip(patterns, sizes):
        checks.equal(f"result size of {pattern}", got, expected[pattern_key(pattern)])


def check_mpp_identical(checks: Checks, serial: Mapping[str, Any], pooled: Mapping[str, Any]) -> None:
    """Serial and pooled executors: same shards, same modelled clock."""
    for table in ("TP", "TF"):
        checks.expect(
            serial["shards"][table] == pooled["shards"][table],
            f"{table} shards differ between serial and pooled execution",
        )
    checks.equal("modelled seconds (pooled vs serial)", pooled["modelled_s"], serial["modelled_s"])
    checks.equal("new facts (pooled vs serial)", pooled["new_facts"], serial["new_facts"])
    checks.expect(not pooled["degraded"], "worker pool degraded to serial")


def fact_keys(facts: Iterable[Any]) -> set:
    return {fact.key for fact in facts}


def check_same_facts(checks: Checks, what: str, actual: set, reference: set) -> None:
    checks.expect(
        actual == reference,
        f"{what}: {len(actual - reference)} unexpected, "
        f"{len(reference - actual)} missing facts",
    )
