"""Snapshots: persist an expanded KB + marginals, restart warm.

Grounding a large KB to closure is the expensive step; a server that
just restarted should not redo it.  A snapshot stores the *expanded*
fact set (extraction weights kept, inferred facts NULL-weight, exactly
as TΠ holds them), the graveyard TDel (the keys of the facts quality
control deleted, which no later merge may re-admit), the
rules/classes/constraints needed to keep ingesting, and the
materialized marginals (TProb).  Loading bulk-loads all of it back and
skips the atom closure (Query 1) entirely — the closure is already
present; TΦ is rebuilt from it with one pass of Query 2, and
incremental ingest picks up from there exactly as the live KB would.
Version 2 added the graveyard (``deleted``); a version 1 file lacks it
and is refused.

The format is a single JSON document (stable, diffable, backend
agnostic).  For ad-hoc inspection with sqlite tooling there is also
:func:`export_sqlite`, which mirrors the backing tables to a ``.db``
file via the relational layer's sqlite bridge.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Sequence, Tuple, TypeVar, Union

from ..core.backends import Backend
from ..core.config import BackendConfig
from ..core.model import Fact, FunctionalConstraint, KnowledgeBase, Relation
from ..core.probkb import ProbKB
from ..core.relmodel import FACT_KEY_COLUMNS, RelationalKB
from ..datasets.io import _parse_rule_line, _rule_line

SNAPSHOT_FORMAT = "probkb-snapshot"
SNAPSHOT_VERSION = 2

FactKeyNames = Tuple[str, str, str, str, str]
_P = TypeVar("_P", bound=ProbKB)


def snapshot_dict(probkb: ProbKB) -> dict:
    """The JSON-ready snapshot of a (typically expanded) ProbKB."""
    kb = probkb.kb
    rkb = probkb.rkb
    facts = [
        [f.relation, f.subject, f.subject_class, f.object, f.object_class, f.weight]
        for f in probkb.all_facts()
    ]
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "generation": probkb.generation,
        "classes": {name: sorted(members) for name, members in kb.classes.items()},
        "relations": sorted(
            [r.name, r.domain, r.range] for r in kb.relations.values()
        ),
        "facts": facts,
        "deleted": sorted(
            list(_key_names(rkb, key))
            for key in probkb.backend.project("TDel", FACT_KEY_COLUMNS)
        ),
        "rules": [_rule_line(rule) for rule in kb.rules],
        "constraints": [
            [c.relation, c.arg, c.degree] for c in kb.constraints
        ],
        "marginals": [
            list(key) + [probability]
            for key, probability in sorted(_stored_marginals(probkb).items())
        ],
    }


def _key_names(rkb: RelationalKB, key: Sequence[int]) -> FactKeyNames:
    """An encoded fact key (R, x, C1, y, C2) as names."""
    relation, x, c1, y, c2 = key
    return (
        rkb.relations.name(relation),
        rkb.entities.name(x),
        rkb.classes.name(c1),
        rkb.entities.name(y),
        rkb.classes.name(c2),
    )


def _stored_marginals(probkb: ProbKB) -> Dict[FactKeyNames, float]:
    """TProb decoded back to name-keyed marginals."""
    if not probkb.backend.has_table("TProb"):
        return {}
    rkb = probkb.rkb
    key_by_id = {
        row[0]: row[1:]
        for row in probkb.backend.project("TP", ("I",) + FACT_KEY_COLUMNS)
    }
    marginals: Dict[FactKeyNames, float] = {}
    for fact_id, probability in probkb.backend.project("TProb", ("I", "p")):
        key = key_by_id.get(fact_id)
        if key is not None:
            marginals[_key_names(rkb, key)] = probability
    return marginals


def save_snapshot(probkb: ProbKB, path: str) -> str:
    """Write the snapshot JSON (atomically: temp file + rename)."""
    payload = snapshot_dict(probkb)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = path + ".tmp"
    with open(temp_path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)
    return path


def read_snapshot(path: str) -> Tuple[KnowledgeBase, dict]:
    """Parse and check a snapshot file: the KB it stores (the expanded
    fact set is its fact list — the closure is already in it) and the
    raw payload for :func:`restore_snapshot`.  A malformed file raises
    ``ValueError`` naming the path and the field or row that is wrong."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path!r}: a snapshot is a JSON object, got {type(payload).__name__}"
        )
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"{path!r} is not a {SNAPSHOT_FORMAT} file")
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot version {payload.get('version')!r} not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    classes = _field(path, payload, "classes", kind=dict)
    kb = KnowledgeBase(
        classes={name: set(members) for name, members in classes.items()},
        relations=[Relation(*row) for row in _field(path, payload, "relations", 3)],
        facts=[Fact(*row) for row in _field(path, payload, "facts", 6)],
        rules=[_parse_rule_line(line) for line in _field(path, payload, "rules")],
        constraints=[
            FunctionalConstraint(relation, arg=arg, degree=degree)
            for relation, arg, degree in _field(path, payload, "constraints", 3)
        ],
        validate=False,
    )
    _field(path, payload, "deleted", 5)
    _field(path, payload, "marginals", 6)
    return kb, payload


def _field(
    path: str, payload: dict, name: str, width: int = 0, kind: type = list
) -> Any:
    """The snapshot's ``name`` field, a ``kind`` (JSON array or object);
    with ``width``, a list of rows of ``width`` values each."""
    if name not in payload:
        raise ValueError(f"{path!r}: snapshot field {name!r} is missing")
    rows = payload[name]
    if not isinstance(rows, kind):
        raise ValueError(
            f"{path!r}: snapshot field {name!r} must be a {kind.__name__}, "
            f"got {type(rows).__name__}"
        )
    for index, row in enumerate(rows if width else ()):
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(
                f"{path!r}: {name}[{index}] must be a list of {width} values, got {row!r}"
            )
    return rows


def restore_snapshot(probkb: _P, payload: dict) -> _P:
    """Finish a warm start on a ProbKB just built over
    :func:`read_snapshot`'s KB: refill the graveyard TDel, rebuild TΦ
    with Query 2 over the restored closure, refill TProb from the stored
    marginals and resume the generation counter where the snapshot left
    off."""
    probkb.rkb.add_deleted(Fact(*key) for key in payload["deleted"])
    probkb.grounder.ground_factors()
    if payload["marginals"]:
        probkb.materialize_marginals(
            {
                Fact(relation, subject, subject_class, obj, object_class): probability
                for relation, subject, subject_class, obj, object_class, probability
                in payload["marginals"]
            }
        )
    probkb.generation = int(payload.get("generation", 0))
    return probkb


def load_snapshot(
    path: str, backend: Union[BackendConfig, Backend, str] = "single"
) -> ProbKB:
    """Rebuild a warm ProbKB from a snapshot — no atom closure run.

    ``backend`` takes a :class:`~repro.api.BackendConfig` (or a live
    backend, or the ``"single"``/``"mpp"`` shorthand).
    """
    kb, payload = read_snapshot(path)
    return restore_snapshot(ProbKB(kb, backend=backend), payload)


def export_sqlite(probkb: ProbKB, path: str) -> str:
    """Mirror the backing tables to an on-disk sqlite file.

    Single-node backends only (the MPP simulator's tables are sharded);
    handy for inspecting a serving KB with standard sqlite tooling.
    """
    from ..relational.sqlite_bridge import SqliteMirror

    if probkb.backend.is_mpp:
        raise ValueError("sqlite export requires the single-node backend")
    if os.path.exists(path):
        os.remove(path)
    SqliteMirror(probkb.backend.db, path=path).close()
    return path
