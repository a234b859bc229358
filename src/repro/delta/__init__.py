"""Incremental expansion: delta grounding + component-scoped delta inference.

The serve layer's flush path pays O(KB) per batch when it re-runs
Algorithm 1 and Gibbs over the whole factor graph.  This package makes
that cost O(delta):

- :mod:`repro.delta.grounding` seeds semi-naive evaluation from only the
  newly flushed facts and derives just the *new* ground factors by
  substituting the delta relation into each occurrence of the facts
  table in the six partition join patterns.
- :mod:`repro.delta.expander` drives both stages behind
  ``DeltaExpander.expand_delta(facts)`` with a ground/infer/commit split
  that lets the serve layer re-sample without its write lock.  It keeps an incremental
  connected-component index over the factor graph
  (:class:`repro.infer.ComponentIndex`) so it knows which islands a
  flush touched, and re-samples only those with per-component seeds
  (:func:`repro.infer.sample_components`), leaving untouched marginals
  verbatim.
"""

from .expander import DeltaExpander, DeltaResult, PendingDelta
from .grounding import DeltaGrounder, DeltaGroundingResult

__all__ = [
    "DeltaExpander",
    "DeltaGrounder",
    "DeltaGroundingResult",
    "DeltaResult",
    "PendingDelta",
]
