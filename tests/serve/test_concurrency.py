"""The concurrent smoke test: N readers query while a writer ingests.

Correctness bar (mirrors the serving layer's consistency model):

* no torn reads — two observations of the same pattern under the same
  generation are identical, across all threads;
* generations and fact counts are monotone within each reader thread;
* the final KB equals a sequential run of the same evidence stream
  (micro-batching must not change the fixpoint);
* repeat queries hit the cache (hit rate > 0).

Runs in tier-1 with 4 readers x 200 queries and 3 evidence batches;
export REPRO_STRESS=1 to scale up.

The second half pins the other writers against a delta flush:
``add_rules`` and ``materialize`` arriving while a flush grounds must
not have their marginals overwritten by that flush's older inference.
"""

import os
import threading
import time
from collections import defaultdict

from repro import Fact, InferenceConfig, ProbKB
from repro.core import Atom, HornClause
from repro.datasets import paper_kb
from repro.infer import componentwise_marginals
from repro.serve import IngestConfig, KBService, ServiceConfig

STRESS = os.environ.get("REPRO_STRESS") == "1"
READERS = 8 if STRESS else 4
QUERIES_PER_READER = 1000 if STRESS else 200

WRITERS = ["Saul Bellow", "Grace Paley", "Bernard Malamud"]
BATCHES = [
    [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)],
    [
        Fact("born_in", "Grace Paley", "Writer", "New York City", "City", 0.93),
        Fact("live_in", "Grace Paley", "Writer", "Brooklyn", "Place", 0.81),
    ],
    [Fact("born_in", "Bernard Malamud", "Writer", "Brooklyn", "Place", 0.9)],
]
if STRESS:
    BATCHES = BATCHES * 2  # six batches; set semantics keep the fixpoint

PATTERNS = [
    {"relation": "born_in"},
    {"relation": "live_in"},
    {"subject": "Ruth Gruber"},
    {"subject": "Grace Paley"},
    {},  # all facts: used for the monotone fact-count assertion
]


def expandable_kb():
    kb = paper_kb()
    kb.classes["Writer"].update(WRITERS)
    return kb


def sequential_fixpoint():
    """The same workload with no service, no threads, no batching."""
    system = ProbKB(expandable_kb(), backend="single")
    system.ground()
    for batch in BATCHES:
        system.add_evidence(batch)
    return system


def test_concurrent_readers_and_ingest():
    system = ProbKB(expandable_kb(), backend="single")
    system.ground()
    service = KBService(
        system,
        ServiceConfig(
            cache_size=64,
            ingest=IngestConfig(flush_size=2, flush_interval=0.005),
        ),
    )

    observations = [[] for _ in range(READERS)]
    errors = []
    writer_done = threading.Event()

    def reader(slot):
        try:
            for i in range(QUERIES_PER_READER):
                pattern = PATTERNS[i % len(PATTERNS)]
                result = service.query(**pattern)
                keys = tuple(sorted(fact.key for fact, _ in result.facts))
                observations[slot].append(
                    (result.generation, i % len(PATTERNS), keys)
                )
        except BaseException as error:  # propagate to the main thread
            errors.append(error)

    def writer():
        try:
            for batch in BATCHES:
                service.ingest(batch)
                time.sleep(0.01)  # let size/interval triggers interleave
            service.flush()
        except BaseException as error:
            errors.append(error)
        finally:
            writer_done.set()

    with service:
        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(READERS)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in threads:
            thread.start()
        writer_thread.start()
        for thread in threads:
            thread.join(timeout=120)
        writer_thread.join(timeout=120)
        assert writer_done.is_set()
        assert not errors, errors

        # every queued batch was applied before we compare final states
        final_count = service.fact_count()
        final_keys = {fact.key for fact in service.probkb.all_facts()}
        stats = service.stats()

    # 1. no torn reads: same (generation, pattern) -> same result set
    by_observation = defaultdict(set)
    for slot in range(READERS):
        for generation, pattern, keys in observations[slot]:
            by_observation[(generation, pattern)].add(keys)
    torn = {
        key: len(values)
        for key, values in by_observation.items()
        if len(values) > 1
    }
    assert not torn, f"inconsistent reads within one generation: {torn}"

    # 2. generations and fact counts are monotone within each thread
    for slot in range(READERS):
        generations = [generation for generation, _, _ in observations[slot]]
        assert generations == sorted(generations), f"reader {slot} went back in time"
        counts = [
            (generation, len(keys))
            for generation, pattern, keys in observations[slot]
            if pattern == PATTERNS.index({})
        ]
        assert counts == sorted(counts), f"reader {slot} saw facts disappear"

    # 3. the concurrent fixpoint equals the sequential one
    sequential = sequential_fixpoint()
    assert final_count == sequential.fact_count()
    assert final_keys == {fact.key for fact in sequential.all_facts()}
    assert all(
        any(fact.subject == name for fact in sequential.all_facts())
        for name in WRITERS
    )

    # 4. repeat queries actually hit the cache
    assert stats["cache_hit_rate"] > 0
    assert stats["queries"] == READERS * QUERIES_PER_READER
    assert stats["ingest_batches"] >= 1


# -- a flush racing the other KB writers -------------------------------------

SWEEPS = 80
SEED = 5
FLUSHED = [Fact("born_in", "Saul Bellow", "Writer", "Brooklyn", "Place", 0.88)]
#: adds a factor to every component holding a grow_up_in(Writer, Place)
#: fact — the flushed fact's component among them
NEW_RULE = HornClause.make(
    Atom("live_in", ("x", "y")),
    [Atom("grow_up_in", ("x", "y"))],
    0.8,
    {"x": "Writer", "y": "Place"},
)
PATIENCE = 30.0  # seconds; only a deadlock ever waits this long


class _Announcing:
    """Lock proxy: sets ``event`` when ``thread`` starts to acquire."""

    def __init__(self, lock, thread, event):
        self.lock, self.thread, self.event = lock, thread, event

    def __enter__(self):
        if threading.current_thread() is self.thread:
            self.event.set()
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def race_flush_against(write):
    """Flush one batch while ``write(service)`` runs on a second thread;
    returns the service afterwards.

    The interleaving is forced with events.  The flush blocks inside
    ``delta.ground``, holding the write lock, until the rival writer
    has started to wait for a lock: the write lock, or the ingest flush
    lock if the service serializes on that.  Should the rival get the
    write lock before the flush has committed, the events also make the
    flush's inference run before the rival writes and its commit land
    after — the one order in which a pre-write snapshot goes stale.
    """
    system = ProbKB(expandable_kb(), backend="single")
    system.ground()
    service = KBService(
        system,
        ServiceConfig(
            expansion="delta", inference=InferenceConfig(sweeps=SWEEPS, seed=SEED)
        ),
    )
    grounding, rival_waiting = threading.Event(), threading.Event()
    inferred, rival_done = threading.Event(), threading.Event()
    flusher = threading.Thread(
        target=service.ingest, args=(FLUSHED,), kwargs={"flush": True}
    )

    def rival_writes():
        try:
            write(service)
        finally:
            rival_done.set()

    rival = threading.Thread(target=rival_writes)
    real_ground, real_infer = service.delta.ground, service.delta.infer
    real_acquire = service.lock.acquire_write

    def ground(*args, **kwargs):
        grounding.set()
        rival_waiting.wait(PATIENCE)
        return real_ground(*args, **kwargs)

    def infer(pending):
        refreshed = real_infer(pending)
        inferred.set()
        if threading.current_thread() is not flusher:
            rival_done.wait(PATIENCE)  # inference off the flushing thread
        return refreshed

    def acquire_write():
        if threading.current_thread() is rival:
            rival_waiting.set()
            inferred.wait(PATIENCE)
        real_acquire()

    service.delta.ground, service.delta.infer = ground, infer
    service.lock.acquire_write = acquire_write
    service.worker._flush_lock = _Announcing(
        service.worker._flush_lock, rival, rival_waiting
    )
    flusher.start()
    assert grounding.wait(PATIENCE)
    rival.start()
    for thread in (flusher, rival):
        thread.join(PATIENCE)
        assert not thread.is_alive()
    return service


def stored_marginals(probkb):
    return dict(probkb.backend.project("TProb", ("I", "p")))


def test_add_rules_waits_for_an_inflight_delta_flush():
    service = race_flush_against(lambda svc: svc.add_rules([NEW_RULE]))
    probkb = service.probkb
    assert stored_marginals(probkb) == componentwise_marginals(
        probkb.factor_rows(), SWEEPS, SEED
    )


def test_materialize_waits_for_an_inflight_delta_flush():
    service = race_flush_against(lambda svc: svc.materialize(num_sweeps=2 * SWEEPS))
    probkb = service.probkb
    assert stored_marginals(probkb) == componentwise_marginals(
        probkb.factor_rows(), 2 * SWEEPS, SEED
    )
