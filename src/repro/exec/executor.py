"""The sharded multi-core A x B rule executor.

This is the laptop-scale replacement for the paper's Hadoop job, and
the only way the pipeline applies blocking rules to A x B.  The
expensive state crosses the process boundary exactly once, for free:

* the parent compiles the rules into one :class:`~repro.plan.
  PlanExecutor` (cheapest rule first, predicates pushed down) and
  **pre-warms** the whole-table prepared arrays
  (:mod:`repro.features.batch`) every needed kernel reads — codes,
  token/q-gram sets, word lists and word tables, TF/IDF weights,
  numeric columns — by evaluating each needed feature on one pair;
* workers are *forked*, so tables, rules, the feature library (closures
  included, so corpus-dependent TF/IDF features shard safely) and the
  prepared arrays are all inherited through copy-on-write pages — no
  pickling, no rebuild, no per-job payload beyond a shard index;
* each worker streams its shard (a contiguous slice of A's rows crossed
  with all of B) through the plan, in
  :data:`~repro.core.blocker._STREAM_CHUNK`-sized chunks of row
  positions.

Determinism: shards partition A's row range in order, every kernel is
bit-exact regardless of chunk boundaries (the documented
``repro.features.batch`` contract), and survivors are merged in shard
order — so the merged list is bit-identical to the full-matrix oracle
in ``tests/blocking_oracle.py``, worker count and shard size
notwithstanding.  With a ``shard_dir``, completed shards persist
(:class:`~repro.exec.sharding.ShardStore`) and a killed run resumes by
loading them — still bit-identical, because loaded and recomputed
shards carry the same bytes and the merge order is fixed.

With ``n_workers <= 1`` (or on platforms without ``fork``) the same
shard loop runs in-process; the fork-unavailable case additionally
reports a ``blocker_parallel_fallback`` event so lost parallelism is
visible in ``python -m repro.obs report``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from ..core.blocker import _STREAM_CHUNK
from ..data.pairs import Pair
from ..data.table import Table
from ..engine.events import (
    EVENT_BLOCKER_FALLBACK,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
)
from ..features.library import Feature, FeatureLibrary
from ..obs.profiling import profile_section
from ..obs.workers import (
    capture_worker_sections,
    merge_worker_sections,
    worker_slot,
)
from ..plan.executor import PlanExecutor, PlanStats
from ..rules.rule import Rule
from .sharding import Shard, ShardStore, auto_shard_size, plan_shards, \
    shard_fingerprint

_ShardResult = tuple[
    list[tuple[str, str]], int, int, dict[str, dict[str, float]]]
"""Per-shard outcome: (survivors, pairs_scanned, cells_computed,
worker wall-clock sections).  The first three are deterministic and
feed metrics/spans; the sections dict is wall-clock noise and flows
only to ``profile.json`` (see :mod:`repro.obs.workers`)."""

_SHARED: "dict[str, Any] | None" = None
"""Fork-inherited worker state: set in the parent immediately before the
pool is created, read by :func:`_run_shard` in the children, cleared
afterwards.  Never pickled — this only works because workers are forked.
"""

def apply_rules_sharded(table_a: Table, table_b: Table,
                        rules: list[Rule], library: FeatureLibrary,
                        n_workers: int = 1, shard_size: int = 0,
                        chunk_size: int = _STREAM_CHUNK,
                        shard_dir: Any = None,
                        bus: Any = None,
                        stats: PlanStats | None = None) -> list[Pair]:
    """Apply blocking rules over A x B via sharded workers; return survivors.

    ``shard_size`` of 0 picks :func:`~repro.exec.sharding.
    auto_shard_size` (about four shards per worker).  ``shard_dir``
    enables per-shard durability and resume.  ``bus`` (an
    :class:`~repro.engine.events.EventBus` or compatible) receives
    ``shard_started`` / ``shard_completed`` events per shard and a
    ``blocker_parallel_fallback`` event when requested parallelism
    could not be used.  The order is deterministic: loaded shards first
    (``cached=True``), then each in-process shard's pair of events, or a
    pool's ``shard_started`` events followed by its completions in shard
    order.

    Every shard's slice runs through the compiled plan
    (:class:`repro.plan.PlanExecutor`) against the fork-shared caches.
    ``stats``, when given, accumulates the deterministic cell
    accounting; loaded shards re-contribute their persisted cell counts
    so resumed metrics converge to the uninterrupted run's.

    The returned survivor list is bit-identical to the full-matrix
    oracle's on the same inputs, for every worker count, shard size and
    kill/resume history.
    """
    if shard_size <= 0:
        shard_size = auto_shard_size(len(table_a), n_workers)
    shards = plan_shards(len(table_a), shard_size)
    evaluator = PlanExecutor(table_a, table_b, rules, library)
    if stats is not None:
        stats.needed_width = len(evaluator.needed_features)
    with profile_section("blocker.shard_prewarm"):
        _prewarm(table_a, table_b, evaluator.needed_features.values())

    store: ShardStore | None = None
    completed: set[int] = set()
    if shard_dir is not None:
        fingerprint = shard_fingerprint(table_a, table_b, rules, library,
                                        shard_size, chunk_size)
        store = ShardStore(shard_dir, fingerprint)
        completed = store.prepare(len(shards))
    pending = [shard for shard in shards if shard.index not in completed]

    use_pool = n_workers > 1 and len(pending) > 1
    if use_pool and not _fork_available():
        use_pool = False
        _emit(bus, EVENT_BLOCKER_FALLBACK, reason="fork_unavailable",
              detail="platform has no fork start method; sharded "
                     "blocking running in-process")

    results: dict[int, _ShardResult] = {}

    def complete(shard: Shard, result: _ShardResult, cached: bool) -> None:
        """Record a loaded, in-process or pooled shard alike.  A loaded
        one re-emits a computed one's event, logical ``worker`` slot
        included, so resumed shard counters and spans converge."""
        results[shard.index] = result
        survivors, scanned, cells, sections = result
        if store is not None and not cached:
            store.write(shard.index, survivors, scanned, cells,
                        sections=sections)
        _emit(bus, EVENT_SHARD_COMPLETED, shard=shard.index,
              survivors=len(survivors), pairs_scanned=scanned,
              worker=worker_slot(shard.index, n_workers), cached=cached)

    for index in sorted(completed):
        _emit_started(bus, shards[index], n_workers, cached=True)
        complete(shards[index], store.load(index), cached=True)
    if use_pool:
        for shard in pending:
            _emit_started(bus, shard, n_workers, cached=False)
        _run_pool(evaluator, shards, pending, chunk_size, n_workers,
                  complete)
    else:
        for shard in pending:
            _emit_started(bus, shard, n_workers, cached=False)
            complete(shard, _evaluate_shard(evaluator, shard, chunk_size),
                     cached=False)

    # Deterministic merge: shards partition A's row range, so survivors
    # concatenated in shard order equal the sequential A-major stream.
    # Worker wall-clock sections fold into the run profiler here, in
    # shard order, keyed by logical worker slot — the keys are stable
    # across replay/resume even though the seconds are wall-clock noise.
    merged: list[Pair] = []
    for shard in shards:
        survivors, scanned, cells, sections = results[shard.index]
        merged.extend(Pair(a_id, b_id) for a_id, b_id in survivors)
        merge_worker_sections(worker_slot(shard.index, n_workers), sections)
        if stats is not None:
            stats.merge_counts(scanned, cells)
    return merged


def _run_pool(evaluator: PlanExecutor, shards: list[Shard],
              pending: list[Shard], chunk_size: int, n_workers: int,
              complete: Callable[[Shard, _ShardResult, bool], None]) -> None:
    """Fan pending shards out to a forked worker pool.

    ``imap`` yields results in submission (= shard) order, so
    ``complete`` writes shard files and emits events in a deterministic
    order; out-of-order completions just buffer inside the pool.
    """
    import multiprocessing

    global _SHARED
    context = multiprocessing.get_context("fork")
    _SHARED = {"evaluator": evaluator,
               "shards": {shard.index: shard for shard in shards},
               "chunk_size": chunk_size}
    try:
        with context.Pool(processes=min(n_workers, len(pending))) as pool:
            indices = [shard.index for shard in pending]
            for index, result in pool.imap(_run_shard, indices,
                                           chunksize=1):
                complete(shards[index], result, cached=False)
    finally:
        _SHARED = None


def _run_shard(index: int) -> tuple[int, _ShardResult]:
    """Worker body: evaluate one shard against fork-inherited state.

    Module-level by necessity (pool callables must pickle; corlint
    CL005) — but its *state* arrives through :data:`_SHARED`, not
    through the job payload.
    """
    job = _SHARED
    return index, _evaluate_shard(job["evaluator"], job["shards"][index],
                                  job["chunk_size"])


def _evaluate_shard(evaluator: PlanExecutor, shard: Shard,
                    chunk_size: int) -> _ShardResult:
    """One shard's result, with the wall-clock sections it took.

    A forked child inherits the parent's profiler activation stack, so
    each shard captures its ``profile_section`` calls on a fresh local
    profiler and returns them instead of recording into a doomed copy.
    """
    with capture_worker_sections() as sections:
        survivors, scanned, cells = _shard_survivors(
            evaluator, shard, chunk_size)
    return survivors, scanned, cells, sections


def _shard_survivors(
        evaluator: PlanExecutor, shard: Shard,
        chunk_size: int) -> tuple[list[tuple[str, str]], int, int]:
    """Stream one shard's slice of A x B through the rule evaluator.

    Enumeration order within the shard matches ``iter_cartesian`` (A
    rows in table order, each crossed with all of B in table order);
    chunk boundaries differ from the global sequential stream, which is
    immaterial because every batch kernel is bit-exact regardless of
    chunking.  The third return value is the number of feature cells
    the plan computed for this shard.
    """
    table_a, table_b = evaluator.table_a, evaluator.table_b
    cells_before = evaluator.cells_computed
    ids_a, ids_b = table_a.record_ids, table_b.record_ids
    survivors: list[tuple[str, str]] = []
    # Pair k of the shard is row k // |B| of A with row k % |B| of B.
    first, stop = shard.start * len(ids_b), shard.stop * len(ids_b)
    for start in range(first, stop, chunk_size):
        with profile_section("blocker.shard_flush"):
            rows_a, rows_b = np.divmod(
                np.arange(start, min(start + chunk_size, stop)), len(ids_b))
            kept = np.flatnonzero(~evaluator.blocked_mask(rows_a, rows_b))
            survivors.extend(zip([ids_a[i] for i in rows_a[kept].tolist()],
                                 [ids_b[j] for j in rows_b[kept].tolist()]))
    return survivors, stop - first, evaluator.cells_computed - cells_before


def _prewarm(table_a: Table, table_b: Table,
             features: Iterable[Feature]) -> None:
    """Build every prepared array the needed features' kernels read.

    A kernel reads whole-table arrays, and reads all of them whatever
    its pairs, so one pair per feature builds them.  After this,
    workers only *read* the arrays — the copy-on-write pages stay
    shared and no worker re-tokenizes a record.
    """
    if not len(table_a) or not len(table_b):
        return
    first = np.zeros(1, dtype=np.int64)
    for feature in features:
        feature.batch_value(table_a, first, table_b, first)


def _fork_available() -> bool:
    """Whether this platform supports forked worker pools."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _emit(bus: Any, name: str, **payload: Any) -> None:
    """Emit an event if a bus was provided (no-op otherwise)."""
    if bus is not None:
        bus.emit(name, **payload)


def _emit_started(bus: Any, shard: Shard, n_workers: int,
                  cached: bool) -> None:
    """Announce a shard: its row range and logical worker slot."""
    _emit(bus, EVENT_SHARD_STARTED, shard=shard.index, start=shard.start,
          stop=shard.stop, worker=worker_slot(shard.index, n_workers),
          cached=cached)
