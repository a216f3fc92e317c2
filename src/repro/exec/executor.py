"""The sharded multi-core A x B rule executor.

This is the laptop-scale replacement for the paper's Hadoop job, and
the only way the pipeline applies blocking rules to A x B.  The
expensive state crosses the process boundary exactly once, for free:

* the parent compiles the rules into one :class:`~repro.plan.
  PlanExecutor` (cheapest rule first, predicates pushed down) and
  **pre-warms** the per-record prepared-column caches
  (:mod:`repro.features.batch`) for every feature the rules read —
  normalized strings, token/q-gram sets, interned word-id arrays,
  TF/IDF weight vectors, numeric columns;
* workers are *forked*, so tables, rules, the feature library (closures
  included, so corpus-dependent TF/IDF features shard safely) and the
  warmed caches are all inherited through copy-on-write pages — no
  pickling, no rebuild, no per-job payload beyond a shard index.
  CPython's refcounting does touch the shared pages, so residency is
  not perfectly zero-copy, but nothing is ever serialized or
  recomputed;
* each worker streams its shard (a contiguous slice of A's rows crossed
  with all of B) through the plan, in
  :data:`~repro.core.blocker._STREAM_CHUNK`-sized chunks.

Determinism: shards partition A's row range in order, every kernel is
bit-exact regardless of chunk boundaries (the documented
``repro.features.batch`` contract), and survivors are merged in shard
order — so the merged list is bit-identical to the reference oracle
:func:`~repro.core.blocker.apply_rules_streaming`, worker count and
shard size notwithstanding.  With a ``shard_dir``, completed shards
persist (:class:`~repro.exec.sharding.ShardStore`) and a killed run
resumes by loading them — still bit-identical, because loaded and
recomputed shards carry the same bytes and the merge order is fixed.

With ``n_workers <= 1`` (or on platforms without ``fork``) the same
shard loop runs in-process; the fork-unavailable case additionally
reports a ``blocker_parallel_fallback`` event so lost parallelism is
visible in ``python -m repro.obs report``.
"""

from __future__ import annotations

from typing import Any

from ..core.blocker import _STREAM_CHUNK
from ..data.pairs import Pair
from ..data.table import AttrType, Table
from ..engine.events import (
    EVENT_BLOCKER_FALLBACK,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
)
from ..features.library import FeatureLibrary
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

_ACCESSOR_WARMERS: dict[str, tuple[str, ...]] = {
    "abs_diff": ("numbers",),
    "rel_diff": ("numbers",),
    "jaccard_word": ("token_sets",),
    "overlap": ("token_sets",),
    "containment": ("token_sets",),
    "jaccard_qgram": ("qgram_sets",),
    "levenshtein": ("string_codes",),
    "jaro_winkler": ("string_codes",),
    "smith_waterman": ("string_codes",),
    "prefix": ("norms",),
    "monge_elkan": ("word_id_arrays",),
    "soundex": ("soundex_sets",),
}
"""Measure -> the PreparedColumn accessors its batch kernel reads.
Warming these in the parent is what turns the per-record caches into
*shared* read-only state for the forked workers."""


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
    ``shard_started`` / ``shard_completed`` events per shard, in shard
    order, and a ``blocker_parallel_fallback`` event when requested
    parallelism could not be used; event order is deterministic, so
    traces stay byte-identical across replays.

    Every shard's slice runs through the compiled plan
    (:class:`repro.plan.PlanExecutor`) against the fork-shared caches.
    ``stats``, when given, accumulates the deterministic cell
    accounting; loaded shards re-contribute their persisted cell counts
    so resumed metrics converge to the uninterrupted run's.

    The returned survivor list is bit-identical to
    :func:`~repro.core.blocker.apply_rules_streaming` on the same
    inputs, for every worker count, shard size and kill/resume history.
    """
    if shard_size <= 0:
        shard_size = auto_shard_size(len(table_a), n_workers)
    shards = plan_shards(len(table_a), shard_size)
    evaluator = PlanExecutor(table_a, table_b, rules, library)
    if stats is not None:
        stats.needed_width = len(evaluator.needed)
    with profile_section("blocker.shard_prewarm"):
        _prewarm(table_a, evaluator.cache_a, evaluator.needed_features)
        _prewarm(table_b, evaluator.cache_b, evaluator.needed_features)

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
    for index in sorted(completed):
        results[index] = store.load(index)
        shard = shards[index]
        _emit_shard_span(bus, shard, results[index], n_workers, cached=True)

    if use_pool:
        _run_pool(evaluator, shards, pending, chunk_size,
                  n_workers, store, results, bus)
    else:
        for shard in pending:
            slot = worker_slot(shard.index, n_workers)
            _emit(bus, EVENT_SHARD_STARTED, shard=shard.index,
                  start=shard.start, stop=shard.stop, worker=slot,
                  cached=False)
            with capture_worker_sections() as sections:
                survivors, scanned, cells = _shard_survivors(
                    evaluator, shard, chunk_size)
            results[shard.index] = (survivors, scanned, cells, sections)
            if store is not None:
                store.write(shard.index, survivors, scanned, cells,
                            sections=sections)
            _emit(bus, EVENT_SHARD_COMPLETED, shard=shard.index,
                  survivors=len(survivors), pairs_scanned=scanned,
                  worker=slot, cached=False)

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
              store: ShardStore | None,
              results: dict[int, _ShardResult],
              bus: Any) -> None:
    """Fan pending shards out to a forked worker pool.

    ``imap`` yields results in submission (= shard) order, so shard
    files land on disk and events hit the bus in the same deterministic
    order the in-process path produces — out-of-order completions just
    buffer inside the pool.
    """
    import multiprocessing

    global _SHARED
    for shard in pending:
        _emit(bus, EVENT_SHARD_STARTED, shard=shard.index,
              start=shard.start, stop=shard.stop,
              worker=worker_slot(shard.index, n_workers), cached=False)
    context = multiprocessing.get_context("fork")
    _SHARED = {"evaluator": evaluator,
               "shards": {shard.index: shard for shard in shards},
               "chunk_size": chunk_size}
    try:
        with context.Pool(processes=min(n_workers, len(pending))) as pool:
            indices = [shard.index for shard in pending]
            for index, survivors, scanned, cells, sections in pool.imap(
                    _run_shard, indices, chunksize=1):
                results[index] = (survivors, scanned, cells, sections)
                if store is not None:
                    store.write(index, survivors, scanned, cells,
                                sections=sections)
                _emit(bus, EVENT_SHARD_COMPLETED, shard=index,
                      survivors=len(survivors), pairs_scanned=scanned,
                      worker=worker_slot(index, n_workers), cached=False)
    finally:
        _SHARED = None


def _run_shard(index: int) -> tuple[int, list[tuple[str, str]], int, int,
                                    dict[str, dict[str, float]]]:
    """Worker body: evaluate one shard against fork-inherited state.

    Module-level by necessity (pool callables must pickle; corlint
    CL005) — but its *state* arrives through :data:`_SHARED`, not
    through the job payload.  The forked child inherits the parent's
    profiler activation stack, so it captures its ``profile_section``
    calls on a fresh local profiler and ships the sections back in the
    result tuple instead of recording into a doomed copy.
    """
    job = _SHARED
    shard = job["shards"][index]
    with capture_worker_sections() as sections:
        survivors, scanned, cells = _shard_survivors(
            job["evaluator"], shard, job["chunk_size"])
    return index, survivors, scanned, cells, sections


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
    records_b = list(table_b)
    survivors: list[tuple[str, str]] = []
    scanned = 0
    chunk_a: list[Any] = []
    chunk_b: list[Any] = []

    def flush() -> None:
        nonlocal scanned
        if not chunk_a:
            return
        with profile_section("blocker.shard_flush"):
            blocked = evaluator.blocked_mask(chunk_a, chunk_b)
            survivors.extend(
                (record_a.record_id, record_b.record_id)
                for record_a, record_b, is_blocked
                in zip(chunk_a, chunk_b, blocked)
                if not is_blocked
            )
            scanned += len(chunk_a)
            chunk_a.clear()
            chunk_b.clear()

    for row in range(shard.start, shard.stop):
        record_a = table_a.at(row)
        for record_b in records_b:
            chunk_a.append(record_a)
            chunk_b.append(record_b)
            if len(chunk_a) >= chunk_size:
                flush()
    flush()
    return survivors, scanned, evaluator.cells_computed - cells_before


def _prewarm(table: Table, cache: Any, features: list[Any]) -> None:
    """Materialize every prepared value the needed features will read.

    After this, workers only *read* the memo dictionaries — the
    copy-on-write pages stay shared and no worker re-tokenizes a
    record.  TF/IDF weights hide their idf mapping inside the kernel
    closure, so they are warmed through a self-aligned kernel call
    (cost O(n) dot products) rather than a direct accessor.
    """
    records = list(table)
    if not records:
        return
    attr_types = {attr.name: attr.attr_type for attr in table.schema}
    for feature in features:
        column = cache.column(feature.attribute)
        column.missing_flags(records)
        measure = feature.measure
        if measure == "exact":
            accessors = (("numbers",)
                         if attr_types[feature.attribute] is AttrType.NUMERIC
                         else ("norms",))
        elif measure == "cosine_tfidf":
            if feature.batch_compute is not None:
                feature.batch_compute(column, records, column, records)
            continue
        else:
            accessors = _ACCESSOR_WARMERS.get(measure, ())
        for accessor in accessors:
            getattr(column, accessor)(records)


def _fork_available() -> bool:
    """Whether this platform supports forked worker pools."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _emit(bus: Any, name: str, **payload: Any) -> None:
    """Emit an event if a bus was provided (no-op otherwise)."""
    if bus is not None:
        bus.emit(name, **payload)


def _emit_shard_span(bus: Any, shard: Shard, result: _ShardResult,
                     n_workers: int, cached: bool) -> None:
    """Emit the started/completed pair for a shard loaded from disk.

    Cached shards emit the same two events as freshly computed ones —
    including the same logical ``worker`` slot, which depends only on
    the configured worker count — so a resumed run's shard counters and
    shard spans converge to exactly the uninterrupted run's values: the
    byte-identity contract for ``metrics.json``/``spans.jsonl`` extends
    to sharded blocking.
    """
    survivors, scanned, _cells, _sections = result
    slot = worker_slot(shard.index, n_workers)
    _emit(bus, EVENT_SHARD_STARTED, shard=shard.index, start=shard.start,
          stop=shard.stop, worker=slot, cached=cached)
    _emit(bus, EVENT_SHARD_COMPLETED, shard=shard.index,
          survivors=len(survivors), pairs_scanned=scanned, worker=slot,
          cached=cached)
