"""The sharded multi-core A x B executor (repro.exec).

Covers the determinism contract from every angle: a parity sweep
asserting that the executor returns the *identical* candidate list
(same pairs, same order) as the full-matrix oracle
(``tests/blocking_oracle.py``) on all three synthetic datasets, for 1,
2 and 4 workers and several shard sizes; shard planning invariants;
kill/resume mid-shard at the executor level and mid-block at the
engine level; the NaN-never-blocks missing-value contract; and the
fork-unavailable fallback event.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BlockerConfig, CorleoneConfig, ForestConfig, \
    MatcherConfig
from repro.data.table import AttrType, Record, Schema, Table
from repro.engine.events import (
    EVENT_BLOCKER_FALLBACK,
    EVENT_SHARD_COMPLETED,
    EVENT_SHARD_STARTED,
    EventBus,
)
from repro.exec import apply_rules_sharded, auto_shard_size, plan_shards
from repro.exceptions import DataError
from repro.exec.sharding import PLAN_FILE, ShardStore
from repro.features.library import build_feature_library
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.citations import generate_citations
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants

from .blocking_oracle import ChunkEvaluator, apply_rules_streaming

_DATASETS = {
    "restaurants": lambda: generate_restaurants(
        n_a=60, n_b=45, n_matches=15, seed=11),
    "products": lambda: generate_products(
        n_a=40, n_b=60, n_matches=15, seed=17),
    "citations": lambda: generate_citations(
        n_a=30, n_b=60, n_matches=10, seed=5),
}


def _blocking_rules(library) -> list[Rule]:
    """Single-predicate rules over string-similarity features.

    Two jaro_winkler/levenshtein rules, plus one cosine_tfidf rule when
    the library has such a feature (products and citations do): TF/IDF
    weights depend on the whole corpus, so a shard must see the
    parent's weights.  Thresholds are mid-range so each dataset blocks
    some pairs and keeps others — a parity assertion over an empty or
    full survivor list would prove nothing.
    """
    string_rules, tfidf_rules = [], []
    for index, feature in enumerate(library.features):
        if feature.measure in ("jaro_winkler", "levenshtein"):
            string_rules.append(Rule(
                [Predicate(index, feature.name, True, 0.45)],
                predicts_match=False,
            ))
        elif feature.measure == "cosine_tfidf":
            tfidf_rules.append(Rule(
                [Predicate(index, feature.name, True, 0.1)],
                predicts_match=False,
            ))
    assert string_rules, "no string-similarity feature in the library"
    return string_rules[:2] + tfidf_rules[:1]


@pytest.fixture(scope="module", params=sorted(_DATASETS))
def parity_setup(request):
    dataset = _DATASETS[request.param]()
    library = build_feature_library(dataset.table_a, dataset.table_b)
    rules = _blocking_rules(library)
    golden = apply_rules_streaming(dataset.table_a, dataset.table_b,
                                   rules, library)
    assert 0 < len(golden) < len(dataset.table_a) * len(dataset.table_b)
    return dataset, library, rules, golden


def _assert_sweep(parity_setup, n_workers: int) -> None:
    """Auto-sized shards and 7-row shards (a ragged last shard)."""
    dataset, library, rules, golden = parity_setup
    for shard_size in (0, 7):
        survivors = apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules, library,
            n_workers=n_workers, shard_size=shard_size)
        assert survivors == golden, (
            f"n_workers={n_workers} shard_size={shard_size} diverged")


class TestParitySweep:
    """The executor must return the oracle's identical candidate list."""

    def test_sharded_in_process_matches_streaming(self, parity_setup):
        _assert_sweep(parity_setup, n_workers=1)

    def test_sharded_pool_matches_streaming(self, parity_setup):
        for n_workers in (2, 4):
            _assert_sweep(parity_setup, n_workers)

    def test_sharded_is_shard_size_invariant(self, parity_setup):
        dataset, library, rules, golden = parity_setup
        for shard_size in (1, 7, len(dataset.table_a) + 5):
            survivors = apply_rules_sharded(
                dataset.table_a, dataset.table_b, rules, library,
                n_workers=2, shard_size=shard_size)
            assert survivors == golden, f"shard_size={shard_size} diverged"

    def test_sharded_handles_corpus_dependent_features(self):
        """TF/IDF rules shard safely (the legacy pool could not)."""
        schema = Schema.from_pairs([("desc", AttrType.TEXT)])
        table_a = Table("a", schema, [
            Record(f"a{i}", {"desc": f"alpha beta gamma {i}"})
            for i in range(12)
        ])
        table_b = Table("b", schema, [
            Record(f"b{i}", {"desc": f"alpha beta delta {i}"})
            for i in range(12)
        ])
        library = build_feature_library(table_a, table_b)
        index = library.names.index("desc_cosine_tfidf")
        rule = Rule([Predicate(index, "desc_cosine_tfidf", True, 0.2)],
                    predicts_match=False)
        golden = apply_rules_streaming(table_a, table_b, [rule], library)
        survivors = apply_rules_sharded(table_a, table_b, [rule], library,
                                        n_workers=4)
        assert survivors == golden


class TestShardPlanning:
    def test_partition_is_exact_and_never_empty(self):
        for n_rows in range(1, 50):
            for shard_size in range(1, 12):
                shards = plan_shards(n_rows, shard_size)
                covered = [
                    row for shard in shards
                    for row in range(shard.start, shard.stop)
                ]
                assert covered == list(range(n_rows))
                assert all(shard.rows > 0 for shard in shards)
                assert [s.index for s in shards] == list(range(len(shards)))

    def test_zero_rows_plans_nothing(self):
        assert plan_shards(0, 4) == []

    def test_invalid_shard_size_raises(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)

    def test_auto_shard_size_targets_four_per_worker(self):
        assert auto_shard_size(1600, 4) == 100
        assert auto_shard_size(3, 8) == 1
        assert auto_shard_size(0, 1) == 1


class TestKillResume:
    def _setup(self):
        dataset = _DATASETS["restaurants"]()
        library = build_feature_library(dataset.table_a, dataset.table_b)
        rules = _blocking_rules(library)
        golden = apply_rules_streaming(dataset.table_a, dataset.table_b,
                                       rules, library)
        return dataset, library, rules, golden

    def test_resume_after_kill_mid_shard_is_bit_identical(
            self, tmp_path, monkeypatch):
        """Kill after k completed shards, for every k; resume to golden."""
        dataset, library, rules, golden = self._setup()
        shard_size = 9
        n_shards = len(plan_shards(len(dataset.table_a), shard_size))
        assert n_shards >= 5
        original_write = ShardStore.write

        for kill_at in range(1, n_shards):
            shard_dir = tmp_path / f"kill{kill_at}"
            written = [0]

            def killing_write(self, index, survivors, pairs_scanned,
                              *args, _kill_at=kill_at, _written=written,
                              **kwargs):
                original_write(self, index, survivors, pairs_scanned,
                               *args, **kwargs)
                _written[0] += 1
                if _written[0] >= _kill_at:
                    raise KeyboardInterrupt("simulated kill")

            monkeypatch.setattr(ShardStore, "write", killing_write)
            with pytest.raises(KeyboardInterrupt):
                apply_rules_sharded(
                    dataset.table_a, dataset.table_b, rules, library,
                    n_workers=1, shard_size=shard_size,
                    shard_dir=shard_dir)
            monkeypatch.setattr(ShardStore, "write", original_write)

            bus = EventBus()
            cached = []
            bus.subscribe(lambda e, _c=cached: _c.append(e)
                          if e.payload.get("cached") else None)
            resumed = apply_rules_sharded(
                dataset.table_a, dataset.table_b, rules, library,
                n_workers=1, shard_size=shard_size, shard_dir=shard_dir,
                bus=bus)
            assert resumed == golden, f"kill after {kill_at} diverged"
            # The killed run persisted exactly kill_at shards; all of
            # them must be loaded (not recomputed) on resume.
            assert len(cached) == 2 * kill_at  # started + completed each

    def test_stale_directory_from_other_config_is_recomputed(
            self, tmp_path):
        """A shard directory left by different rules must not be loaded."""
        dataset, library, rules, golden = self._setup()
        shard_dir = tmp_path / "shards"
        apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                            library, shard_size=9, shard_dir=shard_dir)
        # Same geometry, different rule set -> different fingerprint.
        survivors = apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules[:1], library,
            shard_size=9, shard_dir=shard_dir)
        assert survivors == apply_rules_streaming(
            dataset.table_a, dataset.table_b, rules[:1], library)

    def test_resume_reemits_shard_events_for_loaded_shards(self, tmp_path):
        """Loaded shards re-emit events so resumed metrics converge."""
        dataset, library, rules, _ = self._setup()
        shard_dir = tmp_path / "shards"
        n_shards = len(plan_shards(len(dataset.table_a), 9))
        apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                            library, shard_size=9, shard_dir=shard_dir)
        bus = EventBus()
        names = []
        bus.subscribe(lambda e: names.append(e.name))
        apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                            library, shard_size=9, shard_dir=shard_dir,
                            bus=bus)
        assert names.count(EVENT_SHARD_STARTED) == n_shards
        assert names.count(EVENT_SHARD_COMPLETED) == n_shards


class TestShardStore:
    """What ``prepare`` and ``load`` accept from a shard directory."""

    def _store(self, tmp_path) -> ShardStore:
        store = ShardStore(tmp_path / "shards", fingerprint="f")
        store.prepare(n_shards=2)
        store.write(0, (np.array([0]), np.array([0])), pairs_scanned=1,
                    cells_computed=1)
        return store

    @pytest.mark.parametrize("manifested", [True, False])
    @pytest.mark.parametrize("damage", ["flipped_first_byte", "not_object"])
    def test_untrusted_plan_is_quarantined_and_shards_cleared(
            self, tmp_path, damage, manifested):
        store = self._store(tmp_path)
        plan = store.directory / PLAN_FILE
        data = plan.read_bytes()
        plan.write_bytes(bytes([data[0] ^ 0x80]) + data[1:]
                         if damage == "flipped_first_byte" else b"[1, 2]")
        if not manifested:
            # No manifest entry: the plan's content alone must be judged.
            (store.directory / "MANIFEST.json").unlink()
        assert ShardStore(store.directory, "f").prepare(n_shards=2) == set()
        assert not store.shard_path(0).exists()
        assert (store.directory / "quarantine" / PLAN_FILE).is_file()
        # The fresh plan written in its place verifies on the next resume.
        assert ShardStore(store.directory, "f").prepare(n_shards=2) == set()
        assert not (store.directory / "quarantine" / f"{PLAN_FILE}.1").exists()

    def test_shard_file_missing_a_key_is_a_typed_error(self, tmp_path):
        store = self._store(tmp_path)
        path = store.shard_path(0)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files
                      if name != "cells_computed"}
        np.savez(path, **arrays)
        with pytest.raises(DataError) as excinfo:
            store.load(0)
        assert str(path) in str(excinfo.value)
        assert "cells_computed" in str(excinfo.value)


class TestMissingValueSemantics:
    """Blocking's NaN contract: a pair with missing evidence survives.

    The production path has no explicit guard; the predicates' NaN
    handling alone must keep it, in process and across forked workers.
    """

    def _tables(self):
        schema = Schema.from_pairs([("name", AttrType.STRING)])
        table_a = Table("a", schema, [
            Record("a0", {"name": "alpha corp"}),
            Record("a1", {"name": None}),
        ])
        table_b = Table("b", schema, [
            Record("b0", {"name": "zzz unrelated"}),
            Record("b1", {"name": None}),
        ])
        return table_a, table_b

    def _rule(self, library, nan_satisfies: bool = False) -> Rule:
        index = library.names.index("name_jaro_winkler")
        # le=True with a high threshold blocks everything comparable.
        return Rule([Predicate(index, "name_jaro_winkler", True, 0.99,
                               nan_satisfies=nan_satisfies)],
                    predicts_match=False)

    def _sharded(self, table_a, table_b, rule, library):
        """The survivors at 1 and 2 workers (one-row shards)."""
        return [apply_rules_sharded(table_a, table_b, [rule], library,
                                    n_workers=n_workers, shard_size=1)
                for n_workers in (1, 2)]

    def test_nan_never_blocks(self):
        table_a, table_b = self._tables()
        library = build_feature_library(table_a, table_b)
        rule = self._rule(library)
        for survivors in [apply_rules_streaming(table_a, table_b, [rule],
                                                library),
                          *self._sharded(table_a, table_b, rule, library)]:
            survivor_ids = {(p.a_id, p.b_id) for p in survivors}
            # Every pair touching a missing name carries no evidence and
            # must survive; the fully-present dissimilar pair is blocked.
            assert ("a0", "b0") not in survivor_ids
            assert {("a0", "b1"), ("a1", "b0"), ("a1", "b1")} \
                <= survivor_ids

    def test_nan_satisfies_predicates_may_block(self):
        table_a, table_b = self._tables()
        library = build_feature_library(table_a, table_b)
        rule = self._rule(library, nan_satisfies=True)
        evaluator = ChunkEvaluator(table_a, table_b, [rule], library)
        assert evaluator.nan_can_block
        assert apply_rules_streaming(table_a, table_b, [rule],
                                     library) == []
        # Everything blocked, missing included.
        assert self._sharded(table_a, table_b, rule, library) == [[], []]

    def test_guard_preserves_executor_parity(self):
        table_a, table_b = self._tables()
        library = build_feature_library(table_a, table_b)
        rule = self._rule(library)
        golden = apply_rules_streaming(table_a, table_b, [rule], library)
        assert self._sharded(table_a, table_b, rule, library) == \
            [golden, golden]


class TestFallbackSurfacing:
    def test_fork_unavailable_emits_fallback_event(self, monkeypatch):
        from repro.exec import executor as executor_module
        dataset = _DATASETS["restaurants"]()
        library = build_feature_library(dataset.table_a, dataset.table_b)
        rules = _blocking_rules(library)
        golden = apply_rules_streaming(dataset.table_a, dataset.table_b,
                                       rules, library)
        monkeypatch.setattr(executor_module, "_fork_available",
                            lambda: False)
        bus = EventBus()
        events = []
        bus.subscribe(lambda e: events.append(e))
        survivors = apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules, library,
            n_workers=4, bus=bus)
        assert survivors == golden
        fallbacks = [e for e in events
                     if e.name == EVENT_BLOCKER_FALLBACK]
        assert len(fallbacks) == 1
        assert fallbacks[0].payload["reason"] == "fork_unavailable"


class TestWorkerTelemetry:
    """Worker slots and captured sections (repro.obs.workers)."""

    def _setup(self):
        dataset = _DATASETS["restaurants"]()
        library = build_feature_library(dataset.table_a, dataset.table_b)
        rules = _blocking_rules(library)
        return dataset, library, rules

    def _shard_payloads(self, **kwargs):
        dataset, library, rules = self._setup()
        bus = EventBus()
        payloads = []
        bus.subscribe(lambda e: payloads.append((e.name, dict(e.payload))))
        apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                            library, bus=bus, **kwargs)
        return [p for name, p in payloads
                if name in (EVENT_SHARD_STARTED, EVENT_SHARD_COMPLETED)]

    def test_worker_slot_is_shard_index_mod_n_workers(self):
        for payload in self._shard_payloads(n_workers=3, shard_size=9):
            assert payload["worker"] == payload["shard"] % 3

    def test_worker_slot_identical_across_pool_and_fallback(
            self, monkeypatch):
        from repro.exec import executor as executor_module

        def by_shard(payloads):
            return sorted(payloads, key=lambda p: (p["shard"], len(p)))

        pooled = self._shard_payloads(n_workers=3, shard_size=9)
        monkeypatch.setattr(executor_module, "_fork_available",
                            lambda: False)
        fallback = self._shard_payloads(n_workers=3, shard_size=9)
        # The pool announces every shard_started upfront while the
        # fallback interleaves, so compare per-shard payloads, not
        # global order: the worker attribution must be identical.
        assert by_shard(pooled) == by_shard(fallback)

    def test_cached_shards_replay_worker_slot_and_sections(self, tmp_path):
        dataset, library, rules = self._setup()
        shard_dir = tmp_path / "shards"
        apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                            library, n_workers=2, shard_size=9,
                            shard_dir=shard_dir)
        # The persisted shard carries the worker's wall-clock sections.
        from repro.exec.sharding import shard_fingerprint
        from repro.plan import PlanExecutor
        chunk = PlanExecutor(dataset.table_a, dataset.table_b, rules,
                             library).chunk_pairs
        fingerprint = shard_fingerprint(dataset.table_a, dataset.table_b,
                                        rules, library, 9, chunk)
        store = ShardStore(shard_dir, fingerprint)
        _, _, _, sections = store.load(0)
        assert "blocker.shard_flush" in sections
        assert sections["blocker.shard_flush"]["calls"] >= 1
        # A resume loads every shard; the replayed events carry the
        # same deterministic worker slot as the fresh run.
        bus = EventBus()
        payloads = []
        bus.subscribe(lambda e: payloads.append(dict(e.payload))
                      if e.name == EVENT_SHARD_COMPLETED else None)
        apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                            library, n_workers=2, shard_size=9,
                            shard_dir=shard_dir, bus=bus)
        assert payloads and all(p["cached"] for p in payloads)
        for payload in payloads:
            assert payload["worker"] == payload["shard"] % 2

    def test_worker_sections_merge_into_active_profiler(self):
        from repro.obs.profiling import Profiler, activate, deactivate
        dataset, library, rules = self._setup()
        profiler = Profiler()
        activate(profiler)
        try:
            apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                                library, n_workers=2, shard_size=9)
        finally:
            deactivate(profiler)
        worker_keys = [name for name in profiler.sections
                       if name.startswith("worker")]
        assert any(name == "worker0.blocker.shard_flush"
                   for name in worker_keys)
        assert any(name == "worker1.blocker.shard_flush"
                   for name in worker_keys)
        # The parent-side prewarm stays unprefixed.
        assert "blocker.shard_prewarm" in profiler.sections


class TestEngineIntegration:
    def _config(self, n_workers: int) -> CorleoneConfig:
        return CorleoneConfig(
            forest=ForestConfig(n_trees=5),
            blocker=BlockerConfig(t_b=1500, top_k_rules=10,
                                  max_labels_per_rule=60,
                                  n_workers=n_workers),
            matcher=MatcherConfig(batch_size=10, pool_size=40,
                                  n_converged=8, n_degrade=6,
                                  max_iterations=12),
            max_pipeline_iterations=1,
            seed=0,
        )

    def _run(self, config, dataset, crowd, **kwargs):
        from repro.core.pipeline import Corleone
        return Corleone(config, crowd(), seed=123, **kwargs).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

    @pytest.fixture(scope="class")
    def engine_setup(self):
        from repro.crowd.simulated import PerfectCrowd
        dataset = generate_restaurants(n_a=60, n_b=40, n_matches=15,
                                       seed=7)

        def crowd():
            return PerfectCrowd(dataset.matches,
                                rng=np.random.default_rng(11))

        golden = self._run(self._config(1), dataset, crowd)
        return dataset, crowd, golden

    def test_blocked_run_candidates_equal_the_oracle(self, engine_setup):
        """A blocked run's umbrella set is the oracle over its rules."""
        dataset, _, golden = engine_setup
        blocker = golden.blocker
        assert blocker.triggered and blocker.applied_rules
        library = build_feature_library(dataset.table_a, dataset.table_b)
        assert blocker.candidate_pairs == apply_rules_streaming(
            dataset.table_a, dataset.table_b, blocker.applied_rules,
            library)

    def test_sharded_executor_reaches_streaming_golden(self, engine_setup):
        """Worker count must not change the pipeline result at all: a
        2-worker run reaches the in-process (n_workers=1) golden."""
        from repro import persistence
        dataset, crowd, golden = engine_setup
        result = self._run(self._config(2), dataset, crowd)
        assert persistence.result_report(result) == \
            persistence.result_report(golden)

    def _kill_mid_blocking(self, engine_setup, run_dir) -> None:
        """Run 2 workers into ``run_dir``; die after 2 completed shards."""
        from repro.core.pipeline import Corleone
        dataset, crowd, _ = engine_setup

        class _Killed(Exception):
            pass

        seen = [0]

        def killer(event):
            if event.name == EVENT_SHARD_COMPLETED:
                seen[0] += 1
                if seen[0] >= 2:
                    raise _Killed()

        pipeline = Corleone(self._config(2), crowd(), seed=123,
                            run_dir=run_dir)
        pipeline.bus.subscribe(killer)
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        shard_files = list((run_dir / "shards").glob("shard-*.npz"))
        assert len(shard_files) >= 2  # progress survived the kill

    def test_kill_mid_blocking_resumes_bit_identically(
            self, engine_setup, tmp_path):
        """Kill the engine run mid-shard; resume reuses shard files."""
        import json

        from repro import persistence
        from repro.core.pipeline import Corleone
        _, crowd, golden = engine_setup
        run_dir = tmp_path / "run"
        self._kill_mid_blocking(engine_setup, run_dir)

        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == \
            persistence.result_report(golden)

        # The resumed run's shard metrics converge to the full count:
        # loaded shards re-emitted their events.
        metrics = json.loads((run_dir / "metrics.json").read_text())
        families = metrics["metrics"]
        started = families["corleone_shards_started_total"]["series"]
        completed = families["corleone_shards_completed_total"]["series"]
        assert started and completed
        assert started[0]["value"] == completed[0]["value"] > 0

    def test_corrupt_plan_after_kill_resumes_bit_identically(
            self, engine_setup, tmp_path):
        """A plan.json bit-flipped between kill and resume is
        quarantined; every shard is recomputed to the same result."""
        from repro import persistence
        from repro.core.pipeline import Corleone
        _, crowd, golden = engine_setup
        run_dir = tmp_path / "run"
        self._kill_mid_blocking(engine_setup, run_dir)
        plan = run_dir / "shards" / PLAN_FILE
        data = plan.read_bytes()
        plan.write_bytes(bytes([data[0] ^ 0x80]) + data[1:])

        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == \
            persistence.result_report(golden)
        assert (run_dir / "shards" / "quarantine" / PLAN_FILE).is_file()
