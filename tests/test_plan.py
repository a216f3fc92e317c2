"""The columnar plan compiler, executor and spill layer (repro.plan).

Four layers of coverage: property tests over the compiler's greedy
cheapest-marginal-first ordering and predicate pushdown; a bit-exact
parity sweep (plan executor vs the full-matrix oracle of
``tests/blocking_oracle.py``, under rule permutations, chunk geometries
and worker counts) on all three synthetic datasets; the spill manager +
external-candidates persistence contract; and engine-level integration
— a spill-backed hands-off run must reproduce the in-RAM report byte
for byte, including through kill/resume at spill-referencing
checkpoints.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    BlockerConfig,
    CorleoneConfig,
    ForestConfig,
    MatcherConfig,
    PlanConfig,
)
from repro.data.table import AttrType
from repro.exceptions import ConfigurationError, DataError
from repro.exec import apply_rules_sharded
from repro.features.batch import cache_stats, kernel_for, \
    reset_cache_stats
from repro.features.library import Feature, FeatureLibrary, \
    build_feature_library
from repro.features.vectorize import vectorize_pairs
from repro.persistence import load_candidates, save_candidates
from repro.plan import (
    PlanStats,
    SpillManager,
    apply_rules_plan,
    compile_blocking_plan,
    open_readonly,
    spill_path,
)
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.citations import generate_citations
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants

from .blocking_oracle import apply_rules_streaming

_DATASETS = {
    "restaurants": lambda: generate_restaurants(
        n_a=60, n_b=45, n_matches=15, seed=11),
    "products": lambda: generate_products(
        n_a=40, n_b=60, n_matches=15, seed=17),
    "citations": lambda: generate_citations(
        n_a=30, n_b=60, n_matches=10, seed=5),
}


def _blocking_rules(library) -> list[Rule]:
    """Mixed-cost rules so plan ordering has real work to do."""
    rules = []
    for feature in library.features:
        if feature.measure in ("jaro_winkler", "levenshtein",
                               "jaccard_word", "cosine_tfidf"):
            index = library.names.index(feature.name)
            rules.append(Rule(
                [Predicate(index, feature.name, True, 0.45)],
                predicts_match=False,
            ))
        if len(rules) == 3:
            break
    assert len(rules) >= 2, "not enough string features in the library"
    return rules


# ----------------------------------------------------------------------
# Compiler properties
# ----------------------------------------------------------------------

def _toy_library(costs: list[float]) -> FeatureLibrary:
    """A feature library with the given per-column costs."""
    kernel = kernel_for("exact", AttrType.STRING)
    return FeatureLibrary([
        Feature(name=f"f{i}", attribute=f"a{i}", measure="exact",
                cost=cost, kernel=kernel)
        for i, cost in enumerate(costs)
    ])


@st.composite
def _compile_inputs(draw):
    n_features = draw(st.integers(min_value=2, max_value=8))
    costs = draw(st.lists(
        st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
        min_size=n_features, max_size=n_features))
    n_rules = draw(st.integers(min_value=1, max_value=6))
    rules = []
    for _ in range(n_rules):
        indices = draw(st.lists(
            st.integers(min_value=0, max_value=n_features - 1),
            min_size=1, max_size=4))
        rules.append(Rule(
            [Predicate(i, f"f{i}", True, 0.5) for i in indices],
            predicts_match=False,
        ))
    return costs, rules


class TestCompileBlockingPlan:
    @settings(max_examples=200, deadline=None)
    @given(_compile_inputs())
    def test_greedy_order_and_pushdown_invariants(self, inputs):
        """The compiled plan honours every structural contract at once:
        each rule exactly once, greedily minimal marginal cost at every
        position, shared-first/ascending-cost steps, exact accounting.
        """
        costs, rules = inputs
        library = _toy_library(costs)
        plan = compile_blocking_plan(rules, library)

        # Every input rule appears exactly once, by provenance index.
        assert sorted(n.source_index for n in plan.nodes) == \
            list(range(len(rules)))
        for node in plan.nodes:
            assert node.rule is rules[node.source_index]

        computed: set[int] = set()
        placed: set[int] = set()
        for position, node in enumerate(plan.nodes):
            assert node.position == position

            def marginal(rule) -> float:
                return sum(costs[i] for i in rule.feature_indices
                           if i not in computed)

            # Greedy minimality: no unplaced rule was strictly cheaper.
            assert node.marginal_cost == pytest.approx(marginal(node.rule))
            others = [marginal(rule) for src, rule in enumerate(rules)
                      if src not in placed and src != node.source_index]
            assert all(node.marginal_cost <= other + 1e-12
                       for other in others)

            # Pushdown: pre-paid feature groups first, then new groups
            # by ascending (cost, index); only a group's first step
            # pays, and groups never interleave.
            first_seen: list[int] = []
            for step in node.steps:
                index = step.predicate.feature_index
                if index not in first_seen:
                    first_seen.append(index)
                expected_shared = (index in computed
                                   or index in first_seen[:-1]
                                   or (index == first_seen[-1]
                                       and step is not next(
                                           s for s in node.steps
                                           if s.predicate.feature_index
                                           == index)))
                assert step.shared == expected_shared
                assert step.cost == (0.0 if step.shared
                                     else costs[index])
            assert len(first_seen) == len(set(first_seen))
            keys = [(0 if i in computed else 1,
                     0.0 if i in computed else costs[i], i)
                    for i in first_seen]
            assert keys == sorted(keys)
            assert node.marginal_cost == pytest.approx(
                sum(s.cost for s in node.steps))

            computed.update(node.rule.feature_indices)
            placed.add(node.source_index)

        assert plan.needed == tuple(sorted(computed))
        assert plan.total_cost == pytest.approx(
            sum(costs[i] for i in plan.needed))

    def test_shared_features_cost_nothing_for_later_rules(self):
        library = _toy_library([1.0, 6.0, 3.0])
        cheap = Rule([Predicate(1, "f1", True, 0.5)], predicts_match=False)
        free_rider = Rule([Predicate(1, "f1", False, 0.2),
                           Predicate(0, "f0", True, 0.5)],
                          predicts_match=False)
        plan = compile_blocking_plan([free_rider, cheap], library)
        # cheap (cost 6) runs first only if chosen... it is not: the
        # free_rider costs 7, so cheap's 6 wins; free_rider then pays
        # only f0 because f1 is already materialized.
        assert [n.source_index for n in plan.nodes] == [1, 0]
        assert plan.nodes[1].marginal_cost == pytest.approx(1.0)
        shared_steps = [s for s in plan.nodes[1].steps if s.shared]
        assert [s.predicate.feature_index for s in shared_steps] == [1]
        assert "[shared]" in plan.describe()


# ----------------------------------------------------------------------
# Bit-exact parity sweep
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=sorted(_DATASETS))
def parity_setup(request):
    dataset = _DATASETS[request.param]()
    library = build_feature_library(dataset.table_a, dataset.table_b)
    rules = _blocking_rules(library)
    golden = apply_rules_streaming(dataset.table_a, dataset.table_b,
                                   rules, library)
    assert 0 < len(golden) < len(dataset.table_a) * len(dataset.table_b)
    return dataset, library, rules, golden


class TestPlanParity:
    """The plan engine must return the identical candidate list."""

    def test_plan_matches_streaming(self, parity_setup):
        dataset, library, rules, golden = parity_setup
        assert apply_rules_plan(dataset.table_a, dataset.table_b,
                                rules, library) == golden

    def test_rule_order_never_changes_survivors(self, parity_setup):
        dataset, library, rules, golden = parity_setup
        for permuted in (list(reversed(rules)),
                         rules[1:] + rules[:1]):
            assert apply_rules_plan(dataset.table_a, dataset.table_b,
                                    permuted, library) == golden

    def test_chunk_geometry_invariant(self, parity_setup):
        dataset, library, rules, golden = parity_setup
        for chunk_size in (7, 64):
            assert apply_rules_plan(dataset.table_a, dataset.table_b,
                                    rules, library,
                                    chunk_size=chunk_size) == golden

    def test_sharded_stats_are_worker_count_invariant(self, parity_setup):
        dataset, library, rules, _ = parity_setup
        snapshots = []
        for n_workers in (1, 3):
            stats = PlanStats()
            apply_rules_sharded(dataset.table_a, dataset.table_b, rules,
                                library, n_workers=n_workers,
                                stats=stats)
            snapshots.append(stats.as_dict())
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["pairs"] > 0
        assert snapshots[0]["cells_computed"] <= \
            snapshots[0]["pairs"] * snapshots[0]["needed_width"]

    def test_plan_prunes_cells(self, parity_setup):
        dataset, library, rules, _ = parity_setup
        stats = PlanStats()
        apply_rules_plan(dataset.table_a, dataset.table_b, rules,
                         library, stats=stats)
        assert stats.cells_computed < stats.cells_budget
        assert stats.cells_pruned == \
            stats.cells_budget - stats.cells_computed

    def test_vectorize_out_buffer_is_filled_in_place(self, parity_setup):
        dataset, library, _, golden = parity_setup
        out = np.empty((len(golden), len(library)), dtype=np.float64,
                       order="F")
        result = vectorize_pairs(dataset.table_a, dataset.table_b,
                                 golden, library, out=out)
        assert result.features.base is out or result.features is out

    def test_vectorize_row_major_out_rejected(self, parity_setup):
        dataset, library, _, golden = parity_setup
        row_major = np.empty((len(golden), len(library)), dtype=np.float64)
        with pytest.raises(DataError, match="Fortran"):
            vectorize_pairs(dataset.table_a, dataset.table_b, golden,
                            library, out=row_major)

    def test_vectorize_out_shape_mismatch_rejected(self, parity_setup):
        dataset, library, _, golden = parity_setup
        bad = np.empty((len(golden) + 1, len(library)), dtype=np.float64)
        with pytest.raises(DataError):
            vectorize_pairs(dataset.table_a, dataset.table_b, golden,
                            library, out=bad)


class TestCacheMissAccounting:
    def test_warm_second_pass_adds_no_misses(self):
        dataset = _DATASETS["products"]()
        library = build_feature_library(dataset.table_a, dataset.table_b)
        rules = _blocking_rules(library)
        reset_cache_stats()
        apply_rules_plan(dataset.table_a, dataset.table_b, rules, library)
        cold = dict(cache_stats())
        assert cold, "cold pass recorded no cache misses"
        apply_rules_plan(dataset.table_a, dataset.table_b, rules, library)
        assert dict(cache_stats()) == cold

    def test_library_rebuild_shows_tfidf_table_waste(self):
        """The legacy per-rule TF/IDF rebuild becomes a visible count."""
        dataset = _DATASETS["products"]()
        library = build_feature_library(dataset.table_a, dataset.table_b)
        pairs = apply_rules_streaming(
            dataset.table_a, dataset.table_b,
            _blocking_rules(library), library)
        reset_cache_stats()
        vectorize_pairs(dataset.table_a, dataset.table_b, pairs, library)
        first = cache_stats().get("tfidf_table", 0)
        assert first > 0
        rebuilt = build_feature_library(dataset.table_a, dataset.table_b)
        vectorize_pairs(dataset.table_a, dataset.table_b, pairs, rebuilt)
        assert cache_stats().get("tfidf_table", 0) > first


# ----------------------------------------------------------------------
# Spill manager + external candidates persistence
# ----------------------------------------------------------------------

class TestSpillManager:
    def test_small_matrices_stay_on_heap(self, tmp_path):
        spill = SpillManager(tmp_path / "spill", threshold_bytes=1 << 20)
        array = spill.allocate("tiny", (4, 4))
        assert not isinstance(array, np.memmap)
        assert spill.bytes_spilled == 0
        assert spill_path(array) is None
        assert not (tmp_path / "spill").exists()

    def test_large_matrices_spill_to_npy(self, tmp_path):
        spill = SpillManager(tmp_path / "spill", threshold_bytes=64)
        array = spill.allocate("big", (8, 8))
        assert isinstance(array, np.memmap)
        assert spill.bytes_spilled == array.nbytes
        assert (tmp_path / "spill" / "big.npy").is_file()
        assert spill_path(array) == tmp_path / "spill" / "big.npy"
        assert "big" in spill.manifest()

    def test_threshold_zero_disables_spilling(self, tmp_path):
        spill = SpillManager(tmp_path / "spill", threshold_bytes=0)
        assert not isinstance(spill.allocate("x", (100, 100)), np.memmap)

    def test_spilled_bytes_roundtrip_readonly(self, tmp_path):
        spill = SpillManager(tmp_path / "spill", threshold_bytes=1)
        array = spill.allocate("data", (5, 3))
        array[:] = np.arange(15, dtype=np.float64).reshape(5, 3)
        spill.close()
        reread = open_readonly(tmp_path / "spill" / "data.npy")
        assert not reread.flags.writeable
        assert np.array_equal(
            reread, np.arange(15, dtype=np.float64).reshape(5, 3))

    def test_spill_path_sees_through_asarray_views(self, tmp_path):
        spill = SpillManager(tmp_path / "spill", threshold_bytes=1)
        array = spill.allocate("v", (4, 2))
        view = np.asarray(array)
        assert spill_path(view) == tmp_path / "spill" / "v.npy"


class TestExternalCandidates:
    def _candidates(self, tmp_path):
        dataset = _DATASETS["restaurants"]()
        library = build_feature_library(dataset.table_a, dataset.table_b)
        rules = _blocking_rules(library)
        pairs = apply_rules_streaming(dataset.table_a, dataset.table_b,
                                      rules, library)
        spill = SpillManager(tmp_path / "spill", threshold_bytes=1)
        out = spill.allocate("candidates", (len(pairs), len(library)))
        candidates = vectorize_pairs(dataset.table_a, dataset.table_b,
                                     pairs, library, out=out)
        spill.close()
        return candidates

    def test_external_roundtrip_is_bit_identical(self, tmp_path):
        candidates = self._candidates(tmp_path)
        path = tmp_path / "candidates.npz"
        save_candidates(candidates, path,
                        external_features="spill/candidates.npy")
        with np.load(path, allow_pickle=False) as data:
            assert "features" not in data.files
            assert str(data["features_file"][0]) == "spill/candidates.npy"
        loaded = load_candidates(path)
        assert loaded.pairs == candidates.pairs
        assert loaded.features.tobytes() == candidates.features.tobytes()
        assert isinstance(
            loaded.features if isinstance(loaded.features, np.memmap)
            else loaded.features.base, np.memmap)

    def test_missing_spill_file_fails_loudly(self, tmp_path):
        candidates = self._candidates(tmp_path)
        path = tmp_path / "candidates.npz"
        save_candidates(candidates, path,
                        external_features="spill/candidates.npy")
        (tmp_path / "spill" / "candidates.npy").unlink()
        with pytest.raises(DataError, match="spill file"):
            load_candidates(path)

    def test_swapped_spill_file_fails_fingerprint_check(self, tmp_path):
        candidates = self._candidates(tmp_path)
        path = tmp_path / "candidates.npz"
        save_candidates(candidates, path,
                        external_features="spill/candidates.npy")
        np.save(tmp_path / "spill" / "candidates.npy",
                np.zeros((2, 2), dtype=np.float64))
        with pytest.raises(DataError, match="recorded"):
            load_candidates(path)


class TestPlanConfig:
    def test_negative_spill_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="spill_threshold"):
            CorleoneConfig(plan=PlanConfig(spill_threshold_mb=-1.0))

    def test_threshold_mb_converts_to_bytes(self):
        assert PlanConfig(spill_threshold_mb=2.0).spill_threshold_bytes \
            == 2 * 1024 * 1024


# ----------------------------------------------------------------------
# Engine integration: spill through checkpoints
# ----------------------------------------------------------------------

class TestEngineIntegration:
    def _config(self, plan: PlanConfig) -> CorleoneConfig:
        return CorleoneConfig(
            forest=ForestConfig(n_trees=5),
            blocker=BlockerConfig(t_b=1500, top_k_rules=10,
                                  max_labels_per_rule=60,
                                  n_workers=2),
            matcher=MatcherConfig(batch_size=10, pool_size=40,
                                  n_converged=8, n_degrade=6,
                                  max_iterations=12),
            max_pipeline_iterations=1,
            seed=0,
            plan=plan,
        )

    def _run(self, config, dataset, crowd, **kwargs):
        from repro.core.pipeline import Corleone
        return Corleone(config, crowd(), seed=123, **kwargs).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)

    @pytest.fixture(scope="class")
    def engine_setup(self, tmp_path_factory):
        from repro import persistence
        from repro.crowd.simulated import PerfectCrowd
        dataset = generate_restaurants(n_a=60, n_b=40, n_matches=15,
                                       seed=7)

        def crowd():
            return PerfectCrowd(dataset.matches,
                                rng=np.random.default_rng(11))

        golden = self._run(self._config(PlanConfig()), dataset, crowd)
        golden_report = persistence.result_report(golden)

        # The uninterrupted spill run every resume test compares
        # against (report AND checkpointed metrics must both match).
        run_dir = tmp_path_factory.mktemp("plan") / "golden_run"
        spill_plan = PlanConfig(spill_threshold_mb=0.001)
        result = self._run(self._config(spill_plan), dataset, crowd,
                           run_dir=run_dir)
        assert persistence.result_report(result) == golden_report
        return dataset, crowd, golden_report, run_dir, spill_plan

    def test_spill_run_checkpoints_reference_the_spill_file(
            self, engine_setup):
        _, _, _, run_dir, _ = engine_setup
        assert (run_dir / "spill" / "candidates.npy").is_file()
        with np.load(run_dir / "candidates.npz",
                     allow_pickle=False) as data:
            assert "features_file" in data.files
            assert "features" not in data.files
        loaded = load_candidates(run_dir / "candidates.npz")
        spilled = open_readonly(run_dir / "spill" / "candidates.npy")
        assert loaded.features.tobytes() == spilled.tobytes()

    def test_spill_run_records_plan_and_spill_metrics(self, engine_setup):
        _, _, _, run_dir, _ = engine_setup
        families = json.loads(
            (run_dir / "metrics.json").read_text())["metrics"]
        cells = {
            series["labels"]["outcome"]: series["value"]
            for series in
            families["corleone_plan_feature_cells_total"]["series"]
        }
        assert cells["computed"] > 0
        spilled = families["corleone_spill_bytes_total"]["series"]
        assert spilled and spilled[0]["value"] > 0

    def test_kill_mid_blocking_resumes_bit_identically(
            self, engine_setup, tmp_path):
        from repro import persistence
        from repro.core.pipeline import Corleone
        from repro.engine.events import EVENT_SHARD_COMPLETED
        dataset, crowd, golden_report, golden_dir, spill_plan = \
            engine_setup
        run_dir = tmp_path / "run"

        class _Killed(Exception):
            pass

        seen = [0]

        def killer(event):
            if event.name == EVENT_SHARD_COMPLETED:
                seen[0] += 1
                if seen[0] >= 2:
                    raise _Killed()

        pipeline = Corleone(self._config(spill_plan), crowd(), seed=123,
                            run_dir=run_dir)
        pipeline.bus.subscribe(killer)
        with pytest.raises(_Killed):
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)

        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == golden_report
        # The byte-identity contract extends to the plan/spill metrics:
        # the resumed run's metrics.json equals the uninterrupted one's.
        assert (run_dir / "metrics.json").read_text() == \
            (golden_dir / "metrics.json").read_text()

    def test_kill_at_spill_checkpoint_resumes_bit_identically(
            self, engine_setup, tmp_path, monkeypatch):
        """Die after checkpoint 3 (candidates already reference the
        spill file); resume memory-maps them back and converges."""
        from repro import persistence
        from repro.core.pipeline import Corleone
        from repro.engine.checkpoint import Checkpointer
        dataset, crowd, golden_report, golden_dir, spill_plan = \
            engine_setup
        run_dir = tmp_path / "run"

        class _Killed(Exception):
            pass

        original = Checkpointer.write
        written = [0]

        def killing_write(self, state, ctx):
            index = original(self, state, ctx)
            written[0] += 1
            if written[0] == 3:
                raise _Killed()
            return index

        monkeypatch.setattr(Checkpointer, "write", killing_write)
        with pytest.raises(_Killed):
            self._run(self._config(spill_plan), dataset, crowd,
                      run_dir=run_dir)
        monkeypatch.setattr(Checkpointer, "write", original)

        with np.load(run_dir / "candidates.npz",
                     allow_pickle=False) as data:
            assert "features_file" in data.files  # killed post-spill

        resumed = Corleone.resume(run_dir, crowd())
        assert persistence.result_report(resumed) == golden_report
        assert (run_dir / "metrics.json").read_text() == \
            (golden_dir / "metrics.json").read_text()
