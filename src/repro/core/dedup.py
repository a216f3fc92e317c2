"""Single-table deduplication: the paper's "other EM setting" (§2).

Corleone's published setting matches two tables A and B; the paper
explicitly leaves other settings (e.g. deduplicating one dirty table) as
ongoing work.  This module closes that gap by *reducing* dedup to the
two-table pipeline:

* the input table plays both roles (A = B = T);
* self-pairs (t, t) are excluded up front — they are trivially matches
  and would pollute training and estimation;
* each unordered pair {s, t} is canonicalized to one ordered pair
  (min_id, max_id), halving the Cartesian product and preventing the
  crowd from paying twice for (s, t) and (t, s);
* predicted matches are closed transitively into duplicate *clusters*
  (connected components), which is what a dedup user actually wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CorleoneConfig
from ..crowd.base import CrowdPlatform
from ..crowd.cost import CostSnapshot
from ..data.pairs import Pair
from ..data.table import Record, Table
from ..exceptions import DataError
from .pipeline import Corleone, CorleoneResult


@dataclass
class DedupResult:
    """Duplicate pairs and their transitive clusters."""

    duplicate_pairs: frozenset[Pair]
    clusters: list[list[str]]
    """Groups of record ids that refer to the same entity (size >= 2)."""
    pipeline_result: CorleoneResult
    cost: CostSnapshot = field(default_factory=CostSnapshot)

    @property
    def n_duplicates(self) -> int:
        """Records that have at least one duplicate."""
        return sum(len(cluster) for cluster in self.clusters)


def canonical_pair(id_a: str, id_b: str) -> Pair:
    """The canonical ordered form of an unordered record-id pair."""
    if id_a == id_b:
        raise DataError("a record cannot pair with itself")
    return Pair(id_a, id_b) if id_a < id_b else Pair(id_b, id_a)


class Deduplicator:
    """Runs hands-off dedup on a single table.

    Executes through the same staged engine as :class:`Corleone`:
    ``seed`` fixes the underlying run's root seed sequence and
    ``run_dir`` enables the engine's checkpoint/resume machinery for
    the dedup run (``rng`` is the back-compat way to fix the seed).
    """

    def __init__(self, config: CorleoneConfig, platform: CrowdPlatform,
                 rng: np.random.Generator | None = None,
                 seed: int | None = None,
                 run_dir: str | None = None) -> None:
        self.config = config
        self.platform = platform
        self.rng = rng
        self.seed = seed
        self.run_dir = run_dir

    def run(self, table: Table, seed_labels: dict[Pair, bool],
            mode: str = "full") -> DedupResult:
        """Deduplicate ``table`` using the crowd.

        ``seed_labels`` name duplicate / distinct record pairs in any
        order; they are canonicalized here.  The underlying pipeline
        sees the table twice under disambiguated record ids ("L:" /
        "R:" prefixes), and a wrapped crowd platform translates
        questions back to canonical pairs so duplicate questions are
        answered consistently and cached once.
        """
        if len(table) < 2:
            raise DataError("dedup needs at least two records")
        seeds = {}
        for pair, label in seed_labels.items():
            seeds[canonical_pair(pair.a_id, pair.b_id)] = label

        left = _prefix_table(table, "L")
        right = _prefix_table(table, "R")
        prefixed_seeds = {
            Pair(f"L:{pair.a_id}", f"R:{pair.b_id}"): label
            for pair, label in seeds.items()
        }
        platform = _DedupPlatform(self.platform)
        pipeline = Corleone(self.config, platform, rng=self.rng,
                            seed=self.seed, run_dir=self.run_dir)
        result = pipeline.run(left, right, prefixed_seeds, mode=mode)

        duplicates: set[Pair] = set()
        for pair in result.predicted_matches:
            original_a = pair.a_id[2:]
            original_b = pair.b_id[2:]
            if original_a == original_b:
                continue  # self-pair: trivially a "match", not a duplicate
            duplicates.add(canonical_pair(original_a, original_b))

        return DedupResult(
            duplicate_pairs=frozenset(duplicates),
            clusters=cluster_duplicates(duplicates),
            pipeline_result=result,
            cost=result.cost,
        )


class _DedupPlatform(CrowdPlatform):
    """Strips the L:/R: prefixes and answers self-pairs for free."""

    def __init__(self, inner: CrowdPlatform) -> None:
        self.inner = inner

    def ask(self, pair: Pair):
        from ..crowd.base import WorkerAnswer
        original_a = pair.a_id[2:]
        original_b = pair.b_id[2:]
        if original_a == original_b:
            # A record always matches itself; no human needed.
            return WorkerAnswer(pair, True, worker_id=-1)
        answer = self.inner.ask(canonical_pair(original_a, original_b))
        return WorkerAnswer(pair, answer.label, answer.worker_id)


def _prefix_table(table: Table, prefix: str) -> Table:
    """A copy of ``table`` with record ids prefixed (schemas shared)."""
    return Table(
        f"{prefix}:{table.name}",
        table.schema,
        (
            Record(f"{prefix}:{record.record_id}", record.values)
            for record in table
        ),
    )


def cluster_duplicates(pairs: set[Pair] | frozenset[Pair]) -> list[list[str]]:
    """Connected components of the duplicate graph (union-find).

    Returns sorted clusters of record ids, largest first; singletons are
    omitted (a record without duplicates is not a cluster).
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        root_x, root_y = find(x), find(y)
        if root_x != root_y:
            parent[root_y] = root_x

    for pair in pairs:
        union(pair.a_id, pair.b_id)

    groups: dict[str, list[str]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    clusters = [sorted(group) for group in groups.values()
                if len(group) >= 2]
    clusters.sort(key=lambda c: (-len(c), c[0]))
    return clusters
