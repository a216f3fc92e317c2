"""Shard planning and durable per-shard results for blocking runs.

A *shard* is a contiguous slice of table A's rows; its work unit is the
slice crossed with all of B.  Planning is pure arithmetic and part of
the determinism contract: the same ``(n_rows, shard_size)`` always
yields the same shard list, shards partition ``range(n_rows)`` exactly,
and no shard is ever empty.

:class:`ShardStore` persists one ``shard-NNNNN.npz`` file per completed
shard under a run's ``shards/`` directory, next to a ``plan.json``
carrying a fingerprint of everything the shard results depend on
(tables, feature names, rules, shard/chunk geometry).  A resumed run
with the same fingerprint loads completed shards instead of recomputing
them; a directory left by a *different* configuration — or whose
``plan.json`` fails its checksum or does not parse — is cleared, since
its shard files would splice wrong survivors into the merge.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import DataError
from ..storage.recovery import quarantine_artifact, verify_artifact
from ..storage.writer import ArtifactWriter, load_manifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.table import Table
    from ..features.library import FeatureLibrary
    from ..rules.rule import Rule

PLAN_FILE = "plan.json"
"""Manifest written into every shard directory (fingerprint + geometry)."""


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of table A's row range."""

    index: int
    start: int
    stop: int

    @property
    def rows(self) -> int:
        """Number of A rows in this shard."""
        return self.stop - self.start


def plan_shards(n_rows: int, shard_size: int) -> list[Shard]:
    """Partition ``range(n_rows)`` into contiguous non-empty shards.

    Every row belongs to exactly one shard, shards are returned in row
    order, and the trailing shard simply holds the remainder — there is
    no empty shard to skip, by construction (``range(0, n_rows,
    shard_size)`` only yields starts strictly below ``n_rows``).
    """
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    if n_rows <= 0:
        return []
    return [
        Shard(index=index, start=start,
              stop=min(start + shard_size, n_rows))
        for index, start in enumerate(range(0, n_rows, shard_size))
    ]


def auto_shard_size(n_rows: int, n_workers: int) -> int:
    """A shard size giving roughly four shards per worker.

    Oversplitting (vs one shard per worker) keeps the pool busy when
    shards finish unevenly, and bounds how much work a kill/resume
    cycle has to redo; four per worker is the conventional balance.
    """
    slots = 4 * max(1, n_workers)
    return max(1, -(-n_rows // slots))


def shard_fingerprint(table_a: "Table", table_b: "Table",
                      rules: "list[Rule]", library: "FeatureLibrary",
                      shard_size: int, chunk_size: int) -> str:
    """Hash of everything a shard result depends on.

    Two runs with the same fingerprint produce byte-identical shard
    files, so a resumed run may load them; anything else (different
    rules, tables, feature order or geometry) must recompute.
    """
    from ..persistence import rule_to_dict

    document = {
        "table_a": [table_a.name, list(table_a.record_ids)],
        "table_b": [table_b.name, list(table_b.record_ids)],
        "library": list(library.names),
        "rules": [rule_to_dict(rule) for rule in rules],
        "shard_size": int(shard_size),
        "chunk_size": int(chunk_size),
    }
    canonical = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


class ShardStore:
    """Durable per-shard survivor lists under one directory.

    Writes go through :mod:`repro.storage.writer` (tmp file, fsync,
    atomic replace, directory fsync), so a kill mid-write never leaves
    a truncated shard file — a shard either exists completely or not
    at all, which is what makes resume safe.  The store keeps its own
    ``MANIFEST.json`` ledger inside the shard directory; ``prepare``
    re-verifies every completed shard's sha256 against it, so a
    bit-rotted shard is quarantined and recomputed instead of splicing
    corrupt survivors into the merge.
    """

    def __init__(self, directory: str | Path, fingerprint: str) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.writer = ArtifactWriter(self.directory)
        self.shards_quarantined = 0
        """Corrupt shard files quarantined by :meth:`prepare`."""

    def shard_path(self, index: int) -> Path:
        """The npz file of shard ``index``."""
        return self.directory / f"shard-{index:05d}.npz"

    def prepare(self, n_shards: int) -> set[int]:
        """Ready the directory; return indices of completed shards.

        A directory whose ``plan.json`` matches this store's
        fingerprint is a resumable previous attempt of the *same*
        work: its shard files are trusted after their checksums verify
        (a shard that fails its manifest sha256 is moved under the
        directory's ``quarantine/`` and dropped from the completed
        set, so the pool recomputes it).  Any other content (different
        fingerprint, or shard files with no usable plan) is stale —
        loading it would splice another configuration's survivors into
        this run — so it is cleared and a fresh plan is written.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        plan = self._read_plan()
        if (plan is not None and plan.get("fingerprint") == self.fingerprint
                and plan.get("n_shards") == n_shards):
            return self._verified_completed(n_shards)
        for stale in self.directory.glob("shard-*.npz"):
            stale.unlink()
            self.writer.forget(stale.name)
        document = {"fingerprint": self.fingerprint,
                    "n_shards": int(n_shards)}
        self.writer.atomic_write_json(PLAN_FILE, document,
                                      indent=2, sort_keys=True)
        return set()

    def _read_plan(self) -> dict | None:
        """The directory's ``plan.json`` document, if it can be trusted.

        A plan that fails its manifest sha256, does not parse, or is not
        a JSON object is moved under ``quarantine/`` like a corrupt
        shard, and the directory is treated as having no plan.
        """
        path = self.directory / PLAN_FILE
        if not path.is_file():
            return None
        verdict, _, _ = verify_artifact(self.directory, path)
        plan = None
        if verdict is not False:
            try:
                plan = json.loads(path.read_bytes())
            except ValueError:  # JSONDecodeError, UnicodeDecodeError
                pass
        if isinstance(plan, dict):
            return plan
        quarantine_artifact(self.directory, path)
        self.writer.forget(path.name)
        return None

    def _verified_completed(self, n_shards: int) -> set[int]:
        """Completed shard indices whose bytes still verify."""
        manifest = load_manifest(self.directory)
        completed = set()
        for index in range(n_shards):
            path = self.shard_path(index)
            if not path.is_file():
                continue
            verdict, _, _ = verify_artifact(self.directory, path,
                                            manifest)
            if verdict is False:
                quarantine_artifact(self.directory, path)
                self.writer.forget(path.name)
                self.shards_quarantined += 1
                continue
            completed.add(index)
        return completed

    def write(self, index: int, survivors: list[tuple[str, str]],
              pairs_scanned: int, cells_computed: int,
              sections: "dict[str, dict[str, float]] | None" = None
              ) -> None:
        """Persist one completed shard durably.

        ``cells_computed`` is the plan's per-shard feature-cell count.
        Persisting it is what keeps plan metrics convergent across
        kill/resume: a resumed run re-contributes a loaded shard's
        cells without recomputing the shard.

        ``sections`` is the worker's captured wall-clock telemetry
        (:mod:`repro.obs.workers`), stored as one canonical-JSON string
        so a cached shard replays its sections into ``profile.json``
        on resume.  It is wall-clock noise, deliberately excluded from
        the shard fingerprint and from every deterministic artifact.
        """
        from ..obs.workers import encode_sections

        a_ids = np.array([a_id for a_id, _ in survivors], dtype=np.str_)
        b_ids = np.array([b_id for _, b_id in survivors], dtype=np.str_)
        self.writer.atomic_write_npz(
            self.shard_path(index),
            {
                "a_ids": a_ids,
                "b_ids": b_ids,
                "pairs_scanned": np.array([pairs_scanned],
                                          dtype=np.int64),
                "cells_computed": np.array([cells_computed],
                                           dtype=np.int64),
                "telemetry": np.array([encode_sections(sections or {})],
                                      dtype=np.str_),
            },
        )

    def load(self, index: int) -> tuple[list[tuple[str, str]], int, int,
                                        dict[str, dict[str, float]]]:
        """Load a shard's (survivors, pairs_scanned, cells_computed,
        worker sections).

        A shard file whose bytes no longer parse, or that lacks any of
        the five arrays :meth:`write` stores, raises a typed
        :class:`~repro.exceptions.DataError` naming the file — never a
        raw zipfile or numpy traceback.
        """
        from ..obs.workers import decode_sections

        path = self.shard_path(index)
        try:
            with np.load(path, allow_pickle=False) as data:
                survivors = list(zip(data["a_ids"].tolist(),
                                     data["b_ids"].tolist()))
                pairs_scanned = int(data["pairs_scanned"][0])
                cells_computed = int(data["cells_computed"][0])
                sections = decode_sections(data["telemetry"][0])
        except (KeyError, ValueError, EOFError, OSError,
                zipfile.BadZipFile) as error:
            raise DataError(f"{path}: malformed shard file "
                            f"({error})") from None
        return survivors, pairs_scanned, cells_computed, sections
