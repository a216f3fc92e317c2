"""Shared infrastructure for the benchmark suite.

Every bench regenerates one of the paper's tables or figures.  Full
pipeline runs are expensive (minutes), so they are computed once per
pytest session in :class:`RunCache` and shared across bench modules.
Formatted output tables are written to ``benchmarks/results/`` and
printed, so ``pytest benchmarks/ --benchmark-only -s`` shows the paper-
style rows alongside pytest-benchmark's timing table.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
from pathlib import Path

import repro
from repro.config import CorleoneConfig, scaled_config
from repro.evaluation.experiment import CorleoneRunSummary, run_corleone
from repro.evaluation.reporting import format_table
from repro.synth import load_dataset
from repro.synth.base import SyntheticDataset

RESULTS_DIR = Path(__file__).parent / "results"

DATASETS = ("restaurants", "citations", "products")

CROWD_ERROR_RATE = 0.1
"""Default worker error rate: moderate noise, the paper's AMT regime."""


def bench_config(**changes: object) -> CorleoneConfig:
    """The benchmark configuration: paper parameters with a scaled t_B.

    t_B is scaled to the bench datasets (see DESIGN.md) and the pipeline
    is capped at two iterations, matching the 1-2 iterations the paper's
    runs needed (Table 4).
    """
    cfg = scaled_config(t_b=20_000).replace(max_pipeline_iterations=2)
    if changes:
        cfg = cfg.replace(**changes)
    return cfg


_DISK_CACHE_DIR = Path(__file__).parent / ".cache"


@functools.cache
def _code_digest() -> str:
    """sha256 over the imported ``repro`` package's ``*.py`` files.

    Computed on the first disk access, not at import: the whole-run
    benchmark's child imports this module for its configuration only
    and must not pay for hashing the tree.
    """
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def memo_disk(key: object, compute):
    """Disk-memoize any deterministic bench computation.

    ``key`` must be a repr-stable value capturing every input the result
    depends on besides the program itself (include a version token when
    the bench-side computation changes): the cache key adds a hash of
    the ``repro`` sources, so a program change never replays a stale
    result.  Results must be picklable.
    """
    digest = hashlib.sha256(
        repr((_code_digest(), key)).encode()
    ).hexdigest()[:24]
    path = _DISK_CACHE_DIR / f"{digest}.pkl"
    if path.is_file():
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            path.unlink(missing_ok=True)  # corrupt: recompute
    value = compute()
    path.parent.mkdir(exist_ok=True)
    with path.open("wb") as handle:
        pickle.dump(value, handle)
    return value


class RunCache:
    """Session-wide memo of datasets and pipeline runs.

    Full pipeline runs are deterministic per (code, dataset, config,
    seeds), so they are additionally persisted by :func:`memo_disk` —
    re-running the bench suite on unchanged code reuses previous runs
    instead of re-simulating minutes of crowdsourcing.
    """

    def __init__(self) -> None:
        self._datasets: dict[tuple, SyntheticDataset] = {}
        self._runs: dict[tuple, CorleoneRunSummary] = {}

    def dataset(self, name: str, scale: str = "bench",
                seed: int = 0) -> SyntheticDataset:
        key = (name, scale, seed)
        if key not in self._datasets:
            self._datasets[key] = load_dataset(name, scale=scale, seed=seed)
        return self._datasets[key]

    def corleone(self, name: str, error_rate: float = CROWD_ERROR_RATE,
                 seed: int = 1, mode: str = "full",
                 config: CorleoneConfig | None = None,
                 scale: str = "bench") -> CorleoneRunSummary:
        """A full (or partial) Corleone run, memoized (RAM + disk)."""
        resolved = config if config is not None else bench_config()
        key = ("corleone", name, error_rate, seed, mode, scale,
               repr(resolved))
        if key not in self._runs:
            self._runs[key] = memo_disk(key, lambda: run_corleone(
                self.dataset(name, scale=scale),
                resolved,
                error_rate=error_rate,
                seed=seed,
                mode=mode,
            ))
        return self._runs[key]


def save_table(name: str, title: str, headers, rows,
               notes: str = "") -> str:
    """Format, persist and return a results table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    body = format_table(headers, rows)
    text = f"{title}\n\n{body}\n"
    if notes:
        text += f"\n{notes}\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    print(f"\n{text}")
    return text
