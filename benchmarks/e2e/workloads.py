"""The benchmark's workloads: what each instance generates and runs.

A run of one workload is a fixed number of *instances*, each a fresh
interpreter that generates its own tables and crowd from an instance
seed derived from ``--seed``, then runs ``Corleone.run`` once.  The
run reports medians across its instances, so one odd seed (the
estimator sometimes buys ten times the usual labels) moves no metric.

Two decisions of the pipeline are pinned so that the amount of work per
instance does not swing with the seed:

* active learning runs exactly ``AL_STEPS`` steps (the stop patterns are
  set past the iteration cap; ``ConfidenceMonitor`` still runs every
  step).  Left free, the matcher stops after anywhere from 6 to 65
  steps on these tables, which makes run time bimodal;
* the locator runs once and never starts a second round
  (``min_difficult_pairs`` is out of reach).  Whether a second round
  happens is a coin flip per seed that doubles the run.

This module is imported by the parent (names and sizing only) and by
each child; only :func:`pipeline_config` imports ``repro``.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

AL_STEPS = 20
"""Active-learning steps per matcher run (blocker and matcher alike)."""

F1_FLOOR = 0.80
"""An instance scoring a lower true F1 is a failed operation."""

F1_GATE = 0.90
"""A run whose pooled true F1 is lower is not correct."""


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    """Generator in ``repro.synth``: ``restaurants`` or ``citations``."""
    sizes: tuple[int, int, int]
    """(|A|, |B|, gold matches) passed to the generator."""
    t_b: int
    """Blocking threshold; blocking runs only if |A x B| > t_b."""
    child_s: float
    """Seconds one instance process takes on a 2-core x86 box; sets how
    many instances fit in ``--seconds``."""
    durable: bool = False
    """Run with a run directory: checkpoints, MANIFEST and fsync."""


# Why each workload is in the set: see README.md.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("citations", "citations", (100, 1000, 200), t_b=12_000,
             child_s=6.5),
    Workload("restaurants", "restaurants", (180, 120, 40), t_b=100_000,
             child_s=3.1),
    Workload("restaurants-durable", "restaurants", (180, 120, 40),
             t_b=100_000, child_s=4.1, durable=True),
)}


def instance_seed(seed: int, index: int) -> int:
    """The seed of instance ``index`` of a run with ``--seed seed``.

    Instance 0 of seed n uses dataset seed ``1000 n``; the pipeline and
    crowd streams are offset from it (see ``child.py``).
    """
    return seed * 1000 + index


def instances_for(workload: Workload, seconds: float, check: bool) -> int:
    """Instances in one run of ``seconds``, leaving a slot for the check
    child that re-runs instance 0 when there is one (see ``run.py``)."""
    return max(1, round(seconds / workload.child_s) - check)


def pipeline_config(workload: Workload):
    """``bench_config()`` with the workload's t_B and the pins above."""
    from _common import bench_config

    cfg = bench_config()
    steps = AL_STEPS
    return cfg.replace(
        blocker=dataclasses.replace(cfg.blocker, t_b=workload.t_b,
                                    n_workers=1),
        matcher=dataclasses.replace(cfg.matcher, max_iterations=steps,
                                    n_high=steps + 1,
                                    n_converged=steps + 1,
                                    n_degrade=steps),
        locator=dataclasses.replace(cfg.locator,
                                    min_difficult_pairs=sys.maxsize),
    )
