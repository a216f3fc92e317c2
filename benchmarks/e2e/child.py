"""One benchmark instance in a fresh interpreter.

``run.py`` starts this script once per instance with ``PYTHONHASHSEED=0``
and ``PYTHONPATH`` naming ``src`` and ``benchmarks``::

    python3 benchmarks/e2e/child.py '<json spec>'

The spec holds the workload's fields, the instance seed, ``trace`` and
an optional ``run_dir``.  The child sets up (imports ``repro``, generates
the tables, builds the crowd), times ``Corleone(...).run`` on them,
scores the result against gold and prints one JSON object as its last
line of output.  It never reads or writes a run cache.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import tracing


def output_sha(result) -> str:
    """sha256 over the sorted predicted matches, the candidate pairs in
    order and the exact dollar total: equal for equal runs."""
    import hashlib

    document = {
        "matches": sorted([p.a_id, p.b_id] for p in result.predicted_matches),
        "candidates": [[p.a_id, p.b_id] for p in result.candidates.pairs],
        "dollars": repr(float(result.cost.dollars)),
    }
    return hashlib.sha256(
        json.dumps(document, separators=(",", ":")).encode()).hexdigest()


def unverified_artifacts(run_dir: str) -> list[str] | None:
    """MANIFEST entries that fail ``verify_artifact``; None without one."""
    from pathlib import Path

    from repro.storage.recovery import verify_artifact
    from repro.storage.writer import load_manifest

    manifest = load_manifest(run_dir)
    if manifest is None:
        return None
    return sorted(
        key for key in manifest
        if verify_artifact(run_dir, Path(run_dir) / key, manifest)[0]
        is not True
    )


def directory_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(here, name))
        for here, _, names in os.walk(root) for name in names
    )


def run_instance(spec: dict) -> dict:
    """Set up, run and score one instance; return its report."""
    start = time.perf_counter()
    tracer = tracing.Tracer() if spec["trace"] else None
    import numpy as np

    import repro.synth
    from repro.core.pipeline import Corleone
    from repro.crowd.simulated import SimulatedCrowd
    from repro.metrics import confusion_from_sets

    from _common import CROWD_ERROR_RATE
    from workloads import Workload, pipeline_config

    workload = Workload(**{**spec["workload"],
                           "sizes": tuple(spec["workload"]["sizes"])})
    seed = spec["instance_seed"]
    if tracer is not None:
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    with span(tracing.GENERATE):
        n_a, n_b, n_matches = workload.sizes
        generate = getattr(repro.synth, f"generate_{workload.dataset}")
        dataset = generate(n_a=n_a, n_b=n_b, n_matches=n_matches,
                           seed=seed)
    crowd = SimulatedCrowd(dataset.matches, error_rate=CROWD_ERROR_RATE,
                           rng=np.random.default_rng(seed + 10_001))
    config = pipeline_config(workload)
    setup_s = time.perf_counter() - start

    run_start = time.perf_counter()
    cpu_start = time.process_time()
    with span(tracing.ROOT) as root:
        pipeline = Corleone(config, crowd,
                            rng=np.random.default_rng(seed + 1),
                            run_dir=spec.get("run_dir"))
        result = pipeline.run(dataset.table_a, dataset.table_b,
                              dataset.seed_labels)
    run_s = time.perf_counter() - run_start
    run_cpu_s = time.process_time() - cpu_start

    confusion = confusion_from_sets(result.predicted_matches,
                                    dataset.matches)
    f1 = confusion.f1
    estimated = result.estimate.f1 if result.estimate is not None else 0.0
    report = {
        "instance_seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "dollars": float(result.cost.dollars),
        "pairs_labeled": int(result.cost.pairs_labeled),
        "f1": f1,
        "tp": confusion.tp,
        "fp": confusion.fp,
        "fn": confusion.fn,
        "est_f1_gap": abs(estimated - f1),
        "survivor_frac": (len(result.candidates) / result.blocker.cartesian
                          if result.blocker.cartesian else 0.0),
        "output_sha": output_sha(result),
    }
    if spec.get("run_dir"):
        report["unverified"] = unverified_artifacts(spec["run_dir"])
        report["run_dir_bytes"] = directory_bytes(spec["run_dir"])
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.spans
        report["root_id"] = root["id"]
        report["missing_targets"] = tracer.missing
        report["overhead_frac"] = len(tracer.spans) * tracer.span_cost() \
            / run_s
    return report


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_instance(spec)))


if __name__ == "__main__":
    main()
