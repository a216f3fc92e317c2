"""Checkpointed runs: kill the pipeline mid-flight, resume, same answer.

A hands-off run spends real crowd money, so losing one to a crash is
losing dollars.  Giving ``Corleone`` a ``run_dir`` makes every stage
boundary and matcher iteration durable: the directory holds the run's
inputs (``run.json``), the blocking survivors (``shards/``), the
checkpoint log (``checkpoint.jsonl``: one self-checksummed record
appended per checkpoint, holding only what changed since the one
before) and a structured event trace (``trace.jsonl``).
``Corleone.resume`` folds the log's records back into the latest state,
rebuilds the vectorized candidate set from the inputs, the logged rules
and the shards, and continues a killed run — label cache, cost ledger
and per-stage RNG streams restored — to a result bit-identical to the
uninterrupted one, paying only for the labels the crashed run had not
bought yet.  See docs/architecture.md.

Run:  python examples/resumable_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import Corleone, SimulatedCrowd, scaled_config
from repro.engine import (
    CHECKPOINT_LOG,
    EVENT_CHECKPOINT_WRITTEN,
    ProgressReporter,
    load_checkpoint,
)
from repro.engine.events import read_trace
from repro.synth import generate_restaurants


class SimulatedCrash(Exception):
    """Stands in for the process dying mid-run."""


def make_crowd(dataset):
    """A fresh simulated crowd over the dataset's ground truth."""
    return SimulatedCrowd(dataset.matches, error_rate=0.05,
                          rng=np.random.default_rng(11))


def crash_after(n_checkpoints):
    """An event sink that "kills" the run after n checkpoint writes.

    The checkpoint file is written before the event fires, so the crash
    always lands just after a durable point — the worst-case a real
    kill signal could do is strictly milder.
    """
    seen = [0]

    def sink(event):
        if event.name == EVENT_CHECKPOINT_WRITTEN:
            seen[0] += 1
            if seen[0] >= n_checkpoints:
                raise SimulatedCrash()

    return sink


def main():
    """Run, crash, resume — and verify the answer did not change."""
    dataset = generate_restaurants(n_a=100, n_b=80, n_matches=30, seed=7)
    config = scaled_config(t_b=6000, max_pipeline_iterations=1)

    print("=== uninterrupted reference run (no run_dir)")
    reference = Corleone(config, make_crowd(dataset), seed=42).run(
        dataset.table_a, dataset.table_b, dataset.seed_labels)
    print(f"    {len(reference.predicted_matches)} matches, "
          f"${reference.cost.dollars:.2f} spent")

    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "corleone-run"

        print("=== checkpointed run, crashing after 3 checkpoints")
        pipeline = Corleone(config, make_crowd(dataset), seed=42,
                            run_dir=run_dir)
        pipeline.bus.subscribe(ProgressReporter())
        pipeline.bus.subscribe(crash_after(3))
        try:
            pipeline.run(dataset.table_a, dataset.table_b,
                         dataset.seed_labels)
        except SimulatedCrash:
            print("    crashed (as scripted); run directory holds:")
            for artifact in sorted(run_dir.iterdir()):
                print(f"      {artifact.name}")
            log = run_dir / CHECKPOINT_LOG
            checkpoint = load_checkpoint(run_dir)
            print(f"    {CHECKPOINT_LOG}: "
                  f"{len(log.read_bytes().splitlines())} records, "
                  f"{log.stat().st_size} bytes; the newest is checkpoint "
                  f"{checkpoint['index']}, at stage "
                  f"{checkpoint['state']['next_stage']}")

        print("=== resuming from the run directory")
        resumed = Corleone.resume(run_dir, make_crowd(dataset))
        print(f"    {len(resumed.predicted_matches)} matches, "
              f"${resumed.cost.dollars:.2f} spent, "
              f"stop reason: {resumed.stop_reason}")

        same = (resumed.predicted_matches == reference.predicted_matches
                and resumed.cost.dollars == reference.cost.dollars)
        print(f"    identical to the uninterrupted run: {same}")

        events = read_trace(run_dir / "trace.jsonl")
        calls = [e for e in events if e.name == "labels_purchased"]
        labels = sum(e.payload["labels"] for e in calls)
        print(f"=== trace: {len(events)} events, "
              f"{labels} labels bought in {len(calls)} paid calls")


if __name__ == "__main__":
    main()
