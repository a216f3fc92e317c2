"""Whole-run benchmark of the Corleone pipeline.

One run (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/e2e/run.py --workload citations --seed 3 \\
        --seconds 30 --trace 0

starts one fresh child process per instance (``child.py``, pinned to
``PYTHONHASHSEED=0``), one after another; traced runs and durable
workloads add a check child that re-runs instance 0.  It prints the
run's metrics, medians over its instances, as the last line of output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
traced children with ``--trace 1``.  It exits 1 if any operation failed.

A set (what a person runs before and after a change)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--out FILE]

runs three untraced runs of every workload, round-robin, then one
traced run of each, prints every end-to-end metric per workload and
writes the results JSON.  ``compare A.json B.json`` puts two sets side
by side with a verdict per metric and exits 1 on any "worse".

See README.md for the metrics, workloads and known anomalies.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    F1_FLOOR,
    F1_GATE,
    WORKLOADS,
    Workload,
    instance_seed,
    instances_for,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
"""Run directories of durable instances and trace files (git-ignored)."""

REPS = 3
"""Untraced runs of each workload in a set."""

RUN_BUDGET_S = 165.0
"""A run stops starting children past this and fails what is left, so
it always ends within three minutes."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_checkout() -> None:
    """Refuse to run outside a checkout with the program's sources."""
    needed = [ROOT / "src" / "repro" / "__init__.py",
              ROOT / "benchmarks" / "_common.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"run.py: no program to benchmark here "
                 f"(missing {', '.join(missing)})")


def warm_bytecode() -> None:
    """Compile the sources once so no child pays for it while timed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         str(ROOT / "src" / "repro"), str(ROOT / "benchmarks" / "_common.py"),
         str(HERE)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=False)


def run_child(workload: Workload, seed: int, trace: bool, durable: bool,
              deadline: float) -> tuple[dict | None, str | None]:
    """One instance in a fresh interpreter: (report, None) or (None, why)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, "run budget exhausted before this instance started"
    WORK.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK) if durable else None
    spec = {
        "workload": dataclasses.asdict(workload),
        "instance_seed": seed,
        "trace": trace,
        "run_dir": run_dir,
    }
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmarks")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {remaining:.0f} s"
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "printed no report"


def instance_failure(report: dict) -> str | None:
    """Why a completed instance counts as a failed operation, if it does."""
    if report["f1"] < F1_FLOOR:
        return f"true F1 {report['f1']:.3f} below {F1_FLOOR}"
    if "unverified" in report:
        if report["unverified"] is None:
            return "run directory has no MANIFEST"
        if report["unverified"]:
            return f"MANIFEST entries fail verification: " \
                   f"{report['unverified'][:3]}"
    return None


def pooled_f1(reports: list[dict]) -> float:
    """True F1 of all the run's predictions against all its gold."""
    tp, fp, fn = (sum(r[key] for r in reports) for key in ("tp", "fp", "fn"))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def end_to_end(reports: list[dict]) -> dict[str, float]:
    keys = ("run_s", "run_cpu_s", "setup_s", "peak_rss_mb", "dollars",
            "pairs_labeled")
    metrics = {key: statistics.median(r[key] for r in reports)
               for key in keys}
    metrics["f1"] = pooled_f1(reports)
    return metrics


def per_layer(reports: list[dict]) -> dict[str, float]:
    from tracing import layer_metrics

    rows = []
    for report in reports:
        row = layer_metrics(report["spans"], report["root_id"])
        row["core.blocker.survivor_frac"] = report["survivor_frac"]
        row["core.estimator.f1_gap"] = report["est_f1_gap"]
        row["storage.run_dir_bytes"] = report.get("run_dir_bytes", 0)
        row["trace.overhead_frac"] = report["overhead_frac"]
        rows.append(row)
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool, budget_s: float = RUN_BUDGET_S) -> dict:
    """One run: instances, a check child, correctness, metrics."""
    deadline = time.monotonic() + budget_s
    # A check child re-runs instance 0 untraced, and without a run
    # directory when the workload is durable and the run untraced: its
    # output must equal instance 0's (transparent wrappers, durable ==
    # not durable).  Plain runs skip it; a set compares reps instead.
    has_check = trace or workload.durable
    count = instances_for(workload, seconds, has_check)
    reports: list[dict] = []
    failures: list[str] = []
    for index in range(count):
        seed_i = instance_seed(seed, index)
        report, error = run_child(workload, seed_i, trace, workload.durable,
                                  deadline)
        error = error or instance_failure(report)
        if error:
            failures.append(f"instance {seed_i}: {error}")
        else:
            reports.append(report)
    if has_check:
        check, error = run_child(workload, instance_seed(seed, 0), False,
                                 workload.durable and trace, deadline)
        error = error or instance_failure(check)
        first = reports[0] if reports and \
            reports[0]["instance_seed"] == instance_seed(seed, 0) else None
        if not error and first and check["output_sha"] != first["output_sha"]:
            error = (f"output {check['output_sha'][:12]} differs from "
                     f"instance 0's {first['output_sha'][:12]}")
        if error:
            failures.append(f"check child: {error}")
    f1 = pooled_f1(reports)
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "attempted": count + int(has_check),
        "failed": len(failures),
        "failures": failures,
        "correct": not failures and f1 >= F1_GATE,
        "f1": f1,
        "shas": {r["instance_seed"]: r["output_sha"] for r in reports},
        "metrics": {},
    }
    if not reports:
        return result
    result["metrics"] = per_layer(reports) if trace else end_to_end(reports)
    if trace:
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{workload.name}.json").write_text(json.dumps({
            "workload": workload.name, "seed": seed,
            "instances": [
                {key: r[key] for key in
                 ("instance_seed", "root_id", "missing_targets", "spans")}
                for r in reports
            ],
        }))
    return result


def declared(bench: dict, trace: bool) -> list[dict]:
    return bench["per_layer" if trace else "end_to_end"]


def contract_line(result: dict, bench: dict) -> dict:
    """The last output line: every declared metric with its unit."""
    metrics = {}
    for entry in declared(bench, result["trace"]):
        if entry["name"] in result["metrics"]:
            metrics[entry["name"]] = {"value": result["metrics"][entry["name"]],
                                      "unit": entry["unit"]}
    correct = result["correct"] and len(metrics) == len(
        declared(bench, result["trace"]))
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_metrics(result: dict, bench: dict) -> None:
    for entry in declared(bench, result["trace"]):
        value = result["metrics"].get(entry["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {entry['name']:<34} {shown:>14} {entry['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    if result["f1"] < F1_GATE:
        print(f"  INCORRECT true F1 {result['f1']:.3f} below {F1_GATE}",
              file=sys.stderr)


def one_run(args: argparse.Namespace, bench: dict) -> int:
    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(f"{workload.name} seed {args.seed}: {result['attempted']} "
          f"processes, {result['failed']} failed")
    print_metrics(result, bench)
    line = contract_line(result, bench)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def run_set(args: argparse.Namespace, bench: dict) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(REPS):
        for name in names:
            print(f"rep {rep + 1}/{REPS}: {name}", flush=True)
            runs[name].append(measure(WORKLOADS[name], args.seed,
                                      args.seconds, trace=False))
    traced = {}
    for name in names:
        print(f"traced: {name}", flush=True)
        traced[name] = measure(WORKLOADS[name], args.seed, args.seconds,
                               trace=True)
    document = {"seed": args.seed, "seconds": args.seconds, "reps": REPS,
                "workloads": {}}
    any_failed = False
    for name in names:
        results = runs[name] + [traced[name]]
        failures = [f for r in results for f in r["failures"]]
        # Determinism guard across reps: the same instance must produce
        # the same output in every run of the set, traced or not.
        outputs: dict[int, set[str]] = {}
        for r in results:
            for seed, sha in r["shas"].items():
                outputs.setdefault(seed, set()).add(sha)
        failures += [f"instance {seed}: output differs between runs"
                     for seed, shas in sorted(outputs.items())
                     if len(shas) > 1]
        ok = [r for r in runs[name] if r["metrics"]]
        metrics = {
            entry["name"]: {"unit": entry["unit"], **summarize(
                [r["metrics"][entry["name"]] for r in ok])}
            for entry in bench["end_to_end"]
        } if ok else {}
        document["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": len(failures),
            "failures": failures,
            "metrics": metrics,
            "traced": traced[name]["metrics"],
        }
        any_failed |= bool(failures) or not all(r["correct"]
                                                for r in results)
        print(f"\n{name} (seed {args.seed}, {len(ok)} runs)")
        for metric, row in metrics.items():
            print(f"  {metric:<14} {row['median']:>12.6g} {row['unit']:<9}"
                  f" [{row['min']:.6g}, {row['max']:.6g}] n={row['n']}")
        for failure in failures:
            print(f"  FAILED {failure}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if any_failed else 0


def verdict(entry: dict, a: dict, b: dict) -> tuple[float, str]:
    """(relative change, verdict) of metric ``entry`` from set a to b.

    The change is signed so that positive means worse.  "unresolved"
    when either set's own range is wider than the bound, unless every
    run of b beats every run of a.
    """
    sign = 1.0 if entry["better"] == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    change = sign * (b["median"] - a["median"]) / base
    bound = entry["bound"]
    if sign * b["max" if sign > 0 else "min"] < \
            sign * a["min" if sign > 0 else "max"]:
        return change, "better"
    spread = max((s["max"] - s["min"]) / (abs(s["median"]) or 1.0)
                 for s in (a, b))
    if spread > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within bound"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Print set b against set a; 1 if b is worse anywhere, else 0.

    B is worse on a workload when a metric is past its bound, when it
    has more failed operations than A, when the workload is missing
    from B, or when B lacks an end-to-end metric (every rep failed).
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    for name in a:
        print(f"\n{name}")
        if name not in b:
            print("  missing in B  worse")
            worse += 1
            continue
        failed_a, failed_b = a[name]["failed"], b[name]["failed"]
        if failed_b > failed_a:
            print(f"  failed operations: {failed_a} in A, {failed_b} in B"
                  f"  worse")
            worse += 1
        print(f"  {'metric':<14} {'A median':>11} {'A range':>21} "
              f"{'B median':>11} {'B range':>21} {'change':>8}  verdict")
        for entry in bench["end_to_end"]:
            ma = a[name]["metrics"].get(entry["name"])
            mb = b[name]["metrics"].get(entry["name"])
            if mb is None:
                print(f"  {entry['name']:<14} missing in B  worse")
                worse += 1
                continue
            if ma is None:
                print(f"  {entry['name']:<14} missing in A  unresolved")
                continue
            change, word = verdict(entry, ma, mb)
            worse += word == "worse"
            print(f"  {entry['name']:<14} {ma['median']:>11.5g} "
                  f"[{ma['min']:>9.5g},{ma['max']:>9.5g}] "
                  f"{mb['median']:>11.5g} "
                  f"[{mb['min']:>9.5g},{mb['max']:>9.5g}] "
                  f"{change:>+8.1%}  {word}")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, bench)
    parser = argparse.ArgumentParser(
        description="Whole-run Corleone benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run of --workload, reporting end-to-end "
                             "(0) or per-layer (1) metrics; without it, "
                             "a set")
    parser.add_argument("--out", default=str(WORK / "set.json"))
    args = parser.parse_args(argv)
    check_checkout()
    warm_bytecode()
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return one_run(args, bench)
    return run_set(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
