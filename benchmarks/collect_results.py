"""Collect every benchmark result table into one RESULTS.md.

Run after the bench suite:

    pytest benchmarks/ --benchmark-only
    python benchmarks/collect_results.py

The output (benchmarks/RESULTS.md) is the single document to read next
to EXPERIMENTS.md: every regenerated table and figure, in experiment
order, as fenced text blocks.

A second mode distills a pytest-benchmark JSON dump of the substrate
microbenches into the checked-in ``BENCH_substrates.json`` baseline
(see ``make bench-smoke``):

    pytest benchmarks/bench_micro_substrates.py --benchmark-only \\
        --benchmark-json=benchmarks/results/substrates_benchmark.json
    python benchmarks/collect_results.py \\
        --substrates benchmarks/results/substrates_benchmark.json

A third mode runs corlint (the repo's invariant analyzer, see
docs/static_analysis.md) over ``src/repro`` and records the per-rule
finding counts, the cold (no cache) and warm (second cached run) wall
times, and the per-rule/model-build timing breakdown as
``BENCH_lint.json`` plus a ``lint_findings`` result table:

    python benchmarks/collect_results.py --lint

A fourth mode measures the staged engine's checkpoint/resume costs
(docs/architecture.md): wall-clock overhead of checkpointing a full
hands-off run, per-checkpoint write cost, checkpoint read cost and
event-bus throughput, recorded as ``BENCH_engine.json`` plus an
``engine_overhead`` result table:

    python benchmarks/collect_results.py --engine

A fifth mode exercises the resilient crowd gateway
(docs/robustness.md): wall-clock overhead of the fault-injection +
gateway stack at a 0% fault rate (acceptance bar < 5%) and the recovery
statistics of a full run at a 10% uniform fault rate, recorded as
``BENCH_faults.json`` plus a ``fault_gateway`` result table:

    python benchmarks/collect_results.py --faults

A sixth mode measures the run-telemetry subsystem
(docs/observability.md): wall-clock overhead of full instrumentation
(metrics registry + span tracer + profiler) on a checkpointed run
versus the same run with ``telemetry=False`` (acceptance bar < 5%),
plus the artifact counts of the instrumented run, recorded as
``BENCH_obs.json`` plus an ``obs_overhead`` result table.  The
instrumented run directory is kept at ``benchmarks/results/obs_run``
so ``make trace-report`` has a run to render:

    python benchmarks/collect_results.py --obs

The obs mode has a companion *regression gate*: take a fresh
measurement into a temp directory (committed artifacts untouched) and
exit non-zero when the fresh overhead breaks the 5% bar or regressed
more than ``--regress-threshold-pp`` percentage points past the
committed ``BENCH_obs.json`` (CI runs this as a soft gate):

    python benchmarks/collect_results.py --check-regress

A seventh mode measures the sharded multi-core blocking executor
(docs/architecture.md): the full-matrix streaming oracle versus
``repro.exec.apply_rules_sharded`` at 1/2/4/8 workers on a
citations-shaped workload, checking that every worker count returns a
candidate list bit-identical to the oracle's, recorded as
``BENCH_shard.json`` plus a ``shard_scaling`` result table (a
committed paper-scale ``citations_full`` entry is carried over unless
``--shard-full`` measures it again):

    python benchmarks/collect_results.py --shard

An eighth mode measures the durable-storage subsystem
(docs/robustness.md, "Storage durability"): wall-clock overhead of the
full fsync discipline (file + directory fsync around every atomic
replace) versus the same checkpointed run with fsync disabled
(acceptance bar < 5%), plus a crash-and-resume fault sweep — a
deterministic storage fault armed against one write site per run,
asserting the resumed result is bit-identical to the clean run and
every MANIFEST entry verifies —
recorded as ``BENCH_storage.json`` plus a ``storage_durability``
result table:

    python benchmarks/collect_results.py --storage

A ninth mode measures the columnar plan compiler
(docs/architecture.md, "The plan compiler"): the full-matrix streaming
oracle versus the sharded plan executor on one worker over a
citations-shaped workload, and in-RAM versus memmap-spilled candidate
vectorization —
each variant in its own fresh subprocess so the recorded peak RSS is
honest, with survivor/matrix checksums proving bit-identity.  Recorded
as ``BENCH_plan.json`` plus a ``plan_compiler`` result table:

    python benchmarks/collect_results.py --plan
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent / "RESULTS.md"
SUBSTRATES_OUTPUT = Path(__file__).parent / "BENCH_substrates.json"
LINT_OUTPUT = Path(__file__).parent / "BENCH_lint.json"
ENGINE_OUTPUT = Path(__file__).parent / "BENCH_engine.json"
FAULTS_OUTPUT = Path(__file__).parent / "BENCH_faults.json"
OBS_OUTPUT = Path(__file__).parent / "BENCH_obs.json"
SHARD_OUTPUT = Path(__file__).parent / "BENCH_shard.json"
PLAN_OUTPUT = Path(__file__).parent / "BENCH_plan.json"
STORAGE_OUTPUT = Path(__file__).parent / "BENCH_storage.json"


def _peak_rss_kb() -> int | None:
    """This process's peak resident set size in KiB (None off-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

# Display order: paper tables, figures, section studies, extensions.
ORDER = [
    "table1_datasets",
    "table2_overall",
    "table3_blocking",
    "table4_iterations",
    "figure2_rules",
    "figure3_confidence_real",
    "figure3_confidence_plot",
    "figure3_confidence_synthetic",
    "figure3_confidence_panels",
    "sec93_estimator_savings",
    "sec93_reduction",
    "sec93_rule_precision",
    "sec93_sensitivity",
    "sec93_voting_ablation",
    "sec94_topk_sweep",
    "sec94_pmin_sweep",
    "sec94_tb_sweep",
    "sec94_batch_ablation",
    "sec94_greedy_ablation",
    "ext_profiler_recovery",
    "ext_profiler_adaptive",
    "ext_budget_plan",
    "ext_money_time",
    "ext_sampler_ablation",
    "micro_substrates",
    "lint_findings",
    "engine_overhead",
    "fault_gateway",
    "obs_overhead",
    "shard_scaling",
    "plan_compiler",
    "storage_durability",
]


def distill_substrates(benchmark_json: Path,
                       output: Path | None = None) -> dict:
    """Distill a pytest-benchmark JSON dump into the substrates baseline.

    Keeps the per-bench timing summary plus, when both engine variants
    of the 10k-pair products vectorization are present, their derived
    throughputs and speedup ratio — the batched engine's headline
    number.  Writes ``BENCH_substrates.json`` and returns the payload.
    """
    data = json.loads(Path(benchmark_json).read_text())
    entries: dict[str, dict] = {}
    for bench in data.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "mean_seconds": stats["mean"],
            "stddev_seconds": stats["stddev"],
            "rounds": stats["rounds"],
        }
        if bench.get("extra_info"):
            entry["extra_info"] = bench["extra_info"]
        entries[bench["name"]] = entry

    baseline: dict = {"benchmarks": entries}
    scalar = entries.get("test_vectorize_products_10k_scalar")
    batched = entries.get("test_vectorize_products_10k_batched")
    if scalar and batched:
        pairs = scalar.get("extra_info", {}).get("pairs", 10_000)
        baseline["vectorize_products_10k"] = {
            "pairs": pairs,
            "scalar_pairs_per_second": round(
                pairs / scalar["mean_seconds"], 1
            ),
            "batched_pairs_per_second": round(
                pairs / batched["mean_seconds"], 1
            ),
            "speedup": round(
                scalar["mean_seconds"] / batched["mean_seconds"], 2
            ),
        }

    target = output if output is not None else SUBSTRATES_OUTPUT
    target.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} ({len(entries)} benches)")

    derived = baseline.get("vectorize_products_10k")
    if derived is not None:
        RESULTS_DIR.mkdir(exist_ok=True)
        scalar_rate = derived["scalar_pairs_per_second"]
        batched_rate = derived["batched_pairs_per_second"]
        table = (
            "Substrate microbench: scalar vs batched vectorize_pairs "
            f"(products, {derived['pairs']} pairs)\n"
            "\n"
            "engine   pairs/s  speedup\n"
            "-------  -------  -------\n"
            f"scalar   {scalar_rate:>7.0f}  1.0x\n"
            f"batched  {batched_rate:>7.0f}  {derived['speedup']:.1f}x\n"
        )
        peaks = {name: entry["extra_info"] for name, entry in entries.items()
                 if "peak_mb" in entry.get("extra_info", {})}
        if peaks:
            table += (
                "\nKernel transient memory: tracemalloc peak of one call "
                "(MB = 10^6 bytes)\n"
                "\n"
                f"{'bench':<58}  {'peak':>5}  {'bound':>5}\n"
                f"{'-' * 58}  -----  -----\n"
            )
            for name, info in sorted(peaks.items()):
                table += (f"{name:<58}  {info['peak_mb']:>5.1f}  "
                          f"{info['bound_mb']:>5.1f}\n")
        (RESULTS_DIR / "micro_substrates.txt").write_text(table)
    return baseline


def collect_lint(output: Path | None = None) -> dict:
    """Run corlint over src/repro and record counts plus timings.

    Three passes over the tree: one uncached (the cold wall time — full
    AST walks plus semantic-model construction), one cached run to
    populate ``.corlint_cache``, and one more cached run (the warm wall
    time — findings and model facts served from the per-file caches).
    Writes ``BENCH_lint.json`` (per-rule new/baselined counts against
    the checked-in baseline, cold/warm wall seconds, and the cold run's
    per-rule + model-build timing breakdown) and a ``lint_findings``
    table alongside the other result tables, then returns the payload.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from repro.analysis import run_analysis

    baseline_path = ROOT / "corlint-baseline.json"
    baseline = baseline_path if baseline_path.is_file() else None
    targets = [ROOT / "src" / "repro"]

    report = run_analysis(targets, baseline_path=baseline,
                          use_cache=False)
    run_analysis(targets, baseline_path=baseline, use_cache=True)
    warm_report = run_analysis(targets, baseline_path=baseline,
                               use_cache=True)

    rules = sorted(rule.rule_id for rule in report.rules)
    new_by_rule = report.counts_by_rule(baselined=False)
    baselined_by_rule = report.counts_by_rule(baselined=True)
    payload = {
        "files_scanned": report.files_scanned,
        "rules": {
            rule_id: {
                "new": new_by_rule.get(rule_id, 0),
                "baselined": baselined_by_rule.get(rule_id, 0),
            }
            for rule_id in rules
        },
        "totals": {
            "new": len(report.new_findings),
            "baselined": len(report.baselined_findings),
            "stale_baseline_entries": len(report.stale_entries),
        },
        "wall_seconds": {
            "cold": round(report.timings.get("total", 0.0), 4),
            "warm": round(warm_report.timings.get("total", 0.0), 4),
        },
        "rule_seconds": {
            key: round(value, 4)
            for key, value in sorted(report.timings.items())
            if key != "total"
        },
    }

    target = output if output is not None else LINT_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    wall = payload["wall_seconds"]
    print(f"wrote {target} ({report.files_scanned} files scanned, "
          f"cold {wall['cold']:.2f}s, warm {wall['warm']:.2f}s)")

    timings = payload["rule_seconds"]
    lines = [
        "corlint findings over src/repro "
        f"({report.files_scanned} files; "
        f"cold {wall['cold']:.2f}s, warm {wall['warm']:.2f}s)",
        "",
        "rule    new  baselined  seconds",
        "-----  ----  ---------  -------",
    ]
    for rule_id in rules:
        counts = payload["rules"][rule_id]
        lines.append(
            f"{rule_id}  {counts['new']:>4}  {counts['baselined']:>9}"
            f"  {timings.get(rule_id, 0.0):>7.3f}"
        )
    totals = payload["totals"]
    lines.append(
        f"model  {'':>4}  {'':>9}"
        f"  {timings.get('model_build', 0.0):>7.3f}"
    )
    lines.append(
        f"total  {totals['new']:>4}  {totals['baselined']:>9}"
        f"  ({totals['stale_baseline_entries']} stale baseline entries)"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "lint_findings.txt").write_text("\n".join(lines) + "\n")
    return payload


def collect_engine(output: Path | None = None, repeats: int = 3) -> dict:
    """Measure the staged engine's checkpoint and event-bus costs.

    Runs the same seeded hands-off run ``repeats`` times plain and
    ``repeats`` times with a run directory, then derives the checkpoint
    wall-clock overhead (the engine's acceptance bar is < 10%), the
    per-checkpoint write cost, the checkpoint read cost, the event
    throughput and the size of the checkpointed run's ``trace.jsonl``
    (lines and bytes).  Writes ``BENCH_engine.json`` and an
    ``engine_overhead`` result table, and returns the payload.
    """
    import tempfile
    import time

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.config import (
        BlockerConfig,
        CorleoneConfig,
        EstimatorConfig,
        ForestConfig,
        LocatorConfig,
        MatcherConfig,
    )
    from repro.core.pipeline import Corleone
    from repro.crowd.simulated import SimulatedCrowd
    from repro.engine import load_checkpoint
    from repro.engine.checkpoint import TRACE_FILE
    from repro.synth.restaurants import generate_restaurants

    dataset = generate_restaurants(n_a=120, n_b=90, n_matches=35, seed=7)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=6000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=15),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
        seed=0,
    )

    def run_once(run_dir: Path | None):
        crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                               rng=np.random.default_rng(11))
        pipeline = Corleone(config, crowd, seed=123, run_dir=run_dir)
        started = time.perf_counter()
        pipeline.run(dataset.table_a, dataset.table_b,
                     dataset.seed_labels)
        return time.perf_counter() - started, pipeline.bus.events_emitted

    plain_times = [run_once(None)[0] for _ in range(repeats)]

    checkpointed_times: list[float] = []
    read_times: list[float] = []
    events = checkpoints = trace_lines = trace_bytes = 0
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            elapsed, events = run_once(run_dir)
            checkpointed_times.append(elapsed)
            started = time.perf_counter()
            checkpoint = load_checkpoint(run_dir)
            read_times.append(time.perf_counter() - started)
            checkpoints = checkpoint["index"] + 1
            trace = (run_dir / TRACE_FILE).read_bytes()
            trace_lines, trace_bytes = trace.count(b"\n"), len(trace)

    plain = min(plain_times)
    checkpointed = min(checkpointed_times)
    overhead = max(0.0, checkpointed - plain)
    payload = {
        "run": {
            "dataset": "restaurants 120x90",
            "repeats": repeats,
            "plain_seconds": round(plain, 4),
            "checkpointed_seconds": round(checkpointed, 4),
            "checkpoint_overhead_fraction": round(overhead / plain, 4),
            "checkpoints_written": checkpoints,
            "events_emitted": events,
            "trace_lines": trace_lines,
            "trace_bytes": trace_bytes,
            "peak_rss_kb": _peak_rss_kb(),
        },
        "checkpoint": {
            "mean_write_overhead_seconds": round(
                overhead / max(checkpoints, 1), 6
            ),
            "read_seconds": round(min(read_times), 6),
        },
        "events_per_second": round(events / checkpointed, 1),
    }

    target = output if output is not None else ENGINE_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} (overhead "
          f"{payload['run']['checkpoint_overhead_fraction']:.1%})")

    run = payload["run"]
    table = (
        "Staged engine: checkpoint/resume overhead "
        f"({run['dataset']}, best of {repeats})\n"
        "\n"
        "metric                      value\n"
        "--------------------------  ---------\n"
        f"plain run                   {run['plain_seconds']:.3f} s\n"
        f"checkpointed run            {run['checkpointed_seconds']:.3f} s\n"
        f"overhead                    "
        f"{run['checkpoint_overhead_fraction']:.1%}\n"
        f"checkpoints written         {run['checkpoints_written']}\n"
        f"mean write overhead         "
        f"{payload['checkpoint']['mean_write_overhead_seconds'] * 1e3:.2f}"
        " ms\n"
        f"checkpoint read             "
        f"{payload['checkpoint']['read_seconds'] * 1e3:.2f} ms\n"
        f"events emitted              {run['events_emitted']}\n"
        f"trace.jsonl                 {run['trace_lines']} lines, "
        f"{run['trace_bytes']} bytes\n"
        f"events per second           {payload['events_per_second']:.0f}\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_overhead.txt").write_text(table)
    return payload


def collect_faults(output: Path | None = None, repeats: int = 3) -> dict:
    """Measure the resilient gateway's overhead and recovery behaviour.

    Runs the same seeded hands-off run three ways: directly against the
    crowd, through the ``ResilientCrowd``/``FaultyCrowd`` stack at a 0%
    fault rate (the pure wrapper tax; acceptance bar < 5%), and through
    the stack at a 10% uniform fault rate with spam disabled (the
    lossless-recovery taxonomy: timeouts, expiries, duplicates,
    outages).  Records wall-clock overhead, per-kind injection counts,
    retry/repost/recovery counters, simulated retry latency, the
    delivered-equals-charged accounting check and the F1 delta, as
    ``BENCH_faults.json`` plus a ``fault_gateway`` result table.
    """
    import time

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.config import (
        BlockerConfig,
        CorleoneConfig,
        EstimatorConfig,
        ForestConfig,
        GatewayConfig,
        LocatorConfig,
        MatcherConfig,
    )
    from repro.core.pipeline import Corleone
    from repro.crowd import FaultSpec, FaultyCrowd, ResilientCrowd
    from repro.crowd.simulated import SimulatedCrowd
    from repro.synth.restaurants import generate_restaurants

    dataset = generate_restaurants(n_a=120, n_b=90, n_matches=35, seed=7)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=6000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=15),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
        seed=0,
    )

    def f1_score(predicted) -> float:
        if not predicted:
            return 0.0
        hits = len(set(predicted) & set(dataset.matches))
        precision = hits / len(predicted)
        recall = hits / len(dataset.matches)
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def run_once(fault_rate: float | None):
        """One seeded run; ``None`` means no wrapper stack at all."""
        crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                               rng=np.random.default_rng(11))
        faulty = None
        platform = crowd
        if fault_rate is not None:
            spec = FaultSpec.uniform(fault_rate, spammer_rate=0.0)
            faulty = FaultyCrowd(crowd, spec, seed=77)
            platform = ResilientCrowd(
                faulty, GatewayConfig(max_attempts=7, failure_threshold=20))
        started = time.perf_counter()
        result = Corleone(config, platform, seed=123).run(
            dataset.table_a, dataset.table_b, dataset.seed_labels)
        elapsed = time.perf_counter() - started
        return elapsed, result, platform, faulty

    direct_times = []
    for _ in range(repeats):
        elapsed, direct_result, _, _ = run_once(None)
        direct_times.append(elapsed)
    clean_times = []
    for _ in range(repeats):
        elapsed, clean_result, _, _ = run_once(0.0)
        clean_times.append(elapsed)
    _, faulty_result, gateway, faulty = run_once(0.1)

    direct = min(direct_times)
    clean = min(clean_times)
    direct_f1 = f1_score(direct_result.predicted_matches)
    faulty_f1 = f1_score(faulty_result.predicted_matches)
    payload = {
        "run": {
            "dataset": "restaurants 120x90",
            "repeats": repeats,
            "direct_seconds": round(direct, 4),
            "gateway_clean_seconds": round(clean, 4),
            "gateway_overhead_fraction": round(
                max(0.0, clean - direct) / direct, 4
            ),
            "direct_f1": round(direct_f1, 4),
            "peak_rss_kb": _peak_rss_kb(),
        },
        "recovery_at_10pct": {
            "faults_injected": dict(faulty.counts),
            "retries_scheduled": gateway.retries_scheduled,
            "hits_reposted": gateway.hits_reposted,
            "answers_recovered": gateway.answers_recovered,
            "retry_simulated_seconds": round(gateway.retry_seconds, 1),
            "answers_delivered": faulty.answers_delivered,
            "answers_charged": faulty_result.cost.answers,
            "accounting_exact": (
                faulty.answers_delivered == faulty_result.cost.answers
            ),
            "f1": round(faulty_f1, 4),
            "f1_delta": round(faulty_f1 - direct_f1, 4),
        },
    }

    target = output if output is not None else FAULTS_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} (gateway overhead "
          f"{payload['run']['gateway_overhead_fraction']:.1%})")

    run = payload["run"]
    recovery = payload["recovery_at_10pct"]
    injected = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(recovery["faults_injected"].items())
        if count
    ) or "none"
    table = (
        "Resilient gateway: overhead and fault recovery "
        f"({run['dataset']}, best of {repeats})\n"
        "\n"
        "metric                      value\n"
        "--------------------------  ---------\n"
        f"direct run                  {run['direct_seconds']:.3f} s\n"
        f"gateway run (0% faults)     "
        f"{run['gateway_clean_seconds']:.3f} s\n"
        f"gateway overhead            "
        f"{run['gateway_overhead_fraction']:.1%}\n"
        f"faults injected (10%)       {injected}\n"
        f"retries scheduled           {recovery['retries_scheduled']}\n"
        f"HITs reposted               {recovery['hits_reposted']}\n"
        f"answers recovered           {recovery['answers_recovered']}\n"
        f"simulated retry time        "
        f"{recovery['retry_simulated_seconds']:.0f} s\n"
        f"answers delivered/charged   {recovery['answers_delivered']}"
        f"/{recovery['answers_charged']}"
        f" ({'exact' if recovery['accounting_exact'] else 'MISMATCH'})\n"
        f"F1 (direct -> 10% faults)   {run['direct_f1']:.4f} -> "
        f"{recovery['f1']:.4f} ({recovery['f1_delta']:+.4f})\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fault_gateway.txt").write_text(table)
    return payload


def collect_obs(output: Path | None = None, repeats: int = 7,
                keep_run_dir: Path | None = None,
                write_table: bool = True) -> dict:
    """Measure the run-telemetry subsystem's instrumentation overhead.

    Runs the same seeded, checkpointed hands-off run ``repeats`` times
    with ``telemetry=False`` and ``repeats`` times fully instrumented
    (metric registry + span tracer + wall-clock profiler, see
    docs/observability.md), then derives the instrumentation overhead
    (acceptance bar < 5%) and the instrumented run's artifact counts.

    Methodology, because the signal is a few percent of a sub-second
    run on a shared box: the two arms are *interleaved* (off, on, off,
    on, ...) after one untimed warm-up, and the overhead is the
    **median of the per-pair ratios** ``on_i / off_i - 1``.  Arm-level
    minima are biased by whichever arm catches the luckiest fsync
    window, and sequential blocks let machine-state drift (page cache,
    CPU frequency, a background build) land entirely on one side;
    adjacent pairs see near-identical machine state, and the median
    shrugs off the occasional scheduler stall that a mean or a min
    cannot.  The per-arm minima are still recorded for reference.
    The last instrumented run directory is preserved at
    ``benchmarks/results/obs_run`` for ``make trace-report`` (override
    with ``keep_run_dir`` — :func:`check_regress` points both ``output``
    and ``keep_run_dir`` at a temp directory so a gate run never
    clobbers the committed artifacts).  Writes ``BENCH_obs.json`` and,
    unless ``write_table`` is off, an ``obs_overhead`` result table,
    and returns the payload.
    """
    import shutil
    import statistics
    import tempfile
    import time

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.config import (
        BlockerConfig,
        CorleoneConfig,
        EstimatorConfig,
        ForestConfig,
        LocatorConfig,
        MatcherConfig,
    )
    from repro.core.pipeline import Corleone
    from repro.crowd.simulated import SimulatedCrowd
    from repro.synth.restaurants import generate_restaurants

    dataset = generate_restaurants(n_a=120, n_b=90, n_matches=35, seed=7)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=6000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=15),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
        seed=0,
    )

    def run_once(run_dir: Path, telemetry: bool):
        crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                               rng=np.random.default_rng(11))
        pipeline = Corleone(config, crowd, seed=123, run_dir=run_dir,
                            telemetry=telemetry)
        started = time.perf_counter()
        pipeline.run(dataset.table_a, dataset.table_b,
                     dataset.seed_labels)
        return time.perf_counter() - started, pipeline.bus.events_emitted

    RESULTS_DIR.mkdir(exist_ok=True)
    kept_run_dir = (keep_run_dir if keep_run_dir is not None
                    else RESULTS_DIR / "obs_run")

    with tempfile.TemporaryDirectory() as tmp:  # untimed warm-up
        run_once(Path(tmp) / "run", False)

    off_times: list[float] = []
    on_times: list[float] = []
    events = 0
    for index in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            off_times.append(run_once(Path(tmp) / "run", False)[0])
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            elapsed, events = run_once(run_dir, True)
            on_times.append(elapsed)
            if index == repeats - 1:
                if kept_run_dir.is_dir():
                    shutil.rmtree(kept_run_dir)
                shutil.copytree(run_dir, kept_run_dir)

    metrics_doc = json.loads((kept_run_dir / "metrics.json").read_text())
    spans = (kept_run_dir / "spans.jsonl").read_text().splitlines()
    profile = json.loads((kept_run_dir / "profile.json").read_text())
    checkpoint = json.loads((kept_run_dir / "checkpoint.json").read_text())

    off = min(off_times)
    on = min(on_times)
    pair_ratios = sorted(on_t / off_t - 1.0
                         for on_t, off_t in zip(on_times, off_times))
    overhead = round(max(0.0, statistics.median(pair_ratios)), 4)
    payload = {
        "run": {
            "dataset": "restaurants 120x90",
            "repeats": repeats,
            "estimator": "median of interleaved on/off pair ratios",
            "telemetry_off_seconds": round(off, 4),
            "telemetry_on_seconds": round(on, 4),
            "instrumentation_overhead_fraction": overhead,
            "acceptance_bar_fraction": 0.05,
            "within_bar": overhead < 0.05,
            "peak_rss_kb": _peak_rss_kb(),
        },
        "artifacts": {
            "run_dir": (str(kept_run_dir.relative_to(ROOT))
                        if kept_run_dir.is_relative_to(ROOT)
                        else str(kept_run_dir)),
            "events_emitted": events,
            "metric_families": len(metrics_doc["metrics"]),
            "spans_completed": len(spans),
            "profile_sections": len(profile.get("sections", {})),
            "checkpoints_written": checkpoint["index"] + 1,
        },
    }

    target = output if output is not None else OBS_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} (instrumentation overhead "
          f"{overhead:.1%}, kept {payload['artifacts']['run_dir']})")
    if not write_table:
        return payload

    run = payload["run"]
    artifacts = payload["artifacts"]
    table = (
        "Run telemetry: instrumentation overhead "
        f"({run['dataset']}, median of {repeats} interleaved pairs)\n"
        "\n"
        "metric                      value\n"
        "--------------------------  ---------\n"
        f"telemetry off               {run['telemetry_off_seconds']:.3f} s\n"
        f"telemetry on                {run['telemetry_on_seconds']:.3f} s\n"
        f"overhead                    "
        f"{run['instrumentation_overhead_fraction']:.1%}"
        f" (bar {run['acceptance_bar_fraction']:.0%}:"
        f" {'ok' if run['within_bar'] else 'EXCEEDED'})\n"
        f"events emitted              {artifacts['events_emitted']}\n"
        f"metric families             {artifacts['metric_families']}\n"
        f"spans completed             {artifacts['spans_completed']}\n"
        f"profile sections            {artifacts['profile_sections']}\n"
        f"checkpoints written         {artifacts['checkpoints_written']}\n"
        f"run dir kept                {artifacts['run_dir']}\n"
    )
    (RESULTS_DIR / "obs_overhead.txt").write_text(table)
    return payload


def check_regress(threshold_pp: float = 3.0) -> int:
    """Regression gate over the instrumentation-overhead benchmark.

    Takes a *fresh* measurement with :func:`collect_obs`, pointing both
    the payload and the kept run directory at a temp directory so the
    committed ``BENCH_obs.json`` / ``benchmarks/results/obs_run`` are
    never touched, then compares the fresh overhead against the
    committed record.  Returns a process exit code: 1 when the fresh
    overhead breaks the 5% acceptance bar or regressed more than
    ``threshold_pp`` percentage points past the committed number, 2
    when there is no committed record to compare against, else 0.

    Wall-clock ratios on shared CI runners are noisy, which is why the
    comparison works in percentage points with a generous threshold and
    why CI wires this in as a *soft* gate (it flags, the humans judge).
    ``python -m repro.obs diff`` is the forensic companion: once this
    gate flags a run, diff the fresh run directory it prints against
    the committed ``benchmarks/results/obs_run`` to see *what* changed.
    """
    import tempfile

    if not OBS_OUTPUT.is_file():
        print(f"check-regress: no committed {OBS_OUTPUT.name} — "
              "run --obs once and commit the record first")
        return 2
    committed = json.loads(OBS_OUTPUT.read_text())["run"]
    committed_overhead = committed["instrumentation_overhead_fraction"]
    bar = committed.get("acceptance_bar_fraction", 0.05)

    with tempfile.TemporaryDirectory() as tmp:
        fresh = collect_obs(output=Path(tmp) / "BENCH_obs.json",
                            keep_run_dir=Path(tmp) / "obs_run",
                            write_table=False)
    fresh_overhead = fresh["run"]["instrumentation_overhead_fraction"]

    delta_pp = (fresh_overhead - committed_overhead) * 100.0
    print("check-regress: instrumentation overhead "
          f"committed {committed_overhead:.1%} -> fresh "
          f"{fresh_overhead:.1%} ({delta_pp:+.1f}pp; bar {bar:.0%}, "
          f"threshold {threshold_pp:.1f}pp)")
    failed = False
    if fresh_overhead >= bar:
        print(f"check-regress: FAIL — fresh overhead {fresh_overhead:.1%} "
              f"breaks the {bar:.0%} acceptance bar")
        failed = True
    if delta_pp > threshold_pp:
        print(f"check-regress: FAIL — overhead regressed {delta_pp:.1f}pp "
              "past the committed record")
        failed = True
    if not failed:
        print("check-regress: ok")
    return 1 if failed else 0


def collect_storage(output: Path | None = None, repeats: int = 3) -> dict:
    """Measure the durable-storage subsystem's cost and crash recovery.

    Two halves.  The fsync tax: the same seeded, checkpointed hands-off
    run ``repeats`` times with the fsync discipline disabled
    (``repro.storage.set_fsync(False)`` — tmp + atomic replace only)
    and ``repeats`` times with the full discipline (file fsync before
    the replace, directory fsync after; acceptance bar < 5% over the
    fsync-free run).  The crash sweep: one run per write-site × fault
    combo with a deterministic storage fault armed against that site,
    asserting the crash fired, ``Corleone.resume`` completes, the
    resumed result is bit-identical to the clean run, every delivered
    answer was charged and every entry of the final ``MANIFEST.json``
    verifies against its file.  A bit-rot pass (flip one bit of
    ``checkpoint.json`` at rest, resume through the quarantine +
    generation-fallback path) rides along.  Writes
    ``BENCH_storage.json`` and a ``storage_durability`` result table,
    and returns the payload.
    """
    import tempfile
    import time

    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro import persistence
    from repro.config import (
        BlockerConfig,
        CorleoneConfig,
        EstimatorConfig,
        ForestConfig,
        LocatorConfig,
        MatcherConfig,
    )
    from repro.core.pipeline import Corleone
    from repro.crowd.simulated import SimulatedCrowd
    from repro.engine.checkpoint import CANDIDATES_FILE, CHECKPOINT_FILE
    from repro.storage import (
        SimulatedCrashError,
        StorageFaultInjector,
        load_manifest,
        set_fsync,
        verify_artifact,
    )
    from repro.synth.restaurants import generate_restaurants

    # Larger than the other modes' 120x90 on purpose: fsync cost is a
    # fixed few milliseconds per checkpoint, so the overhead *fraction*
    # is a statement about checkpoint density.  This workload spaces
    # checkpoints the way a real run does; the per-checkpoint cost in
    # the payload is the density-independent number.
    dataset = generate_restaurants(n_a=240, n_b=180, n_matches=70, seed=7)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=20000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40,
                              n_converged=8, n_degrade=6,
                              max_iterations=15),
        estimator=EstimatorConfig(probe_size=25, max_probes=30),
        locator=LocatorConfig(min_difficult_pairs=30),
        max_pipeline_iterations=2,
        seed=0,
    )

    def run_once(run_dir: Path):
        crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                               rng=np.random.default_rng(11))
        pipeline = Corleone(config, crowd, seed=123, run_dir=run_dir)
        started = time.perf_counter()
        result = pipeline.run(dataset.table_a, dataset.table_b,
                              dataset.seed_labels)
        return time.perf_counter() - started, result

    def timed_run(fsync: bool) -> float:
        set_fsync(fsync)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                return run_once(Path(tmp) / "run")[0]
        finally:
            set_fsync(True)

    # One warmup run, then the variants interleaved: machine drift over
    # the measurement window (the real fsync cost is tens of
    # milliseconds on a run this size) lands on both sides equally
    # instead of biasing whichever batch ran later.
    with tempfile.TemporaryDirectory() as tmp:
        _, golden = run_once(Path(tmp) / "run")
        checkpoint_doc = json.loads(
            (Path(tmp) / "run" / CHECKPOINT_FILE).read_text())
        checkpoints = checkpoint_doc["index"] + 1
    golden_report = persistence.result_report(golden)
    nosync_times, fsync_times = [], []
    for _ in range(repeats):
        nosync_times.append(timed_run(False))
        fsync_times.append(timed_run(True))

    def crash_and_resume(site: str, kind: str, skip: int,
                         bitflip: str | None = None) -> dict:
        """One armed run + resume; the recovery stats for the table."""
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            crowd = SimulatedCrowd(dataset.matches, error_rate=0.05,
                                   rng=np.random.default_rng(11))
            injector = StorageFaultInjector(seed=29)
            injector.arm(kind, site, skip=skip)
            crashed = False
            try:
                with injector:
                    Corleone(config, crowd, seed=123,
                             run_dir=run_dir).run(
                        dataset.table_a, dataset.table_b,
                        dataset.seed_labels)
            except SimulatedCrashError:
                crashed = True
            if bitflip is not None:
                injector.flip_bit(run_dir / bitflip)
            resume_crowd = SimulatedCrowd(
                dataset.matches, error_rate=0.05,
                rng=np.random.default_rng(11))
            resumed = Corleone.resume(run_dir, resume_crowd)
            manifest = load_manifest(run_dir) or {}
            return {
                "site": site,
                "kind": kind if bitflip is None else "bitflip",
                "skip": skip,
                "crash_fired": crashed,
                "resumed": True,
                "bit_identical": (
                    persistence.result_report(resumed) == golden_report
                ),
                "manifest_verified": bool(manifest) and all(
                    verify_artifact(run_dir, run_dir / key, manifest)[0]
                    for key in manifest
                ),
            }

    sweep = [
        crash_and_resume(CHECKPOINT_FILE, "torn_write", skip=1),
        crash_and_resume(CHECKPOINT_FILE, "crash_before", skip=1),
        crash_and_resume(CHECKPOINT_FILE, "crash_after", skip=1),
        crash_and_resume(CANDIDATES_FILE, "torn_write", skip=0),
        crash_and_resume("MANIFEST.json", "crash_after", skip=2),
        # MANIFEST write 9 (the run's, five shard manifests, then one
        # per checkpoint) is the fourth checkpoint's flush, the first
        # that drops a pruned generation.
        crash_and_resume("MANIFEST.json", "crash_before", skip=9),
        crash_and_resume(CHECKPOINT_FILE, "crash_after", skip=2,
                         bitflip=CHECKPOINT_FILE),
    ]

    nosync = min(nosync_times)
    fsynced = min(fsync_times)
    overhead = round(max(0.0, fsynced - nosync) / nosync, 4)
    payload = {
        "run": {
            "dataset": "restaurants 240x180",
            "repeats": repeats,
            "fsync_off_seconds": round(nosync, 4),
            "fsync_on_seconds": round(fsynced, 4),
            "fsync_overhead_fraction": overhead,
            "acceptance_bar_fraction": 0.05,
            "within_bar": overhead < 0.05,
            "checkpoints_written": checkpoints,
            "fsync_ms_per_checkpoint": round(
                max(0.0, fsynced - nosync) / checkpoints * 1e3, 3),
            "peak_rss_kb": _peak_rss_kb(),
        },
        "fault_sweep": sweep,
        "all_recovered": all(
            entry["crash_fired"] and entry["bit_identical"]
            and entry["manifest_verified"]
            for entry in sweep
        ),
    }

    target = output if output is not None else STORAGE_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} (fsync overhead {overhead:.1%}, recovery "
          f"{'ok' if payload['all_recovered'] else 'BROKEN'})")

    run = payload["run"]
    lines = [
        "Durable storage: fsync overhead and crash recovery "
        f"({run['dataset']}, best of {repeats})",
        "",
        "metric                      value",
        "--------------------------  ---------",
        f"fsync off                   {run['fsync_off_seconds']:.3f} s",
        f"fsync on                    {run['fsync_on_seconds']:.3f} s",
        f"overhead                    {run['fsync_overhead_fraction']:.1%}"
        f" (bar {run['acceptance_bar_fraction']:.0%}:"
        f" {'ok' if run['within_bar'] else 'EXCEEDED'})",
        f"checkpoints written         {run['checkpoints_written']}",
        f"fsync cost per checkpoint   "
        f"{run['fsync_ms_per_checkpoint']:.2f} ms",
        "",
        "crash site       fault         skip  fired  resumed  "
        "bit-identical  manifest verifies",
        "---------------  ------------  ----  -----  -------  "
        "-------------  -----------------",
    ]
    for entry in sweep:
        lines.append(
            f"{entry['site']:<15}  {entry['kind']:<12}  "
            f"{entry['skip']:<4}  "
            f"{'yes' if entry['crash_fired'] else 'NO':<5}  "
            f"{'yes' if entry['resumed'] else 'NO':<7}  "
            f"{'yes' if entry['bit_identical'] else 'NO':<13}  "
            f"{'yes' if entry['manifest_verified'] else 'NO'}"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "storage_durability.txt").write_text(
        "\n".join(lines) + "\n")
    return payload


def collect_shard(output: Path | None = None, repeats: int = 2,
                  n_a: int = 300, n_b: int = 1600,
                  worker_counts: tuple[int, ...] = (1, 2, 4, 8),
                  full: bool = False) -> dict:
    """Measure the sharded blocking executor's worker scaling curve.

    Applies two blocking rules over a citations-shaped A x B workload
    once through the full-matrix oracle (``apply_rules_streaming`` in
    ``tests/blocking_oracle.py``) and once per worker count through
    :func:`repro.exec.apply_rules_sharded`, recording wall-clock best-of
    ``repeats``, the speedup over streaming and — the contract that
    makes the speedup meaningful — whether each worker count's survivor
    list is bit-identical to the sequential one.  ``os.cpu_count()``
    rides in the payload: speedups are bounded by physical cores, so a
    flat curve on a 1-core container is expected, not a regression.
    Writes ``BENCH_shard.json`` and a ``shard_scaling`` result table,
    and returns the payload.

    ``full=True`` (the ``--shard-full`` flag) additionally runs one
    sharded pass over the *paper-size* Citations product (2616 x 64263
    ~ 168M pairs — the workload the paper shipped to Hadoop) and
    records its completion under a ``citations_full`` key.  Expect this
    to take on the order of ten minutes on a laptop core.  Without it,
    the ``citations_full`` entry already in ``output`` is kept as is.
    """
    import os
    import time

    # The repo root too: the oracle lives in tests/.
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from repro.exec import apply_rules_sharded
    from repro.features.library import build_feature_library
    from repro.rules.predicates import Predicate
    from repro.rules.rule import Rule
    from repro.synth.citations import generate_citations
    from tests.blocking_oracle import apply_rules_streaming

    dataset = generate_citations(n_a=n_a, n_b=n_b,
                                 n_matches=max(4, n_a // 10), seed=7)
    library = build_feature_library(dataset.table_a, dataset.table_b)
    # One corpus-independent rule plus one TF/IDF rule, whose weights
    # depend on the whole corpus: the forked workers must read the
    # parent's, through the fork-shared caches.
    rules = []
    for name, threshold in (("title_jaccard_word", 0.3),
                            ("title_cosine_tfidf", 0.3)):
        if name in library.names:
            rules.append(Rule(
                [Predicate(library.names.index(name), name, True,
                           threshold)],
                predicts_match=False,
            ))
    assert rules, "citations library lost its title features"
    pairs = len(dataset.table_a) * len(dataset.table_b)

    def best_of(fn) -> tuple[float, list]:
        times, result = [], None
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - started)
        return min(times), result

    streaming_seconds, golden = best_of(lambda: apply_rules_streaming(
        dataset.table_a, dataset.table_b, rules, library))

    workers: dict[str, dict] = {}
    for n_workers in worker_counts:
        seconds, survivors = best_of(lambda n=n_workers: apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules, library, n_workers=n))
        workers[str(n_workers)] = {
            "seconds": round(seconds, 4),
            "speedup_vs_streaming": round(streaming_seconds / seconds, 3),
            "bit_identical": survivors == golden,
        }

    payload = {
        "run": {
            "dataset": f"citations {n_a}x{n_b}",
            "pairs": pairs,
            "rules": len(rules),
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "survivors": len(golden),
            "peak_rss_kb": _peak_rss_kb(),
        },
        "streaming_seconds": round(streaming_seconds, 4),
        "workers": workers,
        "merge_determinism_ok": all(
            entry["bit_identical"] for entry in workers.values()
        ),
    }

    target = output if output is not None else SHARD_OUTPUT
    if full:
        full_a, full_b = 2616, 64263  # the paper's Citations sizes
        print(f"running full-scale citations blocking "
              f"({full_a}x{full_b} = {full_a * full_b} pairs)...")
        full_dataset = generate_citations(n_a=full_a, n_b=full_b, seed=7)
        full_library = build_feature_library(full_dataset.table_a,
                                             full_dataset.table_b)
        full_rules = [
            Rule([Predicate(full_library.names.index(name), name, True,
                            threshold)], predicts_match=False)
            for name, threshold in (("title_jaccard_word", 0.3),
                                    ("title_cosine_tfidf", 0.3))
        ]
        n_workers = min(4, os.cpu_count() or 1)
        started = time.perf_counter()
        full_survivors = apply_rules_sharded(
            full_dataset.table_a, full_dataset.table_b, full_rules,
            full_library, n_workers=n_workers)
        elapsed = time.perf_counter() - started
        full_pairs = full_a * full_b
        payload["citations_full"] = {
            "dataset": f"citations {full_a}x{full_b}",
            "pairs": full_pairs,
            "n_workers": n_workers,
            "seconds": round(elapsed, 1),
            "pairs_per_second": round(full_pairs / elapsed, 1),
            "survivors": len(full_survivors),
            "reduction_ratio": round(len(full_survivors) / full_pairs, 6),
        }
    elif target.is_file():
        committed = json.loads(target.read_text()).get("citations_full")
        if committed is not None:
            payload["citations_full"] = committed

    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} ({pairs} pairs, "
          f"{payload['run']['cpu_count']} cores, determinism "
          f"{'ok' if payload['merge_determinism_ok'] else 'BROKEN'})")

    run = payload["run"]
    lines = [
        "Sharded blocking executor: worker scaling "
        f"({run['dataset']}, {run['pairs']} pairs, "
        f"{run['cpu_count']} cores, best of {repeats})",
        "",
        "workers  seconds  speedup  bit-identical",
        "-------  -------  -------  -------------",
        f"stream   {payload['streaming_seconds']:>7.3f}     1.00"
        "  (oracle)",
    ]
    for n_workers in worker_counts:
        entry = workers[str(n_workers)]
        lines.append(
            f"{n_workers:>7}  {entry['seconds']:>7.3f}  "
            f"{entry['speedup_vs_streaming']:>7.2f}  "
            f"{'yes' if entry['bit_identical'] else 'NO'}"
        )
    full_entry = payload.get("citations_full")
    if full_entry is not None:
        lines += [
            "",
            f"full-scale {full_entry['dataset']}: "
            f"{full_entry['pairs']} pairs in {full_entry['seconds']:.0f} s"
            f" ({full_entry['pairs_per_second']:.0f} pairs/s,"
            f" {full_entry['n_workers']} workers,"
            f" {full_entry['survivors']} survivors,"
            f" reduction {full_entry['reduction_ratio']:.2%})",
        ]
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "shard_scaling.txt").write_text("\n".join(lines) + "\n")
    return payload


# Runs in a fresh interpreter per variant (see collect_plan): peak RSS
# is a process-lifetime high-water mark, so sharing one process across
# variants would let the largest working set mask all the others.
_PLAN_CHILD = """
import hashlib, json, sys, tempfile, time
from pathlib import Path

from repro.exec import apply_rules_sharded
from repro.features.library import build_feature_library
from repro.features.vectorize import vectorize_pairs
from repro.plan import PlanStats, SpillManager
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.citations import generate_citations
from tests.blocking_oracle import apply_rules_streaming


def peak_rss_kb():
    import resource
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


variant, n_a, n_b = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
dataset = generate_citations(n_a=n_a, n_b=n_b,
                             n_matches=max(4, n_a // 10), seed=7)
library = build_feature_library(dataset.table_a, dataset.table_b)
rules = [
    Rule([Predicate(library.names.index(name), name, True, threshold)],
         predicts_match=False)
    for name, threshold in (("title_jaccard_word", 0.3),
                            ("title_cosine_tfidf", 0.3),
                            ("title_monge_elkan", 0.4))
]
out = {"variant": variant}

if variant in ("blocking_streaming", "blocking_plan"):
    stats = PlanStats()
    started = time.perf_counter()
    if variant == "blocking_streaming":
        survivors = apply_rules_streaming(
            dataset.table_a, dataset.table_b, rules, library)
    else:
        survivors = apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules, library,
            stats=stats)
        out["plan_stats"] = stats.as_dict()
    out["seconds"] = time.perf_counter() - started
    out["survivors"] = len(survivors)
    out["survivors_sha256"] = hashlib.sha256(
        "\\n".join(f"{p.a_id}|{p.b_id}" for p in survivors)
        .encode()).hexdigest()
else:  # vectorize_ram / vectorize_spill
    pairs = apply_rules_sharded(
        dataset.table_a, dataset.table_b, rules, library)
    spill_dir = tempfile.mkdtemp()
    started = time.perf_counter()
    if variant == "vectorize_spill":
        # An 8 KiB RAM cap the matrix must exceed: the whole matrix
        # lives in the memmap, never in an anonymous heap block.
        spill = SpillManager(Path(spill_dir), 1 << 13)
        buffer = spill.allocate("candidates",
                                (len(pairs), len(library)))
        candidates = vectorize_pairs(
            dataset.table_a, dataset.table_b, pairs, library, out=buffer)
        out["spill_threshold_bytes"] = 1 << 13
        out["bytes_spilled"] = spill.bytes_spilled
        spill.close()
    else:
        candidates = vectorize_pairs(
            dataset.table_a, dataset.table_b, pairs, library)
    out["seconds"] = time.perf_counter() - started
    out["pairs"] = len(pairs)
    out["matrix_bytes"] = candidates.features.nbytes
    out["matrix_sha256"] = hashlib.sha256(
        candidates.features.tobytes()).hexdigest()

out["peak_rss_kb"] = peak_rss_kb()
print(json.dumps(out))
"""


def collect_plan(output: Path | None = None,
                 n_a: int = 150, n_b: int = 400) -> dict:
    """Measure the plan compiler's pruning speedup and spill behaviour.

    Four fresh subprocesses over the same citations-shaped workload
    (each variant gets its own interpreter so ``ru_maxrss`` measures
    that variant alone): the full-matrix streaming oracle versus the
    sharded plan executor on one worker under a three-rule
    cheap-to-expensive rule set (the shape the compiler's predicate
    pushdown exploits), then
    in-RAM versus memmap-spilled candidate vectorization where the
    spill variant's matrix exceeds an 8 KiB configured RAM cap.
    SHA-256 checksums of the survivor list and the feature matrix
    assert bit-identity against the oracle.  Writes ``BENCH_plan.json``
    and a ``plan_compiler`` result table, and returns the payload.
    """
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ)
    # The repo root too: the oracle lives in tests/.
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])

    def run_variant(variant: str) -> dict:
        proc = subprocess.run(
            [_sys.executable, "-c", _PLAN_CHILD, variant,
             str(n_a), str(n_b)],
            capture_output=True, text=True, env=env, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    streaming = run_variant("blocking_streaming")
    plan = run_variant("blocking_plan")
    ram = run_variant("vectorize_ram")
    spill = run_variant("vectorize_spill")

    assert plan["survivors_sha256"] == streaming["survivors_sha256"], (
        "plan executor diverged from the streaming oracle")
    assert spill["matrix_sha256"] == ram["matrix_sha256"], (
        "spilled vectorization diverged from the in-RAM matrix")
    assert spill["bytes_spilled"] > spill["spill_threshold_bytes"], (
        "spill variant never exceeded its configured RAM cap")

    stats = plan["plan_stats"]
    payload = {
        "run": {
            "dataset": f"citations {n_a}x{n_b}",
            "pairs": n_a * n_b,
            "rules": 3,
            "survivors": streaming["survivors"],
        },
        "blocking": {
            "streaming_seconds": round(streaming["seconds"], 4),
            "plan_seconds": round(plan["seconds"], 4),
            "speedup": round(streaming["seconds"] / plan["seconds"], 2),
            "bit_identical": True,
            "cells_computed": stats["cells_computed"],
            "cells_pruned": stats["cells_pruned"],
            "pruned_fraction": round(
                stats["cells_pruned"]
                / max(1, stats["cells_pruned"] + stats["cells_computed"]),
                4),
            "streaming_peak_rss_kb": streaming["peak_rss_kb"],
            "plan_peak_rss_kb": plan["peak_rss_kb"],
        },
        "vectorize": {
            "pairs": ram["pairs"],
            "matrix_bytes": ram["matrix_bytes"],
            "spill_threshold_bytes": spill["spill_threshold_bytes"],
            "exceeds_ram_cap": (
                spill["matrix_bytes"] > spill["spill_threshold_bytes"]
            ),
            "bytes_spilled": spill["bytes_spilled"],
            "ram_seconds": round(ram["seconds"], 4),
            "spill_seconds": round(spill["seconds"], 4),
            "bit_identical": True,
            "ram_peak_rss_kb": ram["peak_rss_kb"],
            "spill_peak_rss_kb": spill["peak_rss_kb"],
        },
    }

    target = output if output is not None else PLAN_OUTPUT
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} (blocking speedup "
          f"{payload['blocking']['speedup']:.2f}x, "
          f"{payload['blocking']['pruned_fraction']:.0%} cells pruned)")

    run = payload["run"]
    blocking = payload["blocking"]
    vec = payload["vectorize"]
    table = (
        "Plan compiler: fused blocking + memmap spill "
        f"({run['dataset']}, {run['pairs']} pairs, fresh process per "
        "variant)\n"
        "\n"
        "variant             seconds  peak RSS  notes\n"
        "------------------  -------  --------  -----\n"
        f"blocking streaming  {blocking['streaming_seconds']:>7.3f}  "
        f"{blocking['streaming_peak_rss_kb']:>6} K  full matrix\n"
        f"blocking plan       {blocking['plan_seconds']:>7.3f}  "
        f"{blocking['plan_peak_rss_kb']:>6} K  "
        f"{blocking['speedup']:.2f}x, "
        f"{blocking['pruned_fraction']:.0%} cells pruned, "
        "bit-identical\n"
        f"vectorize in-RAM    {vec['ram_seconds']:>7.3f}  "
        f"{vec['ram_peak_rss_kb']:>6} K  "
        f"{vec['matrix_bytes']} B matrix\n"
        f"vectorize spill     {vec['spill_seconds']:>7.3f}  "
        f"{vec['spill_peak_rss_kb']:>6} K  "
        f"{vec['bytes_spilled']} B memmapped (cap "
        f"{vec['spill_threshold_bytes']} B"
        f"{', exceeded' if vec['exceeds_ram_cap'] else ''}), "
        "bit-identical\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "plan_compiler.txt").write_text(table)
    return payload


def main() -> None:
    if not RESULTS_DIR.is_dir():
        raise SystemExit(
            "no benchmarks/results directory — run the bench suite first"
        )
    available = {path.stem: path for path in RESULTS_DIR.glob("*.txt")}
    ordered = [name for name in ORDER if name in available]
    ordered += sorted(set(available) - set(ORDER))

    parts = [
        "# Benchmark results\n",
        "Regenerated by `pytest benchmarks/ --benchmark-only`; see "
        "EXPERIMENTS.md for paper-vs-measured commentary.\n",
    ]
    for name in ordered:
        parts.append(f"\n## {name}\n")
        parts.append("```text")
        parts.append(available[name].read_text().rstrip())
        parts.append("```")
    OUTPUT.write_text("\n".join(parts) + "\n")
    print(f"wrote {OUTPUT} ({len(ordered)} result tables)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--substrates", type=Path, metavar="BENCHMARK_JSON",
        help="distill this pytest-benchmark JSON dump into "
             "BENCH_substrates.json instead of collecting RESULTS.md",
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run corlint over src/repro and record per-rule finding "
             "counts, cold/warm wall times and per-rule timings in "
             "BENCH_lint.json instead of collecting RESULTS.md",
    )
    parser.add_argument(
        "--engine", action="store_true",
        help="measure staged-engine checkpoint overhead and event "
             "throughput, recording BENCH_engine.json instead of "
             "collecting RESULTS.md",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="measure the resilient gateway's overhead at 0%% faults "
             "and its recovery statistics at 10%%, recording "
             "BENCH_faults.json instead of collecting RESULTS.md",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="measure run-telemetry instrumentation overhead (telemetry "
             "on vs off), recording BENCH_obs.json and keeping an "
             "instrumented run at benchmarks/results/obs_run instead of "
             "collecting RESULTS.md",
    )
    parser.add_argument(
        "--check-regress", action="store_true",
        help="take a fresh instrumentation-overhead measurement (into a "
             "temp dir, leaving committed artifacts untouched) and exit "
             "non-zero when it breaks the 5%% bar or regresses past "
             "--regress-threshold-pp vs the committed BENCH_obs.json",
    )
    parser.add_argument(
        "--regress-threshold-pp", type=float, default=3.0,
        metavar="PP",
        help="allowed overhead regression in percentage points before "
             "--check-regress fails (default 3.0)",
    )
    parser.add_argument(
        "--shard", action="store_true",
        help="measure the sharded blocking executor's 1/2/4/8-worker "
             "scaling curve and merge determinism, recording "
             "BENCH_shard.json instead of collecting RESULTS.md",
    )
    parser.add_argument(
        "--plan", action="store_true",
        help="measure the plan executor's speedup over the streaming "
             "oracle and memmap spill behaviour in fresh subprocesses "
             "(honest peak "
             "RSS), recording BENCH_plan.json instead of collecting "
             "RESULTS.md",
    )
    parser.add_argument(
        "--storage", action="store_true",
        help="measure the durable-storage fsync overhead (on vs off) "
             "and run the crash-and-resume fault sweep, recording "
             "BENCH_storage.json instead of collecting RESULTS.md",
    )
    parser.add_argument(
        "--shard-full", action="store_true",
        help="like --shard, but additionally run one sharded blocking "
             "pass over the paper-size Citations product (~168M pairs; "
             "takes minutes) and record it under citations_full",
    )
    args = parser.parse_args()
    if args.substrates is not None:
        distill_substrates(args.substrates)
    elif args.lint:
        collect_lint()
    elif args.engine:
        collect_engine()
    elif args.faults:
        collect_faults()
    elif args.check_regress:
        raise SystemExit(check_regress(args.regress_threshold_pp))
    elif args.obs:
        collect_obs()
    elif args.plan:
        collect_plan()
    elif args.storage:
        collect_storage()
    elif args.shard_full:
        collect_shard(full=True)
    elif args.shard:
        collect_shard()
    else:
        main()
