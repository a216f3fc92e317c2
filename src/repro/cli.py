"""Command-line interface: ``python -m repro <command>``.

Three commands cover the library's main entry points:

* ``datasets`` — list / generate the synthetic datasets and write them
  (plus gold matches) to CSV, so external tools can consume them.
* ``match`` — run the hands-off pipeline on two CSV tables with a
  simulated crowd driven by a gold-matches CSV (offline stand-in for a
  real crowd), writing predicted matches and a JSON run report.
* ``bench-info`` — print the experiment index (which benchmark
  regenerates which table/figure).

The CLI is deliberately thin: every option maps 1:1 onto a library
parameter, and all heavy lifting stays in the importable API.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import scaled_config
from .core.pipeline import Corleone
from .crowd.simulated import SimulatedCrowd
from .data.io import read_csv_table, write_csv_table
from .data.pairs import Pair
from .data.table import AttrType, Schema
from .exceptions import CorleoneError, DataError
from .persistence import result_report
from .synth import load_dataset
from .synth.registry import DATASET_NAMES

EXPERIMENT_INDEX = [
    ("Table 1", "dataset statistics", "bench_table1_datasets.py"),
    ("Table 2", "Corleone vs baselines", "bench_table2_overall.py"),
    ("Table 3", "blocking results", "bench_table3_blocking.py"),
    ("Table 4", "per-iteration performance", "bench_table4_iterations.py"),
    ("Figure 2", "rule extraction from forests",
     "bench_figure2_rule_extraction.py"),
    ("Figure 3", "confidence stopping patterns",
     "bench_figure3_confidence.py"),
    ("Sec 9.3", "estimator label savings",
     "bench_sec93_estimator_savings.py"),
    ("Sec 9.3", "reduction effectiveness", "bench_sec93_reduction.py"),
    ("Sec 9.3", "rule-evaluation precision",
     "bench_sec93_rule_precision.py"),
    ("Sec 9.3", "crowd error sensitivity + voting ablation",
     "bench_sec93_sensitivity.py"),
    ("Sec 9.4", "parameter sweeps + ablations",
     "bench_sec94_parameters.py"),
    ("Sec 10", "extensions: profiler / budget / money-time / sampler",
     "bench_ext_extensions.py"),
]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Corleone: hands-off crowdsourced entity matching "
                    "(SIGMOD 2014 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser(
        "datasets", help="generate a synthetic dataset as CSV files"
    )
    datasets.add_argument("name", choices=(*DATASET_NAMES, "list"))
    datasets.add_argument("--out", type=Path, default=Path("."),
                          help="output directory (default: cwd)")
    datasets.add_argument("--scale", choices=("bench", "paper"),
                          default="bench")
    datasets.add_argument("--seed", type=int, default=0)

    match = sub.add_parser(
        "match", help="run the hands-off pipeline on two CSV tables"
    )
    match.add_argument("table_a", type=Path)
    match.add_argument("table_b", type=Path)
    match.add_argument("--schema", required=True,
                       help="comma-separated name:type columns, e.g. "
                            "'title:text,year:numeric,venue:string'")
    match.add_argument("--gold", type=Path, required=True,
                       help="CSV of true matches (a_id,b_id) used to "
                            "drive the simulated crowd")
    match.add_argument("--seeds", type=Path, required=True,
                       help="CSV of seed examples (a_id,b_id,label) "
                            "with label in {0,1}; needs >=1 of each")
    match.add_argument("--out", type=Path, default=Path("matches.csv"))
    match.add_argument("--report", type=Path, default=None,
                       help="also write a JSON run report here")
    match.add_argument("--error-rate", type=float, default=0.0)
    match.add_argument("--budget", type=float, default=None)
    match.add_argument("--t-b", type=int, default=3_000_000,
                       help="blocking threshold t_B (pairs)")
    match.add_argument("--mode", default="full",
                       choices=("full", "one_iteration", "blocker_matcher"))
    match.add_argument("--seed", type=int, default=0)

    dedup = sub.add_parser(
        "dedup", help="deduplicate one CSV table with a simulated crowd"
    )
    dedup.add_argument("table", type=Path)
    dedup.add_argument("--schema", required=True,
                       help="comma-separated name:type columns")
    dedup.add_argument("--gold", type=Path, required=True,
                       help="CSV of true duplicate pairs (id_a,id_b)")
    dedup.add_argument("--seeds", type=Path, required=True,
                       help="CSV of seed examples (id_a,id_b,label)")
    dedup.add_argument("--out", type=Path, default=Path("duplicates.csv"))
    dedup.add_argument("--error-rate", type=float, default=0.0)
    dedup.add_argument("--t-b", type=int, default=3_000_000)
    dedup.add_argument("--mode", default="full",
                       choices=("full", "one_iteration", "blocker_matcher"))
    dedup.add_argument("--seed", type=int, default=0)

    sub.add_parser("bench-info",
                   help="print the table/figure -> benchmark index")
    return parser


def parse_schema(spec: str) -> Schema:
    """Parse 'name:type,...' into a Schema (types: string/text/numeric)."""
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, type_name = chunk.partition(":")
        type_name = (type_name or "string").strip().lower()
        try:
            attr_type = AttrType(type_name)
        except ValueError:
            raise DataError(
                f"unknown attribute type {type_name!r} in schema spec "
                f"(use string/text/numeric)"
            ) from None
        pairs.append((name.strip(), attr_type))
    if not pairs:
        raise DataError("schema spec must declare at least one column")
    return Schema.from_pairs(pairs)


def _read_pairs_csv(path: Path, with_label: bool):
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    # Tolerate a header row.
    if rows and rows[0][:2] == ["a_id", "b_id"]:
        rows = rows[1:]
    out = []
    for row in rows:
        if with_label:
            if len(row) < 3:
                raise DataError(f"{path}: expected a_id,b_id,label rows")
            out.append((Pair(row[0], row[1]), row[2].strip() in
                        ("1", "true", "True", "yes")))
        else:
            if len(row) < 2:
                raise DataError(f"{path}: expected a_id,b_id rows")
            out.append(Pair(row[0], row[1]))
    return out


def cmd_datasets(args: argparse.Namespace) -> int:
    """Handle ``repro datasets``: list or export a synthetic dataset."""
    if args.name == "list":
        for name in DATASET_NAMES:
            print(name)
        return 0
    dataset = load_dataset(args.name, scale=args.scale, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    write_csv_table(dataset.table_a, args.out / f"{args.name}_a.csv")
    write_csv_table(dataset.table_b, args.out / f"{args.name}_b.csv")
    with (args.out / f"{args.name}_gold.csv").open("w", newline="",
                                                   encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_id", "b_id"])
        writer.writerows(sorted(dataset.matches))
    with (args.out / f"{args.name}_seeds.csv").open("w", newline="",
                                                    encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_id", "b_id", "label"])
        for pair, label in sorted(dataset.seed_labels.items()):
            writer.writerow([pair.a_id, pair.b_id, int(label)])
    stats = dataset.stats()
    print(f"wrote {args.name} to {args.out}/ "
          f"(|A|={stats.size_a}, |B|={stats.size_b}, "
          f"matches={stats.n_matches})")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    """Handle ``repro match``: run the pipeline on two CSV tables."""
    schema = parse_schema(args.schema)
    table_a = read_csv_table(args.table_a, args.table_a.stem, schema)
    table_b = read_csv_table(args.table_b, args.table_b.stem, schema)
    gold = set(_read_pairs_csv(args.gold, with_label=False))
    seeds = dict(_read_pairs_csv(args.seeds, with_label=True))

    config = scaled_config(t_b=args.t_b, seed=args.seed)
    if args.budget is not None:
        config = config.replace(budget=args.budget)
    crowd = SimulatedCrowd(gold, error_rate=args.error_rate,
                           rng=np.random.default_rng(args.seed + 99))
    pipeline = Corleone(config, crowd, rng=np.random.default_rng(args.seed))
    result = pipeline.run(table_a, table_b, seeds, mode=args.mode)

    with args.out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_id", "b_id"])
        writer.writerows(sorted(result.predicted_matches))
    print(f"{len(result.predicted_matches)} matches -> {args.out}")
    print(f"cost ${result.cost.dollars:.2f}, "
          f"{result.cost.pairs_labeled} pairs labelled, "
          f"stop: {result.stop_reason}")

    if args.report is not None:
        report = result_report(result, platform=crowd)
        report["n_predicted_matches"] = len(result.predicted_matches)
        report["repro_version"] = __version__
        args.report.write_text(json.dumps(report, indent=2))
        print(f"report -> {args.report}")
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    """Handle ``repro dedup``: deduplicate one CSV table."""
    from .core.dedup import Deduplicator, canonical_pair

    schema = parse_schema(args.schema)
    table = read_csv_table(args.table, args.table.stem, schema)
    gold = {
        canonical_pair(pair.a_id, pair.b_id)
        for pair in _read_pairs_csv(args.gold, with_label=False)
    }
    seeds = {
        canonical_pair(pair.a_id, pair.b_id): label
        for pair, label in _read_pairs_csv(args.seeds, with_label=True)
    }

    config = scaled_config(t_b=args.t_b, seed=args.seed)
    crowd = SimulatedCrowd(gold, error_rate=args.error_rate,
                           rng=np.random.default_rng(args.seed + 99))
    dedup = Deduplicator(config, crowd, rng=np.random.default_rng(args.seed))
    result = dedup.run(table, seeds, mode=args.mode)

    with args.out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id_a", "id_b", "cluster"])
        cluster_of = {
            record_id: index
            for index, cluster in enumerate(result.clusters)
            for record_id in cluster
        }
        for pair in sorted(result.duplicate_pairs):
            writer.writerow([pair.a_id, pair.b_id,
                             cluster_of.get(pair.a_id, "")])
    print(f"{len(result.duplicate_pairs)} duplicate pairs in "
          f"{len(result.clusters)} clusters -> {args.out}")
    print(f"cost ${result.cost.dollars:.2f}, "
          f"{result.cost.pairs_labeled} pairs labelled")
    return 0


def cmd_bench_info(_args: argparse.Namespace) -> int:
    """Handle ``repro bench-info``: print the experiment index."""
    width = max(len(exp) for exp, _, _ in EXPERIMENT_INDEX)
    for experiment, what, module in EXPERIMENT_INDEX:
        print(f"{experiment:<{width}}  {what:<42} benchmarks/{module}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": cmd_datasets,
        "match": cmd_match,
        "dedup": cmd_dedup,
        "bench-info": cmd_bench_info,
    }
    try:
        return handlers[args.command](args)
    except CorleoneError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
