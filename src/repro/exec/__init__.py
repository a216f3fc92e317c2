"""The sharded multi-core execution substrate under the Blocker.

The paper ran its rule-application step — every blocking rule over all
of A x B, ~168M pairs for Citations — as a Hadoop job.  This package is
the single-machine stand-in and the pipeline's only A x B executor:
:func:`~repro.exec.executor.apply_rules_sharded` partitions the rows of
A into contiguous shards (:mod:`~repro.exec.sharding`), evaluates each
shard's slice of A x B through the compiled blocking plan in worker
processes that read the parent's prepared-column caches through fork
copy-on-write memory (no per-job pickling of tables or features), and
merges the per-shard survivor rows in shard order — bit-identical to
the full-matrix oracle in ``tests/blocking_oracle.py``.  With a shard
directory, completed shards persist as ``shard-*.npz`` files and a
killed run resumes by loading them instead of recomputing.
"""

from __future__ import annotations

from .executor import apply_rules_sharded
from .sharding import Shard, ShardStore, auto_shard_size, plan_shards

__all__ = [
    "Shard",
    "ShardStore",
    "apply_rules_sharded",
    "auto_shard_size",
    "plan_shards",
]
