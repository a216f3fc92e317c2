"""Relational substrate: tables, records, pair sets, sampling and CSV I/O."""

from .table import Attribute, AttrType, Record, Schema, Table
from .pairs import Pair, PairRows, CandidateSet
from .sampling import (
    blocker_sample,
    cartesian_rows,
    cartesian_size,
    iter_cartesian,
    weighted_blocker_sample,
)
from .io import read_csv_table, write_csv_table

__all__ = [
    "Attribute",
    "AttrType",
    "Record",
    "Schema",
    "Table",
    "Pair",
    "PairRows",
    "CandidateSet",
    "blocker_sample",
    "weighted_blocker_sample",
    "cartesian_rows",
    "cartesian_size",
    "iter_cartesian",
    "read_csv_table",
    "write_csv_table",
]
