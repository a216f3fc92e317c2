"""Tables, schemas and records.

Corleone matches two relational tables A and B with aligned schemas.  A
:class:`Table` is an ordered collection of :class:`Record` objects sharing a
:class:`Schema`; records are immutable and addressed by a string id unique
within their table.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DataError, SchemaError

Value = str | float | int | None
"""An attribute value: text, number, or missing (None)."""


class AttrType(enum.Enum):
    """Attribute type, used to decide which features apply (Section 5.1).

    The paper notes, for instance, that TF/IDF features are not generated
    for numeric attributes.
    """

    STRING = "string"
    """Short string: names, codes, phone numbers."""

    TEXT = "text"
    """Long free text: descriptions, feature lists, author lists."""

    NUMERIC = "numeric"
    """Numbers: prices, page counts, years."""


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a table."""

    name: str
    attr_type: AttrType = AttrType.STRING

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")


class Schema:
    """An ordered set of attributes with name-based lookup."""

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        self._by_name: dict[str, Attribute] = {}
        for attr in self._attributes:
            if attr.name in self._by_name:
                raise SchemaError(f"duplicate attribute name: {attr.name!r}")
            self._by_name[attr.name] = attr
        if not self._attributes:
            raise SchemaError("schema must contain at least one attribute")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, AttrType]]) -> "Schema":
        """Build a schema from (name, type) pairs."""
        return cls(Attribute(name, attr_type) for name, attr_type in pairs)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute: {name!r}") from None

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name}:{a.attr_type.value}" for a in self._attributes
        )
        return f"Schema({cols})"


@dataclass(frozen=True)
class Record:
    """One row of a table; values are keyed by attribute name."""

    record_id: str
    values: Mapping[str, Value] = field(default_factory=dict)

    def get(self, name: str) -> Value:
        """Return the value of attribute ``name`` (None if missing)."""
        return self.values.get(name)

    def __getitem__(self, name: str) -> Value:
        return self.values.get(name)


class RecordIds(tuple):
    """Record ids in row order, with an id -> row map.

    :attr:`Table.ids` hands out one per table size, reading rows from
    the table's own id index, so every pair sequence over the table
    (:class:`~repro.data.pairs.PairRows`) shares the ids and the map
    instead of copying them.  Ids from elsewhere (a candidate file,
    a list of pairs) build their map on first use.
    """

    def rows(self, record_ids: Iterable[str]) -> np.ndarray:
        """The row of each id, -1 for an id not here (int64)."""
        row_of = getattr(self, "_row_of", None)
        if row_of is None:
            row_of = self._row_of = {
                record_id: row for row, record_id in enumerate(self)}
        rows = np.fromiter((row_of.get(record_id, -1)
                            for record_id in record_ids), dtype=np.int64)
        # A table's index also holds ids added after this snapshot.
        rows[rows >= len(self)] = -1
        return rows


class Table:
    """An ordered, id-indexed collection of records with a shared schema.

    Records are validated on insertion: every value key must be a schema
    attribute, and numeric attributes must hold numbers (or None).
    """

    def __init__(self, name: str, schema: Schema,
                 records: Iterable[Record] = ()) -> None:
        if not name:
            raise DataError("table name must be non-empty")
        self.name = name
        self.schema = schema
        self._records: list[Record] = []
        self._by_id: dict[str, int] = {}
        self._ids: RecordIds | None = None
        for record in records:
            self.add(record)

    def add(self, record: Record) -> None:
        """Append a record, validating it against the schema."""
        if record.record_id in self._by_id:
            raise DataError(
                f"duplicate record id {record.record_id!r} "
                f"in table {self.name!r}"
            )
        self._validate(record)
        self._by_id[record.record_id] = len(self._records)
        self._records.append(record)
        self._ids = None

    def _validate(self, record: Record) -> None:
        for key, value in record.values.items():
            if key not in self.schema:
                raise SchemaError(
                    f"record {record.record_id!r} has value for unknown "
                    f"attribute {key!r}"
                )
            if value is None:
                continue
            attr = self.schema[key]
            if attr.attr_type is AttrType.NUMERIC:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise SchemaError(
                        f"attribute {key!r} is numeric but record "
                        f"{record.record_id!r} holds {value!r}"
                    )
            else:
                if not isinstance(value, str):
                    raise SchemaError(
                        f"attribute {key!r} is textual but record "
                        f"{record.record_id!r} holds {value!r}"
                    )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def __getitem__(self, record_id: str) -> Record:
        try:
            return self._records[self._by_id[record_id]]
        except KeyError:
            raise DataError(
                f"no record {record_id!r} in table {self.name!r}"
            ) from None

    def at(self, index: int) -> Record:
        """Return the record at positional ``index``."""
        return self._records[index]

    def positions(self, record_ids: Iterable[str]) -> np.ndarray:
        """The positional index of each id, as an int64 array.

        Raises :class:`DataError` on an id not in the table.
        """
        try:
            return np.fromiter(map(self._by_id.__getitem__, record_ids),
                               dtype=np.int64)
        except KeyError as error:
            raise DataError(
                f"no record {error.args[0]!r} in table {self.name!r}"
            ) from None

    @property
    def record_ids(self) -> list[str]:
        return [record.record_id for record in self._records]

    @property
    def ids(self) -> RecordIds:
        """The record ids in row order, as one :class:`RecordIds` kept
        until the next :meth:`add`: what every pair sequence over this
        table (:class:`~repro.data.pairs.PairRows`) shares instead of
        copying."""
        if self._ids is None:
            self._ids = RecordIds(record.record_id
                                  for record in self._records)
            self._ids._row_of = self._by_id
        return self._ids

    def subset(self, record_ids: Sequence[str], name: str | None = None) -> "Table":
        """Return a new table holding only the given records, in order."""
        return Table(
            name or f"{self.name}_subset",
            self.schema,
            (self[rid] for rid in record_ids),
        )

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} records)"
