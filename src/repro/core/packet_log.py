"""The per-packet transport log as columns (DESIGN §15).

A run's packet log is the paper's tcpdump capture: one row per
delivered RTP packet. :class:`PacketLog` keeps it as one column per
:class:`PacketLogEntry` field instead of one object per packet:

* **live**, each column is a plain list of the exact objects the
  receiver saw, appended to through the bound ``list.append`` methods
  :meth:`PacketLog.appenders` hands out;
* **loaded** from a pickle, each column stays in the form
  :func:`encode_column` wrote it in: a ``(type, buffer)`` pair, or a
  list where no buffer type fits. Loading builds no record and no
  per-element object.

Records are views, built only by iteration and indexing.
:meth:`PacketLog.column` returns a column's exact objects (what the
fingerprint and the CSV export read) and :meth:`PacketLog.array` a
numpy array (what the vectorized figure readers read; after a load,
the buffer itself). Readers that also take a plain list of records go
through :func:`as_packet_log`.

The column codec here also encodes the other record logs of a
:class:`~repro.core.session.SessionResult` (DESIGN §12).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Iterable, Iterator

import numpy as np


@dataclass(slots=True)
class PacketLogEntry:
    """One row of the per-packet transport log (the tcpdump equivalent)."""

    sequence: int
    sent_at: float
    received_at: float
    size_bytes: int
    frame_id: int


# Pickles name the class where it was defined before this module
# existed, and ``repro.core.receiver`` still exports it: keeping that
# name keeps the bytes of every pickled packet log, so result-cache
# entries load across the move in both directions.
PacketLogEntry.__module__ = "repro.core.receiver"


#: Exact element type -> dtype of the buffer that column pickles as.
#: ``bool`` is its own type here, never an ``int``; ``numpy.float64``
#: columns (batched sweeps) stay apart from ``float`` ones (scalar
#: runs) because their ``repr`` differs and the digests pin it.
_COLUMN_DTYPES = {
    float: np.float64,
    np.float64: np.float64,
    int: np.int64,
    bool: np.bool_,
}


def field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names, in declaration order."""
    return tuple(f.name for f in fields(cls))


def check_fields(cls: type, names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``names`` are ``cls``'s field names."""
    current = field_names(cls)
    if names != current:
        raise ValueError(
            f"stale {cls.__name__} payload: fields {names}, class has {current}"
        )


def encode_column(values: list) -> Any:
    """``(type, buffer)`` if every value has one buffer type, else ``values``."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        dtype = _COLUMN_DTYPES.get(kind)
        if dtype is not None:
            try:
                return kind, np.array(values, dtype=dtype)
            except OverflowError:  # an int beyond int64
                pass
    return values


def decode_column(column: Any) -> list:
    """The exact objects :func:`encode_column` was given."""
    if type(column) is list:
        return column
    kind, buffer = column
    # Iterating a float64 array yields numpy.float64 scalars;
    # ``tolist`` yields Python floats, ints and bools.
    return list(buffer) if kind is np.float64 else buffer.tolist()


#: The log's columns, one per :class:`PacketLogEntry` field.
FIELDS = field_names(PacketLogEntry)
_INDEX = {name: index for index, name in enumerate(FIELDS)}
#: dtype of :meth:`PacketLog.array` for a column still held as a list.
_ARRAY_DTYPES = tuple(
    np.float64 if f.type == "float" else np.int64 for f in fields(PacketLogEntry)
)


def _length(column: Any) -> int:
    return len(column) if type(column) is list else len(column[1])


def _item(column: Any, index: int) -> Any:
    if type(column) is list:
        return column[index]
    kind, buffer = column
    value = buffer[index]
    return value if kind is np.float64 else value.item()


def _encoded(column: Any) -> Any:
    if type(column) is list:
        return encode_column(column)
    # An unpickled buffer carries its own copy of the dtype; a view with
    # the shared one pickles to the bytes a fresh buffer pickles to.
    kind, buffer = column
    return kind, buffer.view(_COLUMN_DTYPES[kind])


def _same_column(a: Any, b: Any) -> bool:
    return decode_column(a) == decode_column(b)


class PacketLog:
    """One run's per-packet transport log, held as columns.

    ``PacketLog()`` is an empty live log. ``len``, iteration and
    indexing (slices give lists) yield :class:`PacketLogEntry` records
    with the exact value types the receiver logged; ``==`` compares
    column by column and ``repr`` is the ``repr`` of the record list.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Iterable[Any] | None = None) -> None:
        if columns is None:
            self._columns = tuple([[] for _ in FIELDS])
            return
        self._columns = tuple(columns)
        if len(self._columns) != len(FIELDS):
            raise ValueError(
                f"a packet log has {len(FIELDS)} columns, got {len(self._columns)}"
            )
        if len(set(map(_length, self._columns))) > 1:
            raise ValueError("packet log columns differ in length")

    @classmethod
    def from_records(cls, records: Iterable[PacketLogEntry]) -> "PacketLog":
        """A log holding ``records``' field values as list columns."""
        records = list(records)
        return cls(list(map(attrgetter(name), records)) for name in FIELDS)

    def encode(self) -> tuple:
        """``(PacketLogEntry, field names, columns)``, each column encoded."""
        # Fresh names per call, as every other log's: pickle writes one
        # shared tuple once and refers back to it, which would change
        # the bytes of a pickle holding several sessions.
        return (
            PacketLogEntry,
            field_names(PacketLogEntry),
            tuple(map(_encoded, self._columns)),
        )

    def __reduce__(self) -> tuple:
        return decode_packet_log, self.encode()

    def appenders(self) -> tuple:
        """The five bound ``append`` methods of a live log's columns."""
        return tuple(map(attrgetter("append"), self._columns))

    def column(self, name: str) -> list:
        """Column ``name``'s exact objects (a live column itself: do not mutate)."""
        return decode_column(self._columns[_INDEX[name]])

    def array(self, name: str) -> np.ndarray:
        """Column ``name`` as a numpy array (a loaded buffer itself: do not mutate)."""
        index = _INDEX[name]
        column = self._columns[index]
        if type(column) is tuple:
            return column[1]
        return np.array(column, dtype=_ARRAY_DTYPES[index])

    def __len__(self) -> int:
        return _length(self._columns[0])

    def __iter__(self) -> Iterator[PacketLogEntry]:
        return map(PacketLogEntry, *map(decode_column, self._columns))

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return list(self)[index]
        return PacketLogEntry(*(_item(column, index) for column in self._columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PacketLog):
            return all(map(_same_column, self._columns, other._columns))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def decode_packet_log(
    record_cls: type, names: tuple[str, ...], columns: tuple
) -> PacketLog:
    """The log :meth:`PacketLog.encode` wrote, its columns kept encoded.

    Raises ``ValueError`` for a record class or field names other than
    the current :class:`PacketLogEntry`'s, so a stale cache entry is
    evicted instead of loading with its fields permuted.
    """
    if record_cls is not PacketLogEntry:
        raise ValueError(f"not a packet log payload: {record_cls.__name__}")
    check_fields(record_cls, names)
    return PacketLog(columns)


def as_packet_log(log: "PacketLog | Iterable[PacketLogEntry]") -> PacketLog:
    """``log`` itself if it is a :class:`PacketLog`, else its records as one."""
    return log if type(log) is PacketLog else PacketLog.from_records(log)
