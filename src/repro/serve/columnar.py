"""Columnar query ingestion for the selection service.

A batch of queries becomes a :class:`QueryBlock` — four original-value
columns plus int64 shadow arrays, a per-row ``columnar`` flag, and a
collective-id column — which the service validates, quantizes,
deduplicates (a stable lexsort group-by over the four key columns) and
scatters entirely with NumPy (DESIGN.md §13).

The query contract (:func:`~repro.smpi.heuristics.validate_query`)
admits only non-bool integers for nodes, ppn and msg_size, with
``msg_size <= 2**62``, so the int64 columns represent every valid
query exactly.  A row whose collective is unknown or whose fields are
not int64-sized non-bool integers (bools, floats, strings, huge ints)
is not ``columnar``: it is invalid, and the service answers it without
reading the shadow arrays.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..smpi.collectives.base import ALL_COLLECTIVES

__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "QueryBlock",
    "collective_names",
    "quantize_block",
]

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)

_COLLECTIVE_INDEX: dict[str, int] = {
    name: i for i, name in enumerate(ALL_COLLECTIVES)}
_COLLECTIVE_NAMES = np.array(ALL_COLLECTIVES, dtype=object)

#: Round-up thresholds per exponent: ``m > _THRESH[e]`` iff
#: ``m*m >= 2**(2e+1)`` (exact integer half-up rule of
#: :func:`repro.serve.service.quantize_msg_size`).
_THRESH = np.array([math.isqrt(1 << (2 * e + 1)) for e in range(63)],
                   dtype=np.int64)


def collective_names(cids: np.ndarray) -> np.ndarray:
    """Object array of (interned) collective name strings for an array
    of non-negative collective ids."""
    return _COLLECTIVE_NAMES[cids]


def quantize_block(m: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.serve.service.quantize_msg_size` over
    positive int64 values ``<= 2**62`` (every valid message size).

    The exponent estimate comes from the float64 conversion, then gets
    corrected with an exact int64 compare (conversion can round a value
    just under ``2**e`` up to it, never below), and the round-half-up
    decision is an exact integer threshold compare — so every element
    matches the scalar function bit-for-bit.
    """
    e = (np.frexp(m.astype(np.float64))[1] - 1).astype(np.int64)
    e -= m < (np.int64(1) << e)
    e += m > _THRESH[e]
    return np.int64(1) << e


def _int_column(values: list) -> tuple[np.ndarray, np.ndarray]:
    """``(int64 array, ok)`` for one column: ``ok`` marks the rows
    holding a non-bool integer (plain or NumPy) that fits int64.  Other
    rows keep 0 in the array and are never read from it."""
    n = len(values)
    # Hot path: an all-plain-int column (every well-formed batch) is
    # one C-level type scan plus one conversion.
    if list(map(type, values)).count(int) == n:
        try:
            return np.asarray(values, dtype=np.int64), np.ones(n, bool)
        except OverflowError:
            pass  # some row is outside int64 — classify per row below
    arr = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    for i, v in enumerate(values):
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool) \
                and INT64_MIN <= int(v) <= INT64_MAX:
            arr[i] = v
            ok[i] = True
    return arr, ok


def _collective_ids(values: list) -> np.ndarray:
    """Registry index per row; -1 for unknown or non-string values.

    The fast path is one C-level ``map`` of ``dict.get`` over the
    column (non-string hashables simply miss); only a column holding
    an unhashable value falls back to the per-row loop.
    """
    n = len(values)
    try:
        return np.fromiter(
            map(_COLLECTIVE_INDEX.get, values, repeat(-1)),
            np.int16, n)
    except TypeError:
        out = np.full(n, -1, dtype=np.int16)
        for i in range(n):
            v = values[i]
            if isinstance(v, str):
                out[i] = _COLLECTIVE_INDEX.get(v, -1)
        return out


class QueryBlock:
    """One batch of selection queries in columnar form.

    ``cols`` holds the original per-field value columns (echoed into
    each row's decision, and read to explain invalid rows); the int64
    shadow arrays carry the ``columnar`` rows.
    """

    __slots__ = ("n", "cols", "cids", "nodes64", "ppn64", "msg64",
                 "columnar")

    def __init__(self, cols: tuple[list, list, list, list]) -> None:
        c_col, n_col, p_col, m_col = cols
        self.n = len(c_col)
        self.cols = cols
        self.cids = _collective_ids(c_col)
        self.nodes64, n_ok = _int_column(n_col)
        self.ppn64, p_ok = _int_column(p_col)
        self.msg64, m_ok = _int_column(m_col)
        self.columnar = n_ok & p_ok & m_ok & (self.cids >= 0)

    @classmethod
    def from_queries(cls, queries: Sequence[Any]) -> "QueryBlock":
        """Build from :class:`SelectionQuery`-shaped objects."""
        return cls((
            [q.collective for q in queries],
            [q.nodes for q in queries],
            [q.ppn for q in queries],
            [q.msg_size for q in queries],
        ))

    @classmethod
    def from_records(cls, records: Iterable[Mapping[str, Any]]
                     ) -> "QueryBlock":
        """Build from raw protocol records (dicts with the four query
        keys) without constructing a query object per row."""
        records = list(records)
        return cls((
            [r["collective"] for r in records],
            [r["nodes"] for r in records],
            [r["ppn"] for r in records],
            [r["msg_size"] for r in records],
        ))
