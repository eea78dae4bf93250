"""The daemon's select path on the wire: the service reads a request's
:class:`QueryBlock` without writing it, and :func:`encode` writes the
reply from the :class:`DecisionBlock`'s columns — byte-identical to
``json.dumps`` of the same payload with ``to_dicts()`` in the block's
place, the oracle these tests hold it to.  (Parsing into the block is
tested with the rest of the protocol in ``test_daemon.py``.)"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.hwmodel import get_cluster
from repro.serve import DecisionBlock, QueryBlock, SelectionService
from repro.serve.protocol import (
    _column_json,
    _value_json,
    encode,
    ok_response,
)
from repro.smpi.heuristics import MvapichDefaultSelector

SPEC = get_cluster("RI")
COLLECTIVES = ("allgather", "alltoall", "allreduce", "bcast")


def oracle_line(payload: dict) -> bytes:
    """The reply as ``json.dumps`` writes it with per-row dicts."""
    plain = {k: v.to_dicts() if isinstance(v, DecisionBlock) else v
             for k, v in payload.items()}
    return (json.dumps(plain, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def serve(rows: list) -> DecisionBlock:
    service = SelectionService(MvapichDefaultSelector(), SPEC,
                               cache_size=8)
    return service.select_block(QueryBlock.from_records(rows))


#: Strings every run covers: non-ASCII, control characters, a lone
#: surrogate, quotes and backslashes.
ODD_STRINGS = ("allgäther", "日本語", "\x00\x1f\x7f", "\ud800",
               "\udfff tail", 'quote " and \\ slash')

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(ODD_STRINGS),
)
#: Any value a JSON request can echo in a query field, nested objects
#: (in whatever key order) and lists included.
junk = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6)
#: Valid rows from a small key space, so batches repeat keys and some
#: decisions come back ``cached``.
valid_rows = st.fixed_dictionaries({
    "collective": st.sampled_from(COLLECTIVES),
    "nodes": st.sampled_from((1, 2)),
    "ppn": st.sampled_from((1, 2, 4)),
    "msg_size": st.sampled_from((1, 64, 1000, 4096)),
})
junk_rows = st.fixed_dictionaries({
    "collective": st.sampled_from(COLLECTIVES) | junk,
    "nodes": st.integers(-3, 3) | junk,
    "ppn": st.integers(-3, 3) | junk,
    "msg_size": st.integers(-(1 << 70), 1 << 70) | junk,
})

NASTY_ROW = {"collective": "allgäther\ud800", "nodes": 2.5,
             "ppn": {"b": [1, None], "a": float("nan")},
             "msg_size": 10 ** 29}


class TestEncodeDifferential:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(valid_rows | junk_rows, min_size=1,
                         max_size=24),
           req_id=st.integers(-(1 << 70), 1 << 70)
           | st.text(st.characters(exclude_categories=()), max_size=8),
           snapshot=st.integers(0, 1 << 40),
           degraded=st.booleans())
    @example(rows=[NASTY_ROW, {"collective": "allgather", "nodes": 2,
                               "ppn": 4, "msg_size": 64}] * 2,
             req_id="\ud800é", snapshot=3, degraded=True)
    @example(rows=[{"collective": float("-inf"), "nodes": True,
                    "ppn": None, "msg_size": [float("inf"), -1]}],
             req_id=-(1 << 64), snapshot=0, degraded=False)
    def test_reply_bytes_equal_json_dumps_of_to_dicts(
            self, rows, req_id, snapshot, degraded):
        block = serve(rows)
        extra = {"degraded": "deadline-floor"} if degraded else {}
        payload = ok_response(req_id, decisions=block, snapshot=snapshot,
                              **extra)
        assert encode(payload) == oracle_line(payload)


class TestMostlyStringColumns:
    """A column of strings with a few other values — the ``algorithm``
    column of a batch with invalid rows holds ``None`` there — writes
    its strings in one pass and the rest one at a time."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(names=st.lists(st.sampled_from(COLLECTIVES + ODD_STRINGS)
                          | st.text(max_size=4), min_size=1, max_size=40),
           others=st.lists(st.tuples(st.integers(0, 39),
                                     st.none() | st.booleans() | junk),
                           max_size=4))
    @example(names=["allgather"] * 507 + ["nope"] * 5, others=[])
    @example(names=["alltoall"] * 40,
             others=[(3, None), (9, True), (17, {"b": 1, "a": [None]})])
    def test_reply_bytes_equal_json_dumps_of_to_dicts(self, names,
                                                      others):
        rows = [{"collective": name, "nodes": 2, "ppn": 4,
                 "msg_size": 64} for name in names]
        for i, value in others:
            rows[i % len(rows)]["collective"] = value
        block = serve(rows)
        algorithms = block.algorithms.tolist()
        assert any(a is None for a in algorithms) == any(
            r["collective"] not in COLLECTIVES for r in rows)
        payload = ok_response(7, decisions=block, snapshot=1)
        assert encode(payload) == oracle_line(payload)

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.sampled_from(ODD_STRINGS) | leaves | junk,
                           min_size=1, max_size=30))
    @example(values=["a", None, "b", False, 3, 2.5, {"k": "v"}, "\ud800"])
    def test_column_text_equals_value_text(self, values):
        assert _column_json(values) == [_value_json(v) for v in values]


class TestBlockIsReadOnly:
    def test_select_block_leaves_the_query_block_unchanged(self):
        rows = [{"collective": "allgather", "nodes": 2, "ppn": 4,
                 "msg_size": 1000},
                {"collective": "allgather", "nodes": 2, "ppn": 4,
                 "msg_size": 1000},
                {"collective": "alltoall", "nodes": 1, "ppn": 2,
                 "msg_size": 3},
                {"collective": "nope", "nodes": -1, "ppn": 2.0,
                 "msg_size": {"a": 1}},
                {"collective": "bcast", "nodes": 99, "ppn": 4,
                 "msg_size": 10 ** 25}]
        blk = QueryBlock.from_records(rows)
        arrays = {name: getattr(blk, name)
                  for name in ("cids", "nodes64", "ppn64", "msg64",
                               "columnar")}
        before = {name: a.copy() for name, a in arrays.items()}
        cols = blk.cols
        col_before = [list(c) for c in cols]
        for service in (
                SelectionService(MvapichDefaultSelector(), SPEC),
                SelectionService(MvapichDefaultSelector(), SPEC)):
            service.select_block(blk)
            service.select_block(blk)  # memo hits on the second pass
        assert blk.cols is cols
        assert [list(c) for c in blk.cols] == col_before
        for name, array in arrays.items():
            assert getattr(blk, name) is array
            np.testing.assert_array_equal(array, before[name])
