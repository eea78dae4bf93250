"""Golden regression test for the serving layer.

Replays the frozen mini dataset through training and batched serving
and compares the emitted decision JSONL byte-for-byte against the
checked-in expectation.  Any drift in feature extraction, model
training, guard routing, quantization, memoization, or serialization
shows up here as a one-line diff.  Regenerate intentionally with
``PYTHONPATH=src python scripts/make_golden.py``.
"""

import json
import sys
from pathlib import Path

from repro.serve import SelectionQuery, decisions_to_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"

sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))
import make_golden  # noqa: E402


def _queries_from_fixture():
    queries = []
    for line in (GOLDEN_DIR / "queries.jsonl").read_text().splitlines():
        record = json.loads(line)
        queries.append(SelectionQuery(
            record["collective"], record["nodes"], record["ppn"],
            record["msg_size"]))
    return queries


def test_fixture_files_present():
    for name in ("mini_dataset.jsonl.gz", "queries.jsonl",
                 "expected_decisions.jsonl"):
        assert (GOLDEN_DIR / name).exists(), name


def test_fixture_queries_match_generator():
    """The checked-in query file is what the generator would emit —
    otherwise the byte comparison below tests stale inputs."""
    assert _queries_from_fixture() == make_golden.golden_queries()


def _fresh_service():
    """A cold service: a warm memo would flip the ``cached`` flags."""
    assert (GOLDEN_DIR / "mini_dataset.jsonl.gz").exists(), \
        "golden fixture missing — run scripts/make_golden.py"
    return make_golden.build_service()


def test_decisions_byte_identical():
    """``select_batch`` (the per-query decision list) reproduces the
    golden bytes."""
    payload = decisions_to_jsonl(
        _fresh_service().select_batch(_queries_from_fixture()))
    expected = (GOLDEN_DIR / "expected_decisions.jsonl").read_text()
    assert payload == expected, (
        "serving output drifted from the golden fixture; if the change "
        "is intentional, rerun scripts/make_golden.py and review the "
        "diff")


def test_columnar_decisions_byte_identical():
    """The columnar ``select_block`` answers reproduce the golden bytes
    too."""
    payload = decisions_to_jsonl(
        _fresh_service().select_block(_queries_from_fixture())
        .to_decisions())
    expected = (GOLDEN_DIR / "expected_decisions.jsonl").read_text()
    assert payload == expected, (
        "columnar serving output drifted from the golden fixture")


def test_expected_decisions_internally_consistent():
    """Sanity on the checked-in expectation itself: one decision per
    query, invalid queries answered (not dropped), every line is
    compact sorted-key JSON."""
    lines = (GOLDEN_DIR /
             "expected_decisions.jsonl").read_text().splitlines()
    queries = _queries_from_fixture()
    assert len(lines) == len(queries)
    n_invalid = 0
    for line in lines:
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True,
                          separators=(",", ":")) == line
        if record["action"] == "invalid":
            n_invalid += 1
            assert record["algorithm"] is None
    assert n_invalid == 3  # unknown collective, bad shape, bad size
