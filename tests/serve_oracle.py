"""Shared helpers for checking the serving path against the scalar
guard ladder (``GuardedSelector.explain``), the one oracle."""

import zlib

import numpy as np

from repro.core.resilience import CircuitBreaker
from repro.serve import ACTION_INVALID, quantize_msg_size
from repro.simcluster.machine import Machine
from repro.smpi.collectives import base
from repro.smpi.guard import GuardedSelector
from repro.smpi.heuristics import (
    AlgorithmSelector,
    InvalidQueryError,
    validate_query,
)


def block_args(rows) -> tuple:
    """``(collectives, nodes, ppn, msg_size)`` arrays, the columnar
    form ``explain_block`` and ``select_block`` take, for
    ``(collective, nodes, ppn, msg)`` rows."""
    cols = list(zip(*rows))
    return (np.array(cols[0], dtype=object),
            *(np.array(c, dtype=np.int64) for c in cols[1:]))


def held_breaker(state: str) -> CircuitBreaker:
    """A breaker held closed (never trips) or held open (never
    recovers)."""
    if state == "closed":
        return CircuitBreaker(failure_threshold=1 << 30)
    breaker = CircuitBreaker(failure_threshold=1, recovery_timeout_s=1e12)
    breaker.record_failure()
    return breaker


class Oracle:
    """The scalar ladder on one inner selector, breaker held closed or
    held open (same envelopes as the guard under test)."""

    def __init__(self, inner, spec, envelopes=None):
        self.spec = spec
        self.guards = {
            state: GuardedSelector(inner, breaker=held_breaker(state),
                                   envelopes=envelopes)
            for state in ("closed", "open")}

    def expect(self, c, n, p, m, breaker_open=False) -> tuple:
        """``(algorithm, action, detail)`` for one query as sent:
        ``invalid`` when the shape check or :func:`validate_query`
        rejects it, else ``explain`` on the quantized key."""
        try:
            machine = Machine(self.spec, n, p)
        except (TypeError, ValueError) as exc:
            return None, ACTION_INVALID, f"bad job shape: {exc}"
        try:
            validate_query(c, machine, m)
        except InvalidQueryError as exc:
            return None, ACTION_INVALID, str(exc)
        guard = self.guards["open" if breaker_open else "closed"]
        d = guard.explain(c, machine, quantize_msg_size(m))
        return d.algorithm, d.action, d.detail


class KeyedAdversary(AlgorithmSelector):
    """Unknown labels, junk types, maybe-infeasible registry names and
    (optionally) exceptions, as a pure function of the query — so the
    block path and the scalar ladder see the same answer per row."""

    def __init__(self, raises: bool):
        self.raises = raises

    def _one(self, c, n, p, m):
        key = f"{c}|{int(n)}|{int(p)}|{int(m)}".encode()
        roll = zlib.crc32(key) % 100
        if roll < 10 and self.raises:
            raise RuntimeError("flaky model")
        if roll < 25:
            return "no_such_algorithm"
        if roll < 35:
            return 12345
        names = sorted(base.algorithm_names(c))
        return names[zlib.crc32(key[::-1]) % len(names)]

    def select(self, collective, machine, msg_size):
        validate_query(collective, machine, msg_size)
        return self._one(collective, machine.nodes, machine.ppn, msg_size)

    def select_block(self, spec, collectives, nodes, ppn, msg_size):
        out = np.empty(len(msg_size), dtype=object)
        for i, row in enumerate(zip(collectives, nodes, ppn, msg_size)):
            out[i] = self._one(*row)
        return out
