"""``pml-mpi top`` — a polling live view of a running daemon.

Deliberately curses-free: each refresh is one full-frame string built
from four protocol-v2 ops (``stats``, ``health``, ``tail``,
``metrics``) and printed after an ANSI clear, so the same renderer
drives the interactive loop, the one-shot ``--once`` mode the smoke
scripts run in CI, and the unit tests (which feed canned responses
straight into :func:`render_panel`).

The header's ``breaker=`` is the serving guard's breaker state (as
``stats`` reports it): ``open`` means the snapshot is answering with
the heuristic.

Request *rate* needs two observations, so the interactive loop diffs
the Prometheus ``pml_serve_daemon_requests_total`` sample between
polls; the first frame (and ``--once``) shows cumulative totals only.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, TextIO

from ..obs.expo import parse_prometheus
from .client import DaemonClient

__all__ = ["poll_once", "render_panel", "run_top"]

#: ANSI full clear + cursor home (the interactive refresh).
_CLEAR = "\x1b[2J\x1b[H"

#: Flight-recorder events shown per frame.
_TAIL_ROWS = 10


def poll_once(socket_path: str) -> dict[str, Any]:
    """One observation: the four introspection ops over one
    connection, plus the parsed Prometheus samples."""
    with DaemonClient(socket_path) as client:
        stats = client.stats()
        health = client.health()
        tail = client.tail(_TAIL_ROWS)
        metrics = client.metrics()
    return {
        "stats": stats,
        "health": health,
        "tail": tail,
        "samples": parse_prometheus(metrics["body"]),
    }


def _event_line(event: dict[str, Any]) -> str:
    fields = {k: v for k, v in event.items()
              if k not in ("kind", "tick", "t")}
    body = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    return f"  #{event['tick']:<6} {event['kind']:<9} {body}"


def _burn(slo: dict[str, Any]) -> float:
    """The hottest long-window burn rate of one SLO entry."""
    return max((w["burn_long"] for w in slo["windows"]), default=0.0)


def render_panel(observation: dict[str, Any],
                 previous: dict[str, Any] | None = None,
                 elapsed_s: float | None = None) -> str:
    """One full frame from a :func:`poll_once` observation (and
    optionally the previous one, for rates)."""
    stats = observation["stats"]
    health = observation["health"]
    tail = observation["tail"]
    samples = observation["samples"]
    snapshot = stats["snapshot"]

    def total(key: str) -> int:
        return int(samples.get(f"pml_serve_daemon_{key}_total", 0))

    rate = "      n/a"
    if previous is not None and elapsed_s and elapsed_s > 0:
        prev_requests = int(previous["samples"].get(
            "pml_serve_daemon_requests_total", 0))
        rate = f"{(total('requests') - prev_requests) / elapsed_s:8.1f}/s"

    lineage = snapshot.get("lineage") or []
    state = "DRAINING" if stats["draining"] else "serving"
    lines = [
        f"pml-mpi top — {state}  snapshot v{snapshot['version']} "
        f"({snapshot['source']})  breaker={stats['breaker']}  "
        f"inflight={stats['inflight']}",
        f"  lineage: {' -> '.join(str(v) for v in lineage) or '(none)'}",
        "",
        f"  requests {total('requests'):>8}   rate {rate}   "
        f"ok {total('ok')}   floor {total('deadline_floor')}   "
        f"shed {total('overloaded') + total('draining')}   "
        f"bad {total('bad_request')}   internal {total('internal')}",
    ]
    request_s = health.get("request_s") or {}
    if request_s.get("count"):
        lines.append(
            f"  latency  p50 {request_s['p50'] * 1e3:8.3f}ms   "
            f"p95 {request_s['p95'] * 1e3:8.3f}ms   "
            f"p99 {request_s['p99'] * 1e3:8.3f}ms   "
            f"(n={request_s['count']})")
    lines += ["", f"  health: {health['verdict'].upper()}"]
    for slo in health.get("slos", []):
        lines.append(
            f"    {slo['name']:<26} {slo['kind']:<10} "
            f"obj {slo['objective']:.3f}  "
            f"compliance {slo['compliance']:.4f}  "
            f"budget {slo['budget_remaining']:+7.2f}  "
            f"burn {_burn(slo):6.2f}  [{slo['verdict']}]")
    lines += ["",
              f"  flight recorder: {tail['total']} events "
              f"({tail['dropped']} dropped, ring {tail['capacity']})"]
    for event in tail.get("events", [])[-_TAIL_ROWS:]:
        lines.append(_event_line(event))
    return "\n".join(lines) + "\n"


def run_top(socket_path: str, interval_s: float = 1.0,
            iterations: int | None = None, once: bool = False,
            out: TextIO | None = None,
            clock: Callable[[], float] = time.monotonic,
            sleep: Callable[[float], None] = time.sleep) -> int:
    """Drive the view: one frame for ``--once``, else a refresh loop
    (``iterations`` bounds it; ``None`` means until interrupted)."""
    out = out if out is not None else sys.stdout
    previous: dict[str, Any] | None = None
    prev_t: float | None = None
    frame = 0
    try:
        while True:
            observation = poll_once(socket_path)
            now = float(clock())
            elapsed = now - prev_t if prev_t is not None else None
            panel = render_panel(observation, previous, elapsed)
            if once:
                out.write(panel)
                return 0
            out.write(_CLEAR + panel)
            out.flush()
            previous, prev_t = observation, now
            frame += 1
            if iterations is not None and frame >= iterations:
                return 0
            sleep(interval_s)
    except KeyboardInterrupt:
        return 0
