"""Champion/challenger gate: shadow evaluation, guarded promotion,
and automatic rollback.

**Shadow evaluation** replays held-out recent feedback through *both*
selectors, each behind its own :class:`~repro.smpi.guard.GuardedSelector`
(namespaced ``guard.champion.*`` / ``guard.challenger.*`` in one shared
registry, so each side's counters partition its replay stream exactly
and never merge).  Per-row regrets are paired; the challenger is
promotable only when its mean regret improves on the champion's by at
least ``min_improvement`` *and* an exact one-sided sign test on the
paired wins rejects "no better than the champion" at level ``alpha``.
Both conditions are pure arithmetic over the rows — no sampling — so
the verdict is deterministic.

**Promotion** is a crash-safe transaction over the serving bundle
file: a ``promotion.json`` sentinel (champion + challenger checksums)
is written first, the champion is copied to a backup, and the
challenger is atomically renamed over the serving path; the sentinel
is removed last.  A process killed anywhere in between leaves
evidence: :meth:`ChampionChallengerGate.recover` finds the sentinel,
quarantines the half-promoted challenger, restores the champion from
backup, and clears the sentinel — the same quarantine/restore ladder
the daemon's boot path uses.  **Demotion** (post-promotion regret
regression) reuses the same moves: quarantine the serving bundle,
restore the backup.  The daemon notices either swap through its
existing :class:`~repro.serve.reload.SnapshotStore` checksum poll.
"""

from __future__ import annotations

import errno
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..core.resilience import (
    CorruptArtifactError,
    atomic_write_bytes,
    atomic_write_text,
    quarantine,
)
from ..obs.telemetry import MetricsRegistry, get_registry
from ..simcluster.machine import Machine
from ..smpi.guard import GuardedSelector
from ..smpi.heuristics import AlgorithmSelector
from .drift import replay_regret
from .feedback import FeedbackRecord

__all__ = [
    "ChampionChallengerGate",
    "ShadowReport",
    "shadow_evaluate",
    "sign_test_p",
]

#: Paired regrets closer than this are ties (excluded from the sign
#: test): float noise must not manufacture wins.
TIE_EPS = 1e-9


def sign_test_p(wins: int, losses: int) -> float:
    """Exact one-sided sign-test p-value: the probability of seeing at
    least *wins* challenger wins in ``wins + losses`` fair coin flips.

    Small-n safe (exact binomial via ``math.comb``, no normal
    approximation); ``wins + losses == 0`` returns 1.0 — no evidence.
    """
    n = wins + losses
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(wins, n + 1))
    return total / 2.0 ** n


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of one shadow evaluation over held-out feedback."""

    rows: int
    wins: int                 # challenger strictly better
    losses: int               # champion strictly better
    ties: int
    champion_regret: float    # mean relative regret
    challenger_regret: float
    improvement: float        # champion_regret - challenger_regret
    p_value: float
    promote: bool
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rows": self.rows, "wins": self.wins,
            "losses": self.losses, "ties": self.ties,
            "champion_regret": round(self.champion_regret, 9),
            "challenger_regret": round(self.challenger_regret, 9),
            "improvement": round(self.improvement, 9),
            "p_value": round(self.p_value, 9),
            "promote": self.promote, "detail": self.detail,
        }


def shadow_evaluate(champion: AlgorithmSelector,
                    challenger: AlgorithmSelector,
                    records: list[FeedbackRecord],
                    spec: Any,
                    min_improvement: float = 0.02,
                    alpha: float = 0.05,
                    registry: MetricsRegistry | None = None
                    ) -> ShadowReport:
    """Paired regret comparison of challenger vs champion on held-out
    rows, each behind its own namespaced guard."""
    registry = registry if registry is not None else get_registry()
    champ_guard = GuardedSelector(champion, registry=registry,
                                  namespace="guard.champion")
    chall_guard = GuardedSelector(challenger, registry=registry,
                                  namespace="guard.challenger")
    machines: dict[tuple[int, int], Machine] = {}
    for r in records:
        key = (r.nodes, r.ppn)
        if key not in machines:
            machines[key] = Machine(spec, r.nodes, r.ppn)
    wins = losses = ties = 0
    champ_sum = chall_sum = 0.0
    for r in records:
        rc = replay_regret(champ_guard, machines, r)
        rn = replay_regret(chall_guard, machines, r)
        champ_sum += rc
        chall_sum += rn
        if rn < rc - TIE_EPS:
            wins += 1
        elif rc < rn - TIE_EPS:
            losses += 1
        else:
            ties += 1
    n = len(records)
    champ_mean = champ_sum / n if n else 0.0
    chall_mean = chall_sum / n if n else 0.0
    improvement = champ_mean - chall_mean
    p = sign_test_p(wins, losses)
    promote = n > 0 and improvement >= min_improvement and p <= alpha
    if n == 0:
        detail = "no held-out rows"
    elif promote:
        detail = (f"challenger wins {wins}/{wins + losses} pairs "
                  f"(p={p:.4g}), regret {champ_mean:.4f} -> "
                  f"{chall_mean:.4f}")
    elif improvement < min_improvement:
        detail = (f"improvement {improvement:.4f} below floor "
                  f"{min_improvement:.4f}")
    else:
        detail = f"sign test inconclusive (p={p:.4g} > {alpha:.4g})"
    registry.counter("adapt.gate.evaluations").inc()
    registry.counter("adapt.gate.accepted" if promote
                     else "adapt.gate.rejected").inc()
    registry.gauge("adapt.regret.challenger").set(chall_mean)
    return ShadowReport(rows=n, wins=wins, losses=losses, ties=ties,
                        champion_regret=champ_mean,
                        challenger_regret=chall_mean,
                        improvement=improvement, p_value=p,
                        promote=promote, detail=detail)


def _file_crc32(path: Path) -> str | None:
    """Local copy of :func:`repro.serve.reload.file_crc32` semantics
    (lazy import avoids pulling the serve stack into the gate)."""
    from ..serve.reload import file_crc32
    return file_crc32(path)


class ChampionChallengerGate:
    """Owner of the promotion/demotion transaction over the serving
    bundle file.

    ``serving_path`` is the bundle the daemon watches; ``state_dir``
    holds the gate's durable state: ``champion.backup.json`` (the last
    known-good champion), ``promotion.json`` (the in-flight promotion
    sentinel), and whatever staged challenger the loop hands to
    :meth:`promote`.
    """

    def __init__(self, serving_path: str | Path,
                 state_dir: str | Path,
                 registry: MetricsRegistry | None = None) -> None:
        self.serving_path = Path(serving_path)
        self.state_dir = Path(state_dir)
        self.backup_path = self.state_dir / "champion.backup.json"
        self.sentinel_path = self.state_dir / "promotion.json"
        self.registry = registry if registry is not None \
            else get_registry()

    # -- promotion transaction ------------------------------------------
    def promote(self, challenger_path: str | Path,
                tick: int = 0) -> None:
        """Swap the challenger into the serving path, crash-safely.

        Order matters: sentinel first (so a kill at any later point is
        recoverable), champion backup second (so the restore source
        exists before the swap), rename last (atomic — the daemon
        never sees a torn bundle).
        """
        challenger_path = Path(challenger_path)
        champ_bytes = self.serving_path.read_bytes()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        sentinel = {
            "challenger_checksum": _file_crc32(challenger_path),
            "champion_checksum": _file_crc32(self.serving_path),
            "tick": tick,
        }
        atomic_write_text(self.sentinel_path,
                          json.dumps(sentinel, sort_keys=True,
                                     separators=(",", ":")) + "\n")
        atomic_write_bytes(self.backup_path, champ_bytes)
        try:
            os.replace(challenger_path, self.serving_path)
        except OSError as exc:
            # The staged challenger lives in state_dir while the
            # serving bundle is an arbitrary user path; on different
            # filesystems the rename raises EXDEV.  Degrade to an
            # atomic same-directory write of the challenger bytes.
            if exc.errno != errno.EXDEV:
                raise
            atomic_write_bytes(self.serving_path,
                               challenger_path.read_bytes())
            challenger_path.unlink(missing_ok=True)
        self.sentinel_path.unlink()
        self.registry.counter("adapt.gate.promoted").inc()

    def recover(self) -> str | None:
        """Roll back a promotion that died mid-transaction.

        Returns a human-readable detail when recovery acted, ``None``
        when there was nothing to recover.  An unreadable sentinel is
        treated conservatively: if the serving bundle no longer
        matches the backup, the serving file is quarantined and the
        backup restored.
        """
        if not self.sentinel_path.exists():
            return None
        try:
            sentinel = json.loads(self.sentinel_path.read_text())
            if not isinstance(sentinel, dict):
                raise CorruptArtifactError("promotion sentinel not a dict")
            challenger_crc = sentinel.get("challenger_checksum")
        except (OSError, ValueError):
            challenger_crc = None
        serving_crc = _file_crc32(self.serving_path)
        backup_crc = _file_crc32(self.backup_path)
        swapped = serving_crc is not None and (
            serving_crc == challenger_crc
            or (challenger_crc is None and backup_crc is not None
                and serving_crc != backup_crc))
        if swapped and backup_crc is not None:
            moved = quarantine(self.serving_path)
            atomic_write_bytes(self.serving_path,
                               self.backup_path.read_bytes())
            self.registry.counter("adapt.gate.quarantined").inc()
            detail = (f"mid-promotion crash: quarantined half-promoted "
                      f"challenger to {moved.name}, restored champion "
                      f"from backup")
        else:
            detail = "cleared pre-swap promotion sentinel"
        self.sentinel_path.unlink(missing_ok=True)
        self.registry.counter("adapt.gate.recovered").inc()
        return detail

    # -- demotion --------------------------------------------------------
    def demote(self, reason: str = "") -> Path:
        """Quarantine the serving bundle and restore the backup
        champion (post-promotion regression, breaker trips, …).

        Returns the quarantine path of the demoted bundle.
        """
        if not self.backup_path.exists():
            raise FileNotFoundError(
                f"cannot demote: no champion backup at {self.backup_path}")
        moved = quarantine(self.serving_path)
        atomic_write_bytes(self.serving_path,
                           self.backup_path.read_bytes())
        self.registry.counter("adapt.gate.demoted").inc()
        self.registry.counter("adapt.gate.quarantined").inc()
        return moved
