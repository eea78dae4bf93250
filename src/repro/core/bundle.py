"""Pre-trained model bundles — the artifact shipped with the MPI library.

The paper's deployment story is that the vendor trains once and ships
the model inside the MVAPICH release; end users never train.  A
*bundle* is that shippable artifact: one JSON file holding the fitted
per-collective models, their selected features, scalers, and training
metadata.  ``save_selector`` / ``load_selector`` round-trip a
:class:`~repro.core.inference.PretrainedSelector` through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..ml.serialize import FORMAT_VERSION, dump_model, load_model
from .inference import PretrainedSelector
from .resilience import (
    CorruptArtifactError,
    StaleArtifactError,
    atomic_write_text,
    checksum_payload,
)
from .training import TrainedModel

BUNDLE_VERSION = 1
BUNDLE_FORMAT = "pml-mpi/bundle"


def dump_trained_model(model: TrainedModel) -> dict[str, Any]:
    """Serialize one TrainedModel to a JSON-compatible dict."""
    return {
        "collective": model.collective,
        "family": model.family,
        "feature_names": list(model.feature_names),
        "model": dump_model(model.model),
        "scaler": (dump_model(model.scaler)
                   if model.scaler is not None else None),
        "importances_full": (list(map(float, model.importances_full))
                             if model.importances_full is not None
                             else None),
        "metadata": model.metadata,
    }


def load_trained_model(data: dict[str, Any]) -> TrainedModel:
    """Inverse of :func:`dump_trained_model`."""
    import numpy as np

    return TrainedModel(
        collective=data["collective"],
        family=data["family"],
        model=load_model(data["model"]),
        feature_names=tuple(data["feature_names"]),
        scaler=(load_model(data["scaler"])
                if data["scaler"] is not None else None),
        importances_full=(np.asarray(data["importances_full"])
                          if data["importances_full"] is not None
                          else None),
        metadata=dict(data["metadata"]),
    )


def save_selector(selector: PretrainedSelector,
                  path: str | Path) -> Path:
    """Write the shippable model bundle (atomically, with a checksum).

    The CRC covers the ``models`` payload only, so metadata edits (e.g.
    a version bump) surface as *stale*, not *corrupt*.
    """
    models = {coll: dump_trained_model(m)
              for coll, m in selector.models.items()}
    payload = {
        "format": BUNDLE_FORMAT,
        "bundle_version": BUNDLE_VERSION,
        "model_format_version": FORMAT_VERSION,
        "crc32": checksum_payload(models),
        "models": models,
    }
    return atomic_write_text(Path(path), json.dumps(payload))


def load_selector(path: str | Path) -> PretrainedSelector:
    """Load a bundle written by :func:`save_selector`.

    Strict validation: parse failures, checksum mismatches and
    malformed model payloads raise :class:`CorruptArtifactError`; a
    well-formed bundle from another schema era raises
    :class:`StaleArtifactError`.  Pre-checksum bundles (no ``crc32``
    field) are accepted when structurally valid.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptArtifactError(
            f"cannot read bundle {path}: {exc}") from None
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise CorruptArtifactError(
            f"bundle is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "models" not in payload:
        raise CorruptArtifactError("bundle has no models payload")
    fmt = payload.get("format", BUNDLE_FORMAT)
    if fmt != BUNDLE_FORMAT:
        raise CorruptArtifactError(f"not a model bundle (format {fmt!r})")
    version = payload.get("bundle_version")
    if version != BUNDLE_VERSION:
        raise StaleArtifactError(
            f"unsupported bundle version {version} "
            f"(expected {BUNDLE_VERSION})")
    stored_crc = payload.get("crc32")
    if stored_crc is not None:
        actual = checksum_payload(payload["models"])
        if stored_crc != actual:
            raise CorruptArtifactError(
                f"bundle checksum mismatch: stored {stored_crc}, "
                f"computed {actual}")
    try:
        models = {coll: load_trained_model(d)
                  for coll, d in payload["models"].items()}
        return PretrainedSelector(models)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CorruptArtifactError(
            f"invalid model payload in bundle: {exc}") from None
