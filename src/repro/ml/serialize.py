"""Model serialization.

The paper's framework ships the pre-trained model *inside* the MPI
library release, so models must round-trip through a portable on-disk
format.  This module serializes every estimator in :mod:`repro.ml` to a
single JSON-compatible dict (trees as flat arrays), with NumPy arrays
base64-encoded.  No pickle — the artifact is inspectable, diffable, and
safe to load from an untrusted package.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any

import numpy as np

from .boosting import GradientBoostingClassifier
from .forest import RandomForestClassifier
from .knn import KNeighborsClassifier
from .preprocessing import StandardScaler
from .svm import SVC, _BinarySVM
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

FORMAT_VERSION = 1


def _encode_array(arr: np.ndarray) -> dict[str, Any]:
    arr = np.asarray(arr)
    return {
        # tobytes() always emits a C-order copy, shape preserved.
        "__ndarray__": base64.b64encode(arr.tobytes()).decode("ascii"),
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


def _decode_array(obj: dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(obj["__ndarray__"])
    return np.frombuffer(raw, dtype=np.dtype(obj["dtype"])).reshape(
        obj["shape"]).copy()


# ---------------------------------------------------------------------
# Per-estimator field tables: constructor params + fitted attributes.
# ---------------------------------------------------------------------

_TREE_FITTED = ("feature_", "threshold_", "left_", "right_", "values_",
                "feature_importances_raw_", "n_features_in_")


def _dump_tree(tree: DecisionTreeClassifier | DecisionTreeRegressor
               ) -> dict[str, Any]:
    out: dict[str, Any] = {
        "kind": type(tree).__name__,
        "params": {
            "max_depth": tree.max_depth,
            "min_samples_split": tree.min_samples_split,
            "min_samples_leaf": tree.min_samples_leaf,
            "max_features": tree.max_features,
            "random_state": tree.random_state,
        },
    }
    for name in _TREE_FITTED:
        out[name] = _encode_array(np.asarray(getattr(tree, name)))
    if isinstance(tree, DecisionTreeClassifier):
        out["classes_"] = _encode_array(np.asarray(tree.classes_))
        out["_n_classes"] = tree._n_classes
        out["feature_importances_"] = _encode_array(
            tree.feature_importances_)
    return out


def _load_tree(data: dict[str, Any]
               ) -> DecisionTreeClassifier | DecisionTreeRegressor:
    cls = {"DecisionTreeClassifier": DecisionTreeClassifier,
           "DecisionTreeRegressor": DecisionTreeRegressor}[data["kind"]]
    tree = cls(**data["params"])
    for name in _TREE_FITTED:
        value = _decode_array(data[name])
        setattr(tree, name, int(value) if name == "n_features_in_"
                else value)
    if isinstance(tree, DecisionTreeClassifier):
        tree.classes_ = _decode_array(data["classes_"])
        tree._n_classes = int(data["_n_classes"])
        tree.feature_importances_ = _decode_array(
            data["feature_importances_"])
    return tree


def _dump_forest(model: RandomForestClassifier) -> dict[str, Any]:
    return {
        "params": model.get_params(),
        "classes_": _encode_array(np.asarray(model.classes_)),
        "feature_importances_": _encode_array(model.feature_importances_),
        "n_features_in_": model.n_features_in_,
        "estimators_": [_dump_tree(t) for t in model.estimators_],
    }


def _load_forest(data: dict[str, Any]) -> RandomForestClassifier:
    model = RandomForestClassifier(**data["params"])
    model.classes_ = _decode_array(data["classes_"])
    model.feature_importances_ = _decode_array(
        data["feature_importances_"])
    model.n_features_in_ = int(data["n_features_in_"])
    model.estimators_ = [_load_tree(t) for t in data["estimators_"]]
    return model


def _dump_boosting(model: GradientBoostingClassifier) -> dict[str, Any]:
    return {
        "params": model.get_params(),
        "classes_": _encode_array(np.asarray(model.classes_)),
        "init_score_": _encode_array(model.init_score_),
        "n_features_in_": model.n_features_in_,
        "estimators_": [[_dump_tree(t) for t in stage]
                        for stage in model.estimators_],
    }


def _load_boosting(data: dict[str, Any]) -> GradientBoostingClassifier:
    model = GradientBoostingClassifier(**data["params"])
    model.classes_ = _decode_array(data["classes_"])
    model.init_score_ = _decode_array(data["init_score_"])
    model.n_features_in_ = int(data["n_features_in_"])
    model.estimators_ = [[_load_tree(t) for t in stage]
                         for stage in data["estimators_"]]
    return model


def _dump_knn(model: KNeighborsClassifier) -> dict[str, Any]:
    return {
        "params": model.get_params(),
        "classes_": _encode_array(np.asarray(model.classes_)),
        "_y": _encode_array(model._y),
        "_X": _encode_array(model._X),
        "n_features_in_": model.n_features_in_,
    }


def _load_knn(data: dict[str, Any]) -> KNeighborsClassifier:
    model = KNeighborsClassifier(**data["params"])
    model.classes_ = _decode_array(data["classes_"])
    model._y = _decode_array(data["_y"])
    model._X = _decode_array(data["_X"])
    model.n_features_in_ = int(data["n_features_in_"])
    return model


def _dump_svc(model: SVC) -> dict[str, Any]:
    binaries = []
    for b in model._binaries:
        binaries.append({
            "C": b.C, "kernel": b.kernel, "gamma": b.gamma,
            "tol": b.tol, "max_passes": b.max_passes,
            "max_iter": b.max_iter, "seed": b.seed,
            "support_vectors_": _encode_array(b.support_vectors_),
            "dual_coef_": _encode_array(b.dual_coef_),
            "intercept_": b.intercept_,
        })
    return {
        "params": model.get_params(),
        "classes_": _encode_array(np.asarray(model.classes_)),
        "n_features_in_": model.n_features_in_,
        "binaries": binaries,
    }


def _load_svc(data: dict[str, Any]) -> SVC:
    model = SVC(**data["params"])
    model.classes_ = _decode_array(data["classes_"])
    model.n_features_in_ = int(data["n_features_in_"])
    model._binaries = []
    for bd in data["binaries"]:
        b = _BinarySVM(bd["C"], bd["kernel"], bd["gamma"], bd["tol"],
                       bd["max_passes"], bd["max_iter"], bd["seed"])
        b.support_vectors_ = _decode_array(bd["support_vectors_"])
        b.dual_coef_ = _decode_array(bd["dual_coef_"])
        b.intercept_ = float(bd["intercept_"])
        model._binaries.append(b)
    return model


def _dump_scaler(scaler: StandardScaler) -> dict[str, Any]:
    return {"mean_": _encode_array(scaler.mean_),
            "scale_": _encode_array(scaler.scale_)}


def _load_scaler(data: dict[str, Any]) -> StandardScaler:
    scaler = StandardScaler()
    scaler.mean_ = _decode_array(data["mean_"])
    scaler.scale_ = _decode_array(data["scale_"])
    return scaler


_DUMPERS = {
    RandomForestClassifier: ("random_forest", _dump_forest),
    GradientBoostingClassifier: ("gradient_boosting", _dump_boosting),
    KNeighborsClassifier: ("knn", _dump_knn),
    SVC: ("svc", _dump_svc),
    StandardScaler: ("standard_scaler", _dump_scaler),
    DecisionTreeClassifier: ("tree_classifier", _dump_tree),
    DecisionTreeRegressor: ("tree_regressor", _dump_tree),
}

_LOADERS = {
    "random_forest": _load_forest,
    "gradient_boosting": _load_boosting,
    "knn": _load_knn,
    "svc": _load_svc,
    "standard_scaler": _load_scaler,
    "tree_classifier": _load_tree,
    "tree_regressor": _load_tree,
}


def dump_model(model: Any) -> dict[str, Any]:
    """Serialize a fitted estimator to a JSON-compatible dict."""
    for cls, (tag, dumper) in _DUMPERS.items():
        if type(model) is cls:
            return {"format_version": FORMAT_VERSION, "model_type": tag,
                    "payload": dumper(model)}
    raise TypeError(f"cannot serialize {type(model).__name__}")


def load_model(data: dict[str, Any]) -> Any:
    """Reconstruct an estimator from :func:`dump_model` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    tag = data["model_type"]
    try:
        loader = _LOADERS[tag]
    except KeyError:
        raise ValueError(f"unknown model type {tag!r}") from None
    return loader(data["payload"])


def save_model(model: Any, path: str | Path) -> Path:
    """Serialize *model* to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dump_model(model)))
    return path


def load_model_file(path: str | Path) -> Any:
    """Load a model saved by :func:`save_model`."""
    return load_model(json.loads(Path(path).read_text()))
