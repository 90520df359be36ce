"""Checkpoint and report persistence.

Everything is JSON: UTF-8, sorted keys, floats written via Python's
shortest-round-trip ``repr`` (what ``json`` emits for float64), so a
save→load cycle reproduces every parameter bit for bit.  Parameter tensors
are stored flattened in row-major order next to their shapes.

``wall_clock_to_best`` is part of the checkpoint schema but persisted as
null: identical (config, data, seed) runs must produce byte-identical
checkpoint files, and wall-clock time is the one quantity that cannot be
deterministic.  The measured value lives on the in-memory TrainState.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ScalerParams
from .errors import CompatibilityError, DataError

SCHEMA_VERSION = 1


# ------------------------------------------------------------ JSON helpers


def write_json(obj, path) -> None:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"), allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc


def write_csv(path, header: list, rows: list) -> None:
    """Comma-separated, UTF-8, '\\n' endings, numerics unquoted via repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, float) or isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


# -------------------------------------------------------------- checkpoint


@dataclass
class Checkpoint:
    model_kind: str
    model_config: dict
    params: dict                      # name -> float64 ndarray
    feature_names: list
    scaler: ScalerParams
    lookback: int
    target: str
    seed: int
    best_val_loss: float | None = None
    best_epoch: int | None = None
    schema_version: int = SCHEMA_VERSION
    extra: dict = field(default_factory=dict)


def _encode_params(params: dict) -> dict:
    out = {}
    for name, arr in params.items():
        a = np.asarray(arr, dtype=np.float64)
        out[name] = {"shape": list(a.shape),
                     "data": [float(v) for v in a.ravel(order="C")]}
    return out


def _decode_params(blob: dict) -> dict:
    out = {}
    for name, entry in blob.items():
        arr = np.array(entry["data"], dtype=np.float64)
        out[name] = arr.reshape(entry["shape"])
    return out


def _check_kind(kind) -> str:
    from .training import MODELS        # training imports this module

    if not isinstance(kind, str) or kind not in MODELS:
        raise CompatibilityError(f"unknown model kind {kind!r}")
    return kind


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    _check_kind(ckpt.model_kind)
    doc = {
        "schema_version": ckpt.schema_version,
        "model_kind": ckpt.model_kind,
        "model_config": ckpt.model_config,
        "params": _encode_params(ckpt.params),
        "feature_names": list(ckpt.feature_names),
        "scaler": {k: [float(m), float(d)]
                   for k, (m, d) in sorted(ckpt.scaler.columns.items())},
        "lookback": ckpt.lookback,
        "target": ckpt.target,
        "seed": ckpt.seed,
        "train_state": {
            "best_val_loss": ckpt.best_val_loss,
            "epoch": ckpt.best_epoch,
            "wall_clock_to_best": None,
        },
        "extra": ckpt.extra,
    }
    write_json(doc, path)


def load_checkpoint(path) -> Checkpoint:
    doc = read_json(path)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CompatibilityError(
            f"checkpoint schema_version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    kind = _check_kind(doc.get("model_kind"))
    try:
        scaler = ScalerParams(columns={k: (float(v[0]), float(v[1]))
                                       for k, v in doc["scaler"].items()})
        ts = doc.get("train_state", {})
        return Checkpoint(
            model_kind=kind,
            model_config=doc["model_config"],
            params=_decode_params(doc["params"]),
            feature_names=list(doc["feature_names"]),
            scaler=scaler,
            lookback=int(doc["lookback"]),
            target=doc["target"],
            seed=int(doc["seed"]),
            best_val_loss=ts.get("best_val_loss"),
            best_epoch=ts.get("epoch"),
            schema_version=version,
            extra=doc.get("extra", {}),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CompatibilityError(
            f"{path}: malformed checkpoint ({exc!r})") from exc


# ---------------------------------------------------------------- datasets


def save_dataset(ds, path) -> None:
    """Persist a prepared dataset as JSON.

    Stores the scaled per-day feature matrix and target series; the window
    stacks are rebuilt from them on load (pure slicing, bit-identical).
    """
    if ds.feature_matrix is None or ds.target_scaled is None:
        raise DataError("dataset lacks per-day arrays; rebuild it with prepare()")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "prepared_dataset",
        "feature_names": list(ds.feature_names),
        "lookback": ds.lookback,
        "target": ds.target,
        "mode": ds.mode,
        "scaler": {k: [float(m), float(d)]
                   for k, (m, d) in sorted(ds.scaler.columns.items())},
        "split": {"n_days": ds.split.n_days, "val": list(ds.split.val),
                  "train": list(ds.split.train), "test": list(ds.split.test)},
        "dates": [d.isoformat() for d in ds.dates],
        "target_raw": [float(v) for v in ds.target_raw],
        "target_scaled": [float(v) for v in ds.target_scaled],
        "feature_matrix": [float(v) for v in ds.feature_matrix.ravel(order="C")],
        "audit": [[name, group, float(corr), bool(chosen)]
                  for name, group, corr, chosen in ds.audit],
    }
    write_json(doc, path)


def load_dataset(path):
    """The dataset ``save_dataset`` wrote; malformed if it fails check_split."""
    import datetime as dt

    from .data import SplitSpec, check_split, make_windows
    from .pipeline import PreparedDataset

    doc = read_json(path)
    if doc.get("kind") != "prepared_dataset":
        raise CompatibilityError(f"{path} is not a prepared-dataset file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CompatibilityError(
            f"dataset schema_version {doc.get('schema_version')!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    try:
        names = list(doc["feature_names"])
        split = SplitSpec(n_days=int(doc["split"]["n_days"]),
                          val=tuple(doc["split"]["val"]),
                          train=tuple(doc["split"]["train"]),
                          test=tuple(doc["split"]["test"]))
        matrix = np.array(doc["feature_matrix"], dtype=np.float64).reshape(
            split.n_days, len(names))
        target_scaled = np.array(doc["target_scaled"], dtype=np.float64)
        lookback = int(doc["lookback"])
        parts = make_windows(matrix, target_scaled,
                             check_split(split, lookback), lookback)
        dates = [dt.date.fromisoformat(s) for s in doc["dates"]]
        target_raw = np.array(doc["target_raw"], dtype=np.float64)
        if len(dates) != split.n_days or len(target_raw) != split.n_days:
            raise CompatibilityError(f"{path}: malformed dataset (dates and "
                                     f"target_raw must hold {split.n_days} days)")
        return PreparedDataset(
            feature_names=names,
            lookback=lookback,
            target=doc["target"],
            scaler=ScalerParams(columns={k: (float(v[0]), float(v[1]))
                                         for k, v in doc["scaler"].items()}),
            split=split,
            parts=parts,
            dates=dates,
            target_raw=target_raw,
            audit=[(r[0], r[1], float(r[2]), bool(r[3])) for r in doc["audit"]],
            mode=doc["mode"],
            feature_matrix=matrix,
            target_scaled=target_scaled,
        )
    except (AttributeError, DataError, KeyError, TypeError, ValueError) as exc:
        raise CompatibilityError(f"{path}: malformed dataset ({exc!r})") from exc


def check_feature_compatibility(ckpt: Checkpoint, feature_names: list) -> None:
    """Exact ordered match between checkpoint and dataset feature lists."""
    a, b = list(ckpt.feature_names), list(feature_names)
    if a == b:
        return
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else "<missing>"
        right = b[i] if i < len(b) else "<missing>"
        if left != right:
            raise CompatibilityError(
                f"feature mismatch at position {i}: checkpoint has {left!r}, "
                f"dataset has {right!r}")
    raise CompatibilityError("feature lists differ")  # pragma: no cover
