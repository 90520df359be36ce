"""Checkpoint and report persistence.

Everything is JSON: UTF-8, sorted keys.  Each float array (the parameters
of every model kind, and a dataset's ``feature_matrix``, ``target_scaled``
and ``target_raw``) is one base64 string of its little-endian float64 bytes
in row-major order (``_pack``), so a save→load cycle reproduces every bit by
construction; parameter strings sit next to their shapes.  Every other
number (shapes, scaler pairs, split bounds, ``best_val_loss``) is plain
JSON.  Savers refuse a NaN or an infinity with a ``ValueError``, and a
path that cannot be written raises ``DataError`` naming it.  Loaders
read arrays, integers, numbers and scalers strictly (``_unpack``, ``_int``,
``_floats``, ``_read_scaler``): a packed array that is not a string, is not
strict base64, holds other than 8 bytes per element its shape or split
implies, or decodes to a non-finite value; a fractional integer; a string,
boolean, null or non-finite number; or a scaler divisor that is not
positive makes the file malformed.

No timing is stored: identical runs must write identical bytes.
"""

from __future__ import annotations

import base64
import csv
import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .data import ScalerParams
from .errors import CompatibilityError, DataError

SCHEMA_VERSION = 2


# ------------------------------------------------------------ JSON helpers


def write_json(obj, path) -> None:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"), allow_nan=False)
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot write ({exc})") from exc


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc


def write_csv(path, header: list, rows: list) -> None:
    """Comma-separated, UTF-8, '\\n' endings, numerics unquoted via repr."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    except OSError as exc:
        raise DataError(f"{path}: cannot write ({exc})") from exc


def _cell(v):
    if isinstance(v, float) or isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def _int(value) -> int:
    """A JSON integer as it stands; bool, float and str are refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _floats(values) -> np.ndarray:
    """A JSON number list as float64; strings, booleans, null and non-finite
    values are refused."""
    if not set(map(type, values)) <= {float, int}:
        raise ValueError("a number array holds a value that is not a number")
    arr = np.array(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("a number array holds non-finite values")
    return arr


def _pack(values) -> str:
    """float64 values as base64 of their little-endian bytes, row-major; a
    NaN or an infinity is refused, as ``json`` refuses it."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if not np.isfinite(arr).all():
        raise ValueError("a float array to save holds non-finite values")
    return base64.b64encode(arr.tobytes()).decode("ascii")


def _unpack(text, count: int) -> np.ndarray:
    """The ``count`` float64 values ``_pack`` wrote, as a new flat array."""
    if type(text) is not str:
        raise TypeError(f"a packed array must be a string, got "
                        f"{type(text).__name__}")
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * count:
        raise ValueError(f"a packed array holds {len(raw)} bytes, expected "
                         f"{8 * count} for {count} values")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("a packed array holds non-finite values")
    return arr


def _scaler_doc(scaler: ScalerParams) -> dict:
    return {k: [float(m), float(d)] for k, (m, d) in sorted(scaler.columns.items())}


def _read_scaler(doc: dict) -> ScalerParams:
    """The (median, divisor) pairs ``_scaler_doc`` wrote; every median must be
    finite and every divisor finite and positive."""
    columns = {}
    for name, pair in doc.items():
        med, div = _floats(pair)
        if not div > 0.0:
            raise ValueError(f"the scaler divisor of {name!r} is {div!r}, "
                             f"not positive")
        columns[name] = (float(med), float(div))
    return ScalerParams(columns)


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
    extra: dict = field(default_factory=dict)


def _encode_params(params: dict) -> dict:
    out = {}
    for name, arr in params.items():
        a = np.asarray(arr, dtype=np.float64)
        out[name] = {"shape": list(a.shape), "data": _pack(a)}
    return out


def _decode_params(blob: dict) -> dict:
    out = {}
    for name, entry in blob.items():
        shape = tuple(_int(n) for n in entry["shape"])
        out[name] = _unpack(entry["data"], math.prod(shape)).reshape(shape)
    return out


def _check_kind(kind) -> str:
    from .training import MODELS        # training imports this module

    if not isinstance(kind, str) or kind not in MODELS:
        raise CompatibilityError(f"unknown model kind {kind!r}")
    return kind


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    _check_kind(ckpt.model_kind)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model_kind": ckpt.model_kind,
        "model_config": ckpt.model_config,
        "params": _encode_params(ckpt.params),
        "feature_names": list(ckpt.feature_names),
        "scaler": _scaler_doc(ckpt.scaler),
        "lookback": ckpt.lookback,
        "target": ckpt.target,
        "seed": ckpt.seed,
        "train_state": {
            "best_val_loss": ckpt.best_val_loss,
            "epoch": ckpt.best_epoch,
        },
        "extra": ckpt.extra,
    }
    write_json(doc, path)


def load_checkpoint(path) -> Checkpoint:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise CompatibilityError(f"{path} is not a checkpoint file")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CompatibilityError(
            f"checkpoint schema_version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    kind = _check_kind(doc.get("model_kind"))
    try:
        ts = doc.get("train_state", {})
        best, epoch = ts.get("best_val_loss"), ts.get("epoch")
        return Checkpoint(
            model_kind=kind,
            model_config=doc["model_config"],
            params=_decode_params(doc["params"]),
            feature_names=list(doc["feature_names"]),
            scaler=_read_scaler(doc["scaler"]),
            lookback=_int(doc["lookback"]),
            target=doc["target"],
            seed=_int(doc["seed"]),
            best_val_loss=None if best is None else float(_floats([best])[0]),
            best_epoch=None if epoch is None else _int(epoch),
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
        "scaler": _scaler_doc(ds.scaler),
        "split": {"n_days": ds.split.n_days, "val": list(ds.split.val),
                  "train": list(ds.split.train), "test": list(ds.split.test)},
        "dates": [d.isoformat() for d in ds.dates],
        "target_raw": _pack(ds.target_raw),
        "target_scaled": _pack(ds.target_scaled),
        "feature_matrix": _pack(ds.feature_matrix),
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
    if not isinstance(doc, dict) or doc.get("kind") != "prepared_dataset":
        raise CompatibilityError(f"{path} is not a prepared-dataset file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CompatibilityError(
            f"dataset schema_version {doc.get('schema_version')!r} unsupported "
            f"(expected {SCHEMA_VERSION})")
    try:
        names = list(doc["feature_names"])
        bounds = doc["split"]
        split = SplitSpec(n_days=_int(bounds["n_days"]),
                          **{part: tuple(_int(b) for b in bounds[part])
                             for part in ("val", "train", "test")})
        n_days = split.n_days
        matrix = _unpack(doc["feature_matrix"],
                         n_days * len(names)).reshape(n_days, len(names))
        target_scaled = _unpack(doc["target_scaled"], n_days)
        lookback = _int(doc["lookback"])
        parts = make_windows(matrix, target_scaled,
                             check_split(split, lookback), lookback)
        dates = [dt.date.fromisoformat(s) for s in doc["dates"]]
        target_raw = _unpack(doc["target_raw"], n_days)
        if len(dates) != n_days:
            raise CompatibilityError(f"{path}: malformed dataset (dates must "
                                     f"hold {n_days} days)")
        scaler = _read_scaler(doc["scaler"])
        if doc["target"] not in scaler.columns:
            raise CompatibilityError(f"{path}: malformed dataset (the scaler "
                                     f"lacks the target {doc['target']!r})")
        return PreparedDataset(
            feature_names=names,
            lookback=lookback,
            target=doc["target"],
            scaler=scaler,
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
    """Exact ordered match between checkpoint and dataset feature lists; a
    list that ends first has None at the mismatched position."""
    for i, (left, right) in enumerate(zip_longest(ckpt.feature_names,
                                                  feature_names)):
        if left != right:
            raise CompatibilityError(
                f"feature mismatch at position {i}: checkpoint has {left!r}, "
                f"dataset has {right!r}")
