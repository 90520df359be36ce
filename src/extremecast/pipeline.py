"""End-to-end dataset preparation: impute -> split -> features -> select ->
scale -> window.  Everything downstream (training, evaluation, diagnostics)
consumes the PreparedDataset produced here or by ``checkpoint.load_dataset``;
both apply ``data.check_split``, so each partition holds at least one window."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (ScalerParams, SplitSpec, TimeSeriesTable, WindowPartition,
                   chronological_split, fit_scaler, impute_two_stage, make_windows)
from .errors import DataError
from .features import FeatureSpec, build_features, select_features


@dataclass
class PreparedDataset:
    feature_names: list
    lookback: int
    target: str
    scaler: ScalerParams
    split: SplitSpec
    parts: dict[str, WindowPartition]
    dates: list
    target_raw: np.ndarray
    audit: list = field(default_factory=list)
    mode: str = "full"
    # scaled per-day arrays; every window stack is a read-only view of
    # feature_matrix, and the dataset artifact stores these days
    feature_matrix: np.ndarray | None = None
    target_scaled: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def part(self, name: str) -> WindowPartition:
        return self.parts[name]

    def target_index(self) -> int:
        """Column index of the raw target among selected features, or -1."""
        try:
            return self.feature_names.index(self.target)
        except ValueError:
            return -1

    def invert_target(self, y_scaled: np.ndarray) -> np.ndarray:
        return self.scaler.invert(self.target, y_scaled)


def prepare(table: TimeSeriesTable, lookback: int = 30, train_frac: float = 0.8,
            val_frac: float = 0.2, feature_spec: FeatureSpec | None = None) -> PreparedDataset:
    """Build windows from a raw table.

    Fitting steps (climatology, selection, scaler) see train-partition rows
    only.  Feature columns are ordered by selection rank; the target is
    scaled with its own column's parameters even when not selected.  The
    feature spec is validated first, so a bad one raises ``ConfigError``.
    """
    spec = (feature_spec or FeatureSpec()).validate()
    if table.target not in table.columns:
        raise DataError(f"target column {table.target!r} missing")
    imputed = impute_two_stage(table)
    split = chronological_split(imputed.n_days, lookback, train_frac, val_frac)
    candidates, groups = build_features(imputed, split, spec)
    target_raw = imputed.columns[table.target]
    selection = select_features(candidates, target_raw, split, spec.top_k, groups)
    names = list(selection.selected)

    fit_cols = {n: candidates[n] for n in names}
    fit_cols.setdefault(table.target, target_raw)
    scaler = fit_scaler(fit_cols, split.slice_("train"))

    matrix = np.column_stack([scaler.transform(n, candidates[n]) for n in names])
    y = scaler.transform(table.target, target_raw)
    parts = make_windows(matrix, y, split, lookback)
    return PreparedDataset(
        feature_names=names, lookback=lookback, target=table.target,
        scaler=scaler, split=split, parts=parts, dates=list(imputed.dates),
        target_raw=target_raw.copy(), audit=selection.audit_rows(), mode=spec.mode,
        feature_matrix=matrix, target_scaled=y)
