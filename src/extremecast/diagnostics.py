"""Model-agnostic explainability diagnostics and regime clustering.

All importance methods work on the windowed test partition in the feature
space the model consumes, and report errors in raw target units:

* occlusion — replace one feature everywhere by its test-set median and
  measure the RMSE increase over the unmodified baseline;
* partial dependence — sweep one feature over a 20-point grid between its
  1st and 99th percentile (set at every timestep of every window) and
  average the predictions;
* permutation importance — shuffle one feature's windows across samples
  (the same shuffled sample index for every timestep, preserving
  within-window coherence) and average the RMSE drop over repeats.

Residual diagnostics produce ACF values with +-1.96/sqrt(n) bands, a
Freedman-Diaconis histogram, normal Q-Q pairs at positions (i-0.5)/n, and
residual-vs-predicted pairs.  ``kmeans_regimes`` clusters z-scored
(year, month, target) day vectors with k-means++ seeding and Lloyd
iterations, reporting centroids in original units.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError, DataError
from .metrics import regression_metrics
from .model import predict, raw_predictions
from .rng import Rng

ACF_MAX_LAG = 30


# -------------------------------------------------------------- occlusion


def occlusion_sensitivity(model, params, dataset, partition: str = "test") -> dict:
    """RMSE increase when each feature is replaced by its partition median."""
    part = dataset.part(partition)
    baseline = regression_metrics(
        *raw_predictions(model, params, dataset, partition)).rmse
    rows = []
    for f, name in enumerate(dataset.feature_names):
        occluded = part.X.copy()
        occluded[:, :, f] = np.median(part.X[:, :, f])
        rmse = regression_metrics(
            *raw_predictions(model, params, dataset, partition, occluded)).rmse
        rows.append({"feature": name, "delta_rmse": rmse - baseline,
                     "occluded_rmse": rmse})
    return {"baseline_rmse": baseline, "rows": rows}


# ------------------------------------------------------- partial dependence


def partial_dependence(model, params, dataset, feature: str,
                       grid_size: int = 20, partition: str = "test") -> dict:
    """Average prediction as one feature sweeps a percentile-bounded grid."""
    if grid_size < 2:
        raise ConfigError("partial_dependence grid_size must be >= 2")
    if feature not in dataset.feature_names:
        raise ConfigError(f"unknown feature {feature!r}")
    f = dataset.feature_names.index(feature)
    part = dataset.part(partition)
    values = part.X[:, :, f].ravel()
    lo, hi = np.quantile(values, 0.01), np.quantile(values, 0.99)
    if lo == hi:
        warnings.warn(f"feature {feature!r} is constant on {partition}; "
                      "emitting a single-point curve", stacklevel=2)
        grid = np.array([lo])
    else:
        grid = np.linspace(lo, hi, grid_size)
    mean_raw, mean_scaled = [], []
    for g in grid:
        swept = part.X.copy()
        swept[:, :, f] = g
        pred_scaled = predict(model, params, swept)
        mean_scaled.append(float(np.mean(pred_scaled)))
        mean_raw.append(float(np.mean(dataset.invert_target(pred_scaled))))
    return {"feature": feature, "grid": [float(g) for g in grid],
            "mean_prediction": mean_raw,
            "mean_prediction_scaled": mean_scaled}


# --------------------------------------------------- permutation importance


def permutation_importance(model, params, dataset, partition: str = "test",
                           repeats: int = 5, seed: int = 0) -> dict:
    """Window-coherent shuffle of one feature across samples, per repeat."""
    if repeats < 1:
        raise ConfigError("permutation_importance repeats must be >= 1")
    part = dataset.part(partition)
    baseline = regression_metrics(
        *raw_predictions(model, params, dataset, partition)).rmse
    streams = Rng(seed, "permutation").substreams(dataset.feature_names)
    rows = []
    for f, (name, stream) in enumerate(zip(dataset.feature_names, streams)):
        drops = []
        for _ in range(repeats):
            perm = stream.permutation(part.n_samples)
            shuffled = part.X.copy()
            shuffled[:, :, f] = part.X[perm, :, f]
            rmse = regression_metrics(*raw_predictions(
                model, params, dataset, partition, shuffled)).rmse
            drops.append(rmse - baseline)
        drops = np.array(drops)
        rows.append({"feature": name, "mean_drop": float(np.mean(drops)),
                     "std": float(np.std(drops)), "repeats": repeats})
    return {"baseline_rmse": baseline, "rows": rows}


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v, ties sharing their mean rank (scipy's
    ``rankdata(v, "average")``, same sort and same arithmetic)."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    first = np.concatenate([[True], sv[:-1] != sv[1:]])
    counts = np.diff(np.flatnonzero(first), append=v.size)
    ranks = np.arange(1.0, v.size + 1.0)[first] + (counts - 1) / 2
    out = np.empty(v.size)
    out[order] = np.repeat(ranks, counts)
    return out


def ranking_agreement(occlusion: dict, permutation: dict) -> float:
    """Spearman correlation between occlusion and permutation importances.

    Equal to ``scipy.stats.spearmanr(...).statistic``, ties included; NaN,
    without a warning, when a column is constant (a single feature, too) or
    holds a NaN.
    """
    occ = {r["feature"]: r["delta_rmse"] for r in occlusion["rows"]}
    per = {r["feature"]: r["mean_drop"] for r in permutation["rows"]}
    if set(occ) != set(per):
        raise DataError("importance tables cover different feature sets")
    names = sorted(occ)
    a = np.array([occ[n] for n in names], dtype=np.float64)
    b = np.array([per[n] for n in names], dtype=np.float64)
    if (np.all(a == a[0]) or np.all(b == b[0])
            or np.isnan(a).any() or np.isnan(b).any()):
        return float("nan")
    # spearmanr's form: corrcoef of the stacked rank columns, which can
    # differ from np.corrcoef(ra, rb) in the last bits
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


# ------------------------------------------------------ residual diagnostics


def autocorrelation(e: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample ACF r_1..r_max_lag about the mean, normalized by lag-0."""
    e = np.asarray(e, dtype=np.float64)
    centered = e - e.mean()
    denom = float(np.sum(centered * centered))
    if denom == 0.0:
        return np.zeros(max_lag)
    return np.array([
        float(np.sum(centered[k:] * centered[:-k])) / denom
        for k in range(1, max_lag + 1)])


def residual_diagnostics(residuals: np.ndarray, predictions=None) -> dict:
    # scipy is imported where it runs, so the other commands never load it
    from scipy.special import ndtri

    e = np.asarray(residuals, dtype=np.float64)
    n = e.shape[0]
    if n < 30:
        raise DataError(f"residual diagnostics need >= 30 residuals, got {n}")
    if not np.all(np.isfinite(e)):
        raise DataError("residuals contain non-finite values")

    max_lag = min(ACF_MAX_LAG, n - 1)
    acf = autocorrelation(e, max_lag)
    band = 1.96 / math.sqrt(n)

    counts, edges = np.histogram(e, bins="fd")

    std = float(np.std(e, ddof=1))
    z = (e - e.mean()) / std if std > 0.0 else np.zeros_like(e)
    empirical = np.sort(z)
    theoretical = ndtri((np.arange(1, n + 1) - 0.5) / n)

    out = {
        "n": n,
        "mean": float(np.mean(e)),
        "std": std,
        "acf": [{"lag": k + 1, "r": float(r)} for k, r in enumerate(acf)],
        "band": band,
        "histogram": {"edges": [float(v) for v in edges],
                      "counts": [int(c) for c in counts]},
        "qq": [{"theoretical": float(t), "empirical": float(q)}
               for t, q in zip(theoretical, empirical)],
    }
    if predictions is not None:
        p = np.asarray(predictions, dtype=np.float64)
        if p.shape != e.shape:
            raise DataError("predictions and residuals must align")
        out["residual_vs_predicted"] = [
            {"predicted": float(a), "residual": float(b)}
            for a, b in zip(p, e)]
    return out


# ------------------------------------------------------------------ k-means


def kmeans(points: np.ndarray, k: int, rng: Rng, max_iter: int = 300):
    """Lloyd's algorithm with k-means++ seeding.

    Returns (assignments, centroids, wcss_history); empty clusters are
    re-seeded to the point farthest from its current centroid.
    """
    X = np.asarray(points, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if n < k:
        raise DataError(f"cannot form {k} clusters from {n} points")
    if not np.all(np.isfinite(X)):
        raise DataError("clustering input contains non-finite values")

    # k-means++ seeding
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.randint(n)]
    d2 = np.sum((X - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            centroids[j] = X[rng.randint(n)]
        else:
            r = rng.uniform(0.0, total)
            centroids[j] = X[np.searchsorted(np.cumsum(d2), r, side="right")
                             .clip(max=n - 1)]
        d2 = np.minimum(d2, np.sum((X - centroids[j]) ** 2, axis=1))

    assignments = np.full(n, -1, dtype=np.int64)
    wcss_history = []
    for _ in range(max_iter):
        dists = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(dists, axis=1)
        wcss_history.append(float(dists[np.arange(n), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = X[assignments == j]
            if members.shape[0] == 0:
                per_point = dists[np.arange(n), assignments]
                centroids[j] = X[int(np.argmax(per_point))]
            else:
                centroids[j] = members.mean(axis=0)
    return assignments, centroids, wcss_history


def kmeans_regimes(dates, target: np.ndarray, target_name: str, k: int = 4,
                   seed: int = 0) -> dict:
    """Cluster days into regimes on z-scored (year, month, target) vectors;
    centroids come back in original units."""
    raw = np.column_stack([np.array([d.year for d in dates], dtype=np.float64),
                           np.array([d.month for d in dates], dtype=np.float64),
                           np.asarray(target, dtype=np.float64)])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    divisor = np.where(std == 0.0, 1.0, std)
    z = (raw - mean) / divisor
    assignments, centroids_z, wcss = kmeans(z, k, Rng(seed, "kmeans"))
    centroids = centroids_z * divisor + mean
    return {
        "feature_names": ["year", "month", target_name],
        "k": k,
        "assignments": assignments,
        "centroids": centroids,
        "wcss_history": wcss,
    }
