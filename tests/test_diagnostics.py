"""Diagnostics tests: occlusion/PDP/permutation mechanics on models with
known structure, residual diagnostics against hand oracles, and k-means
recovery of planted clusters."""

import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import spearmanr

from extremecast.baselines import NBeatsConfig, NBeatsModel, PersistenceModel
from extremecast.data import ScalerParams, SplitSpec, WindowPartition
from extremecast.diagnostics import (autocorrelation, kmeans, kmeans_regimes,
                                     occlusion_sensitivity,
                                     partial_dependence,
                                     permutation_importance,
                                     ranking_agreement, residual_diagnostics)
from extremecast.errors import ConfigError, DataError
from extremecast.features import FeatureSpec
from extremecast.pipeline import PreparedDataset, prepare
from extremecast.rng import Rng
from extremecast.synthetic import sinusoid_ar_table
from extremecast.tensor import Var
from extremecast.training import evaluate_model
from persistence_task import persistence_task_table


def toy_dataset(n=40, L=5, seed=9):
    """Hand-built dataset: feature 0 is the target, 1 is constant, 2 noise."""
    rng = Rng(seed, "toy")
    series = np.cumsum(rng.gaussian_array(n + L, 0.0, 1.0)) + 20.0
    X = np.empty((n, L, 3))
    y = np.empty(n)
    rows = np.arange(L, n + L)
    for i in range(n):
        X[i, :, 0] = series[i:i + L]
        X[i, :, 1] = 5.0
        X[i, :, 2] = rng.gaussian_array(L)
        y[i] = series[i + L]
    dates = [dt.date(2020, 1, 1) + dt.timedelta(days=int(r)) for r in range(n + L)]
    part = WindowPartition(X=X, y=y, target_rows=rows)
    return PreparedDataset(
        feature_names=["tempmax", "flat", "noise"],
        lookback=L,
        target="tempmax",
        scaler=ScalerParams(columns={"tempmax": (0.0, 1.0),
                                     "flat": (0.0, 1.0),
                                     "noise": (0.0, 1.0)}),
        split=SplitSpec(n_days=n + L, val=(0, 0), train=(0, 0), test=(0, n + L)),
        parts={"test": part},
        dates=dates,
        target_raw=series,
        audit=[],
        mode="full",
    )


class LinearSurrogate:
    """prediction = coef * mean_t(x[:, :, f]) — exactly linear in feature f."""

    no_decay = frozenset()

    def __init__(self, f, coef):
        self.f, self.coef = f, coef

    def forward(self, params, X, train=False, rng=None):
        arr = X.value if isinstance(X, Var) else np.asarray(X)
        return Var(self.coef * arr[:, :, self.f].mean(axis=1))


# -------------------------------------------------------------- occlusion


def test_occlusion_ignored_and_constant_features_are_exact_zero():
    ds = toy_dataset()
    model = NBeatsModel(NBeatsConfig(lookback=5, stacks=2, fc_units=6),
                        target_index=0)
    params = model.init_params(Rng(3, "init"))
    out = occlusion_sensitivity(model, params, ds)
    rows = {r["feature"]: r for r in out["rows"]}
    assert set(rows) == {"tempmax", "flat", "noise"}
    # the univariate model reads only the target column
    assert rows["noise"]["delta_rmse"] == 0.0
    # occluding a constant feature replaces it with its own median
    assert rows["flat"]["delta_rmse"] == 0.0
    assert rows["tempmax"]["delta_rmse"] != 0.0


def test_occlusion_baseline_matches_evaluation_rmse():
    ds = toy_dataset()
    model = PersistenceModel(target_index=0)
    out = occlusion_sensitivity(model, {}, ds)
    report = evaluate_model(model, {}, ds)
    assert out["baseline_rmse"] == report["metrics"]["rmse"]


# ------------------------------------------------------- partial dependence


def test_pdp_linear_surrogate_recovers_slope():
    ds = toy_dataset()
    curve = partial_dependence(LinearSurrogate(2, 2.0), {}, ds, "noise")
    grid = np.array(curve["grid"])
    vals = ds.part("test").X[:, :, 2].ravel()
    assert grid[0] == np.quantile(vals, 0.01)
    assert grid[-1] == np.quantile(vals, 0.99)
    assert len(grid) == 20
    slope = np.polyfit(grid, curve["mean_prediction_scaled"], 1)[0]
    assert abs(slope - 2.0) <= 1e-6
    # identity scaler: raw curve carries the same slope
    slope_raw = np.polyfit(grid, curve["mean_prediction"], 1)[0]
    assert abs(slope_raw - 2.0) <= 1e-6


def test_pdp_ignored_feature_is_flat():
    ds = toy_dataset()
    curve = partial_dependence(LinearSurrogate(0, 1.5), {}, ds, "noise")
    span = max(curve["mean_prediction"]) - min(curve["mean_prediction"])
    assert span <= 1e-9


def test_pdp_constant_feature_single_point():
    ds = toy_dataset()
    with pytest.warns(UserWarning, match="constant"):
        curve = partial_dependence(LinearSurrogate(1, 1.0), {}, ds, "flat")
    assert curve["grid"] == [5.0]
    assert curve["mean_prediction_scaled"] == [5.0]


def test_pdp_argument_guards():
    ds = toy_dataset()
    with pytest.raises(ConfigError, match="unknown feature"):
        partial_dependence(LinearSurrogate(0, 1.0), {}, ds, "bogus")
    with pytest.raises(ConfigError):
        partial_dependence(LinearSurrogate(0, 1.0), {}, ds, "noise",
                           grid_size=1)


# --------------------------------------------------- permutation importance


def test_permutation_importance_exact_zero_for_ignored_features():
    ds = toy_dataset()
    model = PersistenceModel(target_index=0)
    out = permutation_importance(model, {}, ds, repeats=3, seed=5)
    rows = {r["feature"]: r for r in out["rows"]}
    assert rows["flat"]["mean_drop"] == 0.0 and rows["flat"]["std"] == 0.0
    assert rows["noise"]["mean_drop"] == 0.0
    assert rows["tempmax"]["mean_drop"] > 0.0
    assert rows["tempmax"]["repeats"] == 3


def test_permutation_importance_window_coherence_and_determinism():
    ds = toy_dataset()

    captured = []

    class Capture:
        no_decay = frozenset()

        def forward(self, params, X, train=False, rng=None):
            arr = X.value if isinstance(X, Var) else np.asarray(X)
            captured.append(arr.copy())
            return Var(arr[:, -1, 0])

    base = ds.part("test").X
    permutation_importance(Capture(), {}, ds, repeats=1, seed=1)
    # captured: baseline eval + one shuffle per feature
    assert len(captured) == 1 + 3
    for f, arr in enumerate(captured[1:]):
        # untouched columns identical; shuffled column is a sample reshuffle
        for g in range(3):
            if g != f:
                assert np.array_equal(arr[:, :, g], base[:, :, g])
        shuffled_rows = {arr[i, :, f].tobytes() for i in range(arr.shape[0])}
        original_rows = {base[i, :, f].tobytes() for i in range(base.shape[0])}
        assert shuffled_rows == original_rows

    a = permutation_importance(PersistenceModel(0), {}, ds, repeats=2, seed=7)
    b = permutation_importance(PersistenceModel(0), {}, ds, repeats=2, seed=7)
    assert a == b
    with pytest.raises(ConfigError):
        permutation_importance(PersistenceModel(0), {}, ds, repeats=0)


def test_persistence_task_ranks_lagged_target_first():
    table = persistence_task_table(1, n_days=300)
    ds = prepare(table, lookback=8, feature_spec=FeatureSpec(mode="minimal"))
    model = PersistenceModel(target_index=ds.target_index())
    occ = occlusion_sensitivity(model, {}, ds)
    per = permutation_importance(model, {}, ds, repeats=3, seed=2)
    top_occ = max(occ["rows"], key=lambda r: r["delta_rmse"])["feature"]
    top_per = max(per["rows"], key=lambda r: r["mean_drop"])["feature"]
    assert top_occ == "tempmax"
    assert top_per == "tempmax"
    assert ranking_agreement(occ, per) > 0.0


def importance_tables(occ_values, perm_values):
    names = [f"f{i:02d}" for i in range(len(occ_values))]
    # listed in reverse, so the name sort has work to do
    occ = {"rows": [{"feature": n, "delta_rmse": v}
                    for n, v in zip(names[::-1], occ_values[::-1])]}
    per = {"rows": [{"feature": n, "mean_drop": v}
                    for n, v in zip(names, perm_values)]}
    return occ, per


@st.composite
def importance_columns(draw):
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        # few distinct values, so most columns have ties
        col = st.integers(-3, 3).map(lambda k: k * 0.25)
    else:
        col = st.floats(-1e3, 1e3, allow_nan=False)
    return (draw(st.lists(col, min_size=n, max_size=n)),
            draw(st.lists(col, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(importance_columns())
def test_ranking_agreement_equals_scipy_spearman(columns):
    a, b = columns
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns warn in scipy
        want = float(spearmanr(a, b).statistic)
    got = ranking_agreement(*importance_tables(a, b))
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("occ_values, perm_values", [
    ([0.5, 0.5, 0.5], [0.1, 0.3, 0.2]),
    ([0.1, 0.3, 0.2], [0.0, 0.0, 0.0]),
    ([0.1, float("nan"), 0.2], [0.1, 0.3, 0.2]),
    ([0.1], [0.2]),
], ids=["constant-occlusion", "constant-permutation", "nan", "one-feature"])
def test_ranking_agreement_undefined_is_nan_without_warning(occ_values,
                                                            perm_values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = ranking_agreement(*importance_tables(occ_values, perm_values))
    assert math.isnan(rho)


# ------------------------------------------------------ residual diagnostics


def test_acf_matches_brute_force_loops():
    e = Rng(4, "resid").gaussian_array(60)
    got = autocorrelation(e, 10)
    mean = sum(e) / len(e)
    denom = sum((v - mean) ** 2 for v in e)
    for k in range(1, 11):
        want = sum((e[t] - mean) * (e[t - k] - mean)
                   for t in range(k, len(e))) / denom
        assert abs(got[k - 1] - want) <= 1e-12


def test_alternating_residuals_have_negative_lag1():
    e = np.array([1.0, -1.0] * 20)
    out = residual_diagnostics(e)
    assert out["acf"][0]["r"] < 0.0
    assert out["band"] == pytest.approx(1.96 / math.sqrt(40))


def test_iid_gaussian_acf_mostly_inside_bands():
    e = Rng(4, "resid").gaussian_array(500)
    out = residual_diagnostics(e)
    inside = sum(1 for row in out["acf"] if abs(row["r"]) <= out["band"])
    assert inside >= 27


def test_qq_pairs_near_diagonal_for_perfectly_normal_sample():
    # residuals placed exactly at normal quantiles (any location/scale);
    # the Q-Q pairs then sit on the diagonal up to standardization effects
    n = 500
    perfect = 3.0 + 2.0 * ndtri((np.arange(1, n + 1) - 0.5) / n)
    e = perfect[Rng(12, "resid").permutation(n)]
    out = residual_diagnostics(e)
    dev = max(abs(p["theoretical"] - p["empirical"]) for p in out["qq"])
    assert dev < 0.15
    assert len(out["qq"]) == n


def test_histogram_follows_freedman_diaconis():
    e = Rng(13, "resid").gaussian_array(200)
    out = residual_diagnostics(e)
    iqr = np.quantile(e, 0.75) - np.quantile(e, 0.25)
    width = 2.0 * iqr / 200 ** (1.0 / 3.0)
    expected_bins = int(np.ceil((e.max() - e.min()) / width))
    assert len(out["histogram"]["counts"]) == expected_bins
    assert sum(out["histogram"]["counts"]) == 200
    edges = out["histogram"]["edges"]
    assert all(a < b for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize("n", [30, 370, 5000])
def test_qq_theoretical_matches_scipy_ndtri(n):
    # statistics.NormalDist (AS241) against scipy's ndtri (Cephes)
    out = residual_diagnostics(Rng(16, "resid").gaussian_array(n))
    got = np.array([p["theoretical"] for p in out["qq"]])
    want = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert np.max(np.abs(got - want)) <= 2e-15


@pytest.mark.parametrize("e", [
    Rng(17, "resid").gaussian_array(370),
    np.round(Rng(18, "resid").gaussian_array(64), 1),  # ties
    np.r_[np.zeros(40), 1.0, 2.0],                      # zero IQR: one bin
    np.full(35, 4.25),                                   # zero range
], ids=["gaussian", "ties", "zero-iqr", "constant"])
def test_histogram_keeps_numpy_fd_bytes(e):
    counts, edges = np.histogram(e, bins="fd")
    out = residual_diagnostics(e)
    assert out["histogram"] == {"edges": [float(v) for v in edges],
                                "counts": [int(c) for c in counts]}


def test_histogram_bins_capped_at_n():
    # an IQR of about 1e-9 under a range of 10: Freedman-Diaconis alone asks
    # for about 1e10 bins
    e = Rng(19, "resid").gaussian_array(370, 0.0, 1e-9)
    e[100] = 10.0
    hist = residual_diagnostics(e)["histogram"]
    assert len(hist["counts"]) == 370 and sum(hist["counts"]) == 370
    assert hist["edges"][0] == e.min() and hist["edges"][-1] == e.max()


def test_residual_diagnostics_guards_and_pairs():
    with pytest.raises(DataError, match=">= 30"):
        residual_diagnostics(np.zeros(29))
    with pytest.raises(DataError, match="non-finite"):
        residual_diagnostics(np.array([np.nan] + [0.0] * 40))
    e = Rng(14, "resid").gaussian_array(40)
    p = Rng(15, "resid").gaussian_array(40)
    out = residual_diagnostics(e, predictions=p)
    assert out["residual_vs_predicted"][3] == {"predicted": float(p[3]),
                                               "residual": float(e[3])}
    with pytest.raises(DataError, match="align"):
        residual_diagnostics(e, predictions=p[:-1])


# ------------------------------------------------------------------ k-means


def planted_blobs(seed=21, n_per=20, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = Rng(seed, "blobs")
    parts = [np.array(c) + rng.gaussian_array((n_per, 2), 0.0, 0.5)
             for c in centers]
    return np.vstack(parts), n_per


def test_kmeans_recovers_two_blobs_exactly():
    points, n_per = planted_blobs()
    assign, centroids, wcss = kmeans(points, 2, Rng(3, "kmeans"))
    first, second = assign[:n_per], assign[n_per:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]
    want = {tuple(np.round(points[:n_per].mean(axis=0), 9)),
            tuple(np.round(points[n_per:].mean(axis=0), 9))}
    got = {tuple(np.round(c, 9)) for c in centroids}
    assert got == want


def test_kmeans_k1_centroid_is_mean():
    points, _ = planted_blobs(seed=22)
    assign, centroids, _ = kmeans(points, 1, Rng(1, "kmeans"))
    assert set(assign.tolist()) == {0}
    np.testing.assert_allclose(centroids[0], points.mean(axis=0),
                               rtol=0, atol=1e-12)


def test_kmeans_duplicate_points_same_centroids():
    points, _ = planted_blobs(seed=23)
    _, c1, _ = kmeans(points, 2, Rng(5, "kmeans"))
    doubled = np.vstack([points, points])
    _, c2, _ = kmeans(doubled, 2, Rng(6, "kmeans"))
    a = np.array(sorted(map(tuple, c1)))
    b = np.array(sorted(map(tuple, c2)))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_kmeans_wcss_non_increasing():
    points = Rng(31, "cloud").gaussian_array((200, 3))
    _, _, wcss = kmeans(points, 5, Rng(7, "kmeans"))
    assert all(b <= a + 1e-9 for a, b in zip(wcss, wcss[1:]))


def test_kmeans_guards():
    points = np.zeros((3, 2))
    with pytest.raises(DataError):
        kmeans(points, 4, Rng(0, "kmeans"))
    with pytest.raises(ConfigError):
        kmeans(points, 0, Rng(0, "kmeans"))
    with pytest.raises(DataError, match="non-finite"):
        kmeans(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1, Rng(0, "kmeans"))


def test_kmeans_regimes_on_table():
    table = sinusoid_ar_table(2, n_days=400)
    out = kmeans_regimes(table.dates, table.columns["tempmax"], "tempmax",
                         k=3, seed=4)
    assert out["feature_names"] == ["year", "month", "tempmax"]
    assert out["assignments"].shape == (400,)
    assert set(out["assignments"].tolist()) <= {0, 1, 2}
    assert out["centroids"].shape == (3, 3)
    years = [d.year for d in table.dates]
    for c in out["centroids"]:
        assert min(years) - 1 <= c[0] <= max(years) + 1   # original units
        assert 0.0 <= c[1] <= 13.0
    again = kmeans_regimes(table.dates, table.columns["tempmax"], "tempmax",
                           k=3, seed=4)
    np.testing.assert_array_equal(out["assignments"], again["assignments"])
    np.testing.assert_array_equal(out["centroids"], again["centroids"])
