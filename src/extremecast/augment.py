"""Offline training-set augmentation: jitter, scaling, time warp, magnitude
warp, and the deterministic 4x expansion that combines them.

All transforms act on scaled float64 feature windows [L, F]; targets are
never touched.  Randomness comes from per-sample substreams of the "augment"
stream, so the expansion of sample i does not depend on batch layout or on
how many samples precede it.  Zero-strength settings short-circuit to exact
copies (documented identity, not a numerical accident).

``augment_windows`` draws the few numbers per window for the whole stack at
once: one ``substreams`` call each seeds the scale, time-warp and
magnitude-warp streams, one pass fills every window's scale factor, and one
spline fit each gives every even window's time map and every odd window's
magnitude curve.  The jitter (its
streams, its fill and its noise sum) and the writes into the output (the
scale multiply, the resampling gather and the magnitude multiply) run over
blocks of ``_BLOCK`` windows.  Window i's output is what the one-window call
with stream i gives, bit for bit; ``jitter``, ``scale``, ``time_warp`` and
``magnitude_warp`` are those one-window calls.

Warps build a curve through a handful of knots with a natural cubic spline,
``_natural_spline``, which is numpy only: it repeats the arithmetic of
scipy 1.17's ``CubicSpline(x, y, bc_type="natural")`` in the same order, so
its values equal scipy's bit for bit, and a test pins them to scipy and to a
golden digest.  It solves the knot-derivative system without row swaps and
raises ``NumericError`` where LAPACK would swap, which evenly spaced anchors
never need.  The knots sit at anchors fixed by L and the knot count, so one
spline over a [knots+2, m] value matrix fits all m windows of a stack:

* time warp: knots at evenly spaced interior anchors get Gaussian offsets
  (std sigma * L / knots); the curve through (1,1), (a_j, a_j+offset_j),
  (L,L) is evaluated on the integer grid, clipped to [1, L], and sort-
  repaired into a monotone time map tau.  A window whose map is not strictly
  monotone after repair redraws from its own stream, up to WARP_RETRIES
  times.  tau(1) = 1 and tau(L) = L always.  Each column is then linearly
  resampled at tau by one gather per block that repeats ``np.interp``'s
  arithmetic: (X[j+1] - X[j]) * (tau - grid[j]) + X[j] with grid[j] = j + 1,
  and X[j] itself where tau falls on grid[j].
* magnitude warp: knot values ~ N(1, sigma^2) at knots+2 anchors spanning
  [1, L]; the spline is clipped to [0.5, 1.5] and multiplies every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .rng import Rng, gaussian_rows, uniform_rows

# windows per jitter fill and per write into the output.  It bounds the
# temporaries: 64 windows of 30 x 30 draw 1.8 MB of raw jitter words and
# gather 0.46 MB per resampled copy.  Scale factors, time maps and magnitude
# curves are at most L numbers per window and are drawn for the whole stack.
# Jittering 1,250 such windows took 129 / 109 / 103 / 104 / 118 ms at blocks
# of 16 / 32 / 64 / 128 / 256 (2-vCPU Xeon, numpy 2.4).
_BLOCK = 64

WARP_RETRIES = 10


@dataclass
class AugmentConfig:
    enabled: bool = True
    jitter_sigma: float = 0.03
    scale_low: float = 0.9
    scale_high: float = 1.1
    warp_knots: int = 4
    warp_sigma: float = 0.2

    def validate(self) -> "AugmentConfig":
        for name in ("jitter_sigma", "warp_sigma"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"augment.{name} must be finite and >= 0")
        for name in ("scale_low", "scale_high"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"augment.{name} must be finite and > 0")
        if self.scale_low > self.scale_high:
            raise ConfigError(
                f"augment.scale_low ({self.scale_low}) must not "
                f"exceed augment.scale_high ({self.scale_high})")
        if self.warp_knots < 2:
            raise ConfigError("augment.warp_knots must be >= 2")
        return self


def _jitter_block(X: np.ndarray, rngs: list[Rng], sigma: float) -> np.ndarray:
    if sigma == 0.0:
        return X.copy()
    noise = gaussian_rows(rngs, X[0].size, 0.0, sigma)
    return X + noise.reshape(X.shape)


def _scale_factors(rngs: list[Rng], low: float,
                   high: float) -> np.ndarray | None:
    """[len(rngs)]: one factor per stream, or None for the identity."""
    if low > high:
        raise DataError(f"scale range inverted: ({low}, {high})")
    if low == high == 1.0:
        return None
    return uniform_rows(rngs, 1, low, high)[:, 0]


def _need_two_steps(L: int, name: str) -> None:
    if L < 2:
        raise DataError(f"{name} needs a window of at least 2 steps")


def _natural_spline(x: np.ndarray, y: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """[len(grid), m]: the natural cubic spline through (x, y[:, j]) for each
    column of y [n, m], at grid; x [n >= 2] strictly increasing.

    Bit for bit ``CubicSpline(x, y, bc_type="natural")(grid)`` of scipy
    1.17: the same slopes and tridiagonal system for the knot derivatives,
    solved by LAPACK ``dgtsv``'s elimination and back-substitution, then
    ``CubicHermiteSpline``'s coefficients and ``PPoly``'s evaluation.
    ``dgtsv`` swaps rows where a pivot is smaller than the entry below it;
    that never happens on evenly spaced knots, and is refused here.
    """
    n = len(x)
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # CubicSpline's system for the knot derivatives: diagonals d, du, dl and
    # right-hand side s, solved in place.  Its natural end rows add
    # -0.5 * 0 * dx^2 (-0.0, a no-op) at the start and +0.5 * 0 * dx^2 at the
    # end, where the + 0.0 turns a -0.0 into +0.0
    d = np.empty(n)
    d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.concatenate([dx[:1], dx[:-1]])
    dl = np.concatenate([dx[1:], dx[-1:]])
    s = np.empty(y.shape)
    s[0] = 3 * (y[1] - y[0])
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    s[-1] = 0.0 + 3 * (y[-1] - y[-2])
    for i in range(n - 1):
        if abs(d[i]) < abs(dl[i]):
            raise NumericError("natural spline system needs pivoting")
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        s[i + 1] = s[i + 1] - fact * s[i]
    s[-1] = s[-1] / d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        # dgtsv keeps the zeroed sub-diagonal entry in its update
        s[i] = (s[i] - du[i] * s[i + 1] - 0.0 * s[i + 2]) / d[i]
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c0 = t / dxr
    c1 = (slope - s[:-1]) / dxr - t
    # PPoly sums from 0.0, so a -0.0 knot value adds as +0.0
    c3 = 0.0 + y[:-1]
    # interval i holds x[i] <= g < x[i + 1]; the last knot, and anything
    # past the ends, goes to the nearest end interval
    k = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, n - 2)
    h = (grid - x[k])[:, None]
    hh = h * h
    return c3[k] + s[:-1][k] * h + c1[k] * hh + c0[k] * (hh * h)


def _warp_grids(L: int, rngs: list[Rng], knots: int,
                sigma: float) -> np.ndarray | None:
    """[len(rngs), L]: the strictly monotone time map of each stream, or
    None for the identity."""
    _need_two_steps(L, "time warp")
    if sigma == 0.0:
        return None
    grid = np.arange(1.0, L + 1.0)
    anchors = 1.0 + (np.arange(1, knots + 1) / (knots + 1)) * (L - 1.0)
    xs = np.concatenate([[1.0], anchors, [float(L)]])
    taus = np.empty((len(rngs), L))
    todo = np.arange(len(rngs))
    for _ in range(WARP_RETRIES + 1):
        offsets = gaussian_rows([rngs[i] for i in todo], knots, 0.0,
                                sigma * L / knots)
        ys = np.empty((knots + 2, len(todo)))
        ys[0] = 1.0
        ys[1:-1] = anchors[:, None] + offsets.T
        ys[-1] = float(L)
        tau = np.clip(_natural_spline(xs, ys, grid).T, 1.0, float(L))
        tau.sort(axis=1)
        ok = np.all(np.diff(tau, axis=1) > 0.0, axis=1)
        taus[todo[ok]] = tau[ok]
        todo = todo[~ok]
        if not todo.size:
            return taus
    raise NumericError(f"time warp failed to produce a strictly monotone map "
                       f"after {WARP_RETRIES} retries")


def _resample(X: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Window i of X [b, L, F] linearly resampled at tau[i]."""
    L = X.shape[1]
    # np.interp on the grid 1..L: tau in [j + 1, j + 2) reads X[j] and
    # X[j + 1]; tau == L reads X[L - 1], where the offset below is 0
    j = tau.astype(np.intp) - 1
    rows = np.arange(len(X))[:, None]
    lo = X[rows, j]
    hi = X[rows, np.minimum(j + 1, L - 1)]
    frac = (tau - (j + 1.0))[..., None]
    return np.where(frac == 0.0, lo, (hi - lo) * frac + lo)


def _magnitude_curves(L: int, rngs: list[Rng], knots: int,
                      sigma: float) -> np.ndarray | None:
    """[len(rngs), L]: each stream's multiplier curve, or None for the
    identity."""
    _need_two_steps(L, "magnitude warp")
    if sigma == 0.0 or not rngs:  # n = 1 has no odd window
        return None
    anchors = np.linspace(1.0, float(L), knots + 2)
    values = gaussian_rows(rngs, knots + 2, 1.0, sigma)
    curves = _natural_spline(anchors, values.T, np.arange(1.0, L + 1.0))
    return np.clip(curves, 0.5, 1.5).T


def jitter(X: np.ndarray, rng: Rng, sigma: float) -> np.ndarray:
    """Additive iid Gaussian noise, drawn row-major."""
    return _jitter_block(X[None], [rng], sigma)[0]


def scale(X: np.ndarray, rng: Rng, low: float, high: float) -> np.ndarray:
    """One multiplicative factor ~ Uniform(low, high) for the whole window."""
    factor = _scale_factors([rng], low, high)
    return X.copy() if factor is None else X * factor[0]


def time_warp(X: np.ndarray, rng: Rng, knots: int = 4,
              sigma: float = 0.2) -> np.ndarray:
    """Resample each column at a smooth monotone warp of the time axis."""
    tau = _warp_grids(X.shape[0], [rng], knots, sigma)
    return X.copy() if tau is None else _resample(X[None], tau)[0]


def magnitude_warp(X: np.ndarray, rng: Rng, knots: int = 4,
                   sigma: float = 0.2) -> np.ndarray:
    """Multiply all columns by a smooth positive curve around 1."""
    curve = _magnitude_curves(X.shape[0], [rng], knots, sigma)
    return X.copy() if curve is None else X * curve[0][:, None]


def _scale_and_warp(X: np.ndarray, out: np.ndarray, base: Rng,
                    cfg: AugmentConfig) -> None:
    """Write X's scaled copies into out[:n] and its warped ones into out[n:].

    Factors, time maps and curves are drawn for the whole stack; the writes
    go by blocks of ``_BLOCK`` windows.
    """
    n, L = X.shape[:2]
    factors = _scale_factors(base.substreams([f"scale/{i}" for i in range(n)]),
                             cfg.scale_low, cfg.scale_high)
    taus = _warp_grids(
        L, base.substreams([f"timewarp/{i}" for i in range(0, n, 2)]),
        cfg.warp_knots, cfg.warp_sigma)
    curves = _magnitude_curves(
        L, base.substreams([f"magwarp/{i}" for i in range(1, n, 2)]),
        cfg.warp_knots, cfg.warp_sigma)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        block = X[lo:hi]
        out[lo:hi] = (
            block if factors is None else block * factors[lo:hi, None, None])
        # _BLOCK is even, so this block's even windows start at row lo // 2
        # of taus and its odd ones at row lo // 2 of curves
        k = lo // 2
        even, odd = block[0::2], block[1::2]
        warped = out[n + lo:n + hi]
        warped[0::2] = (
            even if taus is None else _resample(even, taus[k:k + len(even)]))
        warped[1::2] = (
            odd if curves is None else odd * curves[k:k + len(odd), :, None])


def augment_windows(X: np.ndarray, y: np.ndarray, seed: int,
                    cfg: AugmentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 4x expansion of a window stack.

    Output order: all originals, then one jittered copy per sample, then one
    scaled copy, then one warped copy (time warp for even sample indices,
    magnitude warp for odd).  Targets are repeated untouched.
    """
    if X.ndim != 3 or y.shape[0] != X.shape[0]:
        raise DataError("augment_windows expects X [n, L, F] and matching y")
    base = Rng(seed, "augment")
    n = X.shape[0]
    X_out = np.empty((4 * n, *X.shape[1:]), dtype=X.dtype)
    X_out[:n] = X
    y_out = np.concatenate([y, y, y, y], axis=0)
    if not n:  # no window draws, so no setting is checked
        return X_out, y_out
    # scale and warp go first: their whole-stack draws check the settings in
    # the reference's order, and are freed before the jitter's temporaries
    _scale_and_warp(X, X_out[2 * n:], base, cfg)
    # jitter streams are seeded per block: held for a whole stack of 1,250
    # windows, they raised its traced peak by 0.4 MB
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        X_out[n + lo:n + hi] = _jitter_block(
            X[lo:hi], base.substreams([f"jitter/{i}" for i in range(lo, hi)]),
            cfg.jitter_sigma)
    return X_out, y_out
