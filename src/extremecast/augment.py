"""Offline training-set augmentation: jitter, scaling, time warp, magnitude
warp, and the deterministic 4x expansion that combines them.

All transforms act on scaled float64 feature windows [L, F]; targets are
never touched.  Randomness comes from per-sample substreams of the "augment"
stream, so the expansion of sample i does not depend on batch layout or on
how many samples precede it.  Zero-strength settings short-circuit to exact
copies (documented identity, not a numerical accident).

Each transform is a block kernel over a window stack [b, L, F] with one
stream per window: ``gaussian_rows`` draws every window's noise or knots in
one lockstep pass, and window i's output is what the one-window call with
stream i gives, bit for bit.  ``jitter``, ``scale``, ``time_warp`` and
``magnitude_warp`` are those one-window calls, and ``augment_windows`` runs
the kernels over blocks of ``_BLOCK`` windows.

Warps build a curve through a handful of knots with a natural cubic spline.
The knots sit at anchors fixed by L and the knot count, so one spline over a
[knots+2, b] value matrix fits the whole block:

* time warp: knots at evenly spaced interior anchors get Gaussian offsets
  (std sigma * L / knots); the curve through (1,1), (a_j, a_j+offset_j),
  (L,L) is evaluated on the integer grid, clipped to [1, L], and sort-
  repaired into a monotone time map tau.  A window whose map is not strictly
  monotone after repair redraws from its own stream, up to WARP_RETRIES
  times.  tau(1) = 1 and tau(L) = L always.  Each column is then linearly
  resampled at tau by one gather over the block that repeats ``np.interp``'s
  arithmetic: (X[j+1] - X[j]) * (tau - grid[j]) + X[j] with grid[j] = j + 1,
  and X[j] itself where tau falls on grid[j].
* magnitude warp: knot values ~ N(1, sigma^2) at knots+2 anchors spanning
  [1, L]; the spline is clipped to [0.5, 1.5] and multiplies every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DataError, NumericError
from .rng import Rng, gaussian_rows

# windows that each kernel handles at once.  It bounds the temporaries: 64
# windows of 30 x 30 draw 1.8 MB of raw jitter words and gather 0.46 MB per
# resampled copy.  Jittering 1,250 such windows took 129 / 109 / 103 / 104 /
# 118 ms at blocks of 16 / 32 / 64 / 128 / 256 (2-vCPU Xeon, numpy 2.4).
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


def _jitter_block(X: np.ndarray, rngs: list[Rng], sigma: float) -> np.ndarray:
    if sigma == 0.0:
        return X.copy()
    noise = gaussian_rows(rngs, X[0].size, 0.0, sigma)
    return X + noise.reshape(X.shape)


def _scale_block(X: np.ndarray, rngs: list[Rng], low: float,
                 high: float) -> np.ndarray:
    if low > high:
        raise DataError(f"scale range inverted: ({low}, {high})")
    if low == high == 1.0:
        return X.copy()
    factors = np.array([r.uniform(low, high) for r in rngs])
    return X * factors[:, None, None]


def _need_two_steps(X: np.ndarray, name: str) -> int:
    L = X.shape[1]
    if L < 2:
        raise DataError(f"{name} needs a window of at least 2 steps")
    return L


def _warp_grids(L: int, rngs: list[Rng], knots: int,
                sigma: float) -> np.ndarray:
    """[len(rngs), L]: the strictly monotone time map of each stream."""
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
        tau = np.clip(CubicSpline(xs, ys, bc_type="natural")(grid).T,
                      1.0, float(L))
        tau.sort(axis=1)
        ok = np.all(np.diff(tau, axis=1) > 0.0, axis=1)
        taus[todo[ok]] = tau[ok]
        todo = todo[~ok]
        if not todo.size:
            return taus
    raise NumericError(f"time warp failed to produce a strictly monotone map "
                       f"after {WARP_RETRIES} retries")


def _time_warp_block(X: np.ndarray, rngs: list[Rng], knots: int,
                     sigma: float) -> np.ndarray:
    L = _need_two_steps(X, "time warp")
    if sigma == 0.0:
        return X.copy()
    tau = _warp_grids(L, rngs, knots, sigma)
    # np.interp on the grid 1..L: tau in [j + 1, j + 2) reads X[j] and
    # X[j + 1]; tau == L reads X[L - 1], where the offset below is 0
    j = tau.astype(np.intp) - 1
    rows = np.arange(len(X))[:, None]
    lo = X[rows, j]
    hi = X[rows, np.minimum(j + 1, L - 1)]
    frac = (tau - (j + 1.0))[..., None]
    return np.where(frac == 0.0, lo, (hi - lo) * frac + lo)


def _magnitude_warp_block(X: np.ndarray, rngs: list[Rng], knots: int,
                          sigma: float) -> np.ndarray:
    L = _need_two_steps(X, "magnitude warp")
    if sigma == 0.0 or not rngs:  # n = 1 has no odd window
        return X.copy()
    anchors = np.linspace(1.0, float(L), knots + 2)
    values = gaussian_rows(rngs, knots + 2, 1.0, sigma)
    spline = CubicSpline(anchors, values.T, bc_type="natural")
    m = np.clip(spline(np.arange(1.0, L + 1.0)), 0.5, 1.5)
    return X * m.T[:, :, None]


def jitter(X: np.ndarray, rng: Rng, sigma: float) -> np.ndarray:
    """Additive iid Gaussian noise, drawn row-major."""
    return _jitter_block(X[None], [rng], sigma)[0]


def scale(X: np.ndarray, rng: Rng, low: float, high: float) -> np.ndarray:
    """One multiplicative factor ~ Uniform(low, high) for the whole window."""
    return _scale_block(X[None], [rng], low, high)[0]


def time_warp(X: np.ndarray, rng: Rng, knots: int = 4,
              sigma: float = 0.2) -> np.ndarray:
    """Resample each column at a smooth monotone warp of the time axis."""
    return _time_warp_block(X[None], [rng], knots, sigma)[0]


def magnitude_warp(X: np.ndarray, rng: Rng, knots: int = 4,
                   sigma: float = 0.2) -> np.ndarray:
    """Multiply all columns by a smooth positive curve around 1."""
    return _magnitude_warp_block(X[None], [rng], knots, sigma)[0]


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
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        idx = range(lo, hi)
        block = X[lo:hi]
        X_out[n + lo:n + hi] = _jitter_block(
            block, [base.substream(f"jitter/{i}") for i in idx],
            cfg.jitter_sigma)
        X_out[2 * n + lo:2 * n + hi] = _scale_block(
            block, [base.substream(f"scale/{i}") for i in idx],
            cfg.scale_low, cfg.scale_high)
        warped = X_out[3 * n + lo:3 * n + hi]
        even, odd = slice(0, None, 2), slice(1, None, 2)  # _BLOCK is even
        warped[even] = _time_warp_block(
            block[even], [base.substream(f"timewarp/{i}") for i in idx[even]],
            cfg.warp_knots, cfg.warp_sigma)
        warped[odd] = _magnitude_warp_block(
            block[odd], [base.substream(f"magwarp/{i}") for i in idx[odd]],
            cfg.warp_knots, cfg.warp_sigma)
    y_out = np.concatenate([y, y, y, y], axis=0)
    return X_out, y_out
