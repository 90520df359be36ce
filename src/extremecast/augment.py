"""Offline training-set augmentation: jitter, scaling, time warp, magnitude
warp, and the deterministic 4x expansion that combines them.

All transforms act on scaled feature windows [L, F]; targets are never
touched.  Randomness comes from per-sample substreams of the "augment"
stream, so the expansion of sample i does not depend on batch layout or on
how many samples precede it.  Zero-strength settings short-circuit to exact
copies (documented identity, not a numerical accident).

Warps build a curve through a handful of knots with a natural cubic spline:

* time warp: knots at evenly spaced interior anchors get Gaussian offsets
  (std sigma * L / knots); the curve through (1,1), (a_j, a_j+offset_j),
  (L,L) is evaluated on the integer grid, clipped to [1, L], and sort-
  repaired into a monotone time map tau; each column is then linearly
  resampled at tau.  Draws failing strict monotonicity after repair are
  retried up to WARP_RETRIES times.  tau(1) = 1 and tau(L) = L always.
* magnitude warp: knot values ~ N(1, sigma^2) at knots+2 anchors spanning
  [1, L]; the spline is clipped to [0.5, 1.5] and multiplies every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DataError, NumericError
from .rng import Rng, gaussian_rows

# windows whose jitter noise is drawn together in one lockstep block.  It
# bounds the block's temporaries: 64 windows of 30 x 30 draw 1.8 MB of raw
# words.  Jittering 1,250 such windows took 129 / 109 / 103 / 104 / 118 ms at
# blocks of 16 / 32 / 64 / 128 / 256 (2-vCPU Xeon, numpy 2.4).
_JITTER_BLOCK = 64

WARP_RETRIES = 10


@dataclass
class AugmentConfig:
    enabled: bool = True
    jitter_sigma: float = 0.03
    scale_low: float = 0.9
    scale_high: float = 1.1
    warp_knots: int = 4
    warp_sigma: float = 0.2


def jitter(X: np.ndarray, rng: Rng, sigma: float) -> np.ndarray:
    """Additive iid Gaussian noise, drawn row-major."""
    if sigma == 0.0:
        return X.copy()
    return X + rng.gaussian_array(X.shape, 0.0, sigma)


def _jitter_windows(X: np.ndarray, base: Rng, sigma: float) -> np.ndarray:
    """``jitter(X[i], base.substream(f"jitter/{i}"), sigma)`` for every window i."""
    if sigma == 0.0:
        return X.copy()
    out = np.empty_like(X)
    for lo in range(0, X.shape[0], _JITTER_BLOCK):
        block = X[lo:lo + _JITTER_BLOCK]
        rngs = [base.substream(f"jitter/{i}") for i in range(lo, lo + len(block))]
        noise = gaussian_rows(rngs, block[0].size, 0.0, sigma)
        out[lo:lo + len(block)] = block + noise.reshape(block.shape)
    return out


def scale(X: np.ndarray, rng: Rng, low: float, high: float) -> np.ndarray:
    """One multiplicative factor ~ Uniform(low, high) for the whole window."""
    if low > high:
        raise DataError(f"scale range inverted: ({low}, {high})")
    if low == high == 1.0:
        return X.copy()
    return X * rng.uniform(low, high)


def _warp_grid(L: int, rng: Rng, knots: int, sigma: float) -> np.ndarray:
    grid = np.arange(1.0, L + 1.0)
    anchors = 1.0 + (np.arange(1, knots + 1) / (knots + 1)) * (L - 1.0)
    for _ in range(WARP_RETRIES + 1):
        offsets = rng.gaussian_array(knots, 0.0, sigma * L / knots)
        xs = np.concatenate([[1.0], anchors, [float(L)]])
        ys = np.concatenate([[1.0], anchors + offsets, [float(L)]])
        order = np.argsort(xs)
        spline = CubicSpline(xs[order], ys[order], bc_type="natural")
        tau = np.clip(spline(grid), 1.0, float(L))
        tau.sort()
        if np.all(np.diff(tau) > 0.0):
            return tau
    raise NumericError(f"time warp failed to produce a strictly monotone map "
                       f"after {WARP_RETRIES} retries")


def time_warp(X: np.ndarray, rng: Rng, knots: int = 4,
              sigma: float = 0.2) -> np.ndarray:
    """Resample each column at a smooth monotone warp of the time axis."""
    L = X.shape[0]
    if L < 2:
        raise DataError("time warp needs a window of at least 2 steps")
    if sigma == 0.0:
        return X.copy()
    tau = _warp_grid(L, rng, knots, sigma)
    grid = np.arange(1.0, L + 1.0)
    out = np.empty_like(X)
    for f in range(X.shape[1]):
        out[:, f] = np.interp(tau, grid, X[:, f])
    return out


def magnitude_warp(X: np.ndarray, rng: Rng, knots: int = 4,
                   sigma: float = 0.2) -> np.ndarray:
    """Multiply all columns by a smooth positive curve around 1."""
    L = X.shape[0]
    if L < 2:
        raise DataError("magnitude warp needs a window of at least 2 steps")
    if sigma == 0.0:
        return X.copy()
    anchors = np.linspace(1.0, float(L), knots + 2)
    values = rng.gaussian_array(knots + 2, 1.0, sigma)
    spline = CubicSpline(anchors, values, bc_type="natural")
    m = np.clip(spline(np.arange(1.0, L + 1.0)), 0.5, 1.5)
    return X * m[:, None]


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
    jittered = _jitter_windows(X, base, cfg.jitter_sigma)
    scaled = np.empty_like(X)
    warped = np.empty_like(X)
    for i in range(n):
        scaled[i] = scale(X[i], base.substream(f"scale/{i}"),
                          cfg.scale_low, cfg.scale_high)
        if i % 2 == 0:
            warped[i] = time_warp(X[i], base.substream(f"timewarp/{i}"),
                                  cfg.warp_knots, cfg.warp_sigma)
        else:
            warped[i] = magnitude_warp(X[i], base.substream(f"magwarp/{i}"),
                                       cfg.warp_knots, cfg.warp_sigma)
    X_out = np.concatenate([X, jittered, scaled, warped], axis=0)
    y_out = np.concatenate([y, y, y, y], axis=0)
    return X_out, y_out
