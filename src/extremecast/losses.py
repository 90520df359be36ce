"""Training losses.

The extreme-weighted loss re-weights squared errors by where each target sits
in the batch's own distribution: strictly above the upper ``TAIL_Q`` quantile
or strictly below the lower one earns the tail weight, everything else the
bulk weight:

    w_i = alpha_high  if t_i > quantile(t, 1 - TAIL_Q)
          alpha_low   if t_i < quantile(t, TAIL_Q)
          beta        otherwise
    L = (1/B) * sum_i w_i * (y_i - t_i)^2

``TAIL_Q`` (5%) is ``metrics.TAIL_Q``, the same tail share every report
scores.  Quantiles use the same linear-interpolation rule as the robust
scaler (numpy default).  Weights depend on targets only, so no gradient flows
through them.  With alpha_high == alpha_low == beta the loss is exactly
beta * MSE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .metrics import TAIL_Q
from .tensor import Var


@dataclass
class LossConfig:
    alpha_high: float = 2.0
    alpha_low: float = 2.0
    beta: float = 0.5

    def validate(self) -> "LossConfig":
        for name in ("alpha_high", "alpha_low"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"training.loss.{name} must be finite and >= 0")
        if not 0.0 < self.beta < math.inf:
            raise ConfigError("training.loss.beta must be finite and > 0")
        return self


def extreme_weights(target: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Per-sample weights from the batch's own target quantiles."""
    t = np.asarray(target, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] < 2:
        raise ValueError("extreme loss needs a 1-D batch of at least 2 targets")
    tau_hi = np.quantile(t, 1.0 - TAIL_Q)
    tau_lo = np.quantile(t, TAIL_Q)
    w = np.full(t.shape, cfg.beta, dtype=np.float64)
    w[t > tau_hi] = cfg.alpha_high
    w[t < tau_lo] = cfg.alpha_low
    return w


def compute_loss(pred: Var, target: np.ndarray, cfg: LossConfig) -> Var:
    """Weighted MSE with batch-quantile tail emphasis."""
    err = pred - Var(np.asarray(target, dtype=np.float64))
    return T.mean(Var(extreme_weights(target, cfg)) * err * err)
