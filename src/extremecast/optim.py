"""AdamW with decoupled weight decay, cosine warm-restart schedule, clipping.

Update per parameter entry (bias-corrected first/second moments, decay applied
directly to the weights, not through the gradient):

    m <- b1*m + (1-b1)*g        mhat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2      vhat = v / (1 - b2^t)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * wd * theta

with the published constants b1 = 0.9, b2 = 0.999 and eps = 1e-8 (Loshchilov
& Hutter, arXiv:1711.05101).  The learning rate follows SGDR
(arXiv:1608.03983): cycle i spans t0 * 2**i epochs, and each cycle restarts
at lr_max and anneals to 0 along a half cosine.

Parameters whose names are in ``no_decay`` (biases and the transition logits)
skip the decay term.  Gradient clipping rescales the whole gradient set by
max_norm / norm when the global L2 norm exceeds max_norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
T_MULT = 2        # cycle length multiplier after each restart


@dataclass
class OptimConfig:
    lr_max: float = 5e-3
    weight_decay: float = 1e-4
    clip_norm: float = 5.0
    t0: int = 10      # epochs in the first cosine cycle

    def validate(self) -> "OptimConfig":
        for name in ("lr_max", "clip_norm"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"training.optim.{name} must be finite and > 0")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("training.optim.weight_decay must be finite and >= 0")
        if self.t0 < 1:
            raise ConfigError("training.optim.t0 must be >= 1")
        return self


def cosine_warm_restart_lr(epoch: int, cfg: OptimConfig) -> float:
    """Learning rate for an integer epoch index (0-based).

    Cycle i spans t0 * T_MULT**i epochs; each cycle restarts at lr_max and
    anneals to 0 along a half cosine.
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    t_i = cfg.t0
    start = 0
    while epoch >= start + t_i:
        start += t_i
        t_i *= T_MULT
    t_cur = epoch - start
    return 0.5 * cfg.lr_max * (1.0 + math.cos(math.pi * t_cur / t_i))


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so the global L2 norm is <= max_norm.

    Returns the pre-clip norm.  No-op when the norm is already within bounds.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class AdamWState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               state: AdamWState, cfg: OptimConfig, lr: float,
               no_decay: frozenset | set = frozenset()) -> None:
    """One AdamW step, updating ``params`` in place."""
    state.t += 1
    t = state.t
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        # decay first so it scales theta_t, independent of this step's gradient
        if cfg.weight_decay != 0.0 and name not in no_decay:
            p -= lr * cfg.weight_decay * p
        p -= lr * mhat / (np.sqrt(vhat) + EPS)
