"""Reference forecasters trained under the same harness as the main model,
and ``MODELS``, the one table of model kinds, which ``checkpoint`` and
``training`` read from below.  Every kind's ``forward(params, X, train,
rng)`` returns its scaled next-day prediction alone, a ``Var`` of shape [B].

* persistence — predicts the window's most recent scaled target value; no
  parameters, no training loop.
* TCN (Bai, Kolter & Koltun, arXiv:1803.01271) — stacked causal dilated
  1-D convolutions with layer normalization, ReLU, dropout, and residual
  connections (1x1 projection when channel counts change); linear head on
  the last timestep.  Unlike the paper, a block has one convolution instead
  of two, and layer normalization instead of weight normalization.
* N-BEATS-lite (Oreshkin et al., arXiv:1905.10437) — univariate
  doubly-residual stacks on the scaled target history: per stack two ReLU
  fully-connected layers (the paper has four), then linear backcast (length
  L) and forecast (scalar) heads; stack input is the previous residual
  (input - backcast); the prediction is the sum of stack forecasts.

The trainable baselines train on the run config's ``training.loss``, like
the dual-stream model.  Weights initialize U(-1/sqrt(fan_in),
+1/sqrt(fan_in)) from the "init" stream in parameter-spec order
(``model.SpecModel``); biases start at zero and layer-norm gains at one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .model import DualStreamModel, ModelConfig, SpecModel, window_stack
from .tensor import Var, dropout


# ------------------------------------------------------------- persistence


@dataclass
class PersistenceConfig:
    """The persistence forecaster has no learnable parameters."""

    def validate(self) -> "PersistenceConfig":
        return self


class PersistenceModel(SpecModel):
    """yhat = last day's scaled target value in the window."""

    def __init__(self, target_index: int):
        if target_index < 0:
            raise DataError(
                "persistence needs the raw target among the selected features")
        self.target_index = target_index
        super().__init__([])

    def forward(self, params, X, train: bool = False, rng=None):
        return window_stack(params, X)[:, -1, self.target_index]


# --------------------------------------------------------------------- TCN


@dataclass
class TcnConfig:
    n_features: int = 30
    lookback: int = 30
    channels: tuple = (16, 32, 64)
    kernel: int = 3
    dilations: tuple = (1, 2, 4)
    dropout: float = 0.2

    def validate(self) -> "TcnConfig":
        if len(self.channels) != len(self.dilations):
            raise ConfigError("tcn.channels and tcn.dilations must have equal length")
        if self.kernel < 1 or not self.channels:
            raise ConfigError("tcn.kernel must be >= 1 and channels non-empty")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("tcn.dropout must be in [0, 1)")
        return self


def _layer_norm(x: Var, gain: Var, bias: Var, eps: float = 1e-5) -> Var:
    """Normalize over the trailing (channel) axis."""
    mu = T.mean(x, axis=-1, keepdims=True)
    cent = x - mu
    var = T.mean(cent * cent, axis=-1, keepdims=True)
    return cent / T.sqrt(var + eps) * gain + bias


def causal_conv(seq: Var, kernels: list, bias: Var, dilation: int) -> Var:
    """Dilated causal convolution: output at t sees inputs t, t-d, t-2d, ...

    ``kernels`` is one [C_in, C_out] matrix per tap, oldest tap first; the
    sequence is zero-padded on the left by (k-1)*dilation steps.
    """
    B, L, Cin = seq.shape
    k = len(kernels)
    pad = (k - 1) * dilation
    padded = T.concat([Var(np.zeros((B, pad, Cin), dtype=seq.value.dtype)), seq],
                      axis=1) if pad \
        else seq
    out = None
    for j, Wj in enumerate(kernels):
        term = T.matmul(padded[:, j * dilation:j * dilation + L, :], Wj)
        out = term if out is None else out + term
    return out + bias


class TcnModel(SpecModel):
    def __init__(self, cfg: TcnConfig):
        self.cfg = cfg.validate()
        super().__init__(self._param_specs())

    def _param_specs(self):
        cfg = self.cfg
        specs = []
        c_in = cfg.n_features
        for i, c_out in enumerate(cfg.channels):
            for j in range(cfg.kernel):
                specs.append((f"block.{i}.conv.W{j}", (c_in, c_out)))
            specs.append((f"block.{i}.conv.b", (c_out,)))
            specs.append((f"block.{i}.ln.g", (c_out,)))
            specs.append((f"block.{i}.ln.b", (c_out,)))
            if c_in != c_out:
                specs.append((f"block.{i}.res.W", (c_in, c_out)))
            c_in = c_out
        specs.append(("head.W", (c_in, 1)))
        specs.append(("head.b", (1,)))
        return specs

    def forward(self, params, X, train: bool = False, rng=None):
        cfg = self.cfg
        h = window_stack(params, X)
        if h.shape[2] != cfg.n_features:
            raise ConfigError(
                f"forward expects {cfg.n_features} features, got {h.shape[2]}")
        for i, dilation in enumerate(cfg.dilations):
            kernels = [params[f"block.{i}.conv.W{j}"] for j in range(cfg.kernel)]
            z = causal_conv(h, kernels, params[f"block.{i}.conv.b"], dilation)
            z = _layer_norm(z, params[f"block.{i}.ln.g"], params[f"block.{i}.ln.b"])
            z = T.relu(z)
            z = dropout(z, cfg.dropout, rng, train)
            res_key = f"block.{i}.res.W"
            res = T.matmul(h, params[res_key]) if res_key in params else h
            h = z + res
            T.check_finite(h, f"tcn_block_{i}")
        pred = T.linear(h[:, -1, :], params["head.W"], params["head.b"])[:, 0]
        return T.check_finite(pred, "tcn_head")


# ------------------------------------------------------------ N-BEATS-lite


@dataclass
class NBeatsConfig:
    lookback: int = 30
    stacks: int = 4
    fc_units: int = 64

    def validate(self) -> "NBeatsConfig":
        if self.stacks < 1 or self.fc_units < 1 or self.lookback < 1:
            raise ConfigError("nbeats.stacks, fc_units, lookback must be >= 1")
        return self


class NBeatsModel(SpecModel):
    """Univariate: consumes only the scaled target column of each window."""

    def __init__(self, cfg: NBeatsConfig, target_index: int):
        self.cfg = cfg.validate()
        if target_index < 0:
            raise DataError(
                "the univariate baseline needs the raw target among the "
                "selected features")
        self.target_index = target_index
        super().__init__(self._param_specs())

    def _param_specs(self):
        L, U = self.cfg.lookback, self.cfg.fc_units
        specs = []
        for s in range(self.cfg.stacks):
            specs += [(f"stack.{s}.fc1.W", (L, U)), (f"stack.{s}.fc1.b", (U,)),
                      (f"stack.{s}.fc2.W", (U, U)), (f"stack.{s}.fc2.b", (U,)),
                      (f"stack.{s}.back.W", (U, L)), (f"stack.{s}.back.b", (L,)),
                      (f"stack.{s}.fore.W", (U, 1)), (f"stack.{s}.fore.b", (1,))]
        return specs

    def forward(self, params, X, train: bool = False, rng=None):
        residual = window_stack(params, X)[:, :, self.target_index]       # [B, L]
        total = None
        for s in range(self.cfg.stacks):
            fc = {n: (params[f"stack.{s}.{n}.W"], params[f"stack.{s}.{n}.b"])
                  for n in ("fc1", "fc2", "back", "fore")}
            h = T.relu(T.linear(residual, *fc["fc1"]))
            h = T.relu(T.linear(h, *fc["fc2"]))
            backcast = T.linear(h, *fc["back"])
            forecast = T.linear(h, *fc["fore"])
            total = forecast if total is None else total + forecast
            residual = residual - backcast
            T.check_finite(residual, f"nbeats_stack_{s}")
        return T.check_finite(total[:, 0], "nbeats_head")


# The one list of model kinds: kind -> (config class, builder(cfg, dataset)).
MODELS = {
    "dual_stream": (ModelConfig, lambda cfg, ds: DualStreamModel(cfg)),
    "tcn": (TcnConfig, lambda cfg, ds: TcnModel(cfg)),
    "nbeats": (NBeatsConfig,
               lambda cfg, ds: NBeatsModel(cfg, ds.target_index())),
    "persistence": (PersistenceConfig,
                    lambda cfg, ds: PersistenceModel(ds.target_index())),
}
