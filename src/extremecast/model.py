"""Dual-stream forecaster: a regime stream and an anomaly stream fused by a
learned gate.

Regime stream: shared sigmoid embedding -> two-layer bidirectional LSTM ->
per-timestep softmax emission over N latent regimes -> one multiplication by
a learned row-stochastic transition matrix (q_t = T^T p_{t-1}, with a uniform
p_0) -> linear readout from [h_L, q_L].

Anomaly stream: the same embedding -> unmasked multi-head self-attention
(no positional encoding; the features already carry calendar information) ->
per-timestep scalar amplification alpha_t = 1 + gain * sigmoid(MLP(z_t))
(tanh hidden layer, width D/2) -> two-layer bidirectional GRU -> linear
readout from [h_L_forward, h_1_backward].

Fusion: gamma = sigmoid(W [o_regime, o_anomaly] + b) gates the two stream
outputs elementwise; a final linear head maps the fused vector to the scalar
next-day prediction.

Each direction of a recurrent layer projects all timesteps with one matmul
and runs as one ``tensor.recurrence`` tape node.  Only q_L reaches the tape;
the earlier q_t are computed in plain numpy for the introspection dict.

Dropout (train mode only) applies after the embedding activation and inside
the anomaly MLP, in that order, consuming the dropout stream deterministically.
Gate layouts: LSTM gates order i, f, o, g (the three sigmoids first so they
share one activation); GRU gates order r, z, n with separate input/hidden
biases so the reset gate multiplies only the hidden half of the candidate.
All weights init Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) drawn in
parameter-name order from the "init" stream; biases and the transition
logits start at zero (uniform transition rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import Rng
from .tensor import Var, check_finite, dropout


@dataclass
class ModelConfig:
    n_features: int = 30
    lookback: int = 30
    embed_dim: int = 32
    lstm_hidden: int = 32
    gru_hidden: int = 32
    n_states: int = 9
    n_heads: int = 4
    stream_dim: int = 32
    dropout: float = 0.2
    amp_gain: float = 1.0
    n_layers: int = 2

    def validate(self) -> "ModelConfig":
        for name in ("n_features", "lookback", "embed_dim", "lstm_hidden",
                     "gru_hidden", "n_states", "n_heads", "stream_dim", "n_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")
        if self.n_states < 2:
            raise ConfigError("model.n_states must be >= 2")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError("model.embed_dim must be divisible by model.n_heads")
        if self.embed_dim < 2:
            raise ConfigError("model.embed_dim must be >= 2 (anomaly MLP width D/2)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("model.dropout must be in [0, 1)")
        if self.amp_gain < 0.0:
            raise ConfigError("model.amp_gain must be >= 0")
        return self


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple]]:
    D, HL, HG = cfg.embed_dim, cfg.lstm_hidden, cfg.gru_hidden
    N, DS = cfg.n_states, cfg.stream_dim
    specs: list[tuple[str, tuple]] = [("emb.W", (cfg.n_features, D)), ("emb.b", (D,))]
    for layer in range(cfg.n_layers):
        n_in = D if layer == 0 else 2 * HL
        for d in ("f", "b"):
            specs += [(f"lstm.{layer}.{d}.Wx", (n_in, 4 * HL)),
                      (f"lstm.{layer}.{d}.Wh", (HL, 4 * HL)),
                      (f"lstm.{layer}.{d}.b", (4 * HL,))]
    specs += [("em.W", (2 * HL, N)), ("em.b", (N,)), ("trans.logits", (N, N)),
              ("head_m.W", (2 * HL + N, DS)), ("head_m.b", (DS,)),
              ("attn.Wq", (D, D)), ("attn.Wk", (D, D)),
              ("attn.Wv", (D, D)), ("attn.Wo", (D, D)),
              ("amp.W1", (D, D // 2)), ("amp.b1", (D // 2,)),
              ("amp.W2", (D // 2, 1)), ("amp.b2", (1,))]
    for layer in range(cfg.n_layers):
        n_in = D if layer == 0 else 2 * HG
        for d in ("f", "b"):
            specs += [(f"gru.{layer}.{d}.Wx", (n_in, 3 * HG)),
                      (f"gru.{layer}.{d}.Wh", (HG, 3 * HG)),
                      (f"gru.{layer}.{d}.bx", (3 * HG,)),
                      (f"gru.{layer}.{d}.bh", (3 * HG,))]
    specs += [("head_a.W", (2 * HG, DS)), ("head_a.b", (DS,)),
              ("fuse.W", (2 * DS, DS)), ("fuse.b", (DS,)),
              ("out.W", (DS, 1)), ("out.b", (1,))]
    return specs


def init_params(cfg: ModelConfig, rng: Rng) -> dict[str, np.ndarray]:
    """Weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)); biases/logits zero.

    Draw order is the parameter-spec order, row-major within each array, so
    initialisation is a pure function of (seed, config).
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_specs(cfg):
        if _is_no_decay_name(name):
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform_array(shape, -bound, bound)
    return params


def _is_no_decay_name(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return leaf in ("b", "b1", "b2", "bx", "bh", "logits")


def no_decay_names(cfg: ModelConfig) -> frozenset:
    return frozenset(n for n, _ in _param_specs(cfg) if _is_no_decay_name(n))


def bilstm_layer(seq: Var, p: dict) -> Var:
    """One bidirectional layer: [B, L, n_in] -> [B, L, 2H], forward half first.

    Each direction projects all timesteps with one matmul and runs its
    recurrence as one tape node.  Gate layout along the 4H axis: i, f, o, g.
    """
    return T.concat([T.recurrence("lstm", T.matmul(seq, p[f"{d}.Wx"]) + p[f"{d}.b"],
                                  p[f"{d}.Wh"], reverse=d == "b")
                     for d in ("f", "b")], axis=2)


def bigru_layer(seq: Var, p: dict) -> Var:
    """One bidirectional GRU layer, laid out like ``bilstm_layer``."""
    return T.concat([T.recurrence("gru", T.matmul(seq, p[f"{d}.Wx"]) + p[f"{d}.bx"],
                                  p[f"{d}.Wh"], p[f"{d}.bh"], reverse=d == "b")
                     for d in ("f", "b")], axis=2)


def _layer_view(params: dict, prefix: str) -> dict:
    plen = len(prefix)
    return {k[plen:]: v for k, v in params.items() if k.startswith(prefix)}


def multi_head_attention(E: Var, params: dict, n_heads: int):
    """Unmasked scaled dot-product self-attention; returns (Z, row-stochastic
    attention weights [B, heads, L, L])."""
    B, L, D = E.shape
    dh = D // n_heads

    def split_heads(x: Var) -> Var:
        return T.swapaxes(T.reshape(x, (B, L, n_heads, dh)), 1, 2)

    q = split_heads(T.matmul(E, params["attn.Wq"]))
    k = split_heads(T.matmul(E, params["attn.Wk"]))
    v = split_heads(T.matmul(E, params["attn.Wv"]))
    scores = T.matmul(q, T.swapaxes(k, 2, 3)) * (1.0 / np.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    ctx = T.matmul(attn, v)                       # [B, heads, L, dh]
    merged = T.reshape(T.swapaxes(ctx, 1, 2), (B, L, D))
    return T.matmul(merged, params["attn.Wo"]), attn


def forward(params: dict[str, Var], X, cfg: ModelConfig, train: bool = False,
            dropout_rng: Rng | None = None) -> tuple[Var, dict]:
    """Batch forward pass.

    X: [B, L, F] scaled feature windows (Var or ndarray).  Returns the
    scaled next-day prediction [B] and an introspection dict of detached
    arrays (regime probabilities p and q, transition matrix, attention,
    amplification, fusion gate, stream outputs).
    """
    Xv = X if isinstance(X, Var) else Var(X)
    B, L, F = Xv.shape
    if F != cfg.n_features:
        raise ConfigError(f"forward expects {cfg.n_features} features, got {F}")
    if train and cfg.dropout > 0.0 and dropout_rng is None:
        raise ConfigError("train-mode forward with dropout needs a dropout stream")
    HG, N = cfg.gru_hidden, cfg.n_states

    E = T.sigmoid(T.matmul(Xv, params["emb.W"]) + params["emb.b"])
    E = dropout(E, cfg.dropout, dropout_rng, train)
    check_finite(E, "embedding")

    # regime stream
    H = E
    for layer in range(cfg.n_layers):
        H = bilstm_layer(H, _layer_view(params, f"lstm.{layer}."))
    check_finite(H, "bilstm")                     # [B, L, 2HL]
    P = T.softmax(T.matmul(H, params["em.W"]) + params["em.b"], axis=-1)
    trans = T.softmax(params["trans.logits"], axis=-1)
    p0 = np.full((B, N), 1.0 / N)
    # q_t = T^T p_{t-1}; the readout takes only q_L, the rest feed the
    # introspection dict
    p_prev = [p0] + [P.value[:, t] for t in range(L - 1)]
    Q = np.stack([p @ trans.value for p in p_prev], axis=1)     # [B, L, N]
    check_finite(Q, "state_track")
    q_last = T.matmul(Var(p0) if L == 1 else P[:, L - 2, :], trans)
    o_m = T.matmul(T.concat([H[:, L - 1, :], q_last], axis=1),
                   params["head_m.W"]) + params["head_m.b"]

    # anomaly stream
    Z, attn = multi_head_attention(E, params, cfg.n_heads)
    check_finite(Z, "attention")
    hidden = T.tanh(T.matmul(Z, params["amp.W1"]) + params["amp.b1"])
    hidden = dropout(hidden, cfg.dropout, dropout_rng, train)
    logit = T.matmul(hidden, params["amp.W2"]) + params["amp.b2"]  # [B, L, 1]
    alpha = 1.0 + cfg.amp_gain * T.sigmoid(logit)
    Zt = Z * alpha
    check_finite(Zt, "amplification")
    G = Zt
    for layer in range(cfg.n_layers):
        G = bigru_layer(G, _layer_view(params, f"gru.{layer}."))
    check_finite(G, "bigru")                      # [B, L, 2HG]
    h_fwd_last = G[:, L - 1, :HG]
    h_bwd_first = G[:, 0, HG:]
    o_a = T.matmul(T.concat([h_fwd_last, h_bwd_first], axis=1),
                   params["head_a.W"]) + params["head_a.b"]

    # fusion
    fused, gamma = fuse_outputs(o_m, o_a, params["fuse.W"], params["fuse.b"])
    pred = (T.matmul(fused, params["out.W"]) + params["out.b"])[:, 0]
    check_finite(pred, "head")

    intro = {
        "p": P.value.copy(), "q": Q, "transition": trans.value.copy(),
        "attention": attn.value.copy(), "alpha": alpha.value[:, :, 0].copy(),
        "gamma": gamma.value.copy(), "o_regime": o_m.value.copy(),
        "o_anomaly": o_a.value.copy(),
    }
    return pred, intro


def fuse_outputs(o_m: Var, o_a: Var, W: Var, b: Var) -> tuple[Var, Var]:
    """Fusion gate: gamma = sigmoid(W [o_m, o_a] + b) mixes the two stream
    outputs elementwise; returns (fused, gamma)."""
    gamma = T.sigmoid(T.matmul(T.concat([o_m, o_a], axis=1), W) + b)
    return gamma * o_a + (1.0 - gamma) * o_m, gamma


class DualStreamModel:
    """Trainer-facing wrapper: params container + forward."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg.validate()
        self.no_decay = no_decay_names(cfg)

    def init_params(self, rng: Rng) -> dict[str, np.ndarray]:
        return init_params(self.cfg, rng)

    def forward(self, params: dict[str, Var], X, train: bool = False,
                rng: Rng | None = None) -> tuple[Var, dict]:
        return forward(params, X, self.cfg, train, rng)


def wrap_params(params: dict[str, np.ndarray], requires_grad: bool = True) -> dict[str, Var]:
    return {k: Var(v, requires_grad=requires_grad) for k, v in params.items()}


def predict(model, params: dict[str, np.ndarray], X: np.ndarray,
            batch_size: int = 256) -> np.ndarray:
    """Eval-mode scaled predictions, batched, no graph recording."""
    wrapped = wrap_params(params, requires_grad=False)
    out = np.empty(X.shape[0])
    with T.no_grad():
        for s in range(0, X.shape[0], batch_size):
            pred, _ = model.forward(wrapped, X[s:s + batch_size], train=False)
            out[s:s + batch_size] = pred.value
    return out
