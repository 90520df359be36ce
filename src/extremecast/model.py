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

Fusion: gamma = sigmoid(W [o_m, o_a] + b) mixes the regime and anomaly
stream outputs o_m and o_a elementwise; a final linear head maps the fused
vector to the scalar next-day prediction.

Layouts: the input windows, the embedding, attention, amplification, the
stream readouts, fusion and the prediction are batch-major ([B, L, F] and
[B, F]).  Each recurrent stack runs batch-minor, [L, F, B], from end to end:
``forward`` transposes the embedding once into the LSTM stack and the
amplified attention output once into the GRU stack (views), takes the
emission softmax over axis 1 of [L, N, B] and the readouts as [F, B] blocks
(``H[L-1]``, ``G[L-1, :HG]``, ``G[0, HG:]``), and transposes each stream's
readout vector back before its head.  The introspection dict is batch-major.

A bidirectional recurrent layer is one ``tensor.bidirectional`` node over
the layer input and its parameters: it projects all timesteps of each
direction with ``linear_t``'s math, frees that projection once the direction
is scanned, and writes both directions' hidden states into one [L, 2H, B]
array.  Every other affine map is one node: ``tensor.linear`` (x W + b)
batch-major, ``tensor.linear_t`` (Wᵀ x + b) batch-minor.  Only q_L reaches
the tape; the earlier q_t are computed in plain numpy for the introspection
dict.

Dropout (train mode only) applies after the embedding activation and inside
the anomaly MLP, in that order, consuming the dropout stream deterministically.
Gate layouts: LSTM gates order i, f, o, g (the three sigmoids first so they
share one activation); GRU gates order r, z, n with separate input/hidden
biases so the reset gate multiplies only the hidden half of the candidate.
All weights init Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) drawn in
parameter-name order from the "init" stream; biases and the transition
logits start at zero (uniform transition rows).

Precision: ``predict`` and the training step wrap the float64 parameters at
``TAPE_DTYPE`` (float32), and every model kind's ``forward`` casts its window
stack to its parameters' dtype (``window_stack``), so the forward and the
backward run in float32: about twice as fast, on arrays half the size.  What
accumulates across steps or is compared stays float64: the parameters, the
AdamW state, the loss weights and the loss (float32 predictions meet float64
targets there), the gradients handed to clipping and AdamW, metrics and
checkpoints.  A window's float32 prediction depends on its batch at about
1e-8.  ``wrap_params`` defaults to float64, which finite-difference checks
and the single-window internals of ``explain attention|states`` use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .rng import Rng
from .tensor import Var, check_finite, dropout

# The dtype ``predict`` and the training step run the tape in.
TAPE_DTYPE = np.float32


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
        for name in ("n_features", "lookback", "lstm_hidden", "gru_hidden",
                     "n_heads", "stream_dim", "n_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")
        if self.n_states < 2:
            raise ConfigError("model.n_states must be >= 2")
        if self.embed_dim < 2:
            raise ConfigError("model.embed_dim must be >= 2 (anomaly MLP width D/2)")
        if self.embed_dim % self.n_heads != 0:
            raise ConfigError("model.embed_dim must be divisible by model.n_heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("model.dropout must be in [0, 1)")
        if not 0.0 <= self.amp_gain < math.inf:
            raise ConfigError("model.amp_gain must be finite and >= 0")
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


# Leaf names (after the last dot) of the parameters that skip weight decay
# and start constant: biases, layer-norm gains and the transition logits.
_NO_DECAY_LEAVES = frozenset({"b", "b1", "b2", "bx", "bh", "g", "logits"})


class SpecModel:
    """Parameters of a model kind, from its (name, shape) list ``_specs``.

    ``no_decay`` holds the names whose leaf is in ``_NO_DECAY_LEAVES``; those
    start at one for a layer-norm gain ``g`` and at zero otherwise.  Every
    other array ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)) with fan_in = shape[0],
    drawn in spec order, row-major within each array, so initial parameters
    are a pure function of (seed, specs).
    """

    def __init__(self, specs: list):
        self._specs = specs
        self.no_decay = frozenset(n for n, _ in specs
                                  if n.rsplit(".", 1)[-1] in _NO_DECAY_LEAVES)

    def init_params(self, rng: Rng) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for name, shape in self._specs:
            if name in self.no_decay:
                params[name] = (np.ones if name.endswith(".g") else np.zeros)(shape)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                params[name] = rng.uniform_array(shape, -bound, bound)
        return params


def _directions(p: dict, *names: str) -> tuple:
    return tuple([p[f"{d}.{n}"] for n in names] for d in ("f", "b"))


def bilstm_layer(seq: Var, p: dict) -> Var:
    """One bidirectional layer on a batch-minor stack: [L, n_in, B] ->
    [L, 2H, B], forward half first, as one ``tensor.bidirectional`` node.
    Gate layout along the 4H axis: i, f, o, g."""
    return T.bidirectional(seq, *_directions(p, "Wx", "b", "Wh"))


def bigru_layer(seq: Var, p: dict) -> Var:
    """One bidirectional GRU layer, laid out like ``bilstm_layer``."""
    return T.bidirectional(seq, *_directions(p, "Wx", "bx", "Wh", "bh"))


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
    scores = T.matmul(q, T.swapaxes(k, 2, 3)) * (1.0 / math.sqrt(dh))
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
    amplification, fusion gate).
    """
    Xv = window_stack(params, X)
    B, L, F = Xv.shape
    if F != cfg.n_features:
        raise ConfigError(f"forward expects {cfg.n_features} features, got {F}")
    if train and cfg.dropout > 0.0 and dropout_rng is None:
        raise ConfigError("train-mode forward with dropout needs a dropout stream")
    HG, N = cfg.gru_hidden, cfg.n_states

    E = T.sigmoid(T.linear(Xv, params["emb.W"], params["emb.b"]))
    E = dropout(E, cfg.dropout, dropout_rng, train)
    check_finite(E, "embedding")

    # regime stream, batch-minor: [L, features, B] from the embedding to
    # the readout
    H = _batch_minor(E)
    for layer in range(cfg.n_layers):
        H = bilstm_layer(H, _layer_view(params, f"lstm.{layer}."))
    check_finite(H, "bilstm")                     # [L, 2HL, B]
    P = T.softmax(T.linear_t(H, params["em.W"], params["em.b"]), axis=1)
    trans = T.softmax(params["trans.logits"], axis=-1)
    trans_t = T.swapaxes(trans, 0, 1)
    p0 = np.full((N, B), 1.0 / N, dtype=P.value.dtype)
    # q_t = T^T p_{t-1}; the readout takes only q_L, the rest feed the
    # introspection dict
    Q = trans_t.value @ np.concatenate([p0[None], P.value[:L - 1]])
    check_finite(Q, "state_track")                # [L, N, B]
    q_last = T.matmul(trans_t, Var(p0) if L == 1 else P[L - 2])
    o_m = T.linear(T.swapaxes(T.concat([H[L - 1], q_last], axis=0), 0, 1),
                   params["head_m.W"], params["head_m.b"])

    # anomaly stream: batch-major through attention and amplification, then
    # batch-minor through the GRU stack
    Z, attn = multi_head_attention(E, params, cfg.n_heads)
    check_finite(Z, "attention")
    hidden = T.tanh(T.linear(Z, params["amp.W1"], params["amp.b1"]))
    hidden = dropout(hidden, cfg.dropout, dropout_rng, train)
    logit = T.linear(hidden, params["amp.W2"], params["amp.b2"])  # [B, L, 1]
    alpha = 1.0 + cfg.amp_gain * T.sigmoid(logit)
    Zt = Z * alpha
    check_finite(Zt, "amplification")
    G = _batch_minor(Zt)
    for layer in range(cfg.n_layers):
        G = bigru_layer(G, _layer_view(params, f"gru.{layer}."))
    check_finite(G, "bigru")                      # [L, 2HG, B]
    h_fwd_last = G[L - 1, :HG]
    h_bwd_first = G[0, HG:]
    o_a = T.linear(T.swapaxes(T.concat([h_fwd_last, h_bwd_first], axis=0), 0, 1),
                   params["head_a.W"], params["head_a.b"])

    # fusion
    fused, gamma = fuse_outputs(o_m, o_a, params["fuse.W"], params["fuse.b"])
    pred = T.linear(fused, params["out.W"], params["out.b"])[:, 0]
    check_finite(pred, "head")

    intro = {
        "p": _batch_major(P.value), "q": _batch_major(Q),
        "transition": trans.value.copy(),
        "attention": attn.value.copy(), "alpha": alpha.value[:, :, 0].copy(),
        "gamma": gamma.value.copy(),
    }
    return pred, intro


def _batch_minor(x: Var) -> Var:
    """A [B, L, F] stack as a [L, F, B] view."""
    return T.swapaxes(T.swapaxes(x, 0, 1), 1, 2)


def _batch_major(a: np.ndarray) -> np.ndarray:
    """A [L, N, B] array as a fresh [B, L, N] one."""
    return np.ascontiguousarray(a.transpose(2, 0, 1))


def fuse_outputs(o_m: Var, o_a: Var, W: Var, b: Var) -> tuple[Var, Var]:
    """Fusion gate: gamma = sigmoid(W [o_m, o_a] + b) mixes the two stream
    outputs elementwise; returns (fused, gamma)."""
    gamma = T.sigmoid(T.linear(T.concat([o_m, o_a], axis=1), W, b))
    return gamma * o_a + (1.0 - gamma) * o_m, gamma


class DualStreamModel(SpecModel):
    """Trainer-facing wrapper: params container + forward."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg.validate()
        super().__init__(_param_specs(cfg))

    def forward(self, params: dict[str, Var], X, train: bool = False,
                rng: Rng | None = None) -> tuple[Var, dict]:
        return forward(params, X, self.cfg, train, rng)


def wrap_params(params: dict[str, np.ndarray], requires_grad: bool = True,
                dtype=np.float64) -> dict[str, Var]:
    return {k: Var(np.asarray(v, dtype=dtype), requires_grad=requires_grad)
            for k, v in params.items()}


def window_stack(params: dict[str, Var], X) -> Var:
    """The windows ``X`` [B, L, F] as a tape input at the parameters' dtype
    (float64 for a model without parameters); a ``Var`` passes as it is."""
    if isinstance(X, Var):
        return X
    first = next(iter(params.values()), None)
    dtype = np.float64 if first is None else T.as_var(first).value.dtype
    return Var(np.asarray(X, dtype=dtype))


def predict(model, params: dict[str, np.ndarray], X: np.ndarray,
            batch_size: int = 256) -> np.ndarray:
    """Eval-mode scaled predictions at ``TAPE_DTYPE``, batched, no graph
    recording, returned as float64."""
    wrapped = wrap_params(params, requires_grad=False, dtype=TAPE_DTYPE)
    out = np.empty(X.shape[0])
    with T.no_grad():
        for s in range(0, X.shape[0], batch_size):
            pred, _ = model.forward(wrapped, X[s:s + batch_size], train=False)
            out[s:s + batch_size] = pred.value
    return out


def raw_predictions(model, params: dict[str, np.ndarray], dataset,
                    partition: str, X: np.ndarray | None = None):
    """(observed, predicted) raw-unit targets of a partition's windows, or of
    ``X`` forecasting the same target days in their place."""
    part = dataset.part(partition)
    yhat = dataset.invert_target(predict(model, params,
                                         part.X if X is None else X))
    return dataset.target_raw[part.target_rows], yhat
