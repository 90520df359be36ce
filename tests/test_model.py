"""Architectural invariants of the dual-stream forecaster.

Structure checks (probability simplexes, gate bounds, fusion betweenness),
symmetry properties (time reversal with tied weights, attention permutation
equivariance), deterministic dropout accounting, and eval-mode bitwise
reproducibility.
"""

import numpy as np
import numpy.testing as npt
import pytest

from extremecast import model as model_module
from extremecast import tensor as T
from extremecast.errors import ConfigError
from extremecast.baselines import NBeatsConfig, NBeatsModel, TcnConfig, TcnModel
from extremecast.losses import LossConfig, compute_loss
from extremecast.model import (TAPE_DTYPE, DualStreamModel, ModelConfig,
                               bigru_layer, bilstm_layer, fuse_outputs,
                               multi_head_attention, predict, wrap_params)
from extremecast.rng import Rng
from extremecast.tensor import Var


def tiny_cfg(**over):
    base = dict(n_features=5, lookback=7, embed_dim=8, lstm_hidden=4,
                gru_hidden=4, n_states=3, n_heads=2, stream_dim=8,
                dropout=0.0, amp_gain=2.0)
    base.update(over)
    return ModelConfig(**base)


def make_batch(cfg, B=3, seed=11):
    return np.random.default_rng(seed).normal(size=(B, cfg.lookback,
                                                    cfg.n_features))


def test_config_validation():
    with pytest.raises(ConfigError, match="n_heads"):
        tiny_cfg(embed_dim=9, n_heads=2).validate()
    with pytest.raises(ConfigError, match="dropout"):
        tiny_cfg(dropout=1.0).validate()
    with pytest.raises(ConfigError, match="n_states"):
        tiny_cfg(n_states=0).validate()
    with pytest.raises(ConfigError, match="amp_gain"):
        tiny_cfg(amp_gain=-0.1).validate()


def test_init_reproducible_and_bounded():
    model = DualStreamModel(tiny_cfg())
    p1 = model.init_params(Rng(5, "init"))
    p2 = model.init_params(Rng(5, "init"))
    assert p1.keys() == p2.keys()
    for name in p1:
        npt.assert_array_equal(p1[name], p2[name])
    # biases and transition logits start at zero; weights within init bounds
    for name in model.no_decay:
        npt.assert_array_equal(p1[name], np.zeros_like(p1[name]))
    for name, arr in p1.items():
        if name not in model.no_decay:
            bound = 1.0 / np.sqrt(arr.shape[0])
            assert np.all(np.abs(arr) < bound)
    # a different seed moves every weight matrix
    p3 = model.init_params(Rng(6, "init"))
    assert any(not np.array_equal(p1[k], p3[k]) for k in p1)


def test_forward_shapes_and_simplex_invariants():
    cfg = tiny_cfg()
    model = DualStreamModel(cfg)
    params = wrap_params(model.init_params(Rng(1, "init")))
    X = make_batch(cfg)
    B, L, N = X.shape[0], cfg.lookback, cfg.n_states
    pred, intro = model.forward(params, X)

    assert pred.shape == (B,)
    assert intro["p"].shape == (B, L, N)
    assert intro["q"].shape == (B, L, N)
    assert intro["transition"].shape == (N, N)
    assert intro["attention"].shape == (B, cfg.n_heads, L, L)
    assert intro["alpha"].shape == (B, L)
    assert intro["gamma"].shape == (B, cfg.stream_dim)

    npt.assert_allclose(intro["p"].sum(axis=-1), np.ones((B, L)), atol=1e-12)
    npt.assert_allclose(intro["q"].sum(axis=-1), np.ones((B, L)), atol=1e-12)
    npt.assert_allclose(intro["transition"].sum(axis=-1), np.ones(N), atol=1e-12)
    npt.assert_allclose(intro["attention"].sum(axis=-1),
                        np.ones((B, cfg.n_heads, L)), atol=1e-12)
    assert np.all(intro["p"] >= 0) and np.all(intro["q"] >= 0)
    assert np.all(intro["attention"] >= 0)
    # amplification stays in (1, 1 + gain); fusion gate in (0, 1)
    assert np.all(intro["alpha"] > 1.0) and np.all(intro["alpha"] < 1.0 + cfg.amp_gain)
    assert np.all(intro["gamma"] > 0.0) and np.all(intro["gamma"] < 1.0)


def test_zero_logits_give_uniform_transition_and_q1():
    cfg = tiny_cfg()
    model = DualStreamModel(cfg)
    params = wrap_params(model.init_params(Rng(2, "init")))
    _, intro = model.forward(params, make_batch(cfg))
    N = cfg.n_states
    # softmax of all-zero logits is exactly uniform, and q_1 = p_0 T keeps it
    npt.assert_array_equal(intro["transition"], np.full((N, N), 1.0 / N))
    npt.assert_allclose(intro["q"][:, 0, :], np.full((3, N), 1.0 / N), atol=1e-15)


def test_state_track_uses_previous_step_probabilities():
    cfg = tiny_cfg()
    model = DualStreamModel(cfg)
    raw = model.init_params(Rng(3, "init"))
    # make the transition non-uniform so the recurrence is visible
    raw["trans.logits"] = np.arange(cfg.n_states ** 2, dtype=float).reshape(
        cfg.n_states, cfg.n_states)
    params = wrap_params(raw)
    _, intro = model.forward(params, make_batch(cfg))
    trans = intro["transition"]
    for t in range(1, cfg.lookback):
        npt.assert_allclose(intro["q"][:, t, :], intro["p"][:, t - 1, :] @ trans,
                            atol=1e-12)


def test_fusion_betweenness():
    rng = Rng(4, "init")
    o_m = Var(rng.gaussian_array((6, 8)))
    o_a = Var(rng.gaussian_array((6, 8)))
    W = Var(rng.gaussian_array((16, 8)))
    b = Var(np.zeros(8))
    fused, gamma = fuse_outputs(o_m, o_a, W, b)
    lo = np.minimum(o_m.value, o_a.value)
    hi = np.maximum(o_m.value, o_a.value)
    assert np.all(fused.value >= lo - 1e-12) and np.all(fused.value <= hi + 1e-12)
    npt.assert_allclose(fused.value,
                        gamma.value * o_a.value + (1 - gamma.value) * o_m.value,
                        atol=1e-15)


def test_fusion_saturated_gate_selects_one_stream():
    o_m = Var(np.full((2, 4), -1.0))
    o_a = Var(np.full((2, 4), 3.0))
    W = Var(np.zeros((8, 4)))
    fused_a, _ = fuse_outputs(o_m, o_a, W, Var(np.full(4, 60.0)))
    fused_m, _ = fuse_outputs(o_m, o_a, W, Var(np.full(4, -60.0)))
    npt.assert_allclose(fused_a.value, o_a.value, atol=1e-12)
    npt.assert_allclose(fused_m.value, o_m.value, atol=1e-12)


def _tied_bidi_params(rng, n_in, H, kind):
    if kind == "lstm":
        fwd = {"Wx": rng.gaussian_array((n_in, 4 * H), 0.0, 0.3),
               "Wh": rng.gaussian_array((H, 4 * H), 0.0, 0.3),
               "b": rng.gaussian_array((4 * H,), 0.0, 0.1)}
    else:
        fwd = {"Wx": rng.gaussian_array((n_in, 3 * H), 0.0, 0.3),
               "Wh": rng.gaussian_array((H, 3 * H), 0.0, 0.3),
               "bx": rng.gaussian_array((3 * H,), 0.0, 0.1),
               "bh": rng.gaussian_array((3 * H,), 0.0, 0.1)}
    tied = {}
    for k, v in fwd.items():
        tied[f"f.{k}"] = Var(v)
        tied[f"b.{k}"] = Var(v)
    return tied


def _batch_minor(x):
    """Windows [B, L, F] as the recurrent layers' [L, F, B] stack."""
    return np.ascontiguousarray(x.transpose(1, 2, 0))


def test_bilstm_time_reversal_with_tied_weights():
    # with forward/backward weights tied, reversing the input sequence must
    # reverse the output along time and swap the direction halves
    H, n_in = 3, 4
    p = _tied_bidi_params(Rng(8, "init"), n_in, H, "lstm")
    x = _batch_minor(Rng(9, "init").gaussian_array((2, 6, n_in)))
    out = bilstm_layer(Var(x), p).value
    out_rev = bilstm_layer(Var(x[::-1].copy()), p).value
    swapped = np.concatenate([out_rev[::-1, H:], out_rev[::-1, :H]], axis=1)
    npt.assert_allclose(out, swapped, atol=1e-12)


def test_bigru_time_reversal_with_tied_weights():
    H, n_in = 3, 4
    p = _tied_bidi_params(Rng(10, "init"), n_in, H, "gru")
    x = _batch_minor(Rng(11, "init").gaussian_array((2, 5, n_in)))
    out = bigru_layer(Var(x), p).value
    out_rev = bigru_layer(Var(x[::-1].copy()), p).value
    swapped = np.concatenate([out_rev[::-1, H:], out_rev[::-1, :H]], axis=1)
    npt.assert_allclose(out, swapped, atol=1e-12)


def test_attention_permutation_equivariance():
    # no positional encoding: permuting timesteps permutes outputs alike
    D, n_heads, L = 8, 2, 7
    rng = Rng(12, "init")
    params = {f"attn.W{k}": Var(rng.gaussian_array((D, D), 0.0, 0.4))
              for k in ("q", "k", "v", "o")}
    E = rng.gaussian_array((2, L, D))
    perm = Rng(13, "shuffle").permutation(L)
    Z, attn = multi_head_attention(Var(E), params, n_heads)
    Zp, attnp = multi_head_attention(Var(E[:, perm, :].copy()), params, n_heads)
    npt.assert_allclose(Zp.value, Z.value[:, perm, :], atol=1e-12)
    npt.assert_allclose(attnp.value, attn.value[:, :, perm][:, :, :, perm],
                        atol=1e-12)


def test_eval_forward_bitwise_deterministic():
    cfg = tiny_cfg(dropout=0.3)
    model = DualStreamModel(cfg)
    raw = model.init_params(Rng(20, "init"))
    X = make_batch(cfg, B=4)
    p1, _ = model.forward(wrap_params(raw), X, train=False)
    p2, _ = model.forward(wrap_params(raw), X, train=False)
    npt.assert_array_equal(p1.value, p2.value)


def test_train_dropout_deterministic_and_stream_accounted():
    cfg = tiny_cfg(dropout=0.4)
    model = DualStreamModel(cfg)
    raw = model.init_params(Rng(21, "init"))
    X = make_batch(cfg, B=4)
    p1, _ = model.forward(wrap_params(raw), X, train=True, rng=Rng(7, "dropout"))
    p2, _ = model.forward(wrap_params(raw), X, train=True, rng=Rng(7, "dropout"))
    npt.assert_array_equal(p1.value, p2.value)
    p3, _ = model.forward(wrap_params(raw), X, train=True, rng=Rng(8, "dropout"))
    assert not np.array_equal(p1.value, p3.value)

    # exactly B*L*D + B*L*(D/2) uniforms consumed (embedding + anomaly MLP)
    B, L, D = 4, cfg.lookback, cfg.embed_dim
    consumed = Rng(7, "dropout")
    model.forward(wrap_params(raw), X, train=True, rng=consumed)
    fresh = Rng(7, "dropout")
    fresh.uniform_array(B * L * D + B * L * (D // 2))
    assert consumed.uniform() == fresh.uniform()


def test_train_mode_requires_dropout_stream():
    cfg = tiny_cfg(dropout=0.2)
    model = DualStreamModel(cfg)
    params = wrap_params(model.init_params(Rng(1, "init")))
    with pytest.raises(ConfigError, match="dropout"):
        model.forward(params, make_batch(cfg), train=True)
    # but dropout 0 trains without one
    cfg0 = tiny_cfg(dropout=0.0)
    model0 = DualStreamModel(cfg0)
    params0 = wrap_params(model0.init_params(Rng(1, "init")))
    model0.forward(params0, make_batch(cfg0), train=True)


def test_forward_rejects_feature_mismatch():
    cfg = tiny_cfg()
    model = DualStreamModel(cfg)
    params = wrap_params(model.init_params(Rng(1, "init")))
    with pytest.raises(ConfigError, match="features"):
        model.forward(params, np.zeros((2, cfg.lookback, cfg.n_features + 1)))


def test_predict_batching_stable(monkeypatch):
    cfg = tiny_cfg()
    model = DualStreamModel(cfg)
    raw = model.init_params(Rng(30, "init"))
    X = make_batch(cfg, B=10, seed=40)
    full = predict(model, raw, X, batch_size=256)
    # float32 tape: same batching is bitwise reproducible, and predict is a
    # float32 forward widened to float64
    assert full.dtype == np.float64
    npt.assert_array_equal(full, predict(model, raw, X, batch_size=256))
    direct32, _ = model.forward(wrap_params(raw, requires_grad=False,
                                            dtype=np.float32), X)
    assert full.tobytes() == direct32.value.astype(np.float64).tobytes()
    # different batch sizes agree to float32 rounding: GEMM blocking differs
    # with the batch dimension, which reorders sums in every layer.  These
    # predictions are below 0.1 in size, so one float32 ulp of each is at
    # most eps / 8; batch 1 and 3 against 256 moved them by at most 0.1 eps
    # over five initialisations.  One eps leaves a tenfold margin and still
    # fails any real mix-up of rows, which moves a prediction by its own size
    npt.assert_allclose(predict(model, raw, X, batch_size=3), full,
                        rtol=0, atol=np.finfo(np.float32).eps)
    # default batches ending in a trailing batch of one window (BLAS's
    # matrix-vector path) and of 114 windows (explain's 370 test windows)
    # against the same windows in one full batch
    for n in (257, 370):
        Xn = make_batch(cfg, B=n, seed=n)
        npt.assert_allclose(predict(model, raw, Xn),
                            predict(model, raw, Xn, batch_size=n),
                            rtol=0, atol=np.finfo(np.float32).eps)
    # the same checks in float64, to BLAS rounding
    monkeypatch.setattr(model_module, "TAPE_DTYPE", np.float64)
    full = predict(model, raw, X, batch_size=256)
    npt.assert_array_equal(full, predict(model, raw, X, batch_size=256))
    npt.assert_allclose(predict(model, raw, X, batch_size=3), full,
                        rtol=0, atol=1e-12)
    direct, _ = model.forward(wrap_params(raw, requires_grad=False), X)
    npt.assert_array_equal(full, direct.value)


def test_amp_gain_zero_pins_alpha_between_one_and_two():
    # gain 0 collapses amplification to exactly alpha = 1 everywhere
    cfg = tiny_cfg(amp_gain=0.0)
    model = DualStreamModel(cfg)
    params = wrap_params(model.init_params(Rng(31, "init")))
    _, intro = model.forward(params, make_batch(cfg))
    npt.assert_array_equal(intro["alpha"], np.ones_like(intro["alpha"]))


def test_gru_constant_input_converges_to_fixed_point():
    # constant input: hidden-state step sizes settle down (non-increasing
    # after a short transient) for init-scale random weights
    H, n_in, L = 4, 3, 30
    for trial in range(100):
        rng = Rng(trial, "init")
        bx = 1.0 / np.sqrt(n_in)
        bh = 1.0 / np.sqrt(H)
        p = {"Wx": Var(rng.uniform_array((n_in, 3 * H), -bx, bx)),
             "Wh": Var(rng.uniform_array((H, 3 * H), -bh, bh)),
             "bx": Var(np.zeros(3 * H)), "bh": Var(np.zeros(3 * H))}
        x = _batch_minor(np.tile(rng.gaussian_array((1, 1, n_in)), (1, L, 1)))
        # both directions share the weights; the forward half is checked
        out = bigru_layer(Var(x), {f"{d}.{k}": v for d in "fb" for k, v in p.items()})
        states = out.value[:, :H, 0]
        steps = np.linalg.norm(np.diff(states, axis=0), axis=1)
        assert np.all(np.diff(steps[5:]) <= 1e-12), trial


def test_bilstm_layer_gradients_fd():
    # wiring check for the bidirectional node and its two projections
    from gradcheck import grad_check
    H, n_in = 2, 3
    rng = Rng(33, "init")
    raw = {"f.Wx": rng.gaussian_array((n_in, 4 * H), 0.0, 0.4),
           "f.Wh": rng.gaussian_array((H, 4 * H), 0.0, 0.4),
           "f.b": np.zeros(4 * H),
           "b.Wx": rng.gaussian_array((n_in, 4 * H), 0.0, 0.4),
           "b.Wh": rng.gaussian_array((H, 4 * H), 0.0, 0.4),
           "b.b": np.zeros(4 * H)}
    x = _batch_minor(rng.gaussian_array((2, 4, n_in)))
    base = bilstm_layer(Var(x), {k: Var(v) for k, v in raw.items()}).value

    def f(p):
        d = bilstm_layer(Var(x), p) - Var(base + 0.03)
        return T.mean(d * d)

    report = grad_check(f, raw, eps=1e-6)
    assert report.max_rel_error <= 1e-5, (report.worst_param, report.max_rel_error)


def _t(v):
    return T.swapaxes(v, 0, 1)


def _recurrence_by_steps(zx, Wh, bh=None, reverse=False):
    """One direction of the T.bidirectional reference on a batch-minor
    projection ``zx`` [L, G*H, B]: per-step take, ``Whᵀ h`` as a matmul, the
    single-step cell op (the LSTM's without ``bh``, the GRU's with the
    [G*H, 1] column ``bh``) on transposed blocks and one concat of the
    steps, every step on the tape."""
    L, _, B = zx.shape
    H = Wh.shape[0]
    WhT = _t(Wh)
    h = c = Var(np.zeros((H, B), dtype=zx.value.dtype))
    out = [None] * L
    for t in (range(L - 1, -1, -1) if reverse else range(L)):
        if bh is None:
            hc = _t(T.lstm_cell(_t(zx[t] + T.matmul(WhT, h)), _t(c)))
            h, c = hc[:H], hc[H:]
        else:
            h = _t(T.gru_cell(_t(zx[t]), _t(T.matmul(WhT, h) + bh), _t(h)))
        out[t] = h
    return T.reshape(T.concat(out, axis=0), (L, H, B))


def _linear_t_by_ops(x, W, b):
    return T.matmul(_t(W), x) + T.reshape(b, (-1, 1))


def _bidirectional_by_steps(x, fwd, bwd):
    """Reference for T.bidirectional on x [L, n_in, B]: per direction,
    ``Wxᵀ x`` as matmul + add and the per-step reference, joined by one
    concat."""
    return T.concat([_recurrence_by_steps(_linear_t_by_ops(x, Wx, b), Wh,
                                          *(T.reshape(v, (-1, 1)) for v in bh),
                                          reverse=d == 1)
                     for d, (Wx, b, Wh, *bh) in enumerate((fwd, bwd))], axis=1)


def _train_step_loss(cfg, seed=41):
    """A train step's recorded loss and its parameters, before ``backward``."""
    from extremecast.losses import LossConfig, compute_loss
    model = DualStreamModel(cfg)
    params = wrap_params(model.init_params(Rng(seed, "init")))
    X = make_batch(cfg, B=4, seed=seed)
    pred, _ = model.forward(params, X, train=True, rng=Rng(seed, "dropout"))
    return compute_loss(pred, np.linspace(-1.0, 1.0, 4), LossConfig()), params


def _train_step_grads(cfg, seed=41):
    loss, params = _train_step_loss(cfg, seed)
    T.backward(loss)
    return loss, {k: v.grad for k, v in params.items()}


def _as_bytes(arrays):
    return {k: None if v is None else v.tobytes() for k, v in arrays.items()}


def _step_and_eval_bytes(cfg, seed=41):
    """Parameter gradients of a train step, eval predictions and the eval
    introspection dict, as bytes."""
    _, grads = _train_step_grads(cfg, seed)
    model = DualStreamModel(cfg)
    raw = model.init_params(Rng(seed, "init"))
    X = make_batch(cfg, B=4, seed=seed)
    _, intro = model.forward(wrap_params(raw, requires_grad=False), X)
    return _as_bytes(grads), predict(model, raw, X).tobytes(), _as_bytes(intro)


def test_recurrence_matches_per_step_composition_bitwise(monkeypatch):
    cfgs = [tiny_cfg(dropout=0.3, **over)
            for over in (dict(lookback=1), dict(lookback=2), dict(n_layers=3))]
    fast = [_step_and_eval_bytes(cfg) for cfg in cfgs]
    monkeypatch.setattr(T, "bidirectional", _bidirectional_by_steps)
    monkeypatch.setattr(T, "linear", lambda x, W, b: T.matmul(x, W) + b)
    monkeypatch.setattr(T, "linear_t", _linear_t_by_ops)
    for cfg, got in zip(cfgs, fast):
        ref = _step_and_eval_bytes(cfg)
        for part, g, r in zip(("gradients", "predictions", "introspection"), got, ref):
            assert g == r, (cfg.lookback, cfg.n_layers, part)


def _tape_nodes(root):
    """Every node ``backward`` visits from ``root``, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _take_nodes(root):
    """take nodes among those ``backward`` visits from ``root``."""
    return sum(node._vjp is not None and node._vjp.__qualname__.startswith("take.")
               for node in _tape_nodes(root))


def test_take_nodes_do_not_grow_with_lookback():
    # per-step reads stay inside the recurrence nodes, so backward is O(L);
    # counted before ``backward``, which frees the tape it walks
    counts = [_take_nodes(_train_step_loss(tiny_cfg(lookback=L))[0])
              for L in (5, 12)]
    assert counts[0] == counts[1] > 0, counts


_KINDS = {
    "dual_stream": lambda: DualStreamModel(tiny_cfg(dropout=0.3)),
    "dual_stream_lookback_1": lambda: DualStreamModel(tiny_cfg(lookback=1)),
    "tcn": lambda: TcnModel(TcnConfig(n_features=5, lookback=7, channels=(3, 6),
                                      kernel=2, dilations=(1, 2), dropout=0.3)),
    "nbeats": lambda: NBeatsModel(NBeatsConfig(lookback=7, stacks=2, fc_units=6), 0),
}


def _dtype_spy(vjp, received):
    """``vjp``, appending the dtype of each gradient it receives to
    ``received``."""
    def spy(g):
        received.append(g.dtype)
        return vjp(g)
    return spy


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_tape_runs_in_float32_at_tape_dtype(kind):
    assert TAPE_DTYPE == np.float32
    model = _KINDS[kind]()
    raw = model.init_params(Rng(42, "init"))
    X = make_batch(tiny_cfg(lookback=model.cfg.lookback), B=5, seed=42)
    params = wrap_params(raw, dtype=TAPE_DTYPE)
    pred, _ = model.forward(params, X, train=True, rng=Rng(42, "dropout"))
    loss = compute_loss(pred, np.linspace(-1.0, 1.0, 5), LossConfig())
    assert loss.value.dtype == np.float64
    # collected before ``backward``, which frees the tape it walks; each
    # interior node's vjp records the dtype of the gradient it receives
    nodes = _tape_nodes(pred)
    assert len(nodes) > len(params)
    assert all(node.value.dtype == np.float32 for node in nodes)
    interior = [node for node in nodes if node._vjp is not None]
    received = []
    for node in interior:
        node._vjp = _dtype_spy(node._vjp, received)
    T.backward(loss)
    assert len(received) == len(interior)
    assert set(received) == {np.dtype(np.float32)}
    assert all(p.grad is None or p.grad.dtype == np.float32
               for p in params.values())
    # predict is a float32 eval forward of the same batch, bit for bit
    direct, _ = model.forward(wrap_params(raw, requires_grad=False,
                                          dtype=np.float32), X)
    assert (predict(model, raw, X).tobytes()
            == direct.value.astype(np.float64).tobytes())
