"""Value and gradient tests for the autodiff tape.

Gradients are checked against central differences op by op, plus a few
closed-form oracles so the finite-difference harness itself is covered.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from extremecast import tensor as T
from extremecast.errors import NumericError
from extremecast.gradcheck import grad_check
from extremecast.rng import Rng
from extremecast.tensor import Var, backward, no_grad


def fd_ok(f, params, tol=1e-6):
    report = grad_check(f, params, eps=1e-6)
    assert report.max_rel_error <= tol, (report.worst_param, report.max_rel_error)


def test_values_and_broadcasting():
    a = Var([[1.0, 2.0], [3.0, 4.0]])
    b = Var([10.0, 20.0])
    npt.assert_array_equal((a + b).value, [[11, 22], [13, 24]])
    npt.assert_array_equal((a * 2.0).value, [[2, 4], [6, 8]])
    npt.assert_array_equal((a - b).value, [[-9, -18], [-7, -16]])
    npt.assert_allclose((a / b).value, [[0.1, 0.1], [0.3, 0.2]])
    npt.assert_array_equal((-a).value, [[-1, -2], [-3, -4]])
    m = T.matmul(a, Var(np.eye(2)))
    npt.assert_array_equal(m.value, a.value)


def test_sigmoid_values_and_saturation():
    assert T.sigmoid(Var(1.0)).item() == pytest.approx(0.7310585786300049, abs=1e-15)
    assert T.sigmoid(Var(0.0)).item() == 0.5
    big = T.sigmoid(Var(np.array([50.0, -50.0, 745.0, -745.0])))
    assert np.all(np.isfinite(big.value))
    assert big.value[0] == pytest.approx(1.0, abs=1e-15)
    assert big.value[1] == pytest.approx(0.0, abs=1e-15)


def test_softmax_frozen_and_simplex():
    y = T.softmax(Var([1.0, 2.0, 3.0]))
    npt.assert_allclose(y.value, [0.09003057317038046, 0.24472847105479767,
                                  0.6652409557748219], atol=1e-15)
    rng = Rng(0, "init")
    x = rng.gaussian_array((40, 7), 0.0, 5.0)
    s = T.softmax(Var(x), axis=-1).value
    npt.assert_allclose(s.sum(axis=-1), np.ones(40), atol=1e-12)
    assert np.all(s >= 0)
    with pytest.raises(ValueError):
        T.softmax(Var(np.zeros((0, 3))))


def test_softmax_translation_invariant_gradient():
    # sum of softmax outputs is constant 1, so its gradient must vanish
    x = Var(np.array([0.3, -1.2, 2.0, 0.7]), requires_grad=True)
    backward(T.sum_(T.softmax(x)))
    npt.assert_allclose(x.grad, np.zeros(4), atol=1e-12)


def test_elementwise_gradients_fd():
    rng = Rng(1, "init")
    x = rng.gaussian_array((3, 4)) + 2.5  # keep log/sqrt domains safe

    def f(p):
        v = p["x"]
        out = T.exp(v * 0.1) + T.log(v) + T.sqrt(v) + T.tanh(v) + T.sigmoid(v)
        out = out + T.gelu(v) + T.absolute(v - 2.0) + (v ** 3.0) / 7.0
        return T.mean(out * out)

    fd_ok(f, {"x": x})


def test_matmul_broadcast_gradients_fd():
    rng = Rng(2, "init")
    a = rng.gaussian_array((2, 3, 4))
    w = rng.gaussian_array((4, 5))
    b = rng.gaussian_array((2, 5, 3))

    def f(p):
        out = T.matmul(T.matmul(p["a"], p["w"]), p["b"])
        return T.sum_(out * out) * 0.01

    fd_ok(f, {"a": a, "w": w, "b": b})


def test_shape_ops_gradients_fd():
    rng = Rng(3, "init")
    x = rng.gaussian_array((4, 6))
    y = rng.gaussian_array((4, 3))

    def f(p):
        c = T.concat([p["x"], p["y"]], axis=1)
        s = T.stack([p["y"], p["y"] * 2.0], axis=1)
        r = T.reshape(c, (2, 18))
        t = T.swapaxes(s, 0, 2)
        part = c[1:3, ::2]
        return T.mean(r * r) + T.sum_(t) * 0.1 + T.sum_(part * part)

    fd_ok(f, {"x": x, "y": y})


def test_sum_mean_axes():
    x = Var(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    backward(T.sum_(T.mean(x, axis=0) * Var(np.array([1.0, 2.0, 3.0, 4.0]))))
    npt.assert_allclose(x.grad, np.tile([1, 2, 3, 4], (3, 1)) / 3.0)


def test_closed_form_oracle_chain():
    # d/dx of sigmoid(w*x) at known point, fully by hand
    x = Var(0.5, requires_grad=True)
    w = Var(2.0, requires_grad=True)
    y = T.sigmoid(w * x)
    backward(y)
    s = 1.0 / (1.0 + np.exp(-1.0))
    npt.assert_allclose(x.grad, s * (1 - s) * 2.0, rtol=1e-15)
    npt.assert_allclose(w.grad, s * (1 - s) * 0.5, rtol=1e-15)


def test_grad_accumulates_over_reuse():
    x = Var(3.0, requires_grad=True)
    y = x * x + x * 4.0  # dy/dx = 2x + 4 = 10
    backward(y)
    npt.assert_allclose(x.grad, 10.0)


def test_no_grad_blocks_recording():
    x = Var(2.0, requires_grad=True)
    with no_grad():
        y = x * x
    assert not y.requires_grad and y._parents == ()


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        backward(Var(np.zeros(3), requires_grad=True) * 2.0)


def test_dropout_semantics():
    x = Var(np.ones((50, 40)), requires_grad=True)
    assert T.dropout(x, 0.2, Rng(0, "dropout"), training=False) is x
    assert T.dropout(x, 0.0, Rng(0, "dropout"), training=True) is x
    out = T.dropout(x, 0.25, Rng(5, "dropout"), training=True)
    vals = np.unique(out.value)
    npt.assert_allclose(vals[vals > 0], 1.0 / 0.75)
    # identical stream gives an identical mask
    out2 = T.dropout(x, 0.25, Rng(5, "dropout"), training=True)
    npt.assert_array_equal(out.value, out2.value)
    frac = (out.value == 0).mean()
    assert abs(frac - 0.25) < 0.03
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, Rng(0, "dropout"), training=True)


def test_check_finite_names_stage():
    T.check_finite(Var(np.ones(3)), "embed")
    with pytest.raises(NumericError, match="anomaly_mlp"):
        T.check_finite(Var(np.array([1.0, np.inf])), "anomaly_mlp")


def _lstm_cell_composed(z, c_prev, H):
    """Same math as T.lstm_cell but built from primitive tape ops."""
    gates = T.sigmoid(z[:, : 3 * H])
    i, f, o = gates[:, :H], gates[:, H: 2 * H], gates[:, 2 * H:]
    g = T.tanh(z[:, 3 * H:])
    c = f * c_prev + i * g
    return T.concat([o * T.tanh(c), c], axis=1)


def _gru_cell_composed(zx, zh, h_prev, H):
    ru = T.sigmoid(zx[:, : 2 * H] + zh[:, : 2 * H])
    r, u = ru[:, :H], ru[:, H:]
    n = T.tanh(zx[:, 2 * H:] + r * zh[:, 2 * H:])
    return (1.0 - u) * n + u * h_prev


def test_lstm_cell_matches_composed_ops():
    H = 5
    rng = Rng(6, "init")
    z = rng.gaussian_array((4, 4 * H), 0.0, 1.5)
    c = rng.gaussian_array((4, H))
    fused = T.lstm_cell(Var(z), Var(c))
    composed = _lstm_cell_composed(Var(z), Var(c), H)
    npt.assert_allclose(fused.value, composed.value, rtol=0, atol=1e-15)

    # gradients agree between the two routes
    zf = Var(z, requires_grad=True)
    cf = Var(c, requires_grad=True)
    tgt = rng.gaussian_array((4, 2 * H))
    d = T.lstm_cell(zf, cf) - Var(tgt)
    backward(T.mean(d * d))
    zc = Var(z, requires_grad=True)
    cc = Var(c, requires_grad=True)
    d2 = _lstm_cell_composed(zc, cc, H) - Var(tgt)
    backward(T.mean(d2 * d2))
    npt.assert_allclose(zf.grad, zc.grad, rtol=1e-12, atol=1e-15)
    npt.assert_allclose(cf.grad, cc.grad, rtol=1e-12, atol=1e-15)


def test_gru_cell_matches_composed_ops():
    H = 4
    rng = Rng(7, "init")
    zx = rng.gaussian_array((3, 3 * H), 0.0, 1.2)
    zh = rng.gaussian_array((3, 3 * H), 0.0, 1.2)
    hp = rng.gaussian_array((3, H))
    fused = T.gru_cell(Var(zx), Var(zh), Var(hp))
    composed = _gru_cell_composed(Var(zx), Var(zh), Var(hp), H)
    npt.assert_allclose(fused.value, composed.value, rtol=0, atol=1e-15)

    args_f = [Var(a, requires_grad=True) for a in (zx, zh, hp)]
    tgt = rng.gaussian_array((3, H))
    d = T.gru_cell(*args_f) - Var(tgt)
    backward(T.mean(d * d))
    args_c = [Var(a, requires_grad=True) for a in (zx, zh, hp)]
    d2 = _gru_cell_composed(*args_c, H) - Var(tgt)
    backward(T.mean(d2 * d2))
    for vf, vc in zip(args_f, args_c):
        npt.assert_allclose(vf.grad, vc.grad, rtol=1e-12, atol=1e-15)


def test_recurrent_cell_gradients_fd():
    H = 3
    rng = Rng(8, "init")
    z0 = rng.gaussian_array((2, 4 * H))
    c0 = rng.gaussian_array((2, H))
    ltgt = T.lstm_cell(Var(z0), Var(c0)).value + 0.05

    def f_lstm(p):
        d = T.lstm_cell(p["z"], p["c"]) - Var(ltgt)
        return T.mean(d * d)

    fd_ok(f_lstm, {"z": z0, "c": c0})

    zx0 = rng.gaussian_array((2, 3 * H))
    zh0 = rng.gaussian_array((2, 3 * H))
    hp0 = rng.gaussian_array((2, H))
    gtgt = T.gru_cell(Var(zx0), Var(zh0), Var(hp0)).value - 0.04

    def f_gru(p):
        d = T.gru_cell(p["zx"], p["zh"], p["hp"]) - Var(gtgt)
        return T.mean(d * d)

    fd_ok(f_gru, {"zx": zx0, "zh": zh0, "hp": hp0})


def _recurrence_params(rng, cell, B, L, H):
    G = 4 if cell == "lstm" else 3
    raw = {"zx": rng.gaussian_array((B, L, G * H)),
           "Wh": rng.gaussian_array((H, G * H), 0.0, 0.5)}
    if cell == "gru":
        raw["bh"] = rng.gaussian_array((G * H,), 0.0, 0.3)
    return raw


def test_recurrence_gradients_fd():
    rng = Rng(9, "init")
    for cell in ("lstm", "gru"):
        for L in (1, 4):
            for reverse in (False, True):
                raw = _recurrence_params(rng, cell, 2, L, 3)
                w = Var(rng.gaussian_array((2, L, 3)))

                def f(p):
                    out = T.recurrence(cell, p["zx"], p["Wh"], p.get("bh"), reverse)
                    return T.sum_(out * w)

                # gradients carried back over several steps are small, so
                # central differences resolve them to about 1e-6 relative
                fd_ok(f, raw, tol=1e-5)


def _one_step_by_cell(cell, zx, Wh, bh):
    """A one-step sequence through the single-step cell op."""
    H = Wh.shape[0]
    h0 = Var(np.zeros((zx.shape[0], H)))
    if cell == "lstm":
        return T.lstm_cell(zx[:, 0] + T.matmul(h0, Wh), h0)[:, :H]
    return T.gru_cell(zx[:, 0], T.matmul(h0, Wh) + bh, h0)


def test_recurrence_of_one_step_equals_cell_bitwise():
    rng = Rng(10, "init")
    for cell in ("lstm", "gru"):
        raw = _recurrence_params(rng, cell, 3, 1, 4)
        w = rng.gaussian_array((3, 4))

        def run(step):
            p = {k: Var(v, requires_grad=True) for k, v in raw.items()}
            h = step(p)
            backward(T.sum_(h * w))
            return [h.value.tobytes()] + [p[k].grad.tobytes() for k in sorted(p)]

        ref = run(lambda p: _one_step_by_cell(cell, p["zx"], p["Wh"], p.get("bh")))
        for reverse in (False, True):
            got = run(lambda p: T.recurrence(cell, p["zx"], p["Wh"], p.get("bh"),
                                             reverse)[:, 0])
            assert got == ref, (cell, reverse)


def test_recurrence_under_no_grad_records_nothing():
    rng = Rng(11, "init")
    for cell in ("lstm", "gru"):
        p = {k: Var(v, requires_grad=True)
             for k, v in _recurrence_params(rng, cell, 16, 40, 8).items()}

        def run():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = T.recurrence(cell, p["zx"], p["Wh"], p.get("bh"))
                return out, tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()

        with no_grad():
            out, kept = run()
        assert not out.requires_grad and out._parents == () and out._vjp is None
        # only the output array outlives the call; the recorded node also
        # keeps every step's residuals
        assert kept < out.value.nbytes + 4096, (cell, kept)
        recorded, kept_recorded = run()
        assert recorded._vjp is not None and kept_recorded > 4 * out.value.nbytes
