"""Value and gradient tests for the autodiff tape.

Gradients are checked against central differences op by op, plus a few
closed-form oracles so the finite-difference harness itself is covered.
"""

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


def _split_by_take(a, n, axis):
    """Reference for T.split: one ``take`` per piece."""
    k = a.shape[axis] // n
    lead = (slice(None),) * axis
    return [a[lead + ((t,) if k == 1 else (slice(t * k, (t + 1) * k),))]
            for t in range(n)]


def test_split_values_and_gradients_fd():
    rng = Rng(9, "init")
    x = rng.gaussian_array((3, 4, 6))
    steps = T.split(Var(x), 4, axis=1)
    assert [s.shape for s in steps] == [(3, 6)] * 4
    for t, s in enumerate(steps):
        npt.assert_array_equal(s.value, x[:, t, :])
    wide = T.split(Var(x), 3, axis=-1)
    assert [s.shape for s in wide] == [(3, 4, 2)] * 3
    npt.assert_array_equal(wide[2].value, x[:, :, 4:])
    with pytest.raises(ValueError):
        T.split(Var(x), 5, axis=1)

    def f_steps(p):
        s = T.split(p["x"], 4, axis=1)
        return T.mean(s[0] * s[3]) + T.sum_(T.tanh(s[1]) + s[2] * s[2]) * 0.3

    def f_wide(p):
        s = T.split(p["x"], 3, axis=2)
        return T.mean(s[0] * T.tanh(s[2]) + T.sigmoid(s[1]))

    fd_ok(f_steps, {"x": x})
    fd_ok(f_wide, {"x": x})


def _grad_bytes(build, splitter):
    """Gradients of two leaves as bytes, with pieces cut by ``splitter``."""
    rng = Rng(10, "init")
    x = Var(rng.gaussian_array((2, 5, 4)), requires_grad=True)
    y = Var(rng.gaussian_array((2, 5, 4)), requires_grad=True)
    backward(build(x, y, splitter))
    return x.grad.tobytes(), y.grad.tobytes()


def test_split_gradients_equal_take_bytewise():
    # -0.0 in the other consumer's weights puts signed zeros into x.grad
    w = Var(np.where(np.arange(40).reshape(2, 5, 4) % 3 == 0, -0.0, 0.7))
    events = []

    def logged(node, tag):
        vjp = node._vjp
        node._vjp = lambda g: (events.append(tag), vjp(g))[1]
        return node

    def shared(x, y, splitter):
        # other consumers of x run both before and after the pieces; add
        # hands x and y the same gradient array; pieces[0] is left unused
        pieces = [logged(p, "piece") for p in splitter(x, 5, 1)]
        before = T.sum_(T.tanh(logged(x + y, "other")) * w)
        after = logged(T.sum_(x * w), "other")
        return before + T.sum_(T.stack(pieces[1:], axis=0) ** 2.0) + after

    def unused(x, y, splitter):
        pieces = splitter(x, 5, 1)
        return T.sum_(pieces[1] * pieces[4]) + T.mean(pieces[2] * y[:, 0, :])

    def twice(x, y, splitter):
        steps = splitter(x, 5, 1)
        halves = splitter(x, 2, 2)
        return (T.sum_(steps[0][:, 2:] * halves[1][:, 0, :] + steps[3][:, :2] * y[:, 3, 2:])
                + T.sum_(halves[0] * halves[0]))

    for build in (shared, unused, twice):
        events.clear()
        fast = _grad_bytes(build, T.split)
        if build is shared:
            first, last = events.index("piece"), len(events) - events[::-1].index("piece")
            assert "other" in events[:first] and "other" in events[last:], events
        assert fast == _grad_bytes(build, _split_by_take), build.__name__


def test_split_under_no_grad_records_nothing():
    x = Var(np.ones((2, 3)), requires_grad=True)
    with no_grad():
        pieces = T.split(x, 3, axis=1)
    assert all(not p.requires_grad and p._parents == () for p in pieces)
