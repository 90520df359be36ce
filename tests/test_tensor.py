"""Value and gradient tests for the autodiff tape.

Gradients are checked against central differences op by op, plus a few
closed-form oracles so the finite-difference harness itself is covered.
Every op keeps a float32 or float64 input's dtype in its value and its
gradients.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from extremecast import tensor as T
from extremecast.errors import ConfigError, NumericError
from extremecast.rng import Rng
from extremecast.tensor import Var, backward
from gradcheck import grad_check
from test_model import _bidirectional_by_steps, _linear_t_by_ops, _t


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
    assert T.sigmoid(Var(1.0)).value == pytest.approx(0.7310585786300049, abs=1e-15)
    assert T.sigmoid(Var(0.0)).value == 0.5
    big = T.sigmoid(Var(np.array([50.0, -50.0, 745.0, -745.0])))
    assert np.all(np.isfinite(big.value))
    assert big.value[0] == pytest.approx(1.0, abs=1e-15)
    assert big.value[1] == pytest.approx(0.0, abs=1e-15)


def _sigmoid_exp_form(v):
    """Reference logistic: exp of a non-positive number only, then mirror."""
    s = 1.0 / (1.0 + np.exp(-np.abs(v)))
    return np.where(v >= 0, s, 1.0 - s)


def test_sigmoid_zero_d_and_strided_view():
    zero_d = T._sigmoid_value(np.array(0.7))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert abs(zero_d - _sigmoid_exp_form(np.array(0.7))) <= 2.3e-16
    # a strided column slice, as of a batch-major gate block z[:, :3H]
    z = Rng(4, "sigmoid").gaussian_array((6, 8), 0.0, 4.0)
    view = z[:, :6]
    before = view.copy()
    assert not view.flags.c_contiguous
    out = T._sigmoid_value(view)
    assert out.shape == (6, 6)
    npt.assert_array_equal(view, before)  # the input is not written
    npt.assert_array_equal(out, T._sigmoid_value(before))
    assert np.max(np.abs(out - _sigmoid_exp_form(view))) <= 2.3e-16


def test_sigmoid_exact_half_monotone_and_bounded():
    assert T._sigmoid_value(np.array(0.0)) == 0.5
    assert T._sigmoid_value(np.array(-0.0)) == 0.5
    grid = np.linspace(-40.0, 40.0, 400_001)
    s = T._sigmoid_value(grid)
    assert np.all(np.diff(s) >= 0.0)
    assert s.min() >= 0.0 and s.max() <= 1.0
    assert np.max(np.abs(s - _sigmoid_exp_form(grid))) <= 2.3e-16


def test_sigmoid_extremes_finite_without_warnings():
    v = np.array([745.0, -745.0, 1e308, -1e308, -40.0, 40.0])
    x = Var(v, requires_grad=True)
    with np.errstate(all="raise"):
        s = T._sigmoid_value(v)
        out = T.sigmoid(x)
        backward(T.sum_(out))
    assert np.all(np.isfinite(s))
    npt.assert_array_equal(s[:4], [1.0, 0.0, 1.0, 0.0])
    npt.assert_array_equal(out.value, s)
    # saturated outputs carry an exact zero gradient, never a NaN
    npt.assert_array_equal(x.grad, 0.0)


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


def _softmax_by_ndarray_max(v, axis, g):
    """Softmax value and vjp with the row max taken by ``ndarray.max``."""
    y = v - v.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y, y * (g - (g * y).sum(axis=axis, keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_max_by_halving_equals_ndarray_max_bytewise(dtype):
    rng = Rng(18, "init")
    cases = [(rng.gaussian_array((3, 4, n), 0.0, 4.0), -1) for n in (1, 2, 3, 9, 30)]
    cases.append((rng.gaussian_array((4, 7, 5), 0.0, 4.0), 1))
    cases.append((rng.gaussian_array((7, 3), 0.0, 4.0), 0))
    special = rng.gaussian_array((7, 9))
    special[0] = 0.0
    special[1, ::2], special[1, 1::2] = -0.0, 0.0
    special[2, 3] = -0.0
    special[3, 4] = np.inf
    special[4] = -np.inf
    special[5, ::3] = -np.inf
    special[6, 1], special[6, 7] = np.inf, -np.inf
    cases += [(special, -1), (special, 0)]
    for x, axis in cases:
        x = x.astype(dtype)
        g = rng.gaussian_array(x.shape).astype(dtype)
        with np.errstate(invalid="ignore"):
            out = T.softmax(Var(x, requires_grad=True), axis=axis)
            (gx,) = out._vjp(g)
            y, ref_gx = _softmax_by_ndarray_max(x, axis, g)
        assert out.value.tobytes() == y.tobytes(), (x.shape, axis)
        assert gx.tobytes() == ref_gx.tobytes(), (x.shape, axis)


def test_softmax_translation_invariant_gradient():
    # sum of softmax outputs is constant 1, so its gradient must vanish
    x = Var(np.array([0.3, -1.2, 2.0, 0.7]), requires_grad=True)
    backward(T.sum_(T.softmax(x)))
    npt.assert_allclose(x.grad, np.zeros(4), atol=1e-12)


def test_elementwise_gradients_fd():
    rng = Rng(1, "init")
    x = rng.gaussian_array((3, 4)) + 2.5  # keep the sqrt domain safe
    # relu's inputs on both sides of its kink, each at least 1e-3 from it
    r = rng.gaussian_array((3, 4))
    r += np.where(r < 0, -1e-3, 1e-3)
    assert (r < 0).any() and (r > 0).any()

    def f(p):
        v = p["x"]
        out = T.sqrt(v) + T.tanh(v) + T.sigmoid(v)
        out = out + T.relu(p["r"])
        return T.mean(out * out)

    fd_ok(f, {"x": x, "r": r})


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
        s = T.reshape(T.concat([p["y"], p["y"] * 2.0], axis=1), (4, 2, 3))
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
    # an op over inputs that require no gradient records nothing
    x = Var(2.0)
    y = x * x
    assert not y.requires_grad and y._parents == () and y._vjp is None
    z = x * Var(2.0, requires_grad=True)
    assert z.requires_grad and len(z._parents) == 2


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        backward(Var(np.zeros(3), requires_grad=True) * 2.0)


def test_backward_frees_interior_nodes_and_keeps_leaf_gradients():
    x = Var(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    w = Var(np.array([[1.0], [2.0], [3.0]]), requires_grad=True)
    a = x * 2.0
    h = T.tanh(a)
    m = T.matmul(T.reshape(h, (1, 3)), w)
    y = T.sum_(m)
    values = [n.value.copy() for n in (a, h, m)]
    backward(y)
    for node in (a, h, m, y):
        assert node.grad is None and node._parents == () and node._vjp is T._freed
        # a freed node does not pass for a leaf
        assert node.requires_grad
    for node, v in zip((a, h, m), values):
        npt.assert_array_equal(node.value, v)
    npt.assert_allclose(x.grad, 2.0 * (1.0 - h.value ** 2) * w.value[:, 0], rtol=1e-15)
    npt.assert_array_equal(w.grad, h.value[:, None])


def test_second_backward_through_a_freed_node_raises():
    x = Var(np.array([0.5, -1.0]), requires_grad=True)
    h = T.tanh(x)
    y = T.sum_(h)
    backward(y)
    first = x.grad.copy()
    for root in (y, T.sum_(h * 3.0), T.sum_(h * x)):
        with pytest.raises(RuntimeError, match="freed"):
            backward(root)
        # no gradient moved
        npt.assert_array_equal(x.grad, first)


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


def test_active_dropout_requires_a_stream():
    # the one statement of the rule every model kind's train pass relies on
    x = Var(np.ones((3, 4)), requires_grad=True)
    with pytest.raises(ConfigError, match="needs a dropout stream"):
        T.dropout(x, 0.25, None, training=True)
    # inactive dropout draws nothing, so it needs no stream
    assert T.dropout(x, 0.25, None, training=False) is x
    assert T.dropout(x, 0.0, None, training=True) is x


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


# Per-gate reference step kernels: each gate's activation and adjoint is
# formed on its own [H, B] block from the unhalved pre-activations.  The
# block kernels, fed the logistic rows times 0.5, must reproduce every byte.

def _ref_sigmoid(v):
    s = np.multiply(v, 0.5, out=np.empty_like(v))
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def _ref_lstm_step(z, c_prev, out=None):
    hsz = c_prev.shape[0]
    gates = _ref_sigmoid(z[: 3 * hsz])
    i = gates[:hsz]
    f = gates[hsz : 2 * hsz]
    o = gates[2 * hsz :]
    g = np.tanh(z[3 * hsz :])
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return np.multiply(o, tc, out=out), c, (i, f, o, g, c_prev, tc)


def _ref_lstm_step_vjp(gh, gc, res):
    i, f, o, g, cb, tc = res
    hsz = i.shape[0]
    gc = gc + gh * o * (1.0 - tc * tc)
    gz = np.empty((4 * hsz,) + i.shape[1:], dtype=gc.dtype)
    np.multiply(gc * g * i, 1.0 - i, out=gz[:hsz])
    np.multiply(gc * cb * f, 1.0 - f, out=gz[hsz : 2 * hsz])
    np.multiply(gh * tc * o, 1.0 - o, out=gz[2 * hsz : 3 * hsz])
    np.multiply(gc * i, 1.0 - g * g, out=gz[3 * hsz :])
    return gz, gc * f


def _ref_gru_step(zx, zh, h_prev, out=None):
    hsz = h_prev.shape[0]
    ru = zx[: 2 * hsz] + zh[: 2 * hsz]
    ru = _ref_sigmoid(ru)
    r = ru[:hsz]
    u = ru[hsz:]
    zh_n = zh[2 * hsz :]
    n = r * zh_n
    n += zx[2 * hsz :]
    np.tanh(n, out=n)
    h = np.multiply(u, h_prev, out=out)
    h += (1.0 - u) * n
    return h, (r, u, n, zh_n, h_prev)


def _ref_gru_step_vjp(grad, res):
    r, u, n, zh_n, pb = res
    hsz = r.shape[0]
    gn = grad * (1.0 - u)
    gu = grad * (pb - n)
    gzx = np.empty((3 * hsz,) + r.shape[1:], dtype=grad.dtype)
    an = np.multiply(gn, 1.0 - n * n, out=gzx[2 * hsz :])
    gr = an * zh_n
    np.multiply(gr * r, 1.0 - r, out=gzx[:hsz])
    np.multiply(gu * u, 1.0 - u, out=gzx[hsz : 2 * hsz])
    gzh = gzx.copy()
    np.multiply(an, r, out=gzh[2 * hsz :])
    return gzx, gzh, grad * u


def _halved(a, n):
    a = a.copy()
    a[:n] *= 0.5
    return a


def _flush_below_2_pow_100(v):
    return v if abs(v) >= 2.0**-100 else 0.0


@st.composite
def _step_inputs(draw):
    """(cell, dtype, H, arrays): the step kernel's inputs and output
    gradients, with moderate values beside ±0, tiny and huge ones.  Drawn
    values below 2**-100 in magnitude become 0, so that halving never
    rounds (the subnormal exception of the halving rule); the fixed
    subnormal 2**-140 of float32 is a power of two and halves exactly."""
    cell = draw(st.sampled_from(["lstm", "gru"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    H, B = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    width = 32 if dtype == np.float32 else 64
    values = st.one_of(
        st.floats(-8.0, 8.0, width=width).map(_flush_below_2_pow_100),
        st.floats(-2.0**100, 2.0**100, width=width).map(_flush_below_2_pow_100),
        st.sampled_from([0.0, -0.0, 2.0**-100, -2.0**-100, 2.0**-140, -2.0**-140,
                         2.0**80, -2.0**80]))
    rows = {"lstm": (4, 1, 1, 1), "gru": (3, 3, 1, 1)}[cell]
    return cell, dtype, H, [draw(hnp.arrays(dtype, (k * H, B), elements=values))
                            for k in rows]


# No shrink phase: shrinking a failing draw of these arrays runs for minutes,
# and an unshrunk draw is at most [16, 5].
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(_step_inputs())
def test_block_step_kernels_equal_per_gate_reference_bytewise(drawn):
    cell, dtype, H, arrays = drawn
    with np.errstate(all="ignore"):
        if cell == "lstm":
            z, c_prev, gh, gc = arrays
            h0, c0, res0 = _ref_lstm_step(z, c_prev)
            want = [h0, c0, *_ref_lstm_step_vjp(gh, gc, res0)]
            h1, c1, res1 = T._lstm_step(_halved(z, 3 * H), c_prev)
            got = [h1, c1, *T._lstm_step_vjp(gh, gc, res1)]
        else:
            zx, zh, h_prev, grad = arrays
            h0, res0 = _ref_gru_step(zx, zh, h_prev)
            want = [h0, *_ref_gru_step_vjp(grad, res0)]
            h1, res1 = T._gru_step(_halved(zx, 2 * H), _halved(zh, 2 * H), h_prev)
            got = [h1, *T._gru_step_vjp(grad, res1)]
    assert [a.dtype for a in got] == [dtype] * len(want)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _bytes(values):
    return [np.asarray(v).tobytes() for v in values]


def test_cells_and_bidirectional_write_none_of_their_inputs():
    rng = Rng(21, "init")
    H, B = 3, 4
    for op, shapes in ((T.lstm_cell, [(B, 4 * H), (B, H)]),
                       (T.gru_cell, [(B, 3 * H), (B, 3 * H), (B, H)])):
        arrays = [rng.gaussian_array(s) for s in shapes]
        before = _bytes(arrays)
        args = [Var(a, requires_grad=True) for a in arrays]
        backward(T.sum_(op(*args)))
        assert _bytes(a.value for a in args) == before, op.__name__
    for cell in ("lstm", "gru"):
        raw, names = _bidirectional_params(rng, cell, 3, H)
        raw["x"] = rng.gaussian_array((5, 3, B))
        before = _bytes(raw[k] for k in sorted(raw))
        for recorded in (True, False):
            p = {k: Var(v, requires_grad=recorded) for k, v in raw.items()}
            out = _bidirectional(p["x"], p, names)
            if recorded:
                backward(T.sum_(out))
            assert _bytes(p[k].value for k in sorted(p)) == before, (cell, recorded)


def test_matmul_skips_gradient_of_constant_operand():
    const, param = Var(np.ones((2, 3))), Var(np.ones((3, 4)), requires_grad=True)
    ga, gb = T.matmul(const, param)._vjp(np.ones((2, 4)))
    assert ga is None and gb.shape == (3, 4)
    ga, gb = T.matmul(param, Var(np.ones((4, 2))))._vjp(np.ones((3, 2)))
    assert ga.shape == (3, 4) and gb is None


# (op, x shapes, output shape from x's shape) for x @ W + b and Wᵀ x + b
# with W [4, n_out]: batch-major [..., 4] and batch-minor [..., 4, B]
_LINEAR_OPS = [(T.linear, ((3, 4), (2, 3, 4)), lambda xs, n: xs[:-1] + (n,)),
               (T.linear_t, ((4, 3), (2, 4, 3)), lambda xs, n: xs[:-2] + (n, xs[-1]))]


def test_linear_gradients_fd():
    rng = Rng(12, "init")
    for op, xshapes, out_shape in _LINEAR_OPS:
        for xshape in xshapes:
            raw = {"x": rng.gaussian_array(xshape), "W": rng.gaussian_array((4, 5)),
                   "b": rng.gaussian_array((5,))}
            w = Var(rng.gaussian_array(out_shape(xshape, 5)))

            def f(p):
                return T.sum_(T.tanh(op(p["x"], p["W"], p["b"])) * w)

            fd_ok(f, raw)


def test_linear_equals_matmul_then_add_bitwise():
    rng = Rng(13, "init")
    refs = {T.linear: lambda x, W, b: T.matmul(x, W) + b, T.linear_t: _linear_t_by_ops}
    for op, xshapes, out_shape in _LINEAR_OPS:
        for xshape in xshapes:
            raw = {"x": rng.gaussian_array(xshape), "W": rng.gaussian_array((4, 3)),
                   "b": rng.gaussian_array((3,))}
            w = rng.gaussian_array(out_shape(xshape, 3))
            for x_grad in (True, False):
                def run(op):
                    p = {k: Var(v, requires_grad=k != "x" or x_grad) for k, v in raw.items()}
                    out = op(p["x"], p["W"], p["b"])
                    backward(T.sum_(out * w))
                    return [out.value.tobytes()] + [
                        None if p[k].grad is None else p[k].grad.tobytes()
                        for k in ("W", "b", "x")]

                got = run(op)
                assert got == run(refs[op]), (op.__name__, xshape, x_grad)
                assert (got[3] is None) != x_grad


def _bidirectional_params(rng, cell, n_in, H):
    """Per-direction parameters as {"f.Wx": ..., "b.Wh": ...} and their
    names in ``bidirectional``'s order."""
    G = 4 if cell == "lstm" else 3
    names = ("Wx", "b", "Wh") if cell == "lstm" else ("Wx", "bx", "Wh", "bh")
    shapes = {"Wx": (n_in, G * H), "Wh": (H, G * H)}
    return {f"{d}.{n}": rng.gaussian_array(shapes.get(n, (G * H,)), 0.0, 0.5)
            for d in "fb" for n in names}, names


def _bidirectional(x, p, names):
    return T.bidirectional(x, *([p[f"{d}.{n}"] for n in names] for d in "fb"))


def test_bidirectional_gradients_fd():
    rng = Rng(14, "init")
    for cell in ("lstm", "gru"):
        for L in (1, 4):
            raw, names = _bidirectional_params(rng, cell, 3, 2)
            raw["x"] = rng.gaussian_array((L, 3, 2))
            w = Var(rng.gaussian_array((L, 4, 2)))

            def f(p):
                return T.sum_(_bidirectional(p["x"], p, names) * w)

            # gradients carried back over several steps are small, so
            # central differences resolve them to about 1e-6 relative
            fd_ok(f, raw, tol=1e-5)


def _run_bitwise(raw, names, w, layer, dtype=np.float64, x_grad=True):
    """Output and every gradient of ``sum(layer(x, fwd, bwd) * w)`` at
    ``dtype``, as bytes (None for an input without a gradient)."""
    p = {k: Var(v.astype(dtype), requires_grad=k != "x" or x_grad)
         for k, v in raw.items()}
    out = layer(p["x"], *([p[f"{d}.{n}"] for n in names] for d in "fb"))
    backward(T.sum_(out * Var(w.astype(dtype))))
    return [out.value.tobytes()] + [None if p[k].grad is None else p[k].grad.tobytes()
                                    for k in sorted(p)]


def test_bidirectional_equals_two_recurrences_and_concat_bitwise():
    rng = Rng(15, "init")
    for cell in ("lstm", "gru"):
        raw, names = _bidirectional_params(rng, cell, 3, 4)
        raw["x"] = rng.gaussian_array((5, 3, 3))
        w = rng.gaussian_array((5, 8, 3))
        assert (_run_bitwise(raw, names, w, T.bidirectional)
                == _run_bitwise(raw, names, w, _bidirectional_by_steps)), cell


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(B=1, L=3, H=2, n_in=2, cell="lstm", dtype=np.float32, x_grad=True, seed=0)
@example(B=1, L=3, H=2, n_in=2, cell="gru", dtype=np.float32, x_grad=True, seed=0)
@given(B=st.integers(1, 5), L=st.integers(1, 6), H=st.integers(1, 4),
       n_in=st.integers(1, 4), cell=st.sampled_from(["lstm", "gru"]),
       dtype=st.sampled_from([np.float32, np.float64]), x_grad=st.booleans(),
       seed=st.integers(0, 2**16))
def test_bidirectional_equals_per_step_cells_on_any_shape(B, L, H, n_in, cell,
                                                          dtype, x_grad, seed):
    # B = 1 takes BLAS's matrix-vector path in every per-step product
    rng = Rng(seed, "init")
    raw, names = _bidirectional_params(rng, cell, n_in, H)
    raw["x"] = rng.gaussian_array((L, n_in, B))
    w = rng.gaussian_array((L, 2 * H, B))
    got = _run_bitwise(raw, names, w, T.bidirectional, dtype, x_grad)
    assert got == _run_bitwise(raw, names, w, _bidirectional_by_steps, dtype, x_grad)
    assert (got[-1] is None) != x_grad


def _one_step_by_cell(x, fwd, bwd):
    """A one-step bidirectional layer on x [1, n_in, B]: per direction, one
    single-step cell op from zero states, on transposed blocks."""
    halves = []
    for Wx, b, Wh, *bh in (fwd, bwd):
        H, B = Wh.shape[0], x.shape[2]
        zx = _t(_linear_t_by_ops(x, Wx, b)[0])
        h0 = Var(np.zeros((H, B)))
        zh = T.matmul(_t(Wh), h0)
        if bh:
            h = T.gru_cell(zx, _t(zh + T.reshape(bh[0], (-1, 1))), _t(h0))
        else:
            h = T.lstm_cell(zx + _t(zh), _t(h0))[:, :H]
        halves.append(T.reshape(_t(h), (1, H, B)))
    return T.concat(halves, axis=1)


def test_recurrence_of_one_step_equals_cell_bitwise():
    rng = Rng(10, "init")
    for cell in ("lstm", "gru"):
        raw, names = _bidirectional_params(rng, cell, 3, 4)
        raw["x"] = rng.gaussian_array((1, 3, 3))
        w = rng.gaussian_array((1, 8, 3))
        assert (_run_bitwise(raw, names, w, T.bidirectional)
                == _run_bitwise(raw, names, w, _one_step_by_cell)), cell


def test_bidirectional_rejects_mixed_directions():
    rng = Rng(17, "init")
    lstm, lstm_names = _bidirectional_params(rng, "lstm", 3, 2)
    gru, gru_names = _bidirectional_params(rng, "gru", 3, 2)
    x = Var(rng.gaussian_array((2, 3, 3)))
    with pytest.raises(ValueError, match="each direction"):
        T.bidirectional(x, [lstm[f"f.{n}"] for n in lstm_names],
                        [gru[f"b.{n}"] for n in gru_names])


def _traced_bidirectional(x, p, names):
    """A bidirectional layer with the bytes still held after it and the peak
    during it, both as tracemalloc counts them."""
    tracemalloc.start()
    try:
        out = _bidirectional(x, p, names)
        return (out,) + tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_recurrence_under_no_grad_records_nothing():
    rng = Rng(11, "init")
    for cell in ("lstm", "gru"):
        raw, names = _bidirectional_params(rng, cell, 8, 8)
        p = {k: Var(v, requires_grad=True) for k, v in raw.items()}
        frozen = {k: Var(v) for k, v in raw.items()}
        x = Var(rng.gaussian_array((40, 8, 16)))
        out, kept, _ = _traced_bidirectional(x, frozen, names)
        assert not out.requires_grad and out._parents == () and out._vjp is None
        # only the output array outlives the call; the recorded node also
        # keeps every step's residuals
        assert kept < out.value.nbytes + 4096, (cell, kept)
        recorded, kept_recorded, _ = _traced_bidirectional(x, p, names)
        assert recorded._vjp is not None and kept_recorded > 4 * out.value.nbytes


def test_recorded_bidirectional_keeps_no_projection():
    rng = Rng(17, "init")
    # [H, B] blocks a kept step holds per direction: the LSTM's i, f, o, g,
    # c_prev and tanh(c); the GRU's r, u, n and its zh_n rows
    for cell, gates, blocks in (("lstm", 4, 6), ("gru", 3, 4)):
        raw, names = _bidirectional_params(rng, cell, 8, 8)
        p = {k: Var(v, requires_grad=True) for k, v in raw.items()}
        x = Var(rng.gaussian_array((40, 8, 64)))
        out, kept, _ = _traced_bidirectional(x, p, names)
        assert out._vjp is not None
        # out is [L, 2H, B]: the residuals of both directions come to
        # ``blocks`` times its size, one direction's projection [L, G*H, B]
        # to ``gates`` halves of it
        projection = out.value.nbytes // 2 * gates
        assert kept < (1 + blocks) * out.value.nbytes + projection // 2, (cell, kept)


def test_bidirectional_under_no_grad_holds_one_projection():
    rng = Rng(16, "init")
    for cell in ("lstm", "gru"):
        raw, names = _bidirectional_params(rng, cell, 8, 8)
        frozen = {k: Var(v) for k, v in raw.items()}
        x = Var(rng.gaussian_array((60, 8, 32)))
        out, _, peak = _traced_bidirectional(x, frozen, names)
        assert not out.requires_grad and out._parents == () and out._vjp is None
        projection = x.value.nbytes * raw["f.Wx"].shape[1] // 8
        # the output, one direction's projection and small per-step arrays
        assert peak < out.value.nbytes + 1.5 * projection, (cell, peak)


# ---------------------------------------------------------------- dtypes

# Every op with the shapes of its operands; each operand requires a gradient.
_DTYPE_OPS = {
    "add": (lambda a, b: a + b, [(2, 3), (3,)]),
    "sub": (lambda a, b: a - b, [(2, 3), (2, 1)]),
    "mul": (lambda a, b: a * b, [(2, 3), (3,)]),
    "div": (lambda a, b: a / (b * b + 1.0), [(2, 3), (2, 3)]),
    "neg": (lambda a: -a, [(2, 3)]),
    "matmul": (T.matmul, [(2, 2, 3), (3, 4)]),
    "linear": (T.linear, [(2, 3), (3, 4), (4,)]),
    "linear_t": (T.linear_t, [(2, 3, 5), (3, 4), (4,)]),
    "sqrt": (lambda a: T.sqrt(a * a + 1.0), [(2, 3)]),
    "tanh": (T.tanh, [(2, 3)]),
    "sigmoid": (T.sigmoid, [(2, 3)]),
    "relu": (T.relu, [(2, 3)]),
    "softmax": (T.softmax, [(2, 3)]),
    "sum": (lambda a: T.sum_(a, axis=0), [(2, 3)]),
    "mean": (lambda a: T.mean(a, axis=1, keepdims=True), [(2, 3)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "reshape": (lambda a: T.reshape(a, (3, 2)), [(2, 3)]),
    "swapaxes": (lambda a: T.swapaxes(a, 0, 1), [(2, 3)]),
    "take": (lambda a: a[1, ::2], [(2, 3)]),
    "dropout": (lambda a: T.dropout(a, 0.5, Rng(3, "dropout"), True), [(4, 6)]),
    "lstm_cell": (T.lstm_cell, [(2, 8), (2, 2)]),
    "gru_cell": (T.gru_cell, [(2, 6), (2, 6), (2, 2)]),
    "bidirectional_lstm": (lambda x, *p: T.bidirectional(x, p[:3], p[3:]),
                           [(3, 2, 2), (2, 8), (8,), (2, 8)] + [(2, 8), (8,), (2, 8)]),
    "bidirectional_gru": (lambda x, *p: T.bidirectional(x, p[:4], p[4:]),
                          [(3, 2, 2)] + 2 * [(2, 6), (6,), (2, 6), (6,)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_DTYPE_OPS))
def test_op_keeps_its_inputs_dtype(name, dtype):
    op, shapes = _DTYPE_OPS[name]
    rng = Rng(20, "dtype")
    args = [Var(rng.gaussian_array(s).astype(dtype), requires_grad=True)
            for s in shapes]
    out = op(*args)
    assert out.value.dtype == dtype
    # the vjp itself, before ``backward`` would cast a wider gradient down
    for g in out._vjp(np.ones_like(out.value)):
        assert g is None or g.dtype == dtype, name
    backward(T.sum_(out * out))
    for i, a in enumerate(args):
        assert a.grad.dtype == dtype, (name, i)


@pytest.mark.parametrize("value", [np.arange(3), np.array([True, False]),
                                   np.ones(2, dtype=np.float16), 2, [1, 2]])
def test_other_dtypes_enter_the_tape_as_float64(value):
    assert Var(value).value.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_number_takes_the_var_dtype(dtype):
    x = Var(np.array([0.5, 2.0], dtype=dtype), requires_grad=True)
    outs = [x + 1, 1.5 - x, x * 0.1, 3 / x, x / 7.0, 1.0 + 2.0 * x,
            T.mean(x), T.relu(x)]
    assert [o.value.dtype for o in outs] == [dtype] * len(outs)
    backward(T.sum_(T.concat([T.reshape(o, (-1,)) for o in outs], axis=0)))
    assert x.grad.dtype == dtype


def test_mixed_dtypes_compute_wide_and_keep_each_gradient_narrow():
    # NEP 50 (numpy >= 2): a 0-d float64 array promotes a float32 operand;
    # each operand's gradient comes back at its own dtype
    x = Var(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    s = Var(np.array(3.0), requires_grad=True)
    out = x * s
    assert out.value.dtype == np.float64
    backward(T.sum_(out))
    assert x.grad.dtype == np.float32 and s.grad.dtype == np.float64
    npt.assert_array_equal(x.grad, [3.0, 3.0])
    assert s.grad == 3.0
