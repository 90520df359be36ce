"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Var`` wraps a C-order float64 ndarray plus, when gradients are being
recorded, the parent nodes and a vector-Jacobian-product closure.  Calling
``backward`` on a scalar ``Var`` walks the recorded graph once in reverse
topological order and accumulates gradients into ``.grad`` of every node
that requires them.

Every vjp here is hand-written; finite differences in the test suite check
each op independently, so the model-level gradient check stays a genuine
two-route comparison.

Only basic indexing (ints and slices) is supported by ``__getitem__``.
``matmul`` follows numpy broadcasting for stacked matrices and requires both
operands to have ndim >= 2.

Each ``take`` vjp returns a zero array the size of its whole source, so
reading a sequence one step at a time through ``take`` would make backward
cost O(L^2).  ``recurrence`` runs a whole LSTM or GRU direction as one tape
node instead: its forward reads the steps of the input projection as views
and writes every hidden state into one output array, and its single vjp
runs backpropagation through time in one loop.  The step math lives once,
in plain-numpy kernels that the single-step ``lstm_cell`` and ``gru_cell``
ops share, and the vjp adds gradients up in the order of the per-step
composition of those ops, so its results equal that composition bit for
bit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_grad_enabled = True

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (values still computed)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _f64(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to 1-d; keep them 0-d
    if a.ndim and not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a


class Var:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False):
        self.value = _f64(value)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self) -> float:
        return float(self.value.reshape(()))

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"

    # operator sugar; every op lives at module level
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return take(self, key)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _record(value: np.ndarray, parents: tuple, vjp) -> Var:
    # fast construction: op outputs are always fresh float64 ndarrays
    out = Var.__new__(Var)
    out.value = value if isinstance(value, np.ndarray) and value.dtype == np.float64 \
        else _f64(value)
    out.grad = None
    out._parents = ()
    out._vjp = None
    out.requires_grad = False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` to undo numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(root: Var) -> None:
    """Backpropagate from a scalar root; accumulates into ``.grad``."""
    if root.value.size != 1:
        raise ValueError("backward requires a scalar root")
    topo: list[Var] = []
    visited: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for p, g in zip(node._parents, grads):
            if g is None or not p.requires_grad:
                continue
            p.grad = g if p.grad is None else p.grad + g


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return _record(av + bv, (a, b),
                   lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)))


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return _record(av - bv, (a, b),
                   lambda g: (_unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return _record(av * bv, (a, b),
                   lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return _record(av / bv, (a, b),
                   lambda g: (_unbroadcast(g / bv, av.shape),
                              _unbroadcast(-g * av / (bv * bv), bv.shape)))


def neg(a) -> Var:
    a = as_var(a)
    return _record(-a.value, (a,), lambda g: (-g,))


def power(a, p: float) -> Var:
    a = as_var(a)
    av = a.value
    p = float(p)
    return _record(av ** p, (a,), lambda g: (g * p * av ** (p - 1.0),))


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = av @ bv

    def vjp(g):
        ga = g @ np.swapaxes(bv, -1, -2)
        gb = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return _record(out, (a, b), vjp)


def exp(a) -> Var:
    a = as_var(a)
    ev = np.exp(a.value)
    return _record(ev, (a,), lambda g: (g * ev,))


def log(a) -> Var:
    a = as_var(a)
    av = a.value
    return _record(np.log(av), (a,), lambda g: (g / av,))


def sqrt(a) -> Var:
    a = as_var(a)
    sv = np.sqrt(a.value)
    return _record(sv, (a,), lambda g: (g * 0.5 / sv,))


def absolute(a) -> Var:
    a = as_var(a)
    av = a.value
    return _record(np.abs(av), (a,), lambda g: (g * np.sign(av),))


def tanh(a) -> Var:
    a = as_var(a)
    tv = np.tanh(a.value)
    return _record(tv, (a,), lambda g: (g * (1.0 - tv * tv),))


def _sigmoid_value(v: np.ndarray) -> np.ndarray:
    # exp is only ever taken of a non-positive number, so it cannot overflow
    s = 1.0 / (1.0 + np.exp(-np.abs(v)))
    return np.where(v >= 0, s, 1.0 - s)


def sigmoid(a) -> Var:
    """Numerically stable logistic; finite for every finite input."""
    a = as_var(a)
    out = _sigmoid_value(a.value)
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def gelu(a) -> Var:
    """Exact (erf-based) GELU."""
    a = as_var(a)
    v = a.value
    c = 0.5 * (1.0 + erf(v * _INV_SQRT2))
    out = v * c
    pdf = np.exp(-0.5 * v * v) * _INV_SQRT2PI
    return _record(out, (a,), lambda g: (g * (c + v * pdf),))


def softmax(a, axis: int = -1) -> Var:
    """Row-stochastic softmax along ``axis`` with max-subtraction."""
    a = as_var(a)
    v = a.value
    if v.size == 0:
        raise ValueError("softmax of an empty array")
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(y, (a,), vjp)


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, av.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, av.shape).copy(),)

    return _record(out, (a,), vjp)


def mean(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    av = a.value
    if axis is None:
        n = av.size
    else:
        n = av.shape[axis] if isinstance(axis, int) else int(np.prod([av.shape[i] for i in axis]))
    return sum_(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(parts, axis: int = -1) -> Var:
    parts = [as_var(p) for p in parts]
    values = [p.value for p in parts]
    out = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        gm = np.moveaxis(g, axis, 0)
        return tuple(np.moveaxis(gm[offsets[i]:offsets[i + 1]], 0, axis)
                     for i in range(len(parts)))

    return _record(out, tuple(parts), vjp)


def stack(parts, axis: int = 0) -> Var:
    parts = [as_var(p) for p in parts]
    out = np.stack([p.value for p in parts], axis=axis)

    def vjp(g):
        gm = np.moveaxis(g, axis, 0)
        return tuple(gm[i] for i in range(len(parts)))

    return _record(out, tuple(parts), vjp)


def reshape(a, shape) -> Var:
    a = as_var(a)
    orig = a.value.shape
    return _record(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def swapaxes(a, i: int, j: int) -> Var:
    a = as_var(a)
    return _record(np.swapaxes(a.value, i, j), (a,), lambda g: (np.swapaxes(g, i, j),))


def take(a, key) -> Var:
    """Basic indexing (ints, slices, tuples thereof)."""
    a = as_var(a)
    av = a.value
    out = av[key]

    def vjp(g):
        z = np.zeros_like(av)
        z[key] += g
        return (z,)

    return _record(np.array(out, dtype=np.float64, copy=True), (a,), vjp)


def dropout(a: Var, rate: float, rng, training: bool) -> Var:
    """Inverted dropout.

    Consumes ``a.size`` uniforms from ``rng`` only when active (training and
    rate > 0); an entry is kept when its uniform is >= rate and scaled by
    1/(1-rate).  Identity in eval mode or at rate 0.
    """
    if not training or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    mask = (rng.uniform_array(a.value.shape) >= rate) / (1.0 - rate)
    return mul(a, Var(mask))


def _lstm_step(z: np.ndarray, c_prev: np.ndarray):
    """LSTM step kernel: (h, c, residuals for ``_lstm_step_vjp``)."""
    hsz = c_prev.shape[1]
    gates = _sigmoid_value(z[:, : 3 * hsz])
    i = gates[:, :hsz]
    f = gates[:, hsz : 2 * hsz]
    o = gates[:, 2 * hsz :]
    g = np.tanh(z[:, 3 * hsz :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, o, g, c_prev, tc)


def _lstm_step_vjp(gh: np.ndarray, gc: np.ndarray, res):
    """Adjoint of ``_lstm_step`` for gradients (gh, gc) of (h, c):
    (gradient of z, gradient of c_prev)."""
    i, f, o, g, cb, tc = res
    gc = gc + gh * o * (1.0 - tc * tc)
    gz = np.concatenate(
        [
            gc * g * i * (1.0 - i),
            gc * cb * f * (1.0 - f),
            gh * tc * o * (1.0 - o),
            gc * i * (1.0 - g * g),
        ],
        axis=1,
    )
    return gz, gc * f


def lstm_cell(z: Var, c_prev: Var) -> Var:
    """One LSTM cell step, fused into a single tape node.

    ``z`` holds the four pre-activation gate blocks ``[i | f | o | g]``
    laid out side by side ([B, 4H]); ``c_prev`` is the previous cell state
    ([B, H]).  Returns ``[h | c]`` concatenated ([B, 2H]) where::

        i, f, o = sigmoid(z[:, :3H]);  g = tanh(z[:, 3H:])
        c = f * c_prev + i * g
        h = o * tanh(c)

    The adjoint is hand-derived: with incoming gradient split as
    (gh, gc_out), the cell-state gradient is gc = gc_out + gh*o*(1-tanh(c)^2)
    and the gate pre-activation gradients follow the usual sigmoid/tanh
    chain rules.
    """
    z = as_var(z)
    c_prev = as_var(c_prev)
    hsz = c_prev.value.shape[1]
    h, c, res = _lstm_step(z.value, c_prev.value)
    return _record(np.concatenate([h, c], axis=1), (z, c_prev),
                   lambda grad: _lstm_step_vjp(grad[:, :hsz], grad[:, hsz:], res))


def _gru_step(zx: np.ndarray, zh: np.ndarray, h_prev: np.ndarray):
    """GRU step kernel: (h, residuals for ``_gru_step_vjp``)."""
    hsz = h_prev.shape[1]
    ru = _sigmoid_value(zx[:, : 2 * hsz] + zh[:, : 2 * hsz])
    r = ru[:, :hsz]
    u = ru[:, hsz:]
    zh_n = zh[:, 2 * hsz :]
    n = np.tanh(zx[:, 2 * hsz :] + r * zh_n)
    return (1.0 - u) * n + u * h_prev, (r, u, n, zh_n, h_prev)


def _gru_step_vjp(grad: np.ndarray, res):
    """Adjoint of ``_gru_step``: gradients of (zx, zh, h_prev)."""
    r, u, n, zh_n, pb = res
    gn = grad * (1.0 - u)
    gu = grad * (pb - n)
    an = gn * (1.0 - n * n)
    gr = an * zh_n
    ar = gr * r * (1.0 - r)
    au = gu * u * (1.0 - u)
    gzx = np.concatenate([ar, au, an], axis=1)
    gzh = np.concatenate([ar, au, an * r], axis=1)
    return gzx, gzh, grad * u


def gru_cell(zx: Var, zh: Var, h_prev: Var) -> Var:
    """One GRU cell step, fused into a single tape node.

    ``zx`` = W_x x_t + b_x and ``zh`` = W_h h_{t-1} + b_h, each holding the
    three gate blocks ``[r | z | n]`` side by side ([B, 3H]); ``h_prev`` is
    [B, H].  Returns the new hidden state::

        r = sigmoid(zx_r + zh_r);  u = sigmoid(zx_z + zh_z)
        n = tanh(zx_n + r * zh_n)
        h = (1 - u) * n + u * h_prev

    (reset gate applied to the hidden projection of the candidate, the
    standard "v3" GRU variant).  The adjoint is hand-derived.
    """
    zx = as_var(zx)
    zh = as_var(zh)
    h_prev = as_var(h_prev)
    h, res = _gru_step(zx.value, zh.value, h_prev.value)
    return _record(h, (zx, zh, h_prev), lambda grad: _gru_step_vjp(grad, res))


def recurrence(cell: str, zx, Wh, bh=None, reverse: bool = False) -> Var:
    """One direction of an LSTM or GRU layer as a single tape node.

    ``zx`` [B, L, G*H] holds every step's input projection, input bias
    included; ``Wh`` [H, G*H] is the recurrent weight and ``bh`` the GRU's
    hidden bias (``None`` for the LSTM).  From zero states, step t (t = 0..L-1,
    or L-1..0 when ``reverse``) is ``lstm_cell(zx_t + h Wh, c)`` or
    ``gru_cell(zx_t, h Wh + bh, h)``; returns the hidden states [B, L, H].
    Per-step residuals are kept only when the node is recorded.

    The vjp sums as that per-step composition does on the tape, so results
    equal it bit for bit: ``Wh`` and ``bh`` terms fold left in backward step
    order from the first term, the zero-state step included; the ``zx``
    gradient adds each step onto zeros; a GRU state gradient is (output
    gradient + direct term) + term through ``Wh``.
    """
    zx, Wh = as_var(zx), as_var(Wh)
    lstm = cell == "lstm"
    if cell not in ("lstm", "gru") or lstm != (bh is None):
        raise ValueError("recurrence takes cell 'lstm' without bh or 'gru' with bh")
    parents = (zx, Wh) if lstm else (zx, Wh, as_var(bh))
    xv, W = zx.value, Wh.value
    B, L, _ = xv.shape
    hsz = W.shape[0]
    keep = _grad_enabled and any(p.requires_grad for p in parents)
    out = np.empty((B, L, hsz))
    h = c = np.zeros((B, hsz))
    steps = []                                    # (t, h_prev, residuals)
    for t in (range(L - 1, -1, -1) if reverse else range(L)):
        h_prev = h
        if lstm:
            h, c, res = _lstm_step(xv[:, t] + h_prev @ W, c)
        else:
            h, res = _gru_step(xv[:, t], h_prev @ W + parents[2].value, h_prev)
        out[:, t] = h
        if keep:
            steps.append((t, h_prev, res))

    def vjp(G):
        gzx = np.zeros_like(xv)
        gW = gb = ga = None
        dc = np.zeros((B, hsz))
        for k in range(len(steps) - 1, -1, -1):
            t, h_prev, res = steps[k]
            if lstm:
                gh = G[:, t] if ga is None else G[:, t] + ga
                gz, dc = _lstm_step_vjp(gh, dc, res)
                gzh = gz
            else:
                gh = G[:, t] if ga is None else (G[:, t] + du) + ga
                gz, gzh, du = _gru_step_vjp(gh, res)
                s = gzh.sum(axis=0)
                gb = s if gb is None else gb + s
            gzx[:, t] += gz
            term = h_prev.T @ gzh
            gW = term if gW is None else gW + term
            if k:
                ga = gzh @ W.T
        return (gzx, gW) if lstm else (gzx, gW, gb)

    return _record(out, parents, vjp)


def check_finite(a, stage: str):
    """Raise NumericError naming ``stage`` when any entry is non-finite."""
    from .errors import NumericError

    v = a.value if isinstance(a, Var) else np.asarray(a)
    if not np.all(np.isfinite(v)):
        raise NumericError(f"non-finite values produced at stage '{stage}'")
    return a
