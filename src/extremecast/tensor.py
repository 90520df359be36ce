"""Reverse-mode automatic differentiation over float32 or float64 numpy
arrays.

A ``Var`` wraps a C-order ndarray plus, when it was recorded, the parent
nodes and a vector-Jacobian-product closure.  One rule decides recording,
with no global switch: an op goes on the tape exactly when one of its
inputs requires a gradient (``_recording``), so ``model.predict`` records
nothing, as none of its inputs requires one.  Calling ``backward`` on a
scalar ``Var`` walks the recorded graph once in reverse topological order,
accumulates gradients into ``.grad`` of every leaf that requires them, and
frees each recorded node it has passed, so a graph can be walked once.

The tape keeps its inputs' dtype: a float32 or float64 array stays as it
is, anything else becomes float64.  Ops follow numpy 2's promotion (NEP 50),
fresh buffers take their operands' dtype, and a plain Python number combined
with a ``Var`` takes that ``Var``'s dtype, so module constants are Python
floats.  An op that mixes float32 with float64 computes in float64; a node's
gradient always has its value's dtype, cast in ``backward`` where a vjp
gives a wider one.

Every vjp here is hand-written; finite differences in the test suite check
each op independently, so the model-level gradient check stays a genuine
two-route comparison.

Only basic indexing (ints and slices) is supported by ``__getitem__``.
``matmul`` follows numpy broadcasting for stacked matrices and requires both
operands to have ndim >= 2.

``linear`` is ``x @ W + b`` as one node: the bias goes into the fresh
product in place.  ``matmul``, ``linear`` and ``linear_t`` compute no
gradient for an operand that does not require one (the raw input windows,
constants).

``softmax`` takes its row max by halving the axis with ``np.maximum``,
which gives the same maximum as ``ndarray.max`` in about half the time on
short rows.

Recurrent layers run batch-minor: a sequence is a [L, F, B] (time, feature,
batch) stack, so each step works on contiguous [F, B] blocks and every gate
is a contiguous row block of one [G*H, B] array.  ``linear_t`` is the
affine map of that layout, ``Wᵀ x + b`` as one node.  ``bidirectional``
takes [L, n_in, B] and returns [L, 2H, B], running a whole bidirectional
LSTM or GRU layer as one tape node whose parents are the input and the
parameters: it projects each direction's steps with ``linear_t``'s math and
frees the projection after that direction's scan, the scan computes
``Whᵀ h`` per step and writes every hidden state straight into the output,
and the single vjp runs backpropagation through time in one loop per
direction, then ``linear_t``'s gradient math on the projection.  The step
math lives once, in plain-numpy kernels on [G*H, B] blocks whose
logistic-gate rows arrive halved (below).  The single-step ``lstm_cell`` and
``gru_cell`` ops keep the batch-major [B, G*H] layout: each halves the
logistic columns of a copy of its gate input and calls the kernel on
transposed views, so it writes none of its inputs.  The BPTT adds gradients up in the
order of the per-step composition of those ops in the batch-minor
orientation, so its results equal that composition bit for bit.  Callers
convert layouts only at the ends of a stack.

The logistic has one definition, ``0.5 * tanh(0.5 * x) + 0.5``.
``_sigmoid_value`` computes it in place in one fresh array for the
``sigmoid`` op, and its last two operations, ``_logistic_tail``, finish the
LSTM and GRU gate blocks.  It lies within 2.2e-16 of ``1 / (1 + exp(-x))``;
below about 1e-8 it loses relative precision, and it is exactly 0 for x
below about -37.

The step kernels take the logistic gates' pre-activations already halved:
rows i, f, o of the LSTM's [i | f | o | g] block and rows r, u of the GRU's
[r | u | n] blocks.  The LSTM step then makes one in-place ``tanh`` over its
whole [4H, B] block and applies the tail to the first 3H rows; the GRU step
makes no multiplication of its own before its ``tanh``.  ``bidirectional``
provides the halving once per call: it scales the logistic-gate columns of
``Wx``, ``b``/``bx``, ``Wh`` and ``bh`` by 0.5 into fresh arrays.  A power
of two commutes with rounding, so every product, FMA and sum of the
projection and of ``Whᵀ h`` comes out as exactly 0.5 times its unscaled
value, and each gate keeps the bits of ``_sigmoid_value`` on the unscaled
pre-activation.  The exception is the subnormal range: where a halved
weight, a partial product or a partial sum falls below the smallest normal
number (about 1.2e-38 in float32, 2.2e-308 in float64), halving rounds and
a gate's last bit can move.  The vjps read gate values, never the
pre-activations, so the backward uses the unscaled weights.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError


def _is_tape_dtype(a: np.ndarray) -> bool:
    return a.dtype.char in "fd"  # float32, float64


def _tape_array(x) -> np.ndarray:
    """``x`` as a C-order float32 or float64 array; other dtypes become
    float64."""
    a = np.asarray(x)
    if not _is_tape_dtype(a):
        a = a.astype(np.float64)
    # ascontiguousarray would promote 0-d scalars to 1-d; keep them 0-d
    if a.ndim and not a.flags.c_contiguous:
        a = np.ascontiguousarray(a)
    return a


class Var:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False):
        self.value = _tape_array(value)
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

    def __getitem__(self, key):
        return take(self, key)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _pair(a, b) -> tuple[Var, Var]:
    """Both operands of a binary op as ``Var``s; a Python number takes the
    other operand's dtype (NEP 50's weak scalar)."""
    if isinstance(a, Var) and isinstance(b, (int, float)):
        return a, Var(np.asarray(b, dtype=a.value.dtype))
    if isinstance(b, Var) and isinstance(a, (int, float)):
        return Var(np.asarray(a, dtype=b.value.dtype)), b
    return as_var(a), as_var(b)


def _recording(parents) -> bool:
    """Whether an op over ``parents`` goes on the tape."""
    return any(p.requires_grad for p in parents)


def _record(value: np.ndarray, parents: tuple, vjp) -> Var:
    # fast construction: op outputs are fresh float32 or float64 ndarrays
    out = Var.__new__(Var)
    out.value = value if isinstance(value, np.ndarray) and _is_tape_dtype(value) \
        else _tape_array(value)
    out.grad = None
    out._parents = ()
    out._vjp = None
    out.requires_grad = False
    if _recording(parents):
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


def _freed(g=None):
    """The vjp of a node whose graph an earlier ``backward`` freed."""
    raise RuntimeError("backward reached a node whose graph an earlier backward "
                       "freed; record the forward pass again")


def backward(root: Var) -> None:
    """Backpropagate from a scalar root; accumulates into ``.grad``.

    The walk frees the graph as it goes: once a recorded node has passed its
    gradient on, its ``grad`` is dropped and its ``_parents`` and ``_vjp``
    give way to ``()`` and ``_freed``, so each gradient, closure and value
    dies as soon as nothing later in the walk needs it.  Leaves keep their
    ``.grad``.  A later ``backward`` that reaches a freed node raises
    ``RuntimeError`` before any gradient moves.
    """
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
        if node._vjp is _freed:
            _freed()  # raises before any gradient moves
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    while topo:
        node = topo.pop()
        vjp, grad, parents = node._vjp, node.grad, node._parents
        if vjp is None:
            continue  # a leaf keeps its gradient
        node.grad, node._vjp, node._parents = None, _freed, ()
        if grad is None:
            continue
        for p, g in zip(parents, vjp(grad)):
            if g is None or not p.requires_grad:
                continue
            if g.dtype != p.value.dtype:
                g = g.astype(p.value.dtype)
            p.grad = g if p.grad is None else p.grad + g


def add(a, b) -> Var:
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    return _record(av + bv, (a, b),
                   lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)))


def sub(a, b) -> Var:
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    return _record(av - bv, (a, b),
                   lambda g: (_unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)))


def mul(a, b) -> Var:
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    return _record(av * bv, (a, b),
                   lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))


def div(a, b) -> Var:
    a, b = _pair(a, b)
    av, bv = a.value, b.value
    return _record(av / bv, (a, b),
                   lambda g: (_unbroadcast(g / bv, av.shape),
                              _unbroadcast(-g * av / (bv * bv), bv.shape)))


def neg(a) -> Var:
    a = as_var(a)
    return _record(-a.value, (a,), lambda g: (-g,))


def _matmul_grads(g: np.ndarray, a: Var, b: Var) -> tuple:
    """Gradients of ``a @ b`` for the operands that require one, None for
    the others."""
    av, bv = a.value, b.value
    ga = _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape) if a.requires_grad else None
    gb = _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape) if b.requires_grad else None
    return ga, gb


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    return _record(a.value @ b.value, (a, b), lambda g: _matmul_grads(g, a, b))


def linear(x, W, b) -> Var:
    """``x @ W + b`` as one tape node.

    The bias is added in place into the fresh product, so no second
    output-sized array is made; values and gradients equal those of
    ``matmul`` then ``add`` bit for bit.
    """
    x, W, b = as_var(x), as_var(W), as_var(b)
    if x.ndim < 2 or W.ndim < 2:
        raise ValueError("linear operands x and W must have ndim >= 2")
    out = x.value @ W.value
    out += b.value
    return _record(out, (x, W, b),
                   lambda g: _matmul_grads(g, x, W) + (_unbroadcast(g, b.value.shape),))


def linear_t(x, W, b) -> Var:
    """``Wᵀ x + b`` on a batch-minor stack, [..., n_in, B] -> [..., n_out, B],
    as one tape node.

    ``W`` is [n_in, n_out] as for ``linear``; the bias is added to each
    column in place.  Values and gradients equal those of
    ``matmul(swapaxes(W, 0, 1), x) + reshape(b, (-1, 1))`` bit for bit; no
    gradient is computed for ``x`` when it does not require one.
    """
    x, W, b = as_var(x), as_var(W), as_var(b)
    if x.ndim < 2 or W.ndim != 2:
        raise ValueError("linear_t takes x with ndim >= 2 and a 2-d W")
    return _record(_linear_t_value(x.value, W.value, b.value), (x, W, b),
                   lambda g: _linear_t_grads(g, x, W, b))


def _linear_t_value(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = W.T @ x
    out += b[:, None]
    return out


def _linear_t_grads(g: np.ndarray, x: Var, W: Var, b: Var) -> tuple:
    """Gradients of ``linear_t(x, W, b)`` for the output gradient ``g``; None
    for an ``x`` or ``W`` that requires none."""
    gx = W.value @ g if x.requires_grad else None
    gW = None
    if W.requires_grad:
        gW = np.ascontiguousarray(
            _unbroadcast(g @ np.swapaxes(x.value, -1, -2), W.value.T.shape).T)
    return gx, gW, _unbroadcast(g, (W.value.shape[1], 1)).reshape(b.value.shape)


def sqrt(a) -> Var:
    a = as_var(a)
    sv = np.sqrt(a.value)
    return _record(sv, (a,), lambda g: (g * 0.5 / sv,))


def tanh(a) -> Var:
    a = as_var(a)
    tv = np.tanh(a.value)
    return _record(tv, (a,), lambda g: (g * (1.0 - tv * tv),))


def _logistic_tail(t: np.ndarray) -> np.ndarray:
    """``0.5 * t + 0.5`` in place: the logistic of x from t = tanh(0.5 * x)."""
    t *= 0.5
    t += 0.5
    return t


def _sigmoid_value(v: np.ndarray, out=None) -> np.ndarray:
    # the out= keeps a 0-d input an array, so the in-place tanh accepts it;
    # ``out`` may be ``v`` itself
    s = np.multiply(v, 0.5, out=np.empty_like(v) if out is None else out)
    return _logistic_tail(np.tanh(s, out=s))


def sigmoid(a) -> Var:
    """Logistic as ``0.5 * tanh(0.5 * x) + 0.5``, in one fresh array.

    Within 2.2e-16 of ``1 / (1 + exp(-x))`` everywhere, monotone, inside
    [0, 1] and finite for every finite input, with no overflow.  Below about
    1e-8 the result loses relative precision (it is exactly 0 for x below
    about -37); the vjp ``out * (1 - out)`` is then 0 as well.
    """
    a = as_var(a)
    out = _sigmoid_value(a.value)
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a) -> Var:
    """``max(x, 0)``; the vjp passes the gradient where x > 0, and 0 at the
    kink."""
    a = as_var(a)
    v = a.value
    return _record(np.maximum(v, 0.0), (a,), lambda g: (g * (v > 0),))


def _max_keepdims(v: np.ndarray, axis: int) -> np.ndarray:
    """``v.max(axis=axis, keepdims=True)`` by halving ``axis`` with
    ``np.maximum``, about twice as fast on short rows.  A maximum is exact in
    any order, so the result is the same, NaN included, up to the sign of a
    zero maximum, which ``softmax``'s ``exp`` removes."""
    axis = axis % v.ndim
    n = v.shape[axis]

    def part(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)

    m = v
    while n > 1:
        half = n // 2
        nxt = np.maximum(m[part(0, half)], m[part(half, 2 * half)])
        if n % 2:
            first = nxt[part(0, 1)]
            np.maximum(first, m[part(n - 1, n)], out=first)
        m, n = nxt, half
    return m[part(0, 1)]


def softmax(a, axis: int = -1) -> Var:
    """Row-stochastic softmax along ``axis`` with max-subtraction."""
    a = as_var(a)
    v = a.value
    if v.size == 0:
        raise ValueError("softmax of an empty array")
    y = v - _max_keepdims(v, axis)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

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

    return _record(np.array(out, dtype=av.dtype, copy=True), (a,), vjp)


def dropout(a: Var, rate: float, rng, training: bool) -> Var:
    """Inverted dropout.

    Consumes ``a.size`` uniforms from ``rng`` only when active (training and
    rate > 0), and raises ``ConfigError`` when active without a stream; an
    entry is kept when its uniform is >= rate and scaled by 1/(1-rate).
    Identity in eval mode or at rate 0.
    """
    if not training or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rng is None:
        raise ConfigError("train-mode forward with dropout needs a dropout stream")
    mask = (rng.uniform_array(a.value.shape) >= rate) / (1.0 - rate)
    return mul(a, Var(mask.astype(a.value.dtype, copy=False)))


def _halve_columns(a: np.ndarray, n: int) -> np.ndarray:
    """A copy of ``a`` with its first ``n`` columns (last axis) times 0.5."""
    a = a.copy()
    a[..., :n] *= 0.5
    return a


def _lstm_step(z: np.ndarray, c_prev: np.ndarray, out=None):
    """LSTM step kernel on [gates*H, B] blocks: (h, c, residuals for
    ``_lstm_step_vjp``).  ``z`` is the [i | f | o | g] pre-activation block
    with rows i, f, o halved; it is overwritten with the gate values (one
    ``tanh`` over the whole block, then the logistic tail on the first 3H
    rows) and kept as a residual.  ``h`` is written into ``out`` when one is
    given."""
    hsz = c_prev.shape[0]
    np.tanh(z, out=z)
    _logistic_tail(z[: 3 * hsz])
    i = z[:hsz]
    f = z[hsz : 2 * hsz]
    o = z[2 * hsz : 3 * hsz]
    g = z[3 * hsz :]
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return np.multiply(o, tc, out=out), c, (z, c_prev, tc)


def _lstm_step_vjp(gh: np.ndarray, gc: np.ndarray, res):
    """Adjoint of ``_lstm_step`` for gradients (gh, gc) of (h, c):
    (gradient of the unhalved z, gradient of c_prev), on [gates*H, B]
    blocks.  The i, f, o rows are (gc*g, gc*c_prev, gh*tanh(c)) times the
    gates, times one minus the gates, each as one [3H, B] block."""
    act, cb, tc = res
    hsz = cb.shape[0]
    gates = act[: 3 * hsz]
    i = act[:hsz]
    f = act[hsz : 2 * hsz]
    o = act[2 * hsz : 3 * hsz]
    g = act[3 * hsz :]
    gc = gc + gh * o * (1.0 - tc * tc)
    gz = np.empty(act.shape, dtype=gc.dtype)
    np.multiply(gc, g, out=gz[:hsz])
    np.multiply(gc, cb, out=gz[hsz : 2 * hsz])
    np.multiply(gh, tc, out=gz[2 * hsz : 3 * hsz])
    block = gz[: 3 * hsz]
    block *= gates
    block *= 1.0 - gates
    np.multiply(gc * i, 1.0 - g * g, out=gz[3 * hsz :])
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
    chain rules.  The step kernels run on transposed views of a copy of
    ``z`` with its i, f, o columns halved, so ``z`` is not written.
    """
    z = as_var(z)
    c_prev = as_var(c_prev)
    hsz = c_prev.value.shape[1]
    h, c, res = _lstm_step(_halve_columns(z.value, 3 * hsz).T, c_prev.value.T)
    return _record(np.concatenate([h, c]).T, (z, c_prev),
                   lambda grad: tuple(g.T for g in _lstm_step_vjp(
                       grad[:, :hsz].T, grad[:, hsz:].T, res)))


def _gru_step(zx: np.ndarray, zh: np.ndarray, h_prev: np.ndarray, out=None):
    """GRU step kernel on [gates*H, B] blocks whose r and u rows arrive
    halved, in ``zx`` and ``zh`` alike: (h, residuals for ``_gru_step_vjp``).
    Neither input is written.  ``h`` is written into ``out`` when one is
    given."""
    hsz = h_prev.shape[0]
    ru = zx[: 2 * hsz] + zh[: 2 * hsz]
    _logistic_tail(np.tanh(ru, out=ru))
    r = ru[:hsz]
    u = ru[hsz:]
    zh_n = zh[2 * hsz :]
    n = r * zh_n
    n += zx[2 * hsz :]
    np.tanh(n, out=n)
    h = np.multiply(u, h_prev, out=out)
    h += (1.0 - u) * n
    return h, (ru, n, zh_n, h_prev)


def _gru_step_vjp(grad: np.ndarray, res):
    """Adjoint of ``_gru_step``: gradients of (the unhalved zx, zh, h_prev),
    on [gates*H, B] blocks.  The r and u rows are (grad*(1-u)*(1-n^2)*zh_n,
    grad*(h_prev-n)) times [r; u], times 1 - [r; u], as one [2H, B] block."""
    ru, n, zh_n, pb = res
    hsz = n.shape[0]
    one_minus = 1.0 - ru
    gzx = np.empty((3 * hsz,) + n.shape[1:], dtype=grad.dtype)
    an = np.multiply(grad * one_minus[hsz:], 1.0 - n * n, out=gzx[2 * hsz :])
    np.multiply(an, zh_n, out=gzx[:hsz])
    np.multiply(grad, pb - n, out=gzx[hsz : 2 * hsz])
    block = gzx[: 2 * hsz]
    block *= ru
    block *= one_minus
    gzh = gzx.copy()
    np.multiply(an, ru[:hsz], out=gzh[2 * hsz :])
    return gzx, gzh, grad * ru[hsz:]


def gru_cell(zx: Var, zh: Var, h_prev: Var) -> Var:
    """One GRU cell step, fused into a single tape node.

    ``zx`` = W_x x_t + b_x and ``zh`` = W_h h_{t-1} + b_h, each holding the
    three gate blocks ``[r | z | n]`` side by side ([B, 3H]); ``h_prev`` is
    [B, H].  Returns the new hidden state::

        r = sigmoid(zx_r + zh_r);  u = sigmoid(zx_z + zh_z)
        n = tanh(zx_n + r * zh_n)
        h = (1 - u) * n + u * h_prev

    (reset gate applied to the hidden projection of the candidate, the
    standard "v3" GRU variant).  The adjoint is hand-derived.  The step
    kernels run on transposed views of copies of ``zx`` and ``zh`` with
    their r and u columns halved, so no input is written.
    """
    zx = as_var(zx)
    zh = as_var(zh)
    h_prev = as_var(h_prev)
    n = 2 * h_prev.value.shape[1]
    h, res = _gru_step(_halve_columns(zx.value, n).T,
                       _halve_columns(zh.value, n).T, h_prev.value.T)
    return _record(h.T, (zx, zh, h_prev),
                   lambda grad: tuple(g.T for g in _gru_step_vjp(grad.T, res)))


def _scan(zx: np.ndarray, W: np.ndarray, bh, reverse: bool, out: np.ndarray,
          keep: bool) -> list:
    """Run one direction from zero states over the input projection ``zx``
    [L, G*H, B] with its logistic-gate rows halved, as are those of ``W``
    and ``bh`` (the module docstring's halving rule), writing step t's
    hidden state straight into ``out[t]`` (``out`` is a [L, H, B] view whose
    [H, B] blocks are C-contiguous).
    ``bh`` is the GRU's hidden bias as a [G*H, 1] column, None for the LSTM.
    Returns the (t, h_prev, residuals) of every step when ``keep``, else an
    empty list.  No residual refers to ``zx``, and a kept GRU step holds a
    copy of its ``zh_n`` rows rather than a view that pins all of ``z``."""
    WT = W.T
    h = c = np.zeros(out.shape[1:], dtype=out.dtype)
    steps = []
    for t in (range(len(zx) - 1, -1, -1) if reverse else range(len(zx))):
        h_prev = h
        z = WT @ h_prev
        if bh is None:
            z += zx[t]
            h, c, res = _lstm_step(z, c, out[t])
        else:
            z += bh
            h, res = _gru_step(zx[t], z, h_prev, out[t])
            if keep:
                ru, n, zh_n, _ = res
                res = (ru, n, zh_n.copy(), h_prev)
        if keep:
            steps.append((t, h_prev, res))
    return steps


def _bptt(steps: list, G: np.ndarray, xshape: tuple, W: np.ndarray, lstm: bool) -> tuple:
    """Backpropagation through time over the steps ``_scan`` kept, for the
    output gradient ``G`` [L, H, B]: gradients of (zx, Wh), plus bh for the
    GRU.

    Sums run as the per-step composition of cell ops does on the tape, so
    results equal it bit for bit: ``Wh`` and ``bh`` terms fold left in
    backward step order from the first term, the zero-state step included;
    the ``zx`` gradient adds each step onto zeros; a GRU state gradient is
    (output gradient + term through ``Wh``) + direct term.
    """
    gzx = np.zeros(xshape, dtype=G.dtype)
    gWT = gb = ga = None
    dc = np.zeros(G.shape[1:], dtype=G.dtype)
    for k in range(len(steps) - 1, -1, -1):
        t, h_prev, res = steps[k]
        if lstm:
            gh = G[t] if ga is None else G[t] + ga
            gz, dc = _lstm_step_vjp(gh, dc, res)
            gzh = gz
        else:
            gh = G[t] if ga is None else (G[t] + ga) + du
            gz, gzh, du = _gru_step_vjp(gh, res)
            s = gzh.sum(axis=1)
            gb = s if gb is None else gb + s
        gzx[t] += gz
        term = gzh @ h_prev.T
        gWT = term if gWT is None else gWT + term
        if k:
            ga = W @ gzh
    gW = np.ascontiguousarray(gWT.T)
    return (gzx, gW) if lstm else (gzx, gW, gb)


def bidirectional(x, fwd, bwd) -> Var:
    """A bidirectional LSTM or GRU layer on a batch-minor stack, [L, n_in, B]
    -> [L, 2H, B], as one recurrent tape node.

    ``fwd`` and ``bwd`` hold each direction's parameters, and their count
    names the cell: (Wx, b, Wh) for the LSTM, (Wx, bx, Wh, bh) for the GRU.
    With the input projection zx = ``Wxᵀ x + b`` (``linear_t``'s value) and
    zero initial states h, c [H, B], step t (t = 0..L-1 forward, L-1..0
    backward) is the cell's step kernel on ``zx[t] + Whᵀ h`` (LSTM) or on
    ``zx[t]`` and ``Whᵀ h + bh`` (GRU): every gate block is a contiguous
    [H, B] row block, and ``lstm_cell`` / ``gru_cell`` on the transposed
    blocks compute the same bits.  Each direction's step math runs on fresh
    copies of its parameters whose logistic-gate columns are halved (the
    module docstring's halving rule); no input array is written.  The
    forward direction, then the backward one, is projected and scanned,
    writing its hidden states straight into its half of the output, forward
    half first.  A direction's projection is freed before the next one is
    made, recorded or not: no vjp reads it.

    The node's parents are ``(x, *fwd, *bwd)``.  Per-step residuals are kept
    only when the node is recorded.  The vjp feeds each direction's BPTT its
    half of the output gradient and the unscaled ``Wh``, and passes the
    projection's gradient through ``linear_t``'s gradient math; the input
    gradient is the forward direction's term plus the backward one's.
    Values and gradients equal those of ``linear_t`` nodes feeding a
    recurrence bit for bit, outside the subnormal range.
    """
    x = as_var(x)
    dirs = [[as_var(p) for p in ps] for ps in (fwd, bwd)]
    if len(dirs[0]) not in (3, 4) or len(dirs[1]) != len(dirs[0]):
        raise ValueError("each direction takes (Wx, b, Wh) for an LSTM "
                         "or (Wx, bx, Wh, bh) for a GRU")
    lstm = len(dirs[0]) == 3
    hsz = dirs[0][2].value.shape[0]
    n_logistic = (3 if lstm else 2) * hsz
    parents = (x, *dirs[0], *dirs[1])
    keep = _recording(parents)
    L, _, B = x.shape
    out = np.empty((L, 2 * hsz, B), dtype=np.result_type(*(p.value for p in parents)))
    scans = []
    for d, ps in enumerate(dirs):
        Wx, b, Wh, *bh = (_halve_columns(p.value, n_logistic) for p in ps)
        zx = _linear_t_value(x.value, Wx, b)
        steps = _scan(zx, Wh, bh[0][:, None] if bh else None,
                      d == 1, out[:, d * hsz:(d + 1) * hsz], keep)
        scans.append((steps, zx.shape))
        del zx  # before the next direction's projection is made

    def vjp(G):
        gx, grads = None, []
        for d, (steps, shape) in enumerate(scans):
            Wx, b, Wh = dirs[d][:3]
            gzx, *rec = _bptt(steps, G[:, d * hsz:(d + 1) * hsz], shape, Wh.value, lstm)
            gxd, gWx, gb = _linear_t_grads(gzx, x, Wx, b)
            if gxd is not None:
                gx = gxd if gx is None else gx + gxd
            grads += [gWx, gb, *rec]
        return (gx, *grads)

    return _record(out, parents, vjp)


def check_finite(a, stage: str):
    """Raise NumericError naming ``stage`` when any entry is non-finite."""
    v = a.value if isinstance(a, Var) else np.asarray(a)
    if not np.all(np.isfinite(v)):
        raise NumericError(f"non-finite values produced at stage '{stage}'")
    return a
