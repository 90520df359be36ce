"""Central-difference gradient verification.

Compares the tape's analytic gradient against (f(x+eps) - f(x-eps)) / (2 eps)
for every entry of every parameter.  Relative error uses the symmetric
denominator max(|analytic|, |numeric|, floor) so zero gradients do not divide
by zero.  The loss function must be deterministic (run grad checks with
dropout disabled or masks frozen).

Choosing ``floor``: the finite difference itself carries roundoff noise of
roughly ulp-accumulation(|f|) / (2 eps) in absolute terms, so entries whose
true gradient sits below that level produce pure noise no matter how the
implementation behaves.  The floor should sit at or above
(noise magnitude) / (pass threshold); anything smaller reports oracle noise
as gradient error.  Detection power is retained for absolute gradient errors
down to floor x threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from extremecast.errors import NumericError
from extremecast.tensor import Var, backward

DEFAULT_EPS = 1e-5


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str | None
    worst_index: int
    n_entries: int
    per_param: dict = field(default_factory=dict)

    def passed(self, threshold: float = 1e-4) -> bool:
        return self.max_rel_error <= threshold


def grad_check(
    f,
    params: dict[str, np.ndarray],
    eps: float = DEFAULT_EPS,
    floor: float = 1e-8,
) -> GradCheckReport:
    """Check d f / d params for ``f: dict[str, Var] -> scalar Var``.

    ``params`` maps names to float64 arrays; they are copied, never mutated.
    Returns the worst relative error across all parameter entries, where the
    relative error denominator is max(|analytic|, |numeric|, ``floor``).  For
    losses of magnitude O(1) the central difference is only trustworthy down
    to roughly 1e-11 absolute at eps=1e-5, so checks that must resolve a
    1e-4 threshold on such losses should raise ``floor`` to about 1e-6;
    entries whose gradient is genuinely below the floor then count as matches
    unless the implementation is off by more than floor x threshold.
    """
    if not params:
        return GradCheckReport(0.0, None, 0, 0)
    work = {k: Var(v.copy(), requires_grad=True) for k, v in params.items()}
    loss = f(work)
    if not isinstance(loss, Var) or loss.value.size != 1:
        raise ValueError("grad_check loss function must return a scalar Var")
    if not math.isfinite(float(loss.value)):
        raise NumericError("grad_check: loss is non-finite at the base point")
    backward(loss)
    analytic = {
        k: (v.grad if v.grad is not None else np.zeros_like(v.value))
        for k, v in work.items()
    }

    worst = 0.0
    worst_param = None
    worst_index = 0
    per_param: dict[str, float] = {}
    n_entries = 0
    # the difference points run on inputs that require no gradient, so
    # they record nothing
    probe = {k: Var(v.copy()) for k, v in params.items()}
    for name, var in probe.items():
        arr = var.value
        grad = analytic[name]
        pmax = 0.0
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + eps
            lo_hi = float(f(probe).value)
            arr.flat[i] = orig - eps
            lo_lo = float(f(probe).value)
            arr.flat[i] = orig
            if not (math.isfinite(lo_hi) and math.isfinite(lo_lo)):
                raise NumericError(
                    f"grad_check: non-finite loss perturbing {name}[{i}]")
            numeric = (lo_hi - lo_lo) / (2.0 * eps)
            a = float(grad.flat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if rel > pmax:
                pmax = rel
            if rel > worst:
                worst, worst_param, worst_index = rel, name, i
            n_entries += 1
        per_param[name] = pmax
    return GradCheckReport(worst, worst_param, worst_index, n_entries, per_param)
