import numpy as np
import pytest

from extremecast import tensor as T
from extremecast.errors import NumericError
from extremecast.rng import Rng
from extremecast.tensor import Var
from gradcheck import grad_check


def test_quadratic_passes():
    x = Rng(0, "init").gaussian_array((5, 3))

    def f(p):
        return T.sum_(p["x"] * p["x"])

    report = grad_check(f, {"x": x})
    assert report.passed(1e-7)
    assert report.n_entries == 15
    assert report.worst_param == "x"


def test_deliberately_wrong_gradient_is_flagged():
    # op whose value is x^2 but whose recorded gradient is 4x (factor 2 off)
    x = np.array([1.0, 2.0, -3.0])

    def f(p):
        v = p["x"]
        out = T._record(v.value ** 2, (v,), lambda g: (g * 4.0 * v.value,))
        return T.sum_(out)

    report = grad_check(f, {"x": x})
    assert abs(report.max_rel_error - 0.5) < 1e-3


def test_sign_error_is_flagged():
    x = np.array([0.7, -1.2])

    def f(p):
        v = p["x"]
        out = T._record(np.sin(v.value), (v,), lambda g: (-g * np.cos(v.value),))
        return T.sum_(out)

    assert grad_check(f, {"x": x}).max_rel_error > 1.0


def test_floor_sets_smallest_resolvable_error():
    # Value ignores x (numeric gradient exactly 0) while the tape records a
    # tiny bogus gradient, so |analytic - numeric| = bias with both sides
    # under any reasonable floor.
    x = np.array([0.5])

    def make_f(bias):
        def f(p):
            v = p["x"]
            out = T._record(np.zeros_like(v.value), (v,), lambda g: (g * bias,))
            return T.sum_(out)

        return f

    # floor=1e-6 resolves absolute errors down to floor x threshold = 1e-10:
    # a 1e-11 discrepancy counts as a match, a 1e-9 one is still flagged.
    assert grad_check(make_f(1e-11), {"x": x}, floor=1e-6).max_rel_error <= 1e-4
    assert grad_check(make_f(1e-9), {"x": x}, floor=1e-6).max_rel_error > 1e-4
    # The default floor is stricter and flags even the 1e-11 discrepancy.
    assert grad_check(make_f(1e-11), {"x": x}).max_rel_error > 1e-4


def test_empty_params():
    report = grad_check(lambda p: Var(0.0), {})
    assert report.max_rel_error == 0.0 and report.n_entries == 0


def test_nonfinite_perturbed_loss_names_parameter():
    x = np.array([1e-7])  # x - eps goes negative, sqrt -> nan

    def f(p):
        return T.sum_(T.sqrt(p["x"]))

    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="x"):
        grad_check(f, {"x": x}, eps=1e-5)


def test_params_not_mutated():
    x = np.array([1.0, 2.0])
    snapshot = x.copy()

    def f(p):
        return T.sum_(p["x"] * 3.0)

    grad_check(f, {"x": x})
    np.testing.assert_array_equal(x, snapshot)
