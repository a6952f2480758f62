"""Low-dimensional subproblem solver: never-worse guarantee and accuracy."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from subsearch import subsolver
from subsearch.data import gen_logistic, gen_quadratic
from subsearch.objectives import LcpObjective
from subsearch.subsolver import SubProblem, SubSolverOptions, solve


def quad(H, b):
    return SubProblem(
        b.size,
        lambda t: 0.5 * float(t @ H @ t) + float(b @ t),
        lambda t: H @ t + b,
        lambda t: H,
    )


def test_solves_well_conditioned_quadratic():
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([1.0, -2.0])
    res = solve(quad(H, b))
    assert np.linalg.norm(res.theta - np.linalg.solve(H, -b)) < 1e-6
    assert res.converged


def test_newton_path_is_exact_on_quadratics():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2))
    H = A @ A.T + 1e-4 * np.eye(2)   # condition ~1e4
    b = rng.standard_normal(2)
    res = solve(quad(H, b))
    assert np.linalg.norm(res.theta - np.linalg.solve(H, -b)) < 1e-8


def test_never_worse_than_zero():
    # a function whose gradient step initially overshoots badly
    sp = SubProblem(
        1,
        lambda t: float((t[0] - 0.01) ** 2 + 100 * np.sin(10 * t[0]) ** 2),
        lambda t: np.array([2 * (t[0] - 0.01)
                            + 2000 * np.sin(10 * t[0]) * np.cos(10 * t[0])]),
        lambda t: np.array([[2 + 20000 * np.cos(20 * t[0])]]),
    )
    res = solve(sp, SubSolverOptions(max_iters=3))
    assert res.value <= sp.value(np.zeros(1)) + 1e-15


def test_infinite_values_are_rejected_not_fatal():
    def value(t):
        return np.inf if t[0] > 1.0 else float((t[0] - 5.0) ** 2)

    sp = SubProblem(1, value, lambda t: np.array([2 * (t[0] - 5.0)]),
                    lambda t: np.array([[2.0]]))
    res = solve(sp)
    assert res.theta[0] <= 1.0
    assert np.isfinite(res.value)


def test_theta_cap_boxes_the_search():
    # unbounded below along a slope of -1e9: the first Newton step (-g on a
    # zero Hessian) lands at 1e9, past the 1e8 box
    sp = SubProblem(1, lambda t: float(-1e9 * t[0]),
                    lambda t: np.array([-1e9]), lambda t: np.zeros((1, 1)))
    res = solve(sp, SubSolverOptions(max_iters=200))
    assert 0.0 < res.theta[0] <= 1e8
    assert not res.converged        # no trial past the box is accepted


def test_warm_start_can_only_help():
    H = np.diag([1.0, 4.0])
    b = np.array([-1.0, 2.0])
    sp = quad(H, b)
    cold = solve(sp, SubSolverOptions(max_iters=1))
    warm = solve(sp, SubSolverOptions(max_iters=1),
                 theta0=np.linalg.solve(H, -b))
    assert warm.value <= cold.value + 1e-15
    assert warm.converged and not cold.converged    # cold hit the cap


def test_nonfinite_at_zero_is_an_error():
    sp = SubProblem(1, lambda t: np.inf, lambda t: np.zeros(1),
                    lambda t: np.zeros((1, 1)))
    with pytest.raises(ValueError):
        solve(sp)


def test_flat_stationary_mode_is_not_solved_for():
    # the second direction repeats the first up to rounding, as the
    # momentum terms do right after a restart: the plain Newton solve
    # would throw that mode across the box on rounding noise
    eps = 1e-14
    D = np.array([[1.0, 1.0 + eps], [2.0, 2.0], [0.5, 0.5 - eps]])
    r = np.array([1.0, -3.0, 2.0])

    def value(t):
        e = r + D @ t
        return 0.5 * float(e @ e)

    sp = SubProblem(2, value, lambda t: D.T @ (r + D @ t),
                    lambda t: D.T @ D)
    res = solve(sp)
    assert res.converged and res.inner_iters <= 3
    a = -float(D[:, 0] @ r) / float(D[:, 0] @ D[:, 0])
    assert abs(res.theta.sum() - a) < 1e-10
    assert np.max(np.abs(res.theta)) < 10 * abs(a)


def test_concave_mode_is_descended_not_climbed():
    # at zero the Hessian is diag(12, -1).  The plain Newton step stays a
    # descent direction while the quartic t0 mode converges slowly, and it
    # climbs the concave t1 mode to the saddle near t1 = 0.1; the step on
    # |H| descends it to the minimum near t1 = -1.05
    def value(t):
        return float((t[0] - 1.0) ** 4 + t[1] ** 4 / 4 - t[1] ** 2 / 2
                     + 0.1 * t[1])

    sp = SubProblem(
        2, value,
        lambda t: np.array([4.0 * (t[0] - 1.0) ** 3,
                            t[1] ** 3 - t[1] + 0.1]),
        lambda t: np.diag([12.0 * (t[0] - 1.0) ** 2,
                           3.0 * t[1] ** 2 - 1.0]))
    res = solve(sp)
    assert res.converged
    assert abs(res.theta[0] - 1.0) < 1e-3 and res.theta[1] < -1.0


def test_newton_direction_never_divides_by_a_zero_eigenvalue():
    # two nearly equal logdet rank-2 directions: eigh returns an exactly
    # zero eigenvalue while the gradient on that mode is above tol
    from subsearch.subsolver import _newton_direction
    H = np.array([[488.0308830323563, 488.03088098172606],
                  [488.03088098172606, 488.03087893109586]])
    g = np.array([28.334036353772525, 28.334032771122015])
    step = _newton_direction(H, g, 1.1657373794775867e-07)
    assert np.all(np.isfinite(step)) and float(g @ step) < 0
    assert np.array_equal(_newton_direction(np.zeros((2, 2)), g, 0.0), -g)
    # rank one: eigh's small eigenvalue is positive (2.2e-16), so H reads as
    # positive definite, but LU meets an exactly zero pivot
    H = np.outer([1.7, 1.3], [1.7, 1.3])
    step = _newton_direction(H, g, 0.0)
    assert np.all(np.isfinite(step)) and float(g @ step) < 0


def _stalled(f0=800.0):
    # f has stopped changing: values move down by an ulp or not at all, the
    # gradient is noise above any tolerance and the Hessian is exactly
    # singular
    ulp = np.spacing(f0)
    return SubProblem(
        2, lambda t: f0 - ulp * (np.round(1e10 * t[0]) % 2),
        lambda t: np.array([3e-10, -2e-10]),
        lambda t: np.zeros((2, 2)))


def test_solve_reasons():
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([1.0, -2.0])
    assert solve(quad(H, b)).reason == "converged"
    assert solve(quad(H, b), SubSolverOptions(max_iters=1)).reason \
        == "max_iters"
    walled = SubProblem(1, lambda t: np.inf if t.any() else 0.0,
                        lambda t: np.array([1.0]), lambda t: np.eye(1))
    assert solve(walled).reason == "backtrack_fail"
    bad = SubProblem(1, lambda t: float(t[0]),
                     lambda t: np.array([np.nan if t[0] else 1.0]),
                     lambda t: np.zeros((1, 1)))
    assert solve(bad).reason == "nonfinite"
    res = solve(_stalled())
    assert res.reason == "rounding_floor" and not res.converged
    assert res.inner_iters <= 3
    # a gain within the floor is no gain: the zero step comes back
    assert res.value == 800.0 and not res.theta.any()


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("lam", [0.0, 1e-2])
@pytest.mark.parametrize("loss", ["logistic", "least_squares"])
def test_zero_and_repeated_directions_solve_as_the_independent_ones(
        loss, lam, seed):
    # [-g, 0, -g, p, 2p - g] spans what [-g, p] spans: its Hessian is
    # exactly singular, and the solve must leave the flat modes at 0 and
    # land where the independent directions do, in as many Newton steps
    gen = gen_logistic if loss == "logistic" else gen_quadratic
    ds = gen(60, 8, seed)
    obj = LcpObjective(loss, ds, lam)
    X = ds.X.payload
    rng = np.random.default_rng(seed)
    w, p = rng.standard_normal(8), rng.standard_normal(8)
    m = X @ w
    g = obj.f_grad_margin(w, m)

    def restrict(dirs):
        return obj.subspace_restrict(w, m, dirs, [X @ d for d in dirs])

    res = solve(restrict([-g, 0 * g, -g, p, 2 * p - g]))
    ref = solve(restrict([-g, p]))
    assert res.converged and res.inner_iters <= min(10, ref.inner_iters)
    assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value)


@st.composite
def _hessian_and_gradient(draw):
    """A symmetric H, 1x1 to 4x4, scaled by 2^-20 to 2^20 (about 1e-6 to
    1e6), and a gradient.  'singular' is exactly singular to LU (integer
    entries, rank 1), 'nonfinite' carries a NaN or an inf."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("definite", "indefinite", "rank_deficient",
                                 "singular", "nonfinite")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((d, d))
    if kind == "definite":
        H = A @ A.T + 1e-3 * np.eye(d)
    elif kind == "indefinite":
        H = A + A.T
    elif kind == "rank_deficient":
        B = A[:, :draw(st.integers(0, d - 1))]
        H = B @ B.T
    elif kind == "singular":
        v = rng.integers(-3, 4, d).astype(np.float64)
        H = np.outer(v, v)
    else:
        H = A + A.T
        i, j = rng.integers(0, d, 2)
        H[i, j] = H[j, i] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    H = 2.0 ** draw(st.integers(-20, 20)) * (0.5 * (H + H.T))
    return H, rng.standard_normal(d)


def _bits_or_error(call):
    try:
        return call().tobytes()
    except LinAlgError:
        return LinAlgError


class _FellThrough(Exception):
    pass


def _fall_through(*args, **kwargs):
    raise _FellThrough


@settings(max_examples=400)
@given(case=_hessian_and_gradient())
def test_newton_direction_gufuncs_match_the_numpy_linalg_wrappers(case):
    # the Newton direction calls the gufuncs behind np.linalg.eigvalsh and
    # np.linalg.solve under its own errstate: the same bits, a LinAlgError
    # wherever the wrappers raise one, a fall-through to the per-mode path
    # (np.linalg.eigh) exactly where solve raises, and no warning
    H, g = case
    tol = 1e-10 * max(1.0, float(np.linalg.norm(g)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with subsolver._lapack_errstate():
            eig = _bits_or_error(
                lambda: _umath_linalg.eigvalsh_lo(H, signature="d->d"))
            lu = _bits_or_error(
                lambda: _umath_linalg.solve1(H, -g, signature="dd->d"))
        assert eig == _bits_or_error(lambda: np.linalg.eigvalsh(H))
        assert lu == _bits_or_error(lambda: np.linalg.solve(H, -g))

        # the same decision on np.linalg's wrappers
        want = None                     # None: fell through
        try:
            w = np.linalg.eigvalsh(H)
        except LinAlgError:
            want = LinAlgError
        else:
            if w[0] > subsolver._FLAT_RCOND * max(-w[0], w[-1]):
                try:
                    want = np.linalg.solve(H, -g).tobytes()
                except LinAlgError:
                    pass
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", _fall_through)
            try:
                got = _bits_or_error(
                    lambda: subsolver._newton_direction(H, g, tol))
            except _FellThrough:
                got = None
    assert got == want


def test_lapack_errstate_raises_on_invalid_and_ignores_the_rest():
    # LAPACK reports a failed eigvalsh or LU solve by the invalid flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with subsolver._lapack_errstate():
            with pytest.raises(LinAlgError):
                np.array([0.0]) / 0.0
            np.array([1.0]) / 0.0
            np.array([1e308]) * 10.0
            np.array([1e-308]) * 1e-308
