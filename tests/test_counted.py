"""Metered matrix primitives: counting semantics and dimension checks."""

import numpy as np
import pytest
import scipy.sparse as sp

from subsearch.counted import CountedMatrix, DimensionError


def naive_matvec(A, x):
    n, d = A.shape
    out = np.zeros(n)
    for i in range(n):
        for j in range(d):
            out[i] += A[i, j] * x[j]
    return out


def test_matvec_matches_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3))
    x = rng.standard_normal(3)
    cm = CountedMatrix(A)
    assert np.allclose(cm.matvec(x), naive_matvec(A, x), atol=1e-14)


def test_each_product_costs_one():
    cm = CountedMatrix(np.ones((5, 4)))
    cm.matvec(np.ones(4))
    cm.rmatvec(np.ones(5))
    cm.matmat(np.ones((4, 7)))       # 1 unit regardless of column count
    cm.rmatmat(np.ones((5, 9)))
    assert cm.counter_read() == 4


def test_matmat_cost_independent_of_columns():
    cm = CountedMatrix(np.ones((6, 3)))
    cm.matmat(np.ones((3, 1)))
    one_col = cm.counter_read()
    cm.matmat(np.ones((3, 50)))
    assert cm.counter_read() - one_col == one_col == 1


def test_audit_counter_is_separate():
    cm = CountedMatrix(np.ones((3, 3)))
    cm.matvec(np.ones(3), audit=True)
    cm.rmatmat(np.ones((3, 2)), audit=True)
    assert cm.counter_read() == 0
    assert cm.audit_counter.read() == 2


def test_dimension_errors():
    cm = CountedMatrix(np.ones((4, 3)))
    with pytest.raises(DimensionError):
        cm.matvec(np.ones(4))
    with pytest.raises(DimensionError):
        cm.rmatvec(np.ones(3))
    with pytest.raises(DimensionError):
        cm.matmat(np.ones((4, 2)))
    with pytest.raises(DimensionError):
        cm.rmatmat(np.ones((3, 2)))


def test_rejects_nonfinite_and_bad_rank():
    with pytest.raises(ValueError):
        CountedMatrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(DimensionError):
        CountedMatrix(np.ones(3))


def test_sparse_payload_counts_and_matches_dense():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 4))
    A[A < 0.5] = 0.0
    cm = CountedMatrix(sp.csr_matrix(A))
    assert cm.is_sparse
    x = rng.standard_normal(4)
    assert np.allclose(cm.matvec(x), A @ x, atol=1e-14)
    assert np.allclose(cm.dense(), A, atol=0)
    assert cm.counter_read() == 1


def test_float64_coercion():
    cm = CountedMatrix(np.ones((2, 2), dtype=np.float32))
    out = cm.matvec(np.ones(2, dtype=np.float32))
    assert out.dtype == np.float64


def test_model_states_deep_copy_with_their_own_counters():
    """A deep copy of a model state holds its own counters: steps on the
    copy count there and leave the original's counts alone."""
    import copy

    from subsearch import matfact, optimizers
    from subsearch.data import gen_logistic
    from subsearch.objectives import LcpObjective

    mf = matfact.init_state(np.arange(12.0).reshape(4, 3), 2)
    mf_copy = copy.deepcopy(mf)
    matfact.step_simul_so2(mf_copy)
    assert (mf.counter.read(), mf_copy.counter.read()) == (0, 5)
    matfact.step_altmin_so(mf, "u")
    assert (mf.counter.read(), mf_copy.counter.read()) == (2, 5)

    lcp = optimizers.init_state(
        LcpObjective("logistic", gen_logistic(20, 4, 1), 0.0))
    start = lcp.obj.X.counter_read()
    lcp_copy = copy.deepcopy(lcp)
    assert lcp_copy.obj.X is not lcp.obj.X
    step, rule = optimizers.TRACKED_METHODS["gd(lo)"]
    step(lcp_copy, rule)
    assert lcp.obj.X.counter_read() == start
    assert lcp_copy.obj.X.counter_read() == start + 2
