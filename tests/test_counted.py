"""Metered matrix primitives: counting semantics and dimension checks."""

import os
import subprocess
import sys
from pathlib import Path

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


# run under one BLAS thread: `X @ v` alone changes bits between 1 and 2
# threads, so only a single-threaded comparison is exact
_BLOCKED_SWEEP = r"""
import numpy as np
from subsearch.counted import CountedMatrix

rng = np.random.default_rng(34)
shapes = 0
for d in (1, 7, 131, 200, 301):
    big = rng.standard_normal((3100, d))
    # the block row count the module uses at this d: its first block
    blocks = CountedMatrix(big)._image_blocks
    rows = blocks[-1].stop if blocks else len(big)
    sizes = {rows - 1, rows, 2 * rows - 1, 2 * rows}
    sizes |= {k * rows + off for k in range(1, 3000 // rows + 1)
              for off in (-17, -16, -15, -1, 1, 15, 16, 17)}
    for n in sorted(m for m in sizes if 1 <= m <= len(big)):
        X = big[:n]
        x = rng.standard_normal(d)
        want = (X @ x).tobytes()
        cm = CountedMatrix(X)
        for audit in (False, True):
            assert cm.matvec(x, audit=audit).tobytes() == want, ("bits", n, d)
        assert (cm.counter_read(), cm.audit_counter.read()) == (1, 1)
        assert bool(cm._image_blocks) == (n >= 2 * rows), ("blocks", n, d)
        if d > 1:               # one column is C- and F-ordered at once
            F = CountedMatrix(np.asfortranarray(X))
            assert F.matvec(x).tobytes() == (F.payload @ x).tobytes()
            assert F._image_blocks == ()
        shapes += 1
print(shapes)
"""


def test_blocked_image_products_are_bitwise_the_single_call():
    """A dense C-ordered X x runs over row blocks, last first; under one
    BLAS thread each product is bitwise `X @ x` at one block, two blocks
    and every block boundary ±1, 15, 16 and 17 rows, and counts once on
    the counter its `audit` flag names.  An F-ordered X keeps one call."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _BLOCKED_SWEEP], env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 200
