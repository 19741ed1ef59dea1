import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from phenomnn.linalg import (
    extreme_eigenvalue,
    row_scale,
    spmm,
    write_matrix_market,
)
from helpers import rng_for


def naive_spmm(a, d):
    n, m = a.shape
    k = d.shape[1]
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, l] += a[i, j] * d[j, l]
    return out


# -- spmm ---------------------------------------------------------------------


def test_spmm_identity():
    d = rng_for(0).standard_normal((4, 3))
    assert np.array_equal(spmm(sp.identity(4, format="csr"), d), d)


def test_spmm_hand_example():
    b = sp.csr_matrix([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    out = spmm(b, np.array([[1.0], [2.0]]))
    assert np.array_equal(out, [[1.0], [3.0], [2.0]])


def test_spmm_zero():
    z = sp.csr_matrix(np.zeros((3, 4)))
    d = rng_for(1).standard_normal((4, 2))
    assert np.array_equal(spmm(z, d), np.zeros((3, 2)))


def test_spmm_dimension_mismatch():
    with pytest.raises(ValueError, match="spmm"):
        spmm(sp.identity(3, format="csr"), np.zeros((4, 2)))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1), st.integers(1, 20), st.integers(1, 20), st.integers(1, 4))
def test_spmm_matches_triple_loop_oracle(seed, n, m, k):
    rng = rng_for(seed)
    a = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.4)
    d = rng.standard_normal((m, k))
    got = spmm(sp.csr_matrix(a), d)
    assert np.max(np.abs(got - naive_spmm(a, d))) <= 1e-12


def test_spmm_pure_bitwise():
    rng = rng_for(2)
    s = sp.csr_matrix(rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5))
    d = rng.standard_normal((6, 3))
    assert np.array_equal(spmm(s, d), spmm(s, d))


# -- extreme_eigenvalue ----------------------------------------------------------


def test_eigen_diagonal_max():
    a = np.diag([1.0, 2.0, 3.0])
    res = extreme_eigenvalue(lambda v: a @ v, 3, "max", iters=2000, tol=1e-12)
    assert res.converged and abs(res.value - 3.0) <= 1e-9


def test_eigen_diagonal_min():
    a = np.diag([1.0, 2.0, 3.0])
    res = extreme_eigenvalue(lambda v: a @ v, 3, "min", iters=2000, tol=1e-12)
    assert res.converged and abs(res.value - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_eigen_matches_dense_oracle(seed):
    rng = rng_for(seed)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2.0
    # independent oracle computed first
    spectrum = np.linalg.eigvalsh(a)
    emax = extreme_eigenvalue(lambda v: a @ v, 5, "max", iters=20000, tol=1e-12)
    emin = extreme_eigenvalue(lambda v: a @ v, 5, "min", iters=20000, tol=1e-12)
    assert abs(emax.value - spectrum[-1]) <= 1e-8
    assert abs(emin.value - spectrum[0]) <= 1e-8


def test_eigen_nonconvergence_is_flagged():
    # larger than the Lanczos basis, so one sweep cannot solve it exactly
    rng = rng_for(7)
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2.0
    res = extreme_eigenvalue(lambda v: a @ v, 40, "max", iters=2, tol=1e-16)
    assert not res.converged
    assert np.isfinite(res.value) and np.isfinite(res.residual)


def test_eigen_argument_validation():
    a = np.eye(2)
    with pytest.raises(ValueError, match="iters"):
        extreme_eigenvalue(lambda v: a @ v, 2, "max", iters=0)
    with pytest.raises(ValueError, match="tol"):
        extreme_eigenvalue(lambda v: a @ v, 2, "max", tol=0.0)
    with pytest.raises(ValueError, match="which"):
        extreme_eigenvalue(lambda v: a @ v, 2, "median")


def test_eigen_zero_operator():
    res = extreme_eigenvalue(lambda v: 0.0 * v, 4, "max")
    assert res.converged and res.value == 0.0


# -- dense kernels -----------------------------------------------------------------


def test_row_scale_identity():
    y = rng_for(8).standard_normal((5, 2))
    assert np.array_equal(row_scale(np.ones(5), y), y)


def test_dense_kernel_mismatches():
    with pytest.raises(ValueError):
        row_scale(np.ones(3), np.zeros((2, 2)))


# -- matrix market export ------------------------------------------------------------


def test_matrix_market_grammar():
    s = sp.csr_matrix([[1.5, 0.0], [0.0, -2.0], [3.0, 0.0]])
    buf = io.StringIO()
    write_matrix_market(s, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "3 2 3"
    assert lines[2:] == ["1 1 1.5", "2 2 -2.0", "3 1 3.0"]


def test_matrix_market_file_roundtrip(tmp_path):
    rng = rng_for(10)
    dense = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.5)
    s = sp.csr_matrix(dense)
    path = tmp_path / "m.mtx"
    write_matrix_market(s, str(path))
    lines = path.read_text().strip().split("\n")
    rows, cols, nnz = (int(x) for x in lines[1].split())
    assert (rows, cols, nnz) == (4, 4, s.nnz)
    rebuilt = np.zeros((rows, cols))
    for entry in lines[2:]:
        i, j, v = entry.split()
        rebuilt[int(i) - 1, int(j) - 1] = float(v)
    assert np.array_equal(rebuilt, s.toarray())
