import io

import numpy as np
import pytest
import scipy.sparse as sp

from phenomnn.linalg import extreme_eigenvalue, write_matrix_market
from helpers import rng_for


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
