import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from phenomnn import linalg
from phenomnn.hypergraph import Hypergraph, build_expansion_operators
from phenomnn.linalg import extreme_eigenvalue
from phenomnn.model import step_bound_simple
from helpers import rng_for


# -- extreme_eigenvalue ----------------------------------------------------------


def solve_within(monkeypatch, applications, tol=linalg.TOL):
    """Make every later solve stop after ``applications`` operator applications, converged
    on a residual of ``tol`` relative to its Ritz value."""
    monkeypatch.setattr(linalg, "MAX_APPLICATIONS", applications)
    monkeypatch.setattr(linalg, "TOL", tol)


def test_eigen_diagonal_max(monkeypatch):
    a = np.diag([1.0, 2.0, 3.0])
    solve_within(monkeypatch, 2000, 1e-12)
    res = extreme_eigenvalue(lambda v: a @ v, 3, "max")
    assert res.converged and abs(res.value - 3.0) <= 1e-9


def test_eigen_diagonal_min(monkeypatch):
    a = np.diag([1.0, 2.0, 3.0])
    solve_within(monkeypatch, 2000, 1e-12)
    res = extreme_eigenvalue(lambda v: a @ v, 3, "min")
    assert res.converged and abs(res.value - 1.0) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_eigen_matches_dense_oracle(seed, monkeypatch):
    rng = rng_for(seed)
    a = rng.standard_normal((5, 5))
    a = (a + a.T) / 2.0
    # independent oracle computed first
    spectrum = np.linalg.eigvalsh(a)
    solve_within(monkeypatch, 20000, 1e-12)
    emax = extreme_eigenvalue(lambda v: a @ v, 5, "max")
    emin = extreme_eigenvalue(lambda v: a @ v, 5, "min")
    assert abs(emax.value - spectrum[-1]) <= 1e-8
    assert abs(emin.value - spectrum[0]) <= 1e-8


def test_eigen_nonconvergence_is_flagged(monkeypatch):
    # two applications cannot solve a 40 x 40 operator exactly
    rng = rng_for(7)
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2.0
    solve_within(monkeypatch, 2, 1e-16)
    res = extreme_eigenvalue(lambda v: a @ v, 40, "max")
    assert not res.converged
    assert np.isfinite(res.value) and np.isfinite(res.residual)


def test_eigen_argument_validation():
    a = np.eye(2)
    with pytest.raises(ValueError, match="which"):
        extreme_eigenvalue(lambda v: a @ v, 2, "median")


def test_eigen_zero_operator():
    res = extreme_eigenvalue(lambda v: 0.0 * v, 4, "max")
    assert res.converged and res.value == 0.0


@pytest.mark.parametrize("which", ["max", "min"])
@pytest.mark.parametrize("size", [30, 100, 200])
def test_eigen_dense_extreme_within_the_residual(size, which, monkeypatch):
    rng = rng_for(size)
    a = rng.standard_normal((size, size))
    a = (a + a.T) / 2.0
    spectrum = np.linalg.eigvalsh(a)
    want = spectrum[-1] if which == "max" else spectrum[0]
    res = extreme_eigenvalue(lambda v: a @ v, size, which)
    assert res.converged and res.iterations <= 5000
    assert abs(res.value - want) <= res.residual + 1e-12
    solve_within(monkeypatch, 7)
    capped = extreme_eigenvalue(lambda v: a @ v, size, which)
    assert not capped.converged and capped.iterations == 7


def test_eigen_unconverged_reports_the_last_ritz_value(monkeypatch):
    # Ritz values of one Krylov sequence only grow toward the top eigenvalue;
    # after one application the Ritz value is the start vector's Rayleigh quotient
    rng = rng_for(7)
    a = rng.standard_normal((40, 40))
    a = (a + a.T) / 2.0
    v0 = np.random.Generator(np.random.PCG64(0)).standard_normal(40)
    v0 /= np.linalg.norm(v0)
    solve_within(monkeypatch, 1)
    first = extreme_eigenvalue(lambda v: a @ v, 40, "max")
    assert abs(first.value - v0 @ a @ v0) <= 1e-12
    assert abs(first.residual - np.linalg.norm(a @ v0 - first.value * v0)) <= 1e-12
    values = []
    for k in range(1, 12):
        solve_within(monkeypatch, k)
        values.append(extreme_eigenvalue(lambda v: a @ v, 40, "max").value)
    assert all(b >= a_ - 1e-12 for a_, b in zip(values, values[1:]))
    assert values[-1] > values[0] + 0.5


def test_eigen_two_solves_are_bitwise_equal():
    rng = rng_for(11)
    k = sp.random(300, 300, density=0.05, random_state=rng) + sp.eye(300)
    k = (k + k.T).tocsr()
    one, two = (extreme_eigenvalue(lambda v: k @ v, 300, "min") for _ in range(2))
    assert one.iterations == two.iterations and one.converged == two.converged
    assert np.array([one.value, one.residual]).tobytes() == np.array([two.value, two.residual]).tobytes()


def test_eigen_keeps_no_basis(monkeypatch):
    # 200 applications of a size-32,000 operator: a stored basis would hold
    # 200 vectors (51 MB); the recurrence holds three and apply makes one
    size = 32_000
    diag = np.linspace(1.0, 2.0, size)
    solve_within(monkeypatch, 200, 1e-16)
    tracemalloc.start()
    try:
        res = extreme_eigenvalue(lambda v: diag * v, size, "max")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations == 200
    assert peak <= 6 * diag.nbytes


def test_eigen_checks_convergence_on_a_spaced_schedule(monkeypatch):
    # an even cycle makes K singular with m = n and no isolated node, so the
    # solve for sigma_min runs to the 5,000-application cap; a tridiagonal
    # solve at every step would cost O(k) each, O(k^2) in all
    solves = []
    real = linalg.eigh_tridiagonal

    def counted(d, e, **kwargs):
        solves.append(len(d))
        return real(d, e, **kwargs)

    monkeypatch.setattr(linalg, "eigh_tridiagonal", counted)
    hg = Hypergraph.from_edges(2000, [[i, (i + 1) % 2000] for i in range(2000)])
    bound = step_bound_simple(build_expansion_operators(hg, 1.0, 1.0))
    assert bound.eig.iterations == 5000 and not bound.eig.converged
    assert bound.certificate == "psd-floor" and bound.value == 1.0
    assert solves[-1] == 5000
    assert len(solves) <= 200
