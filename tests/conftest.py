from types import SimpleNamespace

import numpy as np
import pytest

from starcurv import geometry, solver


@pytest.fixture
def flip_christoffel(monkeypatch):
    """Negate G^theta_phiphi in every Christoffel evaluation: a broken
    covariant derivative that the identity diagnostics must catch."""
    original = geometry._surface_christoffels

    def flipped(state):
        G_t_tt, G_t_tp, G_t_pp, *rest = original(state)
        return (G_t_tt, G_t_tp, -G_t_pp, *rest)

    monkeypatch.setattr(geometry, "_surface_christoffels", flipped)


def _superlu_solve(J, rhs, report=None):
    lu = solver.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
    x = lu.solve(rhs)
    x += lu.solve(rhs - J @ x)
    # what served the system: a damped solve's branch index is the LU's sign
    return x, SimpleNamespace(det_sign=lambda: lu_det_sign(lu))


@pytest.fixture
def superlu_reference(monkeypatch):
    """Run a call with every Newton system solved directly by SuperLU, with
    the minimum-degree ordering of J^T + J and one step of iterative
    refinement: inside it, _linear_solve is that direct solve, and a
    damped solve's branch index is the sign of the LU.  The reference the
    GMRES path is checked against."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_linear_solve", _superlu_solve)
            return fn(*args, **kwargs)
    return run


def perm_parity(perm: np.ndarray) -> int:
    """(-1)^(n - cycles) of a permutation of 0..n-1, by pointer jumping.

    After round r, label[i] is the least index among the first 2^r nodes
    of i's cycle, so after ceil(log2 n) rounds each node carries its
    cycle's least index, and the cycles are the nodes that carry their own."""
    n = len(perm)
    label, jump = np.arange(n), np.asarray(perm)
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    cycles = np.count_nonzero(label == np.arange(n))
    return -1 if (n - cycles) % 2 else 1


def lu_det_sign(lu) -> int:
    """sign det A from SuperLU's Pr A Pc = L U, where L has a unit diagonal:
    prod sign(U_ii) sign(Pr) sign(Pc), 0 for a zero pivot.  The reference
    for PhiModes.det_sign where a dense determinant is too large."""
    return (int(np.prod(np.sign(lu.U.diagonal()))) * perm_parity(lu.perm_r)
            * perm_parity(lu.perm_c))
