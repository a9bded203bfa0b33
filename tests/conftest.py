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


@pytest.fixture
def superlu_reference(monkeypatch):
    """Run a call with every Newton system solved by SuperLU: inside it,
    _refine gives up at once, with no answer and no sweep, so _linear_solve
    takes its splu branch.  The reference the refinement path is checked
    against."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_refine", lambda op, J, rhs: (None, 0))
            return fn(*args, **kwargs)
    return run
