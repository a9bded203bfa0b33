import pytest

from starcurv import geometry


@pytest.fixture
def flip_christoffel(monkeypatch):
    """Negate G^theta_phiphi in every Christoffel evaluation: a broken
    covariant derivative that the identity diagnostics must catch."""
    original = geometry._surface_christoffels

    def flipped(state):
        G_t_tt, G_t_tp, G_t_pp, *rest = original(state)
        return (G_t_tt, G_t_tp, -G_t_pp, *rest)

    monkeypatch.setattr(geometry, "_surface_christoffels", flipped)
