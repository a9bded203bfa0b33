import math

import numpy as np
import pytest

from starcurv.geometry import assemble
from starcurv.grid import build_grid, constant_field
from starcurv.spaceform import DEFAULT_DOMAIN_CAP, DomainError, spaceform
from starcurv.symfunc import sigma

ALL_K = (-1, 0, 1)


def test_warp_closed_forms():
    assert spaceform(0).warp(1.0) == 1.0
    assert spaceform(1).warp(math.pi / 6) == pytest.approx(0.5, abs=1e-15)
    assert spaceform(-1).warp(1e-12) == pytest.approx(0.0, abs=1e-11)


def test_warp_deriv_closed_forms():
    assert spaceform(0).warp_deriv(7.3) == 1.0
    assert spaceform(1).warp_deriv(math.pi / 3) == pytest.approx(0.5, abs=1e-15)
    assert spaceform(-1).warp_deriv(1e-12) == pytest.approx(1.0, abs=1e-15)


def test_warp_integral_closed_forms():
    assert spaceform(0).warp_integral(2.0) == 2.0
    assert spaceform(1).warp_integral(math.pi / 2 - 1e-6) == pytest.approx(1.0, abs=1e-5)
    # frozen value of cosh(1) - 1
    assert spaceform(-1).warp_integral(1.0) == pytest.approx(0.5430806348152437, abs=1e-15)
    assert spaceform(-1).warp_integral(0.0) == 0.0


def test_sphere_curvature_closed_forms():
    assert spaceform(0).sphere_curvature(2.0) == 0.5
    assert spaceform(1).sphere_curvature(math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    # frozen value of cosh(0.5)/sinh(0.5)
    assert spaceform(-1).sphere_curvature(0.5) == pytest.approx(2.1639534137386525, abs=1e-15)


@pytest.mark.parametrize("K,r", [(-1, 1.3), (0, 0.7), (1, 0.9)])
@pytest.mark.parametrize("k", [1, 2])
def test_sphere_sigma_matches_assembled_constant_field(K, r, k):
    # the centered sphere's sigma_k in closed form against the discrete
    # geometry of a constant field, whose jet has no derivative to err in
    m = spaceform(K)
    state = assemble(m, constant_field(build_grid(8, 16), r))
    assert np.allclose(sigma(state.kappa, k), m.sphere_sigma(r, k), rtol=1e-13, atol=0.0)
    assert m.sphere_sigma(r, k) == math.comb(2, k) * m.sphere_curvature(r) ** k


def test_domain_endpoints():
    assert spaceform(1).a == math.pi / 2
    assert spaceform(0).a == 50.0
    assert spaceform(-1, domain_cap=30.0).a == 30.0


@pytest.mark.parametrize("K", ALL_K)
def test_domain_rejection(K):
    m = spaceform(K)
    with pytest.raises(DomainError):
        m.warp(0.0)
    with pytest.raises(DomainError):
        m.warp(-0.3)
    with pytest.raises(DomainError):
        m.warp(m.a)
    if K == 1:
        # strictly open interval below the cap
        with pytest.raises(DomainError):
            m.warp(math.pi / 2 - 1e-13)
        m.warp(math.pi / 2 - 1e-6)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            m.check_domain(np.array([0.5, bad, 0.7]))
        with pytest.raises(DomainError, match="non-finite"):
            m.check_domain(bad, allow_zero=True)
    with pytest.raises(DomainError, match=r"radius -0\.3 outside"):
        m.check_domain(np.array([0.5, -0.3]))
    with pytest.raises(DomainError, match=rf"radius {m.a!r} outside"):
        m.check_domain(np.array([0.5, m.a]))
    # empty input has no radius outside the interval
    m.check_domain(np.array([]))
    m.check_domain(np.zeros((0, 3)))
    m.check_domain(0.0, allow_zero=True)


def test_spherical_model_takes_no_domain_cap():
    # K = +1 ends at pi/2: a cap given for it is an error, never silently
    # replaced by pi/2; None is the default for every K
    for cap in (10.0, 1.0, math.pi / 2):
        with pytest.raises(ValueError, match="domain_cap"):
            spaceform(1, domain_cap=cap)
    assert spaceform(1, domain_cap=None).a == math.pi / 2
    assert spaceform(0, domain_cap=None).a == DEFAULT_DOMAIN_CAP
    assert spaceform(-1).a == DEFAULT_DOMAIN_CAP


def test_bad_construction():
    with pytest.raises(ValueError):
        spaceform(2)
    with pytest.raises(ValueError):
        spaceform(0, domain_cap=-1.0)
    with pytest.raises(ValueError):
        spaceform(0, domain_cap=math.inf)


@pytest.mark.parametrize("K", ALL_K)
def test_warp_second_derivative_matches_curvature(K):
    # warp'' = -K warp, probed by centered differences
    m = spaceform(K)
    rng = np.random.default_rng(1)
    hi = m.a - 1e-3 if K == 1 else 5.0
    rho = rng.uniform(0.05, hi, size=64)
    h = 1e-4
    second = (m.warp(rho + h) - 2.0 * m.warp(rho) + m.warp(rho - h)) / h**2
    rel = np.abs(second + K * m.warp(rho)) / np.maximum(1.0, m.warp(rho))
    assert rel.max() < 1e-6


@pytest.mark.parametrize("K", ALL_K)
def test_warp_integral_derivative_is_warp(K):
    m = spaceform(K)
    rng = np.random.default_rng(2)
    hi = m.a - 1e-3 if K == 1 else 5.0
    rho = rng.uniform(0.05, hi, size=64)
    h = 1e-5
    deriv = (m.warp_integral(rho + h) - m.warp_integral(rho - h)) / (2 * h)
    rel = np.abs(deriv - m.warp(rho)) / np.maximum(1.0, m.warp(rho))
    assert rel.max() < 1e-8


@pytest.mark.parametrize("K", ALL_K)
def test_sphere_curvature_strictly_decreasing(K):
    # sample where the decrease is resolvable in float64 (coth flattens
    # to 1 + O(e^-2 rho) and goes below the 1 ulp resolution near rho ~ 18)
    m = spaceform(K)
    hi = m.a - 1e-6 if K == 1 else (8.0 if K == -1 else 20.0)
    rho = np.linspace(0.01, hi, 400)
    q = m.sphere_curvature(rho)
    assert np.all(np.diff(q) < 0.0)


@pytest.mark.parametrize("K", ALL_K)
def test_warp_pythagorean_identity(K):
    # warp'^2 + K warp^2 = 1 exactly for all three families
    m = spaceform(K)
    rng = np.random.default_rng(3)
    hi = m.a - 1e-6 if K == 1 else 10.0
    rho = rng.uniform(1e-3, hi, size=256)
    val = m.warp_deriv(rho) ** 2 + K * m.warp(rho) ** 2
    # machine precision relative to the magnitude of the cancelling terms
    assert np.abs(val - 1.0).max() < 1e-13 * (1.0 + m.warp_deriv(rho) ** 2).max()


def test_warp_integral_strictly_increasing():
    for K in ALL_K:
        m = spaceform(K)
        hi = m.a - 1e-6 if K == 1 else 10.0
        rho = np.linspace(0.0, hi, 300)
        assert np.all(np.diff(m.warp_integral(rho)) > 0.0)


def test_vector_and_scalar_round_trip():
    m = spaceform(-1)
    rho = np.array([0.25, 1.0, 2.0])
    v = m.warp(rho)
    assert isinstance(v, np.ndarray)
    assert m.warp(1.0) == pytest.approx(math.sinh(1.0), abs=0)
    assert isinstance(m.warp(1.0), float)
