"""Double sine identities against frozen high-precision references.

The ORACLE constants were produced by a 40-digit mpmath evaluation of
the hyperbolic-kernel integral representation (exact Taylor series of
the integrand near 0, tanh-sinh quadrature elsewhere, counterterm tail
in closed form) -- a different formula arrangement and a different
quadrature than the package uses.  Generator checked against
s2(1) = sqrt(alpha) and s2(1/2) = sqrt(2) to 34+ digits.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from halfstable.doublesine import (FAR_FIELD_C, SurfacePoint,
                                   _abs_squared_on_lattice, _log_s2_any,
                                   _log_s2_far, _log_s2_quadrature, log_s2,
                                   q_pochhammer, s2, s2_abs_squared_on_ray,
                                   s2_shift_ratio, tau_binomial_check)
from halfstable.errors import (DivisionByZero, DomainError, PoleProximity)

ALPHAS = (0.7, 1.0, 1.3, 1.7, 1.95)

# (z, alpha) -> s2(z; alpha), frozen 2026-08
ORACLE = {
    (0.37 + 0.0j, 0.7): 1.428434503860302138952 + 0.0j,
    (1.25 + 0.0j, 1.3): 0.9154169288092478656667 + 0.0j,
    (0.8 + 0.6j, 1.5): 1.646739987783409216562 - 0.8028396355694825469666j,
    (1.1 - 1.4j, 1.7): -0.8841566731027911708749 + 1.697270401331692216061j,
    (2.2 + 0.0j, 1.95): 0.6593171068609841867668 + 0.0j,
    (0.45 + 2.0j, 1.0): 30.9637023263100099776 + 6.708481403353085399915j,
    (1.05 + 0.0j, 1.5): 1.179220358826313989958 + 0.0j,
    (2.6 + 0.3j, 1.8): 0.5008469539637316780207 + 0.4086587304644129523972j,
}


def test_oracle_values():
    for (z, alpha), ref in ORACLE.items():
        assert_allclose(s2(z, alpha), ref, rtol=5e-13, atol=0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_special_values(alpha):
    assert_allclose(s2(1.0, alpha), np.sqrt(alpha), rtol=1e-12)
    assert_allclose(s2(0.5, alpha), np.sqrt(2.0), rtol=1e-12)
    assert_allclose(s2(0.5 * (1 + alpha), alpha), 1.0, rtol=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_functional_equations_bulk(alpha, rng):
    z = rng.uniform(0.1, 0.9, 200) + 1j * rng.uniform(-2.0, 2.0, 200)
    lhs1 = s2(z + 1.0, alpha)
    rhs1 = s2(z, alpha) / (2.0 * np.sin(np.pi * z / alpha))
    assert_allclose(lhs1, rhs1, rtol=1e-9)
    lhs2 = s2(z + alpha, alpha)
    rhs2 = s2(z, alpha) / (2.0 * np.sin(np.pi * z))
    assert_allclose(lhs2, rhs2, rtol=1e-9)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_reflection_and_modularity(alpha, rng):
    z = rng.uniform(0.05, 1.0, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
    assert_allclose(s2(z, alpha) * s2(1.0 + alpha - z, alpha), 1.0,
                    rtol=1e-9)
    assert_allclose(s2(z, alpha), s2(z / alpha, 1.0 / alpha), rtol=1e-9)


@given(re=st.floats(0.15, 0.85), im=st.floats(-3.0, 3.0),
       alpha=st.sampled_from(ALPHAS))
@settings(max_examples=60, deadline=None)
def test_shift_equation_property(re, im, alpha):
    z = complex(re, im)
    # s2 has poles at 1 + alpha + m + n alpha, and z + 1 can land on one
    # (re = alpha = 0.7, im = 0), where s2 rightly raises PoleProximity
    poles = 1.0 + alpha + np.add.outer(np.arange(3), alpha * np.arange(3))
    assume(np.min(np.abs(z + 1.0 - poles)) >= 1e-6)
    lhs = s2(z + 1.0, alpha) * 2.0 * np.sin(np.pi * z / alpha)
    assert abs(lhs - s2(z, alpha)) <= 1e-9 * max(abs(lhs), 1.0)


def test_conjugation_symmetry():
    # real coefficients: s2(conj z) = conj s2(z)
    z = 0.9 + 1.1j
    assert_allclose(s2(np.conj(z), 1.6), np.conj(s2(z, 1.6)), rtol=1e-13)


def test_zero_and_pole_structure():
    alpha = 1.3
    # first zero at z = 0, first pole at z = 1 + alpha
    eps = 1e-6
    near_zero = abs(s2(-1.0 - alpha + eps, alpha))
    assert near_zero < 1e-4
    assert abs(s2(1.0 + alpha + eps, alpha)) > 1e4
    with pytest.raises(PoleProximity):
        log_s2(1.0 + alpha + 1e-12, alpha)
    # linear vanishing: s2(eps)/eps approaches a finite nonzero slope
    slopes = [abs(s2(e, alpha)) / e for e in (1e-5, 1e-6)]
    assert_allclose(slopes[0], slopes[1], rtol=1e-3)


def test_alpha_validation():
    with pytest.raises(DomainError):
        s2(0.5, 0.0)
    with pytest.raises(DomainError):
        s2(0.5, 2.5)


def test_abs_squared_on_ray_matches_pointwise():
    alpha, b = 1.5, 1.9
    y = np.array([0.3, 1.0, 4.2])
    direct = np.abs(s2(b + 1j * alpha * np.log(y) / (2 * np.pi),
                       alpha)) ** 2
    assert_allclose(s2_abs_squared_on_ray(b, 0.0, y, alpha), direct,
                    rtol=1e-12)


def _ray_lines(alpha):
    """(b, c, Im w, y) for lines across the window and beyond it.

    The window is [1/2, 1/2 + alpha) below alpha = 1 (the modular image
    of [alpha_w/2, alpha_w/2 + 1)) and [alpha/2, alpha/2 + 1) above; two
    lines sit outside it and take the ladder.  Im w runs past the far
    field threshold, FAR_FIELD_C max(1, alpha) in the unmapped plane,
    and stays off 0, where some of the lines meet poles.
    """
    lo, width = (0.5 * alpha, 1.0) if alpha >= 1.0 else (0.5, alpha)
    im = np.linspace(-1.4, 1.4, 28) * FAR_FIELD_C * max(1.0, alpha)
    y = np.exp(2.0 * np.pi * im / alpha)
    for f in (0.0, 0.3, 0.61, 0.97, -2.35, 3.4):
        for c in (0.0, 0.4):
            yield lo + f * width, c, im, y


@pytest.mark.parametrize("alpha, tol", [(0.2, 1e-12), (0.5, 1e-12),
                                        (1.0, 1e-12), (1.3, 1e-12),
                                        (1.7, 1e-12), (2.0, 1e-12)])
def test_abs_squared_on_ray_matches_complex_path(alpha, tol):
    for b, c, im, y in _ray_lines(alpha):
        w = b - alpha * c / (2.0 * np.pi) + 1j * im
        ref = np.exp(2.0 * _log_s2_any(w, alpha).real)
        got = s2_abs_squared_on_ray(b, c, y, alpha)
        assert np.max(np.abs(got / ref - 1.0)) <= tol, (b, c)


@pytest.mark.parametrize("alpha", (0.2, 0.5, 1.0, 1.3, 1.7, 2.0))
def test_abs_squared_on_ray_shift_equation(alpha):
    # |s2(z+1)|^2 |2 sin(pi z/alpha)|^2 = |s2(z)|^2 line by line, with
    # no reference evaluator involved
    for b, c, im, y in _ray_lines(alpha):
        z = b - alpha * c / (2.0 * np.pi) + 1j * im
        lhs = s2_abs_squared_on_ray(b + 1.0, c, y, alpha) \
            * np.abs(2.0 * np.sin(np.pi * z / alpha)) ** 2
        rhs = s2_abs_squared_on_ray(b, c, y, alpha)
        assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-12, (b, c)


@pytest.mark.parametrize("x, alpha", [(1.9, 1.5), (3.2, 1.3), (0.83, 0.6),
                                      (2.7, 0.45)])
def test_lattice_transform_matches_per_point_path(x, alpha):
    # the angle-addition lattice against the one-row lattice of the same
    # points: alpha < 1 takes the modular map, and x = 3.2, 2.7 sit off
    # the window, so the line takes ladder shifts
    t = np.polynomial.legendre.leggauss(16)[0]
    c = alpha / (2.0 * np.pi)
    y0, step, rows = c * (-1.3 + 0.1 * t), c * 0.2, 40
    got = _abs_squared_on_lattice(x, y0, step, rows, alpha)
    im = y0 + step * np.arange(rows)[:, None]
    ref = s2_abs_squared_on_ray(x, 0.0, np.exp(im / c).ravel(), alpha)
    assert_allclose(got.ravel(), ref, rtol=1e-13, atol=0.0)


def test_shift_ratio_product():
    alpha, z = 1.4, 0.62 + 0.21j
    m, n = 2, 1
    ratio = s2(z, alpha) / s2(z + m - n * alpha, alpha)
    assert_allclose(s2_shift_ratio(z, m, n, alpha), ratio, rtol=1e-11)
    with pytest.raises(DomainError):
        s2_shift_ratio(z, -1, 0, alpha)


def test_q_pochhammer_against_mpmath():
    mp = pytest.importorskip("mpmath")
    a, q = 0.3 + 0.2j, 0.45 - 0.1j
    for n in (0, 1, 4, 9):
        ref = complex(mp.qp(a, q, n))
        assert_allclose(q_pochhammer(a, q, n), ref, rtol=1e-13)
    # negative order inverts the shifted factors: (a;q)_{-n} checked
    # via the defining recursion (a;q)_{m+n} = (a;q)_m (a q^m; q)_n
    val = q_pochhammer(a, q, -3) * q_pochhammer(a * q ** -3, q, 3)
    assert_allclose(val, 1.0, rtol=1e-12)
    with pytest.raises(DivisionByZero):
        q_pochhammer(1.0, 1.0, -2)


def test_tau_binomial_identity():
    assert tau_binomial_check(0.6, 0.0, 1.3) < 1e-13
    assert tau_binomial_check(0.85, 0.5, 0.8) < 1e-10
    # the first double sine pole sits exactly at b = (1+alpha)/2; the
    # integral diverges there and the precondition must refuse it
    with pytest.raises(DomainError):
        tau_binomial_check(0.9, 0.5, 0.8)
    with pytest.raises(DomainError):
        tau_binomial_check(0.6, 0.7, 1.3)


@pytest.mark.parametrize("alpha, tol", [(0.2, 1e-12), (0.5, 1e-12),
                                        (1.0, 1e-12), (1.3, 1e-12),
                                        (1.7, 1e-12), (2.0, 1e-12)])
def test_far_field_matches_window_quadrature(alpha, tol):
    aw = max(alpha, 1.0 / alpha)  # quasi-period after the modular map
    y0 = FAR_FIELD_C * aw
    re = 0.5 * aw + np.array([0.0, 0.25, 0.5, 0.75, 0.99])
    im = np.linspace(y0 - 1.0, y0 + 3.0, 5)
    w = (re[:, None] + 1j * im[None, :]).ravel()
    w = np.concatenate((w, w.conj()))
    quad = np.array([_log_s2_quadrature(np.array([v]), aw)[0] for v in w])
    # a 2 pi i jump between the branches would exceed tol by far
    assert np.max(np.abs(_log_s2_far(w, aw) - quad)) <= tol


@pytest.mark.parametrize("alpha", (0.2, 0.7, 1.0, 1.5, 2.0))
def test_mixed_batch_matches_scalar_calls(alpha):
    rng = np.random.default_rng(11)
    z = rng.uniform(-1.0, 3.0, 60) + 1j * rng.uniform(-30.0, 30.0, 60)
    z[:3] = (0.3, 1.2 + 0.5j, 0.9 - 0.01j)
    scalar = np.array([log_s2(complex(v), alpha) for v in z])
    assert_allclose(log_s2(z, alpha), scalar, rtol=1e-13, atol=1e-13)


def _log_2sin_pi(w):
    """log(2 sin(pi w)) modulo 2 pi i, without overflow at large |Im w|."""
    s = 1.0 if w.imag >= 0 else -1.0
    return s * (0.5j * np.pi - 1j * np.pi * w) \
        + np.log1p(-np.exp(s * 2j * np.pi * w))


def _mod_2pi_i(d):
    return abs(complex(d.real, (d.imag + np.pi) % (2.0 * np.pi) - np.pi))


@pytest.mark.parametrize("alpha", (0.2, 0.7, 1.0, 1.5, 2.0))
@pytest.mark.parametrize("height", (20.0, 600.0))
def test_functional_equations_far_from_axis(alpha, height):
    # log s2 reaches ~1e6 at |Im z| = 600, so besides 1e-12 the bound
    # allows the rounding of a number that size (about 5 ulp)
    for x in np.linspace(0.05, 1.6, 5):
        for z in (complex(x, height), complex(x, -height)):
            ls = log_s2(z, alpha)
            tol = 1e-12 + 1e-15 * abs(ls)
            assert _mod_2pi_i(log_s2(z + 1.0, alpha) - ls
                              + _log_2sin_pi(z / alpha)) <= tol
            assert _mod_2pi_i(log_s2(z + alpha, alpha) - ls
                              + _log_2sin_pi(z)) <= tol
            assert _mod_2pi_i(ls + log_s2(1.0 + alpha - z, alpha)) <= tol


def test_surface_point_keeps_winding():
    lift = SurfacePoint(2.0, 2.0 * np.pi)
    assert lift.value == pytest.approx(2.0)
    assert lift.log == pytest.approx(np.log(2.0) + 2j * np.pi)
    flat = SurfacePoint.from_complex(2.0)
    assert flat.log == pytest.approx(np.log(2.0))
    with pytest.raises(DomainError):
        SurfacePoint(-1.0, 0.0)
