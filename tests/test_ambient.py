"""Ambient curvature stack against closed-form metrics.

Space forms pin the normalizations (round sphere, hyperbolic half-space);
a diagonal metric with exponential factors gives every Christoffel symbol
and low-order curvature component in closed form, which checks the index
conventions one slot at a time.  Randomized polynomial metrics then drive
the full identity-residual suite.
"""

import re

import numpy as np
import pytest

from qgeo.ambient import ambient_identity_residuals, curvature_pack
from qgeo.fields import (
    GeometryError,
    MetricField,
    conformally_rescaled,
    diagonal_exponential_metric,
    flat_metric,
    hyperbolic_half_space_metric,
    sphere_chart_metric,
)
from qgeo.jets import PACK_ORDER, jet_einsum
from qgeo.scenes import random_polynomial_metric, random_scene
from qgeo.submanifold import submanifold_pack


def test_flat_metric_is_flat():
    pack = curvature_pack(flat_metric(5), np.zeros(5))
    for name in ["rm", "ric", "scal", "schouten", "weyl", "cotton", "bach"]:
        field = getattr(pack, name)
        assert np.max(np.abs(field.coeffs)) == 0.0, f"{name} not flat"


@pytest.mark.parametrize("n,radius", [(4, 1.0), (5, 2.0)])
def test_round_sphere_curvature(n, radius):
    x0 = np.array([0.3, -0.1, 0.2, 0.4, 0.25][:n])
    pack = curvature_pack(sphere_chart_metric(n, radius), x0)
    g = pack.g.value
    # constant-curvature model: R_abcd = (g_ac g_bd - g_ad g_bc) / radius^2
    want = (np.einsum("ac,bd->abcd", g, g)
            - np.einsum("ad,bc->abcd", g, g)) / radius**2
    assert np.allclose(pack.rm.value, want, atol=1e-11)
    scal = float(pack.scal.value)
    assert abs(scal - n * (n - 1) / radius**2) < 1e-10, f"scal {scal}"
    assert abs(float(pack.jtrace.value) - n / (2 * radius**2)) < 1e-11
    assert np.allclose(pack.schouten.value, g / (2 * radius**2), atol=1e-11)
    for name in ["weyl", "cotton", "bach"]:
        assert np.max(np.abs(getattr(pack, name).value)) < 1e-10, (
            f"{name} nonzero on the sphere")


def test_hyperbolic_half_space_curvature():
    n = 4
    x0 = np.array([0.1, -0.3, 0.2, 1.4])
    pack = curvature_pack(hyperbolic_half_space_metric(n), x0)
    g = pack.g.value
    assert abs(float(pack.scal.value) + n * (n - 1)) < 1e-10
    assert np.allclose(pack.schouten.value, -g / 2, atol=1e-11)
    assert np.max(np.abs(pack.weyl.value)) < 1e-10
    assert np.max(np.abs(pack.cotton.value)) < 1e-10


@pytest.mark.parametrize("xn", [0.0, -1.0])
@pytest.mark.parametrize("param", [False, True])
def test_hyperbolic_half_space_rejects_points_off_it(xn, param):
    # the log of x^n has no jet there; the error names the metric, the
    # point and the half space instead of a bare FloatingPointError
    with pytest.raises(GeometryError, match=re.escape(
            f"hyperbolic-half-space: point [0.0, 0.0, {xn}] is off the half "
            "space x^n > 0 (n = 3)")):
        hyperbolic_half_space_metric(3).jets([0.0, 0.0, xn], 2, param=param)


def _quadratic_factors(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.uniform(-0.3, 0.3, size=(n, n, n))
    S = 0.5 * (S + S.transpose(0, 2, 1))

    def make(a):
        def f(xs):
            acc = 0.0 * xs[0]
            for b in range(n):
                for c in range(n):
                    acc = acc + 0.5 * S[a, b, c] * xs[b] * xs[c]
            return acc
        return f

    return S, [make(a) for a in range(n)]


def test_diagonal_exponential_christoffel():
    # g = diag(e^{2 f_a}) has Gamma^u_{uu} = d_u f_u, Gamma^u_{uw} = d_w f_u,
    # Gamma^u_{vv} = -e^{2(f_v - f_u)} d_u f_v, and no other components
    n, x0 = 4, np.array([0.15, -0.2, 0.1, 0.05])
    S, factors = _quadratic_factors(n, seed=8)
    pack = curvature_pack(diagonal_exponential_metric(n, factors), x0)
    f = 0.5 * np.einsum("abc,b,c->a", S, x0, x0)
    df = np.einsum("abc,c->ab", S, x0)
    want = np.zeros((n, n, n))
    for u in range(n):
        for v in range(n):
            if u == v:
                want[u, u, :] = df[u]
                want[u, :, u] = df[u]
            else:
                want[u, v, v] = -np.exp(2 * (f[v] - f[u])) * df[v, u]
    assert np.allclose(pack.gamma.value, want, atol=1e-12), (
        f"max dev {np.max(np.abs(pack.gamma.value - want)):.3e}")


def test_diagonal_exponential_curvature_components():
    # at a critical point of every factor the metric is the identity and
    # the curvature reduces to second partials of the factors
    n = 5
    S, factors = _quadratic_factors(n, seed=9)
    pack = curvature_pack(diagonal_exponential_metric(n, factors), np.zeros(n))

    dgam = np.zeros((n, n, n, n))  # dgam[b, u, v, w] = d_b Gamma^u_{vw}
    for u in range(n):
        for w in range(n):
            if u == w:
                dgam[:, u, u, u] = S[u, :, u]
            else:
                dgam[:, u, u, w] = S[u, :, w]
                dgam[:, u, w, u] = S[u, :, w]
                dgam[:, u, w, w] = -S[w, :, u]
    # want[a, b, c, d] = d_a Gamma^c_{bd} - d_b Gamma^c_{ad}
    want = (np.einsum("acbd->abcd", dgam)
            - np.einsum("bcad->abcd", dgam))
    assert np.allclose(pack.rm.value, want, atol=1e-12)

    # the two generating component families, straight from the formulas
    for a in range(n):
        for b in range(n):
            if a != b:
                assert abs(want[a, b, a, b] - (-S[b, a, a] - S[a, b, b])) < 1e-13
            for c in range(n):
                if len({a, b, c}) == 3:
                    assert abs(want[a, c, b, c] - (-S[c, a, b])) < 1e-13

    P = pack.schouten.value
    for a in range(n):
        diag = sum(S[b, a, a] + S[a, b, b] for b in range(n) if b != a)
        cross = sum(S[c, b, b] for b in range(n) for c in range(n)
                    if b != a and c != a and b != c)
        wantP = -diag / (n - 1) + cross / ((n - 1) * (n - 2))
        assert abs(P[a, a] - wantP) < 1e-12
        for b in range(n):
            if a != b:
                off = -sum(S[c, a, b] for c in range(n)
                           if c not in (a, b)) / (n - 2)
                assert abs(P[a, b] - off) < 1e-12

    W = pack.weyl.value
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            wab = -S[b, a, a] - S[a, b, b] - P[a, a] - P[b, b]
            assert abs(W[a, b, a, b] - wab) < 1e-12
            for c in range(n):
                if len({a, b, c}) == 3:
                    assert abs(W[a, c, b, c] - (-S[c, a, b] - P[a, b])) < 1e-12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_identity_residuals_random_metric(n):
    pack = curvature_pack(random_polynomial_metric(n, seed=n),
                          np.full(n, 0.03))
    res = ambient_identity_residuals(pack)
    assert len(res) >= 10
    worst = max(res, key=res.get)
    assert res[worst] < 1e-11, f"n={n} {worst}: {res[worst]:.3e}"


def test_metric_is_parallel():
    pack = curvature_pack(random_polynomial_metric(5, seed=12),
                          np.full(5, -0.02))
    dg = pack.cov_deriv(pack.g)
    assert np.max(np.abs(dg.coeffs)) < 1e-12


def test_inverse_metric_to_the_order_it_is_read():
    # every consumer reads g_up at most one order below the metric, so the
    # pack keeps it there: an exact inverse as a whole jet of that order
    sc = random_scene(4, 5, 2)
    for param in (False, True):
        amb = submanifold_pack(sc, param=param).ambient
        assert amb.g_up.order == PACK_ORDER - 1
        assert amb.g_up.space.param == param
        resid = jet_einsum("ab,bc->ac", amb.g, amb.g_up) - np.eye(5)
        assert resid.order == PACK_ORDER - 1
        assert float(np.max(np.abs(resid.coeffs))) < 1e-13


def test_weyl_scales_conformally():
    # all slots down, the Weyl tensor picks up exactly e^{2u}
    g = random_polynomial_metric(5, seed=77, amplitude=0.04)

    def upsilon(xs):
        return 0.2 * xs[0] - 0.1 * xs[1] * xs[2] + 0.05 * xs[3] ** 2

    x0 = np.array([0.11, -0.07, 0.05, 0.09, -0.12])
    t = 0.37
    base = curvature_pack(g, x0)
    resc = curvature_pack(conformally_rescaled(g, upsilon, t=t), x0)
    u0 = 0.2 * x0[0] - 0.1 * x0[1] * x0[2] + 0.05 * x0[3] ** 2
    want = np.exp(2 * t * u0) * base.weyl.value
    dev = np.max(np.abs(resc.weyl.value - want))
    assert dev < 1e-11 * max(1.0, np.max(np.abs(want))), f"dev {dev:.3e}"


def test_degenerate_metric_rejected():
    def fn(xs):
        z = 0.0 * xs[0]
        return [[1.0 + z, z, z], [z, 1.0 + z, z], [z, z, z]]

    with pytest.raises(GeometryError):
        curvature_pack(MetricField(3, fn, name="degenerate"), np.zeros(3))


def test_low_dimension_rejected():
    with pytest.raises(ValueError):
        curvature_pack(flat_metric(2), np.zeros(2))


def test_low_dimension_raises_geometry_error():
    with pytest.raises(GeometryError, match="dimension >= 3"):
        curvature_pack(flat_metric(2), np.zeros(2))


@pytest.mark.parametrize("case", ["value", "jet", "small"])
def test_asymmetric_metric_rejected(case):
    # a value asymmetry of 5e-6 (below allclose's relative tolerance), a
    # symmetric value whose first-order jet is asymmetric by 0.3, and a
    # value at scale 1e-12 whose off-diagonal is asymmetric by 50 %
    def fn(xs):
        z = 0.0 * xs[0]
        if case == "value":
            return [[3.0 + z, 1.0 + z, z], [1.0 + 5e-6 + z, 3.0 + z, z],
                    [z, z, 1.0 + z]]
        if case == "small":
            return [[3e-12 + z, 1e-12 + z, z], [1.5e-12 + z, 3e-12 + z, z],
                    [z, z, 1e-12 + z]]
        return [[1.0 + z, 0.3 * xs[2], z], [z, 1.0 + z, z], [z, z, 1.0 + z]]

    with pytest.raises(GeometryError, match="not symmetric"):
        MetricField(3, fn, name=case).jets(np.zeros(3), PACK_ORDER)


@pytest.mark.parametrize("case", ["nan", "inf"])
def test_non_finite_metric_rejected(case):
    # a NaN metric passes the symmetry test and Cholesky silently, and one
    # inf component would turn the symmetry test itself into NaN
    def fn(xs):
        m = np.eye(3)
        if case == "nan":
            m[:] = np.nan
        else:
            m[0, 1] = np.inf
        return m

    with pytest.raises(GeometryError, match=f"^{case}: non-finite metric jet"):
        MetricField(3, fn, name=case).jets(np.zeros(3), PACK_ORDER)


def test_overflowing_metric_jet_rejected():
    # at x^3 = 1e-200 the half-space metric's jets overflow to NaN
    with np.errstate(all="ignore"), pytest.raises(
            GeometryError, match="hyperbolic-half-space: non-finite metric jet"):
        hyperbolic_half_space_metric(3).jets([0.0, 0.0, 1e-200], PACK_ORDER)
