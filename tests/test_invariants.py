"""Scalar invariants and Q-curvatures: golden values, dual routes, operators.

Golden numbers come from closed-form catalog scenes whose curvature data
reduce to rational arithmetic (equatorial spheres of several radii, the
Clifford torus, products of round 2-spheres, the flat 4-torus in the
7-sphere).  Every invariant that ships with two independent evaluation
routes is checked for pointwise agreement on randomized curved scenes;
codimension-one structural zeros, minimal-Einstein specializations, the
pole continuation at background dimension four, and the fourth-order
operator family get dedicated oracles.
"""

import itertools
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeo.conformal as cf
import qgeo.invariants as inv
from qgeo.fields import GeometryError, conformally_rescaled
from qgeo.scenes import (
    affine_plane,
    equatorial_sphere,
    random_polynomial_metric,
    random_scene,
    scene_by_name,
    t4_in_s7,
)
from qgeo.submanifold import SubmanifoldPack


# The cached pack helpers below share one pack, memo included, among every
# test that asks for the same arguments, so a test that counts per-pack work
# (builds, projections, derivatives) builds its own pack, as the counting
# tests in this file do.
@lru_cache(maxsize=None)
def catalog_pack(name):
    sc = scene_by_name(name)
    return SubmanifoldPack(sc.metric, sc.patch, sc.point)


@lru_cache(maxsize=None)
def random_pack(k, n, seed):
    sc = random_scene(k, n, seed)
    return SubmanifoldPack(sc.metric, sc.patch, sc.point)


@lru_cache(maxsize=None)
def sphere_pack(k, n, radius=1.0, point=None):
    pt = None if point is None else np.asarray(point)
    sc = equatorial_sphere(k, n, radius=radius, point=pt)
    return SubmanifoldPack(sc.metric, sc.patch, sc.point)


# -- golden catalog values ---------------------------------------------------


@pytest.mark.parametrize("k,n,radius", [
    (2, 3, 1.0), (2, 5, 1.0), (2, 3, 1.3), (2, 5, 0.8),
])
def test_surface_q_on_round_spheres(k, n, radius):
    # totally geodesic equator in a round sphere of sectional curvature
    # 1/radius^2: the surface Q-curvature is exactly that constant
    p = sphere_pack(k, n, radius)
    want = 1.0 / radius**2
    got = float(inv.extrinsic_q2(p).value)
    assert abs(got - want) < 1e-12, f"Q2 {got:.15f} vs {want:.15f}"
    # the defect vanishes (conformally flat background, umbilic equator)
    assert abs(float(inv.gauss_bonnet_defect(p).value)) < 1e-13


@pytest.mark.parametrize("n,radius", [(5, 1.0), (7, 1.0), (7, 2.0)])
def test_fourth_order_q_on_round_spheres(n, radius):
    p = sphere_pack(4, n, radius)
    lam = 1.0 / radius**2
    want = 6.0 * lam**2
    for route in ("assembled", "trace_expansion", "gauss_bonnet"):
        got = float(inv.extrinsic_q4(p, route).value)
        assert abs(got - want) < 1e-12, (
            f"Q4[{route}] {got:.15f} vs {want:.15f}")
    assert abs(float(inv.intrinsic_q4(p).value) - want) < 1e-12
    assert abs(float(inv.q4_extrinsic_correction(p).value)) < 1e-12
    assert abs(float(inv.gauss_bonnet_defect(p).value)) < 1e-12
    assert abs(float(inv.fialkow_quartic(p).value)) < 1e-12
    assert abs(float(inv.weyl_trace_quartic(p).value)) < 1e-12
    # round 4-sphere Pfaffian density: (1/2)(2 J^2 - 2 |P|^2) with J = 2 lam
    want_pf = 3.0 * lam**2
    assert abs(float(inv.intrinsic_pfaffian(p).value) - want_pf) < 1e-12


def test_clifford_torus_golden():
    p = catalog_pack("clifford-torus")
    assert abs(float(inv.extrinsic_q2(p).value) - 1.0) < 1e-12
    # flat induced metric, conformally flat background: Q is pure defect
    assert abs(float(inv.intrinsic_pfaffian(p).value)) < 1e-13
    assert abs(float(inv.gauss_bonnet_defect(p).value) - 1.0) < 1e-12


def test_sphere_product_golden_table():
    # S^2(1/sqrt2) x S^2(1/sqrt2) minimal in the round 5-sphere; every
    # line below reduces to rational arithmetic in the product metric
    p = catalog_pack("s2xs2-in-s5")
    checks = {
        "intrinsic_q4": (inv.intrinsic_q4, 8.0 / 3.0),
        "q4_correction": (inv.q4_extrinsic_correction, 0.0),
        "pfaffian": (inv.intrinsic_pfaffian, 4.0),
        "defect": (inv.gauss_bonnet_defect, -2.0),
        "fialkow_quartic": (inv.fialkow_quartic, 4.0),
        "weyl_trace_quartic": (inv.weyl_trace_quartic, 0.0),
        "divergence_flux": (inv.q4_divergence_flux, 0.0),
    }
    for label, (fn, want) in checks.items():
        got = float(fn(p).value)
        assert abs(got - want) < 1e-10, f"{label}: {got:.12f} vs {want}"
    for route in ("assembled", "trace_expansion", "gauss_bonnet"):
        got = float(inv.extrinsic_q4(p, route).value)
        assert abs(got - 6.0) < 1e-10, f"Q4[{route}] {got:.12f}"


def test_flat_torus_in_seven_sphere_golden():
    # flat induced metric: the intrinsic fourth-order quantities vanish
    # and Q is carried entirely by the (constant) extrinsic defect
    p = catalog_pack("t4-in-s7")
    assert abs(float(inv.intrinsic_q4(p).value)) < 1e-12
    assert abs(float(inv.intrinsic_pfaffian(p).value)) < 1e-12
    assert abs(float(inv.q4_divergence_flux(p).value)) < 1e-10
    assert abs(float(inv.gauss_bonnet_defect(p).value) - 6.0) < 1e-10
    assert abs(float(inv.extrinsic_q4(p).value) - 6.0) < 1e-10


def test_totally_geodesic_flat_plane_everything_vanishes():
    for (k, n) in ((2, 5), (4, 6), (4, 5)):
        sc = affine_plane(k, n)
        p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
        vals = inv.evaluate_all(p)
        assert vals, f"empty registry at ({k},{n})"
        worst = max(vals, key=lambda m: abs(vals[m]))
        assert abs(vals[worst]) < 1e-14, (
            f"({k},{n}) {worst} = {vals[worst]:.3e} on a flat plane")


# -- dual evaluation routes on randomized scenes ------------------------------

DIM_PAIRS = [(2, 5), (3, 5), (4, 6), (5, 7)]


def agree(label, a, b, tol=1e-12):
    va, vb = float(a.value), float(b.value)
    assert abs(va - vb) < tol, f"{label}: {va:.15e} vs {vb:.15e}"


@pytest.mark.parametrize("k,n", DIM_PAIRS)
def test_pole_free_combinations(k, n):
    p = random_pack(k, n, 11)
    two_i_plus_j = (2.0 * inv.fialkow_quartic(p)
                    + inv.weyl_trace_quartic(p))
    agree("2I+J combo", inv.tracefree_quartic_combo(p), two_i_plus_j)
    agree("scaled weyl-trace", inv.weyl_trace_quartic_scaled(p),
          (n - 4.0) * inv.weyl_trace_quartic(p))


def test_critical_anomaly_b_projects_the_weyl_derivative_once(monkeypatch):
    # the critical display and the shape/Weyl-derivative trace inside it
    # read one cached ``ntttt`` block of the pulled Weyl derivative
    sc = random_scene(4, 5, 11)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    project, patterns = SubmanifoldPack.project, []

    def counted(self, T, pattern):
        patterns.append(pattern)
        return project(self, T, pattern)

    monkeypatch.setattr(SubmanifoldPack, "project", counted)
    inv.anomaly_quartic_b(p, route="critical")
    inv._shape_dot_dweyl_trace(p)
    assert patterns.count("ntttt") == 1


@pytest.mark.parametrize("k,n", [(2, 5), (4, 6)])
def test_ambient_pair_weyl_squares_reference(k, n):
    # numpy on the point values, one einsum per square, against the pack's
    # frame projections and norms
    p = random_pack(k, n, 3)
    W = p.pulled("weyl").value
    e, hi = p.tangent_frame.value, p.induced_inv.value
    gi = p.pulled("g_up").value
    A = np.einsum("ia,jb,abcd->ijcd", e, e, W)
    s1 = np.einsum("ijcd,ik,jl,ce,df,klef->", A, hi, hi, gi, gi, A)
    B = np.einsum("ia,jc,abcd->ibjd", e, e, W)
    s2 = np.einsum("ibjd,ik,jl,be,df,kelf->", B, hi, hi, gi, gi, B)
    Z = np.einsum("ib,jd,abcd,ij->ac", e, e, W, hi)
    s3 = np.einsum("ac,ae,cf,ef->", Z, gi, gi, Z)
    got = [float(s.value) for s in inv._ambient_pair_weyl_squares(p)]
    assert min(abs(s1), abs(s2), abs(s3)) > 1e-6
    np.testing.assert_allclose(got, [s1, s2, s3], rtol=1e-12)


def test_hypersurface_displays_on_cylinder():
    # concrete non-minimal hypersurface with closed-form shape operator
    p = catalog_pack("cylinder-rxs3")
    agree("willmore", inv.willmore_quartic(p),
          inv.willmore_quartic(p, "hypersurface"))
    agree("transverse A", inv.transverse_weyl_quartic_a(p),
          inv.transverse_weyl_quartic_a(p, "hypersurface"))
    agree("transverse B", inv.transverse_weyl_quartic_b(p),
          inv.transverse_weyl_quartic_b(p, "hypersurface"))


@pytest.mark.parametrize("k,n", [(4, 5), (5, 6)])
def test_codimension_one_structural_zeros(k, n):
    # one normal direction leaves no room for the normal-traced Weyl
    # block: the companion divergence invariant, the Weyl-trace quartic,
    # and the second anomaly invariant all collapse
    for seed in (2, 11):
        p = random_pack(k, n, seed)
        assert abs(float(inv.div_shape_weyl_b(p).value)) < 1e-13
        assert abs(float(inv.weyl_trace_quartic(p).value)) < 1e-12
        assert abs(float(inv.anomaly_quartic_b(p).value)) < 1e-12


# -- minimal immersions in Einstein backgrounds -------------------------------


@pytest.mark.parametrize("name", ["s2xs2-in-s5", "clifford-torus", "t4-in-s7"])
def test_minimal_einstein_specializations(name):
    sc = scene_by_name(name)
    p = catalog_pack(name)
    lam = sc.einstein_lambda
    agree("fialkow quartic", inv.fialkow_quartic(p),
          inv.minimal_einstein_fialkow_quartic(p, lam), tol=1e-10)
    agree("weyl-trace quartic", inv.weyl_trace_quartic(p),
          inv.minimal_einstein_weyl_trace_quartic(p, lam), tol=1e-10)


@pytest.mark.parametrize("k,n,radius", [(3, 5, 1.0), (4, 7, 2.0)])
def test_minimal_einstein_specializations_spheres(k, n, radius):
    p = sphere_pack(k, n, radius)
    lam = 1.0 / radius**2
    agree("fialkow quartic", inv.fialkow_quartic(p),
          inv.minimal_einstein_fialkow_quartic(p, lam))
    agree("weyl-trace quartic", inv.weyl_trace_quartic(p),
          inv.minimal_einstein_weyl_trace_quartic(p, lam))


# -- fourth-order operator family ---------------------------------------------


def test_flux_sign_is_calibrated():
    # e^{4u} Q4[e^{2u} h] = Q4[h] + P4[u] on a randomized 4-manifold holds
    # with the shipped flux sign and fails with the opposite one
    g = random_polynomial_metric(5, seed=424, amplitude=0.04)
    patch = affine_plane(4, 5).patch
    y0 = np.full(4, 0.02)

    def upsilon(xs):
        return 0.15 * xs[0] - 0.1 * xs[1] * xs[2] + 0.07 * xs[3] ** 2

    base = SubmanifoldPack(g, patch, y0)
    resc = SubmanifoldPack(conformally_rescaled(g, upsilon, t=1.0), patch, y0)
    u = upsilon([base.chart_jets[a] for a in range(5)])
    law = (4.0 * u).exp() * inv.intrinsic_q4(resc) - inv.intrinsic_q4(base)
    lap2 = base.tangential_laplacian(base.tangential_laplacian(u))
    flux = (inv.intrinsic_paneitz_apply(base, u) - lap2) * inv.PANEITZ_FLUX_SIGN
    assert inv.PANEITZ_FLUX_SIGN == 1.0
    shipped = abs(float((law - lap2 - flux).value))
    flipped = abs(float((law - lap2 + flux).value))
    assert shipped < 1e-8, f"law residual with sign +1: {shipped:.3e}"
    assert flipped > 1e-4, f"law residual with sign -1: {flipped:.3e}"


def test_operator_reduces_to_bilaplacian_on_flat_plane():
    sc = affine_plane(4, 5)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    phi = p.chart_jets[0] ** 2 * p.chart_jets[1] ** 2
    got = float(inv.extrinsic_paneitz_apply(p, phi).value)
    assert got == pytest.approx(8.0, abs=1e-13), f"flat biharmonic {got}"


def test_operator_annihilates_constants_exactly():
    plane = affine_plane(4, 5)
    for p in (SubmanifoldPack(plane.metric, plane.patch, plane.point),
              catalog_pack("s2xs2-in-s5"),
              sphere_pack(2, 5)):
        one = 0.0 * p.chart_jets[0] + 1.0
        assert float(inv.extrinsic_paneitz_apply(p, one).value) == 0.0


def test_operator_annihilates_coordinate_cubics_on_round_sphere():
    # stereographic coordinates relate the round sphere conformally to
    # flat space, where the critical fourth-order operator is the
    # bi-Laplacian; covariance forces cubics into the kernel pointwise
    p = sphere_pack(4, 5, point=(0.2, -0.3, 0.1, 0.25))
    phi = (p.chart_jets[0] ** 2 * p.chart_jets[1]
           + 0.4 * p.chart_jets[2])
    got = float(inv.extrinsic_paneitz_apply(p, phi).value)
    assert abs(got) < 1e-13, f"cubic not annihilated: {got:.3e}"


def test_operator_factorizes_on_minimal_einstein():
    p = sphere_pack(4, 7, 2.0, point=(0.3, -0.1, 0.2, 0.05))
    phi = p.chart_jets[0] ** 4 + p.chart_jets[1] ** 2 * p.chart_jets[2] ** 2
    a = float(inv.extrinsic_paneitz_apply(p, phi).value)
    b = float(inv.factored_paneitz_apply(p, phi, 0.25).value)
    assert abs(a) > 1e-3, "test function too symmetric to be probative"
    assert abs(a - b) < 1e-10, f"factored form {b:.12f} vs {a:.12f}"

    q = catalog_pack("s2xs2-in-s5")
    psi = q.chart_jets[0] + 0.3 * q.chart_jets[1] * q.chart_jets[2]
    a = float(inv.extrinsic_paneitz_apply(q, psi).value)
    b = float(inv.factored_paneitz_apply(q, psi, 1.0).value)
    assert abs(a) > 1e-3
    assert abs(a - b) < 1e-10, f"factored form {b:.12f} vs {a:.12f}"


def test_surface_operator_is_minus_laplacian():
    p = random_pack(2, 5, 11)
    phi = p.chart_jets[0] * p.chart_jets[1] + 0.2 * p.chart_jets[2] ** 2
    agree("surface operator", inv.extrinsic_paneitz_apply(p, phi),
          -1.0 * p.tangential_laplacian(phi))


def test_factored_form_rejects_odd_dimension():
    p = random_pack(3, 5, 11)
    with pytest.raises(GeometryError):
        inv.factored_paneitz_apply(p, p.chart_jets[0], 1.0)


# -- guards on routes and dimensions -------------------------------------------


def _pack_inside(spec):
    """A seed-3 random pack inside the scalar's domain."""
    return random_pack(*next(d for d in [(4, 6), (2, 5)] if spec.valid(*d)), 3)


@pytest.mark.parametrize("name", sorted(inv.REGISTRY))
def test_unknown_route_is_named(name):
    # a scalar with one closed form takes no route at all
    with pytest.raises(ValueError, match="^unknown route 'nope'$"):
        getattr(inv, name)(_pack_inside(inv.REGISTRY[name]), route="nope")


# call on a pack, its (k, n), and a fragment of the message it must raise
GUARDS = [
    (lambda p: inv.fialkow_quartic(p, route="parts", extend=True), (3, 4),
     "puts this scalar on its pole"),
    (lambda p: inv.fialkow_quartic(p, route="parts"), (1, 3),
     "fialkow_quartic route 'parts' is defined for k >= 2, got k=1, n=3"),
    (lambda p: inv.extrinsic_q4(p, route="gauss_bonnet"), (3, 5),
     "extrinsic_q4 route 'gauss_bonnet' is defined for k == 4, got k=3, n=5"),
    (inv.q4_divergence_flux, (3, 5), "the divergence split is the k = 4 case"),
    (lambda p: inv.intrinsic_paneitz_apply(p, p.chart_jets[0]), (3, 5),
     "intrinsic fourth-order operator needs k = 4"),
    (lambda p: inv.extrinsic_paneitz_apply(p, p.chart_jets[0]), (3, 5),
     "extrinsic operator implemented for k in {2, 4}"),
    (lambda p: inv.willmore_quartic(p, route="hypersurface"), (4, 6),
     "willmore_quartic route 'hypersurface' is defined for (k, n) == (4, 5), "
     "got k=4, n=6"),
    (lambda p: inv.transverse_weyl_quartic_a(p, route="hypersurface"), (4, 6),
     "transverse_weyl_quartic_a route 'hypersurface' is defined for "
     "n == k + 1, got k=4, n=6"),
    (lambda p: inv.transverse_weyl_quartic_b(p, route="hypersurface"), (4, 6),
     "transverse_weyl_quartic_b route 'hypersurface' is defined for "
     "n == k + 1, got k=4, n=6"),
    (lambda p: inv.anomaly_quartic_a(p, route="critical"), (2, 5),
     "anomaly_quartic_a route 'critical' is defined for k == 4, got k=2, n=5"),
    (lambda p: inv.anomaly_quartic_b(p, route="critical"), (2, 5),
     "anomaly_quartic_b route 'critical' is defined for k == 4, got k=2, n=5"),
    (lambda p: p.intrinsic_weyl, (2, 4),
     "intrinsic trace decomposition needs k >= 3"),
]


@pytest.mark.parametrize("call,dims,message", GUARDS)
def test_guard_outside_its_domain(call, dims, message):
    with pytest.raises(GeometryError, match=re.escape(message)):
        call(random_pack(*dims, 3))


# -- behaviour at background dimension four -----------------------------------


def test_pole_guard_and_continuation_at_three_in_four():
    p = random_pack(3, 4, 2)
    with pytest.raises(GeometryError):
        inv.fialkow_quartic(p)
    with pytest.raises(GeometryError):
        inv.weyl_trace_quartic(p)
    # the continued ratio keeps the two-invariant combination consistent
    # with its pole-free single display
    two_i_plus_j = (2.0 * inv.fialkow_quartic(p, extend=True)
                    + inv.weyl_trace_quartic(p, extend=True))
    agree("continued 2I+J", inv.tracefree_quartic_combo(p), two_i_plus_j)
    # a 3-in-4 immersion is a hypersurface, so the continued Weyl-trace
    # quartic still lands on its structural zero
    assert abs(float(inv.weyl_trace_quartic(p, extend=True).value)) < 1e-12


def test_continuation_is_not_offered_off_the_special_case():
    p = random_pack(2, 4, 7)
    with pytest.raises(GeometryError):
        inv.fialkow_quartic(p, extend=True)
    # the pole-free members remain available at n = 4
    float(inv.tracefree_quartic_combo(p).value)
    float(inv.weyl_trace_quartic_scaled(p).value)
    float(inv.extrinsic_q2(p).value)


# -- registry ------------------------------------------------------------------


def test_registry_names_match_functions():
    # a direct call and ``evaluate`` pass through the one domain gate
    for name, spec in inv.REGISTRY.items():
        assert spec.name == name
        assert callable(spec.compute) and callable(spec.valid)
        assert getattr(inv, name) is spec.compute


def test_registry_availability_reflects_dimensions():
    names = set(inv.available(4, 5))
    assert "willmore_quartic" in names
    assert "extrinsic_q2" not in names
    assert "fialkow_quartic" in names
    names24 = set(inv.available(2, 4))
    assert "fialkow_quartic" not in names24, "pole at background dim 4"
    assert "weyl_trace_quartic_scaled" in names24
    assert "extrinsic_q2" in names24
    assert inv.available(1, 3), "curves have evaluable invariants"


def test_registry_guards_dimension_errors():
    p = random_pack(2, 5, 11)
    with pytest.raises(GeometryError, match="willmore_quartic is defined"):
        inv.evaluate(p, "willmore_quartic")


# every (k, n) with 1 <= k < n <= 7 that has an ambient curvature (n >= 3)
ALL_DIMS = [(k, n) for n in range(3, 8) for k in range(1, n)]


def test_registry_evaluates_everything_available():
    for (k, n) in ALL_DIMS:
        p = random_pack(k, n, 11)
        vals = inv.evaluate_all(p)
        assert set(vals) == set(inv.available(k, n))
        for name, v in vals.items():
            assert np.isfinite(v), f"({k},{n}) {name} not finite"


def test_registry_pins_every_scalar_domain():
    # a direct call outside the registered domain fails as ``evaluate``
    # does, naming the scalar
    calls = 0
    for (k, n) in ALL_DIMS:
        p = random_pack(k, n, 11)
        for name, spec in inv.REGISTRY.items():
            if spec.valid(k, n):
                continue
            want = (f"^{name} is defined for {re.escape(spec.dims)}, "
                    f"got k={k}, n={n}$")
            with pytest.raises(GeometryError, match=want):
                spec.compute(p)
            calls += 1
    assert calls == 133


def _plain_and_parameter_packs(k, n):
    sc = random_scene(k, n, 11)
    return [random_pack(k, n, 11),
            SubmanifoldPack(sc.metric, sc.patch, sc.point, param=True)]


def test_every_route_runs_within_the_jet_budget():
    # every route of every routed scalar, on a plain and a parameter pack
    # wherever the scalar is available: finite coefficients, or the
    # GeometryError of a specialized display's domain, never a BudgetError
    # (a block or pull cut below the order some route reads would raise one)
    outcomes = {"finite": 0, "outside a display's domain": 0}
    for (k, n) in ALL_DIMS:
        packs = _plain_and_parameter_packs(k, n)
        for name, spec in inv.REGISTRY.items():
            if not (spec.routes and spec.valid(k, n)):
                continue
            fn = getattr(inv, name)
            default = next(iter(spec.routes))
            for p, route in itertools.product(packs, spec.routes):
                where = f"({k},{n}) {name} route={route} param={p.param}"
                try:
                    out = fn(p, route=route)
                except GeometryError:
                    assert route != default, where
                    outcomes["outside a display's domain"] += 1
                    continue
                assert np.isfinite(out.coeffs).all(), where
                outcomes["finite"] += 1
    assert outcomes == {"finite": 440, "outside a display's domain": 86}


@pytest.mark.parametrize("k,n", ALL_DIMS)
def test_routes_agree_with_the_default(k, n):
    # every closed form of a scalar against its default route, wherever the
    # scalar and the form's own condition hold: every coefficient, so on a
    # parameter pack the linearization too
    for p in _plain_and_parameter_packs(k, n):
        for name, spec in inv.REGISTRY.items():
            if not (spec.routes and spec.valid(k, n)):
                continue
            for route in list(spec.routes)[1:]:
                if not inv._condition(spec.routes[route])(k, n):
                    continue
                a, b = spec.compute(p), spec.compute(p, route)
                gap = float(np.abs(a.coeffs - b.coeffs).max())
                assert gap < 1e-12, (
                    f"({k},{n}) {name} {route} param={p.param}: gap {gap:.3e}")


def test_each_scalar_is_built_once_per_pack_and_route():
    # the default route's spellings and ``evaluate`` return the one value
    # the gate keeps, a named route its own
    for name, spec in inv.REGISTRY.items():
        p = _pack_inside(spec)
        fn = getattr(inv, name)
        spellings = [fn(p), inv.evaluate(p, name)]
        if spec.routes:
            default, *others = spec.routes
            spellings += [fn(p, default), fn(p, route=default)]
            for route in others:
                if inv._condition(spec.routes[route])(p.k, p.n):
                    assert fn(p, route) is fn(p, route=route), (name, route)
        assert all(v is spellings[0] for v in spellings), name


def test_unknown_scalar_lists_the_registered_ones():
    with pytest.raises(KeyError, match=r"unknown scalar 'nope'; registered: "
                       r"\['anomaly_quartic_a', .*'willmore_quartic'\]"):
        inv.evaluate(random_pack(2, 5, 11), "nope")


@pytest.mark.parametrize("k,n,seed", [(2, 4, 5), (3, 5, 1), (4, 6, 3), (5, 7, 2)])
def test_evaluate_all_derives_nothing_twice(monkeypatch, k, n, seed):
    # a tensor is the same when its slots and coefficients are: every
    # covariant derivative of one pack is taken once, however many
    # invariants (and general routes) read it
    derive = SubmanifoldPack.tangential_cov_deriv
    seen = []

    def recording(self, T, pattern):
        seen.append((pattern, T.coeffs.shape, T.coeffs.tobytes()))
        return derive(self, T, pattern)

    monkeypatch.setattr(SubmanifoldPack, "tangential_cov_deriv", recording)
    sc = random_scene(k, n, seed)
    inv.evaluate_all(SubmanifoldPack(sc.metric, sc.patch, sc.point))
    assert seen and len(set(seen)) == len(seen), (
        f"{len(seen)} derivatives of {len(set(seen))} distinct tensors")


def _record_derivatives(monkeypatch) -> list:
    """Patch the pack to record each tangential derivative it takes: the
    pack, the slots and the coefficients.  A derivative of an all-zero
    tensor (the constant probe of the Q battery) is left out."""
    derive = SubmanifoldPack.tangential_cov_deriv
    seen = []

    def recording(self, T, pattern):
        if T.coeffs.any():
            seen.append((self, pattern, T.coeffs.shape, T.coeffs.tobytes()))
        return derive(self, T, pattern)

    monkeypatch.setattr(SubmanifoldPack, "tangential_cov_deriv", recording)
    return seen


#: the four batteries of one certification run on a scene
_BATTERIES = {
    "invariance": lambda sc, s: cf.check_invariance(sc, seed=s),
    "tangential": lambda sc, s: cf.check_tangential_dependence(sc, seed=s),
    "strata": lambda sc, s: cf.check_strata_vanishing(sc, seed=s),
    "q": lambda sc, s: cf.check_q_transformation(scenes=[sc], seed=s),
}


@pytest.mark.parametrize("seed", [2, 17])
@pytest.mark.parametrize("battery", sorted(_BATTERIES))
def test_batteries_derive_nothing_twice_per_pack(monkeypatch, battery, seed):
    seen = _record_derivatives(monkeypatch)
    _BATTERIES[battery](random_scene(4, 5, seed), seed)
    assert seen and len(set(seen)) == len(seen), (
        f"{len(seen)} derivatives of {len(set(seen))} distinct tensors")


def test_gauss_bonnet_scalars_derive_nothing_twice(monkeypatch):
    seen = _record_derivatives(monkeypatch)
    sc = t4_in_s7()
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    for fn in (inv.intrinsic_pfaffian, inv.gauss_bonnet_defect,
               inv.extrinsic_q4, inv.q4_divergence_flux):
        fn(p)
    assert seen and len(set(seen)) == len(seen), (
        f"{len(seen)} derivatives of {len(set(seen))} distinct tensors")


def test_registry_weights():
    assert inv.REGISTRY["extrinsic_q2"].weight_at(2) == -2
    assert inv.REGISTRY["fialkow_quartic"].weight_at(3) == -4
    assert inv.REGISTRY["gauss_bonnet_defect"].weight_at(2) == -2
    assert inv.REGISTRY["gauss_bonnet_defect"].weight_at(4) == -4
    assert inv.REGISTRY["intrinsic_pfaffian"].weight_at(4) == -4


# -- scaling under constant conformal factors ----------------------------------


@given(c=st.floats(-0.4, 0.4))
@settings(max_examples=8, deadline=None)
def test_surface_q_scales_under_constant_rescale(c):
    # constant factors shift nothing through the second-order operator,
    # so the surface Q-curvature scales by the pure metric weight
    sc = random_scene(2, 4, 11)
    p0 = random_pack(2, 4, 11)
    ghat = conformally_rescaled(sc.metric, lambda xs: 0.0 * xs[0] + 1.0, t=c)
    p1 = SubmanifoldPack(ghat, sc.patch, sc.point)
    q0 = float(inv.extrinsic_q2(p0).value)
    q1 = float(inv.extrinsic_q2(p1).value)
    assert abs(np.exp(2.0 * c) * q1 - q0) < 1e-10, (
        f"weight -2 scaling broken: {np.exp(2.0 * c) * q1:.12f} vs {q0:.12f}")
