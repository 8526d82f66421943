"""Immersed submanifold geometry: frames, fundamental forms, curvature laws.

Golden values come from closed-form catalog scenes (products of round
spheres, the flat torus in the 5-sphere, a cylinder); independent oracles
use graph immersions into flat space where curvature has textbook
formulas.  The structural relations (Gauss/Codazzi/Ricci and their
conformally adjusted forms, divergence exchange identities, the Simons
contraction) are checked as residuals on randomized curved scenes across
every supported (k, n) pair.
"""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo import ambient, jets, submanifold
from qgeo.ambient import (
    CurvaturePack,
    connection_deriv,
    inverse_metric_jets,
    levi_civita_connection,
    riemann_jets,
)
from qgeo.fields import (
    GeometryError,
    ImmersedPatch,
    flat_metric,
    graph_patch,
    sphere_chart_metric,
)
from qgeo.invariants import evaluate_all
from qgeo.jets import PACK_ORDER, Jets, constant, jet_einsum, jet_trace, jets_stack
from qgeo.scenes import random_scene, scene_by_name
from qgeo.submanifold import (
    SubmanifoldPack,
    divergence_identity_residuals,
    frame_residuals,
    gauss_codazzi_residuals,
    projected_ambient_deriv,
    simons_residual,
    submanifold_pack,
)

DIM_PAIRS = [(1, 3), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (4, 7)]


def pack_for(name, **params):
    return submanifold_pack(scene_by_name(name, **params))


# -- golden catalog values -------------------------------------------------


def test_affine_plane_is_totally_geodesic():
    p = pack_for("affine-plane", k=2, n=5)
    assert np.max(np.abs(p.second_fundamental.coeffs)) == 0.0
    assert np.max(np.abs(p.mean_curvature.coeffs)) == 0.0
    res = gauss_codazzi_residuals(p)
    assert max(res.values()) < 1e-14, f"flat plane residuals {res}"


def test_equatorial_sphere_golden():
    p = pack_for("equatorial-s2-in-s5")
    assert abs(float(p.tracefree_norm2.value)) < 1e-13
    assert abs(float(p.mean_norm2.value)) < 1e-13
    # unit round 2-sphere: scalar curvature 2, trace adjustment 1
    assert abs(float(p.intrinsic_scalar.value) - 2.0) < 1e-12
    assert abs(float(p.intrinsic_jtrace.value) - 1.0) < 1e-12
    assert abs(float(p.fialkow_trace.value)) < 1e-13
    # totally geodesic in the round sphere: no deflection, and the
    # mean-curvature-corrected trace adjustment is half the induced metric
    assert np.max(np.abs(p.normal_deflection.value)) < 1e-13
    assert np.allclose(2.0 * p.mc_schouten.value, p.induced.value, atol=1e-12)


def test_clifford_torus_golden():
    p = pack_for("clifford-torus")
    assert abs(float(p.mean_norm2.value)) < 1e-13, "Clifford torus is minimal"
    assert abs(float(p.tracefree_norm2.value) - 2.0) < 1e-12
    # flat induced metric
    assert np.max(np.abs(p.intrinsic_riemann.value)) < 1e-12


def test_sphere_product_golden():
    p = pack_for("s2xs2-in-s5")
    assert abs(float(p.mean_norm2.value)) < 1e-13
    assert abs(float(p.tracefree_norm2.value) - 4.0) < 1e-12
    assert abs(float(p.intrinsic_jtrace.value) - 4.0 / 3.0) < 1e-12
    assert abs(float(p.fialkow_trace.value) - 2.0 / 3.0) < 1e-12
    want = p.induced.value / 6.0
    assert np.allclose(p.fialkow.value, want, atol=1e-12), (
        f"max dev {np.max(np.abs(p.fialkow.value - want)):.3e}")


def test_sphere_product_trace_adjustment_split():
    # minimal with k >= 3, so the corrected trace adjustment splits into
    # intrinsic part plus the trace-adjusting correction tensor
    p = pack_for("s2xs2-in-s5")
    want = p.intrinsic_schouten.value + p.fialkow.value
    assert np.allclose(p.mc_schouten.value, want, atol=1e-12)


def test_cylinder_golden():
    p = pack_for("cylinder-rxs3")
    assert abs(float(p.mean_norm2.value) - 9.0 / 16.0) < 1e-12
    assert abs(float(p.tracefree_norm2.value) - 3.0 / 4.0) < 1e-12


# -- independent graph-immersion oracles -----------------------------------


def test_round_sphere_graph_oracle():
    # upper hemisphere of radius R as a height graph over the xy-plane:
    # umbilic, |H|^2 = 1/R^2, intrinsic scalar curvature 2/R^2
    R = 1.7
    y0 = np.array([0.3, -0.2])

    def height(ys):
        return (R * R - ys[0] ** 2 - ys[1] ** 2).sqrt()

    patch = graph_patch(2, 3, [height], basepoint=y0, name="cap")
    p = SubmanifoldPack(flat_metric(3), patch)
    assert abs(float(p.mean_norm2.value) - 1.0 / R**2) < 1e-12
    assert np.max(np.abs(p.second_tracefree.value)) < 1e-12, "sphere is umbilic"
    assert abs(float(p.intrinsic_scalar.value) - 2.0 / R**2) < 1e-11
    assert abs(float(p.intrinsic_jtrace.value) - 1.0 / R**2) < 1e-11

    # restricted vertical coordinate is a first-sphericalharmonic
    # eigenfunction: surface Laplacian scales it by -2/R^2
    z = p.chart_jets[2]
    lap = p.tangential_laplacian(z)
    want = -2.0 / R**2 * float(z.value)
    assert abs(float(lap.value) - want) < 1e-10, (
        f"laplacian {float(lap.value):.12f} vs {want:.12f}")


@given(
    c1=st.floats(-0.5, 0.5),
    c2=st.floats(-0.5, 0.5),
    c3=st.floats(-0.3, 0.3),
    t0=st.floats(-0.8, 0.8),
)
@settings(max_examples=25, deadline=None)
def test_plane_curve_curvature_oracle(c1, c2, c3, t0):
    # graph curve (t, f(t), 0) in flat 3-space: squared curvature is
    # f''^2 / (1 + f'^2)^3 and the trace-free form vanishes identically
    def f(ys):
        t = ys[0]
        return c1 * t + c2 * t**2 + c3 * t**3

    patch = graph_patch(1, 3, [f, lambda ys: 0.0 * ys[0]],
                        basepoint=np.array([t0]), name="curve")
    p = SubmanifoldPack(flat_metric(3), patch)
    fp = c1 + 2 * c2 * t0 + 3 * c3 * t0**2
    fpp = 2 * c2 + 6 * c3 * t0
    kappa2 = fpp**2 / (1 + fp**2) ** 3
    assert abs(float(p.mean_norm2.value) - kappa2) < 1e-11, (
        f"curvature^2 {float(p.mean_norm2.value):.12f} vs {kappa2:.12f}")
    assert np.max(np.abs(p.second_tracefree.coeffs)) < 1e-12
    # the curve lies in a plane, so the normal gauge never rotates
    assert np.max(np.abs(p.normal_connection.coeffs)) < 1e-11


# -- structural relations on randomized scenes ------------------------------


@pytest.mark.parametrize("k,n", DIM_PAIRS)
def test_frame_construction_random(k, n):
    p = submanifold_pack(random_scene(k, n, seed=101))
    res = frame_residuals(p)
    worst = max(res, key=res.get)
    assert res[worst] < 1e-12, f"(k={k}, n={n}) {worst}: {res[worst]:.3e}"


def _full_order_frame(p):
    """Picks, frame and coframe of the construction at ``PACK_ORDER``: every
    candidate formed from the full-order tangent projector, then
    Gram-Schmidt, with the same picks rule as the pack."""
    n, k = p.n, p.k
    e, g = p.tangent_frame, p.pulled("g")
    u = jet_einsum("ia,ij->ja", e, inverse_metric_jets(p.induced))
    proj = jet_einsum("ja,jb->ab", u, jet_einsum("jc,cb->jb", e, g))
    assert proj.order == PACK_ORDER
    cand = constant(np.eye(n), proj.space) - jet_trace(proj, "ab->ba")
    score = np.einsum("ba,ac,bc->b", cand.value, g.value, cand.value)
    picks = sorted(range(n), key=lambda b: (-score[b], b))[: n - k]
    frame = []
    for b in picks:
        w = cand[b]
        for prev in frame:
            w = w - jet_einsum("a,a->", jet_einsum("a,ab->b", w, g), prev) * prev
        norm2 = jet_einsum("a,a->", jet_einsum("a,ab->b", w, g), w)
        frame.append(w * norm2.sqrt().reciprocal())
    N = jets_stack(frame)
    return picks, N, jet_einsum("ra,ab->rb", N, g)


FRAME_CASES = [*[("random", dict(k=k, n=n, seed=101)) for k, n in DIM_PAIRS],
               ("t4-in-s7", {}), ("s2xs2-in-s5", {}), ("equatorial-s4-in-s5", {})]


@pytest.mark.parametrize("name,params", FRAME_CASES, ids=[
    name + "".join(f"-{v}" for v in params.values()) for name, params in FRAME_CASES])
def test_frames_are_the_full_order_frames_truncated(name, params):
    p = pack_for(name, **params)
    picks, N, coN = _full_order_frame(p)
    assert p.normal_picks == picks
    assert p.induced.order == PACK_ORDER
    assert p.induced_inv.order == p.normal_frame.order == PACK_ORDER - 1
    for got, want in [(p.normal_frame, N), (p.normal_coframe, coN)]:
        want = want.truncate(PACK_ORDER - 1)
        assert got.space is want.space
        err = np.max(np.abs(got.coeffs - want.coeffs))
        assert err <= 1e-13, f"{name} {params}: {err:.3e}"


@pytest.mark.parametrize("k,n", DIM_PAIRS)
def test_curvature_relations_random(k, n):
    p = submanifold_pack(random_scene(k, n, seed=7))
    res = gauss_codazzi_residuals(p)
    expected = {"gauss", "codazzi", "ricci", "conformal_codazzi",
                "conformal_deflection", "conformal_normal"}
    if k >= 2:
        expected.add("conformal_scalar_trace")
    if k >= 3:
        expected |= {"conformal_trace_adjust", "conformal_gauss"}
    assert set(res) == expected
    worst = max(res, key=res.get)
    assert res[worst] < 1e-11, f"(k={k}, n={n}) {worst}: {res[worst]:.3e}"


@pytest.mark.parametrize("k,n", DIM_PAIRS)
def test_divergence_identities_random(k, n):
    p = submanifold_pack(random_scene(k, n, seed=23))
    res = divergence_identity_residuals(p)
    worst = max(res, key=res.get)
    assert res[worst] < 1e-11, f"(k={k}, n={n}) {worst}: {res[worst]:.3e}"


@pytest.mark.parametrize("k,n", [(3, 4), (3, 6), (4, 5), (4, 7)])
def test_simons_contraction_random(k, n):
    p = submanifold_pack(random_scene(k, n, seed=5))
    r = simons_residual(p)
    assert r < 1e-11, f"(k={k}, n={n}) simons residual {r:.3e}"


def test_simons_needs_three_dimensions():
    p = submanifold_pack(random_scene(2, 5, seed=5))
    with pytest.raises(GeometryError):
        simons_residual(p)


def test_hypersurface_normal_gauge_is_flat():
    # one normal direction leaves no room for the gauge to rotate
    p = submanifold_pack(random_scene(4, 5, seed=31))
    assert np.max(np.abs(p.normal_connection.coeffs)) < 1e-13
    assert np.max(np.abs(p.normal_curvature.value)) < 1e-13


# -- the two routes to tangential derivatives match -------------------------


@pytest.mark.parametrize("name,pattern", [
    ("schouten", "tt"), ("schouten", "tn"),
    ("weyl", "tttn"), ("cotton", "ttn"),
])
def test_tangential_derivative_two_routes(name, pattern):
    # route (a): project the composed ambient derivative and exchange the
    # off-block parts through the second fundamental form; route (b):
    # differentiate the projected block with the induced and normal-gauge
    # connections.  They must agree identically.
    for sc in [random_scene(3, 6, seed=11), random_scene(4, 5, seed=3)]:
        p = submanifold_pack(sc)
        via_b = p.tangential_cov_deriv(p.block(name, pattern), pattern).value
        via_a = projected_ambient_deriv(p, name, pattern).value
        num = np.max(np.abs(via_a - via_b))
        den = max(np.max(np.abs(via_a)), np.max(np.abs(via_b)), 1.0)
        assert num / den < 1e-12, (
            f"{sc.name} {name}/{pattern}: routes differ by {num/den:.3e}")


@pytest.mark.parametrize("k,n", [(2, 4), (4, 6)])
def test_pulled_is_one_cached_pullback_per_ambient_tensor(k, n):
    p = submanifold_pack(random_scene(k, n, seed=5))
    names = {nm for nm, v in vars(CurvaturePack).items()
             if isinstance(v, cached_property)}
    names |= {nm for nm, v in vars(p.ambient).items() if isinstance(v, Jets)}
    assert {"g", "g_up", "gamma", "rm", "ric", "scal", "jtrace", "schouten",
            "weyl", "cotton", "bach", "dschouten", "dcotton", "dweyl",
            "driemann"} <= names
    for nm in sorted(names):
        got = p.pulled(nm)
        fresh = p.pull(getattr(p.ambient, nm))
        assert got.space is fresh.space, nm
        assert np.array_equal(got.coeffs, fresh.coeffs), nm
        assert p.pulled(nm) is got, nm


def test_per_pack_keys_by_function_not_name():
    # two builders with one __name__ keep separate slots on one pack, and
    # each builds once per pack and arguments
    p, q = (submanifold_pack(random_scene(2, 4, seed=5)) for _ in range(2))
    builds = []

    def builder(scale):
        def twin(pack, name):
            builds.append(scale)
            return scale * getattr(pack, name)
        return submanifold.per_pack(twin)

    one, two = builder(1.0), builder(2.0)
    assert one.__name__ == two.__name__ == "twin"
    a, b = one(p, "mean_norm2"), two(p, "mean_norm2")
    assert float(b.value) == 2.0 * float(a.value)
    assert one(p, "mean_norm2") is a and two(p, "mean_norm2") is b
    assert builds == [1.0, 2.0]
    assert one(q, "mean_norm2") is not a and builds == [1.0, 2.0, 1.0]


def test_pulled_and_block_are_kept_per_pack():
    p = submanifold_pack(random_scene(4, 6, seed=5))
    assert p.pulled("weyl") is p.pulled("weyl")
    assert p.block("weyl", "ttnt") is p.block("weyl", "ttnt")
    assert p.block("mc_cotton", "tnt") is p.block("mc_cotton", "tnt")


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 6)])
def test_induced_metric_is_parallel(k, n):
    # metric compatibility of the induced connection as whole jets
    for seed in (0, 1):
        p = submanifold_pack(random_scene(k, n, seed=seed))
        d = p.tangential_cov_deriv(p.induced, "tt")
        res = float(np.max(np.abs(d.coeffs)))
        assert res < 1e-12, f"seed {seed}: residual {res:.3e}"
        with pytest.raises(ValueError, match="pattern 'aa'"):
            p.tangential_cov_deriv(p.induced, "aa")


def test_slot_patterns_are_checked():
    # every slot-walking operation rejects a pattern that does not name each
    # slot of its tensor with a letter it accepts, and names that pattern
    p = submanifold_pack(random_scene(3, 5, seed=2))
    L0 = p.second_tracefree
    for op, pattern in [(p.tangential_cov_deriv, "tta"),
                        (p.tangential_cov_deriv, "tt"),
                        (p.divergence, "tta"), (p.divergence, "ttnn"),
                        (p.divergence, "ntn"), (p.project, "ttx"),
                        (p.norm2, "tt")]:
        with pytest.raises(ValueError, match=f"pattern '{pattern}'"):
            op(L0, pattern)


def test_ambient_slots_project_to_themselves():
    p = submanifold_pack(random_scene(2, 4, seed=3))
    for name in ("jtrace", "g", "cotton", "weyl"):
        T = p.pulled(name)
        out = p.project(T, "a" * len(T.batch))
        assert np.array_equal(out.coeffs, T.coeffs), name


def test_first_kind_symbols_built_once_per_metric(monkeypatch):
    # the Christoffel symbols and Riemann share one set of first-kind
    # symbols, of the ambient metric and of the induced one
    built = []
    inner = ambient._first_kind

    def counted(G, dim):
        built.append(G)
        return inner(G, dim)

    for module in (ambient, submanifold):
        monkeypatch.setattr(module, "_first_kind", counted)
    p = submanifold_pack(random_scene(4, 6, seed=2))
    p.intrinsic_riemann, p.induced_christoffel
    assert len(built) == 2
    assert built[0] is p.ambient.g and built[1] is p.induced


# -- invariance properties ---------------------------------------------------


def test_linear_reparameterization_invariance():
    # precomposing the chart with an affine change of parameters, at any
    # scale, moves the frames around but cannot change any scalar built
    # from them, so the differential's rank test must not depend on scale
    sc = random_scene(3, 6, seed=17)
    k = sc.patch.k
    rng = np.random.default_rng(99)
    A0 = np.eye(k) + 0.2 * rng.normal(size=(k, k))
    b = 0.1 * rng.normal(size=k)
    s1 = submanifold_pack(sc).scalar_summary()
    for scale in (1.0, 1e-12, 1e6):
        A = scale * A0

        def refn(ys, A=A):
            zs = [sum(A[i, j] * ys[j] for j in range(k)) + b[i]
                  for i in range(k)]
            return sc.patch.fn(zs)

        y0p = np.linalg.solve(A, sc.point - b)
        repatch = ImmersedPatch(k, sc.patch.n, refn, basepoint=y0p)
        s2 = SubmanifoldPack(sc.metric, repatch).scalar_summary()
        assert set(s1) == set(s2)
        for key in s1:
            assert abs(s1[key] - s2[key]) < 1e-9, (
                f"scale {scale}, {key}: {s1[key]:.12f} vs {s2[key]:.12f}")


def test_linearization_parameter_rides_through():
    # with a parameter-independent metric the parameter is inert: values
    # agree with the plain build, and nothing depends on the extra variable
    sc = random_scene(2, 5, seed=41)
    plain = submanifold_pack(sc)
    riding = submanifold_pack(sc, param=True)
    s0, s1 = plain.scalar_summary(), riding.scalar_summary()
    for key in s0:
        assert abs(s0[key] - s1[key]) < 1e-13, f"{key} drifts under param"
    res = gauss_codazzi_residuals(riding)
    assert max(res.values()) < 1e-11


# -- dimension guards --------------------------------------------------------


def test_dimension_guards():
    curve = submanifold_pack(random_scene(1, 3, seed=1))
    with pytest.raises(GeometryError):
        curve.intrinsic_jtrace
    with pytest.raises(GeometryError):
        curve.fialkow_trace
    surface = submanifold_pack(random_scene(2, 5, seed=1))
    with pytest.raises(GeometryError):
        surface.fialkow
    with pytest.raises(GeometryError):
        surface.intrinsic_schouten
    # the scaled trace stays defined all the way down to curves
    assert np.isfinite(float(curve.fialkow_trace_scaled.value))


def test_degenerate_immersion_rejected():
    squash = ImmersedPatch(2, 5, lambda ys: [ys[0], ys[0], 0.0 * ys[0],
                                             0.0 * ys[0], 0.0 * ys[0]])
    with pytest.raises(GeometryError, match="rank"):
        SubmanifoldPack(flat_metric(5), squash)


def test_pack_dimension_guards_name_the_cause():
    square = ImmersedPatch(3, 3, lambda ys: list(ys), name="square")
    with pytest.raises(GeometryError, match="^square: need 1 <= k < n, got k=3, n=3$"):
        SubmanifoldPack(flat_metric(3), square)
    sc = random_scene(2, 4, seed=5)
    with pytest.raises(GeometryError,
                       match="patch maps into dimension 4, metric has 5"):
        SubmanifoldPack(flat_metric(5), sc.patch, sc.point)


def test_random_scene_names_bad_dimensions():
    with pytest.raises(GeometryError, match="needs 1 <= k < n, got k=6, n=5"):
        random_scene(6, 5, seed=1)


def test_non_finite_chart_point_rejected():
    sc = random_scene(2, 4, seed=5)
    with pytest.raises(GeometryError,
                       match=r"random-graph\(2,4\): non-finite chart jet"):
        SubmanifoldPack(sc.metric, sc.patch, [np.nan, 0.0])


@pytest.mark.parametrize("metric", [flat_metric(4), sphere_chart_metric(4)],
                         ids=["flat", "sphere-chart"])
def test_normal_picks_skip_a_dependent_candidate(metric):
    # all four candidates of this plane score 1/2, and the first two
    # project to the same normal vector: the second is skipped for the third
    s = 1.0 / np.sqrt(2.0)
    plane = ImmersedPatch(2, 4, lambda ys: [s * ys[0], -s * ys[0],
                                            s * ys[1], -s * ys[1]], name="tilted")
    p = SubmanifoldPack(metric, plane, (0.1, 0.2))
    assert p.normal_picks == [0, 2]
    vals = evaluate_all(p)
    if metric.name == "flat":
        assert all(v == 0.0 for v in vals.values()), vals
    else:
        # a plane through the chart origin is a great S^2 of the unit S^4
        for name in ("intrinsic_pfaffian", "extrinsic_q2"):
            assert abs(vals[name] - 1.0) < 1e-12, f"{name}: {vals[name]}"


# -- products run only to the order their result keeps ----------------------


def _record_product_orders(monkeypatch):
    """Record the jet order of every product kernel call, in call order."""
    orders = []
    kernel = jets._product
    monkeypatch.setattr(jets, "_product",
                        lambda spc, *args: orders.append(spc.order)
                        or kernel(spc, *args))
    return orders


def test_products_run_at_the_order_they_keep(monkeypatch):
    scene = random_scene(4, 6, 2)
    p = SubmanifoldPack(scene.metric, scene.patch)
    amb = p.ambient
    orders = _record_product_orders(monkeypatch)

    # each site sums its products with a derivative one order below its input
    connection_deriv(amb.schouten, [levi_civita_connection(amb.gamma)] * 2,
                     p.n)
    assert max(orders) == amb.schouten.order - 1
    first = ambient._first_kind(amb.g, p.n)
    orders.clear()
    riemann_jets(first, amb.gamma, p.n)
    assert orders == [amb.gamma.order - 1]  # one Gamma Gamma product
    for prior, site in [("normal_frame", "normal_connection"),
                        ("normal_connection", "normal_curvature")]:
        order = getattr(p, prior).order
        p.normal_coframe, p._gamma_frame  # build the other inputs unrecorded
        orders.clear()
        getattr(p, site)
        assert max(orders) == order - 1, site

    # a whole ambient pack: the Bach term, the last thing it builds after
    # nabla C, runs at the order of nabla C, and no product (the inverse
    # metric's Newton steps included) runs at the metric's order
    derivs_done = []
    inner = ambient.connection_deriv

    def marked(*args):
        out = inner(*args)
        derivs_done.append(len(orders))
        return out

    monkeypatch.setattr(ambient, "connection_deriv", marked)
    orders.clear()
    pack = CurvaturePack(amb.g, p.n)
    assert amb.g.order == 4 and pack.dcotton.order == 0
    assert max(orders[derivs_done[-1]:]) == pack.dcotton.order
    assert orders.count(4) == 0

    # a fresh plain pack and every invariant: the only patch-space products
    # at PACK_ORDER are the 4 degree steps of the chart's one monomial table
    # (for the pull of g) and the 2 frame projections of the induced metric
    spaces = []
    kernel = jets._product
    monkeypatch.setattr(jets, "_product", lambda spc, *args: spaces.append(
        (spc.nvars, spc.order)) or kernel(spc, *args))
    scene = random_scene(4, 6, 13)
    p = SubmanifoldPack(scene.metric, scene.patch, scene.point)
    p.induced
    assert spaces.count((p.k, PACK_ORDER)) == 6
    evaluate_all(p)
    assert spaces.count((p.k, PACK_ORDER)) == 6


def _weyl_four_products(rm, P, g):
    return (rm
            - jet_einsum("ac,bd->abcd", P, g)
            - jet_einsum("bd,ac->abcd", P, g)
            + jet_einsum("ad,bc->abcd", P, g)
            + jet_einsum("bc,ad->abcd", P, g))


def test_weyl_from_one_product_is_the_four_product_form():
    p = submanifold_pack(random_scene(4, 6, 2))
    amb = p.ambient
    for weyl, want in [
            (amb.weyl, _weyl_four_products(amb.rm, amb.schouten, amb.g)),
            (p.intrinsic_weyl, _weyl_four_products(
                p.intrinsic_riemann, p.intrinsic_schouten, p.induced))]:
        assert weyl.space is want.space
        assert np.array_equal(weyl.coeffs, want.coeffs)


def _riemann_three_products(G, Gamma, dim):
    # R_{abc}^d from d Gamma and two Gamma Gamma products, lowered by a third
    dGam = jets_stack([Gamma.deriv(a) for a in range(dim)])
    Gam = Gamma.truncate(dGam.order)
    rm_ud = (-jet_trace(dGam, "adbc->abcd") + jet_trace(dGam, "bdac->abcd")
             + jet_einsum("eac,dbe->abcd", Gam, Gam)
             - jet_einsum("ebc,dae->abcd", Gam, Gam))
    return jet_einsum("abce,ed->abcd", rm_ud, G)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_riemann_from_one_product_is_the_three_product_form(n):
    p = submanifold_pack(random_scene(4, n, 0))
    amb = p.ambient
    for rm, want in [
            (amb.rm, _riemann_three_products(amb.g, amb.gamma, n)),
            (p.intrinsic_riemann, _riemann_three_products(
                p.induced, p.induced_christoffel, p.k))]:
        assert rm.space is want.space
        gap = float(np.max(np.abs(rm.coeffs - want.coeffs)))
        assert gap <= 1e-14 * float(np.max(np.abs(want.coeffs)))


# -- one chart per patch point -------------------------------------------------


def test_packs_at_one_point_share_the_chart():
    sc = random_scene(4, 5, 3)
    points = [sc.point, sc.point + 0.01, sc.point - 0.02]
    packs = {(i, param): SubmanifoldPack(sc.metric, sc.patch, pt, param=param)
             for i, pt in enumerate(points) for param in (False, True)}
    # the last chart per parameter flag, whatever the number of points
    assert len(sc.patch._charts) <= 2
    last = SubmanifoldPack(flat_metric(5), sc.patch, points[-1])
    assert last.pull is packs[2, False].pull
    assert last.chart_jets is packs[2, False].chart_jets
    assert packs[2, True].pull is not last.pull

    # a revisited point: the kept chart is rebuilt, equal to a fresh patch's
    fresh = ImmersedPatch(sc.patch.k, sc.patch.n, sc.patch.fn)
    for param in (False, True):
        again = SubmanifoldPack(sc.metric, sc.patch, points[0], param=param)
        want = SubmanifoldPack(sc.metric, fresh, points[0], param=param)
        assert np.array_equal(again.chart_jets.coeffs, want.chart_jets.coeffs)
        assert again.scalar_summary() == want.scalar_summary()
