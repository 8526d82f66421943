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
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo import ambient, conformal, jets, submanifold
from qgeo.ambient import (
    CurvaturePack,
    ambient_identity_residuals,
    christoffel_jets,
    connection_deriv,
    inverse_metric_jets,
    riemann_jets,
)
from qgeo.fields import (
    GeometryError,
    ImmersedPatch,
    flat_metric,
    graph_patch,
    hyperbolic_half_space_metric,
    sphere_chart_metric,
)
from qgeo.invariants import (
    evaluate,
    evaluate_all,
    intrinsic_paneitz_apply,
    transverse_weyl_quartic_b,
    willmore_quartic,
)
from qgeo.jets import (
    PACK_ORDER,
    BudgetError,
    Jets,
    constant,
    jet_einsum,
    jet_trace,
    jets_stack,
)
from qgeo.scenes import random_scene, scene_by_name
from qgeo.submanifold import (
    SubmanifoldPack,
    divergence_identity_residuals,
    frame_residuals,
    gauss_codazzi_residuals,
    projected_ambient_deriv,
    simons_residual,
)

DIM_PAIRS = [(1, 3), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (4, 7)]


def pack_for(name, **params):
    sc = scene_by_name(name, **params)
    return SubmanifoldPack(sc.metric, sc.patch, sc.point)


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
    assert abs(float(p.intrinsic.scal.value) - 2.0) < 1e-12
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
    assert np.max(np.abs(p.intrinsic.rm.value)) < 1e-12


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

    patch = graph_patch(2, 3, [height], name="cap")
    p = SubmanifoldPack(flat_metric(3), patch, y0)
    assert abs(float(p.mean_norm2.value) - 1.0 / R**2) < 1e-12
    assert np.max(np.abs(p.second_tracefree.value)) < 1e-12, "sphere is umbilic"
    assert abs(float(p.intrinsic.scal.value) - 2.0 / R**2) < 1e-11
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

    patch = graph_patch(1, 3, [f, lambda ys: 0.0 * ys[0]], name="curve")
    p = SubmanifoldPack(flat_metric(3), patch, np.array([t0]))
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
    sc = random_scene(k, n, seed=101)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
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
    assert p.induced_inv.order == p.normal_frame.order == PACK_ORDER - 2
    for got, want in [(p.normal_frame, N), (p.normal_coframe, coN)]:
        want = want.truncate(PACK_ORDER - 2)
        assert got.space is want.space
        err = np.max(np.abs(got.coeffs - want.coeffs))
        assert err <= 1e-13, f"{name} {params}: {err:.3e}"


@pytest.mark.parametrize("k,n", DIM_PAIRS)
def test_curvature_relations_random(k, n):
    sc = random_scene(k, n, seed=7)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
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
    sc = random_scene(k, n, seed=23)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    res = divergence_identity_residuals(p)
    worst = max(res, key=res.get)
    assert res[worst] < 1e-11, f"(k={k}, n={n}) {worst}: {res[worst]:.3e}"


@pytest.mark.parametrize("k,n", [(3, 4), (3, 6), (4, 5), (4, 7)])
def test_simons_contraction_random(k, n):
    sc = random_scene(k, n, seed=5)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    r = simons_residual(p)
    assert r < 1e-11, f"(k={k}, n={n}) simons residual {r:.3e}"


def test_simons_needs_three_dimensions():
    sc = random_scene(2, 5, seed=5)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    with pytest.raises(GeometryError):
        simons_residual(p)


def test_hypersurface_normal_gauge_is_flat():
    # one normal direction leaves no room for the gauge to rotate
    sc = random_scene(4, 5, seed=31)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
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
        p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
        via_b = p.tangential_cov_deriv(p.block(name, pattern), pattern).value
        via_a = projected_ambient_deriv(p, name, pattern).value
        num = np.max(np.abs(via_a - via_b))
        den = max(np.max(np.abs(via_a)), np.max(np.abs(via_b)), 1.0)
        assert num / den < 1e-12, (
            f"{sc.name} {name}/{pattern}: routes differ by {num/den:.3e}")


@pytest.mark.parametrize("k,n", [(2, 4), (4, 6)])
def test_pulled_is_one_cached_pullback_per_ambient_tensor(k, n):
    sc = random_scene(k, n, seed=5)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    names = {nm for nm, v in vars(CurvaturePack).items()
             if isinstance(v, cached_property)}
    names |= {nm for nm, v in vars(p.ambient).items() if isinstance(v, Jets)}
    assert {"g", "g_up", "gamma", "rm", "ric", "scal", "jtrace", "schouten",
            "weyl", "cotton", "bach", "dschouten", "dcotton", "dweyl",
            "driemann"} <= names
    # every tensor is pulled whole, except those the one table cuts lower
    for nm in sorted(names):
        T = getattr(p.ambient, nm)
        got = p.pulled(nm)
        fresh = p.pull(T.truncate(T.order - submanifold._SLACK.get((nm, None), 0)))
        assert got.space is fresh.space, nm
        assert np.array_equal(got.coeffs, fresh.coeffs), nm
        assert p.pulled(nm) is got, nm


#: the evaluator of each quantity of the tangential-dependence battery
LEMMA_ROWS = {nm: evaluator for nm, evaluator, _ in conformal._LEMMA_ROWS}

#: each pull (pattern None) or frame projection built below its tensor's
#: order: that order at PACK_ORDER, and a consumer that raises BudgetError
#: when it is one order lower.  The Schouten ``tn`` block has no spare
#: order on top of its lowered pull: ``fialkow_quartic`` reads it through
#: ``normal_deflection``.  The order-0 pulls and blocks are read only at
#: their value, so one order lower their truncation itself raises.
LOWERED_ORDERS = [
    ("g_up", None, PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_b")),
    ("jtrace", None, PACK_ORDER - 4, gauss_codazzi_residuals),
    ("schouten", None, PACK_ORDER - 3,
     lambda p: evaluate(p, "fialkow_quartic")),
    ("schouten", "tn", PACK_ORDER - 3,
     lambda p: evaluate(p, "fialkow_quartic")),
    ("schouten", "nn", PACK_ORDER - 4,
     lambda p: transverse_weyl_quartic_b(p, route="hypersurface")),
    ("rm", None, PACK_ORDER - 3, gauss_codazzi_residuals),
    ("rm", "tttt", PACK_ORDER - 4, gauss_codazzi_residuals),
    ("rm", "ttnt", PACK_ORDER - 4, gauss_codazzi_residuals),
    ("rm", "ttnn", PACK_ORDER - 4, gauss_codazzi_residuals),
    ("mc_cotton", "ttt", PACK_ORDER - 4, LEMMA_ROWS["mixed_cotton[ttt]"]),
    ("mc_cotton", "tnt", PACK_ORDER - 4,
     lambda p: evaluate(p, "div_shape_weyl_a")),
    ("cotton", "tnt", PACK_ORDER - 4,
     lambda p: willmore_quartic(p, route="hypersurface")),
    ("cotton", "ntt", PACK_ORDER - 4, lambda p: p.mc_bach),
    ("weyl", "tntn", PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_a")),
    ("weyl", "ntnt", PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_a")),
    ("weyl", "ttnn", PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_a")),
    ("weyl", "tttn", PACK_ORDER - 3, conformal._div_shape_weyl_full),
    ("weyl", "ttnt", PACK_ORDER - 3, lambda p: evaluate(p, "div_shape_weyl_a")),
    ("weyl", "aaan", PACK_ORDER - 3, lambda p: evaluate(p, "fialkow_quartic")),
    ("weyl", "atat", PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_b")),
    ("weyl", "ttaa", PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_b")),
    ("weyl", "tata", PACK_ORDER - 4, lambda p: evaluate(p, "anomaly_quartic_b")),
]


def test_slack_table_lists_the_lowered_orders():
    # the one order table holds exactly the pulls and blocks LOWERED_ORDERS pins
    assert set(submanifold._SLACK) == {
        (nm, pattern) for nm, pattern, _, _ in LOWERED_ORDERS}


@pytest.mark.parametrize("param", [False, True], ids=["plain", "param"])
@pytest.mark.parametrize("name,pattern,order,consumer", LOWERED_ORDERS,
                         ids=[f"{row[0]}-{row[1] or 'pulled'}"
                              for row in LOWERED_ORDERS])
def test_pulls_and_blocks_at_the_order_they_are_read(
        monkeypatch, name, pattern, order, consumer, param):
    # built at exactly its order, and that order is needed: one order lower
    # and the consumer raises (below order 0 the truncation itself does)
    scene = random_scene(4, 5, 2)

    def read(p):
        return p.pulled(name) if pattern is None else p.block(name, pattern)

    p = SubmanifoldPack(scene.metric, scene.patch, scene.point, param=param)
    assert read(p).order == order
    consumer(p)
    slack = submanifold._SLACK
    monkeypatch.setitem(slack, (name, pattern), slack[name, pattern] + 1)
    p = SubmanifoldPack(scene.metric, scene.patch, scene.point, param=param)
    with pytest.raises(BudgetError):
        consumer(p)


def test_per_pack_keys_by_function_not_name():
    # two builders with one __name__ keep separate slots on one pack, and
    # each builds once per pack and arguments
    sc = random_scene(2, 4, seed=5)
    p, q = (SubmanifoldPack(sc.metric, sc.patch, sc.point) for _ in range(2))
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
    sc = random_scene(4, 6, seed=5)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    assert p.pulled("weyl") is p.pulled("weyl")
    assert p.block("weyl", "ttnt") is p.block("weyl", "ttnt")
    assert p.block("mc_cotton", "tnt") is p.block("mc_cotton", "tnt")


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 6)])
def test_induced_metric_is_parallel(k, n):
    # metric compatibility of the induced connection as whole jets
    for seed in (0, 1):
        sc = random_scene(k, n, seed=seed)
        p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
        d = p.tangential_cov_deriv(p.induced, "tt")
        res = float(np.max(np.abs(d.coeffs)))
        assert res < 1e-12, f"seed {seed}: residual {res:.3e}"
        with pytest.raises(ValueError, match="pattern 'aa'"):
            p.tangential_cov_deriv(p.induced, "aa")


def test_slot_patterns_are_checked():
    # every slot-walking operation rejects a pattern that does not name each
    # slot of its tensor with a letter it accepts, and names that pattern
    sc = random_scene(3, 5, seed=2)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    L0 = p.second_tracefree
    for op, pattern in [(p.tangential_cov_deriv, "tta"),
                        (p.tangential_cov_deriv, "tt"),
                        (p.divergence, "tta"), (p.divergence, "ttnn"),
                        (p.divergence, "ntn"), (p.project, "ttx"),
                        (p.norm2, "tt")]:
        with pytest.raises(ValueError, match=f"pattern '{pattern}'"):
            op(L0, pattern)


def test_ambient_slots_project_to_themselves():
    sc = random_scene(2, 4, seed=3)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    for name in ("jtrace", "g", "cotton", "weyl"):
        T = p.pulled(name)
        out = p.project(T, "a" * len(T.batch))
        assert np.array_equal(out.coeffs, T.coeffs), name


def test_first_kind_symbols_built_once_per_metric(monkeypatch):
    # the Christoffel symbols and Riemann share one set of first-kind
    # symbols, of the ambient metric and of the induced one
    built = []
    inner = ambient._first_kind

    def counted(G):
        built.append(G)
        return inner(G)

    monkeypatch.setattr(ambient, "_first_kind", counted)
    sc = random_scene(4, 6, seed=2)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    p.intrinsic.rm, p.intrinsic.gamma
    assert len(built) == 2
    assert built[0] is p.ambient.g and built[1] is p.induced


# -- the intrinsic curvature is a CurvaturePack of the induced metric --------


INTRINSIC_SCENES = {
    "random-3-5": lambda: random_scene(3, 5, 0),
    "random-4-6": lambda: random_scene(4, 6, 0),
    "random-5-7": lambda: random_scene(5, 7, 3),
    "s2xs2-in-s5": lambda: scene_by_name("s2xs2-in-s5"),
    "t4-in-s7": lambda: scene_by_name("t4-in-s7"),
}


@pytest.mark.parametrize("param", [False, True], ids=["plain", "param"])
@pytest.mark.parametrize("name", list(INTRINSIC_SCENES))
def test_intrinsic_pack_satisfies_the_curvature_identities(name, param):
    # the ambient identity suite, run on the induced metric's pack, at the
    # bound the ambient packs meet (test_ambient.py)
    sc = INTRINSIC_SCENES[name]()
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point, param=param)
    res = ambient_identity_residuals(p.intrinsic)
    worst = max(res, key=res.get)
    assert res[worst] < 1e-11, f"{name} {worst}: {res[worst]:.3e}"


def test_intrinsic_pack_is_the_induced_metrics_curvature_pack():
    sc = random_scene(4, 5, 2)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    assert isinstance(p.intrinsic, CurvaturePack) and p.intrinsic.dim == p.k
    assert p.intrinsic.g is p.induced
    assert p.induced_inv is p.intrinsic.g_up
    assert p.intrinsic_jtrace is p.intrinsic.jtrace
    # Schouten and Weyl one order below the pack's: only the divergence in
    # the intrinsic Paneitz operator differentiates them
    assert p.intrinsic.schouten.order == PACK_ORDER - 2
    assert p.intrinsic_schouten.order == PACK_ORDER - 3
    assert p.intrinsic_weyl.order == PACK_ORDER - 3


TANGENT_TENSORS = {
    "gradient": lambda p: p.tangential_gradient(p.tracefree_norm2),
    "induced": lambda p: p.induced,
    "tracefree_square": lambda p: p.tracefree_square,
    "intrinsic_schouten": lambda p: p.intrinsic_schouten,
}


@pytest.mark.parametrize("param", [False, True], ids=["plain", "param"])
@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 6)])
def test_tangential_derivative_is_the_intrinsic_packs(k, n, param):
    # on tangent slots the pack's derivative and the induced metric's own
    # are one routine reading one stored connection: equal to the bit
    sc = random_scene(k, n, 0)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point, param=param)
    for name, build in TANGENT_TENSORS.items():
        if name == "intrinsic_schouten" and k < 3:
            continue
        T = build(p)
        got = p.tangential_cov_deriv(T, "t" * len(T.batch))
        want = p.intrinsic.cov_deriv(T)
        assert got.space is want.space, name
        assert np.array_equal(got.coeffs, want.coeffs), name


@pytest.mark.parametrize("metric,point,gauss", [
    (sphere_chart_metric(2, radius=1.3), (0.2, -0.4), 1.0 / 1.69),
    (hyperbolic_half_space_metric(2), (0.3, 0.7), -1.0),
], ids=["sphere", "hyperbolic"])
def test_surface_pack_has_curvature_up_to_its_trace(metric, point, gauss):
    # a surface's pack has J = R / 2, the Gauss curvature, and no Schouten
    # or Weyl tensor: each raises, naming Schouten
    pack = CurvaturePack(metric.jets(np.asarray(point), PACK_ORDER))
    assert abs(float(pack.jtrace.value) - gauss) < 1e-12
    assert abs(float(pack.scal.value) - 2.0 * gauss) < 1e-12
    for attr in ("schouten", "weyl"):
        with pytest.raises(GeometryError, match="Schouten"):
            getattr(pack, attr)


def test_curve_pack_has_no_curvature_trace():
    pack = CurvaturePack(flat_metric(1).jets(np.zeros(1), PACK_ORDER))
    assert float(pack.scal.value) == 0.0
    with pytest.raises(GeometryError, match="dimension >= 2"):
        pack.jtrace


def test_submanifold_pack_needs_ambient_dimension_three():
    curve = ImmersedPatch(1, 2, lambda ys: [ys[0], 0.5 * ys[0] ** 2],
                          name="parabola")
    with pytest.raises(GeometryError, match="dimension >= 3"):
        SubmanifoldPack(flat_metric(2), curve, (0.1,))


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
    s1 = SubmanifoldPack(sc.metric, sc.patch, sc.point).scalar_summary()
    for scale in (1.0, 1e-12, 1e6):
        A = scale * A0

        def refn(ys, A=A):
            zs = [sum(A[i, j] * ys[j] for j in range(k)) + b[i]
                  for i in range(k)]
            return sc.patch.fn(zs)

        y0p = np.linalg.solve(A, sc.point - b)
        repatch = ImmersedPatch(k, sc.patch.n, refn)
        s2 = SubmanifoldPack(sc.metric, repatch, y0p).scalar_summary()
        assert set(s1) == set(s2)
        for key in s1:
            assert abs(s1[key] - s2[key]) < 1e-9, (
                f"scale {scale}, {key}: {s1[key]:.12f} vs {s2[key]:.12f}")


def test_linearization_parameter_rides_through():
    # with a parameter-independent metric the parameter is inert: values
    # agree with the plain build, and nothing depends on the extra variable
    sc = random_scene(2, 5, seed=41)
    plain = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    riding = SubmanifoldPack(sc.metric, sc.patch, sc.point, param=True)
    s0, s1 = plain.scalar_summary(), riding.scalar_summary()
    for key in s0:
        assert abs(s0[key] - s1[key]) < 1e-13, f"{key} drifts under param"
    res = gauss_codazzi_residuals(riding)
    assert max(res.values()) < 1e-11


# -- dimension guards --------------------------------------------------------


def test_dimension_guards():
    sc = random_scene(1, 3, seed=1)
    curve = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    with pytest.raises(GeometryError):
        curve.intrinsic_jtrace
    with pytest.raises(GeometryError):
        curve.fialkow_trace
    sc = random_scene(2, 5, seed=1)
    surface = SubmanifoldPack(sc.metric, sc.patch, sc.point)
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
        SubmanifoldPack(flat_metric(5), squash, np.zeros(2))


def test_pack_dimension_guards_name_the_cause():
    square = ImmersedPatch(3, 3, lambda ys: list(ys), name="square")
    with pytest.raises(GeometryError, match="^square: need 1 <= k < n, got k=3, n=3$"):
        SubmanifoldPack(flat_metric(3), square, np.zeros(3))
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
    p = SubmanifoldPack(scene.metric, scene.patch, scene.point)
    amb = p.ambient
    amb.schouten  # built before recording: the site below reads it
    orders = _record_product_orders(monkeypatch)

    # each site sums its products with a derivative one order below its input
    connection_deriv(amb.schouten, [amb.gamma] * 2)
    assert max(orders) == amb.schouten.order - 1
    first = ambient._first_kind(amb.g)
    orders.clear()
    riemann_jets(first, amb.gamma)
    assert orders == [first.order - 1]  # one Gamma Gamma product
    for prior, site in [("normal_frame", "normal_connection"),
                        ("normal_connection", "normal_curvature")]:
        order = getattr(p, prior).order
        p.normal_coframe, p._gamma_frame  # build the other inputs unrecorded
        orders.clear()
        getattr(p, site)
        assert max(orders) == order - 1, site

    # a whole ambient pack read through Bach: the Bach term, the last thing
    # built after nabla C, runs at the order of nabla C, and no product (the
    # inverse metric's Newton steps included) runs above the order of Riemann.
    # Weyl is built on first read, so it is read before the Bach term reads it
    derivs_done = []
    inner = ambient.connection_deriv

    def marked(*args):
        out = inner(*args)
        derivs_done.append(len(orders))
        return out

    monkeypatch.setattr(ambient, "connection_deriv", marked)
    orders.clear()
    pack = CurvaturePack(amb.g)
    pack.weyl, pack.bach
    assert amb.g.order == 4 and pack.dcotton.order == 0
    assert max(orders[derivs_done[-1]:]) == pack.dcotton.order
    assert max(orders) == pack.rm.order == amb.g.order - 2

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


# -- every pack quantity at exactly the order its consumers read -------------

#: (quantity, the builder to cut one order lower, the quantity's order in a
#: pack, a consumer that runs out of orders once it is one lower).  A
#: quantity is an attribute path on a ``SubmanifoldPack``.  A builder is a
#: ``SubmanifoldPack`` cached property, or, for the eager attributes of the
#: curvature packs, the ``ambient`` function that forms them in both.
TIGHT_ORDERS = [
    ("ambient.g_up", (ambient, "inverse_metric_jets"), PACK_ORDER - 2,
     lambda p: p.ambient.bach),
    ("ambient.gamma", (ambient, "christoffel_jets"), PACK_ORDER - 2,
     lambda p: p.ambient.bach),
    ("induced_inv", None, PACK_ORDER - 2, lambda p: p.normal_curvature),
    ("normal_frame", None, PACK_ORDER - 2, lambda p: p.normal_curvature),
    ("normal_coframe", None, PACK_ORDER - 2, willmore_quartic),
    ("_gamma_frame", None, PACK_ORDER - 2, willmore_quartic),
    ("second_fundamental", None, PACK_ORDER - 2, willmore_quartic),
    ("mean_curvature", None, PACK_ORDER - 2, willmore_quartic),
    ("normal_connection", None, PACK_ORDER - 3, lambda p: p.normal_curvature),
    ("intrinsic.gamma", (ambient, "christoffel_jets"), PACK_ORDER - 2,
     lambda p: evaluate(p, "intrinsic_q4")),
    ("mean_norm2", None, PACK_ORDER - 3, divergence_identity_residuals),
    ("mc_schouten", None, PACK_ORDER - 3, divergence_identity_residuals),
    ("intrinsic_schouten", None, PACK_ORDER - 3,
     lambda p: intrinsic_paneitz_apply(p, p.induced[0, 0])),
]


def _cut_one_order(monkeypatch, name, builder):
    """Make every new pack build ``name`` one order lower."""
    def lowered(build):
        def cut(*args):
            out = build(*args)
            return out.truncate(out.order - 1)
        return cut

    if builder is None:
        prop = cached_property(lowered(vars(SubmanifoldPack)[name].func))
        prop.__set_name__(SubmanifoldPack, name)
        monkeypatch.setattr(SubmanifoldPack, name, prop)
    else:
        owner, attr = builder
        monkeypatch.setattr(owner, attr, lowered(getattr(owner, attr)))


@pytest.mark.parametrize("param", [False, True], ids=["plain", "param"])
@pytest.mark.parametrize("name,builder,order,consumer", TIGHT_ORDERS,
                         ids=[row[0] for row in TIGHT_ORDERS])
def test_pack_builds_each_quantity_at_the_order_it_is_read(
        monkeypatch, name, builder, order, consumer, param):
    # built at exactly its order, and that order is needed: one order lower
    # and the consumer raises
    scene = random_scene(4, 5, 2)
    read = attrgetter(name)
    p = SubmanifoldPack(scene.metric, scene.patch, scene.point, param=param)
    assert read(p).order == order
    consumer(p)
    _cut_one_order(monkeypatch, name, builder)
    p = SubmanifoldPack(scene.metric, scene.patch, scene.point, param=param)
    assert read(p).order == order - 1
    with pytest.raises(BudgetError):
        consumer(p)


def _weyl_four_products(rm, P, g):
    return (rm
            - jet_einsum("ac,bd->abcd", P, g)
            - jet_einsum("bd,ac->abcd", P, g)
            + jet_einsum("ad,bc->abcd", P, g)
            + jet_einsum("bc,ad->abcd", P, g))


def test_weyl_from_one_product_is_the_four_product_form():
    sc = random_scene(4, 6, 2)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    amb = p.ambient
    for weyl, want in [
            (amb.weyl, _weyl_four_products(amb.rm, amb.schouten, amb.g)),
            (p.intrinsic_weyl, _weyl_four_products(
                p.intrinsic.rm, p.intrinsic_schouten, p.induced))]:
        assert weyl.space is want.space
        assert np.array_equal(weyl.coeffs, want.coeffs)


def _riemann_three_products(G, Gamma, dim):
    # R_{abc}^d from d Gamma and two Gamma Gamma products, lowered by a third,
    # with the stored Gamma[a, b, c] = Gamma^c_{ab} laid out as Gamma[c, a, b]
    Gamma = jet_trace(Gamma, "abc->cab")
    dGam = jets_stack([Gamma.deriv(a) for a in range(dim)])
    Gam = Gamma.truncate(dGam.order)
    rm_ud = (-jet_trace(dGam, "adbc->abcd") + jet_trace(dGam, "bdac->abcd")
             + jet_einsum("eac,dbe->abcd", Gam, Gam)
             - jet_einsum("ebc,dae->abcd", Gam, Gam))
    return jet_einsum("abce,ed->abcd", rm_ud, G)


def _full_order_christoffel(G):
    # from the inverse of the whole metric jet, one order above the pack's
    return christoffel_jets(ambient._first_kind(G), inverse_metric_jets(G))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_riemann_from_one_product_is_the_three_product_form(n):
    sc = random_scene(4, n, 0)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    amb = p.ambient
    for rm, want in [
            (amb.rm, _riemann_three_products(
                amb.g, _full_order_christoffel(amb.g), n)),
            (p.intrinsic.rm, _riemann_three_products(
                p.induced, _full_order_christoffel(p.induced), p.k))]:
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
