"""Conformal-change machinery: laws, invariance, strata, witness metrics.

Closed-form oracles: the diagonal-exponential witness family admits exact
component values at the origin (two Weyl traces and the two divergence
scalars, rational in the parameters and the ambient dimension), and a
round-sphere chart is an explicit conformal rescale of the flat chart.
Everything else is pinned structurally: exact transformation laws must be
reproduced by the nilpotent-parameter coefficient to machine precision,
fourth-derivative quantities (Bach tensors, the heavy quartic summands and
invariants) included, the nilpotent route must agree with the independent
central-difference cross-check on every registered quantity, and the
stratified vanishing of the quartic building blocks must be sharp (dead
strata at zero, living strata visibly nonzero).
"""

import gc
import re
import weakref
from collections import defaultdict
from functools import cached_property, lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeo.conformal as cf
from qgeo import jets
from qgeo.fields import (
    GeometryError,
    ImmersedPatch,
    MetricField,
    Polynomial,
    conformally_rescaled,
    flat_metric,
    graph_patch,
    sphere_chart_metric,
)
from qgeo.invariants import (
    REGISTRY,
    available,
    evaluate,
    evaluate_all,
    extrinsic_paneitz_apply,
)
from qgeo.jets import PACK_ORDER, Jets, variables
from qgeo.scenes import (
    affine_plane,
    cylinder_r_x_s3,
    random_scene,
    random_upsilon,
    s2xs2_in_s5,
)
from qgeo.submanifold import SubmanifoldPack


@lru_cache(maxsize=None)
def scene(k, n, seed):
    return random_scene(k, n, seed)


@lru_cache(maxsize=None)
def witness_pack(n, params, point=(0.0, 0.0, 0.0, 0.0)):
    g = cf.witness_metric(n, *params)
    return SubmanifoldPack(g, affine_plane(4, n).patch, list(point))


# -- witness family: closed-form component oracles ----------------------------


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("params", [
    (0.7, -0.45, 0.6, 0.3), (1.0, 1.0, 1.0, 1.0),
])
def test_witness_weyl_traces_match_closed_forms(n, params):
    s, t, u, v = params
    p = witness_pack(n, params)
    # tangential Weyl trace at the mixed quadratic slot
    got = float(p.weyl_partial_trace[1, 2].value)
    want = -(n - 4) / (n - 2) * t
    assert abs(got - want) < 1e-12, f"partial trace {got} vs {want}"
    got = float(p.weyl_double_trace.value)
    want = -4.0 * s * (n - 4) * (n - 5) / ((n - 1) * (n - 2))
    assert abs(got - want) < 1e-12, f"double trace {got} vs {want}"


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("params", [
    (0.7, -0.45, 0.6, 0.3), (0.5, 0.8, -0.7, 0.4),
])
def test_witness_divergences_match_closed_forms(n, params):
    s, t, u, v = params
    p = witness_pack(n, params)
    got = float(cf._div_shape_weyl_full(p).value)
    want = -(v**2 + (u + v)**2) + u**2 / (n - 2)
    assert abs(got - want) < 1e-12, f"full contraction {got} vs {want}"
    got = float(cf._div_shape_weyl_trace(p).value)
    want = -(n - 5) * u**2 / (n - 2)
    assert abs(got - want) < 1e-12, f"trace contraction {got} vs {want}"


@pytest.mark.parametrize("n", [5, 6])
def test_witness_gram_determinants_positive(n):
    # with m <= 4 unit rows the normalized Gram determinant is
    # prod sigma_i^2 >= sigma_min^8, so sigma_min > 10^-1.5 also certifies
    # det > 1e-12
    bound = 10.0 ** -1.5
    rows = cf.linear_independence_witness(n)
    best_t = max(r["tensor_singular"][-1] for r in rows)
    best_d = max(r["divergence_singular"][-1] for r in rows)
    assert best_t > bound, f"tensor sigma_min {best_t}"
    assert best_d > bound, f"divergence sigma_min {best_d}"
    # the canonical sample alone already certifies independence
    unit = [r for r in rows if r["params"] == (1.0, 1.0, 1.0, 1.0)]
    assert unit and unit[0]["tensor_singular"][-1] > bound


@pytest.mark.parametrize("n,tensors,divergences", [
    (5, ("fialkow", "tracefree_square", "tracefree_norm2_g"),
     ("div_shape_weyl_full",)),
    (6, ("fialkow", "tracefree_square", "tracefree_norm2_g", "fialkow_trace_g"),
     ("div_shape_weyl_full", "div_shape_weyl_trace")),
    (7, ("fialkow", "tracefree_square", "tracefree_norm2_g", "fialkow_trace_g"),
     ("div_shape_weyl_full", "div_shape_weyl_trace")),
])
def test_witness_sets_per_dimension(n, tensors, divergences):
    # the Fialkow trace times the metric and the normal-traced Weyl
    # divergence join the sets from codimension two on
    rows = cf.linear_independence_witness(n, params=[(0.7, -0.45, 0.6, 0.3)])
    assert list(rows[0]) == ["params", "tensor_names", "tensor_singular",
                             "divergence_names", "divergence_singular"]
    assert rows[0]["tensor_names"] == tensors
    assert rows[0]["divergence_names"] == divergences
    assert rows[0]["tensor_singular"].shape == (len(tensors),)
    assert rows[0]["divergence_singular"].shape == (len(divergences),)


def test_witness_gram_collapses_without_curvature():
    row = cf.linear_independence_witness(
        6, params=[(0.0, 0.0, 0.0, 0.0)])[0]
    assert np.array_equal(row["tensor_singular"], np.zeros(4))
    assert np.array_equal(row["divergence_singular"], np.zeros(2))


def test_witness_rejects_no_samples():
    # an empty result would pass any "all independent" check, an empty
    # iterator included
    for params in ([], iter([])):
        with pytest.raises(ValueError, match="no parameter samples"):
            cf.linear_independence_witness(5, params=params)


def test_witness_needs_a_normal_direction():
    with pytest.raises(GeometryError):
        cf.witness_metric(4, 1.0, 1.0, 1.0, 1.0)


# -- rescale basics ------------------------------------------------------------


def test_rescale_at_zero_is_identity():
    g = random_scene(2, 4, seed=7).metric
    ups = random_upsilon(4, seed=3)
    gh = conformally_rescaled(g, ups, t=0.0)
    pt = np.array([0.2, -0.1, 0.3, 0.05])
    diff = float(np.max(np.abs(g.jets(pt, 3).coeffs - gh.jets(pt, 3).coeffs)))
    assert diff == 0.0, f"t=0 changed the components by {diff}"


def test_rescale_recovers_round_sphere_chart():
    # exp(2 log(2 R^2 / (R^2+|x|^2))) times flat is the sphere chart
    for radius in (1.0, 1.7):
        r2 = radius * radius

        def ups(xs, r2=r2):
            s = sum(x * x for x in xs)
            return float(np.log(2.0 * r2)) - (r2 + s).log()

        gh = conformally_rescaled(flat_metric(3), ups, t=1.0)
        gs = sphere_chart_metric(3, radius=radius)
        pt = np.array([0.3, -0.2, 0.4])
        a = gh.jets(pt, 3)
        b = gs.jets(pt, 3)
        diff = float(np.max(np.abs(a.coeffs - b.coeffs)))
        assert diff < 1e-12, f"R={radius}: {diff}"


@settings(max_examples=10, deadline=None)
@given(t=st.floats(-0.5, 0.5), seed=st.integers(0, 50))
def test_rescale_components_scale_pointwise(t, seed):
    g = random_scene(2, 4, seed=7).metric
    ups = random_upsilon(4, seed=seed)
    pt = np.array([0.1, -0.05, 0.2, 0.0])
    xv = variables(pt, 2)
    factor = (2.0 * t * ups(xv)).exp()
    base = g.jets(pt, 2)
    scaled = conformally_rescaled(g, ups, t=t).jets(pt, 2)
    manual = factor * base
    diff = float(np.max(np.abs(scaled.coeffs - manual.coeffs)))
    assert diff < 1e-12, f"t={t}: {diff}"


# -- exact transformation laws --------------------------------------------------

#: quartic summands needing four metric derivatives
HEAVY_QUARTIC = {"laplacian_intrinsic_jtrace", "double_divergence_fialkow",
                 "laplacian_fialkow_trace"}
#: registered invariants needing four metric derivatives
HEAVY_INVARIANTS = {"fialkow_quartic", "weyl_trace_quartic",
                    "weyl_trace_quartic_scaled", "gauss_bonnet_defect",
                    "anomaly_quartic_b"}


@pytest.mark.parametrize("k,n,seed", [(3, 5, 4), (4, 6, 11)])
def test_ambient_laws(k, n, seed):
    reps = cf.ambient_law_reports(scene(k, n, seed), seed=seed + 1)
    by_name = {r.quantity: r for r in reps}
    for r in reps:
        assert r.residual is not None
        assert r.residual < 1e-12, f"{r.quantity}: residual {r.residual}"
    # exact, Bach's four metric derivatives included (differencing leaves
    # 7e-13 to 1e-12 on these scenes)
    assert by_name["bach[tt]"].residual < 1e-13


@pytest.mark.parametrize("k,n,seed", [(3, 5, 4), (4, 6, 11), (2, 5, 8)])
def test_submanifold_laws(k, n, seed):
    reps = cf.submanifold_law_reports(scene(k, n, seed), seed=seed + 1)
    names = {r.quantity for r in reps}
    assert "second_fundamental" in names and "mean_curvature" in names
    for r in reps:
        assert r.residual < 1e-12, f"{r.quantity}: residual {r.residual}"


@pytest.mark.parametrize("k,n,seed", [(3, 5, 4), (4, 6, 11)])
def test_derivative_operator_laws(k, n, seed):
    reps = cf.derivative_law_reports(scene(k, n, seed), seed=seed + 2)
    assert len(reps) == 4
    for r in reps:
        assert r.residual < 1e-12, f"{r.quantity}: residual {r.residual}"
        assert r.method_gap is not None and r.method_gap < 1e-6, (
            f"{r.quantity}: methods disagree by {r.method_gap}")
        assert not r.flagged


@pytest.mark.parametrize("k,n,seed", [(4, 6, 5), (4, 7, 9), (3, 5, 6)])
def test_trace_adjusted_laws_and_tangential_dependence(k, n, seed):
    out = cf.check_tangential_dependence(scene(k, n, seed), seed=seed)
    by_name = {r.quantity: r for r in out["reports"]}
    assert set(by_name) == {
        "mixed_schouten", "mixed_cotton[ttt]", "mixed_cotton_trace",
        "mixed_bach", "normal_deflection"}
    for r in by_name.values():
        assert r.residual < 1e-6, f"{r.quantity}: residual {r.residual}"
    # four metric derivatives, still exact (differencing leaves 6e-13 to
    # 1.5e-12 on these scenes)
    assert by_name["mixed_bach"].residual < 1e-13
    # a factor vanishing along the patch kills every variation ...
    assert out["tangential_zero_max"] < 1e-7
    # ... and the trace-adjusted Schouten variation dies identically
    assert out["schouten_pullback_zero"] < 1e-12


def test_tangential_battery_builds_one_pack_per_engine(pack_builds):
    # every variation is exact and the laws are read at t^0 of the
    # parameter pack, so each of the battery's two engines builds only
    # its parameter pack
    out = cf.check_tangential_dependence(random_scene(4, 5, 2))
    assert len(pack_builds) == 2
    assert out["tangential_zero_max"] < 1e-7


def test_silent_tangential_run_builds_no_restriction(monkeypatch):
    # the factor-vanishing re-run needs the variations only, not the laws
    built = []
    restriction = cf._Engine.restriction

    def counting(self):
        built.append(self)
        return restriction.func(self)

    counted = cached_property(counting)
    counted.__set_name__(cf._Engine, "restriction")
    monkeypatch.setattr(cf._Engine, "restriction", counted)
    cf.check_tangential_dependence(random_scene(4, 5, 2))
    assert len(built) == 1


def test_batteries_at_one_point_share_two_charts(monkeypatch, pack_builds):
    # the chart map does not depend on the metric: the plain, finite and
    # parameter packs of all four batteries at one point share the plain
    # and the parameter chart, and their Composer tables.  The packs are
    # 2 of the invariance battery (parameter, one with members t = 0.1 and
    # -0.07), 1 of the tangential one (the parameter pack of its vanishing
    # factor: its random factor is the invariance battery's, whose
    # parameter pack it reuses), 2 of the strata one (two parameter packs
    # of three factors each) and 2 of the Q one (plain, one at t = 1 with
    # a member per factor)
    charts, tables = [], []
    chart_jets, monomial_table = ImmersedPatch.jets, jets.monomial_table
    monkeypatch.setattr(ImmersedPatch, "jets", lambda self, *a, **kw: (
        charts.append(a) or chart_jets(self, *a, **kw)))
    monkeypatch.setattr(jets, "monomial_table", lambda *a: (
        tables.append(a) or monomial_table(*a)))
    sc = random_scene(4, 5, 2)
    cf.check_invariance(sc, seed=2)
    cf.check_tangential_dependence(sc, seed=2)
    cf.check_strata_vanishing(sc, seed=2)
    cf.check_q_transformation(scenes=[sc], seed=2)
    assert len(charts) == 2
    assert len(tables) <= 10
    assert len(pack_builds) == 7


def test_engines_share_the_parameter_pack_of_one_scene_and_factor(pack_builds):
    # the slot is keyed by the scene object and the factor value: the same
    # pair adopts the pack, a scene of equal contents or another factor
    # builds its own, and so does the pair that replaced it in between
    sc, twin = random_scene(4, 5, 2), random_scene(4, 5, 2)
    ups, other = random_upsilon(5, seed=4), random_upsilon(5, seed=5)
    first = cf._Engine(sc, ups).param
    assert cf._Engine(sc, ups).param is first
    assert len(pack_builds) == 1
    assert cf._Engine(twin, ups).param is not first
    assert cf._Engine(twin, other).param is not first
    assert cf._Engine(sc, ups).param is not first
    assert len(pack_builds) == 4


def test_an_equal_factor_shares_the_parameter_pack(pack_builds):
    # an equal but distinct polynomial, alone or as a member of an equal
    # tuple, adopts the pack its twin built
    sc = random_scene(4, 5, 2)
    ups, other = random_upsilon(5, seed=4), random_upsilon(5, seed=5)
    twin = Polynomial(ups.nvars, ups.degree, ups.coeffs.copy())
    assert twin is not ups
    first = cf._Engine(sc, ups).param
    assert cf._Engine(sc, twin).param is first
    batch = cf._Engine(sc, (ups, other)).param
    assert cf._Engine(sc, (twin, random_upsilon(5, seed=5))).param is batch
    assert len(pack_builds) == 2


def test_a_redrawn_factor_shares_the_parameter_pack(pack_builds):
    # a draw is a value, however many other draws came in between
    sc = random_scene(4, 5, 2)
    first = cf._Engine(sc, random_upsilon(5, seed=4)).param
    for seed in range(100, 133):
        random_upsilon(5, seed)
    assert cf._Engine(sc, random_upsilon(5, seed=4)).param is first
    assert len(pack_builds) == 1


def test_parameter_pack_dies_with_the_next_batterys_engines(monkeypatch):
    # the slot keeps the invariance battery's parameter pack, and not its
    # finite pack, for the next battery of its scene and factor; the
    # strata battery's first engine replaces it and keeps only the second
    # engine's pack, which the Q battery's engine replaces.  Nothing else
    # holds a pack, so each is freed at once, cycles collected or not
    packs = []
    init = SubmanifoldPack.__init__

    def record(self, *a, **kw):
        packs.append((weakref.ref(self), kw.get("param", False)))
        init(self, *a, **kw)

    monkeypatch.setattr(SubmanifoldPack, "__init__", record)
    alive = lambda: [param for ref, param in packs if ref() is not None]
    sc = random_scene(4, 5, 2)
    gc.disable()
    try:
        cf.check_invariance(sc, seed=2)
        assert len(packs) == 2 and alive() == [True]
        cf.check_strata_vanishing(sc, seed=2)
        assert not packs[0][0]() and len(alive()) == 1
        cf.check_q_transformation(scenes=[sc], seed=2)
        assert alive() == []
    finally:
        gc.enable()


def test_tangential_battery_after_invariance_is_a_fresh_run(pack_builds):
    # the reused parameter pack carries what the invariance battery read;
    # the tangential battery's output is the same to the last bit
    def run(after_invariance):
        sc = random_scene(4, 5, 2)
        if after_invariance:
            cf.check_invariance(sc, seed=2)
        pack_builds.clear()
        out = cf.check_tangential_dependence(sc, seed=2)
        return out, len(pack_builds)

    (shared, built), (fresh, built_fresh) = run(True), run(False)
    assert (built, built_fresh) == (1, 2)
    assert [(r.quantity, r.numeric.tobytes(), r.residual, r.method_gap)
            for r in shared.pop("reports")] == [
        (r.quantity, r.numeric.tobytes(), r.residual, r.method_gap)
        for r in fresh.pop("reports")]
    assert shared == fresh


@pytest.mark.parametrize("battery,calls", [
    (cf.check_invariance, 4),
    (cf.ambient_law_reports, 2),
    (cf.quartic_term_reports, 2),
])
def test_upsilon_is_restricted_once_per_pack(monkeypatch, battery, calls):
    # one call per pack build of a rescaled metric (one for both members
    # of the invariance battery's finite pack) and one per pack that reads
    # Upsilon, on the ambient coordinate variables at its point (the
    # parameter pack serves both the restriction data and Upsilon(x0), and
    # the invariance battery's finite pack reads its own Upsilon(x0) to
    # compensate): Upsilon is not re-evaluated per report
    ups = random_upsilon(5, seed=4)
    seen = []

    def counting(xs):
        seen.append(len(xs))
        return ups(xs)

    monkeypatch.setattr(cf, "random_upsilon", lambda n, seed: counting)
    battery(random_scene(4, 5, 2))
    assert len(seen) == calls


@pytest.mark.parametrize("factor", ["random", "transverse", "bump"])
def test_pulled_upsilon_is_the_chart_evaluation(factor):
    # Upsilon reaches a pack like every ambient tensor: evaluated on the
    # ambient coordinate variables, then pulled back along the chart; that
    # is Upsilon of the chart jets to the pack order, and its value is
    # Upsilon(x0) to the last bit.  The pack keeps one entry per factor: a
    # second factor on the same pack, and the plain pack that the Q battery
    # probes with several factors, get their own pullback, and a second
    # read returns the same object
    sc = scene(4, 5, 2)
    ups = {"random": random_upsilon(5, seed=4),
           "transverse": cf.transverse_vanishing_upsilon(sc, 1),
           "bump": cf._bump_factor(0.3)}[factor]
    other = random_upsilon(5, seed=5, degree=3)
    eng = cf._Engine(sc, ups)
    plain = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    for pack in (eng.param, eng.finite(0.1), plain):
        for f in (ups, other):
            got = cf._upsilon_jets(pack, f)[1]
            chart = [pack.chart_jets[a] for a in range(pack.n)]
            want = f(chart).truncate(PACK_ORDER)
            assert got.space is want.space
            assert float(np.max(np.abs(got.coeffs - want.coeffs))) < 1e-13
            assert float(got.value) == float(
                f(variables(pack.x_point, 0)).value)
            assert cf._upsilon_jets(pack, f)[1] is got


def test_linear_rescale_is_the_exponential_on_the_parameter_pack():
    # t^2 = 0 on the parameter pack, so exp(w t Upsilon) = 1 + w t Upsilon
    # to the last bit
    sc = scene(4, 5, 2)
    eng = cf._Engine(sc, random_upsilon(5, seed=4))
    pp = eng.param
    tu = pp.chart_jets[pp.n] * cf._upsilon_jets(pp, eng.upsilon)[1]
    for w in (2.0, -4.0, 1.3):
        assert np.array_equal((w * tu).exp().coeffs, (1.0 + w * tu).coeffs)


def test_scale_is_the_rescale_factor_of_each_built_pack(monkeypatch):
    # 1 + w t Upsilon on the parameter pack, with no jet exponential, and
    # exp(w s Upsilon) on the finite pack at s, both to the last bit
    sc = scene(4, 5, 2)
    eng = cf._Engine(sc, random_upsilon(5, seed=4))
    pp = eng.param
    tu = pp.chart_jets[pp.n] * cf._upsilon_jets(pp, eng.upsilon)[1]
    calls = []
    exp = Jets.exp
    monkeypatch.setattr(Jets, "exp", lambda self: calls.append(1) or exp(self))
    got = {w: eng.scale(pp, w) for w in (2.0, -4.0, 1.3)}
    assert calls == []
    for w, jet in got.items():
        assert np.array_equal(jet.coeffs, exp(w * tu).coeffs)
    for s in (1e-4, -1e-4, 0.1, -0.07):
        u = cf._upsilon_jets(eng.finite(s), eng.upsilon)[1]
        for w in (2.0, -4.0, 1.3):
            assert np.array_equal(eng.scale(eng.finite(s), w).coeffs,
                                  exp(w * (s * u)).coeffs)


def test_scale_names_a_pack_the_engine_did_not_build():
    sc = scene(4, 5, 2)
    eng = cf._Engine(sc, random_upsilon(5, seed=4))
    other = cf._Engine(sc, random_upsilon(5, seed=5))
    with pytest.raises(ValueError, match=r"the parameter pack of "
                       r"rescaled\(.*\) at \[.*\] was not built"):
        eng.scale(other.param, 2.0)
    with pytest.raises(ValueError, match="plain pack"):
        eng.scale(SubmanifoldPack(sc.metric, sc.patch, sc.point), 2.0)


def _pack_quantities(p):
    """Every jet quantity of a pack: its cached properties, the pullback
    of every ambient tensor and every tensor of the intrinsic curvature
    pack, by name."""
    props = {nm: (lambda q, nm=nm: getattr(q, nm))
             for nm, v in vars(SubmanifoldPack).items()
             if isinstance(v, cached_property)
             and nm not in ("normal_picks", "intrinsic")}
    names = {nm for nm, v in vars(type(p.ambient)).items()
             if isinstance(v, cached_property)}
    names |= {nm for nm, v in vars(p.ambient).items() if isinstance(v, Jets)}
    props.update({f"pulled({nm})": (lambda q, nm=nm: q.pulled(nm))
                  for nm in names})
    props.update({f"intrinsic.{nm}":
                  (lambda q, nm=nm: getattr(q.intrinsic, nm)) for nm in names})
    return props


def _batched_and_single(kind):
    """A member pack of ``random_scene(4, 5, 2)`` and its single packs."""
    sc = scene(4, 5, 2)
    ups = [random_upsilon(5, seed=s) for s in (4, 5, 6)]
    if kind == "parameter":
        return cf._Engine(sc, tuple(ups)), [cf._Engine(sc, u) for u in ups]
    if kind == "t-pair":
        return (cf._Engine(sc, ups[0]).finite((0.1, -0.07)),
                [cf._Engine(sc, ups[0]).finite(t) for t in (0.1, -0.07)])
    return (cf._Engine(sc, tuple(ups[:2])).finite(1.0),
            [cf._Engine(sc, u).finite(1.0) for u in ups[:2]])


@pytest.mark.parametrize("kind", ["parameter", "t-pair", "factor-pair"])
def test_member_packs_are_the_single_packs(kind):
    # each member of a member-batched pack is the pack its factor (or its
    # t) builds alone, to the last bit: every pack quantity and every
    # quartic strata element, as its variation on the parameter pack.
    # The chart's quantities do not depend on the metric: they have no
    # member axis and equal every single pack's
    batched, singles = _batched_and_single(kind)
    if kind == "parameter":
        for el in cf.QUARTIC_STRATA:
            got = batched.nilpotent(el.evaluate, -4.0)
            for m, single in enumerate(singles):
                assert np.array_equal(got[m], single.nilpotent(el.evaluate, -4.0)), (
                    el.name, m)
        batched, singles = batched.param, [eng.param for eng in singles]
    rows = _pack_quantities(batched)
    rows.update({el.name: el.evaluate for el in cf.QUARTIC_STRATA})
    for name, read in rows.items():
        got = read(batched)
        assert got.members in (0, len(singles)), name
        for m, single in enumerate(singles):
            want = read(single)
            assert got.space is want.space and got.batch == want.batch, name
            assert np.array_equal(got.coeffs[m] if got.members else got.coeffs,
                                  want.coeffs), (name, m)
    assert batched.pulled("g").members == len(singles)


def _two_factor_engines():
    """An engine over two factors of ``random_scene(4, 5, 2)`` and, per
    factor, a builder of its single engine (the engines of one scene
    replace each other's parameter pack, so each is built where read)."""
    sc = scene(4, 5, 2)
    ups = (random_upsilon(5, seed=4), random_upsilon(5, seed=5, degree=3))
    return cf._Engine(sc, ups), [lambda u=u: cf._Engine(sc, u) for u in ups]


def test_batch_engine_members_are_the_single_engines():
    # restriction data, the rescale factor on the parameter pack, the exact
    # variation and the compensated finite rescale of a two-factor engine:
    # each member is its factor's single engine to the last bit
    batch, singles = _two_factor_engines()
    ev = lambda q: q.block("weyl", "tttn")
    got = {"restriction": vars(batch.restriction),
           "scale": {w: batch.scale(batch.param, w) for w in (2.0, -4.0, 1.3)},
           "nilpotent": batch.nilpotent(ev, 1.0),
           "compensated": batch.compensated(ev, 1.0, 1.0)}
    for m, single in enumerate(singles):
        one = single()
        assert np.array_equal(got["nilpotent"][m], one.nilpotent(ev, 1.0))
        for w, jet in got["scale"].items():
            want = one.scale(one.param, w)
            assert jet.members == 2 and not want.members
            assert np.array_equal(jet.coeffs[m], want.coeffs), w
        for nm, jet in got["restriction"].items():
            want = getattr(one.restriction, nm)
            assert jet.members == 2 and jet.batch == want.batch, nm
            assert np.array_equal(jet.coeffs[m], want.coeffs), nm
        assert np.array_equal(got["compensated"][m],
                              single().compensated(ev, 1.0, 1.0))


def test_paneitz_on_the_member_upsilon_is_the_per_factor_operator():
    batch, _ = _two_factor_engines()
    sc = batch.scene
    p0 = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    got = extrinsic_paneitz_apply(p0, cf._upsilon_jets(p0, batch.upsilon)[1])
    assert got.members == 2
    for m, u in enumerate(batch.upsilon):
        want = extrinsic_paneitz_apply(p0, cf._upsilon_jets(p0, u)[1])
        assert np.array_equal(got.coeffs[m], want.coeffs), m


@pytest.mark.parametrize("call", [
    lambda eng: eng.central(lambda q: q.mean_curvature, -1.0),
    lambda eng: eng.report("H", lambda q: q.mean_curvature, -1.0,
                           cross_check=True),
    lambda eng: cf.linearize(lambda q: q.mean_curvature, eng.scene,
                             eng.upsilon, -1.0),
], ids=["central", "report", "linearize"])
def test_batch_cross_check_needs_members_of_one_kind(call):
    # the +/-_STEP pair would be a second member axis over the factors'
    batch, _ = _two_factor_engines()
    with pytest.raises(ValueError, match="factors or values of t, not both"):
        call(batch)


def test_members_that_pick_different_normals_raise():
    # a flat metric picks the normal candidates (1, 2) along the x-axis, a
    # sheared one (2, 1): one frame cannot serve both members
    flat = MetricField(3, lambda xs: np.eye(3), name="flat")
    shear = MetricField(3, lambda xs: [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0],
                                       [0.0, 0.0, 1.0]], name="shear")
    both = MetricField(3, lambda xs: jets.jets_members([flat(xs), shear(xs)]),
                       name="flat+shear")
    line = graph_patch(1, 3, [lambda ys: 0.0 * ys[0]] * 2, name="x-axis")
    for g, picks in ((flat, [1, 2]), (shear, [2, 1])):
        assert SubmanifoldPack(g, line, [0.2]).normal_picks == picks
    with pytest.raises(GeometryError, match=re.escape(
            "x-axis: members pick the normal candidates [(1, 2), (2, 1)]")):
        SubmanifoldPack(both, line, [0.2]).normal_frame


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 5), (4, 6), (4, 7)])
def test_parameter_pack_values_are_the_plain_values(k, n):
    # the engine reads every unrescaled value at t^0 of its parameter pack,
    # so that slice must be the plain pack's value, with a metric that
    # depends on the parameter.  Structural zeros (codimension one) sit at
    # rounding level, so the bound is relative to the largest value
    for seed in range(5):
        sc = scene(k, n, seed)
        pp = cf._Engine(sc, random_upsilon(n, seed=seed + 40)).param
        plain = SubmanifoldPack(sc.metric, sc.patch, sc.point)
        for got, want in ((evaluate_all(pp), evaluate_all(plain)),
                          (pp.scalar_summary(), plain.scalar_summary())):
            assert got.keys() == want.keys()
            size = max(abs(v) for v in want.values())
            for key in want:
                assert abs(got[key] - want[key]) <= 1e-13 * size, (
                    f"seed {seed}, {key}: {got[key]!r} vs {want[key]!r}")


def test_nilpotent_route_forms_no_exponential(monkeypatch):
    calls = []
    exp = Jets.exp
    monkeypatch.setattr(Jets, "exp", lambda self: calls.append(1) or exp(self))
    sc = random_scene(4, 5, 2)
    eng = cf._Engine(sc, random_upsilon(5, seed=4))
    eng.param
    rep = eng.report("mean_curvature", lambda q: q.mean_curvature, -1.0)
    assert rep.numeric.shape == (1,)
    assert calls == []


def test_linearize_mean_curvature_flat_oracle():
    # flat plane, factor = third coordinate: the normal gradient is the
    # constant unit covector, so the mean-curvature variation is -1
    sc = affine_plane(2, 3)
    rep = cf.linearize(
        lambda q: q.mean_curvature, sc, lambda xs: 1.0 * xs[2], -1.0,
        name="mean_curvature", analytic=np.array([-1.0]))
    assert rep.residual < 1e-14, f"residual {rep.residual}"
    assert rep.method_gap < 1e-9
    assert rep.ok()


def test_nan_method_gap_flags_the_report(monkeypatch):
    # a cross-check that produced no number cannot vouch for the variation
    monkeypatch.setattr(cf._Engine, "central", lambda self, ev, w: np.nan)
    sc = affine_plane(2, 3)
    rep = cf.linearize(
        lambda q: q.mean_curvature, sc, lambda xs: 1.0 * xs[2], -1.0)
    assert np.isnan(rep.method_gap)
    assert rep.flagged
    assert not rep.ok()


# -- method agreement on every registered quantity ------------------------------


def test_methods_agree_on_all_registered_quantities():
    sc = scene(4, 6, 21)
    ups = random_upsilon(6, seed=2)
    eng = cf._Engine(sc, ups)
    quantities = [(nm, lambda q, nm=nm: evaluate(q, nm))
                  for nm in available(4, 6) if REGISTRY[nm].invariant]
    # the quartic strata elements, stratum 4 included
    quantities += [(el.name, el.evaluate) for el in cf.QUARTIC_STRATA]
    for nm, ev in quantities:
        w = -4.0
        nil = eng.nilpotent(ev, w)
        cen = eng.central(ev, w)
        gap = float(np.max(np.abs(nil - cen)))
        assert gap < 1e-6, f"{nm}: nilpotent vs central {gap}"


def test_heavy_quartic_terms_agree_across_methods(monkeypatch):
    # fourth-derivative summands at the default order: the exact route
    # against differencing, by cross-checking every report of the battery
    report = cf._Engine.report
    monkeypatch.setattr(cf._Engine, "report", lambda self, *a, **kw: report(
        self, *a, **{**kw, "cross_check": True}))
    reps = cf.quartic_term_reports(scene(4, 6, 13), seed=3)
    assert HEAVY_QUARTIC <= {r.quantity for r in reps}
    for r in reps:
        assert r.method_gap < 1e-6, f"{r.quantity}: vs central {r.method_gap}"
        assert not r.flagged
        assert r.residual < 1e-12, f"{r.quantity}: exact residual {r.residual}"


# -- pointwise conformal invariance ----------------------------------------------


@pytest.mark.parametrize("k,n,seed", [(4, 6, 4), (3, 5, 7), (2, 4, 9)])
def test_registered_invariants_are_pointwise_invariant(k, n, seed):
    out = cf.check_invariance(scene(k, n, seed), seed=seed + 1)
    assert out, "no invariants available for this signature"
    for nm, row in out.items():
        assert row["finite"] < 1e-6, f"{nm}: finite rescale {row['finite']}"
        assert row["variation"] < 1e-7, f"{nm}: variation {row['variation']}"


def test_invariance_covers_the_registered_subset():
    out = cf.check_invariance(scene(4, 6, 4), seed=5)
    expected = {nm for nm in available(4, 6) if REGISTRY[nm].invariant}
    # exactly the flagged scalars, plus the sanity tensors riding along
    assert set(out) == expected | {"tracefree_norm2", "fialkow",
                                   "normal_curvature"}
    # the invariants consuming four metric derivatives vary exactly too
    assert HEAVY_INVARIANTS <= set(out)
    for nm in HEAVY_INVARIANTS:
        assert out[nm]["variation"] < 1e-12, f"{nm}: {out[nm]['variation']}"


# -- Q-curvature transformation ---------------------------------------------------


def test_q_transformation_default_battery():
    out = cf.check_q_transformation(seed=0)
    assert len(out) == 5
    for name, row in out.items():
        assert row["residual"] < 1e-5, f"{name}: {row['residual']}"
        assert row["operator_kills_constants"] == 0.0, name


def test_q_transformation_exactness_on_flat_surface():
    out = cf.check_q_transformation(scenes=[affine_plane(2, 4)], seed=1)
    row = out["affine-plane-2-4"]
    assert row["residual"] < 1e-12, f"flat surface law {row['residual']}"


def test_q_transformation_rejects_other_dimensions_before_building(pack_builds):
    sc = random_scene(3, 5, 4)
    with pytest.raises(GeometryError, match=f"{re.escape(sc.name)}.*k = 3"):
        cf.check_q_transformation(scenes=[sc], seed=3)
    assert pack_builds == []


def test_q_transformation_rejects_repeated_scene_names(pack_builds):
    # rows are keyed by scene name, so a second scene of the same name
    # would overwrite the first one's row
    scenes = [affine_plane(2, 4), affine_plane(2, 4, point=[0.3, -0.2])]
    with pytest.raises(ValueError, match="'affine-plane-2-4'"):
        cf.check_q_transformation(scenes=scenes, seed=1)
    assert pack_builds == []


def test_q_transformation_rejects_no_scenes(pack_builds):
    # an empty result would pass any "every row passed" check, an empty
    # iterator included
    for scenes in ([], iter([])):
        with pytest.raises(ValueError, match="no scenes"):
            cf.check_q_transformation(scenes=scenes, seed=1)
    assert pack_builds == []


def test_q_transformation_checks_every_scene_of_an_iterator():
    # the name check must not consume the scenes it is about to check
    sc = random_scene(2, 4, 1)
    rows = cf.check_q_transformation(scenes=(s for s in [sc]), seed=1)
    assert list(rows) == [sc.name]


# -- uniform scalings ---------------------------------------------------------------


@pytest.mark.parametrize("k,n,seed", [(2, 4, 5), (4, 5, 7), (4, 6, 13)])
def test_constant_scalings_far_from_one(k, n, seed):
    # g -> c g multiplies each invariant by c^(w/2) at any scale, near one
    # as far from it, and the ambient scalar curvature (weight -2) by 1/c:
    # no guard may compare a scale-carrying quantity with an absolute
    # threshold.  Structural zeros (codimension one) sit at rounding level,
    # so the bound is relative to the scene's largest value
    sc = scene(k, n, seed)
    base = SubmanifoldPack(sc.metric, sc.patch, sc.point)
    want = evaluate_all(base)
    size = max(abs(v) for v in want.values())
    scal = float(base.ambient.scal.value)
    for c in (1e-30, 1e-22, 1.0 / 9.0, 4.0, 1e22):
        scaled = MetricField(n, lambda xs, c=c: c * sc.metric(xs), name="c*g")
        pack = SubmanifoldPack(scaled, sc.patch, sc.point)
        got = evaluate_all(pack)
        for nm, v in want.items():
            unscaled = got[nm] * c ** (-REGISTRY[nm].weight_at(k) / 2)
            assert abs(unscaled - v) <= 1e-13 * size, (
                f"c={c}, {nm}: {unscaled!r} vs {v!r}")
        unscaled = float(pack.ambient.scal.value) * c
        assert abs(unscaled - scal) <= 1e-13 * abs(scal), (
            f"c={c}, ambient scalar: {unscaled!r} vs {scal!r}")


# -- quartic building blocks ---------------------------------------------------------


@pytest.mark.parametrize("seed", [2, 13])
def test_quartic_term_variations_are_divergences(seed):
    reps = cf.quartic_term_reports(scene(4, 6, seed), seed=seed + 1)
    assert len(reps) == 7
    for r in reps:
        assert r.residual < 1e-6, f"{r.quantity}: residual {r.residual}"
        if r.quantity in HEAVY_QUARTIC:
            assert r.residual < 1e-12, f"{r.quantity} should be exact"


def test_strata_vanishing_is_sharp():
    out = cf.check_strata_vanishing(scene(4, 6, 5), seed=0)
    for j, mags in out["vanishing"].items():
        worst = np.max(list(mags.values()))  # a NaN leak stays NaN
        assert worst < 1e-7, f"stratum {j}: leak {worst}"
    # expected element counts per closed stratum
    counts = {j: len(m) for j, m in out["vanishing"].items()}
    assert counts == {0: 8, 1: 22, 2: 31, 3: 32, 4: 33}
    # the claim is not vacuous: a generic factor lights up every stratum
    per_stratum = {}
    for el in cf.QUARTIC_STRATA:
        per_stratum[el.stratum] = max(per_stratum.get(el.stratum, 0.0),
                                      out["generic"][el.name])
    for j, mag in per_stratum.items():
        assert mag > 1e-3, f"stratum {j} never lights up ({mag})"


def test_deepest_strata_factor_is_zero_on_the_pack():
    # the depth-j factor carries the (j + 1)-st power of a defining
    # function: below PACK_ORDER its pack jet is visibly nonzero, at
    # PACK_ORDER it has no monomial a pack keeps and is identically zero,
    # so the battery's deepest row cannot fail at this pack order
    sc = scene(4, 5, 3)
    p = SubmanifoldPack(sc.metric, sc.patch, sc.point, param=True)
    depths = sorted({el.stratum for el in cf.QUARTIC_STRATA})
    assert depths == list(range(PACK_ORDER + 1))
    mags = [cf._gap(cf._upsilon_jets(
                p, cf.transverse_vanishing_upsilon(sc, j, seed=3 + 10 * j))[0].coeffs)
            for j in depths]
    assert np.min(mags[:-1]) > 1e-6, mags
    assert mags[-1] == 0.0, mags


def vanishes_through(upsilon, x_point, order: int) -> bool:
    """Whether every derivative of ``upsilon`` through total order ``order``
    vanishes at ``x_point``: its order-``order`` jet there is zero to within
    1e-10."""
    u = upsilon(variables(np.asarray(x_point, dtype=float), order))
    return cf._gap(u.coeffs) <= 1e-10


@pytest.mark.parametrize("j", range(5))
def test_vanishing_factor_tags_verify(j):
    # the factor of depth j vanishes through order j and, as its (j + 1)-st
    # power of a defining function still has a nonzero derivative of that
    # order, not through j + 1: the depth is sharp at every stratum
    sc = scene(4, 6, 5)
    x0 = np.asarray(
        SubmanifoldPack(sc.metric, sc.patch, sc.point).x_point)
    ups = cf.transverse_vanishing_upsilon(sc, j, seed=3)
    assert vanishes_through(ups, x0, j)
    assert not vanishes_through(ups, x0, j + 1)


def test_generic_factor_fails_vanishing_tag():
    sc = scene(4, 6, 5)
    x0 = np.asarray(
        SubmanifoldPack(sc.metric, sc.patch, sc.point).x_point)
    assert not vanishes_through(random_upsilon(6, seed=1), x0, 0)
    assert not vanishes_through(cf._bump_factor(0.3), x0, 0)


@pytest.mark.parametrize("battery", [cf.check_tangential_dependence,
                                     cf.check_strata_vanishing])
@pytest.mark.parametrize("make", [s2xs2_in_s5, cylinder_r_x_s3])
def test_transverse_factor_needs_a_graph_patch(pack_builds, battery, make):
    # the transverse-vanishing factor reads the patch as a graph over its
    # first k ambient coordinates; on a patch that is not one it would not
    # vanish along the submanifold, so both batteries that use it refuse
    # the scene before building a pack
    sc = make()
    with pytest.raises(GeometryError,
                       match=rf"{re.escape(sc.name)}: .* needs a graph patch"):
        battery(sc)
    assert pack_builds == []


# -- a NaN anywhere is the reported number --------------------------------------


@pytest.fixture
def pack_builds(monkeypatch):
    """The positional arguments of every :class:`SubmanifoldPack` built."""
    builds = []
    init = SubmanifoldPack.__init__
    monkeypatch.setattr(SubmanifoldPack, "__init__", lambda self, *a, **kw: (
        builds.append(a) or init(self, *a, **kw)))
    return builds


@pytest.fixture
def packs_at(monkeypatch):
    """The packs every engine builds, listed by rescale parameter ``t``."""
    built = defaultdict(list)
    finite = cf._Engine.finite

    def record(self, t):
        pack = finite(self, t)
        if not any(pack is q for q in built[t]):
            built[t].append(pack)
        return pack

    monkeypatch.setattr(cf._Engine, "finite", record)
    return built


def poison(monkeypatch, name, hit, member=None):
    """``cf.evaluate(p, name)`` reads NaN on every pack ``p`` with
    ``hit(p)``: on its member ``member`` only, when that is given."""
    evaluate = cf.evaluate

    def factor(p):
        if member is None:
            return np.nan
        return np.where(np.arange(p.pulled("g").members) == member, np.nan, 1.0)

    monkeypatch.setattr(cf, "evaluate", lambda p, nm: (
        evaluate(p, nm) * factor(p) if nm == name and hit(p)
        else evaluate(p, nm)))


def test_nan_rescaled_q_is_the_q_residual(monkeypatch, packs_at):
    # the first factor's rescaled Q is NaN, the second's is not: the two
    # are the members of one pack
    poison(monkeypatch, "extrinsic_q2", lambda p: p in packs_at[1.0], member=0)
    out = cf.check_q_transformation(scenes=[affine_plane(2, 4)], seed=1)
    assert len(packs_at[1.0]) == 1
    assert np.isnan(out["affine-plane-2-4"]["residual"])


def test_nan_finite_rescale_is_the_invariance_gap(monkeypatch, packs_at):
    # only the second finite rescale, t = -0.07 (the second member of the
    # finite pack), of one invariant is NaN
    poison(monkeypatch, "willmore_quartic",
           lambda p: p in packs_at[(0.1, -0.07)], member=1)
    out = cf.check_invariance(scene(4, 6, 4), seed=5)
    assert np.isnan(out["willmore_quartic"]["finite"])
    assert out["willmore_quartic"]["variation"] < 1e-7
    assert all(row["finite"] < 1e-6 for nm, row in out.items()
               if nm != "willmore_quartic")


def test_nan_variation_is_the_invariance_variation(monkeypatch, packs_at):
    poison(monkeypatch, "willmore_quartic", lambda p: p in packs_at[None])
    out = cf.check_invariance(scene(4, 6, 4), seed=5)
    assert np.isnan(out["willmore_quartic"]["variation"])


def test_nan_silent_variation_is_the_tangential_maximum(monkeypatch):
    # the last of the five mixed quantities evaluates to NaN
    nm, ev, w = cf._LEMMA_ROWS[-1]
    monkeypatch.setattr(cf, "_LEMMA_ROWS", cf._LEMMA_ROWS[:-1] + (
        (nm, lambda q: ev(q) * np.nan, w),))
    out = cf.check_tangential_dependence(scene(4, 6, 5), seed=5)
    assert np.isnan(out["tangential_zero_max"])
    assert out["schouten_pullback_zero"] < 1e-9


def test_nan_element_is_its_stratum_magnitude(monkeypatch):
    # two stratum-0 elements, the second evaluating to NaN
    first, second = cf.QUARTIC_STRATA[:2]
    monkeypatch.setattr(cf, "QUARTIC_STRATA", (first, cf.StratumElement(
        0, second.name, lambda p: second.evaluate(p) * np.nan)))
    out = cf.check_strata_vanishing(scene(4, 6, 5), seed=0)
    assert np.isnan(out["vanishing"][0][second.name])
    assert np.isnan(out["generic"][second.name])
    assert out["vanishing"][0][first.name] < 1e-7
