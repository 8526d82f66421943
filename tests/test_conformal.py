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

import re
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
    conformally_rescaled,
    flat_metric,
    sphere_chart_metric,
)
from qgeo.invariants import REGISTRY, available, evaluate, evaluate_all
from qgeo.jets import PACK_ORDER, Jets, variables
from qgeo.scenes import affine_plane, random_scene, random_upsilon
from qgeo.submanifold import SubmanifoldPack


@lru_cache(maxsize=None)
def scene(k, n, seed):
    return random_scene(k, n, seed)


@lru_cache(maxsize=None)
def witness_pack(n, params, point=(0.0, 0.0, 0.0, 0.0)):
    g = cf.witness_metric(n, *params)
    return SubmanifoldPack(g, cf._witness_patch(n), list(point))


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
    rows = cf.linear_independence_witness(n)
    best_t = max(r["tensor_det"] for r in rows)
    best_d = max(r["divergence_det"] for r in rows)
    assert best_t > 1e-12, f"tensor Gram det {best_t}"
    assert best_d > 1e-12, f"divergence Gram det {best_d}"
    # the canonical sample alone already certifies independence
    unit = [r for r in rows if r["params"] == (1.0, 1.0, 1.0, 1.0)]
    assert unit and unit[0]["tensor_det"] > 1e-12


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
    assert list(rows[0]) == ["params", "tensor_names", "tensor_gram",
                             "tensor_det", "divergence_names",
                             "divergence_gram", "divergence_det"]
    assert rows[0]["tensor_names"] == tensors
    assert rows[0]["divergence_names"] == divergences
    assert rows[0]["tensor_gram"].shape == (len(tensors),) * 2
    assert rows[0]["divergence_gram"].shape == (len(divergences),) * 2


def test_witness_gram_collapses_without_curvature():
    row = cf.linear_independence_witness(
        6, params=[(0.0, 0.0, 0.0, 0.0)])[0]
    assert row["tensor_det"] == 0.0
    assert row["divergence_det"] == 0.0


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


def test_tangential_battery_builds_one_pack_per_engine(monkeypatch):
    # every variation is exact and the laws are read at t^0 of the
    # parameter pack, so each of the battery's two engines builds only
    # its parameter pack
    builds = []
    init = SubmanifoldPack.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubmanifoldPack, "__init__", counting_init)
    out = cf.check_tangential_dependence(random_scene(4, 5, 2))
    assert len(builds) == 2
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


def test_batteries_at_one_point_share_two_charts(monkeypatch):
    # the chart map does not depend on the metric: the plain, finite and
    # parameter packs of all four batteries at one point share the plain
    # and the parameter chart, and their Composer tables.  The packs are
    # 3 of the invariance battery (parameter, t = 0.1, -0.07), 2 of the
    # tangential one (two parameter), 6 of the strata one (one parameter
    # pack per factor) and 3 of the Q one (plain, two at t = 1)
    charts, tables, packs = [], [], []
    chart_jets, monomial_table = ImmersedPatch.jets, jets.monomial_table
    init = SubmanifoldPack.__init__
    monkeypatch.setattr(SubmanifoldPack, "__init__", lambda self, *a, **kw: (
        packs.append(a) or init(self, *a, **kw)))
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
    assert len(packs) == 14


@pytest.mark.parametrize("battery,calls", [
    (cf.check_invariance, 4),
    (cf.ambient_law_reports, 2),
    (cf.quartic_term_reports, 2),
])
def test_upsilon_is_restricted_once_per_pack(battery, calls):
    # one call per pack build of a rescaled metric and one per pack that
    # reads Upsilon, on the ambient coordinate variables at its point (the
    # parameter pack serves both the restriction data and Upsilon(x0)):
    # Upsilon is not re-evaluated per report
    ups = random_upsilon(5, seed=4)
    seen = []

    def counting(xs):
        seen.append(len(xs))
        return ups(xs)

    battery(random_scene(4, 5, 2), counting)
    assert len(seen) == calls


@pytest.mark.parametrize("factor", ["random", "transverse", "bump"])
def test_pulled_upsilon_is_the_chart_evaluation(factor):
    # Upsilon reaches a pack like every ambient tensor: evaluated on the
    # ambient coordinate variables, then pulled back along the chart; that
    # is Upsilon of the chart jets to the pack order, and its value is
    # Upsilon(x0) to the last bit
    sc = scene(4, 5, 2)
    ups = {"random": random_upsilon(5, seed=4),
           "transverse": cf.transverse_vanishing_upsilon(sc, 1),
           "bump": cf._bump_factor(0.3)}[factor]
    eng = cf._Engine(sc.metric, sc.patch, sc.point, ups)
    for pack in (eng.param, eng.finite(0.1)):
        got = eng._upsilon_on(pack)
        chart = [pack.chart_jets[a] for a in range(pack.n)]
        want = ups(chart).truncate(PACK_ORDER)
        assert got.space is want.space
        assert float(np.max(np.abs(got.coeffs - want.coeffs))) < 1e-13
        assert float(got.value) == float(ups(variables(pack.x_point, 0)).value)


def test_linear_rescale_is_the_exponential_on_the_parameter_pack():
    # t^2 = 0 on the parameter pack, so exp(w t Upsilon) = 1 + w t Upsilon
    # to the last bit
    sc = scene(4, 5, 2)
    eng = cf._Engine(sc.metric, sc.patch, sc.point, random_upsilon(5, seed=4))
    pp = eng.param
    tu = pp.chart_jets[pp.n] * eng._upsilon_on(pp)
    for w in (2.0, -4.0, 1.3):
        assert np.array_equal((w * tu).exp().coeffs, (1.0 + w * tu).coeffs)


def test_scale_is_the_rescale_factor_of_each_built_pack(monkeypatch):
    # 1 + w t Upsilon on the parameter pack, with no jet exponential, and
    # exp(w s Upsilon) on the finite pack at s, both to the last bit
    sc = scene(4, 5, 2)
    eng = cf._Engine(sc.metric, sc.patch, sc.point, random_upsilon(5, seed=4))
    pp = eng.param
    tu = pp.chart_jets[pp.n] * eng._upsilon_on(pp)
    calls = []
    exp = Jets.exp
    monkeypatch.setattr(Jets, "exp", lambda self: calls.append(1) or exp(self))
    got = {w: eng.scale(pp, w) for w in (2.0, -4.0, 1.3)}
    assert calls == []
    for w, jet in got.items():
        assert np.array_equal(jet.coeffs, exp(w * tu).coeffs)
    for s in (1e-4, -1e-4, 0.1, -0.07):
        u = eng._upsilon_on(eng.finite(s))
        for w in (2.0, -4.0, 1.3):
            assert np.array_equal(eng.scale(eng.finite(s), w).coeffs,
                                  exp(w * (s * u)).coeffs)


def test_scale_names_a_pack_the_engine_did_not_build():
    sc = scene(4, 5, 2)
    eng = cf._Engine(sc.metric, sc.patch, sc.point, random_upsilon(5, seed=4))
    other = cf._Engine(sc.metric, sc.patch, sc.point, random_upsilon(5, seed=5))
    with pytest.raises(ValueError, match=r"the parameter pack of "
                       r"rescaled\(.*\) at \[.*\] was not built"):
        eng.scale(other.param, 2.0)
    with pytest.raises(ValueError, match="plain pack"):
        eng.scale(SubmanifoldPack(sc.metric, sc.patch, sc.point), 2.0)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 5), (4, 5), (4, 6), (4, 7)])
def test_parameter_pack_values_are_the_plain_values(k, n):
    # the engine reads every unrescaled value at t^0 of its parameter pack,
    # so that slice must be the plain pack's value, with a metric that
    # depends on the parameter.  Structural zeros (codimension one) sit at
    # rounding level, so the bound is relative to the largest value
    for seed in range(5):
        sc = scene(k, n, seed)
        pp = cf._Engine(sc.metric, sc.patch, sc.point,
                        random_upsilon(n, seed=seed + 40)).param
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
    eng = cf._Engine(sc.metric, sc.patch, sc.point, random_upsilon(5, seed=4))
    eng.param
    rep = eng.report("mean_curvature", lambda q: q.mean_curvature, -1.0)
    assert rep.numeric.shape == (1,)
    assert calls == []


def test_linearize_mean_curvature_flat_oracle():
    # flat plane, factor = third coordinate: the normal gradient is the
    # constant unit covector, so the mean-curvature variation is -1
    sc = affine_plane(2, 3)
    rep = cf.linearize(
        lambda q: q.mean_curvature, sc.metric, sc.patch,
        lambda xs: 1.0 * xs[2], -1.0, point=sc.point,
        name="mean_curvature", analytic=np.array([-1.0]))
    assert rep.residual < 1e-14, f"residual {rep.residual}"
    assert rep.method_gap < 1e-9
    assert rep.ok()


# -- method agreement on every registered quantity ------------------------------


def test_methods_agree_on_all_registered_quantities():
    sc = scene(4, 6, 21)
    ups = random_upsilon(6, seed=2)
    eng = cf._Engine(sc.metric, sc.patch, sc.point, ups)
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


def test_q_transformation_rejects_other_dimensions_before_building(monkeypatch):
    built = []
    init = SubmanifoldPack.__init__
    monkeypatch.setattr(SubmanifoldPack, "__init__", lambda self, *a, **kw: (
        built.append(a) or init(self, *a, **kw)))
    sc = random_scene(3, 5, 4)
    with pytest.raises(GeometryError, match=f"{re.escape(sc.name)}.*k = 3"):
        cf.check_q_transformation(scenes=[sc], seed=3)
    assert built == []


# -- uniform scalings ---------------------------------------------------------------


@pytest.mark.parametrize("k,n,seed", [(4, 6, 4), (2, 4, 3)])
def test_homogeneity_weights(k, n, seed):
    out = cf.check_homogeneity(scene(k, n, seed))
    for c, row in out.items():
        assert row["worst"] < 1e-9, f"c={c}: {row['worst']}"
        assert row["ambient_scalar"] < 1e-9, f"c={c}: {row['ambient_scalar']}"


@pytest.mark.parametrize("k,n,seed", [(2, 4, 5), (4, 5, 7), (4, 6, 13)])
def test_constant_scalings_far_from_one(k, n, seed):
    # g -> c g multiplies each invariant by c^(w/2) at any scale: no guard
    # may compare a scale-carrying quantity with an absolute threshold.
    # Structural zeros (codimension one) sit at rounding level, so the
    # bound is relative to the scene's largest value
    sc = scene(k, n, seed)
    want = evaluate_all(SubmanifoldPack(sc.metric, sc.patch, sc.point))
    size = max(abs(v) for v in want.values())
    for c in (1e-30, 1e-22, 1e22):
        scaled = MetricField(n, lambda xs, c=c: c * sc.metric(xs), name="c*g")
        got = evaluate_all(SubmanifoldPack(scaled, sc.patch, sc.point))
        for nm, v in want.items():
            unscaled = got[nm] * c ** (-REGISTRY[nm].weight_at(k) / 2)
            assert abs(unscaled - v) <= 1e-13 * size, (
                f"c={c}, {nm}: {unscaled!r} vs {v!r}")


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
        worst = max(mags.values())
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


def test_vanishing_factor_tags_verify():
    sc = scene(4, 6, 5)
    x0 = np.asarray(
        SubmanifoldPack(sc.metric, sc.patch, sc.point).x_point)
    deep = cf.transverse_vanishing_upsilon(sc, 2, seed=3)
    assert deep.verify(x0)
    # a first-power factor still has a gradient: claiming more must fail
    shallow = cf.transverse_vanishing_upsilon(sc, 0, seed=3)
    lying = cf.ConformalFactor(shallow.fn, vanishing_order=1)
    assert not lying.verify(x0)


def test_generic_factor_fails_vanishing_tag():
    sc = scene(4, 6, 5)
    x0 = np.asarray(
        SubmanifoldPack(sc.metric, sc.patch, sc.point).x_point)
    ups = cf.ConformalFactor(random_upsilon(6, seed=1), vanishing_order=0)
    assert not ups.verify(x0)
    assert cf.ConformalFactor(random_upsilon(6, seed=1)).verify(x0)
