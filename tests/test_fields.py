"""Polynomial fields: the Taylor-shift evaluation against a naive oracle.

The oracle sums ``c_alpha x^alpha`` with one ``jet_mul`` per factor, so it
shares nothing with ``Polynomial.__call__`` but the jet product.  Inputs
cover both evaluation paths: coordinate variables (of a plain space, of a
parameter space, and the leading variables of a larger space), and
composite chart jets of an immersion, also with a polynomial degree above
the jet order and above the jet budget.  Composite inputs go through a
``Composer``, which rejects the one layout its truncation cannot serve.
A table of guards checks that a bad polynomial, patch, rescale or scene
name fails with an error that names it, and another that a point or a
component matrix of the wrong size names its field or patch and both
shapes.
"""

import re
from functools import lru_cache

import numpy as np
import pytest

import qgeo.jets as jets
from qgeo.fields import (
    GeometryError,
    ImmersedPatch,
    MetricField,
    Polynomial,
    conformally_rescaled,
    flat_metric,
    sphere_chart_metric,
)
from qgeo.jets import Composer, constant, jet_mul, jets_stack, variables
from qgeo.scenes import (
    equatorial_sphere,
    random_scene,
    random_upsilon,
    scene_by_name,
)
from qgeo.submanifold import SubmanifoldPack


def naive(poly, xs):
    spc = xs[0].space
    out = constant(np.zeros(poly.coeffs.shape[:-1]), spc)
    for q, alpha in enumerate(poly.mindex):
        mono = constant(1.0, spc)
        for i, e in enumerate(alpha):
            for _ in range(e):
                mono = jet_mul(mono, xs[i])
        out = out + mono * poly.coeffs[..., q]
    return out


def random_polynomial(nvars, degree, seed=0):
    size = len(jets._multi_indices(nvars, degree))
    rng = np.random.default_rng(seed)
    return Polynomial(nvars, degree, rng.uniform(-1.0, 1.0, (2, size)))


@lru_cache(maxsize=None)
def chart(order, param=False):
    sc = random_scene(4, 5, 3)
    X = sc.patch.jets(sc.point + 0.3, order, param=param)
    return [X[a] for a in range(sc.patch.n)]


POINT = np.array([0.41, -0.37, 0.28, 0.52, -0.45])

CASES = {
    "coordinates": (3, 4, lambda: variables(POINT[:3], 4)),
    "parameter-space": (3, 4, lambda: variables(POINT[:3], 4, param=True)),
    "leading-k-of-n": (2, 4, lambda: variables(POINT, 4)),
    "composite": (5, 4, lambda: chart(4)),
    "composite-parameter": (5, 4, lambda: chart(5, param=True)),
    "degree-above-order": (3, 4, lambda: variables(POINT[:3], 2)),
    "composite-degree-above-order": (5, 4, lambda: chart(2)),
    "degree-above-budget": (4, 6, lambda: variables(POINT[:4], 3)),
    "composite-degree-above-budget": (5, 6, lambda: chart(3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_polynomial_matches_naive_sum(case):
    nvars, degree, inputs = CASES[case]
    xs = inputs()
    poly = random_polynomial(nvars, degree, seed=len(case))
    got, want = poly(xs), naive(poly, xs)
    assert got.space is want.space
    assert got.batch == (2,)
    gap = float(np.max(np.abs(got.coeffs - want.coeffs)))
    assert gap < 1e-13, f"{case}: {gap}"


def test_coordinate_inputs_make_no_jet_products(monkeypatch):
    composite = chart(4)
    calls = []
    kernel = jets._product
    monkeypatch.setattr(jets, "_product",
                        lambda *args: calls.append(args[1:4]) or kernel(*args))
    for case in ("coordinates", "parameter-space", "leading-k-of-n",
                 "degree-above-order", "degree-above-budget"):
        nvars, degree, inputs = CASES[case]
        random_polynomial(nvars, degree)(inputs())
    assert calls == []
    # composite inputs do multiply: the displacement powers are jets
    random_polynomial(5, 4)(composite)
    assert calls


def test_polynomial_needs_one_jet_per_variable():
    with pytest.raises(ValueError):
        random_polynomial(3, 2)(variables(POINT[:2], 2))


def test_polynomial_keeps_a_read_only_copy_of_its_coefficients():
    # a shared factor must not change under any caller's write
    c = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 10))
    poly = Polynomial(3, 2, c)
    before = poly.coeffs.copy()
    with pytest.raises(ValueError, match="read-only"):
        poly.coeffs[0, 0] = 5.0
    c[...] = 7.0
    assert np.array_equal(poly.coeffs, before)


def test_polynomial_coefficients_cannot_be_made_writable():
    # the stored hash must stay the hash of the coefficients: the exposed
    # view's flag cannot be flipped back, so no caller edits them in place
    p = Polynomial(2, 2, np.linspace(-1.0, 1.0, 6))
    view = p.coeffs
    with pytest.raises(ValueError):
        view.flags.writeable = True
    with pytest.raises(ValueError, match="read-only"):
        view[0] = 5.0
    assert p == Polynomial(2, 2, np.linspace(-1.0, 1.0, 6))


def test_random_upsilon_draws_are_equal_per_key():
    # positional or keyword, with or without the default degree: one value
    ups = random_upsilon(5, 3)
    assert ups == random_upsilon(5, seed=3, degree=4)
    assert ups == random_upsilon(5, 3, 4)
    assert ups == random_upsilon(n=5, seed=3)
    assert ups != random_upsilon(5, 3, degree=3)
    assert ups != random_upsilon(5, 4)
    assert ups != random_upsilon(4, 3)
    with pytest.raises(TypeError):
        random_upsilon(5, 3.0)


def test_polynomial_equality_is_by_value():
    c = np.linspace(-1.0, 1.0, 6)
    p = Polynomial(2, 2, c)
    for twin in (Polynomial(2, 2, c.copy()), Polynomial(2, 2, list(c))):
        assert twin is not p and twin == p and hash(twin) == hash(p)
    assert {p: "pack"}[Polynomial(2, 2, c.copy())] == "pack"
    # nvars and degree over the same coefficient bytes, the batch shape,
    # and any bit of a coefficient (-0.0 is not 0.0) break equality
    four = np.arange(4.0)
    assert Polynomial(1, 3, four) != Polynomial(3, 1, four)
    assert Polynomial(2, 2, c[None]) != p
    assert Polynomial(2, 2, np.where(c == c[2], np.nextafter(c[2], 1.0), c)) != p
    assert Polynomial(2, 2, np.zeros(6)) != Polynomial(2, 2, -np.zeros(6))
    # a non-Polynomial is never equal, whatever it holds
    for other in (None, 0.0, c, p.coeffs, (p,), lambda xs: p(xs)):
        assert p.__eq__(other) is NotImplemented
        assert not np.any(p == other) and np.all(p != other)


# constructor or call, the exception it must raise, and a message fragment
GUARDS = [
    (lambda: Polynomial(2, 2, np.zeros(5)), ValueError,
     "need 6 coefficients per component, got 5"),
    (lambda: ImmersedPatch(2, 3, lambda ys: list(ys), name="short").jets(
        [0.0, 0.0], 2), GeometryError,
     "short: map returned 2 components, expected 3"),
    (lambda: conformally_rescaled(flat_metric(3), lambda xs: 0.0 * xs[0]).jets(
        [0.0, 0.0, 0.0], 2), GeometryError,
     "nilpotent rescale needs the linearization parameter"),
    (lambda: conformally_rescaled(flat_metric(3), lambda xs: 0.0 * xs[0],
                                  t=(None, 0.1)).jets([0.0, 0.0, 0.0], 2),
     GeometryError, "nilpotent rescale needs the linearization parameter"),
    # a member per factor and per t at once: one compensation cannot pair them
    (lambda: conformally_rescaled(flat_metric(3), (lambda xs: 0.0 * xs[0],) * 2,
                                  t=(0.1, 0.2)),
     ValueError, "members are factors or values of t, not both"),
    (lambda: scene_by_name("nope"), KeyError, "unknown scene 'nope'; available"),
]


@pytest.mark.parametrize("call,error,message", GUARDS)
def test_guard_names_the_bad_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def _small_metric(xs):
    return [[1.0 + 0.0 * xs[0], 0.0], [0.0, 1.0]]


# a call with an input of the wrong size, and the message naming its
# owner, the shape it got and the shape it expected
WRONG_SIZES = {
    "metric-point-long": (lambda sc: sc.metric.jets(np.zeros(6), 2),
                          "{metric}: point of shape (6,), expected (5,)"),
    "metric-point-short": (lambda sc: sc.metric.jets(np.zeros(4), 2),
                           "{metric}: point of shape (4,), expected (5,)"),
    "metric-point-param": (lambda sc: sc.metric.jets(np.zeros(6), 2, param=True),
                           "{metric}: point of shape (6,), expected (5,)"),
    "patch-point-long": (lambda sc: sc.patch.jets(np.zeros(5), 2),
                         "{patch}: point of shape (5,), expected (4,)"),
    "patch-point-short": (lambda sc: sc.patch.jets(np.zeros(2), 2),
                          "{patch}: point of shape (2,), expected (4,)"),
    "catalog-patch-point": (lambda sc: scene_by_name("clifford-torus").patch.jets(
        np.zeros(3), 2), "clifford-torus: point of shape (3,), expected (2,)"),
    "pack-point": (lambda sc: SubmanifoldPack(sc.metric, sc.patch, np.zeros(3)),
                   "{patch}: point of shape (3,), expected (4,)"),
    "metric-constant-components": (
        lambda sc: MetricField(3, lambda xs: np.eye(2), name="small").jets(
            np.zeros(3), 2),
        "small: components of shape (2, 2), expected (3, 3)"),
    "metric-jet-components": (
        lambda sc: MetricField(3, _small_metric, name="small").jets(np.zeros(3), 2),
        "small: components of shape (2, 2), expected (3, 3)"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SIZES))
def test_wrong_size_names_the_input_and_both_shapes(case):
    sc = random_scene(4, 5, 3)
    call, message = WRONG_SIZES[case]
    message = message.format(metric=sc.metric.name, patch=sc.patch.name)
    with pytest.raises(GeometryError, match=re.escape(message)):
        call(sc)


def test_cached_chart_still_checks_the_point_shape():
    # a point of the wrong shape with the bytes of the cached one
    sc = random_scene(2, 4, 0)
    SubmanifoldPack(sc.metric, sc.patch, sc.point)
    message = f"{sc.patch.name}: point of shape (1, 2), expected (2,)"
    with pytest.raises(GeometryError, match=re.escape(message)):
        SubmanifoldPack(sc.metric, sc.patch, sc.point[None, :])


def test_pure_t_displacements_are_rejected():
    # t has degree 0 on a parameter space, so a pure t term in a
    # displacement would need source monomials beyond the order
    x, y, t = variables(POINT[:2], 3, param=True)
    xs = [x + 0.5 * t, x * y]
    poly = random_polynomial(2, 4)
    with pytest.raises(ValueError, match="pure t"):
        poly(xs)
    with pytest.raises(ValueError, match="pure t"):
        Composer(jets_stack(xs))(poly(variables(POINT[:2], 3)))
    # the source's own parameter may carry one, as on a parameter pack

    def fn(zs):
        return (zs[0] * zs[1] + zs[2] * zs[0]).exp()

    coords = [x * y + x, x - 0.3 * y, t]
    pulled = Composer(jets_stack(coords))(
        fn(variables([c.value for c in coords[:2]], 3, param=True)))
    assert np.max(np.abs(pulled.coeffs - fn(coords).coeffs)) < 1e-13


@pytest.mark.parametrize("radius", [0.0, np.nan, -1.0, np.inf])
def test_sphere_radius_must_be_positive_and_finite(radius):
    message = f"sphere-chart radius must be positive and finite, got {radius!r}"
    with pytest.raises(GeometryError, match=re.escape(message)):
        equatorial_sphere(2, 4, radius=radius)


# -- the kept jet of a polynomial on coordinate variables ----------------------


def _count_shifts(monkeypatch):
    """The ``(polynomial, point dtype, point bytes)`` of every Taylor shift."""
    shifts = []
    shifted = Polynomial._shifted
    monkeypatch.setattr(Polynomial, "_shifted", lambda self, x0: (
        shifts.append((self, x0.dtype.str, x0.tobytes())) or shifted(self, x0)))
    return shifts


def test_polynomial_shifts_once_per_space_and_point(monkeypatch):
    shifts = _count_shifts(monkeypatch)
    poly = random_polynomial(3, 4, seed=5)
    plain, param = variables(POINT[:3], 4), variables(POINT[:3], 4, param=True)
    first = poly(plain)
    assert poly(plain) is first and poly(variables(POINT[:3], 4)) is first
    assert len(shifts) == 1
    with pytest.raises(ValueError, match="read-only"):
        first.coeffs[0, 0] = 1.0
    # the kept jet is a fresh evaluation's, byte for byte
    fresh = random_polynomial(3, 4, seed=5)(plain)
    assert fresh.coeffs.tobytes() == first.coeffs.tobytes()
    assert len(shifts) == 2
    # another space at the point, another point, or a long double point of
    # the same float64 value shifts again
    poly(param)
    poly(variables(POINT[:3] + 0.1, 4))
    poly(variables(POINT[:3].astype(np.longdouble), 4))
    assert len(shifts) == 5


def test_composite_inputs_are_composed_per_call(monkeypatch):
    # the composition is not kept, only the jet on coordinate variables
    shifts = _count_shifts(monkeypatch)
    pulls = []
    call = Composer.__call__
    monkeypatch.setattr(Composer, "__call__", lambda self, f: (
        pulls.append(f) or call(self, f)))
    poly = random_polynomial(5, 4)
    first, second = poly(chart(4)), poly(chart(4))
    assert len(pulls) == 2 and len(shifts) == 1
    assert first is not second and first.coeffs.tobytes() == second.coeffs.tobytes()


def test_kept_jets_are_not_part_of_the_value():
    p, q = random_polynomial(3, 4, seed=2), random_polynomial(3, 4, seed=2)
    p(variables(POINT[:3], 4))
    assert p == q and hash(p) == hash(q)
    assert {q: "pack"}[p] == "pack"


def test_no_array_behind_polynomial_coefficients_can_be_made_writable():
    # the stored hash and the kept jets stay those of the coefficients: every
    # array in the ``.base`` chain of ``coeffs`` refuses the writeable flag
    p = Polynomial(2, 2, np.linspace(-1.0, 1.0, 6).reshape(1, 6))
    arrays, a = [], p.coeffs
    while isinstance(a, np.ndarray):
        arrays.append(a)
        a = a.base
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError):
            a.flags.writeable = True
    assert p == Polynomial(2, 2, np.linspace(-1.0, 1.0, 6)[None])


def test_metric_jets_keep_a_long_double_point():
    # the positive-definiteness check runs in float64, the jets do not
    point = np.full(3, np.longdouble(1) / 3)
    G = sphere_chart_metric(3).jets(point, 2)
    assert G.coeffs.dtype == np.longdouble
    assert abs(G.value[0, 0] - 4 / (1 + 3 * point[0] ** 2) ** 2) < 1e-15


def test_chart_slot_keys_the_point_float_type(monkeypatch):
    # two long double points that round to one float64 get two charts; a
    # float64 point and an int point of one value share one
    built = []
    jets_of = ImmersedPatch.jets
    monkeypatch.setattr(ImmersedPatch, "jets", lambda self, *a, **kw: (
        built.append(a[0]) or jets_of(self, *a, **kw)))
    sc = random_scene(2, 4, 0)
    base = np.full(2, np.longdouble(1) / 3)
    near = base + np.longdouble(2.0) ** -60
    assert np.array_equal(base.astype(float), near.astype(float))
    X, _ = sc.patch.chart(base)
    Y, _ = sc.patch.chart(near)
    assert len(built) == 2 and X.coeffs.dtype == np.longdouble
    assert X.value[0] == base[0] and Y.value[0] == near[0]
    sc.patch.chart(np.array([1, 0]))
    sc.patch.chart(np.array([1.0, 0.0]))
    assert len(built) == 3 and built[-1].dtype == float
