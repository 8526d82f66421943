"""Scene catalog: ambient metrics with immersed patches, plus random scenes.

A scene bundles everything the geometry layers need at one evaluation point:
the ambient metric field, the immersion chart, the submanifold point,
and, for Einstein backgrounds, the Einstein constant normalized by
``Ric = lambda (n-1) g``.

Random scenes are generated from fixed seeds with polynomial data, so every
test stream is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GeometryError,
    ImmersedPatch,
    MetricField,
    Polynomial,
    flat_metric,
    graph_patch,
    sphere_chart_metric,
)
from .jets import _multi_indices

__all__ = [
    "Scene",
    "affine_plane",
    "equatorial_sphere",
    "clifford_torus",
    "s2xs2_in_s5",
    "t4_in_s7",
    "cylinder_r_x_s3",
    "random_scene",
    "random_polynomial_metric",
    "random_upsilon",
    "catalog",
    "scene_by_name",
]


@dataclass
class Scene:
    name: str
    metric: MetricField
    patch: ImmersedPatch
    point: np.ndarray
    einstein_lambda: float | None = None

    @property
    def n(self) -> int:
        return self.patch.n


def affine_plane(k: int, n: int, point=None) -> Scene:
    """Totally geodesic affine k-plane in flat n-space."""
    patch = graph_patch(k, n, [lambda ys: 0.0 * ys[0]] * (n - k),
                        name=f"plane({k},{n})")
    pt = np.zeros(k) if point is None else np.asarray(point, dtype=float)
    return Scene(f"affine-plane-{k}-{n}", flat_metric(n), patch, pt,
                 einstein_lambda=0.0)


def equatorial_sphere(k: int, n: int, radius: float = 1.0,
                      point=None) -> Scene:
    """Equatorial S^k inside the round S^n, in a stereographic chart.

    The chart sends the equatorial subsphere spanned by the first k
    coordinate axes and the pole axis to the affine k-plane through the
    origin, so the immersion is the linear inclusion.
    """
    g = sphere_chart_metric(n, radius)
    patch = graph_patch(k, n, [lambda ys: 0.0 * ys[0]] * (n - k),
                        name=f"equatorial-s{k}-in-s{n}")
    pt = np.full(k, 0.1) if point is None else np.asarray(point, dtype=float)
    return Scene(f"equatorial-s{k}-in-s{n}(R={radius:g})", g, patch, pt,
                 einstein_lambda=1.0 / radius**2)


def _stereographic(comps, pole_comp, radius=1.0):
    """Chart image R xi' / (R + xi_last) of a unit-vector parameterization."""
    denom = (radius + pole_comp).reciprocal()
    return [radius * c * denom for c in comps]


def clifford_torus(point=(0.4, 0.9)) -> Scene:
    """Minimal Clifford torus in the unit S^3, stereographic chart."""
    g = sphere_chart_metric(3)
    s = 1.0 / np.sqrt(2.0)

    def fn(ys):
        th, ph = ys
        comps = [s * th.cos(), s * th.sin(), s * ph.cos()]
        return _stereographic(comps, s * ph.sin())

    patch = ImmersedPatch(2, 3, fn, name="clifford-torus")
    return Scene("clifford-torus", g, patch, np.asarray(point, dtype=float),
                 einstein_lambda=1.0)


def s2xs2_in_s5(point=(1.0, 0.5, 1.2, 0.8)) -> Scene:
    """Minimal S^2(1/sqrt2) x S^2(1/sqrt2) inside the unit S^5."""
    g = sphere_chart_metric(5)
    s = 1.0 / np.sqrt(2.0)

    def fn(ys):
        t1, p1, t2, p2 = ys
        comps = [
            s * t1.sin() * p1.cos(),
            s * t1.sin() * p1.sin(),
            s * t1.cos(),
            s * t2.sin() * p2.cos(),
            s * t2.sin() * p2.sin(),
        ]
        return _stereographic(comps, s * t2.cos())

    patch = ImmersedPatch(4, 5, fn, name="s2xs2-in-s5")
    return Scene("s2xs2-in-s5", g, patch, np.asarray(point, dtype=float),
                 einstein_lambda=1.0)


def t4_in_s7(point=(0.3, 0.8, 1.3, 1.9)) -> Scene:
    """Minimal Clifford-type T^4 (four circles of radius 1/2) in S^7."""
    g = sphere_chart_metric(7)

    def fn(ys):
        comps = []
        for th in ys:
            comps.extend([0.5 * th.cos(), 0.5 * th.sin()])
        return _stereographic(comps[:-1], comps[-1])

    patch = ImmersedPatch(4, 7, fn, name="t4-in-s7")
    return Scene("t4-in-s7", g, patch, np.asarray(point, dtype=float),
                 einstein_lambda=1.0)


def cylinder_r_x_s3(point=(0.2, 1.1, 0.9, 0.7)) -> Scene:
    """R x S^3 in flat R^5 (principal curvatures 0, 1, 1, 1)."""

    def fn(ys):
        t, a, b, c = ys
        return [
            t,
            a.cos(),
            a.sin() * b.cos(),
            a.sin() * b.sin() * c.cos(),
            a.sin() * b.sin() * c.sin(),
        ]

    patch = ImmersedPatch(4, 5, fn, name="cylinder-rxs3")
    return Scene("cylinder-rxs3", flat_metric(5), patch,
                 np.asarray(point, dtype=float))


# -- random generators ---------------------------------------------------


def random_polynomial_metric(n: int, seed: int,
                             amplitude: float = 0.05) -> MetricField:
    """g = delta + Q(x) with symmetric random polynomial perturbation.

    Coefficients are uniform in [-amplitude, amplitude] on the monomials of
    total degree 2 through 4, symmetrized over the component pair.
    """
    rng = np.random.default_rng(seed)
    mindex = _multi_indices(n, 4)
    coeffs = rng.uniform(-amplitude, amplitude, size=(n, n, len(mindex)))
    coeffs = 0.5 * (coeffs + coeffs.transpose(1, 0, 2))
    coeffs *= mindex.sum(axis=1) >= 2
    coeffs[:, :, 0] += np.eye(n)
    poly = Polynomial(n, 4, coeffs)
    return MetricField(n, poly, name=f"random-metric(n={n},seed={seed})")


def random_upsilon(n: int, seed: int, degree: int = 4) -> Polynomial:
    """Random polynomial conformal factor of total degree <= ``degree``,
    coefficients uniform in [-0.3, 0.3].

    A plain draw, equal per ``(n, seed, degree)``: the conformal engine
    shares a parameter pack per (scene object, factor value).
    """
    rng = np.random.default_rng(seed)
    M = len(_multi_indices(n, degree))
    return Polynomial(n, degree, rng.uniform(-0.3, 0.3, size=M))


def random_scene(k: int, n: int, seed: int) -> Scene:
    """Random polynomial metric with a random polynomial graph immersion.

    The metric perturbation has amplitude 0.05 and the graph heights carry
    linear through quartic terms of amplitude 0.1, so the tangent frame is
    generically tilted; the evaluation point is drawn near the chart
    origin where positive definiteness is guaranteed.
    """
    if not 1 <= k < n:
        raise GeometryError(f"random scene needs 1 <= k < n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    g = random_polynomial_metric(n, seed=int(rng.integers(2**31)))
    mindex = _multi_indices(k, 4)
    hc = rng.uniform(-0.1, 0.1, size=(n - k, len(mindex)))
    hc[:, mindex.sum(axis=1) == 0] = 0.0
    heights = Polynomial(k, 4, hc)

    def fn(ys):
        w = heights(ys)
        return list(ys[:k]) + [w[i] for i in range(n - k)]

    patch = ImmersedPatch(k, n, fn, name=f"random-graph({k},{n})")
    pt = rng.uniform(-0.05, 0.05, size=k)
    return Scene(f"random-{k}-{n}-seed{seed}", g, patch, pt)


# -- catalog -------------------------------------------------------------


def catalog() -> dict:
    """Named scene builders, served by :func:`scene_by_name` and the tests."""
    return {
        "affine-plane": affine_plane,
        "equatorial-sphere": equatorial_sphere,
        "equatorial-s2-in-s3": lambda **kw: equatorial_sphere(2, 3, **kw),
        "equatorial-s2-in-s5": lambda **kw: equatorial_sphere(2, 5, **kw),
        "equatorial-s4-in-s5": lambda **kw: equatorial_sphere(4, 5, **kw),
        "equatorial-s4-in-s7": lambda **kw: equatorial_sphere(4, 7, **kw),
        "clifford-torus": clifford_torus,
        "s2xs2-in-s5": s2xs2_in_s5,
        "t4-in-s7": t4_in_s7,
        "cylinder-rxs3": cylinder_r_x_s3,
        "random": random_scene,
        "flat": lambda **kw: affine_plane(kw.pop("k", 2), kw.pop("n", 5), **kw),
    }


def scene_by_name(name: str, **params) -> Scene:
    try:
        builder = catalog()[name]
    except KeyError:
        raise KeyError(
            f"unknown scene {name!r}; available: {sorted(catalog())}"
        )
    return builder(**params)
