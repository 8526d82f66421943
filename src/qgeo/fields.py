"""Evaluable metric fields and immersed submanifold charts.

A ``MetricField`` wraps a function of coordinate jets returning the metric
components; an ``ImmersedPatch`` wraps a chart map into the ambient
coordinates.  Both produce jets on demand at a point, which is all the
geometry layers consume.  The evaluation protocol passes the full list of
coordinate jets (with the optional trailing first-order linearization
parameter appended), and plain fields use only their own ``dim`` leading
entries.

A ``Polynomial`` is re-centred at the input values by a Taylor shift, so
on *coordinate variables* (the first ``nvars`` variables of a jet space,
as ``variables`` returns them) its jet is the shifted coefficient vector
itself, laid into the space without a single jet product.  Composite
inputs (e.g. an immersion's chart jets) go through a ``Composer``, like
every other jet that changes space.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .jets import (
    PACK_ORDER,
    Composer,
    JetSpace,
    Jets,
    _multi_indices,
    constant,
    jets_members,
    jets_stack,
    variables,
)

__all__ = [
    "GeometryError",
    "MetricField",
    "ImmersedPatch",
    "Polynomial",
    "flat_metric",
    "conformal_metric",
    "diagonal_exponential_metric",
    "sphere_chart_metric",
    "hyperbolic_half_space_metric",
    "conformally_rescaled",
    "graph_patch",
]


class GeometryError(ValueError):
    """A geometric precondition failed (degenerate metric or immersion)."""


@functools.lru_cache(maxsize=None)
def _shift_pairs(nvars: int, degree: int):
    """Index data of the Taylor shift of a polynomial of degree <= ``degree``.

    Over the pairs ``alpha >= beta`` (componentwise) of its monomials:
    the rows of ``alpha``, ``beta`` and ``alpha - beta``, and the binomial
    weight ``C(alpha, beta) = prod_i C(alpha_i, beta_i)``.
    """
    monomials = JetSpace(nvars, degree, False)  # a row lookup, never holds jets
    mindex = monomials.mindex
    above = np.ones((len(mindex),) * 2, dtype=bool)
    for i in range(nvars):
        above &= mindex[:, None, i] >= mindex[None, :, i]
    ia, ib = np.nonzero(above)
    idiff = monomials.positions(mindex[ia] - mindex[ib])
    comb = np.array([[math.comb(a, b) for b in range(degree + 1)]
                     for a in range(degree + 1)], dtype=float)
    return ia, ib, idiff, comb[mindex[ia], mindex[ib]].prod(axis=1)


@functools.lru_cache(maxsize=None)
def _coordinate_layout(nvars: int, degree: int, spc: JetSpace):
    """Where a polynomial in the first ``nvars`` variables of ``spc`` lands.

    Returns the rows of the monomials of degree <= ``degree`` that ``spc``
    stores (with zero exponents for its other variables, ``t`` included),
    their positions in ``spc``, and the displacement ``x_i - x_i(0)`` of
    each of the ``nvars`` coordinate variables: its unit monomial, or 0
    where ``spc`` stores none (order 0, or ``i`` beyond its variables).
    """
    def positions(m):  # zero exponents for the other variables of ``spc``
        wide = np.pad(m[:, : spc.nvars], ((0, 0), (0, max(0, spc.nvars - nvars))))
        return np.where(m[:, spc.nvars:].any(axis=1), -1, spc.positions(wide))

    pos = positions(_multi_indices(nvars, degree))
    keep = np.flatnonzero(pos >= 0)
    units = positions(np.eye(nvars, dtype=np.int64))[:, None] == np.arange(spc.size)
    return keep, pos[keep], units.astype(float)


class Polynomial:
    """Dense polynomial, evaluable on jets by a Taylor shift.

    ``coeffs[..., q]`` multiplies the graded-lex monomial ``mindex[q]``; the
    leading axes become the batch shape of the returned jets.  Evaluation
    re-centres the coefficients at the input values ``x0``; on coordinate
    variables (the jets ``variables`` returns, in a space that may hold
    more variables and the parameter ``t``) that is the whole jet.  Any
    other input is composed with that jet by a ``Composer``.

    A polynomial is a value, equal (and of equal hash) to one of the same
    ``nvars``, ``degree``, coefficient shape and bytes: the conformal engine
    keys its parameter pack by (scene object, factor value).  ``coeffs`` is
    a read-only view (never writable) of a private copy of the array passed.
    """

    def __init__(self, nvars: int, degree: int, coeffs):
        self.nvars = nvars
        self.degree = degree
        self.mindex = _multi_indices(nvars, degree)
        self._coeffs = np.array(coeffs, dtype=float)
        self._coeffs.flags.writeable = False
        if self._coeffs.shape[-1] != len(self.mindex):
            raise ValueError(
                f"need {len(self.mindex)} coefficients per component, "
                f"got {self._coeffs.shape[-1]}"
            )
        self._hash = hash(self._key())

    coeffs = property(lambda self: self._coeffs.view())

    def _key(self) -> tuple:
        return self.nvars, self.degree, self._coeffs.shape, self._coeffs.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._hash == other._hash and self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def _shifted(self, x0: np.ndarray) -> np.ndarray:
        """Coefficients of the same polynomial in the powers of ``x - x0``.

        The Taylor shift ``c'_beta = sum_{alpha >= beta} c_alpha
        C(alpha, beta) x0^(alpha - beta)``, one matmul.
        """
        ia, ib, idiff, binom = _shift_pairs(self.nvars, self.degree)
        powers = np.prod(x0 ** self.mindex, axis=1)
        table = np.zeros((len(self.mindex),) * 2)
        table[ia, ib] = binom * powers[idiff]
        return self._coeffs @ table

    def __call__(self, xs) -> Jets:
        """The polynomial of the jets ``xs[:nvars]``, in their space.

        Re-centred at the jets' values, the polynomial is a polynomial in
        their displacements.  On coordinate variables the displacements
        are the unit monomials, so the shifted coefficients are the jet;
        any other input (e.g. chart jets of an immersion) composes the jet
        on coordinate variables at the same values with the inputs.
        """
        x = jets_stack(xs[: self.nvars])
        if x.batch != (self.nvars,):
            raise ValueError(f"need {self.nvars} scalar jets, got batch {x.batch}")
        spc = x.space
        disp = x.coeffs.copy()
        disp[:, 0] = 0.0
        keep, pos, units = _coordinate_layout(self.nvars, self.degree, spc)
        if not np.array_equal(disp, units):
            return Composer(x)(self(variables(x.value, x.order)))
        shifted = self._shifted(x.value)
        out = np.zeros(shifted.shape[:-1] + (spc.size,))
        out[..., pos] = shifted[..., keep]
        return Jets(spc, out)


def _as_matrix_jets(rows, spc) -> Jets:
    if isinstance(rows, Jets):
        return rows
    flat = [entry for row in rows for entry in row]
    if not any(isinstance(e, Jets) for e in flat):
        return constant(np.asarray(rows, dtype=float), spc)
    return jets_stack(flat).reshape(len(rows), -1)


def _check_shape(name: str, what: str, got: tuple, expected: tuple) -> None:
    if got != expected:
        raise GeometryError(f"{name}: {what} of shape {got}, expected {expected}")


class MetricField:
    """Symmetric positive-definite metric as an evaluable field.

    ``fn(xs)`` receives the list of coordinate jets and returns the n×n
    component matrix (nested sequence of scalar jets/floats, or a batched
    ``Jets`` of shape (n, n)).
    """

    def __init__(self, dim: int, fn, name: str = "metric"):
        self.dim = dim
        self.fn = fn
        self.name = name

    def __call__(self, xs) -> Jets:
        G = _as_matrix_jets(self.fn(xs), xs[0].space)
        _check_shape(self.name, "components", G.batch, (self.dim,) * 2)
        return G

    def jets(self, point, order: int, param: bool = False) -> Jets:
        """Metric component jets at ``point``: the whole jet must be finite,
        symmetric in its two tensor axes to 1e-10 of ``max |G|``, and the
        value (of every member) positive definite."""
        _check_shape(self.name, "point", np.shape(point), (self.dim,))
        xs = variables(point, order, param=param)
        G = self(xs)
        c = G.coeffs
        if not np.isfinite(c).all():
            raise GeometryError(f"{self.name}: non-finite metric jet at {point}")
        if np.abs(c - c.swapaxes(-3, -2)).max() > 1e-10 * np.abs(c).max():
            raise GeometryError(f"{self.name}: components not symmetric at {point}")
        try:
            np.linalg.cholesky(G.value)
        except np.linalg.LinAlgError:
            raise GeometryError(
                f"{self.name}: metric not positive definite at {point}"
            )
        return G


class ImmersedPatch:
    """Chart map y -> x(y) of a k-submanifold of an n-chart.

    ``fn(ys)`` receives the k submanifold coordinate jets and returns the n
    ambient coordinates (sequence of scalar jets/floats).
    """

    def __init__(self, k: int, n: int, fn, name: str = "patch"):
        self.k = k
        self.n = n
        self.fn = fn
        self.name = name
        self._charts = {}

    def chart(self, point, param: bool = False) -> tuple[Jets, Composer]:
        """Chart jets at ``point`` to ``PACK_ORDER + 1`` and their ``Composer``,
        shared by every pack at the point (the chart map has no metric).
        The last chart per ``param`` value is kept, so a patch holds at most
        two."""
        _check_shape(self.name, "point", np.shape(point), (self.k,))
        key = np.asarray(point, dtype=float).tobytes()
        if self._charts.get(param, (None,))[0] != key:
            X = self.jets(point, PACK_ORDER + 1, param=param)
            self._charts[param] = (key, X, Composer(X))
        return self._charts[param][1:]

    def jets(self, point, order: int, param: bool = False) -> Jets:
        """Ambient coordinate jets along the patch, shape (n,) or (n+1,).

        With ``param=True`` the linearization parameter rides along as one
        extra ambient coordinate equal to the parameter itself, so composed
        ambient jets keep their parameter dependence.
        """
        _check_shape(self.name, "point", np.shape(point), (self.k,))
        ys = variables(point, order, param=param)
        comps = list(self.fn(ys[: self.k]))
        if len(comps) != self.n:
            raise GeometryError(
                f"{self.name}: map returned {len(comps)} components, expected {self.n}"
            )
        if param:
            comps.append(ys[-1])
        X = jets_stack(comps)
        if not np.isfinite(X.coeffs).all():
            raise GeometryError(f"{self.name}: non-finite chart jet at {point}")
        if X.order >= 1:
            # first partials: the coefficients of the unit monomials
            units = np.eye(self.k + param, dtype=np.int64)[: self.k]
            diff = X.coeffs[:, X.space.positions(units)]
            if np.linalg.matrix_rank(diff, rtol=1e-10) < self.k:
                raise GeometryError(
                    f"{self.name}: differential rank-deficient at {point}"
                )
        return X


# -- constructors --------------------------------------------------------


def flat_metric(n: int) -> MetricField:
    return MetricField(n, lambda xs: np.eye(n), name="flat")


def conformal_metric(n: int, log_factor, name: str = "conformal") -> MetricField:
    """Metric e^{2f} g0 with f = ``log_factor(xs)`` and g0 flat."""

    def fn(xs):
        return (2.0 * log_factor(xs[:n])).exp() * np.eye(n)

    return MetricField(n, fn, name=name)


def diagonal_exponential_metric(n: int, factors, name: str = "diag-exp") -> MetricField:
    """Diagonal metric with components e^{2 f_a(x)} (no cross terms).

    ``factors`` is a sequence of n scalar functions of the coordinate jets.
    """

    def fn(xs):
        diag = [(2.0 * factors[a](xs[:n])).exp() for a in range(n)]
        return [[diag[a] if a == b else 0.0 for b in range(n)] for a in range(n)]

    return MetricField(n, fn, name=name)


def sphere_chart_metric(n: int, radius: float = 1.0) -> MetricField:
    """Round n-sphere of the given radius in a stereographic chart.

    Components 4 R^4 (R^2 + |x|^2)^{-2} delta_{ab}; the chart covers the
    sphere minus a point, with the origin mapping to a pole.  The radius
    must be a positive finite number.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise GeometryError(
            f"sphere-chart radius must be positive and finite, got {radius!r}")
    r2 = radius * radius

    def log_factor(xs):
        s = sum(x * x for x in xs)
        return float(np.log(2.0 * r2)) - (r2 + s).log()

    return conformal_metric(n, log_factor, name=f"sphere-chart(R={radius:g})")


def hyperbolic_half_space_metric(n: int) -> MetricField:
    """Upper half space x^n > 0 with components (x^n)^{-2} delta_{ab}."""
    name = "hyperbolic-half-space"

    def log_factor(xs):
        if not float(xs[n - 1].value) > 0.0:
            raise GeometryError(f"{name}: point {[float(x.value) for x in xs]}"
                                f" is off the half space x^n > 0 (n = {n})")
        return -(xs[n - 1].log())

    return conformal_metric(n, log_factor, name=name)


def _factor_jets(upsilon, xs) -> Jets:
    """A factor on the jets ``xs``; a tuple of factors, one member each."""
    return (jets_members([u(xs) for u in upsilon])
            if isinstance(upsilon, tuple) else upsilon(xs))


def _rescale_factor(u, t, w: float, xs) -> Jets:
    """``exp(w t u)``, one member per entry of a tuple ``t``; ``t=None`` is
    the parameter ``xs[-1]``, where ``t^2 = 0`` makes it exactly ``1 + w t u``."""
    if isinstance(t, tuple):
        return jets_members([_rescale_factor(u, s, w, xs) for s in t])
    return 1.0 + w * (xs[-1] * u) if t is None else (w * (t * u)).exp()


def conformally_rescaled(g: MetricField, upsilon,
                         t: float | tuple | None = None) -> MetricField:
    """The rescaled metric e^{2 t Upsilon} g.

    ``t`` a float gives a finite rescale.  ``t=None`` (or a ``None`` member)
    multiplies by the trailing first-order linearization parameter instead,
    so the returned field must be evaluated with ``param=True``; first-order
    coefficients in the parameter are then exact conformal variations.
    There ``t^2 = 0``, so the factor is exactly ``1 + 2 t Upsilon``.

    A tuple of factors, or of ``t``, gives jets with one member per factor
    (per ``t``), each the single rescale to the bit; a tuple of each raises.
    """
    if isinstance(upsilon, tuple) and isinstance(t, tuple):
        raise ValueError("members are factors or values of t, not both")

    def fn(xs):
        base = g(xs)
        if None in (t if isinstance(t, tuple) else (t,)) and len(xs) != g.dim + 1:
            raise GeometryError("nilpotent rescale needs the linearization "
                                "parameter (evaluate with param=True)")
        return _rescale_factor(_factor_jets(upsilon, xs[: g.dim]), t, 2.0, xs) * base

    return MetricField(g.dim, fn, name=f"rescaled({g.name})")


def graph_patch(k: int, n: int, heights, name: str = "graph") -> ImmersedPatch:
    """Graph immersion y -> (y, w_1(y), ..., w_{n-k}(y))."""

    def fn(ys):
        return list(ys[:k]) + [w(ys[:k]) for w in heights]

    return ImmersedPatch(k, n, fn, name=name)
