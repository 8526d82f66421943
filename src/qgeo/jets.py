"""Truncated multivariate Taylor arithmetic ("jets").

A jet stores the value and all partial derivatives of a smooth function up
to a fixed total order, at one point.  Arithmetic on jets (+, *, /, exp,
sqrt, ...) is exact on polynomial inputs up to the truncation order, so any
derived quantity computed through jet arithmetic carries *exact* derivatives
(to round-off), with no finite-difference noise.

Storage is dense over the multi-indices of total degree ``<= order``,
ordered by degree then lexicographically, so truncating to a lower order
is a prefix slice.  A *parameter space* appends one formal variable ``t``
with ``t^2 = 0`` (a nilpotent variable), which is how conformal
linearization is realized.  ``t`` has degree 0 in this grading: the order
bounds the spatial degree only, so the ``t^1`` coefficient carries as many
spatial derivatives as the ``t^0`` one, and differentiating along ``t``
keeps the order.

The jet orders are constants, ``ORDER_MAX`` for every space and
``PACK_ORDER`` for submanifold packs.  Jets reach another space only
through ``Composer``, which re-expands them along coordinate jets.

The ``Jets`` class is batched: ``coeffs`` has shape ``batch + (ncoeffs,)``,
and a whole tensor of jets (e.g. all metric components) is a single
``Jets`` with ``batch == (n, n)``.  ``jet_einsum`` contracts such batches
with einsum-style subscripts.  Each product is one gather-combine-scatter
pass, ``_product``, whose scatter is one call of scipy's compiled CSR kernel
``csr_matvecs``: the ``@`` dispatch would cost more than the arithmetic on
most products.  Only its extension file ``scipy/sparse/_sparsetools`` is
loaded, as ``qgeo._sparsetools``: ``import scipy.sparse`` would run the
whole package, half of a cold start.  It is private scipy API, so
``tests/test_jets.py`` pins the product against the ``@`` form.  Most
products are small, so the bookkeeping is cached (``_recipe``) or skipped
(``_common`` tests first for operands that need no alignment).

A jet may carry a leading *member* axis, ``members`` long: several jets
of one space evaluated as one batch, e.g. a metric under several
conformal factors.  Such jets are of the subclass ``_Members`` (built by
``jets_members``), whose ``batch``, indexing and ``reshape`` skip the
axis, as ``jets_stack`` does; ``+``, ``-`` and ``jet_mul`` broadcast a
member-less operand over the members; products and ``jet_trace`` add the
implicit subscript letter ``_MEMBER``.  Each member gets the bits of the
member-less computation, and a member-less jet runs the plain class.
``_MEMBER_CHUNK`` bounds a one-pass member product; it is read per call.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np


def _load_csr_matvecs():
    """scipy's ``csr_matvecs``, from its extension file with no scipy import."""
    scipy = importlib.util.find_spec("scipy")
    where = [str(Path(scipy.origin).with_name("sparse"))] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec("qgeo._sparsetools", where)
    if spec is None:
        raise ImportError("scipy's _sparsetools extension not found (looked in "
                          f"{where or 'sys.path for a scipy package'})")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.csr_matvecs


csr_matvecs = _load_csr_matvecs()

__all__ = [
    "BudgetError",
    "JetSpace",
    "Jets",
    "ORDER_MAX",
    "PACK_ORDER",
    "space",
    "variables",
    "constant",
    "jets_stack",
    "jets_members",
    "jet_of",
    "jet_mul",
    "jet_einsum",
    "jet_trace",
]

#: the jet budget: the largest spatial order of a space (``t`` has degree 0)
ORDER_MAX = 5
#: the ambient metric jet order of a submanifold pack (its chart map's is 5)
PACK_ORDER = 4


class BudgetError(RuntimeError):
    """Raised when a computation would exceed the jet-order budget."""


@functools.lru_cache(maxsize=None)
def _multi_indices(nvars: int, order: int, param: bool = False) -> np.ndarray:
    """All multi-indices of degree <= order (``t`` of degree 0 and <= 1).

    With ``param`` the last of the ``nvars`` variables is the parameter.
    Ordered by degree, then lexicographically, so the set for a lower
    order is a prefix of the set for a higher order.  Built in lexicographic
    order one variable at a time, then stably sorted by degree.  Cached, so read-only.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    for var in range(nvars):
        powers = np.arange((order if var < nvars - param else 1) + 1)
        rows = np.column_stack([np.repeat(rows, len(powers), axis=0),
                                np.tile(powers, len(rows))])
        rows = rows[rows[:, : nvars - param].sum(axis=1) <= order]
    out = rows[np.argsort(rows[:, : nvars - param].sum(axis=1), kind="stable")]
    out.flags.writeable = False
    return out


class JetSpace:
    """Coefficient layout plus cached multiplication/derivative tables.

    ``degree`` is the degree of each stored monomial in the grading above
    (spatial degree), ``top_degree`` the largest total degree of one, so a
    jet without constant term vanishes at power ``top_degree + 1``.
    """

    def __init__(self, nvars: int, order: int, param: bool):
        self.nvars = nvars
        self.order = order
        self.param = param
        self.top_degree = order + param
        self.mindex = _multi_indices(nvars, order, param)
        self.size = len(self.mindex)
        self.degree = self.mindex[:, : nvars - param].sum(axis=1)
        # factorial weights: partial derivative = alpha! * Taylor coefficient
        fact = [math.factorial(e) for e in range(self.top_degree + 1)]
        self.factorials = np.array(fact, dtype=float)[self.mindex].prod(axis=1)
        # mixed-radix keys of the stored monomials and their order, for ``positions``
        self._radix = np.cumprod((1,) + tuple(c + 1 for c in self.caps))[:-1]
        self._keys = self.mindex @ self._radix
        self._by_key = np.argsort(self._keys)
        self._mul = None
        self._derivs = {}

    def __repr__(self):
        return f"space({self.nvars}, {self.order}, param={self.param})"

    @property
    def caps(self) -> tuple[int, ...]:
        """The largest exponent of each variable (1 for the parameter)."""
        return (self.order,) * (self.nvars - self.param) + (1,) * self.param

    def positions(self, alphas) -> np.ndarray:
        """Positions of the multi-indices on the last axis of ``alphas``, -1
        where none is stored: mixed-radix keys (radix ``caps + 1``) found by
        one ``searchsorted`` over those of ``mindex``."""
        alphas = np.asarray(alphas, dtype=np.int64)
        if alphas.shape[-1:] != (self.nvars,):
            raise ValueError(f"multi-indices of shape {alphas.shape} in {self!r}: "
                             f"need {self.nvars} entries each")
        stored = ((alphas >= 0) & (alphas <= self.caps)).all(axis=-1) & (
            alphas[..., : self.nvars - self.param].sum(axis=-1) <= self.order)
        found = np.searchsorted(self._keys, np.where(stored, alphas @ self._radix, 0),
                                sorter=self._by_key)
        return np.where(stored, self._by_key[found], -1)

    def position(self, alpha) -> int:
        """Position of the monomial ``alpha``: ``ValueError`` for a wrong length
        or a negative entry, ``BudgetError`` beyond the order or at ``t^2``."""
        alpha = tuple(int(a) for a in alpha)
        valid = len(alpha) == self.nvars and min(alpha, default=0) >= 0
        pos = int(self.positions(alpha)) if valid else -1
        if pos < 0:
            raise (BudgetError if valid else ValueError)(
                f"multi-index {alpha} is not in {self!r}, whose exponents run "
                f"from 0 to {self.caps} with spatial degree <= {self.order}")
        return pos

    def mul_tables(self):
        """(i_idx, j_idx, scatter), ``scatter`` the CSR arrays (``shape``,
        ``nnz``, ``indptr``, ``indices``, ``data``) of the (size, npairs) 0/1
        matrix taking each pair to its output row, each row's pairs ascending.

        ``c = scatter @ (a[i_idx] * b[j_idx])`` is the truncated product of
        coefficient vectors ``a`` and ``b``.
        """
        if self._mul is None:
            m, deg = self.mindex, self.degree
            ok = deg[:, None] + deg[None, :] <= self.order
            if self.param:
                ok &= m[:, None, -1] + m[None, :, -1] <= 1
            ii, jj = np.nonzero(ok)
            kk = self.positions(m[ii] + m[jj])
            by_row = np.argsort(kk, kind="stable")
            indptr = np.searchsorted(kk[by_row], np.arange(self.size + 1))
            scatter = SimpleNamespace(
                shape=(self.size, len(kk)), nnz=len(kk), data=np.ones(len(kk)),
                indptr=indptr.astype(np.int32), indices=by_row.astype(np.int32))
            self._mul = (ii, jj, scatter)
        return self._mul

    def deriv_tables(self, var: int):
        """(target, src, scale): coefficient gather realizing d/dx_var.

        The target space has order one less, except along the parameter,
        whose derivative keeps the order.
        """
        if var not in self._derivs:
            if not 0 <= var < self.nvars:
                raise ValueError(f"need 0 <= var < nvars = {self.nvars}, got {var}")
            if self.param and var == self.nvars - 1:
                target = self
            else:
                target = space(self.nvars, self.order - 1, self.param)
            src = self.positions(target.mindex + np.eye(self.nvars, dtype=np.int64)[var])
            scale = np.where(src >= 0, target.mindex[:, var] + 1.0, 0.0)
            self._derivs[var] = (target, np.maximum(src, 0), scale)
        return self._derivs[var]


@functools.lru_cache(maxsize=None)
def _space_cached(nvars: int, order: int, param: bool) -> JetSpace:
    return JetSpace(nvars, order, param)


def space(nvars: int, order: int, param: bool = False) -> JetSpace:
    """Get (cached) the jet space for ``nvars`` variables at ``order``.

    With ``param`` the last variable is the first-order parameter ``t``.
    Every space, truncations included, comes from here; an order below 0
    or above ``ORDER_MAX`` raises ``BudgetError``.
    """
    if order < 0:
        raise BudgetError("jet budget exhausted (a derivative was requested "
                          "beyond the available Taylor order)")
    if order > ORDER_MAX:
        raise BudgetError(f"jet order {order} exceeds ORDER_MAX={ORDER_MAX}")
    return _space_cached(nvars, order, bool(param))


class Jets:
    """A batch of truncated Taylor expansions sharing one ``JetSpace``.

    ``coeffs[..., i]`` is the Taylor coefficient of monomial
    ``space.mindex[i]`` (so the partial derivative is ``alpha! * coeff``).
    Instances are treated as immutable.
    """

    __slots__ = ("space", "coeffs")
    # let ndarray.__mul__ defer to Jets.__rmul__
    __array_priority__ = 100
    #: the length of the member axis: none here, see :class:`_Members`
    members = 0

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- construction -------------------------------------------------

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def batch(self) -> tuple:
        return self.coeffs.shape[:-1]

    @property
    def value(self) -> np.ndarray:
        """Constant term (the plain value at the basepoint)."""
        return self.coeffs[..., 0]

    def coeff(self, alpha) -> np.ndarray:
        """Raw Taylor coefficient of the monomial ``alpha``."""
        return self.coeffs[..., self.space.position(alpha)]

    def partial(self, alpha) -> np.ndarray:
        """Partial derivative for multi-index ``alpha`` (``alpha! * coeff``)."""
        pos = self.space.position(alpha)
        return self.coeffs[..., pos] * self.space.factorials[pos]

    def truncate(self, order: int) -> "Jets":
        """The jet to a lower order (a prefix slice; never raises the order)."""
        if order >= self.space.order:
            return self
        sub = space(self.space.nvars, order, self.space.param)
        return type(self)(sub, self.coeffs[..., : sub.size])

    def deriv(self, var: int) -> "Jets":
        """Partial derivative along variable ``var``.

        The order drops by one, except along the parameter of a parameter
        space.  A spatial derivative of an order-0 jet raises
        ``BudgetError``; a ``var`` outside ``[0, nvars)`` raises ``ValueError``.
        """
        target, src, scale = self.space.deriv_tables(var)
        return type(self)(target, self.coeffs[..., src] * scale)

    def gradient(self) -> "Jets":
        """Every spatial ``deriv(a)``, stacked on a new leading batch axis
        ``a`` (after the member axis)."""
        return jets_stack([self.deriv(a)
                           for a in range(self.space.nvars - self.space.param)])

    def __getitem__(self, key) -> "Jets":
        if not isinstance(key, tuple):
            key = (key,)
        return Jets(self.space, self.coeffs[key + (slice(None),)])

    def reshape(self, *shape) -> "Jets":
        return Jets(self.space, self.coeffs.reshape(*shape, self.space.size))

    # -- arithmetic ---------------------------------------------------

    def _align(self, other):
        if not isinstance(other, Jets):
            other = constant(other, self.space)
        return _common(self, other, pad=True)

    def __add__(self, other):
        a, b = self._align(other)
        return type(a)(a.space, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.space, -self.coeffs)

    def __sub__(self, other):
        a, b = self._align(other)
        return type(a)(a.space, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, float):
            return type(self)(self.space, self.coeffs * other)
        if isinstance(other, Jets):
            return jet_mul(self, other)
        arr = np.asarray(other, dtype=float)
        return type(self)(self.space, self.coeffs * arr[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jets):
            return jet_mul(self, other.reciprocal())
        arr = np.asarray(other, dtype=float)
        if not (np.abs(arr) > 0).all():
            raise ZeroDivisionError("division of jets by zero or NaN")
        return self * (1.0 / arr)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet powers must be integers; use exp/log for the rest")
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:  # ones of the base's batch and members
            return constant(np.ones(self.coeffs.shape[:-1]), self.space,
                            members=bool(self.members))
        out = constant(1.0, self.space)
        base = self
        n = int(n)
        while n:
            if n & 1:
                out = jet_mul(out, base)
            base = jet_mul(base, base) if n > 1 else base
            n >>= 1
        return out

    # -- analytic functions via series composition --------------------

    def _series(self, derivs) -> "Jets":
        """Apply a scalar function given its derivatives at the jet values.

        ``derivs[m]`` must hold the m-th derivative of the function,
        evaluated at ``self.value`` (shape = batch), for m = 0..top with
        ``top = space.top_degree``: on a parameter space ``t x^order``
        first appears in ``nil^(order + 1)``.
        """
        nil_coeffs = self.coeffs.copy()
        nil_coeffs[..., 0] = 0.0
        nil = type(self)(self.space, nil_coeffs)
        out = np.zeros_like(self.coeffs)
        out[..., 0] = derivs[0]
        acc = type(self)(self.space, out)
        term = None
        for m in range(1, self.space.top_degree + 1):
            term = nil if term is None else jet_mul(term, nil)
            acc = acc + term * (np.asarray(derivs[m]) / math.factorial(m))
        return acc

    def exp(self) -> "Jets":
        e = np.exp(self.value)
        return self._series([e] * (self.space.top_degree + 1))

    def log(self) -> "Jets":
        v = self.value
        if not np.all(v > 0):
            raise FloatingPointError("log of non-positive or NaN jet value")
        derivs = [np.log(v)]
        for m in range(1, self.space.top_degree + 1):
            derivs.append(((-1.0) ** (m - 1)) * math.factorial(m - 1) / v**m)
        return self._series(derivs)

    def sqrt(self) -> "Jets":
        v = self.value
        if not np.all(v > 0):
            raise FloatingPointError("sqrt of non-positive or NaN jet value")
        derivs = [np.sqrt(v)]
        coef = 0.5
        for m in range(1, self.space.top_degree + 1):
            derivs.append(coef * v ** (0.5 - m))
            coef *= 0.5 - m
        return self._series(derivs)

    def reciprocal(self) -> "Jets":
        v = self.value
        if not np.all(np.abs(v) > 0):
            raise ZeroDivisionError("reciprocal of zero or NaN jet value")
        derivs = [1.0 / v]
        for m in range(1, self.space.top_degree + 1):
            derivs.append(((-1.0) ** m) * math.factorial(m) / v ** (m + 1))
        return self._series(derivs)

    def sin(self) -> "Jets":
        v = self.value
        table = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
        return self._series([table[m % 4] for m in range(self.space.top_degree + 1)])

    def cos(self) -> "Jets":
        v = self.value
        table = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
        return self._series([table[m % 4] for m in range(self.space.top_degree + 1)])

    def __repr__(self):
        members = f", members={self.members}" if self.members else ""
        return (f"Jets(nvars={self.space.nvars}, order={self.order}, "
                f"batch={self.batch}{members})")


class _Members(Jets):
    """Jets whose ``coeffs`` lead with a member axis that ``batch``, indexing
    and ``reshape`` leave out (module docstring)."""

    __slots__ = ()

    @property
    def members(self) -> int:
        return len(self.coeffs)

    @property
    def batch(self) -> tuple:
        return self.coeffs.shape[1:-1]

    def __getitem__(self, key) -> "Jets":
        key = key if isinstance(key, tuple) else (key,)
        return _Members(self.space, self.coeffs[(slice(None),) + key + (slice(None),)])

    def reshape(self, *shape) -> "Jets":
        return _Members(self.space, self.coeffs.reshape(
            len(self.coeffs), *shape, self.space.size))


# -- free functions ----------------------------------------------------


def constant(value, spc: JetSpace, members: bool = False) -> Jets:
    """Constant jets; with ``members`` the leading axis of ``value`` is a
    member axis."""
    arr = np.asarray(value, dtype=float)
    out = np.zeros(arr.shape + (spc.size,))
    out[..., 0] = arr
    return (_Members if members else Jets)(spc, out)


def variables(point, order: int, param: bool = False):
    """Coordinate jets at ``point``.

    Returns a list of scalar jets, one per coordinate.  With ``param=True``
    one extra first-order nilpotent variable is appended to the space (and
    returned last) — the formal parameter used for conformal linearization.
    It has degree 0, so even an order-0 parameter space holds it.
    """
    point = np.asarray(point, dtype=float)
    spc = space(len(point) + param, order, param)
    coeffs = (spc.positions(np.eye(spc.nvars, dtype=np.int64))[:, None]
              == np.arange(spc.size)).astype(float)
    coeffs[: len(point), 0] = point
    return [Jets(spc, c) for c in coeffs]


def jets_stack(items) -> Jets:
    """Stack jets (at their lowest order) and constants into one ``Jets``;
    jets of different spaces raise ``ValueError``.  Each item meets the
    first member jet (else the first jet) through ``_common``, so items of
    one space and one class are stacked as they are, a member jet's after
    its member axis."""
    items = list(items)
    jets = [it for it in items if isinstance(it, Jets)]
    if not jets:
        raise ValueError("jets_stack needs at least one Jets entry")
    order = min([it.space.order for it in jets])
    lead = ([it for it in jets if it.members] or jets)[0].truncate(order)
    coeffs = [_common(it if isinstance(it, Jets) else constant(it, lead.space),
                      lead)[0].coeffs for it in items]
    return type(lead)(lead.space, np.stack(coeffs, axis=int(bool(lead.members))))


def jets_members(items) -> Jets:
    """Member-less jets (at their lowest order) stacked on a new member axis."""
    stacked = jets_stack(items)
    if stacked.members:
        raise ValueError("jets_members stacks jets that have no member axis")
    return _Members(stacked.space, stacked.coeffs)


def jet_of(fn, point, order: int) -> Jets:
    """Jet of a scalar-valued function of coordinates at ``point``.

    This is the basic entry: the returned jet's degree-m Taylor data equal
    the m-th partials of ``fn`` at ``point`` (exactly, for polynomials of
    degree <= order).
    """
    xs = variables(point, order)
    out = fn(xs)
    if not isinstance(out, Jets):
        out = constant(out, xs[0].space)
    return out


#: float64 budget of the gathered pairs of a product over all its members
_MEMBER_CHUNK = 1 << 16
#: the implicit subscript letter of the member axis (``src`` uses lowercase)
_MEMBER = "M"


def _common(a: Jets, b: Jets, pad: bool = False) -> tuple[Jets, Jets]:
    """``a`` and ``b`` at their common order.  If either has a member axis
    both get it, a member-less one broadcast over the members (member
    counts that differ raise ``ValueError``), and ``pad`` left-pads the
    batches with unit axes to one rank.  Tested first, operands of one
    space, one member count and (when padding) one rank return untouched:
    only operands that differ are truncated, checked and broadcast."""
    if a.space is b.space and a.members == b.members and (
            not pad or a.coeffs.ndim == b.coeffs.ndim):
        return a, b
    a, b = a.truncate(b.space.order), b.truncate(a.space.order)
    if a.space is not b.space:
        raise ValueError("jets from incompatible spaces")
    if a.members and b.members and a.members != b.members:
        raise ValueError(f"jets with {a.members} and {b.members} members")
    if not (a.members or b.members) or (a.members and b.members and (
            not pad or a.coeffs.ndim == b.coeffs.ndim)):
        return a, b
    m, rank = a.members or b.members, max(len(a.batch), len(b.batch)) * pad
    out = []
    for j in (a, b):
        c = j.coeffs if j.members else np.broadcast_to(j.coeffs, (m,) + j.coeffs.shape)
        ones = (1,) * (rank - len(j.batch))
        out.append(_Members(j.space, c.reshape(c.shape[:1] + ones + c.shape[1:])))
    return out[0], out[1]


_Recipe = namedtuple("_Recipe", "axes_a axes_b op in_place shape_x shape_y ii jj "
                                "out_shape perm csr gathered")


@functools.lru_cache(maxsize=1024)
def _recipe(spc: JetSpace, sa: str, sb: str, rhs: str, shape_a: tuple,
            shape_b: tuple) -> _Recipe:
    """Every per-call constant of the product ``sa,sb->rhs`` on ``spc`` of
    operands with batches ``shape_a`` and ``shape_b``.

    Letters split into shared (both operands and the output), left and
    right free (one operand and the output) and contracted (both operands
    only).  With neither contracted nor right-free letters the elementwise
    product has the left gather's shape and may overwrite it.  ``csr``
    holds the leading arguments of the ``csr_matvecs`` call, ``gathered``
    the float64s of the largest of the two gathers and the combined pairs.
    """
    if not (all(len(set(s)) == len(s) for s in (sa, sb, rhs))
            and set(sa) ^ set(sb) <= set(rhs) <= set(sa) | set(sb)):
        raise ValueError(f"jet_einsum {sa},{sb}->{rhs}: each letter must appear at "
                         "most once per term and in at least two of the three terms")
    shared = "".join(c for c in rhs if c in sa and c in sb)
    left = "".join(c for c in rhs if c not in sb)
    right = "".join(c for c in rhs if c not in sa)
    summed = "".join(c for c in sa if c in sb and c not in rhs)
    dims = dict(zip(sa, shape_a))
    dims.update(zip(sb, shape_b))
    S, L, R, C = (math.prod(dims[c] for c in g) for g in (shared, left, right, summed))
    out = shared + left + right
    ii, jj, scatter = spc.mul_tables()
    return _Recipe(
        (len(sa),) + tuple(sa.index(c) for c in shared + left + summed),
        (len(sb),) + tuple(sb.index(c) for c in shared + summed + right),
        np.matmul if summed else np.multiply, not summed and R == 1,
        (-1, S, L, C), (-1, S, C, R), ii, jj, (spc.size,) + tuple(dims[c] for c in out),
        tuple(1 + out.index(c) for c in rhs) + (0,),
        (spc.size, len(ii), S * L * R, scatter.indptr, scatter.indices, scatter.data),
        len(ii) * max(S * L * C, S * C * R, S * L * R))


def _product(spc: JetSpace, sa: str, sb: str, rhs: str, a: np.ndarray,
             b: np.ndarray) -> Jets:
    """Gather-combine-scatter kernel behind ``jet_mul`` and ``jet_einsum``.

    ``a`` and ``b`` (coefficients last, batch axes labelled ``sa`` and
    ``sb``) go coefficient axis first, laid out ``(coeff, shared, left,
    contracted)`` and ``(coeff, shared, contracted, right)``.  Rows ``i`` and
    ``j`` of every coefficient pair ``(i, j)`` are gathered and combined by a
    batched matmul (an elementwise product when nothing is contracted,
    written into the fresh gather of ``a`` when nothing is right-free
    either).  scipy's compiled ``csr_matvecs`` (``y += S x``, where ``S @ x``
    ends; loaded from its extension file alone, see the module docstring)
    sums each output coefficient's pairs, in ascending order, into one
    zero-filled output.  Every layout, shape and table comes from one
    cached ``_recipe`` keyed by ``(spc, sa, sb, rhs, batch of a, batch of
    b)``; only the dtype is read per call, the operands' promoted one, so
    long-double jets multiply in long double.
    """
    (axes_a, axes_b, op, in_place, shape_x, shape_y, ii, jj, out_shape, perm, csr,
     _) = _recipe(spc, sa, sb, rhs, a.shape[:-1], b.shape[:-1])
    out = np.zeros(out_shape, np.promote_types(a.dtype, b.dtype))
    x = a.transpose(axes_a).take(ii, axis=0).reshape(shape_x)
    y = b.transpose(axes_b).take(jj, axis=0).reshape(shape_y)
    xy = op(x, y, out=x) if in_place and x.dtype == out.dtype else op(x, y)
    csr_matvecs(*csr, xy, out)
    return Jets(spc, out.transpose(perm))


def _member_product(spc: JetSpace, sa: str, sb: str, rhs: str, a: Jets,
                    b: Jets) -> Jets:
    """``_product`` over one member axis, letter ``_MEMBER`` in all terms: one
    pass while the recipe's gathered float64s fit ``_MEMBER_CHUNK``, read at
    call time, else one member at a time, so a large product's transient
    memory is one member's."""
    m, x, y = a.members, a.coeffs, b.coeffs
    terms = (_MEMBER + sa, _MEMBER + sb, _MEMBER + rhs)
    if _recipe(spc, *terms, x.shape[:-1], y.shape[:-1]).gathered <= _MEMBER_CHUNK:
        return _Members(spc, _product(spc, *terms, x, y).coeffs)
    return _Members(spc, np.stack([_product(spc, sa, sb, rhs, x[i], y[i]).coeffs
                                   for i in range(m)]))


def jet_mul(a: Jets, b: Jets) -> Jets:
    """Elementwise (broadcasting) truncated product of two jet batches."""
    a, b = _common(a, b, pad=True)
    if a.coeffs.shape != b.coeffs.shape:
        shape = np.broadcast_shapes(a.coeffs.shape, b.coeffs.shape)
        a, b = (type(j)(j.space, np.broadcast_to(j.coeffs, shape)) for j in (a, b))
    s = "abcdefghijklmnopqrstuvwxyz"[: len(a.batch)]
    if a.members:
        return _member_product(a.space, s, s, s, a, b)
    return _product(a.space, s, s, s, a.coeffs, b.coeffs)


@functools.lru_cache(maxsize=None)
def _terms(subscripts: str, lead: str = "") -> tuple[str, ...]:
    """The operand terms of einsum ``subscripts``, then the output's, each
    prefixed with ``lead``."""
    lhs, _, rhs = subscripts.partition("->")
    return tuple(lead + s for s in (*lhs.split(","), rhs))


def jet_trace(a: Jets, subscripts: str) -> Jets:
    """Trace/reorder batch axes with einsum syntax (no products)."""
    lhs, rhs = _terms(subscripts, _MEMBER if a.members else "")
    return type(a)(a.space, np.einsum(f"{lhs}...->{rhs}...", a.coeffs))


def jet_einsum(subscripts: str, a: Jets, b: Jets) -> Jets:
    """Two-operand einsum where each element is a truncated jet product.

    ``jet_einsum('aec,ecb->ab', A, B)`` contracts like ``np.einsum`` but with
    jet multiplication at each element.  Each letter appears at most once
    per term, and in at least two of the three terms.
    """
    sa, sb, rhs = _terms(subscripts)
    a, b = _common(a, b)
    if a.members:
        return _member_product(a.space, sa, sb, rhs, a, b)
    return _product(a.space, sa, sb, rhs, a.coeffs, b.coeffs)


def monomial_table(x: Jets, msrc: JetSpace) -> np.ndarray:
    """Jet coefficients of every monomial ``x^alpha`` of the space ``msrc``.

    ``x`` is a batch of scalar jets, shape ``(msrc.nvars,)``; the table has
    shape (msrc.size, x.space.size) and is built one degree at a time with
    a batched recurrence ``x^alpha = x^(alpha - e_j) * x_j``, ``j`` the
    first variable of ``alpha``.
    """
    mindex = msrc.mindex
    table = np.zeros((msrc.size, x.space.size))
    table[0, 0] = 1.0
    deg = mindex.sum(axis=1)
    first = np.argmax(mindex > 0, axis=1)
    prev = msrc.positions(mindex - np.eye(msrc.nvars, dtype=np.int64)[first])
    for d in range(1, int(deg.max(initial=0)) + 1):
        rows = np.nonzero(deg == d)[0]
        table[rows] = jet_mul(Jets(x.space, table[prev[rows]]), x[first[rows]]).coeffs
    return table


class Composer:
    """Re-expands x-space jets in y-space along fixed coordinate jets.

    ``coords`` is a batched ``Jets`` of shape ``(nvars_x,)`` in the target
    space whose values equal the basepoint at which the composed jets were
    expanded (e.g. the immersion map's component jets).  One monomial table
    is kept per source family ``(nvars, param)``, built at the highest
    order pulled so far, so pulling many ambient tensors back along one
    immersion is a single matmul each.  A pull at a lower order reads the
    table's prefix block: truncation is a prefix slice in both spaces and
    each product sums its pairs in the same order, so the block equals the
    table built at that order bit for bit.  Source monomials beyond the
    order are dropped, which is exact when every displacement has spatial
    degree >= 1.  On a parameter target a pure ``t`` term has degree 0, so
    only the displacement of the source's own parameter may carry one; any
    other raises ``ValueError`` when its table is built.
    """

    def __init__(self, coords: Jets):
        self.coords = coords
        self._mons = {}

    def _table(self, msrc: JetSpace) -> np.ndarray:
        key = (msrc.nvars, msrc.param)  # built to at least msrc's order
        if key not in self._mons or len(self._mons[key]) < msrc.size:
            coords = self.coords.truncate(msrc.order)
            tgt = coords.space
            disp = coords.coeffs.copy()
            disp[:, 0] = 0.0  # nilpotent displacements u_i - u_i(0)
            if tgt.param:
                t_pos = tgt.position((0,) * (tgt.nvars - 1) + (1,))
                pure_t = np.flatnonzero(disp[: msrc.nvars - msrc.param, t_pos])
                if len(pure_t):
                    raise ValueError(
                        f"compose: coordinate jets {pure_t.tolist()} have a pure t "
                        f"term, so source monomials beyond order {msrc.order} would "
                        "contribute; only the source's own parameter may")
            self._mons[key] = monomial_table(Jets(tgt, disp), msrc)
        return self._mons[key]

    def __call__(self, f: Jets) -> Jets:
        """``f`` in the target space, to ``min(f.order, coords.order)``."""
        if f.space.nvars != self.coords.batch[0]:
            raise ValueError(
                f"compose needs {f.space.nvars} coordinate jets, "
                f"got {self.coords.batch}"
            )
        r = min(f.order, self.coords.order)
        fsub = f.truncate(r)
        tgt = self.coords.truncate(r).space
        mons = self._table(fsub.space)[: fsub.space.size, : tgt.size]
        if f.members and not f.batch:  # a vector-matrix product per member,
            # whose bits a member-less scalar has (one matrix product has not)
            return _Members(tgt, (fsub.coeffs[:, None] @ mons)[:, 0])
        return type(f)(tgt, fsub.coeffs @ mons)

