"""Truncated multivariate Taylor arithmetic ("jets").

A jet stores the value and all partial derivatives of a smooth function up
to a fixed total order, at one point.  Arithmetic on jets (+, *, /, exp,
sqrt, ...) is exact on polynomial inputs up to the truncation order, so any
derived quantity computed through jet arithmetic carries *exact* derivatives
(to round-off), with no finite-difference noise.

Storage is dense over the multi-index set ``{a : |a| <= order, a_i <= cap_i}``
ordered by total degree then lexicographically, so truncating to a lower
order is a prefix slice.  Per-variable caps exist so that a formal
perturbation parameter can be carried to first order only (a nilpotent
variable), which is how conformal linearization is realized.

The ``Jets`` class is batched: ``coeffs`` has shape ``batch + (ncoeffs,)``,
and a whole tensor of jets (e.g. all metric components) is a single
``Jets`` with ``batch == (n, n)``.  ``jet_einsum`` contracts such batches
with einsum-style subscripts.
"""

from __future__ import annotations

import functools
import math
import os
from itertools import product as _iproduct

import numpy as np
from scipy import sparse

__all__ = [
    "BudgetError",
    "JetSpace",
    "Jets",
    "space",
    "variables",
    "constant",
    "jets_stack",
    "jet_of",
    "jet_mul",
    "jet_einsum",
    "jet_trace",
    "compose",
    "max_jet_order",
]

DEFAULT_ORDER_MAX = 5


class BudgetError(RuntimeError):
    """Raised when a computation would exceed the configured jet order."""


def max_jet_order() -> int:
    """The jet-order budget, from ``QGEO_JET_ORDER_MAX`` (default 5)."""
    raw = os.environ.get("QGEO_JET_ORDER_MAX", "")
    if not raw.strip():
        return DEFAULT_ORDER_MAX
    try:
        value = int(raw)
    except ValueError:
        raise BudgetError(f"QGEO_JET_ORDER_MAX must be an integer, got {raw!r}")
    if value < 0:
        raise BudgetError(f"QGEO_JET_ORDER_MAX must be >= 0, got {value}")
    return value


def _multi_indices(nvars: int, order: int, caps: tuple[int, ...]) -> np.ndarray:
    """All multi-indices with total degree <= order, per-variable <= caps.

    Ordered by total degree, then lexicographically, so the set for a lower
    order is a prefix of the set for a higher order (same caps).
    """
    rows = []
    for alpha in _iproduct(*(range(min(c, order) + 1) for c in caps)):
        if sum(alpha) <= order:
            rows.append(alpha)
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), nvars)
    keys = [tuple(arr[i]) for i in range(len(arr))]
    srt = sorted(range(len(keys)), key=lambda i: (sum(keys[i]), keys[i]))
    return arr[srt]


class JetSpace:
    """Coefficient layout plus cached multiplication/derivative tables."""

    def __init__(self, nvars: int, order: int, caps: tuple[int, ...]):
        self.nvars = nvars
        self.order = order
        self.caps = caps
        self.mindex = _multi_indices(nvars, order, caps)
        self.size = len(self.mindex)
        self.degree = self.mindex.sum(axis=1)
        self._pos = {tuple(m): i for i, m in enumerate(self.mindex)}
        # factorial weights: partial derivative = alpha! * Taylor coefficient
        self.factorials = np.array(
            [math.prod(math.factorial(int(e)) for e in m) for m in self.mindex],
            dtype=float,
        )
        self._mul = None
        self._derivs = {}

    def position(self, alpha) -> int:
        return self._pos[tuple(int(a) for a in alpha)]

    def truncation_size(self, order: int) -> int:
        """How many coefficients the degree <= order prefix holds."""
        return int(np.searchsorted(self.degree, order + 1))

    def mul_tables(self):
        """(i_idx, j_idx, scatter) with scatter a (npairs, size) CSR matrix.

        ``c = (a[i_idx] * b[j_idx]) @ scatter`` is the truncated product.
        """
        if self._mul is None:
            m = self.mindex
            sums = m[:, None, :] + m[None, :, :]  # (M, M, nvars)
            ok = (sums.sum(axis=2) <= self.order) & (sums <= np.array(self.caps)).all(axis=2)
            ii, jj = np.nonzero(ok)
            kk = np.fromiter(
                (self._pos[tuple(s)] for s in sums[ii, jj]), dtype=np.int64, count=len(ii)
            )
            scatter = sparse.csr_matrix(
                (np.ones(len(kk)), (np.arange(len(kk)), kk)), shape=(len(kk), self.size)
            )
            self._mul = (ii, jj, scatter)
        return self._mul

    def deriv_tables(self, var: int):
        """(src, scale): coefficient gather realizing d/dx_var into order-1 space."""
        if var not in self._derivs:
            target = space(self.nvars, self.order - 1, self.caps)
            src = np.zeros(target.size, dtype=np.int64)
            scale = np.zeros(target.size)
            for t, alpha in enumerate(target.mindex):
                shifted = alpha.copy()
                shifted[var] += 1
                pos = self._pos.get(tuple(shifted))
                if pos is not None:
                    src[t] = pos
                    scale[t] = alpha[var] + 1
            self._derivs[var] = (src, scale)
        return self._derivs[var]


@functools.lru_cache(maxsize=None)
def _space_cached(nvars: int, order: int, caps: tuple[int, ...]) -> JetSpace:
    return JetSpace(nvars, order, caps)


def space(nvars: int, order: int, caps=None) -> JetSpace:
    """Get (cached) the jet space for ``nvars`` variables at ``order``."""
    if order < 0:
        raise BudgetError("jet budget exhausted (a derivative was requested "
                          "beyond the available Taylor order)")
    if order > max_jet_order():
        raise BudgetError(
            f"jet order {order} exceeds QGEO_JET_ORDER_MAX={max_jet_order()}"
        )
    if caps is None:
        caps = (order,) * nvars
    caps = tuple(min(int(c), order) for c in caps)
    return _space_cached(nvars, order, caps)


class Jets:
    """A batch of truncated Taylor expansions sharing one ``JetSpace``.

    ``coeffs[..., i]`` is the Taylor coefficient of monomial
    ``space.mindex[i]`` (so the partial derivative is ``alpha! * coeff``).
    Instances are treated as immutable.
    """

    __slots__ = ("space", "coeffs")
    # let ndarray.__mul__ defer to Jets.__rmul__
    __array_priority__ = 100

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
        if order >= self.order:
            return self
        sub = space(self.space.nvars, order, self.space.caps)
        return Jets(sub, self.coeffs[..., : sub.size])

    def deriv(self, var: int) -> "Jets":
        """Partial derivative with respect to variable ``var`` (order drops by 1)."""
        if self.order == 0:
            raise BudgetError(
                "jet budget exhausted: cannot differentiate an order-0 jet"
            )
        target = space(self.space.nvars, self.order - 1, self.space.caps)
        src, scale = self.space.deriv_tables(var)
        return Jets(target, self.coeffs[..., src] * scale)

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
        r = min(self.order, other.order)
        a, b = self.truncate(r), other.truncate(r)
        if a.space is not b.space:
            raise ValueError("jets from incompatible spaces")
        return a, b

    def __add__(self, other):
        a, b = self._align(other)
        return Jets(a.space, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jets(self.space, -self.coeffs)

    def __sub__(self, other):
        a, b = self._align(other)
        return Jets(a.space, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jets):
            return jet_mul(self, other)
        arr = np.asarray(other, dtype=float)
        return Jets(self.space, self.coeffs * arr[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jets):
            return jet_mul(self, other.reciprocal())
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet powers must be integers; use exp/log for the rest")
        if n < 0:
            return self.reciprocal() ** (-n)
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
        evaluated at ``self.value`` (shape = batch), for m = 0..order.
        """
        nil_coeffs = self.coeffs.copy()
        nil_coeffs[..., 0] = 0.0
        nil = Jets(self.space, nil_coeffs)
        out = np.zeros_like(self.coeffs)
        out[..., 0] = derivs[0]
        acc = Jets(self.space, out)
        term = None
        for m in range(1, self.order + 1):
            term = nil if term is None else jet_mul(term, nil)
            acc = acc + term * (np.asarray(derivs[m]) / math.factorial(m))
        return acc

    def exp(self) -> "Jets":
        e = np.exp(self.value)
        return self._series([e] * (self.order + 1))

    def log(self) -> "Jets":
        v = self.value
        if np.any(v <= 0):
            raise FloatingPointError("log of non-positive jet value")
        derivs = [np.log(v)]
        for m in range(1, self.order + 1):
            derivs.append(((-1.0) ** (m - 1)) * math.factorial(m - 1) / v**m)
        return self._series(derivs)

    def sqrt(self) -> "Jets":
        v = self.value
        if np.any(v <= 0):
            raise FloatingPointError("sqrt of non-positive jet value")
        derivs = [np.sqrt(v)]
        coef = 0.5
        for m in range(1, self.order + 1):
            derivs.append(coef * v ** (0.5 - m))
            coef *= 0.5 - m
        return self._series(derivs)

    def reciprocal(self) -> "Jets":
        v = self.value
        if np.any(v == 0):
            raise ZeroDivisionError("reciprocal of jet with zero value")
        derivs = [1.0 / v]
        for m in range(1, self.order + 1):
            derivs.append(((-1.0) ** m) * math.factorial(m) / v ** (m + 1))
        return self._series(derivs)

    def sin(self) -> "Jets":
        v = self.value
        table = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
        return self._series([table[m % 4] for m in range(self.order + 1)])

    def cos(self) -> "Jets":
        v = self.value
        table = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
        return self._series([table[m % 4] for m in range(self.order + 1)])

    def __repr__(self):
        return (f"Jets(nvars={self.space.nvars}, order={self.order}, "
                f"batch={self.batch})")


# -- free functions ----------------------------------------------------


def constant(value, spc: JetSpace) -> Jets:
    arr = np.asarray(value, dtype=float)
    out = np.zeros(arr.shape + (spc.size,))
    out[..., 0] = arr
    return Jets(spc, out)


def variables(point, order: int, param: bool = False):
    """Coordinate jets at ``point``.

    Returns a list of scalar jets, one per coordinate.  With ``param=True``
    one extra first-order nilpotent variable is appended to the space (and
    returned last) — the formal parameter used for conformal linearization.
    """
    point = np.asarray(point, dtype=float)
    n = len(point)
    if param:
        spc = space(n + 1, order, caps=(order,) * n + (1,))
    else:
        spc = space(n, order)
    out = []
    for i in range(n + (1 if param else 0)):
        c = np.zeros(spc.size)
        if i < n:
            c[0] = point[i]
        if order >= 1:
            e = np.zeros(spc.nvars, dtype=np.int64)
            e[i] = 1
            c[spc.position(e)] = 1.0
        out.append(Jets(spc, c))
    return out


def jets_stack(items) -> Jets:
    """Stack scalar/batched jets (same space) into one batched ``Jets``."""
    items = list(items)
    spc = None
    order = min(it.order for it in items if isinstance(it, Jets))
    for it in items:
        if isinstance(it, Jets):
            spc = it.truncate(order).space
            break
    if spc is None:
        raise ValueError("jets_stack needs at least one Jets entry")
    coeffs = [it.truncate(order).coeffs if isinstance(it, Jets)
              else constant(it, spc).coeffs for it in items]
    return Jets(spc, np.stack(coeffs))


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


_CHUNK = 1 << 23  # float64 budget per gathered intermediate


def jet_mul(a: Jets, b: Jets) -> Jets:
    """Elementwise (broadcasting) truncated product of two jet batches."""
    r = min(a.order, b.order)
    a = a.truncate(r)
    b = b.truncate(r)
    if a.space is not b.space:
        raise ValueError("jets from incompatible spaces")
    ii, jj, scatter = a.space.mul_tables()
    npairs = len(ii)
    batch = np.broadcast_shapes(a.batch, b.batch)
    nbatch = int(np.prod(batch, initial=1))
    if nbatch * npairs <= _CHUNK:
        prod = a.coeffs[..., ii] * b.coeffs[..., jj]
        flat = prod.reshape(-1, npairs) @ scatter
        return Jets(a.space, np.asarray(flat).reshape(batch + (a.space.size,)))
    out = np.zeros(batch + (a.space.size,))
    flat_out = out.reshape(-1, a.space.size)
    step = max(1, _CHUNK // max(nbatch, 1))
    for lo in range(0, npairs, step):
        sl = slice(lo, lo + step)
        prod = a.coeffs[..., ii[sl]] * b.coeffs[..., jj[sl]]
        flat_out += prod.reshape(-1, prod.shape[-1]) @ scatter[sl]
    return Jets(a.space, out)


def jet_trace(a: Jets, subscripts: str) -> Jets:
    """Trace/reorder batch axes with einsum syntax (no products)."""
    lhs, _, rhs = subscripts.partition("->")
    return Jets(a.space, np.einsum(f"{lhs}...->{rhs}...", a.coeffs))


def jet_einsum(subscripts: str, a: Jets, b: Jets) -> Jets:
    """Two-operand einsum where each element is a truncated jet product.

    ``jet_einsum('aec,ecb->ab', A, B)`` contracts like ``np.einsum`` but with
    jet multiplication at each element.  Contracted letters must appear once
    in each operand; free letters at most once per operand.
    """
    lhs, _, rhs = subscripts.partition("->")
    sa, sb = lhs.split(",")
    r = min(a.order, b.order)
    a = a.truncate(r)
    b = b.truncate(r)
    if a.space is not b.space:
        raise ValueError("jets from incompatible spaces")
    ii, jj, scatter = a.space.mul_tables()
    npairs = len(ii)
    dims = {}
    for s, arr in ((sa, a), (sb, b)):
        for letter, d in zip(s, arr.batch):
            dims[letter] = d
    out_shape = tuple(dims[letter] for letter in rhs)
    # chunk over the pair axis so neither the gathered operands nor the
    # elementwise product intermediate exceed the budget
    free = int(np.prod(out_shape, initial=1))
    na = int(np.prod(a.batch, initial=1))
    nb = int(np.prod(b.batch, initial=1))
    widest = max(free, na, nb)
    pax = next(c for c in "pqzyxwvuPQZYXWVU" if c not in lhs and c not in rhs)
    spec = f"{sa}{pax},{sb}{pax}->{rhs}{pax}"
    if widest * npairs <= _CHUNK:
        prod = np.einsum(spec, a.coeffs[..., ii], b.coeffs[..., jj])
        flat = prod.reshape(-1, npairs) @ scatter
        return Jets(a.space, np.asarray(flat).reshape(out_shape + (a.space.size,)))
    out = np.zeros(out_shape + (a.space.size,))
    flat_out = out.reshape(-1, a.space.size)
    step = max(1, _CHUNK // max(widest, 1))
    for lo in range(0, npairs, step):
        sl = slice(lo, lo + step)
        prod = np.einsum(spec, a.coeffs[..., ii[sl]], b.coeffs[..., jj[sl]])
        flat_out += prod.reshape(-1, prod.shape[-1]) @ scatter[sl]
    return Jets(a.space, out)


class Composer:
    """Re-expands x-space jets in y-space along fixed coordinate jets.

    ``coords`` is a batched ``Jets`` of shape ``(nvars_x,)`` in the target
    space whose values equal the basepoint at which the composed jets were
    expanded (e.g. the immersion map's component jets).  The monomial tables
    are cached per (source space, order), so pulling many ambient tensors
    back along one immersion is a single matmul each.
    """

    def __init__(self, coords: Jets):
        self.coords = coords
        self._mons = {}

    def _tables(self, msrc: JetSpace, r: int) -> np.ndarray:
        key = (id(msrc), r)
        if key not in self._mons:
            tgt = self.coords.truncate(r).space
            disp = self.coords.truncate(r).coeffs.copy()
            disp[:, 0] = 0.0  # nilpotent displacements u_i - u_i(0)
            nil = Jets(tgt, disp)
            mons = np.zeros((msrc.size, tgt.size))
            mons[0, 0] = 1.0
            for pos in range(1, msrc.size):
                alpha = msrc.mindex[pos]
                j = int(np.nonzero(alpha)[0][0])
                prev = alpha.copy()
                prev[j] -= 1
                m = jet_mul(Jets(tgt, mons[msrc.position(prev)]), nil[j])
                mons[pos] = m.coeffs
            self._mons[key] = mons
        return self._mons[key]

    def __call__(self, f: Jets) -> Jets:
        if f.space.nvars != self.coords.batch[0]:
            raise ValueError(
                f"compose needs {f.space.nvars} coordinate jets, "
                f"got {self.coords.batch}"
            )
        r = min(f.order, self.coords.order)
        fsub = f.truncate(r)
        tgt = self.coords.truncate(r).space
        mons = self._tables(fsub.space, r)
        return Jets(tgt, fsub.coeffs @ mons)


def compose(f: Jets, coords: Jets) -> Jets:
    """Compose an x-space jet with coordinate jets from another space.

    One-shot form of ``Composer``; valid to ``min(f.order, coords.order)``.
    """
    return Composer(coords)(f)
