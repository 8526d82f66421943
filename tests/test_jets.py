"""Jet arithmetic against finite differences and closed-form Taylor data."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo import jets
from qgeo.jets import (
    ORDER_MAX,
    PACK_ORDER,
    _multi_indices,
    BudgetError,
    Composer,
    Jets,
    constant,
    jet_einsum,
    jet_mul,
    jet_of,
    jet_trace,
    jets_stack,
    space,
    variables,
)


def fd_partial(fn, point, alpha, h=None):
    """Central-difference partial derivative for multi-index ``alpha``.

    Recursively applies a symmetric difference per derivative order.  The
    step balances truncation against roundoff, which grows like
    ``eps / h**|alpha|`` — so h widens with the order.
    """
    if h is None:
        h = 10.0 ** (-6 + sum(alpha))
    point = np.asarray(point, dtype=float)
    idx = [i for i, a in enumerate(alpha) for _ in range(a)]
    if not idx:
        return fn(point)
    i, rest = idx[0], idx[1:]
    beta = list(alpha)
    beta[i] -= 1
    up = point.copy()
    up[i] += h
    dn = point.copy()
    dn[i] -= h
    return (fd_partial(fn, up, beta, h) - fd_partial(fn, dn, beta, h)) / (2 * h)


def smooth(x):
    return np.exp(0.3 * x[0]) * np.sin(x[1]) + x[0] * x[1] ** 2 / (1.0 + x[0] ** 2)


def smooth_jet(xs):
    return (0.3 * xs[0]).exp() * xs[1].sin() + xs[0] * xs[1] ** 2 / (
        1.0 + xs[0] ** 2
    )


def test_jet_matches_finite_differences():
    point = [0.4, -0.7]
    jet = jet_of(smooth_jet, point, 3)
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (0, 3)]:
        got = jet.partial(alpha)
        want = fd_partial(smooth, point, alpha)
        assert np.isclose(got, want, rtol=2e-4, atol=1e-6), (
            f"partial {alpha}: jet {got} vs finite difference {want}"
        )


def test_exp_taylor_coefficients():
    x, = variables([0.0], 4)
    e = x.exp()
    want = [1 / math.factorial(m) for m in range(5)]
    assert np.allclose(e.coeffs, want)


def test_polynomial_partials_exact():
    # f = s y^2 + t y z + u x w on 5 coordinates: second partials are the
    # raw coefficients (times symmetry factors), exactly.
    s, t, u = 0.7, -1.3, 0.45
    xs = variables([0.0] * 5, 2)
    f = s * xs[1] ** 2 + t * xs[1] * xs[2] + u * xs[0] * xs[4]
    assert f.partial([0, 2, 0, 0, 0]) == pytest.approx(2 * s, abs=0)
    assert f.partial([0, 1, 1, 0, 0]) == pytest.approx(t, abs=0)
    assert f.partial([1, 0, 0, 0, 1]) == pytest.approx(u, abs=0)
    assert f.partial([2, 0, 0, 0, 0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(
        st.integers(min_value=-4, max_value=4), min_size=6, max_size=6
    ),
    px=st.integers(min_value=-2, max_value=2),
    py=st.integers(min_value=-2, max_value=2),
)
def test_quadratic_polynomials_are_exact(coeffs, px, py):
    # jets of a degree-2 polynomial reproduce all its partials with zero error
    c0, c1, c2, c3, c4, c5 = [float(c) for c in coeffs]

    def poly(x, y):
        return c0 + c1 * x + c2 * y + c3 * x * x + c4 * x * y + c5 * y * y

    x, y = variables([float(px), float(py)], 2)
    jet = poly(x, y)
    assert jet.value == poly(px, py)
    assert jet.partial([1, 0]) == c1 + 2 * c3 * px + c4 * py
    assert jet.partial([0, 1]) == c2 + c4 * px + 2 * c5 * py
    assert jet.partial([2, 0]) == 2 * c3
    assert jet.partial([1, 1]) == c4
    assert jet.partial([0, 2]) == 2 * c5


@settings(max_examples=100, deadline=None)
@given(v=st.floats(min_value=0.2, max_value=5.0))
def test_sqrt_log_reciprocal_consistent(v):
    x, = variables([v], 4)
    assert np.allclose((x.sqrt() ** 2).coeffs, x.coeffs, atol=1e-12)
    assert np.allclose(x.log().exp().coeffs, x.coeffs, atol=1e-10)
    assert np.allclose((x.reciprocal() * x).coeffs, constant(1.0, x.space).coeffs,
                       atol=1e-12)


def test_sin_cos_pythagoras():
    x, = variables([0.93], 5)
    one = x.sin() ** 2 + x.cos() ** 2
    assert np.allclose(one.coeffs, constant(1.0, x.space).coeffs, atol=1e-12)


def test_deriv_shifts_multi_index():
    xs = variables([0.2, 0.5, -0.1], 3)
    f = xs[0].exp() * xs[1] * xs[2] + xs[2] ** 3
    df = f.deriv(2)
    for alpha in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0)]:
        lifted = list(alpha)
        lifted[2] += 1
        assert df.partial(alpha) == pytest.approx(f.partial(lifted), rel=1e-12)


@pytest.mark.parametrize("param", [False, True])
def test_deriv_rejects_a_variable_out_of_range(param):
    # -1 would otherwise read the last row of numpy's identity, missing the
    # parameter test, and nvars would raise a bare IndexError
    xs = variables([0.1, 0.2], 3, param=param)
    f = xs[0] * xs[-1].exp()
    nvars = f.space.nvars
    for var in (-1, nvars):
        with pytest.raises(ValueError, match=re.escape(
                f"need 0 <= var < nvars = {nvars}, got {var}")):
            f.deriv(var)
    assert f.deriv(nvars - 1).order == f.order - (not param)


@pytest.mark.parametrize("kind", ["plain", "param", "members", "transposed"])
def test_gradient_is_the_stacked_derivs(kind):
    # the same bytes in the same memory order as the stacked derivs (a
    # product's output, coefficient axis outermost, as input; or the memory
    # order of ``CurvaturePack.rm``, coefficient axis between the batch axes
    # and the last two of them swapped): reductions of either sum alike
    param = kind in ("param", "members")
    spc = space(4 + param, 3, param=param)
    rng = np.random.default_rng(7)
    A, B = (Jets(spc, rng.normal(size=shape + (spc.size,)))
            for shape in [(3, 2), (2, 5)])
    X = jet_einsum("ab,bc->ac", A, B)
    if kind == "members":
        X = jets.jets_members([X, X * 2.0, X * -0.5])
    if kind == "transposed":
        X = Jets(spc, rng.normal(size=(2, 3, spc.size, 4, 3)).transpose(0, 1, 4, 3, 2))
    got = X.gradient()
    want = jets_stack([X.deriv(a) for a in range(4)])
    assert type(got) is type(want) and got.space is want.space
    assert got.members == want.members and got.batch == want.batch == (4,) + X.batch
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert got.coeffs.strides == want.coeffs.strides


def test_truncation_is_prefix():
    for param in (False, True):
        xs = variables([0.3, 0.4], 4, param=param)
        f = (xs[0] + xs[-1] * xs[1]).exp()
        g = f.truncate(2)
        assert g.order == 2
        assert g.space is space(len(xs), 2, param)
        assert np.array_equal(g.coeffs, f.coeffs[: g.space.size])
        # the lower-order jet of the same function is the same prefix
        ys = variables([0.3, 0.4], 2, param=param)
        assert np.allclose(g.coeffs, (ys[0] + ys[-1] * ys[1]).exp().coeffs,
                           rtol=0, atol=1e-15)


def test_parameter_has_degree_zero():
    # order 0 still holds t, and d/dt keeps the order
    x, t = variables([0.6], 0, param=True)
    assert t.space.size == 2
    assert np.array_equal(t.coeffs, [0.0, 1.0])
    f = (x + t).exp()
    assert np.allclose(f.coeffs, [math.exp(0.6)] * 2)
    assert f.deriv(1).space is f.space
    assert float(f.deriv(1).value) == pytest.approx(math.exp(0.6))
    with pytest.raises(BudgetError):
        f.deriv(0)
    # at order 2: t * x^2 is stored, t^2 and x^3 are not
    spc = variables([0.0], 2, param=True)[0].space
    assert [tuple(m) for m in spc.mindex] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert spc.order == 2 and spc.top_degree == 3


def _split_parameter(f, plain):
    """The t^0 and t^1 parts of a parameter-space jet, on ``plain``."""
    rows = {tuple(m): i for i, m in enumerate(f.space.mindex)}
    parts = []
    for t in (0, 1):
        idx = [rows[tuple(m) + (t,)] for m in plain.mindex]
        parts.append(Jets(plain, f.coeffs[..., idx]))
    return parts


@pytest.mark.parametrize("order", [1, 3])
def test_series_on_parameter_space(order):
    # exp(f0 + t f1) = exp(f0) + t f1 exp(f0): the t x^order term comes
    # from the (order + 1)-th power of the nilpotent part
    rng = np.random.default_rng(order)
    spc = variables([0.2, -0.1], order, param=True)[0].space
    plain = space(2, order)
    coeffs = rng.normal(size=spc.size)
    coeffs[0] = 1.5  # away from the pole of the reciprocal
    f = Jets(spc, coeffs)
    f0, f1 = _split_parameter(f, plain)
    e0, e1 = _split_parameter(f.exp(), plain)
    assert np.allclose(e0.coeffs, f0.exp().coeffs, rtol=0, atol=1e-12)
    assert np.allclose(e1.coeffs, (f1 * f0.exp()).coeffs, rtol=0, atol=1e-12)
    _, r1 = _split_parameter(f.reciprocal(), plain)
    assert np.allclose(r1.coeffs, (-f1 / (f0 * f0)).coeffs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("param", [False, True])
@pytest.mark.parametrize("order", range(ORDER_MAX + 1))
def test_inverse_metric_jets(order, param):
    # the doubling Newton schedule runs its early steps on truncations of
    # G; the whole jet must still be the inverse, in G's own space.  The
    # rounding of G X grows with X's coefficients (up to 1e5 at order 5
    # with t), so the residual is bounded relative to them.
    from qgeo.ambient import inverse_metric_jets

    rng = np.random.default_rng(10 + order)
    spc = variables([0.0, 0.0, 0.0], order, param=param)[0].space
    coeffs = rng.normal(scale=0.3, size=(3, 3, spc.size))
    coeffs = coeffs + coeffs.transpose(1, 0, 2)
    coeffs[..., 0] += 2.0 * np.eye(3)
    G = Jets(spc, coeffs)
    X = inverse_metric_jets(G)
    assert X.space is G.space
    resid = jet_einsum("ab,bc->ac", G, X) - constant(np.eye(3), spc)
    assert float(np.max(np.abs(resid.coeffs))) < 1e-13 * np.max(np.abs(X.coeffs))


def test_budget_errors():
    with pytest.raises(BudgetError):
        space(2, ORDER_MAX + 1)
    # the budget bounds the spatial order only
    assert space(3, ORDER_MAX, param=True).order == ORDER_MAX
    assert variables([0.0, 0.0], ORDER_MAX, param=True)[-1].order == ORDER_MAX
    x, = variables([1.0], 1)
    with pytest.raises(BudgetError):
        x.deriv(0).deriv(0)


def test_position_errors_name_the_multi_index_and_space():
    x, y = variables([0.1, 0.2], 2)
    with pytest.raises(BudgetError, match=r"\(3, 0\) is not in space\(2, 2, "):
        x.partial((3, 0))
    with pytest.raises(BudgetError, match=r"\(1, 2\) is not in space\(2, 2, "):
        y.coeff([1, 2])
    for alpha in ((1,), (1, 0, 0), (-1, 1)):
        with pytest.raises(ValueError, match=r"multi-index .* in space\(2, 2, "):
            x.partial(alpha)
    _, t = variables([0.1], 3, param=True)
    with pytest.raises(BudgetError, match=r"\(0, 2\) is not in space\(2, 3, param=True"):
        t.coeff((0, 2))
    assert t.coeff((3, 1)) == 0.0 and t.coeff((0, 1)) == 1.0


# a call on the jets x, y of space(2, 2), the exception it must raise, and
# a fragment of the message
GUARDS = [
    (lambda x, y: x.space.positions(np.zeros((4, 3))), ValueError,
     "multi-indices of shape (4, 3) in space(2, 2, param=False): need 2"),
    (lambda x, y: x ** 0.5, TypeError, "jet powers must be integers"),
    (lambda x, y: Composer(jets_stack([x]))(x * y), ValueError,
     "compose needs 2 coordinate jets, got (1,)"),
]


@pytest.mark.parametrize("call,error,message", GUARDS)
def test_guard_names_the_bad_input(call, error, message):
    x, y = variables([0.1, 0.2], 2)
    with pytest.raises(error, match=re.escape(message)):
        call(x, y)


def test_jet_of_a_constant_function_and_repr():
    c = jet_of(lambda xs: 2.5, [0.1, 0.2], 3)
    assert c.coeffs.tolist() == [2.5] + [0.0] * (c.space.size - 1)
    assert repr(c) == "Jets(nvars=2, order=3, batch=())"


def test_repr_shows_the_member_axis():
    x, y = variables([0.1, 0.2], 3)
    assert repr(x * y) == "Jets(nvars=2, order=3, batch=())"
    assert repr(jets.jets_members([x, y, x * y])) == (
        "Jets(nvars=2, order=3, batch=(), members=3)")


def test_jet_mul_agrees_with_direct_jet():
    point = [0.37, -0.21]

    def f(xs):
        return xs[0].exp() + xs[1] ** 2

    def g(xs):
        return xs[0] * xs[1] + 2.0

    prod = jet_mul(jet_of(f, point, 3), jet_of(g, point, 3))
    direct = jet_of(lambda xs: f(xs) * g(xs), point, 3)
    assert np.allclose(prod.coeffs, direct.coeffs, atol=1e-12)


def test_jet_einsum_matches_loops():
    rng = np.random.default_rng(7)
    n, order = 3, 2
    spc = space(2, order)
    A = Jets(spc, rng.normal(size=(n, n, spc.size)))
    B = Jets(spc, rng.normal(size=(n, n, spc.size)))
    got = jet_einsum("ab,bc->ac", A, B)
    want = np.zeros((n, n, spc.size))
    for a in range(n):
        for c in range(n):
            acc = constant(0.0, spc)
            for b in range(n):
                acc = acc + jet_mul(A[a, b], B[b, c])
            want[a, c] = acc.coeffs
    assert np.allclose(got.coeffs, want, atol=1e-12)


def test_chunked_products_match_unchunked(monkeypatch):
    # a member product is one pass below ``_MEMBER_CHUNK`` and one member at
    # a time above it; both give the same bits
    rng = np.random.default_rng(11)
    spc = space(3, 3)
    A, B = (jets.jets_members([Jets(spc, rng.normal(size=(4, 4, spc.size)))
                               for _ in range(2)]) for _ in range(2))
    full_e = jet_einsum("ab,bc->ac", A, B)
    full_m = jet_mul(A, B)
    monkeypatch.setattr(jets, "_MEMBER_CHUNK", 0)
    for got, full in ((jet_einsum("ab,bc->ac", A, B), full_e),
                      (jet_mul(A, B), full_m)):
        assert got.members == full.members == 2
        assert got.coeffs.tobytes() == full.coeffs.tobytes()


def scatter_product(spc, sa, sb, rhs, a, b):
    """The product kernel as gather, combine and one ``scatter @`` over
    every coefficient pair, on the product recipe's layouts, with scipy's
    CSR matrix built from the raw arrays of ``mul_tables``."""
    import qgeo.jets as jets_mod
    from scipy import sparse

    recipe = jets_mod._recipe(spc, sa, sb, rhs, a.shape[:-1], b.shape[:-1])
    ii, jj, tables = spc.mul_tables()
    scatter = sparse.csr_matrix((tables.data, tables.indices, tables.indptr),
                                shape=tables.shape)
    x = a.transpose(recipe.axes_a)[ii].reshape(recipe.shape_x)
    y = b.transpose(recipe.axes_b)[jj].reshape(recipe.shape_y)
    flat = scatter @ recipe.op(x, y).reshape(len(ii), -1)
    return flat.reshape(recipe.out_shape).transpose(recipe.perm)


#: (subscripts, batch of a, batch of b); ``None`` is a ``jet_mul``
KERNEL_CASES = [
    (None, (), ()),                       # scalar product
    (None, (3, 1), (1, 4)),               # broadcasting product
    ("ab,bc->ac", (2, 3), (3, 4)),        # contracted letter
    ("abc,b->ca", (2, 3, 2), (3,)),       # left-free letters only
    ("b,bcd->dc", (3,), (3, 2, 3)),       # right-free letters only
    ("abcd,za->zbcd", (3, 3, 3, 3), (2, 3)),  # a frame projection
]
KERNEL_SPACES = [space(3, 3), space(4 + 1, 3, param=True)]


def _scatter_of(spc, subscripts, A, B):
    """``scatter_product`` of the member-less jets ``A`` and ``B`` under
    ``subscripts`` (``None`` is a ``jet_mul``)."""
    if subscripts is None:
        shape = np.broadcast_shapes(A.batch, B.batch) + (spc.size,)
        s = "abcdefgh"[: len(shape) - 1]
        return scatter_product(spc, s, s, s, np.broadcast_to(A.coeffs, shape),
                               np.broadcast_to(B.coeffs, shape))
    lhs, _, rhs = subscripts.partition("->")
    sa, sb = lhs.split(",")
    return scatter_product(spc, sa, sb, rhs, A.coeffs, B.coeffs)


def _kernel_operands(spc, subscripts, shape_a, shape_b):
    rng = np.random.default_rng(23)
    A = Jets(spc, rng.normal(size=shape_a + (spc.size,)))
    B = Jets(spc, rng.normal(size=shape_b + (spc.size,)))
    want = _scatter_of(spc, subscripts, A, B)
    if subscripts is None:
        return (lambda: jet_mul(A, B)), want
    return (lambda: jet_einsum(subscripts, A, B)), want


@pytest.mark.parametrize("spc", KERNEL_SPACES, ids=["plain", "param"])
@pytest.mark.parametrize("subscripts, shape_a, shape_b", KERNEL_CASES)
def test_product_kernel_is_the_scatter_form(subscripts, shape_a, shape_b, spc):
    # the compiled CSR call must sum each coefficient's pairs exactly as
    # ``scatter @`` does: the same numbers, bit for bit
    product, want = _kernel_operands(spc, subscripts, shape_a, shape_b)
    got = product().coeffs
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("spc", KERNEL_SPACES, ids=["plain", "param"])
@pytest.mark.parametrize("subscripts, shape_a, shape_b", KERNEL_CASES)
def test_chunked_kernel_is_the_scatter_form(monkeypatch, subscripts, shape_a,
                                            shape_b, spc):
    # a member product above ``_MEMBER_CHUNK`` runs the kernel one member at
    # a time; each member is still the ``scatter @`` form, bit for bit
    monkeypatch.setattr(jets, "_MEMBER_CHUNK", 0)
    As, Bs = _member_operands(spc, shape_a, shape_b)
    got = _product_of(subscripts)(jets.jets_members(As), jets.jets_members(Bs))
    assert got.members == 3
    for m in range(3):
        want = _scatter_of(spc, subscripts, As[m], Bs[m])
        assert got.coeffs[m].shape == want.shape
        assert got.coeffs[m].tobytes() == np.ascontiguousarray(want).tobytes()


LONG_DOUBLE_CASES = [(None, (3, 1), (1, 4)), ("abcd,za->zbcd", (3, 3, 3, 3), (2, 3))]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-17,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("spc", KERNEL_SPACES, ids=["plain", "param"])
@pytest.mark.parametrize("subscripts, shape_a, shape_b", LONG_DOUBLE_CASES)
def test_long_double_products(subscripts, shape_a, shape_b, spc):
    # the kernel keeps the operands' promoted dtype: a long-double product is
    # one, also with a float64 operand, and agrees with the float64 product
    # to float64 round-off
    rng = np.random.default_rng(29)
    A, B = (Jets(spc, rng.normal(size=shape + (spc.size,)))
            for shape in (shape_a, shape_b))
    wide = [Jets(spc, x.coeffs.astype(np.longdouble)) for x in (A, B)]
    if subscripts is None:
        got, mixed, want = jet_mul(*wide), jet_mul(A, wide[1]), jet_mul(A, B)
    else:
        got, mixed, want = (jet_einsum(subscripts, *ops)
                            for ops in (wide, (A, wide[1]), (A, B)))
    assert got.coeffs.dtype == np.longdouble and want.coeffs.dtype == np.float64
    assert np.array_equal(mixed.coeffs, got.coeffs)
    gap = np.max(np.abs(got.coeffs - want.coeffs)) / np.max(np.abs(got.coeffs))
    assert gap <= 1e-15, gap


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-17,
                    reason="long double is no wider than float64 here")
def test_long_double_arithmetic_with_numbers():
    # a number meets a long-double jet in long double: `*`, `/`, `+` and
    # the series functions keep every coefficient to long-double round-off
    (x,) = variables([0.3], 4)
    x = Jets(x.space, x.coeffs.astype(np.longdouble))
    x0, third = x.coeffs[0], np.longdouble(1) / 3
    m = np.arange(5)
    fact = np.array([math.factorial(j) for j in m], dtype=np.longdouble)
    cases = {
        "x * (1/3)": (x * third, np.array([x0 * third, third, 0, 0, 0])),
        "x / 3": (x / np.longdouble(3), x.coeffs / np.longdouble(3)),
        "x + 1/3": (x + third, np.array([x0 + third, 1, 0, 0, 0])),
        "reciprocal": (x.reciprocal(), (-1.0) ** m / x0 ** (m + 1)),
        "exp": (x.exp(), np.exp(x0) / fact),
    }
    eps = np.finfo(np.longdouble).eps
    for label, (got, want) in cases.items():
        assert got.coeffs.dtype == np.longdouble, label
        err = np.abs(got.coeffs - want) / np.maximum(np.abs(want), 1)
        assert np.all(err <= 4 * eps), (label, err)


# -- the member axis ----------------------------------------------------------


def _member_operands(spc, shape_a, shape_b, members=3):
    rng = np.random.default_rng(31)
    return ([Jets(spc, rng.normal(size=shape + (spc.size,)))
             for _ in range(members)] for shape in (shape_a, shape_b))


def _product_of(subscripts):
    return jet_mul if subscripts is None else (
        lambda a, b: jet_einsum(subscripts, a, b))


@pytest.mark.parametrize("split", [False, True], ids=["one-pass", "per-member"])
@pytest.mark.parametrize("sides", ["both", "left", "right"])
@pytest.mark.parametrize("spc", KERNEL_SPACES, ids=["plain", "param"])
@pytest.mark.parametrize("subscripts, shape_a, shape_b", KERNEL_CASES)
def test_member_products_are_the_single_products(
        monkeypatch, subscripts, shape_a, shape_b, spc, sides, split):
    # every member of a product on the member axis is the member-less
    # product of its operands, bit for bit: in one pass, one member at a
    # time above the bound, and with a member-less operand on either side
    if split:
        monkeypatch.setattr(jets, "_MEMBER_CHUNK", 0)
    As, Bs = _member_operands(spc, shape_a, shape_b)
    if sides != "both":  # one operand without members, shared by all
        As, Bs = (As[:1] * 3, Bs) if sides == "left" else (As, Bs[:1] * 3)
    a = As[0] if sides == "left" else jets.jets_members(As)
    b = Bs[0] if sides == "right" else jets.jets_members(Bs)
    product = _product_of(subscripts)
    got = product(a, b)
    assert got.members == 3 and got.coeffs.shape[0] == 3
    for m in range(3):
        want = product(As[m], Bs[m])
        assert got.batch == want.batch and got.space is want.space
        assert got.coeffs[m].tobytes() == np.ascontiguousarray(want.coeffs).tobytes()


def test_member_axis_is_left_out_of_the_batch():
    # indexing, reshape, stacking, traces and the sums skip the member axis
    # and broadcast a member-less operand over the members
    spc = space(3, 2)
    As, Bs = _member_operands(spc, (2, 3), (3,))
    a, b = jets.jets_members(As), jets.jets_members(Bs)
    assert (a.batch, a.value.shape, b.batch) == ((2, 3), (3, 2, 3), (3,))
    pull = Composer(jets_stack(variables([0.1, 0.2, 0.3], 2)) ** 2)
    cases = [
        (a[1], [x[1] for x in As]),
        (a[:, 2], [x[:, 2] for x in As]),
        (a.reshape(6), [x.reshape(6) for x in As]),
        (a.reshape(3, 2), [x.reshape(3, 2) for x in As]),
        (jet_trace(a, "ab->ba"), [jet_trace(x, "ab->ba") for x in As]),
        (jets_stack([b[0], Bs[0][1], 2.0]),
         [jets_stack([y[0], Bs[0][1], 2.0]) for y in Bs]),
        (a + b, [x + y for x, y in zip(As, Bs)]),
        (a - Bs[1], [x - Bs[1] for x in As]),
        (1.0 - b, [1.0 - y for y in Bs]),
        (b[0] * a, [y[0] * x for x, y in zip(As, Bs)]),
        (constant(np.eye(3)[:2], spc) - a, [np.eye(3)[:2] - x for x in As]),
        (b[0].exp(), [y[0].exp() for y in Bs]),
        (pull(b), [pull(y) for y in Bs]),
        (pull(b[2]), [pull(y[2]) for y in Bs]),
    ]
    for got, want in cases:
        assert got.members == 3
        for m, w in enumerate(want):
            assert got.batch == w.batch
            assert np.array_equal(got.coeffs[m], w.coeffs)


def test_member_counts_that_differ_are_rejected():
    # two member jets meet only with as many members each, whichever side
    # has more and whichever path the product takes (this one runs one
    # member at a time)
    spc = space(4 + 1, PACK_ORDER, param=True)
    As, Bs = _member_operands(spc, (5, 5, 5, 5), (4, 5))
    a, b = jets.jets_members(As[:2]), jets.jets_members(Bs)
    cases = [
        lambda: jet_einsum("abcd,za->zbcd", a, b),
        lambda: jet_einsum("za,abcd->zbcd", b, a),
        lambda: a[0, 0] + b,
        lambda: b * a[0, 0],
        lambda: jets_stack([a[0, 0], b]),
    ]
    for op in cases:
        with pytest.raises(ValueError, match=r"^jets with (2 and 3|3 and 2) members$"):
            op()


def test_members_of_members_are_rejected():
    x = jets.jets_members(variables([0.1, 0.2], 1))
    with pytest.raises(ValueError, match="no member axis"):
        jets.jets_members([x, x])


def test_member_product_above_the_bound_scatters_one_member_at_a_time(
        monkeypatch):
    # a frame projection on the pack space gathers more pairs than the
    # bound over its three members, so it runs, and scatters, one member at
    # a time; a scalar product fits and scatters all three members at once
    calls = []
    scatter = jets.csr_matvecs

    def counting(n_row, n_col, n_vecs, *rest):
        calls.append((n_vecs, rest[3].size))
        return scatter(n_row, n_col, n_vecs, *rest)

    monkeypatch.setattr(jets, "csr_matvecs", counting)
    spc = space(4 + 1, PACK_ORDER, param=True)
    npairs = len(spc.mul_tables()[0])
    As, Bs = _member_operands(spc, (5, 5, 5, 5), (4, 5))
    jet_einsum("abcd,za->zbcd", jets.jets_members(As), jets.jets_members(Bs))
    assert [n for n, _ in calls] == [4 * 5 ** 3] * 3
    assert all(size == npairs * 4 * 5 ** 3 for _, size in calls)
    assert npairs * 3 * 4 * 5 ** 4 > jets._MEMBER_CHUNK
    calls.clear()
    As, Bs = _member_operands(spc, (), ())
    jet_mul(jets.jets_members(As), jets.jets_members(Bs))
    assert calls == [(3, npairs * 3)]
    assert npairs * 3 <= jets._MEMBER_CHUNK


def test_member_chunk_is_read_at_call_time(monkeypatch):
    # the one-pass or per-member choice follows ``_MEMBER_CHUNK`` as it is
    # when the product runs, not as it was when a product of the same
    # shape first ran: lowering it after a one-pass product splits the
    # next one, and raising it again joins them
    calls = []
    scatter = jets.csr_matvecs

    def counting(*args):
        calls.append(args[2])
        return scatter(*args)

    monkeypatch.setattr(jets, "csr_matvecs", counting)
    spc = space(3, 2)
    As, Bs = _member_operands(spc, (2, 3), (3, 4))
    a, b = jets.jets_members(As), jets.jets_members(Bs)
    runs = []
    for bound in (jets._MEMBER_CHUNK, 0, jets._MEMBER_CHUNK):
        monkeypatch.setattr(jets, "_MEMBER_CHUNK", bound)
        calls.clear()
        runs.append(jet_einsum("ab,bc->ac", a, b).coeffs.tobytes())
        assert calls == ([3 * 2 * 4] if bound else [2 * 4] * 3), bound
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("subscripts, shape_a, shape_b", KERNEL_CASES)
def test_member_less_products_plan_the_same_subscripts(
        monkeypatch, subscripts, shape_a, shape_b):
    # only a product with members adds the implicit member letter: the
    # subscripts of every product recipe read are recorded
    plans = []
    recipe = jets._recipe
    monkeypatch.setattr(jets, "_recipe", lambda spc, *args: (
        plans.append(args[:3]) or recipe(spc, *args)))
    spc = space(3, 3)
    As, Bs = _member_operands(spc, shape_a, shape_b)
    product = _product_of(subscripts)
    product(As[0], Bs[0])
    if subscripts is None:
        s = "abcdefgh"[: len(np.broadcast_shapes(shape_a, shape_b))]
        want = (s, s, s)
    else:
        lhs, _, rhs = subscripts.partition("->")
        want = (*lhs.split(","), rhs)
    assert plans == [want]
    plans.clear()
    product(jets.jets_members(As), Bs[0])
    assert plans[0] == tuple(jets._MEMBER + s for s in want)


def naive_mul(spc, a, b):
    """Truncated product of two coefficient vectors, monomial by monomial.

    On a parameter space the last variable ``t`` has degree 0 and ``t^2``
    vanishes; the spatial degree is bounded by the order.
    """
    nx = spc.nvars - spc.param
    out = np.zeros(spc.size)
    for i, alpha in enumerate(spc.mindex):
        for j, beta in enumerate(spc.mindex):
            gamma = tuple(alpha + beta)
            if sum(gamma[:nx]) <= spc.order and (not spc.param or gamma[-1] <= 1):
                out[spc.position(gamma)] += a[i] * b[j]
    return out


def loop_einsum(subscripts, A, B):
    """``jet_einsum`` by explicit loops over every letter, one scalar
    ``jet_mul`` per term."""
    lhs, _, rhs = subscripts.partition("->")
    sa, sb = lhs.split(",")
    dims = dict(zip(sa, A.batch))
    dims.update(zip(sb, B.batch))
    letters = sorted(dims)
    out = np.zeros(tuple(dims[c] for c in rhs) + (A.space.size,))
    for idx in itertools.product(*(range(dims[c]) for c in letters)):
        at = dict(zip(letters, idx))
        term = jet_mul(A[tuple(at[c] for c in sa)], B[tuple(at[c] for c in sb)])
        out[tuple(at[c] for c in rhs)] += term.coeffs
    return out


def test_scalar_jet_mul_matches_naive_product():
    rng = np.random.default_rng(5)
    for spc in (space(3, 3), variables([0.0, 0.0], 3, param=True)[0].space):
        a, b = rng.normal(size=(2, spc.size))
        got = jet_mul(Jets(spc, a), Jets(spc, b)).coeffs
        assert np.allclose(got, naive_mul(spc, a, b), rtol=0, atol=1e-14)


@pytest.mark.parametrize("subscripts, shape_a, shape_b", [
    ("ab,ab->ab", (2, 3), (2, 3)),      # shared output letters
    ("ab,ab->", (2, 3), (2, 3)),        # everything contracted
    ("ab,bc->ac", (2, 3), (3, 2)),      # one contracted letter
    ("abc,bcd->da", (2, 3, 2), (3, 2, 3)),  # two contracted letters
    ("abc,b->ca", (2, 3, 2), (3,)),     # left-only free letters
    ("b,bcd->dc", (3,), (3, 2, 3)),     # right-only free letters
    ("ab,cb->acb", (2, 3), (2, 3)),     # free both sides plus shared
    ("zp,pq->qz", (2, 3), (3, 2)),      # letters z and p
    ("pz,zb->pb", (3, 2), (2, 2)),
])
def test_jet_einsum_matches_jet_mul_loops(subscripts, shape_a, shape_b):
    rng = np.random.default_rng(17)
    spc = space(2, 3)
    A = Jets(spc, rng.normal(size=shape_a + (spc.size,)))
    B = Jets(spc, rng.normal(size=shape_b + (spc.size,)))
    got = jet_einsum(subscripts, A, B)
    assert np.allclose(got.coeffs, loop_einsum(subscripts, A, B), rtol=0, atol=1e-12)


def test_jet_einsum_rejects_diagonals_and_one_sided_sums():
    spc = space(2, 2)
    A = Jets(spc, np.ones((2, 2, spc.size)))
    for subscripts in ("aa,ab->b", "ab,b->", "ab,ab->c", "ab,ab->aa"):
        with pytest.raises(ValueError, match="at most once per term"):
            jet_einsum(subscripts, A, A)


def test_jet_einsum_on_nilpotent_space():
    rng = np.random.default_rng(19)
    spc = variables([0.0, 0.0, 0.0], 3, param=True)[0].space
    assert spc.param and spc.degree.max() == 3
    assert spc.mindex[:, -1].max() == 1 and spc.mindex[:, :3].sum(axis=1).max() == 3
    A = Jets(spc, rng.normal(size=(3, 2, spc.size)))
    B = Jets(spc, rng.normal(size=(2, 3, spc.size)))
    for subscripts in ("ab,bc->ac", "ab,ba->", "ab,ba->ab"):
        got = jet_einsum(subscripts, A, B)
        assert np.allclose(got.coeffs, loop_einsum(subscripts, A, B), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((), (4, 4)), ((4, 4), ()), ((4, 1), (1, 3)), ((3,), (2, 3)), ((2, 1, 3), (4, 1)),
])
def test_jet_mul_broadcasts_like_numpy(shape_a, shape_b):
    rng = np.random.default_rng(23)
    spc = space(2, 3)
    A = Jets(spc, rng.normal(size=shape_a + (spc.size,)))
    B = Jets(spc, rng.normal(size=shape_b + (spc.size,)))
    batch = np.broadcast_shapes(shape_a, shape_b)
    ca = np.broadcast_to(A.coeffs, batch + (spc.size,))
    cb = np.broadcast_to(B.coeffs, batch + (spc.size,))
    want = np.zeros(batch + (spc.size,))
    for idx in np.ndindex(*batch):
        want[idx] = jet_mul(Jets(spc, ca[idx]), Jets(spc, cb[idx])).coeffs
    got = jet_mul(A, B)
    assert got.batch == batch
    assert np.allclose(got.coeffs, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nvars, order, npairs", [
    (1, 4, 15), (2, 3, 35), (4, 4, 495), (5, 2, 66), (7, 3, 680),
])
def test_pair_count_of_uncapped_space(nvars, order, npairs):
    # pairs (alpha, beta) with |alpha| + |beta| <= r are the monomials of
    # degree <= r in 2 nvars variables
    spc = space(nvars, order)
    ii, jj, scatter = spc.mul_tables()
    assert len(ii) == len(jj) == npairs == math.comb(2 * nvars + order, order)
    assert scatter.shape == (spc.size, npairs)
    assert scatter.nnz == npairs


def test_jets_stack_needs_a_jet():
    for items in ([1.0, 2.0], []):
        with pytest.raises(ValueError, match="at least one Jets entry"):
            jets_stack(items)
    x, = variables([0.5], 2)
    mixed = jets_stack([2.0, x])
    assert np.array_equal(mixed.coeffs[0], constant(2.0, x.space).coeffs)


def test_jets_stack_rejects_mixed_spaces():
    # both spaces hold 6 coefficients, so a stack would read t as y
    plain = variables([0.1, 0.2], 2)[0]
    param = variables([0.3], 2, param=True)[1]
    assert plain.space.size == param.space.size
    for pair in ([plain, param], [param, plain],
                 [variables([0.1, 0.2], 3)[0], param]):
        with pytest.raises(ValueError, match="incompatible spaces"):
            jets_stack(pair)
    with pytest.raises(ValueError, match="incompatible spaces"):
        jet_mul(plain, param)
    # jets of one space at different orders still stack, at the lower one
    x3, y3 = variables([0.1, 0.2], 3)
    assert jets_stack([x3, y3.truncate(1)]).space is space(2, 1)


#: (nvars, order, param): order 0, a lone parameter, and the largest spaces
TABLE_SPACES = [(1, 0, False), (3, 0, False), (1, 0, True), (2, 0, True),
                (1, 3, False), (2, 2, True), (3, 3, False), (4, 2, True),
                (5, 4, True), (7, 5, False), (8, 3, True)]


def brute_multi_indices(nvars, order, param):
    """``_multi_indices`` from every tuple below the caps: degree, then
    lexicographic."""
    nx = nvars - param
    ranges = [range(order + 1)] * nx + [range(2)] * param
    rows = [a for a in itertools.product(*ranges) if sum(a[:nx]) <= order]
    return sorted(rows, key=lambda a: (sum(a[:nx]), a))


@pytest.mark.parametrize("nvars, order, param", TABLE_SPACES)
def test_tables_match_brute_force(nvars, order, param):
    from scipy import sparse

    spc = space(nvars, order, param)
    rows = brute_multi_indices(nvars, order, param)
    assert [tuple(m) for m in spc.mindex.tolist()] == rows
    pos = {m: i for i, m in enumerate(rows)}
    nx = nvars - param
    # positions of random multi-indices, in and beyond the budget
    probe = np.random.default_rng(nvars).integers(-1, order + 3, size=(200, nvars))
    assert spc.positions(probe).tolist() == [pos.get(tuple(a), -1)
                                             for a in probe.tolist()]
    # every pair within the budget, in order, at the dict position of its sum
    ii, jj, scatter = spc.mul_tables()
    pairs = [(i, j) for i, a in enumerate(rows) for j, b in enumerate(rows)
             if sum(a[:nx]) + sum(b[:nx]) <= order and (not param or a[-1] + b[-1] <= 1)]
    assert list(zip(ii.tolist(), jj.tolist())) == pairs
    kk = [pos[tuple(x + y for x, y in zip(rows[i], rows[j]))] for i, j in pairs]
    want = sparse.csr_matrix((np.ones(len(kk)), (kk, np.arange(len(kk)))),
                             shape=(spc.size, len(kk)))
    assert scatter.shape == want.shape and scatter.nnz == want.nnz
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(scatter, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    # d/dx_var gathers the coefficient of alpha + e_var, times alpha_var + 1
    for var in range(nvars):
        if var < nx and order == 0:
            continue
        target, src, scale = spc.deriv_tables(var)
        for t, alpha in enumerate(target.mindex.tolist()):
            up = tuple(a + (v == var) for v, a in enumerate(alpha))
            assert (src[t], scale[t]) == ((pos[up], alpha[var] + 1) if up in pos
                                          else (0, 0.0))


def test_multi_indices_are_cached_and_read_only():
    table = _multi_indices(5, 4, True)
    assert table is _multi_indices(5, 4, True)
    assert space(5, 4, param=True).mindex is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_jet_trace_reorders_batch():
    rng = np.random.default_rng(3)
    spc = space(2, 2)
    A = Jets(spc, rng.normal(size=(3, 3, spc.size)))
    tr = jet_trace(A, "aa->")
    assert np.allclose(tr.coeffs, A.coeffs.trace(axis1=0, axis2=1))
    flip = jet_trace(A, "ab->ba")
    assert np.allclose(flip.coeffs, A.coeffs.transpose(1, 0, 2))


def test_compose_chain_rule():
    # y(x) = (x0^2 + x1, sin x1); F(y) = exp(y0) * y1
    point = [0.3, 0.8]

    def inner0(xs):
        return xs[0] ** 2 + xs[1]

    def inner1(xs):
        return xs[1].sin()

    def full(xs):
        return inner0(xs).exp() * inner1(xs)

    order = 3
    y = [jet_of(inner0, point, order), jet_of(inner1, point, order)]
    F = jet_of(lambda ys: ys[0].exp() * ys[1],
               [y[0].value, y[1].value], order)
    got = Composer(jets_stack(y))(F)
    want = jet_of(full, point, order)
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-10)


@pytest.mark.parametrize("param", [False, True], ids=["plain", "parameter"])
@pytest.mark.parametrize("sequence, builds", [([4, 3, 2, 1, 0], 1),
                                              ([2, 0, 4, 3, 1], 2)])
def test_composer_reads_lower_orders_off_one_table(monkeypatch, param,
                                                   sequence, builds):
    # sources of orders 0-4 pulled through one Composer: each lower pull
    # reads a prefix block of the one table per source family, byte for
    # byte what a fresh table built at the source's own order gives
    from qgeo.scenes import random_scene
    sc = random_scene(4, 5, 3)
    coords = sc.patch.jets(sc.point, PACK_ORDER + 1, param=param)
    rng = np.random.default_rng(11)
    sources = {}
    for r in range(PACK_ORDER + 1):
        spc = space(sc.n + param, r, param)
        sources[r] = Jets(spc, rng.normal(size=(3, spc.size)))
    want = {r: Composer(coords)(f) for r, f in sources.items()}
    tables = []
    monomial_table = jets.monomial_table
    monkeypatch.setattr(jets, "monomial_table", lambda *a: (
        tables.append(a[1].order) or monomial_table(*a)))
    pull = Composer(coords)
    for r in sequence:
        got = pull(sources[r])
        assert got.space is want[r].space
        assert np.array_equal(got.coeffs, want[r].coeffs), r
    assert len(tables) == builds
    assert tables[-1] == PACK_ORDER


def test_nilpotent_parameter_linearizes():
    # f(x + t) expanded with a first-order parameter keeps d/dt but kills t^2
    xs = variables([0.6], 3, param=True)
    x, t = xs
    f = (x + t).exp()
    assert np.allclose((t * t).coeffs, 0.0)
    e = math.exp(0.6)
    assert f.coeff([0, 0]) == pytest.approx(e)
    assert f.coeff([0, 1]) == pytest.approx(e)        # d/dt at t=0
    assert f.coeff([2, 1]) == pytest.approx(e / 2.0)  # x^2 t coefficient
    # t has degree 0: the t coefficient keeps the full spatial order
    assert f.coeff([3, 1]) == pytest.approx(e / 6.0)


def test_division_and_power():
    x, = variables([1.7], 4)
    f = (x ** 3 - 2.0) / (x + 0.5)
    direct = jet_of(lambda xs: (xs[0] ** 3 - 2.0) / (xs[0] + 0.5), [1.7], 4)
    assert np.allclose(f.coeffs, direct.coeffs, atol=1e-12)
    assert np.allclose((x ** -2).coeffs, (1.0 / (x * x)).coeffs, atol=1e-12)


@pytest.mark.parametrize("members", [False, True], ids=["batched", "members"])
def test_zeroth_power_keeps_the_batch_and_members(members):
    # x ** 0 is the ones of x's batch and members, as x ** 2 has them
    spc = space(2, 2)
    rng = np.random.default_rng(37)
    base = (jets.jets_members([Jets(spc, rng.normal(size=(2, 2, spc.size)))
                               for _ in range(3)]) if members
            else Jets(spc, rng.normal(size=(2, 2, spc.size))))
    got, square = base ** 0, base ** 2
    assert (got.members, got.batch) == (square.members, square.batch)
    assert got.coeffs.shape == square.coeffs.shape == base.coeffs.shape
    assert np.array_equal(got.value, np.ones(base.value.shape))
    assert not got.coeffs[..., 1:].any()
    assert repr(got) == repr(base)


def test_domain_errors():
    x, = variables([-1.0], 2)
    with pytest.raises(FloatingPointError):
        x.sqrt()
    with pytest.raises(FloatingPointError):
        x.log()
    z = constant(0.0, x.space)
    with pytest.raises(ZeroDivisionError):
        z.reciprocal()


@pytest.mark.parametrize("value", [np.nan, [1.0, np.nan]], ids=["scalar", "batch"])
@pytest.mark.parametrize("fn,error,message", [
    pytest.param("sqrt", FloatingPointError, "sqrt of non-positive or NaN", id="sqrt"),
    pytest.param("log", FloatingPointError, "log of non-positive or NaN", id="log"),
    pytest.param("reciprocal", ZeroDivisionError,
                 "reciprocal of zero or NaN jet value", id="reciprocal"),
])
def test_nan_values_are_domain_errors(fn, error, message, value):
    # NaN <= 0 and NaN == 0 are false, so each guard must ask for every
    # value to be inside its domain
    with pytest.raises(error, match=f"^{message}"):
        getattr(constant(value, space(2, 2)), fn)()


@pytest.mark.parametrize("divisor", [
    0.0, -0.0, 0, np.nan, np.array([1.0, 0.0]), np.array([np.nan, 2.0]),
], ids=["zero", "minus-zero", "int-zero", "nan", "batch-zero", "batch-nan"])
def test_division_by_zero_or_nan_numbers_is_a_domain_error(divisor):
    # a number divisor fails as a zero-valued jet divisor does, by name,
    # not with inf or NaN coefficients behind a RuntimeWarning
    x = jets_stack(variables([0.3, 0.4], 2))
    with pytest.raises(ZeroDivisionError, match="^division of jets by zero or NaN$"):
        x / divisor


def test_incompatible_spaces_rejected():
    a, = variables([0.0], 2)
    b, _ = variables([0.0, 0.0], 2)
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize("point", [
    np.array([np.longdouble(1) / 3, np.longdouble(2) / 7]),
    np.array([1.0 / 3, 2.0 / 7]),
    np.array([1, -2]),
], ids=["longdouble", "float64", "int"])
def test_variables_keep_the_point_float_type(point):
    want = np.result_type(point, float)
    for param in (False, True):
        xs = variables(point, 3, param=param)
        assert [x.coeffs.dtype for x in xs] == [want] * (2 + param)
        assert [x.value for x in xs[:2]] == list(point.astype(want))
        # the unit monomials are exact in any float type
        assert xs[0].coeff((1, 0) + (0,) * param) == 1.0
    assert variables([np.longdouble(1) / 3], 2)[0].value == np.longdouble(1) / 3


# -- monomial tables skip only exact zeros -----------------------------------


def full_pair_table(x, msrc):
    """``monomial_table`` over every coefficient pair of each product: the
    recurrence ``x^alpha = x^(alpha - e_j) * x_j`` by ``jet_mul``."""
    mindex = msrc.mindex
    table = np.zeros((msrc.size, x.space.size), x.coeffs.dtype)
    table[0, 0] = 1.0
    deg = mindex.sum(axis=1)
    first = np.argmax(mindex > 0, axis=1)
    prev = msrc.positions(mindex - np.eye(msrc.nvars, dtype=np.int64)[first])
    for d in range(1, int(deg.max(initial=0)) + 1):
        rows = np.nonzero(deg == d)[0]
        table[rows] = jet_mul(Jets(x.space, table[prev[rows]]), x[first[rows]]).coeffs
    return table


def _table_scenes():
    from qgeo.scenes import catalog, random_scene
    out = [random_scene(k, n, 11) for k in range(2, 5) for n in range(4, 8) if k < n]
    for name, build in catalog().items():
        if name not in ("random", "affine-plane", "equatorial-sphere"):
            out.append(build())
    return out


@pytest.mark.parametrize("param", [False, True], ids=["plain", "parameter"])
def test_monomial_tables_equal_the_full_pair_tables(param):
    # the displacements along every chart, at each order a Composer builds
    # a table at
    for sc in _table_scenes():
        X, _ = sc.patch.chart(sc.point, param=param)
        disp = X.coeffs.copy()
        disp[:, 0] = 0.0
        for order in (PACK_ORDER, PACK_ORDER + 1):
            x = Jets(X.space, disp).truncate(order)
            msrc = space(sc.n + param, order, param)
            got = jets.monomial_table(x, msrc)
            assert got.tobytes() == full_pair_table(x, msrc).tobytes(), sc.name
    # constant terms (no pair skipped), and long double displacements
    rng = np.random.default_rng(5)
    x = Jets(space(3, 4), rng.normal(size=(2, 35)))
    assert jets.monomial_table(x, space(2, 4)).tobytes() == (
        full_pair_table(x, space(2, 4)).tobytes())
    x = Jets(x.space, np.where(x.space.degree > 0, x.coeffs, 0.0) / np.longdouble(3))
    got = jets.monomial_table(x, space(2, 4))
    assert got.dtype == np.longdouble
    assert got.tobytes() == full_pair_table(x, space(2, 4)).tobytes()


def test_monomial_table_steps_skip_pairs_in_the_recipe(monkeypatch):
    # the t4-in-s7 table at PACK_ORDER: degree step d keeps the pairs of an
    # order-(d - 1) power and a displacement, at least of degrees d - 1 and
    # 1, through the recipe of the one product of each step
    from qgeo.scenes import t4_in_s7
    sc = t4_in_s7()
    X, _ = sc.patch.chart(sc.point)
    disp = X.truncate(PACK_ORDER).coeffs.copy()
    disp[:, 0] = 0.0
    pairs = []
    recipe = jets._recipe
    monkeypatch.setattr(jets, "_recipe", lambda *args: (
        pairs.append(len(recipe(*args).ii)) or recipe(*args)))
    jets.monomial_table(Jets(X.truncate(PACK_ORDER).space, disp), space(7, PACK_ORDER))
    assert len(space(4, PACK_ORDER).mul_tables()[0]) == 495
    assert pairs == [425, 356, 220, 80]
