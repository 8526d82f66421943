"""Ambient curvature at a point: Riemann through Bach, with derivatives.

Everything is computed in jet arithmetic from the metric component jets, so
covariant derivatives are exact (no finite differencing).  The curvature
conventions are:

* ``[nabla_a, nabla_b] tau_c = R_{abc}{}^d tau_d``
* ``Ric_{ab} = R_{acb}{}^c``, scalar ``R = g^{ab} Ric_{ab}``
* Schouten ``P = (Ric - J g)/(n-2)`` with trace ``J = R/(2(n-1))``
* ``W_{abcd} = R_{abcd} - P_{ac} g_{bd} - P_{bd} g_{ac} + P_{ad} g_{bc}
  + P_{bc} g_{ad}``
* Cotton ``C_{abc} = nabla_a P_{bc} - nabla_b P_{ac}``
* Bach ``B_{ab} = nabla^c C_{cab} + W_{acbd} P^{cd}``

With these choices the unit round sphere has ``R_{abcd} = g_{ac} g_{bd} -
g_{ad} g_{bc}`` and positive scalar curvature.  A product summed with a
derivative is formed at the derivative's order, so no dropped coefficient
is computed: Riemann from the product-free first-kind ``Gamma_{d,ab}`` and
one ``Gamma Gamma`` product.  The inverse metric and the Christoffel
symbols are built two orders below the metric, the order at which that
product and the Ricci trace read them (:class:`CurvaturePack`).  ``J``
(dimension >= 2), Schouten and Weyl (>= 3) are built on first read, so the
pack also serves the induced metric of a curve or a surface.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .fields import GeometryError
from .jets import Jets, constant, jet_einsum, jet_trace

__all__ = [
    "CurvaturePack",
    "christoffel_jets",
    "connection_deriv",
    "cov_deriv_jets",
    "raise_both",
    "riemann_jets",
    "inverse_metric_jets",
    "weyl_jets",
    "ambient_identity_residuals",
]


def inverse_metric_jets(G: Jets) -> Jets:
    """Jet-valued inverse of a metric component batch (n, n).

    Newton's step ``X <- X (2 I - G X)`` doubles the degree through which
    ``X`` is exact, to ``2^s - 1`` after step ``s``; so step ``s`` updates
    in place only that prefix of ``X`` (the pack's order 2: orders 1, then
    all), until it covers ``top_degree`` (one more on a parameter space).
    Each member of a member axis is seeded with its own inverse.
    """
    two_eye = 2.0 * np.eye(G.batch[0])
    X = constant(np.linalg.inv(G.value), G.space, bool(G.members))
    exact = 0
    while exact < G.space.top_degree:
        exact = 2 * exact + 1
        Gs, Xs = G.truncate(exact), X.truncate(exact)
        Xs.coeffs[...] = jet_einsum("ab,bc->ac", Xs, two_eye
                                    - jet_einsum("ab,bc->ac", Gs, Xs)).coeffs
    return X


def _first_kind(G: Jets) -> Jets:
    """Christoffel symbols of the first kind ``Gamma[d, a, b] = Gamma_{d,ab}``."""
    dG = G.gradient()  # d_c g_{ab}
    return 0.5 * (jet_trace(dG, "adb->dab") + jet_trace(dG, "bda->dab") - dG)


def christoffel_jets(first: Jets, Ginv: Jets) -> Jets:
    """Levi-Civita connection components ``Gamma[a, b, c] = Gamma^c_{ab}``
    from the first-kind symbols ``first`` of :func:`_first_kind`, in the
    layout :func:`connection_deriv` reads."""
    return jet_einsum("cd,dab->abc", Ginv, first)


def riemann_jets(first: Jets, Gamma: Jets) -> Jets:
    """Lowered ``R_{abcd}`` at the order of ``d Gamma``, from one product.

    ``R_{abcd} = Y_{abcd} - Y_{bacd}`` with ``Y_{abcd} = Gamma_{e,ad}
    Gamma^e_{bc} - d_a Gamma_{d,bc}`` (first kind ``first[d, a, b] =
    Gamma_{d,ab}``): the lowered ``R_{abc}{}^e g_{ed}`` expanded with
    ``d_a g_{ed} = Gamma_{e,ad} + Gamma_{d,ae}``.
    """
    dfirst = first.gradient()
    Y = (jet_einsum("ead,bce->abcd", first.truncate(dfirst.order), Gamma)
         - jet_trace(dfirst, "adbc->abcd"))
    return Y - jet_trace(Y, "bacd->abcd")


def connection_deriv(T: Jets, connections) -> Jets:
    """Covariant derivative of an all-lowered tensor jet batch; new slot
    comes first.

    ``connections`` holds one connection per batch axis of ``T``, in the
    layout ``A[a, slot, z]``; each slot subtracts ``A[a, b, z] T_z``.  The
    corrections are formed at the order of ``d T``.
    """
    letters = "bcdefghij"[: len(connections)]
    parts = T.gradient()
    T = T.truncate(parts.order)
    for j, A in enumerate(connections):
        tsub = letters[:j] + "z" + letters[j + 1:]
        parts = parts - jet_einsum(f"a{letters[j]}z,{tsub}->a{letters}", A, T)
    return parts


def cov_deriv_jets(T: Jets, Gamma: Jets) -> Jets:
    """Levi-Civita covariant derivative of an all-lowered tensor; new slot
    comes first.  ``Gamma`` is laid out as :func:`christoffel_jets` stores it."""
    return connection_deriv(T, [Gamma] * len(T.batch))


def weyl_jets(rm: Jets, P: Jets, g: Jets) -> Jets:
    """Weyl ``Rm - P (Kulkarni-Nomizu) g``: one product ``X = P_{ac} g_{bd}``,
    whose transposes ``X_{badc}``, ``X_{abdc}``, ``X_{bacd}`` are the rest."""
    X = jet_einsum("ac,bd->abcd", P, g)
    return (rm - X - jet_trace(X, "badc->abcd") + jet_trace(X, "abdc->abcd")
            + jet_trace(X, "bacd->abcd"))


def raise_both(T: Jets, g_up: Jets) -> Jets:
    """Both indices of a 2-tensor raised with the inverse metric ``g_up``."""
    up1 = jet_einsum("ac,cb->ab", g_up, T)
    return jet_einsum("bd,ad->ab", g_up, up1)


class CurvaturePack:
    """All curvature objects of one metric at one evaluation point, as jets.

    Each quantity is built at the order its consumers read.  From the
    metric ``g`` at ``G.order`` (``PACK_ORDER``), the first-kind symbols
    lose one order and Riemann, Ricci, ``J``, Schouten and Weyl one more,
    ``G.order - 2``: the order ``dcotton`` needs, since it differentiates
    Schouten twice and Bach reads it at order 0.  The inverse metric
    ``g_up`` and the Christoffel symbols ``gamma`` are built at that order
    too: Riemann's one ``Gamma Gamma`` product and the Ricci trace read them
    there, and so does the pullback of ``gamma`` into the second
    fundamental form.  ``J`` (dimension >= 2), Schouten and Weyl (>= 3),
    covariant derivatives, Cotton and Bach (one and two orders lower) are
    built on first read and cached, so a pack that is never asked for Bach
    skips it; below its dimension each raises a :class:`GeometryError`.
    The dimension ``n`` is read from the batch (n, n) of ``G``, not from
    its space (n + 1 variables with ``t``).
    """

    def __init__(self, G: Jets):
        self.dim = G.batch[0]
        self.g = G
        self.g_up = inverse_metric_jets(G.truncate(G.order - 2))
        first = _first_kind(G)
        self.gamma = christoffel_jets(first, self.g_up)
        self.rm = riemann_jets(first, self.gamma)
        self.ric = jet_einsum("acbd,cd->ab", self.rm, self.g_up)
        self.scal = jet_einsum("ab,ab->", self.ric, self.g_up)

    @cached_property
    def jtrace(self) -> Jets:
        if self.dim < 2:
            raise GeometryError("curvature trace J needs dimension >= 2")
        return self.scal * (1.0 / (2.0 * (self.dim - 1)))

    @cached_property
    def schouten(self) -> Jets:
        if self.dim < 3:
            raise GeometryError("Schouten tensor needs dimension >= 3")
        return (self.ric - jet_einsum(",ab->ab", self.jtrace, self.g)) * (
            1.0 / (self.dim - 2))

    @cached_property
    def weyl(self) -> Jets:
        return weyl_jets(self.rm, self.schouten, self.g)

    def cov_deriv(self, T: Jets) -> Jets:
        return cov_deriv_jets(T, self.gamma)

    @cached_property
    def dschouten(self) -> Jets:
        return self.cov_deriv(self.schouten)

    @cached_property
    def cotton(self) -> Jets:
        dP = self.dschouten
        return dP - jet_trace(dP, "bac->abc")

    @cached_property
    def dcotton(self) -> Jets:
        return self.cov_deriv(self.cotton)

    @cached_property
    def bach(self) -> Jets:
        dC = self.dcotton
        P_up = raise_both(self.schouten.truncate(dC.order), self.g_up)
        return (jet_einsum("ec,ecab->ab", self.g_up, dC)
                + jet_einsum("acbd,cd->ab", self.weyl, P_up))

    @cached_property
    def dweyl(self) -> Jets:
        return self.cov_deriv(self.weyl)

    @cached_property
    def driemann(self) -> Jets:
        return self.cov_deriv(self.rm)


# -- identity residuals --------------------------------------------------


def _rel(resid: np.ndarray, *inputs: np.ndarray) -> float:
    """``|resid|`` relative to one plus the largest input entry; a NaN in
    any input is the result."""
    scale = 1.0 + float(np.max([np.max(np.abs(x)) for x in inputs], initial=0.0))
    return float(np.max(np.abs(resid))) / scale


def _antisym(arr: np.ndarray, axes) -> np.ndarray:
    out = np.zeros_like(arr)
    base = list(range(arr.ndim))
    for perm in permutations(axes):
        sign = _perm_sign(axes, perm)
        full = list(base)
        for tgt, src in zip(axes, perm):
            full[tgt] = src
        out += sign * np.transpose(arr, full)
    return out / math.factorial(len(axes))


def _perm_sign(ref, perm) -> float:
    """The sign of ``perm`` as a reordering of ``ref``: the parity of its
    inversions."""
    order = [list(ref).index(p) for p in perm]
    return (-1.0) ** sum(i > j for i, j in combinations(order, 2))


def ambient_identity_residuals(pack: CurvaturePack) -> dict:
    """Max-norm residuals (relative) of the curvature identities.

    Covers the Riemann symmetries, both Bianchi identities, the trace-free
    and symmetry properties of Weyl/Cotton/Bach, the divergence relation
    between Weyl and Cotton, and the Weyl–Bianchi exchange identity.
    """
    n = pack.dim
    g = pack.g.value
    gi = pack.g_up.value
    rm = pack.rm.value
    W = pack.weyl.value
    C = pack.cotton.value
    B = pack.bach.value
    dW = pack.dweyl.value
    dRm = pack.driemann.value
    out = {}
    out["riemann_antisym_ab"] = _rel(rm + rm.transpose(1, 0, 2, 3), rm)
    out["riemann_antisym_cd"] = _rel(rm + rm.transpose(0, 1, 3, 2), rm)
    out["riemann_pair_sym"] = _rel(rm - rm.transpose(2, 3, 0, 1), rm)
    out["first_bianchi"] = _rel(_antisym(rm, [0, 1, 2]), rm)
    out["second_bianchi"] = _rel(_antisym(dRm, [0, 1, 2]), dRm)
    out["weyl_trace"] = _rel(np.einsum("acbd,cd->ab", W, gi), W)
    out["cotton_trace"] = _rel(np.einsum("bac,bc->a", C, gi), C)
    out["cotton_antisym3"] = _rel(_antisym(C, [0, 1, 2]), C)
    out["bach_trace"] = _rel(np.einsum("ab,ab->", B, gi), B)
    out["bach_antisym"] = _rel(B - B.T, B)
    div_w = np.einsum("ef,eabfc->abc", gi, dW)
    out["weyl_divergence"] = _rel(div_w - (n - 3) * C, div_w, C)
    # nabla_[a W_bc]^{de} = -2 C_[ab^[d g_c]^e]
    dW_up = np.einsum("abcef,ed,fg->abcdg", dW, gi, gi)
    lhs = _antisym(dW_up, [0, 1, 2])
    eye = np.eye(n)
    rhs = np.einsum("abd,ce->abcde", np.einsum("abf,fd->abd", C, gi), eye)
    rhs = _antisym(_antisym(rhs, [0, 1, 2]), [3, 4])
    out["weyl_bianchi"] = _rel(lhs + 2.0 * rhs, lhs)
    return out
