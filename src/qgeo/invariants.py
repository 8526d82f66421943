"""Scalar conformal submanifold invariants and extrinsic Q-curvature.

Every quantity is assembled from a ``SubmanifoldPack`` with two-operand
jet contractions, so results stay valid as truncated Taylor expansions —
in particular the trailing linearization parameter (when the pack was
built with ``param=True``) flows through every invariant untouched.

Quantities with more than one published closed form keep each form as a
separate code path (``route=...``) so agreement between them is a real
cross-check rather than a tautology.  ``REGISTRY`` alone declares each
scalar's domain in (k, n), weight and conformal class; ``_require`` is the
one check of that domain, so the other guards here are of routes and poles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .ambient import raise_both
from .fields import GeometryError
from .jets import Jets, jet_einsum, jet_trace
from .submanifold import SubmanifoldPack, per_pack

__all__ = [
    "InvariantSpec",
    "REGISTRY",
    "available",
    "evaluate",
    "evaluate_all",
    "div_shape_weyl_a",
    "div_shape_weyl_b",
    "fialkow_quartic",
    "fialkow_quartic_parts",
    "weyl_trace_quartic",
    "weyl_trace_quartic_parts",
    "weyl_trace_quartic_scaled",
    "tracefree_quartic_combo",
    "intrinsic_q4",
    "q4_extrinsic_correction",
    "extrinsic_q4",
    "gauss_bonnet_defect",
    "extrinsic_q2",
    "intrinsic_pfaffian",
    "q4_divergence_flux",
    "willmore_quartic",
    "transverse_weyl_quartic_a",
    "transverse_weyl_quartic_b",
    "anomaly_quartic_a",
    "anomaly_quartic_b",
    "minimal_einstein_fialkow_quartic",
    "minimal_einstein_weyl_trace_quartic",
    "intrinsic_paneitz_apply",
    "extrinsic_paneitz_apply",
    "factored_paneitz_apply",
    "PANEITZ_FLUX_SIGN",
]


# -- shared contraction helpers ---------------------------------------------


@per_pack
def _l0_mixed(p) -> Jets:
    # second slot raised: L0[a, ^b, r]
    return jet_einsum("acr,cb->abr", p.second_tracefree, p.induced_inv)


@per_pack
def _w_tn_trace(p) -> Jets:
    """``W[a, r] = W_{a b r}{}^{b}`` (tangent, normal)."""
    return jet_einsum("abrc,bc->ar", p.block("weyl", "ttnt"), p.induced_inv)


@per_pack
def _deflection_up(p) -> Jets:
    return jet_einsum("ab,br->ar", p.induced_inv, p.normal_deflection)


@per_pack
def _up2(p, attr: str) -> Jets:
    """The pack's symmetric 2-tensor ``attr`` with both indices raised."""
    return raise_both(getattr(p, attr), p.induced_inv)


@per_pack
def _pair(p, a: str, b: str) -> Jets:
    """``A_{ab} B^{ab}`` of the pack's 2-tensors ``a`` and ``b``."""
    return jet_einsum("ab,ab->", getattr(p, a), _up2(p, b))


@per_pack
def _trace(p, attr: str) -> Jets:
    """Induced trace of the pack's 2-tensor ``attr``."""
    return jet_einsum("ab,ab->", p.induced_inv, getattr(p, attr))


@per_pack
def _deflection_norm2(p) -> Jets:
    return jet_einsum("ar,ar->", p.normal_deflection, _deflection_up(p))


@per_pack
def _shape_times_deflection(p) -> Jets:
    """``V_a = D^{b r} L0_{a b r}`` (down tangent vector)."""
    return jet_einsum("br,abr->a", _deflection_up(p), p.second_tracefree)


@per_pack
def _div_shape_deflection(p) -> Jets:
    return p.divergence(_shape_times_deflection(p))


@per_pack
def _div_shape_weyl_trace(p) -> Jets:
    """The divergence term of :func:`div_shape_weyl_b`."""
    return p.divergence(jet_einsum("abr,br->a", _l0_mixed(p), _w_tn_trace(p)))


@per_pack
def _deflection_dot_weyl(p) -> Jets:
    """``D^{a r} W_{a r}`` against the tangent-normal Weyl trace."""
    return jet_einsum("ar,ar->", _deflection_up(p), _w_tn_trace(p))


@per_pack
def _shape_dot_mc_cotton(p) -> Jets:
    """``L0^{a b r} C_{a r b}`` against the corrected Cotton block."""
    return jet_einsum("abr,arb->", p.second_tracefree_up,
                      p.block("mc_cotton", "tnt"))


@per_pack
def _gradient(p, name: str) -> Jets:
    """Tangential gradient of the pack scalar ``name``."""
    return p.tangential_gradient(getattr(p, name))


@per_pack
def _laplacian(p, name: str) -> Jets:
    """Tangential Laplacian of the pack scalar ``name``."""
    return p.divergence(_gradient(p, name))


@per_pack
def _fialkow_flux_div(p) -> Jets:
    """Divergence of the Fialkow flux ``mc_cotton_trace - D^{b r} L0_{a b r}``."""
    return p.divergence(p.mc_cotton_trace - _shape_times_deflection(p))


def _ratio_k3n4(k: int, n: int, extend: bool) -> float:
    """``(k - 3) / (n - 4)``, continued to 1 at (k=3, n=4) when requested."""
    if n == 4:
        if k == 3 and extend:
            return 1.0
        raise GeometryError(
            "background dimension 4 puts this scalar on its pole; "
            "pass extend=True only in the 3-in-4 case")
    return (k - 3) / (n - 4)


def _inv_n4(n: int) -> float:
    """``1 / (n - 4)`` with a domain guard."""
    if n == 4:
        raise GeometryError(
            "background dimension 4 puts this scalar on its pole")
    return 1.0 / (n - 4)


# -- the two divergence-type invariants --------------------------------------


@per_pack
def div_shape_weyl_a(p: SubmanifoldPack, route: str = "divergence") -> Jets:
    """Weight -4 invariant coupling the trace-free shape to the Weyl tensor.

    ``route='divergence'`` evaluates the defining total-divergence form;
    ``route='expanded'`` evaluates the expanded form with the derivative
    moved onto the Weyl factor.  The two must agree identically.
    """
    k = p.k
    l0u, w4 = p.second_tracefree_up, p.block("weyl", "ttnt")
    coupling = _shape_dot_mc_cotton(p)
    if route == "divergence":
        V = jet_einsum("bcr,abrc->a", l0u, w4)
        return p.divergence(V) + (k - 4) * coupling
    if route == "expanded":
        t1 = jet_einsum("bcr,brc->", l0u, p.divergence(w4, "ttnt"))
        t2 = 0.5 * _w_ttnt_norm2(p)
        return t1 + t2 + _deflection_dot_weyl(p) + (k - 4) * coupling
    raise ValueError(f"unknown route {route!r}")


@per_pack
def div_shape_weyl_b(p: SubmanifoldPack, route: str = "divergence") -> Jets:
    """Weight -4 companion built from the normal-traced Weyl block.

    Vanishes identically in codimension one.
    """
    k = p.k
    if route == "divergence":
        return _div_shape_weyl_trace(p) + (k - 4) * _deflection_dot_weyl(p)
    if route == "expanded":
        dwtn = p.tangential_cov_deriv(_w_tn_trace(p), "tn")
        t1 = jet_einsum("abr,abr->", p.second_tracefree_up, dwtn)
        return t1 - 3.0 * _deflection_dot_weyl(p) - _wtn_square(p)
    raise ValueError(f"unknown route {route!r}")


# -- the Fialkow-based quartic invariant --------------------------------------


def fialkow_quartic_parts(p: SubmanifoldPack):
    """The three second-order building blocks whose combination is invariant."""
    k, n = p.k, p.n
    if k < 2:
        raise GeometryError("parts decomposition needs k >= 2")
    G = p.fialkow_trace
    Ptr = _trace(p, "mc_schouten")
    part1 = (k - 1) * (-_laplacian(p, "fialkow_trace") + (k - 4) * G * Ptr)
    part2 = (_fialkow_flux_div(p)
             + 0.5 * (k - 4) * _inv_n4(n) * _trace(p, "mc_bach")
             - 0.5 * (k - 4) * _deflection_norm2(p))
    body = p.tracefree_square - p.weyl_partial_trace
    part3 = (jet_einsum("ab,ab->", body, _up2(p, "mc_schouten"))
             - (k - 1) * G * Ptr
             + 0.5 * (k - 2) * _inv_n4(n) * _trace(p, "mc_bach")
             - 0.5 * (k - 2) * _deflection_norm2(p))
    return part1, part2, part3


@per_pack
def fialkow_quartic(p: SubmanifoldPack, route: str = "direct",
                    extend: bool = False) -> Jets:
    """Weight -4 invariant organized around the Fialkow trace.

    ``route='direct'`` is the single displayed formula (valid for every
    1 <= k < n with n != 4); ``route='parts'`` assembles the same scalar
    from the three separately-linearized pieces (needs k >= 2).
    """
    k, n = p.k, p.n
    if route == "parts":
        p1, p2, p3 = fialkow_quartic_parts(p)
        return p1 + (k - 6) * (p2 + p3)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    Ptr = _trace(p, "mc_schouten")
    if k >= 2:
        G = p.fialkow_trace
        head = (k - 1) * (-_laplacian(p, "fialkow_trace") + 2.0 * G * Ptr)
    else:
        # (k - 1) G vanishes identically for curves, and so does its gradient
        head = 0.0 * Ptr
    body = p.tracefree_square - p.weyl_partial_trace
    bracket = (jet_einsum("ab,ab->", body, _up2(p, "mc_schouten"))
               + _fialkow_flux_div(p)
               + _ratio_k3n4(k, n, extend) * _trace(p, "mc_bach")
               - (k - 3) * _deflection_norm2(p))
    return head + (k - 6) * bracket


def minimal_einstein_fialkow_quartic(p: SubmanifoldPack, lam: float) -> Jets:
    """Specialized form for minimal immersions in Einstein backgrounds."""
    k = p.k
    G = p.fialkow_trace
    return (k - 1) * (-_laplacian(p, "fialkow_trace") + 2.0 * lam * (k - 3) * G)


# -- the Weyl-trace quartic invariant -----------------------------------------


def weyl_trace_quartic_parts(p: SubmanifoldPack):
    k, n = p.k, p.n
    Wd = p.weyl_double_trace
    Ptr = _trace(p, "mc_schouten")
    part1 = -_laplacian(p, "weyl_double_trace") + (k - 4) * Wd * Ptr
    part2 = (p.divergence(p.mc_cotton_trace)
             + 0.5 * (k - 4) * _inv_n4(n) * _trace(p, "mc_bach"))
    mixed = p.weyl_partial_trace - 0.5 * (Wd * p.induced)
    part3 = (jet_einsum("ab,ab->", mixed, _up2(p, "mc_schouten"))
             - _shape_dot_mc_cotton(p) - _deflection_dot_weyl(p)
             - 0.5 * (k - 2) * _inv_n4(n) * _trace(p, "mc_bach"))
    return part1, part2, part3


def weyl_trace_quartic(p: SubmanifoldPack, route: str = "direct",
                       extend: bool = False) -> Jets:
    """Weight -4 invariant organized around the tangential Weyl trace.

    Evaluates to zero in codimension one.  ``route='parts'`` assembles it
    from the three separately-linearized pieces.
    """
    k, n = p.k, p.n
    if route == "parts":
        j1, j2, j3 = weyl_trace_quartic_parts(p)
        return j1 - 2.0 * (k - 6) * (j2 - j3)
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")
    ratio = _ratio_k3n4(k, n, extend)
    return (_weyl_trace_head(p)
            - 2.0 * (k - 6) * ratio * _trace(p, "mc_bach"))


def weyl_trace_quartic_scaled(p: SubmanifoldPack) -> Jets:
    """``(n - 4)`` times the Weyl-trace quartic; finite in every dimension."""
    k, n = p.k, p.n
    return ((n - 4) * _weyl_trace_head(p)
            - 2.0 * (k - 6) * (k - 3) * _trace(p, "mc_bach"))


@per_pack
def _weyl_trace_head(p) -> Jets:
    """The direct Weyl-trace quartic without its Bach term."""
    bracket = (p.divergence(p.mc_cotton_trace)
               - _pair(p, "weyl_partial_trace", "mc_schouten")
               + _deflection_dot_weyl(p) + _shape_dot_mc_cotton(p))
    return (-_laplacian(p, "weyl_double_trace")
            + 2.0 * p.weyl_double_trace * _trace(p, "mc_schouten")
            - 2.0 * (p.k - 6) * bracket)


def minimal_einstein_weyl_trace_quartic(p: SubmanifoldPack,
                                        lam: float) -> Jets:
    """Specialized form for minimal immersions in Einstein backgrounds."""
    Wd = p.weyl_double_trace
    return -_laplacian(p, "weyl_double_trace") + 2.0 * lam * (p.k - 3) * Wd


@per_pack
def tracefree_quartic_combo(p: SubmanifoldPack) -> Jets:
    """The pole-free combination (twice the Fialkow quartic plus the
    Weyl-trace quartic) in its single displayed form, valid in every
    background dimension including 4."""
    k = p.k
    l2 = p.tracefree_norm2
    Ptr = _trace(p, "mc_schouten")
    bracket = (_pair(p, "tracefree_square", "mc_schouten")
               - _div_shape_deflection(p)
               - (k - 3) * _deflection_norm2(p)
               - _deflection_dot_weyl(p) - _shape_dot_mc_cotton(p))
    return -_laplacian(p, "tracefree_norm2") + 2.0 * l2 * Ptr + 2.0 * (k - 6) * bracket


# -- Q-curvature family --------------------------------------------------------


@per_pack
def intrinsic_q4(p: SubmanifoldPack) -> Jets:
    """Fourth-order Q-curvature of the induced metric (any k >= 3)."""
    _require(p, "intrinsic_q4")
    J = p.intrinsic_jtrace
    P2 = _pair(p, "intrinsic_schouten", "intrinsic_schouten")
    return -_laplacian(p, "intrinsic_jtrace") - 2.0 * P2 + 0.5 * p.k * J * J


@per_pack
def q4_extrinsic_correction(p: SubmanifoldPack) -> Jets:
    """The extrinsic correction scalar; a pure divergence when k = 4."""
    _require(p, "q4_extrinsic_correction")
    k, n = p.k, p.n
    G = p.fialkow_trace
    FP = _pair(p, "fialkow", "mc_schouten")
    return ((k - 2) * _laplacian(p, "fialkow_trace")
            - (k - 6) * _fialkow_flux_div(p)
            - 2.0 * (k - 4) * G * _trace(p, "mc_schouten")
            - (k - 4) ** 2 * FP
            - (k - 4) * (k - 5) * _inv_n4(n) * _trace(p, "mc_bach")
            + (k - 4) * (k - 5) * _deflection_norm2(p))


def extrinsic_q4(p: SubmanifoldPack, route: str = "assembled") -> Jets:
    """Fourth-order extrinsic Q-curvature, 3 <= k < n, n != 4.

    Three routes: ``'assembled'`` sums the intrinsic part, the extrinsic
    correction, and the invariant remainder; ``'trace_expansion'``
    reproduces the scattering-operator expansion with the Fialkow terms
    kept explicit; ``'gauss_bonnet'`` (k = 4 only) rebuilds Q from twice
    the intrinsic Pfaffian, the pointwise defect, and the divergence flux.
    """
    _require(p, "extrinsic_q4")
    k, n = p.k, p.n
    if route == "assembled":
        G = p.fialkow_trace
        return (intrinsic_q4(p) + q4_extrinsic_correction(p)
                + fialkow_quartic(p)
                + 2.0 * _pair(p, "fialkow", "fialkow") - 0.5 * k * G * G)
    if route == "trace_expansion":
        G = p.fialkow_trace
        J = p.intrinsic_jtrace
        FP = _pair(p, "fialkow", "intrinsic_schouten")
        qtilde = (-_laplacian(p, "fialkow_trace")
                  - 2.0 * _pair(p, "fialkow", "fialkow")
                  + 0.5 * k * G * G - 4.0 * FP + k * G * J
                  - 2.0 * _inv_n4(n) * _trace(p, "mc_bach")
                  + 2.0 * _deflection_norm2(p))
        return intrinsic_q4(p) + qtilde
    if route == "gauss_bonnet":
        if k != 4:
            raise GeometryError("the Pfaffian route needs k = 4")
        return (2.0 * intrinsic_pfaffian(p) + gauss_bonnet_defect(p)
                - q4_divergence_flux(p))
    raise ValueError(f"unknown route {route!r}")


def q4_divergence_flux(p: SubmanifoldPack) -> Jets:
    """The total divergence split off from the critical Q-curvature (k=4)."""
    if p.k != 4:
        raise GeometryError("the divergence split is the k = 4 case")
    V = (_gradient(p, "intrinsic_jtrace") - 2.0 * _gradient(p, "fialkow_trace")
         - 2.0 * p.mc_cotton_trace + 2.0 * _shape_times_deflection(p))
    return p.divergence(V)


@per_pack
def _intrinsic_weyl_norm2(p) -> Jets:
    return p.norm2(p.intrinsic_weyl, "tttt")


def intrinsic_pfaffian(p: SubmanifoldPack) -> Jets:
    """Pfaffian density of the induced metric for k in {2, 4}.

    Normalized so that integrating ``c_k`` times it over a closed surface
    or 4-manifold gives the Euler characteristic; for k = 2 it equals the
    Gauss curvature.
    """
    _require(p, "intrinsic_pfaffian")
    if p.k == 2:
        return p.intrinsic_jtrace
    J = p.intrinsic_jtrace
    P2 = _pair(p, "intrinsic_schouten", "intrinsic_schouten")
    return 0.5 * (0.25 * _intrinsic_weyl_norm2(p) - 2.0 * P2 + 2.0 * J * J)


def gauss_bonnet_defect(p: SubmanifoldPack) -> Jets:
    """Pointwise conformally invariant defect in Q = Pfaffian + defect - div.

    Weight -2 for surfaces (half the trace-free shape norm minus the
    tangential Weyl component), weight -4 for k = 4.
    """
    _require(p, "gauss_bonnet_defect")
    if p.k == 2:
        return 0.5 * p.tracefree_norm2 - 0.5 * p.weyl_double_trace
    G = p.fialkow_trace
    return (-0.25 * _intrinsic_weyl_norm2(p) + fialkow_quartic(p)
            + 2.0 * _pair(p, "fialkow", "fialkow") - 2.0 * G * G)


def extrinsic_q2(p: SubmanifoldPack) -> Jets:
    """Second-order extrinsic Q-curvature of a surface."""
    _require(p, "extrinsic_q2")
    return p.intrinsic_jtrace + gauss_bonnet_defect(p)


# -- Paneitz-type operators ----------------------------------------------------


def _flux_div(p, M: Jets, grad: Jets) -> Jets:
    """``nabla^a (M_{ab} nabla^b phi)`` for a symmetric 2-tensor M, from the
    gradient ``grad`` of phi."""
    grad_up = jet_einsum("ab,b->a", p.induced_inv, grad)
    V = jet_einsum("ab,b->a", M, grad_up)
    return p.divergence(V)


#: Sign of the second-order flux term in the fourth-order operators,
#: ``Lap^2 phi + s * div((4 P - 2 J g) grad phi)``.  With ``s = +1`` the
#: critical law ``e^{4u} Q4[e^{2u} h] = Q4[h] + P4[u]`` holds; the test
#: suite shows that ``s = -1`` breaks it.
PANEITZ_FLUX_SIGN = 1.0


def _intrinsic_paneitz(p, grad: Jets) -> Jets:
    """:func:`intrinsic_paneitz_apply` from the gradient of its operand."""
    lap2 = p.tangential_laplacian(p.divergence(grad))
    J = p.intrinsic_jtrace
    M = 4.0 * p.intrinsic_schouten - 2.0 * (J * p.induced)
    return lap2 + PANEITZ_FLUX_SIGN * _flux_div(p, M, grad)


def intrinsic_paneitz_apply(p: SubmanifoldPack, phi: Jets) -> Jets:
    """Fourth-order intrinsic conformally covariant operator, k = 4."""
    if p.k != 4:
        raise GeometryError("intrinsic fourth-order operator needs k = 4")
    return _intrinsic_paneitz(p, p.tangential_gradient(phi))


def extrinsic_paneitz_apply(p: SubmanifoldPack, phi: Jets) -> Jets:
    """Extrinsic conformally covariant power of the Laplacian, k in {2, 4}.

    k = 2 gives minus the induced-metric Laplacian; k = 4 augments the
    intrinsic fourth-order operator by the Fialkow flux term.
    """
    if p.k == 2:
        return -p.tangential_laplacian(phi)
    if p.k == 4:
        grad = p.tangential_gradient(phi)
        G = p.fialkow_trace
        M = 4.0 * p.fialkow - 2.0 * (G * p.induced)
        return (_intrinsic_paneitz(p, grad)
                + PANEITZ_FLUX_SIGN * _flux_div(p, M, grad))
    raise GeometryError("extrinsic operator implemented for k in {2, 4}")


def factored_paneitz_apply(p: SubmanifoldPack, phi: Jets,
                           lam: float) -> Jets:
    """Product-of-shifted-Laplacians form valid for minimal immersions in
    Einstein backgrounds: prod_j (-Lap + lam (k/2+j-1)(k/2-j)) phi."""
    k = p.k
    if k % 2:
        raise GeometryError("factorization needs even k")
    out = phi
    for j in range(1, k // 2 + 1):
        shift = lam * (k / 2 + j - 1) * (k / 2 - j)
        out = -p.tangential_laplacian(out) + shift * out
    return out


# -- comparison invariants -----------------------------------------------------


@per_pack
def _w_ntnt_trace(p) -> Jets:
    """``W[r, s] = W_{r a s}{}^{a}`` (normal, normal)."""
    return jet_einsum("rasb,ab->rs", p.block("weyl", "ntnt"), p.induced_inv)


@per_pack
def _wtn_square(p) -> Jets:
    return p.norm2(_w_tn_trace(p), "tn")


@per_pack
def _w_ttnt_norm2(p) -> Jets:
    return p.norm2(p.block("weyl", "ttnt"), "ttnt")


@per_pack
def _shape_pair_weyl_tttt(p) -> Jets:
    """``L0^{a c r} L0^{b d}{}_r W_{a b c d}``."""
    l0u = p.second_tracefree_up
    T = jet_einsum("abcd,acr->bdr", p.block("weyl", "tttt"), l0u)
    return jet_einsum("bdr,bdr->", T, l0u)


@per_pack
def _shape_pair_weyl_ttnn(p) -> Jets:
    """``L0^{g a r} L0_g{}^{b s} W_{a b r s}``."""
    T = jet_einsum("gar,gbs->abrs", p.second_tracefree_up, _l0_mixed(p))
    return jet_einsum("abrs,abrs->", p.block("weyl", "ttnn"), T)


@per_pack
def _shape_pair_weyl_tntn(p) -> Jets:
    """``L0^{g a r} L0_g{}^{b s} W_{a r b s}``."""
    T = jet_einsum("gar,gbs->arbs", p.second_tracefree_up, _l0_mixed(p))
    return jet_einsum("arbs,arbs->", p.block("weyl", "tntn"), T)


@per_pack
def _shape_normal_gram(p) -> Jets:
    """``M[r, s] = L0^{a b r} L0_{a b s}`` (symmetric normal 2-tensor)."""
    return jet_einsum("abr,abs->rs", p.second_tracefree_up,
                      p.second_tracefree)


@per_pack
def _shape_gram_weyl_nn(p) -> Jets:
    """``M^{r s} W_{r s}``: the normal Gram matrix against the normal-normal
    Weyl trace."""
    return jet_einsum("rs,rs->", _shape_normal_gram(p), _w_ntnt_trace(p))


@per_pack
def _shape_quartic_alt(p) -> Jets:
    """``L0^{a b r} L0^{g d}{}_r L0_{a g s} L0_{b d}{}^s``."""
    l0u = p.second_tracefree_up
    X1 = jet_einsum("abr,gdr->abgd", l0u, l0u)
    X2 = jet_einsum("ags,bds->agbd", p.second_tracefree, p.second_tracefree)
    return jet_einsum("abgd,agbd->", X1, X2)


@per_pack
def _shape_gram_square(p) -> Jets:
    M = _shape_normal_gram(p)
    return jet_einsum("rs,sr->", M, M)


@per_pack
def _mean_shape_cubic(p) -> Jets:
    """``H^r tr L0^3_r``."""
    lm = _l0_mixed(p)
    Y = jet_einsum("abs,bcs->ac", lm, lm)
    tr3 = jet_einsum("ac,car->r", Y, lm)
    return jet_einsum("r,r->", tr3, p.mean_curvature)


@per_pack
def _mean_contracted_shape(p) -> Jets:
    """``T[a, b] = H^r L0^{a b}{}_r`` with both tangent slots up."""
    return jet_einsum("abr,r->ab", p.second_tracefree_up, p.mean_curvature)


@per_pack
def _mean_shape_weyl_trace(p) -> Jets:
    """``H^r L0^{a b}{}_r W_{a c b}{}^{c}``."""
    return jet_einsum("ab,ab->", _mean_contracted_shape(p),
                      p.weyl_partial_trace)


def willmore_quartic(p: SubmanifoldPack, route: str = "general") -> Jets:
    """Weight -4 Willmore-type invariant (3 <= k < n, k != 6).

    ``route='general'`` is the all-dimensions definition; for a
    four-dimensional hypersurface ``route='hypersurface'`` evaluates the
    specialized shape-operator display, which must agree.
    """
    _require(p, "willmore_quartic")
    k, n = p.k, p.n
    if route == "general":
        return (k * (k - 1) / (4.0 * (k - 6)) * tracefree_quartic_combo(p)
                + 0.5 * (k - 3) * div_shape_weyl_a(p)
                - (k * k - 2 * k + 3) / (2.0 * (k - 1)) * div_shape_weyl_b(p)
                - 0.5 * (k - 3) * _wtn_square(p)
                - 0.25 * (k - 3) * _w_ttnt_norm2(p)
                - 0.5 * (k - 3) * _shape_pair_weyl_tttt(p)
                - 0.5 * (k - 3) * _shape_pair_weyl_ttnn(p)
                - 0.5 * (k * k - 3 * k + 6)
                * _pair(p, "tracefree_square", "fialkow")
                - k * (k - 1) / (2.0 * (k - 6))
                * p.fialkow_trace * p.tracefree_norm2
                - 0.5 * (k - 3) * _shape_gram_square(p)
                - 0.5 * (k - 3)
                * _pair(p, "tracefree_square", "tracefree_square")
                + (k - 3) * _shape_quartic_alt(p))
    if route == "hypersurface":
        if k != 4 or n != 5:
            raise GeometryError("the specialized display is the (4, 5) case")
        l0u = p.second_tracefree_up
        lap_l0 = p.divergence(_d_shape(p), "tttn")
        t1 = 0.5 * jet_einsum("abr,abr->", l0u, lap_l0)
        V = jet_einsum("abr,br->a", _l0_mixed(p), _div_shape(p))
        t2 = (4.0 / 3.0) * p.divergence(V)
        t3 = 1.5 * _laplacian(p, "tracefree_norm2")
        t4 = -3.5 * p.intrinsic_jtrace * p.tracefree_norm2
        t5 = -6.0 * jet_einsum("abr,arb->", l0u, p.block("cotton", "tnt"))
        t6 = 4.0 * _pair(p, "intrinsic_schouten", "tracefree_square")
        t7 = -6.0 * _mean_shape_cubic(p)
        t8 = 12.0 * jet_einsum("ab,ab->", _mean_contracted_shape(p),
                               p.fialkow)
        return t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
    raise ValueError(f"unknown route {route!r}")


@per_pack
def _shape_dot_dweyl_trace(p) -> Jets:
    """``L0^{a b r} X_{r a b}`` with the projected ambient derivative
    ``X[r, a, b] = (ambient nabla)_r W_{a c b}{}^{c}``."""
    dw = p.block("dweyl", "ntttt")
    X = jet_einsum("racbd,cd->rab", dw, p.induced_inv)
    return jet_einsum("abr,rab->", p.second_tracefree_up, X)


@per_pack
def _ambient_ricci_pieces(p):
    """Ambient scalar curvature, normal Ricci trace, and the tangential
    Ricci block with both indices raised, along the patch."""
    ric_nn = jet_trace(p.block("ric", "nn"), "rr->")
    ric_tt_up = raise_both(p.block("ric", "tt"), p.induced_inv)
    return p.pulled("scal"), ric_nn, ric_tt_up


@per_pack
def _d_shape(p) -> Jets:
    """``nabla_c L0_{a b r}`` (pattern ``"tttn"``)."""
    return p.tangential_cov_deriv(p.second_tracefree, "ttn")


@per_pack
def _div_shape(p) -> Jets:
    """``X[b, r] = nabla^a L0_{a b r}``, the trace of :func:`_d_shape`."""
    return jet_einsum("ab,abcr->cr", p.induced_inv, _d_shape(p))


@per_pack
def _double_div(p, name: str) -> Jets:
    """``nabla^b nabla^a T_{a b}`` of the pack's 2-tensor ``name``."""
    return p.divergence(p.divergence(getattr(p, name), "tt"))


def transverse_weyl_quartic_a(p: SubmanifoldPack,
                              route: str = "general") -> Jets:
    """Weight -4 invariant extending a transverse-curvature hypersurface
    scalar to all codimensions (4 <= k < n, k != 6)."""
    _require(p, "transverse_weyl_quartic_a")
    k, n = p.k, p.n
    if route == "general":
        return (-(k - 2) / (2.0 * (k - 3) * (k - 6))
                * tracefree_quartic_combo(p)
                + (k - 2) / (k - 3)
                * (div_shape_weyl_a(p) + div_shape_weyl_b(p)
                   + _pair(p, "tracefree_square", "fialkow"))
                + _pair(p, "weyl_partial_trace", "tracefree_square")
                + (k - 2) / ((k - 3) * (k - 6))
                * p.fialkow_trace * p.tracefree_norm2
                + _shape_pair_weyl_tttt(p)
                - _shape_gram_weyl_nn(p)
                + 2.0 * _shape_pair_weyl_tntn(p)
                - _shape_pair_weyl_ttnn(p)
                - 0.5 * _w_ttnt_norm2(p)
                + _wtn_square(p))
    if route == "hypersurface":
        if n != k + 1:
            raise GeometryError("the specialized display is codimension one")
        lap_l2 = _laplacian(p, "tracefree_norm2")
        double_div = _double_div(p, "tracefree_square")
        t3 = _shape_dot_dweyl_trace(p)
        t4 = (k - 2) / (k - 1) ** 2 * p.norm2(_div_shape(p), "tn")
        t5 = -(k - 2) / (k - 3) * _pair(p, "intrinsic_schouten",
                                        "tracefree_square")
        t6 = -2.0 * _mean_shape_weyl_trace(p)
        den = (k - 3) * (k - 6)
        return ((k - 4) / den * lap_l2
                - (k - 2) / den * p.intrinsic_jtrace * p.tracefree_norm2
                - double_div / (k - 3) + t3 + t4 + t5 + t6)
    raise ValueError(f"unknown route {route!r}")


def transverse_weyl_quartic_b(p: SubmanifoldPack,
                              route: str = "general") -> Jets:
    """Companion weight -4 invariant (4 <= k < n, k != 6)."""
    _require(p, "transverse_weyl_quartic_b")
    k, n = p.k, p.n
    if route == "general":
        return (-tracefree_quartic_combo(p) / (2.0 * (k - 3) * (k - 6))
                + (div_shape_weyl_a(p) + div_shape_weyl_b(p)) / (k - 3)
                - (k - 4) / (k - 3) * _pair(p, "tracefree_square", "fialkow")
                + p.fialkow_trace * p.tracefree_norm2
                / ((k - 3) * (k - 6)))
    if route == "hypersurface":
        if n != k + 1:
            raise GeometryError("the specialized display is codimension one")
        dp = p.block("dschouten", "ntt")
        t1 = -jet_einsum("abr,rab->", p.second_tracefree_up, dp)
        t2 = -jet_einsum("rs,rs->", _shape_normal_gram(p),
                         p.block("schouten", "nn"))
        ddH = p.tangential_cov_deriv(p.mean_curvature_deriv, "tn")
        t3 = jet_einsum("abr,abr->", p.second_tracefree_up, ddH)
        t4 = jet_einsum("ab,ab->", _mean_contracted_shape(p),
                        p.intrinsic_schouten)
        t5 = -_double_div(p, "tracefree_square") / (k - 3)
        t6 = ((k - 5) / (2.0 * (k - 3) * (k - 6))
              * _laplacian(p, "tracefree_norm2"))
        t7 = (-p.intrinsic_jtrace * p.tracefree_norm2
              / ((k - 3) * (k - 6)))
        t8 = (k - 4) / (k - 3) * _pair(p, "intrinsic_schouten",
                                       "tracefree_square")
        t9 = -(k - 3) / (k - 2) * _mean_shape_cubic(p)
        t10 = (k - 3) / (k - 2) * _mean_shape_weyl_trace(p)
        t11 = -1.5 * p.mean_norm2 * p.tracefree_norm2
        t12 = k / (k - 1) ** 2 * p.norm2(_div_shape(p), "tn")
        return t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8 + t9 + t10 + t11 + t12
    raise ValueError(f"unknown route {route!r}")


def anomaly_quartic_a(p: SubmanifoldPack, route: str = "general") -> Jets:
    """Weight -4 invariant whose k = 4 integral reproduces a known
    holographic-anomaly scalar (2 <= k < n)."""
    _require(p, "anomaly_quartic_a")
    k, n = p.k, p.n
    if route == "general":
        return (0.5 * tracefree_quartic_combo(p)
                - 0.5 * (k - 6) * (div_shape_weyl_a(p) + div_shape_weyl_b(p))
                + 0.5 * (k - 6) * (_shape_pair_weyl_ttnn(p)
                                   - _wtn_square(p)
                                   + 0.5 * _w_ttnt_norm2(p)
                                   - _pair(p, "weyl_partial_trace",
                                           "tracefree_square")
                                   - _shape_pair_weyl_tttt(p)
                                   + _shape_gram_weyl_nn(p)
                                   - 2.0 * _shape_pair_weyl_tntn(p)))
    if route == "critical":
        if k != 4:
            raise GeometryError("the specialized display is the k = 4 case")
        lap = _laplacian(p, "tracefree_norm2")
        flux = _div_shape_deflection(p)
        scal, ric_nn, ric_tt_up = _ambient_ricci_pieces(p)
        cho = (2.0 * _deflection_norm2(p)
               + _shape_dot_dweyl_trace(p)
               + scal * p.tracefree_norm2 / (n - 1)
               - ric_nn * p.tracefree_norm2 / (n - 2)
               - 2.0 / (n - 2) * jet_einsum("ab,ab->", p.tracefree_square,
                                            ric_tt_up)
               + p.mean_norm2 * p.tracefree_norm2
               - 2.0 * _mean_shape_cubic(p)
               - 2.0 * _mean_shape_weyl_trace(p))
        return -0.5 * lap + 2.0 * flux + cho
    raise ValueError(f"unknown route {route!r}")


@per_pack
def _ambient_pair_weyl_squares(p):
    """The three tangent/ambient mixed Weyl squares used by the second
    anomaly invariant: (W_{a b c d} two slots projected)^2 variants, each
    block at the order of the pulled ``g_up`` that raises its ambient slots."""
    Z = jet_einsum("cidj,ij->cd", p.block("weyl", "atat"), p.induced_inv)
    return (p.norm2(p.block("weyl", "ttaa"), "ttaa"),
            p.norm2(p.block("weyl", "tata"), "tata"),
            p.norm2(Z, "aa"))


def anomaly_quartic_b(p: SubmanifoldPack, route: str = "general") -> Jets:
    """Second anomaly-type weight -4 invariant (2 <= k < n, k not in {3, 6})."""
    _require(p, "anomaly_quartic_b")
    k, n = p.k, p.n
    if route == "general":
        s1, s2, s3 = _ambient_pair_weyl_squares(p)
        den = (k - 1) * (k - 3)
        return (weyl_trace_quartic_scaled(p) / ((k - 3) * (k - 6))
                - 2.0 / (k - 1) * (s1 - s2 + s3)
                - 2.0 * (n - k - 1) / den * div_shape_weyl_a(p)
                - 2.0 * (n - 5 * k + 11) / den * div_shape_weyl_b(p)
                - 2.0 * (n - 3 * k + 5) / den * _wtn_square(p)
                + (n - k - 1) / den * _w_ttnt_norm2(p)
                - 2.0 * (n - k - 1) / den * _shape_pair_weyl_tttt(p)
                - 2.0 * (n - 3 * k + 5) / den
                * _pair(p, "weyl_partial_trace", "tracefree_square")
                + 2.0 * (n - 5 * k + 11) / den * _shape_pair_weyl_ttnn(p)
                + 2.0 * (n - 3 * k + 5) / den
                * _shape_gram_weyl_nn(p)
                - 4.0 * (n - 2 * k + 2) / den * _shape_pair_weyl_tntn(p))
    if route == "critical":
        if k != 4:
            raise GeometryError("the specialized display is the k = 4 case")
        Wd = p.weyl_double_trace
        ddw = p.ambient.cov_deriv(p.ambient.dweyl)
        ddw_y = p.project(p.pull(ddw), "nntttt")
        ddn = jet_trace(ddw_y, "rrabcd->abcd")
        ddn = jet_einsum("abcd,ac->bd", ddn, p.induced_inv)
        lap_n_wd = jet_einsum("bd,bd->", ddn, p.induced_inv)
        dw_y = p.block("dweyl", "ntttt")
        dwd = jet_einsum("rabcd,ac->rbd", dw_y, p.induced_inv)
        dwd = jet_einsum("rbd,bd->r", dwd, p.induced_inv)
        h_dwd = jet_einsum("r,r->", p.mean_curvature, dwd)
        scal, ric_nn, ric_tt_up = _ambient_ricci_pieces(p)
        dH_up = jet_einsum("za,ar->zr", p.induced_inv, p.mean_curvature_deriv)
        cho = (lap_n_wd / 3.0
               + (n - 10) / 3.0 * h_dwd
               - (n - 4) / (n - 1) * scal * Wd
               + (n - 4) / (n - 2) * ric_nn * Wd
               + 4.0 * (n - 5) / (3.0 * (n - 2))
               * jet_einsum("ab,ab->", ric_tt_up, p.weyl_partial_trace)
               - 4.0 / 3.0 * jet_einsum("ar,ar->", _w_tn_trace(p), dH_up)
               - 2.0 * (n - 5) / 3.0 * _shape_dot_dweyl_trace(p)
               + 8.0 * (n - 5) / 3.0
               * _mean_shape_weyl_trace(p)
               - 4.0 * (n + 1) / 3.0 * _deflection_dot_weyl(p)
               - 5.0 * (n - 4) / 3.0 * p.mean_norm2 * Wd)
        return ((3 * n - 10) / 6.0 * _laplacian(p, "weyl_double_trace")
                - 4.0 * (n - 5) / 3.0 * p.divergence(p.mc_cotton_trace)
                + cho)
    raise ValueError(f"unknown route {route!r}")


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantSpec:
    """One evaluable scalar with its validity range and conformal class.

    ``weight`` is the conformal weight w in the compensation rule
    e^{-w Upsilon} (value in rescaled metric) = (value in original metric);
    ``None`` marks the dimension-graded densities whose weight is -k.
    ``dims`` states the domain once, as a Python condition on ``k`` and
    ``n``: it is compiled into ``valid`` and quoted by the domain error.
    ``name`` is the name of ``compute``.  ``invariant`` marks the pointwise
    conformal invariants.
    """

    weight: int | None
    dims: str
    compute: Callable[[SubmanifoldPack], Jets]
    invariant: bool = False
    name: str = field(init=False)
    valid: Callable[[int, int], bool] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "name", self.compute.__name__)
        object.__setattr__(self, "valid", eval(f"lambda k, n: {self.dims}", {}))

    def weight_at(self, k: int) -> int:
        return -k if self.weight is None else self.weight


REGISTRY: dict[str, InvariantSpec] = {
    spec.name: spec for spec in [
        InvariantSpec(-4, "1 <= k < n", div_shape_weyl_a, invariant=True),
        InvariantSpec(-4, "1 <= k < n", div_shape_weyl_b, invariant=True),
        InvariantSpec(-4, "1 <= k < n and n != 4", fialkow_quartic,
                      invariant=True),
        InvariantSpec(-4, "1 <= k < n and n != 4", weyl_trace_quartic,
                      invariant=True),
        InvariantSpec(-4, "1 <= k < n", weyl_trace_quartic_scaled,
                      invariant=True),
        InvariantSpec(-4, "1 <= k < n", tracefree_quartic_combo,
                      invariant=True),
        InvariantSpec(-4, "3 <= k < n", intrinsic_q4),
        InvariantSpec(-4, "3 <= k < n and n != 4", q4_extrinsic_correction),
        InvariantSpec(-4, "3 <= k < n and n != 4", extrinsic_q4),
        InvariantSpec(-2, "k == 2 < n", extrinsic_q2),
        InvariantSpec(None, "k in (2, 4) and k < n", intrinsic_pfaffian),
        InvariantSpec(None, "k in (2, 4) and k < n", gauss_bonnet_defect,
                      invariant=True),
        InvariantSpec(-4, "3 <= k < n and k != 6", willmore_quartic,
                      invariant=True),
        InvariantSpec(-4, "4 <= k < n and k != 6", transverse_weyl_quartic_a,
                      invariant=True),
        InvariantSpec(-4, "4 <= k < n and k != 6", transverse_weyl_quartic_b,
                      invariant=True),
        InvariantSpec(-4, "2 <= k < n", anomaly_quartic_a, invariant=True),
        InvariantSpec(-4, "2 <= k < n and k not in (3, 6)", anomaly_quartic_b,
                      invariant=True),
    ]
}


def available(k: int, n: int) -> list[str]:
    """Names evaluable at the given submanifold/background dimensions."""
    return [name for name, spec in REGISTRY.items() if spec.valid(k, n)]


def _require(p: SubmanifoldPack, name: str) -> None:
    """Raise unless the registered scalar ``name`` is defined at p's (k, n)."""
    spec = REGISTRY.get(name)
    if spec is None:
        raise KeyError(f"unknown scalar {name!r}; registered: {sorted(REGISTRY)}")
    if not spec.valid(p.k, p.n):
        raise GeometryError(f"{name} is defined for {spec.dims}, got k={p.k}, n={p.n}")


def evaluate(p: SubmanifoldPack, name: str) -> Jets:
    """Evaluate one registered scalar, enforcing its validity range."""
    _require(p, name)
    return REGISTRY[name].compute(p)


def evaluate_all(p: SubmanifoldPack) -> dict[str, float]:
    """Point values of every scalar valid at the pack's dimensions."""
    return {name: float(evaluate(p, name).value)
            for name in available(p.k, p.n)}
