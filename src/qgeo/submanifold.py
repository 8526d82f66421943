"""Geometry along an immersed patch: frames, fundamental forms, connections.

Everything is evaluated at one submanifold point in jet arithmetic.  The
chart map is expanded one order beyond the ambient metric, so the induced
metric, the second fundamental form, and their tangential covariant
derivatives come out as exact truncated Taylor data (no finite differences).

Conventions (matching the ambient module's curvature signs):

* tangent indices run over the submanifold chart; normal indices over a
  Gram–Schmidt orthonormal normal frame, so the normal metric block is the
  identity and normal indices raise/lower for free;
* second fundamental form ``L[i, j, r] = g(nabla_{e_i} e_j, n_r)``; mean
  curvature ``H^r = trace_h(L)/k``; ``second_tracefree = L - H h``;
* normal connection ``omega[i, r, s] = g(nabla_{e_i} n_r, n^s)`` and the
  normal-bundle curvature uses the same commutator convention as the
  tangential one.

Every pack operation that walks tensor slots (:meth:`SubmanifoldPack.project`,
:meth:`~SubmanifoldPack.norm2`, :meth:`~SubmanifoldPack.tangential_cov_deriv`
and :meth:`~SubmanifoldPack.divergence`) names them with one pattern string,
one letter per slot: ``'t'`` a coordinate tangent slot, ``'n'`` an
orthonormal normal slot, ``'a'`` an ambient coordinate slot.  Every slot is
lowered.  Normal slots need no variance: the frame is orthonormal and the
normal connection antisymmetric, so a raised normal slot has the same
components and the same covariant derivative as the lowered one.

Every derived quantity that takes arguments is kept on its pack by one
memo, :func:`per_pack`, keyed by the function that builds it and its
arguments.  Ambient tensors reach the patch through one such accessor,
:meth:`SubmanifoldPack.pulled`: a :class:`~qgeo.ambient.CurvaturePack`
attribute, named as on that class, composed with the chart map once per
pack.  Frame projections of them (:meth:`SubmanifoldPack.block`) and the
contractions built by the invariants layer go through the same memo.

Tensors with the ``mc_`` prefix are mean-curvature corrected: ambient
curvature components combined with ``H`` so that a conformal rescaling
changes them only through tangential derivatives of the factor.  They are
the building blocks of the scalar invariants layer.
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from .ambient import (
    CurvaturePack,
    _first_kind,
    _rel,
    christoffel_jets,
    connection_deriv,
    inverse_metric_jets,
    levi_civita_connection,
    riemann_jets,
    weyl_jets,
)
from .fields import GeometryError, ImmersedPatch, MetricField
from .jets import (
    PACK_ORDER,
    Jets,
    constant,
    jet_einsum,
    jet_trace,
    jets_stack,
)

__all__ = [
    "SubmanifoldPack",
    "per_pack",
    "submanifold_pack",
    "projected_ambient_deriv",
    "frame_residuals",
    "gauss_codazzi_residuals",
    "divergence_identity_residuals",
    "simons_residual",
]

_LET = "abcdef"


def _check_pattern(pattern: str, T: Jets, kinds: str) -> None:
    """Raise unless ``pattern`` names each slot of ``T`` by one of ``kinds``."""
    if len(pattern) != len(T.batch) or not set(pattern) <= set(kinds):
        raise ValueError(
            f"pattern {pattern!r} does not name the {len(T.batch)} slots of "
            f"this tensor with letters of {kinds!r}")


def per_pack(fn):
    """``fn(pack, *args)`` built once per pack and arguments, kept under
    ``(fn, *args)``: keyed by the function object, so two functions never
    share a slot whatever their names.  Keyword arguments join the key."""
    @wraps(fn)
    def cached(pack, *args, **kwargs):
        key = (fn, *args, *sorted(kwargs.items()))
        memo = pack._memo
        if key not in memo:
            memo[key] = fn(pack, *args, **kwargs)
        return memo[key]
    return cached


class SubmanifoldPack:
    """Frames, forms, and curvature blocks of one immersed patch at a point.

    Heavy pieces are cached properties, so a pack only pays for what is
    actually read; quantities keyed at run time (pulled-back ambient
    tensors, frame projections, contractions built by the invariants) are
    kept by :func:`per_pack`, the one keyed memo.
    ``order`` is the ambient metric jet order, ``PACK_ORDER``; the chart map
    (whose ``Composer`` is :attr:`pull`) is expanded at ``order + 1`` by
    :meth:`ImmersedPatch.chart`, so every pack at one patch point shares
    the chart and its tables.  :attr:`induced` is at ``order``; the frames
    (:attr:`induced_inv`, :attr:`normal_frame`, :attr:`normal_coframe`) are
    at ``order - 1``, the highest order any consumer reads.  With
    ``param=True`` every jet carries the extra first-order parameter
    variable used for conformal linearization.
    """

    def __init__(self, metric: MetricField, patch: ImmersedPatch, point=None,
                 *, param: bool = False):
        if patch.n != metric.dim:
            raise GeometryError(
                f"patch maps into dimension {patch.n}, metric has {metric.dim}"
            )
        if not 1 <= patch.k < patch.n:
            raise GeometryError(f"{patch.name}: need 1 <= k < n, "
                                f"got k={patch.k}, n={patch.n}")
        self.metric = metric
        self.patch = patch
        self.k = patch.k
        self.n = patch.n
        self.param = param
        self.order = PACK_ORDER
        self.point = (np.asarray(patch.basepoint, dtype=float)
                      if point is None else np.asarray(point, dtype=float))
        self.chart_jets, self.pull = patch.chart(self.point, param)
        self.x_point = self.chart_jets.value[: self.n]
        self.ambient = CurvaturePack(
            metric.jets(self.x_point, PACK_ORDER, param=param), self.n)
        self._memo = {}

    @per_pack
    def pulled(self, name: str) -> Jets:
        """The ambient tensor ``name`` of :attr:`ambient` composed along the
        patch (y-space jets), pulled back once per pack."""
        return self.pull(getattr(self.ambient, name))

    # -- frames ----------------------------------------------------------

    @cached_property
    def tangent_frame(self) -> Jets:
        """Coordinate tangent vectors ``e[i, a] = d x^a / d y^i``."""
        e = jets_stack([self.chart_jets.deriv(i) for i in range(self.k)])
        return e[:, : self.n]

    @cached_property
    def induced(self) -> Jets:
        """Pulled-back metric ``h[i, j]`` on the patch."""
        return self.project(self.pulled("g"), "tt")

    @cached_property
    def induced_inv(self) -> Jets:
        """Inverse induced metric, to ``order - 1`` (class docstring)."""
        return inverse_metric_jets(self.induced.truncate(self.order - 1))

    @cached_property
    def tangent_projector(self) -> Jets:
        """Projection ``P[a, b]`` (one index up, one down) onto the tangent;
        read only by :func:`frame_residuals`, as an independent route."""
        u = jet_einsum("ia,ij->ja", self.tangent_frame, self.induced_inv)
        v = jet_einsum("jc,cb->jb", self.tangent_frame, self.pulled("g"))
        return jet_einsum("ja,jb->ab", u, v)

    @cached_property
    def normal_picks(self) -> list[int]:
        """The ``n - k`` coordinates ``b`` whose normally projected vectors,
        the rows of ``I - P^T``, seed :attr:`normal_frame`.  Candidates are
        walked by projection norm at the basepoint, ties broken by index,
        and one is kept when its Gram–Schmidt residual against those kept
        passes the bound :attr:`normal_frame` applies."""
        e, g = self.tangent_frame.value, self.pulled("g").value
        cand = np.eye(self.n) - (e @ g).T @ (self.induced_inv.value.T @ e)
        score = np.einsum("ba,ac,bc->b", cand, g, cand)
        picks, kept = [], []
        for b in sorted(range(self.n), key=lambda b: (-score[b], b)):
            w = cand[b]
            for prev in kept:
                w = w - (w @ g @ prev) * prev
            norm2 = w @ g @ w
            if norm2 > 1e-20 * g[b, b]:
                picks.append(b)
                kept.append(w / np.sqrt(norm2))
                if len(picks) == self.n - self.k:
                    return picks
        raise GeometryError(f"{self.patch.name}: degenerate normal "
                            f"candidates at {self.point}")

    @cached_property
    def normal_frame(self) -> Jets:
        """Orthonormal normal vectors ``N[r, a]``, to ``order - 1``.

        Gram–Schmidt on the candidates of :attr:`normal_picks`, so the
        frame choice is deterministic and stable under small perturbations.
        Only the picked candidates are formed as jets.
        """
        picks = self.normal_picks
        e, g = self.tangent_frame, self.pulled("g").truncate(self.order - 1)
        u = jet_einsum("ia,ij->ja", e, self.induced_inv)
        cands = constant(np.eye(self.n)[picks], u.space) - jet_einsum(
            "ja,jb->ba", u, jet_einsum("jc,cb->jb", e, g[:, picks]))
        frame = []
        for m, b in enumerate(picks):
            w = cands[m]
            for prev in frame:
                coef = jet_einsum("a,a->", jet_einsum("a,ab->b", w, g), prev)
                w = w - coef * prev
            norm2 = jet_einsum("a,a->", jet_einsum("a,ab->b", w, g), w)
            if norm2.value <= 1e-20 * g.value[b, b]:
                raise GeometryError(f"{self.patch.name}: degenerate normal "
                                    f"candidates at {self.point}")
            frame.append(w * norm2.sqrt().reciprocal())
        return jets_stack(frame)

    @cached_property
    def normal_coframe(self) -> Jets:
        """Metric-lowered normal frame ``N[r, a] g[a, b]``."""
        return jet_einsum("ra,ab->rb", self.normal_frame, self.pulled("g"))

    # -- fundamental forms ------------------------------------------------

    @cached_property
    def _gamma_frame(self) -> Jets:
        """Connection contracted once with the frame: ``Gamma^z_{ab} e^a``."""
        return jet_einsum("zab,ia->zib", self.pulled("gamma"),
                          self.tangent_frame)

    @cached_property
    def second_fundamental(self) -> Jets:
        """``L[i, j, r]``: normal part of the frame's ambient acceleration."""
        e_list = [self.chart_jets.deriv(i) for i in range(self.k)]
        dd = jets_stack(
            [jets_stack([ei.deriv(j)[: self.n] for j in range(self.k)])
             for ei in e_list])
        s = dd + jet_einsum("zib,jb->ijz", self._gamma_frame, self.tangent_frame)
        return jet_einsum("ijz,rz->ijr", s, self.normal_coframe)

    @cached_property
    def mean_curvature(self) -> Jets:
        """``H[r]``: induced trace of ``L`` over ``k``."""
        return jet_einsum(
            "ij,ijr->r", self.induced_inv, self.second_fundamental
        ) * (1.0 / self.k)

    @cached_property
    def second_tracefree(self) -> Jets:
        hh = jet_einsum("r,ij->ijr", self.mean_curvature, self.induced)
        return self.second_fundamental - hh

    @cached_property
    def second_tracefree_up(self) -> Jets:
        """Trace-free form with both tangent indices raised."""
        u = jet_einsum("ic,cjr->ijr", self.induced_inv, self.second_tracefree)
        return jet_einsum("jd,idr->ijr", self.induced_inv, u)

    @cached_property
    def mean_norm2(self) -> Jets:
        return jet_einsum("r,r->", self.mean_curvature, self.mean_curvature)

    @cached_property
    def tracefree_norm2(self) -> Jets:
        return jet_einsum(
            "ijr,ijr->", self.second_tracefree_up, self.second_tracefree)

    @cached_property
    def tracefree_square(self) -> Jets:
        """Symmetric 2-tensor ``L0^c{}_{i r} L0_{c j}{}^r`` on the patch."""
        u = jet_einsum("cd,dir->cir", self.induced_inv, self.second_tracefree)
        return jet_einsum("cir,cjr->ij", u, self.second_tracefree)

    # -- connections on the patch -----------------------------------------

    @cached_property
    def _induced_first_kind(self) -> Jets:
        return _first_kind(self.induced, self.k)

    @cached_property
    def induced_christoffel(self) -> Jets:
        return christoffel_jets(self._induced_first_kind, self.induced_inv)

    @cached_property
    def _tangent_connection(self) -> Jets:
        """:attr:`induced_christoffel` in the ``A[a, slot, z]`` layout."""
        return levi_civita_connection(self.induced_christoffel)

    @cached_property
    def normal_connection(self) -> Jets:
        """``omega[i, r, s] = g(nabla_{e_i} n_r, n^s)`` (antisymmetric in r, s)."""
        dN = jets_stack([self.normal_frame.deriv(i) for i in range(self.k)])
        covN = dN + jet_einsum("zib,rb->irz", self._gamma_frame,
                               self.normal_frame.truncate(dN.order))
        return jet_einsum("irz,sz->irs", covN, self.normal_coframe)

    @cached_property
    def normal_curvature(self) -> Jets:
        """Normal-bundle curvature ``Rperp[i, j, r, s]`` (commutator convention)."""
        dom = jets_stack([self.normal_connection.deriv(i) for i in range(self.k)])
        om = self.normal_connection.truncate(dom.order)
        return (jet_trace(dom, "jirs->ijrs") - dom
                + jet_einsum("irz,jzs->ijrs", om, om)
                - jet_einsum("jrz,izs->ijrs", om, om))

    def tangential_cov_deriv(self, T: Jets, pattern: str) -> Jets:
        """Covariant y-derivative of a tensor on the patch; new slot first.

        ``pattern`` names the slots of ``T`` with ``'t'`` and ``'n'`` (module
        docstring).  Tangent slots are corrected with the induced
        Christoffel symbols, normal slots with the normal connection.
        """
        _check_pattern(pattern, T, "tn")
        connections = [self._tangent_connection if ch == "t"
                       else self.normal_connection for ch in pattern]
        return connection_deriv(T, connections, self.k)

    def tangential_gradient(self, u: Jets) -> Jets:
        return self.tangential_cov_deriv(u, "")

    def divergence(self, T: Jets, pattern: str = "t") -> Jets:
        """``h^{ab} nabla_a T_{b...}``: the covariant derivative of ``T``
        traced against its first slot, which ``pattern`` must name ``'t'``."""
        if not pattern.startswith("t"):
            raise ValueError(
                f"pattern {pattern!r}: a divergence needs a tangent first slot")
        rest = _LET[2:len(pattern) + 1]
        return jet_einsum(f"ab,ab{rest}->{rest}", self.induced_inv,
                          self.tangential_cov_deriv(T, pattern))

    def tangential_laplacian(self, u: Jets) -> Jets:
        return self.divergence(self.tangential_gradient(u))

    # -- projections of ambient tensors -----------------------------------

    def project(self, T: Jets, pattern: str) -> Jets:
        """Contract the slots of an all-lowered ambient tensor onto the frames.

        ``pattern`` names one slot per letter: ``'t'`` contracts it with the
        tangent frame, ``'n'`` with the normal frame, and ``'a'`` leaves it
        ambient.
        """
        _check_pattern(pattern, T, "tna")
        lhs = _LET[:len(pattern)]
        out = T
        for m, ch in enumerate(pattern):
            if ch == "a":
                continue
            res = lhs[:m] + "z" + lhs[m + 1:]
            frame = self.tangent_frame if ch == "t" else self.normal_frame
            out = jet_einsum(f"{lhs},z{lhs[m]}->{res}", out, frame)
        return out

    def norm2(self, T: Jets, pattern: str) -> Jets:
        """``T . T`` for a tensor whose slots ``pattern`` names: ``'t'``
        slots raised by :attr:`induced_inv`, ``'a'`` slots by the pulled
        ``g_up``, ``'n'`` slots contracted as they are."""
        _check_pattern(pattern, T, "tna")
        lhs = _LET[:len(pattern)]
        up = T
        for m, ch in enumerate(pattern):
            if ch == "n":
                continue
            inv = self.induced_inv if ch == "t" else self.pulled("g_up")
            res = lhs[:m] + "z" + lhs[m + 1:]
            up = jet_einsum(f"z{lhs[m]},{lhs}->{res}", inv, up)
        return jet_einsum(f"{lhs},{lhs}->", T, up)

    @per_pack
    def block(self, name: str, pattern: str) -> Jets:
        """Cached frame projection along the patch of the ambient tensor
        ``name`` (a :class:`CurvaturePack` attribute) or of ``"mc_cotton"``."""
        T = self.mc_cotton_ambient if name == "mc_cotton" else self.pulled(name)
        return self.project(T, pattern)

    @cached_property
    def weyl_partial_trace(self) -> Jets:
        """``W[i, c, j]{}^c`` traced over the tangent directions."""
        return jet_einsum("cd,acbd->ab", self.induced_inv,
                          self.block("weyl", "tttt"))

    @cached_property
    def weyl_double_trace(self) -> Jets:
        return jet_einsum("ab,ab->", self.induced_inv, self.weyl_partial_trace)

    # -- intrinsic curvature of the induced metric -------------------------

    @cached_property
    def intrinsic_riemann(self) -> Jets:
        return riemann_jets(self._induced_first_kind,
                            self.induced_christoffel, self.k)

    @cached_property
    def intrinsic_ricci(self) -> Jets:
        return jet_einsum("acbd,cd->ab", self.intrinsic_riemann,
                          self.induced_inv)

    @cached_property
    def intrinsic_scalar(self) -> Jets:
        return jet_einsum("ab,ab->", self.intrinsic_ricci, self.induced_inv)

    @cached_property
    def intrinsic_jtrace(self) -> Jets:
        if self.k < 2:
            raise GeometryError("intrinsic curvature trace needs k >= 2")
        return self.intrinsic_scalar * (1.0 / (2.0 * (self.k - 1)))

    @cached_property
    def intrinsic_schouten(self) -> Jets:
        if self.k < 3:
            raise GeometryError("intrinsic trace adjustment needs k >= 3")
        jg = jet_einsum(",ab->ab", self.intrinsic_jtrace, self.induced)
        return (self.intrinsic_ricci - jg) * (1.0 / (self.k - 2))

    @cached_property
    def intrinsic_weyl(self) -> Jets:
        if self.k < 3:
            raise GeometryError("intrinsic trace decomposition needs k >= 3")
        return weyl_jets(self.intrinsic_riemann, self.intrinsic_schouten,
                         self.induced)

    # -- conformally organized tensors ------------------------------------

    @cached_property
    def fialkow_trace_scaled(self) -> Jets:
        """``(k - 1)`` times the Fialkow trace; defined for every k >= 1."""
        return (self.tracefree_norm2 - self.weyl_double_trace) * 0.5

    @cached_property
    def fialkow_trace(self) -> Jets:
        if self.k < 2:
            raise GeometryError("Fialkow trace needs k >= 2")
        return self.fialkow_trace_scaled * (1.0 / (self.k - 1))

    @cached_property
    def fialkow(self) -> Jets:
        if self.k < 3:
            raise GeometryError("Fialkow tensor needs k >= 3")
        gG = jet_einsum(",ab->ab", self.fialkow_trace, self.induced)
        return (self.tracefree_square - self.weyl_partial_trace - gG) * (
            1.0 / (self.k - 2))

    @cached_property
    def mean_curvature_deriv(self) -> Jets:
        """``dH[i, r] = nabla_i H_r``, taken once per pack."""
        return self.tangential_cov_deriv(self.mean_curvature, "n")

    @cached_property
    def normal_deflection(self) -> Jets:
        """``D[i, r]``: tangential-normal ambient trace adjustment minus
        the tangential derivative of the mean curvature."""
        return self.block("schouten", "tn") - self.mean_curvature_deriv

    @cached_property
    def mc_schouten(self) -> Jets:
        """Tangential trace adjustment corrected by the mean curvature."""
        hl = jet_einsum("ijr,r->ij", self.second_tracefree, self.mean_curvature)
        h2 = jet_einsum(",ij->ij", self.mean_norm2, self.induced) * 0.5
        return self.block("schouten", "tt") + hl + h2

    @cached_property
    def mc_cotton_ambient(self) -> Jets:
        """Ambient-slotted Cotton tensor corrected by the mean curvature."""
        wn = self.project(self.pulled("weyl"), "aaan")
        return self.pulled("cotton") - jet_einsum("abcr,r->abc", wn,
                                                  self.mean_curvature)

    @cached_property
    def mc_cotton_trace_ambient(self) -> Jets:
        """Tangential trace of the corrected Cotton, one ambient slot free."""
        u = self.project(self.mc_cotton_ambient, "tat")
        return jet_einsum("ij,ibj->b", self.induced_inv, u)

    @cached_property
    def mc_cotton_trace(self) -> Jets:
        """Tangential projection of ``mc_cotton_trace_ambient``."""
        return self.project(self.mc_cotton_trace_ambient, "t")

    @cached_property
    def mc_bach(self) -> Jets:
        """Tangential block of the fourth-order obstruction, corrected by H."""
        n = self.n
        b_tt = self.block("bach", "tt")
        c_ntt = self.block("cotton", "ntt")
        c_sym = (c_ntt + jet_trace(c_ntt, "rab->rba")) * 0.5
        term2 = jet_einsum("rab,r->ab", c_sym, self.mean_curvature) * 2.0
        hh = jet_einsum("r,s->rs", self.mean_curvature, self.mean_curvature)
        term3 = jet_einsum("arbs,rs->ab", self.block("weyl", "tntn"), hh)
        return b_tt + (term2 + term3) * float(n - 4)

    def scalar_summary(self) -> dict:
        """Point values of the scalars most often asserted in tests."""
        out = {
            "tracefree_norm2": float(self.tracefree_norm2.value),
            "mean_norm2": float(self.mean_norm2.value),
            "weyl_double_trace": float(self.weyl_double_trace.value),
        }
        if self.k >= 2:
            out["fialkow_trace"] = float(self.fialkow_trace.value)
            out["intrinsic_jtrace"] = float(self.intrinsic_jtrace.value)
        return out


def submanifold_pack(scene, *, param: bool = False,
                     metric: MetricField | None = None) -> SubmanifoldPack:
    """Build the pack for a scene (optionally overriding its metric)."""
    g = scene.metric if metric is None else metric
    return SubmanifoldPack(g, scene.patch, scene.point, param=param)


def projected_ambient_deriv(pack: SubmanifoldPack, name: str,
                            pattern: str) -> Jets:
    """Tangential covariant derivative via the ambient-connection route.

    Projects the composed ambient covariant derivative of a named field
    ("weyl" / "schouten" / "cotton") and adds the second-fundamental-form
    exchange terms produced by splitting slots into tangent and normal
    parts.  Must agree with ``tangential_cov_deriv`` applied to the
    projected blocks — the two routes share no code, which makes the
    comparison a real consistency check.
    """
    dfield = pack.pulled("d" + name)
    field = pack.pulled(name)
    r = len(pattern)
    out = pack.project(dfield, "t" + pattern)
    let = _LET[1:r + 1]
    l_up = jet_einsum("zc,azr->acr", pack.induced_inv, pack.second_fundamental)
    for m, ch in enumerate(pattern):
        alt = pattern[:m] + ("n" if ch == "t" else "t") + pattern[m + 1:]
        t_alt = pack.project(field, alt)
        tsub = let[:m] + "z" + let[m + 1:]
        if ch == "t":
            out = out + jet_einsum(
                f"a{let[m]}z,{tsub}->a{let}", pack.second_fundamental, t_alt)
        else:
            out = out - jet_einsum(f"az{let[m]},{tsub}->a{let}", l_up, t_alt)
    return out


# -- residual suites -------------------------------------------------------


def _relj(resid: Jets, *refs: Jets) -> float:
    return _rel(resid.coeffs, *(x.coeffs for x in refs))


def frame_residuals(pack: SubmanifoldPack) -> dict:
    """Whole-jet residuals of the frame algebra (not just point values),
    at the frames' order ``PACK_ORDER - 1``."""
    e, nf = pack.tangent_frame, pack.normal_frame
    g = pack.pulled("g")
    out = {}
    mixed = jet_einsum("ib,rb->ir", jet_einsum("ia,ab->ib", e, g), nf)
    out["tangent_normal_orthogonal"] = _relj(mixed, e)
    nn = jet_einsum("rb,sb->rs", jet_einsum("ra,ab->rb", nf, g), nf)
    out["normal_orthonormal"] = _relj(
        nn - constant(np.eye(pack.n - pack.k), nn.space), nn)
    pn = jet_einsum("ra,rb->ab", nf, pack.normal_coframe)
    full = pack.tangent_projector + pn
    out["projector_complete"] = _relj(
        full - constant(np.eye(pack.n), full.space), full)
    om = pack.normal_connection
    out["normal_connection_antisym"] = _relj(
        om + jet_trace(om, "isr->irs"), om)
    sym = pack.second_fundamental - jet_trace(
        pack.second_fundamental, "jir->ijr")
    out["second_fundamental_sym"] = _relj(sym, pack.second_fundamental)
    return out


def gauss_codazzi_residuals(pack: SubmanifoldPack) -> dict:
    """Relative residuals of the curvature splitting equations at the point.

    The raw equations relate ambient curvature blocks to intrinsic/normal
    curvature and the second fundamental form; the conformal set reorganizes
    them around the trace-free form, the Fialkow correction, and the
    deflection tensor.  Entries are only produced for the submanifold
    dimensions where each equation's ingredients exist.
    """
    k = pack.k
    h = pack.induced.value
    hi = pack.induced_inv.value
    L = pack.second_fundamental.value
    L0 = pack.second_tracefree.value
    H = pack.mean_curvature.value
    out = {}

    rm_tttt = pack.block("rm", "tttt").value
    rmbar = pack.intrinsic_riemann.value
    ll1 = np.einsum("acr,bdr->abcd", L, L)
    ll2 = np.einsum("adr,bcr->abcd", L, L)
    out["gauss"] = _rel(rm_tttt - rmbar + ll1 - ll2, rm_tttt, rmbar, ll1)

    dL = pack.tangential_cov_deriv(pack.second_fundamental, "ttn").value
    rm_ttnt = pack.block("rm", "ttnt").value
    cod = (dL - dL.transpose(1, 0, 2, 3)).transpose(0, 1, 3, 2)
    out["codazzi"] = _rel(rm_ttnt - cod, rm_ttnt, dL)

    rm_ttnn = pack.block("rm", "ttnn").value
    rperp = pack.normal_curvature.value
    u = np.einsum("cd,dar->car", hi, L)
    nl1 = np.einsum("car,cbs->abrs", u, L)
    nl2 = np.einsum("cas,cbr->abrs", u, L)
    out["ricci"] = _rel(rm_ttnn - rperp + nl1 - nl2, rm_ttnn, rperp, nl1)

    # conformal versions
    w_ttnt = pack.block("weyl", "ttnt").value
    dL0 = pack.tangential_cov_deriv(pack.second_tracefree, "ttn").value
    D = pack.normal_deflection.value
    lhs = w_ttnt
    t1 = (dL0 - dL0.transpose(1, 0, 2, 3)).transpose(0, 1, 3, 2)
    t2 = (np.einsum("ca,br->abrc", h, D) - np.einsum("cb,ar->abrc", h, D))
    out["conformal_codazzi"] = _rel(lhs - t1 - t2, lhs, t1, t2)

    divL0 = np.einsum("cb,cbar->ar", hi, dL0)
    wtr = np.einsum("bc,abrc->ar", hi, w_ttnt)
    out["conformal_deflection"] = _rel(
        (k - 1) * D + divL0 + wtr, D, divL0, wtr)

    w_ttnn = pack.block("weyl", "ttnn").value
    u0 = np.einsum("cd,dar->car", hi, L0)
    m1 = np.einsum("car,cbs->abrs", u0, L0)
    m2 = np.einsum("cas,cbr->abrs", u0, L0)
    out["conformal_normal"] = _rel(
        w_ttnn - rperp + m1 - m2, w_ttnn, rperp, m1)

    if k >= 2:
        j_amb = float(pack.pulled("jtrace").value)
        jbar = float(pack.intrinsic_jtrace.value)
        p_nn = pack.project(pack.pulled("schouten"), "nn").value
        gg = float(pack.fialkow_trace.value)
        h2 = float(np.einsum("r,r->", H, H))
        out["conformal_scalar_trace"] = _rel(
            np.asarray(j_amb - jbar - np.trace(p_nn) + 0.5 * k * h2 - gg),
            np.asarray(j_amb), np.asarray(jbar))

    if k >= 3:
        p_tt = pack.block("schouten", "tt").value
        pbar = pack.intrinsic_schouten.value
        F = pack.fialkow.value
        hl0 = np.einsum("abr,r->ab", L0, H)
        h2 = float(np.einsum("r,r->", H, H))
        out["conformal_trace_adjust"] = _rel(
            p_tt - pbar + hl0 + 0.5 * h2 * h - F, p_tt, pbar, F)

        w_tttt = pack.block("weyl", "tttt").value
        wbar = pack.intrinsic_weyl.value
        g1 = np.einsum("acr,bdr->abcd", L0, L0)
        g2 = np.einsum("adr,bcr->abcd", L0, L0)
        fg = (np.einsum("ac,db->abcd", F, h) - np.einsum("ad,cb->abcd", F, h)
              - np.einsum("bc,da->abcd", F, h) + np.einsum("bd,ca->abcd", F, h))
        out["conformal_gauss"] = _rel(
            w_tttt - wbar + g1 - g2 + fg, w_tttt, wbar, g1, fg)

    return out


def divergence_identity_residuals(pack: SubmanifoldPack) -> dict:
    """Residuals of the three tangential-divergence exchange identities.

    Each identity moves a divergence off a curvature-squared or corrected
    tensor onto gradients and lower-order couplings; they are what make the
    scalar invariants' conformal variations collapse to divergences.
    """
    k = pack.k
    hi = pack.induced_inv.value
    L0 = pack.second_tracefree.value
    D = pack.normal_deflection.value
    mc_t = pack.mc_cotton_trace.value
    out = {}

    d_mp = pack.tangential_cov_deriv(pack.mc_schouten, "tt").value
    lhs = np.einsum("cb,cab->a", hi, d_mp)
    tr = jet_einsum("ab,ab->", pack.induced_inv, pack.mc_schouten)
    grad_tr = pack.tangential_gradient(tr).value
    dl = np.einsum("cb,cr,bar->a", hi, D, L0)
    out["div_mc_schouten"] = _rel(lhs - grad_tr - mc_t + dl, lhs, grad_tr, mc_t)

    d_sq = pack.tangential_cov_deriv(pack.tracefree_square, "tt").value
    lhs = np.einsum("cb,cab->a", hi, d_sq)
    grad_n2 = pack.tangential_gradient(pack.tracefree_norm2).value
    w_ttnt = pack.block("weyl", "ttnt").value
    w_tttn = pack.block("weyl", "tttn").value
    wtrn = np.einsum("cd,bcrd->br", hi, w_ttnt)
    term_d = np.einsum("cb,cr,abr->a", hi, D, L0)
    term_w1 = np.einsum("be,er,abr->a", hi, wtrn, L0)
    l0uu = np.einsum("be,cf,efr->bcr", hi, hi, L0)
    term_w2 = np.einsum("bcr,bacr->a", l0uu, w_tttn)
    out["div_tracefree_square"] = _rel(
        lhs - 0.5 * grad_n2 + (k - 2) * term_d + term_w1 + term_w2,
        lhs, grad_n2, term_w1, term_w2)

    d_wpt = pack.tangential_cov_deriv(pack.weyl_partial_trace, "tt").value
    lhs = np.einsum("cb,cab->a", hi, d_wpt)
    grad_w2 = pack.tangential_gradient(pack.weyl_double_trace).value
    l0_mixed = np.einsum("be,aer->abr", hi, L0)
    term_w3 = np.einsum("abr,br->a", l0_mixed, wtrn)
    out["div_weyl_trace"] = _rel(
        lhs - 0.5 * grad_w2 + (k - 2) * mc_t + term_w2 + term_w3,
        lhs, grad_w2, mc_t, term_w2)

    return out


def simons_residual(pack: SubmanifoldPack) -> float:
    """Residual of the contracted second-order equation for the trace-free
    fundamental form (its rough Laplacian against lower-order data)."""
    if pack.k < 3:
        raise GeometryError("the contracted Laplacian identity needs k >= 3")
    k = pack.k
    hi = pack.induced_inv.value
    L0 = pack.second_tracefree.value
    l0uu = pack.second_tracefree_up.value
    lap = pack.divergence(
        pack.tangential_cov_deriv(pack.second_tracefree, "ttn"), "tttn").value
    lhs = np.einsum("abr,abr->", l0uu, lap)

    dD = pack.tangential_cov_deriv(pack.normal_deflection, "tn").value
    dwc = pack.tangential_cov_deriv(
        jet_einsum("cd,bcrd->br", pack.induced_inv,
                   pack.block("weyl", "ttnt")), "tn").value
    w4div = pack.divergence(pack.block("weyl", "ttnt"), "ttnt").value

    jbar = float(pack.intrinsic_jtrace.value)
    pbar_uu = np.einsum("ac,bd,cd->ab", hi, hi, pack.intrinsic_schouten.value)
    w_tttt = pack.block("weyl", "tttt").value
    w_ttnn = pack.block("weyl", "ttnn").value
    F_uu = np.einsum("ac,bd,cd->ab", hi, hi, pack.fialkow.value)
    l0sq = pack.tracefree_square.value

    rhs = 0.0
    rhs += -k * np.einsum("abr,abr->", l0uu, dD)
    rhs += -np.einsum("abr,abr->", l0uu, dwc)
    rhs += np.einsum("abr,arb->", l0uu, w4div)
    rhs += jbar * float(np.einsum("abr,abr->", l0uu, L0))
    rhs += k * np.einsum("ab,ab->", l0sq, pbar_uu)
    w_mixed = np.einsum("cC,dD,aCbD->acbd", hi, hi, w_tttt)
    rhs += -np.einsum("acbd,cdr,abr->", w_mixed, L0, l0uu)
    # the normal-frame metric block is the identity, so only the tangent
    # index needs an explicit raise here
    wn_mixed = np.einsum("cC,aCrs->acrs", hi, w_ttnn)
    rhs += -np.einsum("acrs,cbs,abr->", wn_mixed, L0, l0uu)
    rhs += 2.0 * np.einsum("ab,ab->", l0sq, F_uu)
    rhs += -np.einsum("abs,abr,cds,cdr->", L0, l0uu, L0, l0uu)
    rhs += -np.einsum("adr,cds,cbs,abr->", L0, l0uu, L0, l0uu)
    rhs += 2.0 * np.einsum("cdr,ads,bcs,abr->", l0uu, L0, L0, l0uu)

    scale = 1.0 + max(abs(lhs), abs(rhs),
                      float(np.max(np.abs(lap))) if lap.size else 0.0)
    return abs(lhs - rhs) / scale
