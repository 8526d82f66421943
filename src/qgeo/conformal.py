"""Conformal-change verification for submanifold curvature data.

Everything in this module answers one question: how do the stored
components of a geometric quantity respond when the ambient metric is
rescaled by ``exp(2 t Upsilon)``?  Every variation is taken on the
nilpotent-parameter route: the rescale factor is expanded along an extra
jet variable ``t`` with ``t^2 = 0``, so the first variation pops out as an
exact coefficient (no truncation error at all).  ``t`` has degree 0 in the
jet order, so the parameter pack carries the ``t^1`` coefficient at the
full pack order and fourth-derivative quantities stay exact.  Central
differences at ``t = +/-1e-4`` on ordinary packs are kept only as the
independent cross-check of ``cross_check=True`` reports.

Batteries that draw the same factor on one scene share its parameter
pack, built once per (scene object, factor value) in the one-slot cache
of :class:`_Engine`: the invariance and tangential batteries of one scene
and seed, each drawing its own ``random_upsilon``, build one between them.
A batch of factors is a member axis of ``Upsilon``; the members of one
pack are factors or values of ``t``, not both.

Stored components mix a coordinate tangent frame with an orthonormal
normal frame.  Re-running Gram-Schmidt against ``exp(2 t Upsilon) g``
rescales each normal vector by ``exp(-t Upsilon)`` and changes nothing
else, so a quantity whose abstract all-lowered components carry
homogeneity ``h`` and whose stored form uses ``j`` orthonormal normal
slots obeys ``stored_hat = exp((h - j) t Upsilon) stored``.  Every
variation takes one evaluator and that stored exponent, ``weight = h - j``:
it is the ``t``-coefficient of ``exp(-weight t Upsilon) stored_hat``, with
``t^2 = 0`` exactly ``d_t stored_hat - weight Upsilon stored``.  A battery
that applies an operator to a rescaled operand (the derivative laws) does
so inside its evaluator, reading the operand's factor from the engine.

The checks bundled here certify, on top of individual variations:

* closed-form first-variation laws for the ambient curvature family and
  for the mixed submanifold tensors (trace-adjusted Schouten/Cotton/Bach
  and the normal deflection),
* that derivative operators pick up only the expected lower-order terms,
* pointwise conformal invariance of the registered scalar invariants at
  finite rescalings,
* the transformation rule of the extrinsic Q-curvatures through their
  factored operators,
* that the first variation of each quartic scalar building block
  depends on no more of the transverse jet of ``Upsilon`` than its
  stratum promises, and
* a concrete metric family witnessing that the tensor and divergence
  building blocks are linearly independent, with closed-form component
  values to pin the conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .fields import (
    GeometryError,
    MetricField,
    _factor_jets,
    _rescale_factor,
    conformally_rescaled,
    diagonal_exponential_metric,
)
from .invariants import (
    REGISTRY,
    _deflection_dot_weyl,
    _deflection_norm2,
    _div_shape_deflection,
    _div_shape_weyl_trace,
    _double_div,
    _mean_shape_cubic,
    _pair,
    _shape_normal_gram,
    _w_ntnt_trace,
    _w_tn_trace,
    available,
    evaluate,
    extrinsic_paneitz_apply,
)
from .jets import (
    Jets,
    jet_einsum,
    jet_trace,
    jets_stack,
    variables,
)
from .scenes import (
    Scene,
    affine_plane,
    equatorial_sphere,
    random_scene,
    random_upsilon,
)
from .submanifold import SubmanifoldPack, per_pack

__all__ = [
    "LinearizationReport",
    "linearize",
    "ambient_law_reports",
    "submanifold_law_reports",
    "derivative_law_reports",
    "check_tangential_dependence",
    "check_invariance",
    "check_q_transformation",
    "quartic_term_reports",
    "QUARTIC_STRATA",
    "transverse_vanishing_upsilon",
    "check_strata_vanishing",
    "witness_metric",
    "linear_independence_witness",
]

#: the largest ``residual`` (gap to a closed-form law) a report passes with.
RESIDUAL_TOL = 1e-6
#: the two methods must reproduce each other this well to be trusted; a
#: larger (or NaN) method gap flags the report.
METHOD_FLAG_TOL = 1e-5
#: parameter step of the central-difference cross-check
_STEP = 1e-4
#: factors per engine of :func:`check_strata_vanishing` (six: no faster, more memory)
_STRATA_BATCH = 3


# -- conformal factors ---------------------------------------------------------


@per_pack
def _upsilon_jets(pack, upsilon) -> tuple[Jets, Jets]:
    """A factor (any callable on a list of coordinate jets) on the ambient
    coordinate variables at ``pack``'s point, and its pullback by
    ``pack.pull`` like every ambient tensor: once per pack and factor, a
    tuple of factors as one jet with a member per factor."""
    xs = variables(pack.x_point, pack.order, param=pack.param)
    u_x = _factor_jets(upsilon, xs[: pack.n])
    return u_x, pack.pull(u_x)


# -- reports -------------------------------------------------------------------


@dataclass
class LinearizationReport:
    """First conformal variation of one stored quantity.

    ``numeric`` holds the exact (nilpotent-parameter) variation;
    ``residual`` is its gap to a closed-form law when one is available.
    ``method_gap`` compares it with central differences when the report
    was cross-checked; a gap above ``METHOD_FLAG_TOL`` flags the report.
    """

    quantity: str
    numeric: np.ndarray
    residual: float | None = None
    method_gap: float | None = None

    @property
    def flagged(self) -> bool:
        gap = self.method_gap
        return gap is not None and not gap <= METHOD_FLAG_TOL

    def ok(self) -> bool:
        return not self.flagged and (
            self.residual is None or self.residual <= RESIDUAL_TOL)


def _gap(a, b=0.0) -> float:
    """Every battery's worst case: the largest ``|a - b|``, NaN if any is."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# -- the engine ----------------------------------------------------------------


class _Engine:
    """Shared pack plumbing for one scene and factor ``Upsilon``, or for a
    tuple of factors, the members of one batch: ``Upsilon`` is then one jet
    with a member per factor, and each method gives one entry per member.

    Builds, each on first use, the nilpotent-parameter pack and the
    finite-parameter packs (finite rescales and the central differences of
    the cross-check), so a batch of reports doesn't rebuild them per
    quantity.  A tuple of ``t`` is one pack with a member per ``t``, so the
    cross-check's ``+/-_STEP`` pair is one pack.  Every pack carries
    ``PACK_ORDER``.  The ``t^0`` coefficient of a parameter-pack jet, its
    ``.value``, is the unrescaled value, so the laws and the restriction
    data of ``Upsilon`` are read there too.  ``Upsilon`` reaches each pack
    through :func:`_upsilon_jets`, kept on the pack under the factor.

    The parameter pack alone is shared between engines, keyed by (scene
    object, factor value) in one slot: ``_last`` holds the scene, factor
    and parameter-pack table of the last engine built, and a new engine
    whose scene ``is`` that scene (its metric and patch are closures) and
    whose factor ``==`` that factor (a ``Polynomial`` by value, a tuple
    member by member, a closure by identity) adopts that table.  Any other
    engine replaces the slot when it is constructed, so no parameter pack
    outlives the first engine of the next battery unless that engine
    adopts it.  Finite packs are never shared.

    Every variation has one signature, ``(evaluator, weight)``: the
    variation of ``evaluator(pack)`` compensated by ``exp(-weight t
    Upsilon)`` (:meth:`compensated` on a finite pack), where ``weight`` is
    its stored weight.  An evaluator that applies an operator to a rescaled
    operand reads the factor of the pack at hand from :meth:`scale`.
    """

    #: ``(scene, factor, {None: parameter pack})`` of the last engine built
    _last = (None, None, {})

    def __init__(self, scene: Scene, upsilon):
        self.scene = scene
        self.upsilon = upsilon
        last_scene, last_upsilon, shared = _Engine._last
        if not (last_scene is scene and last_upsilon == upsilon):
            shared = {}
            _Engine._last = (scene, upsilon, shared)
        self._shared = shared  # None -> the parameter pack, shared
        self._packs = {}  # finite t -> its pack

    # --- packs ---
    @property
    def param(self) -> SubmanifoldPack:
        return self.finite(None)

    def finite(self, t: float | tuple | None) -> SubmanifoldPack:
        """The pack of ``exp(2 t Upsilon) g``; ``t=None`` is the parameter,
        a tuple of floats one member per ``t`` (for a single factor)."""
        packs = self._shared if t is None else self._packs
        if t not in packs:
            sc = self.scene
            ghat = conformally_rescaled(sc.metric, self.upsilon, t=t)
            packs[t] = SubmanifoldPack(ghat, sc.patch, sc.point,
                                       param=t is None)
        return packs[t]

    # --- restriction data of Upsilon, read at t^0 of the parameter pack ---
    @cached_property
    def restriction(self) -> SimpleNamespace:
        p, amb = self.param, self.param.ambient
        u_x, u_y = _upsilon_jets(p, self.upsilon)
        du_x = amb.cov_deriv(u_x)
        hess_x = amb.cov_deriv(du_x)
        du_y = p.pull(du_x)
        grad = p.tangential_gradient(u_y)
        hessian = p.tangential_cov_deriv(grad, "t")
        return SimpleNamespace(
            grad=grad,
            grad_up=jet_einsum("ab,b->a", p.induced_inv, grad),
            normal=p.project(du_y, "n"),
            ambient_up=jet_einsum("ab,b->a", p.pulled("g_up"), du_y),
            hessian=hessian,
            ambient_hessian=p.pull(hess_x),
            laplacian=jet_einsum("ab,ab->", p.induced_inv, hessian),
        )

    # --- variations ---
    def scale(self, pack, w: float) -> Jets:
        """``exp(w t Upsilon)``, exactly ``1 + w t Upsilon`` on the parameter
        pack, on a pack this engine built at ``t``: a battery whose operator
        acts on a rescaled operand multiplies the operand by it."""
        ts = [t for packs in (self._shared, self._packs)
              for t, q in packs.items() if q is pack]
        if not ts:
            raise ValueError(
                f"the {'parameter' if pack.param else 'plain'} pack of "
                f"{pack.metric.name} at {pack.point.tolist()} was not built "
                "by this engine at a rescale parameter t")
        u = _upsilon_jets(pack, self.upsilon)[1]
        return _rescale_factor(u, ts[0], float(w), pack.chart_jets)

    def _times_x0(self, pack, c, out: Jets) -> np.ndarray:
        """``c Upsilon(x0)`` on ``pack`` (``c`` a number or one per ``t``),
        shaped to broadcast over the values of ``out``, members first."""
        cu = np.multiply(c, _upsilon_jets(pack, self.upsilon)[1].value)
        return np.reshape(cu, np.shape(cu) + (1,) * len(out.batch))

    def nilpotent(self, evaluator, weight: float) -> np.ndarray:
        """The exact first variation: the ``t^1`` coefficient on the
        parameter pack, ``d_t out - weight Upsilon(x0) out`` as ``t^2 = 0``,
        each member compensated by its own factor's ``Upsilon(x0)``."""
        pp = self.param
        out = evaluator(pp)
        wu = self._times_x0(pp, float(weight), out)
        return np.asarray(out.deriv(pp.k).value - wu * out.value)

    def compensated(self, evaluator, weight: float, t) -> np.ndarray:
        """``exp(-weight t Upsilon(x0))`` times ``evaluator``'s value on the
        finite pack at ``t``, one entry per member (per ``t`` or factor)."""
        pack = self.finite(t)
        out = evaluator(pack)
        return np.exp(self._times_x0(pack, -weight * np.asarray(t), out)) * out.value

    def central(self, evaluator, weight: float) -> np.ndarray:
        plus, minus = self.compensated(evaluator, weight, (_STEP, -_STEP))
        return (plus - minus) / (2.0 * _STEP)

    # --- report assembly ---
    def report(self, name, evaluator, weight, *, analytic=None,
               cross_check=False):
        """A :class:`LinearizationReport` of one :meth:`nilpotent` variation.

        With ``cross_check`` the variation is also differenced, on one pack
        whose two members are the ``+/-_STEP`` rescales, and the gap between
        the two routes recorded.
        """
        numeric = self.nilpotent(evaluator, weight)
        gap = (_gap(numeric, self.central(evaluator, weight))
               if cross_check else None)
        return LinearizationReport(
            quantity=name, numeric=numeric,
            residual=None if analytic is None else _gap(numeric, analytic),
            method_gap=gap)


def linearize(evaluator, scene: Scene, upsilon, weight, *, analytic=None,
              name="quantity") -> LinearizationReport:
    """First conformal variation of ``evaluator``'s stored components.

    ``evaluator`` maps a :class:`SubmanifoldPack` of ``scene`` to a jet
    tensor; ``weight`` is the exponent of its stored components under
    rescale (abstract all-lowered homogeneity minus the number of
    orthonormal normal slots).  The nilpotent-parameter route is exact and
    is cross-checked by central differences at ``t = +/-1e-4``.
    """
    return _Engine(scene, upsilon).report(name, evaluator, weight,
                                          analytic=analytic, cross_check=True)


# -- ambient transformation laws -----------------------------------------------

_WEYL_PATTERNS = ("tttt", "tttn", "ttnn", "tntn")
_SCHOUTEN_PATTERNS = ("tt", "tn", "nn")


def ambient_law_reports(scene: Scene, *, seed=0) -> list[LinearizationReport]:
    """Variation laws for the ambient curvature family along the patch.

    The Weyl tensor is conformally invariant, the Schouten tensor picks
    up minus the ambient Hessian of ``Upsilon``, the Cotton tensor a
    gradient contraction of the Weyl tensor, and the Bach tensor (for
    ``n != 4``) a gradient contraction of the Cotton tensor.  Stored
    weights follow the normal-slot count of each projection pattern.
    """
    eng = _Engine(scene, random_upsilon(scene.n, seed=seed))
    p, r = eng.param, eng.restriction
    n = p.n
    wu = jet_einsum("abcd,d->abc", p.pulled("weyl"), r.ambient_up)
    # tensor, pattern, weight, tensor whose projection the law subtracts
    rows = ([("weyl", pat, 2.0, None) for pat in _WEYL_PATTERNS]
            + [("schouten", pat, 0.0, r.ambient_hessian)
               for pat in _SCHOUTEN_PATTERNS]
            + [("cotton", pat, 0.0, wu) for pat in ("ttt", "ttn")])
    reports = [eng.report(
        f"{nm}[{pat}]", lambda q, nm=nm, pat=pat: q.block(nm, pat),
        w - pat.count("n"),
        analytic=0.0 if law is None else -np.asarray(p.project(law, pat).value))
        for nm, pat, w, law in rows]
    cu = jet_einsum("gab,g->ab", p.pulled("cotton"), r.ambient_up)
    csym = (cu + jet_trace(cu, "ab->ba")) * 0.5
    analytic = 2.0 * (n - 4) * np.asarray(p.project(csym, "tt").value)
    reports.append(eng.report(
        "bach[tt]", lambda q: q.block("bach", "tt"), -2.0,
        analytic=analytic))
    return reports


# -- submanifold transformation laws -------------------------------------------


def submanifold_law_reports(scene: Scene, *, seed=0) -> list[LinearizationReport]:
    """Variation laws for the second fundamental form family.

    The full form varies by ``-Upsilon_normal g``, its trace-free part
    and the normal-bundle curvature are invariant, and the mean
    curvature varies by minus the normal gradient.
    """
    eng = _Engine(scene, random_upsilon(scene.n, seed=seed))
    p, r = eng.param, eng.restriction
    normal = np.asarray(r.normal.value)
    induced = np.asarray(p.induced.value)
    reports = [
        eng.report("second_fundamental",
                   lambda q: q.second_fundamental, 1.0,
                   analytic=-np.einsum("ab,r->abr", induced, normal)),
        eng.report("second_tracefree",
                   lambda q: q.second_tracefree, 1.0, analytic=0.0),
        eng.report("mean_curvature",
                   lambda q: q.mean_curvature, -1.0, analytic=-normal),
        eng.report("normal_curvature",
                   lambda q: q.normal_curvature, 0.0, analytic=0.0),
        eng.report("induced_metric",
                   lambda q: q.induced, 2.0, analytic=0.0),
    ]
    if scene.patch.k >= 3:
        reports.append(eng.report(
            "fialkow", lambda q: q.fialkow, 0.0, analytic=0.0))
    return reports


# -- derivative operators --------------------------------------------------------


def _probe_scalar(pack) -> Jets:
    xs = pack.chart_jets
    return (0.4 * xs[0] * xs[1] - 0.3 * xs[2]
            + 0.2 * xs[0] * xs[0] * xs[2] + 0.7 * xs[1] + 1.1)


def _probe_tangent_form(pack) -> Jets:
    xs = pack.chart_jets
    comps = []
    for b in range(pack.k):
        comps.append((0.3 + 0.1 * b) * xs[0] * xs[b]
                     - 0.2 * xs[(b + 1) % pack.k] + 0.5 * b * xs[2] + 0.4)
    return jets_stack(comps)


def _probe_normal_form(pack) -> Jets:
    xs = pack.chart_jets
    comps = []
    for i in range(pack.n - pack.k):
        comps.append(0.6 * xs[0] - (0.25 + 0.1 * i) * xs[1] * xs[1]
                     + 0.3 * i * xs[2] + 0.9)
    return jets_stack(comps)


def derivative_law_reports(scene: Scene, *, seed=0) -> list[LinearizationReport]:
    """Variation laws of the induced connection and Laplacian.

    Probes the tangential covariant derivative on one-forms of stored
    weight 1.3 (tangential and normal-bundle valued), the divergence, and
    the Laplacian on scalars, against their closed-form lower-order terms.
    Every variation is cross-checked by central differences.
    """
    eng = _Engine(scene, random_upsilon(scene.n, seed=seed))
    p, r = eng.param, eng.restriction
    w = 1.3  # generic, so no weight-dependent term of a law drops out
    k = p.k
    gl = np.asarray(r.grad.value)
    gu = np.asarray(r.grad_up.value)
    h = np.asarray(p.induced.value)

    tau = np.asarray(_probe_tangent_form(p).value)
    sig = np.asarray(_probe_normal_form(p).value)
    phi = _probe_scalar(p)
    dphi = np.asarray(p.tangential_gradient(phi).value)
    # each operator acts on its probe rescaled at the probe's stored weight;
    # the orthonormal normal slot lowers both stored weights by one
    rows = [
        ("tangential_derivative[one-form]", w,
         lambda q: q.tangential_cov_deriv(
             eng.scale(q, w) * _probe_tangent_form(q), "t"),
         (w - 1.0) * np.einsum("a,b->ab", gl, tau)
         - np.einsum("b,a->ab", gl, tau) + np.dot(gu, tau) * h),
        ("tangential_derivative[normal-form]", w - 1.0,
         lambda q: q.tangential_cov_deriv(
             eng.scale(q, w - 1.0) * _probe_normal_form(q), "n"),
         (w - 1.0) * np.einsum("a,r->ar", gl, sig)),
        ("tangential_divergence", w - 2.0,
         lambda q: q.divergence(eng.scale(q, w) * _probe_tangent_form(q)),
         (k + w - 2.0) * np.dot(gu, tau)),
        ("tangential_laplacian", w - 2.0,
         lambda q: q.tangential_laplacian(eng.scale(q, w) * _probe_scalar(q)),
         (k + 2.0 * w - 2.0) * np.dot(gu, dphi)
         + w * float(r.laplacian.value) * float(phi.value)),
    ]
    return [eng.report(nm, ev, wt, analytic=law, cross_check=True)
            for nm, wt, ev, law in rows]


# -- trace-adjusted tensors and their tangential dependence ----------------------


#: name, evaluator and weight of each mixed quantity, as in :func:`_lemma_laws`
_LEMMA_ROWS = (
    ("mixed_schouten", lambda q: q.mc_schouten, 0.0),
    ("mixed_cotton[ttt]", lambda q: q.block("mc_cotton", "ttt"), 0.0),
    ("mixed_cotton_trace", lambda q: q.mc_cotton_trace, -2.0),
    ("mixed_bach", lambda q: q.mc_bach, -2.0),
    ("normal_deflection", lambda q: q.normal_deflection, -1.0),
)


def _lemma_laws(eng: _Engine) -> list[np.ndarray]:
    """The analytic variation of each :data:`_LEMMA_ROWS` quantity."""
    p, r = eng.param, eng.restriction
    n = p.n
    gu = np.asarray(r.grad_up.value)
    w4 = p.block("weyl", "tttt")
    c3 = p.block("mc_cotton", "ttt")
    csym = (c3 + jet_trace(c3, "gab->gba")) * 0.5
    return [
        -np.asarray(r.hessian.value),
        -np.einsum("abcz,z->abc", np.asarray(w4.value), gu),
        -np.einsum("ae,e->a", np.asarray(p.weyl_partial_trace.value), gu),
        2.0 * (n - 4) * np.einsum("g,gab->ab", gu, np.asarray(csym.value)),
        -np.einsum("b,abr->ar", gu, np.asarray(p.second_tracefree.value)),
    ]


def check_tangential_dependence(scene: Scene, *, seed=0) -> dict:
    """Laws for the trace-adjusted tensors plus their key dependence claim.

    The five mixed quantities (Schouten, Cotton, Cotton trace, Bach,
    normal deflection) vary only through the tangential jet of
    ``Upsilon``; re-running the battery with ``Upsilon`` vanishing along
    the submanifold must therefore kill every variation, and the
    trace-adjusted Schouten variation vanishes identically as soon as the
    pullback of ``Upsilon`` does (the re-run needs no laws).
    """
    normal_only = transverse_vanishing_upsilon(scene, 0, seed=seed + 101)
    eng = _Engine(scene, random_upsilon(scene.n, seed=seed))
    eng0 = _Engine(scene, normal_only)
    reports = [eng.report(nm, ev, w, analytic=law)
               for (nm, ev, w), law in zip(_LEMMA_ROWS, _lemma_laws(eng))]
    silent = [_gap(eng0.nilpotent(ev, w)) for _, ev, w in _LEMMA_ROWS]
    return {
        "reports": reports,
        "tangential_zero_max": _gap(silent),
        "schouten_pullback_zero": silent[0],
    }


# -- pointwise conformal invariance ----------------------------------------------

def check_invariance(scene: Scene, *, seed=0) -> dict:
    """Finite-rescale covariance of the registered scalar invariants.

    For each scalar available at the scene that ``REGISTRY`` flags
    ``invariant``, of weight ``w``, the rescaled evaluation must equal
    ``exp(w t Upsilon)`` times the original at ``t = 0.1`` and
    ``t = -0.07``, and the first variation of the compensated quantity
    must vanish.  A few non-scalar sanity quantities ride along.  The two
    rescales are the two members of one pack.
    """
    eng = _Engine(scene, random_upsilon(scene.n, seed=seed))
    p0 = eng.param
    k = p0.k
    rows = [(nm, lambda q, nm=nm: evaluate(q, nm), REGISTRY[nm].weight_at(k))
            for nm in available(k, p0.n) if REGISTRY[nm].invariant]
    rows += [("tracefree_norm2", lambda q: q.tracefree_norm2, -2.0),
             ("normal_curvature", lambda q: q.normal_curvature, 0.0)]
    if k >= 3:
        rows.append(("fialkow", lambda q: q.fialkow, 0.0))
    out = {}
    for nm, ev, w in rows:
        base = np.asarray(ev(p0).value)
        finite = _gap(eng.compensated(ev, w, (0.1, -0.07)), base)
        out[nm] = {"finite": finite, "weight": w,
                   "variation": _gap(eng.nilpotent(ev, float(w)))}
    return out


# -- Q-curvature transformation ---------------------------------------------------


def check_q_transformation(scenes=None, *, seed: int = 0) -> dict:
    """The change rule of the extrinsic Q-curvatures at a full rescale.

    For each scene and factor, ``exp(k Upsilon) Q_hat`` must equal
    ``Q + P(Upsilon)`` with ``P`` the matching extrinsic operator; the
    operator must also kill constants exactly.  Each scene is probed with
    two random factors, and an equatorial sphere also with a localized
    bump.  Default scenes cover flat and curved surfaces plus curved
    four-folds, including a round-sphere scene.  The rescales of one scene
    are the members of one pack, one per factor.
    """
    if scenes is None:
        scenes = [
            affine_plane(2, 4),
            random_scene(2, 4, seed=seed + 31),
            random_scene(4, 6, seed=seed + 32),
            random_scene(4, 7, seed=seed + 33),
            equatorial_sphere(4, 5),
        ]
    if not scenes:
        raise ValueError("no scenes to check: an empty result passes any check")
    names = [sc.name for sc in scenes]
    repeated = sorted({nm for nm in names if names.count(nm) > 1})
    if repeated:
        raise ValueError(f"scene names {repeated} repeat; rows are keyed by name")
    results = {}
    for sc in scenes:
        k, n = sc.patch.k, sc.patch.n
        if k not in (2, 4):
            raise GeometryError(f"{sc.name}: extrinsic Q-curvature is "
                                f"implemented for k in {{2, 4}}, not k = {k}")
        factors = (random_upsilon(n, seed=seed + 7),
                   random_upsilon(n, seed=seed + 8, degree=3))
        if sc.name.startswith("equatorial"):
            factors += (_bump_factor(0.3),)
        p0 = SubmanifoldPack(sc.metric, sc.patch, sc.point)
        qname = f"extrinsic_q{k}"
        q0 = float(evaluate(p0, qname).value)
        lhs = _Engine(sc, factors).compensated(lambda q: evaluate(q, qname), -k, 1.0)
        u0 = _upsilon_jets(p0, factors)[1]
        rhs = q0 + np.asarray(extrinsic_paneitz_apply(p0, u0).value)
        one = 0.0 * p0.chart_jets[0] + 1.0
        const_residual = _gap(extrinsic_paneitz_apply(p0, one).value)
        results[sc.name] = {"residual": _gap(lhs, rhs),
                            "operator_kills_constants": const_residual}
    return results


def _bump_factor(amplitude: float):
    def fn(xs):
        return amplitude * (-sum((x * x for x in xs[1:]), xs[0] * xs[0])).exp()
    return fn


# -- quartic building blocks: divergence-shaped variations -------------------------


def _div_shape_weyl_full(p) -> Jets:
    V = jet_einsum("bcr,abcr->a", p.second_tracefree_up,
                   p.block("weyl", "tttn"))
    return p.divergence(V)


def quartic_term_reports(scene: Scene, *, seed=0) -> list[LinearizationReport]:
    """First variations of the seven fourth-order scalar summands.

    Each summand's variation is an exact tangential divergence (or
    vanishes outright); this is the pointwise mechanism that lets the
    quartic Q-curvature integrate to a conformal invariant on a closed
    four-fold.  Every variation is exact, the three summands needing four
    metric derivatives included.
    """
    eng = _Engine(scene, random_upsilon(scene.n, seed=seed))
    p, r = eng.param, eng.restriction
    gu, gl = r.grad_up, r.grad

    lap2 = p.tangential_laplacian(r.laplacian)
    rhs1 = -lap2 - 2.0 * p.divergence(gl * p.intrinsic_jtrace)
    rhs2 = p.divergence(jet_einsum("ab,b->a", p.fialkow, gu) * 2.0
                        - gl * p.fialkow_trace)
    rhs3 = -p.divergence(jet_einsum("ab,b->a", p.tracefree_square, gu))
    rhs4 = -2.0 * p.divergence(gl * p.tracefree_norm2)
    rhs5 = -2.0 * p.divergence(gl * p.fialkow_trace)

    rows = [
        ("laplacian_intrinsic_jtrace",
         lambda q: q.tangential_laplacian(q.intrinsic_jtrace), rhs1),
        ("double_divergence_fialkow", lambda q: _double_div(q, "fialkow"),
         rhs2),
        ("div_shape_deflection", _div_shape_deflection, rhs3),
        ("laplacian_tracefree_norm2",
         lambda q: q.tangential_laplacian(q.tracefree_norm2), rhs4),
        ("laplacian_fialkow_trace",
         lambda q: q.tangential_laplacian(q.fialkow_trace), rhs5),
        ("div_shape_weyl_full", _div_shape_weyl_full, 0.0),
        ("div_shape_weyl_trace", _div_shape_weyl_trace, 0.0),
    ]
    return [eng.report(name, ev, -4.0, analytic=getattr(rhs, "value", rhs))
            for name, ev, rhs in rows]


# -- transverse-jet strata ----------------------------------------------------------


@dataclass(frozen=True)
class StratumElement:
    """One quartic scalar together with its transverse-jet stratum."""

    stratum: int
    name: str
    evaluate: object = field(repr=False)


def _pnn(p) -> Jets:
    return p.block("schouten", "nn")


def _pnn_trace(p) -> Jets:
    return jet_trace(_pnn(p), "rr->")


def _mean_outer(p) -> Jets:
    return jet_einsum("r,s->rs", p.mean_curvature, p.mean_curvature)


def _laplacian_mean(p) -> Jets:
    return p.divergence(p.mean_curvature_deriv, "tn")


def _cotton_trace_normal(p) -> Jets:
    return p.project(p.mc_cotton_trace_ambient, "n")


def _normal_gradient_jtrace(p) -> Jets:
    return p.project(p.pull(p.ambient.jtrace.gradient()), "n")


def _ambient_laplacian_jtrace(p) -> Jets:
    a = p.ambient
    ddJ = a.cov_deriv(a.cov_deriv(a.jtrace))
    return p.pull(jet_einsum("ab,ab->", a.g_up, ddJ))


def _build_strata() -> tuple[StratumElement, ...]:
    mean_dot = lambda p, v: jet_einsum("r,r->", p.mean_curvature, v)
    rows = [
        # stratum 0: only the restriction of Upsilon enters
        (0, "fialkow_dot_intrinsic_schouten",
         lambda p: _pair(p, "fialkow", "intrinsic_schouten")),
        (0, "weyl_trace_dot_deflection", _deflection_dot_weyl),
        (0, "tracefree_norm2_jbar",
         lambda p: p.tracefree_norm2 * p.intrinsic_jtrace),
        (0, "tracefree_square_dot_intrinsic_schouten",
         lambda p: _pair(p, "tracefree_square", "intrinsic_schouten")),
        (0, "jbar_squared",
         lambda p: p.intrinsic_jtrace * p.intrinsic_jtrace),
        (0, "intrinsic_schouten_norm2",
         lambda p: _pair(p, "intrinsic_schouten", "intrinsic_schouten")),
        (0, "fialkow_trace_jbar",
         lambda p: p.fialkow_trace * p.intrinsic_jtrace),
        (0, "deflection_norm2", _deflection_norm2),
        # stratum 1: first normal derivatives enter through H
        (1, "mean_dot_laplacian_mean",
         lambda p: mean_dot(p, _laplacian_mean(p))),
        (1, "mean_dot_div_deflection",
         lambda p: mean_dot(p, p.divergence(p.normal_deflection, "tn"))),
        (1, "mean_dot_div_weyl_trace",
         lambda p: mean_dot(p, p.divergence(_w_tn_trace(p), "tn"))),
        (1, "mean_norm4", lambda p: p.mean_norm2 * p.mean_norm2),
        (1, "mean_norm2_tracefree_norm2",
         lambda p: p.mean_norm2 * p.tracefree_norm2),
        (1, "mean_shape_square_mean",
         lambda p: jet_einsum("rs,rs->", _shape_normal_gram(p),
                              _mean_outer(p))),
        (1, "mean_norm2_jbar", lambda p: p.mean_norm2 * p.intrinsic_jtrace),
        (1, "fialkow_trace_mean_norm2",
         lambda p: p.fialkow_trace * p.mean_norm2),
        (1, "mean_shape_cubic", _mean_shape_cubic),
        (1, "mean_dot_shape_fialkow",
         lambda p: mean_dot(p, jet_einsum(
             "abr,ab->r", p.second_tracefree_up, p.fialkow))),
        (1, "mean_dot_shape_intrinsic_schouten",
         lambda p: mean_dot(p, jet_einsum(
             "abr,ab->r", p.second_tracefree_up, p.intrinsic_schouten))),
        (1, "mean_mean_weyl_normal_trace",
         lambda p: jet_einsum("rs,rs->", _mean_outer(p), _w_ntnt_trace(p))),
        (1, "mean_shape_weyl_mixed",
         lambda p: mean_dot(p, jet_einsum(
             "abs,arbs->r", p.second_tracefree_up, p.block("weyl", "tntn")))),
        (1, "mean_dot_cotton_trace",
         lambda p: mean_dot(p, _cotton_trace_normal(p))),
        # stratum 2: the normal-normal Schouten block enters
        (2, "fialkow_trace_normal_schouten_trace",
         lambda p: p.fialkow_trace * _pnn_trace(p)),
        (2, "normal_schouten_dot_weyl_normal_trace",
         lambda p: jet_einsum("rs,rs->", _pnn(p), _w_ntnt_trace(p))),
        (2, "mean_norm2_normal_schouten_trace",
         lambda p: p.mean_norm2 * _pnn_trace(p)),
        (2, "tracefree_norm2_normal_schouten_trace",
         lambda p: p.tracefree_norm2 * _pnn_trace(p)),
        (2, "mean_mean_normal_schouten",
         lambda p: jet_einsum("rs,rs->", _mean_outer(p), _pnn(p))),
        (2, "shape_square_normal_schouten",
         lambda p: jet_einsum("rs,rs->", _shape_normal_gram(p), _pnn(p))),
        (2, "jbar_normal_schouten_trace",
         lambda p: p.intrinsic_jtrace * _pnn_trace(p)),
        (2, "normal_schouten_trace_squared",
         lambda p: _pnn_trace(p) * _pnn_trace(p)),
        (2, "normal_schouten_norm2",
         lambda p: jet_einsum("rs,rs->", _pnn(p), _pnn(p))),
        # stratum 3: normal gradient of the ambient trace
        (3, "mean_normal_grad_ambient_jtrace",
         lambda p: mean_dot(p, _normal_gradient_jtrace(p))),
        # stratum 4: four ambient metric derivatives
        (4, "ambient_laplacian_jtrace", _ambient_laplacian_jtrace),
    ]
    return tuple(StratumElement(s, nm, ev) for s, nm, ev in rows)


#: weight -4 quartic scalars with the depth of transverse jet they consume
QUARTIC_STRATA: tuple[StratumElement, ...] = _build_strata()


def transverse_vanishing_upsilon(scene: Scene, vanish_to: int, *,
                                 seed: int = 0):
    """A factor whose transverse jet vanishes through order ``vanish_to``.

    Multiplies a random polynomial by the ``vanish_to + 1`` power of a
    defining-function combination of the patch, so every derivative of
    the factor through that order vanishes along the submanifold.  The
    combination reads the patch as a graph over its first ``k`` ambient
    coordinates: a patch whose first ``k`` chart jets at the scene point
    are not the chart coordinates raises ``GeometryError``.
    """
    k, n = scene.patch.k, scene.patch.n
    X, _ = scene.patch.chart(scene.point, param=True)
    ys = jets_stack(variables(scene.point, X.order, param=True)[:k])
    if not np.array_equal(X.coeffs[:k], ys.coeffs):
        raise GeometryError(
            f"{scene.name}: a transverse-vanishing factor needs a graph "
            f"patch, whose first {k} ambient coordinates are its chart "
            "coordinates")
    q = random_upsilon(n, seed=seed, degree=3)
    rng = np.random.default_rng(seed + 1)
    cs = rng.uniform(0.4, 1.0, n - k)

    def fn(xs):
        amb = scene.patch.fn(list(xs[:k]))
        terms = [cs[i] * (xs[k + i] - amb[k + i]) for i in range(n - k)]
        rho = sum(terms[1:], terms[0])
        out = q(xs)
        for _ in range(vanish_to + 1):
            out = out * rho
        return out

    return fn


def check_strata_vanishing(scene: Scene, *, seed: int = 0) -> dict:
    """Stratified vanishing of the quartic building-block variations.

    For each depth ``j`` the scene is probed with a factor whose
    transverse jet vanishes through order ``j``; every element in strata
    ``0..j`` must then have vanishing first variation.  A generic factor
    rides along so the claim is not vacuous.  The factors, in depth order,
    generic last, are the members of engines of ``_STRATA_BATCH``.

    The deepest probe is vacuous at ``PACK_ORDER = 4``: its factor carries
    the fifth power of the defining combination, so it has no monomial a
    pack keeps, its pack jet is identically zero and every entry of the
    stratum-4 row reads exactly 0.0.  The row stays, as the benchmark pins
    the per-stratum element counts; a pack order above 4 makes it a probe.
    """
    strata = sorted({el.stratum for el in QUARTIC_STRATA})
    depths = strata + strata[-1:]
    factors = [transverse_vanishing_upsilon(scene, j, seed=seed + 10 * j)
               for j in strata] + [random_upsilon(scene.patch.n, seed=seed + 77)]
    mags = []
    for lo in range(0, len(factors), _STRATA_BATCH):
        eng = _Engine(scene, tuple(factors[lo:lo + _STRATA_BATCH]))
        group = depths[lo:lo + _STRATA_BATCH]
        var = {el: eng.nilpotent(el.evaluate, -4.0)
               for el in QUARTIC_STRATA if el.stratum <= group[-1]}
        mags += [{el.name: _gap(v[m]) for el, v in var.items() if el.stratum <= d}
                 for m, d in enumerate(group)]
    return {"vanishing": dict(zip(strata, mags)), "generic": mags[-1]}


# -- linear-independence witness ----------------------------------------------------


def witness_metric(n: int, s: float, t: float, u: float,
                   v: float) -> MetricField:
    """Diagonal exponential metric whose quadratic factors probe the span.

    The four parameters steer the tangential Weyl traces and the two
    divergence scalars independently; the submanifold is the flat
    4-plane through the origin.
    """
    if n < 5:
        raise GeometryError("the witness needs at least one normal direction")
    zero = lambda xs: 0.0 * xs[0]
    fs = [
        lambda xs: s * xs[1] * xs[1] + t * xs[1] * xs[2] + u * xs[0] * xs[4],
        lambda xs: v * xs[0] * xs[4],
        lambda xs: -(u + v) * xs[0] * xs[4],
        zero,
    ] + [zero] * (n - 4)
    return diagonal_exponential_metric(n, fs, name="witness")


_WITNESS_POINTS = (
    (0.0, 0.0, 0.0, 0.0),
    (0.3, 0.0, 0.0, 0.0),
    (0.0, 0.3, 0.0, 0.0),
    (0.15, -0.2, 0.25, 0.1),
    (-0.1, 0.2, 0.1, -0.25),
)


#: name, least ambient dimension and components of each tensor building
#: block of the witness, and of each divergence building block
_WITNESS_TENSORS = (
    ("fialkow", 5, lambda p: p.fialkow.value),
    ("tracefree_square", 5, lambda p: p.tracefree_square.value),
    ("tracefree_norm2_g", 5, lambda p: p.tracefree_norm2.value * p.induced.value),
    ("fialkow_trace_g", 6, lambda p: p.fialkow_trace.value * p.induced.value),
)
_WITNESS_DIVERGENCES = (
    ("div_shape_weyl_full", 5, lambda p: _div_shape_weyl_full(p).value),
    ("div_shape_weyl_trace", 6, lambda p: _div_shape_weyl_trace(p).value),
)


def linear_independence_witness(n: int, *, params=None) -> list[dict]:
    """Singular-value certification that the building blocks are independent.

    For each parameter sample the witness metric is evaluated at several
    points of the 4-plane; the flattened components of each building block
    of :data:`_WITNESS_TENSORS` and :data:`_WITNESS_DIVERGENCES` that
    exists in dimension ``n`` are stacked into one unit row per block, and
    the singular values of each set's row matrix returned, largest first.
    A strictly positive smallest one certifies independence; a set with a
    vanishing block, as in the all-zero sample, reports zeros.
    """
    if params is None:
        params = [(1.0, 1.0, 1.0, 1.0),
                  (0.7, -0.45, 0.6, 0.3),
                  (0.5, 0.8, -0.7, 0.4)]
    if not params:
        raise ValueError("no parameter samples: an empty result passes any check")
    patch = affine_plane(4, n).patch
    results = []
    for s, t, u, v in params:
        g = witness_metric(n, s, t, u, v)
        packs = [SubmanifoldPack(g, patch, list(pt)) for pt in _WITNESS_POINTS]
        row = {"params": (s, t, u, v)}
        for kind, table in (("tensor", _WITNESS_TENSORS),
                            ("divergence", _WITNESS_DIVERGENCES)):
            blocks = [(nm, comps) for nm, least, comps in table if n >= least]
            V = np.array([np.concatenate([np.ravel(comps(p)) for p in packs])
                          for _, comps in blocks])
            norms = np.linalg.norm(V, axis=1)
            singular = (np.zeros(len(V)) if np.any(norms < 1e-13) else
                        np.linalg.svd(V / norms[:, None], compute_uv=False))
            row.update({f"{kind}_names": tuple(nm for nm, _ in blocks),
                        f"{kind}_singular": singular})
        results.append(row)
    return results
