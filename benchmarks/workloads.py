"""The benchmark's three workloads: inputs from a seed, the op, its checks.

Each workload has one op class, so every op does the same amount of work
and the op-time median is steady.  ``make_input(seed, i)`` builds the
inputs of op ``i`` outside the timed window; ``run(inputs)`` is the timed
op; ``check(result)`` returns the failed checks, untimed.  Tolerances are
the ones the tier-1 tests assert for the same quantity.
"""

from __future__ import annotations

import math

import numpy as np

from qgeo import conformal as cf
from qgeo import invariants as inv
from qgeo.scenes import random_scene, t4_in_s7
from qgeo.submanifold import SubmanifoldPack


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _gap_check(out, label, a, b, tol):
    gap = abs(float(a.value) - float(b.value))
    if not gap < tol:
        out.append(f"{label}: gap {gap:.3e} >= {tol:g}")


class InvariantsK4N6:
    """All registered invariants of a random k = 4 patch in codimension 2."""

    name = "invariants-k4n6"
    warmup_ops = 3
    setup_probes = 4
    n_invariants = 16
    route_tol = 1e-12  # tests/test_invariants.py::agree

    def make_input(self, seed, i):
        return random_scene(4, 6, op_seed(seed, i))

    def run(self, scene):
        p = SubmanifoldPack(scene.metric, scene.patch, scene.point)
        return p, inv.evaluate_all(p)

    def values(self, result):
        return result[1]

    def check(self, result):
        p, vals = result
        out = []
        if len(vals) != self.n_invariants:
            out.append(f"{len(vals)} invariants, expected {self.n_invariants}")
        out += [f"{nm} = {v!r}" for nm, v in vals.items()
                if not math.isfinite(v)]
        tol = self.route_tol
        for fn in (inv.div_shape_weyl_a, inv.div_shape_weyl_b):
            _gap_check(out, fn.__name__, fn(p), fn(p, "expanded"), tol)
        for fn in (inv.fialkow_quartic, inv.weyl_trace_quartic):
            _gap_check(out, fn.__name__, fn(p), fn(p, "parts"), tol)
        q4 = inv.extrinsic_q4(p)
        for route in ("trace_expansion", "gauss_bonnet"):
            _gap_check(out, f"extrinsic_q4 {route}", q4,
                       inv.extrinsic_q4(p, route), tol)
        return out

    def layer_counts(self, result):
        return {}


class GaussBonnetGridT4S7:
    """The four Gauss-Bonnet integrand scalars at one node of an angle grid."""

    name = "gb-grid-t4s7"
    warmup_ops = 3
    setup_probes = 4
    per_axis = 4
    scalars = ("intrinsic_pfaffian", "gauss_bonnet_defect", "extrinsic_q4",
               "q4_divergence_flux")
    # closed forms on the flat minimal T^4 in S^7 and their tier-1 tolerances
    # (tests/test_invariants.py::test_flat_torus_in_seven_sphere_golden)
    expected = {
        "intrinsic_pfaffian": (0.0, 1e-12),
        "gauss_bonnet_defect": (6.0, 1e-10),
        "extrinsic_q4": (6.0, 1e-10),
        "q4_divergence_flux": (0.0, 1e-10),
    }

    def make_input(self, seed, i):
        step = 2.0 * np.pi / self.per_axis
        offset = np.random.default_rng(seed).uniform(0.0, step, size=4)
        digits = [(i // self.per_axis**a) % self.per_axis for a in range(4)]
        return t4_in_s7(point=tuple(offset + step * np.array(digits)))

    def run(self, scene):
        p = SubmanifoldPack(scene.metric, scene.patch, scene.point)
        # looked up on the module at call time, so a tracer can wrap them
        return {nm: float(getattr(inv, nm)(p).value) for nm in self.scalars}

    def values(self, result):
        return result

    def check(self, result):
        out = []
        for nm, (want, tol) in self.expected.items():
            err = abs(result[nm] - want)
            if not err < tol:
                out.append(f"{nm} = {result[nm]!r}, expected {want} +- {tol:g}")
        return out

    def layer_counts(self, result):
        return {}


class CertifyK4N5:
    """Four conformal-certification batteries on one random (4, 5) scene."""

    name = "certify-k4n5"
    warmup_ops = 1
    setup_probes = 2
    tangential_names = {"mixed_schouten", "mixed_cotton[ttt]",
                        "mixed_cotton_trace", "mixed_bach",
                        "normal_deflection"}
    strata_counts = {0: 8, 1: 22, 2: 31, 3: 32, 4: 33}

    def make_input(self, seed, i):
        s = op_seed(seed, i)
        return random_scene(4, 5, s), s % 10_000

    def run(self, inputs):
        scene, s = inputs
        return {
            "invariance": cf.check_invariance(scene, seed=s),
            "tangential": cf.check_tangential_dependence(scene, seed=s),
            "strata": cf.check_strata_vanishing(scene, seed=s),
            "q": cf.check_q_transformation(scenes=[scene], seed=s),
        }

    def values(self, result):
        return result

    def check(self, result):
        # thresholds of tests/test_conformal.py for the same batteries
        out = []
        for nm, row in result["invariance"].items():
            if not row["finite"] < 1e-6:
                out.append(f"invariance {nm}: finite {row['finite']:.3e}")
            if not row["variation"] < 1e-7:
                out.append(f"invariance {nm}: variation {row['variation']:.3e}")
        tang = result["tangential"]
        names = {r.quantity for r in tang["reports"]}
        if names != self.tangential_names:
            out.append(f"tangential reports {sorted(names)}")
        for r in tang["reports"]:
            if not r.residual < 1e-6:
                out.append(f"tangential {r.quantity}: residual {r.residual:.3e}")
        if not tang["tangential_zero_max"] < 1e-7:
            out.append(f"tangential_zero_max {tang['tangential_zero_max']:.3e}")
        if not tang["schouten_pullback_zero"] < 1e-12:
            out.append("schouten_pullback_zero "
                       f"{tang['schouten_pullback_zero']:.3e}")
        strata = result["strata"]
        counts = {j: len(m) for j, m in strata["vanishing"].items()}
        if counts != self.strata_counts:
            out.append(f"strata counts {counts}")
        for j, mags in strata["vanishing"].items():
            if not max(mags.values()) < 1e-7:
                out.append(f"stratum {j}: leak {max(mags.values()):.3e}")
        # Non-vacuity: a generic factor must light every stratum above the
        # tolerance under which the check above calls a variation zero.
        # tests/test_conformal.py asks for 1e-3 on its one fixed scene; on
        # random scenes stratum 3 is a single element that can come out
        # small (down to 1.1e-4 over 60 scenes), so the floor is 1e-7.
        lit = {}
        for el in cf.QUARTIC_STRATA:
            lit[el.stratum] = max(lit.get(el.stratum, 0.0),
                                  strata["generic"][el.name])
        out += [f"stratum {j} never lights up ({mag:.3e})"
                for j, mag in lit.items() if not mag > 1e-7]
        for nm, row in result["q"].items():
            if not row["residual"] < 1e-5:
                out.append(f"q {nm}: residual {row['residual']:.3e}")
            if row["operator_kills_constants"] != 0.0:
                out.append(f"q {nm}: constants "
                           f"{row['operator_kills_constants']:.3e}")
        return out

    def layer_counts(self, result):
        """The silent decisions of the conformal layer, read from its output."""
        rows = result["invariance"].values()
        return {
            "conformal.central_difference_fallbacks": sum(
                row.get("variation_method") == "central-difference"
                for row in rows),
            "conformal.flagged_reports": sum(
                r.flagged for r in result["tangential"]["reports"]),
        }


WORKLOADS = {w.name: w for w in (InvariantsK4N6(), GaussBonnetGridT4S7(),
                                 CertifyK4N5())}
