"""Microbenchmarks of the kernels under the conformal batteries.

Run with::

    PYTHONPATH=src python -m pytest tests/bench_kernels.py --benchmark-only

Needs ``pytest-benchmark`` (the ``test`` extra).  The file name is outside
the ``test_*.py`` pattern, so the test suite does not collect it.  Inputs
are those of a ``random_scene(4, 5)`` parameter pack: the rescaled
metric's polynomial on coordinate variables, the conformal factor on the
same variables pulled back along the chart (the route of the conformal
batteries), a product on the (4+1)-variable order-5 chart space, and one
pullback of the metric jets along the chart.  Two cases time the per-call
floor of the product kernel on the (4+1)-variable order-4 pack space: a
scalar ``jet_mul`` and a frame projection ``jet_einsum("abcd,za->zbcd")``
of a (5, 5, 5, 5) tensor against a (4, 5) frame.  One case times the
per-call floor of the small operations an invariant runs most: an
``ab,bc->ac`` product of (4, 4) jets at orders 0 and 1 and a same-space
``+`` at order 1, on plain and on three-member jets of four variables.  The
next three build the
ambient curvature pack (read through Bach), the inverse metric and the
Riemann tensor from the order-4 metric jets of ``t4-in-s7`` (n = 7) at one
node of the Gauss-Bonnet angle grid.  Two cases time a cold start: ``import qgeo``
in a fresh ``python -B`` interpreter (interpreter start-up included), and
the 11 jet spaces one Gauss-Bonnet node builds, with their product and
derivative tables, from a cleared multi-index cache.  Two more time the
pullback and frame layers: the five pulls (``g``, ``gamma``, ``weyl``,
``cotton``, ``bach``) of the ``t4-in-s7`` node's ambient pack through a
fresh chart ``Composer``, table builds included, and ``normal_coframe`` of
a fresh plain pack of ``random_scene(4, 6, 13)`` whose induced metric is
already built.  Two cases time the layers the conformal batteries build per
parameter pack: a fresh ``random_scene(4, 5)`` parameter pack
read through ``second_fundamental`` and ``normal_connection`` (chart
tables already built), and the ambient curvature pack, read through Bach,
from the metric jets on the (5+1)-variable parameter space.  Two pairs
time the member axis: the variations of every quartic strata element
under the six factors of ``check_strata_vanishing``, as six single
engines and as two engines of three members, and one ``ab,bc->ac``
product of (5, 5) jets on the pack space at the curvature's order
``PACK_ORDER - 2``, three single products against one product of three
members.  The last pair times the block orders: the five Weyl blocks that
``SubmanifoldPack.block`` cuts below the pulled Weyl tensor (``tntn``,
``ntnt``, ``ttnn``, ``tttn``, ``ttnt``) projected on a three-member
parameter pack (the first three strata factors) at the tensor's order 2
and at their ``_SLACK`` orders, frames already built.  The last case
times one ``certify-k4n5`` benchmark op: the invariance, tangential,
strata and Q batteries, in that order, on a fresh ``random_scene(4, 5,
3)`` each round, so the invariance and tangential batteries share one
parameter pack and no pack or chart carries over between rounds.

For an A/B against another checkout, run each side's own copy of this
file from the root of its own tree.  ``pyproject.toml`` puts ``src`` on
pytest's ``pythonpath``, which goes before ``PYTHONPATH``, so pointing
``PYTHONPATH`` at the other tree's ``src`` still times this tree's code.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgeo
import qgeo.conformal as cf
from qgeo.ambient import (
    CurvaturePack,
    _first_kind,
    inverse_metric_jets,
    riemann_jets,
)
from qgeo.jets import (
    PACK_ORDER,
    Composer,
    JetSpace,
    Jets,
    _multi_indices,
    jet_einsum,
    jet_mul,
    jets_members,
    space,
    variables,
)
from qgeo.scenes import random_scene, random_upsilon, t4_in_s7
from qgeo.submanifold import _SLACK, SubmanifoldPack

SCENE = random_scene(4, 5, seed=3)
# a node of the 4^4 angle grid on T^4 (grid step pi/2)
NODE = t4_in_s7(point=(0.3, 0.3 + np.pi / 2, 0.3 + np.pi, 0.3 + 3 * np.pi / 2))


@pytest.fixture(scope="module")
def chart():
    """Chart jets of the parameter pack (order ``PACK_ORDER + 1``, 4 + 1
    variables)."""
    return SCENE.patch.jets(SCENE.point, PACK_ORDER + 1, param=True)


def test_polynomial_on_coordinates(benchmark, chart):
    xs = variables(chart.value[: SCENE.n], PACK_ORDER, param=True)
    out = benchmark(SCENE.metric.fn, xs)
    assert out.batch == (SCENE.n, SCENE.n)


def test_upsilon_pulled_to_the_chart(benchmark, chart):
    ups = random_upsilon(SCENE.n, seed=4)
    xs = variables(chart.value[: SCENE.n], PACK_ORDER, param=True)
    pull = Composer(chart)
    pull(ups(xs[: SCENE.n]))  # a pack builds this table once, for pulled("g")
    out = benchmark(lambda: pull(ups(xs[: SCENE.n])))
    assert out.space is chart.truncate(PACK_ORDER).space


def test_jet_mul_on_parameter_space(benchmark):
    spc = space(5, 5, param=True)
    rng = np.random.default_rng(0)
    a, b = (Jets(spc, rng.normal(size=(5, 5, spc.size))) for _ in range(2))
    out = benchmark(jet_mul, a, b)
    assert out.space is spc


def test_scalar_jet_mul_on_pack_space(benchmark):
    spc = space(5, PACK_ORDER, param=True)
    rng = np.random.default_rng(1)
    a, b = (Jets(spc, rng.normal(size=spc.size)) for _ in range(2))
    out = benchmark(jet_mul, a, b)
    assert out.space is spc


def test_frame_projection_on_pack_space(benchmark):
    spc = space(5, PACK_ORDER, param=True)
    rng = np.random.default_rng(2)
    T = Jets(spc, rng.normal(size=(5, 5, 5, 5, spc.size)))
    frame = Jets(spc, rng.normal(size=(4, 5, spc.size)))
    out = benchmark(jet_einsum, "abcd,za->zbcd", T, frame)
    assert out.batch == (4, 5, 5, 5)


def test_per_call_floor_of_small_operations(benchmark):
    rng = np.random.default_rng(4)
    operands = []
    for members in (False, True):
        for order in (0, 1):
            spc = space(4, order)
            As, Bs = ([Jets(spc, rng.normal(size=(4, 4, spc.size)))
                       for _ in range(3)] for _ in range(2))
            operands.append((jets_members(As), jets_members(Bs)) if members
                            else (As[0], Bs[0]))

    def run():
        out = []
        for a, b in operands:
            out.append(jet_einsum("ab,bc->ac", a, b))
            if a.order == 1:
                out.append(a + b)
        return out

    out = benchmark(run)
    assert [j.members for j in out] == [0, 0, 0, 3, 3, 3]
    assert [j.order for j in out] == [0, 1, 1, 0, 1, 1]


def test_composer_pull(benchmark, chart):
    metric = SCENE.metric.jets(chart.value[: SCENE.n], PACK_ORDER, param=True)
    pull = Composer(chart)
    pull(metric)  # the monomial tables are built once per composer
    out = benchmark(pull, metric)
    assert out.batch == (SCENE.n, SCENE.n)


@pytest.fixture(scope="module")
def node_metric():
    """Order-``PACK_ORDER`` ambient metric jets of ``t4-in-s7`` at ``NODE``."""
    x = NODE.patch.jets(NODE.point, PACK_ORDER + 1).value[: NODE.n]
    return NODE.metric.jets(x, PACK_ORDER)


def test_curvature_pack_on_t4_in_s7(benchmark, node_metric):
    bach = benchmark(lambda: CurvaturePack(node_metric).bach)
    assert bach.batch == (NODE.n, NODE.n)


def test_inverse_metric_jets(benchmark, node_metric):
    out = benchmark(inverse_metric_jets, node_metric)
    assert out.space is node_metric.space


def test_riemann_jets_on_t4_in_s7(benchmark, node_metric):
    gamma = CurvaturePack(node_metric).gamma
    first = _first_kind(node_metric)
    out = benchmark(riemann_jets, first, gamma)
    assert out.batch == (NODE.n,) * 4


def test_import_qgeo_in_a_fresh_interpreter(benchmark):
    env = dict(os.environ, PYTHONPATH=str(Path(qgeo.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-B", "-c", "import qgeo"]
    benchmark.pedantic(subprocess.run, args=(cmd,), kwargs=dict(env=env, check=True),
                       rounds=5, iterations=1)


#: (nvars, order) of the spaces one ``gb-grid-t4s7`` node builds: the chart
#: space (4 variables, order 5), the ambient pack space (7, order 4) and
#: their truncations; every space of order >= 1 differentiates along each
#: variable
GB_NODE_SPACES = [(4, order) for order in range(6)] + [(7, order) for order in range(5)]


def build_gb_node_tables():
    _multi_indices.cache_clear()
    for nvars, order in GB_NODE_SPACES:
        # built directly, so the cached spaces other cases hold stay valid
        spc = JetSpace(nvars, order, False)
        spc.mul_tables()
        for var in range(nvars if order else 0):
            spc.deriv_tables(var)


def test_jet_tables_of_a_gauss_bonnet_node(benchmark):
    benchmark.pedantic(build_gb_node_tables, rounds=10, iterations=1)


#: the ambient tensors a Gauss-Bonnet node pulls back, of orders 4 down to 0
GB_PULLS = ("g", "gamma", "weyl", "cotton", "bach")


def test_pulls_through_a_fresh_gauss_bonnet_chart(benchmark, node_metric):
    amb = CurvaturePack(node_metric)
    fields = [getattr(amb, nm) for nm in GB_PULLS]
    X = NODE.patch.jets(NODE.point, PACK_ORDER + 1)

    def pull_all():
        pull = Composer(X)
        return [pull(f) for f in fields]

    out = benchmark(pull_all)
    assert [f.order for f in out] == [PACK_ORDER, 2, 2, 1, 0]


FRAME_SCENE = random_scene(4, 6, seed=13)


def fresh_frame_pack():
    p = SubmanifoldPack(FRAME_SCENE.metric, FRAME_SCENE.patch, FRAME_SCENE.point)
    p.induced  # the pull of g and the induced metric stay out of the timing
    return (p,), {}


def test_normal_coframe_of_a_fresh_pack(benchmark):
    out = benchmark.pedantic(lambda p: p.normal_coframe, setup=fresh_frame_pack,
                             rounds=200, iterations=1)
    assert out.batch == (FRAME_SCENE.n - FRAME_SCENE.patch.k, FRAME_SCENE.n)


def test_parameter_pack_through_the_connections(benchmark, chart):
    def build():
        p = SubmanifoldPack(SCENE.metric, SCENE.patch, SCENE.point, param=True)
        return p.second_fundamental, p.normal_connection

    build()  # the chart and its monomial table are kept on the patch
    L, omega = benchmark(build)
    assert L.space.param and omega.batch == (SCENE.patch.k, 1, 1)


def test_curvature_pack_on_parameter_space(benchmark, chart):
    metric = SCENE.metric.jets(chart.value[: SCENE.n], PACK_ORDER, param=True)
    bach = benchmark(lambda: CurvaturePack(metric).bach)
    assert bach.space.nvars == SCENE.n + 1 and bach.space.param


def _strata_factors():
    """The six factors of ``check_strata_vanishing(SCENE)``, in depth order."""
    return [cf.transverse_vanishing_upsilon(SCENE, j, seed=10 * j)
            for j in range(5)] + [random_upsilon(SCENE.n, seed=77)]


@pytest.mark.parametrize("members", [1, 3], ids=["six-engines", "two-engines"])
def test_strata_variations_by_engine(benchmark, members):
    factors = _strata_factors()

    def run():
        out = []
        for lo in range(0, len(factors), members):
            group = tuple(factors[lo:lo + members])
            eng = cf._Engine(SCENE, group if members > 1 else group[0])
            out += [eng.nilpotent(el.evaluate, -4.0) for el in cf.QUARTIC_STRATA]
        return out

    out = benchmark(run)
    assert len(out) == len(cf.QUARTIC_STRATA) * len(factors) // members


@pytest.mark.parametrize("members", [1, 3], ids=["three-products", "one-product"])
def test_member_product_on_pack_space(benchmark, members):
    spc = space(5, PACK_ORDER - 2, param=True)
    rng = np.random.default_rng(3)
    As, Bs = ([Jets(spc, rng.normal(size=(5, 5, spc.size))) for _ in range(3)]
              for _ in range(2))
    if members == 3:
        out = benchmark(jet_einsum, "ab,bc->ac", jets_members(As), jets_members(Bs))
        assert out.members == 3
    else:
        out = benchmark(lambda: [jet_einsum("ab,bc->ac", a, b)
                                 for a, b in zip(As, Bs)])
        assert len(out) == 3


#: the Weyl blocks built below the pulled Weyl tensor's order
LOWERED_WEYL = ("tntn", "ntnt", "ttnn", "tttn", "ttnt")


@pytest.mark.parametrize("cut", [False, True], ids=["tensor-order", "read-order"])
def test_weyl_blocks_on_parameter_pack(benchmark, cut):
    p = cf._Engine(SCENE, tuple(_strata_factors()[:3])).param
    weyl = p.pulled("weyl")
    p.tangent_frame, p.normal_frame  # the frames stay out of the timing

    def blocks():
        return [p.project(weyl.truncate(weyl.order - cut * _SLACK["weyl", pat]),
                          pat) for pat in LOWERED_WEYL]

    out = benchmark(blocks)
    assert weyl.members == 3 and [b.order for b in out] == (
        [0, 0, 0, 1, 1] if cut else [2] * 5)


def fresh_certify_scene():
    return (random_scene(4, 5, seed=3),), {}


def certify_batteries(sc):
    return (cf.check_invariance(sc, seed=3),
            cf.check_tangential_dependence(sc, seed=3),
            cf.check_strata_vanishing(sc, seed=3),
            cf.check_q_transformation(scenes=[sc], seed=3))


def test_certify_batteries_on_a_fresh_scene(benchmark):
    out = benchmark.pedantic(certify_batteries, setup=fresh_certify_scene,
                             rounds=10, iterations=1)
    invariance, tangential, strata, q = out
    assert len(tangential["reports"]) == len(cf._LEMMA_ROWS)
    assert sorted(strata["vanishing"]) == [0, 1, 2, 3, 4] and len(q) == 1
    assert all(row["variation"] < 1e-7 for row in invariance.values())
