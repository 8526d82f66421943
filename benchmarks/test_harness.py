"""Tests of the benchmark harness itself.

Run from the repository root with
``PYTHONPATH=src python -m pytest -q benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent

#: per-layer metrics that are counts, so two runs must agree exactly
EXACT = ("jets.jet_mul.calls", "jets.jet_einsum.calls", "jets.pair_products",
         "jets.gathered_mb", "jets.space.builds", "fields.metric_jets.calls",
         "fields.polynomial.calls", "ambient.packs", "ambient.cov_derivs",
         "jets.Composer.pulls", "jets.Composer.table_builds",
         "submanifold.packs", "invariants.evaluations",
         "conformal.central_difference_fallbacks",
         "conformal.flagged_reports")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def traced_metrics(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat(workload):
    first = traced_metrics(workload, 3)
    second = traced_metrics(workload, 3)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["jets.jet_mul.calls"] > 0
    assert first["submanifold.packs"] >= 1


@pytest.mark.parametrize("workload", ["invariants-k4n6", "gb-grid-t4s7"])
def test_traced_values_are_bit_identical(workload):
    w = workloads.WORKLOADS[workload]
    inputs = w.make_input(5, 1)
    plain = w.values(w.run(inputs))
    tracer = Tracer()
    with tracer.installed():
        with tracer.op():
            traced = w.values(w.run(inputs))
    assert traced == plain
    assert tracer.counts["jets.jet_einsum.calls"] > 0


def test_self_times_cover_the_op():
    w = workloads.WORKLOADS["gb-grid-t4s7"]
    tracer = Tracer()
    with tracer.installed():
        with tracer.op():
            w.run(w.make_input(2, 0))
    assert set(tracer.self_s) <= set(LAYERS) | {"bench"}
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.op_s, rel=1e-9)
    assert min(tracer.self_s.values()) >= 0.0
    assert tracer.incl_s["L4"] >= tracer.self_s["L4"]


def test_uninstall_restores_every_entry_point():
    from qgeo import invariants, jets, submanifold

    before = (jets.jet_mul, submanifold.jet_einsum, invariants.evaluate,
              submanifold.SubmanifoldPack.__dict__["normal_frame"],
              jets.Composer.__call__)
    tracer = Tracer()
    with tracer.installed():
        assert jets.jet_mul is not before[0]
        assert submanifold.jet_einsum is not before[1]
    after = (jets.jet_mul, submanifold.jet_einsum, invariants.evaluate,
             submanifold.SubmanifoldPack.__dict__["normal_frame"],
             jets.Composer.__call__)
    assert all(a is b for a, b in zip(before, after))


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 41))
    assert run.tail(samples) == (30, 75.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "invariants-k4n6", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
