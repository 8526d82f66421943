"""One benchmark process: import ``qgeo``, run one workload, print JSON.

Started by ``run.py`` in a fresh interpreter.  ``--mode setup`` runs only
the first op, cold, and reports the set-up time.  ``--mode run`` goes on
to a closed loop: one client sends the next op when the previous one
returns, until the measured op time reaches ``--seconds``.  With
``--trace 1`` the loop is split in two halves, untraced and traced, and
the traced half reports per-layer figures per op.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

_SRC = Path(__file__).resolve().parent.parent / "src"


class Reference:
    """Fixed work that no change to ``qgeo`` touches, timed next to the ops.

    On a shared 2-core x86-64 VM the time of a fixed pure-Python loop,
    taken in 3 s windows, drifted by up to 1.8x within a minute.  This
    reference slows down with that drift: a pure-Python loop, then a
    gather-multiply-scatter like ``jet_mul`` on about 2 MB of fresh
    arrays, so it feels interpreter speed, memory traffic and page
    faults, as the ops do.  An op's time over
    the reference time around it is therefore steady (over 100 s of
    ``invariants-k4n6`` ops, 5 s medians of the ratio ranged over 1.09x
    against 1.68x unscaled).  ``NOMINAL_S`` is a fixed constant close to
    the reference's time on that VM; ``run.py`` multiplies the ratios by
    it, so they read as times at that speed.
    """

    NOMINAL_S = 0.020

    def __init__(self):
        import numpy as np
        from scipy import sparse

        rng = np.random.default_rng(0)
        size, npairs = 126, 3000
        self._a = rng.standard_normal((36, size))
        self._b = rng.standard_normal((36, size))
        self._i = rng.integers(0, size, npairs)
        self._j = rng.integers(0, size, npairs)
        self._scatter = sparse.csr_matrix(
            (np.ones(npairs), (np.arange(npairs),
                               rng.integers(0, size, npairs))),
            shape=(npairs, size))

    def time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        for _ in range(25):
            (self._a[:, self._i] * self._b[:, self._j]) @ self._scatter
        return time.perf_counter() - start


class Client:
    """Runs and checks ops of one workload, counting failures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.layer_counts = {}

    def op(self, tracer=None):
        """Run the next op; return its duration, or ``None`` if it raised."""
        w = self.workload
        inputs = w.make_input(self.seed, self.next_op)
        self.next_op += 1
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                result = w.run(inputs)
                took = time.perf_counter() - start
            else:
                with tracer.op():
                    start = time.perf_counter()
                    result = w.run(inputs)
                    took = time.perf_counter() - start
        except Exception:
            # an op that raises (GeometryError, BudgetError, ...) is a
            # failed op, not a crash of the benchmark
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.problems += [f"op {self.next_op - 1}: {msg}"
                          for msg in w.check(result)]
        if tracer is not None:
            for name, value in w.layer_counts(result).items():
                self.layer_counts[name] = self.layer_counts.get(name, 0) + value
        return took

    def loop(self, seconds, ref, tracer=None):
        """Closed loop until ``seconds`` of op time.

        Returns ``(duration, reference time)`` of each op that succeeded;
        the reference time is the mean of the reference runs just before
        and just after the op.
        """
        spent = 0.0
        good = []
        before = ref.time()
        while spent < seconds:
            start = time.perf_counter()
            took = self.op(tracer)
            after = ref.time()
            if took is None:
                spent += time.perf_counter() - start
            else:
                spent += took
                good.append((took, 0.5 * (before + after)))
            before = after
        return good


def layer_metrics(tracer, client, untraced, traced, cold_builds):
    """Per-op layer figures of the traced half of a run.

    ``untraced`` and ``traced`` hold ``(duration, reference)`` pairs; the
    overhead compares them at reference speed.
    """
    from tracer import LAYERS

    ops = tracer.ops
    counts = tracer.counts
    out = {
        name: counts[name] / ops for name in (
            "jets.jet_mul.calls", "jets.jet_einsum.calls",
            "fields.metric_jets.calls", "fields.polynomial.calls",
            "ambient.packs", "ambient.cov_derivs", "jets.Composer.pulls",
            "jets.Composer.table_builds", "submanifold.packs",
            "invariants.evaluations")
    }
    for name in ("conformal.central_difference_fallbacks",
                 "conformal.flagged_reports"):
        out[name] = client.layer_counts.get(name, 0) / ops
    products, gathered = tracer.kernel_totals()
    out["jets.pair_products"] = products / ops
    out["jets.gathered_mb"] = gathered * 8 / ops / 1e6
    out["jets.space.builds"] = cold_builds + counts["jets.space.builds"]
    for layer, prefix in LAYERS.items():
        out[f"{prefix}.self_s"] = tracer.self_s[layer] / ops
        out[f"{prefix}.incl_s"] = tracer.incl_s[layer] / ops
    out["trace.layers_self_s"] = sum(tracer.self_s[layer]
                                     for layer in LAYERS) / ops
    out["trace.unattributed_s"] = tracer.self_s["bench"] / ops
    out["trace.op_s"] = tracer.op_s / ops
    for name, pairs in (("traced", traced), ("untraced", untraced)):
        scaled = sum(took * Reference.NOMINAL_S / ref for took, ref in pairs)
        out[f"trace.{name}_ops_per_s"] = len(pairs) / scaled
    out["trace.overhead_ratio"] = (out["trace.untraced_ops_per_s"]
                                   / out["trace.traced_ops_per_s"])
    top = sorted(tracer.entries.items(), key=lambda kv: -kv[1][1])[:15]
    entries = {f"{layer}:{name}": {"calls": calls / ops, "self_s": own / ops}
               for (layer, name), (calls, own) in top}
    return out, entries


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '')} {blas.get('version', '')}"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args(argv)

    if not (_SRC / "qgeo" / "__init__.py").is_file():
        print(f"qgeo sources not found under {_SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(_SRC))
    import qgeo  # noqa: F401
    import workloads

    if not Path(qgeo.__file__).resolve().is_relative_to(_SRC):
        print(f"imported qgeo from {qgeo.__file__}, not {_SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    client = Client(workload, args.seed)
    report = {"setup_probes": workload.setup_probes}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    client.op(tracer)
    report["setup_s"] = time.perf_counter() - _T0
    ref = Reference()
    report["ref_nominal_s"] = ref.NOMINAL_S
    report["setup_ref_s"] = sorted(ref.time() for _ in range(3))[1]
    if tracer is not None:
        tracer.uninstall()
        cold_builds = tracer.counts["jets.space.builds"]
        tracer.reset()
        client.layer_counts = {}

    if args.mode == "run":
        for _ in range(workload.warmup_ops - 1):
            client.op()
        if tracer is None:
            report["durations"] = client.loop(args.seconds, ref)
        else:
            untraced = client.loop(args.seconds / 2, ref)
            with tracer.installed():
                traced = client.loop(args.seconds / 2, ref, tracer)
            if not (traced and untraced):
                print("no op succeeded in a measured loop", file=sys.stderr)
                return 1
            report["layers"], report["entries"] = layer_metrics(
                tracer, client, untraced, traced, cold_builds)
    report["versions"] = versions()
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    report["attempted"] = client.attempted
    report["failed"] = client.failed
    report["problems"] = client.problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
