"""Layer tracer for the benchmark: spans and counters around ``qgeo`` calls.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces public entry points of each layer with wrappers at run time, and
:meth:`Tracer.uninstall` puts the originals back.

* Functions are replaced in every ``qgeo`` module that holds them by name
  (``from .jets import jet_mul`` binds a second name, which must be
  patched too).
* Methods and cached properties are replaced on their class.

While :attr:`Tracer.active` is set, each wrapped call opens a span.  The
span that was open when the call started is its parent; a span's self time
is its duration minus the time covered by its child spans, and it is
charged to the span's layer.  Spans are folded into per-layer and
per-entry-point totals as they close, so memory stays flat however long
the run is.  The root span of each operation belongs to the ``bench``
layer, whose self time is the op time no layer span covers.

Counters sit at the same boundaries.  The kernel counters are computed
from operand shapes: ``pair_products`` is the number of scalar
coefficient products a call performs, ``batch x npairs``, and
``gathered`` is the size of the two gathered operand copies,
``(batch_a + batch_b) x npairs`` float64 values.  They are computed
figures, not measured memory traffic.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property

#: the layers, in pipeline order, with the metric prefix each reports under
LAYERS = {
    "L0": "jets.kernel",
    "L1": "fields",
    "L2": "ambient",
    "L3": "jets.Composer",
    "L4": "submanifold",
    "L5": "invariants",
    "L6": "conformal",
}

_CHECKS = ("check_invariance", "check_tangential_dependence",
           "check_strata_vanishing", "check_q_transformation")


class Tracer:
    """Collects spans and counters while installed and active."""

    def __init__(self):
        self.active = False
        self._patches = []
        self._space_ids = set()
        self._tables = weakref.WeakKeyDictionary()
        self._einsum_sizes = {}
        self.reset()

    # -- bookkeeping -------------------------------------------------------

    def reset(self):
        """Forget spans and counters; seen spaces and tables are kept."""
        self.counts = Counter()
        self.self_s = defaultdict(float)
        # time inside the outermost spans of each layer, children included
        self.incl_s = defaultdict(float)
        self._depth = Counter()
        # per (layer, entry point): [calls, self time]
        self.entries = defaultdict(lambda: [0, 0.0])
        self.ops = 0
        self.op_s = 0.0
        self._stack = []
        # per result space: [sum of batch products, sum of operand batches]
        self._kernel = defaultdict(lambda: [0, 0])

    def _open(self, layer, name):
        self._depth[layer] += 1
        self._stack.append([layer, name, time.perf_counter(), 0.0])

    def _close(self):
        layer, name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        own = dur - child
        self.self_s[layer] += own
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.incl_s[layer] += dur
        entry = self.entries[(layer, name)]
        entry[0] += 1
        entry[1] += own
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    @contextmanager
    def op(self):
        """Root span of one benchmark operation."""
        self.active = True
        self._open("bench", "op")
        try:
            yield
        finally:
            self.op_s += self._close()
            self.ops += 1
            self.active = False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer, name, fn, counter=None, after=None,
              nested=True):
        """Span (and count) calls of ``fn``; ``nested=False`` counts only
        calls entered from another layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None and (nested
                                        or tracer._stack[-1][0] != layer):
                tracer.counts[counter] += 1
            tracer._open(layer, name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out, args)
                return out
            finally:
                tracer._close()

        return wrapper

    def _mul_stats(self, out, args):
        a, b = args
        acc = self._kernel[out.space]
        shape = out.coeffs.shape
        acc[0] += _prod(shape[:-1])
        acc[1] += _batch(a) + _batch(b)

    def _einsum_stats(self, out, args):
        subscripts, a, b = args
        key = (subscripts, a.coeffs.shape[:-1], b.coeffs.shape[:-1])
        size = self._einsum_sizes.get(key)
        if size is None:
            lhs = subscripts.partition("->")[0].split(",")
            dims = {}
            for letters, shape in zip(lhs, key[1:]):
                dims.update(zip(letters, shape))
            size = _prod(dims.values())
            self._einsum_sizes[key] = size
        acc = self._kernel[out.space]
        acc[0] += size
        acc[1] += _batch(a) + _batch(b)

    def _space_hook(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active and id(out) not in tracer._space_ids:
                tracer._space_ids.add(id(out))
                tracer.counts["jets.space.builds"] += 1
            return out

        return wrapper

    def _pull_stats(self, out, args):
        # the source space after truncation, as jets.space() normalizes it
        composer, f = args
        r = min(f.space.order, composer.coords.space.order)
        key = (f.space.nvars, r, tuple(min(c, r) for c in f.space.caps))
        seen = self._tables.setdefault(composer, set())
        if key not in seen:
            seen.add(key)
            self.counts["jets.Composer.table_builds"] += 1

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, original, wrapped):
        for name, mod in list(sys.modules.items()):
            if name == "qgeo" or name.startswith("qgeo."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapped)

    def _replace_method(self, cls, attr, layer, counter=None, after=None):
        fn = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(fn, cached_property):
            new = cached_property(self._wrap(layer, name, fn.func, counter))
            new.__set_name__(cls, attr)
        else:
            new = self._wrap(layer, name, fn, counter, after)
        self._replace(cls, attr, new)

    def install(self):
        """Wrap every traced entry point of the imported ``qgeo`` package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from qgeo import ambient, conformal, fields, invariants, jets
        from qgeo.submanifold import SubmanifoldPack

        fn = self._replace_function
        fn(jets.jet_mul, self._wrap("L0", "jet_mul", jets.jet_mul,
                                    "jets.jet_mul.calls", self._mul_stats))
        fn(jets.jet_einsum, self._wrap("L0", "jet_einsum", jets.jet_einsum,
                                       "jets.jet_einsum.calls",
                                       self._einsum_stats))
        fn(jets.space, self._space_hook(jets.space))
        fn(ambient.cov_deriv_jets,
           self._wrap("L2", "cov_deriv_jets", ambient.cov_deriv_jets,
                      "ambient.cov_derivs"))
        # scalars requested of the invariants layer: each ``evaluate``
        # call, and each public invariant called from outside the layer
        fn(invariants.evaluate,
           self._wrap("L5", "evaluate", invariants.evaluate,
                      "invariants.evaluations"))
        for attr in invariants.__all__:
            orig = getattr(invariants, attr)
            if (callable(orig) and not isinstance(orig, type)
                    and attr not in ("evaluate", "evaluate_all", "available")):
                fn(orig, self._wrap("L5", attr, orig,
                                    "invariants.evaluations", nested=False))
        for check in _CHECKS:
            orig = getattr(conformal, check)
            fn(orig, self._wrap("L6", check, orig))

        meth = self._replace_method
        meth(fields.MetricField, "jets", "L1", "fields.metric_jets.calls")
        meth(fields.ImmersedPatch, "jets", "L1")
        meth(fields.Polynomial, "__call__", "L1", "fields.polynomial.calls")
        meth(ambient.CurvaturePack, "__init__", "L2", "ambient.packs")
        meth(ambient.CurvaturePack, "cov_deriv", "L2")
        meth(jets.Composer, "__call__", "L3", "jets.Composer.pulls",
             self._pull_stats)
        meth(SubmanifoldPack, "__init__", "L4", "submanifold.packs")
        for attr, value in list(vars(SubmanifoldPack).items()):
            if isinstance(value, cached_property):
                meth(SubmanifoldPack, attr, "L4")

    def uninstall(self):
        """Put every replaced attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def kernel_totals(self) -> tuple[int, int]:
        """(pair products, gathered float64 values) since the last reset."""
        products = gathered = 0
        for spc, (batch, operands) in self._kernel.items():
            npairs = len(spc.mul_tables()[0])
            products += batch * npairs
            gathered += operands * npairs
        return products, gathered


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


def _batch(j) -> int:
    shape = j.coeffs.shape
    return _prod(shape[:-1])
