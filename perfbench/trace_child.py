"""Run one whitdim CLI invocation with span wrappers around each layer's calls.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/trace_child.py SPANS.json verify --n 1..4

The wrappers are installed from here, on module and class attributes, after
import and before ``whitdim.cli.main`` runs; nothing inside ``src/whitdim``
records anything.  A module-level function is replaced in every whitdim
namespace that holds it (``from .x import f`` makes copies).  Spans are
aggregated in memory per (parent span, span) edge and written to SPANS.json
when the invocation ends.  A layer whose module or attribute no longer
exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span name, module, attributes that all feed that span)
SPANS = (
    ("cli.run", "whitdim.cli", ("run",)),
    ("engine.verify_main", "whitdim.engine", ("verify_main",)),
    ("engine.dimension_sum", "whitdim.engine", ("dimension_sum",)),
    ("engine.closed_product", "whitdim.engine", ("closed_product",)),
    ("engine.inner_sum_sides", "whitdim.engine", ("inner_sum_sides",)),
    ("engine.simplification_chain", "whitdim.engine", ("simplification_chain",)),
    ("engine.conclusion_chain", "whitdim.engine", ("conclusion_chain",)),
    ("laurent.times_one_minus_q", "whitdim.laurent", ("LaurentPoly.times_one_minus_q",)),
    ("laurent.div_one_minus_q", "whitdim.laurent", ("LaurentPoly.div_one_minus_q",)),
    ("laurent.mul", "whitdim.laurent", ("LaurentPoly.__mul__", "LaurentPoly.__rmul__")),
    # __sub__ adds the negation through __add__, so sub is counted as add
    ("laurent.add", "whitdim.laurent", ("LaurentPoly.__add__", "LaurentPoly.__radd__")),
    ("laurent.poly_exact_div", "whitdim.laurent", ("poly_exact_div",)),
    ("laurent.poly_gcd", "whitdim.laurent", ("poly_gcd",)),
    ("rational.canonicalise", "whitdim.rational", ("RationalFunctionQ.__init__",)),
    ("qseries.series_mul", "whitdim.qseries", ("TruncatedSeriesX.__mul__",)),
    ("qseries.euler_series", "whitdim.qseries", ("euler_series",)),
    ("qseries.qbinom_series", "whitdim.qseries", ("qbinom_series",)),
    ("gfield.gf", "whitdim.gfield", ("gf",)),
    ("kernels.count_by_rank", "whitdim.kernels", ("count_by_rank",)),
    ("kernels.count_by_rank_trace", "whitdim.kernels", ("count_by_rank_trace",)),
    ("kernels.count_triples_by_rank_bucket", "whitdim.kernels",
     ("count_triples_by_rank_bucket",)),
    ("counting.count_rect_by_rank", "whitdim.counting", ("count_rect_by_rank",)),
    ("counting.prasad_delta", "whitdim.counting", ("prasad_delta",)),
    ("counting.grassmann_count", "whitdim.counting", ("grassmann_count",)),
    ("dimension.trace_bucket_sums", "whitdim.dimension", ("trace_bucket_sums",)),
    ("dimension.middle_dim", "whitdim.dimension", ("middle_dim",)),
    ("dimension.closed_dim", "whitdim.dimension", ("closed_dim",)),
)

# counted, not timed: too cheap and too frequent for a span
COUNTERS = (("gfield.rank", "whitdim.gfield", ("GFMatrix.rank",)),)

# cells enumerated by one kernel call, from its (field, *dims) arguments
_KERNEL_CELLS = {
    "kernels.count_by_rank": lambda rows, cols: rows * cols,
    "kernels.count_by_rank_trace": lambda size: size * size,
    "kernels.count_triples_by_rank_bucket": lambda n: 3 * n * n,
}


def _max_bits(x) -> int:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return abs(x).bit_length() if isinstance(x, int) else 0
    return max(map(abs, coeffs), default=0).bit_length()


class Tracer:
    def __init__(self):
        self.names = []
        self.edges = {}          # (parent index or -1, index) -> [calls, total_s, self_s]
        self.stack = []          # frames [index, time covered by child spans]
        self.counters = {"rational.max_input_bits": 0, "kernels.candidates": 0}
        self.absent = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "whitdim" or name.startswith("whitdim."))]
        for name, module, attrs in SPANS:
            hook = self._hook_for(name)
            idx = len(self.names)
            self.names.append(name)
            if not self._patch(modules, module, attrs,
                               lambda fn, i=idx, h=hook: self._span(i, fn, h)):
                self.absent.append(name)
        for name, module, attrs in COUNTERS:
            self.counters[name + ".calls"] = 0
            if not self._patch(modules, module, attrs,
                               lambda fn, key=name + ".calls": self._count(key, fn)):
                self.absent.append(name)

    def _patch(self, modules, module, attrs, make) -> bool:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return False
        done = {}
        for attr in attrs:
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(member) if owner is not None else None
            if orig is None:
                return False
            wrapped = done.get(id(orig)) or make(orig)
            done[id(orig)] = wrapped
            if owner_name:
                setattr(owner, member, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        return True

    def _hook_for(self, name):
        counters = self.counters
        if name == "rational.canonicalise":
            def hook(args, kwargs):
                bits = max(_max_bits(a) for a in args[1:] + tuple(kwargs.values()))
                if bits > counters["rational.max_input_bits"]:
                    counters["rational.max_input_bits"] = bits
            return hook
        cells = _KERNEL_CELLS.get(name)
        if cells is not None:
            def hook(args, kwargs):
                try:
                    counters["kernels.candidates"] += args[0].q ** cells(*args[1:])
                except (AttributeError, IndexError, TypeError):
                    if "kernels.candidates" not in self.absent:
                        self.absent.append("kernels.candidates")
            return hook
        return None

    def _span(self, idx, fn, hook):
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(args, kwargs)
                spent = clock() - h0
                if stack:                      # keep hook time out of every self time
                    stack[-1][1] += spent
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stack.pop()
                edge = edges.get((parent, idx))
                if edge is None:
                    edge = edges[(parent, idx)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += took
                edge[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took

        return traced

    def _count(self, key, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self) -> dict:
        names = self.names
        qq = getattr(sys.modules.get("whitdim.qseries"), "qq", None)
        info = qq.cache_info() if hasattr(qq, "cache_info") else None
        return {
            "edges": [{"parent": names[p] if p >= 0 else None, "name": names[i],
                       "calls": c, "total_s": t, "self_s": s}
                      for (p, i), (c, t, s) in self.edges.items()],
            "counters": self.counters,
            "qq_cache": [info.hits, info.misses] if info else None,
            "absent": self.absent,
        }


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import whitdim  # noqa: F401  (loads every layer module before patching)
    import whitdim.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
