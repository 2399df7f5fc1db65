"""Spans around every public tanglelab function, for traced runs only.

`Tracer.install()` wraps each function named in a module's `__all__`, plus
`SubspaceModP.from_vectors`, and rebinds every tanglelab module's name for
it, so calls between modules and inside one module become child spans.
Nothing is wrapped until install() runs, so an untraced pass executes the
library unmodified.  Spans stay in memory and are written out at the end.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time

LAYERS = (
    "cli",
    "tangle_core",
    "exact_linear",
    "fox_coloring",
    "symplectic_lagrangian",
    "move_calculus",
    "burnside3",
    "coset_enumeration",
)

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  Written into every traced report.
_P50_ALL = ["query_ms.p50 on links", "query_ms.p50 on tangles", "query_ms.p50 on groups"]
MOVES = {
    "cli.self_s": _P50_ALL,
    "cli.calls": _P50_ALL,
    "tangle_core.self_s": ["query_ms.p50 on tangles"],
    "tangle_core.calls": ["query_ms.p50 on tangles"],
    "tangle_core.parse.self_s": ["query_ms.p50 on tangles"],
    "tangle_core.compile.self_s": ["query_ms.p50 on tangles"],
    "tangle_core.compile.calls": ["query_ms.p50 on tangles"],
    "tangle_core.crossings_built": ["query_ms.p50 on tangles"],
    "exact_linear.self_s": ["wall_s on links"],
    "exact_linear.calls": ["wall_s on links"],
    "exact_linear.kernel_mod_p.self_s": ["wall_s on links", "query_ms.p90 on links"],
    "exact_linear.kernel_mod_p.calls": ["query_ms.p50 on tangles"],
    "exact_linear.kernel_mod_p.cells": ["wall_s on links", "query_ms.p90 on links"],
    "exact_linear.snf.self_s": ["wall_s on links", "query_ms.p90 on links"],
    "exact_linear.snf.cells": ["wall_s on links", "query_ms.p90 on links"],
    "exact_linear.from_vectors.self_s": ["query_ms.p50 on tangles"],
    "exact_linear.from_vectors.calls": ["query_ms.p50 on tangles"],
    "exact_linear.is_prime.self_s": ["query_ms.p50 on tangles"],
    "fox_coloring.self_s": ["wall_s on links"],
    "fox_coloring.calls": ["wall_s on links"],
    "fox_coloring.arcs": ["wall_s on links"],
    "symplectic_lagrangian.self_s": ["wall_s on tangles"],
    "symplectic_lagrangian.calls": ["wall_s on tangles"],
    "symplectic_lagrangian.enumerate.self_s": ["wall_s on tangles", "query_ms.p90 on tangles"],
    "symplectic_lagrangian.realize.self_s": ["wall_s on tangles", "query_ms.p90 on tangles"],
    "symplectic_lagrangian.enum_kernels_per_lagrangian": ["wall_s on tangles", "query_ms.p90 on tangles"],
    "symplectic_lagrangian.realize_tries_per_witness": ["wall_s on tangles", "query_ms.p90 on tangles"],
    "move_calculus.self_s": ["wall_s on tangles"],
    "move_calculus.calls": ["wall_s on tangles"],
    "move_calculus.certificate_steps": ["query_ms.p50 on tangles"],
    "burnside3.self_s": ["wall_s on groups"],
    "burnside3.calls": ["wall_s on groups"],
    "burnside3.enumerate_group.self_s": ["wall_s on groups", "peak_rss_mb on groups"],
    "burnside3.multiply.calls": ["wall_s on groups"],
    "burnside3.obstruction.self_s": ["wall_s on groups"],
    "coset_enumeration.self_s": ["wall_s on groups"],
    "coset_enumeration.calls": ["wall_s on groups"],
    "coset_enumeration.enumerate_cosets.self_s": ["wall_s on groups"],
    "coset_enumeration.cosets": ["wall_s on groups"],
    "coset_enumeration.conjugacy_classes.self_s": ["wall_s on groups"],
    "trace.overhead_s": [],
    "trace.unattributed_share": [],
}

PARSE = {"tangle_core.parse_conway", "tangle_core.parse_braid", "tangle_core.parse_diagram_text"}
COMPILE = {"tangle_core.compile_expr", "tangle_core.braid_closure", "tangle_core.closure"}


def _cells(mat):
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else int(shape[0])
    return len(mat) * (len(mat[0]) if len(mat) else 0)


# Counts recorded on a span, from the call's arguments and result.
_AMOUNT = {
    "exact_linear.kernel_mod_p": lambda a, r: _cells(a[0]),
    "exact_linear.snf": lambda a, r: _cells(a[0]),
    "symplectic_lagrangian.enumerate_lagrangians": lambda a, r: len(r),
    "symplectic_lagrangian.realize_lagrangians": lambda a, r: len(r[0]),
    "move_calculus.reduce_2algebraic": lambda a, r: len(r.certificate),
    "coset_enumeration.enumerate_cosets": lambda a, r: r.order,
}
for _name in COMPILE:
    _AMOUNT[_name] = lambda a, r: len(r.crossings)
for _name in ("coloring_space", "tri", "abf_space", "boundary_image",
              "reduced_boundary_image", "virtual_index"):
    _AMOUNT[f"fox_coloring.{_name}"] = lambda a, r: len(a[0].arcs)


class Tracer:
    def __init__(self):
        self.names = []
        # (name id, parent span index or -1, start, end, amount, query index)
        self.spans = []
        self.stack = []
        self.query = -1

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        amount = _AMOUNT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (nid, parent, t0, clock(), 0, self.query)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            value = amount(args, result) if amount is not None else 0
            spans[idx] = (nid, parent, t0, t1, value, self.query)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(f"tanglelab.{layer}") for layer in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for name, mod in list(sys.modules.items()):
            if name == "tanglelab" or name.startswith("tanglelab."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        setattr(mod, attr, wrapped[id(value)])
        space = sys.modules["tanglelab.exact_linear"].SubspaceModP
        original = space.__dict__["from_vectors"].__func__
        space.from_vectors = classmethod(self._wrap(original, "exact_linear.from_vectors"))

    def write(self, path):
        """Gzipped TSV, one row per span, times in ns from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\tamount\tquery\n")
            for i, (nid, parent, t0, t1, value, q) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{parent}\t{round((t0 - origin) * 1e9)}\t"
                         f"{round((t1 - origin) * 1e9)}\t{value}\t{q}\n")

    def layer_metrics(self, traced_wall, untraced_wall):
        """Per-layer self times, call counts and ratios of the recorded spans."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for nid, parent, t0, t1, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        m = {}

        def add(key, v):
            m[key] = m.get(key, 0) + v

        def has_ancestor(parent, name):
            while parent >= 0:
                if names[spans[parent][0]] == name:
                    return True
                parent = spans[parent][1]
            return False

        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
            m[f"{layer}.calls"] = 0
        kernels_under_enum = 0
        compiles_under_realize = 0
        for i, (nid, parent, t0, t1, value, _) in enumerate(spans):
            name = names[nid]
            layer = name.split(".", 1)[0]
            own = t1 - t0 - child[i]
            add(f"{layer}.self_s", own)
            add(f"{layer}.calls", 1)
            add(f"{name}.self_s", own)
            add(f"{name}.calls", 1)
            add(f"{name}.amount", value)
            if name in PARSE:
                add("tangle_core.parse.self_s", own)
            if name in COMPILE:
                add("tangle_core.compile.self_s", own)
                add("tangle_core.compile.calls", 1)
                add("tangle_core.crossings_built", value)
            if layer == "fox_coloring" and (parent < 0 or not names[spans[parent][0]].startswith("fox_coloring.")):
                add("fox_coloring.arcs", value)
            if name == "exact_linear.kernel_mod_p" and has_ancestor(parent, "symplectic_lagrangian.enumerate_lagrangians"):
                kernels_under_enum += 1
            if name == "tangle_core.compile_expr" and has_ancestor(parent, "symplectic_lagrangian.realize_lagrangians"):
                compiles_under_realize += 1

        def get(key):
            return m.get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        out = {f"{layer}.{k}": m[f"{layer}.{k}"] for layer in LAYERS for k in ("self_s", "calls")}
        out.update({
            "tangle_core.parse.self_s": get("tangle_core.parse.self_s"),
            "tangle_core.compile.self_s": get("tangle_core.compile.self_s"),
            "tangle_core.compile.calls": get("tangle_core.compile.calls"),
            "tangle_core.crossings_built": get("tangle_core.crossings_built"),
            "exact_linear.kernel_mod_p.self_s": get("exact_linear.kernel_mod_p.self_s"),
            "exact_linear.kernel_mod_p.calls": get("exact_linear.kernel_mod_p.calls"),
            "exact_linear.kernel_mod_p.cells": get("exact_linear.kernel_mod_p.amount"),
            "exact_linear.snf.self_s": get("exact_linear.snf.self_s"),
            "exact_linear.snf.cells": get("exact_linear.snf.amount"),
            "exact_linear.from_vectors.self_s": get("exact_linear.from_vectors.self_s"),
            "exact_linear.from_vectors.calls": get("exact_linear.from_vectors.calls"),
            "exact_linear.is_prime.self_s": get("exact_linear.is_prime.self_s"),
            "fox_coloring.arcs": get("fox_coloring.arcs"),
            "symplectic_lagrangian.enumerate.self_s": get("symplectic_lagrangian.enumerate_lagrangians.self_s"),
            "symplectic_lagrangian.realize.self_s": get("symplectic_lagrangian.realize_lagrangians.self_s"),
            "symplectic_lagrangian.enum_kernels_per_lagrangian": ratio(
                kernels_under_enum, get("symplectic_lagrangian.enumerate_lagrangians.amount")),
            "symplectic_lagrangian.realize_tries_per_witness": ratio(
                compiles_under_realize, get("symplectic_lagrangian.realize_lagrangians.amount")),
            "move_calculus.certificate_steps": get("move_calculus.reduce_2algebraic.amount"),
            "burnside3.enumerate_group.self_s": get("burnside3.enumerate_group.self_s"),
            "burnside3.multiply.calls": get("burnside3.multiply.calls"),
            "burnside3.obstruction.self_s": get("burnside3.obstruction.self_s"),
            "coset_enumeration.enumerate_cosets.self_s": get("coset_enumeration.enumerate_cosets.self_s"),
            "coset_enumeration.cosets": get("coset_enumeration.enumerate_cosets.amount"),
            "coset_enumeration.conjugacy_classes.self_s": get("coset_enumeration.conjugacy_classes.self_s"),
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.unattributed_share": ratio(traced_wall - covered, traced_wall),
        })
        return out
