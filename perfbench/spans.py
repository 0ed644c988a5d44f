"""Span recorder for the traced run, and the per-layer metrics it yields.

The tracer wraps ``tvcalc`` functions and methods from outside the
package: a module-level function is replaced in every ``tvcalc`` module
that binds it, and a method is replaced on its class.  Each call of a
wrapped name records one span (name, start, end, parent span, ``tv``
call id) in flat arrays; nothing is written until the run ends.  A name
that the program no longer defines is skipped, so its metrics read as
absent (zero) rather than failing the run.
"""
from __future__ import annotations

import sys
import time
from array import array

# span name -> (module, attribute path); every tvcalc binding of the
# object found there is wrapped
TARGETS = {
    "cli.main": ("tvcalc.cli", "main"),
    "parse": ("tvcalc.triangulation", "parse_triangulation"),
    "skeleton": ("tvcalc.triangulation", "build_skeleton"),
    "validate": ("tvcalc.triangulation", "validate_closed_3manifold"),
    "census.search": ("tvcalc.census", "enumerate_census"),
    "canonical": ("tvcalc.census", "canonical_form"),
    "cocycle": ("tvcalc.homology", "cocycle_space_1"),
    "betti": ("tvcalc.homology", "betti_z2"),
    "numeric": ("tvcalc.cyclotomic", "numeric_eval"),
    "field_init": ("tvcalc.cyclotomic", "field_init"),
    "adm4": ("tvcalc.fastalgo", "adm4_structured"),
    "odd_fast": ("tvcalc.fastalgo", "tv_odd_fast"),
    "enumerate": ("tvcalc.colourings", "enumerate_admissible"),
    "weight": ("tvcalc.colourings", "WeightSystem.colouring_weight"),
    "tet_weight": ("tvcalc.colourings", "tetrahedron_weight"),
    "triangle_weight": ("tvcalc.colourings", "triangle_weight"),
    "state_sum": ("tvcalc.colourings", "state_sum"),
    "mul": ("tvcalc.cyclotomic", "Cyc.__mul__"),
    "add": ("tvcalc.cyclotomic", "Cyc.__add__"),
    "invert": ("tvcalc.cyclotomic", "Cyc.invert"),
    "inv_factorial": ("tvcalc.cyclotomic",
                      "FieldContext.inverse_bracket_factorial"),
}

# reflected operators share the wrapper of their forward method
ALIASES = {"Cyc.__mul__": ("__rmul__",), "Cyc.__add__": ("__radd__",)}

# metric name -> (kind, argument); kinds are explained in layer_metrics
LAYER_METRICS = {
    "cli.self_s": ("self", "cli.main"),
    "triangulation.parse_s": ("self", "parse"),
    "triangulation.skeleton_s": ("self", "skeleton"),
    "triangulation.skeleton_calls": ("calls", "skeleton"),
    "triangulation.validate_s": ("self", "validate"),
    "census.search_self_s": ("self", "census.search"),
    "census.canonical_s": ("self", "canonical"),
    "census.canonical_calls": ("calls", "canonical"),
    "census.emitted": ("count", "census.emitted"),
    "census.yield": ("ratio", ("census.emitted", "census.skeletons")),
    "homology.cocycle_s": ("self", "cocycle"),
    "homology.cocycle_calls": ("calls", "cocycle"),
    "homology.betti_s": ("self", "betti"),
    "fastalgo.adm4_s": ("self", "adm4"),
    "fastalgo.adm4_nodes": ("count", "adm4.nodes"),
    "fastalgo.odd_fast_self_s": ("self", "odd_fast"),
    "colourings.enumerate_s": ("self", "enumerate"),
    "colourings.nodes_visited": ("count", "enumerate.nodes"),
    "colourings.admissible": ("count", "enumerate.admissible"),
    "colourings.yield": ("ratio", ("enumerate.admissible",
                                   "enumerate.nodes")),
    "colourings.weight_calls": ("calls", "weight"),
    "colourings.weight_self_s": ("self", "weight"),
    "colourings.tet_weight_calls": ("calls", "tet_weight"),
    "colourings.tet_weight_s": ("self", "tet_weight"),
    "colourings.triangle_weight_s": ("self", "triangle_weight"),
    "colourings.sum_self_s": ("self", "state_sum"),
    "cyclotomic.numeric_s": ("self", "numeric"),
    "cyclotomic.mul_calls": ("calls", "mul"),
    "cyclotomic.mul_s": ("self", "mul"),
    "cyclotomic.mul_coeff_products": ("count", "mul.coeff_products"),
    "cyclotomic.add_calls": ("calls", "add"),
    "cyclotomic.field_init_s": ("self", "field_init"),
    "cyclotomic.inv_factorial_calls": ("calls", "inv_factorial"),
    "cyclotomic.inv_factorial_hit_ratio": (
        "ratio", ("inv_factorial.hits", "inv_factorial.calls")),
    "cyclotomic.invert_calls": ("calls", "invert"),
    "cyclotomic.invert_s": ("self", "invert"),
    "cyclotomic.max_coeff_bits": ("count", "cyclotomic.max_coeff_bits"),
}

UNITS = {"self": "s", "calls": "count", "count": "count", "ratio": "ratio"}


class Recorder:
    """Spans in flat arrays plus counters, all kept in memory."""

    def __init__(self):
        self.names: list = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.call_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: list = []
        self.call_id = -1
        self.counters: dict = {}

    def intern(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        index = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self.stack[-1] if self.stack else -1)
        self.call_col.append(self.call_id)
        self.end_col.append(0.0)
        self.stack.append(index)
        self.start_col.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def columns(self):
        """Span names, starts, ends and parents, one entry per span."""
        return ([self.names[n] for n in self.name_col], self.start_col,
                self.end_col, self.parent_col)


# -- counters taken from arguments and results ---------------------------------

def _coeff_bits(value) -> int:
    return max(max(map(abs, value.num), default=0).bit_length(),
               value.den.bit_length())


def _after_mul(rec, args, result):
    a, b = args
    if hasattr(b, "num"):
        rec.count("mul.coeff_products", (len(a.num) - a.num.count(0))
                  * (len(b.num) - b.num.count(0)))
    rec.maximum("cyclotomic.max_coeff_bits", _coeff_bits(result))


def _after_invert(rec, args, result):
    rec.maximum("cyclotomic.max_coeff_bits", _coeff_bits(result))


def _after_enumerate(rec, args, result):
    stats = result[1]
    rec.count("enumerate.nodes", stats.nodes_visited)
    rec.count("enumerate.admissible", stats.admissible_count)


def _after_adm4(rec, args, result):
    rec.count("adm4.nodes", result[1].nodes_visited)


AFTER = {"mul": _after_mul, "invert": _after_invert,
         "enumerate": _after_enumerate, "adm4": _after_adm4}


# -- wrapping ----------------------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn):
    name_id = rec.intern(name)
    after = AFTER.get(name)

    def wrapper(*args, **kwargs):
        index = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _wrap_generator(rec: Recorder, name: str, fn):
    """Each resumption of the generator is one span of ``name``."""
    name_id = rec.intern(name)

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            index = rec.open(name_id)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(index)
            rec.count("census.emitted")
            yield item

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target that exists."""
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "tvcalc"
                                     or key.startswith("tvcalc."))]
    for name, (module_name, path) in TARGETS.items():
        owner = sys.modules.get(module_name)
        *holders, attr = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder, None)
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrap = _wrap_generator if name == "census.search" else _wrap
        wrapper = wrap(rec, name, original)
        if holders:
            for alias in (attr,) + ALIASES.get(path, ()):
                if getattr(owner, alias, None) is original:
                    setattr(owner, alias, wrapper)
        else:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


# -- analysis ----------------------------------------------------------------------

def self_times(starts, ends, parents) -> array:
    """Per span, its duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so summing their
    durations gives the time they cover inside the parent.
    """
    covered = array("d", bytes(8 * len(starts)))
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            covered[parent] += end - start
    return array("d", (end - start - inner for start, end, inner
                       in zip(starts, ends, covered)))


def layer_metrics(names, starts, ends, parents, counters: dict) -> dict:
    """The LAYER_METRICS table from span columns and counters.

    ``self`` sums self time over spans of a name, ``calls`` counts them,
    ``count`` reads a counter and ``ratio`` divides two counters (0 when
    the base is 0, i.e. the layer did not run).
    """
    totals: dict = {}
    calls: dict = {}
    for name, own in zip(names, self_times(starts, ends, parents)):
        totals[name] = totals.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def child_of(child: str, parent: str):
        return [p for name, p in zip(names, parents)
                if name == child and p >= 0 and names[p] == parent]

    derived = dict(counters)
    derived["inv_factorial.calls"] = calls.get("inv_factorial", 0)
    derived["inv_factorial.hits"] = (derived["inv_factorial.calls"]
                                     - len(set(child_of("invert",
                                                        "inv_factorial"))))
    derived["census.skeletons"] = len(child_of("skeleton", "census.search"))

    out = {}
    for metric, (kind, arg) in LAYER_METRICS.items():
        if kind == "self":
            value = totals.get(arg, 0.0)
        elif kind == "calls":
            value = calls.get(arg, 0)
        elif kind == "count":
            value = derived.get(arg, 0)
        else:
            top, base = (derived.get(key, 0) for key in arg)
            value = top / base if base else 0.0
        out[metric] = value
    return out
