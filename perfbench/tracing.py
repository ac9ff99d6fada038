"""Spans and counters around hcov's public entry points, installed from outside.

Nothing inside hcov changes. `Tracer.install` replaces, by identity, every
attribute of every loaded `hcov.*` module (and every method slot of every
hcov class) that *is* one of the target functions below. Patching by name
alone would miss the copies that `from hcov.kernel import perm_mul`-style
imports bind in other modules. `Tracer.uninstall` puts the originals back,
and `function_snapshot` lets a run prove that they are back.

A span records (name, start, end, parent span, item id). Spans stay in
memory until the run ends. A layer's self time is its span time minus the
time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import time

MARK = "__perfbench_wrapper__"

# (defining module, attribute path, span name). The first component of the
# span name is the layer, i.e. the hcov module the entry point belongs to.
SPAN_TARGETS = [
    ("hcov.permgroup", "StabilizerChain.__init__", "permgroup.chain"),
    ("hcov.permgroup", "search_pairs", "permgroup.search"),
    ("hcov.permgroup", "left_cosets", "permgroup.cosets"),
    # PermutationGroup.elements() is called ~90k times per sweep and mostly
    # returns its cache; a span per call would dominate the traced run. The
    # closure it computes on a cache miss is mulclose, so that is spanned.
    ("hcov.kernel", "mulclose", "permgroup.elements"),
    ("hcov.harmonic", "GraphAction.__init__", "harmonic.action"),
    ("hcov.harmonic", "is_harmonic_action", "harmonic.is_harmonic"),
    ("hcov.harmonic", "quotient", "harmonic.quotient"),
    ("hcov.galois", "cayley", "galois.cayley"),
    ("hcov.galois", "collapse", "galois.collapse"),
    ("hcov.galois", "build_cover", "galois.build_cover"),
    ("hcov.galois", "ramification_profile", "galois.ramification"),
    ("hcov.galois", "riemann_hurwitz_check", "galois.rh"),
    ("hcov.maximal", "build_maximal", "maximal.build"),
    ("hcov.oriented", "canonical_orientation", "oriented.orientation"),
    ("hcov.oriented", "lht_decomposition", "oriented.lht"),
    ("hcov.oriented", "theorem_44_check", "oriented.check44"),
    ("hcov.multigraph", "Multigraph.__init__", "multigraph.graph"),
    ("hcov.multigraph", "Multigraph.connected_components", "multigraph.components"),
    ("hcov.multigraph", "GraphMorphism.__init__", "multigraph.morphism"),
    ("hcov.cli", "main", "cli.main"),
]

# Kernel primitives run millions of times; they get a call counter, no span.
COUNT_TARGETS = [
    ("hcov.kernel", "perm_mul", "kernel.perm_mul"),
    ("hcov.kernel", "perm_inv", "kernel.perm_inv"),
]


SWEEP, HURWITZ, COVERS, CENSUS = "surface_sweep", "hurwitz_psl2_29", "random_covers", "pair_census"
ALL = (SWEEP, HURWITZ, COVERS, CENSUS)

# Per-layer metrics: (name, unit, better, the end-to-end metric it should
# move, the workloads it should move it on). The self-test requires each
# metric to be non-zero on those workloads, and every metric with a
# workload to have one in BENCHMARK.json. pair_census is the workload that
# bypasses everything past pair search: there the prediction for a change
# to action validation (ROADMAP item 2) is no change.
PER_LAYER = [
    ("permgroup.chain.calls", "count", "lower", "wall_s", (HURWITZ, SWEEP)),
    ("permgroup.chain.time_s", "s", "lower", "wall_s", (HURWITZ, SWEEP)),
    ("permgroup.chain.max_degree", "points", "lower", "wall_s", (HURWITZ, SWEEP)),
    # sum over chains and levels of |transversal| x degree, read after construction
    ("permgroup.chain.transversal_cells", "cells", "lower", "peak_rss_mb", (HURWITZ,)),
    ("permgroup.search.time_s", "s", "lower", "wall_s", (CENSUS,)),
    ("permgroup.search.chains_built", "count", "lower", "wall_s", (CENSUS,)),
    # pairs found / chains built inside pair search
    ("permgroup.search.hit_ratio", "ratio", "higher", "wall_s", (CENSUS,)),
    ("permgroup.elements.time_s", "s", "lower", "wall_s", (CENSUS, SWEEP)),
    # pair search never builds cosets, so only the sweep exercises them
    ("permgroup.cosets.time_s", "s", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("harmonic.action.calls", "count", "lower", "wall_s", (HURWITZ, SWEEP, COVERS)),
    ("harmonic.action.time_s", "s", "lower", "wall_s", (HURWITZ, SWEEP, COVERS)),
    ("harmonic.action.self_s", "s", "lower", "wall_s", (HURWITZ, SWEEP, COVERS)),
    ("harmonic.is_harmonic.time_s", "s", "lower", "wall_s", (COVERS, SWEEP)),
    ("harmonic.quotient.time_s", "s", "lower", "wall_s", (COVERS, SWEEP)),
    ("galois.cayley.time_s", "s", "lower", "wall_s", (COVERS,)),
    ("galois.collapse.time_s", "s", "lower", "wall_s", (COVERS,)),
    ("galois.build_cover.self_s", "s", "lower", "wall_s", (COVERS,)),
    ("galois.ramification.time_s", "s", "lower", "wall_s", (COVERS,)),
    ("galois.rh.time_s", "s", "lower", "wall_s", (COVERS,)),
    # "dropped multiset entries lying in the inertia group", counted off the
    # covers; the hcov logger itself is at ERROR during timed runs
    ("galois.cover_warnings", "count", "lower", "wall_s", (COVERS,)),
    ("maximal.build.calls", "count", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("maximal.build.self_s", "s", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("oriented.orientation.time_s", "s", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("oriented.lht.time_s", "s", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("oriented.check44.self_s", "s", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("oriented.darts_traced", "count", "lower", "wall_s", (SWEEP, HURWITZ)),
    ("multigraph.graph.calls", "count", "lower", "wall_s", (COVERS,)),
    ("multigraph.graph.time_s", "s", "lower", "wall_s", (COVERS,)),
    ("multigraph.components.calls", "count", "lower", "wall_s", (COVERS,)),
    ("multigraph.components.time_s", "s", "lower", "wall_s", (COVERS,)),
    ("multigraph.morphism.time_s", "s", "lower", "wall_s", (COVERS,)),
    ("kernel.perm_mul.calls", "count", "lower", "wall_s", ALL),
    ("kernel.perm_inv.calls", "count", "lower", "wall_s", ALL),
    ("kernel.mulclose.calls", "count", "lower", "wall_s", ALL),
    ("cli.main.self_s", "s", "lower", "wall_s", (CENSUS, HURWITZ)),
    # traced wall time that no span covers (the benchmark's own loop)
    ("trace.untraced_s", "s", "lower", None, ()),
    # (traced - untraced wall) / untraced wall: the trace's own cost
    ("trace.overhead_frac", "frac", "lower", None, ()),
]
UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise LookupError(f"trace target {module}.{path} no longer exists")
    return obj


def _hcov_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "hcov" or n.startswith("hcov.")]


def _hcov_slots():
    """Every (owner, attribute, value) where a traced function could be bound:
    module attributes and the class dicts of classes defined in hcov."""
    seen = set()
    for mod in _hcov_modules():
        for attr, val in list(vars(mod).items()):
            yield mod, attr, val
            if (
                isinstance(val, type)
                and val.__module__.startswith("hcov")
                and id(val) not in seen
            ):
                seen.add(id(val))
                for cattr, cval in list(vars(val).items()):
                    yield val, cattr, cval


def function_snapshot():
    """Identity of every function bound in hcov modules and classes."""
    return {
        (getattr(owner, "__name__", "?"), attr): id(val)
        for owner, attr, val in _hcov_slots()
        if callable(val)
    }


def unpatched():
    """True when no hcov attribute holds one of this module's wrappers."""
    return not any(getattr(val, MARK, False) for _, _, val in _hcov_slots())


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self._stack = [-1]
        self.item = None
        self.extra = {
            "chain_max_degree": 0,
            "chain_transversal_cells": 0,
            "search_pairs_found": 0,
            "darts_traced": 0,
            "cover_warnings": 0,
        }
        self._counters = {}
        self._patched = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, after):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(args, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, name, fn):
        counter = self._counters[name] = itertools.count()
        tick = counter.__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)

        setattr(wrapper, MARK, True)
        return wrapper

    # post-call hooks: sizes read off results, never computed inside hcov
    def _after_chain(self, args, _):
        chain = args[0]
        ex = self.extra
        ex["chain_max_degree"] = max(ex["chain_max_degree"], chain.degree)
        ex["chain_transversal_cells"] += chain.degree * sum(
            len(lv.transversal) for lv in chain.levels
        )

    def _after_search(self, _, out):
        self.extra["search_pairs_found"] += len(out.pairs)

    def _after_lht(self, _, out):
        self.extra["darts_traced"] += sum(len(o) for o in out.orbits)

    def _after_build_cover(self, _, out):
        self.extra["cover_warnings"] += len(out.warnings)

    # -- install / uninstall ----------------------------------------------------

    def install(self):
        hooks = {
            "permgroup.chain": self._after_chain,
            "permgroup.search": self._after_search,
            "oriented.lht": self._after_lht,
            "galois.build_cover": self._after_build_cover,
        }
        targets = {}  # id(original) -> (original, wrapper, label)
        for module, path, name in SPAN_TARGETS:
            fn = _resolve(module, path)
            targets[id(fn)] = (fn, self._span_wrapper(name, fn, hooks.get(name)), name)
        for module, path, name in COUNT_TARGETS:
            fn = _resolve(module, path)
            targets[id(fn)] = (fn, self._count_wrapper(name, fn), name)
        hits = dict.fromkeys((t[2] for t in targets.values()), 0)
        for owner, attr, val in list(_hcov_slots()):
            hit = targets.get(id(val))
            if hit is not None and hit[0] is val:
                self._patched.append((owner, attr, val))
                setattr(owner, attr, hit[1])
                hits[hit[2]] += 1
        missing = [name for name, n in hits.items() if n == 0]
        if missing:
            self.uninstall()
            raise LookupError(f"trace targets bound nowhere: {missing}")

    def uninstall(self):
        while self._patched:
            owner, attr, val = self._patched.pop()
            setattr(owner, attr, val)

    # -- aggregation --------------------------------------------------------------

    def layer_table(self):
        """Per span name: calls, time (outermost spans of that name only, so
        recursion is not counted twice), and self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            if not self._within(parent, name):
                row["time_s"] += end - start
        return table

    def _within(self, index, name):
        """True when the span at index, or one of its ancestors, is named name."""
        while index >= 0 and self.spans[index][0] != name:
            index = self.spans[index][3]
        return index >= 0

    def covered_s(self):
        """Time covered by root spans; equals the sum of all self times."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def chains_in_search(self):
        return sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "permgroup.chain" and self._within(parent, "permgroup.search")
        )

    def counts(self):
        """Calls per counted kernel function. Reading advances each counter,
        so read once, after the pass."""
        return {name: next(c) for name, c in self._counters.items()}


def per_layer_metrics(tracer, traced_wall):
    """The per-layer metrics of one traced pass, in PER_LAYER order, except
    trace.overhead_frac: that needs an untraced run, which perfbench/run.py
    makes in a separate process."""
    t = tracer.layer_table()
    counts = tracer.counts()
    ex = tracer.extra

    def row(name):
        return t.get(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})

    chains_built = tracer.chains_in_search()
    covered = tracer.covered_s()
    m = {
        "permgroup.chain.calls": row("permgroup.chain")["calls"],
        "permgroup.chain.time_s": row("permgroup.chain")["time_s"],
        "permgroup.chain.max_degree": ex["chain_max_degree"],
        "permgroup.chain.transversal_cells": ex["chain_transversal_cells"],
        "permgroup.search.time_s": row("permgroup.search")["time_s"],
        "permgroup.search.chains_built": chains_built,
        "permgroup.search.hit_ratio": (
            ex["search_pairs_found"] / chains_built if chains_built else 0.0
        ),
        "permgroup.elements.time_s": row("permgroup.elements")["time_s"],
        "permgroup.cosets.time_s": row("permgroup.cosets")["time_s"],
        "harmonic.action.calls": row("harmonic.action")["calls"],
        "harmonic.action.time_s": row("harmonic.action")["time_s"],
        "harmonic.action.self_s": row("harmonic.action")["self_s"],
        "harmonic.is_harmonic.time_s": row("harmonic.is_harmonic")["time_s"],
        "harmonic.quotient.time_s": row("harmonic.quotient")["time_s"],
        "galois.cayley.time_s": row("galois.cayley")["time_s"],
        "galois.collapse.time_s": row("galois.collapse")["time_s"],
        "galois.build_cover.self_s": row("galois.build_cover")["self_s"],
        "galois.ramification.time_s": row("galois.ramification")["time_s"],
        "galois.rh.time_s": row("galois.rh")["time_s"],
        "galois.cover_warnings": ex["cover_warnings"],
        "maximal.build.calls": row("maximal.build")["calls"],
        "maximal.build.self_s": row("maximal.build")["self_s"],
        "oriented.orientation.time_s": row("oriented.orientation")["time_s"],
        "oriented.lht.time_s": row("oriented.lht")["time_s"],
        "oriented.check44.self_s": row("oriented.check44")["self_s"],
        "oriented.darts_traced": ex["darts_traced"],
        "multigraph.graph.calls": row("multigraph.graph")["calls"],
        "multigraph.graph.time_s": row("multigraph.graph")["time_s"],
        "multigraph.components.calls": row("multigraph.components")["calls"],
        "multigraph.components.time_s": row("multigraph.components")["time_s"],
        "multigraph.morphism.time_s": row("multigraph.morphism")["time_s"],
        "kernel.perm_mul.calls": counts["kernel.perm_mul"],
        "kernel.perm_inv.calls": counts["kernel.perm_inv"],
        "kernel.mulclose.calls": row("permgroup.elements")["calls"],
        "cli.main.self_s": row("cli.main")["self_s"],
        "trace.untraced_s": traced_wall - covered,
    }
    if list(m) != [name for name in UNITS if name != "trace.overhead_frac"]:
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return m, t


def median_metrics(passes):
    """Per-metric median over several passes' metric dicts."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
