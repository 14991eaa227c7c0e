"""
Tracing of the real program for the benchmark's per-layer metrics.

While a Tracer is installed, the public functions of the six pfcomplex
modules are replaced, in every module of the package that binds them (so
from-imports such as cli.free_faces and builders.vertex_link_graph are
covered too), by wrappers that open a span around the call and add to the
work counters.  The program then runs as it always does, through
cli.run_command or collapse_core; uninstall() puts the original functions
back.  The library's files are not touched.

Spans live in memory as [id, name, start, end, parent, op] and become JSON
lines when the run ends.  A span is named "<module>.<function>" (betti is
split by ring into homology.betti_z and homology.betti_z2); its self time,
its duration minus the time its child spans cover, is summed into the
per-layer metrics of LAYER_METRICS.  The root span of a pfc command is
cli.run_command, so argument parsing, file reading and report formatting
are the cli layer's self time.  Functions without a span (quotients,
report records, the homology eliminations) count towards the span that
called them.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import pfcomplex
from pfcomplex import builders, cli, complexes, homology, metric, pfcio

MODULES = {"cli": cli, "pfcio": pfcio, "builders": builders,
           "complexes": complexes, "metric": metric, "homology": homology}
CONSTRUCTIONS = ("example_complex", "house_with_two_rooms", "box_complex",
                 "simplex_complex", "example1_interface_complex",
                 "free_group_complex", "genus_surface", "flat_torus3")


def _cells(name):
    def count(t, args, kwargs, result):
        t.counts[name] += len(result.complex)
    return count


def _gcify(t, args, kwargs, result):
    t.counts["builders.gcify_identifications"] += result.added_loops


def _collapse(t, args, kwargs, result):
    t.counts["complexes.collapse_steps"] += result.steps
    t.counts["complexes.cells_out"] += len(result.complex)


def _link(t, args, kwargs, result):
    t.counts["metric.links_built"] += 1
    t.counts["metric.link_arcs"] += len(result.arcs)


def _betti_cells(t, args, kwargs, result):
    t.counts["homology.cells_in"] += len(args[0])


def _betti_name(args, kwargs):
    ring = kwargs.get("ring", args[1] if len(args) > 1 else homology.RING_Z)
    z2 = ring.lower() in (homology.RING_GF2, "gf2")
    return "homology.betti_z2" if z2 else "homology.betti_z"


# (module, function, counter hook or None); every one gets a span
HOOKS = [
    ("cli", "run_command", None),
    ("pfcio", "parse", _cells("pfcio.cells_parsed")),
    ("pfcio", "serialize", None),
    *[("builders", fn, _cells("builders.cells_built"))
      for fn in CONSTRUCTIONS],
    ("builders", "gcify", _gcify),
    ("complexes", "collapse_core", _collapse),
    ("complexes", "free_faces", None),
    ("complexes", "euler_characteristic", None),
    ("metric", "validate_metric", None),
    ("metric", "vertex_link_graph", _link),
    ("metric", "edge_link_graph", _link),
    ("metric", "shortest_cycle", None),
    ("metric", "min_eccentricity", None),
    ("metric", "gauss_bonnet", None),
    ("metric", "cat0_two_complex_check", None),
    ("metric", "npc_edge_link_check", None),
    ("metric", "extendability_check", None),
    ("homology", "betti", _betti_cells),
    ("homology", "local_homology", None),
    ("homology", "solid_chain_check", None),
]

# per-layer metric -> (unit, span names, what it should move)
# Self times are summed per pass; counts are exact and must repeat.
LAYER_METRICS = {
    "homology.betti_z_s": ("s", ("homology.betti_z",),
                           "wall_s on report (~70%)"),
    "homology.cells_in": ("count", (), "wall_s on report"),
    "homology.betti_z2_s": ("s", ("homology.betti_z2",),
                            "wall_s on certify, report (small)"),
    "homology.local_s": ("s", ("homology.local_homology",),
                         "wall_s on certify (small)"),
    "homology.solid_chain_s": ("s", ("homology.solid_chain_check",),
                               "wall_s on certify, report (small)"),
    "builders.construct_s": ("s", tuple(f"builders.{fn}"
                                        for fn in CONSTRUCTIONS),
                             "wall_s, peak_rss_mb on report (~28%)"),
    "builders.cells_built": ("count", (), "wall_s, peak_rss_mb on report"),
    "builders.gcify_s": ("s", ("builders.gcify",),
                         "wall_s on reshape (~40%)"),
    "builders.gcify_identifications": ("count", (), "wall_s on reshape"),
    "complexes.collapse_s": ("s", ("complexes.collapse_core",),
                             "wall_s on reshape (~55%)"),
    "complexes.collapse_steps": ("count", (), "wall_s on reshape"),
    "complexes.free_faces_s": ("s", ("complexes.free_faces",),
                               "wall_s on reshape, certify, report (small)"),
    "complexes.cells_out": ("count", (), "wall_s on reshape"),
    "metric.edge_link_s": ("s", ("metric.edge_link_graph",),
                           "wall_s on certify (~85% with the rows below)"),
    "metric.vertex_link_s": ("s", ("metric.vertex_link_graph",),
                             "wall_s on certify"),
    "metric.shortest_cycle_s": ("s", ("metric.shortest_cycle",),
                                "wall_s on certify"),
    "metric.min_eccentricity_s": ("s", ("metric.min_eccentricity",),
                                  "wall_s on certify"),
    "metric.links_built": ("count", (), "wall_s on certify"),
    "metric.link_arcs": ("count", (), "wall_s on certify"),
    "metric.validate_s": ("s", ("metric.validate_metric",),
                          "wall_s on certify (~7% with parse)"),
    "pfcio.parse_s": ("s", ("pfcio.parse",), "wall_s on certify"),
    "pfcio.cells_parsed": ("count", (), "wall_s on certify"),
    "pfcio.serialize_s": ("s", ("pfcio.serialize",),
                          "wall_s on reshape (small)"),
    "metric.gauss_bonnet_s": ("s", ("metric.gauss_bonnet",),
                              "wall_s on certify (small)"),
    "cli.self_s": ("s", ("cli.run_command",), "wall_s on all"),
    "trace.overhead_ratio": ("ratio", (),
                             "none: traced / untraced pass time"),
}


class Tracer:
    """Spans kept in memory; work counters summed alongside."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            span = name or _betti_name(args, kwargs)
            stack = tracer._stack
            rec = [len(tracer.spans), span, perf_counter(), None,
                   stack[-1] if stack else None, tracer.op]
            tracer.spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every hooked function wherever the package binds it."""
        holders = [pfcomplex, *MODULES.values()]
        for module, fname, count in HOOKS:
            fn = getattr(MODULES[module], fname)
            name = None if fname == "betti" else f"{module}.{fname}"
            wrapper = self._wrap(fn, name, count)
            for holder in holders:
                if getattr(holder, fname, None) is fn:
                    self._saved.append((holder, fname, fn))
                    setattr(holder, fname, wrapper)

    def uninstall(self):
        for holder, fname, fn in reversed(self._saved):
            setattr(holder, fname, fn)
        self._saved = []


def self_times(spans) -> Counter:
    """Self time per span name: duration minus the children's durations."""
    out = Counter()
    for _, name, start, end, parent, _ in spans:
        out[name] += end - start
        if parent is not None:
            out[spans[parent][1]] -= end - start
    return out


def layer_times(spans):
    """Per-layer time metrics and per-module totals from one pass's spans."""
    by_name = self_times(spans)
    metrics = {name: sum(by_name.get(s, 0.0) for s in names)
               for name, (unit, names, _) in LAYER_METRICS.items()
               if unit == "s"}
    modules = dict.fromkeys(MODULES, 0.0)
    for name, seconds in by_name.items():
        modules[name.split(".")[0]] += seconds
    return metrics, modules
