"""The benchmark tracer's hooks name real library functions, and its
install/uninstall cycle leaves the package exactly as it found it."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import pfcomplex  # noqa: E402
from pfcomplex import free_group_complex, genus_surface, metric, parse  # noqa: E402
from perfbench.tracer import HOOKS, MODULES, Tracer  # noqa: E402

HOLDERS = [pfcomplex, *MODULES.values()]


def _rebound(snapshot):
    """Names whose module attribute is no longer the snapshotted object."""
    return [(m.__name__, k) for m, before in zip(HOLDERS, snapshot)
            for k in set(before) | set(vars(m))
            if vars(m).get(k, None) is not before.get(k, None)]


def test_every_hook_resolves_to_a_callable():
    for module, fname, _ in HOOKS:
        assert callable(getattr(MODULES[module], fname, None)), \
            f"{module}.{fname}"


def test_install_then_uninstall_restores_every_module_attribute():
    snapshot = [dict(vars(m)) for m in HOLDERS]
    tracer = Tracer()
    tracer.install()
    try:
        assert _rebound(snapshot)
    finally:
        tracer.uninstall()
    assert _rebound(snapshot) == []


def test_link_counters_and_eccentricity_spans_under_the_memos(monkeypatch):
    """One link is built per edge or vertex, as without the memos, so the
    benchmark's links_built and link_arcs counters keep their meaning; at
    identity labels freegroup8's 371 links have 42 order types, so the
    check hands 42 graphs to one eccentricity batch, which does not pass
    through the traced min_eccentricity.  Gauss-Bonnet angle sums walk the
    same links without the traced link builders, so they add no link to the
    counters."""
    batches = []
    batch = metric._min_eccentricities
    monkeypatch.setattr(metric, "_min_eccentricities",
                        lambda graphs: batches.append(len(graphs)) or batch(graphs))
    example1 = parse((ROOT / "fixtures" / "example1.pfc").read_text(
        encoding="utf-8"))
    freegroup8 = free_group_complex(8)
    surface = genus_surface(4, identify_segments=False)
    tracer = Tracer()
    tracer.install()
    try:
        metric.npc_edge_link_check(example1)
        edge_links = tracer.counts["metric.links_built"]
        metric.extendability_check(freegroup8)
        links = tracer.counts["metric.links_built"]
        assert metric.gauss_bonnet_check(surface).verdict == "pass"
        assert tracer.counts["metric.links_built"] == links
    finally:
        tracer.uninstall()
    assert edge_links == len(example1.complex.k_simplices(1)) == 1122
    assert tracer.counts["metric.links_built"] - edge_links == \
        len(freegroup8.complex.vertices) == 371
    assert batches == [42]
