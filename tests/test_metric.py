"""Metric layer: realizability, links, girth, eccentricity, Gauss-Bonnet."""

import itertools
import math
import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pfcomplex import (
    Arc,
    CheckItem,
    CheckReport,
    EccentricityBounds,
    MetricComplex,
    MetricError,
    MetricGraph,
    PfcError,
    build_complex,
    cat0_two_complex_check,
    corner_angle,
    dihedral_angle,
    edge_link_graph,
    example1_interface_complex,
    extendability_check,
    flat_torus2,
    flat_torus3,
    free_face_check,
    free_faces,
    free_group_complex,
    gauss_bonnet,
    genus_surface,
    girth,
    link,
    link_condition_check,
    min_eccentricity,
    npc_edge_link_check,
    parse,
    realizable,
    shortest_cycle,
    simplex_complex,
    star,
    validate_metric,
    vertex_link_graph,
)
from pfcomplex import builders
from pfcomplex.builders import _simplex_pair, box_complex, gcify, midpoint_subdivision
from pfcomplex.metric import (
    DEFAULT_DELTA,
    EPS_ANG,
    EPS_CM,
    _adjacency,
    _dijkstra,
    _link_walk,
    _min_eccentricities,
    angle_sum_at_vertex,
    edge_key,
    metric_quotient,
)

import metric_oracle

TWO_PI = 2 * math.pi
EXAMPLE1 = Path(__file__).resolve().parent.parent / "fixtures" / "example1.pfc"


# --- brute-force oracles ---------------------------------------------------

def brute_force_girth(g):
    """Minimum length over all injective cycles, by exhaustive DFS."""
    adj = _adjacency(g)
    best = [math.inf]

    def extend(start, current, visited, used_arcs, length):
        for nxt, w, idx in adj[current]:
            if idx in used_arcs:
                continue
            if nxt == start:
                best[0] = min(best[0], length + w)
            elif nxt not in visited and nxt > start:
                extend(start, nxt, visited | {nxt}, used_arcs | {idx},
                       length + w)

    for start in g.nodes:
        extend(start, start, {start}, frozenset(), 0.0)
    return best[0]


# The per-face-subset test that metric._realizable_rows replaced, kept
# verbatim as a reference independent of the batched kernel.

def _cayley_menger_det(d2: np.ndarray) -> float:
    n = d2.shape[0]
    m = np.ones((n + 1, n + 1))
    m[0, 0] = 0.0
    m[1:, 1:] = d2
    return float(np.linalg.det(m))


def realizable_oracle(edge_lengths: list, dim: int, eps: float = EPS_CM) -> bool:
    """Whether a flat nondegenerate simplex with these edge lengths exists.

    Lengths are given in canonical vertex-pair order, C(dim+1, 2) of them.
    The test checks the Cayley-Menger sign pattern on every face: the
    determinant on m points must have sign (-1)^m and magnitude above the
    (scale-normalized) tolerance.
    """
    n = dim + 1
    pairs = list(combinations(range(n), 2))
    if len(edge_lengths) != len(pairs):
        raise PfcError(
            f"expected {len(pairs)} edge lengths for a {dim}-simplex, "
            f"got {len(edge_lengths)}")
    if not all(0 < l < math.inf for l in edge_lengths):
        return False  # nonpositive, infinite or nan
    d2 = np.zeros((n, n))
    for (i, j), l in zip(pairs, edge_lengths):
        d2[i, j] = d2[j, i] = l * l
    scale = float(d2.max())
    if scale == 0.0:
        return False
    for m in range(3, n + 1):
        for subset in combinations(range(n), m):
            det = _cayley_menger_det(d2[np.ix_(subset, subset)])
            sign = -1 if m % 2 else 1
            if sign * det <= eps * scale ** (m - 1):
                return False
    return True


def random_simplex_lengths(rng, dim):
    """Edge lengths of a random, often near-degenerate or invalid simplex.

    Most draws are point sets in R^dim with one coordinate squeezed by
    1e-6..1e-2 and an overall scale of 1e-3..1e3; the rest are raw lengths
    (triangle inequality often broken), and some get one length replaced by
    0, a negative value, nan or inf.
    """
    n = dim + 1
    npairs = n * (n - 1) // 2
    scale = 10 ** rng.uniform(-3, 3)
    if rng.random() < 0.75:
        pts = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)]
        if dim:
            squeeze = 10 ** rng.uniform(-6, -2)
            axis = rng.randrange(dim)
            for p in pts:
                p[axis] *= squeeze
        lengths = [scale * math.dist(pts[a], pts[b])
                   for a, b in combinations(range(n), 2)]
    else:
        lengths = [scale * rng.uniform(0.1, 2.0) for _ in range(npairs)]
    if npairs and rng.random() < 0.1:
        lengths[rng.randrange(npairs)] = rng.choice(
            (0.0, -scale, math.nan, math.inf, -math.inf))
    return lengths


# The per-arc detour search that metric.min_eccentricity replaced, kept
# verbatim as a reference for the node-distance-only version.

def is_connected_oracle(g: MetricGraph) -> bool:
    if not g.nodes:
        return True
    adj = _adjacency(g)
    seen = {g.nodes[0]}
    stack = [g.nodes[0]]
    while stack:
        x = stack.pop()
        for y, _, _ in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(g.nodes)


def min_eccentricity_oracle(g: MetricGraph, delta: float = DEFAULT_DELTA) -> EccentricityBounds:
    """Bounds on min over points x of max over points y of d(x, y).

    Points range over the whole graph body, arc interiors included.  The
    eccentricity restricted to one arc is piecewise linear with slopes in
    {-1, 0, 1}, so the minimum is found exactly by examining the breakpoint
    grid; the returned interval is degenerate (lo == hi) up to floating
    point.  `delta` is kept as the requested resolution bound and only
    validated; the exact optimum trivially satisfies hi - lo <= 2*delta.
    """
    if delta <= 0:
        raise PfcError(f"resolution must be positive, got {delta}")
    if not g.nodes:
        raise PfcError("empty graph has no eccentricity")
    if not is_connected_oracle(g):
        return EccentricityBounds(math.inf, math.inf, connected=False)
    if not g.arcs:
        return EccentricityBounds(0.0, 0.0)

    adj = _adjacency(g)
    nodes = list(g.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    dist = {n: _dijkstra(adj, n)[0] for n in nodes}
    darr = {n: np.array([dist[n][m] for m in nodes]) for n in nodes}

    p_idx = np.array([index[a.u] for a in g.arcs])
    q_idx = np.array([index[a.v] for a in g.arcs])
    z_arr = np.array([a.weight for a in g.arcs])

    def node_ecc(n) -> float:
        base = darr[n]
        over_arcs = (base[p_idx] + base[q_idx] + z_arr) / 2.0
        return max(float(base.max()), float(over_arcs.max()))

    best = min(node_ecc(n) for n in nodes)

    for ai, arc in enumerate(g.arcs):
        w = arc.weight
        du, dv = darr[arc.u], darr[arc.v]
        detour = _dijkstra(adj, arc.u, skip_arc=ai)[0].get(arc.v, math.inf)
        cap = (w + detour) / 2.0 if math.isfinite(detour) else math.inf

        def eval_terms(t: float) -> np.ndarray:
            f = np.minimum(t + du, (w - t) + dv)
            over_arcs = (f[p_idx] + f[q_idx] + z_arr) / 2.0
            over_arcs[ai] = max(min(t, cap), min(w - t, cap))
            return np.concatenate([f, over_arcs])

        breaks = {0.0, w, w / 2.0}
        crossing = (w + dv - du) / 2.0
        for t in crossing:
            if 0.0 < t < w:
                breaks.add(float(t))
        if math.isfinite(cap):
            for t in ((w - detour) / 2.0, (w + detour) / 2.0):
                if 0.0 < t < w:
                    breaks.add(t)
        grid = sorted(breaks)

        for t1, t2 in zip(grid, grid[1:]):
            if t2 - t1 < 1e-14:
                continue
            v1 = eval_terms(t1)
            v2 = eval_terms(t2)
            e1, e2 = float(v1.max()), float(v2.max())
            cand = min(e1, e2)
            slope = (v2 - v1) / (t2 - t1)
            rising = slope > 0.5
            falling = slope < -0.5
            if rising.any() and falling.any():
                b_plus = float((v1[rising] - t1).max())
                b_minus = float((v1[falling] + t1).max())
                t_star = (b_minus - b_plus) / 2.0
                if t1 < t_star < t2:
                    flat = ~(rising | falling)
                    e_star = (b_plus + b_minus) / 2.0
                    if flat.any():
                        e_star = max(e_star, float(v1[flat].max()))
                    cand = min(cand, e_star)
            if cand < best:
                best = cand

    return EccentricityBounds(best, best)


def fine_sample_min_eccentricity(g, step):
    """Sampled min eccentricity with exact per-point farthest distances."""
    adj = _adjacency(g)
    nd = {x: _dijkstra(adj, x)[0] for x in g.nodes}
    pts = []
    for ai, a in enumerate(g.arcs):
        k = max(2, int(a.weight / step))
        pts.extend((ai, a.weight * t / k) for t in range(k + 1))

    def dist(p, q):
        (ai, t), (bj, s) = p, q
        a, b = g.arcs[ai], g.arcs[bj]
        through = min(
            t + nd[a.u][b.u] + s, t + nd[a.u][b.v] + (b.weight - s),
            (a.weight - t) + nd[a.v][b.u] + s,
            (a.weight - t) + nd[a.v][b.v] + (b.weight - s))
        if ai == bj:
            return min(abs(t - s), through)
        return through

    return min(max(dist(p, q) for q in pts) for p in pts)


def random_graphs(rng, max_nodes=8, count=40):
    """Assorted connected weighted multigraphs on up to max_nodes nodes."""
    out = []
    # every simple graph topology on <= 4 nodes, with random weights
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(pairs)):
            arcs = []
            for bit, (u, v) in enumerate(pairs):
                if mask >> bit & 1:
                    arcs.append(Arc(u, v, rng.uniform(0.2, 3.0)))
            out.append(MetricGraph(tuple(range(n)), tuple(arcs)))
    # sparser random graphs with occasional parallel arcs, 5..max_nodes nodes
    for _ in range(count):
        n = rng.randint(5, max_nodes)
        arcs = []
        for u, v in itertools.combinations(range(n), 2):
            m = rng.choice((0, 0, 0, 1, 1, 2))
            for _ in range(m):
                arcs.append(Arc(u, v, rng.uniform(0.2, 3.0)))
        if len(arcs) > n + 5:  # keep the cycle space small for brute force
            arcs = arcs[:n + 5]
        out.append(MetricGraph(tuple(range(n)), tuple(arcs)))
    return out


# --- realizability and angles ----------------------------------------------

def test_realizable_basics():
    assert realizable([1, 1, 1], 2)
    assert not realizable([1, 1, 3], 2)
    assert realizable([1] * 6, 3)


def test_realizable_degenerate_flat():
    assert not realizable([1, 1, 2], 2)


def test_non_finite_lengths_rejected():
    edge = build_complex([(0, 1)])
    for bad in (math.nan, math.inf):
        assert not realizable([bad, 1, 1], 2)
        assert not realizable([1, 1, 1, 1, 1, bad], 3)
        with pytest.raises(MetricError):
            validate_metric(MetricComplex(edge, {(0, 1): bad}))
    # the arrays are the only store: `lengths` is a view of them, in the
    # order given, without keys that name no edge, and with float values;
    # an edge has a length when one was given, nan included
    given = {(1, 2): 2, (0, 3): 1.0, (0, 2): math.nan, (2, 1): 5.0}
    mc = MetricComplex(build_complex([(0, 1, 2)]), given)
    assert mc.lengths is not given
    assert [(e, repr(l)) for e, l in mc.lengths.items()] == [((1, 2), "2.0"), ((0, 2), "nan")]
    assert math.isnan(mc.length(2, 0)) and mc.length(2, 1) == 2.0
    for u, v in [(1, 0), (0, 3), (5, 6)]:
        with pytest.raises(MetricError, match=re.escape(f"edge {edge_key(u, v)} has no length")):
            mc.length(u, v)
    with pytest.raises(MetricError, match=re.escape("edge (0, 1) has no length")):
        validate_metric(mc)
    sub = mc.restrict([(0, 1), (0, 2)])  # gathered by edge id: (0, 1) still has none
    assert [(e, repr(l)) for e, l in sub.lengths.items()] == [((0, 2), "nan")]
    for lacking in (lambda: sub.length(0, 1), lambda: midpoint_subdivision(mc)):
        with pytest.raises(MetricError, match=re.escape("edge (0, 1) has no length")):
            lacking()
    with pytest.raises(MetricError, match=re.escape("edge (0, 2) has length nan, not finite positive")):
        validate_metric(MetricComplex(mc.complex, {**given, (0, 1): 1.0}))


def test_realizable_arity():
    with pytest.raises(PfcError,
                       match="expected 3 edge lengths for a 2-simplex, got 2"):
        realizable([1, 1], 2)


def test_realizable_matches_per_face_oracle():
    rng = random.Random(20240606)
    rejected = 0
    for trial in range(6000):
        dim = trial % 5
        lengths = random_simplex_lengths(rng, dim)
        expected = realizable_oracle(lengths, dim)
        assert realizable(lengths, dim) == expected, (dim, lengths)
        rejected += not expected
    assert 1500 < rejected < 4500  # both verdicts well represented


# A tetrahedron whose four faces pass on their own scale, and whose top
# determinant passes too, but whose thin faces fail against the larger
# scale of the whole simplex: checking the top determinant alone accepts it.
THIN_FACE_TET = (1.0, 0.500001, 8.021221852, 0.500001, 8.046117076,
                 8.018042217)


def test_faces_are_tested_against_the_enclosing_scale():
    pairs = list(combinations(range(4), 2))
    length = dict(zip(pairs, THIN_FACE_TET))
    for face in combinations(range(4), 3):
        assert realizable([length[e] for e in combinations(face, 2)], 2)
    assert not realizable(list(THIN_FACE_TET), 3)
    mc = MetricComplex(build_complex([(0, 1, 2, 3)]), length)
    with pytest.raises(MetricError,
                       match=r"^simplex \(0, 1, 2, 3\) is not flatly "
                             r"realizable$"):
        validate_metric(mc)


def test_realizable_rejects_overflowing_scales():
    # squared lengths or scale^(m-1) overflow float64: not certifiable
    assert not realizable([1e200] * 3, 2)
    assert not realizable([1e80] * 6, 3)
    assert realizable([1e50] * 6, 3)


def _metric_on(generators, lengths):
    c = build_complex(generators)
    return MetricComplex(c, {e: lengths.get(e, 1.0) for e in c.k_simplices(1)})


def test_first_failure_is_a_triangle_before_any_tetrahedron():
    # bad tetrahedron on 0..3, unrelated bad triangle (4, 5, 6)
    lengths = dict(zip(combinations(range(4), 2), THIN_FACE_TET))
    lengths[(5, 6)] = 3.0
    mc = _metric_on([(0, 1, 2, 3), (4, 5, 6)], lengths)
    with pytest.raises(MetricError, match=r"simplex \(4, 5, 6\) is not"):
        validate_metric(mc)


def test_first_failure_is_the_lex_first_bad_triangle():
    mc = _metric_on([(0, 1, 4), (0, 2, 3), (1, 2, 3)],
                    {(0, 2): 3.0, (1, 2): 3.0})
    with pytest.raises(MetricError, match=r"simplex \(0, 2, 3\) is not"):
        validate_metric(mc)


def test_validate_metric_names_the_oracles_first_failure():
    rng = random.Random(77)
    failures = 0
    for _ in range(150):
        generators = [tuple(sorted(rng.sample(range(7), rng.choice((3, 4)))))
                      for _ in range(rng.randint(1, 5))]
        c = build_complex(generators)
        mc = MetricComplex(c, {e: rng.uniform(0.5, 1.5)
                               for e in c.k_simplices(1)})
        expected = next(
            (s for k in range(2, c.dim + 1) for s in c.k_simplices(k)
             if not realizable_oracle(mc.simplex_lengths(s), k)), None)
        if expected is None:
            validate_metric(mc)
            continue
        failures += 1
        with pytest.raises(MetricError) as err:
            validate_metric(mc)
        assert str(err.value) == f"simplex {expected} is not flatly realizable"
    assert 40 < failures < 120


def test_corner_angles():
    assert corner_angle(1, 1, 1) == pytest.approx(math.pi / 3)
    assert corner_angle(3, 4, 5) == pytest.approx(math.pi / 2)
    assert corner_angle(1, 1, 2) == pytest.approx(math.pi)


def test_corner_angle_domain():
    with pytest.raises(PfcError, match=r"nonpositive length in corner "
                                       r"\(0\.0, 1\.0, 1\.0\)"):
        corner_angle(0.0, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(PfcError, match=f"non-finite length in corner "
                                           rf"\({bad}, 1\.0, 1\.0\)"):
            corner_angle(bad, 1.0, 1.0)
    for sides in [(1, 1, 3), (3, 1, 1), (1, 3, 1), (1.0, 2.0, 3.5)]:
        message = f"a side exceeds the other two in corner {sides}"
        with pytest.raises(PfcError, match=re.escape(message)):
            corner_angle(*sides)


def test_corner_angle_range_and_triangle_sum():
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
        c = rng.uniform(abs(a - b) + 1e-6, a + b - 1e-6)
        angles = [corner_angle(a, b, c), corner_angle(b, c, a),
                  corner_angle(c, a, b)]
        assert all(0 <= x <= math.pi for x in angles)
        assert sum(angles) == pytest.approx(math.pi, abs=3e-9)


def test_dihedral_angles_of_unit_tetra():
    t = simplex_complex(3)
    expected = math.acos(1.0 / 3.0)
    for e in t.complex.k_simplices(1):
        assert dihedral_angle(t, (0, 1, 2, 3), tuple(e)) == \
            pytest.approx(expected)


# --- link graphs -------------------------------------------------------------

def test_vertex_link_single_triangle():
    mc = simplex_complex(2)
    g = vertex_link_graph(mc, 0)
    assert g.nodes == (1, 2)
    assert len(g.arcs) == 1
    assert g.arcs[0].weight == pytest.approx(math.pi / 3)


def test_vertex_link_interface_complex():
    j = example1_interface_complex()
    g = vertex_link_graph(j, 0)
    assert len(g.nodes) == 3 and len(g.arcs) == 3
    assert all(a.weight == pytest.approx(math.pi / 3) for a in g.arcs)
    assert girth(g) == pytest.approx(math.pi, abs=1e-9)


def test_vertex_link_flat_plane():
    flat = flat_torus2(4)
    g = vertex_link_graph(flat, 0)
    assert len(g.arcs) == 6
    assert g.total_weight() == pytest.approx(TWO_PI)


def test_vertex_link_hexagon_fan():
    # six unit equilateral triangles around a flat interior vertex
    fan = build_complex([(0, i, i % 6 + 1) for i in range(1, 7)])
    mc = MetricComplex(fan, {tuple(e): 1.0 for e in fan.k_simplices(1)})
    g = vertex_link_graph(mc, 0)
    assert len(g.nodes) == 6 and len(g.arcs) == 6
    assert g.total_weight() == pytest.approx(TWO_PI, abs=1e-9)
    assert girth(g) == pytest.approx(TWO_PI, abs=1e-9)


def test_vertex_link_rejects_3_dimensional_star():
    # and an edge link one dimension up: a 4-simplex is not left out silently
    for link_graph, n, at, message in [
            (vertex_link_graph, 3, 0, r"vertex 0 lies in \(0, 1, 2, 3\); "
                                      r"vertex links are only built"),
            (edge_link_graph, 4, (0, 1),
             r"edge \(0, 1\) lies in \(0, 1, 2, 3, 4\); edge links are only "
             r"built where the star is 3-dimensional"),
            # a simplex that is not an edge is named, not left to unpacking
            (edge_link_graph, 3, (0, 1, 2), r"^\(0, 1, 2\) is not an edge$"),
            (edge_link_graph, 3, (0,), r"^\(0,\) is not an edge$")]:
        with pytest.raises(PfcError, match=message):
            link_graph(simplex_complex(n), at)


def test_edge_link_of_torus_edge():
    t3 = flat_torus3(3)
    for e in t3.complex.k_simplices(1)[:12]:
        g = edge_link_graph(t3, tuple(e))
        assert g.total_weight() == pytest.approx(TWO_PI, abs=1e-9)
        assert girth(g) == pytest.approx(TWO_PI, abs=1e-9)


def test_edge_link_single_tetra_is_path():
    mc = simplex_complex(3)
    g = edge_link_graph(mc, (0, 1))
    assert len(g.arcs) == 1
    assert girth(g) == math.inf


# --- girth -------------------------------------------------------------------

def test_girth_three_cycle():
    g = MetricGraph((0, 1, 2), (Arc(0, 1, math.pi / 3),
                                Arc(1, 2, math.pi / 3),
                                Arc(0, 2, math.pi / 3)))
    assert girth(g) == pytest.approx(math.pi)


def test_girth_single_arc_infinite():
    assert girth(MetricGraph((0, 1), (Arc(0, 1, 1.0),))) == math.inf


def test_girth_four_cycle_with_heavy_chord():
    g = MetricGraph((0, 1, 2, 3),
                    (Arc(0, 1, 1.0), Arc(1, 2, 1.0), Arc(2, 3, 1.0),
                     Arc(3, 0, 1.0), Arc(0, 2, 10.0)))
    assert girth(g) == pytest.approx(4.0)


def test_girth_parallel_arcs():
    g = MetricGraph((0, 1), (Arc(0, 1, 1.0), Arc(0, 1, 2.5)))
    assert girth(g) == pytest.approx(3.5)


def test_girth_matches_brute_force_exhaustively():
    rng = random.Random(77)
    for g in random_graphs(rng):
        assert girth(g) == pytest.approx(brute_force_girth(g), abs=1e-9)


# --- minimal eccentricity ----------------------------------------------------

def test_min_ecc_circle():
    arcs = tuple(Arc(i, (i + 1) % 4, math.pi / 2) for i in range(4))
    e = min_eccentricity(MetricGraph((0, 1, 2, 3), arcs))
    assert e.lo <= math.pi <= e.hi
    assert e.lo == pytest.approx(math.pi, abs=1e-9)


def test_min_ecc_single_arc():
    e = min_eccentricity(MetricGraph((0, 1), (Arc(0, 1, 1.0),)))
    assert e.lo == pytest.approx(0.5)


def test_min_ecc_theta_graph_vs_oracle():
    g = MetricGraph((0, 1), (Arc(0, 1, 1.0), Arc(0, 1, 1.0), Arc(0, 1, 2.0)))
    delta = 0.05
    e = min_eccentricity(g, delta)
    step = delta / 10
    oracle = fine_sample_min_eccentricity(g, step)
    assert e.hi - e.lo <= 2 * delta
    # the oracle itself resolves peaks only to within one sample step
    assert e.lo - step - 1e-9 <= oracle <= e.hi + step + 1e-9
    assert e.lo == pytest.approx(1.5, abs=1e-9)


def test_min_ecc_brackets_oracle_on_random_graphs():
    rng = random.Random(9)
    graphs = [g for g in random_graphs(rng, max_nodes=5, count=6)
              if 0 < len(g.arcs) <= 5][:14]
    delta = 0.1
    for g in graphs:
        if not is_connected_oracle(g):
            continue
        e = min_eccentricity(g, delta)
        step = delta / 10
        oracle = fine_sample_min_eccentricity(g, step)
        assert e.hi - e.lo <= 2 * delta
        # the oracle itself resolves peaks only to within one sample step
        assert e.lo - step - 1e-9 <= oracle <= e.hi + step + 1e-9


def test_min_ecc_shrinking_delta_never_widens():
    g = MetricGraph((0, 1), (Arc(0, 1, 1.0), Arc(0, 1, 1.0), Arc(0, 1, 2.0)))
    wide = min_eccentricity(g, 1e-2)
    tight = min_eccentricity(g, 1e-3)
    assert tight.hi - tight.lo <= wide.hi - wide.lo + 1e-15
    assert wide.lo - 1e-12 <= tight.lo and tight.hi <= wide.hi + 1e-12


def test_min_ecc_disconnected_flag():
    g = MetricGraph((0, 1, 2, 3), (Arc(0, 1, 1.0), Arc(2, 3, 1.0)))
    e = min_eccentricity(g)
    assert e.lo == e.hi == math.inf
    assert not e.connected


def test_min_ecc_rejects_bad_resolution():
    with pytest.raises(PfcError, match="resolution must be positive, got 0"):
        min_eccentricity(MetricGraph((0, 1), (Arc(0, 1, 1.0),)), delta=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(PfcError, match=f"resolution must be finite, got {bad}"):
            min_eccentricity(MetricGraph((0, 1), (Arc(0, 1, 1.0),)), delta=bad)


def test_min_ecc_memory_is_bounded_in_blocks():
    """The rows of all arcs of a link are evaluated in blocks of bounded
    size, so the 72-arc link of genus_surface(6) peaks below 512 KB of
    traced allocations (321 KB; 2.9 MB with one block for the link)."""
    mc = genus_surface(6)
    g = max((vertex_link_graph(mc, v) for v in mc.complex.vertices),
            key=lambda g: len(g.arcs))
    assert len(g.arcs) == 72
    expected = min_eccentricity(g)
    tracemalloc.start()
    try:
        assert min_eccentricity(g) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


@pytest.mark.parametrize("routine", [girth, shortest_cycle, min_eccentricity])
def test_graph_routines_reject_a_value_that_is_no_graph(routine):
    """An AttributeError on None before; now a PfcError naming the type."""
    for bad, kind in [(None, "NoneType"), ({0: []}, "dict")]:
        with pytest.raises(PfcError, match=f"^expected a MetricGraph, got a value of type {kind}$"):
            routine(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_metric_graph_rejects_non_finite_weights(bad):
    with pytest.raises(PfcError, match=f"non-finite arc weight {bad}"):
        MetricGraph((0, 1), (Arc(0, 1, bad), Arc(0, 1, 1.0)))


def builder_link_graphs():
    """Vertex links of the builders' 2-complexes, one per order type.

    Two links whose node lists and arcs agree after replacing each node by
    its rank are processed identically (same comparisons, same floats), so
    one of each stands for all 5,009.
    """
    mcs = [free_group_complex(n) for n in (2, 3, 5, 8, 12, 20)]
    mcs += [genus_surface(n) for n in (2, 3, 4, 6)]
    mcs += [genus_surface(4, identify_segments=False), flat_torus2(3),
            flat_torus2(5), example1_interface_complex(),
            example1_interface_complex([2 * math.pi / 3] * 3),
            simplex_complex(2)]
    kinds = {}
    for mc in mcs:
        for v in mc.complex.vertices:
            g = vertex_link_graph(mc, v)
            rank = {n: i for i, n in enumerate(sorted(g.nodes))}
            key = (tuple(rank[n] for n in g.nodes),
                   tuple((rank[a.u], rank[a.v], a.weight) for a in g.arcs))
            kinds.setdefault(key, g)
    return list(kinds.values())


def test_min_ecc_equals_detour_search_oracle():
    """Bitwise equal to the per-arc detour search on builder links and on
    random multigraphs with parallel arcs, tied weights and several
    components."""
    rng = random.Random(2027)
    graphs = builder_link_graphs()
    for _ in range(3000):
        n = rng.randint(1, 6)
        arcs = [Arc(*rng.sample(range(n), 2),
                    rng.choice((rng.uniform(0.05, 3.0), math.pi / rng.randint(1, 4))))
                for _ in range(rng.randint(0, 8) if n > 1 else 0)]
        graphs.append(MetricGraph(tuple(range(n)), tuple(arcs)))
    results = [min_eccentricity(g) for g in graphs]
    assert results == [min_eccentricity_oracle(g) for g in graphs]
    assert sum(not e.connected for e in results) > 300
    assert sum(len({frozenset(a[:2]) for a in g.arcs}) < len(g.arcs)
               for g in graphs) > 1000


def test_min_eccentricities_batch_equals_detour_search_oracle():
    """One batch over builder links and random multigraphs of mixed sizes,
    many of one shape, so blocks span several graphs and a graph's rows
    sit next to another's: bitwise equal to the oracle, in order."""
    rng = random.Random(2029)
    graphs = builder_link_graphs()
    for _ in range(3000):
        n = rng.randint(1, 8)
        arcs = [Arc(*rng.sample(range(n), 2),
                    rng.choice((rng.uniform(0.05, 3.0), math.pi / rng.randint(1, 4))))
                for _ in range(rng.randint(0, 10) if n > 1 else 0)]
        graphs.append(MetricGraph(tuple(range(n)), tuple(arcs)))
    results, expected = _min_eccentricities(graphs), list(map(min_eccentricity_oracle, graphs))
    assert [(e.lo.hex(), e.hi.hex(), e.connected) for e in results] == \
        [(e.lo.hex(), e.hi.hex(), e.connected) for e in expected]
    assert sum(not e.connected for e in results) > 300
    assert sum(len(g.nodes) == 1 for g in graphs) > 300
    assert sum(len(g.nodes) > 1 and not g.arcs for g in graphs) > 30
    assert sum(len({frozenset(a[:2]) for a in g.arcs}) < len(g.arcs)
               for g in graphs) > 1000


def test_extendability_check_memory_is_bounded():
    """The eccentricity batch holds one graph per distinct link and each
    vertex's key index, not its key: extendability_check on a fresh
    free_group_complex(20) peaks at about 4.45 MB of traced allocations,
    within 10% of the 4.24 MB of one eccentricity pass per link."""
    mc = free_group_complex(20)
    tracemalloc.start()
    try:
        assert extendability_check(mc).verdict == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.66e6


# --- memoised link computations against fresh ones ------------------------
# The three oracles are the check loops as they were before angles,
# eccentricities and shortest cycles were memoised: every arc gets its own
# dihedral_angle call, and every link its own min_eccentricity or
# shortest_cycle call.

def npc_edge_link_check_oracle(mc: MetricComplex) -> CheckReport:
    items = []
    around = {e: [] for e in mc.complex.k_simplices(1)}  # one scan of every cell
    for s in mc.complex:
        for e in combinations(s, 2):
            around[e].append(s)
    for e, star_e in around.items():
        eset = set(e)
        nodes = []
        arcs = []
        for s in star_e:
            if len(s) == 3:
                nodes.append(next(x for x in s if x not in eset))
            elif len(s) == 4:
                cc, dd = [x for x in s if x not in eset]
                arcs.append(Arc(cc, dd, dihedral_angle(mc, s, e), tag=s))
        length, cycle = shortest_cycle(MetricGraph(tuple(nodes), tuple(arcs)))
        if length < TWO_PI - EPS_ANG:
            items.append(CheckItem(f"edge {e}", length, TWO_PI, witness=cycle))
    meta = {"necessary_conditions_only": True,
            "condition": "girth(link(e)) >= 2*pi for every edge e"}
    return CheckReport("fail" if items else "inconclusive", tuple(items), meta)


def extendability_check_oracle(mc: MetricComplex) -> CheckReport:
    faces = free_face_check(mc.complex)
    items = list(faces.items)
    ok = faces.verdict == "pass"
    for v in mc.complex.vertices:
        g = vertex_link_graph(mc, v)
        if not g.nodes:
            continue  # isolated vertex: no nonconstant local geodesic
        ecc = min_eccentricity(g)
        bad = ecc.lo < math.pi - EPS_ANG
        ok = ok and not bad
        items.append(CheckItem(f"vertex {v}", ecc.lo, math.pi,
                               witness=(ecc.lo, ecc.hi) if bad else None))
    meta = {"condition": "no free faces and min eccentricity of every vertex "
                         "link >= pi",
            "dimension_restriction": "certified for complexes of dim <= 2"}
    return CheckReport("pass" if ok else "fail", tuple(items), meta)


def cat0_two_complex_check_oracle(mc: MetricComplex) -> CheckReport:
    items = []
    ok = True
    for v in mc.complex.vertices:
        length, cycle = shortest_cycle(vertex_link_graph(mc, v))
        bad = length < TWO_PI - EPS_ANG
        ok = ok and not bad
        items.append(CheckItem(f"vertex {v}", length, TWO_PI,
                               witness=cycle if bad else None))
    meta = {"condition": "girth(link(v)) >= 2*pi for every vertex v"}
    return CheckReport("pass" if ok else "fail", tuple(items), meta)


def relabelled(mc: MetricComplex, seed: int) -> MetricComplex:
    """The same metric complex with its vertex ids shuffled."""
    vs = mc.complex.vertices
    perm = dict(zip(vs, random.Random(seed).sample(vs, len(vs))))
    c = build_complex([tuple(perm[v] for v in s) for s in mc.complex.facets()])
    return MetricComplex(c, {tuple(sorted((perm[u], perm[v]))): l
                             for (u, v), l in mc.lengths.items()})


@pytest.mark.parametrize("seed", [None, 7])
def test_memoised_checks_equal_fresh_computations(seed):
    """Whole reports are `==` with and without the memos, at identity labels
    and under a vertex permutation, where equal links carry other labels;
    the shortest-cycle memo maps each witness back to its link's labels."""
    example1 = parse(EXAMPLE1.read_text(encoding="utf-8"))
    surfaces = [free_group_complex(8), free_group_complex(20),
                genus_surface(6), flat_torus2(3)]
    interfaces = example1_interface_complex()
    c = build_complex(combinations(range(5), 4))  # boundary of the 4-simplex
    sphere = MetricComplex(c, {e: 1.0 for e in c.k_simplices(1)})
    if seed is not None:
        example1, interfaces, sphere = (relabelled(mc, seed)
                                        for mc in (example1, interfaces, sphere))
        surfaces = [relabelled(mc, seed) for mc in surfaces]
    assert npc_edge_link_check(example1) == \
        npc_edge_link_check_oracle(example1)
    for mc in surfaces:
        assert extendability_check(mc) == extendability_check_oracle(mc)
        assert cat0_two_complex_check(mc) == cat0_two_complex_check_oracle(mc)
    # witnesses come back in each link's own labels
    rep = cat0_two_complex_check(interfaces)
    assert rep == cat0_two_complex_check_oracle(interfaces)
    assert [i.witness for i in rep.items if i.witness] == \
        [(1, 3, 2) if seed is None else (0, 3, 1)]
    rep = npc_edge_link_check(sphere)
    assert rep == npc_edge_link_check_oracle(sphere)
    assert len(rep.items) == 10 and all(i.witness for i in rep.items)


def test_degenerate_dihedrals_are_never_memoised():
    """Two tetrahedra on the edge (0, 1) share the sextuple of a tetrahedron
    whose vertex 2 sits on vertex 0; each call raises for its own tet."""
    c = build_complex([(0, 1, 2, 3), (0, 1, 4, 5)])
    lengths = {e: 1.0 for e in c.k_simplices(1)}
    lengths[(0, 2)] = lengths[(0, 4)] = 0.0
    mc = MetricComplex(c, lengths)
    for tet in [(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 2, 3)]:
        message = f"degenerate dihedral in {tet} along (0, 1)"
        with pytest.raises(MetricError, match=re.escape(message)):
            dihedral_angle(mc, tet, (0, 1))
    # the same two tetrahedra with unit edges: each call computes the same bits
    unit = MetricComplex(c, {e: 1.0 for e in c.k_simplices(1)})
    first = dihedral_angle(unit, (0, 1, 2, 3), (0, 1))
    assert dihedral_angle(unit, (0, 1, 4, 5), (0, 1)).hex() == first.hex()
    assert first == dihedral_angle(simplex_complex(3), (0, 1, 2, 3), (0, 1))


# --- curvature checks --------------------------------------------------------

def test_cat0_interface_complex_fails_at_apex():
    rep = cat0_two_complex_check(example1_interface_complex())
    assert rep.verdict == "fail"
    bad = [i for i in rep.items if i.witness is not None]
    assert len(bad) == 1
    assert bad[0].location == "vertex 0"
    assert bad[0].measured == pytest.approx(math.pi, abs=1e-9)


def test_cat0_override_passes_at_boundary():
    rep = cat0_two_complex_check(
        example1_interface_complex([2 * math.pi / 3] * 3))
    assert rep.verdict == "pass"
    apex = [i for i in rep.items if i.location == "vertex 0"][0]
    assert apex.measured == pytest.approx(TWO_PI, abs=1e-9)


def test_link_condition_check_dispatches_by_dimension():
    t2 = flat_torus2(4)
    assert link_condition_check(t2) == cat0_two_complex_check(t2)
    # a clean 3-complex meets only necessary conditions: never a pass
    assert link_condition_check(flat_torus3(3)).verdict == "inconclusive"
    # five unit tetrahedra around the edge (0, 1) leave a short link cycle
    tets = [(0, 1, 2 + i, 2 + (i + 1) % 5) for i in range(5)]
    c = build_complex(tets)
    ring = MetricComplex(c, {e: 1.0 for e in c.k_simplices(1)})
    rep = link_condition_check(ring)
    assert rep.verdict == "fail"
    assert [i.location for i in rep.items] == ["edge (0, 1)"]


def test_cat0_flat_torus_passes():
    rep = cat0_two_complex_check(flat_torus2(4))
    assert rep.verdict == "pass"
    for item in rep.items:
        assert item.measured == pytest.approx(TWO_PI, abs=1e-9)


def test_cat0_monotone_under_angle_scaling():
    # scaling all corner angles at a vertex by lambda >= 1 scales its link
    # girth by lambda, so a pass can never become a fail
    rng = random.Random(13)
    j = example1_interface_complex([2 * math.pi / 3] * 3)
    g = vertex_link_graph(j, 0)
    base = girth(g)
    for _ in range(20):
        lam = 1.0 + rng.random() * 2
        scaled = MetricGraph(g.nodes, tuple(
            Arc(a.u, a.v, a.weight * lam, a.tag) for a in g.arcs))
        assert girth(scaled) >= base - 1e-12


def test_cat0_rejects_high_dimension():
    with pytest.raises(PfcError, match="link condition check requires "
                                       "dim <= 2, got 3"):
        cat0_two_complex_check(simplex_complex(3))


def test_edge_link_check_rejects_high_dimension():
    with pytest.raises(PfcError, match="edge link check requires "
                                       "dim <= 3, got 4"):
        npc_edge_link_check(simplex_complex(4))


def test_extendability_delta2_fails():
    rep = extendability_check(simplex_complex(2))
    assert rep.verdict == "fail"
    assert any("free face" in i.location for i in rep.items)


def test_extendability_flat_torus_passes():
    rep = extendability_check(flat_torus2(3))
    assert rep.verdict == "pass"


def test_isolated_vertex_is_vacuously_extendable():
    """An isolated vertex has no free face and no nonconstant local
    geodesic, so it passes with no item of its own: 9 items, 10 vertices."""
    torus = flat_torus2(3)
    c = build_complex([*torus.complex.facets(), (100,)])
    rep = extendability_check(MetricComplex(c, dict(torus.lengths)))
    assert (rep.verdict, len(c.vertices), len(rep.items)) == ("pass", 10, 9)
    assert free_face_check(c).items == ()
    assert "vertex 100" not in [i.location for i in rep.items]


# --- Gauss-Bonnet ------------------------------------------------------------

def test_gauss_bonnet_flat_torus():
    lhs, rhs = gauss_bonnet(flat_torus2(3))
    assert lhs == pytest.approx(0.0, abs=1e-9)
    assert rhs == pytest.approx(0.0, abs=1e-9)


def test_gauss_bonnet_tetra_boundary():
    boundary = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    mc = MetricComplex(boundary, {tuple(e): 1.0
                                  for e in boundary.k_simplices(1)})
    lhs, rhs = gauss_bonnet(mc)
    assert lhs == pytest.approx(4 * math.pi)
    assert rhs == pytest.approx(4 * math.pi)
    assert angle_sum_at_vertex(mc, 0) == pytest.approx(math.pi)
    # a vertex outside the complex is an error, not an empty angle sum
    with pytest.raises(PfcError, match=r"\(7,\) is not a simplex of the complex"):
        angle_sum_at_vertex(simplex_complex(2), 7)


def test_gauss_bonnet_rejects_non_surface():
    with pytest.raises(PfcError, match=r"edge \(0, 1\) lies in 1 triangles, "
                                       r"expected 2"):
        gauss_bonnet(simplex_complex(2).restrict([(0, 1, 2)]))


def test_gauss_bonnet_random_perturbed_tori():
    rng = random.Random(31)
    base = flat_torus2(4)
    for _ in range(15):
        lengths = {e: l * (1.0 + rng.uniform(-0.02, 0.02))
                   for e, l in base.lengths.items()}
        mc = MetricComplex(base.complex, lengths)
        try:
            validate_metric(mc)
        except Exception:
            continue
        lhs, rhs = gauss_bonnet(mc)
        assert abs(lhs - rhs) <= 1e-6


def test_constructed_complexes_are_realizable():
    for mc in (flat_torus3(3), flat_torus2(4),
               example1_interface_complex(), simplex_complex(3)):
        validate_metric(mc)


# --- incidence queries against whole-complex scans --------------------------

def random_generator_lists():
    """121 generator lists: 100 random ones on 7 vertices, 20 of them again
    on sparse ids below 2**62 in a shuffled order, and the empty one."""
    rng = random.Random(2026)
    cases = [[tuple(rng.sample(range(7), rng.randint(1, 4)))
              for _ in range(rng.randint(2, 7))] for _ in range(100)]
    relabel = random.Random(9)
    for gens in cases[:20]:
        big = relabel.sample(range(2**62), 7)
        cases.append([tuple(big[v] for v in g) for g in gens])
    cases.append([])
    return cases


def test_incidence_queries_match_brute_force_scans():
    """Stars, links, link graphs, angle sums, facets and free faces of
    random complexes and box_complex's numpy.int64 ids, with unit edges,
    equal scans of every simplex; ==, hash and in agree with the
    frozenset's, and a query that is no simplex raises the same message."""
    corner, dihedral = math.acos(0.5), math.acos(1.0 / 3.0)
    previous = build_complex([])
    for c in [*map(build_complex, random_generator_lists()), box_complex(2, 1, 1).complex]:
        mc = MetricComplex(c, {e: 1.0 for e in c.k_simplices(1)})
        ordered = sorted(c.simplices, key=lambda s: (len(s), s))
        assert list(c) == ordered
        assert c.vertices == [s[0] for s in ordered if len(s) == 1]
        assert c.counts() == [sum(len(s) == k + 1 for s in ordered)
                              for k in range(c.dim + 1)]
        for k in range(-1, c.dim + 2):
            assert c.k_simplices(k) == [s for s in ordered if len(s) == k + 1]

        plain = build_complex([tuple(map(int, s)) for s in ordered], name="plain")
        for other in (plain, previous):
            assert (c == other) == (c.simplices == other.simplices)
            assert c != other or hash(c) == hash(other)
        assert c == plain
        previous = c
        top = int(max(c.vertices, default=0))
        for s in [*ordered, *plain, *(s[::-1] for s in ordered), (), (99,), (0, 99),
                  (top + 1,), (2**63,), (1.5,), ("3",), tuple(c.vertices)]:
            assert (s in c) == (list(s) in c) == (s in c.simplices)
        for s, message in [((99,), "(99,) is not a simplex of the complex"),
                           ((0, 99), "(0, 99) is not a simplex of the complex"),
                           ((), "() is not a simplex of the complex"),
                           ((1.0,), "(1.0,) is not a simplex of the complex"),
                           ((0, 1.0), "(0, 1.0) is not a simplex of the complex"),
                           ((3, 3), "repeated vertex 3 in simplex (3, 3)")]:
            for query in (c.open_star, lambda s: star(c, s), lambda s: link(c, s)):
                with pytest.raises(PfcError) as err:
                    query(s)
                assert str(err.value) == message

        for s in ordered:
            cofaces = [t for t in ordered if set(s) <= set(t)]
            assert c.open_star(s) == cofaces
            assert star(c, s).simplices == build_complex(cofaces).simplices
            assert link(c, s).simplices == {
                t for t in ordered if not set(s) & set(t)
                and tuple(sorted(s + t)) in c.simplices}

        for v in c.vertices:
            at_v = [t for t in ordered if v in t]
            tris = [t for t in at_v if len(t) == 3]
            assert angle_sum_at_vertex(mc, v) == \
                pytest.approx(len(tris) * corner)
            if any(len(t) > 3 for t in at_v):
                with pytest.raises(PfcError, match=rf"vertex {v} lies in "
                                   r".*vertex links are only built"):
                    vertex_link_graph(mc, v)
                continue
            g = vertex_link_graph(mc, v)
            assert g.nodes == tuple(x for t in at_v if len(t) == 2
                                    for x in t if x != v)
            assert [(a.u, a.v, a.tag) for a in g.arcs] == \
                [(*(x for x in t if x != v), t) for t in tris]
            assert all(a.weight == pytest.approx(corner) for a in g.arcs)

        for e in c.k_simplices(1):
            at_e = [t for t in ordered if set(e) <= set(t)]
            g = edge_link_graph(mc, e)
            assert g.nodes == tuple(x for t in at_e if len(t) == 3
                                    for x in t if x not in e)
            assert [(a.u, a.v, a.tag) for a in g.arcs] == \
                [(*(x for x in t if x not in e), t)
                 for t in at_e if len(t) == 4]
            assert all(a.weight == pytest.approx(dihedral) for a in g.arcs)

        assert c.facets() == [s for s in ordered
                              if not any(set(s) < set(t) for t in ordered)]
        up = {s: [t for t in ordered
                  if len(t) == len(s) + 1 and set(s) < set(t)]
              for s in ordered}
        assert [tuple(p) for p in free_faces(c)] == \
            [(s, ts[0]) for s, ts in up.items() if len(ts) == 1]
        # the cell index: drop-vertex faces padded with n, ascending cofaces
        idx, pos, n = c.index, {s: i for i, s in enumerate(ordered)}, len(ordered)
        assert idx.faces.shape == (n + 1, max(c.dim, 0) + 1)
        for f, s in enumerate(ordered + [()]):
            drops = [pos[s[:i] + s[i + 1:]] for i in range(len(s))] if len(s) > 1 else []
            assert idx.faces[f].tolist() == drops + [n] * (idx.faces.shape[1] - len(drops))
        assert idx.ptr.tolist() == [0, *itertools.accumulate(len(up[s]) for s in ordered)]
        for f, s in enumerate(ordered):
            assert idx.cob[idx.ptr[f]:idx.ptr[f + 1]].tolist() == [pos[t] for t in up[s]]


class Missing(Exception):
    pass


def test_row_search_equals_frozenset_membership():
    """Complex._ids finds a tuple exactly when the frozenset holds it, gives
    its position in the (len, lex) order, and names the first query in
    input order that is missing, on the random complexes, box_complex's
    numpy.int64 ids and the empty complex."""
    rng = random.Random(5)
    complexes = [build_complex(g) for g in random_generator_lists()]
    complexes.append(box_complex(2, 1, 1).complex)
    for c in complexes:
        cells, ids = list(c), list(c.vertices)
        top = int(max(ids, default=0))
        absent = [top + 1, top + 2**40, 2**63 - 1, 2**63, -1, -2**63 - 1, 1.5, "3"]
        absent += [v + 1 for v in ids if v + 1 not in ids][:3]
        pool = cells + [tuple(int(v) for v in s) for s in cells] + [(), tuple(ids)]
        for _ in range(60):
            k = rng.randint(1, c.dim + 3)
            s = rng.sample(ids + absent, min(k, len(ids + absent)))
            pool.append(tuple(s) if rng.random() < 0.2 else
                        tuple(sorted(s, key=lambda v: (str(type(v)), v))))
        assert [cells[i] for i in c._ids(cells + cells[::-1], Missing)] == cells + cells[::-1]
        for s in pool:
            if s in c.simplices:
                assert cells[c._ids([s], Missing)[0]] == s
            else:
                with pytest.raises(Missing) as err:
                    c._ids([s], Missing)
                assert err.value.args[0] is s
        for _ in range(20):
            queries = rng.sample(pool, min(12, len(pool))) * 2
            first = next((s for s in queries if s not in c.simplices), None)
            if first is None:
                assert [cells[i] for i in c._ids(queries, Missing)] == queries
                continue
            with pytest.raises(Missing) as err:
                c._ids(queries, Missing)
            assert err.value.args[0] is first
    assert len(build_complex([])._ids([], Missing)) == 0


# --- the link table against a walk over each open star ----------------------

def open_star_walk(mc: MetricComplex, s):
    """The link walk as it was before the link table: one pass over
    Complex.open_star and one scalar call per arc, each dihedral angle on a
    fresh MetricComplex."""
    s, *cofaces = mc.complex.open_star(s)
    nodes, arcs, higher = [], [], []
    for t in cofaces:
        rest = [x for x in t if x not in s]
        if len(rest) == 1:
            nodes.append(rest[0])
        elif len(rest) > 2:
            higher.append(t)
        elif len(s) == 2:
            fresh = MetricComplex(mc.complex, mc.lengths)
            arcs.append(Arc(*rest, dihedral_angle(fresh, t, s), tag=t))
        else:
            (a, b), v = rest, s[0]
            arcs.append(Arc(a, b, corner_angle(mc.length(v, a), mc.length(v, b),
                                               mc.length(a, b)), tag=t))
    return nodes, arcs, higher


def walk_outcome(walk, mc, s):
    """Nodes and (u, v, weight bits, tag) of every arc, or the error raised."""
    try:
        nodes, arcs, *_ = walk(mc, s)
    except Exception as e:
        return type(e), str(e)
    return nodes, [(a.u, a.v, a.weight.hex(), a.tag) for a in arcs]


def assert_links_match_open_star_walks(mc):
    c = mc.complex
    for s in [(v,) for v in c.vertices] + c.k_simplices(1):
        want = walk_outcome(open_star_walk, mc, s)
        assert walk_outcome(_link_walk, mc, s) == want, s
        graph = vertex_link_graph if len(s) == 1 else edge_link_graph
        if isinstance(want[0], type):
            with pytest.raises(want[0], match=re.escape(want[1])):
                graph(mc, *s) if len(s) == 1 else graph(mc, s)
        elif higher := open_star_walk(mc, s)[2]:
            kind, at = ("vertex", s[0]) if len(s) == 1 else ("edge", s)
            with pytest.raises(PfcError, match=re.escape(f"{kind} {at} lies in {higher[0]};")):
                graph(mc, *s) if len(s) == 1 else graph(mc, s)


def test_link_table_equals_open_star_walks():
    """Node order, arc order, tags, weight bits and errors of every vertex and
    edge link of the random complexes, with lengths drawn from three values
    so that arcs share angles, equal those of a walk over the open star,
    and so does the error for a star above the link's dimension."""
    rng = random.Random(31)
    for gens in random_generator_lists():
        c = build_complex(gens)
        mc = MetricComplex(c, {e: rng.choice((1.0, 1.2, 1.4)) for e in c.k_simplices(1)})
        assert_links_match_open_star_walks(mc)
        for s in [(99,), (0, 99), tuple((c.vertices or [0])[:1] * 2)]:
            want = walk_outcome(open_star_walk, mc, s)
            assert want[0] is PfcError
            assert walk_outcome(_link_walk, mc, s) == want


def test_links_holding_a_bad_arc_raise_and_no_other():
    """A missing or non-numeric length fails the three vertex links of its
    triangle and a degenerate tetrahedron the edge links of its dihedral,
    each with the walk's own error; every other link is built as before."""
    c = build_complex([(0, 1, 2), (0, 2, 3), (3, 4, 5)])
    lengths = {e: 1.0 for e in c.k_simplices(1) if e != (1, 2)}
    # a length that is no number fails the same links, with the scalar's own error
    assert_links_match_open_star_walks(MetricComplex(c, {**lengths, (1, 2): None}))
    mc = MetricComplex(c, lengths)
    assert_links_match_open_star_walks(mc)
    for v in c.vertices:
        if v in (0, 1, 2):
            with pytest.raises(MetricError, match=re.escape("edge (1, 2) has no length")):
                vertex_link_graph(mc, v)
        else:
            assert vertex_link_graph(mc, v).arcs

    # vertex 2 sits on vertex 0 and vertex 6 on vertex 4: both dihedrals
    # read one degenerate sextuple, and each raises for its own tetrahedron
    c = build_complex([(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)])
    lengths = {e: 1.0 for e in c.k_simplices(1)}
    lengths[(0, 2)] = lengths[(4, 6)] = 0.0
    mc = MetricComplex(c, lengths)
    for tet, e in [((0, 1, 2, 3), (0, 1)), ((4, 5, 6, 7), (4, 5)), ((0, 1, 2, 3), (0, 1))]:
        with pytest.raises(MetricError, match=re.escape(f"degenerate dihedral in {tet} along {e}")):
            edge_link_graph(mc, e)
    unit = dihedral_angle(simplex_complex(3), (0, 1, 2, 3), (0, 1))
    assert [a.weight for a in edge_link_graph(mc, (8, 9)).arcs] == [unit]
    assert_links_match_open_star_walks(mc)


# --- array-based gluing and validation against the dict loops -------------

def glue_outcome(glue, validate, mc, pairs):
    """What a metric gluing makes of a metric: the cells, the vertex map,
    the kept lengths' bits in `lengths` order and the result's validation
    error, if any; or the gluing's error class and message."""
    try:
        q, vm = glue(mc, pairs)
    except PfcError as e:
        return type(e), str(e)
    return (q.complex.cells, vm, [(e, l.hex()) for e, l in q.lengths.items()],
            validation_outcome(validate, q))


def validation_outcome(validate, mc):
    try:
        validate(mc)
    except PfcError as e:
        return type(e), str(e)
    return None


def random_pairs(rng, c):
    """One to three identifications of random equal-sized simplices, most
    of them disjoint, each matched to a random vertex order of its partner."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, c.dim)
        s = rng.choice(c.k_simplices(k))
        disjoint = [t for t in c.k_simplices(k) if not set(s) & set(t)]
        t = list(rng.choice(disjoint if disjoint and rng.random() < 0.9 else c.k_simplices(k)))
        rng.shuffle(t)
        pairs.append(_simplex_pair(s, t))
    return pairs


def test_metric_quotient_equals_the_dict_loop_on_random_gluings():
    """Random gluings of complexes whose lengths, inserted in shuffled
    order, are drawn from values equal within EPS_LEN, apart by more, or
    far apart: metric_quotient keeps the bits and the `lengths` order of
    the dict loop and raises its first error, and so does a second gluing
    of each result, arrays on one side and the loop's dict on the other."""
    rng = random.Random(2718)
    values = (1.0, 1.0 + 4e-10, 1.0 - 4e-10, 1.0 + 3e-9, 1.5, 2.0)
    seen = Counter()
    for _ in range(300):
        c = build_complex([rng.sample(range(5 * p, 5 * p + 5), rng.choice((2, 3, 4)))
                           for p in range(4) for _ in range(rng.randint(1, 2))])
        edges = c.k_simplices(1)
        rng.shuffle(edges)
        lengths = {e: rng.choice(values) for e in edges}
        ours, theirs = MetricComplex(c, dict(lengths)), MetricComplex(c, dict(lengths))
        for _ in range(2):
            pairs = random_pairs(rng, ours.complex)
            want = glue_outcome(metric_oracle.metric_quotient, metric_oracle.validate_metric,
                                theirs, pairs)
            assert glue_outcome(metric_quotient, validate_metric, ours, pairs) == want
            if isinstance(want[0], type):
                seen["isometry error" if "different lengths" in want[1] else "other error"] += 1
                break
            images = {}
            for (u, v), l in theirs.lengths.items():
                images.setdefault(edge_key(want[1][u], want[1][v]), set()).add(l)
            seen["unequal lengths merged"] += any(len(ls) > 1 for ls in images.values())
            seen["glued"] += 1
            ours = metric_quotient(ours, pairs)[0]
            theirs = metric_oracle.metric_quotient(theirs, pairs)[0]
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name", ["simplex3", "box211"])
def test_gcify_quotients_equal_the_dict_loop(name, monkeypatch):
    """Every metric_quotient call of gcify, self-identifications of free
    faces included, gives the dict loop's outcome on the same lengths."""
    mc = simplex_complex(3) if name == "simplex3" else box_complex(2, 1, 1)
    calls = []

    def compared(work, pairs):
        want = glue_outcome(metric_oracle.metric_quotient, metric_oracle.validate_metric,
                            MetricComplex(work.complex, dict(work.lengths)), pairs)
        assert glue_outcome(metric_quotient, validate_metric, work, pairs) == want
        calls.append(want)
        return metric_quotient(work, pairs)

    monkeypatch.setattr(builders, "metric_quotient", compared)
    gcify(mc)
    assert len(calls) >= 2


def test_validate_metric_equals_the_per_simplex_scan_on_mutated_metrics():
    """Builder metrics, whose simplices share few distinct length rows, with
    up to three edges deleted, made nonpositive, nan or infinite, copied
    from another edge or rescaled: validate_metric names the first bad
    edge or simplex of a per-simplex `realizable` scan, with its message."""
    rng = random.Random(1618)
    bases = [box_complex(2, 1, 1), simplex_complex(3), flat_torus2(3), example1_interface_complex()]
    seen = Counter()
    for _ in range(200):
        base = rng.choice(bases)
        lengths, edges = dict(base.lengths), base.complex.k_simplices(1)
        for e in rng.sample(edges, rng.randint(0, 3)):
            op = rng.randrange(6)
            if op == 0:
                del lengths[e]
            elif op == 1:
                lengths[e] = rng.choice((0.0, -1.0, math.nan, math.inf))
            elif op == 2:
                lengths[e] = lengths.get(rng.choice(edges), 1.0)
            else:
                lengths[e] *= rng.choice((0.25, 1.7, 3.0, 1 + 1e-12))
        want = validation_outcome(metric_oracle.validate_metric, MetricComplex(base.complex, lengths))
        assert validation_outcome(validate_metric, MetricComplex(base.complex, lengths)) == want
        seen[want and want[1].split()[-1]] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen
