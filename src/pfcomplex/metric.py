"""
Piecewise-flat metrics on simplicial complexes.

A metric complex is a complex plus positive edge lengths realizing every
simplex as a flat Euclidean simplex (certified by Cayley-Menger sign
patterns).  Vertex and edge links become weighted multigraphs whose arc
weights are corner and dihedral angles; the nonpositive-curvature condition
for 2-complexes is "no vertex link has an injective loop shorter than 2*pi",
and geodesic extendability additionally needs every link point to see some
other link point at distance at least pi.  Dihedral angles and link
eccentricities are memoised on their exact inputs (see the README).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .complexes import (
    Complex,
    canonical_simplex,
    disjoint_union,
    euler_characteristic,
    free_face_check,
    quotient,
)
from .report import FAIL, INCONCLUSIVE, PASS, CheckItem, CheckReport, PfcError

EPS_CM = 1e-9      # relative tolerance on Cayley-Menger determinants
EPS_ANG = 1e-9     # tolerance on angle comparisons
EPS_GB = 1e-6      # absolute tolerance on the Gauss-Bonnet identity
EPS_LEN = 1e-9     # relative tolerance when identified edges must be isometric
DEFAULT_DELTA = 1e-3

TWO_PI = 2.0 * math.pi


class MetricError(PfcError):
    """A length assignment fails to realize some simplex flatly."""


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class MetricComplex:
    """A complex with an edge-length map (abstract length units)."""

    complex: Complex
    lengths: dict = field(compare=False)
    _dihedrals: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def length(self, u: int, v: int) -> float:
        try:
            return self.lengths[edge_key(u, v)]
        except KeyError:
            raise MetricError(f"edge {edge_key(u, v)} has no length") from None

    def simplex_lengths(self, s) -> list:
        """Edge lengths of a simplex in canonical vertex-pair order."""
        return [self.length(a, b) for a, b in combinations(s, 2)]

    def restrict(self, simplices, name=None) -> "MetricComplex":
        sub = self.complex.subcomplex(simplices, name=name)
        return MetricComplex(sub, {e: self.lengths[e] for e in sub.k_simplices(1)})


# ---------------------------------------------------------------------------
# flat realizability


def _realizable_rows(lengths: np.ndarray, dim: int) -> np.ndarray:
    """Flat realizability of N dim-simplices, one per row of lengths.

    `lengths` has shape (N, C(dim+1, 2)), each row in canonical vertex-pair
    order.  On every face of m >= 3 vertices the Cayley-Menger determinant
    must have sign (-1)^m and magnitude above EPS_CM * scale^(m-1), where
    scale is the largest squared edge of the whole simplex; one determinant
    call per face pattern covers all N rows.  Rows whose squares or
    tolerances overflow float64 are rejected.
    """
    n = dim + 1
    i, j = np.triu_indices(n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        cm = np.ones((len(lengths), n + 1, n + 1))
        cm[:, range(n + 1), range(n + 1)] = 0.0
        cm[:, i + 1, j + 1] = cm[:, j + 1, i + 1] = lengths * lengths
        scale = cm[:, 1:, 1:].max(axis=(1, 2))
        ok = (scale > 0) & ((lengths > 0) & (lengths < math.inf)).all(axis=1)
        for m in range(3, n + 1):
            sign = -1 if m % 2 else 1
            tol = EPS_CM * scale ** (m - 1)
            for subset in combinations(range(1, n + 1), m):
                idx = np.array([0, *subset])
                ok &= sign * np.linalg.det(cm[:, idx[:, None], idx]) > tol
    return ok


def realizable(edge_lengths: list, dim: int) -> bool:
    """Whether a flat nondegenerate simplex with these edge lengths exists.

    Lengths are given in canonical vertex-pair order, C(dim+1, 2) of them;
    the test is that of :func:`_realizable_rows` on one row.
    """
    npairs = dim * (dim + 1) // 2
    if len(edge_lengths) != npairs:
        raise PfcError(
            f"expected {npairs} edge lengths for a {dim}-simplex, "
            f"got {len(edge_lengths)}")
    row = np.asarray(edge_lengths, dtype=float).reshape(1, npairs)
    return bool(_realizable_rows(row, dim)[0])


def corner_angle(a: float, b: float, c: float) -> float:
    """Angle between the sides of lengths a and b, opposite side c."""
    if a <= 0 or b <= 0 or c <= 0:
        raise PfcError(f"nonpositive length in corner ({a}, {b}, {c})")
    if not all(map(math.isfinite, (a, b, c))):
        raise PfcError(f"non-finite length in corner ({a}, {b}, {c})")
    arg = (a * a + b * b - c * c) / (2.0 * a * b)
    return math.acos(max(-1.0, min(1.0, arg)))


def embed_simplex(edge_lengths: list, dim: int) -> np.ndarray:
    """Coordinates of a flat simplex with the given edge lengths.

    Vertex 0 sits at the origin; the Gram matrix is factored by eigenvalue
    decomposition, so mildly degenerate inputs come out flattened rather
    than failing.
    """
    n = dim + 1
    pairs = list(combinations(range(n), 2))
    if len(edge_lengths) != len(pairs):
        raise PfcError(
            f"expected {len(pairs)} edge lengths for a {dim}-simplex")
    d2 = np.zeros((n, n))
    for (i, j), l in zip(pairs, edge_lengths):
        d2[i, j] = d2[j, i] = l * l
    g = 0.5 * (d2[0, 1:, None].repeat(n - 1, axis=1)
               + d2[0, None, 1:].repeat(n - 1, axis=0) - d2[1:, 1:])
    w, v = np.linalg.eigh(g)
    w = np.clip(w, 0.0, None)
    coords = v * np.sqrt(w)
    return np.vstack([np.zeros(n - 1), coords])


def dihedral_angle(mc: MetricComplex, tet, edge) -> float:
    """Dihedral angle of a tetrahedron along one of its edges."""
    tet = canonical_simplex(tet)
    a, b = edge_key(*edge)
    rest = [v for v in tet if v not in (a, b)]
    if len(rest) != 2:
        raise PfcError(f"{edge} is not an edge of {tet}")
    lengths = tuple(mc.length(x, y) for x, y in combinations([a, b, *rest], 2))
    if lengths in mc._dihedrals:
        return mc._dihedrals[lengths]
    pa, pb, pc, pd = embed_simplex(lengths, 3)
    e = pb - pa
    e = e / np.linalg.norm(e)
    u = (pc - pa) - np.dot(pc - pa, e) * e
    v = (pd - pa) - np.dot(pd - pa, e) * e
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise MetricError(f"degenerate dihedral in {tet} along {edge}")
    arg = max(-1.0, min(1.0, float(np.dot(u, v) / (nu * nv))))
    return mc._dihedrals.setdefault(lengths, math.acos(arg))


def validate_metric(mc: MetricComplex) -> None:
    """Raise MetricError unless every simplex is flatly realizable."""
    for e in mc.complex.k_simplices(1):
        l = mc.lengths.get(e)
        if l is None:
            raise MetricError(f"edge {e} has no length")
        if not 0 < l < math.inf:
            raise MetricError(f"edge {e} has length {l}, not finite positive")
    for k in range(2, mc.complex.dim + 1):
        simplices = mc.complex.k_simplices(k)
        lengths = np.array([mc.lengths.get(e, math.nan) for s in simplices
                            for e in combinations(s, 2)], dtype=float)
        shape = (len(simplices), k * (k + 1) // 2)
        bad = np.flatnonzero(~_realizable_rows(lengths.reshape(shape), k))
        if bad.size:
            raise MetricError(
                f"simplex {simplices[bad[0]]} is not flatly realizable")


def angle_sum_at_vertex(mc: MetricComplex, v: int) -> float:
    """Total corner angle over all triangles containing the vertex."""
    total = 0.0
    for arc in _link_walk(mc, (v,))[1]:
        total += arc.weight
    return total


# ---------------------------------------------------------------------------
# metric graphs (links)


class Arc(NamedTuple):
    u: int
    v: int
    weight: float
    tag: tuple = ()


@dataclass(frozen=True)
class MetricGraph:
    """Weighted multigraph; parallel arcs allowed, self-loops not."""

    nodes: tuple
    arcs: tuple

    def __post_init__(self):
        nodeset = set(self.nodes)
        for a in self.arcs:
            if a.u == a.v:
                raise PfcError(f"self-loop at {a.u}")
            if a.weight <= 0:
                raise PfcError(f"nonpositive arc weight {a.weight}")
            if not math.isfinite(a.weight):
                raise PfcError(f"non-finite arc weight {a.weight}")
            if a.u not in nodeset or a.v not in nodeset:
                raise PfcError(f"arc {a} references unknown node")

    def total_weight(self) -> float:
        return sum(a.weight for a in self.arcs)


def _link_walk(mc: MetricComplex, s):
    """Nodes, arcs and higher cofaces of the link of a vertex or an edge s,
    in one pass over its open star: nodes are labelled by their vertex outside
    s, arcs weighted by their angle at s (corner or dihedral angle)."""
    s, *cofaces = mc.complex.open_star(s)
    nodes, arcs, higher = [], [], []
    for t in cofaces:
        rest = [x for x in t if x not in s]
        if len(rest) == 1:
            nodes.append(rest[0])
        elif len(rest) > 2:
            higher.append(t)
        else:
            (a, b), v = rest, s[0]
            angle = (dihedral_angle(mc, t, s) if len(s) == 2 else corner_angle(
                mc.length(v, a), mc.length(v, b), mc.length(a, b)))
            arcs.append(Arc(a, b, angle, tag=t))
    return nodes, arcs, higher


def _link_graph(mc: MetricComplex, s) -> MetricGraph:
    nodes, arcs, higher = _link_walk(mc, s)
    if higher:
        kind, at = ("vertex", s[0]) if len(s) == 1 else ("edge", s)
        raise PfcError(f"{kind} {at} lies in {higher[0]}; {kind} links are only "
                       f"built where the star is {len(s) + 1}-dimensional")
    return MetricGraph(tuple(nodes), tuple(arcs))


def vertex_link_graph(mc: MetricComplex, v: int) -> MetricGraph:
    """The metric link of a vertex in a locally 2-dimensional complex.

    Nodes are the edges at v (labelled by their opposite vertex); each
    triangle at v contributes an arc weighted by its corner angle there.
    """
    return _link_graph(mc, (v,))


def edge_link_graph(mc: MetricComplex, e) -> MetricGraph:
    """The metric link of an edge in a locally 3-dimensional complex.

    Nodes are the triangles containing the edge (labelled by their third
    vertex); each tetrahedron around the edge contributes an arc weighted by
    its dihedral angle there.
    """
    if len(e) != 2:
        raise PfcError(f"{tuple(e)} is not an edge")
    return _link_graph(mc, edge_key(*e))


# ---------------------------------------------------------------------------
# shortest cycles


def _adjacency(g: MetricGraph) -> dict:
    adj = {n: [] for n in g.nodes}
    for i, a in enumerate(g.arcs):
        adj[a.u].append((a.v, a.weight, i))
        adj[a.v].append((a.u, a.weight, i))
    return adj


def _dijkstra(adj, source, skip_arc=None):
    dist = {source: 0.0}
    prev = {}
    heap = [(0.0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist.get(x, math.inf):
            continue
        for y, w, idx in adj[x]:
            if idx == skip_arc:
                continue
            nd = d + w
            if nd < dist.get(y, math.inf) - 1e-15:
                dist[y] = nd
                prev[y] = x
                heapq.heappush(heap, (nd, y))
    return dist, prev


def shortest_cycle(g: MetricGraph):
    """(length, node list) of the shortest injective cycle, or (inf, None).

    Every simple cycle must use some arc; removing that arc and joining its
    endpoints by a shortest path realizes the minimum.
    """
    adj = _adjacency(g)
    best = math.inf
    best_cycle = None
    for i, a in enumerate(g.arcs):
        dist, prev = _dijkstra(adj, a.u, skip_arc=i)
        d = dist.get(a.v, math.inf)
        if d + a.weight < best - 1e-15:
            best = d + a.weight
            path = [a.v]
            while path[-1] != a.u:
                path.append(prev[path[-1]])
            best_cycle = tuple(reversed(path))
    return best, best_cycle


def girth(g: MetricGraph) -> float:
    """Length of the shortest injective cycle; infinity when acyclic."""
    return shortest_cycle(g)[0]


# ---------------------------------------------------------------------------
# minimal eccentricity of a metric graph, over all (interior) points


class EccentricityBounds(NamedTuple):
    lo: float
    hi: float
    connected: bool = True


def min_eccentricity(g: MetricGraph, delta: float = DEFAULT_DELTA) -> EccentricityBounds:
    """Bounds on min over points x of max over points y of d(x, y).

    Points range over the whole graph body, arc interiors included: the
    absolute centre of Hakimi (1964), from node-to-node distances alone.  At
    distance t along an arc (p, q, w) a node x is f(x) = min(t + d(p, x),
    (w - t) + d(q, x)) away, the far point of another arc (a, b, z) is
    (f(a) + f(b) + z) / 2 away, and that of the arc itself max(t, w - t).
    That term ignores the detour around the arc, which caps it at
    (w + d(p, q)) / 2, yet the minimum stays exact.  Each node is evaluated
    exactly through its lightest arc, which is geodesic.  On a non-geodesic
    arc, within (w - d(p, q)) / 2 of p the eccentricity is at least p's,
    and likewise at q, so the cap never binds where the minimum lies.  All
    slopes lie in {-1, 0, 1}, so the minimum is exact on the breakpoint
    grid and where rising and falling terms cross; the returned interval is
    degenerate (lo == hi).  `delta` is kept as the requested resolution
    bound and only validated; the exact optimum trivially satisfies
    hi - lo <= 2*delta.
    """
    if not 0 < delta < math.inf:
        raise PfcError(f"resolution must be positive, got {delta}" if delta <= 0
                       else f"resolution must be finite, got {delta}")
    if not g.nodes:
        raise PfcError("empty graph has no eccentricity")
    adj = _adjacency(g)
    rows = [_dijkstra(adj, n)[0] for n in g.nodes]
    if len(rows[0]) < len(g.nodes):
        return EccentricityBounds(math.inf, math.inf, connected=False)
    if not g.arcs:
        return EccentricityBounds(0.0, 0.0)

    dist = np.array([[row[m] for m in g.nodes] for row in rows])
    index = {n: i for i, n in enumerate(g.nodes)}
    p_idx = np.array([index[a.u] for a in g.arcs])
    q_idx = np.array([index[a.v] for a in g.arcs])
    z_arr = np.array([a.weight for a in g.arcs])

    best = math.inf
    for ai, (p, q, w) in enumerate(zip(p_idx.tolist(), q_idx.tolist(), z_arr.tolist())):
        du, dv = dist[p], dist[q]
        cuts = (w + dv - du) / 2.0
        t = np.array(sorted({0.0, w, w / 2.0, *cuts[(0.0 < cuts) & (cuts < w)].tolist()}))
        # one row per grid point: node terms, then far points of the arcs
        f = np.minimum(t[:, None] + du, (w - t[:, None]) + dv)
        over_arcs = (f[:, p_idx] + f[:, q_idx] + z_arr) / 2.0
        over_arcs[:, ai] = np.maximum(t, w - t)
        v = np.concatenate([f, over_arcs], axis=1)
        best = min(best, float(v.max(axis=1).min()))

        # one row per segment; those shorter than 1e-14 are never crossed
        dt, v1, t1 = np.diff(t), v[:-1], t[:-1, None]
        slope = np.diff(v, axis=0) / dt[:, None]
        rising, falling = slope > 0.5, slope < -0.5
        b_plus = np.where(rising, v1 - t1, -np.inf).max(axis=1)
        b_minus = np.where(falling, v1 + t1, -np.inf).max(axis=1)
        with np.errstate(invalid="ignore"):  # -inf - -inf where neither
            t_star = (b_minus - b_plus) / 2.0
        e_star = np.maximum((b_plus + b_minus) / 2.0,
                            np.where(rising | falling, -np.inf, v1).max(axis=1))
        crossed = (dt >= 1e-14) & (t[:-1] < t_star) & (t_star < t[1:])
        best = min(best, float(e_star[crossed].min(initial=math.inf)))

    return EccentricityBounds(best, best)


# ---------------------------------------------------------------------------
# curvature and completeness certificates


def cat0_two_complex_check(mc: MetricComplex) -> CheckReport:
    """Link condition for 2-complexes: every vertex link has girth >= 2*pi."""
    if mc.complex.dim > 2:
        raise PfcError(
            f"link condition check requires dim <= 2, got {mc.complex.dim}")
    items = []
    ok = True
    for v in mc.complex.vertices:
        length, cycle = shortest_cycle(vertex_link_graph(mc, v))
        bad = length < TWO_PI - EPS_ANG
        ok = ok and not bad
        items.append(CheckItem(f"vertex {v}", length, TWO_PI,
                               witness=cycle if bad else None))
    meta = {"condition": "girth(link(v)) >= 2*pi for every vertex v"}
    return CheckReport(PASS if ok else FAIL, tuple(items), meta)


def npc_edge_link_check(mc: MetricComplex) -> CheckReport:
    """Necessary curvature conditions for 3-complexes via edge links.

    Only girth >= 2*pi around every edge is checked.  Vertex links of
    3-complexes are spherical 2-complexes whose verification is out of
    scope, so a short edge-link cycle fails the check while a clean result
    is inconclusive, never a pass.
    """
    if mc.complex.dim > 3:
        raise PfcError(
            f"edge link check requires dim <= 3, got {mc.complex.dim}")
    items = []
    for e in mc.complex.k_simplices(1):
        length, cycle = shortest_cycle(edge_link_graph(mc, e))
        if length < TWO_PI - EPS_ANG:
            items.append(CheckItem(f"edge {e}", length, TWO_PI, witness=cycle))
    meta = {"necessary_conditions_only": True,
            "condition": "girth(link(e)) >= 2*pi for every edge e"}
    return CheckReport(FAIL if items else INCONCLUSIVE, tuple(items), meta)


def link_condition_check(mc: MetricComplex) -> CheckReport:
    """The link condition at the strength the complex's dimension allows.

    Decisive vertex-link girths for dim <= 2, necessary edge-link girths
    (never a pass) for dim 3.
    """
    if mc.complex.dim <= 2:
        return cat0_two_complex_check(mc)
    return npc_edge_link_check(mc)


def extendability_check(mc: MetricComplex) -> CheckReport:
    """Geodesic extendability certificate for compact flat 2-complexes.

    Passes when the complex has no free faces and every vertex link has
    minimal eccentricity at least pi (each incoming direction sees an
    outgoing one at angular distance >= pi).  The eccentricity side is
    evaluated exactly, so the verdict is decisive.
    """
    if mc.complex.dim > 2:
        raise PfcError(
            f"extendability check requires dim <= 2, got {mc.complex.dim}")
    faces = free_face_check(mc.complex)
    items = list(faces.items)
    ok = faces.verdict == PASS
    memo = {}  # keyed by the rank-relabelled link; ranks keep every tie-break
    for v in mc.complex.vertices:
        g = vertex_link_graph(mc, v)
        if not g.nodes:
            continue  # isolated vertex: already reported as a free situation
        rank = {n: i for i, n in enumerate(sorted(g.nodes))}
        key = (tuple(rank[n] for n in g.nodes),
               tuple((rank[a.u], rank[a.v], a.weight) for a in g.arcs))
        if key not in memo:
            memo[key] = min_eccentricity(g)
        ecc = memo[key]
        bad = ecc.lo < math.pi - EPS_ANG
        ok = ok and not bad
        items.append(CheckItem(f"vertex {v}", ecc.lo, math.pi,
                               witness=(ecc.lo, ecc.hi) if bad else None))
    meta = {"condition": "no free faces and min eccentricity of every vertex "
                         "link >= pi",
            "dimension_restriction": "certified for complexes of dim <= 2"}
    return CheckReport(PASS if ok else FAIL, tuple(items), meta)


def gauss_bonnet(mc: MetricComplex):
    """(2*pi*chi, total angle defect) for a closed piecewise-flat surface."""
    c = mc.complex
    if c.dim != 2:
        raise PfcError(f"not a surface: dimension {c.dim}")
    lo, hi = c.index.offsets[1:3]
    for e, n in zip(c.k_simplices(1), np.diff(c.index.ptr)[lo:hi].tolist()):
        if n != 2:
            raise PfcError(f"edge {e} lies in {n} triangles, expected 2")
    lhs = TWO_PI * euler_characteristic(c)
    rhs = sum(TWO_PI - angle_sum_at_vertex(mc, v) for v in c.vertices)
    return lhs, rhs


def gauss_bonnet_check(mc: MetricComplex) -> CheckReport:
    """The Gauss-Bonnet identity on a closed surface, within EPS_GB."""
    lhs, rhs = gauss_bonnet(mc)
    ok = abs(lhs - rhs) <= EPS_GB
    items = (CheckItem("2*pi*chi", lhs, None),
             CheckItem("total angle defect", rhs, None),
             CheckItem("difference", abs(lhs - rhs), EPS_GB,
                       witness=None if ok else (lhs, rhs)))
    return CheckReport(PASS if ok else FAIL, items)


# ---------------------------------------------------------------------------
# metric-aware assembly helpers


def metric_disjoint_union(first: MetricComplex, *rest: MetricComplex):
    """Disjoint union of metric complexes; returns (union, one vertex shift
    per part in rest), as disjoint_union does."""
    c, shifts = disjoint_union(first.complex, *(p.complex for p in rest))
    lengths = dict(first.lengths)
    for part, shift in zip(rest, shifts):
        for (u, v), l in part.lengths.items():
            lengths[edge_key(shift[u], shift[v])] = l
    return MetricComplex(c, lengths), shifts


def metric_quotient(mc: MetricComplex, pairs):
    """Quotient that also merges edge lengths, requiring isometric gluing.

    Identified edges must agree in length within EPS_LEN relative tolerance;
    otherwise the identification is not an isometry and a MetricError names
    the offending edge pair.
    """
    res = quotient(mc.complex, pairs)
    vm = res.vertex_map
    lengths = {}
    for (u, v), l in mc.lengths.items():
        key = edge_key(vm[u], vm[v])
        old = lengths.get(key)
        if old is not None and abs(old - l) > EPS_LEN * max(1.0, abs(old)):
            raise MetricError(
                f"edges identified onto {key} have different lengths "
                f"{old} vs {l}")
        lengths[key] = l if old is None else old
    return MetricComplex(res.complex, lengths), vm
