"""
Piecewise-flat metrics on simplicial complexes.

A metric complex is a complex plus positive edge lengths realizing every
simplex as a flat Euclidean simplex (certified by Cayley-Menger sign
patterns).  Vertex and edge links become weighted multigraphs whose arc
weights are corner and dihedral angles; the nonpositive-curvature condition
for 2-complexes is "no vertex link has an injective loop shorter than 2*pi",
and geodesic extendability additionally needs every link point to see some
other link point at distance at least pi.  Links are slices of one table
per complex; angles, eccentricities and cycles are memoised (see README).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count, repeat
from typing import NamedTuple

import numpy as np

from .complexes import (
    Complex,
    _groups,
    _row_keys,
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
_ECC_BLOCK = 1 << 12  # entries per block of min_eccentricity's rows

TWO_PI = 2.0 * math.pi


class MetricError(PfcError):
    """A length assignment fails to realize some simplex flatly."""


def edge_key(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


class MetricComplex:
    """A complex with edge lengths (abstract length units), held as arrays
    over the edge rows (complex.rows[1]): edge_lengths, one float64 per
    edge (nan where it has none), and edge_order, the ids of the edges that
    have one, in the order they were given.  A mapping of lengths by edge
    tuple is converted once, on construction; a key that is no edge is
    dropped.  Metrics compare and hash as their complexes do."""

    def __init__(self, complex: Complex, lengths: dict | None = None,
                 edge_lengths: np.ndarray | None = None, edge_order: np.ndarray | None = None):
        self.complex, self._links = complex, {}
        if edge_lengths is None:
            lengths = lengths or {}
            edges = zip(*np.array(complex.vertices, np.int64)[complex.rows[1]].T.tolist()) \
                if complex.dim > 0 else ()
            ids = dict(zip(edges, count()))
            at = np.fromiter(map(ids.get, lengths, repeat(-1)), np.int64, len(lengths))  # -1: no edge
            edge_lengths, edge_order = np.full(len(ids), math.nan), at[at >= 0]
            edge_lengths[edge_order] = np.fromiter(lengths.values(), float, len(lengths))[at >= 0]
        self.edge_lengths, self.edge_order = edge_lengths, edge_order

    def __eq__(self, other):
        return isinstance(other, MetricComplex) and self.complex == other.complex

    def __hash__(self):
        return hash(self.complex)

    @cached_property
    def lengths(self) -> dict:
        """The lengths by edge tuple, in edge_order: a dict built on first
        read, for callers; writing to it changes no length."""
        edges, order = self.complex.k_simplices(1), self.edge_order.tolist()
        return dict(zip(map(edges.__getitem__, order), self.edge_lengths[order].tolist()))

    @cached_property
    def length_codes(self) -> tuple:
        """The distinct edge lengths, ascending, and each edge's index among
        them, its code: equal floats share a code; nan never does."""
        first, codes = _groups(self.edge_lengths)
        return self.edge_lengths[first], codes

    def length(self, u: int, v: int) -> float:
        """The length of the edge {u, v}, found by a search of the edge
        cells.  An edge has one exactly when its id is in edge_order, so a
        nan that was given is returned and a missing length raises."""
        e, cells, lo = edge_key(u, v), self.complex.cells, len(self.complex.vertices)
        hi = lo + len(self.edge_lengths)
        if (k := bisect_left(cells, e, lo, hi)) < hi and cells[k] == e:
            if (l := self.edge_lengths.item(k - lo)) == l or k - lo in self.edge_order:
                return l
        raise MetricError(f"edge {e} has no length")

    def simplex_lengths(self, s) -> list:
        """Edge lengths of a simplex in canonical vertex-pair order."""
        return [self.length(a, b) for a, b in combinations(s, 2)]

    def restrict(self, simplices, name=None) -> "MetricComplex":
        """The metric on the face closure of some of the complex's simplices:
        each edge's length gathered by edge id, those with one in id order."""
        sub = self.complex.subcomplex(simplices, name=name)
        ranks = np.searchsorted(np.array(self.complex.vertices, np.int64), np.array(sub.vertices, np.int64))
        eids = _edge_ids(self.complex, *ranks[sub.rows[1]].T) if sub.dim > 0 else np.zeros(0, np.int64)
        return MetricComplex(sub, edge_lengths=self.edge_lengths[eids],
                             edge_order=np.flatnonzero(np.isin(eids, self.edge_order)))


def _edge_ids(c: Complex, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ids of the edges {u, v} of c, from arrays of vertex ranks u < v."""
    n, e = len(c.vertices), c.rows[1] if c.dim > 0 else np.zeros((0, 2), np.int64)
    return np.searchsorted(e[:, 0] * n + e[:, 1], u * n + v)


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
    i, j = np.array([*combinations(range(1, n + 1), 2)], np.int64).reshape(-1, 2).T
    with np.errstate(over="ignore", invalid="ignore"):
        cm = np.ones((len(lengths), n + 1, n + 1))
        cm.reshape(-1, (n + 1) ** 2)[:, ::n + 2] = 0.0  # the diagonals
        cm[:, i, j] = cm[:, j, i] = lengths * lengths
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
    """Angle between the sides of lengths a and b, opposite side c;
    PfcError if one side exceeds the sum of the other two."""
    if a <= 0 or b <= 0 or c <= 0:
        raise PfcError(f"nonpositive length in corner ({a}, {b}, {c})")
    if not all(map(math.isfinite, (a, b, c))):
        raise PfcError(f"non-finite length in corner ({a}, {b}, {c})")
    if a > b + c or b > a + c or c > a + b:
        raise PfcError(f"a side exceeds the other two in corner ({a}, {b}, {c})")
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
    pa, pb, pc, pd = embed_simplex(mc.simplex_lengths((a, b, *rest)), 3)
    e = pb - pa
    e = e / np.linalg.norm(e)
    u = (pc - pa) - np.dot(pc - pa, e) * e
    v = (pd - pa) - np.dot(pd - pa, e) * e
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise MetricError(f"degenerate dihedral in {tet} along {edge}")
    arg = max(-1.0, min(1.0, float(np.dot(u, v) / (nu * nv))))
    return math.acos(arg)


def validate_metric(mc: MetricComplex) -> None:
    """Raise MetricError unless every simplex is flatly realizable.  Each
    simplex's lengths are gathered by edge id, and each distinct row of
    length codes is tested once, on the lengths of its first simplex."""
    c = mc.complex
    if c.dim < 1:
        return
    lengths, (values, codes) = mc.edge_lengths, mc.length_codes
    ok = (lengths > 0) & (lengths < math.inf)
    if not ok.all():
        e = c.k_simplices(1)[np.argmin(ok)]
        raise MetricError(f"edge {e} has length {mc.length(*e)}, not finite positive")
    for k in range(2, c.dim + 1):
        i, j = zip(*combinations(range(k + 1), 2))  # vertex pairs in canonical order
        eids = _edge_ids(c, c.rows[k][:, i], c.rows[k][:, j])
        first, inverse = _groups(_row_keys(codes[eids].T, len(values), np.empty(len(eids), np.int64)))
        bad = np.flatnonzero(~_realizable_rows(lengths[eids[first]], k)[inverse])
        if bad.size:
            raise MetricError(
                f"simplex {c.k_simplices(k)[bad[0]]} is not flatly realizable")


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


def _link_table(mc: MetricComplex, d: int) -> tuple:
    """The links of every vertex (d = 1) or edge (d = 2), cached on mc and
    built in one numpy pass over the rows: a dict giving each its id; CSR
    offsets (lists) and ranks of the nodes, the d-cofaces' other vertices;
    CSR offsets and one int64 row per arc, a (d + 1)-coface: its cell id in
    open_star's order, its other vertices' ranks and a code for the lengths
    its angle reads; and the angles so far, by code."""
    if d not in mc._links:
        c, owners = mc.complex, mc.complex.k_simplices(d - 1)
        (values, lcode), parts = mc.length_codes, []
        for m in range(d, d + 2):
            rows = c.rows[m] if m <= c.dim else np.zeros((0, m + 1), np.int64)
            # each cell once per (d - 1)-face, its vertices reordered face first
            combos = [keep + tuple(i for i in range(m + 1) if i not in keep)
                      for keep in combinations(range(m + 1), d)]
            pairs = {p: k for k, p in enumerate(combinations(range(m + 1), 2))}
            ends = rows[:, [*pairs]]
            eids = _edge_ids(c, ends[..., 0], ends[..., 1])  # edges of the pairs
            owner = (rows[:, [k[0] for k in combos]] if d == 1
                     else eids[:, [pairs[k[:2]] for k in combos]]).ravel()
            order = np.argsort(owner, kind="stable")  # cells ascend per owner
            ptr = np.concatenate(([0], np.bincount(owner, minlength=len(owners)).cumsum()))
            ranks = rows[:, [k[d:] for k in combos]].reshape(-1, m + 1 - d)[order]
            if m == d:
                parts.append((ptr.tolist(), ranks[:, 0]))
                continue
            block = np.empty((len(order), 4), np.int64)
            block[:, 0] = order // len(combos) + sum(map(len, c.rows[:m]))
            block[:, 1:3] = ranks
            _row_keys((lcode[eids[:, read]].ravel()[order] for read in zip(
                *([pairs[tuple(sorted(p))] for p in combinations(k, 2)] for k in combos))),
                len(values) + 1, block[:, 3])
            parts.append((ptr.tolist(), block))
        mc._links[d] = dict(zip(owners, range(len(owners)))), *parts, {}
    return mc._links[d]


def _link_walk(mc: MetricComplex, s):
    """Nodes and arcs of the link of a vertex or an edge s, sliced from the
    link table: nodes labelled by their vertex outside s, arcs weighted by
    their angle at s, computed on the first arc whose code needs it; an
    angle that raises is never stored, so it raises again."""
    row, (nptr, nodes), (aptr, block), angles = _link_table(mc, len(s))
    i = row[s] if s in row else mc.complex.open_star(s)  # raises: s is no simplex
    verts, cells, arcs = mc.complex.vertices, mc.complex.cells, []
    for x, a, b, code in block[aptr[i]:aptr[i + 1]].tolist():
        w = angles.get(code)
        if w is None:
            (p, q), v, t = [y for y in cells[x] if y not in s], s[0], cells[x]
            w = angles[code] = dihedral_angle(mc, t, s) if len(s) == 2 else \
                corner_angle(mc.length(v, p), mc.length(v, q), mc.length(p, q))
        arcs.append(Arc(verts[a], verts[b], w, cells[x]))
    return [verts[x] for x in nodes[nptr[i]:nptr[i + 1]].tolist()], arcs


def _link_graph(mc: MetricComplex, s) -> MetricGraph:
    nodes, arcs = _link_walk(mc, s)
    higher = [t for t in mc.complex.open_star(s) if len(t) > len(s) + 2] \
        if mc.complex.dim > len(s) + 1 else []
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
    if not isinstance(g, MetricGraph):  # every graph routine reads its graph here
        raise PfcError(f"expected a MetricGraph, got a value of type {type(g).__name__}")
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
        if d > dist[x]:  # every pushed node has a distance
            continue
        for y, w, idx in adj[x]:
            nd = d + w
            if nd < dist.get(y, math.inf) - 1e-15 and idx != skip_arc:
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
    return _min_eccentricities([g], delta)[0]


def _min_eccentricities(graphs, delta: float = DEFAULT_DELTA) -> list:
    """min_eccentricity of each graph, in order.  Graphs of equal node and
    arc counts share one pass: their grid rows are stacked, each with its
    graph's id, so every float is the one a pass over its graph alone
    computes, and each graph takes the least of its own rows."""
    if not 0 < delta < math.inf:
        raise PfcError(f"resolution must be positive, got {delta}" if delta <= 0
                       else f"resolution must be finite, got {delta}")
    out, groups = [], {}
    for g in graphs:
        adj = _adjacency(g)
        if not g.nodes:
            raise PfcError("empty graph has no eccentricity")
        rows = [_dijkstra(adj, n)[0] for n in g.nodes]  # dropped below: they outweigh a block
        if len(rows[0]) < len(g.nodes):
            out.append(EccentricityBounds(math.inf, math.inf, connected=False))
        elif not g.arcs:
            out.append(EccentricityBounds(0.0, 0.0))
        else:
            out.append(None)  # set by its group's pass
            index = {n: i for i, n in enumerate(g.nodes)}
            groups.setdefault((len(g.nodes), len(g.arcs)), []).append(
                (len(out) - 1, np.array([[row[m] for m in g.nodes] for row in rows]),
                 *zip(*((index[a.u], index[a.v], a.weight) for a in g.arcs))))
        del rows
    for n, a in list(groups):  # each group dropped once stacked
        ids, dist, p_idx, q_idx, z_arr = map(np.array, zip(*groups.pop((n, a))))
        # each arc's grid: 0, w, w/2 and the cuts inside (0, w), sorted, distinct
        z, k = z_arr[..., None], np.arange(len(ids))[:, None]
        cuts = (z + dist[k, q_idx] - dist[k, p_idx]) / 2.0
        cuts[(cuts <= 0.0) | (cuts >= z)] = 0.0
        grid = np.sort(np.concatenate([np.zeros_like(z), z, z / 2.0, cuts], axis=2), axis=2)
        new = np.diff(grid, axis=2, prepend=-1.0) != 0.0
        graph_of, arc_of = np.nonzero(new)[:2]
        t_all, best = grid[new], np.full(len(ids), math.inf)

        # whole arcs per block, closed before an arc that would pass _ECC_BLOCK
        lo, stops = 0, np.cumsum(new.sum(axis=2)).tolist()
        for stop, after in zip(stops, stops[1:] + [None]):
            if after is not None and (after - lo) * (n + a) <= _ECC_BLOCK:
                continue
            t, gi, ai, lo = t_all[lo:stop], graph_of[lo:stop], arc_of[lo:stop], stop
            r, w = np.arange(len(t)), z_arr[gi, ai]
            # one row per grid point: node terms, then far points of the arcs
            f = np.minimum(t[:, None] + dist[gi, p_idx[gi, ai]],
                           (w - t)[:, None] + dist[gi, q_idx[gi, ai]])
            over_arcs = (f[r[:, None], p_idx[gi]] + f[r[:, None], q_idx[gi]] + z_arr[gi]) / 2.0
            over_arcs[r, ai] = np.maximum(t, w - t)
            v = np.concatenate([f, over_arcs], axis=1)
            np.minimum.at(best, gi, v.max(axis=1))

            # one row per pair of consecutive points; a pair shorter than 1e-14
            # is never crossed, nor one spanning two arcs of one graph or two,
            # where dt = -w < 0
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
            np.minimum.at(best, gi[:-1][crossed], e_star[crossed])
        for i, b in zip(ids.tolist(), best.tolist()):
            out[i] = EccentricityBounds(b, b)
    return out


# ---------------------------------------------------------------------------
# curvature and completeness certificates


def _rank_key(g: MetricGraph):
    """A link's memo key, flat: its node count, each node's rank among the
    nodes, then rank u, rank v and weight of each arc; and its nodes in rank
    order.  Ranks compare as the labels do, so _dijkstra breaks every heap
    tie the same way: the same floats result."""
    labels = sorted(g.nodes)
    rank = dict(zip(labels, range(len(labels))))
    return (len(labels), *map(rank.__getitem__, g.nodes),
            *[x for a in g.arcs for x in (rank[a.u], rank[a.v], a.weight)]), labels


def _memo_shortest_cycle(memo: dict, g: MetricGraph):
    """shortest_cycle(g) memoised on g's rank key, the cycle kept in ranks."""
    key, labels = _rank_key(g)
    if key not in memo:
        length, cycle = shortest_cycle(g)
        memo[key] = length, cycle and tuple(map(labels.index, cycle))
    length, cycle = memo[key]
    return length, cycle and tuple(map(labels.__getitem__, cycle))


def cat0_two_complex_check(mc: MetricComplex) -> CheckReport:
    """Link condition for 2-complexes: every vertex link has girth >= 2*pi."""
    if mc.complex.dim > 2:
        raise PfcError(
            f"link condition check requires dim <= 2, got {mc.complex.dim}")
    items, memo = [], {}
    ok = True
    for v in mc.complex.vertices:
        length, cycle = _memo_shortest_cycle(memo, vertex_link_graph(mc, v))
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
    items, memo = [], {}
    for e in mc.complex.k_simplices(1):
        length, cycle = _memo_shortest_cycle(memo, edge_link_graph(mc, e))
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
    keys, links, at = {}, [], []  # one graph per distinct rank key, then per vertex its index
    for v in mc.complex.vertices:
        g = vertex_link_graph(mc, v)
        if not g.nodes:
            continue  # isolated vertex: no nonconstant local geodesic, vacuously extendable
        at.append((v, keys.setdefault(_rank_key(g)[0], len(keys))))
        if len(links) < len(keys):
            links.append(g)
    eccs = _min_eccentricities(links)
    for v, k in at:
        ecc = eccs[k]
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
    per part in rest), as disjoint_union does.  The union's edge rows are
    the parts' in turn, so its length arrays are theirs, concatenated."""
    parts = (first, *rest)
    c, shifts = disjoint_union(*(p.complex for p in parts))
    starts = np.cumsum([0, *(len(p.edge_lengths) for p in parts)]).tolist()
    return MetricComplex(c, edge_lengths=np.concatenate([p.edge_lengths for p in parts]),
                         edge_order=np.concatenate([p.edge_order + s for p, s in zip(parts, starts)])), shifts


def metric_quotient(mc: MetricComplex, pairs):
    """Quotient that also merges edge lengths, requiring isometric gluing.

    Identified edges must agree in length within EPS_LEN relative tolerance;
    otherwise the identification is not an isometry and a MetricError names
    the offending edge pair.  Edges are visited in edge_order: each image
    edge keeps the length of its first visited preimage, and the first
    visited edge that differs from its image's length raises.
    """
    res = quotient(mc.complex, pairs)
    c, vm, order = res.complex, res.vertex_map, mc.edge_order
    if c.dim < 1:
        return MetricComplex(c, edge_lengths=np.zeros(0), edge_order=order), vm
    new = np.fromiter(vm.values(), np.int64, len(vm))  # in the order of the old vertices
    img = _edge_ids(c, *np.sort(new[mc.complex.rows[1]], axis=1).T)[order]
    got = mc.edge_lengths[order]
    first, image = _groups(img)  # each image's first visit, each visit's image
    old = got[first][image]
    bad = np.abs(old - got) > EPS_LEN * np.maximum(1.0, np.abs(old))
    if bad.any():
        i = int(np.argmax(bad))
        raise MetricError(
            f"edges identified onto {c.k_simplices(1)[img[i]]} have different lengths "
            f"{old[i].item()} vs {got[i].item()}")
    out = np.full(len(c.rows[1]), math.nan)
    out[img[first]] = got[first]
    return MetricComplex(c, edge_lengths=out, edge_order=img[np.sort(first)]), vm
