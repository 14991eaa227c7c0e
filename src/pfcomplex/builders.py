"""
Builders for the concrete piecewise-flat complexes the library certifies.

The menagerie: flat 3-tori on arbitrary lattices (Freudenthal-triangulated
grids), the double-torus blocks glued onto a base complex along designated
triangles, Bing's house with two rooms, the two counterexample gluings built
from it and from a tetrahedron, compact complexes with free fundamental
group, an operation that removes free faces by isometric self-identification
(changing the group only by a free factor), and the singular genus surfaces
obtained from a regular polygon with its vertex segments glued.

Everything returned here is a MetricComplex whose simplices are all flatly
realizable; identifications are performed by the quotient machinery, which
refuses non-simplicial or non-isometric gluings instead of repairing them.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, permutations, product
from typing import NamedTuple

import numpy as np

from .complexes import (
    Complex,
    QuotientDegeneracyError,
    build_complex,
    canonical_simplex,
    collapse_core,
    euler_characteristic,
    faces_of,
    free_faces,
)
from .homology import RING_GF2, RING_Z, _component_minima, betti, solid_chain_check
from .metric import (
    EPS_LEN,
    MetricComplex,
    MetricError,
    _adjacency,
    cat0_two_complex_check,
    edge_key,
    embed_simplex,
    metric_disjoint_union,
    metric_quotient,
    realizable,
    vertex_link_graph,
)
from .report import CONTRADICTION, FAIL, PASS, PfcError

_GCIFY_ROUNDS = 6  # midpoint subdivisions before gcify gives up


# ---------------------------------------------------------------------------
# simplices and grids


def simplex_complex(dim: int) -> MetricComplex:
    """The solid dim-simplex with unit edges."""
    if dim < 0:
        raise PfcError(f"simplex dimension must be >= 0, got {dim}")
    c = build_complex([tuple(range(dim + 1))], name=f"delta{dim}")
    return MetricComplex(c, dict.fromkeys(c.k_simplices(1), 1.0))


def _freudenthal(corner, axes):
    """Freudenthal simplices of the unit cube at `corner` spanned by `axes`:
    one monotone lattice path per order of the axes."""
    paths = []
    for order in permutations(axes):
        path = [tuple(corner)]
        for axis in order:
            path.append(tuple(x + (i == axis) for i, x in enumerate(path[-1])))
        paths.append(tuple(path))
    return paths


def _grid(sizes, vid):
    """Freudenthal simplices of a grid of unit cubes, as (points, ids) pairs."""
    return [(path, tuple(vid(*p) for p in path))
            for corner in product(*map(range, sizes))
            for path in _freudenthal(corner, range(len(sizes)))]


def _lengths_from_grid(cells, shape):
    norms = {}  # a grid edge's length depends only on its lattice step
    lengths = {}
    for offsets, ids in cells:
        for (oa, ia), (ob, ib) in combinations(zip(offsets, ids), 2):
            delta = tuple(b - a for a, b in zip(oa, ob))
            if delta not in norms:
                norms[delta] = float(np.linalg.norm(shape @ np.array(delta)))
            lengths[edge_key(ia, ib)] = norms[delta]
    return lengths


def _torus_vid(m, *p):
    """Id of the torus grid point p, its coordinates taken mod m."""
    v = 0
    for x in p:
        v = v * m + x % m
    return v


def _flat_torus(dim: int, m: int, shape) -> MetricComplex:
    if m < 3:
        raise PfcError(f"torus grid needs m >= 3, got {m}")
    shape = np.eye(dim) if shape is None else np.asarray(shape, dtype=float)
    if shape.shape != (dim, dim) or not np.isfinite(shape).all():
        raise PfcError(f"lattice must be a finite {dim}x{dim} matrix")
    with np.errstate(over="ignore"):  # overflow is caught as an inf length
        if abs(np.linalg.det(shape)) < 1e-12:
            raise PfcError("lattice matrix is singular")
        cells = _grid((m,) * dim, lambda *p: _torus_vid(m, *p))
        lengths = _lengths_from_grid(cells, shape)
    if not all(map(math.isfinite, lengths.values())):
        raise PfcError("lattice gives a non-finite edge length")
    c = build_complex([ids for _, ids in cells], name=f"torus{dim}_{m}")
    return MetricComplex(c, lengths)


def flat_torus3(m: int = 3, shape=None) -> MetricComplex:
    """Freudenthal-triangulated flat 3-torus on the lattice `shape` * (m Z)^3.

    m >= 3 keeps the grid quotient simplicial; `shape` is the 3x3 matrix
    whose columns span the lattice (identity by default).
    """
    return _flat_torus(3, m, shape)


def flat_torus2(m: int = 3, shape=None) -> MetricComplex:
    """Flat 2-torus: an m x m grid of squares split along increasing diagonals."""
    return _flat_torus(2, m, shape)


def box_complex(nx: int, ny: int, nz: int) -> MetricComplex:
    """Freudenthal-triangulated solid box [0,nx] x [0,ny] x [0,nz]."""
    if min(nx, ny, nz) < 1:
        raise PfcError(f"box sizes must be >= 1, got nx={nx}, ny={ny}, nz={nz}")

    def vid(i, j, k):
        # numpy ids, whose repr perfbench's box digests hash (ROADMAP item 2)
        return np.int64((i * (ny + 1) + j) * (nz + 1) + k)

    cells = _grid((nx, ny, nz), vid)
    c = build_complex([ids for _, ids in cells], name=f"box{nx}{ny}{nz}")
    return MetricComplex(c, _lengths_from_grid(cells, np.eye(3)))


# ---------------------------------------------------------------------------
# Bing's house with two rooms


_HOUSE_BOX = (4, 3, 2)
_TUBE_UPPER = (1, 1)   # unit square [1,2] x [1,2], upper storey
_TUBE_LOWER = (2, 1)   # unit square [2,3] x [1,2], lower storey


def _house_squares():
    """Unit squares of the house, each as (corner, the two axes it spans).

    The house lives in a 4 x 3 x 2 box: floor, roof and a middle wall divide
    it into two storeys; each storey is entered through a square tube passing
    through the other one, and one membrane per tube joins it to an outer
    wall so the complement of each tube stays simply connected.
    """
    ax, ay = _TUBE_UPPER
    bx, by = _TUBE_LOWER
    nx, ny, nz = _HOUSE_BOX
    squares = []
    for x in range(nx):           # horizontal plates, holes at the tube mouths
        for y in range(ny):
            if (x, y) != (bx, by):
                squares.append(((x, y, 0), (0, 1)))
            if (x, y) != (ax, ay):
                squares.append(((x, y, 2), (0, 1)))
            if (x, y) not in (_TUBE_UPPER, _TUBE_LOWER):
                squares.append(((x, y, 1), (0, 1)))
    for y in range(ny):           # outer walls
        for z in range(nz):
            squares.append(((0, y, z), (1, 2)))
            squares.append(((nx, y, z), (1, 2)))
    for x in range(nx):
        for z in range(nz):
            squares.append(((x, 0, z), (0, 2)))
            squares.append(((x, ny, z), (0, 2)))
    # upper tube walls (z in [1,2]) and lower tube walls (z in [0,1])
    squares += [((ax, ay, 1), (1, 2)), ((ax + 1, ay, 1), (1, 2)),
                ((ax, ay, 1), (0, 2)), ((ax, ay + 1, 1), (0, 2))]
    squares += [((bx, by, 0), (1, 2)), ((bx + 1, by, 0), (1, 2)),
                ((bx, by, 0), (0, 2)), ((bx, by + 1, 0), (0, 2))]
    # membranes: upper tube to the wall x=0, lower tube to the wall x=nx
    squares += [((0, ay, 1), (0, 2)), ((bx + 1, by + 1, 0), (0, 2))]
    return squares


def house_with_two_rooms() -> MetricComplex:
    """A fixed triangulation of the house with two rooms.

    Contractible, yet with no free faces, so it admits no elementary
    collapse.  Vertices sit on the integer grid of a 4 x 3 x 2 box and edge
    lengths come from the Euclidean embedding; the triangulation embeds as a
    subcomplex of box_complex(4, 3, 2).
    """
    _, ny, nz = _HOUSE_BOX

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    # split along increasing diagonals, as the ambient Freudenthal box is
    cells = [(t, tuple(vid(*p) for p in t)) for corner, axes in _house_squares()
             for t in _freudenthal(corner, axes)]
    c = build_complex([ids for _, ids in cells], name="house")
    return MetricComplex(c, _lengths_from_grid(cells, np.eye(3)))


# ---------------------------------------------------------------------------
# gluing double-torus blocks along marked triangles


def _adapted_lattice(a: float, b: float, c: float) -> np.ndarray:
    """Lattice basis whose Freudenthal grid contains a triangle with sides
    a, b, c as the face (0, e1, e1+e2); flatness survives any nonsingular
    choice, and the third basis vector is an orthogonal strut of average
    side length."""
    if not realizable([a, b, c], 2):
        raise MetricError(f"interface triangle with sides {a}, {b}, {c} "
                          f"is not realizable")
    x = (a * a + c * c - b * b) / (2.0 * a)
    y = math.sqrt(max(c * c - x * x, 0.0))
    basis = np.array([[a, x - a, 0.0],
                      [0.0, y, 0.0],
                      [0.0, 0.0, (a + b + c) / 3.0]])
    if abs(np.linalg.det(basis)) < 1e-12:
        raise PfcError(f"degenerate lattice for sides {a},{b},{c}")
    return basis


def _double_torus_block(sides, m: int):
    """Two flat 3-tori glued along a triangle congruent to `sides`.

    Returns (block, interface_vertices): the three interface vertex ids are
    ordered so their pairwise lengths match sides = (|p0 p1|, |p1 p2|,
    |p0 p2|).
    """
    a, b, c = sides
    torus = flat_torus3(m, shape=_adapted_lattice(a, b, c))
    lam0 = (_torus_vid(m, 0, 0, 0), _torus_vid(m, 1, 0, 0),
            _torus_vid(m, 1, 1, 0))
    both, (shift,) = metric_disjoint_union(torus, torus)
    lam1 = tuple(shift[v] for v in lam0)
    block, vm = metric_quotient(both, [_simplex_pair(lam1, lam0)])
    interface = tuple(vm[v] for v in lam0)
    return block, interface


def glue_double_tori(base: MetricComplex, interfaces,
                     name: str | None = None) -> MetricComplex:
    """Attach one double-torus block to the base along each marked triangle.

    Each block is two flat 3-tori on 3x3x3 grids sharing a triangle; its
    lattice is adapted so that shared triangle is congruent to the marked
    one, which makes every identification an isometry.  The Euler
    characteristic drops by 2 per marked triangle.
    """
    marked = [canonical_simplex(t) for t in interfaces]
    for t in marked:
        if len(t) != 3:
            raise PfcError(f"marked simplex {t} is not a triangle")
        if t not in base.complex.simplices:
            raise MetricError(f"marked triangle {t} not in the base complex")
    if not marked:
        return base

    blocks = {}  # one block per congruence class of marked triangles
    parts = []
    for t in marked:
        p0, p1, p2 = t
        sides = (base.length(p0, p1), base.length(p1, p2), base.length(p0, p2))
        key = tuple(round(s, 12) for s in sides)
        if key not in blocks:
            blocks[key] = _double_torus_block(sides, 3)
        parts.append(blocks[key])
    union, shifts = metric_disjoint_union(base, *(b for b, _ in parts))
    pairs = [_simplex_pair([shift[v] for v in interface], t)
             for t, (_, interface), shift in zip(marked, parts, shifts)]
    glued = metric_quotient(union, pairs)[0]
    c = Complex.from_rows(glued.complex.vertices, glued.complex.rows, name)
    return MetricComplex(c, glued.lengths)


# ---------------------------------------------------------------------------
# the two counterexample gluings


EXAMPLE1 = "example1"
EXAMPLE2 = "example2"


def example1_interface_complex(override_angles=None) -> MetricComplex:
    """The three boundary triangles of a tetrahedron sharing the vertex 0.

    With the intrinsic metric each triangle is equilateral (all corner
    angles pi/3); `override_angles` reshapes the triangles so the corner
    angles at vertex 0 take prescribed values instead, by adjusting only the
    edges opposite to vertex 0.
    """
    tris = [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    c = build_complex(tris, name="example1-interfaces")
    lengths = dict.fromkeys(c.k_simplices(1), 1.0)
    if override_angles is not None:
        if len(override_angles) != len(tris):
            raise MetricError(f"need {len(tris)} override angles")
        for t, ang in zip(tris, override_angles):
            if not 0.0 < ang < math.pi:
                raise MetricError(f"override angle {ang} outside (0, pi)")
            opposite = edge_key(*[v for v in t if v != 0])
            lengths[opposite] = 2.0 * math.sin(ang / 2.0)
    return MetricComplex(c, lengths)


def example_complex(name: str) -> MetricComplex:
    """The two gluing counterexamples.

    example1: a unit tetrahedron with a double-torus block on each of the
    three boundary triangles at vertex 0; the metric with reshaped apex
    angles lives on example1_interface_complex.

    example2: a triangulated solid box containing the house with two rooms,
    with a block on every house triangle.
    """
    if name == EXAMPLE1:
        return glue_double_tori(simplex_complex(3),
                                [(0, 1, 2), (0, 1, 3), (0, 2, 3)],
                                name=EXAMPLE1)
    if name == EXAMPLE2:
        house = house_with_two_rooms().complex
        return glue_double_tori(box_complex(*_HOUSE_BOX), house.k_simplices(2),
                                name=EXAMPLE2)
    raise PfcError(f"unknown example {name!r}")


def example_report(name: str) -> dict:
    """The obstruction chain of one gluing counterexample, as JSON values.

    example1: each block drops chi by 2, and the vertex-0 link fails the
    link condition under the intrinsic metric but passes once its angles
    are 2*pi/3.  example2: Bing's house is acyclic without free faces, the
    top-chain certificate on (box, house) is a contradiction, and b3 counts
    the blocks.  `obstruction_reproduced` says whether every link holds.
    """
    if name == EXAMPLE1:
        base = simplex_complex(3)
        x = example_complex(EXAMPLE1)
        chi_base = euler_characteristic(base.complex)
        chi_x = euler_characteristic(x.complex)

        intrinsic = cat0_two_complex_check(example1_interface_complex())
        cycle_len = min(i.measured for i in intrinsic.items)

        target = 2.0 * math.pi / 3.0
        override = cat0_two_complex_check(
            example1_interface_complex([target] * 3))
        override_girth = min(i.measured for i in override.items
                             if i.location == "vertex 0")

        ok = (chi_x == chi_base - 6
              and intrinsic.verdict == FAIL
              and abs(cycle_len - math.pi) <= 1e-9
              and override.verdict == PASS
              and abs(override_girth - 2 * math.pi) <= 1e-9)
        return {
            "example": EXAMPLE1,
            "chi_base": chi_base,
            "chi_glued": chi_x,
            "blocks": 3,
            "intrinsic_link_verdict": intrinsic.verdict,
            "intrinsic_shortest_link_cycle": cycle_len,
            "override_link_verdict": override.verdict,
            "override_link_girth": override_girth,
            "obstruction_reproduced": ok,
        }
    if name == EXAMPLE2:
        house = house_with_two_rooms()
        house_free = free_faces(house.complex)
        bz = betti(house.complex, RING_Z)
        b2 = betti(house.complex, RING_GF2)

        box = box_complex(*_HOUSE_BOX)
        lemma = solid_chain_check(box.complex, house.complex)

        x = example_complex(EXAMPLE2)
        r = len(house.complex.k_simplices(2))
        bx = betti(x.complex, RING_Z)
        chi_ok = euler_characteristic(x.complex) == \
            euler_characteristic(box.complex) - 2 * r

        ok = (not house_free
              and bz.ranks == (1, 0, 0) and b2.ranks == (1, 0, 0)
              and lemma.verdict == CONTRADICTION
              and bx.ranks[3] == 2 * r
              and chi_ok)
        return {
            "example": EXAMPLE2,
            "house_free_faces": len(house_free),
            "house_betti_z": list(bz.ranks),
            "house_betti_z2": list(b2.ranks),
            "solid_chain_verdict": lemma.verdict,
            "house_triangles": r,
            "glued_b3_z": bx.ranks[3],
            "expected_b3": 2 * r,
            "chi_additivity": chi_ok,
            "obstruction_reproduced": ok,
        }
    raise PfcError(f"unknown example {name!r}")


# ---------------------------------------------------------------------------
# complexes with free fundamental group


def free_group_complex(n: int) -> MetricComplex:
    """A compact flat 2-complex without free faces and with first homology
    of rank n (its fundamental group is free of rank n).

    For n >= 3: a unit-circumference flat cylinder whose bottom boundary
    circle absorbs a wrapped interior vertical segment of length one, and
    whose top circle is covered by n-2 arcs, each identified with a disjoint
    interior vertical segment of matching length.  For n = 2 the cylinder is
    replaced by a flat Moebius band, whose single boundary circle absorbs
    the wrapped segment.
    """
    if n < 2:
        raise PfcError(f"free group rank must be >= 2, got {n}")
    if n == 2:
        return _moebius_variant()
    m = max(3 * (n - 2), 6)
    rows = m + 4  # two margin rows keep the segments clear of both circles
    h = 1.0 / m

    def vid(i, j):
        return (i % m) * (rows + 1) + j

    tris, lengths = _grid_strip(m, rows, h, vid)
    c = build_complex(tris, name=f"freegroup{n}")
    mc = MetricComplex(c, lengths)
    k = m // (n - 2)

    def pairs_for(shift0, shift1):
        # wrap the interior vertical segment at column 0 onto the bottom circle
        seg = [vid(0, 2 + t) for t in range(m + 1)]
        bottom = [vid((t + shift0) % m, 0) for t in range(m)]
        pairs = _path_onto_cycle_pairs(seg, bottom)
        # identify each short interior segment with its arc on the top circle
        for i in range(1, n - 1):
            col = 2 * i + 1
            seg_i = [vid(col, 2 + t) for t in range(k + 1)]
            arc_i = [vid(((i - 1) * k + t + shift1) % m, rows)
                     for t in range(k + 1)]
            if k == m:  # a single arc covering the whole circle closes up
                pairs.append(_simplex_pair(seg_i[-1:], seg_i[:1]))
            pairs.append(_segments_pair(seg_i, arc_i))
        return pairs

    # the wrapping offsets only rotate the identification; take the first
    # ones the quotient accepts as simplicial
    return _first_valid_gluing(
        mc, pairs_for,
        [(s0, s1) for s0 in range(m) for s1 in (range(m) if k == m else (0,))],
        f"freegroup{n}")


def _grid_strip(cols, rows, h, vid):
    """Square cells of size h split along increasing diagonals."""
    tris = []
    lengths = {}
    diag = h * math.sqrt(2.0)
    for i in range(cols):
        for j in range(rows):
            c00, c10 = vid(i, j), vid(i + 1, j)
            c01, c11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris += [(c00, c10, c11), (c00, c01, c11)]
            lengths[edge_key(c00, c10)] = h
            lengths[edge_key(c01, c11)] = h
            lengths[edge_key(c00, c01)] = h
            lengths[edge_key(c10, c11)] = h
            lengths[edge_key(c00, c11)] = diag
    return tris, lengths


def _simplex_pair(src, dst):
    """Identification of the faces of one simplex with those of another,
    matching src[i] with dst[i]."""
    return (faces_of(canonical_simplex(src)), faces_of(canonical_simplex(dst)),
            dict(zip(src, dst)))


def _path_onto_cycle_pairs(path, cycle):
    """Identifications closing up a path and wrapping it once onto a cycle
    of equal length."""
    wrapped = [cycle[t % len(cycle)] for t in range(len(path))]
    return [_simplex_pair(path[-1:], path[:1]), _segments_pair(path, wrapped)]


def _segments_pair(seg, arc):
    """Identification of two embedded edge paths of equal step lengths."""

    def cells(path):  # a closed path's first vertex is listed once
        return ([(v,) for v in dict.fromkeys(path)]
                + [canonical_simplex(e) for e in zip(path, path[1:])])

    return cells(seg), cells(arc), dict(zip(seg, arc))


def _moebius_variant() -> MetricComplex:
    """Flat Moebius band with its boundary circle absorbing a wrapped
    interior segment; first homology has rank 2."""
    cols = 6
    rows = 2 * cols + 4
    h = 1.0 / (2 * cols)

    def vid(i, j):
        if i == cols:
            return 0 * (rows + 1) + (rows - j)
        return i * (rows + 1) + j

    tris, lengths = _grid_strip(cols, rows, h, vid)
    c = build_complex(tris, name="freegroup2")
    mc = MetricComplex(c, lengths)

    circle = [vid(t, 0) for t in range(cols)] + \
             [vid(t, rows) for t in range(cols)]
    seg = [vid(2, 2 + t) for t in range(2 * cols + 1)]

    def pairs_for(shift):
        return _path_onto_cycle_pairs(seg, circle[shift:] + circle[:shift])

    return _first_valid_gluing(mc, pairs_for,
                               [(s,) for s in range(len(circle))], "freegroup2")


def _first_valid_gluing(mc, pairs_for, candidates, what):
    for args in candidates:
        try:
            return metric_quotient(mc, pairs_for(*args))[0]
        except QuotientDegeneracyError:
            continue
    raise PfcError(f"no admissible wrapping offsets for {what}")


# ---------------------------------------------------------------------------
# removing free faces by isometric self-identification


class GcifyResult(NamedTuple):
    complex: MetricComplex
    added_loops: int


def midpoint_subdivision(mc: MetricComplex) -> MetricComplex:
    """Split every edge at its midpoint (complexes of dimension <= 3).

    Triangles fall into four half-size pieces; tetrahedra into four corner
    pieces plus a central octahedron cut along its shortest diagonal.  All
    new lengths are true Euclidean distances inside the flat simplices, so
    the metric is subdivided exactly.
    """
    c = mc.complex
    if c.dim > 3:
        raise PfcError("midpoint subdivision implemented for dim <= 3")
    base = (max(c.vertices) + 1) if c.vertices else 0
    mid = {e: base + i for i, e in enumerate(c.k_simplices(1))}

    def m(u, v):
        return mid[edge_key(u, v)]

    # every simplex is split, faces too: their pieces are faces of the
    # facets' pieces, and each split records the lengths of its new edges
    lengths = {}
    generators = []
    for s in c.simplices:
        if len(s) == 1:
            generators.append(s)
        elif len(s) == 2:
            u, v = s
            w = m(u, v)
            generators += [(u, w), (w, v)]
            lengths[edge_key(u, w)] = lengths[edge_key(w, v)] = \
                mc.length(u, v) / 2.0
        elif len(s) == 3:
            generators += _split_triangle(s, m, mc, lengths)
        else:
            generators += _split_tetrahedron(s, m, mc, lengths)
    return MetricComplex(build_complex(generators, name=c.name), lengths)


def _split_triangle(s, m, mc, lengths):
    a, b, c_ = s
    mab, mac, mbc = m(a, b), m(a, c_), m(b, c_)
    lengths[edge_key(mab, mac)] = mc.length(b, c_) / 2.0
    lengths[edge_key(mab, mbc)] = mc.length(a, c_) / 2.0
    lengths[edge_key(mac, mbc)] = mc.length(a, b) / 2.0
    return [(a, mab, mac), (b, mab, mbc), (c_, mac, mbc), (mab, mac, mbc)]


def _split_tetrahedron(s, m, mc, lengths):
    a, b, c_, d = s
    pos = dict(zip(s, embed_simplex(mc.simplex_lengths(s), 3)))

    def mid(e):
        return (pos[e[0]] + pos[e[1]]) / 2.0

    # the octahedron's shortest diagonal, ties broken by the edge pair
    dl, e1, e2 = min((float(np.linalg.norm(mid(e1) - mid(e2))), e1, e2)
                     for e1, e2 in [((a, b), (c_, d)), ((a, c_), (b, d)),
                                    ((a, d), (b, c_))])
    x, y = m(*e1), m(*e2)
    lengths[edge_key(x, y)] = dl
    corner = [(v,) + tuple(m(v, w) for w in s if w != v) for v in s]
    # the remaining edges form the equator 4-cycle; consecutive ones share
    # a vertex and span one central tetrahedron with the diagonal
    others = [p for p in combinations(s, 2) if p not in (e1, e2)]
    return corner + [(x, y, m(*p), m(*q)) for p, q in combinations(others, 2)
                     if set(p) & set(q)]


def gcify(mc: MetricComplex) -> GcifyResult:
    """Remove every free face; the fundamental group gains a free factor.

    Free faces disappear through two homotopy-controlled moves.  Isometric
    identification of a free face with a disjoint simplex in its own
    component adds exactly one loop (one unit of first homology rank), and
    with one in another component merges the two; the count of loops is
    reported.  Elementary collapses remove free face / coface pairs without
    changing the homotopy type at all.  The loop identifies whatever it can,
    subdividing at midpoints until the first identification lands, and
    collapses the rest; the result has no free faces, first homology rank
    increased by exactly the reported count and zeroth rank decreased by
    the merges.
    """
    work, added, rounds, identified = mc, 0, 0, False
    while True:
        frees = free_faces(work.complex)
        if not frees:
            break
        glued, applied = _apply_batch(work, _identification_batch(work, frees))
        if applied:
            # a pair joining two components merges them; any other adds a loop
            added += len(applied) - _components(work.complex) + _components(glued.complex)
            work, identified = glued, True
            continue
        if identified:
            # nothing left to identify: collapsing is homotopy-preserving
            # and always terminates with zero free faces
            core, _ = collapse_core(work.complex)
            work = MetricComplex(core, {e: work.lengths[e]
                                        for e in core.k_simplices(1)})
            continue
        rounds += 1
        if rounds > _GCIFY_ROUNDS:
            raise PfcError(
                f"no identifiable pair among {len(frees)} free faces "
                f"after {_GCIFY_ROUNDS} subdivision rounds")
        # uniform halving keeps piece lengths commensurable
        work = midpoint_subdivision(work)
    return GcifyResult(work, added)


def _apply_batch(work, batch):
    """Apply as large a prefix of the batch as validates in one quotient;
    returns the glued complex and that prefix.

    Each pair is admissible on its own in the same complex; rare interactions
    between them are resolved by halving the batch.  Dropped pairs are
    rediscovered on the next sweep."""
    while batch:
        try:
            return metric_quotient(work, batch)[0], batch
        except (QuotientDegeneracyError, MetricError):
            batch = batch[:len(batch) // 2]
    return work, []


def _components(c: Complex) -> int:
    """Number of connected components: those of the 1-skeleton, the least cell ids."""
    return len(_component_minima(c.index.faces, np.arange(len(c) + 1) < c.index.offsets[:3][-1]))


def _identification_batch(mc: MetricComplex, frees):
    """A maximal set of independent isometric identifications of free faces.

    A free face may glue onto another free face (both stop being free) or
    onto any disjoint isometric simplex elsewhere in the complex, whose
    cofaces it then shares.  Least-entangled free faces go first, and
    accepted identifications claim their affected vertices so the batch
    members cannot interact.

    Only partners fb outside the closed neighbourhood of fa are tried, and
    only matchings whose merged vertices share no neighbour; this decides
    admissibility exactly.  Merging v in fa with w in fb at most 2 apart
    degenerates the edge {v, w}, or sends the unrelated edges {u, v} and
    {u, w} through a common neighbour u onto one image; a partner meeting
    the closed neighbourhood is that close to every vertex of fa.
    Conversely, under the rule no simplex holds both vertices of a merged
    pair, so none degenerates.  Two simplices landing on one image hold the
    two vertices of some merged pair; an unmerged vertex of either would lie
    in both, a common neighbour, so each lies in fa or in fb (never both,
    as they are not adjacent), and they are a face of fa and its declared
    image in fb.
    """
    nbrs = {v: set() for v in mc.complex.vertices}
    for u, v in mc.complex.k_simplices(1):
        nbrs[u].add(v)
        nbrs[v].add(u)
    # rounding is monotone, so rounding each edge once keeps sorted keys
    rounded = {e: round(l, 9) for e, l in mc.lengths.items()}

    def length_key(s):
        return (len(s),) + tuple(sorted(map(rounded.__getitem__, combinations(s, 2))))

    def pollution(s):
        return sum(len(nbrs[v]) for v in s)

    free_key = {p.face: length_key(p.face) for p in frees}
    sizes = {len(s) for s in free_key}
    by_key = {}
    for s in chain.from_iterable(mc.complex.k_simplices(n - 1) for n in sizes):
        by_key.setdefault(length_key(s), []).append(s)
    for key in set(free_key.values()):
        # least-entangled partners first, free or not: fresh free pieces can
        # absorb each other, saving the interior supply for the rest
        by_key[key].sort(key=lambda s: (pollution(s), s in free_key, s))

    claimed = set()
    batch = []
    for fa in sorted(free_key, key=lambda s: (len(s), pollution(s), s)):
        if not claimed.isdisjoint(fa):
            continue
        closed = set(fa).union(*(nbrs[v] for v in fa))
        clean = [s for s in by_key[free_key[fa]] if closed.isdisjoint(s)]
        found = None
        for fb in clean[:80]:
            if not claimed.isdisjoint(fb):
                continue
            far = _far_pairs(nbrs, fa, fb)
            found = next((perm for perm in permutations(fb)
                          if far.issuperset(zip(fa, perm))
                          and _isometric_map(mc, fa, perm)), None)
            if found:
                break
        if found is None:
            continue
        batch.append(_simplex_pair(fa, found))
        claimed |= set(fa) | set(found)
    return batch


def _far_pairs(nbrs, fa, fb):
    """The pairs (v, w) of fa x fb whose vertices share no neighbour: for fb
    outside the closed neighbourhood of fa, those at least 3 apart."""
    return {(v, w) for v in fa for w in fb if nbrs[v].isdisjoint(nbrs[w])}


def _isometric_map(mc, fa, fb_ordered):
    for (a1, a2), (b1, b2) in zip(combinations(fa, 2),
                                  combinations(fb_ordered, 2)):
        la, lb = mc.length(a1, a2), mc.length(b1, b2)
        if abs(la - lb) > EPS_LEN * max(1.0, la):
            return False
    return True


# ---------------------------------------------------------------------------
# singular genus surfaces


def genus_surface(n: int, identify_segments: bool = True) -> MetricComplex:
    """Genus-n surface from a regular 4n-gon, optionally made singular.

    The polygon (unit sides) is triangulated with a half-scale interior ring
    and a central fan, its sides are identified in the standard genus-n
    pattern (every polygon corner lands on a single vertex whose total angle
    is 2*pi*(2n-1)), and finally two of the vertex segments separated by
    more than 2*pi of angle on both sides are identified.  The result is
    flat away from the identified vertex, nonpositively curved, without free
    faces, and not a surface: the merged segment lies in four triangles.
    """
    if n < 2:
        raise PfcError(f"genus must be >= 2, got {n}")
    sides = 4 * n
    per_side = 3  # two interior points per side keep the quotient simplicial
    ring = per_side * sides
    radius = 1.0 / (2.0 * math.sin(math.pi / sides))

    outer = []
    for s in range(sides):
        th0 = 2.0 * math.pi * s / sides
        th1 = 2.0 * math.pi * (s + 1) / sides
        p = np.array([math.cos(th0), math.sin(th0)]) * radius
        p1 = np.array([math.cos(th1), math.sin(th1)]) * radius
        for t in range(per_side):
            outer.append(p + (p1 - p) * (t / per_side))
    coords = {t: outer[t] for t in range(ring)}
    for t in range(ring):
        coords[ring + t] = outer[t] * 0.5
    center = 2 * ring
    coords[center] = np.zeros(2)

    tris = []
    for t in range(ring):
        t1 = (t + 1) % ring
        tris.append((t, t1, ring + t1))
        tris.append((t, ring + t1, ring + t))
        tris.append((ring + t, ring + t1, center))
    c = build_complex(tris, name=f"genus{n}")
    mc = MetricComplex(c, {e: float(np.linalg.norm(coords[e[0]] - coords[e[1]]))
                           for e in c.k_simplices(1)})

    def side_points(s):
        return [(per_side * s + t) % ring for t in range(per_side + 1)]

    pairs = []
    for j in range(n):
        for off in (0, 1):  # identify side 4j+off with side 4j+off+2, reversed
            sa, sb = 4 * j + off, 4 * j + off + 2
            pairs.append(_segments_pair(side_points(sa),
                                        side_points(sb)[::-1]))
    surface, vm = metric_quotient(mc, pairs)

    corner_classes = {vm[per_side * s] for s in range(sides)}
    if len(corner_classes) != 1:
        raise PfcError("side identifications did not merge all corners")
    apex = corner_classes.pop()
    if not identify_segments:
        return surface

    mid_classes = {vm[per_side * s + 1] for s in range(sides)} | \
                  {vm[per_side * s + per_side - 1] for s in range(sides)}
    alpha, beta, arcs = _balanced_link_split(surface, apex, mid_classes)
    if min(arcs) <= 2.0 * math.pi:
        raise PfcError(
            f"cannot separate two vertex segments by more than 2*pi "
            f"(arcs {arcs})")
    return metric_quotient(surface,
                           [_simplex_pair((apex, alpha), (apex, beta))])[0]


def _balanced_link_split(mc: MetricComplex, v: int, mid_classes):
    """Pick two side-midpoint link nodes splitting the link circle of v into
    two arcs as evenly as possible; returns (node_a, node_b, arcs)."""
    g = vertex_link_graph(mc, v)
    adj = _adjacency(g)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise PfcError(f"link of vertex {v} is not a single circle")
    order, pos, prev = [g.nodes[0]], [0.0], None
    while True:
        w, wt, _ = next(arc for arc in adj[order[-1]] if arc[0] != prev)
        if w == order[0]:
            total = pos[-1] + wt
            break
        prev = order[-1]
        order.append(w)
        pos.append(pos[-1] + wt)
    at = dict(zip(order, pos))
    mids = [x for x in order if x in mid_classes]
    alpha = mids[0]

    def arcs(x):
        d1 = abs(at[x] - at[alpha])
        return d1, total - d1

    beta = max(mids[1:], key=lambda x: min(arcs(x)))  # first of equal scores
    return alpha, beta, arcs(beta)
