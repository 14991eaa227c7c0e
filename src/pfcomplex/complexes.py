"""
Finite abstract simplicial complexes.

A simplex is a strictly increasing tuple of nonnegative integer vertex ids;
a complex is a face-closed finite set of such tuples.  Everything here is
purely combinatorial: face/coface queries, links and stars, free faces,
elementary collapses, quotient identifications and Euler characteristics.
All operations are pure functions on immutable values, and every iteration
order is deterministic (length first, then lexicographic), so downstream
reports are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .report import FAIL, PASS, CheckItem, CheckReport, PfcError


class QuotientDegeneracyError(PfcError):
    """A quotient would produce a non-simplicial complex.

    Carries the offending simplex (or simplex pair) so construction code can
    report exactly which identification went wrong instead of silently
    subdividing.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


Simplex = tuple  # canonical form: strictly increasing tuple of ints


def canonical_simplex(vertices: Iterable[int]) -> Simplex:
    """Sort a vertex collection into canonical simplex form.

    Raises PfcError if a vertex repeats or an id lies outside
    0 <= v < 2**63 (homology keeps vertex ids in int64 arrays).
    """
    t = tuple(sorted(vertices))
    for a, b in zip(t, t[1:]):
        if a == b:
            raise PfcError(f"repeated vertex {a} in simplex {t}")
    if t and t[0] < 0:
        raise PfcError(f"negative vertex id in simplex {t}")
    if t and t[-1] >= 2**63:
        raise PfcError(f"vertex id {t[-1]} in simplex {t} is not below 2**63")
    return t


def faces_of(simplex: Simplex) -> list[Simplex]:
    """All nonempty faces of a simplex, the simplex itself included."""
    out = []
    for k in range(1, len(simplex) + 1):
        out.extend(combinations(simplex, k))
    return out


def _sort_key(s: Simplex):
    return (len(s), s)


class CellIndex(NamedTuple):
    """Integer ids for the cells of a complex, in (length, lex) order.

    cells[i] is the complex's own tuple for cell i, and the k-simplices have
    the ids offsets[k]:offsets[k + 1].  Row j of the int64 array faces[k]
    holds the face ids of the j-th k-simplex, column i the face that drops
    vertex i (boundary coefficient (-1)**i); faces[0] has no columns.
    """

    cells: list
    offsets: list
    faces: tuple

    def coface_counts(self) -> np.ndarray:
        """Number of codimension-1 cofaces of each cell."""
        return np.bincount(np.concatenate([f.ravel() for f in self.faces]),
                           minlength=len(self.cells))

    def cofaces(self):
        """Codimension-1 cofaces, ascending, of cell f: cob[ptr[f]:ptr[f + 1]]."""
        owners = np.repeat(np.arange(len(self.cells)), np.repeat(
            [f.shape[1] for f in self.faces], np.diff(self.offsets)))
        face_ids = np.concatenate([f.ravel() for f in self.faces])
        ptr = np.concatenate([[0], self.coface_counts().cumsum()])
        return ptr, owners[np.argsort(face_ids, kind="stable")]

    def incidence_lists(self) -> tuple[list, list, list]:
        """Face ids per cell and the cofaces (ptr, cob), as Python lists."""
        ptr, cob = self.cofaces()
        return [row for f in self.faces for row in f.tolist()], ptr.tolist(), cob.tolist()


def _index_cells(simplices) -> CellIndex:
    """The (length, lex) numbering of a face-closed set of simplices.

    Vertices are ranked once, and a k-simplex's lexicographic key is (rank
    of its first vertex, id of the face dropping it), so every order and
    face id comes from numpy sorts and searches over integer keys.
    """
    by_len = {}
    for s in simplices:
        by_len.setdefault(len(s), []).append(s)
    points = by_len.get(1, [])
    vid = np.fromiter(chain.from_iterable(points), np.int64, len(points))
    order = np.argsort(vid)
    cells, verts = [points[i] for i in order.tolist()], vid[order]
    keys = [np.arange(len(verts))]  # sorted lexicographic keys per dimension
    faces, offsets = [np.zeros((len(verts), 0), dtype=np.int64)], [0, len(verts)]
    for k in range(1, max(by_len, default=1)):
        group = by_len[k + 1]
        ranks = np.searchsorted(verts, np.fromiter(
            chain.from_iterable(group), np.int64, len(group) * (k + 1))).reshape(-1, k + 1)
        lex = ranks[:, 0] * len(keys[k - 1]) + _row_ids(keys, ranks[:, 1:])
        order = np.argsort(lex)
        ranks = ranks[order]
        keys.append(lex[order])
        cells += [group[i] for i in order.tolist()]
        faces.append(np.stack([_row_ids(keys, np.delete(ranks, i, axis=1))
                               for i in range(k + 1)], axis=1) + offsets[k - 1])
        offsets.append(offsets[k] + len(group))
    return CellIndex(cells, offsets, tuple(faces))


def _row_ids(keys, ranks) -> np.ndarray:
    """Ids of rows of vertex ranks among the simplices of their dimension,
    given the sorted keys of every lower dimension; suffixes first."""
    out = ranks[:, -1]
    for d in range(1, ranks.shape[1]):
        out = np.searchsorted(keys[d], ranks[:, -1 - d] * len(keys[d - 1]) + out)
    return out


@dataclass(frozen=True)
class Complex:
    """A face-closed set of simplices with an optional label.

    Instances are immutable; construct through :func:`build_complex`, which
    applies the face closure, rather than directly.
    """

    simplices: frozenset = field(default_factory=frozenset)
    name: str | None = field(default=None, compare=False)

    def __iter__(self):
        return iter(self.index.cells)

    def __len__(self):
        return len(self.simplices)

    def __contains__(self, s) -> bool:
        return tuple(s) in self.simplices

    @cached_property
    def dim(self) -> int:
        """Max simplex dimension; -1 for the empty complex.  Cached."""
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    @cached_property
    def index(self) -> CellIndex:
        """The cell numbering incidence queries read; built on first use."""
        return _index_cells(self.simplices)

    @cached_property
    def vertices(self) -> list[int]:
        """Vertex ids in ascending order.  Cached; callers never mutate it."""
        return sorted(s[0] for s in self.simplices if len(s) == 1)

    def k_simplices(self, k: int) -> list[Simplex]:
        """All k-dimensional simplices in lexicographic order (a new list)."""
        lo, hi = self.index.offsets[k:k + 2] if 0 <= k <= self.dim else (0, 0)
        return self.index.cells[lo:hi]

    def counts(self) -> list[int]:
        """Number of simplices in each dimension 0..dim."""
        return np.diff(self.index.offsets)[:self.dim + 1].tolist()

    def facets(self) -> list[Simplex]:
        """Maximal simplices (those with no proper coface)."""
        return [s for s, n in zip(self.index.cells,
                                  self.index.coface_counts().tolist()) if not n]

    @cached_property
    def vertex_star(self) -> dict:
        """Each vertex mapped to the tuple of simplices containing it.

        Stars are in (length, lexicographic) order.  Built once per complex
        on first use; every query about one simplex's star reads it.
        """
        out = {}
        for s in self.index.cells:
            for v in s:
                out.setdefault(v, []).append(s)
        return {v: tuple(st) for v, st in out.items()}

    def open_star(self, s) -> list[Simplex]:
        """The simplices containing s, s first, in (length, lex) order, read
        from its smallest vertex star; PfcError if s is not a simplex."""
        s = canonical_simplex(s)
        if s not in self.simplices:
            raise PfcError(f"{s} is not a simplex of the complex")
        return list(filter(set(s).issubset, min(map(self.vertex_star.get, s), key=len)))

    def subcomplex(self, simplices: Iterable[Simplex], name=None) -> "Complex":
        """Face closure of a subset of this complex's simplices."""
        chosen = [canonical_simplex(s) for s in simplices]
        for s in chosen:
            if s not in self.simplices:
                raise PfcError(f"{s} is not a simplex of the complex")
        return build_complex(chosen, name=name)


def build_complex(generators: Iterable[Sequence[int]], name: str | None = None) -> Complex:
    """Face closure of the given generator tuples.

    Idempotent: the closure of a closure is itself.
    """
    simplices = set()
    for g in generators:
        simplices.update(faces_of(canonical_simplex(g)))
    return Complex(frozenset(simplices), name=name)


def star(c: Complex, s) -> Complex:
    """Closed star: all cofaces of s together with their faces."""
    return build_complex(c.open_star(s))


def link(c: Complex, s) -> Complex:
    """The link of s: simplices disjoint from s whose join with s is present."""
    s, *cofaces = c.open_star(s)
    return Complex(frozenset(tuple(x for x in t if x not in s) for t in cofaces))


class FreeFacePair(NamedTuple):
    face: Simplex
    coface: Simplex


def free_faces(c: Complex) -> list[FreeFacePair]:
    """All pairs (face, coface) where face lies in exactly one coface.

    A simplex contained in some simplex two dimensions up necessarily has at
    least two codimension-1 cofaces, so counting those alone is sufficient.
    Pairs come out in (length, lexicographic) order of the face.
    """
    ptr, cob = c.index.cofaces()
    free = np.flatnonzero(np.diff(ptr) == 1)
    cells = c.index.cells
    return [FreeFacePair(cells[f], cells[t])
            for f, t in zip(free.tolist(), cob[ptr[free]].tolist())]


def free_face_check(c: Complex) -> CheckReport:
    """Free faces as a certificate: passes when the complex has none.

    Each free face is one failing item, with its unique coface as witness.
    """
    pairs = free_faces(c)
    items = tuple(CheckItem(f"free face {p.face}", True, False,
                            witness=p.coface) for p in pairs)
    return CheckReport(FAIL if pairs else PASS, items,
                       {"free_face_count": len(pairs)})


class CollapseResult(NamedTuple):
    complex: Complex
    steps: int


def collapse_core(c: Complex) -> CollapseResult:
    """Remove free face / coface pairs until none remain.

    Each step removes the lexicographically smallest free face together with
    its unique coface, so the result is deterministic even where the core
    itself is not canonical.
    """
    idx = c.index
    faces, ptr, cob = idx.incidence_lists()
    n_co = [hi - lo for lo, hi in zip(ptr, ptr[1:])]
    alive = bytearray(b"\x01") * len(n_co)
    # coface counts only fall, so every free face enters the heap once, when
    # it becomes free (ids ascend, so the first list is a heap); removed cells
    # and cells left without a coface are skipped
    heap = [f for f, n in enumerate(n_co) if n == 1]
    while heap:
        f = heapq.heappop(heap)
        if not alive[f] or n_co[f] != 1:
            continue
        t = next(u for u in cob[ptr[f]:ptr[f + 1]] if alive[u])
        alive[f] = alive[t] = 0
        # codim-1 faces of both removed simplices lose one coface each
        for sub in faces[f] + faces[t]:
            if alive[sub]:
                n_co[sub] -= 1
                if n_co[sub] == 1:
                    heapq.heappush(heap, sub)
    core = Complex(frozenset(compress(idx.cells, alive)), name=c.name)
    return CollapseResult(core, (len(c) - len(core)) // 2)


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of simplex counts."""
    return sum(1 if len(s) % 2 else -1 for s in c.simplices)


# ---------------------------------------------------------------------------
# quotients


class QuotientResult(NamedTuple):
    complex: Complex
    vertex_map: dict  # old vertex id -> new (dense) vertex id


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent
        root = p.setdefault(x, x)
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep the smaller representative so ambient vertex ids stay stable
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def _normalize_pair(c: Complex, pair) -> tuple:
    source, target, vmap = pair
    src = [canonical_simplex(s) for s in source]
    dst = [canonical_simplex(s) for s in target]
    for s in src + dst:
        if s not in c.simplices:
            raise PfcError(f"identification references {s}, not in complex")
    return tuple(src), tuple(dst), dict(vmap)


def quotient(c: Complex, pairs: Sequence) -> QuotientResult:
    """Glue the complex along the given identification pairs.

    A pair is (source, target, vertex_map): two simplex lists, faces
    included, and a map sending each vertex of source to one of target,
    simplex-by-simplex onto target (a mapping error otherwise).  The map
    need not be injective, so a subdivided arc can wrap onto a circle with
    an endpoint merge in the same call.  After merging vertex classes the
    result is checked to still be simplicial: no simplex may degenerate, and
    two distinct simplices may land on the same vertex set only if the
    declared identifications actually relate them.  Only simplices meeting a
    merged vertex are checked: every other simplex keeps its own vertex set,
    and the image of a checked simplex contains a merged class, so neither
    can degenerate or collide with an unchecked one.  The first failure in
    (length, lexicographic) order is raised.  Vertex ids of the result are
    renumbered densely; the old-to-new map is returned alongside.
    """
    pairs = [_normalize_pair(c, p) for p in pairs]
    vertices = c.vertices
    verts = _UnionFind()
    cells = _UnionFind()

    for src, dst, vmap in pairs:
        dst_set = set(dst)
        covered = set()
        for s in src:
            try:
                img_vs = [vmap[v] for v in s]
            except KeyError as e:
                raise PfcError(f"vertex {e.args[0]} of {s} has no image") from None
            img = tuple(sorted(img_vs))
            if len(set(img)) != len(img):
                raise PfcError(f"{s} degenerates to {img} under the pair map")
            if img not in dst_set:
                raise PfcError(f"{s} maps to {img}, not in the target subcomplex")
            covered.add(img)
            cells.union(s, img)
        if covered != dst_set:
            missing = sorted(dst_set - covered, key=_sort_key)
            raise PfcError(f"target simplices not covered by the map: {missing[:3]}")
        for v, w in vmap.items():
            verts.union(v, w)

    # each merged vertex, representatives included, to its representative;
    # the dense renumbering of the representatives preserves order, so
    # relabelled vertex tuples stay sorted
    rep = {v: r for v in vertices if (r := verts.find(v)) != v}
    rep.update((r, r) for r in set(rep.values()))
    reps = sorted({rep.get(v, v) for v in vertices})
    rep_to_new = {r: i for i, r in enumerate(reps)}
    vertex_map = {v: rep_to_new[rep.get(v, v)] for v in vertices}

    out = set()
    touched = []
    for s in c.simplices:
        if rep.keys().isdisjoint(s):
            out.add(tuple(vertex_map[v] for v in s))
        else:
            touched.append(s)
    images = {}  # image of a touched simplex -> the first simplex landing on it
    for s in sorted(touched, key=_sort_key):
        img = tuple(sorted({rep.get(v, v) for v in s}))
        if len(img) != len(s):
            raise QuotientDegeneracyError(
                f"simplex {s} degenerates to {img} in the quotient", witness=s)
        first = images.setdefault(img, s)
        if first != s and cells.find(first) != cells.find(s):
            raise QuotientDegeneracyError(
                f"distinct simplices {first} and {s} collide on {img} "
                f"without being identified", witness=(first, s))
    out.update(tuple(rep_to_new[r] for r in img) for img in images)
    return QuotientResult(Complex(frozenset(out), name=c.name), vertex_map)


def disjoint_union(first: Complex, *rest: Complex) -> tuple[Complex, list]:
    """Disjoint union, each part in rest relabelled above every id before
    it; returns the union and one old-to-new vertex map per part in rest."""
    out = set(first.simplices)
    top = max(first.vertices, default=-1)
    shifts = []
    for part in rest:
        offset = top + 1
        shift = {v: v + offset for v in part.vertices}
        top = max(shift.values(), default=top)
        if top >= 2**63:
            raise PfcError(f"shifted vertex id {top} is not below 2**63")
        out.update(tuple(v + offset for v in s) for s in part.simplices)
        shifts.append(shift)
    return Complex(frozenset(out)), shifts
