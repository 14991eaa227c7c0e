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
from functools import cached_property
from itertools import chain, combinations, compress
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class CellIndex:
    """Integer ids for the cells of a complex, in (length, lex) order.

    The k-simplices have the ids offsets[k]:offsets[k + 1], in the order of
    the complex's rows[k].  Row f of the (n + 1, dim + 1) int64 array faces
    holds the ids of cell f's codimension-1 faces, column i the face that
    drops vertex i (boundary coefficient (-1)**i), padded with n; row n is
    all padding.  The coface arrays ptr and cob are built on first use.
    """

    def __init__(self, offsets: list, faces: np.ndarray):
        self.offsets, self.faces = offsets, faces

    @cached_property
    def ptr(self) -> np.ndarray:
        """Coface offsets: the cofaces of cell f are cob[ptr[f]:ptr[f + 1]]."""
        n = self.offsets[-1]
        return np.concatenate(([0], np.bincount(self.faces.ravel(), minlength=n + 1)[:n].cumsum()))

    @cached_property
    def cob(self) -> np.ndarray:
        """Codimension-1 cofaces of every cell, ascending per cell."""
        order = np.argsort(self.faces[:-1].ravel(), kind="stable")  # padding last
        return order[:self.ptr[-1]] // self.faces.shape[1]


def _row_ids(keys, ranks) -> np.ndarray:
    """Ids of rows of vertex ranks among the simplices of their dimension,
    given the sorted keys of every lower dimension; suffixes first."""
    out = ranks[:, -1]
    for d in range(1, ranks.shape[1]):
        out = np.searchsorted(keys[d], ranks[:, -1 - d] * len(keys[d - 1]) + out)
    return out


class Complex:
    """A face-closed set of simplices with an optional label.

    It holds its ascending vertex ids (the caller's own objects) and, per
    dimension k, the lexicographically sorted (n_k, k + 1) int64 rows of
    their positions; every other view is derived on first use.  Instances
    are immutable; construct through :func:`build_complex`, which applies
    the face closure, rather than directly.
    """

    def __init__(self, simplices: Iterable[Simplex] = (), name: str | None = None):
        by_len = {}
        for s in simplices:
            by_len.setdefault(len(s), []).append(s)
        ids = np.sort(np.fromiter((v for v, in by_len.get(1, ())), np.int64))
        rows, cells = [], []
        for n in range(1, max(by_len, default=0) + 1):
            g = by_len[n]
            r = np.searchsorted(ids, np.fromiter(chain.from_iterable(g), np.int64).reshape(-1, n))
            order = np.lexsort(r.T[::-1])
            rows.append(r[order])
            cells += [g[i] for i in order.tolist()]
        self.vertices, self.rows, self.name = [v for v, in cells[:len(ids)]], tuple(rows), name
        self.cells = cells  # the given tuples, so the tuple view shares them

    @classmethod
    def from_rows(cls, vertices: list, rows, name: str | None = None) -> "Complex":
        """The complex on the ascending vertex ids whose k-simplices are the
        sorted position rows rows[k]."""
        c = cls.__new__(cls)
        c.vertices, c.rows, c.name = vertices, tuple(rows), name
        return c

    def __eq__(self, other):  # the name is ignored
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return sum(map(len, self.rows))

    def __contains__(self, s) -> bool:
        return tuple(s) in self.simplices

    @cached_property
    def cells(self) -> list[Simplex]:
        """Every simplex as a tuple, in (length, lex) order.  Cached; each
        vertex id is one object shared by every tuple holding it."""
        ids = np.array(self.vertices, dtype=object)
        return list(chain.from_iterable(zip(*ids[r].T.tolist()) for r in self.rows))

    @cached_property
    def simplices(self) -> frozenset:
        """The simplices as a frozenset of tuples.  Cached."""
        return frozenset(self.cells)

    @cached_property
    def dim(self) -> int:
        """Max simplex dimension; -1 for the empty complex.  Cached."""
        return len(self.rows) - 1

    @cached_property
    def index(self) -> CellIndex:
        """The face table incidence queries read; built on first use.  A
        k-simplex's key, (rank of its first vertex, id of the face dropping
        it), ascends with the rows, so face ids are searches over keys."""
        rows = self.rows or (np.zeros((0, 1), np.int64),)
        offsets = np.cumsum([0, *map(len, rows)]).tolist()
        faces = np.full((offsets[-1] + 1, len(rows)), offsets[-1])
        keys = [rows[0][:, 0]]
        for k, r in enumerate(rows[1:], 1):
            f = np.stack([_row_ids(keys, np.delete(r, i, axis=1)) for i in range(k + 1)], 1)
            keys.append(r[:, 0] * len(keys[-1]) + f[:, 0])
            faces[offsets[k]:offsets[k + 1], :k + 1] = f + offsets[k - 1]
        return CellIndex(offsets, faces)

    def k_simplices(self, k: int) -> list[Simplex]:
        """All k-dimensional simplices in lexicographic order (a new list)."""
        lo = sum(map(len, self.rows[:k]))
        return self.cells[lo:lo + len(self.rows[k])] if 0 <= k <= self.dim else []

    def counts(self) -> list[int]:
        """Number of simplices in each dimension 0..dim."""
        return list(map(len, self.rows))

    def facets(self) -> list[Simplex]:
        """Maximal simplices (those with no proper coface)."""
        return list(compress(self.cells, np.diff(self.index.ptr) == 0))

    @cached_property
    def vertex_star(self) -> dict:
        """Each vertex mapped to the tuple of simplices containing it.

        Stars are in (length, lexicographic) order.  Built once per complex
        on first use; every query about one simplex's star reads it.
        """
        out = {}
        for s in self.cells:
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
    return Complex(simplices, name=name)


def star(c: Complex, s) -> Complex:
    """Closed star: all cofaces of s together with their faces."""
    return build_complex(c.open_star(s))


def link(c: Complex, s) -> Complex:
    """The link of s: simplices disjoint from s whose join with s is present."""
    s, *cofaces = c.open_star(s)
    return Complex(tuple(x for x in t if x not in s) for t in cofaces)


class FreeFacePair(NamedTuple):
    face: Simplex
    coface: Simplex


def free_faces(c: Complex) -> list[FreeFacePair]:
    """All pairs (face, coface) where face lies in exactly one coface.

    A simplex contained in some simplex two dimensions up necessarily has at
    least two codimension-1 cofaces, so counting those alone is sufficient.
    Pairs come out in (length, lexicographic) order of the face.
    """
    ptr, cob = c.index.ptr, c.index.cob
    free = np.flatnonzero(np.diff(ptr) == 1)
    return [FreeFacePair(c.cells[f], c.cells[t])
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
    ptr, cob, faces = (a.tolist() for a in (c.index.ptr, c.index.cob, c.index.faces))
    n_co = [hi - lo for lo, hi in zip(ptr, ptr[1:])]
    alive = bytearray(b"\x01") * len(n_co) + b"\x00"  # cell n pads the faces
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
    core = Complex(compress(c.cells, alive), name=c.name)
    return CollapseResult(core, (len(c) - len(core)) // 2)


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of simplex counts."""
    return sum(len(r) * (-1) ** k for k, r in enumerate(c.rows))


# ---------------------------------------------------------------------------
# quotients


class QuotientResult(NamedTuple):
    complex: Complex
    vertex_map: dict  # old vertex id -> new (dense) vertex id


class _UnionFind(dict):
    """Parent links of disjoint classes; each class is represented by its
    smallest member, so ambient vertex ids stay stable."""

    def find(self, x):
        root = self.setdefault(x, x)
        while self[root] != root:
            root = self[root]
        while self[x] != root:
            self[x], x = root, self[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = sorted((self.find(a), self.find(b)))
        self[rb] = ra
        return ra != rb  # False if a and b were in one class already


def _normalize_pair(c: Complex, i: int, pair) -> tuple:
    if not isinstance(pair, Sequence) or len(pair) != 3:
        raise PfcError(f"identification {i} is not a (source, target, map) triple")
    source, target, vmap = pair
    if not isinstance(vmap, Mapping):
        raise PfcError(f"identification {i}: vertex map {vmap!r} is not a mapping")
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
    declared identifications actually relate them.  Every simplex is
    relabelled and checked as an int64 row; the first failure in (length,
    lexicographic) order is raised.  Vertex ids of the result are renumbered
    densely; the old-to-new map is returned alongside.
    """
    pairs = [_normalize_pair(c, i, p) for i, p in enumerate(pairs)]
    verts, cells = _UnionFind(), _UnionFind()
    for src, dst, vmap in pairs:
        dst_set, covered = set(dst), set()
        for s in src:
            try:
                img = tuple(sorted(vmap[v] for v in s))
            except KeyError as e:
                raise PfcError(f"vertex {e.args[0]} of {s} has no image") from None
            if len(set(img)) != len(img):
                raise PfcError(f"{s} degenerates to {img} under the pair map")
            if img not in dst_set:
                raise PfcError(f"{s} maps to {img}, not in the target subcomplex")
            covered.add(img)
            cells.union(s, img)
        if covered != dst_set:
            missing = sorted(dst_set - covered, key=lambda s: (len(s), s))
            raise PfcError(f"target simplices not covered by the map: {missing[:3]}")
        for v, w in vmap.items():
            verts.union(v, w)

    old = c.vertices
    roots = {v: verts.find(v) for v in list(verts)}
    rep = np.fromiter(map(roots.get, old, old), np.int64, len(old))
    reps, new = np.unique(rep, return_inverse=True)  # dense ids in the classes' order
    out = []
    for r in c.rows:
        img = np.sort(new[r], axis=1)
        order = np.lexsort(img.T[::-1])
        img = img[order]
        first = np.concatenate(([True], (img[1:] != img[:-1]).any(axis=1)))
        # a row can fail only if it degenerates or shares its image with another
        suspect = ((img[:, 1:] == img[:, :-1]).any(axis=1) | ~first
                   | ~np.concatenate((first[1:], [True])))
        images = {}  # image of a suspect -> the first suspect landing on it
        for s in (tuple(old[j] for j in r[i].tolist())
                  for i in sorted(order[suspect].tolist())):
            image = tuple(sorted({roots.get(v, v) for v in s}))
            if len(image) != len(s):
                raise QuotientDegeneracyError(
                    f"simplex {s} degenerates to {image} in the quotient", witness=s)
            prior = images.setdefault(image, s)
            if prior != s and cells.find(prior) != cells.find(s):
                raise QuotientDegeneracyError(
                    f"distinct simplices {prior} and {s} collide on {image} "
                    f"without being identified", witness=(prior, s))
        out.append(img[first])
    ids = list(range(len(reps)))
    return QuotientResult(Complex.from_rows(ids, out, name=c.name),
                          dict(zip(old, map(ids.__getitem__, new.tolist()))))


def disjoint_union(first: Complex, *rest: Complex) -> tuple[Complex, list]:
    """Disjoint union, each part in rest relabelled above every id before
    it; returns the union and one old-to-new vertex map per part in rest.
    A part's rows move up by the number of vertices before it, so the
    concatenated rows stay sorted."""
    vertices, rows, shifts = list(first.vertices), [first.rows], []
    top = int(max(first.vertices, default=-1))  # box ids are numpy ints
    for part in rest:
        shift = {v: v + top + 1 for v in part.vertices}
        top = max(shift.values(), default=top)
        if top >= 2**63:
            raise PfcError(f"shifted vertex id {top} is not below 2**63")
        rows.append([r + len(vertices) for r in part.rows])
        vertices += shift.values()
        shifts.append(shift)
    dims = range(max(map(len, rows)))
    return Complex.from_rows(vertices, [np.concatenate([p[k] for p in rows if k < len(p)])
                                        for k in dims]), shifts
