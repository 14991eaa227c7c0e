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
from bisect import bisect_left
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, chain, combinations, compress, islice
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
    all padding.  The coface arrays ptr and cob are built on first use, cob
    by one in-place sort of int64 keys, from which it copies the cells out.
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
        n = self.offsets[-1]
        keys = self.faces[:-1] * (n + 1)  # face * (n + 1) + cell: padding sorts last
        keys += np.arange(n)[:, None]
        keys = keys.ravel()
        keys.sort()
        return keys[:self.ptr[-1]] % (n + 1)  # a copy: a view would hold every key


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
    are immutable.  Complex(simplices, name) is build_complex(simplices,
    name), the face closure; from_rows takes rows that are already closed.
    """

    def __init__(self, simplices: Iterable[Simplex] = (), name: str | None = None):
        c = build_complex(simplices, name)  # the closure of a closed set is itself
        self.vertices, self.rows, self.name = c.vertices, c.rows, name

    @classmethod
    def from_rows(cls, vertices: list, rows, name: str | None = None) -> "Complex":
        """The complex on the ascending vertex ids whose k-simplices are the
        sorted position rows rows[k]."""
        c = cls.__new__(cls)
        c.vertices, c.rows, c.name = vertices, tuple(rows), name
        return c

    def __eq__(self, other):  # the name is ignored; cells are in canonical order
        return isinstance(other, Complex) and self.cells == other.cells

    def __hash__(self):
        return hash((*self.vertices, *map(len, self.rows)))

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return sum(map(len, self.rows))

    def __contains__(self, s) -> bool:
        with suppress(PfcError):  # raised for a tuple that is no cell
            return len(self._ids([tuple(s)], PfcError)) == 1
        return False

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
            f = _row_ids(keys, r[:, 1:])  # face 0; face i > 0 is (r[0], face i - 1 of f)
            rest = r[:, :1] if k == 1 else keys[-1].searchsorted(
                r[:, :1] * len(keys[-2]) + faces[offsets[k - 1] + f, :k] - offsets[k - 2])
            faces[offsets[k]:offsets[k + 1], :k + 1] = np.column_stack((f, rest)) + offsets[k - 1]
            keys.append(r[:, 0] * len(keys[-1]) + f)
        return CellIndex(offsets, faces)

    @cached_property
    def _records(self) -> np.ndarray:
        """Each cell as dim + 2 big-endian int64s (its length, its vertex ids,
        -1s), then an all -1 sentinel.  Byte order is numeric order below
        2**63, so these records ascend with the cell ids, compared by memcmp."""
        w, ids = len(self.rows) + 1, np.array(self.vertices, np.int64)
        out, offsets = np.full((len(self) + 1, w), -1, ">i8"), np.cumsum([0, *map(len, self.rows)])
        for k, (lo, r) in enumerate(zip(offsets.tolist(), self.rows)):
            out[lo:lo + len(r), 0], out[lo:lo + len(r), 1:k + 2] = k + 1, ids[r]
        return out.view(f"V{8 * w}").ravel()

    def _ids(self, simplices: list, missing) -> np.ndarray:
        """Cell ids of the given tuples, by one search over the records;
        raises missing(s) for the first s, in list order, that is not one."""
        recs, flat = self._records, []
        w = recs.itemsize // 8
        tails = [(-1,) * (w - 1 - n) for n in range(w)]
        for s in simplices:
            if (n := len(s)) < w:
                flat.append(n)
                flat += s
                flat += tails[n]
            else:  # length 0 is no cell's
                flat += (0, *tails[0])
        q = np.array(flat)
        if q.dtype != np.int64:  # no simplices, or a value that is no int64 and no vertex id
            q = np.array([v if isinstance(v, (int, np.integer)) and -1 < v < 2**63 else -1
                          for v in flat], np.int64)
        q = q.astype(">i8").view(recs.dtype)
        found = recs.searchsorted(q)  # at most the sentinel's position
        if recs[found].tobytes() != q.tobytes():
            raise missing(simplices[np.argmin(recs[found] == q)])
        return found

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

    def open_star(self, s) -> list[Simplex]:
        """The simplices containing s, s first, in (length, lex) order; PfcError if s is no simplex."""
        return list(map(self.cells.__getitem__, self._star_ids(s).tolist()))

    def _star_ids(self, s) -> np.ndarray:
        """Their ascending ids: from s's first vertex the coface arrays climb
        through the prefixes of s, then give its cofaces level by level."""
        s, ptr, cob, cells = canonical_simplex(s), self.index.ptr, self.index.cob, self.cells
        ints = all(isinstance(v, (int, np.integer)) for v in s)  # 1.0 == 1 is no vertex 1
        i = bisect_left(self.vertices, s[0]) if s and ints else len(self.vertices)
        level = [i] if i < len(self.vertices) and cells[i] == s[:1] else []
        for k in range(2, len(s) + 1):  # the coface of s[:k - 1] that is s[:k]
            level = [t for f in level for t in cob[ptr[f]:ptr[f + 1]].tolist() if cells[t] == s[:k]]
        if not level:
            raise PfcError(f"{s} is not a simplex of the complex")
        out, level = [], np.array(level)
        while len(level):  # a coface of a cell that contains s contains s
            out.append(level)
            n = ptr[level + 1] - ptr[level]  # gather cob[ptr[f]:ptr[f + 1]] for each f
            level = _distinct(cob[np.repeat(ptr[level + 1] - n.cumsum(), n) + np.arange(n.sum())])
        return np.concatenate(out)

    def subcomplex(self, simplices: Iterable[Simplex], name=None) -> "Complex":
        """Face closure of a subset of this complex's simplices."""
        chosen = [canonical_simplex(s) for s in simplices]
        self._ids(chosen, lambda s: PfcError(f"{s} is not a simplex of the complex"))
        return build_complex(chosen, name=name)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array: np.unique without its
    wrapper, whose cost dominates on small arrays."""
    a = np.sort(a)
    step = np.empty(len(a), bool)
    step[:1] = True
    np.not_equal(a[1:], a[:-1], out=step[1:])
    return a[step]


def _groups(a: np.ndarray) -> tuple:
    """The index of each distinct value's first entry in a 1-D array, the
    values ascending, and each entry's group among them: np.unique's
    return_index and return_inverse without its wrapper (nan is never equal)."""
    order = np.argsort(a, kind="stable")
    step = np.empty(len(a), bool)
    step[:1] = True
    np.not_equal(a[order[1:]], a[order[:-1]], out=step[1:])
    inverse = np.empty(len(a), np.int64)
    inverse[order] = step.cumsum() - 1
    return order[step], inverse


def _class_minima(n: int, pairs: list) -> np.ndarray:
    """Each of 0..n - 1 labelled, in int32 (so n < 2**31), by its class's
    least member, where int32 arrays (a, b) in pairs join a[i] and b[i]:
    larger labels are hooked onto smaller ones until no pair joins two, in
    any order.  pairs is emptied once its arrays are joined, so they can be
    freed before the hooking."""
    a, b = (np.concatenate(p) for p in zip(*pairs))
    pairs.clear()
    lab = np.arange(n, dtype=np.int32)
    while len(a):
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while (lab.take(lab) != lab).any():  # take: lab[lab] casts int32 indices slowly
            lab = lab.take(lab)
        a, b = lab.take(a, out=a, mode="clip"), lab.take(b, out=b, mode="clip")  # in place; clip: no buffer
        a, b = a[m := a != b], b[m]
    return lab


def _row_keys(columns, base: int, out: np.ndarray) -> np.ndarray:
    """Write into out, and return, one int64 per row of the given columns
    of values below base, ascending with the rows in lexicographic order:
    mixed radix, made dense before it could overflow (so the row count
    times base must stay below 2**62)."""
    columns, top = iter(columns), base  # out < top
    out[:] = next(columns)
    for col in columns:
        if top > 2**62 // base:
            first, dense = _groups(out)
            out[:], top = dense, len(first)
        out *= base
        out += col
        top *= base
    return out


def _closure(arity: list, vals: np.ndarray):
    """The face closure of generators of arity[i] vertices each, whose ids,
    in order, are the int64s vals: the sorted distinct ids and the sorted
    rows of their ranks per dimension; None if an id is negative or a
    generator repeats one.  A k-face's key is the rank of its first vertex
    times the count of (k - 1)-faces plus the id there of the face dropping
    it, as in Complex.index, so keys ascend with the rows and cannot
    overflow."""
    arity = np.array(arity, np.int64)
    verts = _distinct(vals)
    n, top = len(verts), arity.max(initial=0)
    pad = np.full((len(arity), top), n)  # each generator's ranks, ascending, then n
    pad[np.arange(top) < arity[:, None]] = verts.searchsorted(vals)
    pad.sort(axis=1)
    if (n and verts[0] < 0) or ((pad[:, 1:] == pad[:, :-1]) & (pad[:, 1:] < n)).any():
        return None
    keys = [np.arange(n)]
    rows = [keys[0][:, None]] if n else []
    for k in range(1, top):
        sub = pad[:, list(combinations(range(top), k + 1))].reshape(-1, k + 1)
        sub = sub[sub[:, -1] < n]
        keys.append(_distinct(sub[:, 0] * len(keys[-1]) + _row_ids(keys, sub[:, 1:])))
        first, rest = np.divmod(keys[-1], len(keys[-2]))
        rows.append(np.concatenate((first[:, None], rows[-1][rest]), axis=1))
    return verts, rows


def build_complex(generators: Iterable[Sequence[int]], name: str | None = None) -> Complex:
    """Face closure of the given generator tuples.  The vertex ids are the
    caller's objects, the first occurrence of each; a bad generator raises
    canonical_simplex's error, the first in input order.

    Idempotent: the closure of a closure is itself.
    """
    gens = list(map(tuple, generators))
    flat = list(chain.from_iterable(gens))
    closed = None
    if all(issubclass(t, (int, np.integer)) for t in set(map(type, flat))):
        with suppress(OverflowError):  # an id outside the int64 range
            closed = _closure(list(map(len, gens)), np.fromiter(flat, np.int64, len(flat)))
    if closed is None:
        for g in gens:  # the first bad generator raises
            canonical_simplex(g)
        bad = next(v for v in flat if not isinstance(v, (int, np.integer)))
        raise PfcError(f"vertex id {bad!r} is not an integer")
    return Complex.from_rows(sorted(dict.fromkeys(flat)), closed[1], name=name)


def star(c: Complex, s) -> Complex:
    """Closed star: all cofaces of s together with their faces."""
    return build_complex(c.open_star(s))


def link(c: Complex, s) -> Complex:
    """The link of s: simplices disjoint from s whose join with s is present."""
    ids, off = c._star_ids(s), c.index.offsets
    parts = np.split(ids, ids.searchsorted(off[1:-1]))  # per dimension
    (k, own), *up = [(d, c.rows[d][p - off[d]]) for d, p in enumerate(parts) if len(p)]
    rows = [r[(r[:, :, None] != own).all(2)].reshape(len(r), d - k) for d, r in up]  # stay sorted
    verts = rows[0][:, 0] if rows else np.zeros(0, np.int64)
    return Complex.from_rows([c.vertices[v] for v in verts.tolist()], [verts.searchsorted(r) for r in rows])


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
    keep = np.frombuffer(alive, bool)
    new = keep[:len(c.vertices)].cumsum() - 1  # the core's vertex positions
    rows = (new[r[keep[lo:lo + len(r)]]] for lo, r in zip(c.index.offsets, c.rows))
    core = Complex.from_rows(list(compress(c.vertices, alive)), [r for r in rows if len(r)], c.name)
    core.cells = list(compress(c.cells, alive))  # the input's own tuples
    return CollapseResult(core, (len(c) - len(core)) // 2)


def euler_characteristic(c: Complex) -> int:
    """Alternating sum of simplex counts."""
    return sum(len(r) * (-1) ** k for k, r in enumerate(c.rows))


# ---------------------------------------------------------------------------
# quotients


class QuotientResult(NamedTuple):
    complex: Complex
    vertex_map: dict  # old vertex id -> new (dense) vertex id


def quotient(c: Complex, pairs: Sequence) -> QuotientResult:
    """Glue the complex along the given identification pairs.

    A pair is (source, target, vertex_map): two simplex lists, faces
    included, and a map, whose keys and values are vertices, sending each
    vertex of source to one of target, simplex-by-simplex onto target (a
    mapping error otherwise).  The map need not be injective, so a
    subdivided arc can wrap onto a circle with an endpoint merge in the same
    call.  After merging vertex classes the result is checked to still be
    simplicial: no simplex may degenerate, and two distinct simplices may
    land on the same vertex set only if the declared identifications
    actually relate them; the first failure in (length, lexicographic)
    order is raised.  Vertex ids of the result are renumbered densely; the
    old-to-new map is returned alongside.
    """
    norm = []
    try:  # the pairs before a malformed one are searched before it raises
        for i, pair in enumerate(pairs):
            if not isinstance(pair, Sequence) or len(pair) != 3:
                raise PfcError(f"identification {i} is not a (source, target, map) triple")
            source, target, vmap = pair
            if not isinstance(vmap, Mapping):
                raise PfcError(f"identification {i}: vertex map {vmap!r} is not a mapping")
            norm.append((tuple(map(canonical_simplex, source)),
                         tuple(map(canonical_simplex, target)), dict(vmap)))
    finally:
        ids = iter(c._ids([s for src, dst, _ in norm for s in src + dst], lambda s: PfcError(
            f"identification references {s}, not in complex")).tolist())
    a, b, entries = [], [], []  # each source's cell id and its image's; the map entries
    with suppress(TypeError):  # from a value that is no vertex, which the entries' search names
        for src, dst, vmap in norm:
            a += islice(ids, len(src))
            target, covered = dict(zip(dst, ids)), set()
            entries += vmap.items()
            for s in src:
                try:
                    img = tuple(sorted(map(vmap.__getitem__, s)))
                except KeyError as e:
                    raise PfcError(f"vertex {e.args[0]} of {s} has no image") from None
                if len(set(img)) != len(img):
                    raise PfcError(f"{s} degenerates to {img} under the pair map")
                if img not in target:
                    raise PfcError(f"{s} maps to {img}, not in the target subcomplex")
                covered.add(img)
                b.append(target[img])
            if len(covered) != len(target):
                missing = sorted(target.keys() - covered, key=lambda s: (len(s), s))
                raise PfcError(f"target simplices not covered by the map: {missing[:3]}")
    # vertex classes join each entry's ends; cell classes, in the ids named, each source and its image
    old = c.vertices
    ends = c._ids([(x,) for side in zip(*entries) for x in side], lambda s: PfcError(
        f"vertex map entry {s[0]!r} is not a vertex of the complex")).astype(np.int32)
    rep = _class_minima(len(old), [(ends[:len(entries)], ends[len(entries):])])  # least class members
    at, pos = _groups(named := np.array(a + b, np.int64))  # the named ids, compacted
    least = _class_minima(len(at), [tuple(pos.astype(np.int32).reshape(2, -1))])
    cls = dict(zip(named[at].tolist(), named[at][least].tolist()))
    heads, new = _groups(rep)  # dense ids in the classes' order
    out = []
    for lo, r in zip(accumulate(map(len, c.rows), initial=0), c.rows):
        img = np.sort(new[r], axis=1)
        key = _row_keys(img.T, len(heads), np.empty(len(img), np.int64))
        order = np.argsort(key, kind="stable")
        img, key = img[order], key[order]
        # a row can fail only if it degenerates or shares its image with
        # another; step[i] says rows i - 1 and i differ, true at either end
        step = np.ones(len(img) + 1, bool)
        step[1:-1] = key[1:] != key[:-1]
        first = step[:-1]
        suspect = (img[:, 1:] == img[:, :-1]).any(axis=1) | ~(first & step[1:])
        images = {}  # image of a suspect -> the first suspect landing on it, its cell class
        for i in sorted(order[suspect].tolist()):
            s = tuple(map(old.__getitem__, r[i].tolist()))
            image = tuple(map(old.__getitem__, sorted(set(rep[r[i]].tolist()))))
            if len(image) != len(s):
                raise QuotientDegeneracyError(
                    f"simplex {s} degenerates to {image} in the quotient", witness=s)
            prior, k = images.setdefault(image, (s, cls.get(lo + i, lo + i)))
            if k != cls.get(lo + i, lo + i):
                raise QuotientDegeneracyError(
                    f"distinct simplices {prior} and {s} collide on {image} "
                    f"without being identified", witness=(prior, s))
        out.append(img[first])
    return QuotientResult(Complex.from_rows(list(range(len(heads))), out, name=c.name),
                          dict(zip(old, new.tolist())))


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
