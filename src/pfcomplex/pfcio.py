"""
The PFC interchange format: a line-oriented UTF-8 description of a metric
complex.

    pfc 1
    name <string>          (optional)
    dim <d>
    vertices <n>
    s v0 v1 ... vk         one line per maximal simplex; faces are implied
    l u v <decimal>        one line per edge, u < v; all-or-none

Comments start with '#'.  Serialization is deterministic (facets and length
lines in lexicographic order, lengths printed with shortest round-trip
precision), so serialize(parse(serialize(x))) == serialize(x).
"""

from __future__ import annotations

import bisect
import math
import operator
from array import array
from itertools import chain

import numpy as np

from .complexes import Complex, _closure, canonical_simplex
from .metric import MetricComplex, validate_metric
from .report import PfcError

FORMAT_VERSION = 1


class PfcSyntaxError(PfcError):
    def __init__(self, message, line=None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


def serialize(mc: MetricComplex) -> str:
    """Emit a metric complex, or a bare complex, which has no lengths; a
    name that would not parse back unchanged is a PfcError."""
    if isinstance(mc, Complex):
        mc = MetricComplex(mc)
    if not isinstance(mc, MetricComplex):
        raise PfcError(f"cannot serialize a value of type {type(mc).__name__}: "
                       f"expected a MetricComplex or a Complex")
    c = mc.complex
    n = (c.vertices[-1] + 1) if c.vertices else 0
    lines = [f"pfc {FORMAT_VERSION}"]
    if c.name:
        if "#" in c.name or c.name != " ".join(c.name.split()):
            raise PfcError(f"name {c.name!r} cannot be written: a name is "
                           f"words without '#' joined by single spaces")
        lines.append(f"name {c.name}")
    lines.append(f"dim {max(c.dim, 0)}")
    lines.append(f"vertices {n}")
    for s in c.facets():
        lines.append("s " + " ".join(str(v) for v in s))
    for e, l in zip(c.k_simplices(1), mc.edge_lengths.tolist()):
        if not math.isnan(l):  # nan: the edge has no length
            lines.append(f"l {e[0]} {e[1]} {l!r}")
    return "\n".join(lines) + "\n"


def parse(text: str, validate: bool = True) -> MetricComplex:
    """Parse a PFC document into a metric complex.

    The face closure of the `s` records is taken; when any `l` record is
    present, every edge of the closure must receive exactly one finite
    length (all-or-none), and no record may name an edge outside it.
    With validate=True the metric is certified flatly realizable.

    The line loop only files each record by its tag; the `s` and `l`
    records are then converted and checked as arrays.  If a check fails,
    _raise_first_bad_record reads them one at a time to name the first
    error and its line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    head = next((i for i, line in enumerate(lines) if line.split()), None)
    if head is None:
        raise PfcSyntaxError("missing 'pfc' header", 1)
    if lines[head].split() != ["pfc", str(FORMAT_VERSION)]:
        raise PfcSyntaxError(f"expected 'pfc {FORMAT_VERSION}' header", head + 1)
    name = dim_declared = nverts = closed = None
    # flat lists, not one per record, which the cyclic collector would scan
    # again and again; the vertex ids as int64s (OverflowError past 2**63)
    ids, arity, us, vs, xs, llines = array("q"), [], [], [], [], []
    try:
        for lineno, line in enumerate(lines[head + 1:], start=head + 2):
            fields = line.split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "s":
                ids.extend(map(int, fields[1:]))
                arity.append(len(fields) - 1)
            elif tag == "l" and len(fields) == 4:
                us.append(int(fields[1]))
                vs.append(int(fields[2]))
                xs.append(float(fields[3]))
                llines.append(lineno)
            elif tag == "name":
                name = " ".join(fields[1:])
            elif tag == "dim":
                (dim_declared,) = map(int, fields[1:])
            elif tag == "vertices":
                (nverts,) = map(int, fields[1:])
            else:  # an unknown directive or a bad length record
                raise ValueError(tag)
        x = np.array(xs)
        try:  # a repeated record is a zero column between sorted ends
            ends = np.fromiter(chain(us, vs), np.int64, 2 * len(us)).reshape(2, -1)
            repeat = not np.diff(ends[:, np.lexsort(ends)]).any(axis=0).all()
        except OverflowError:  # such an id names no vertex
            ends = np.array([[e if -1 < e < 2**63 else -1 for e in x] for x in (us, vs)])
            repeat = len(set(zip(us, vs))) < len(us)
        if (not repeat and all(map(operator.lt, us, vs))
                and ((x > 0) & (x < math.inf)).all() and all(arity)):
            closed = _closure(arity, np.frombuffer(ids, np.int64))
    except (ValueError, OverflowError):
        pass
    if closed is None:
        _raise_first_bad_record(lines, head)
    verts, rows = closed
    c = Complex.from_rows(verts.tolist(), rows, name=name)
    if nverts is not None and c.vertices and c.vertices[-1] >= nverts:
        big = c.vertices[bisect.bisect_left(c.vertices, nverts)]
        raise PfcSyntaxError(f"vertex {big} exceeds declared vertex count {nverts}")
    if dim_declared is not None and c.dim > dim_declared:
        raise PfcSyntaxError(
            f"simplices of dimension {c.dim} exceed declared dim {dim_declared}")
    if us:
        n, edges = len(verts), rows[1] if c.dim > 0 else np.zeros((0, 2), np.int64)
        rank = verts.searchsorted(ends)
        key, keys = rank[0] * n + rank[1], edges[:, 0] * n + edges[:, 1]
        eid = keys.searchsorted(key)
        # both ends are vertices, and the key is an edge's (-1 pads past the last)
        hit = (np.append(verts, -1)[rank] == ends).all(axis=0) & (np.append(keys, -1)[eid] == key)
        if not hit.all():
            i = int(np.argmin(hit))
            raise PfcSyntaxError(f"length record for edge {(us[i], vs[i])}, which is "
                                 f"not an edge of the complex", llines[i])
        if len(edges) > len(us):
            first = int(np.argmin(np.bincount(eid, minlength=len(edges))))
            raise PfcError(
                f"partial metric: {len(edges) - len(us)} edges lack lengths, "
                f"first {c.k_simplices(1)[first]}")
        edge_lengths = np.empty_like(x)
        edge_lengths[eid] = x
        mc = MetricComplex(c, edge_lengths=edge_lengths, edge_order=eid)
        if validate:
            validate_metric(mc)
        return mc
    return MetricComplex(c)


def _raise_first_bad_record(lines: list, head: int) -> None:
    """Read the records after the header one at a time, in line order, and
    raise the first one's error: what parse does once a bulk check fails."""
    seen = set()
    for lineno, line in enumerate(lines[head + 1:], start=head + 2):
        fields = line.split()
        if not fields:
            continue
        tag, args = fields[0], fields[1:]
        if tag in ("dim", "vertices"):
            _int_field(args, 1, lineno)
        elif tag == "s":
            if not args:
                raise PfcSyntaxError("empty simplex record", lineno)
            ids = _int_field(args, len(args), lineno)
            try:
                canonical_simplex(ids)
            except PfcError as e:
                raise PfcSyntaxError(str(e), lineno) from None
        elif tag == "l":
            if len(args) != 3:
                raise PfcSyntaxError("length record needs 'l u v value'", lineno)
            u, v = _int_field(args[:2], 2, lineno)
            if not u < v:
                raise PfcSyntaxError(f"length record needs u < v, got {u} {v}",
                                     lineno)
            try:
                val = float(args[2])
            except ValueError:
                raise PfcSyntaxError(f"bad length value {args[2]!r}", lineno) from None
            if not 0 < val < math.inf:
                raise PfcSyntaxError(f"length {args[2]!r} is not finite and "
                                     f"positive", lineno)
            if (u, v) in seen:
                raise PfcSyntaxError(f"duplicate length record for {(u, v)}",
                                     lineno)
            seen.add((u, v))
        elif tag != "name":
            raise PfcSyntaxError(f"unknown directive {tag!r}", lineno)


def _int_field(args, count, lineno):
    if len(args) != count:
        raise PfcSyntaxError(f"expected {count} integer fields", lineno)
    try:
        return [int(a) for a in args]
    except ValueError:
        raise PfcSyntaxError(f"bad integer in {args!r}", lineno) from None
