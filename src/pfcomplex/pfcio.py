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

import math

from .complexes import build_complex, canonical_simplex
from .metric import MetricComplex, validate_metric
from .report import PfcError

FORMAT_VERSION = 1


class PfcSyntaxError(PfcError):
    def __init__(self, message, line=None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


def serialize(mc: MetricComplex) -> str:
    """Emit a metric complex (or a bare complex wrapped with no lengths);
    a name that would not parse back unchanged is a PfcError."""
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
    for e in c.k_simplices(1):
        l = mc.lengths.get(e)
        if l is not None:
            lines.append(f"l {e[0]} {e[1]} {repr(float(l))}")
    return "\n".join(lines) + "\n"


def parse(text: str, validate: bool = True) -> MetricComplex:
    """Parse a PFC document into a metric complex.

    The face closure of the `s` records is taken; when any `l` record is
    present, every edge of the closure must receive exactly one finite
    length (all-or-none), and no record may name an edge outside it.
    With validate=True the metric is certified flatly realizable.
    """
    header_seen = False
    name = None
    dim_declared = None
    nverts = None
    generators = []
    lengths = {}
    length_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag, args = fields[0], fields[1:]
        if not header_seen:
            if tag != "pfc" or args != [str(FORMAT_VERSION)]:
                raise PfcSyntaxError(f"expected 'pfc {FORMAT_VERSION}' header",
                                     lineno)
            header_seen = True
            continue
        if tag == "name":
            name = " ".join(args)
        elif tag == "dim":
            dim_declared = _int_field(args, 1, lineno)[0]
        elif tag == "vertices":
            nverts = _int_field(args, 1, lineno)[0]
        elif tag == "s":
            if not args:
                raise PfcSyntaxError("empty simplex record", lineno)
            ids = _int_field(args, len(args), lineno)
            try:
                generators.append(canonical_simplex(ids))
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
            if (u, v) in lengths:
                raise PfcSyntaxError(f"duplicate length record for {(u, v)}",
                                     lineno)
            lengths[(u, v)] = val
            length_line[(u, v)] = lineno
        else:
            raise PfcSyntaxError(f"unknown directive {tag!r}", lineno)
    if not header_seen:
        raise PfcSyntaxError("missing 'pfc' header", 1)

    c = build_complex(generators, name=name)
    big = [v for v in c.vertices if nverts is not None and v >= nverts]
    if big:
        raise PfcSyntaxError(f"vertex {big[0]} exceeds declared vertex count {nverts}")
    if dim_declared is not None and c.dim > dim_declared:
        raise PfcSyntaxError(
            f"simplices of dimension {c.dim} exceed declared dim {dim_declared}")
    mc = MetricComplex(c, lengths)
    if lengths:
        c._ids(list(length_line), lambda e: PfcSyntaxError(
            f"length record for edge {e}, which is not an edge of the complex", length_line[e]))
        missing = [e for e in c.k_simplices(1) if e not in lengths]
        if missing:
            raise PfcError(
                f"partial metric: {len(missing)} edges lack lengths, "
                f"first {missing[0]}")
        if validate:
            validate_metric(mc)
    return mc


def _int_field(args, count, lineno):
    if len(args) != count:
        raise PfcSyntaxError(f"expected {count} integer fields", lineno)
    try:
        return [int(a) for a in args]
    except ValueError:
        raise PfcSyntaxError(f"bad integer in {args!r}", lineno) from None
