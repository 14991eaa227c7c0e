"""The line-by-line PFC reader that pfcio.parse replaced, kept as an
oracle: parse, its per-generator face closure and the per-simplex
validate_metric, each as it read before records were checked as arrays.
It raises pfcio's and metric's error classes, so outcomes compare equal.
"""

import math
from itertools import combinations

import numpy as np

from pfcomplex.complexes import Complex, canonical_simplex, faces_of
from pfcomplex.metric import MetricComplex, MetricError, _realizable_rows
from pfcomplex.pfcio import FORMAT_VERSION, PfcSyntaxError
from pfcomplex.report import PfcError


def build_complex(generators, name=None):
    simplices = set()
    for g in generators:
        simplices.update(faces_of(canonical_simplex(g)))
    return Complex(simplices, name=name)


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
