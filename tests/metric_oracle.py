"""The dict loops that metric_quotient and validate_metric replaced, kept as
oracles: the quotient's isometry check over `lengths` in insertion order,
and validation by one `realizable` call per simplex.  They raise metric's
error classes, so outcomes compare equal.
"""

import math

from pfcomplex.complexes import quotient
from pfcomplex.metric import EPS_LEN, MetricComplex, MetricError, edge_key, realizable


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


def validate_metric(mc: MetricComplex) -> None:
    """Raise MetricError unless every simplex is flatly realizable."""
    for e in mc.complex.k_simplices(1):
        l = mc.lengths.get(e)
        if l is None:
            raise MetricError(f"edge {e} has no length")
        if not 0 < l < math.inf:
            raise MetricError(f"edge {e} has length {l}, not finite positive")
    for k in range(2, mc.complex.dim + 1):
        for s in mc.complex.k_simplices(k):
            if not realizable(mc.simplex_lengths(s), k):
                raise MetricError(f"simplex {s} is not flatly realizable")
