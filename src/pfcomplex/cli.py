"""
Command-line front end.

    pfc build <example1|example2|house|torus3 [M]|freegroup N|gcify IN|genus N> [-o FILE]
    pfc check <link-cat0|free-faces|extendability|gauss-bonnet> FILE [--json]
    pfc homology FILE [--ring z|z2] [--rel FILE] [--local VERTEX] [--json]
    pfc lemma13 FILE --b FILE [--json]
    pfc report <example1|example2> [--json]

Exit codes: 0 pass, 1 check failed, 2 usage or input error, 3 inconclusive,
4 internal error (a bug: its traceback goes to stderr).
Output is plain text (no color; NO_COLOR is honored trivially) unless --json
is given, in which case the documented structured report is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback

from . import builders, complexes, homology, metric, pfcio
from .report import EXIT_STATUS, PfcError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUG = 4


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.12g}"
    return str(x)


def _write_json(out, payload):
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _print_report(report, out, as_json):
    if as_json:
        _write_json(out, report.to_json())
        return
    out.write(f"verdict: {report.verdict}\n")
    for item in report.items:
        line = f"  {item.location}: {_fmt(item.measured)}"
        if item.threshold is not None:
            line += f" (threshold {_fmt(item.threshold)})"
        if item.witness is not None:
            line += f" witness {item.witness}"
        out.write(line + "\n")
    for k in sorted(report.metadata):
        out.write(f"  note: {k} = {_fmt(report.metadata[k])}\n")


def _load(path) -> metric.MetricComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise PfcError(f"{path} is not UTF-8 text: {e.reason}") from None
    return pfcio.parse(text)


def _int_arg(word) -> int:
    try:
        return int(word)
    except ValueError:
        raise _UsageError(f"expected an integer, got {word!r}") from None


# build target -> (what its required argument is, or None; a function that
# makes the complex from the remaining command-line words)
_BUILDS = {
    "example1": (None, lambda a: builders.example_complex(builders.EXAMPLE1)),
    "example2": (None, lambda a: builders.example_complex(builders.EXAMPLE2)),
    "house": (None, lambda a: builders.house_with_two_rooms()),
    "torus3": (None,
               lambda a: builders.flat_torus3(_int_arg(a[0]) if a else 3)),
    "freegroup": ("a rank argument",
                  lambda a: builders.free_group_complex(_int_arg(a[0]))),
    "gcify": ("an input file", lambda a: builders.gcify(_load(a[0])).complex),
    "genus": ("a genus argument",
              lambda a: builders.genus_surface(_int_arg(a[0]))),
}


def _build_target(args):
    kind, rest = args.what[0], args.what[1:]
    if kind not in _BUILDS:
        raise _UsageError(f"unknown build target {kind!r}")
    needs, build = _BUILDS[kind]
    if needs and not rest:
        raise _UsageError(f"{kind} needs {needs}")
    return build(rest)


def _cmd_build(args, out):
    mc = _build_target(args)
    text = pfcio.serialize(mc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_PASS


# resolved at call time, so wrappers installed on the modules are seen
_CHECKS = {
    "link-cat0": lambda mc: metric.link_condition_check(mc),
    "free-faces": lambda mc: complexes.free_face_check(mc.complex),
    "extendability": lambda mc: metric.extendability_check(mc),
    "gauss-bonnet": lambda mc: metric.gauss_bonnet_check(mc),
}


def _cmd_check(args, out):
    report = _CHECKS[args.kind](_load(args.file))
    _print_report(report, out, args.json)
    return EXIT_STATUS[report.verdict]


def _cmd_homology(args, out):
    mc = _load(args.file)
    ring = args.ring
    if args.local is not None:
        bv = homology.local_homology(mc.complex, args.local, ring)
        label = "reduced b"
    else:
        rel = _load(args.rel).complex if args.rel else None
        bv = homology.betti(mc.complex, ring, relative_to=rel)
        label = "b"
    if args.json:
        _write_json(out, {
            "ring": ring,
            "reduced": bv.reduced,
            "ranks": list(bv.ranks),
            "torsion": [list(t) for t in bv.torsion],
        })
    else:
        out.write(f"{label}: " + " ".join(str(r) for r in bv.ranks) + "\n")
        if any(bv.torsion):
            out.write("torsion: " +
                      " ".join(f"H{k}={list(t)}" for k, t in
                               enumerate(bv.torsion) if t) + "\n")
    return EXIT_PASS


def _cmd_lemma13(args, out):
    j = _load(args.file)
    b = _load(args.b)
    report = homology.solid_chain_check(j.complex, b.complex)
    _print_report(report, out, args.json)
    return EXIT_STATUS[report.verdict]


def _cmd_report(args, out):
    payload = builders.example_report(args.which)
    if args.json:
        _write_json(out, payload)
    else:
        out.write(_REPORT_TEXT[args.which](payload))
    return EXIT_PASS if payload["obstruction_reproduced"] else EXIT_FAIL


def _example1_text(p) -> str:
    return (
        "example1 report\n"
        f"  chi: base {p['chi_base']}, glued {p['chi_glued']} "
        f"({p['blocks']} blocks, drop {p['chi_base'] - p['chi_glued']})\n"
        f"  intrinsic metric: link check {p['intrinsic_link_verdict']}, "
        f"shortest cycle {_fmt(p['intrinsic_shortest_link_cycle'])} < 2*pi\n"
        f"  override metric (angles 2*pi/3): link check "
        f"{p['override_link_verdict']} at girth "
        f"{_fmt(p['override_link_girth'])}\n"
        f"  obstruction reproduced: {_fmt(p['obstruction_reproduced'])}\n")


def _example2_text(p) -> str:
    return (
        "example2 report\n"
        f"  house: {p['house_free_faces']} free faces, betti(Z) "
        f"{p['house_betti_z']}, betti(Z2) {p['house_betti_z2']}\n"
        f"  solid chain certificate on (box, house): "
        f"{p['solid_chain_verdict']}\n"
        f"  glued complex: b3 = {p['glued_b3_z']} with "
        f"{p['house_triangles']} blocks attached twice over "
        f"(expected {p['expected_b3']})\n"
        f"  chi additivity: {_fmt(p['chi_additivity'])}\n"
        f"  obstruction reproduced: {_fmt(p['obstruction_reproduced'])}\n")


_REPORT_TEXT = {"example1": _example1_text, "example2": _example2_text}


@functools.cache
def _parser() -> _CliParser:
    p = _CliParser(prog="pfc", description=__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a named construction")
    b.add_argument("what", nargs="+")
    b.add_argument("-o", "--output")
    b.set_defaults(func=_cmd_build)

    c = sub.add_parser("check", help="run a certificate on a PFC file")
    c.add_argument("kind", choices=["link-cat0", "free-faces",
                                    "extendability", "gauss-bonnet"])
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_check)

    h = sub.add_parser("homology", help="Betti numbers of a PFC file")
    h.add_argument("file")
    h.add_argument("--ring", choices=["z", "z2"], default="z")
    h.add_argument("--rel", help="PFC file with a subcomplex")
    h.add_argument("--local", type=int, help="vertex id for local homology")
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=_cmd_homology)

    l = sub.add_parser("lemma13",
                       help="top-chain certificate relative to a subcomplex")
    l.add_argument("file")
    l.add_argument("--b", required=True, help="PFC file with the subcomplex")
    l.add_argument("--json", action="store_true")
    l.set_defaults(func=_cmd_lemma13)

    r = sub.add_parser("report", help="full pipeline for a named example")
    r.add_argument("which", choices=["example1", "example2"])
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=_cmd_report)
    return p


def run_command(argv, out=None) -> int:
    """Entry point used by tests: returns the exit code."""
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
        return args.func(args, out)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, PfcError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    try:
        code = run_command(sys.argv[1:])
    except Exception:
        # keep a library bug apart from exit 1, which means "check failed"
        traceback.print_exc()
        code = EXIT_BUG
    sys.exit(code)


if __name__ == "__main__":
    main()
