"""
Command-line front end.

    pfc build <example1|example2|house|torus3 [M]|freegroup N|gcify IN|genus N> [-o FILE]
    pfc check <link-cat0|free-faces|extendability|gauss-bonnet> FILE [--json]
    pfc homology FILE [--ring z|z2] [--rel FILE] [--local VERTEX] [--json]
    pfc lemma13 FILE --b FILE [--json]
    pfc report <example1|example2> [--json]

Exit codes: 0 pass, 1 check failed, 2 usage or input error, 3 inconclusive.
Output is plain text (no color; NO_COLOR is honored trivially) unless --json
is given, in which case the documented structured report is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import builders, homology, metric, pfcio
from .complexes import ComplexError, euler_characteristic, free_faces
from .report import CONTRADICTION, FAIL, INCONCLUSIVE, PASS

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {PASS: EXIT_PASS, FAIL: EXIT_FAIL,
                 INCONCLUSIVE: EXIT_INCONCLUSIVE, CONTRADICTION: EXIT_FAIL}


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


def _print_report(report, out, as_json):
    if as_json:
        out.write(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
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
        return pfcio.parse(fh.read())


def _build_target(args):
    kind = args.what[0]
    if kind == "example1":
        return builders.example_complex(builders.EXAMPLE1)
    if kind == "example2":
        return builders.example_complex(builders.EXAMPLE2)
    if kind == "house":
        return builders.house_with_two_rooms()
    if kind == "torus3":
        m = int(args.what[1]) if len(args.what) > 1 else 3
        return builders.flat_torus3(m)
    if kind == "freegroup":
        if len(args.what) < 2:
            raise _UsageError("freegroup needs a rank argument")
        return builders.free_group_complex(int(args.what[1]))
    if kind == "gcify":
        if len(args.what) < 2:
            raise _UsageError("gcify needs an input file")
        res = builders.gcify(_load(args.what[1]))
        return res.complex
    if kind == "genus":
        if len(args.what) < 2:
            raise _UsageError("genus needs a genus argument")
        return builders.genus_surface(int(args.what[1]))
    raise _UsageError(f"unknown build target {kind!r}")


def _cmd_build(args, out):
    mc = _build_target(args)
    text = pfcio.serialize(mc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_PASS


def _cmd_check(args, out):
    mc = _load(args.file)
    kind = args.kind
    if kind == "link-cat0":
        if mc.complex.dim <= 2:
            report = metric.cat0_two_complex_check(mc)
        else:
            report = metric.npc_edge_link_check(mc)
            if report.verdict == PASS:
                # only necessary conditions hold for 3-complexes
                report = type(report)(INCONCLUSIVE, report.items,
                                      report.metadata)
    elif kind == "free-faces":
        pairs = free_faces(mc.complex)
        from .report import CheckItem, CheckReport

        items = tuple(CheckItem(f"free face {p.face}", True, False,
                                witness=p.coface) for p in pairs)
        report = CheckReport(PASS if not pairs else FAIL, items,
                             {"free_face_count": len(pairs)})
    elif kind == "extendability":
        report = metric.extendability_check(mc)
    elif kind == "gauss-bonnet":
        lhs, rhs = metric.gauss_bonnet(mc)
        from .report import CheckItem, CheckReport

        ok = abs(lhs - rhs) <= metric.EPS_GB
        items = (CheckItem("2*pi*chi", lhs, None),
                 CheckItem("total angle defect", rhs, None),
                 CheckItem("difference", abs(lhs - rhs), metric.EPS_GB,
                           witness=None if ok else (lhs, rhs)))
        report = CheckReport(PASS if ok else FAIL, items)
    else:
        raise _UsageError(f"unknown check {kind!r}")
    _print_report(report, out, args.json)
    return _VERDICT_EXIT[report.verdict]


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
        out.write(json.dumps({
            "ring": ring,
            "reduced": bv.reduced,
            "ranks": list(bv.ranks),
            "torsion": [list(t) for t in bv.torsion],
        }, sort_keys=True, indent=2) + "\n")
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
    return _VERDICT_EXIT[report.verdict]


def _cmd_report(args, out):
    if args.which == "example1":
        return _report_example1(out, args.json)
    if args.which == "example2":
        return _report_example2(out, args.json)
    raise _UsageError(f"unknown report {args.which!r}")


def _report_example1(out, as_json):
    """Obstruction chain for the first gluing counterexample."""
    base = builders.simplex_complex(3)
    x = builders.example_complex(builders.EXAMPLE1)
    chi_base = euler_characteristic(base.complex)
    chi_x = euler_characteristic(x.complex)

    j_intrinsic = builders.example1_interface_complex()
    intrinsic = metric.cat0_two_complex_check(j_intrinsic)
    cycle_len = min(i.measured for i in intrinsic.items)

    target = 2.0 * math.pi / 3.0
    j_override = builders.example1_interface_complex([target] * 3)
    override = metric.cat0_two_complex_check(j_override)
    override_girth = min(i.measured for i in override.items
                         if i.location == "vertex 0")

    ok = (chi_x == chi_base - 6
          and intrinsic.verdict == FAIL
          and abs(cycle_len - math.pi) <= 1e-9
          and override.verdict == PASS
          and abs(override_girth - 2 * math.pi) <= 1e-9)
    payload = {
        "example": "example1",
        "chi_base": chi_base,
        "chi_glued": chi_x,
        "blocks": 3,
        "intrinsic_link_verdict": intrinsic.verdict,
        "intrinsic_shortest_link_cycle": cycle_len,
        "override_link_verdict": override.verdict,
        "override_link_girth": override_girth,
        "obstruction_reproduced": ok,
    }
    if as_json:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        out.write("example1 report\n")
        out.write(f"  chi: base {chi_base}, glued {chi_x} "
                  f"(3 blocks, drop {chi_base - chi_x})\n")
        out.write(f"  intrinsic metric: link check {intrinsic.verdict}, "
                  f"shortest cycle {_fmt(cycle_len)} < 2*pi\n")
        out.write(f"  override metric (angles 2*pi/3): link check "
                  f"{override.verdict} at girth {_fmt(override_girth)}\n")
        out.write(f"  obstruction reproduced: {_fmt(ok)}\n")
    return EXIT_PASS if ok else EXIT_FAIL


def _report_example2(out, as_json):
    """Obstruction chain for the second gluing counterexample."""
    house = builders.house_with_two_rooms()
    house_free = free_faces(house.complex)
    bz = homology.betti(house.complex, homology.RING_Z)
    b2 = homology.betti(house.complex, homology.RING_GF2)

    box = builders.box_complex(4, 3, 2)
    lemma = homology.solid_chain_check(box.complex, house.complex)

    x = builders.example_complex(builders.EXAMPLE2)
    r = len(house.complex.k_simplices(2))
    bx = homology.betti(x.complex, homology.RING_Z)
    chi_ok = euler_characteristic(x.complex) == \
        euler_characteristic(box.complex) - 2 * r

    ok = (not house_free
          and bz.ranks == (1, 0, 0) and b2.ranks == (1, 0, 0)
          and lemma.verdict == CONTRADICTION
          and bx.ranks[3] == 2 * r
          and chi_ok)
    payload = {
        "example": "example2",
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
    if as_json:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        out.write("example2 report\n")
        out.write(f"  house: {len(house_free)} free faces, betti(Z) "
                  f"{list(bz.ranks)}, betti(Z2) {list(b2.ranks)}\n")
        out.write(f"  solid chain certificate on (box, house): "
                  f"{lemma.verdict}\n")
        out.write(f"  glued complex: b3 = {bx.ranks[3]} with "
                  f"{r} blocks attached twice over (expected {2 * r})\n")
        out.write(f"  chi additivity: {_fmt(chi_ok)}\n")
        out.write(f"  obstruction reproduced: {_fmt(ok)}\n")
    return EXIT_PASS if ok else EXIT_FAIL


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
    except (OSError, ValueError, metric.MetricError, ComplexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
