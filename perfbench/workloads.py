"""
Workloads of the pfc benchmark: their inputs, their operations and the
label-invariant facts their outputs are checked by.

Every workload is a list of operations ("ops").  An op is either a `pfc`
command, run in process through `pfcomplex.cli.run_command`, or a call of
`collapse_core`, which has no command.  The seed shuffles the op order of
every workload; for `certify` it also permutes the vertex ids of every PFC
input, so the program sees the same complexes under other labels.  Seed 0
(DEFAULT_SEED) keeps the original labels, so outputs can be compared byte
for byte with the reference captured from the program.

Why each workload is in the benchmark:

- report:  `pfc report example2` and `example1`; nearly all time is exact
  homology over Z on 195k cells and the double-torus gluing and quotient.
  Homology and gluing optimisations must show their gain here, and the
  memory of any cached index shows in peak RSS.
- certify: link-condition, extendability, Gauss-Bonnet, free-face and small
  homology checks on fixtures and generated PFC files.  The time is link
  graph construction, shortest cycles and eccentricities, parse and
  validate; it reads each complex many times, so an indexed complex must
  show its gain here, while homology stays small.
- reshape: gcify, collapse_core and serialize-heavy builds.  Every step
  makes a new complex, so an index that pays for itself on `certify` must
  not slow this write path.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
DEFAULT_SEED = 0
WORKLOADS = ("report", "certify", "reshape")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    `argv` is a pfc command line; `complex` is the input of a collapse_core
    call instead.  `permuted` marks ops whose inputs carry seed-dependent
    vertex labels, so their bytes are compared only at DEFAULT_SEED.
    """

    id: str
    argv: tuple = ()
    complex: object = None
    permuted: bool = False


# ---------------------------------------------------------------------------
# inputs


def _relabel(text: str, perm: list) -> str:
    """A PFC document with vertex v renamed perm[v]."""
    out = []
    top = -1
    declared = None
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if fields[:1] == ["s"]:
            vs = sorted(perm[int(x)] for x in fields[1:])
            top = max(top, vs[-1])
            out.append("s " + " ".join(map(str, vs)))
        elif fields[:1] == ["l"]:
            u, v = sorted((perm[int(fields[1])], perm[int(fields[2])]))
            out.append(f"l {u} {v} {fields[3]}")
        elif fields[:1] == ["vertices"]:
            declared = len(out)
            out.append(line)
        else:
            out.append(line)
    if declared is not None:
        n = int(out[declared].split()[1])
        out[declared] = f"vertices {max(n, top + 1)}"
    return "\n".join(out) + "\n"


def _vertex_count(text: str) -> int:
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["vertices"]:
            return int(fields[1])
    raise ValueError("PFC document without a vertices record")


def _certify(seed: int, workdir: Path) -> list:
    from pfcomplex import builders, pfcio

    texts = {name: (FIXTURES / f"{name}.pfc").read_text(encoding="utf-8")
             for name in ("example1", "example1_interfaces", "torus3",
                          "house")}
    texts["freegroup8"] = pfcio.serialize(builders.free_group_complex(8))
    texts["genus6"] = pfcio.serialize(builders.genus_surface(6))
    texts["genus4"] = pfcio.serialize(
        builders.genus_surface(4, identify_segments=False))
    # files in one family share vertex ids (a subcomplex and its complex),
    # so they share one permutation
    families = [("example1", "example1_interfaces"), ("torus3",), ("house",),
                ("freegroup8",), ("genus6",), ("genus4",)]
    rng = random.Random(f"certify-labels:{seed}")
    path = {}
    perm_of = {}
    for family in families:
        perm = list(range(max(_vertex_count(texts[n]) for n in family)))
        if seed != DEFAULT_SEED:
            rng.shuffle(perm)
        for name in family:
            p = workdir / f"{name}.pfc"
            p.write_text(_relabel(texts[name], perm), encoding="utf-8")
            path[name] = str(p)
            perm_of[name] = perm

    def op(op_id, *argv):
        return Op(op_id, tuple(argv), permuted=True)

    e1, j1 = path["example1"], path["example1_interfaces"]
    return [
        op("check link-cat0 example1", "check", "link-cat0", e1),
        op("check link-cat0 freegroup8", "check", "link-cat0",
           path["freegroup8"]),
        op("check extendability freegroup8", "check", "extendability",
           path["freegroup8"]),
        op("check link-cat0 genus6", "check", "link-cat0", path["genus6"]),
        op("check extendability genus6", "check", "extendability",
           path["genus6"]),
        op("check gauss-bonnet genus4", "check", "gauss-bonnet",
           path["genus4"]),
        op("check link-cat0 torus3", "check", "link-cat0", path["torus3"]),
        op("check link-cat0 example1_interfaces", "check", "link-cat0", j1),
        op("check free-faces house", "check", "free-faces", path["house"]),
        op("homology example1 z2", "homology", e1, "--ring", "z2"),
        op("homology example1 rel interfaces", "homology", e1, "--rel", j1),
        op("homology example1 local 0", "homology", e1, "--local",
           str(perm_of["example1"][0])),
        op("lemma13 example1 interfaces", "lemma13", e1, "--b", j1),
    ]


def _reshape(workdir: Path) -> list:
    from pfcomplex import builders, pfcio

    s3 = workdir / "simplex3.pfc"
    s3.write_text(pfcio.serialize(builders.simplex_complex(3)),
                  encoding="utf-8")
    box = workdir / "box211.pfc"
    box.write_text(pfcio.serialize(builders.box_complex(2, 1, 1)),
                   encoding="utf-8")
    return [
        Op("build gcify simplex3", ("build", "gcify", str(s3))),
        Op("build gcify box211", ("build", "gcify", str(box))),
        Op("collapse_core box666",
           complex=builders.box_complex(6, 6, 6).complex),
        Op("collapse_core box777",
           complex=builders.box_complex(7, 7, 7).complex),
        Op("build freegroup 16", ("build", "freegroup", "16")),
        Op("build genus 6", ("build", "genus", "6")),
        Op("build torus3 4", ("build", "torus3", "4")),
        Op("build example1", ("build", "example1")),
    ]


def _report() -> list:
    return [Op("report example2", ("report", "example2")),
            Op("report example1", ("report", "example1"))]


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Generate the inputs of a workload; return its ops in seeded order."""
    if workload == "report":
        ops = _report()
    elif workload == "certify":
        ops = _certify(seed, workdir)
    elif workload == "reshape":
        ops = _reshape(workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}-order:{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# running an op and reading its result


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def simplices_digest(c) -> str:
    return sha256(repr(sorted(c.simplices, key=lambda s: (len(s), s))))


def run_op(op: Op):
    """Run an op: (seconds, exit code, stdout or None, facts)."""
    if op.complex is not None:
        from pfcomplex import collapse_core

        t0 = perf_counter()
        res = collapse_core(op.complex)
        dt = perf_counter() - t0
        return dt, 0, None, collapse_facts(res)
    from pfcomplex import cli

    out = io.StringIO()
    t0 = perf_counter()
    code = cli.run_command(list(op.argv), out)
    dt = perf_counter() - t0
    text = out.getvalue()
    return dt, code, text, output_facts(op, code, text)


def collapse_facts(res) -> dict:
    return {"exit": 0, "steps": res.steps, "cells": len(res.complex),
            "sha256": simplices_digest(res.complex)}


_REPORT_FIELDS = {
    "example1": [
        (r"chi: base (-?\d+), glued (-?\d+)", ("chi_base", "chi_glued"), int),
        (r"intrinsic metric: link check (\w+)",
         ("intrinsic_link_verdict",), str),
        (r"override metric .*: link check (\w+)",
         ("override_link_verdict",), str),
    ],
    "example2": [
        (r"house: (\d+) free faces", ("house_free_faces",), int),
        (r"betti\(Z\) \[([\d, ]*)\]", ("house_betti_z",), "list"),
        (r"betti\(Z2\) \[([\d, ]*)\]", ("house_betti_z2",), "list"),
        (r"solid chain certificate on \(box, house\): (\w+)",
         ("solid_chain_verdict",), str),
        (r"glued complex: b3 = (\d+)", ("glued_b3_z",), int),
        (r"chi additivity: (yes|no)", ("chi_additivity",), "bool"),
    ],
}


def _convert(kind, s):
    if kind == "list":
        return [int(x) for x in s.split(",") if x.strip()]
    if kind == "bool":
        return s == "yes"
    return kind(s)


def output_facts(op: Op, code: int, text: str) -> dict:
    """Label-invariant facts of a command's output."""
    facts = {"exit": code}
    command = op.argv[0]
    if command in ("check", "lemma13"):
        lines = text.splitlines()
        facts["verdict"] = lines[0].split(": ", 1)[1]
        measured, notes = [], []
        for line in lines[1:]:
            body = line.strip()
            if body.startswith("note: "):
                notes.append(body)
            else:
                measured.append(body.split(": ", 1)[1].split(" ", 1)[0])
        facts["measured"] = sorted(measured, key=_measured_key)
        facts["notes"] = sorted(notes)
    elif command == "homology":
        lines = text.splitlines()
        facts["ranks"] = [int(x) for x in lines[0].split(": ", 1)[1].split()]
        facts["torsion"] = {
            k: [int(x) for x in factors.split(",")]
            for k, factors in re.findall(r"H(\d+)=\[([\d, ]*)\]", text)}
    elif command == "report":
        for pattern, keys, kind in _REPORT_FIELDS[op.argv[1]]:
            m = re.search(pattern, text)
            for key, value in zip(keys, m.groups()):
                facts[key] = _convert(kind, value)
        facts["obstruction_reproduced"] = \
            "obstruction reproduced: yes" in text
    elif command == "build":
        lines = text.splitlines()
        facts["facets"] = sum(1 for x in lines if x.startswith("s "))
        facts["edges"] = sum(1 for x in lines if x.startswith("l "))
        facts["sha256"] = sha256(text)
    return facts


def _as_float(s):
    try:
        return float(s)
    except ValueError:
        return None


def _measured_key(s):
    x = _as_float(s)
    return (0, x, "") if x is not None else (1, 0.0, s)


def _same(a, b) -> bool:
    if isinstance(a, str) and isinstance(b, str):
        x, y = _as_float(a), _as_float(b)
        if x is not None and y is not None:
            return x == y or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def compare(op: Op, seed: int, ref: dict, code: int, text: str | None,
            facts: dict) -> list:
    """Mismatches between an op's result and its reference entry.

    Bytes are compared when the inputs carry the reference labels; the
    label-invariant facts always, floats to 1e-9.
    """
    bad = []
    if code != ref["exit"]:
        bad.append(f"exit {code}, expected {ref['exit']}")
    if text is not None and (seed == DEFAULT_SEED or not op.permuted):
        if sha256(text) != ref["sha256"]:
            bad.append("stdout differs from the reference bytes")
    for key in sorted(set(facts) | set(ref["facts"])):
        if key not in facts or key not in ref["facts"]:
            bad.append(f"fact {key} is in only one of result and reference")
        elif not _same(facts[key], ref["facts"][key]):
            bad.append(f"{key} = {facts[key]!r:.200}, expected "
                       f"{ref['facts'][key]!r:.200}")
    return bad


def betti_sum(facts: dict) -> int:
    total = sum(facts.get("ranks", ())) + facts.get("glued_b3_z", 0)
    return total + sum(facts.get("house_betti_z", ())) + \
        sum(facts.get("house_betti_z2", ()))
