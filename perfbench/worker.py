"""
Workload process of the pfc benchmark.  run.py starts a fresh one per
set-up, measurement or capture; it prints one JSON object as its last line.

    worker.py setup   --workload W --seed N --workdir DIR
    worker.py measure --workload W --seed N --workdir DIR --seconds S --trace 0|1
    worker.py capture --workload W --workdir DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import (DEFAULT_SEED, ROOT, betti_sum, compare, prepare,
                       run_op, sha256)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"


class CounterDrift(Exception):
    """A work counter differs from the reference: the run measured other work."""


def import_program() -> float:
    """Import pfcomplex from this checkout's src/; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "pfcomplex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'pfcomplex'}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import pfcomplex
    seconds = perf_counter() - t0
    if Path(pfcomplex.__file__).resolve().parent != (src / "pfcomplex").resolve():
        raise SystemExit(f"perfbench: imported pfcomplex from "
                         f"{pfcomplex.__file__}, not from {src}")
    return seconds


def fact_counters(facts_list) -> dict:
    out = Counter()
    for facts in facts_list:
        out["betti_sum"] += betti_sum(facts)
        if "steps" in facts:
            out["collapse_steps"] += facts["steps"]
            out["collapse_cells_out"] += facts["cells"]
    return dict(out)


class Runner:
    """Runs passes over a workload's ops and checks every result."""

    def __init__(self, ops, seed, reference):
        self.ops = ops
        self.seed = seed
        self.ref = reference
        self.attempted = 0
        self.failed = 0

    def _fail(self, op, why):
        self.failed += 1
        print(f"perfbench: op {op.id!r} failed: {why}", file=sys.stderr)

    def run_pass(self, tracer=None):
        """One pass over the ops: (seconds, work counters).

        With a tracer the pass runs the same program with the tracer's
        wrappers installed, and its counters include the tracer's.
        """
        total = 0.0
        seen = []
        if tracer is not None:
            tracer.install()
        try:
            for op in self.ops:
                gc.collect()
                self.attempted += 1
                if tracer is not None:
                    tracer.op = op.id
                try:
                    dt, code, text, facts = run_op(op)
                except Exception:
                    self._fail(op, traceback.format_exc())
                    continue
                total += dt
                seen.append(facts)
                bad = compare(op, self.seed, self.ref["ops"][op.id], code,
                              text, facts)
                if bad:
                    self._fail(op, ("traced: " if tracer else "")
                               + "; ".join(bad))
        finally:
            if tracer is not None:
                tracer.uninstall()
        counts = fact_counters(seen)
        if tracer is not None:
            counts.update(tracer.counts)
        return total, counts


def _check_counters(kind, got, expected):
    if got != expected:
        diff = {k: (got.get(k), expected.get(k))
                for k in sorted(set(got) | set(expected))
                if got.get(k) != expected.get(k)}
        raise CounterDrift(f"{kind} work counters drifted from the "
                           f"reference (got, expected): {diff}")


def measure(args) -> dict:
    import_program()
    import numpy

    ops = prepare(args.workload, args.seed, Path(args.workdir))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    runner = Runner(ops, args.seed, reference)
    expected = reference["counters"][args.workload]

    walls, traced_walls, layer_runs, module_runs, spans = [], [], [], [], []
    counters = {}
    start = perf_counter()
    while True:
        # traced runs alternate untraced and traced passes, untraced first
        if args.trace and len(walls) > len(traced_walls):
            from tracer import Tracer, layer_times

            tracer = Tracer()
            seconds, counts = runner.run_pass(tracer)
            _check_counters("traced", counts, expected["traced"])
            counters["traced"] = counts
            traced_walls.append(seconds)
            layers, modules = layer_times(tracer.spans)
            layer_runs.append(layers)
            module_runs.append(modules)
            spans.append(tracer.spans)
        else:
            seconds, counts = runner.run_pass()
            _check_counters("untraced", counts, expected["untraced"])
            counters["untraced"] = counts
            walls.append(seconds)
        if perf_counter() - start >= args.seconds and \
                (traced_walls or not args.trace):
            break

    result = {
        "walls": walls,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "counters": counters,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        from tracer import LAYER_METRICS

        result["traced_walls"] = traced_walls
        layer = {}
        for name, (unit, _, moves) in LAYER_METRICS.items():
            if unit == "s":
                value = statistics.median(r[name] for r in layer_runs)
            elif unit == "count":
                value = counters["traced"].get(name, 0)
            else:
                value = statistics.median(traced_walls) / \
                    statistics.median(walls)
            layer[name] = {"value": value, "unit": unit, "moves": moves}
        result["layer"] = layer
        result["modules"] = {m: statistics.median(r[m] for r in module_runs)
                             for m in module_runs[0]}
        result["trace_file"] = str(_write_spans(args, spans))
    return result


def _write_spans(args, passes) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for sid, name, start, end, parent, op in spans:
                fh.write(json.dumps({"pass": k, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    return path.relative_to(ROOT)


def setup(args) -> dict:
    import_seconds = import_program()
    t0 = perf_counter()
    prepare(args.workload, args.seed, Path(args.workdir))
    prepare_seconds = perf_counter() - t0
    return {"setup_s": import_seconds + prepare_seconds,
            "import_s": import_seconds, "prepare_s": prepare_seconds}


def capture(args) -> dict:
    """Reference data of this program: every op's exit code, bytes, facts."""
    import_program()
    from tracer import Tracer

    ops = prepare(args.workload, DEFAULT_SEED, Path(args.workdir))
    entries = {}
    seen = []
    for op in ops:
        _, code, text, facts = run_op(op)
        entries[op.id] = {"exit": code,
                          "sha256": None if text is None else sha256(text),
                          "bytes": None if text is None else len(text),
                          "facts": facts}
        seen.append(facts)
    ref = {"ops": entries}
    runner = Runner(ops, DEFAULT_SEED, ref)
    _, counts = runner.run_pass(Tracer())
    if runner.failed:
        raise SystemExit("perfbench: the traced pass disagrees with the "
                         "untraced one; see above")
    return {"ops": entries, "counters": {"untraced": fact_counters(seen),
                                         "traced": counts}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=["setup", "measure", "capture"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    run = {"setup": setup, "measure": measure, "capture": capture}[args.mode]
    try:
        result = run(args)
    except CounterDrift as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
