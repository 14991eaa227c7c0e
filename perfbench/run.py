"""
The pfc benchmark.

One run of one workload:

    python3 perfbench/run.py --workload report|certify|reshape \\
        --seed N --seconds S --trace 0|1

starts one fresh measuring process between fresh set-up processes (import
plus input generation; half before, half after, so their median samples the
machine at both ends of the run), each single-threaded.  The measuring
process repeats the workload's ops in passes for S seconds, checks every
output against perfbench/reference.json and stops loudly if a work counter
drifts.  With --trace 0 the run reports the end-to-end metrics (wall_s is
the median pass time); with --trace 1 it alternates untraced passes with
traced ones (the same program with perfbench/tracer.py's spans installed)
and reports the per-layer metrics instead.  Every metric is
printed with its unit; the last stdout line is one JSON object.

A series of runs with seeds 1..N, alternating the workload order between
runs, with a spread summary and the machine recorded:

    python3 perfbench/run.py --suite --runs 10 [--seconds S] [--trace 0|1]

S defaults to run_seconds of BENCHMARK.json.

perfbench/results/<rev>.json keeps such a record for a commit.

Re-capture the reference outputs from the program as it is:

    python3 perfbench/run.py --capture
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 10
RUN_LIMIT_S = 170.0   # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode, workload, workdir, deadline, **opts):
    argv = [sys.executable, str(WORKER), mode, "--workload", workload,
            "--workdir", str(workdir)]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              env=_child_env(), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """One run: the measurement between set-ups; returns the result dict."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        setups = [_worker("setup", workload, workdir, deadline, seed=seed)
                  for _ in range(SETUP_RUNS // 2)]
        result = _worker("measure", workload, workdir, deadline, seed=seed,
                         seconds=seconds, trace=trace)
        setups += [_worker("setup", workload, workdir, deadline, seed=seed)
                   for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    walls = result["walls"]
    q1, _, q3 = _quartiles(walls)
    result.update(workload=workload, seed=seed, trace=trace,
                  setups=setups, wall_q1=q1, wall_q3=q3)
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(s["setup_s"] for s in setups),
              "peak_rss_mb": result["peak_rss_mb"]}
    result["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                            for k, v in values.items()}
    if trace:
        result["metrics"] = {k: {"value": v["value"], "unit": v["unit"]}
                             for k, v in result["layer"].items()}
    else:
        result["metrics"] = result["end_to_end"]
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def print_run(r):
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"python {r['python']}  numpy {r['numpy']}  nproc {r['nproc']}")
    n = len(r["walls"])
    print(f"  untraced passes: n={n}  median {statistics.median(r['walls']):.4f} s"
          f"  q1 {r['wall_q1']:.4f} s  q3 {r['wall_q3']:.4f} s")
    ratio = r["failed"] / r["attempted"]
    print("  set-up: n={}  median import {:.4f} s  median inputs {:.4f} s"
          .format(len(r["setups"]),
                  statistics.median(s["import_s"] for s in r["setups"]),
                  statistics.median(s["prepare_s"] for s in r["setups"])))
    print(f"  ops attempted {r['attempted']}  failed {r['failed']}  "
          f"fail_ratio {ratio:.4f}")
    for kind, counts in r["counters"].items():
        print(f"  work counters, {kind}: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
    traced = " (this run also traced)" if r["trace"] else ""
    for name, m in r["end_to_end"].items():
        print(f"  {name:12} {m['value']:12.4f} {m['unit']}{traced}")
    if r["trace"]:
        print(f"  traced passes: n={len(r['traced_walls'])}  spans in "
              f"{r['trace_file']}")
        print("  module self time (s): " + ", ".join(
            f"{m} {t:.4f}" for m, t in r["modules"].items()))
        print(f"  {'per-layer metric':32} {'value':>12} unit   moves")
        for name, row in r["layer"].items():
            print(f"  {name:32} {row['value']:12.4f} {row['unit']:6} "
                  f"{row['moves']}")


def result_line(r):
    return json.dumps({"correct": r["failed"] == 0,
                       "attempted": r["attempted"], "failed": r["failed"],
                       "metrics": r["metrics"]})


def _git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def suite(args):
    """Runs every workload args.runs times, alternating their order."""
    bench = _benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(WORKLOADS)
    runs = []
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            r = run_workload(workload, i + 1, args.seconds,
                             args.trace, time.monotonic() + RUN_LIMIT_S)
            runs.append(r)
            print(f"run {i} {workload} seed {r['seed']}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in r["metrics"].items()
                if v["unit"] != "count") + f", failed {r['failed']}",
                flush=True)
    summary = {}
    for workload in names:
        rows = [r for r in runs if r["workload"] == workload]
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = _quartiles(values)
            summary[f"{workload}/{metric}"] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0}
    print(f"{'workload/metric':40} {'n':>3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7}  bound")
    for key, s in summary.items():
        bound = bounds.get(key.split("/")[1])
        print(f"{key:40} {s['n']:3d} {s['median']:10.4f} {s['q1']:10.4f} "
              f"{s['q3']:10.4f} {s['spread']:7.4f}  "
              f"{'' if bound is None else bound}")
    record = {"git_rev": _git_rev(), "python": runs[0]["python"],
              "numpy": runs[0]["numpy"], "cpu": _cpu_model(),
              "nproc": runs[0]["nproc"], "seconds": args.seconds,
              "trace": args.trace, "summary": summary, "runs": runs}
    OUT.mkdir(exist_ok=True)
    path = OUT / time.strftime("suite-%Y%m%dT%H%M%S.json")
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"results in {path.relative_to(ROOT)}")


def capture():
    OUT.mkdir(exist_ok=True)
    reference = {"ops": {}, "counters": {}}
    for workload in WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        try:
            got = _worker("capture", workload, workdir,
                          time.monotonic() + 600)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference["ops"].update(got["ops"])
        reference["counters"][workload] = got["counters"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=float(_benchmark()["run_seconds"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--suite", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--capture", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.capture:
            capture()
        elif args.suite:
            suite(args)
        elif args.workload:
            r = run_workload(args.workload, args.seed, args.seconds,
                             args.trace, time.monotonic() + RUN_LIMIT_S)
            print_run(r)
            print(result_line(r))
        else:
            p.error("give --workload, --suite or --capture")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
