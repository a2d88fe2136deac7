#!/usr/bin/env python3
"""circio benchmark. Run from the root of a circio checkout:

    python3 perfbench/run.py --workload {family54,scan,pairs} --seed N \
        --seconds S --trace {0,1}

With --trace 0 it reports the end-to-end metrics: setup_s is the median of
eight fresh interpreters that import circio and build the workload's inputs;
the rest come from one more fresh interpreter that runs whole passes of the
workload for S seconds. With --trace 1 the passes are followed by traced
passes, and it reports the per-layer metrics and the tracing overhead.

Every pass checks its outputs. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when every check passed. A readable report goes before it and, in
full, to perfbench/out/report-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("family54", "scan", "pairs")
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 8
TIME_LIMIT_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "circio", "__init__.py")):
        print("perfbench: no ./src/circio here; run from the root of a circio checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            report = traced(args, deadline)
        else:
            report = untraced(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in report["lines"]:
        print(line)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class ChildFailed(Exception):
    pass


def child(mode: str, args, deadline: float) -> dict:
    """Run child.py in a fresh interpreter; return its last JSON line."""
    env = dict(os.environ, CIRCIO_WORKERS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           args.workload, str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    """Median and quartiles with the sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarize(passes: list) -> dict:
    """Throughput, latencies and failures of a run's passes.

    Each operation's time is first scaled by the calibration loop timed just
    before and after it (calibration.py), which takes out most of the
    machine's changes of speed; then its median over the passes is taken.
    items_per_s is a pass's items over the sum of those latencies; the
    latency percentiles are taken over the operations of one pass. The
    unscaled wall-clock rate of the passes is reported beside them.
    """
    scaled = [
        [calibration.scaled(t, c) for t, c in zip(p["latencies_s"], p["calibration_s"])]
        for p in passes
    ]
    latencies_ms = [statistics.median(op) * 1000.0 for op in zip(*scaled)]
    items = statistics.median(p["items"] for p in passes)
    p95 = statistics.quantiles(latencies_ms, n=100, method="inclusive")[94]
    count = {"operations": len(latencies_ms), "passes": len(passes)}
    wall = spread([p["items"] / p["busy_s"] for p in passes])
    per_op = spread(latencies_ms)
    return {
        "stats": {
            "items_per_s": {"value": items * 1000.0 / sum(latencies_ms), "items": items, **count,
                            "wall_q1": wall["q1"], "wall_median": wall["median"],
                            "wall_q3": wall["q3"]},
            "query_p50_ms": {"value": per_op["median"], "q1": per_op["q1"], "q3": per_op["q3"],
                             **count},
            "query_p95_ms": {"value": p95, **count,
                             "beyond": sum(1 for x in latencies_ms if x > p95)},
        },
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
    }


def untraced(args, deadline: float) -> dict:
    # A warm-up interpreter fills the bytecode and file caches. The set-ups
    # measured are split around the timed run, so that one burst of load
    # from other processes cannot slow them all.
    child("setup", args, deadline)
    setups = [setup_time(child("setup", args, deadline)) for _ in range(SETUP_RUNS // 2)]
    run = child("run", args, deadline)
    setups += [setup_time(child("setup", args, deadline)) for _ in range(SETUP_RUNS - len(setups))]

    summary = summarize(run["passes"])
    stats = {
        "setup_s": spread(setups),
        **summary["stats"],
        "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024.0},
    }
    metrics = {
        name: {"value": s.get("median", s.get("value")), "unit": END_TO_END[name]}
        for name, s in stats.items()
    }
    attempted, failures = summary["attempted"], summary["failures"]
    lines = header(args, run) + [
        f"{name:<14} {metrics[name]['value']:.6g} {END_TO_END[name]}  {describe(s)}"
        for name, s in stats.items()
    ]
    lines.append(f"{'failed_frac':<14} {len(failures)}/{attempted} operations")
    lines.extend(f"FAILED {f}" for f in failures)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env": run["env"], "stats": stats, "metrics": metrics,
            "attempted": attempted, "failed": len(failures), "failures": failures,
            "passes": run["passes"], "lines": lines}


def traced(args, deadline: float) -> dict:
    run = child("trace", args, deadline)
    plain, traced_ = summarize(run["passes"]), summarize(run["traced_passes"])
    rate = plain["stats"]["items_per_s"]["value"]
    traced_rate = traced_["stats"]["items_per_s"]["value"]
    layers = dict(run["layers"], **{"bench.trace_overhead": rate / traced_rate})
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    problems = run["trace_problems"]
    attempted = plain["attempted"] + traced_["attempted"]
    failures = plain["failures"] + traced_["failures"] + problems
    lines = header(args, run) + [
        f"items_per_s untraced {rate:.6g}, traced {traced_rate:.6g}; tracing overhead "
        f"{rate / traced_rate:.4g}x; {run['spans']} spans in the last traced pass",
        "traced and untraced outputs identical, counts repeat, bindings restored"
        if not problems else f"{len(problems)} tracing check(s) failed",
    ]
    lines.extend(f"{name:<44} {metrics[name]['value']:.6g} {unit}" for name, unit, _ in PER_LAYER)
    lines.extend(f"FAILED {f}" for f in failures)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env": run["env"], "metrics": metrics, "attempted": attempted,
            "failed": len(failures), "failures": failures, "lines": lines}


def setup_time(out: dict) -> float:
    """A child's set-up time, scaled by the calibration loop around it."""
    return calibration.scaled(out["setup_s"], out["setup_calibration_s"])


def header(args, run: dict) -> list:
    env = " ".join(f"{k}={v}" for k, v in run["env"].items())
    return [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace}", f"env {env}"]


def describe(s: dict) -> str:
    parts = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in s.items()]
    return "(" + ", ".join(parts) + ")"


if __name__ == "__main__":
    sys.exit(main())
