"""One fresh interpreter of the benchmark: set-up only, timed passes, or a
traced run. run.py starts it from the root of a circio checkout:

    python3 perfbench/child.py {setup,run,trace} WORKLOAD SEED SECONDS

and reads the JSON object on the last line of its standard output.

setup_s runs from just before `import circio` to the end of building the
workload (workloads.build). The arguments are read by hand, and only os,
sys, time and the calibration loop are loaded before the clock starts, so
no module that circio also imports is loaded outside it.
"""

import os
import sys
import time

import calibration

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
TRACED_PASSES = 2
MODES = ("setup", "run", "trace")


def main() -> int:
    if len(sys.argv) != 5 or sys.argv[1] not in MODES:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    mode, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])

    before = calibration.sample()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import circio

    if os.path.dirname(os.path.abspath(circio.__file__)) != os.path.join(SRC, "circio"):
        print(f"circio imported from {circio.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.build(name, seed, OUT)
    setup_s = time.perf_counter() - start
    loop_s = (before + calibration.sample()) / 2
    setup = {"setup_s": setup_s, "setup_calibration_s": loop_s}
    if mode == "setup":
        return emit(setup)

    import resource

    untraced = run_passes(workload, seconds)
    out = {
        **setup,
        "passes": [summary(p) for p in untraced],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(circio),
    }
    if mode == "trace":
        out.update(traced_run(workload, untraced, f"{name}-seed{seed}"))
    return emit(out)


def run_passes(workload, seconds: float) -> list:
    """Whole passes until `seconds` have gone by; at least one."""
    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        passes.append(workload.run_pass())
    return passes


def summary(result) -> dict:
    return {
        "busy_s": result.busy_s,
        "items": result.items,
        "attempted": result.attempted,
        "latencies_s": result.latencies_s,
        "calibration_s": result.calibration_s,
        "failures": result.failures,
        "fingerprint": result.fingerprint(),
    }


def traced_run(workload, untraced: list, stem: str) -> dict:
    """Run traced passes and compare them with the untraced ones.

    Tracing must not change any output, the counts must repeat exactly from
    one traced pass to the next, and every binding must be restored.
    """
    import statistics

    import circio.theta
    from tracing import Tracer

    original = circio.theta.theta_image
    problems: list = []
    layers: list = []
    traced: list = []
    for _ in range(TRACED_PASSES):
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(workload.run_pass())
        finally:
            problems.extend(tracer.restore())
        layers.append(tracer.layer_metrics())
    if circio.theta.theta_image is not original:
        problems.append("circio.theta.theta_image is not the original after tracing")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, "spans-" + stem))

    fingerprints = {summary(p)["fingerprint"] for p in untraced + traced}
    if len(fingerprints) != 1:
        problems.append(f"outputs differ between passes: {sorted(fingerprints)}")
    timed = {k for k in layers[0] if k.endswith(("_s", "hit_ratio"))}
    for k in layers[0]:
        if k not in timed and any(layer[k] != layers[0][k] for layer in layers):
            problems.append(f"{k} differs between traced passes: {[l[k] for l in layers]}")
    merged = {
        k: statistics.median(layer[k] for layer in layers) if k in timed else layers[0][k]
        for k in layers[0]
    }
    return {
        "traced_passes": [summary(p) for p in traced],
        "layers": merged,
        "trace_problems": problems,
        "spans": len(tracer),
    }


def environment(circio) -> dict:
    import platform
    from importlib import metadata

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "cpu_count": os.cpu_count(),
        "workers": circio.worker_count(None),
        "CIRCIO_WORKERS": os.environ.get("CIRCIO_WORKERS"),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(obj: dict) -> int:
    import json

    print(json.dumps(obj))
    return 0


if __name__ == "__main__":
    sys.exit(main())
