"""boxqft benchmark: one workload per process, a closed loop of passes.

    python3 perfbench/run.py --workload cli-all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; boxqft is imported from ``src/`` there.
Passes run one after another in this process (default BLAS threads) until
``--seconds`` have elapsed.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run (half the time untraced, half traced, which gives the tracing overhead).
The lines before it give the machine and provenance header and each metric by
name and unit.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOAD_NAMES = ("cli-all", "lattice-build", "spectral-sweep")
SETUP_PROBES = 5
MIN_PASSES = 2              # cli-all compares the artifacts of two passes
CHILD_TIMEOUT_S = 170


def _import_workloads():
    """Import boxqft from this tree's src/ only, then the workload module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import boxqft
    import boxqft.cli  # noqa: F401  (set-up includes the CLI import)
    if not Path(boxqft.__file__).resolve().is_relative_to(src):
        raise ImportError(f"boxqft imported from {boxqft.__file__}, not {src}")
    import workloads
    return workloads


def _self_command(args, workload, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), *extra]


def setup_seconds(args):
    """Median time from process start until boxqft and boxqft.cli are
    imported and the workload's inputs drawn, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(_self_command(args, args.workload, "--setup-probe"),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def run_passes(workload, gates, budget_s, on_pass=None):
    """Closed loop: start a pass while its median time still fits in
    budget_s (at least MIN_PASSES); return the pass times."""
    times = []
    t_start = time.perf_counter()
    while len(times) < MIN_PASSES or (time.perf_counter() - t_start
                                      + statistics.median(times) <= budget_s):
        if on_pass:
            on_pass(len(times))
        t0 = time.perf_counter()
        workload.run_pass(gates)
        times.append(time.perf_counter() - t0)
    return times


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def header(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "git_commit": _git_commit()}


def run_workload(args):
    setup_s = setup_seconds(args)
    workloads = _import_workloads()
    RESULTS.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, RESULTS)
    gates = workloads.Gates()
    hdr = header(args)
    print(json.dumps({"header": hdr}), flush=True)

    if not args.trace:
        times = run_passes(workload, gates, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": statistics.median(times), "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    else:
        import tracing
        plain = run_passes(workload, gates, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        first = len(plain)

        def on_pass(i):
            tracer.pass_id = first + i

        traced = run_passes(workload, gates, args.seconds / 2, on_pass)
        overhead = statistics.median(traced) / statistics.median(plain)
        metrics, calls = tracing.layer_metrics(
            tracer, range(first, first + len(traced)), overhead)
        for layer, (mapped, moves) in tracing.LAYER_MAP.items():
            if args.workload in mapped:
                gates.check(f"trace.{layer}.calls", calls[layer] > 0,
                            f"no call recorded; it should move {moves} here")
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"header": hdr, "layer_map": tracing.LAYER_MAP,
                                     "spans": tracer.to_json()}))
        times = traced

    for failure in gates.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    fail_ratio = len(gates.failures) / gates.attempted if gates.attempted else 1.0
    print(f"{args.workload}: pass times {[round(t, 4) for t in times]} s, "
          f"{gates.attempted} operations, fail_ratio = {fail_ratio!r}")
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']!r} {m['unit']}")
    return {"correct": gates.attempted > 0 and not gates.failures,
            "attempted": max(gates.attempted, 1),
            "failed": len(gates.failures) if gates.attempted else 1,
            "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(_self_command(args, name), stdout=subprocess.PIPE,
                             text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in result["metrics"].items()})
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        workloads = _import_workloads()
        workloads.WORKLOADS[args.workload](args.seed, RESULTS)
        print("ready", flush=True)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
