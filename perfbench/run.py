"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a projclt source checkout; the package is imported from
its ``src`` directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--size smoke`` shrinks every workload to
seconds for the self-test.

``setup_s`` is the median, over several fresh interpreters, of the time from
process start to ``projclt.cli`` imported and the workload's inputs built;
the workload's own process is one of them.  This file imports nothing beyond
the standard library, so the probes it times start cold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("clt_pipeline", "catalog_io", "kernels")
SETUP_PROBES = 4
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker_argv(args, *extra):
    return [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        "--root", ROOT, *extra,
    ]


def _start(argv, deadline):
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    return proc, timer


def _finish(proc, timer):
    proc.stdout.close()
    code = proc.wait()
    timer.cancel()
    return code


def _probe(args, deadline) -> float:
    t0 = time.perf_counter()
    proc, timer = _start(_worker_argv(args, "--probe"), deadline)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if _finish(proc, timer) != 0 or line.strip() != "READY":
        raise BenchError("setup probe failed")
    return elapsed


def _run_worker(args, deadline) -> tuple[float, dict]:
    t0 = time.perf_counter()
    proc, timer = _start(_worker_argv(args), deadline)
    setup = result = None
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        code = _finish(proc, timer)
    if code != 0 or setup is None or result is None:
        raise BenchError(f"workload process exited with code {code} without a result")
    return setup, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "projclt", "cli.py")):
        print(f"error: no projclt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [_probe(args, deadline) for _ in range(SETUP_PROBES)]
        setup, result = _run_worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        setups.append(setup)
        result["metrics"]["setup_s"] = statistics.median(setups)
        print(f"setup_s samples {[round(s, 4) for s in setups]}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(result["metrics"]):
        print("error: emitted metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} fail_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
