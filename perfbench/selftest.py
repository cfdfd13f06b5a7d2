"""Self-test of the benchmark at reduced size: python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with ``--size smoke``, untraced and
traced, from the root of the checkout, and asserts that:

* the last line is the result object with exactly its four keys;
* every metric BENCHMARK.json names for that mode is emitted with its unit;
* no operation failed (fail_frac is 0), the byte-identity check of the
  traced run included;
* the per-layer self times of a traced run account for its traced wall time.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Benchmark glue (loop, argv lists) may take this share of a traced wall time.
UNATTRIBUTED_SHARE = 0.05


def _run(workload: str, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _problems(result: dict, declared: list, trace: int) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            out.append(f"{m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            out.append(f"{m['name']} emitted as {got}, declared unit {m['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        out.append(f"undeclared metrics {sorted(extra)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        out.append(f"fail_frac {result['failed']}/{result['attempted']}")
    if trace:
        wall = result["metrics"]["trace.wall_s"]["value"]
        rest = result["metrics"]["trace.unattributed_s"]["value"]
        if not 0.0 <= rest <= UNATTRIBUTED_SHARE * wall:
            out.append(f"self times leave {rest:.4f} s of {wall:.4f} s traced wall time unattributed")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracing

    failed = []
    if [name for name, _ in tracing.PER_LAYER] != [m["name"] for m in bench["per_layer"]]:
        failed.append("tracing.PER_LAYER and BENCHMARK.json per_layer list different metrics")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            declared = bench["per_layer" if trace else "end_to_end"]
            try:
                problems = _problems(_run(workload, trace), declared, trace)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
                problems = [str(exc)]
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failed += problems
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
