"""One workload in one fresh interpreter: a closed loop with a single caller.

Started by run.py from the root of a source checkout.  It prints ``READY``
once ``projclt.cli`` is imported and the workload's inputs are built, then
human-readable lines, and ``RESULT <json>`` last.  With ``--probe`` it stops
after ``READY``; run.py times those probes for ``setup_s``.

Each operation waits for the one before it.  Untraced runs report ``wall_s``,
the sum over operations of the fastest time each took in the run (other
tenants of a small shared host slow whole stretches of a run, and the
fastest repeat is the steadiest estimate of the work itself), and
``peak_rss_mb``, the median over iterations of the peak RSS while the
operations ran.  Traced runs alternate an untraced and a traced iteration on
the same inputs, check that both leave byte-identical artifacts, and report
per-layer metrics from the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
# Each operation's fastest time is taken over at least this many repeats.
MIN_ITERATIONS = 3


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--root", required=True)
    p.add_argument("--probe", action="store_true")
    return p.parse_args(argv)


def _feed(h, value):
    if hasattr(value, "tobytes"):
        h.update(value.tobytes())
    elif isinstance(value, tuple):
        for v in value:
            _feed(h, v)
    elif hasattr(value, "to_jsonable"):
        h.update(json.dumps(value.to_jsonable(), sort_keys=True).encode())
    else:
        h.update(repr(value).encode())


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 24), b""):
            h.update(block)
    return h.hexdigest()


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label, failures_by_op):
        self.attempted += len(failures_by_op)
        for op, msgs in failures_by_op.items():
            if msgs:
                self.failures.append(f"{label}/{op}: {'; '.join(msgs)}")


def _reset_peak_rss():
    """Restart the kernel's peak-RSS mark, so ru_maxrss covers what follows.

    Where /proc/self/clear_refs is missing, ru_maxrss stays the process peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def run_iteration(iteration, i, workdir, outcome, digests=False, tracer=None):
    """Run one iteration; tracing, if given, covers the operations and not the gates.

    Returns (per-operation seconds, artifact digests, artifact bytes, peak RSS
    in MiB while the operations ran).
    """
    op_times = {}
    found = {}
    artifact_bytes = 0
    peak_kib = 0
    for k, make in enumerate(iteration(i, workdir)):
        d = os.path.join(workdir, f"it{i}-step{k}")
        os.makedirs(d)
        step = make(d)
        results = {}
        _reset_peak_rss()
        with tracer or contextlib.nullcontext():
            for name, fn in step.ops:
                t0 = time.perf_counter()
                try:
                    results[name] = fn()
                except Exception:  # counted as failed; the step's later operations are skipped
                    results[name] = traceback.format_exc(limit=3)
                    break
                finally:
                    op_times[f"{step.name}/{name}"] = time.perf_counter() - t0
        peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        label = f"iter{i}/{step.name}"
        if len(results) < len(step.ops) or any(isinstance(r, str) for r in results.values()):
            outcome.add(label, {
                name: [results[name] if isinstance(results.get(name), str) else "not checked"]
                for name, _ in step.ops
            })
        else:
            try:
                checked = step.check(results, d)
            except Exception:  # a gate that cannot read the outputs fails them
                checked = {name: [traceback.format_exc(limit=3)] for name, _ in step.ops}
            outcome.add(label, checked)
        for name in sorted(os.listdir(d)):
            path = os.path.join(d, name)
            artifact_bytes += os.path.getsize(path)
            if digests:
                found[f"{step.name}/{name}"] = _file_digest(path)
        if digests:
            for name, value in results.items():
                h = hashlib.sha256()
                _feed(h, value)
                found[f"{step.name}/{name}"] = h.hexdigest()
        shutil.rmtree(d)
    return op_times, found, artifact_bytes, peak_kib / 1024.0


def _untraced(args, iteration, workdir, outcome):
    import machine

    print("machine " + json.dumps(machine.record()), flush=True)
    runs, peaks = [], []
    begin = time.perf_counter()
    i = 0
    while True:
        op_times, _, _, peak = run_iteration(iteration, i, workdir, outcome)
        runs.append(op_times)
        peaks.append(peak)
        print(f"iteration {i}: wall {sum(op_times.values()):.4f} s, peak RSS {peak:.1f} MiB", flush=True)
        i += 1
        if i >= MIN_ITERATIONS and time.perf_counter() - begin >= args.seconds:
            break
    walls = [sum(r.values()) for r in runs]
    ops = {op for r in runs for op in r}
    best = sum(min(r[op] for r in runs if op in r) for op in ops)
    print(
        f"iteration wall median {statistics.median(walls):.4f} s, min {min(walls):.4f} s; "
        f"sum of per-operation minima {best:.4f} s over {len(walls)} iterations",
        flush=True,
    )
    return {"wall_s": best, "peak_rss_mb": statistics.median(peaks)}


def _traced(args, iteration, workdir, outcome):
    import machine
    import tracing
    import workloads

    record = machine.record()
    copy = machine.copy_bandwidth(record["llc_bytes"])
    print("machine " + json.dumps({**record, **copy}), flush=True)
    tracer = tracing.Tracer(uuid.uuid4().hex)
    per_iteration, overheads = [], []
    begin = time.perf_counter()
    i = 0
    while True:
        walls, found = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            mark = len(tracer.spans)
            op_times, found[traced], artifact_bytes, _ = run_iteration(
                iteration, i, workdir, outcome, digests=True, tracer=tracer if traced else None
            )
            walls[traced] = sum(op_times.values())
            if traced:
                metrics = tracing.span_metrics(tracer.spans[mark:], walls[traced])
                metrics["cli.artifact_bytes"] = artifact_bytes
                per_iteration.append(metrics)
        same = found[True] == found[False]
        outcome.add(f"iter{i}", {"traced_artifacts_identical": [] if same else ["artifacts differ"]})
        overheads.append(walls[True] - walls[False])
        print(f"iteration {i}: untraced {walls[False]:.4f} s, traced {walls[True]:.4f} s, "
              f"{len(found[True])} artifacts {'identical' if same else 'DIFFER'}", flush=True)
        i += 1
        if time.perf_counter() - begin >= args.seconds:
            break

    metrics = tracing.median_metrics(per_iteration)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["machine.copy_gb_s"] = copy["copy_gb_s"]
    speedup = {k: 0.0 for k in tracing.KINDS}
    if args.workload == "catalog_io":
        speedup, failures = workloads.thread_scaling(args.seed, args.size)
        outcome.add("thread_scaling", failures)
    for kind, value in speedup.items():
        metrics[f"samplers.sample_body.speedup_t2.{kind}"] = value

    out_dir = os.path.join(args.root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}-{tracer.run_id}.jsonl")
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "machine": {**record, **copy}})
    print(f"spans written to {os.path.relpath(path, args.root)}", flush=True)
    share = {
        layer: metrics[f"{layer}.self_s"] / metrics["trace.wall_s"] for layer in tracing.LAYERS
    }
    print("layer share of traced wall_s " + json.dumps({k: round(v, 4) for k, v in share.items()}))
    return {name: metrics[name] for name, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    args = _parse(argv)
    args.root = os.path.abspath(args.root)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import projclt
    import projclt.cli  # noqa: F401  (the import every CLI user pays)

    if not os.path.abspath(projclt.__file__).startswith(src + os.sep):
        print(f"error: projclt imported from {projclt.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    iteration = workloads.WORKLOADS[args.workload](args.seed, args.size)
    print("READY", flush=True)
    if args.probe:
        return 0

    outcome = Outcome()
    work_root = os.path.join(args.root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        run = _traced if args.trace else _untraced
        metrics = run(args, iteration, workdir, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in outcome.failures:
        print("FAILED " + line, flush=True)
    result = {"attempted": outcome.attempted, "failed": len(outcome.failures), "metrics": metrics}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
