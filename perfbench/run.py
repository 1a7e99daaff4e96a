"""Benchmark of tfm: seeded workloads timed end to end, and a traced run
that breaks the time down by layer.

    python3 perfbench/run.py --workload mmp --seed 1 --seconds 50 --trace 0

Run from anywhere inside a source checkout; tfm is imported from the
checkout's src/ and nowhere else.  One process, one thread, closed loop:
the next operation starts when the previous one returns.

Set-up imports tfm and generates the workload's corpus from the seed.
setup_s is the median time of importing tfm in five fresh interpreters
plus the median of five generations.  With --trace 0 the run then
executes whole cycles of the corpus until it has spent --seconds
seconds in operations and run at least MIN_OPS of them, so that ten
latency samples lie beyond p90, and reports the end-to-end metrics.
With --trace 1 it executes the first cycle of the corpus untraced,
traced and untraced again, and reports the per-layer metrics of the
traced pass and its overhead against the second untraced pass; the
traced operations are fixed, so their counts repeat exactly.  Every
operation is verified outside the timer.

A workload may also carry known defects: instances that reproduce an
open bug of tfm (the cohomology workload carries the undercounting box
of ROADMAP item 2).  They run once after the measured operations, are
verified like them, and their verdicts are printed and kept in the
provenance line, but they are neither timed nor counted in attempted,
failed or correct.

Output: one line per failed input, one per known-defect instance, a
provenance line, and as the last line a JSON object with the keys
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BENCHMARK.json lists mmp and cli only.  On a shared 2-core host the
# machine's speed drifts over tens of seconds, so only runs of about 50 s
# are steady, and the benchmark's time budget holds two workloads of that
# length.  mmp runs every Mori layer, and cli's README commands reach the
# cohomology kernel; cone_check and cohomology stay here for measuring
# the cone-theorem and cohomology verdicts on their own.
WORKLOADS = ("cone_check", "mmp", "cohomology", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100  # p90 of 100 samples leaves 10 beyond it


def import_tfm() -> None:
    """Import tfm from this checkout and nowhere else."""
    if not (SRC / "tfm" / "__init__.py").is_file():
        raise SystemExit("perfbench: no tfm sources at %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import tfm  # noqa: F401
    import workloads  # noqa: F401  (imports every tfm module it calls)
    if SRC.resolve() not in Path(tfm.__file__).resolve().parents:
        raise SystemExit("perfbench: imported tfm from %s, not %s" % (tfm.__file__, SRC))


# what a fresh interpreter pays to import tfm and the workload modules
IMPORT_TIMER = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    "import tfm, workloads; print(time.perf_counter() - t0)"
)


def import_seconds() -> list:
    """Import times of SETUP_REPEATS fresh interpreters; this process has
    imported tfm only once, so it cannot time the import again."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
            check=True, capture_output=True, text=True, cwd=ROOT, timeout=120,
        ).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def generate(workload: str, seed: int, work: str):
    import workloads

    if workload == "cli":
        return workloads.cli_corpus(seed, str(ROOT), work)
    return {
        "cone_check": workloads.cone_check_corpus,
        "mmp": workloads.mmp_corpus,
        "cohomology": workloads.cohomology_corpus,
    }[workload](seed)


def run_group(group, tracer=None):
    """Run and verify one group; returns [op, seconds, failure] rows."""
    rows = []
    summaries = []
    for op in group.ops:
        # start every operation without garbage left by the previous one
        # or by its checks
        gc.collect()
        if tracer is not None:
            tracer.begin_op(len(tracer.spans), op.kind)
        t0 = perf_counter()
        try:
            result = op.run(op.data)
            failure = None
        except Exception as exc:  # a raising operation is a failed operation
            failure = "raised %s: %s" % (type(exc).__name__, exc)
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        summary = None
        if failure is None:
            try:
                failure, summary = op.verify(op.data, result)
            except Exception as exc:
                failure = "check raised %s: %s" % (type(exc).__name__, exc)
        summaries.append(summary if failure is None else None)
        rows.append([op, seconds, failure])
    if group.check is not None:
        for i, reason in group.check(summaries).items():
            rows[i][2] = rows[i][2] or reason
    return rows


def measure(groups, cycle: int, seconds: float):
    """Whole cycles of the corpus until `seconds` of operation time and
    MIN_OPS operations are reached; whole cycles give every seed the same
    mix of instance sizes."""
    rows = []
    busy = 0.0
    i = 0
    while busy < seconds or len(rows) < MIN_OPS or i % cycle:
        new = run_group(groups[i % len(groups)])
        busy += sum(r[1] for r in new)
        rows += new
        i += 1
    return rows


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between order statistics, as
    statistics.quantiles(method="inclusive"); inf if it touches an inf."""
    h = (len(sorted_values) - 1) * q
    lo = math.floor(h)
    if h == lo:
        return sorted_values[lo]
    a, b = sorted_values[lo], sorted_values[lo + 1]
    return a + (h - lo) * (b - a) if b != math.inf else math.inf


def end_to_end(rows, setup_s: float) -> dict:
    busy = sum(r[1] for r in rows)
    verified = sum(1 for r in rows if r[2] is None)
    # a failed operation misses every latency limit; should a percentile
    # land on one, it reads as the whole run's operation time
    lat = sorted(r[1] if r[2] is None else math.inf for r in rows)

    def pct_ms(q):
        v = quantile(lat, q)
        return 1000 * (busy if v == math.inf else v)

    return {
        "ops_per_s": (verified / busy, "1/s"),
        "op_ms_p50": (pct_ms(0.5), "ms"),
        "op_ms_p90": (pct_ms(0.9), "ms"),
        "verified_frac": (verified / len(rows), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(groups):
    """A traced pass over the groups between two untraced ones; the first
    takes the warm-up, the second is the baseline for the overhead."""
    import tracing

    def one_pass(tracer=None):
        rows = []
        for group in groups:
            rows += run_group(group, tracer)
        return rows, sum(r[1] for r in rows)

    warm_rows, _ = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_rows, traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    base_rows, untraced_s = one_pass()
    metrics = tracer.metrics()
    metrics["trace.ops"] = (len(traced_rows), "count")
    metrics["trace.overhead_frac"] = (1 - untraced_s / traced_s, "frac")
    return warm_rows + traced_rows + base_rows, metrics


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tfm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, rows, extra) -> dict:
    import tfm

    ops: dict = {}
    for op, _, failure in rows:
        entry = ops.setdefault(op.kind, {"attempted": 0, "failed": 0})
        entry["attempted"] += 1
        entry["failed"] += failure is not None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": tfm.KERNEL_BACKEND,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "ops": ops,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_tfm()
    import_runs = import_seconds()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            generated = generate(args.workload, args.seed, work)
            times.append(perf_counter() - t0)
        setup_s = statistics.median(import_runs) + statistics.median(times)
        if args.trace:
            import tracing

            rows, metrics = traced(generated.groups[: generated.cycle])
            extra = {"layer_moves": tracing.moves()}
        else:
            rows = measure(generated.groups, generated.cycle, args.seconds)
            metrics = end_to_end(rows, setup_s)
            lat = sorted(r[1] for r in rows)
            extra = {
                "latency_samples": len(rows),
                "beyond_p90": sum(1 for x in lat if x > quantile(lat, 0.9)),
                "op_seconds": sum(lat),
                "setup_runs_s": times,
                "import_runs_s": import_runs,
            }
        known = {}
        for group in generated.known_defects:
            failures = [r[2] for r in run_group(group) if r[2] is not None]
            known[group.ops[-1].name] = failures[0] if failures else None
        extra["known_defects"] = known
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in rows if r[2] is not None]
    seen = set()
    for op, _, failure in failed:
        if op.name not in seen:
            seen.add(op.name)
            print("failed: %s: %s; input %r" % (op.name, failure, op.data))
    for name, failure in known.items():
        print("known defect %s: %s" % (name, failure or "no longer reproduces"))
    print(json.dumps({"provenance": provenance(args, rows, extra)}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
