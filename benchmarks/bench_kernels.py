"""Time the exact kernels on representative workloads.

Runs the two hot loops: the cohomology weight scan (the dominant cost
of large vanishing checks) and integer boundary-matrix ranks.  Each
timing is the best of --repeat runs, reported in integer microseconds.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import random
import sys
import time
from pathlib import Path

# time the checkout's kernel, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tfm import kernel  # noqa: E402


def timed(fn, repeat):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        result = fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def scan_workload(box):
    """A 3-fold-sized weight scan: 12 rays with small coordinates."""
    rng = random.Random(99)
    rays = []
    while len(rays) < 12:
        v = tuple(rng.randint(-2, 2) for _ in range(3))
        if any(v):
            rays.append(v)
    flat = [x for r in rays for x in r]
    nums = [rng.randint(-6, 6) for _ in rays]
    dens = [rng.choice([1, 1, 2]) for _ in rays]
    return flat, 3, nums, dens, box, 10**9


def rank_workload():
    rng = random.Random(7)
    mats = []
    for _ in range(60):
        nr = rng.randint(6, 14)
        nc = rng.randint(6, 14)
        mats.append(
            [[rng.choice([-1, 0, 0, 1]) for _ in range(nc)] for _ in range(nr)]
        )
    return mats


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--box", type=int, default=40)
    args = parser.parse_args()

    print("weight scan over (2*%d+1)^3 cells, 12 rays" % args.box)
    scan_args = scan_workload(args.box)
    ns, out = timed(lambda: kernel.scan_weight_masks(*scan_args), args.repeat)
    print("  %10d us  (%d masks)" % (ns // 1000, len(out)))

    print("boundary-matrix ranks, 60 random sign matrices")
    mats = rank_workload()
    ns, _ = timed(lambda: [kernel.bareiss_rank(mat) for mat in mats], args.repeat)
    print("  %10d us" % (ns // 1000))
    return 0


if __name__ == "__main__":
    sys.exit(main())
