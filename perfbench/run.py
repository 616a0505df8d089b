"""Benchmark command: one workload per process, in a fixed BLAS and allocator setting.

    python3 perfbench/run.py --workload pop1024_small --seed 1 --seconds 25 --trace 0

Run it from a checkout of the repository; it imports ``popgraph`` from
``src/`` beside this directory. The last line of standard output is the
result object; the line before it is the run record.
"""

import os
import sys

# One BLAS thread. On a shared 2-CPU host, two threads made the step slower
# at the same seed (pop1024_small 432 against 382 ms, pop64_large 123 against
# 95 ms, one run each).
BLAS_THREADS = "1"

# glibc reads its malloc settings only at start-up, so the command re-executes
# itself once with them. With the defaults, freed step buffers went back to
# the kernel and every step faulted them in again (~17k page faults per step
# and eval on pop64_large); step time then rose by a third and its spread
# doubled with the host's load. With these, freed memory is reused.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),  # glibc's maximum
    "MALLOC_TRIM_THRESHOLD_": str(4 * 2**30),
}

if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "popgraph", "__init__.py")):
        sys.exit(f"perfbench: no popgraph package under {src}; run from a full checkout")
    env = {var: BLAS_THREADS for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(MALLOC_ENV)
    if any(os.environ.get(var) != value for var, value in env.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **env})
    sys.path[:0] = [src, here]
    import harness

    sys.exit(harness.main())
