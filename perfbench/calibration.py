"""Host-speed reference: a fixed kernel timed next to every measured interval.

On a shared host the same code runs up to ~1.5x slower for minutes at a
time, and a 25 s run cannot average over that. The benchmark therefore
times this kernel right before every step and eval pass, and scales each
interval by ``NOMINAL_MS / reference_ms``: the interval as it would read on
a host where the kernel takes ``NOMINAL_MS``. The kernel uses no
``popgraph`` code, so a change to the package cannot move it. It mixes the
kinds of work a step does, so host phases slow it alike:

- an N×32 @ 32×N product and an N×N @ N×16 product (f2, f3 and their
  backward);
- a row gather and an ``np.add.at`` scatter (f1's message passing);
- Python parsing, tuple hashing and dict and Counter updates.

A set-up is interpreter-bound (TU parsing, ``GraphBatch``, the WL
relabelling), and on the tuning host such code moved with the host's phases
unlike BLAS code. So set-ups are scaled by the Python part alone, timed on
both sides of the set-up, to ``NOMINAL_PYTHON_MS``.
"""

from collections import Counter
from time import perf_counter

import numpy as np

SEED = 20220401
POPULATION = 1024
WIDTH = 32
NODES = 20000
EDGES = 6000
TEXT_LINES = 1500

# Median times of the whole kernel and of its Python part on the host the
# benchmark was tuned on (Intel Xeon, 2 vCPUs, one BLAS thread), so scaled
# times read as milliseconds there.
NOMINAL_MS = 16.0
NOMINAL_PYTHON_MS = 3.0


class Reference:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.x = rng.standard_normal((POPULATION, WIDTH))
        self.y = rng.standard_normal((POPULATION, WIDTH // 2))
        self.features = rng.standard_normal((NODES, WIDTH))
        self.src = rng.integers(0, NODES, EDGES)
        self.dst = rng.integers(0, NODES, EDGES)
        self.text = "\n".join(f"{i % 97}, {i % 89}" for i in range(TEXT_LINES))
        self.run()  # warm-up: first-touch pages, BLAS buffers

    def run(self) -> float:
        g = (self.x @ self.x.T) @ self.y
        out = np.zeros_like(self.features)
        np.add.at(out, self.dst, self.features[self.src])
        return float(g[0, 0] + out[0, 0]) + self.run_python()

    def run_python(self) -> int:
        labels = {}
        counts = Counter()
        for line in self.text.split("\n"):
            u, v = (int(part) for part in line.split(","))
            key = (u, tuple(sorted((v, u, v + u))))
            counts[labels.setdefault(key, len(labels))] += 1
        return len(counts)

    def time_ms(self, python_only=False) -> float:
        t0 = perf_counter()
        if python_only:
            self.run_python()
        else:
            self.run()
        return (perf_counter() - t0) * 1e3
