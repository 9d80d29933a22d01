"""Fixed reference work that measures how fast the host runs at the moment.

``run.py`` runs this script as a fresh process before every timed command and
every timed import, and divides the benchmark's times by the median time of
this script (see ``run.py``). It does the same kinds of work as the program:
interpreter start-up and ``import numpy``, small-matrix numpy steps like a
training epoch, and text formatting and parsing like CSV ingest and reports.
It never changes: a benchmark figure is only comparable with figures taken
with the same yardstick.
"""

import numpy as np

rng = np.random.default_rng(0)
x = rng.standard_normal((1000, 10))
w = np.zeros((10, 5))
for _ in range(4000):
    p = 1.0 / (1.0 + np.exp(-(x @ w)))
    w -= 1e-3 * (x.T @ (p - 0.5))

lines = [",".join(f"{v:.17g}" for v in row) for row in np.tile(x, (20, 1))]
total = sum(float(v) for line in lines for v in line.split(","))
assert np.isfinite(w).all() and np.isfinite(total)
