"""Per-learner tuning times: one tune_and_train call per learner.

    python3 perfbench/baseline.py

Not a workload: it times the layer table of the ROADMAP baseline once,
on the same fixture (t3, n=100, p=50, default 19 theta x 15 alpha x 5 fold
grid). multiclass-ridge runs on K=3 classes of 50 t3 draws each, class k
shifted by k * 0.32 / sqrt(3) on every column. BLAS is pinned to one
thread. The whole table takes about four minutes, most of it hinge.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

LEARNERS = ("unit-weights", "logistic", "ridge", "lasso", "hinge", "multiclass-ridge")
SEED = 0


def main() -> int:
    import numpy as np

    from eqc import Dataset, ScenarioSpec, TuningGrid, generate, tune_and_train

    binary = generate(ScenarioSpec("t3", 100, 50, seed=SEED), 2).train
    rng = np.random.default_rng([SEED, 3])
    y3 = np.repeat([1, 2, 3], 50)
    X3 = rng.standard_t(3, (150, 50)) / np.sqrt(3.0) + (y3[:, None] - 1) * 0.32 / np.sqrt(3.0)
    three = Dataset(X3, y3)
    grid = TuningGrid(seed=SEED)
    print(f"{'learner':<18} {'seconds':>9}  chosen (theta, alpha)")
    for learner in LEARNERS:
        data = three if learner == "multiclass-ridge" else binary
        t0 = time.perf_counter()
        _, cv = tune_and_train(data, grid, learner)
        dt = time.perf_counter() - t0
        print(f"{learner:<18} {dt:9.2f}  {cv.chosen}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
