"""A fixed reference workload that tracks this machine's speed during a run.

On a shared host the speed available to one process drifts by tens of
percent over minutes, which moves every pass time of a run together.  The
benchmark times this kernel between passes and divides the run's median pass
time by the kernel's median time measured in the same run, so drift that
slows both cancels.  The kernel uses only numpy and the standard library and
never gammasort, so a change to the program cannot move it.  It mixes the
kinds of work a pass does: Python-level object churn, float formatting and
parsing, small Philox Poisson draws, batch-sized and dataset-sized matrix
products, and Adam-style elementwise updates on a weight matrix.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on a 2-vCPU Xeon VM (Python 3.11.7, numpy
# 2.4.6, OpenBLAS 0.3.31, one BLAS thread); scales the pass/kernel ratio back
# into seconds.
REFERENCE_KERNEL_S = 0.05

_rng = np.random.Generator(np.random.Philox(20190830))
_DATASET = _rng.random((1100, 256))
# Larger than a core's cache, like the training set a full-set forward reads.
_FULL = _rng.random((2200, 256))
_BATCH = _rng.random((32, 256))
_WEIGHTS = _rng.random((64, 256))
_LAMBDA = _rng.random(256) * 50.0


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    records = [{"index": i, "value": (i, i * 0.5)} for i in range(10000)]
    text = ",".join(repr(v * 1.000001) for v in _LAMBDA.tolist() * 20)
    parsed = [float(cell) for cell in text.split(",")]
    draws = np.random.Generator(np.random.Philox(7))
    samples = [draws.poisson(_LAMBDA) for _ in range(200)]
    for _ in range(100):
        np.tanh(_BATCH @ _WEIGHTS.T)
    for _ in range(12):
        (_DATASET @ _WEIGHTS[:5].T).sum()
    for _ in range(3):
        np.tanh(_FULL @ _WEIGHTS.T).sum()
    w, m, v = _WEIGHTS.copy(), np.zeros_like(_WEIGHTS), np.zeros_like(_WEIGHTS)
    for _ in range(60):
        g = np.tanh(_BATCH @ w.T).T @ _BATCH
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 1e-3 * m / (np.sqrt(v) + 1e-8)
    np.stack(samples).sum()
    del records, parsed
    return time.perf_counter() - start
