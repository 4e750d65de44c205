"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed available to one process drifts by 20-40%
over tens of seconds, far slower than a repeat, so a median over repeats
cannot remove it. Each repeat therefore runs this fixed kernel right after
its timed commands. The kernel uses only numpy, scipy and the interpreter,
never tclgrid, so no change to the program can move it; a repeat's
end-to-end times are scaled by REFERENCE_S / (its own kernel time).

The kernel mixes the kinds of work the workloads do: many numpy calls on
500- and 8000-element arrays with a small matrix exponential (the event loop
at desk and fleet size), a large-array sort and cumulative sum (the
statistics merge) and plain interpreter work (parsing, formatting, Python
loops).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import expm

# Typical kernel time on a 2.1 GHz Xeon vCPU; scaled times read as seconds on
# that machine.
REFERENCE_S = 0.3


def _kernel(steps: int, n_big: int, n_words: int) -> float:
    rng = np.random.default_rng(0)
    a = -rng.random((4, 4))
    acc = 0.0
    for n_loads in (500, 8000):
        temps = rng.random(n_loads)
        rates = rng.random(n_loads) + 0.1
        for i in range(steps):
            decay = np.exp(-rates * (0.01 + i * 1e-7))
            nxt = np.where(temps > 0.5, decay, temps)
            acc += float(np.min(nxt)) + float(np.dot(temps, decay))
            if i % 4 == 0:
                acc += float(expm(a * 0.01)[0, 0])
    big = rng.random(n_big)
    order = np.argsort(big, kind="stable")
    acc += float(np.cumsum(big[order])[-1])
    words: dict[str, int] = {}
    for i in range(n_words):
        key = f"{i % 977:x}"
        words[key] = words.get(key, 0) + i
    return acc + len(words)


def kernel_seconds() -> float:
    """Wall time of one pass of the kernel, after a small untimed pass that
    faults in every code path it uses."""
    _kernel(8, 1000, 100)
    start = time.monotonic()
    acc = _kernel(3000, 700_000, 100_000)
    elapsed = time.monotonic() - start
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite result")
    return elapsed
