"""Fixed reference kernels that track the host's speed.

The host switches between speed states about 1.5-2x apart, and a state can
last from under a second to tens of seconds. Different kinds of work slow
down by different factors: in one measured state, interpreter-bound calls
took 2.3x as long while a 512x512 dense confirmation took 1.3x. So every
call names the kernel of its own kind, and that kernel runs just before it:

- ``interp``: Jacobi-style column rotations on a 24x24 array (the small
  numpy operations the pure-Python eigensolver is made of), then dict
  building, Fraction arithmetic and string formatting (the work of
  searches, exact arithmetic, graph building and reports);
- ``dense``: complex 128x128 matrix products, the work of dense
  confirmation on a built join.

A kernel's time divided by its nominal time is the slowdown factor. The
nominal times are medians on the reference host (Python 3.11.7, numpy 2.4.6
with OpenBLAS, 2 vCPUs), fixed here so that every run is scaled alike.
This module imports numpy only inside the kernels that need it, so the
set-up probe can run the ``python`` part before importing qwjoin and numpy.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = {"interp": 0.0047, "dense": 0.0019, "python": 0.0022}

_state: dict = {}


def python_kernel() -> float:
    start = time.perf_counter()
    edges = {}
    for u in range(56):
        for v in range(u + 1, 56):
            edges[(u, v)] = float(u ^ v)
    degree = sum(w for (a, b), w in edges.items() if a == 3 or b == 3)
    total = Fraction(0)
    for k in range(1, 240):
        total += Fraction(k, k + 1)
    text = ",".join(f"{w!r}" for w in edges.values())
    if degree < 0 or total < 0 or not text:
        raise AssertionError("reference kernel")
    return time.perf_counter() - start


def array_kernel() -> float:
    import numpy as np

    if "array" not in _state:
        _state["array"] = np.random.default_rng(0).random((24, 24))
    a = _state["array"].copy()
    start = time.perf_counter()
    for i in range(130):
        p = i % 23
        q = p + 1
        col_p, col_q = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.8 * col_p - 0.6 * col_q
        a[:, q] = 0.6 * col_p + 0.8 * col_q
        row_p, row_q = a[p, :].copy(), a[q, :].copy()
        a[p, :] = 0.8 * row_p - 0.6 * row_q
        a[q, :] = 0.6 * row_p + 0.8 * row_q
    return time.perf_counter() - start


def dense_kernel() -> float:
    import numpy as np

    if "dense" not in _state:
        rng = np.random.default_rng(1)
        _state["dense"] = (rng.random((128, 128)) + 1j * rng.random((128, 128))) / 128
    m = _state["dense"]
    start = time.perf_counter()
    out = m
    for _ in range(4):
        out = out @ m
    if not np.isfinite(out[0, 0]):
        raise AssertionError("reference kernel")
    return time.perf_counter() - start


def interp_kernel() -> float:
    return array_kernel() + python_kernel()


KERNELS = {"interp": interp_kernel, "dense": dense_kernel}
