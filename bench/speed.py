"""Interleaved calibration probes: how fast the machine is running right now.

On a shared machine other tenants' load slows every process by a factor that
changes from second to second: the median time of a fixed 12 ms engine run,
taken over 4-second windows, ranged from 9.7 to 19.3 ms within two minutes,
and whole runs of the benchmark were 25-55% slower than others.  A fixed
probe kernel of the same kind, run between the benchmark's operations for a
set share of the time, slows by nearly the same factor: over 4-6 second
windows the ratio of the medians stayed within +-6% for small-array engine
runs against a small-array probe and within +-8% for ``spectral_info``
against the ``matvec`` probe.  Kernels of different kinds do not track each other (the
``gemm`` probe against ``dispatch`` moved +-17%), so each workload names the
probes that match the work it times.  Each operation is followed by a round
of probes lasting a fifth of its time, and dividing its time by their time
relative to their nominal time gives seconds at a fixed speed; timing the
probes right after each operation tracks short operations best (for the
2-3 ms certificate reports the run-to-run spread fell from 16% to 6% against
one factor per pass).

The probes use only numpy and never call cgtsim, so no change to the library
can move them.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_SHARE = 0.2  # probe time per unit of measured time


class Speed:
    def __init__(self, kernels: tuple[str, ...]):
        rng = np.random.default_rng(0)
        self._kernels = []
        for name in kernels:
            fn, nominal = getattr(self, f"_{name}"), NOMINAL_S[name]
            self._kernels.append((fn, nominal))
        self._a = rng.standard_normal((10, 10)) / 4.0
        self._x = rng.standard_normal((10, 20))
        if "matvec" in kernels:
            self._m = rng.standard_normal((300, 300)) / 300.0
            self._v = rng.standard_normal(300)
        if "gemm" in kernels:
            self._g = rng.standard_normal((1000, 1000)) / 1000.0
            self._q = rng.standard_normal((1000, 20))

    def _dispatch(self) -> None:
        """Small-array numpy calls, like the engine at n=10."""
        x = self._x
        for _ in range(60):
            y = self._a @ x
            x = y / (1.0 + np.sqrt((y * y).sum(axis=1)).max())
            np.floor(3.0 * x + 0.5)

    def _matvec(self) -> None:
        """300 x 300 matrix-vector products, like spectral_info's power iteration."""
        v = self._v
        for _ in range(25):
            v = self._m @ v
            v = v / np.linalg.norm(v)

    def _gemm(self) -> None:
        """One dense 1000 x 1000 by 1000 x 20 product, like mixing on a large ring."""
        self._g @ self._q

    def probe(self, busy_s: float) -> float:
        """Run the kernels for at least ``PROBE_SHARE * busy_s`` seconds, at least
        once; return their time over their nominal time."""
        spent = nominal = 0.0
        while spent < PROBE_SHARE * busy_s or spent == 0.0:
            for fn, nom in self._kernels:
                t0 = time.perf_counter()
                fn()
                spent += time.perf_counter() - t0
                nominal += nom
        return spent / nominal


# time of each probe kernel on the machine the benchmark was built on (one
# BLAS thread, quiet moments); a factor of 1 means that speed
NOMINAL_S = {"dispatch": 5.0e-4, "matvec": 4.5e-4, "gemm": 1.45e-3}
