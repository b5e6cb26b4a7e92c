"""A fixed reference workload that measures how fast the machine runs now.

The benchmark runs on a shared virtual machine whose speed changes in
phases of seconds to minutes: the same call takes up to 1.7 times as long
in a slow phase, and the process's CPU time slows with its wall time, so no
clock of the process can tell the phases apart.  ``Reference.seconds()``
times a small workload of the same kinds of work the program does (a
Fraction matrix product as in the exact charpoly, a JSON round trip of a
float matrix, parsing a CSV text of floats, small numpy products and
eigenvalues, and a plain interpreter loop) on inputs that never change.
The loop takes about half of the time: on their own, the other parts slow
down more than the program in a slow phase, the loop less, and half and
half follows the program's own cycle times with a log-log slope of 1.0.  It imports nothing from
permrealize, so no change to the program changes its time: a slower reading
means a slower machine.

run.py calls it after every timed call, outside the timed region, and
scales the timed calls by its readings (see run.py, ``speed_factor``).
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction

import numpy as np

#: ``Reference.seconds()`` on the machine the benchmark was written on
#: (2 cores, Xeon, 2.1 GHz, Python 3.11.7, numpy 2.4.6) in a fast phase.
#: Metrics scaled by the reference read as they would at that speed.
NOMINAL_SECONDS = 0.0033
LOOP_STEPS = 24000


class Reference:
    """The reference workload's inputs, built once from a fixed seed."""

    def __init__(self) -> None:
        rng = random.Random(20150903)
        self._fractions = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)] for _ in range(6)
        ]
        self._floats = [[rng.random() for _ in range(20)] for _ in range(20)]
        self._csv = "\n".join(",".join(repr(x) for x in row) for row in self._floats)
        self._array = np.array(self._floats)
        self.seconds()  # warm-up

    def _work(self) -> None:
        A = self._fractions
        [[sum(A[i][k] * A[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
        json.loads(json.dumps(self._floats))
        [[float(t) for t in line.split(",")] for line in self._csv.split("\n")]
        np.linalg.eigvals(self._array[:16, :16])
        self._array @ self._array
        s = 0
        for i in range(LOOP_STEPS):
            s += (i * 7) % 13

    def seconds(self) -> float:
        """Wall time of one pass of the reference workload.

        An untimed pass first brings the workload's code and data back into
        the caches that the call before it filled, and the garbage collector
        is off, so that neither the program's memory traffic nor the heap it
        left behind changes the reading.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
