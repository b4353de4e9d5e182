"""A fixed kernel, timed next to every task, that gauges the host's speed.

On a few cores of a shared host, the speed a process gets can change by a
third or more over seconds to minutes as other load on the host comes and
goes, and a task's wall time moves with it. The kernel below does the same kinds
of work as the pipeline (a pure-Python line parse, sparse matvecs, small
symmetric eigenproblems) on fixed inputs that do not depend on the seed or on
``momentdist``, so its time changes with the host and never with the program.
A task's time divided by the kernel's time measured just before and just
after it is the task's cost in kernel units, which the host's speed cancels
out of while a change to the program moves it one for one.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse

N = 20000  # vertices of the sparse matrix
ROW_NNZ = 10  # stored entries per row
MATVECS = 16
LINES = 12000  # "u v" lines parsed
EIG_MATRICES = 64  # 5 x 5, the size of a degree-4 Hankel matrix
SEED = 20180700


class ReferenceKernel:
    """Fixed inputs built once; :meth:`run` times one pass over them."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        pairs = rng.integers(0, N, (LINES, 2))
        self.lines = [f"{u} {v}" for u, v in pairs.tolist()]
        rows = np.repeat(np.arange(N), ROW_NNZ)
        cols = rng.integers(0, N, N * ROW_NNZ)
        self.a = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(N, N))
        self.x = rng.random(N)
        m = rng.random((EIG_MATRICES, 5, 5))
        self.mats = [b @ b.T + np.eye(5) for b in m]

    def run(self) -> float:
        """Wall time of one pass, in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for line in self.lines:
            u, v = line.split()
            acc ^= int(u) * 31 + int(v)
        x = self.x
        for _ in range(MATVECS):
            x = self.a @ x
            # numpy's own sum, not a BLAS call: BLAS may hand a long vector to
            # a second thread, whose wake-up on a busy host costs milliseconds
            x /= x.sum()
        for b in self.mats:
            np.linalg.eigvalsh(b)
        elapsed = time.perf_counter() - t0
        if acc < 0 or not np.isfinite(x).all():
            raise RuntimeError("reference kernel computed a wrong result")
        return elapsed
