"""A fixed reference kernel that measures how fast the processor runs right now.

On a shared machine the same op can take a third longer from one minute, or
one process, to the next, because the processor itself runs slower.  The
kernel below does a fixed amount of work of the two kinds an op does: tuple
and list churn in pure Python (like the word kernel and report building), and
complex matrix products in numpy (like induction and the Hardy layer).  Its
time, taken next to each op in the same process, rises and falls with the
op's, so the ratio of the two is steady where either alone is not.  The
kernel never touches the package under test, and its inputs are fixed, so it
is the same on every commit.
"""

from __future__ import annotations

import random
import time

import numpy as np


class Kernel:
    def __init__(self):
        rng = random.Random(0)
        self.letters = [(rng.randrange(4), rng.choice((-1, 1))) for _ in range(2400)]
        gen = np.random.default_rng(0)
        self.matrix = gen.standard_normal((256, 256)) + 1j * gen.standard_normal((256, 256))

    def work(self) -> int:
        total = 0
        for k in range(0, len(self.letters), 30):
            out: list = []
            for gen, exp in self.letters[:k]:
                if out and out[-1][0] == gen and out[-1][1] == -exp:
                    out.pop()
                else:
                    out.append((gen, exp))
            total += len(tuple(out))
        x = self.matrix
        for _ in range(2):
            x = x @ self.matrix
            x /= np.abs(x).max()
        return total + int(x.real.sum() > 0)

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start
