"""A fixed kernel, timed between rounds, that gauges how fast the shared host runs.

Other tenants of this host slow its processors, one at a time, by up to 60%
for minutes. On the same processor, the rounds of a workload and this
kernel slow down together, so the benchmark times the kernel around its
rounds and scales a round's time by `REFERENCE_S / gauge seconds`: about
what the round would have taken at the reference host speed. The kernel is
benchmark code, so no change to the program moves it.

The kernel runs in a helper process that inherits the benchmark's processor
pin, one reading at a time while the benchmark waits, so its arrays stay
out of the benchmark's peak RSS and the two never compete. Started alone, this file prints `ready` once its arrays
are built, then reads one line per reading on standard input and answers
each with the kernel's seconds; it ends at the end of its input.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

ELEMENTS = 8_000_000  # 64 MB of float64: more than the per-core caches, less than the shared one
GATHERED = 2_000_000
OBJECTS = 80_000
# Seconds the kernel takes on this 2-core box when the host is quiet; it
# only sets the units of scaled times, so it never needs re-measuring.
REFERENCE_S = 0.2


class Kernel:
    """Two parts of about equal time: building and dropping small Python
    objects, as the interpreter does all the time, and random reads from a
    64 MB array, which wait on caches and memory. Of the kernels tried, these
    two followed the slowdowns of the workloads' rounds most closely;
    streaming over the array, or allocating it afresh, followed them less.
    The arrays are allocated once, so page faults stay out of the readings."""

    def __init__(self):
        self.src = np.ones(ELEMENTS)
        self.index = np.random.default_rng(0).integers(0, ELEMENTS, size=GATHERED)
        self.gathered = np.zeros(GATHERED)

    def __call__(self) -> float:
        tick = time.perf_counter()
        rows = [(i, str(i), {"i": i}) for i in range(OBJECTS)]
        table = {key: row for _, key, row in rows}
        del rows, table
        for _ in range(2):
            np.take(self.src, self.index, out=self.gathered)
        return time.perf_counter() - tick


class Gauge:
    """The helper process; `read()` times the kernel once."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.readings: list[float] = []
        # the helper announces itself once it has built its arrays, so its
        # start-up does not overlap what the benchmark times next
        if not self.proc.stdout.readline():
            raise RuntimeError(f"host gauge ended with code {self.proc.wait()}")

    def read(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host gauge ended with code {self.proc.wait()}")
        self.readings.append(float(line))
        return self.readings[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between two readings to the
        reference host speed."""
        return REFERENCE_S / ((before + after) / 2)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Gauge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> int:
    kernel = Kernel()
    kernel()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(kernel(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
