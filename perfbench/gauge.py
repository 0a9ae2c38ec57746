"""Machine speed, measured next to every timed span.

This shared host's speed drifts by tens of percent within a minute, and a
run's wall times drift with it (the same operation repeated in one process
took from 0.048 to 0.095 s as the host sped up and slowed down).  So each
timed span (one operation, one set-up) is timed between samples of a fixed
calibration loop, and the benchmark reports

    wall time * REFERENCE_S / (median of the WINDOW samples before it and
                               the WINDOW samples after it)

that is, seconds at the speed at which the loop takes REFERENCE_S.  The
unscaled wall times are printed to stderr beside the result.  The loop is
the same interpreter work braidrep does, big-integer arithmetic and sparse
polynomial products over dicts keyed by exponent tuples, but it calls
nothing in braidrep, so no change to the program can move it.

    python3 perfbench/gauge.py [--seconds 20]

prints the loop's time over a stretch of seconds, to re-derive REFERENCE_S
on other hardware.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The loop's median time on the reference host (a shared 2-core x86-64
# sandbox at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.002
# Samples on each side of a span that set its speed.
WINDOW = 3

_MODULUS = (1 << 127) - 1
_A = {(i, j): (i * 31 + j * 17 + 1) * 1000003 for i in range(8) for j in range(5)}
_B = {(i, j): (i * 13 - j * 7 - 3) * 998244353 for i in range(5) for j in range(4)}


def calibration_work():
    x = 0x9E3779B97F4A7C15
    acc: dict[int, int] = {}
    for i in range(2500):
        x = (x * x + i) % _MODULUS
        acc[i & 63] = acc.get(i & 63, 0) + x
    for _ in range(3):
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in _A.items():
            for (i2, j2), c2 in _B.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return acc, out


class Gauge:
    """Calibration samples and the timed spans between them."""

    def __init__(self):
        self.samples: list[float] = []
        # (number of samples taken before the span, its wall time)
        self.marks: list[tuple[int, float]] = []

    def sample(self) -> None:
        t0 = perf_counter()
        calibration_work()
        self.samples.append(perf_counter() - t0)

    def mark(self, wall: float) -> None:
        """Record a span that has just ended; a sample must precede it."""
        self.marks.append((len(self.samples), wall))

    def bracket_open(self) -> None:
        for _ in range(WINDOW):
            self.sample()

    def bracket_close(self, wall: float) -> None:
        self.mark(wall)
        for _ in range(WINDOW):
            self.sample()

    def finish(self) -> None:
        """Sample after the last span, so that it has a full window."""
        for _ in range(WINDOW):
            self.sample()

    @property
    def raw(self) -> list[float]:
        return [wall for _, wall in self.marks]

    def scaled(self) -> list[float]:
        s = self.samples
        return [wall * REFERENCE_S / statistics.median(s[max(0, m - WINDOW):m + WINDOW])
                for m, wall in self.marks]

    def scaled_total(self) -> float:
        return sum(self.scaled())

    def speed(self) -> float:
        """The host's speed over all samples, as a share of reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Time the calibration loop.")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    gauge = Gauge()
    gauge.sample()
    t_end = perf_counter() + args.seconds
    while perf_counter() < t_end:
        gauge.sample()
    q = statistics.quantiles(gauge.samples, n=4)
    print(f"{len(gauge.samples)} samples: median {statistics.median(gauge.samples):.6f} s, "
          f"quartiles {q[0]:.6f} and {q[2]:.6f} s, min {min(gauge.samples):.6f} s")
