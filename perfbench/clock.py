"""Command times rescaled to a fixed CPU speed.

On a shared 2-core host the same work runs up to ~45% slower for seconds at a
time while neighbours load the machine, so raw wall-time medians of separate
runs spread by 15-25%.  `SpeedClock` runs a fixed probe from a SIGALRM timer
every `interval` seconds in the measuring thread.  A command's scaled time is
its wall time without the probe time inside it, multiplied by the mean of
REFERENCE_S / probe duration over the probes that ran inside it, or in the
last MIN_WINDOW seconds for shorter commands.  That mean is the
time-averaged speed, so a slow phase in the middle of a long command is
weighted by its length.  Raw wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Duration of one probe at the reference speed: a scaled second is a second
# of a machine on which the probe, interrupting the program, takes this long.
# On the 2-core Xeon VM the benchmark was written on, the probe's median was
# 0.4-0.65 ms, so scaled times read about 0.55-0.75 of the wall times there.
REFERENCE_S = 0.3e-3

_COEFFS = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 2.0, 1.0], dtype=complex)
_POINTS = 1.3 * np.exp(1j * np.linspace(0.0, 6.0, 7))
_MATRIX = np.cos(np.add.outer(np.arange(6.0), 0.7 * np.arange(6.0)) + np.eye(6))
_GRID = 1j * np.logspace(-3.0, 4.0, 4000)


def probe():
    """Fixed work in the program's own mix: Horner steps and an Aberth-style
    correction on small complex arrays, Python-level loops, one small SVD and
    one pass over a 4000-point frequency grid.  Against a repeated command,
    small-array work alone left 14% of the sample-to-sample spread of a
    grid sweep and the mix 10%; unscaled it was 25%."""
    acc = 0.0
    for k in range(4):
        z = _POINTS * (1.0 + 0.01 * k)
        r = np.zeros_like(z)
        for c in _COEFFS[::-1]:
            r = r * z + c
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, np.inf)
        acc += float(np.abs(r / (1.0 - r * np.sum(1.0 / d, axis=1))).max())
        acc += sum([abs(complex(x)) for x in z[:3]])
    y = np.exp(-0.5 * _GRID) / (_GRID + 1.0)
    acc += float(np.abs((y - 1.0) * _GRID).max())
    return acc + float(np.linalg.svd(_MATRIX, compute_uv=False)[-1])


class SpeedClock:
    MIN_WINDOW = 0.25   # seconds; speed is averaged over at least this long

    def __init__(self, interval=0.02, now=time.perf_counter):
        self.interval = interval
        self.now = now
        self.probes = []               # (start, duration) in seconds of `now`
        self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = self.now()
        probe()
        self.probes.append((t0, self.now() - t0))

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start(self):
        return self.now(), len(self.probes)

    def stop(self, mark):
        """(wall, scaled) seconds since `mark` = start()."""
        t0, first = mark
        end = self.now()
        wall = end - t0
        inside = sum(d for _, d in self.probes[first:])
        since = min(t0, end - self.MIN_WINDOW)
        i = len(self.probes) - 1
        while i > 0 and self.probes[i - 1][0] >= since:
            i -= 1
        speeds = [REFERENCE_S / d for _, d in self.probes[i:]]
        return wall, (wall - inside) * sum(speeds) / len(speeds)
