"""Machine speed, sampled by a fixed kernel, to rescale measured times.

On a shared host the same fixed numpy loop runs anywhere from 480 to 830
iterations per half second within twenty seconds, with the process never
descheduled: the hardware itself runs faster or slower as other tenants
load it. Times measured minutes apart then differ by more than any bound a
code change should be held to. The end-to-end run therefore samples a fixed
kernel every ``INTERVAL_S`` (between units, and between calls inside long
units through a tracer observer) and divides each measured interval by the
speed factor seen around it: the interquartile mean of the kernel's times
within ``WINDOW_S`` of the interval's midpoint, over the kernel's reference
time. Times are thus reported at the speed where the kernel takes its
reference time; the raw wall times are kept in the report, and time spent
in the kernel is left out of every interval.

Different kinds of work slow down by different amounts when the machine is
busy, so each workload names the kernel that resembles its hot loop:

- ``"trial"``: interpreter work, a sum of complex exponentials and an FFT,
  like ``propagate`` (``sweep``, ``locate``);
- ``"spectra"``: the power spectra of a batch of 64 rows of 4096 samples,
  like the designer's population spectra and the detect path's long FFTs
  (``design``, ``detect``).

Over five seeds per workload, each workload's own kernel brought the spread
of its throughput and latencies to 0.071 or less, against 0.073 to 0.241
raw; the ``trial`` kernel left 0.153 on ``design``. Neither kernel copies
code from uwbloc, so a change to the program cannot change them.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

INTERVAL_S = 0.25
WINDOW_S = 1.5
# Kernel times on the 2-core Xeon host the benchmark was built on, at a
# quiet moment; they only set the scale of reported times.
KERNEL_REF_S = {"trial": 2.0e-3, "spectra": 1.7e-3}
_LOOP = 12000
_TAPS = tuple((k * 3e-9, 0.5 ** k) for k in range(8))


class Clock:
    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.ref_s = KERNEL_REF_S[kind]
        self._kernel = {"trial": self._trial, "spectra": self._spectra}[kind]
        self._x = rng.normal(size=8192)
        self._f = np.fft.rfftfreq(self._x.size, d=50e-12)
        self._batch = rng.normal(size=(16, 4, 4096))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._paused = [0.0]  # cumulative sampling time up to each sample
        self._kernel()  # first call pays numpy's plan set-up

    def _trial(self) -> None:
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        h = np.zeros(self._f.size, dtype=complex)
        for tap_delay, gain in _TAPS:
            h += gain * np.exp(-2j * np.pi * self._f * tap_delay)
        np.fft.irfft(np.fft.rfft(self._x) * h, n=self._x.size)

    def _spectra(self) -> None:
        np.abs(np.fft.rfft(self._batch, axis=-1)) ** 2

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < INTERVAL_S:
            return
        # The first pass refills the caches the program just used; only the
        # second is timed, so the sample measures the machine, not the
        # program's memory footprint.
        self._kernel()
        mid = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - mid)
        self._paused.append(self._paused[-1] + end - start)

    def paused(self, a: float, b: float) -> float:
        """Kernel time that falls inside [a, b]."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.ends, b)
        return max(0.0, self._paused[j] - self._paused[i]) if j > i else 0.0

    def factor(self, t: float) -> float:
        """Slowness around time ``t``: kernel time near t over the reference."""
        lo = bisect.bisect_left(self.ends, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        if hi <= lo:  # no sample in the window: use the nearest one
            k = min(max(bisect.bisect_left(self.starts, t), 1), len(self.starts)) - 1
            lo, hi = k, k + 1
        times = sorted(self.kernel_s[lo:hi])
        q = len(times) // 4
        middle = times[q:len(times) - q]
        return sum(middle) / len(middle) / self.ref_s

    def scaled(self, a: float, b: float) -> float:
        """Time of [a, b] at the reference speed, kernel time left out.

        The interval is cut at every kernel sample inside it, and each piece
        is divided by the speed factor around its own midpoint, so a long
        unit is followed through the machine's changes of speed.
        """
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.ends, b)
        cuts = [a]
        for k in range(i, j):
            cuts += [self.starts[k], self.ends[k]]
        cuts.append(b)
        return sum((hi - lo) / self.factor(0.5 * (lo + hi))
                   for lo, hi in zip(cuts[0::2], cuts[1::2]) if hi > lo)
