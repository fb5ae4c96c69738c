"""Host-speed calibration for the untraced runs.

The benchmark's host is a shared virtual machine whose speed swings by up to
2x for a minute at a time; a call's CPU time swings with it.  To take the
host's speed out of the figures, a calibration process runs a fixed numpy
kernel in a loop on the same CPU as the measured call.  A kernel is a cycle
of steps, each with a reference time: its fastest CPU time, rounded, on an
Intel Xeon (Sapphire Rapids) vCPU at 2.0 GHz.  The scheduler
time-slices the two every few milliseconds, so the kernel samples the host's
speed during the call.  A call's cost is then reported in seconds at the
reference speed:

    CPU seconds of the call / slowdown

where the slowdown is the CPU seconds the kernel's steps took over the sum
of their reference times, counting the steps that finished in the call's
window.  Kernels and reference times are constants of the benchmark, so
every commit is scaled alike.

``python3 perfbench/calibrate.py KERNEL SECONDS`` prints the times each step
of a kernel reaches when it runs alone, for choosing its reference.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import sys
import time

import numpy as np

KERNELS = ("small", "large")


class _Field:
    """A thin wrapper with Python-level arithmetic, as solver code has."""

    __slots__ = ("c",)

    def __init__(self, c: np.ndarray) -> None:
        self.c = c

    def __add__(self, other: "_Field") -> "_Field":
        return _Field(self.c + other.c)

    def __mul__(self, scalar: float) -> "_Field":
        return _Field(self.c * scalar)


def _kernel(kind: str) -> list[tuple[str, float, object]]:
    """The steps of a kernel's cycle: (name, reference CPU seconds, function).

    ``small`` is a two-stage pseudo-spectral step of 64x64 transforms and
    elementwise products through a Python wrapper, like a sweep step.
    ``large`` is like the oversampled diagnostics: four 512x512 complex
    transform pairs (4 MiB, beyond the L2 cache), which slow down more than
    a diagnose call in the host's slow spells, then a 1024x1024 transform
    and a sum of its cubed magnitudes (16 MiB), which slow down less; the
    two halves of the mix, about equal in time, follow the call.
    """
    rng = np.random.default_rng(0)
    if kind == "small":
        m = 64
        k = np.fft.fftfreq(m, d=1.0 / m)
        k1, k2 = k[:, None] * np.ones(m), np.ones(m)[:, None] * k
        ksq = k1 * k1 + k2 * k2
        inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
        keep = (np.abs(k1) <= m // 3) & (np.abs(k2) <= m // 3)
        field = _Field(np.fft.fft2(rng.standard_normal((m, m))) * keep)

        def rate(f: _Field) -> _Field:
            psi = f.c * inv
            u1 = np.fft.ifft2(1j * k2 * psi).real
            u2 = np.fft.ifft2(-1j * k1 * psi).real
            wx = np.fft.ifft2(1j * k1 * f.c).real
            wy = np.fft.ifft2(1j * k2 * f.c).real
            return _Field(-np.fft.fft2(u1 * wx + u2 * wy) * keep / (1.0 + 1e-3 * ksq))

        def step() -> None:
            half = field + rate(field) * 1e-3
            rate(half)

        return [("step_64", 1.1e-3, step)]
    if kind == "large":
        b = rng.standard_normal((512, 512))
        x = rng.standard_normal((1024, 1024))

        def pair_512() -> None:
            np.fft.ifft2(np.fft.fft2(b) * b)

        def cubes_1024() -> None:
            float(np.sum(np.abs(np.fft.fft2(x)) ** 3))

        return [("pair_512", 1.4e-2, pair_512)] * 4 + [("cubes_1024", 5.1e-2, cubes_1024)]
    raise ValueError(f"unknown calibration kernel {kind!r}")


def _loop(kind: str, cpu: int, counters, stop) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    steps = _kernel(kind)
    for _, _, fn in steps:
        fn()
    # stop also when the benchmark died without asking
    while not stop.is_set() and os.getppid() == parent:
        for _, reference, fn in steps:
            c0 = time.process_time()
            fn()
            dt = time.process_time() - c0
            with counters.get_lock():
                counters[0] += reference
                counters[1] += dt


class Calibrator:
    """A calibration process pinned to ``cpu``; read it around each call."""

    def __init__(self, kind: str, cpu: int) -> None:
        self.kind = kind
        ctx = multiprocessing.get_context("fork")
        self._counters = ctx.Array("d", 2)
        self._stop = ctx.Event()
        self._proc = ctx.Process(target=_loop, args=(kind, cpu, self._counters, self._stop),
                                 daemon=True)
        self._proc.start()

    def read(self) -> tuple[float, float]:
        """(reference seconds of the steps finished, CPU seconds they took) so far."""
        with self._counters.get_lock():
            return self._counters[0], self._counters[1]

    def slowdown(self, before: tuple[float, float], after: tuple[float, float]) -> float:
        """The host's slowness between two reads, relative to the reference.

        NaN when no step finished in between.
        """
        reference = after[0] - before[0]
        if reference <= 0:
            return float("nan")
        return (after[1] - before[1]) / reference

    def close(self) -> None:
        self._stop.set()
        self._proc.join(5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


def main() -> int:
    kind, seconds = sys.argv[1], float(sys.argv[2])
    steps = _kernel(kind)
    times: dict[str, list[float]] = {name: [] for name, _, _ in steps}
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        for name, _, fn in steps:
            c0 = time.process_time()
            fn()
            times[name].append(time.process_time() - c0)
    for name, reference, _ in dict.fromkeys(steps):
        t = times[name]
        print(f"{kind}.{name}: {len(t)} runs; fastest {min(t):.6g} s, "
              f"median {statistics.median(t):.6g} s; reference {reference:.6g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
