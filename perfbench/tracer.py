"""Timing wrappers for a traced benchmark operation.

Installed from outside the program: every listed voigt2d function is
replaced, in every ``voigt2d`` module namespace that holds it, by a wrapper
that records a span (name, start, end, parent span).  The ``numpy.fft``
transforms get the same wrapper plus computed byte and flop counts, and
``SpectralField`` constructions are counted.  Spans stay in memory and are
written to ``trace-<pid>.json`` when the process ends its operation; process
pool workers write theirs when they exit.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy
import numpy.fft

#: layer -> functions wrapped in that layer
LAYERS = {
    "cli": ("cmd_sweep", "cmd_diagnose"),
    "config": ("load_config",),
    "initial_data": ("realize",),
    "harness": ("run_sweep",),
    "dynamics": ("integrate", "step_rk4", "rhs"),
    "spectral": (
        "biot_savart", "dealias", "helmholtz_filter", "zero_mean",
        "forward_transform", "inverse_transform", "values_oversampled",
    ),
    "diagnostics": ("sample_state", "error_norms", "lp_norm", "cz_ratio", "gagliardo_ratio"),
    "snapshots": ("read_snapshot",),
}
FFT_KINDS = ("fft2", "ifft2", "rfft2", "irfft2")
COUNTERS = (
    "snapshots.bytes",
    "fft.bytes_computed",
    "fft.flops_computed",
    "spectral.SpectralField.made",
    "grid.tables.hits",
    "grid.tables.misses",
)


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
    return names + [f"fft.{kind}" for kind in FFT_KINDS]


class Tracer:
    """Spans and counters of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.fft_shapes: dict[str, int] = {}
        self.after_s = 0.0  # time spent in the counting callbacks
        self._tables_base = _tables_info()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                begin = time.perf_counter()
                after(args, result)
                self.after_s += time.perf_counter() - begin
            return result

        return traced

    def count_fft(self, kind: str):
        """Counter of one transform kind: calls by shape, computed bytes and flops.

        Bytes are input plus output array sizes; flops are 5 N log2 N per
        complex transform of N points and half that for a real one.
        """
        real_space_out = kind == "irfft2"
        scale = 2.5 if kind in ("rfft2", "irfft2") else 5.0

        def after(args, result):
            source = numpy.asarray(args[0])
            shape = result.shape[-2:] if real_space_out else source.shape[-2:]
            key = f"{kind} {shape[0]}x{shape[1]}"
            self.fft_shapes[key] = self.fft_shapes.get(key, 0) + 1
            n = shape[0] * shape[1]
            batches = result.size // (result.shape[-2] * result.shape[-1])
            self.counts["fft.flops_computed"] += int(batches * scale * n * math.log2(n))
            self.counts["fft.bytes_computed"] += source.nbytes + result.nbytes

        return after

    def count_file(self, args, result) -> None:
        self.counts["snapshots.bytes"] += os.path.getsize(args[0])

    def overhead_s(self) -> float:
        """Time the tracing added to this process's operation, estimated.

        Spans times the cost of one empty wrapper, plus the time spent in the
        counting callbacks.
        """
        return len(self.spans) * wrapper_cost() + self.after_s

    def dump(self) -> None:
        hits, misses = _tables_info()
        self.counts["grid.tables.hits"] = hits - self._tables_base[0]
        self.counts["grid.tables.misses"] = misses - self._tables_base[1]
        path = Path(self.out_dir) / f"trace-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "fft_shapes": self.fft_shapes,
                 "overhead_s": self.overhead_s()},
                fh,
            )


def wrapper_cost(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one empty wrapper adds to a call: a wrapped no-op minus a bare
    one, each the fastest of ``repeats`` batches of ``calls`` calls."""

    def noop():
        return None

    def fastest(fn) -> float:
        times = []
        for _ in range(repeats):
            begin = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - begin)
        return min(times)

    probe = Tracer(os.devnull)
    wrapped = probe.wrap("probe", noop)
    return max(fastest(wrapped) - fastest(noop), 0.0) / calls


_active: Tracer | None = None


def _tables_info() -> tuple[int, int]:
    from voigt2d.grid import tables

    info = tables.cache_info()
    return info.hits, info.misses


def install(out_dir: str) -> Tracer:
    """Wrap the listed functions and transforms of this process."""
    global _active
    import voigt2d.cli  # noqa: F401  imports every module of the package
    import voigt2d.harness
    import voigt2d.spectral

    tracer = Tracer(out_dir)
    modules = [m for name, m in sys.modules.items() if name == "voigt2d" or name.startswith("voigt2d.")]
    for layer, functions in LAYERS.items():
        home = sys.modules[f"voigt2d.{layer}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            after = tracer.count_file if layer == "snapshots" else None
            wrapped = tracer.wrap(f"{layer}.{fn_name}", original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    for kind in FFT_KINDS:
        original = getattr(numpy.fft, kind)
        setattr(numpy.fft, kind, tracer.wrap(f"fft.{kind}", original, tracer.count_fft(kind)))

    field_cls = voigt2d.spectral.SpectralField
    field_init = field_cls.__init__

    @functools.wraps(field_init)
    def counted_init(self, *args, **kwargs):
        tracer.counts["spectral.SpectralField.made"] += 1
        field_init(self, *args, **kwargs)

    field_cls.__init__ = counted_init

    # workers of the sweep's process pool trace themselves and write on exit
    voigt2d.harness.ProcessPoolExecutor = functools.partial(
        voigt2d.harness.ProcessPoolExecutor, initializer=start_worker, initargs=(out_dir,)
    )
    _active = tracer
    return tracer


def start_worker(out_dir: str) -> None:
    """Process-pool initializer: trace this worker and write its spans at exit."""
    from multiprocessing import util

    tracer = _active if _active is not None else install(out_dir)
    tracer.reset()  # a forked worker inherits its parent's spans
    util.Finalize(None, tracer.dump, exitpriority=10)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nesting_errors(spans: list[list]) -> int:
    """Spans whose interval does not lie inside their parent's."""
    bad = 0
    for _, start, end, parent in spans:
        if end < start:
            bad += 1
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad += 1
    return bad
