"""Tests of the benchmark itself: its output checks reject corrupted outputs,
and its traced runs produce nested spans and repeatable counts.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import run
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def _sweep_csv(rows) -> str:
    lines = ["# voigt2d 0.1.0", "alpha,sup_u_l2,sup_omega_l2,sup_u_h1"]
    lines += [",".join(repr(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_sweep_check_rejects_corruption(tmp_path):
    w = wl.Sweep()
    w.prepare(tmp_path, seed=12345)
    rows = [(a, 10 * a, 100 * a, 101 * a) for a in wl.SWEEP_ALPHAS]
    good = _sweep_csv(rows)
    assert w.check(0, good) == []
    w.reference = {"sweep": wl._numbers(good)}
    assert w.check(0, good) == []

    nudged = [list(r) for r in rows]
    nudged[2][2] *= 1 + 1e-6
    assert w.check(0, _sweep_csv(nudged))
    swapped = [rows[1], rows[0], *rows[2:]]
    assert w.check(0, _sweep_csv(swapped))
    assert w.check(0, _sweep_csv(rows[:-1]))
    nan_rows = [list(r) for r in rows]
    nan_rows[0][1] = math.nan
    w.reference = None
    assert w.check(0, _sweep_csv(nan_rows))


def _diagnose_stdout(index: int, cz: float = 0.3, gn: float = 0.97) -> str:
    lines = ["# voigt2d 0.1.0", "quantity,value", f"time,{0.25 * index!r}", "alpha,0.0",
             f"grid_size,{wl.DIAG_M}", "omega_l2,3.0", "energy,1.5", "voigt_enstrophy,9.0"]
    lines += [f"cz_ratio_p{p},{cz!r}" for p in wl.DIAG_CZ]
    lines += [f"gagliardo_ratio_p{p},{gn!r}" for p in wl.DIAG_GAGLIARDO]
    return "\n".join(lines) + "\n"


def test_diagnose_check_rejects_corruption(tmp_path):
    w = wl.Diagnose()
    w.inputs = [tmp_path / f"field_{i}.vfld" for i in range(7)]
    assert w.check(3, _diagnose_stdout(3)) == []
    assert any("cz" in p for p in w.check(3, _diagnose_stdout(3, cz=0.41)))
    assert any("gagliardo" in p for p in w.check(3, _diagnose_stdout(3, gn=1.06)))
    assert w.check(4, _diagnose_stdout(3))  # another file's time stamp
    assert w.check(3, _diagnose_stdout(3).replace("cz_ratio_p64", "cz_ratio_p65"))
    w.reference = {"field_3": wl._numbers(_diagnose_stdout(3))}
    assert w.check(3, _diagnose_stdout(3)) == []
    assert w.check(3, _diagnose_stdout(3, cz=0.3 * (1 + 1e-6)))


def test_diagnose_inputs_repeat_per_seed():
    first = wl.diagnose_fields(5)
    assert all(np.array_equal(a, b) for a, b in zip(first, wl.diagnose_fields(5)))
    assert not np.array_equal(first[0], wl.diagnose_fields(6)[0])


def test_self_times_and_nesting():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 9.0, 0]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracer.nesting_errors(spans) == 0
    spans[2] = ["c", 2.0, 4.5, 1]
    assert tracer.nesting_errors(spans) == 1


def test_traced_operation_counts_repeat(tmp_path):
    """A traced --jobs 2 sweep: worker spans arrive, spans nest, counts repeat."""
    config = tmp_path / "tiny.ini"
    config.write_text(
        "[grid]\nsize = 16\n\n[time]\nt_end = 0.1\nrecord_every = 0.05\ndt = 0.01\n\n"
        "[init]\nkind = random_sobolev\nsigma = 3.25\nband = 5\nseed = 3\n\n"
        "[sweep]\nalphas = 1e-2, 3e-3, 1e-3, 3e-4, 1e-4\nregime = smooth_s_ge_3\n\n"
        f"[output]\ndirectory = {tmp_path / 'out'}\n"
    )
    results = []
    for attempt in range(2):
        trace_dir = tmp_path / f"trace-{attempt}"
        trace_dir.mkdir()
        op = run.run_op(["sweep", str(config), "--jobs", "2"], tmp_path, trace_dir)
        assert op["code"] == 0, op["stderr"]
        assert len(list(trace_dir.glob("trace-*.json"))) == 3  # parent and two workers
        results.append(run.layer_metrics(trace_dir))
        # the tracing cost estimated from the trace lies inside the call
        assert 0 < results[-1][0]["trace.overhead_s"] < op["wall_run_s"]
    (first, _, bad_first), (second, _, bad_second) = results
    assert bad_first == bad_second == 0
    # each worker integrates its Euler reference again: 5 Voigt + 5 Euler runs
    assert first["dynamics.integrate.calls"] == 10
    assert first["dynamics.rhs.calls"] == 4 * first["dynamics.step_rk4.calls"] > 0
    counted = [k for k in first if k.endswith(".calls")] + list(tracer.COUNTERS)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["fft.ifft2.calls"] > 0 and first["spectral.SpectralField.made"] > 0


def test_calibrator_samples_and_stops():
    for kind in calibrate.KERNELS:
        cal = calibrate.Calibrator(kind, max(os.sched_getaffinity(0)))
        try:
            before = cal.read()
            time.sleep(1.0)
            slowdown = cal.slowdown(before, cal.read())
        finally:
            cal.close()
        assert 0.5 < slowdown < 10
        assert not cal._proc.is_alive()
        assert math.isnan(cal.slowdown((3.0, 1.0), (3.0, 1.0)))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
