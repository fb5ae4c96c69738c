"""voigt2d CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep, diagnose, or ``all`` for both in turn.  Run from the root of a
source checkout: the program is imported from ``src/``.  Every operation is
one ``voigt2d`` CLI call in a fresh child process (closed loop, one client);
operations repeat until S seconds have passed.  Every operation's outputs
are checked.

``--trace 0`` reports the end-to-end metrics, medians over the run's calls,
with every call pinned to one CPU beside a calibration process (see
``calibrate.py``) and its CPU time scaled to the reference host speed:
run_s (CPU time inside ``voigt2d.cli.entry``), setup_s (CPU time from the
child's start to ``entry``: interpreter start and imports), cpu_s (user +
system time of the child and the processes it reaped); and peak_rss_mb (peak
resident memory of the same).  ``--trace 1`` traces every operation and
reports the per-layer
metrics, medians over operations, among them trace.overhead_s, the tracing
cost estimated from the trace.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

``--record-reference`` writes the reference numbers of the seed to
``perfbench/reference/`` instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, Workload, _numbers  # noqa: E402

ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
#: an operation that runs longer than this is killed and counted as failed
OP_TIMEOUT_S = 60.0
#: padding arguments are 0 to PAD_MAX - 1 characters long
PAD_MAX = 128
#: pinned to 1 in every child, so each call is a single-threaded baseline
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# machine record


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(Path(base).glob("index*")) if Path(base).is_dir() else []:
        level = _read(f"{index}/level")
        kind = _read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{index}/size")
    try:
        from numpy.fft import _pocketfft_umath  # noqa: F401

        backend = "pocketfft (numpy.fft)"
    except ImportError:
        backend = "numpy.fft"
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": backend,
        "thread_env": {k: child_env()[k] for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# one operation


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{BENCH_DIR}"
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_op(argv: list[str], work: Path, trace_dir: Path | None,
           calibrator: Calibrator | None = None, cpu: int | None = None, pad: int = 0) -> dict:
    """Run one CLI call; time it from outside and return its measurements.

    With ``cpu`` the call is pinned to that CPU; with ``calibrator`` its
    times are also scaled to the reference host speed.  ``pad`` is the
    length of an unused argument, which shifts the call's memory layout.
    """
    result_path = work / "op-result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           str(trace_dir or ""), "x" * pad, "--", *argv]
    with open(work / "op-stdout.txt", "w+") as out, open(work / "op-stderr.txt", "w+") as err:
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        cal_before = calibrator.read() if calibrator else None
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True, preexec_fn=pin)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            cal_after = calibrator.read() if calibrator else None
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            _kill_group(proc.pid)  # pool workers the child left behind, if any
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    op = {"code": proc.returncode, "stdout": stdout, "stderr": stderr}
    if proc.returncode != 0 or not result_path.is_file():
        return op
    result = json.loads(result_path.read_text())
    op.update(
        code=result["code"],
        package=result["package"],
        wall_setup_s=result["t_entry"] - t_spawn,
        wall_run_s=result["t_exit"] - result["t_entry"],
        setup_s=result["cpu_entry"],
        run_s=result["cpu_exit"] - result["cpu_entry"],
        # the child and every process it reaped, pool workers included
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
    )
    if calibrator:
        slowdown = calibrator.slowdown(cal_before, cal_after)
        op["slowdown"] = slowdown
        for key in ("setup_s", "run_s", "cpu_s"):
            op[key] /= slowdown
    return op


# ---------------------------------------------------------------------------
# trace aggregation


def layer_metrics(trace_dir: Path) -> tuple[dict[str, float], dict[str, int], int]:
    """Per-layer numbers of one traced operation, from every process's trace file.

    Returns (metrics, calls by transform shape, spans that do not nest).
    """
    names = tracer.span_names()
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    durations: dict[str, list[float]] = {n: [] for n in names}
    counts = dict.fromkeys(tracer.COUNTERS, 0)
    shapes: dict[str, int] = {}
    overhead = 0.0
    bad = 0
    for path in sorted(trace_dir.glob("trace-*.json")):
        data = json.loads(path.read_text())
        spans = data["spans"]
        bad += tracer.nesting_errors(spans)
        for (name, start, end, _), own in zip(spans, tracer.self_times(spans)):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            durations[name].append(end - start)
        for key, value in data["counts"].items():
            counts[key] += value
        for key, value in data["fft_shapes"].items():
            shapes[key] = shapes.get(key, 0) + value
        overhead += data["overhead_s"]
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.total_s"] = total[name]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.ms_per_call"] = (
            1e3 * statistics.median(durations[name]) if durations[name] else 0.0
        )
    metrics.update(counts)
    metrics["trace.overhead_s"] = overhead
    return metrics, shapes, bad


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracer.span_names():
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s",
                      f"{name}.self_s": "s", f"{name}.ms_per_call": "ms"})
    units.update({"snapshots.bytes": "bytes", "fft.bytes_computed": "bytes",
                  "fft.flops_computed": "flop", "spectral.SpectralField.made": "count",
                  "grid.tables.hits": "count", "grid.tables.misses": "count",
                  "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# one workload


class Run:
    """The operations of one workload run and their checks."""

    def __init__(self, workload: Workload, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_output: dict[str, str] = {}
        self.nesting_errors = 0

    def operation(self, i: int, trace: bool, argv: list[str] | None = None,
                  calibrator: Calibrator | None = None, cpu: int | None = None,
                  pad: int = 0) -> dict | None:
        """Run and check operation ``i`` (or ``argv`` in its place); None if it failed."""
        wl = self.workload
        trace_dir = None
        if trace:
            trace_dir = self.work / f"trace-{i}"
            trace_dir.mkdir()
        wl.clear_outputs()
        self.attempted += 1
        op = run_op(argv or wl.argv(i), self.work, trace_dir, calibrator, cpu, pad)
        problems = []
        if op["code"] != 0 or "run_s" not in op:
            problems.append(f"exit code {op['code']}: {op['stderr'].strip()[-400:]}")
        elif not op.get("slowdown", 1.0) > 0:
            problems.append("no calibration step finished during the call")
        elif not Path(op["package"]).resolve().is_relative_to(ROOT / "src"):
            problems.append(f"imported voigt2d from {op['package']}, not from src/")
        else:
            try:
                out = wl.output(i, op["stdout"])
            except OSError as exc:
                problems.append(f"missing output: {exc}")
            else:
                problems += wl.check(i, out)
                first = self.first_output.setdefault(wl.key(i), out)
                if out != first:
                    problems.append(f"output {wl.key(i)} differs from the first operation's bytes")
                op["output"] = out
        if trace_dir is not None and not problems:
            op["layers"], op["fft_shapes"], bad = layer_metrics(trace_dir)
            self.nesting_errors += bad
        if trace_dir is not None:
            shutil.rmtree(trace_dir)
        if problems:
            self.failed += 1
            self.problems += [f"{wl.name} op {i}: {p}" for p in problems]
            return None
        return op


def _remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and check its outputs."""
    workload = WORKLOADS[name]()
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    calibrator = None
    try:
        workload.prepare(work, seed)
        run = Run(workload, work)
        run.operation(0, trace=False, argv=workload.warmup_argv())
        cpu = None
        # The speed of a sweep call depends by up to 9 % on where its arrays
        # land relative to cache lines, which the lengths of the strings the
        # interpreter allocates at start-up decide, the checkout's path among
        # them.  Each call gets a padding argument of seeded random length, so
        # the median is over layouts and does not depend on the path.
        layouts = random.Random(seed)
        if not trace:
            cpu = max(os.sched_getaffinity(0))
            calibrator = Calibrator(workload.calibration, cpu)
        ops: list[dict] = []
        start = time.monotonic()
        walls: list[float] = []
        i = 0
        # closed loop; an operation starts only if it is expected to end
        # by the deadline, give or take half its length
        while (
            not walls
            or time.monotonic() - start + 0.5 * statistics.median(walls) < seconds
            or (trace and len(ops) < 2)
        ):
            begin = time.monotonic()
            op = run.operation(i, trace, calibrator=calibrator, cpu=cpu,
                               pad=layouts.randrange(PAD_MAX))
            walls.append(time.monotonic() - begin)
            if op is not None:
                ops.append(op)
            i += 1
        elapsed = time.monotonic() - start
    finally:
        if calibrator is not None:
            calibrator.close()
        _remove_work(work)

    metrics: dict[str, float] = {}
    if ops and not trace:
        metrics = {key: statistics.median(op[key] for op in ops) for key in END_TO_END_UNITS}
    layers: dict[str, float] = {}
    shapes: dict[str, int] = {}
    if ops and trace:
        for key in ops[0]["layers"]:
            layers[key] = statistics.median(op["layers"][key] for op in ops)
        shapes = ops[0]["fft_shapes"]
        for op in ops[1:]:
            for key in tracer.COUNTERS + tuple(f"{n}.calls" for n in tracer.span_names()):
                if op["layers"][key] != ops[0]["layers"][key]:
                    run.problems.append(f"{name}: count {key} differs between traced operations")
    if run.nesting_errors:
        run.problems.append(f"{name}: {run.nesting_errors} spans outside their parent span")
    correct = run.failed == 0 and not run.problems and bool(ops)
    return {
        "name": name,
        "workload": workload,
        "seed": seed,
        "elapsed": elapsed,
        "ops": ops,
        "traced": trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": layers if trace else metrics,
        "end_to_end": metrics,
        "fft_shapes": shapes,
    }


def report(res: dict, machine: dict) -> None:
    """Human-readable lines of one workload run."""
    wl = res["workload"]
    kind = "traced" if res["traced"] else "untraced"
    print(f"workload {res['name']} (seed {res['seed']}): {len(res['ops'])} {kind} operations "
          f"in {res['elapsed']:.1f} s, closed loop, 1 client")
    print(f"  largest array {wl.largest_array_bytes()} bytes (computed); "
          f"caches {json.dumps(machine['caches'])}")
    for key, value in res["end_to_end"].items():
        scaled = "" if key == "peak_rss_mb" else ", at the reference speed"
        print(f"  {key:<16} {value:.6g} {END_TO_END_UNITS[key]} (median of calls{scaled})")
    if not res["traced"]:
        ops = res["ops"]
        slow = sorted(op["slowdown"] for op in ops)
        print(f"  {'slowdown':<16} {statistics.median(slow):.4g} (median; "
              f"{slow[0]:.4g} to {slow[-1]:.4g}): calibration CPU time over its reference time")
        for key in ("wall_run_s", "wall_setup_s"):
            print(f"  {key:<16} {statistics.median(op[key] for op in ops):.6g} s "
                  "(median of calls, unscaled, sharing the CPU with the calibration)")
        # a tail percentile is reported only with ten samples beyond it; with
        # n operations that is the (n-10)/n quantile, shown when above the median
        runs = sorted(op["run_s"] for op in res["ops"])
        n = len(runs)
        tail = f"p{100 * (n - 10) // n} {runs[n - 11]:.6g} s" if n > 20 else "none above the median"
        print(f"  {'run_s n':<16} {n} operations; median {statistics.median(runs):.6g} s; "
              f"tail with 10 samples beyond it: {tail}")
    frac = res["failed"] / max(res["attempted"], 1)
    print(f"  {'ops_failed_frac':<16} {frac:.6g} ({res['failed']} of {res['attempted']} operations)")
    if res["traced"]:
        units = per_layer_units()
        for key, value in res["metrics"].items():
            if not key.endswith(".calls") or value:
                print(f"  {key:<44} {value:.6g} {units[key]}")
        for key, value in sorted(res["fft_shapes"].items()):
            print(f"  fft calls {key:<24} {value}")
    for problem in res["problems"]:
        print(f"  FAILED CHECK: {problem}")


def record_reference(name: str, seed: int) -> None:
    """Write the reference numbers of one workload and seed."""
    workload = WORKLOADS[name]()
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload.prepare(work, seed)
        workload.reference = None
        run = Run(workload, work)
        numbers: dict[str, list[float]] = {}
        i = 0
        while i == 0 or workload.key(i) not in numbers:
            op = run.operation(i, trace=False)
            if op is None:
                raise SystemExit("\n".join(run.problems))
            numbers[workload.key(i)] = _numbers(op["output"])
            i += 1
    finally:
        _remove_work(work)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.reference_base}-seed{seed}.json"
    path.write_text(json.dumps(numbers, indent=1) + "\n")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "voigt2d" / "cli.py").is_file():
        print(f"error: no voigt2d sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # a terminating signal unwinds through the clean-up of the running operation
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.record_reference:
        if args.workload == "all":
            parser.error("--record-reference takes one workload")
        record_reference(args.workload, args.seed)
        return 0

    machine = machine_record()
    print("machine " + json.dumps(machine))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for res in results:
        report(res, machine)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['name']}."
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
