"""One benchmark operation: a ``voigt2d`` CLI call in a fresh process.

Usage: child.py RESULT_JSON TRACE_DIR PAD -- CLI_ARGS...

Does what the ``voigt2d`` console script does (import ``voigt2d.cli`` and
call ``entry``), and writes to RESULT_JSON the monotonic clock just before
and just after ``entry``, the process's CPU time at both points, its return
code and the imported package path.
With a non-empty TRACE_DIR the layer wrappers of ``tracer`` are installed
first and the spans are written there.  PAD is not used: its length shifts
where the interpreter's start-up allocations end, and so the addresses of
the arrays the call makes.
"""

import json
import sys
import time


def main() -> int:
    result_path, trace_dir, _pad, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE_DIR PAD -- CLI_ARGS...")
    import voigt2d
    from voigt2d.cli import entry

    tracer = None
    if trace_dir:
        import tracer as tracing

        tracer = tracing.install(trace_dir)
    t_entry, cpu_entry = time.monotonic(), time.process_time()
    code = entry(argv)
    t_exit, cpu_exit = time.monotonic(), time.process_time()
    if tracer is not None:
        tracer.dump()
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump(
            {"t_entry": t_entry, "t_exit": t_exit, "cpu_entry": cpu_entry,
             "cpu_exit": cpu_exit, "code": code, "package": voigt2d.__file__},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
