"""Command-line interface.

Subcommands: ``simulate`` integrates the configuration of a config with
a [model] section and writes a diagnostics CSV, plus a ``.vfld`` snapshot
at every snapshot time when ``[time] snapshot_every`` is set; ``sweep``
runs the convergence experiment of a config with a [sweep] section (one
engine for every regime, optionally over a process pool) and writes a
per-alpha error CSV with a human-readable summary; ``diagnose`` prints
norms and inequality ratios of a stored snapshot as CSV on standard
output.

Exit codes: 0 success, 2 configuration/format/usage errors, 3 blow-up.  The
whole config is checked when it is loaded, so an invalid value of any
setting exits 2 before anything is run or written.
All outputs are deterministic: repeated runs of one config are byte
identical, including across sweep concurrency levels.

Each command imports only the modules it runs.  This module loads the
config, diagnostics and snapshot layers; ``simulate`` imports the stepper
(``dynamics``), ``sweep`` the harness, which loads the stepper, and
``diagnose`` neither.  A pooled sweep alone loads multiprocessing
(``harness.ProcessPoolExecutor``), and the exit-3 mapping reads
``BlowUpError`` only when a command has failed.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .diagnostics import cz_ratio, gagliardo_ratio, sample_state, sobolev_norm
from .snapshots import (
    Snapshot,
    SnapshotError,
    _encode,
    read_snapshot,
    snapshot_of,
    write_snapshot,
)

if TYPE_CHECKING:
    from .harness import ConvergenceReport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _provenance(cfg: RunConfig) -> list[str]:
    lines = [f"# voigt2d {__version__}", f"# config sha256 {cfg.sha256}"]
    lines += [f"# {line}" for line in cfg.effective_lines()]
    return lines


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(cfg: RunConfig, name: str, header: list[str], rows) -> None:
    """Write out_dir/name: provenance, header, one line of repr floats per row."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    lines = _provenance(cfg) + [",".join(header)]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    path = os.path.join(cfg.out_dir, name)
    _write_lines(path, lines)
    print(f"wrote {path}")


def cmd_simulate(config_path: str) -> int:
    from .dynamics import integrate
    from .initial_data import realize

    cfg = load_config(config_path)
    record = integrate(realize(cfg.recipe, cfg.grid), cfg.solver_config())
    d = record.diagnostics
    _write_csv(cfg, "diagnostics.csv", ["t", *d], zip(record.times, *d.values()))

    if record.snapshots:
        for index, (t, omega) in enumerate(record.snapshots):
            snap_path = os.path.join(cfg.out_dir, f"snapshot_{index:04d}.vfld")
            write_snapshot(snap_path, snapshot_of(omega, t, record.config.alpha))
            print(f"wrote {snap_path}")
    return EXIT_OK


def _summary_lines(report: ConvergenceReport) -> list[str]:
    th = report.theoretical
    lines = [
        f"regime: {th.regime}",
        f"dt: {report.dt_used!r}",
        f"theoretical velocity slope: "
        + ("none" if th.velocity is None else repr(th.velocity)),
        f"theoretical vorticity slope: "
        + ("none" if th.vorticity is None else repr(th.vorticity)),
        f"theoretical form: {th.description}",
    ]
    for metric, fit in report.fits.items():
        lines.append(
            f"fitted {metric} slope: {fit.slope!r} (stderr {fit.stderr!r})"
        )
    for name, verdict in report.verdicts.items():
        lines.append(f"verdict {name}: {verdict}")
    for note in report.notes:
        lines.append(f"note: {note}")
    # at fixed M the Voigt term changes the dealiased system by
    # O(alpha k_c^2): below 1, the grid rather than alpha sets the error
    cutoff = report.plan.grid.dealias_cutoff
    for alpha in report.alphas:
        scale = alpha * cutoff**2
        lines.append(
            f"alpha*k_c^2 at alpha {alpha!r} (k_c = {cutoff}): {scale!r}"
            + (" grid-limited" if scale < 1.0 else "")
        )
    return lines


def cmd_sweep(config_path: str | None, self_test: bool, jobs: int | None) -> int:
    if self_test:
        if config_path is not None or jobs is not None:
            print("sweep: --self-test takes no config and no --jobs", file=sys.stderr)
            return EXIT_CONFIG
        return _self_test()
    if config_path is None:
        print("sweep: a config path is required unless --self-test", file=sys.stderr)
        return EXIT_CONFIG
    from .harness import run_sweep

    cfg = load_config(config_path)
    report = run_sweep(cfg.sweep_plan(jobs=1 if jobs is None else jobs))
    errors = report.errors
    _write_csv(cfg, "sweep.csv", ["alpha", *errors], zip(report.alphas, *errors.values()))

    summary = _summary_lines(report)
    summary_path = os.path.join(cfg.out_dir, "summary.txt")
    _write_lines(summary_path, _provenance(cfg) + summary)
    print(f"wrote {summary_path}")
    for line in summary:
        print(line)
    return EXIT_OK


def _self_test() -> int:
    """Exact and perturbed synthetic power laws through the rate fitter."""
    from .harness import fit_rate

    alphas = (1e-2, 1e-3, 1e-4, 1e-5)
    ok = True

    fit = fit_rate([(a, 2.0 * math.sqrt(a)) for a in alphas])
    good = abs(fit.slope - 0.5) <= 1e-10 and abs(fit.intercept - math.log(2.0)) <= 1e-10
    ok &= good
    print(f"self-test e=2*alpha^0.5: slope {fit.slope!r} "
          f"{'PASS' if good else 'FAIL'}")

    fit = fit_rate([(a, 7.0 * a) for a in alphas])
    good = abs(fit.slope - 1.0) <= 1e-10
    ok &= good
    print(f"self-test e=7*alpha: slope {fit.slope!r} {'PASS' if good else 'FAIL'}")

    fit = fit_rate([(a, math.sqrt(a) * (1.0 + 0.01 * math.sin(math.log(a)))) for a in alphas])
    good = 0.49 <= fit.slope <= 0.51
    ok &= good
    print(f"self-test perturbed power law: slope {fit.slope!r} "
          f"{'PASS' if good else 'FAIL'}")
    return EXIT_OK if ok else 1


def _sha256(snap: Snapshot) -> str:
    """The sha256 of the snapshot's file bytes, as the round trip is
    bit-exact, without reading the file again: the same row blocks that
    write_snapshot writes, one at a time."""
    digest = hashlib.sha256()
    for part in _encode(snap):
        digest.update(part)
    return digest.hexdigest()


def cmd_diagnose(
    snapshot_path: str,
    cz: tuple[float, ...],
    gagliardo: tuple[float, ...],
) -> int:
    snap = read_snapshot(snapshot_path)
    sha = _sha256(snap)
    time, alpha, m = snap.time, snap.alpha, snap.values.shape[0]
    try:
        omega = snap.field()
        del snap  # only omega is read from here on: its values go before the peak
        state = sample_state(omega, alpha)
    except ValueError as exc:
        raise SnapshotError(f"bad values in {snapshot_path!r}: {exc}") from exc

    lines = [
        f"# voigt2d {__version__}",
        f"# snapshot sha256 {sha}",
        "quantity,value",
        f"time,{time!r}",
        f"alpha,{alpha!r}",
        f"grid_size,{m}",
        f"omega_l2,{math.sqrt(state['enstrophy'])!r}",  # ||omega||_2 = sqrt(enstrophy)
        f"omega_sup,{state.pop('omega_sup')!r}",
        f"omega_h1,{sobolev_norm(omega, 1.0)!r}",
        f"velocity_l2,{math.sqrt(state['energy'])!r}",  # ||u||_2 = sqrt(energy)
        *(f"{name},{value!r}" for name, value in state.items()),
    ]
    try:  # one call per ratio evaluates all of its p on one oversampled field
        ratios = {
            "cz_ratio": zip(cz, cz_ratio(omega, cz)),
            "gagliardo_ratio": zip(gagliardo, gagliardo_ratio(omega, gagliardo)),
        }
    except ValueError as exc:  # p outside the ratio's domain, or undefined
        print(f"error: {exc}", file=sys.stderr)  # the message starts with the row name
        return EXIT_CONFIG
    lines += [f"{name}_p{p:g},{v!r}" for name, pv in ratios.items() for p, v in pv]
    print("\n".join(lines))
    return EXIT_OK


def _p_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad p list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voigt2d",
        description="Pseudo-spectral Euler / Euler-Voigt solver and "
        "convergence-experiment harness on the 2D torus.",
    )
    parser.add_argument("--version", action="version", version=f"voigt2d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one configuration")
    p_sim.add_argument("config", help="path to a run configuration file")

    p_sweep = sub.add_parser("sweep", help="run a convergence experiment")
    p_sweep.add_argument("config", nargs="?", help="path to a run configuration file")
    p_sweep.add_argument(
        "--self-test",
        action="store_true",
        help="check the rate fitter on synthetic power laws and exit",
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="processes for the alpha runs, at most one per alpha; each pooled "
        "run integrates its own Euler reference (default 1)",
    )

    p_diag = sub.add_parser("diagnose", help="print norms of a stored snapshot")
    p_diag.add_argument("snapshot", help="path to a .vfld snapshot file")
    p_diag.add_argument(
        "--cz", type=_p_list, default=(), help="comma list of p for cz_ratio rows"
    )
    p_diag.add_argument(
        "--gagliardo",
        type=_p_list,
        default=(),
        help="comma list of p for gagliardo_ratio rows",
    )
    return parser


def entry(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.self_test, args.jobs)
        return cmd_diagnose(args.snapshot, args.cz, args.gagliardo)
    except (ConfigError, SnapshotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        from .dynamics import BlowUpError  # loaded here only on a failure

        if not isinstance(exc, BlowUpError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
