"""The benchmark's workloads: inputs made from a seed, the CLI call of one
operation, and the checks every operation's outputs must pass.

Each workload is one ``voigt2d`` subcommand.  Its inputs depend only on the
benchmark seed, and its cost does not: the sweep uses a fixed time step and
the diagnose fields all have one size.  That keeps run-to-run spread across
seeds down to the machine's own noise.

The rationale of each workload and the layer-to-metric predictions are in
``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: relative tolerance of the comparison with recorded reference numbers
REFERENCE_RTOL = 1e-7
#: criterion-11 envelopes of the diagnose ratios
CZ_MAX = 0.40
GAGLIARDO_MAX = 1.05

SWEEP_ALPHAS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
SWEEP_M = 64
SWEEP_T = 0.5
SWEEP_RECORD = 0.1
SWEEP_DT = 0.004

DIAG_M = 512
DIAG_CZ = (4, 8, 16, 32, 64)
DIAG_GAGLIARDO = (2, 4, 8, 16, 32, 64)
#: the criterion-11 family: five random_sobolev fields (sigma 3, band 10)
#: and two vortex patches (radius 0.6)
DIAG_SOBOLEV = 5
DIAG_PATCHES = 2

_VFLD_HEADER = struct.Struct("<4sIIdd")
_COMPLEX = 16  # bytes of one complex128 value


def _numbers(csv_text: str) -> list[float]:
    """Every number of a CSV body, in order; comment and header lines skipped."""
    out = []
    for line in csv_text.splitlines():
        if not line or line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                out.append(float(cell))
            except ValueError:
                pass
    return out


def _rows(csv_text: str) -> list[list[float]]:
    """Numeric rows of a CSV body whose first cell is a number."""
    rows = []
    for line in csv_text.splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            continue
    return rows


def compare_reference(numbers: list[float], reference: list[float]) -> list[str]:
    if len(numbers) != len(reference):
        return [f"{len(numbers)} numbers, reference has {len(reference)}"]
    problems = []
    for i, (got, want) in enumerate(zip(numbers, reference)):
        if not abs(got - want) <= REFERENCE_RTOL * max(abs(want), 1e-300):
            problems.append(f"number {i}: {got!r} differs from reference {want!r}")
    return problems


def load_reference(base: str, seed: int) -> dict[str, list[float]] | None:
    path = REFERENCE_DIR / f"{base}-seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def write_vfld(path: Path, values: np.ndarray, time: float, alpha: float) -> None:
    """The ``.vfld`` snapshot layout: header, then values with x fastest."""
    m = values.shape[0]
    with open(path, "wb") as fh:
        fh.write(_VFLD_HEADER.pack(b"VFLD", 1, m, time, alpha))
        fh.write(np.ascontiguousarray(values.T, dtype="<f8").tobytes())


class Workload:
    """One benchmark workload.

    ``prepare`` writes the inputs of a seed into a work directory,
    ``argv(i)`` is the CLI call of operation ``i``, ``output(i, stdout)``
    reads the operation's primary output and ``check`` returns the list of
    problems found in it (empty when correct).
    """

    name = ""
    reference_base = ""
    #: the calibration kernel that samples the host's speed (calibrate.py)
    calibration = "small"

    def __init__(self) -> None:
        self.reference: dict[str, list[float]] | None = None

    def prepare(self, work: Path, seed: int) -> None:
        self.reference = load_reference(self.reference_base, seed)

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def warmup_argv(self) -> list[str]:
        return self.argv(0)

    def key(self, i: int) -> str:
        """Name of the output operation ``i`` produces; equal keys give equal bytes."""
        return self.reference_base

    def clear_outputs(self) -> None:
        """Remove the files an operation writes, so each check sees fresh ones."""

    def output(self, i: int, stdout: str) -> str:
        raise NotImplementedError

    def check(self, i: int, out: str) -> list[str]:
        raise NotImplementedError

    def check_reference(self, i: int, out: str) -> list[str]:
        if self.reference is None:
            return []
        ref = self.reference.get(self.key(i))
        if ref is None:
            return [f"no reference entry {self.key(i)!r}"]
        return compare_reference(_numbers(out), ref)

    def largest_array_bytes(self) -> int:
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"
    reference_base = "sweep"

    def prepare(self, work: Path, seed: int) -> None:
        super().prepare(work, seed)
        self.out_dir = work / "sweep"
        self.config = work / "sweep.ini"
        alphas = ", ".join(repr(a) for a in SWEEP_ALPHAS)
        self.config.write_text(
            f"[grid]\nsize = {SWEEP_M}\n\n"
            f"[time]\nt_end = {SWEEP_T!r}\nrecord_every = {SWEEP_RECORD!r}\n"
            f"dt = {SWEEP_DT!r}\n\n"
            "[init]\nkind = random_sobolev\nsigma = 3.25\nband = 21\n"
            f"amplitude = 5.0\nseed = {seed}\n\n"
            f"[sweep]\nalphas = {alphas}\nregime = smooth_s_ge_3\n\n"
            f"[output]\ndirectory = {self.out_dir}\n"
        )

    def argv(self, i: int) -> list[str]:
        return ["sweep", str(self.config)]

    def warmup_argv(self) -> list[str]:
        # the process-pool sweep: every timed serial sweep must reproduce its
        # bytes, which is the criterion-10 property
        return ["sweep", str(self.config), "--jobs", "2"]

    def clear_outputs(self) -> None:
        for name in ("sweep.csv", "summary.txt"):
            (self.out_dir / name).unlink(missing_ok=True)

    def output(self, i: int, stdout: str) -> str:
        return (self.out_dir / "sweep.csv").read_text()

    def check(self, i: int, out: str) -> list[str]:
        rows = _rows(out)
        problems = []
        if [r[0] for r in rows] != list(SWEEP_ALPHAS):
            problems.append(f"alpha column {[r[0] for r in rows]} is not {SWEEP_ALPHAS}")
        if any(len(r) != 4 or not all(math.isfinite(x) and x > 0 for x in r) for r in rows):
            problems.append("sweep.csv has a row that is not 4 positive finite numbers")
        return problems + self.check_reference(i, out)

    def largest_array_bytes(self) -> int:
        return SWEEP_M * SWEEP_M * _COMPLEX


class Diagnose(Workload):
    name = "diagnose"
    reference_base = "diagnose"
    calibration = "large"

    def prepare(self, work: Path, seed: int) -> None:
        super().prepare(work, seed)
        self.inputs = []
        for index, values in enumerate(diagnose_fields(seed)):
            path = work / f"field_{index}.vfld"
            write_vfld(path, values, time=0.25 * index, alpha=0.0)
            self.inputs.append(path)

    def argv(self, i: int) -> list[str]:
        return [
            "diagnose",
            str(self.inputs[i % len(self.inputs)]),
            "--cz", ",".join(str(p) for p in DIAG_CZ),
            "--gagliardo", ",".join(str(p) for p in DIAG_GAGLIARDO),
        ]

    def key(self, i: int) -> str:
        return f"field_{i % len(self.inputs)}"

    def output(self, i: int, stdout: str) -> str:
        return stdout

    def check(self, i: int, out: str) -> list[str]:
        values = {}
        for line in out.splitlines():
            name, _, text = line.partition(",")
            try:
                values[name] = float(text)
            except ValueError:
                continue
        index = i % len(self.inputs)
        expected = (
            [f"cz_ratio_p{p}" for p in DIAG_CZ]
            + [f"gagliardo_ratio_p{p}" for p in DIAG_GAGLIARDO]
            + ["time", "alpha", "grid_size", "omega_l2", "energy", "voigt_enstrophy"]
        )
        missing = [k for k in expected if k not in values]
        if missing:
            return [f"diagnose output lacks {missing}"]
        problems = []
        if not all(math.isfinite(v) for v in values.values()):
            problems.append("diagnose printed a non-finite value")
        if (values["time"], values["alpha"], values["grid_size"]) != (0.25 * index, 0.0, DIAG_M):
            problems.append("diagnose reports another time, alpha or grid size than stored")
        cz = max(values[f"cz_ratio_p{p}"] for p in DIAG_CZ)
        gn = max(values[f"gagliardo_ratio_p{p}"] for p in DIAG_GAGLIARDO)
        if not cz <= CZ_MAX:
            problems.append(f"cz ratio {cz!r} exceeds {CZ_MAX}")
        if not gn <= GAGLIARDO_MAX:
            problems.append(f"gagliardo ratio {gn!r} exceeds {GAGLIARDO_MAX}")
        return problems + self.check_reference(i, out)

    def largest_array_bytes(self) -> int:
        # the 2x oversampled grid of values_oversampled
        return (2 * DIAG_M) ** 2 * _COMPLEX


def diagnose_fields(seed: int) -> list[np.ndarray]:
    """Real grid values of the criterion-11 family at M = 512, from a seed."""
    m = DIAG_M
    fields = []
    for index in range(DIAG_SOBOLEV):
        rng = np.random.default_rng([seed, index])
        c = np.zeros((m, m), dtype=np.complex128)
        band, sigma = 10, 3.0
        for k1 in range(band + 1):
            for k2 in range(-band, band + 1):
                if (k1 == 0 and k2 <= 0) or k1 * k1 + k2 * k2 > band * band:
                    continue
                coeff = (k1 * k1 + k2 * k2) ** (-sigma / 2) * np.exp(2j * np.pi * rng.random())
                c[k1 % m, k2 % m] = coeff
                c[-k1 % m, -k2 % m] = np.conj(coeff)
        fields.append(np.fft.ifft2(c).real * m * m)
    h = 2 * np.pi / m
    x = np.arange(m) * h
    cut = m // 3
    k = np.fft.fftfreq(m, d=1.0 / m)
    keep = (np.abs(k)[:, None] <= cut) & (np.abs(k)[None, :] <= cut)
    for index in range(DIAG_PATCHES):
        rng = np.random.default_rng([seed, DIAG_SOBOLEV + index])
        c1, c2 = rng.uniform(0.0, 2 * np.pi, size=2)
        d1 = np.mod(x[:, None] - c1 + np.pi, 2 * np.pi) - np.pi
        d2 = np.mod(x[None, :] - c2 + np.pi, 2 * np.pi) - np.pi
        patch = 0.5 * (1.0 - np.tanh((np.hypot(d1, d2) - 0.6) / (2.0 * h)))
        spec = np.fft.fft2(patch) * keep
        spec[0, 0] = 0.0
        values = np.fft.ifft2(spec).real
        fields.append(values / np.max(np.abs(values)))
    return fields


#: workload name -> constructor of a fresh instance
WORKLOADS = {
    "sweep": Sweep,
    "diagnose": Diagnose,
}
