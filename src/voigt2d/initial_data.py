"""Deterministic initial vorticity generators.

Every generator is fully determined by its arguments and seed, and (for
band-limited recipes) produces the same Fourier coefficients on any grid
large enough to hold the band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .grid import TWO_PI, GridSpec, tables
from .spectral import (
    SpectralField,
    dealias,
    forward_transform,
    values_oversampled,
    zero_mean,
)

#: marks a parameter that has no default
REQUIRED = ...

#: kind -> {parameter: (type, default)}, required parameters first; read by
#: DataRecipe and by the config parser
INIT_PARAMS = {
    "eigenfunction": {"k1": (int, 1), "k2": (int, 0), "amplitude": (float, 1.0)},
    "random_sobolev": {
        "sigma": (float, REQUIRED),
        "band": (int, REQUIRED),
        "amplitude": (float, 1.0),
    },
    "yudovich_patch": {
        "radius": (float, REQUIRED),
        "smoothing": (float, None),
        "amplitude": (float, 1.0),
    },
    "taylor_family": {
        "mode": (int, 1),
        "amplitude": (float, 1.0),
        "perturbation": (float, 0.0),
    },
}
KINDS = tuple(INIT_PARAMS)


@dataclass(frozen=True)
class DataRecipe:
    """Named recipe: kind, kind-specific parameters, seed.  ``params`` is a
    read-only mapping of every parameter of the kind, typed, in INIT_PARAMS
    order, defaults filled in; the seed is typed too.  A ValueError names an
    unknown, missing or mistyped one (an int one with a fraction)."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown initial data kind {self.kind!r} (known: {', '.join(KINDS)})"
            )
        seed = _cast("seed", int, self.seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        spec = INIT_PARAMS[self.kind]
        unknown = sorted(set(self.params) - set(spec))
        if unknown:
            raise ValueError(f"unknown parameter(s) for {self.kind}: {unknown}")
        params = {}
        for name, (cast, default) in spec.items():
            value = self.params.get(name, default)
            if value is REQUIRED:
                raise ValueError(f"missing parameter {name!r} for {self.kind}")
            params[name] = None if value is None else _cast(name, cast, value)
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "seed", seed)

    def __hash__(self) -> int:
        return hash((self.kind, tuple(self.params.items()), self.seed))

    def __reduce__(self):
        # a mapping proxy does not pickle, and a sweep sends its recipe to a pool
        return DataRecipe, (self.kind, dict(self.params), self.seed)


def _cast(name: str, cast: type, value):
    """cast(value), raising ValueError naming the parameter unless it
    converts, and for an int parameter converts without dropping a fraction."""
    try:
        if cast is not int or int(value) == value:
            return cast(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be {cast.__name__}-valued, got {value!r}")


def check_params(kind: str, grid: GridSpec, given: Mapping, seed: int = 0) -> DataRecipe:
    """DataRecipe(kind, given, seed), its parameters checked to make data on
    grid; every generator reads its typed values and seed from this.  Beyond
    DataRecipe's errors, a ValueError names a parameter that is not finite
    or is out of its range on grid."""
    recipe = DataRecipe(kind, given, seed)
    p = recipe.params
    for name, value in p.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    cut = grid.dealias_cutoff
    if kind == "eigenfunction":
        k = (p["k1"], p["k2"])
        if k == (0, 0):
            raise ValueError("eigenfunction wave-vector must be nonzero")
        if max(abs(k[0]), abs(k[1])) > cut:
            raise ValueError(f"wave-vector {k} outside the dealias band (cutoff {cut})")
    elif kind == "random_sobolev":
        if not p["sigma"] > 0:
            raise ValueError(f"sigma must be positive, got {p['sigma']}")
        if not 1 <= p["band"] <= cut:
            raise ValueError(
                f"band must lie in [1, dealias_cutoff={cut}], got {p['band']}"
            )
    elif kind == "yudovich_patch":
        if not 0 < p["radius"] < np.pi:
            raise ValueError(f"radius must lie in (0, pi), got {p['radius']}")
        if p["smoothing"] is not None and not p["smoothing"] > 0:
            raise ValueError(f"smoothing must be positive, got {p['smoothing']}")
    else:
        m = p["mode"]
        if m < 1:
            raise ValueError(f"mode must be >= 1, got {m}")
        if (m + 1 if p["perturbation"] else m) > cut:
            raise ValueError("taylor modes outside the dealias band")
    return recipe


def make_eigenfunction(
    grid: GridSpec, k: tuple[int, int], amplitude: float = 1.0
) -> SpectralField:
    """amplitude * cos(k . x): a steady state of both Euler and Voigt.

    k must be nonzero, int-valued and inside the dealias band so the mode
    survives the products untouched; check_params types and checks inputs.
    """
    given = dict(k1=k[0], k2=k[1], amplitude=amplitude)
    p = check_params("eigenfunction", grid, given).params
    k1, k2, m = p["k1"], p["k2"], grid.size
    c = np.zeros((m, m), dtype=np.complex128)
    c[k1 % m, k2 % m] = 0.5 * p["amplitude"]
    c[(-k1) % m, (-k2) % m] = 0.5 * p["amplitude"]
    return SpectralField(grid, c)


def _half_plane_modes(band: int) -> list[tuple[int, int]]:
    """One representative per conjugate pair with 0 < |k| <= band.

    Fixed enumeration order: (k1, k2) lexicographic over the half-plane
    k1 > 0 or (k1 == 0 and k2 > 0).  Independent of the grid size.
    """
    out = []
    for k1 in range(0, band + 1):
        for k2 in range(-band, band + 1):
            if k1 == 0 and k2 <= 0:
                continue
            if 0 < k1 * k1 + k2 * k2 <= band * band:
                out.append((k1, k2))
    return out


def make_random_sobolev(
    grid: GridSpec, sigma: float, seed: int, band: int, amplitude: float = 1.0
) -> SpectralField:
    """Random-phase vorticity with |omega_hat(k)| = amplitude * |k|^{-sigma}.

    Modes fill 0 < |k| <= band (Euclidean, band int-valued); one uniform
    phase per conjugate pair, drawn from a seeded generator in a fixed mode
    order.  The velocity gains one derivative, so choosing sigma slightly
    above s puts u in H^s.  check_params types and checks every input.
    """
    given = dict(sigma=sigma, band=band, amplitude=amplitude)
    recipe = check_params("random_sobolev", grid, given, seed)
    p, rng = recipe.params, np.random.default_rng(recipe.seed)
    m = grid.size
    c = np.zeros((m, m), dtype=np.complex128)
    for k1, k2 in _half_plane_modes(p["band"]):
        mag = p["amplitude"] * float(k1 * k1 + k2 * k2) ** (-p["sigma"] / 2.0)
        phase = np.exp(2j * np.pi * rng.random())
        c[k1 % m, k2 % m] = mag * phase
        c[(-k1) % m, (-k2) % m] = mag * np.conj(phase)
    return SpectralField(grid, c)


def make_yudovich_patch(
    grid: GridSpec,
    radius: float,
    smoothing: float | None = None,
    seed: int = 0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Mollified disc indicator, mean removed, sup normalized to amplitude.

    The disc center is drawn uniformly from the seed; the indicator is
    smoothed over ``smoothing`` (default two grid cells) so the patch lives
    on the grid, then dealiased, mean-zeroed, and scaled so the collocation
    sup norm equals ``amplitude``; check_params types and checks every input.
    """
    given = dict(radius=radius, smoothing=smoothing, amplitude=amplitude)
    recipe = check_params("yudovich_patch", grid, given, seed)
    p, rng = recipe.params, np.random.default_rng(recipe.seed)
    smoothing = 2.0 * grid.spacing if p["smoothing"] is None else p["smoothing"]
    center = rng.uniform(0.0, TWO_PI, size=2)
    x1, x2 = grid.meshgrid()
    d1 = np.mod(x1 - center[0] + np.pi, TWO_PI) - np.pi
    d2 = np.mod(x2 - center[1] + np.pi, TWO_PI) - np.pi
    r = np.hypot(d1, d2)
    vals = 0.5 * (1.0 - np.tanh((r - p["radius"]) / smoothing))
    f = zero_mean(dealias(forward_transform(vals, grid)))
    sup = float(np.max(np.abs(values_oversampled(f))))
    if sup == 0.0:
        raise ValueError("degenerate patch: zero field after projection")
    return f * (p["amplitude"] / sup)


def make_taylor_family(
    grid: GridSpec, mode: int = 1, amplitude: float = 1.0, perturbation: float = 0.0
) -> SpectralField:
    """Taylor-Green vortex array amplitude*cos(m x1)cos(m x2), optionally
    perturbed by a single cos((m+1) x1) mode to break steadiness; mode is
    int-valued, and check_params types and checks inputs."""
    given = dict(mode=mode, amplitude=amplitude, perturbation=perturbation)
    p = check_params("taylor_family", grid, given).params
    m, amplitude, perturbation = p["mode"], p["amplitude"], p["perturbation"]
    n = grid.size
    c = np.zeros((n, n), dtype=np.complex128)
    # cos(m x1) cos(m x2) = sum of quarter-amplitude modes at (+-m, +-m)
    for s1 in (1, -1):
        for s2 in (1, -1):
            c[(s1 * m) % n, (s2 * m) % n] += 0.25 * amplitude
    if perturbation:
        c[(m + 1) % n, 0] += 0.5 * perturbation * amplitude
        c[(-(m + 1)) % n, 0] += 0.5 * perturbation * amplitude
    return SpectralField(grid, c)


def realize(recipe: DataRecipe, grid: GridSpec) -> SpectralField:
    """Build the initial vorticity a recipe describes on a grid."""
    p = recipe.params
    if recipe.kind == "eigenfunction":
        return make_eigenfunction(grid, (p["k1"], p["k2"]), p["amplitude"])
    if recipe.kind == "random_sobolev":
        return make_random_sobolev(grid, seed=recipe.seed, **p)
    if recipe.kind == "yudovich_patch":
        return make_yudovich_patch(grid, seed=recipe.seed, **p)
    return make_taylor_family(grid, **p)


def galerkin_truncate(f: SpectralField, n: int) -> SpectralField:
    """Keep modes with 0 < |k| <= n (Euclidean); zero everything else."""
    if n < 1:
        raise ValueError(f"truncation wave-number must be >= 1, got {n}")
    w = f.half * (tables(f.grid).ksq <= float(n) * float(n))
    w[0, 0] = 0.0
    return SpectralField(f.grid, w, _half=True)
