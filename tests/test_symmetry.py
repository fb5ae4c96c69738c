"""The pipeline commutes with the symmetries of the periodic grid.

Each symmetry acts on collocation values.  The reflection x1 <-> x2
transposes them and maps omega to -omega o R, since vorticity is a
pseudo-scalar; ``np.rot90`` (a quarter turn about a grid node, then a shift
by one cell) and ``np.roll`` by whole cells keep omega's sign.  Euler and
Euler-Voigt commute with all three, so integrating the image of omega0
gives the image of the integrated omega0, and every diagnostic of the two
runs agrees.  A symmetry needs no oracle: the half spectrum and the
stepper's live block cut k2 and not k1, so a row/column mix-up of that
layout breaks the reflection and the quarter turn even where a test oracle
shares the code's conventions.  A shift multiplies each mode by a phase, so
it commutes with dropping modes of a field; it guards the directions of the
transforms and the conjugate pairs that the half spectrum leaves implicit.

Each bound is a multiple of eps, about twice the largest defect measured
over seeds 0 .. 199 of every case here (the sweeps: seeds 0 .. 199 of each
datum); each constant names its largest.
"""

from functools import lru_cache

import numpy as np
import pytest

from voigt2d import (
    DataRecipe,
    GridSpec,
    SolverConfig,
    SpectralField,
    SweepPlan,
    cz_ratio,
    forward_transform,
    gagliardo_ratio,
    integrate,
    inverse_transform,
    l2_norm,
    make_random_sobolev,
    make_yudovich_patch,
    run_sweep,
    sample_state,
)
from voigt2d import harness
from voigt2d.initial_data import realize

EPS = np.finfo(float).eps
#: the image's final state against the final state's image, relative to
#: its sup: measured at most 18.2 eps (reflection, random_sobolev, alpha 0)
STATE_BOUND = 36.0 * EPS
#: each sample_state value, relative: measured at most 10.8 eps (rot90,
#: random_sobolev, alpha 0, omega_sup)
RECORD_BOUND = 22.0 * EPS
#: cz_ratio and gagliardo_ratio of the final states, relative: measured at
#: most 9.8 eps (reflection, random_sobolev, alpha 0, cz_ratio)
RATIO_BOUND = 20.0 * EPS
#: each sweep error against ||omega0||_2, the scale of its roundoff, since
#: the smallest errors are differences of nearly equal runs: measured at
#: most 1.07 eps (random_sobolev, sup_u_h1)
SWEEP_BOUND = 2.2 * EPS

SYMMETRIES = {
    "reflection": lambda v: -v.T,
    "rot90": np.rot90,
    "roll": lambda v: np.roll(v, (3, -5), axis=(0, 1)),
}
DATA = {
    "random_sobolev": lambda g, seed: make_random_sobolev(g, 3.0, seed, g.dealias_cutoff),
    "yudovich_patch": lambda g, seed: make_yudovich_patch(g, 1.0, seed=seed),
}
CASES = [
    (sym, kind, alpha)
    for sym in SYMMETRIES
    for kind in DATA
    for alpha in (0.0, 1e-2)
]
SEEDS = range(3)


def image(symmetry: str, f: SpectralField) -> SpectralField:
    """The field whose collocation values are the symmetry's image of f's."""
    return forward_transform(SYMMETRIES[symmetry](inverse_transform(f)), f.grid)


def relative(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| over the largest |a|: the defect of a field."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(a)))


def each_relative(a, b) -> float:
    """Largest |a - b| / |a| over the entries: the defect of a few numbers."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.abs(a)))


@lru_cache(maxsize=None)
def runs(symmetry: str, kind: str, alpha: float, seed: int):
    """Both runs, from a seeded datum on the 32 grid and from its image,
    to T = 0.5, with a record every 0.25 and a snapshot at the end."""
    g = GridSpec(32)
    f = DATA[kind](g, seed)
    config = SolverConfig(g, alpha, t_end=0.5, record_every=0.25, dt=0.05, snapshot_every=0.5)
    return integrate(f, config), integrate(image(symmetry, f), config)


def final(record) -> SpectralField:
    return record.snapshots[-1][1]


@pytest.mark.parametrize("symmetry, kind, alpha", CASES)
def test_integrate_commutes(symmetry, kind, alpha):
    for seed in SEEDS:
        plain, moved = runs(symmetry, kind, alpha, seed)
        want = SYMMETRIES[symmetry](inverse_transform(final(plain)))
        assert relative(want, inverse_transform(final(moved))) <= STATE_BOUND, seed


@pytest.mark.parametrize("symmetry, kind, alpha", CASES)
def test_sample_state_is_invariant(symmetry, kind, alpha):
    # every record of the two runs, and the data and its image directly
    for seed in SEEDS:
        plain, moved = runs(symmetry, kind, alpha, seed)
        assert list(moved.diagnostics) == list(plain.diagnostics)
        for key, want in plain.diagnostics.items():
            assert each_relative(want, moved.diagnostics[key]) <= RECORD_BOUND, (seed, key)
        f = DATA[kind](GridSpec(32), seed)
        want, got = sample_state(f, alpha), sample_state(image(symmetry, f), alpha)
        assert list(got) == list(want)
        assert each_relative(list(want.values()), list(got.values())) <= RECORD_BOUND, seed


@pytest.mark.parametrize("symmetry, kind, alpha", CASES)
def test_ratios_are_invariant(symmetry, kind, alpha):
    ps = (4.0, 2.5, 8.0)
    for seed in SEEDS:
        plain, moved = runs(symmetry, kind, alpha, seed)
        for ratio in (cz_ratio, gagliardo_ratio):
            got = ratio(final(moved), ps)
            assert each_relative(ratio(final(plain), ps), got) <= RATIO_BOUND, seed


@pytest.mark.parametrize(
    "recipe",
    [
        DataRecipe("random_sobolev", {"sigma": 3.0, "band": 10}, seed=4),
        DataRecipe("yudovich_patch", {"radius": 1.0}, seed=4),
    ],
    ids=lambda recipe: recipe.kind,
)
def test_sweep_errors_of_reflected_data_are_the_originals(monkeypatch, recipe):
    plan = SweepPlan(
        recipe=recipe,
        alphas=(1e-1, 3e-2, 1e-2, 1e-3),
        grid=GridSpec(32),
        t_end=0.3,
        regime="smooth_s_ge_3",
        record_every=0.1,
        dt=0.05,
    )
    want = run_sweep(plan).errors
    scale = l2_norm(realize(plan.recipe, plan.grid))
    monkeypatch.setattr(
        harness, "realize", lambda recipe, grid: image("reflection", realize(recipe, grid))
    )
    got = run_sweep(plan).errors
    for metric, errors in want.items():
        defect = np.max(np.abs(np.subtract(errors, got[metric])))
        assert defect <= SWEEP_BOUND * scale, metric
