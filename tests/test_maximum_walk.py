"""The first-maximum walk against the selection code it replaced.

`_argmax_walk` is the former SIC candidate loop: an `np.nonzero` +
`np.lexsort` tie-break over the whole grid, then box masking. `_greedy_peaks`
is the former `find_peaks` selection: the lexsort plateau picker, a
threshold filter, a sort and a greedy separation check.
`_ndimage_plateau_peaks` is the former `scipy.ndimage` plateau picker. All
are kept here as references. Grids of integer dB levels make exact ties common.
"""

import tracemalloc
from itertools import islice

import numpy as np
import pytest
from scipy import ndimage

from masounder.beamform import (BeamPattern, Padp, UvBeam, _plateau_peaks,
                                descending_cells, find_peaks, padp_ura)
from masounder.channel import gen_ura_cfr
from masounder.scenario import parse_scenario
from masounder.sic import detect_strongest

from conftest import scenario_path

SEEDS = range(6)


def _argmax_cell(level):
    rows, cols = np.nonzero(level == level.max())
    k = np.lexsort((cols, rows))[0]
    return int(rows[k]), int(cols[k])


def _argmax_walk(level, floor, half_box):
    work = level.copy()
    dr, dc = half_box
    cells = []
    while work.max() >= floor:
        r, c = _argmax_cell(work)
        cells.append((r, c))
        work[max(r - dr, 0):r + dr + 1, max(c - dc, 0):c + dc + 1] = -np.inf
    return cells


def _lexsort_plateau_peaks(level):
    neigh = ndimage.maximum_filter(level, size=3, mode="constant", cval=-np.inf)
    mask = level >= neigh
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), int))
    rows, cols = np.nonzero(mask)
    labs = labels[rows, cols]
    order = np.lexsort((cols, rows, labs))
    sorted_labs = labs[order]
    first = np.nonzero(np.r_[True, sorted_labs[1:] != sorted_labs[:-1]])[0]
    keep = order[first]
    return [(int(r), int(c)) for r, c in zip(rows[keep], cols[keep])]


def _ndimage_plateau_peaks(level):
    neigh = ndimage.maximum_filter(level, size=3, mode="constant", cval=-np.inf)
    labels, _ = ndimage.label(level >= neigh, structure=np.ones((3, 3), int))
    labs, first = np.unique(labels, return_index=True)
    cells = np.unravel_index(first[labs > 0], level.shape)
    peaks = np.full(level.shape, -np.inf)
    peaks[cells] = level[cells]
    return peaks


def _greedy_peaks(pattern, dynamic_range_db, min_separation):
    level = pattern.level_db()
    cells = _lexsort_plateau_peaks(level)
    top = max(level[r, c] for r, c in cells)
    cells = [(r, c) for r, c in cells if level[r, c] >= top - dynamic_range_db]
    tiebreak = (lambda rc: (rc[1], rc[0])) if isinstance(pattern, BeamPattern) \
        else (lambda rc: (rc[0], rc[1]))
    cells.sort(key=lambda rc: (-level[rc], *tiebreak(rc)))
    accepted = []
    for r, c in cells:
        if all(max(abs(r - ar), abs(c - ac)) >= min_separation for ar, ac in accepted):
            accepted.append((r, c))
    return accepted


def _integer_levels(seed, shape=(37, 23), low=-12):
    return np.random.default_rng(seed).integers(low, 1, size=shape).astype(float)


def _pattern(kind, level, fortran):
    """A grid of the given type whose level_db() is level: a Padp holds it,
    a beam holds field values that give it up to rounding that keeps equal
    levels equal."""
    if fortran:
        level = np.asfortranarray(level)
    n_r, n_c = level.shape
    rows, cols = np.arange(n_r, dtype=float), np.arange(n_c, dtype=float)
    if kind == "padp":
        return Padp(level, rows * 1e-10, cols, 90.0, "ma")
    values = 10.0 ** (level / 20.0)
    if kind == "beam":
        return BeamPattern(values, rows, cols, 28e9, "ura")
    return UvBeam(values, rows / n_r, cols / n_c, 28e9, "ura")


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("pad", [1, 2, 4])
@pytest.mark.parametrize("depth_db", [3.0, 30.0])
def test_walk_matches_lexsort_oracle(fortran, pad, depth_db):
    for seed in SEEDS:
        level = _integer_levels(seed)
        if fortran:
            level = np.asfortranarray(level)
        floor = level.max() - depth_db
        got = list(descending_cells(level, floor, (2 * pad, 3)))
        assert got == _argmax_walk(level, floor, (2 * pad, 3))


def _tied_columns():
    """Equal maxima in several columns at different rows: the first in C
    order is neither the lowest column nor the last one reduced."""
    level = np.full((9, 11), -5.0)
    level[6, 1] = level[2, 8] = level[2, 4] = level[4, 0] = 0.0
    level[0, 9] = level[7, 9] = -1.0
    return level


@pytest.mark.parametrize("level, half_box", [
    (_tied_columns(), (0, 0)), (_tied_columns(), (1, 1)), (_tied_columns(), (3, 0)),
    (_integer_levels(2, shape=(1, 40), low=-2), (0, 1)),
    (_integer_levels(3, shape=(40, 1), low=-2), (2, 0)),
    (_integer_levels(4, shape=(6, 5)), (10, 10)),
    (_integer_levels(5, shape=(6, 5)), (1, 9)),
    (_integer_levels(6, shape=(23, 37)).T, (4, 3)),
    (_integer_levels(7, shape=(23, 37))[::2, 1::3].T, (2, 1)),
], ids=["ties", "ties-box1", "ties-rows", "1xN", "Nx1", "box-over-grid",
        "box-over-cols", "transposed", "strided-transposed"])
def test_walk_matches_lexsort_oracle_on_shaped_grids(level, half_box):
    floor = level.max() - 12.0
    assert list(descending_cells(level, floor, half_box)) == \
        _argmax_walk(level, floor, half_box)


def test_walk_orders_tied_columns_by_row_then_column():
    got = list(descending_cells(_tied_columns(), -0.5, (0, 0)))
    assert got == [(2, 4), (2, 8), (4, 0), (6, 1)]


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_walk_rejects_an_empty_grid(shape):
    with pytest.raises(ValueError):
        next(descending_cells(np.zeros(shape), 0.0, (1, 1)))


def test_walk_ends_at_a_nan():
    level = _integer_levels(8, shape=(7, 6)).astype(float)
    level[5, 4] = np.nan
    assert list(descending_cells(level, -np.inf, (0, 0))) == []


def test_walk_skips_minus_inf_and_leaves_input_alone():
    level = np.full((4, 5), -np.inf)
    level[1, 2] = level[3, 0] = 0.0
    before = level.copy()
    # islice: a walk that yielded hidden cells would never end.
    got = list(islice(descending_cells(level, -np.inf, (0, 0)), level.size + 1))
    assert got == [(1, 2), (3, 0)]
    np.testing.assert_array_equal(level, before)
    assert list(descending_cells(level, 1.0, (0, 0))) == []


@pytest.mark.parametrize("fortran", [False, True])
@pytest.mark.parametrize("kind", ["beam", "padp", "uv"])
@pytest.mark.parametrize("min_separation", [0, 1, 3])
@pytest.mark.parametrize("dynamic_range_db", [4.0, np.inf])
def test_find_peaks_matches_greedy_oracle(fortran, kind, min_separation,
                                          dynamic_range_db):
    for seed in SEEDS:
        pattern = _pattern(kind, _integer_levels(seed, low=-6), fortran)
        got = find_peaks(pattern, dynamic_range_db, min_separation)
        want = _greedy_peaks(pattern, dynamic_range_db, min_separation)
        assert [(p.row, p.col) for p in got] == want
        level = pattern.level_db()
        assert [p.level_db for p in got] == [level[rc] for rc in want]


def test_find_peaks_beam_pattern_tie_breaks_toward_low_azimuth():
    level = np.full((8, 9), -40.0)
    level[1, 6] = 0.0
    level[5, 2] = 0.0  # lower azimuth: first
    level[2, 2] = 0.0  # same azimuth, lower elevation: before (5, 2)
    peaks = find_peaks(_pattern("beam", level, False), dynamic_range_db=5,
                       min_separation=3)
    assert [(p.row, p.col) for p in peaks] == [(2, 2), (5, 2), (1, 6)]
    assert (peaks[0].theta_deg, peaks[0].phi_deg) == (2.0, 2.0)


def test_find_peaks_matches_greedy_oracle_on_compare_ura_profile():
    s = parse_scenario(scenario_path("table2_mimic"))
    cfr = gen_ura_cfr(s.paths, s.ura, s.freqs)
    padp = padp_ura(cfr, s.compare_theta_deg, s.scan_grid().phi_deg,
                    s.pad_factor, taper=s.ura_taper(), window=s.compare_window)
    got = find_peaks(padp, s.compare_dynamic_range_db, s.compare_min_separation)
    want = _greedy_peaks(padp, s.compare_dynamic_range_db, s.compare_min_separation)
    assert len(want) >= len(s.paths)
    assert [(p.row, p.col) for p in got] == want


def test_find_peaks_on_compare_ura_profile_holds_no_full_grid_labels():
    # The local maxima of the 3000 x 181 cut are found a block of rows at a
    # time and their plateaus labelled on their own cells: full-grid label,
    # index and neighbourhood arrays took 21 MiB traced beside the level.
    s = parse_scenario(scenario_path("table2_mimic"))
    cfr = gen_ura_cfr(s.paths, s.ura, s.freqs)
    padp = padp_ura(cfr, s.compare_theta_deg, s.scan_grid().phi_deg,
                    s.pad_factor, taper=s.ura_taper(), window=s.compare_window)
    tracemalloc.start()
    try:
        find_peaks(padp, s.compare_dynamic_range_db, s.compare_min_separation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert padp.level.shape == (3000, 181)
    assert peak <= 16 * 2 ** 20


def test_detect_strongest_matches_lexsort_oracle():
    for seed in SEEDS:
        beam = _pattern("beam", _integer_levels(seed, shape=(9, 14), low=-3), False)
        c, r = _argmax_cell(np.abs(beam.values).T)
        direction = detect_strongest(beam)
        assert (direction.theta_deg, direction.phi_deg) == (r, c)


def _u_plateau():
    """A U-shaped plateau: its first cell in C order tops the left arm, and
    the right arm reaches it only through the bottom."""
    level = np.full((12, 9), -3.0)
    level[1:11, 1] = level[1:11, 7] = level[10, 1:8] = 0.0
    return level


def _snake_plateau():
    """A one-cell-wide serpentine plateau whose first cell is its far end."""
    level = np.full((15, 15), -1.0)
    level[::4, :-1] = level[2::4, 1:] = 0.0
    level[1::4, -2] = level[3::4, 1] = 0.0
    return level


@pytest.mark.parametrize("level", [
    _integer_levels(0, shape=(1, 40), low=-2), _integer_levels(1, shape=(40, 1), low=-2),
    np.zeros((1, 1)), np.zeros((7, 5)), np.full((6, 6), -np.inf),
    _u_plateau(), _u_plateau()[::-1, ::-1], _snake_plateau(), _snake_plateau().T,
], ids=["1xN", "Nx1", "1x1", "constant", "all-minus-inf", "U", "U-flipped",
        "snake", "snake-T"])
def test_plateau_peaks_matches_ndimage_on_shaped_grids(level):
    np.testing.assert_array_equal(_plateau_peaks(level), _ndimage_plateau_peaks(level))


def test_plateau_peaks_matches_ndimage_on_integer_grids():
    rng = np.random.default_rng(3)
    for seed in range(300):
        shape = tuple(int(k) for k in rng.integers(1, 40, size=2))
        level = _integer_levels(seed, shape=shape, low=-int(rng.integers(0, 6)))
        for grid in (level, level.T, np.asfortranarray(level)):
            np.testing.assert_array_equal(_plateau_peaks(grid),
                                          _ndimage_plateau_peaks(grid))
