import numpy as np
import pytest

from navpredict.grid import MIN_REACH, CellGrid


def _grids():
    rng = np.random.default_rng(41)
    lo = rng.uniform(-2000.0, 2000.0, (2, 300))
    points = rng.uniform(-50.0, 50.0, (2, 200))
    return {
        "boxes": CellGrid(lo, lo + rng.uniform(0.0, 300.0, (2, 300)), 100.0),
        "points": CellGrid(points, points, 7.5),
        "empty": CellGrid(np.zeros((2, 0)), np.zeros((2, 0)), 100.0),
    }


@pytest.mark.parametrize("name", ["boxes", "points", "empty"])
def test_one_centre_box_matches_cells(name):
    # The scalar box of one centre must give the array form's cells bit
    # for bit: random centres, centres on cell edges, and extremes whose
    # offsets leave the float range or the grid.
    grid = _grids()[name]
    rng = np.random.default_rng(43)
    on_edges = grid.origin + grid.cell * np.array([[0, 0], [1, 3], [7, 2]])
    centres = [*rng.uniform(-5000.0, 5000.0, (300, 2)).tolist(),
               *on_edges.tolist(),
               [1e308, -1e308], [-1.7e308, 1.7e308],
               [1.7976931348623157e308, 0.0], [0.0, -1e308],
               [1e6, -1e6], [-9e5, 9e5], [5e-324, -5e-324], [0.0, 0.0]]
    halves = [MIN_REACH, MIN_REACH / 2, 0.0, 1e-300, 0.5, 57.3, grid.cell,
              1e5, 1e308, 1.7e308]
    for cx, cy in centres:
        for half in halves:
            (x0, y0), (x1, y1) = grid.cells(np.array([[cx, cy]]),
                                            half)[:, 0].tolist()
            assert grid.box(cx, cy, half) == (x0, x1, y0, y1), (cx, cy, half)
