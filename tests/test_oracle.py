"""The memoised oracle against plain exhaustive search, planted checkers and
parallel runs, plus zero-mismatch runs on the first GF(3) grid and the first
grid with rank excess 2."""

import pytest

import polyeig.oracle as oracle
from polyeig import eigenstructure, stack_rows
from polyeig.feasibility import FeasibilityReport
from polyeig.oracle import GridSpec, achieved_set, all_matrices, run_grid
from polyeig.realize import all_completion_rows

# the criterion-3 grids, then the two benchmark grids
ACHIEVED_GRIDS = [f"gf2 m={m} n={n} z=1 d={d}" for m, n, d in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1)]]
ACHIEVED_GRIDS += ["gf3 m=1 n=2 z=1 d=1", "gf2 m=1 n=2 z=2 d=1"]

PLANT_GRID = GridSpec.parse("gf2 m=1 n=2 z=1 d=1")


def always_feasible(pinv, target):
    return FeasibilityReport(())


@pytest.mark.parametrize("grid", ACHIEVED_GRIDS)
def test_memoised_achieved_set_equals_exhaustive(grid):
    g = GridSpec.parse(grid)
    ctx = oracle._GridContext()  # one memo across the grid, as run_grid has
    for P in all_matrices(g.m, g.n, g.d, g.field):
        plain = {eigenstructure(stack_rows(P, W)) for W in all_completion_rows(g.field, g.z, g.n, g.d)}
        assert achieved_set(P, g.z, g.d, _ctx=ctx) == plain
        assert achieved_set(P, g.z, g.d) == plain


def test_planted_checker_is_seen_and_not_cached(monkeypatch):
    monkeypatch.setitem(oracle.CHECKERS, "full", always_feasible)
    planted = run_grid(PLANT_GRID)
    assert planted and {rec["theorem"] for rec in planted} == {"full"}
    assert all(rec["checker"] and not rec["search"] for rec in planted)
    monkeypatch.undo()
    assert run_grid(PLANT_GRID) == []


def test_parallel_run_matches_serial(monkeypatch):
    monkeypatch.setitem(oracle.CHECKERS, "full", always_feasible)
    serial = run_grid(PLANT_GRID, jobs=1)
    assert serial
    assert run_grid(PLANT_GRID, jobs=2) == serial


@pytest.mark.parametrize("grid", ["gf3 m=1 n=2 z=1 d=1", "gf2 m=2 n=2 z=2 d=1"])
def test_no_mismatches_on_wider_grid(grid):
    assert run_grid(GridSpec.parse(grid)) == []
