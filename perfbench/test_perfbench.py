"""Tests of the benchmark itself: every check must reject a planted wrong answer.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import polyeig  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, rebind  # noqa: E402


class SmallEigQ(workloads.EigQ):
    SQUARE = ((3, 3, 1),)
    WIDE = ((3, 4, 1),)
    TALL = ((4, 3, 1),)
    DEFICIENT = ((3, 2, 3),)
    COPIES = 1


class SmallCheck(workloads.Check):
    STRATA = ((2, 1, 2, 1, 1), (3, 1, 3, 1, 2))
    P_PER = 2


class SmallOracle(workloads.OracleGrid):
    GRIDS = ("gf2 m=1 n=1 z=1 d=1",)


def _outputs(wl):
    return [wl.op(i) for batch in wl.batches for i in batch]


def _altered(es, **changes):
    fields = {f.name: getattr(es, f.name) for f in dataclasses.fields(es)}
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_reference_rank_and_det_degree():
    s_matrix = [[[0, 1], [0, 1]], [[1], [1]]]  # [[s, s], [1, 1]]
    assert ref.normal_rank(s_matrix) == 1
    assert ref.det_degree(s_matrix) == -1
    assert ref.normal_rank([[[0, 1], [1]], [[0], [0, 1]]]) == 2
    assert ref.det_degree([[[0, 1], [1]], [[0], [0, 1]]]) == 2  # det = s^2
    assert ref.det_degree([[[2, 0, 0, 5]]]) == 3


def test_eig_q_accepts_program_and_rejects_wrong_rank():
    wl = SmallEigQ(3)
    out = _outputs(wl)
    assert wl.verify(out) == []
    bad = list(out)
    bad[0] = _altered(out[0], rank=out[0].rank - 1)
    assert any("rank" in f for f in wl.verify(bad))


def test_eig_q_rejects_swapped_indices_and_wrong_finite_degree():
    wl = SmallEigQ(4)
    out = _outputs(wl)
    wide = next(i for i, (_, mat) in enumerate(wl.items) if len(mat) < len(mat[0]))
    bad = list(out)
    bad[wide] = _altered(out[wide], col_indices=out[wide].row_indices, row_indices=out[wide].col_indices)
    assert wl.verify(bad)
    square = next(i for i, (_, mat) in enumerate(wl.items) if len(mat) == len(mat[0]))
    h = out[square].hom_factors
    one = polyeig.HomogPoly(polyeig.poly_one(polyeig.QQ), 0)
    bad = list(out)
    bad[square] = _altered(out[square], hom_factors=(one,) * len(h))
    assert wl.verify(bad)


def test_check_accepts_program_and_rejects_flipped_verdicts():
    wl = SmallCheck(5)
    out = _outputs(wl)
    assert wl.verify(out) == []
    exhaustive = next(i for i, pair in enumerate(wl.pairs) if pair["stratum"][0] == 2)
    for k in range(len(workloads.THEOREMS)):
        bad = list(out)
        bad[exhaustive] = tuple(not v if j == k else v for j, v in enumerate(out[exhaustive]))
        assert wl.verify(bad), f"flipped verdict {k} passed"
    achieved = next(
        i for i, pair in enumerate(wl.pairs) if pair["source"] == "completion" and pair["stratum"][0] == 3
    )
    bad = list(out)
    bad[achieved] = (True, True, True, True, True, False)
    assert any("achieved" in f for f in wl.verify(bad))
    bad[achieved] = (True, False, True, True, True, True)
    assert any("full" in f for f in wl.verify(bad))


def test_oracle_grid_rejects_checker_forced_feasible():
    wl = SmallOracle(1)
    assert wl.verify(_outputs(wl)) == []
    original = polyeig.check_full

    def always_feasible(pinv, target):
        return polyeig.FeasibilityReport(())

    assert rebind(original, always_feasible) > 0
    try:
        forced = _outputs(wl)
    finally:
        rebind(always_feasible, original)
    assert polyeig.oracle.CHECKERS["full"] is original
    assert any("mismatches" in f for f in wl.verify(forced))


def test_tracer_counts_repeat_and_uninstall_restores():
    P = polyeig.PolyMatrix.make([[[1, 2], [0, 1], [3]], [[2], [1, 1], [0, 0, 1]]], polyeig.QQ)
    originals = (polyeig.eigenstructure, polyeig.Poly.__mul__, polyeig.oracle.CHECKERS["hom"])
    counts = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            polyeig.eigenstructure(P)
        finally:
            tracer.uninstall()
        stats = tracer.stats()
        counts.append({k: v for k, v in stats.items() if k.endswith((".calls", ".yielded"))})
        assert stats["matrix.eigenstructure.calls"] == 1
        assert stats["matrix.smith_form.calls"] >= 1
        assert stats["matrix.eigenstructure.s"] >= stats["matrix.minimal_indices.s"] > 0
    assert counts[0] == counts[1]
    assert (polyeig.eigenstructure, polyeig.Poly.__mul__, polyeig.oracle.CHECKERS["hom"]) == originals


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
