import importlib
import os
import subprocess
import sys

import polyeig

# Names that have left the API, by the module that held them: the sentinel
# chain algebra, the lcm helpers, the wrappers that no library path ran, the
# oracle's own row echelon form, now `matrix.echelon`, the checkers'
# exponent vectors over a coprime base, now one lcm-degree table, and the
# minimal bases that no caller used, now that both index lists are read off
# ranks, the Kronecker block classes, now built inside `realize_low_degree`,
# the per-delta rebuild of each block-Toeplitz system with its rank
# wrapper, now one growing elimination per side, and the coefficient stacks
# that the matrix layer and the oracle each laid out, now one reader and
# one stack builder in `matrix`, the oracle's process pool, which two jobs
# did not pay for, the normal-rank helper, now part of the one reading
# of P, and the float +-inf accessor of the index sequences, which only
# one scan read past the ends, and which now starts and stops in range.
REMOVED = {
    "homog": ("HOMOG_ONE", "HOMOG_ZERO", "chain_at", "homog_lcm"),
    "poly": ("poly_lcm",),
    "feasibility": ("build_gaps_row_form", "build_gaps_col_form", "_check_gap_shape", "_coprime_base", "_vectors"),
    "matrix": (
        "is_column_reduced", "apply_matrix", "_coeff_block", "reversal",
        "MinimalBasis", "nullspace", "right_minimal_basis", "matrix_rank_constant", "_convolution_rows",
        "_stacked_rows", "_normal_rank",
    ),
    "oracle": (
        "_rref", "_stack_key", "grid_size", "_coefficient_rows", "_row_space", "_check_chunk", "ProcessPoolExecutor",
    ),
    "realize": (
        "SearchBudget", "search_completion",
        "Companion", "InfinityBlock", "ColumnSingular", "RowSingular", "kronecker_block",
    ),
    "sequences": ("union_desc", "seq_get", "POS_INF", "NEG_INF"),
}


def test_all_names_resolve():
    assert len(set(polyeig.__all__)) == len(polyeig.__all__)
    for name in polyeig.__all__:
        assert getattr(polyeig, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"polyeig.{module}")
        for name in names:
            assert not hasattr(polyeig, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
    assert not hasattr(polyeig.HomogPoly, "is_unit")
    # one exact-degree enumeration, which the oracle imports from realize
    oracle, realize = (importlib.import_module(f"polyeig.{m}") for m in ("oracle", "realize"))
    assert oracle.all_matrices is realize.all_matrices


def test_oracle_import_loads_no_process_pool():
    # the oracle runs in one process: importing it must not pay for the
    # multiprocessing machinery
    code = "import sys, polyeig.oracle; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(polyeig.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
    ).stdout
    assert out == "[]\n"
