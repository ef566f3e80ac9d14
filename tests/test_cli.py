import json
import os
import subprocess
import sys

import pytest

import polyeig
from polyeig.cli import main

MATRIX_S = {"field": "Q", "rows": 1, "cols": 1, "entries": [[[0, 1]]]}
MATRIX_S1 = {"field": "Q", "rows": 1, "cols": 2, "entries": [[[0, 1], [1]]]}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_eig(tmp_path, capsys):
    path = write(tmp_path, "m.json", MATRIX_S1)
    code, doc = run(capsys, "eig", path)
    assert code == 0
    assert doc == {
        "degree": 1,
        "rank": 1,
        "hom_factors": [{"alpha": [1], "e": 0}],
        "col_indices": [1],
        "row_indices": [],
    }


def test_eig_zero_matrix(tmp_path, capsys):
    path = write(tmp_path, "z.json", {"field": "Q", "rows": 1, "cols": 1, "entries": [[[]]]})
    assert main(["eig", path]) == 3


def test_eig_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert main(["eig", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import polyeig.cli
    from polyeig import InternalError

    def broken(P):
        raise InternalError("planted invariant failure")

    monkeypatch.setattr(polyeig.cli, "eigenstructure", broken)
    path = write(tmp_path, "m.json", MATRIX_S1)
    assert main(["eig", path]) == 5
    assert capsys.readouterr().err == "internal error: planted invariant failure\n"


def test_check_feasible_and_not(tmp_path, capsys):
    mp = write(tmp_path, "m.json", MATRIX_S)
    good = write(
        tmp_path,
        "t1.json",
        {"rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": [0]},
    )
    code, doc = run(capsys, "check", mp, "--add-rows", "1", "--target", good, "--theorem", "full")
    assert code == 0 and doc["feasible"] is True
    bad = write(
        tmp_path,
        "t2.json",
        {"rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": [1]},
    )
    code, doc = run(capsys, "check", mp, "--add-rows", "1", "--target", bad, "--theorem", "full")
    assert code == 1 and doc["violations"] == ["degree-sum"]


def test_check_missing_fields(tmp_path, capsys):
    mp = write(tmp_path, "m.json", MATRIX_S)
    t = write(tmp_path, "t.json", {"rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}]})
    assert main(["check", mp, "--add-rows", "1", "--target", t, "--theorem", "finite"]) == 2
    capsys.readouterr()
    # every theorem but "exists" needs the number of added rows
    assert main(["check", mp, "--target", t, "--theorem", "hom"]) == 2
    assert "--add-rows is required" in capsys.readouterr().err


def test_check_exists(tmp_path, capsys):
    mp = write(tmp_path, "m.json", MATRIX_S)
    t = write(
        tmp_path,
        "t.json",
        {"degree": 1, "rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": []},
    )
    code, doc = run(capsys, "check", mp, "--target", t, "--theorem", "exists")
    assert code == 0 and doc["feasible"]


def test_realize_direct_and_roundtrip(tmp_path, capsys):
    t = write(
        tmp_path,
        "t.json",
        {
            "degree": 1,
            "rank": 2,
            "hom_factors": [{"alpha": [1], "e": 0}, {"alpha": [0, 1], "e": 1}],
            "col_indices": [],
            "row_indices": [],
        },
    )
    code, doc = run(capsys, "realize", "--target", t)
    assert code == 0
    assert doc["entries"] == [[[0, 1], []], [[], [1]]]
    # round-trip: feed the emitted matrix back through eig
    mp = write(tmp_path, "m.json", doc)
    code, es = run(capsys, "eig", mp)
    assert code == 0 and es == json.loads((tmp_path / "t.json").read_text())


def test_realize_infeasible(tmp_path, capsys):
    t = write(
        tmp_path,
        "t.json",
        {"degree": 1, "rank": 1, "hom_factors": [{"alpha": [1], "e": 1}], "col_indices": [], "row_indices": []},
    )
    code, doc = run(capsys, "realize", "--target", t)
    assert code == 1 and doc["result"] == "infeasible"


def test_realize_unsorted_indices_is_input_error(tmp_path, capsys):
    t = write(
        tmp_path,
        "t.json",
        {"degree": 1, "rank": 1, "hom_factors": [{"alpha": [1], "e": 0}], "col_indices": [0, 1], "row_indices": []},
    )
    assert main(["realize", "--target", t]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nonincreasing" in err


def test_realize_search(tmp_path, capsys):
    # the search runs at the target's own degree, 2 and 3 here, with no flag
    for alpha in ([0, 0, 1], [0, 0, 0, 1]):
        t = write(
            tmp_path,
            "t.json",
            {"degree": len(alpha) - 1, "rank": 1, "hom_factors": [{"alpha": alpha, "e": 0}], "col_indices": [], "row_indices": []},
        )
        code, doc = run(capsys, "realize", "--target", t, "--search", "--field", "gf2")
        assert code == 0 and doc["entries"] == [[alpha]]


def test_realize_search_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POLYEIG_BUDGET", "2")
    t = write(
        tmp_path,
        "t.json",
        {"degree": 2, "rank": 1, "hom_factors": [{"alpha": [0, 0, 1], "e": 0}], "col_indices": [], "row_indices": []},
    )
    assert main(["realize", "--target", t, "--search", "--field", "gf2"]) == 4
    capsys.readouterr()


DEGREE_2_TARGET = {
    "degree": 2, "rank": 1, "hom_factors": [{"alpha": [0, 0, 1], "e": 0}], "col_indices": [], "row_indices": [],
}


def test_realize_refusals(tmp_path, capsys):
    t = write(tmp_path, "t.json", DEGREE_2_TARGET)
    # the direct construction stops at degree 1
    assert main(["realize", "--target", t]) == 3
    assert "use --search" in capsys.readouterr().err
    # the search enumerates a finite field only
    assert main(["realize", "--target", t, "--search", "--field", "q"]) == 2
    assert "--search requires a finite field" in capsys.readouterr().err


def test_realize_search_not_found(tmp_path, capsys, monkeypatch):
    import polyeig.cli as cli

    monkeypatch.setattr(cli, "search_realization", lambda target, field, budget: None)
    t = write(tmp_path, "t.json", DEGREE_2_TARGET)
    code, doc = run(capsys, "realize", "--target", t, "--search", "--field", "gf3")
    # p^(m n (d + 1)) candidates for a 1 x 1 matrix of degree 2 over GF(3)
    assert code == 1 and doc == {"result": "not-found", "searched": 3**3}


def test_oracle_grid(capsys):
    code, doc = run(capsys, "oracle", "gf2 n=1 m=1 z=1 d=1")
    assert code == 0 and doc["mismatches"] == 0


def test_oracle_repeated_theorem_counted_once(capsys, monkeypatch):
    # "--theorem full --theorem full" used to echo ["full", "full"] and
    # count each mismatch twice
    import polyeig.oracle as oracle
    from polyeig.feasibility import FeasibilityReport

    full = oracle.CHECKERS["full"]

    def negated(pinv, target):
        return FeasibilityReport(("negated",) if full(pinv, target).feasible else ())

    monkeypatch.setitem(oracle.CHECKERS, "full", negated)
    argv = ("--theorem", "full", "--theorem", "hom", "--theorem", "full")
    code, doc = run(capsys, "oracle", "gf2 m=1 n=2 z=1 d=1", *argv)
    assert code == 1 and doc["theorems"] == ["full", "hom"] and doc["mismatches"] == 156


def test_oracle_budget(capsys):
    assert main(["oracle", "gf2 n=2 m=2 z=2 d=2", "--budget", "100"]) == 4
    capsys.readouterr()
    # at least 2^10000 classes times at least 2^198 subspaces per class:
    # refused from the exponent, named without its 3,070 decimal digits
    assert main(["oracle", "gf2 m=100 n=100 z=1 d=1"]) == 4
    assert capsys.readouterr().err == "error: enumeration of at least 2^10198 candidates exceeds budget 4194304\n"


def test_oracle_budget_counts_subspaces(capsys, monkeypatch):
    # classes, sum_{k <= m} [N choose k]_p - [N - n choose k]_p, times
    # sum_{k <= z} [N - 1 choose k]_p subspaces, N = n (d + 1): 165 x 27,
    # 700 x 187 and 2,094 x 32 fit the default budget, 43,232 x 256 does not
    monkeypatch.delenv("POLYEIG_BUDGET", raising=False)
    for grid in ("gf3 n=2 m=2 z=2 d=1", "gf2 n=3 m=2 z=2 d=1", "gf2 n=3 m=3 z=1 d=1"):
        code, doc = run(capsys, "oracle", grid)
        assert code == 0 and doc["mismatches"] == 0, grid
    assert main(["oracle", "gf2 n=3 m=2 z=1 d=2"]) == 4
    assert capsys.readouterr().err == "error: enumeration of 11067392 candidates exceeds budget 4194304\n"


def test_oracle_bad_grid(capsys):
    for grid in (
        "q n=1 m=1 z=1 d=1",
        "gf2 m=1 n=2 z=1 d=1 d=2",  # repeated key
        "gf2 m=1_0 n=1 z=1 d=1",  # int() would read 10
        "gf2 m=+1 n=1 z=1 d=1",
        "gf2 m=\u0661 n=1 z=1 d=1",  # a non-ASCII digit
        "gf1_1 m=1 n=1 z=1 d=1",
        "gf m=1 n=1 z=1 d=1",
    ):
        assert main(["oracle", grid]) == 2, grid
        assert "error" in capsys.readouterr().err


def test_matrix_json_roundtrip():
    from polyeig import GF, PolyMatrix
    from polyeig.serialize import emit_matrix, parse_matrix

    P = parse_matrix(MATRIX_S1)
    assert emit_matrix(P) == MATRIX_S1
    Q = PolyMatrix.make([[[1, 1], [0, 1]]], GF(2))
    assert parse_matrix(emit_matrix(Q)) == Q


def test_rational_scalars_roundtrip():
    from fractions import Fraction

    from polyeig import QQ, PolyMatrix
    from polyeig.serialize import emit_matrix, parse_matrix

    P = PolyMatrix.make([[[Fraction(1, 2), 2]]], QQ)
    doc = emit_matrix(P)
    assert doc["entries"][0][0] == ["1/2", 2]
    assert parse_matrix(doc) == P


def test_rational_scalars_are_integers_or_fraction_strings(tmp_path):
    from fractions import Fraction

    from polyeig import QQ
    from polyeig.serialize import FormatError, parse_scalar

    for doc, value in ((5, 5), (-7, -7), ("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)), ("6/4", Fraction(3, 2))):
        assert parse_scalar(doc, QQ) == value
    for doc in ("3", "1e5", "1.5", "+1/2", "1/-2", " 1/2", "1/0", "-/1", "1/", "1_0/1", "\u0661/2", 1.5, None, [1]):
        with pytest.raises(FormatError):
            parse_scalar(doc, QQ)
    # Fraction reads exponent notation and would expand this one digit by
    # digit; a fresh interpreter, so that such a regression times out
    mp = write(tmp_path, "m.json", {**MATRIX_S, "entries": [[[0, "1e999999999"]]]})
    src = os.path.dirname(os.path.dirname(polyeig.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "polyeig.cli", "eig", mp],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert "bad rational '1e999999999'" in proc.stderr


def test_oversize_integers_are_input_errors(tmp_path, capsys):
    # past the interpreter's int() digit limit (4,300 by default): the
    # message names the file or the entry, not the interpreter setting
    digits = "7" * 5000
    p = tmp_path / "int.json"
    p.write_text('{"field": "Q", "rows": 1, "cols": 1, "entries": [[[0, %s]]]}' % digits)
    assert main(["eig", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err and "too many digits" in err and "set_int_max_str_digits" not in err
    for entry in (f"1/{digits}", f"-{digits}/3"):
        mp = write(tmp_path, "m.json", {**MATRIX_S, "entries": [[[0, entry]]]})
        assert main(["eig", mp]) == 2
        err = capsys.readouterr().err
        assert f"bad rational {entry[:20]}" in err and "too many digits" in err
        assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"rank": 1.9},
        {"rank": True},
        {"rank": "1"},
        {"rank": 1, "inf_mults": [0.0]},
        {"rank": 1, "col_indices": [False]},
        {"rank": 1, "row_indices": [1.5]},
        {"rank": 1, "hom_factors": [{"alpha": [1], "e": 0.5}]},
        {"rank": 1, "finite_factors": [[True]]},
    ],
)
def test_target_integers_are_strict(doc):
    from polyeig import GF
    from polyeig.serialize import FormatError, parse_target

    with pytest.raises(FormatError):
        parse_target(doc, 1, GF(2))


_HOM_S = {"alpha": [0, 1], "e": 0}
_ES = {"degree": 1, "rank": 1, "hom_factors": [_HOM_S], "col_indices": [], "row_indices": [0]}


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        ("field", "R", "unrecognized field"),
        ("poly", 3, "polynomial must be a coefficient list"),
        ("matrix", [], "matrix document must be an object"),
        ("matrix", {"field": "Q", "rows": 1, "cols": 1}, "matrix document missing 'entries'"),
        ("matrix", {**MATRIX_S, "cols": 2}, "entries shape disagrees"),
        ("eigenstructure", [], "eigenstructure document must be an object"),
        ("eigenstructure", {k: v for k, v in _ES.items() if k != "rank"}, "eigenstructure document missing 'rank'"),
        ("eigenstructure", {**_ES, "hom_factors": [{"alpha": [0, 1]}]}, "bad homogeneous factor"),
        ("target", [], "target document must be an object"),
        ("target", {"hom_factors": [_HOM_S]}, "target document missing 'rank'"),
        ("target", {"rank": 1, "row_indices": [-1]}, "target row indices must be nonnegative"),
    ],
)
def test_malformed_documents_are_format_errors(parse, doc, message):
    from polyeig import QQ, serialize
    from polyeig.serialize import FormatError

    call = {
        "field": lambda: serialize.parse_field(doc),
        "poly": lambda: serialize.parse_poly(doc, QQ),
        "matrix": lambda: serialize.parse_matrix(doc),
        "eigenstructure": lambda: serialize.parse_eigenstructure(doc, QQ),
        "target": lambda: serialize.parse_target(doc, 1, QQ),
    }[parse]
    with pytest.raises(FormatError, match=message):
        call()


def test_eigenstructure_integers_are_strict(tmp_path, capsys):
    from polyeig import QQ
    from polyeig.serialize import FormatError, parse_eigenstructure, parse_scalar

    good = {"degree": 1, "rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": [0]}
    assert parse_eigenstructure(good, QQ).degree == 1
    for key, bad in [("degree", 1.0), ("degree", True), ("rank", 1.2), ("row_indices", [True])]:
        with pytest.raises(FormatError):
            parse_eigenstructure({**good, key: bad}, QQ)
    with pytest.raises(FormatError):
        parse_scalar(True, QQ)
    # a matrix shape is read as integers too: True == 1 and 1.0 == 1 would pass a length check
    for shape in (True, 1.0):
        mp = write(tmp_path, "m.json", {**MATRIX_S, "rows": shape, "cols": shape})
        assert main(["eig", mp]) == 2
        assert "rows must be an integer" in capsys.readouterr().err
    # through the CLI a truncating parse would have checked rank 1
    mp = write(tmp_path, "m.json", MATRIX_S)
    t = write(tmp_path, "t.json", {**good, "rank": 1.9})
    assert main(["check", mp, "--add-rows", "1", "--target", t]) == 2
    assert "rank must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theorem, doc",
    [
        ("full", {"rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": 0}),
        ("hom", {"rank": 1, "hom_factors": 3}),
        ("finite", {"rank": 1, "finite_factors": 2}),
        ("infinite", {"rank": 1, "inf_mults": 0}),
        ("hom+cols", {"rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": {}}),
        ("exists", {"degree": 1, "rank": 1, "hom_factors": 5, "col_indices": [], "row_indices": []}),
        ("exists", {"degree": 1, "rank": 1, "hom_factors": [], "col_indices": 0, "row_indices": []}),
    ],
)
def test_non_list_parts_are_input_errors(tmp_path, capsys, theorem, doc):
    mp = write(tmp_path, "m.json", MATRIX_S)
    t = write(tmp_path, "t.json", doc)
    assert main(["check", mp, "--add-rows", "1", "--target", t, "--theorem", theorem]) == 2
    assert "must be a list" in capsys.readouterr().err


def test_field_characteristic_is_strict(tmp_path, capsys):
    for field in ({"GF": 2.9}, {"GF": True}):
        mp = write(tmp_path, "m.json", {**MATRIX_S, "field": field})
        assert main(["eig", mp]) == 2
        assert "GF characteristic must be an integer" in capsys.readouterr().err
    # int() would read GF(11) and GF(3) from these --field names
    target = {"degree": 1, "rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": []}
    t = write(tmp_path, "t.json", target)
    for name in ("gf1_1", "gf 3", "gf+3", "GF\u0663"):
        assert main(["realize", "--target", t, "--field", name]) == 2, name
        assert "unknown field" in capsys.readouterr().err
    # above the bound of the exact primality test: refused, not stalled
    huge = 2**89 - 1
    mp = write(tmp_path, "m.json", {**MATRIX_S, "field": {"GF": huge}})
    assert main(["eig", mp]) == 2
    assert main(["realize", "--target", t, "--field", f"gf{huge}"]) == 2
    assert capsys.readouterr().err.count("not supported") == 2


@pytest.mark.parametrize("raw", ["1_000", "\u0663", "-5", "+3", " 7", "1.0", ""])
def test_cli_integers_are_strict(tmp_path, capsys, monkeypatch, raw):
    # int() would read 1000, 3, -5, 3 and 7 from the first five
    grid = "gf2 n=1 m=1 z=1 d=1"
    t = write(
        tmp_path,
        "t.json",
        {"degree": 1, "rank": 1, "hom_factors": [{"alpha": [0, 1], "e": 0}], "col_indices": [], "row_indices": []},
    )
    mp = write(tmp_path, "m.json", MATRIX_S)
    search = ["realize", "--target", t, "--search", "--field", "gf2"]
    for argv in (
        ["oracle", grid, f"--budget={raw}"],
        [*search, f"--budget={raw}"],
        ["check", mp, f"--add-rows={raw}", "--target", t],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "ASCII digits" in err, argv
    monkeypatch.setenv("POLYEIG_BUDGET", raw)
    for argv in (["oracle", grid], search):
        assert main(argv) == 2, argv
        assert "POLYEIG_BUDGET must be an integer" in capsys.readouterr().err


def test_oracle_within_budget(capsys):
    code, doc = run(capsys, "oracle", "gf2 n=1 m=1 z=1 d=1", "--budget", "100")
    assert code == 0 and doc["mismatches"] == 0


def test_oracle_empty_grid(capsys):
    from polyeig import GF
    from polyeig.oracle import GridSpec

    for grid in ("gf2 m=0 n=1 z=1 d=1", "gf2 m=1 n=0 z=1 d=1", "gf2 m=1 n=2 z=0 d=1"):
        assert main(["oracle", grid]) == 2
        assert ">= 1" in capsys.readouterr().err
    with pytest.raises(ValueError):
        GridSpec(GF(2), 1, -1, 1, 1)


def test_grid_spec_is_strict(capsys):
    from polyeig import GF
    from polyeig.oracle import GridSpec

    for bad in ((1.5, 1, 1, 1), (1, 2.0, 1, 1), (1, 1, True, 1), (1, 1, 1, "1"), (1, 1, 1, False)):
        with pytest.raises(ValueError, match="must be integers"):
            GridSpec(GF(2), *bad)
    with pytest.raises(ValueError, match="d >= 0"):
        GridSpec(GF(2), 1, 1, 1, -1)
    # a degree-0 grid is well formed; the checkers refuse constant matrices
    assert GridSpec(GF(2), 1, 1, 1, 0).d == 0
    assert main(["oracle", "gf2 m=1 n=1 z=1 d=0"]) == 3
    assert "degree" in capsys.readouterr().err
