import json

import pytest

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
    t = write(
        tmp_path,
        "t.json",
        {"degree": 2, "rank": 1, "hom_factors": [{"alpha": [0, 0, 1], "e": 0}], "col_indices": [], "row_indices": []},
    )
    code, doc = run(capsys, "realize", "--target", t, "--search", "--field", "gf2", "--max-deg", "2")
    assert code == 0 and doc["entries"] == [[[0, 0, 1]]]


def test_realize_search_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POLYEIG_BUDGET", "2")
    t = write(
        tmp_path,
        "t.json",
        {"degree": 2, "rank": 1, "hom_factors": [{"alpha": [0, 0, 1], "e": 0}], "col_indices": [], "row_indices": []},
    )
    assert main(["realize", "--target", t, "--search", "--field", "gf2", "--max-deg", "2"]) == 4
    capsys.readouterr()


def test_oracle_grid(capsys):
    code, doc = run(capsys, "oracle", "gf2 n=1 m=1 z=1 d=1")
    assert code == 0 and doc["mismatches"] == 0


def test_oracle_budget(capsys):
    assert main(["oracle", "gf2 n=2 m=2 z=2 d=2", "--budget", "100"]) == 4
    capsys.readouterr()


def test_oracle_bad_grid(capsys):
    assert main(["oracle", "q n=1 m=1 z=1 d=1"]) == 2
    capsys.readouterr()


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
    # through the CLI a truncating parse would have checked rank 1
    mp = write(tmp_path, "m.json", MATRIX_S)
    t = write(tmp_path, "t.json", {**good, "rank": 1.9})
    assert main(["check", mp, "--add-rows", "1", "--target", t]) == 2
    assert "rank must be an integer" in capsys.readouterr().err
