from pathlib import Path

import pytest

import polyeig

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11 on


def test_version_matches_pyproject():
    meta = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    assert polyeig.__version__ == meta["project"]["version"]
