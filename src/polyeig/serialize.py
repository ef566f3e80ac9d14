"""JSON formats for matrices, eigenstructures, targets and reports.

Rational scalars are written as plain ints when integral and as "a/b"
strings otherwise, so no consumer ever sees a rounded value.  Key order is
fixed for diff-friendly output.
"""

from __future__ import annotations

from fractions import Fraction

from .feasibility import CompletionTarget, FeasibilityReport
from .fields import GF, QQ, FieldTag, is_digits
from .homog import HomogPoly
from .matrix import Eigenstructure, PolyMatrix
from .poly import Poly


class FormatError(ValueError):
    """Malformed input document."""


def _int(doc, what: str) -> int:
    """A JSON integer; bools and non-integral numbers are rejected, never
    truncated."""
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise FormatError(f"{what} must be an integer, got {doc!r}")
    return doc


def _list(doc, what: str) -> list:
    """A JSON list; anything else is rejected before it is iterated."""
    if not isinstance(doc, list):
        raise FormatError(f"{what} must be a list, got {doc!r}")
    return doc


def emit_field(field: FieldTag):
    return "Q" if field.is_rational else {"GF": field.p}


def parse_field(doc) -> FieldTag:
    if doc == "Q":
        return QQ
    if isinstance(doc, dict) and set(doc) == {"GF"}:
        try:
            return GF(_int(doc["GF"], "GF characteristic"))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"unrecognized field {doc!r}")


def emit_scalar(value, field: FieldTag):
    if field.is_rational:
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return int(value)


def parse_scalar(doc, field: FieldTag):
    """A JSON integer; over Q also an "a/b" string of ASCII digits, a with an
    optional "-".  `Fraction` alone would expand "1e999999999" digit by digit."""
    if not field.is_rational:
        return _int(doc, "field element") % field.p
    if isinstance(doc, int) and not isinstance(doc, bool):
        return Fraction(doc)
    num, slash, den = doc.partition("/") if isinstance(doc, str) else ("", "", "")
    if not (slash and is_digits(num.removeprefix("-")) and is_digits(den) and den.strip("0")):
        raise FormatError(f'bad rational {doc!r}: expected an integer or an "a/b" string, b > 0')
    try:
        return Fraction(int(num), int(den))
    except ValueError:  # a part past the interpreter's int() digit limit
        raise FormatError(f"bad rational {doc[:20]}... ({len(doc)} characters): a part has too many digits") from None


def emit_poly(p: Poly):
    return [emit_scalar(c, p.field) for c in p.coeffs]


def parse_poly(doc, field: FieldTag) -> Poly:
    if not isinstance(doc, list):
        raise FormatError(f"polynomial must be a coefficient list, got {doc!r}")
    return Poly.make([parse_scalar(c, field) for c in doc], field)


def emit_matrix(P: PolyMatrix):
    return {
        "field": emit_field(P.field),
        "rows": P.rows,
        "cols": P.cols,
        "entries": [[emit_poly(e) for e in row] for row in P.entries],
    }


def parse_matrix(doc) -> PolyMatrix:
    if not isinstance(doc, dict):
        raise FormatError("matrix document must be an object")
    for key in ("field", "rows", "cols", "entries"):
        if key not in doc:
            raise FormatError(f"matrix document missing {key!r}")
    field = parse_field(doc["field"])
    rows, cols = _int(doc["rows"], "rows"), _int(doc["cols"], "cols")
    entries = doc["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != rows
        or any(not isinstance(r, list) or len(r) != cols for r in entries)
    ):
        raise FormatError("entries shape disagrees with rows/cols")
    return PolyMatrix.make(
        [[parse_poly(e, field) for e in row] for row in entries], field
    )


def emit_eigenstructure(es: Eigenstructure):
    return {
        "degree": es.degree,
        "rank": es.rank,
        "hom_factors": [{"alpha": emit_poly(h.alpha), "e": h.e} for h in es.hom_factors],
        "col_indices": list(es.col_indices),
        "row_indices": list(es.row_indices),
    }


def parse_eigenstructure(doc, field: FieldTag) -> Eigenstructure:
    if not isinstance(doc, dict):
        raise FormatError("eigenstructure document must be an object")
    for key in ("degree", "rank", "hom_factors", "col_indices", "row_indices"):
        if key not in doc:
            raise FormatError(f"eigenstructure document missing {key!r}")
    hom = tuple(_parse_hom(h, field) for h in _list(doc["hom_factors"], "hom_factors"))
    col = tuple(_int(v, "col_indices entry") for v in _list(doc["col_indices"], "col_indices"))
    row = tuple(_int(v, "row_indices entry") for v in _list(doc["row_indices"], "row_indices"))
    try:
        return Eigenstructure(
            degree=_int(doc["degree"], "degree"),
            rank=_int(doc["rank"], "rank"),
            hom_factors=hom,
            col_indices=col,
            row_indices=row,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _parse_hom(doc, field: FieldTag) -> HomogPoly:
    if not isinstance(doc, dict) or "alpha" not in doc or "e" not in doc:
        raise FormatError(f"bad homogeneous factor {doc!r}")
    try:
        return HomogPoly(parse_poly(doc["alpha"], field), _int(doc["e"], "e"))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_target(doc, z: int, field: FieldTag) -> CompletionTarget:
    """Partial eigenstructure: absent keys mean unprescribed."""
    if not isinstance(doc, dict):
        raise FormatError("target document must be an object")
    if "rank" not in doc:
        raise FormatError("target document missing 'rank'")
    kw = {"z": z, "rank": _int(doc["rank"], "rank")}
    if "hom_factors" in doc:
        kw["hom_factors"] = tuple(
            _parse_hom(h, field) for h in _list(doc["hom_factors"], "hom_factors")
        )
    if "finite_factors" in doc:
        kw["finite_factors"] = tuple(
            parse_poly(p, field) for p in _list(doc["finite_factors"], "finite_factors")
        )
    for key in ("inf_mults", "col_indices", "row_indices"):
        if key in doc:
            kw[key] = tuple(_int(v, f"{key} entry") for v in _list(doc[key], key))
    try:
        return CompletionTarget(**kw)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_report(rep: FeasibilityReport):
    # json.dump writes tuples as arrays
    return {
        "feasible": rep.feasible,
        "violations": rep.violations,
        "details": rep.details,
    }
