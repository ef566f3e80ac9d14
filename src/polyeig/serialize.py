"""JSON formats for matrices, eigenstructures, targets and reports.

Rational scalars are written as plain ints when integral and as "a/b"
strings otherwise, so no consumer ever sees a rounded value.  Key order is
fixed for diff-friendly output.
"""

from __future__ import annotations

from fractions import Fraction

from .feasibility import CompletionTarget, FeasibilityReport
from .fields import GF, QQ, FieldTag
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


def emit_field(field: FieldTag):
    return "Q" if field.is_rational else {"GF": field.p}


def parse_field(doc) -> FieldTag:
    if doc == "Q":
        return QQ
    if isinstance(doc, dict) and set(doc) == {"GF"}:
        try:
            return GF(int(doc["GF"]))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"unrecognized field {doc!r}")


def emit_scalar(value, field: FieldTag):
    if field.is_rational:
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return int(value)


def parse_scalar(doc, field: FieldTag):
    if field.is_rational:
        if isinstance(doc, (int, str)) and not isinstance(doc, bool):
            try:
                return Fraction(doc)
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad rational {doc!r}") from exc
        raise FormatError(f"bad rational {doc!r}")
    return _int(doc, "field element") % field.p


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
    entries = doc["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != doc["rows"]
        or any(not isinstance(r, list) or len(r) != doc["cols"] for r in entries)
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
    hom = tuple(_parse_hom(h, field) for h in doc["hom_factors"])
    col = tuple(_int(v, "col_indices entry") for v in doc["col_indices"])
    row = tuple(_int(v, "row_indices entry") for v in doc["row_indices"])
    rank = _int(doc["rank"], "rank")
    try:
        return Eigenstructure(
            degree=_int(doc["degree"], "degree"),
            rank=rank,
            hom_factors=hom,
            col_indices=col,
            row_indices=row,
            nrows=rank + len(row),
            ncols=rank + len(col),
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
        kw["hom_factors"] = tuple(_parse_hom(h, field) for h in doc["hom_factors"])
    if "finite_factors" in doc:
        kw["finite_factors"] = tuple(parse_poly(p, field) for p in doc["finite_factors"])
    if "inf_mults" in doc:
        kw["inf_mults"] = tuple(_int(v, "inf_mults entry") for v in doc["inf_mults"])
    if "col_indices" in doc:
        kw["col_indices"] = tuple(_int(v, "col_indices entry") for v in doc["col_indices"])
    if "row_indices" in doc:
        kw["row_indices"] = tuple(_int(v, "row_indices entry") for v in doc["row_indices"])
    try:
        return CompletionTarget(**kw)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def emit_report(rep: FeasibilityReport):
    details = {}
    for key, val in rep.details.items():
        if isinstance(val, tuple):
            details[key] = list(val)
        else:
            details[key] = val
    return {
        "feasible": rep.feasible,
        "violations": list(rep.violations),
        "details": details,
    }
