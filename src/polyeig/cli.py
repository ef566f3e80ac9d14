"""Command-line interface.

Exit codes: 0 success/feasible, 1 infeasible or witness not found,
2 input error, 3 domain error, 4 budget exceeded, 5 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .feasibility import CHECKERS, ConstantMatrixError, check_existence
from .fields import QQ, FieldMismatchError, is_digits, parse_gf
from .matrix import ZeroMatrixError, eigenstructure
from .oracle import GridSpec, run_grid
from .realize import BudgetExceededError, realize_low_degree, search_realization, search_space_size
from .sequences import InternalError
from .serialize import (
    emit_eigenstructure,
    emit_matrix,
    emit_report,
    parse_eigenstructure,
    parse_matrix,
    parse_target,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

BUDGET_ENV = "POLYEIG_BUDGET"
DEFAULT_BUDGET = 1 << 22


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _count(raw: str, name: str) -> int:
    """An integer >= 0 written in plain ASCII digits; int() would also take
    "1_000", a non-ASCII digit or a sign."""
    if not is_digits(raw):
        raise CliError(EXIT_INPUT, f"{name} must be an integer >= 0 in ASCII digits, got {raw!r}")
    return int(raw)


def _budget(args) -> int:
    """--budget, else POLYEIG_BUDGET, else the default."""
    if args.budget is not None:
        return _count(args.budget, "--budget")
    raw = os.environ.get(BUDGET_ENV)
    return DEFAULT_BUDGET if raw is None else _count(raw, BUDGET_ENV)


def _load_json(path: str):
    def parse_int(text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's int() digit limit
            raise CliError(EXIT_INPUT, f"{path}: integer {text[:20]}... has too many digits ({len(text)})") from None

    try:
        with open(path) as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _emit(doc, out=None):
    out = out if out is not None else sys.stdout
    json.dump(doc, out, indent=2)
    out.write("\n")


def cmd_eig(args) -> int:
    P = parse_matrix(_load_json(args.matrix))
    _emit(emit_eigenstructure(eigenstructure(P)))
    return EXIT_OK


def cmd_check(args) -> int:
    P = parse_matrix(_load_json(args.matrix))
    target_doc = _load_json(args.target)
    if args.theorem == "exists":
        target = parse_eigenstructure(target_doc, P.field)
        report = check_existence(target)
    else:
        if args.add_rows is None:
            raise CliError(EXIT_INPUT, "--add-rows is required unless --theorem exists")
        z = _count(args.add_rows, "--add-rows")
        pinv = eigenstructure(P)
        target = parse_target(target_doc, z, P.field)
        report = CHECKERS[args.theorem](pinv, target)
    _emit(emit_report(report))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_realize(args) -> int:
    field = QQ if args.field.lower() in ("q", "qq") else parse_gf(args.field)
    target = parse_eigenstructure(_load_json(args.target), field)
    report = check_existence(target)
    if not report.feasible:
        _emit({"result": "infeasible", "violations": list(report.violations)})
        return EXIT_INFEASIBLE
    if not args.search:
        if target.degree > 1:
            raise CliError(
                EXIT_DOMAIN,
                "direct realization covers degrees 0 and 1; use --search for higher degree",
            )
        W = realize_low_degree(target, field)
        _emit(emit_matrix(W))
        return EXIT_OK
    if field.is_rational:
        raise CliError(EXIT_INPUT, "--search requires a finite field (e.g. --field gf2)")
    P = search_realization(target, field, _budget(args))
    if P is None:
        size = search_space_size(field, target.nrows, target.ncols, target.degree)
        _emit({"result": "not-found", "searched": size})
        return EXIT_INFEASIBLE
    _emit(emit_matrix(P))
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec = GridSpec.parse(args.grid)
    theorems = list(dict.fromkeys(args.theorem or CHECKERS))  # each once, in the order first given
    mismatches = run_grid(spec, theorems=theorems, budget=_budget(args))
    doc = {
        "grid": args.grid,
        "theorems": theorems,
        "mismatches": len(mismatches),
        "samples": [
            {
                "matrix": emit_matrix(m["matrix"]),
                "theorem": m["theorem"],
                "target": emit_eigenstructure(m["target"]),
                "checker": m["checker"],
                "search": m["search"],
            }
            for m in mismatches[:20]
        ],
    }
    _emit(doc)
    return EXIT_OK if not mismatches else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyeig",
        description="Eigenstructure of polynomial matrices and row-completion feasibility.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eig", help="print the eigenstructure of a matrix")
    p_eig.add_argument("matrix", help="matrix JSON file")
    p_eig.set_defaults(func=cmd_eig)

    p_check = sub.add_parser("check", help="decide feasibility of a prescribed eigenstructure")
    p_check.add_argument("matrix", help="matrix JSON file for P")
    p_check.add_argument("--add-rows", default=None, metavar="Z", help="number of rows to add")
    p_check.add_argument("--target", required=True, help="target JSON file (partial eigenstructure)")
    p_check.add_argument(
        "--theorem",
        choices=[*CHECKERS, "exists"],
        default="full",
    )
    p_check.set_defaults(func=cmd_check)

    p_real = sub.add_parser("realize", help="construct a matrix with a prescribed eigenstructure")
    p_real.add_argument("--target", required=True, help="full eigenstructure JSON file")
    p_real.add_argument("--field", default="q", help="coefficient field: q or gf<p>")
    p_real.add_argument("--search", action="store_true", help="exhaustive search over a finite field")
    p_real.add_argument("--budget", default=None, help="candidate cap for --search")
    p_real.set_defaults(func=cmd_realize)

    p_orc = sub.add_parser("oracle", help="compare checkers against exhaustive search on a grid")
    p_orc.add_argument("grid", help='grid spec, e.g. "gf2 n=1 m=1 z=1 d=1"')
    p_orc.add_argument("--theorem", action="append", choices=list(CHECKERS), default=None)
    p_orc.add_argument("--budget", default=None)
    p_orc.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, (ZeroMatrixError, ConstantMatrixError, FieldMismatchError)) else EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
