"""Command-line interface.

Exit codes: 0 success/feasible, 1 infeasible or witness not found,
2 input error, 3 domain error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .feasibility import CHECKERS, ConstantMatrixError, InvalidTargetError, check_existence
from .fields import QQ, FieldMismatchError, FieldTag, GF
from .matrix import ZeroMatrixError, eigenstructure
from .oracle import GridSpec, all_matrices, run_grid
from .realize import BudgetExceededError, realize_low_degree, search_space_size
from .serialize import (
    FormatError,
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

BUDGET_ENV = "POLYEIG_BUDGET"
DEFAULT_BUDGET = 1 << 22


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise CliError(EXIT_INPUT, f"{BUDGET_ENV} must be an integer, got {raw!r}")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_INPUT, f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _parse_field_flag(name: str) -> FieldTag:
    low = name.lower()
    if low in ("q", "qq"):
        return QQ
    if low.startswith("gf"):
        try:
            return GF(int(low[2:]))
        except ValueError as exc:
            raise CliError(EXIT_INPUT, str(exc))
    raise CliError(EXIT_INPUT, f"unknown field {name!r} (use q or gf<p>)")


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
        pinv = eigenstructure(P)
        target = parse_target(target_doc, args.add_rows, P.field)
        try:
            report = CHECKERS[args.theorem](pinv, target)
        except InvalidTargetError as exc:
            raise CliError(EXIT_INPUT, str(exc))
    _emit(emit_report(report))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_realize(args) -> int:
    field = _parse_field_flag(args.field)
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
    if args.max_deg < target.degree:
        _emit({"result": "not-found", "reason": "target degree exceeds --max-deg"})
        return EXIT_INFEASIBLE
    budget = args.budget if args.budget is not None else _default_budget()
    size = search_space_size(field, target.nrows, target.ncols, target.degree)
    if size > budget:
        raise BudgetExceededError(size, budget)
    for cand in all_matrices(target.nrows, target.ncols, target.degree, field):
        if eigenstructure(cand) == target:
            _emit(emit_matrix(cand))
            return EXIT_OK
    _emit({"result": "not-found", "searched": size})
    return EXIT_INFEASIBLE


def cmd_oracle(args) -> int:
    spec = GridSpec.parse(args.grid)
    budget = args.budget if args.budget is not None else _default_budget()
    theorems = args.theorem or list(CHECKERS)
    mismatches = run_grid(spec, theorems=theorems, budget=budget, jobs=args.jobs)
    doc = {
        "grid": args.grid,
        "theorems": list(theorems),
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
    p_check.add_argument("--add-rows", type=int, default=None, metavar="Z", help="number of rows to add")
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
    p_real.add_argument("--max-deg", type=int, default=1, help="degree bound for --search")
    p_real.add_argument("--budget", type=int, default=None, help="candidate cap for --search")
    p_real.set_defaults(func=cmd_realize)

    p_orc = sub.add_parser("oracle", help="compare checkers against exhaustive search on a grid")
    p_orc.add_argument("grid", help='grid spec, e.g. "gf2 n=1 m=1 z=1 d=1"')
    p_orc.add_argument("--theorem", action="append", choices=list(CHECKERS), default=None)
    p_orc.add_argument("--budget", type=int, default=None)
    p_orc.add_argument("--jobs", type=int, default=1)
    p_orc.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FormatError, InvalidTargetError, ValueError) as exc:
        if isinstance(exc, (ZeroMatrixError, ConstantMatrixError, FieldMismatchError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
