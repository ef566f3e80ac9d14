"""Exhaustive ground-truth harness for the feasibility checkers.

For every matrix P in a small finite-field grid, the set of eigenstructures
achievable by stacking z extra rows is computed by brute force and compared,
theorem by theorem, against the corresponding checker's verdict on every
a-priori admissible target.  Any disagreement is reported as a mismatch.

Most completions [P; W] share their eigenstructure, and the reason is exact:
for a constant invertible G, the matrix G·M has the same degree, the same
finite structure (G is unimodular), the same infinite structure
(rev(G·M) = G·rev M), the same right null space, and left minimal bases
mapped by G^-T, so the same row minimal indices.  Two matrices of one shape
whose coefficient stacks [M_0 M_1 ... M_d] have the same row space differ by
such a G.  The eigenstructure is therefore computed once per shape, degree
bound and reduced row echelon form of that stack.  The memo holding it, the
target list and the checker verdicts lives for one `run_grid` call (or one
direct `achieved_set` / `check_instance` call) and no longer, and it uses
the checkers bound in `CHECKERS` when the call starts.  With ``jobs > 1``
the matrices are cut into contiguous chunks, each worker keeps its own
memo, and the results are joined in grid order.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import attrgetter

from .feasibility import CHECKERS, PRESCRIBES, CompletionTarget
from .fields import GF, FieldTag
from .matrix import PolyMatrix, degree_of, eigenstructure, stack_rows
from .poly import Poly
from .realize import BudgetExceededError, all_completion_rows, enumerate_targets, search_space_size

THEOREMS = tuple(CHECKERS)

# Per theorem, (rank, *prescribed parts) of an eigenstructure, in the order
# of PRESCRIBES; the finite factors of an eigenstructure are its alphas.
_PROJECTIONS = {
    theorem: attrgetter("rank", *("alphas" if part == "finite_factors" else part for part in parts))
    for theorem, parts in PRESCRIBES.items()
}


@dataclass(frozen=True)
class GridSpec:
    field: FieldTag
    m: int
    n: int
    z: int
    d: int

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse e.g. "gf2 n=1 m=1 z=1 d=1"."""
        parts = text.split()
        if not parts:
            raise ValueError("empty grid spec")
        fname = parts[0].lower()
        if not fname.startswith("gf"):
            raise ValueError(f"oracle grids need a finite field, got {parts[0]!r}")
        field = GF(int(fname[2:]))
        vals = {}
        for item in parts[1:]:
            key, _, val = item.partition("=")
            if key not in ("m", "n", "z", "d") or not val:
                raise ValueError(f"bad grid item {item!r}")
            vals[key] = int(val)
        missing = {"m", "n", "z", "d"} - set(vals)
        if missing:
            raise ValueError(f"grid spec missing {sorted(missing)}")
        return GridSpec(field, vals["m"], vals["n"], vals["z"], vals["d"])


def all_matrices(m: int, n: int, d: int, field: FieldTag):
    """All m x n matrices over GF(p) of degree exactly d, lexicographic."""
    polys = [Poly.make(cs, field) for cs in itertools.product(field.elements(), repeat=d + 1)]
    for flat in itertools.product(polys, repeat=m * n):
        if max((p.degree for p in flat), default=-1) != d:
            continue
        yield PolyMatrix.make([flat[i * n : (i + 1) * n] for i in range(m)], field)


def _coefficient_rows(M: PolyMatrix, dmax: int):
    """The rows of the coefficient stack [M_0 M_1 ... M_dmax], columns
    ordered by (entry, power): a fixed permutation, so equal row spaces
    stay equal and distinct ones distinct."""
    pad = (0,) * (dmax + 1)
    return [[c for e in row for c in (e.coeffs + pad)[: dmax + 1]] for row in M.entries]


def _rref(rows, p: int) -> tuple:
    """Reduced row echelon form over GF(p) of the span of the rows, built
    one row at a time; zero rows are dropped."""
    basis = []  # (pivot column, row), reduced against each other
    for row in rows:
        for col, prow in basis:
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        col = next((i for i, c in enumerate(row) if c), None)
        if col is None:
            continue
        if row[col] != 1:
            inv = pow(row[col], -1, p)
            row = [c * inv % p for c in row]
        for k, (qcol, qrow) in enumerate(basis):
            c = qrow[col]
            if c:
                basis[k] = (qcol, [(a - c * b) % p for a, b in zip(qrow, row)])
        basis.append((col, row))
    basis.sort(key=lambda cr: cr[0])
    return tuple(tuple(row) for _, row in basis)


def _stack_key(M: PolyMatrix, dmax: int, coeff_rows):
    """Shape, degree bound and row space of the coefficient stack, which
    `coeff_rows` span: matrices with one key share their eigenstructure."""
    return (M.rows, M.cols, dmax, _rref(coeff_rows, M.field.p))


class _GridContext:
    """Memo for the matrices of one grid: eigenstructures by `_stack_key`,
    target lists by shape, checker verdicts by projected target.  The
    checkers are a copy of `checkers` (default `CHECKERS`) taken when the
    context is made."""

    def __init__(self, checkers=None):
        self.checkers = dict(CHECKERS if checkers is None else checkers)
        self.eigen = {}
        self.targets = {}
        self.verdicts = {}

    def eigenstructure(self, key, M: PolyMatrix):
        es = self.eigen.get(key)
        if es is None:
            es = self.eigen[key] = eigenstructure(M)
        return es

    def target_list(self, m: int, n: int, z: int, d: int, field: FieldTag):
        key = (m, n, z, d, field)
        if key not in self.targets:
            self.targets[key] = list(enumerate_targets(m, n, z, d, field))
        return self.targets[key]

    def verdict(self, theorem: str, pinv, projected, cand, z: int) -> bool:
        key = (theorem, pinv, projected)
        if key not in self.verdicts:
            target = target_from_eigenstructure(cand, z, theorem)
            self.verdicts[key] = self.checkers[theorem](pinv, target).feasible
        return self.verdicts[key]


def achieved_set(P: PolyMatrix, z: int, dmax: int, *, _ctx: _GridContext | None = None):
    """Eigenstructures of all completions [P; W] with deg W <= dmax.

    `_ctx` is the memo `run_grid` shares across a grid; without it a fresh
    one is made."""
    ctx = _ctx if _ctx is not None else _GridContext()
    p_rows = list(_rref(_coefficient_rows(P, dmax), P.field.p))
    found = {}
    for W in all_completion_rows(P.field, z, P.cols, dmax):
        M = stack_rows(P, W)
        key = _stack_key(M, dmax, p_rows + _coefficient_rows(W, dmax))
        if key not in found:
            found[key] = ctx.eigenstructure(key, M)
    return set(found.values())


def project(es, theorem: str):
    """The part of an eigenstructure each theorem prescribes."""
    try:
        return _PROJECTIONS[theorem](es)
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}") from None


def target_from_eigenstructure(es, z: int, theorem: str) -> CompletionTarget:
    rank, *parts = project(es, theorem)
    return CompletionTarget(z=z, rank=rank, **dict(zip(PRESCRIBES[theorem], parts)))


def check_instance(P: PolyMatrix, z: int, theorems=THEOREMS, *, _ctx: _GridContext | None = None):
    """Compare every checker against brute force for one matrix.

    Returns mismatch records (theorem, target eigenstructure, checker
    verdict, search verdict).  `_ctx` is as for `achieved_set`.
    """
    ctx = _ctx if _ctx is not None else _GridContext()
    d = degree_of(P)
    pinv = ctx.eigenstructure(_stack_key(P, d, _coefficient_rows(P, d)), P)
    achieved = achieved_set(P, z, d, _ctx=ctx)
    r, n = pinv.rank, P.cols
    targets = ctx.target_list(P.rows, n, z, d, P.field)
    mismatches = []
    for theorem in theorems:
        truth = {project(es, theorem) for es in achieved}
        seen = set()
        for cand in targets:
            x = cand.rank - r
            if not 0 <= x <= min(z, n - r):
                continue
            key = project(cand, theorem)
            if key in seen:
                continue
            seen.add(key)
            verdict = ctx.verdict(theorem, pinv, key, cand, z)
            if verdict != (key in truth):
                mismatches.append(
                    {
                        "matrix": P,
                        "theorem": theorem,
                        "target": cand,
                        "checker": verdict,
                        "search": key in truth,
                    }
                )
    return mismatches


def grid_size(spec: GridSpec) -> int:
    """Completions examined: (#P) x (#W per P)."""
    n_mats = search_space_size(spec.field, spec.m, spec.n, spec.d)
    return n_mats * search_space_size(spec.field, spec.z, spec.n, spec.d)


def _check_chunk(args):
    """Mismatches of consecutive grid matrices, sharing one memo."""
    mats, z, theorems, checkers = args
    ctx = _GridContext(checkers)
    return [rec for P in mats for rec in check_instance(P, z, theorems, _ctx=ctx)]


def run_grid(spec: GridSpec, theorems=THEOREMS, budget: int | None = None, jobs: int = 1):
    """All mismatches over the grid; empty list means checkers and
    exhaustive search agree everywhere.  The order is the grid order, for
    any number of jobs."""
    if budget is not None and grid_size(spec) > budget:
        raise BudgetExceededError(grid_size(spec), budget)
    mats = list(all_matrices(spec.m, spec.n, spec.d, spec.field))
    theorems = tuple(theorems)
    if jobs <= 1:
        return _check_chunk((mats, spec.z, theorems, CHECKERS))
    size = -(-len(mats) // jobs) or 1
    work = [(mats[i : i + size], spec.z, theorems, CHECKERS) for i in range(0, len(mats), size)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [rec for found in pool.map(_check_chunk, work) for rec in found]
