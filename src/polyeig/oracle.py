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
bound and reduced row echelon form of that stack: `matrix.echelon` fed the
stack as one block (`eigenstructure` feeds it growing block-Toeplitz
systems).  [P; W] is built only for a form not seen before.  The memo
holding it, the target list and the checker verdicts live for one `run_grid`
call (or one direct `achieved_set` / `check_instance` call) and no longer,
and it uses the checkers bound in `CHECKERS` when the call starts.  With
``jobs > 1`` the matrices are cut into at most that many contiguous chunks,
each worker keeps its own memo, and the results are joined in grid order;
no more workers start than there are chunks or cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import attrgetter

from .feasibility import CHECKERS, PRESCRIBES, CompletionTarget
from .fields import FieldTag, is_digits, parse_gf
from .matrix import PolyMatrix, degree_of, echelon, eigenstructure, stack_rows
from .realize import _ensure_budget, all_completion_rows, all_matrices, enumerate_targets
from .sequences import ensure_ints

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

    def __post_init__(self):
        if not isinstance(self.field, FieldTag) or self.field.is_rational:
            raise ValueError(f"grid field must be a GF(p), got {self.field!r}")
        ensure_ints((self.m, self.n, self.z, self.d), "grid sizes m, n, z and d")
        for name in ("m", "n", "z"):
            if getattr(self, name) < 1:
                raise ValueError(f"grid needs {name} >= 1, got {getattr(self, name)}")
        if self.d < 0:
            raise ValueError(f"grid needs d >= 0, got {self.d}")

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """Parse e.g. "gf2 n=1 m=1 z=1 d=1"."""
        parts = text.split()
        if not parts:
            raise ValueError("empty grid spec")
        field = parse_gf(parts[0])
        vals = {}
        for item in parts[1:]:
            key, _, val = item.partition("=")
            if key not in ("m", "n", "z", "d") or key in vals or not is_digits(val):
                raise ValueError(f"bad or repeated grid item {item!r}")
            vals[key] = int(val)
        missing = {"m", "n", "z", "d"} - set(vals)
        if missing:
            raise ValueError(f"grid spec missing {sorted(missing)}")
        return GridSpec(field, vals["m"], vals["n"], vals["z"], vals["d"])


def _coefficient_rows(M: PolyMatrix, dmax: int):
    """The rows of the coefficient stack [M_0 M_1 ... M_dmax], columns
    ordered by (entry, power): a fixed permutation, so equal row spaces
    stay equal and distinct ones distinct."""
    pad = (0,) * (dmax + 1)
    return [[c for e in row for c in (e.coeffs + pad)[: dmax + 1]] for row in M.entries]


def _row_space(rows, field: FieldTag) -> tuple:
    """The reduced row echelon form of the span of `rows`, as a key."""
    return tuple(tuple(row) for _, row in echelon(rows, field))


class _GridContext:
    """Memo for the matrices of one grid: eigenstructures by shape, degree
    bound and row space of the coefficient stack, target lists by shape,
    checker verdicts by projected target.  The checkers are a copy of
    `checkers` (default `CHECKERS`) taken when the context is made."""

    def __init__(self, checkers=None):
        self.checkers = dict(CHECKERS if checkers is None else checkers)
        self.eigen = {}
        self.targets = {}
        self.verdicts = {}

    def eigenstructure(self, key, P: PolyMatrix, W: PolyMatrix | None = None):
        """The eigenstructure under `key`; [P; W] is built only for a new key."""
        es = self.eigen.get(key)
        if es is None:
            es = self.eigen[key] = eigenstructure(P if W is None else stack_rows(P, W))
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
    f = P.field
    p_rows = list(_row_space(_coefficient_rows(P, dmax), f))
    found = {}
    for W in all_completion_rows(f, z, P.cols, dmax):
        key = (P.rows + z, P.cols, dmax, _row_space(p_rows + _coefficient_rows(W, dmax), f))
        if key not in found:
            found[key] = ctx.eigenstructure(key, P, W)
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
    pinv = ctx.eigenstructure((P.rows, P.cols, d, _row_space(_coefficient_rows(P, d), P.field)), P)
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


def _check_chunk(args):
    """Mismatches of consecutive grid matrices, sharing one memo."""
    mats, z, theorems, checkers = args
    ctx = _GridContext(checkers)
    return [rec for P in mats for rec in check_instance(P, z, theorems, _ctx=ctx)]


def run_grid(spec: GridSpec, theorems=THEOREMS, budget: int | None = None, jobs: int = 1):
    """All mismatches over the grid; empty list means checkers and
    exhaustive search agree everywhere.  The order is the grid order, for
    any number of jobs."""
    if budget is not None:
        # completions examined: (#P) x (#W per P) = p^(m n (d+1)) p^(z n (d+1))
        _ensure_budget(spec.field, spec.m + spec.z, spec.n, spec.d, budget)
    mats = list(all_matrices(spec.m, spec.n, spec.d, spec.field))
    theorems = tuple(theorems)
    if jobs <= 1:
        return _check_chunk((mats, spec.z, theorems, CHECKERS))
    size = -(-len(mats) // jobs) or 1
    work = [(mats[i : i + size], spec.z, theorems, CHECKERS) for i in range(0, len(mats), size)]
    # the pool starts all its workers up front: start only those that can be busy
    with ProcessPoolExecutor(max_workers=min(jobs, len(work), os.cpu_count() or 1)) as pool:
        return [rec for found in pool.map(_check_chunk, work) for rec in found]
