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
bound and reduced row echelon form of that stack: the stack the matrix
layer reads P's block-Toeplitz ranks from (`matrix._coefficient_stack` on
`matrix._coefficient_lists`, columns in (power, entry) order), fed to
`matrix.echelon` as one block.  W is rebuilt from its stack, entry j of an
n-column row being row[j::n], only for a form not seen before.  For the same
reason W is enumerated modulo the row space of P's stack: adding constant
multiples of P's rows to W is such a G, so only the W whose stack is zero
at the pivot columns of P's form are formed, p^(z rho) times fewer for a
stack of rank rho, and each is keyed by extending a copy of P's form.  The
checkers run once per eigenstructure of P, theorem and distinct projection
of the admissible targets, whose list is kept per shape and rank of P.  The
memos live for one `run_grid` call (or one direct `achieved_set` /
`check_instance` call) and no longer, and use the checkers bound in
`CHECKERS` when the call starts.  With ``jobs > 1`` the matrices are cut
into at most that many contiguous chunks, each worker keeps its own memo,
and the results are joined in grid order; no more workers start than there
are chunks or cores.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import attrgetter

from .feasibility import CHECKERS, PRESCRIBES, CompletionTarget
from .fields import FieldTag, is_digits, parse_gf
from .matrix import PolyMatrix, _coefficient_lists, _coefficient_stack, degree_of, echelon, eigenstructure, stack_rows
from .realize import _ensure_budget, all_matrices, enumerate_targets
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


class _GridContext:
    """Memo for the matrices of one grid, so of one z and one field:
    eigenstructures by shape, degree bound and row space of the coefficient
    stack, target lists by shape, and checker verdicts by eigenstructure of
    P, then by theorem, in the order of `target_pairs`.  The checkers are a
    copy of `checkers` (default `CHECKERS`) taken when the context is made."""

    def __init__(self, checkers=None):
        self.checkers = dict(CHECKERS if checkers is None else checkers)
        self.eigen = {}
        self.targets = {}
        self.pairs = {}
        self.verdicts = {}

    def eigenstructure(self, key, P: PolyMatrix, w_rows=()):
        """The eigenstructure under `key` of P stacked on the rows whose
        coefficient stacks are `w_rows`; the matrix is built only for a new
        key."""
        es = self.eigen.get(key)
        if es is None:
            W = [[row[j :: P.cols] for j in range(P.cols)] for row in w_rows]
            es = self.eigen[key] = eigenstructure(stack_rows(P, PolyMatrix.make(W, P.field)) if W else P)
        return es

    def target_pairs(self, theorem: str, m: int, n: int, z: int, d: int, field: FieldTag, r: int):
        """(projected target, first candidate) per distinct projection of the
        targets with 0 <= rank - r <= min(z, n - r), in target-list order."""
        key = (theorem, m, n, z, d, field, r)
        if key not in self.pairs:
            shape = key[1:6]
            if shape not in self.targets:
                self.targets[shape] = list(enumerate_targets(*shape))
            firsts = {}
            for cand in self.targets[shape]:
                if 0 <= cand.rank - r <= min(z, n - r):
                    firsts.setdefault(project(cand, theorem), cand)
            self.pairs[key] = list(firsts.items())
        return self.pairs[key]


def achieved_set(P: PolyMatrix, z: int, dmax: int, *, _ctx: _GridContext | None = None):
    """Eigenstructures of all completions [P; W] with deg W <= dmax.

    Only the W whose coefficient stack is zero at the pivot columns of P's
    are formed; every other W is one of them plus constant multiples of P's
    rows, with the same row-space key.  `_ctx` is the memo `run_grid`
    shares across a grid; without it a fresh one is made."""
    ctx = _ctx if _ctx is not None else _GridContext()
    f = P.field
    p_basis = echelon(_coefficient_stack(_coefficient_lists(P), dmax), f)
    pivots = {col for col, _ in p_basis}
    choices = [(0,) if c in pivots else range(f.p) for c in range(P.cols * (dmax + 1))]
    rows = [list(row) for row in itertools.product(*choices)]
    found = {}
    for w_rows in itertools.product(rows, repeat=z):
        key = (P.rows + z, P.cols, dmax, tuple(tuple(row) for _, row in echelon(w_rows, f, list(p_basis))))
        if key not in found:
            found[key] = ctx.eigenstructure(key, P, w_rows)
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
    p_form = echelon(_coefficient_stack(_coefficient_lists(P), d), P.field)
    pinv = ctx.eigenstructure((P.rows, P.cols, d, tuple(tuple(row) for _, row in p_form)), P)
    achieved = achieved_set(P, z, d, _ctx=ctx)
    memo = ctx.verdicts.setdefault(pinv, {})
    mismatches = []
    for theorem in theorems:
        pairs = ctx.target_pairs(theorem, P.rows, P.cols, z, d, P.field, pinv.rank)
        if theorem not in memo:
            check = ctx.checkers[theorem]
            memo[theorem] = [check(pinv, target_from_eigenstructure(c, z, theorem)).feasible for _, c in pairs]
        truth = {project(es, theorem) for es in achieved}
        for (key, cand), verdict in zip(pairs, memo[theorem]):
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
