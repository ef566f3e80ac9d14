"""Exhaustive ground-truth harness for the feasibility checkers.

For every matrix P in a small finite-field grid, the set of eigenstructures
achievable by stacking z extra rows is computed by brute force and compared,
theorem by theorem, against the corresponding checker's verdict on every
a-priori admissible target.  Any disagreement is reported as a mismatch.

Most of that work repeats, and the reason is exact.  For a constant
invertible G, the matrix G·M has the same degree, the same finite structure
(G is unimodular), the same infinite structure (rev(G·M) = G·rev M), the
same right null space, and left minimal bases mapped by G^-T, so the same
row minimal indices.  Two matrices of one shape whose coefficient stacks
[M_0 M_1 ... M_d] have the same row space differ by such a G.  So the
eigenstructure is computed once per row count and reduced row echelon form
of that stack, on the matrix whose rows are that form's, padded with zero
rows: the stack is the one the matrix layer reads P's block-Toeplitz ranks
from (`matrix._coefficient_stack` on `matrix._coefficient_lists`, columns
in (power, entry) order), fed to `matrix.echelon` as one block, and the
grid fixes the column count and the degree bound d = deg P.

The matrices P with one stack row space U form a class (all G·P among
them).  A right factor Q in GL_n(p) joins classes too (Fact 2): P·Q has
P's degree, Smith form and infinite structure, its right null space is
Q^-1 times P's and its left null space is P's, so it has P's minimal
indices; and [P; W]·Q = [P·Q; W·Q], where W -> W·Q maps the completions of
degree <= d one to one, so P·Q has P's achieved set and P's verdicts.  On
the stack, Q acts on every s^k block of n columns, so the classes fall
into GL_n(p) orbits.  `run_grid` walks the classes directly, as the
reduced echelon forms of dimension 1..m with a nonzero s^d block, and
`check_instance`, given the memo `run_grid` shares, maps each class to its
orbit's representative, the first class of the orbit seen: it walks the
whole orbit then, under the n-cycle, the transposition (1 2), the
transvection col_2 += col_1 and diag(lam, 1, ...) for lam = 2..p-1, which
generate GL_n(p) (for n = 1 there are none: scalars fix every row space).
A memo made for one direct call walks no orbit.  So the records are
worked out once per orbit, on one matrix built from the representative's
form.  With no record in any orbit `run_grid` returns [] and enumerates no
matrix; on a mismatch it lists the grid's matrices, in grid order, and
rebuilds each one's records from the memo.

[P; W] has the stack row space V = U + span(W), so the achieved set needs
one completion per subspace V ⊇ U with dim V - dim U <= z, not one per W.
Each such V is U plus one subspace of the vectors that are zero at the
pivot columns of U's form, a space of dimension q = n (d + 1) - rho for a
stack of rank rho.  `achieved_set` forms one W per subspace of dimension
k <= z, its reduced echelon basis padded with zero rows, and keys it by
extending a copy of U's form: sum_{k <= z} [q choose k]_p Gaussian
binomials of them, in place of p^(z q) tuples W.  A matrix is rebuilt from
a form, entry j of an n-column row being row[j::n], only for a form not
seen before.  The targets, and their `CompletionTarget`s, are built once
per grid; the checkers run once per eigenstructure of P, theorem and
distinct projection of the admissible targets, whose list is kept per rank
of P.  The memos serve one grid (field, shape, z and degree), live for one
`run_grid` call (or one direct `achieved_set` / `check_instance` call) and
no longer, and use the checkers bound in `CHECKERS` when the call starts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .feasibility import CHECKERS, PRESCRIBES, CompletionTarget
from .fields import FieldTag, is_digits, parse_gf
from .matrix import PolyMatrix, _coefficient_lists, _coefficient_stack, degree_of, echelon, eigenstructure
from .realize import BudgetExceededError, all_matrices, enumerate_targets
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


def _generators(n: int, p: int):
    """Generators of GL_n(p) as column maps: column j of B·Q, for a block B
    of n columns, is sum(c * B[i] for i, c in columns[j]).  The
    transposition (1 2) and the n-cycle give every permutation, the
    transvection col_2 += col_1 and its conjugates every elementary
    transvection, and diag(lam, 1, ...) every diagonal matrix.  For n = 2
    the n-cycle is the transposition; for n = 1 there are none."""
    if n == 1:
        return []
    keep = [[(j, 1)] for j in range(2, n)]
    gens = [[[(1, 1)], [(0, 1)], *keep], [[(0, 1)], [(1, 1), (0, 1)], *keep]]
    gens += [[[(0, lam)], [(1, 1)], *keep] for lam in range(2, p)]
    if n > 2:
        gens.append([[((j + 1) % n, 1)] for j in range(n)])
    return gens


class _GridContext:
    """Memo for the matrices of one grid: eigenstructures by row count and
    row space of the coefficient stack, the orbit of each class seen, the
    grid's target list, target pairs by theorem and rank of P, checker
    verdicts by eigenstructure of P, and mismatch entries by orbit of P
    (the key of its representative's eigenstructure), then by theorem, in
    the order of `target_pairs`.  The checkers are a copy of `CHECKERS`
    taken when the context is made."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.checkers = dict(CHECKERS)
        self.eigen = {}
        self.orbits = {}
        self.pairs = {}
        self.verdicts = {}
        self.classes = {}
        # each generator's column map on a whole stack row, block by block
        n, width = spec.n, spec.n * (spec.d + 1)
        self.moves = [
            [[(b + i, c) for i, c in column] for b in range(0, width, n) for column in gen]
            for gen in _generators(n, spec.field.p)
        ]

    @classmethod
    def serving(cls, ctx: _GridContext | None, P: PolyMatrix, z: int) -> _GridContext:
        """`ctx`, or a fresh memo for the grid of P and z; a memo made for
        another grid would answer from that grid, so it is refused."""
        grid = (P.field, P.rows, P.cols, z, degree_of(P))
        if ctx is None:
            return cls(GridSpec(*grid))
        s = ctx.spec
        if (s.field, s.m, s.n, s.z, s.d) != grid:  # compared as a tuple: no GridSpec per P
            raise ValueError(f"memo serves {s}, not {GridSpec(*grid)}")
        return ctx

    def matrix(self, nrows: int, rows) -> PolyMatrix:
        """The matrix whose coefficient stack has the given rows, padded
        with zero rows to the row count."""
        n = self.spec.n
        entries = [[row[j::n] for j in range(n)] for row in rows]
        entries += [[[0]] * n] * (nrows - len(entries))
        return PolyMatrix.make(entries, self.spec.field)

    def eigenstructure(self, key):
        """The eigenstructure under `key`, (row count, reduced stack form),
        computed only for a new key."""
        es = self.eigen.get(key)
        if es is None:
            es = self.eigen[key] = eigenstructure(self.matrix(*key))
        return es

    def orbit(self, key, form):
        """(key, form) of the representative of the GL_n(p) orbit of the
        class `key`, (row count, reduced stack form), whose form is `form`.
        A class not seen before is its orbit's representative: the orbit
        is walked then, each class reached by a generator image of one
        reached before, and every class in it is mapped to that pair."""
        found = self.orbits.get(key)
        if found is None:
            found = self.orbits[key] = (key, form)
            field, p = self.spec.field, self.spec.field.p
            todo = [form]
            while todo:
                rows = [row for _, row in todo.pop()]
                for move in self.moves:
                    image = echelon([[sum(c * row[i] for i, c in terms) % p for terms in move] for row in rows], field)
                    image_key = (key[0], tuple(tuple(row) for _, row in image))
                    if image_key not in self.orbits:
                        self.orbits[image_key] = found
                        todo.append(image)
        return found

    @cached_property
    def targets(self):
        s = self.spec
        return list(enumerate_targets(s.m, s.n, s.z, s.d, s.field))

    def target_pairs(self, theorem: str, r: int):
        """(projection, first candidate, its `CompletionTarget`) per distinct
        projection of the targets with 0 <= rank - r <= min(z, n - r), in
        target-list order."""
        key = (theorem, r)
        if key not in self.pairs:
            z, n = self.spec.z, self.spec.n
            firsts = {}
            for cand in self.targets:
                if 0 <= cand.rank - r <= min(z, n - r):
                    firsts.setdefault(project(cand, theorem), cand)
            self.pairs[key] = [(proj, c, target_from_eigenstructure(c, z, theorem)) for proj, c in firsts.items()]
        return self.pairs[key]


def _stack_form(P: PolyMatrix, d: int):
    """Reduced row echelon form of P's coefficient stack up to degree d."""
    return echelon(_coefficient_stack(_coefficient_lists(P), d), P.field)


def _subspace_bases(free, z: int, p: int, width: int):
    """Reduced echelon bases of every subspace of dimension <= z of GF(p)
    on the columns `free` (in increasing order), as rows of length `width`
    that are zero off `free`: per dimension k, per choice of k pivots, every
    filling of the positions right of each pivot that are not pivots."""
    q = len(free)
    for k in range(min(z, q) + 1):
        for pivots in itertools.combinations(range(q), k):
            slots = [(i, free[j]) for i, c in enumerate(pivots) for j in range(c + 1, q) if j not in pivots]
            for values in itertools.product(range(p), repeat=len(slots)):
                rows = [[0] * width for _ in pivots]
                for row, c in zip(rows, pivots):
                    row[free[c]] = 1
                for (i, col), v in zip(slots, values):
                    rows[i][col] = v
                yield rows


def achieved_set(P: PolyMatrix, z: int, *, _ctx: _GridContext | None = None, _form=None):
    """Eigenstructures of all completions [P; W] with deg W <= deg P.

    The eigenstructure of [P; W] depends only on the row space V of its
    coefficient stack, and V runs over the subspaces containing P's row
    space U with dim V - dim U <= z.  Each such V is U plus exactly one
    subspace of the vectors zero at the pivot columns of U's form, so one
    W per subspace is formed: its reduced echelon basis, padded with zero
    rows to z rows, keyed by extending a copy of U's form.  `_ctx` is the
    memo `run_grid` shares across a grid, which must be the grid of P and
    this z; without it a fresh one is made.  `_form` is U's form, if the
    caller has it."""
    ctx = _GridContext.serving(_ctx, P, z)
    form = _form if _form is not None else _stack_form(P, ctx.spec.d)
    width = P.cols * (ctx.spec.d + 1)
    pivots = {col for col, _ in form}
    free = [c for c in range(width) if c not in pivots]
    found = set()
    for w_rows in _subspace_bases(free, z, P.field.p, width):
        key = (P.rows + z, tuple(tuple(row) for _, row in echelon(w_rows, P.field, list(form))))
        found.add(ctx.eigenstructure(key))
    return found


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
    verdict, search verdict).  Every matrix with P's shape, degree and
    stack row space, and every P·Q for Q in GL_n(p), has the same records
    but for "matrix", so with a shared memo they are worked out once per
    orbit of such classes, on its representative; without one, P's orbit
    is not walked.  A theorem named twice is taken once, in the order
    first named.  `_ctx` is as for `achieved_set`.
    """
    ctx = _GridContext.serving(_ctx, P, z)
    theorems = tuple(dict.fromkeys(theorems))
    form = _stack_form(P, ctx.spec.d)
    key = (P.rows, tuple(tuple(row) for _, row in form))
    if _ctx is not None:  # a memo made for this call serves no other class
        key, form = ctx.orbit(key, form)
    entries = ctx.classes.setdefault(key, {})
    missing = [theorem for theorem in theorems if theorem not in entries]
    if missing:
        pinv = ctx.eigenstructure(key)
        achieved = achieved_set(P, z, _ctx=ctx, _form=form)
        verdicts = ctx.verdicts.setdefault(pinv, {})
        for theorem in missing:
            pairs = ctx.target_pairs(theorem, pinv.rank)
            if theorem not in verdicts:
                check = ctx.checkers[theorem]
                verdicts[theorem] = [check(pinv, target).feasible for _, _, target in pairs]
            truth = {project(es, theorem) for es in achieved}
            entries[theorem] = [
                (cand, verdict, proj in truth)
                for (proj, cand, _), verdict in zip(pairs, verdicts[theorem])
                if verdict != (proj in truth)
            ]
    return [
        {"matrix": P, "theorem": theorem, "target": cand, "checker": verdict, "search": search}
        for theorem in theorems
        for cand, verdict, search in entries[theorem]
    ]


def _subspace_count(a: int, k: int, p: int) -> int:
    """The Gaussian binomial [a choose k]_p: subspaces of dimension k of GF(p)^a."""
    if k > a:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (a - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _ensure_grid_budget(spec: GridSpec, budget: int) -> None:
    """Raise BudgetExceededError unless what the oracle forms fits the
    budget: the classes, N = n (d + 1), which are the subspaces of GF(p)^N
    of dimension k = 1..m outside the N - n dimensional space of rows with
    a zero s^d block, [N choose k]_p - [N - n choose k]_p of each k, times
    the subspaces formed per class, at most sum_{k <= min(z, N - 1)}
    [N - 1 choose k]_p since every class has rho >= 1.  Both factors are at
    least a power of p: [a choose k]_p >= p^(k (a - k)), and the classes of
    dimension k number at least [N choose k]_p - [N - 1 choose k]_p =
    p^(N - k) [N - 1 choose k - 1]_p >= p^(k (N - k)).  So, as in
    `realize._ensure_budget`, a count whose power of p already passes the
    budget is refused from that exponent, with no big number formed."""
    p, N = spec.field.p, spec.n * (spec.d + 1)
    dims, subdims = range(1, min(spec.m, N) + 1), range(min(spec.z, N - 1) + 1)
    e = max(k * (N - k) for k in dims) + max(k * (N - 1 - k) for k in subdims)
    if e * (p.bit_length() - 1) >= budget.bit_length():
        raise BudgetExceededError(f"at least {p}^{e}", budget)
    classes = sum(_subspace_count(N, k, p) - _subspace_count(N - spec.n, k, p) for k in dims)
    count = classes * sum(_subspace_count(N - 1, k, p) for k in subdims)
    if count > budget:
        raise BudgetExceededError(count, budget)


def run_grid(spec: GridSpec, theorems=THEOREMS, budget: int | None = None, jobs: int = 1):
    """All mismatches over the grid, one record per matrix and mismatch, in
    grid order; an empty list means checkers and exhaustive search agree
    everywhere.  The classes are walked as reduced echelon forms, and each
    new orbit is checked on the matrix built from its representative; only
    on a mismatch are the grid's matrices listed."""
    if jobs != 1:  # perfbench/workloads.py still passes jobs=1; the oracle has one process
        raise ValueError(f"the oracle runs in one process: jobs must be 1, got {jobs!r}")
    if budget is not None:
        _ensure_grid_budget(spec, budget)
    ctx = _GridContext(spec)
    theorems = tuple(theorems)
    N = spec.n * (spec.d + 1)
    for rows in _subspace_bases(range(N), spec.m, spec.field.p, N):
        if not any(any(row[N - spec.n :]) for row in rows):
            continue  # no s^d block: not a class of degree d
        if (spec.m, tuple(map(tuple, rows))) not in ctx.orbits and check_instance(
            ctx.matrix(spec.m, rows), spec.z, theorems, _ctx=ctx
        ):
            return [
                rec
                for P in all_matrices(spec.m, spec.n, spec.d, spec.field)
                for rec in check_instance(P, spec.z, theorems, _ctx=ctx)
            ]
    return []
