"""Decision procedures for prescribed eigenstructures of row completions.

Given the eigenstructure of an m x n polynomial matrix P of degree d and a
(partial) prescription for the (m+z) x n completion, each checker decides
feasibility and reports exactly which conditions fail.  All arithmetic is
exact; conditions are integer inequalities between degree sums of
homogeneous lcm chains plus (generalized) majorization tests on index
sequences.  Each checker first tabulates deg lcm(phi_k, gamma_i) between
every factor of P's chain and every factor of the target's, one gcd per
pair of finite parts, and evaluates every lcm degree, divisibility and gap
sequence on that table; no lcm of polynomials is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fields import same_field
from .homog import HomogPoly, ensure_chain, homog_deg
from .matrix import Eigenstructure
from .poly import Poly, poly_divides, poly_gcd
from .sequences import (
    InternalError,
    ensure_ints,
    ensure_nonincreasing,
    ensure_partition,
    _gen_majorizes,
    gen_majorizes,
    prefix_sum,
)


class InvalidTargetError(ValueError):
    """Target prescription is structurally inconsistent with P."""


class ConstantMatrixError(ValueError):
    """Completion checkers require a matrix of degree at least 1."""


@dataclass(frozen=True)
class CompletionTarget:
    """Prescription for the eigenstructure of the row-completed matrix.

    Only the prescribed parts are set; absent parts stay None.  The rank
    excess x is always derived as ``rank - pInv.rank`` by the checkers.
    """

    z: int
    rank: int
    hom_factors: tuple | None = None       # chain of HomogPoly, length rank
    finite_factors: tuple | None = None    # chain of monic Poly, length rank
    inf_mults: tuple | None = None         # nondecreasing ints, length rank
    col_indices: tuple | None = None       # partition, length n - rank
    row_indices: tuple | None = None       # partition, length m + z - rank

    def __post_init__(self):
        ensure_ints((self.z, self.rank), "z and rank", InvalidTargetError)
        if self.z < 0:
            raise InvalidTargetError("number of added rows must be nonnegative")
        if self.rank < 1:
            raise InvalidTargetError("target rank must be positive")
        for name in ("hom_factors", "finite_factors", "inf_mults", "col_indices", "row_indices"):
            part = getattr(self, name)
            if part is not None and not isinstance(part, tuple):
                raise InvalidTargetError(f"{name} must be a tuple, got {part!r}")
        if self.hom_factors is not None:
            if len(self.hom_factors) != self.rank:
                raise InvalidTargetError("homogeneous chain length must equal the target rank")
            ensure_chain(self.hom_factors, InvalidTargetError)
        if self.finite_factors is not None:
            if len(self.finite_factors) != self.rank:
                raise InvalidTargetError("finite chain length must equal the target rank")
            for p in self.finite_factors:
                if not isinstance(p, Poly) or not p.is_monic:
                    raise InvalidTargetError("finite factors must be monic polynomials")
            if not all(
                poly_divides(p, q) for p, q in zip(self.finite_factors, self.finite_factors[1:])
            ):
                raise InvalidTargetError("finite factors must form a divisibility chain")
        if self.inf_mults is not None:
            f = self.inf_mults
            ensure_ints(f, "multiplicities of infinity", InvalidTargetError)
            if len(f) != self.rank:
                raise InvalidTargetError("multiplicity list length must equal the target rank")
            if any(v < 0 for v in f) or any(a > b for a, b in zip(f, f[1:])):
                raise InvalidTargetError("multiplicities of infinity must be nondecreasing and nonnegative")
        if self.col_indices is not None:
            ensure_partition(self.col_indices, "target column indices", InvalidTargetError)
        if self.row_indices is not None:
            ensure_partition(self.row_indices, "target row indices", InvalidTargetError)


# The parts of a CompletionTarget that each completion theorem prescribes,
# by theorem name.  With `CHECKERS` below it is the one place a theorem is
# defined: the checkers, the oracle and the CLI all read these two tables.
PRESCRIBES = {
    "full": ("hom_factors", "col_indices", "row_indices"),
    "hom+cols": ("hom_factors", "col_indices"),
    "hom+rows": ("hom_factors", "row_indices"),
    "hom": ("hom_factors",),
    "finite": ("finite_factors",),
    "infinite": ("inf_mults",),
}


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a feasibility check: violated condition names plus the
    intermediate data (gap sequences, thresholds) used to evaluate them."""

    violations: tuple
    details: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return not self.violations


# --- chains as one lcm-degree table -----------------------------------------
#
# Every condition below reads the degree of an lcm of a factor phi_k of P's
# chain and a factor gamma_i of the target's, or tests divisibility between
# them, as in the interlacing of Thompson (1979) and Sa (1979).  For monic
# factors a | b exactly when deg lcm(a, b) = deg b, so each checker call
# builds one table t = (L, deg phi, deg gamma) with
# L[k][i] = deg lcm(phi_k, gamma_i), 0-based, and every condition is integer
# arithmetic on it.  A position below P's chain is the unit, whose lcm with
# gamma_i has the degree of gamma_i.


def _lcm_table(phi, gamma):
    """The lcm-degree table of the HomogPoly chains phi and gamma:
    deg lcm((alpha, t^e), (beta, t^f)) = max(e, f) + deg alpha + deg beta
    - deg gcd(alpha, beta), with one gcd per distinct pair of nonconstant
    finite parts."""
    fields = [h.field for h in (*gamma, *phi)]
    if fields:
        same_field(*fields)
    common = {}  # one field, so the coefficients identify a finite part

    def gcd_degree(a, b):
        if a.degree < 1 or b.degree < 1:
            return 0
        key = (a.coeffs, b.coeffs)
        if key not in common:
            common[key] = a.degree if key[0] == key[1] else poly_gcd(a, b).degree
        return common[key]

    table = tuple(
        tuple(
            max(h.e, g.e) + h.alpha.degree + g.alpha.degree - gcd_degree(h.alpha, g.alpha)
            for g in gamma
        )
        for h in phi
    )
    return table, tuple(map(homog_deg, phi)), tuple(map(homog_deg, gamma))


def _dls(t, offset: int, upper: int) -> int:
    """Sum over i = 1..upper of the degree of lcm(phi_{i+offset}, gamma_i)."""
    table, _, dgamma = t
    return sum(table[i + offset][i] if i + offset >= 0 else dgamma[i] for i in range(upper))


def _interlaces(t, z: int) -> bool:
    """Condition gamma_i | phi_i | gamma_{i+z} for 1 <= i <= len(phi).  A
    position above a chain stands for zero: every factor divides it, and it
    divides nothing but itself."""
    table, dphi, dgamma = t
    n = len(dgamma)
    return all(
        i < n and table[i][i] == dp and (i + z >= n or table[i][i + z] == dgamma[i + z])
        for i, dp in enumerate(dphi)
    )


def _row_lead(dgamma, u, v) -> int:
    """sum v - sum u + sum deg gamma: the leading gap term and the
    degree-sum bound in the row form."""
    return sum(v) - sum(u) + sum(dgamma)


def _col_lead(dphi, c, dd, x: int, d: int) -> int:
    """sum c - sum dd + sum deg phi + x d: the same in the column form."""
    return sum(c) - sum(dd) + sum(dphi) + x * d


def _gaps(t, lead: int, x: int, z: int, d: int):
    """Gap sequences a (length x) and b (length z-x) of the lcm-degree table
    t.  The row form (through the row minimal indices u of P and v of the
    completion) and the column form (through the column minimal indices c
    and dd) differ only in the leading term `lead` of a_1 and b_1.  With the
    full hypotheses of the completion theorems both are nonincreasing and b
    is nonnegative; interlacing alone does not guarantee it (u=(1), v=(0,0)
    with unit chains gives b=(-1))."""
    r = len(t[1])
    a = []
    if x >= 1:
        a.append(lead - _dls(t, -x + 1, r + x - 1) - d)
        for j in range(2, x + 1):
            a.append(_dls(t, -x + j - 1, r + x - j + 1) - _dls(t, -x + j, r + x - j) - d)
    b = []
    if z - x >= 1:
        b.append(lead - _dls(t, -x - 1, r + x))
        for j in range(2, z - x + 1):
            b.append(_dls(t, -x - j + 1, r + x) - _dls(t, -x - j, r + x))
    return tuple(a), tuple(b)


def _holds(test, *args) -> bool:
    """test(*args), treating malformed inputs (possible only when another
    condition already failed) as a violation."""
    try:
        return test(*args)
    except ValueError:
        return False


def check_existence(target: Eigenstructure) -> FeasibilityReport:
    """Whether any polynomial matrix has the given eigenstructure:
    the leading homogeneous factor must have no root at infinity, and the
    index sum identity must hold."""
    if target.rank < 1:
        raise InvalidTargetError("rank must be positive")
    violations = []
    if target.hom_factors[0].e != 0:
        violations.append("gamma1-at-infinity")
    if not target.index_sum_holds():
        violations.append("index-sum")
    return FeasibilityReport(tuple(violations), {})


def _validate(pinv: Eigenstructure, target: CompletionTarget, theorem: str):
    """Validation common to the completion checkers: P of degree >= 1, the
    rank excess in range, every part `theorem` prescribes present, and the
    prescribed index lists of the right length.  Returns (r, x, d, n, m)."""
    if pinv.degree < 1:
        raise ConstantMatrixError("completion checkers require degree >= 1")
    r, n, m = pinv.rank, pinv.ncols, pinv.nrows
    x = target.rank - r
    if not 0 <= x <= min(target.z, n - r):
        raise InvalidTargetError(
            f"rank excess x={x} must satisfy 0 <= x <= min(z={target.z}, n-r={n - r})"
        )
    parts = PRESCRIBES[theorem]
    missing = [part for part in parts if getattr(target, part) is None]
    if missing:
        raise InvalidTargetError(f"the {theorem} check needs {', '.join(missing)}")
    if "col_indices" in parts and len(target.col_indices) != n - r - x:
        raise InvalidTargetError(f"expected {n - r - x} column indices, got {len(target.col_indices)}")
    if "row_indices" in parts and len(target.row_indices) != m + target.z - r - x:
        raise InvalidTargetError(f"expected {m + target.z - r - x} row indices, got {len(target.row_indices)}")
    return r, x, pinv.degree, n, m


def _prefix_cuts(c, a):
    """The prefix-cut conditions of Lemma 4.5 under which some d with
    c <' (d, a) exists, for x = len(a) < len(c).  Returns the threshold ell
    (least j with prefix(c, j) > prefix(a, j)), whether the cut at ell
    holds, and whether every tail cut past it holds."""
    x = len(a)
    ell = x + 1  # past position x the gap sequence a counts as -infinity
    for j in range(1, x + 1):
        if prefix_sum(c, j) > prefix_sum(a, j):
            ell = j
            break
    sum_ok = prefix_sum(c, x + 1) - c[ell - 1] >= prefix_sum(a, x)
    tail_ok = all(sum(c[j + 1 : x + 1]) >= sum(a[j:x]) for j in range(ell, x))
    return ell, sum_ok, tail_ok


def _free_col_cuts(c, a):
    """With the column indices free, some dd with c <' (dd, a) must exist:
    the threshold ell of the prefix cuts and the violated ones, in the
    order c-sum-ell, c-sum-tail."""
    ell, sum_ok, tail_ok = _prefix_cuts(c, a)
    return ell, [name for name, ok in (("c-sum-ell", sum_ok), ("c-sum-tail", tail_ok)) if not ok]


def _chain_check(pinv: Eigenstructure, target: CompletionTarget, theorem: str, col_form: bool):
    """The theorems that prescribe the homogeneous chain with one or both
    minimal index lists.  A condition applies when `theorem` prescribes the
    index list it reads, whatever else the target carries.  The gap
    sequences and the degree sum are taken in the row form (through u and
    v) or in the column form (through c and dd)."""
    r, x, d, n, m = _validate(pinv, target, theorem)
    parts = PRESCRIBES[theorem]
    cols, rows = "col_indices" in parts, "row_indices" in parts
    z, dd, v = target.z, target.col_indices, target.row_indices
    u, c = pinv.row_indices, pinv.col_indices
    t = _lcm_table(pinv.hom_factors, target.hom_factors)

    violations = []
    if not _interlaces(t, z):
        violations.append("interlacing")
    if rows and sum(1 for t in v if t > 0) < sum(1 for t in u if t > 0):
        violations.append("eta")
    if col_form:
        lead, exact = _col_lead(t[1], c, dd, x, d), x == z
    else:
        lead, exact = _row_lead(t[2], u, v), x == 0
    a, b = _gaps(t, lead, x, z, d)
    details = {"x": x, "a": a, "b": b}
    if cols and not _holds(_gen_majorizes, c, dd, a):
        violations.append("col-gen-majorization")
    if rows and not _holds(_gen_majorizes, v, u, b):
        violations.append("row-gen-majorization")
    lhs = _dls(t, -x, r + x)
    if (lhs != lead) if exact else (lhs > lead):
        violations.append("degree-sum")
    if not cols:
        # the column indices are free: some dd with c <' (dd, a) must exist
        if x == n - r:
            if not _holds(_gen_majorizes, c, (), a):
                violations.append("c-majorization")
        else:
            details["ell"], cuts = _free_col_cuts(c, a)
            violations += cuts
    return FeasibilityReport(tuple(violations), details)


def check_full(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Full prescription: homogeneous chain plus both minimal index lists."""
    return _chain_check(pinv, target, "full", col_form=False)


def check_full_colform(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Equivalent evaluation of the full prescription through column
    minimal indices; exercised for the row/column-form agreement property."""
    return _chain_check(pinv, target, "full", col_form=True)


def check_hom_plus_cols(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Homogeneous chain plus column minimal indices prescribed."""
    return _chain_check(pinv, target, "hom+cols", col_form=True)


def check_hom_plus_rows(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Homogeneous chain plus row minimal indices prescribed."""
    return _chain_check(pinv, target, "hom+rows", col_form=False)


def construct_d(c, a):
    """Smallest completion d with c <' (d, a), when one exists.

    Returns the sequence d or None when the prefix-cut conditions fail.
    """
    c = ensure_nonincreasing(c, "c")
    a = ensure_nonincreasing(a, "a")
    x = len(a)
    if len(c) <= x:
        raise ValueError("need len(c) > len(a)")
    if x == 0:
        return c
    _, sum_ok, tail_ok = _prefix_cuts(c, a)
    if not (sum_ok and tail_ok):
        return None
    d1 = prefix_sum(c, x + 1) - prefix_sum(a, x)
    dseq = (d1,) + tuple(c[x + 1 :])
    if not gen_majorizes(c, dseq, a):
        raise InternalError("constructed sequence must witness the majorization")
    return dseq


def _chain_family(name, pinv: Eigenstructure, x: int, z: int, t, offset: int, exact=False):
    """The conditions of the homogeneous-only theorem on the lcm-degree table
    t of P's chain and the target's: interlacing, then the family
    j = 0..x-1 offset + dls_j + sum u + prefix(c, j) + sum c[x:] <= (r + x - j) d,
    with equality at j = 0 when `exact`.  The failing j are listed in
    details["failed_j"] under the one violation `name`.  The finite- and
    infinite-only theorems are these conditions on chains whose other half
    is trivial, with that half's degree sum over P as `offset`."""
    r, d, c = pinv.rank, pinv.degree, pinv.col_indices
    violations = []
    details = {"x": x}
    if not _interlaces(t, z):
        violations.append("interlacing")
    base = offset + sum(pinv.row_indices) + sum(c[x:])
    failed = []
    for j in range(x):
        lhs = _dls(t, j - x, r + x - j) + base + prefix_sum(c, j)
        rhs = (r + x - j) * d
        if (lhs != rhs) if exact and j == 0 else (lhs > rhs):
            failed.append(j)
    if failed:
        violations.append(name)
        details["failed_j"] = failed
    return FeasibilityReport(tuple(violations), details)


def check_hom_only(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Only the homogeneous invariant factor chain prescribed."""
    r, x, d, n, m = _validate(pinv, target, "hom")
    z, c = target.z, pinv.col_indices
    t = _lcm_table(pinv.hom_factors, target.hom_factors)
    if x < z or x == n - r:
        return _chain_family("hom-only-j", pinv, x, z, t, 0, exact=x == z == n - r)

    # x == z < n - r: the prefix cuts of c against the gaps a with leading
    # term sum deg gamma, so that prefix(a, j) = sum deg gamma - dls_j - j d
    violations = []
    if not _interlaces(t, z):
        violations.append("interlacing")
    a, _ = _gaps(t, sum(t[2]), x, z, d)
    ell, cuts = _free_col_cuts(c, a)
    return FeasibilityReport(tuple(violations + cuts), {"x": x, "ell": ell})


def check_finite_only(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Only the finite invariant factor chain prescribed: the homogeneous-only
    conditions on the finite parts, (alpha, t^0) for P and (beta, t^0) for
    the target, with the multiplicities of infinity of P as offset."""
    r, x, d, n, m = _validate(pinv, target, "finite")
    t = _lcm_table(
        tuple(HomogPoly(a, 0) for a in pinv.alphas),
        tuple(HomogPoly(b, 0) for b in target.finite_factors),
    )
    return _chain_family("finite-only-j", pinv, x, target.z, t, sum(pinv.inf_mults))


def check_infinite_only(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Only the partial multiplicities of infinity prescribed: the
    homogeneous-only conditions on the t-powers, (1, t^e) for P and
    (1, t^f) for the target, with the finite degrees of P as offset."""
    r, x, d, n, m = _validate(pinv, target, "infinite")
    # the lcm of two t-powers is the larger one: no finite part, no field
    es, fs = pinv.inf_mults, target.inf_mults
    t = tuple(tuple(max(e, f) for f in fs) for e in es), es, fs
    finite_degrees = sum(a.degree for a in pinv.alphas)
    return _chain_family("infinite-only-j", pinv, x, target.z, t, finite_degrees)


# Theorem name -> checker; `PRESCRIBES` above gives the parts each one reads.
CHECKERS = {
    "full": check_full,
    "hom+cols": check_hom_plus_cols,
    "hom+rows": check_hom_plus_rows,
    "hom": check_hom_only,
    "finite": check_finite_only,
    "infinite": check_infinite_only,
}
