"""Decision procedures for prescribed eigenstructures of row completions.

Given the eigenstructure of an m x n polynomial matrix P of degree d and a
(partial) prescription for the (m+z) x n completion, each checker decides
feasibility and reports exactly which conditions fail.  All arithmetic is
exact; conditions are integer inequalities between degree sums of
homogeneous lcm chains plus (generalized) majorization tests on index
sequences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .homog import chain_at, homog_deg, homog_divides, homog_lcm, is_divisibility_chain
from .matrix import Eigenstructure
from .poly import Poly, poly_divides, poly_lcm, poly_one
from .sequences import (
    POS_INF,
    ensure_nonincreasing,
    ensure_partition,
    gen_majorizes,
    majorizes,
    prefix_sum,
    seq_get,
)

log = logging.getLogger(__name__)


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
        if self.z < 0:
            raise InvalidTargetError("number of added rows must be nonnegative")
        if self.rank < 1:
            raise InvalidTargetError("target rank must be positive")
        if self.hom_factors is not None:
            if len(self.hom_factors) != self.rank:
                raise InvalidTargetError("homogeneous chain length must equal the target rank")
            if not is_divisibility_chain(self.hom_factors):
                raise InvalidTargetError("homogeneous factors must form a divisibility chain")
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
            f = tuple(int(v) for v in self.inf_mults)
            if len(f) != self.rank:
                raise InvalidTargetError("multiplicity list length must equal the target rank")
            if any(v < 0 for v in f) or any(a > b for a, b in zip(f, f[1:])):
                raise InvalidTargetError("multiplicities of infinity must be nondecreasing and nonnegative")
        if self.col_indices is not None:
            ensure_partition(self.col_indices, "target column indices")
        if self.row_indices is not None:
            ensure_partition(self.row_indices, "target row indices")


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


def _dls(phi, gamma, offset: int, upper: int) -> int:
    """Sum over i = 1..upper of the homogeneous degree of
    lcm(phi_{i+offset}, gamma_i), with the unit/zero index conventions."""
    total = 0
    for i in range(1, upper + 1):
        total += homog_deg(homog_lcm(chain_at(phi, i + offset), chain_at(gamma, i)))
    return total


def _interlaces(phi, gamma, z: int) -> bool:
    """Condition gamma_i | phi_i | gamma_{i+z} for 1 <= i <= len(phi)."""
    return all(
        homog_divides(chain_at(gamma, i), chain_at(phi, i))
        and homog_divides(chain_at(phi, i), chain_at(gamma, i + z))
        for i in range(1, len(phi) + 1)
    )


def _check_gap_shape(a, b, interlacing_ok: bool, label: str):
    # With the full hypotheses of the completion theorems the gap sequences
    # are nonincreasing with nonnegative b; interlacing alone does not
    # guarantee it (e.g. u=(1), v=(0,0) with unit chains gives b=(-1)), so
    # violations are logged, never fatal.  Feasible instances are checked
    # to satisfy these shape properties by the test suite.
    monotone = all(p >= q for p, q in zip(a, a[1:])) and all(p >= q for p, q in zip(b, b[1:]))
    tail_ok = not b or b[-1] >= 0
    if not (monotone and tail_ok):
        log.log(
            logging.INFO if interlacing_ok else logging.DEBUG,
            "%s gap sequences not monotone (interlacing=%s): a=%s b=%s",
            label,
            interlacing_ok,
            a,
            b,
        )


def _row_lead(gamma, u, v) -> int:
    """sum v - sum u + sum deg gamma: the leading gap term and the
    degree-sum bound in the row form."""
    return sum(v) - sum(u) + sum(homog_deg(g) for g in gamma)


def _col_lead(phi, c, dd, x: int, d: int) -> int:
    """sum c - sum dd + sum deg phi + x d: the same in the column form."""
    return sum(c) - sum(dd) + sum(homog_deg(p) for p in phi) + x * d


def _gaps(phi, gamma, lead: int, x: int, z: int, d: int, label: str):
    """Gap sequences a (length x) and b (length z-x); the two forms differ
    only in the leading term `lead` of a_1 and b_1."""
    r = len(phi)
    a = []
    if x >= 1:
        a.append(lead - _dls(phi, gamma, -x + 1, r + x - 1) - d)
        for j in range(2, x + 1):
            a.append(
                _dls(phi, gamma, -x + j - 1, r + x - j + 1)
                - _dls(phi, gamma, -x + j, r + x - j)
                - d
            )
    b = []
    if z - x >= 1:
        b.append(lead - _dls(phi, gamma, -x - 1, r + x))
        for j in range(2, z - x + 1):
            b.append(
                _dls(phi, gamma, -x - j + 1, r + x) - _dls(phi, gamma, -x - j, r + x)
            )
    a, b = tuple(a), tuple(b)
    _check_gap_shape(a, b, _interlaces(phi, gamma, z), label)
    return a, b


def build_gaps_row_form(phi, gamma, u, v, x: int, z: int, d: int):
    """Gap sequences a (length x) and b (length z-x) expressed through the
    row minimal indices u of P and v of the completion."""
    return _gaps(phi, gamma, _row_lead(gamma, u, v), x, z, d, "row-form")


def build_gaps_col_form(phi, gamma, c, dd, x: int, z: int, d: int):
    """Gap sequences expressed through the column minimal indices c of P
    and dd of the completion; only the leading entries differ from the
    row form."""
    return _gaps(phi, gamma, _col_lead(phi, c, dd, x, d), x, z, d, "col-form")


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
    sum_ok = prefix_sum(c, x + 1) - seq_get(c, ell) >= prefix_sum(a, x)
    tail_ok = all(sum(c[j + 1 : x + 1]) >= sum(a[j:x]) for j in range(ell, x))
    return ell, sum_ok, tail_ok


def _chain_check(pinv: Eigenstructure, target: CompletionTarget, theorem: str, col_form: bool):
    """The theorems that prescribe the homogeneous chain with one or both
    minimal index lists.  A condition applies when `theorem` prescribes the
    index list it reads, whatever else the target carries.  The gap
    sequences and the degree sum are taken in the row form (through u and
    v) or in the column form (through c and dd)."""
    r, x, d, n, m = _validate(pinv, target, theorem)
    parts = PRESCRIBES[theorem]
    cols, rows = "col_indices" in parts, "row_indices" in parts
    z, gamma, dd, v = target.z, target.hom_factors, target.col_indices, target.row_indices
    phi, u, c = pinv.hom_factors, pinv.row_indices, pinv.col_indices

    violations = []
    if not _interlaces(phi, gamma, z):
        violations.append("interlacing")
    if rows and sum(1 for t in v if t > 0) < sum(1 for t in u if t > 0):
        violations.append("eta")
    if col_form:
        a, b = build_gaps_col_form(phi, gamma, c, dd, x, z, d)
        lead, exact = _col_lead(phi, c, dd, x, d), x == z
    else:
        a, b = build_gaps_row_form(phi, gamma, u, v, x, z, d)
        lead, exact = _row_lead(gamma, u, v), x == 0
    details = {"x": x, "a": a, "b": b}
    if cols and not _holds(gen_majorizes, c, dd, a):
        violations.append("col-gen-majorization")
    if rows and not _holds(gen_majorizes, v, u, b):
        violations.append("row-gen-majorization")
    lhs = _dls(phi, gamma, -x, r + x)
    if (lhs != lead) if exact else (lhs > lead):
        violations.append("degree-sum")
    if not cols:
        # the column indices are free: some dd with c <' (dd, a) must exist
        if x == n - r:
            if not _holds(majorizes, c, a):
                violations.append("c-majorization")
        else:
            details["ell"], sum_ok, tail_ok = _prefix_cuts(c, a)
            if not sum_ok:
                violations.append("c-sum-ell")
            if not tail_ok:
                violations.append("c-sum-tail")
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
    assert gen_majorizes(c, dseq, a), "constructed sequence must witness the majorization"
    return dseq


def _degree_bounds(name: str, pinv: Eigenstructure, x: int, term, violations, details, exact=False):
    """The family j = 0..x-1 of the hom-, finite- and infinite-only
    theorems: term(j) + sum u + prefix(c, j) + sum c[x:] <= (r + x - j) d,
    with equality at j = 0 when `exact`.  The failing j are listed in
    details["failed_j"] under the one violation `name`."""
    r, d, c = pinv.rank, pinv.degree, pinv.col_indices
    base = sum(pinv.row_indices) + sum(c[x:])
    failed = []
    for j in range(x):
        lhs = term(j) + base + prefix_sum(c, j)
        rhs = (r + x - j) * d
        if (lhs != rhs) if exact and j == 0 else (lhs > rhs):
            failed.append(j)
    if failed:
        violations.append(name)
        details["failed_j"] = failed


def check_hom_only(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Only the homogeneous invariant factor chain prescribed."""
    r, x, d, n, m = _validate(pinv, target, "hom")
    z, gamma = target.z, target.hom_factors
    phi, c = pinv.hom_factors, pinv.col_indices

    violations = []
    details = {"x": x}
    if not _interlaces(phi, gamma, z):
        violations.append("interlacing")
    if x < z or x == n - r:
        _degree_bounds(
            "hom-only-j",
            pinv,
            x,
            lambda j: _dls(phi, gamma, j - x, r + x - j),
            violations,
            details,
            exact=x == z == n - r,
        )
    else:  # x == z < n - r
        sp = sum(homog_deg(p) for p in phi)
        sg = sum(homog_deg(g) for g in gamma)
        # threshold index against the implicit gap sequence of length x;
        # past position x the gap is -infinity, so the scan caps at x+1
        ell = x + 1
        for j in range(1, x + 1):
            if prefix_sum(c, j) > sg - _dls(phi, gamma, j - x, r + x - j) - j * d:
                ell = j
                break
        details["ell"] = ell
        if prefix_sum(c, x + 1) - seq_get(c, ell) < sg - sp - x * d:
            violations.append("c-sum-ell")
        for j in range(ell, x):
            if sum(c[j + 1 : x + 1]) < _dls(phi, gamma, j - x, r + x - j) - sp - (x - j) * d:
                violations.append("c-sum-tail")
                break
    return FeasibilityReport(tuple(violations), details)


def check_finite_only(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Only the finite invariant factor chain prescribed."""
    r, x, d, n, m = _validate(pinv, target, "finite")
    z = target.z
    beta = target.finite_factors
    alpha = pinv.alphas
    fld = pinv.hom_factors[0].field if pinv.hom_factors else beta[0].field
    se = sum(pinv.inf_mults)

    def beta_at(i):
        if i <= len(beta):
            return beta[i - 1]
        return Poly((), fld)  # past the chain: the zero polynomial

    def alpha_at(i):
        if i < 1:
            return poly_one(fld)
        return alpha[i - 1]

    def term(j):
        return se + sum(
            poly_lcm(alpha_at(i - x + j), beta_at(i)).degree if i - x + j >= 1 else beta_at(i).degree
            for i in range(1, r + x - j + 1)
        )

    violations = []
    details = {"x": x}
    ok = all(
        poly_divides(beta_at(i), alpha_at(i)) and poly_divides(alpha_at(i), beta_at(i + z))
        for i in range(1, r + 1)
    )
    if not ok:
        violations.append("interlacing")
    _degree_bounds("finite-only-j", pinv, x, term, violations, details)
    return FeasibilityReport(tuple(violations), details)


def check_infinite_only(pinv: Eigenstructure, target: CompletionTarget) -> FeasibilityReport:
    """Only the partial multiplicities of infinity prescribed."""
    r, x, d, n, m = _validate(pinv, target, "infinite")
    z = target.z
    f = tuple(int(t) for t in target.inf_mults)
    e = pinv.inf_mults
    sa = sum(a.degree for a in pinv.alphas)

    def f_at(i):
        return f[i - 1] if i <= len(f) else POS_INF

    def e_at(i):
        return 0 if i < 1 else e[i - 1]

    def term(j):
        return sa + sum(max(e_at(i - x + j), f[i - 1]) for i in range(1, r + x - j + 1))

    violations = []
    details = {"x": x}
    if not all(f_at(i) <= e[i - 1] <= f_at(i + z) for i in range(1, r + 1)):
        violations.append("interlacing")
    _degree_bounds("infinite-only-j", pinv, x, term, violations, details)
    return FeasibilityReport(tuple(violations), details)


# Theorem name -> checker; `PRESCRIBES` above gives the parts each one reads.
CHECKERS = {
    "full": check_full,
    "hom+cols": check_hom_plus_cols,
    "hom+rows": check_hom_plus_rows,
    "hom": check_hom_only,
    "finite": check_finite_only,
    "infinite": check_infinite_only,
}
