"""The benchmark's workloads: seeded inputs, the timed operation, and the
checks of its outputs.

A workload's constructor is its set-up.  `batches` lists the timed
samples of one pass; each batch is a list of operation inputs with the
same make-up in every batch, so batch times are alike.  `op` runs one
operation through polyeig's public functions, and `verify` checks the
outputs of one pass and returns a list of failures.
"""

from __future__ import annotations

import random

import polyeig
import polyeig.oracle
import reference as ref
from polyeig import GF, QQ, CompletionTarget, PolyMatrix

THEOREMS = ("full", "hom+cols", "hom+rows", "hom", "finite", "infinite")


# Program functions are looked up on their module at call time, so that a
# traced run sees the wrappers the tracer binds there.
def _checkers():
    return (
        polyeig.check_full,
        polyeig.check_hom_plus_cols,
        polyeig.check_hom_plus_rows,
        polyeig.check_hom_only,
        polyeig.check_finite_only,
        polyeig.check_infinite_only,
    )


def _ints(rng, m, n, d, lo, hi):
    return [[[rng.randint(lo, hi) for _ in range(d + 1)] for _ in range(n)] for _ in range(m)]


# --- eig-q -------------------------------------------------------------------


class EigQ:
    """Eigenstructure over Q of integer matrices from 3x3 to 4x5, degree 1-3.

    Square regular items are dominated by the Smith form, wide and tall
    full-rank items by minimal indices, and rank-deficient products
    A(s) diag(s - a, 1, ...) B(s) carry finite and infinite structure
    and both index lists.  One batch is the whole corpus: the copies differ
    in cost, so a median over per-copy batches would sit between them.
    """

    SQUARE = ((3, 3, 1), (3, 3, 2), (3, 3, 3), (4, 4, 1), (4, 4, 2))
    WIDE = ((3, 4, 1), (3, 4, 2), (3, 5, 1), (4, 5, 1))
    TALL = ((4, 3, 1), (4, 3, 2))
    DEFICIENT = ((3, 2, 3), (4, 2, 4), (3, 2, 4), (4, 2, 5), (4, 3, 5))  # (m, k, n), degree 3
    COPIES = 4
    COEFF = (-3, 3)
    FACTOR_COEFF = (-2, 2)

    def __init__(self, seed: int):
        rng = random.Random(f"eig-q/{seed}")
        self.items = []  # (kind, integer matrix)
        for _ in range(self.COPIES):
            for m, n, d in self.SQUARE + self.WIDE + self.TALL:
                self.items.append(("full-rank", self._full_rank(rng, m, n, d)))
            for m, k, n in self.DEFICIENT:
                self.items.append(("deficient", self._deficient(rng, m, k, n)))
        self.matrices = [PolyMatrix.make(mat, QQ) for _, mat in self.items]
        self.batches = [list(range(len(self.items)))]

    def _full_rank(self, rng, m, n, d):
        while True:
            mat = _ints(rng, m, n, d, *self.COEFF)
            if ref.degree(mat) == d and ref.normal_rank(mat) == min(m, n):
                return mat

    def _deficient(self, rng, m, k, n):
        while True:
            a = rng.randint(*self.FACTOR_COEFF)
            mid = [[([-a, 1] if i == 0 else [1]) if i == j else [0] for j in range(k)] for i in range(k)]
            A = _ints(rng, m, k, 1, *self.FACTOR_COEFF)
            B = _ints(rng, k, n, 1, *self.FACTOR_COEFF)
            mat = ref.matmul(ref.matmul(A, mid), B)
            if ref.degree(mat) == 3 and ref.normal_rank(mat) == k:
                return mat

    def op(self, i):
        return polyeig.eigenstructure(self.matrices[i])

    def verify(self, outputs):
        """`outputs[i]` is the eigenstructure of item i."""
        fails = []
        for i, ((kind, mat), es) in enumerate(zip(self.items, outputs)):
            m, n = len(mat), len(mat[0])
            es_t = polyeig.eigenstructure(self.matrices[i].transpose())
            tag = f"eig-q item {i} ({m}x{n} {kind})"
            r = ref.normal_rank(mat)
            if es.rank != r:
                fails.append(f"{tag}: rank {es.rank}, evaluation gives {r}")
            if es.degree != ref.degree(mat):
                fails.append(f"{tag}: degree {es.degree}, entries give {ref.degree(mat)}")
            if len(es.hom_factors) != r or len(es.col_indices) != n - r or len(es.row_indices) != m - r:
                fails.append(f"{tag}: part lengths do not match rank {r}")
                continue
            fin = sum(h.alpha.degree for h in es.hom_factors)
            inf = sum(h.e for h in es.hom_factors)
            if fin + inf + sum(es.col_indices) + sum(es.row_indices) != es.rank * es.degree:
                fails.append(f"{tag}: index-sum identity fails")
            if es.hom_factors and es.hom_factors[0].e != 0:
                fails.append(f"{tag}: gamma_1 has a root at infinity")
            for name, idx in (("column", es.col_indices), ("row", es.row_indices)):
                if any(a < b for a, b in zip(idx, idx[1:])) or any(v < 0 for v in idx):
                    fails.append(f"{tag}: {name} indices {idx} not a partition")
            if m == n == r:
                dd = ref.det_degree(mat)
                if fin != dd:
                    fails.append(f"{tag}: sum of finite degrees {fin}, deg det P = {dd}")
            if (es_t.rank, es_t.degree, es_t.hom_factors, es_t.col_indices, es_t.row_indices) != (
                es.rank,
                es.degree,
                es.hom_factors,
                es.row_indices,
                es.col_indices,
            ):
                fails.append(f"{tag}: transposition does not keep the chain and swap the indices")
        return fails


# --- check -------------------------------------------------------------------


# The projections below restate the theorems' prescriptions rather than
# calling `oracle.project`: the exhaustive check of verdicts must not rest
# on the program's own helpers.


def project(es, theorem: str):
    """The part of an eigenstructure a theorem prescribes."""
    if theorem == "full":
        return (es.rank, es.hom_factors, es.col_indices, es.row_indices)
    if theorem == "hom+cols":
        return (es.rank, es.hom_factors, es.col_indices)
    if theorem == "hom+rows":
        return (es.rank, es.hom_factors, es.row_indices)
    if theorem == "hom":
        return (es.rank, es.hom_factors)
    if theorem == "finite":
        return (es.rank, tuple(h.alpha for h in es.hom_factors))
    return (es.rank, tuple(h.e for h in es.hom_factors))


def completion_target(es, z: int, theorem: str) -> CompletionTarget:
    """The target a user would pass to the theorem's checker."""
    hom = es.hom_factors
    kw = {"z": z, "rank": es.rank}
    if theorem in ("full", "hom+cols", "hom+rows", "hom"):
        kw["hom_factors"] = hom
    if theorem in ("full", "hom+cols"):
        kw["col_indices"] = es.col_indices
    if theorem in ("full", "hom+rows"):
        kw["row_indices"] = es.row_indices
    if theorem == "finite":
        kw["finite_factors"] = tuple(h.alpha for h in hom)
    if theorem == "infinite":
        kw["inf_mults"] = tuple(h.e for h in hom)
    return CompletionTarget(**kw)


class Check:
    """Completion feasibility under all six theorems over GF(2) and GF(3).

    A pair is (P, target); each stratum (p, m, n, d, z) gives P_PER matrices
    P and, per P, FROM_ENUM admissible targets sampled from
    `enumerate_targets` plus FROM_COMPLETION eigenstructures of random
    completions [P; W].  One batch holds one pair from every stratum.
    """

    STRATA = (
        (2, 1, 2, 1, 1),
        (2, 1, 2, 2, 1),
        (2, 1, 3, 1, 1),
        (2, 2, 3, 1, 1),
        (2, 1, 3, 1, 2),
        (2, 1, 4, 1, 3),
        (2, 2, 4, 1, 2),
        (2, 1, 4, 2, 2),
        (3, 1, 3, 1, 2),
        (3, 2, 3, 1, 1),
        (3, 1, 4, 1, 3),
        (3, 2, 4, 1, 2),
        (3, 1, 3, 2, 1),
    )
    P_PER = 12
    FROM_ENUM = 3
    FROM_COMPLETION = 1

    def __init__(self, seed: int):
        rng = random.Random(f"check/{seed}")
        self.pairs = []  # dicts: stratum, p_index, mat, pinv, es, z, source, targets
        per_stratum = []
        for stratum in self.STRATA:
            p, m, n, d, z = stratum
            F = GF(p)
            cands = list(polyeig.enumerate_targets(m, n, z, d, F))
            mine = []
            for k in range(self.P_PER):
                mat = self._random_p(rng, p, m, n, d)
                pinv = polyeig.eigenstructure(PolyMatrix.make(mat, F))
                adm = [es for es in cands if 0 <= es.rank - pinv.rank <= min(z, n - pinv.rank)]
                chosen = [("enum", es) for es in rng.sample(adm, self.FROM_ENUM)]
                for _ in range(self.FROM_COMPLETION):
                    W = [[[rng.randrange(p) for _ in range(d + 1)] for _ in range(n)] for _ in range(z)]
                    chosen.append(("completion", polyeig.eigenstructure(PolyMatrix.make(mat + W, F))))
                for source, es in chosen:
                    mine.append(
                        {
                            "stratum": stratum,
                            "p_index": k,
                            "mat": mat,
                            "pinv": pinv,
                            "es": es,
                            "source": source,
                            "targets": tuple(completion_target(es, z, t) for t in THEOREMS),
                        }
                    )
            per_stratum.append(mine)
        rounds = len(per_stratum[0])
        self.batches = []
        for k in range(rounds):
            batch = []
            for mine in per_stratum:
                batch.append(len(self.pairs))
                self.pairs.append(mine[k])
            self.batches.append(batch)

    @staticmethod
    def _random_p(rng, p, m, n, d):
        while True:
            mat = [[[rng.randrange(p) for _ in range(d + 1)] for _ in range(n)] for _ in range(m)]
            if ref.degree(mat) == d:
                return mat

    def op(self, i):
        pair = self.pairs[i]
        pinv = pair["pinv"]
        return tuple(chk(pinv, t).feasible for chk, t in zip(_checkers(), pair["targets"]))

    def verify(self, outputs):
        fails = []
        achieved = {}
        for i, (pair, verdicts) in enumerate(zip(self.pairs, outputs)):
            tag = f"check pair {i} {pair['stratum']}"
            if pair["source"] == "completion" and not all(verdicts):
                fails.append(f"{tag}: an achieved eigenstructure was judged infeasible {verdicts}")
            if verdicts[0] and not all(verdicts):
                fails.append(f"{tag}: feasible in full but not in every projection {verdicts}")
            p, m, n, d, z = pair["stratum"]
            if p == 2 and z == 1:
                key = (pair["stratum"], pair["p_index"])
                if key not in achieved:
                    achieved[key] = self.achieved(pair["mat"], p, z, n, d)
                truth = achieved[key]
                want = tuple(project(pair["es"], t) in truth[t] for t in THEOREMS)
                if tuple(verdicts) != want:
                    fails.append(f"{tag}: verdicts {verdicts}, exhaustive search gives {want}")
        return fails

    @staticmethod
    def achieved(mat, p, z, n, d):
        """Per theorem, the projections of every eigenstructure of [P; W]
        over all W with entry degrees at most d."""
        F = GF(p)
        out = {t: set() for t in THEOREMS}
        for W in ref.completions(p, z, n, d):
            es = polyeig.eigenstructure(PolyMatrix.make(mat + W, F))
            for t in THEOREMS:
                out[t].add(project(es, t))
        return out


# --- oracle-grid ---------------------------------------------------------------


class OracleGrid:
    """One op is a pass of `oracle.run_grid(spec, jobs=1)` over both grids.

    The grids are exhaustive, so the seed only fixes the order in which
    they run within a pass.
    """

    GRIDS = ("gf3 m=1 n=2 z=1 d=1", "gf2 m=1 n=2 z=2 d=1")

    def __init__(self, seed: int):
        specs = list(self.GRIDS)
        random.Random(f"oracle-grid/{seed}").shuffle(specs)
        self.specs = [polyeig.oracle.GridSpec.parse(s) for s in specs]
        self.batches = [[0]]

    def op(self, i):
        return [polyeig.oracle.run_grid(spec, jobs=1) for spec in self.specs]

    def verify(self, outputs):
        fails = []
        for mismatches in outputs:
            for spec, found in zip(self.specs, mismatches):
                if found:
                    fails.append(f"oracle-grid {spec}: {len(found)} mismatches, first {found[0]['theorem']}")
        return fails


WORKLOADS = {"eig-q": EigQ, "check": Check, "oracle-grid": OracleGrid}
