"""Criteria certifying that a pro-p group is not a maximal pro-p Galois group.

All fields are assumed to contain a primitive p-th root of unity, and q = p
throughout.  Implemented criteria:

* the pairing principle: if two groups have isomorphic third quotients but
  different cohomology, at most one of them is realizable;
* the corollary for relators inside the third series term: if S is free and
  1 != R <= S^(3,p) is normal, then S/R is not realizable;
* the cohomological dimension test: dim H^1(G) < cd(G) rules G out (for
  p = 2, G must additionally be torsion-free);
* the wreath-type construction K^m x| L over a transitive permutation
  action, where dim H^1(G) = dim H^1(K) + dim H^1(L) while
  cd(G) = m cd(K) + cd(L), so enough copies trip the dimension test.

cd values are never computed from scratch: they are user-supplied or
produced by the recorded formulas, with provenance attached.

Verdict records are {criterion, verdict, witness} with verdict one of
"not-realizable", "at-most-one-realizable", "criterion-not-applicable",
"inconclusive".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QcwError
from .lie import witt_rank
from .presentations import Presentation, Word, is_trivial_in_free
from .qcentral import (
    DEFAULT_ORDER_BOUND,
    FiniteGroupTable,
    SeriesParams,
    abelian_table,
    evaluate_word,
    is_isomorphic,
    second_quotient,
    series_step_oracle,
    third_quotient,
    to_table,
    universal_class2,
)
from .zqlinalg import QuotientModule

__all__ = [
    "CdDescriptor",
    "WreathSpec",
    "Verdict",
    "principle_check",
    "relators_in_third_series",
    "h1_vs_cd_check",
    "wreath_construct",
    "dim_h1_mod_p",
    "weight3_lie_vector",
    "semidirect_power_table",
]

NOT_REALIZABLE = "not-realizable"
AT_MOST_ONE = "at-most-one-realizable"
NOT_APPLICABLE = "criterion-not-applicable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CdDescriptor:
    """A cohomological dimension value with provenance."""

    value: int | None  # None encodes infinity
    provenance: str  # user-supplied | free-group | wreath-formula | power-formula

    def __post_init__(self):
        allowed = {"user-supplied", "free-group", "wreath-formula", "power-formula"}
        if self.provenance not in allowed:
            raise ValueError(f"unknown cd provenance {self.provenance!r}")
        if self.value is not None and self.value < 0:
            raise ValueError("cd must be nonnegative")

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @classmethod
    def free(cls) -> "CdDescriptor":
        return cls(value=1, provenance="free-group")

    def to_record(self):
        return {
            "value": self.value if self.is_finite else "infinity",
            "provenance": self.provenance,
        }


@dataclass
class Verdict:
    criterion: str
    verdict: str
    witness: dict

    def to_record(self) -> dict:
        return {"criterion": self.criterion, "verdict": self.verdict, "witness": self.witness}


def dim_h1_mod_p(pres: Presentation, p: int) -> int:
    """dim_{F_p} H^1 of the presented pro-p group (mod-p abelianization rank)."""
    t = second_quotient(pres, SeriesParams(p=p, d=1), order_bound=1 << 30)
    return round(math.log(t.order, p)) if t.order > 1 else 0


# ---------------------------------------------------------------------------
# weight-3 Lie values via class-3 collection
#
# Free nilpotent-of-class-3 normal form: x_1^{a_1}...x_n^{a_n} *
# prod_{i<j} u_ij^{c_ij} * prod w^d with u_ij = [x_j, x_i] and w ranging
# over the Hall weight-3 commutators [[x_j, x_i], x_k] (i<j, k>=i), which
# are central.  Appending one letter x_g on the right costs, mod weight 4:
#
#   * u_ij^{c_ij} x_g = x_g u_ij^{c_ij} [[x_j, x_i], x_g]^{c_ij}
#   * x_i^{a} x_g = x_g x_i^{a} u_gi^{a} [[x_i, x_g], x_i]^{a(a-1)/2}
#     for i > g, and the fresh u_gi^{a} then passes x_k^{a_k} (k > i),
#     costing [[x_i, x_g], x_k]^{a a_k}.
#
# Inverse letters are handled by inverting the forward step: y = z x_g^-1
# is the unique y with y x_g = z.


class _Class3Collector:
    def __init__(self, n: int):
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_index = {pr: k for k, pr in enumerate(self.pairs)}
        self.triples = [
            ((j, i), k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(i, n)
        ]
        self.tri_index = {t: k for k, t in enumerate(self.triples)}
        self.a = np.zeros(n, dtype=object)
        self.c = np.zeros(len(self.pairs), dtype=object)
        self.d = np.zeros(len(self.triples), dtype=object)

    def hall3(self, J: int, I: int, K: int) -> np.ndarray:
        """[[x_J, x_I], x_K] over the Hall weight-3 basis (integer vector)."""
        vec = np.zeros(len(self.triples), dtype=object)
        if I == J:
            return vec
        sign = 1
        if I > J:
            I, J = J, I
            sign = -1
        if K >= I:
            vec[self.tri_index[((J, I), K)]] += sign
            return vec
        # K < I: Jacobi  [[a,b],c] = [[a,c],b] - [[b,c],a]
        return sign * (self.hall3(J, K, I) - self.hall3(I, K, J))

    def _forward_dc(self, a, g: int):
        """Weight-2 cost of multiplying a state with x-part ``a`` by x_g."""
        dc = np.zeros(len(self.pairs), dtype=object)
        for i in range(g + 1, self.n):
            if a[i]:
                dc[self.pair_index[(g, i)]] += a[i]
        return dc

    def _forward_dd(self, a, c, g: int):
        """Weight-3 cost of multiplying the state (a, c, .) by x_g."""
        dd = np.zeros(len(self.triples), dtype=object)
        for idx, (i, j) in enumerate(self.pairs):
            if c[idx]:
                dd += c[idx] * self.hall3(j, i, g)
        for i in range(g + 1, self.n):
            ai = a[i]
            if not ai:
                continue
            dd += (ai * (ai - 1) // 2) * self.hall3(i, g, i)
            for k in range(i + 1, self.n):
                if a[k]:
                    dd += ai * a[k] * self.hall3(i, g, k)
        return dd

    def mul_gen(self, g: int, sign: int):
        if sign == 1:
            dd = self._forward_dd(self.a, self.c, g)
            self.c = self.c + self._forward_dc(self.a, g)
            self.d = self.d + dd
            self.a[g] += 1
        else:
            # solve y * x_g = current for y
            a_y = self.a.copy()
            a_y[g] -= 1
            c_y = self.c - self._forward_dc(a_y, g)
            self.c = c_y
            self.d = self.d - self._forward_dd(a_y, c_y, g)
            self.a = a_y

    def feed_word(self, w: Word):
        for g, e in w.letters:
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                self.mul_gen(g, s)


def weight3_lie_vector(w: Word, n: int, p: int) -> np.ndarray | None:
    """Weight-3 Lie value mod p of a word, or None if not in gamma_3.

    The word lies in gamma_3 of the free group iff its class-3 normal form
    has trivial weight-1 and weight-2 parts; its image in
    gamma_3/gamma_4 (x) F_p is then the weight-3 coordinate vector over the
    Hall basis.
    """
    col = _Class3Collector(n)
    col.feed_word(w)
    if any(int(x) for x in col.a) or any(int(x) for x in col.c):
        return None
    return np.array([int(x) % p for x in col.d], dtype=np.int64)


def _free_class2_family_rank(pres: Presentation, p: int) -> int | None:
    """witt_rank(n, 3) when the relators normally generate [S, [S, S]].

    Recognition: every relator lies in gamma_3 and the weight-3 Lie values
    span the full weight-3 component mod p.  Returns None otherwise (H^2 is
    then not counted for this presentation).
    """
    n = pres.rank
    if not pres.relators:
        return None
    vectors = []
    for r in pres.relators:
        vec = weight3_lie_vector(r, n, p)
        if vec is None:
            return None
        vectors.append(vec)
    target = witt_rank(n, 3)
    if target == 0:
        return None
    span = QuotientModule(vectors, [], len(vectors[0]), p)
    return target if span.rank == target else None


def _h2_count(pres: Presentation, p: int) -> int | None:
    """dim H^2 of the presented pro-p group, on the countable families."""
    if not pres.relators or all(is_trivial_in_free(r) for r in pres.relators):
        return 0  # free presentation
    return _free_class2_family_rank(pres, p)


# ---------------------------------------------------------------------------
# the four criteria


def principle_check(
    pres1: Presentation,
    pres2: Presentation,
    p: int,
    order_bound: int = DEFAULT_ORDER_BOUND,
    assert_realizable: str | None = None,
) -> Verdict:
    """At most one of two groups with isomorphic third quotients but
    different cohomology is a maximal pro-p Galois group.

    H^2 enters only on families where the relation rank is countable (free
    presentations; the free-class-2 family via the Witt numbers); otherwise
    only H^1 is compared.  ``assert_realizable`` in {"first", "second"}
    declares one side realizable, and the verdict then names the other.
    """
    params = SeriesParams(p=p, d=1)
    t1 = to_table(third_quotient(pres1, params, order_bound), order_bound)
    t2 = to_table(third_quotient(pres2, params, order_bound), order_bound)
    iso, witness_map = is_isomorphic(t1, t2)
    if not iso:
        return Verdict(
            criterion="principle",
            verdict=INCONCLUSIVE,
            witness={
                "reason": "third quotients are not isomorphic",
                "orders": [t1.order, t2.order],
            },
        )
    h1_1, h1_2 = dim_h1_mod_p(pres1, p), dim_h1_mod_p(pres2, p)
    h2_1, h2_2 = _h2_count(pres1, p), _h2_count(pres2, p)
    distinguishing = None
    if h1_1 != h1_2:
        distinguishing = {"invariant": "dim_h1", "values": [h1_1, h1_2]}
    elif h2_1 is not None and h2_2 is not None and h2_1 != h2_2:
        distinguishing = {"invariant": "dim_h2", "values": [h2_1, h2_2]}
    if distinguishing is None:
        return Verdict(
            criterion="principle",
            verdict=INCONCLUSIVE,
            witness={
                "reason": "no distinguishing cohomology invariant found",
                "dim_h1": [h1_1, h1_2],
                "dim_h2": [h2_1, h2_2],
            },
        )
    witness = {
        "quotient_order": t1.order,
        "generator_images": witness_map,
        **distinguishing,
    }
    if assert_realizable in ("first", "second"):
        witness["asserted_realizable"] = assert_realizable
        witness["excluded"] = "second" if assert_realizable == "first" else "first"
    return Verdict(criterion="principle", verdict=AT_MOST_ONE, witness=witness)


def relators_in_third_series(
    pres: Presentation, params: SeriesParams, order_bound: int = DEFAULT_ORDER_BOUND
) -> Verdict:
    """S/R is not realizable when 1 != R <= S^(3,q) (R normal, S free)."""
    E = universal_class2(pres.rank, params, order_bound)
    images = E.generators()
    in_third = [evaluate_word(r, images, E).is_identity() for r in pres.relators]
    nontrivial = [not is_trivial_in_free(r) for r in pres.relators]
    if pres.relators and all(in_third) and any(nontrivial):
        return Verdict(
            criterion="relators-in-third-series",
            verdict=NOT_REALIZABLE,
            witness={
                "relators_in_third_series": len(pres.relators),
                "nontrivial_relators": int(sum(nontrivial)),
            },
        )
    reason = (
        "no relators"
        if not pres.relators
        else (
            "some relator falls outside the third series term"
            if not all(in_third)
            else "all relators are trivial in the free group"
        )
    )
    return Verdict(
        criterion="relators-in-third-series",
        verdict=NOT_APPLICABLE,
        witness={"reason": reason, "relator_in_third": in_third},
    )


def h1_vs_cd_check(dim_h1: int, cd: CdDescriptor, p: int, torsion_free: bool) -> Verdict:
    """dim H^1(G) < cd(G) excludes G; for p = 2 torsion-freeness is required."""
    inequality = (not cd.is_finite) or dim_h1 < cd.value
    applies = inequality and (p != 2 or torsion_free)
    witness = {
        "dim_h1": dim_h1,
        "cd": cd.to_record(),
        "p": p,
        "torsion_free": torsion_free,
    }
    if applies:
        return Verdict(criterion="h1-vs-cd", verdict=NOT_REALIZABLE, witness=witness)
    witness["reason"] = (
        "dim H^1 >= cd" if not inequality else "torsion-freeness not asserted for p = 2"
    )
    return Verdict(criterion="h1-vs-cd", verdict=NOT_APPLICABLE, witness=witness)


# ---------------------------------------------------------------------------
# wreath-type construction


@dataclass
class WreathSpec:
    """K^m x| L with L permuting the copies through the given images."""

    k_pres: Presentation
    k_cd: CdDescriptor
    k_top_cohomology_finite: bool
    l_pres: Presentation
    l_cd: CdDescriptor
    copies: int
    action: list[tuple[int, ...]]  # one permutation of 0..m-1 per L generator
    k_torsion_free: bool = True
    l_torsion_free: bool = True

    def __post_init__(self):
        m = self.copies
        if m < 1:
            raise ValueError("need at least one copy")
        if len(self.action) != self.l_pres.rank:
            raise ValueError("need one permutation per L generator")
        for perm in self.action:
            if sorted(perm) != list(range(m)):
                raise ValueError(f"{perm} is not a permutation of 0..{m - 1}")

    def is_transitive(self) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for perm in self.action:
                for y in (perm[x], perm.index(x)):
                    if y not in seen:
                        seen.add(y)
                        frontier.append(y)
        return len(seen) == self.copies


def permutation_closure(perms: list[tuple[int, ...]], m: int) -> list[tuple[int, ...]]:
    ident = tuple(range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        s = frontier.pop()
        for g in perms:
            t = tuple(s[g[i]] for i in range(m))
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return sorted(seen)


def _composition_table(P: list[tuple[int, ...]]) -> np.ndarray:
    """comp[i, j] = index in P of the permutation r -> P[i][P[j][r]].

    Raises ValueError unless P lists distinct permutations closed under
    composition.
    """
    perms = np.array(P, dtype=np.int64).reshape(len(P), -1)
    composed = perms[:, perms].reshape(-1, perms.shape[1])  # row i*|P|+j is P[i] o P[j]
    rows, inv = np.unique(np.vstack([perms, composed]), axis=0, return_inverse=True)
    if len(rows) != len(P):
        raise ValueError("permutation list has repeats or is not closed under composition")
    inv = inv.reshape(-1)
    where = np.empty(len(P), dtype=np.int64)
    where[inv[: len(P)]] = np.arange(len(P))
    return where[inv[len(P) :]].reshape(len(P), len(P))


def semidirect_power_table(
    base: FiniteGroupTable, m: int, perms: list[tuple[int, ...]]
) -> FiniteGroupTable:
    """(base)^m x| P for the permutation group P generated by ``perms``.

    Convention: (k, s)(k', s') = (k * s.k', s s') where (s.k')_i = k'_{s(i)}.
    Element (k, P[si]) has index kcode * |P| + si, where kcode is the
    little-endian base-|base| code of the tuple k.
    """
    P = permutation_closure(perms, m)
    pidx = {s: i for i, s in enumerate(P)}
    nb, npm = base.order, len(P)
    weights = nb ** np.arange(m, dtype=np.int64)
    digits = (np.arange(nb**m, dtype=np.int64)[:, None] // weights) % nb  # digits[kcode, r] = k_r
    # kprod[a, b]: code of the componentwise product of the tuples coded a and b
    kprod = sum(base.mult[np.ix_(digits[:, r], digits[:, r])] * weights[r] for r in range(m))
    # acted[si, kcode]: code of P[si].k, whose entry r is k_{P[si](r)}
    acted = (digits[:, np.array(P, dtype=np.int64).reshape(npm, m)] @ weights).T
    comp = _composition_table(P)
    # (a, P[si]) (b, P[ti]) = (kprod[a, acted[si, b]], P[comp[si, ti]]), axes (a, si, b, ti)
    mult = kprod[:, acted][:, :, :, None] * npm + comp[None, :, None, :]
    total = nb**m * npm
    ident = pidx[tuple(range(m))]
    ecode = base.identity * int(weights.sum())  # code of (e, ..., e)
    gens = [(ecode + (int(g) - base.identity)) * npm + ident for g in base.generators]
    gens += [ecode * npm + pidx[tuple(perm)] for perm in perms]
    return FiniteGroupTable(
        order=total,
        mult=mult.reshape(total, total),
        identity=ecode * npm + ident,
        generators=tuple(gens),
    )


def wreath_construct(spec: WreathSpec, p: int, sanity_bound: int = 4096) -> Verdict:
    """Evaluate the construction and run the dimension test.

    Reports dim H^1(G) = dim H^1(K) + dim H^1(L) (from second quotients),
    cd(G) = m cd(K) + cd(L) (formula, provenance recorded), the least copy
    count that trips the test, an explicit elementary abelian model of
    G^[2] of order p^(dim H^1), and, when the stand-in fits the bound, an
    independent table-level dim H^1 computed on (K^[2])^m x| P.
    """
    if not spec.is_transitive():
        raise QcwError("action images do not generate a transitive subgroup")
    if not spec.k_cd.is_finite or not spec.l_cd.is_finite:
        raise QcwError("both cd(K) and cd(L) must be finite")
    if not spec.k_top_cohomology_finite:
        raise QcwError("the top cohomology of K must be declared finite")
    m = spec.copies
    h_k = dim_h1_mod_p(spec.k_pres, p)
    h_l = dim_h1_mod_p(spec.l_pres, p)
    h = h_k + h_l
    cd_g = CdDescriptor(value=m * spec.k_cd.value + spec.l_cd.value, provenance="wreath-formula")
    torsion_free = spec.k_torsion_free and spec.l_torsion_free
    threshold = None
    for mm in range(1, 10 * (h + 2)):
        if h < mm * spec.k_cd.value + spec.l_cd.value:
            threshold = mm
            break
    inner = h1_vs_cd_check(h, cd_g, p, torsion_free)
    model = abelian_table([p] * h)
    witness = {
        "dim_h1": h,
        "dim_h1_parts": [h_k, h_l],
        "cd": cd_g.to_record(),
        "threshold_copies": threshold,
        "copies": m,
        "torsion_free": torsion_free,
        "second_quotient_model_order": model.order,
        "dimension_test": inner.witness,
    }
    k2table = second_quotient(spec.k_pres, SeriesParams(p=p, d=1))
    perms = [tuple(a) for a in spec.action]
    P = permutation_closure(perms, m)
    if k2table.order**m * len(P) <= sanity_bound:
        params = SeriesParams(p=p, d=1)
        W = semidirect_power_table(k2table, m, perms)
        step = series_step_oracle(W, set(range(W.order)), params)
        dim_w = round(math.log(W.order // len(step), p))
        ptable = permutation_group_table(P, perms)
        pstep = series_step_oracle(ptable, set(range(ptable.order)), params)
        dim_p = 0 if ptable.order == len(pstep) else round(
            math.log(ptable.order // len(pstep), p)
        )
        # the stand-in only sees the permutation image of L, so its H^1 is
        # h_k + dim H^1(image); that identity must always hold, while the
        # formula match additionally needs the action to preserve H^1 mod p
        witness["sanity"] = {
            "model_order": W.order,
            "dim_h1_table": dim_w,
            "action_image_h1": dim_p,
            "builder_consistent": dim_w == h_k + dim_p,
            "matches_formula": dim_w == h,
        }
    return Verdict(criterion="wreath", verdict=inner.verdict, witness=witness)


def permutation_group_table(P: list[tuple[int, ...]], gens: list[tuple[int, ...]]) -> FiniteGroupTable:
    """Multiplication table of a closed permutation list (s t)(r) = s[t[r]]."""
    pidx = {s: i for i, s in enumerate(P)}
    m = len(P[0]) if P else 0
    return FiniteGroupTable(
        order=len(P),
        mult=_composition_table(P),
        identity=pidx[tuple(range(m))],
        generators=tuple(pidx[g] for g in gens),
    )
