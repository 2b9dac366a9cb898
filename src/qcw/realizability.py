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
produced by the recorded formulas, with provenance attached.  dim H^2 is
counted on two families only: free presentations, and presentations of
S / [S, [S, S]], recognised from the relators' weight-3 Lie values.  A
relator lies in gamma_3 iff its class-2 image (a, c)
(``Presentation.class2_images``) is 0, and only then is its truncated
Magnus expansion (``magnus_terms``) computed, for the degree-3 term.
Every criterion reads a relator through that image: it lies in the third
series term iff (a, c) is 0 mod (p^2, p), and dim H^1 is the number of
cyclic factors of G^[2, p], the cokernel of the rows a mod p, found with
no table.  The wreath construction builds its stand-in only when its
order, p^(m dim H^1(K)) |P|, is within the sanity bound.

The stand-in W = (K^[2])^m x| P is built as its generator columns
(``semidirect_power_action``), and its dim H^1 is that of
``GroupCohomology(W, p).h1_space()``.  Lemma: for every finite group W,
Hom(W, Z/p) has dimension log_p |W / W^p [W, W]|.  A homomorphism to the
abelian group Z/p of exponent p kills W^p [W, W], so Hom(W, Z/p) =
Hom(W / W^p [W, W], Z/p), and that quotient is elementary abelian of order
p^d, with a dual of dimension d.  W^p [W, W] is the series step that
``series_step_oracle`` reads off the table, so the witness is the one the
table gave, whether or not P is a p-group.

The pairing principle compares G1 = E(n1, p)/N1 and G2 = E(n2, p)/N2.  It
decides two cases on the reduced forms of ``qcentral.ClassTwoGroup`` and
builds the two coset tables for ``is_isomorphic`` only in the others:

* The orders differ.  ``is_isomorphic`` then fails its identical-table
  shortcut, which needs equal orders, and returns "not isomorphic" at the
  first entry of its fingerprint, the order; the reduced forms number the
  elements, so their orders are the tables'.
* The kernels agree: n1 = n2, equal orders, and N1 contains every element
  of G2's kernel basis.  That basis generates N2, so N2 <= N1, and
  |N1| = |E| / |G1| = |N2|, so N1 = N2.  A coset table is a function of N
  alone: an element's code is that of the least (a, c) of its coset, in
  radices read off Howell forms, which are unique for the module.  So the
  tables are identical, ``is_isomorphic`` returns at its identical-table
  shortcut, and its witness is the codes of the x_i.

Both routes run ``third_quotient`` on the two sides first, in the same
order, and it refuses |E(n, p)| over the order bound.  |G| <= |E|, so
``to_table``'s own bound cannot fire after it, and both routes raise the
same ``SizeLimitError``.

Once the third quotients are isomorphic, the principle can tell the two
groups apart only on dim H^2.  Lemma: G^[3, p] determines dim H^1(G).
G^(2, p) / G^(3, p) is the second term of the p-central series of
G^[3, p], a verbal subgroup, so an isomorphism of the third quotients
maps it onto its counterpart and induces an isomorphism of the quotients
by it, the G^[2, p].  And dim H^1(G) = log_p |G^[2, p]| (``dim_h1_mod_p``).
So dim H^1 is read only for the witness of an inconclusive verdict.

Verdict records are {criterion, verdict, witness} with verdict one of
"not-realizable", "at-most-one-realizable", "criterion-not-applicable",
"inconclusive".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohom import GroupCohomology
from .errors import QcwError
from .lie import hall_basis, witt_rank
from .presentations import Presentation, Word, _class2_image, is_trivial_in_free, magnus_terms
from .qcentral import (
    DEFAULT_ORDER_BOUND,
    FiniteGroupTable,
    GeneratorAction,
    SeriesParams,
    _second_quotient_invariants,
    is_isomorphic,
    second_quotient,
    series_step_oracle,
    third_quotient,
    to_table,
    universal_class2,
)
from .zqlinalg import QuotientModule, solve_mod, sorted_unique

__all__ = [
    "CdDescriptor",
    "WreathSpec",
    "Verdict",
    "principle_check",
    "relators_in_third_series",
    "h1_vs_cd_check",
    "wreath_construct",
    "dim_h1_mod_p",
    "magnus_terms",
    "weight3_lie_vector",
    "semidirect_power_table",
    "semidirect_power_action",
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
    """dim_{F_p} H^1 of the presented pro-p group (mod-p abelianization rank).

    This is the number of cyclic factors of G^[2, p], all of order p.
    """
    return len(_second_quotient_invariants(pres, SeriesParams(p=p, d=1), order_bound=None))


# ---------------------------------------------------------------------------
# weight-3 Lie values via the truncated Magnus expansion
#
# For w in gamma_3 the degree-3 term of ``magnus_terms`` is the image of w
# in gamma_3/gamma_4, a Lie element: [[x_j, x_i], x_k] has degree-3 term
# [[X_j, X_i], X_k], since [a, b] - 1 = a^-1 b^-1 (ab - ba).


def _hall_matrix(n: int) -> np.ndarray:
    """Flattened degree-3 Magnus terms of the Hall basis, one column each.

    [[X_j, X_i], X_k] = X_j X_i X_k - X_i X_j X_k - X_k X_j X_i + X_k X_i X_j.
    """
    basis = hall_basis(n, 3)
    H = np.zeros((n, n, n, len(basis)), dtype=np.int64)
    for col, entry in enumerate(basis):
        (j, i), k = entry.tree
        H[j, i, k, col] += 1
        H[i, j, k, col] -= 1
        H[k, j, i, col] -= 1
        H[k, i, j, col] += 1
    return H.reshape(n**3, len(basis))


def _weight3_term(w: Word, image, n: int, p: int) -> np.ndarray | None:
    """The degree-3 Magnus term mod p, flattened, or None if w is not in gamma_3.

    w lies in gamma_3 iff its class-2 image ``image`` = (a, c) is 0, so the
    Magnus terms are expanded only for a word in gamma_3, for their d3.
    """
    a, c = image
    if any(a) or any(c):
        return None
    return (magnus_terms(w, n)[2].reshape(-1) % p).astype(np.int64)


def weight3_lie_vector(w: Word, n: int, p: int) -> np.ndarray | None:
    """Weight-3 Lie value mod p of a word, or None if not in gamma_3.

    The image of w in gamma_3/gamma_4 (x) F_p, as coordinates over the Hall
    basis ``hall_basis(n, 3)``: the solution of one linear system whose
    columns are the Hall commutators' degree-3 Magnus terms.  The solution
    is unique because the free Lie ring embeds in the tensor algebra also
    mod p.
    """
    term = _weight3_term(w, _class2_image(w, n), n, p)
    if term is None:
        return None
    coords = solve_mod(_hall_matrix(n), term, p)
    if coords is None:
        raise QcwError("internal error: degree-3 Magnus term is not a Lie element")
    return coords


def _h2_count(pres: Presentation, p: int) -> int | None:
    """dim H^2 of the presented pro-p group, on the countable families.

    0 for a free presentation (every relator trivial in the free group S),
    and witt_rank(n, 3) when the relators normally generate [S, [S, S]]:
    every relator lies in gamma_3 and the weight-3 Lie values span the full
    weight-3 component mod p.  The Lie embedding is injective mod p, so the
    span is measured on the degree-3 Magnus terms directly.  None otherwise
    (H^2 is then not counted for this presentation).

    A presentation that reaches the span has a relator, and has rank n >= 2,
    so witt_rank(n, 3) = (n^3 - n) / 3 > 0: at rank 0 every word is trivial,
    and at rank 1 a relator nontrivial in S = <x> is x^k with k != 0, whose
    exponent sum is nonzero, so it lies outside gamma_3.
    """
    if all(is_trivial_in_free(r) for r in pres.relators):
        return 0
    terms = []
    for r, image in zip(pres.relators, pres.class2_images):
        term = _weight3_term(r, image, pres.rank, p)
        if term is None:
            return None
        terms.append(term)
    target = witt_rank(pres.rank, 3)
    return target if QuotientModule(terms, [], pres.rank**3, p).rank == target else None


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

    The third quotients are compared on their reduced forms when the
    orders differ or the kernels agree, and by ``is_isomorphic`` on their
    tables otherwise (module docstring).  Isomorphic third quotients have
    equal dim H^1 (module docstring), so the groups are told apart on
    dim H^2 alone, counted only on families where the relation rank is
    countable (free presentations; the free-class-2 family via the Witt
    numbers).  ``assert_realizable`` in {"first", "second"}
    declares one side realizable, and the verdict then names the other.
    """
    params = SeriesParams(p=p, d=1)
    g1 = third_quotient(pres1, params, order_bound)
    g2 = third_quotient(pres2, params, order_bound)
    # the two cases that the reduced forms decide (module docstring)
    if g1.order != g2.order:
        iso, witness_map = False, None
    elif g1.n == g2.n and all(g1.contains_in_kernel(k) for k in g2.kernel_basis):
        n = g1.n
        gens = g1.encode(np.eye(n, dtype=np.int64), np.zeros((n, len(g1.pairs)), dtype=np.int64))
        iso, witness_map = True, [int(x) for x in gens]
    else:
        iso, witness_map = is_isomorphic(to_table(g1, order_bound), to_table(g2, order_bound))
    if not iso:
        return Verdict(
            criterion="principle",
            verdict=INCONCLUSIVE,
            witness={
                "reason": "third quotients are not isomorphic",
                "orders": [g1.order, g2.order],
            },
        )
    h2_1, h2_2 = _h2_count(pres1, p), _h2_count(pres2, p)
    if h2_1 is None or h2_2 is None or h2_1 == h2_2:
        return Verdict(
            criterion="principle",
            verdict=INCONCLUSIVE,
            witness={
                "reason": "no distinguishing cohomology invariant found",
                "dim_h1": [dim_h1_mod_p(pres1, p), dim_h1_mod_p(pres2, p)],
                "dim_h2": [h2_1, h2_2],
            },
        )
    witness = {
        "quotient_order": g1.order,
        "generator_images": witness_map,
        "invariant": "dim_h2",
        "values": [h2_1, h2_2],
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
    in_third = [E.element(a, c).is_identity() for a, c in pres.class2_images]
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
    if dim_h1 < 0:
        raise ValueError(f"dim H^1 must be nonnegative, not {dim_h1}")
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
    rows, inv = sorted_unique(np.vstack([perms, composed]), return_inverse=True)
    if len(rows) != len(P):
        raise ValueError("permutation list has repeats or is not closed under composition")
    where = np.empty(len(P), dtype=np.int64)
    where[inv[: len(P)]] = np.arange(len(P))
    return where[inv[len(P) :]].reshape(len(P), len(P))


def semidirect_power_table(
    base: FiniteGroupTable, m: int, perms: list[tuple[int, ...]]
) -> FiniteGroupTable:
    """(base)^m x| P for the permutation group P generated by ``perms``.

    Convention: (k, s)(k', s') = (k * s.k', s' o s) where (s.k')_i = k'_{s(i)}.
    Since (s.(s'.k))_i = k_{s'(s(i))}, this is a left action of P with the
    product s s' = s' o s (apply s first), so the table is associative for
    every P; for abelian P the product is the composition either way.
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
    # (a, P[si]) (b, P[ti]) = (kprod[a, acted[si, b]], P[comp[ti, si]]), axes (a, si, b, ti),
    # written into one C-order array so that the square table below is a view of it
    kpart = kprod[:, acted]
    kpart *= npm
    mult = np.empty((nb**m, npm, nb**m, npm), dtype=np.int64)
    np.add(kpart[:, :, :, None], comp.T[None, :, None, :], out=mult)
    total = nb**m * npm
    identity, gens = _semidirect_generators(base, m, perms, pidx)
    return FiniteGroupTable(
        order=total, mult=mult.reshape(total, total), identity=identity, generators=gens
    )


def _semidirect_generators(
    base: GeneratorAction, m: int, perms: list[tuple[int, ...]], pidx: dict
) -> tuple[int, tuple[int, ...]]:
    """The identity of (base)^m x| P and its listed generators: those of
    base in copy 0, then ``perms``; ``pidx`` numbers P."""
    npm, ident = len(pidx), pidx[tuple(range(m))]
    ecode = base.identity * sum(base.order**r for r in range(m))  # code of (e, ..., e)
    gens = [(ecode + (int(g) - base.identity)) * npm + ident for g in base.generators]
    gens += [ecode * npm + pidx[tuple(perm)] for perm in perms]
    return ecode * npm + ident, tuple(gens)


def semidirect_power_action(
    base: GeneratorAction, m: int, perms: list[tuple[int, ...]]
) -> GeneratorAction:
    """The generator columns of ``semidirect_power_table(base, m, perms)``,
    without the table.

    By its product rule, (k, s) (b, 1) with b = (y, e, ..., e) changes k
    only in the copy r with s(r) = 0, to k_r y, and (k, s) (e, t) is
    (k, t o s).  Only ``base.columns`` is read.
    """
    P = permutation_closure(perms, m)
    pidx = {s: i for i, s in enumerate(P)}
    nb, npm = base.order, len(P)
    weights = nb ** np.arange(m, dtype=np.int64)
    comp = _composition_table(P)
    kcode, si = np.divmod(np.arange(nb**m * npm, dtype=np.int64), npm)
    # the copy r that P[si] sends to 0, its weight and the digit k_r there
    slot = np.argmax(np.array(P, dtype=np.int64).reshape(npm, m) == 0, axis=1)[si]
    weight = weights[slot]
    digit = kcode // weight % nb
    columns = [(kcode + (y - digit) * weight) * npm + si for y in base.columns[digit].T]
    columns += [kcode * npm + comp[pidx[tuple(perm)], si] for perm in perms]
    identity, gens = _semidirect_generators(base, m, perms, pidx)
    return GeneratorAction(
        order=len(kcode),
        identity=identity,
        generators=gens,
        columns=np.array(columns, dtype=np.int64).reshape(len(gens), len(kcode)).T,
    )


def _threshold_copies(h: int, cd_k: int, cd_l: int) -> int | None:
    """The least m >= 1 with h < m cd_k + cd_l, or None if there is none.

    For cd_k > 0 it is the least m >= 1 above (h - cd_l) / cd_k; for
    cd_k = 0 the inequality does not depend on m.
    """
    if cd_k:
        return max(1, (h - cd_l) // cd_k + 1)
    return 1 if h < cd_l else None


def wreath_construct(spec: WreathSpec, p: int, sanity_bound: int = 4096) -> Verdict:
    """Evaluate the construction and run the dimension test.

    Reports dim H^1(G) = dim H^1(K) + dim H^1(L) (from second quotients),
    cd(G) = m cd(K) + cd(L) (formula, provenance recorded), the least copy
    count that trips the test, the order p^(dim H^1) of G^[2] (elementary
    abelian), and, when the stand-in fits the bound, an independent
    group-level dim H^1 computed on W = (K^[2])^m x| P.  That sanity check
    stays independent of the formula: dim Hom(W, Z/p) is solved on the
    generator columns of W (``semidirect_power_action``, module
    docstring), and the image of L is read off the table of P by
    ``series_step_oracle``, as the normal closure of the h^p and the
    [h, x] over its listed generators.
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
    inner = h1_vs_cd_check(h, cd_g, p, torsion_free)
    witness = {
        "dim_h1": h,
        "dim_h1_parts": [h_k, h_l],
        "cd": cd_g.to_record(),
        "threshold_copies": _threshold_copies(h, spec.k_cd.value, spec.l_cd.value),
        "copies": m,
        "torsion_free": torsion_free,
        "second_quotient_model_order": p**h,
        "dimension_test": inner.witness,
    }
    perms = [tuple(a) for a in spec.action]
    base_order = p ** (h_k * m)  # |K^[2]|^m, known before the stand-in is built
    P = permutation_closure(perms, m) if base_order <= sanity_bound else None
    if P is not None and base_order * len(P) <= sanity_bound:
        params = SeriesParams(p=p, d=1)
        W = semidirect_power_action(second_quotient(spec.k_pres, params), m, perms)
        dim_w = GroupCohomology(W, p).h1_space().dimension
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
