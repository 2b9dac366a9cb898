import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcw.errors import QcwError, SizeLimitError
from qcw.presentations import (
    Word,
    commutator,
    concat,
    free_presentation,
    inverse,
    parse_presentation,
    power,
)
from qcw.qcentral import (
    FiniteGroupTable,
    SeriesParams,
    evaluate_word,
    is_isomorphic,
    second_quotient,
    series_step_oracle,
    third_quotient,
    to_table,
    universal_class2,
    validate_table,
)
from qcw.realizability import (
    AT_MOST_ONE,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    NOT_REALIZABLE,
    CdDescriptor,
    WreathSpec,
    _threshold_copies,
    dim_h1_mod_p,
    h1_vs_cd_check,
    magnus_terms,
    permutation_closure,
    permutation_group_table,
    principle_check,
    relators_in_third_series,
    semidirect_power_table,
    weight3_lie_vector,
    wreath_construct,
)
from qcw.zqlinalg import QuotientModule
import front_oracle

P2 = SeriesParams(p=2, d=1)
CLASS2_TEXT = "group G { generators: x,y; relators: [x,[x,y]], [y,[x,y]]; }"


def x(i):
    return Word(((i, 1),))


def random_word(rng, n, maxruns=5):
    return Word(
        tuple((rng.randrange(n), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, maxruns)))
    )


# -- weight-3 Lie values -------------------------------------------------------


def test_weight3_values_of_basic_relators():
    pres = parse_presentation(CLASS2_TEXT)
    v1 = weight3_lie_vector(pres.relators[0], 2, 5)  # [x,[x,y]]
    v2 = weight3_lie_vector(pres.relators[1], 2, 5)  # [y,[x,y]]
    # Hall basis for n=2: [[x2,x1],x1], [[x2,x1],x2]
    assert v1 is not None and v2 is not None
    assert [int(a) % 5 != 0 for a in v1] == [True, False]
    assert [int(a) % 5 != 0 for a in v2] == [False, True]


def test_weight3_rejects_lower_weight():
    assert weight3_lie_vector(commutator(x(0), x(1)), 2, 2) is None
    assert weight3_lie_vector(Word(((0, 4),)), 2, 2) is None  # x^4 not in gamma_3
    assert weight3_lie_vector(x(0), 2, 2) is None


def test_weight3_word_times_inverse_is_trivial():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(40):
            w = random_word(rng, n)
            v = weight3_lie_vector(concat(w, inverse(w)), n, 3)
            assert v is not None and not v.any()


def test_weight3_jacobi_sum_vanishes():
    a, b, c = x(0), x(1), x(2)
    w = concat(
        commutator(commutator(a, b), c),
        commutator(commutator(b, c), a),
        commutator(commutator(c, a), b),
    )
    v = weight3_lie_vector(w, 3, 5)
    assert v is not None and not v.any()


def test_weight3_conjugation_invariance():
    rng = random.Random(9)
    r = parse_presentation(CLASS2_TEXT).relators[0]
    base = weight3_lie_vector(r, 2, 3)
    for _ in range(20):
        g = random_word(rng, 2)
        conj = concat(inverse(g), r, g)
        assert (weight3_lie_vector(conj, 2, 3) == base).all()


def test_weight3_consistent_with_class2_collection():
    # the degree <= 2 Magnus terms are the class-2 normal form: d1 = a mod q^2
    # and d2[j, i] = c_ij mod q for i < j
    rng = random.Random(17)
    for q in (2, 3, 4, 5, 8, 9):
        params = SeriesParams.from_q(q)
        for n in (1, 2, 3):
            E = universal_class2(n, params, order_bound=q ** (3 * n * n))  # never enumerated
            for _ in range(60):
                w = random_nested_word(rng, n, q)
                d1, d2, _ = magnus_terms(w, n)
                img = evaluate_word(w, E.generators(), E)
                assert tuple(int(v) % E.q2 for v in d1) == img.a
                assert tuple(int(d2[j, i]) % E.q for i, j in E.pairs) == img.c


# -- principle -----------------------------------------------------------------


def test_principle_free_vs_class2():
    free2 = free_presentation(2)
    pres = parse_presentation(CLASS2_TEXT)
    verdict = principle_check(free2, pres, 2)
    assert verdict.verdict == AT_MOST_ONE
    assert verdict.witness["invariant"] == "dim_h2"
    assert verdict.witness["values"] == [0, 2]
    assert verdict.witness["quotient_order"] == 32
    named = principle_check(free2, pres, 2, assert_realizable="first")
    assert named.witness["excluded"] == "second"


def test_principle_identical_presentations():
    pres = parse_presentation(CLASS2_TEXT)
    verdict = principle_check(pres, pres, 2)
    assert verdict.verdict == INCONCLUSIVE


def test_principle_nonisomorphic_quotients():
    verdict = principle_check(free_presentation(1), free_presentation(2), 2)
    assert verdict.verdict == INCONCLUSIVE
    assert verdict.witness["orders"] == [4, 32]


# -- corollary (relators in the third series term) -----------------------------


def test_relators_in_third_series_cases():
    v = relators_in_third_series(
        parse_presentation("group A { generators: x,y; relators: [x,[x,y]]; }"), P2
    )
    assert v.verdict == NOT_REALIZABLE
    v = relators_in_third_series(
        parse_presentation("group A { generators: x; relators: x^4; }"), P2
    )
    assert v.verdict == NOT_REALIZABLE
    v = relators_in_third_series(
        parse_presentation("group A { generators: x,y; relators: [x,y]; }"), P2
    )
    assert v.verdict == NOT_APPLICABLE
    v = relators_in_third_series(free_presentation(2), P2)
    assert v.verdict == NOT_APPLICABLE
    v = relators_in_third_series(
        parse_presentation("group A { generators: x; relators: x x^-1; }"), P2
    )
    assert v.verdict == NOT_APPLICABLE  # trivial relator: R = 1


def test_relators_in_third_series_honours_the_order_bound():
    # |E(2, 5)| = 3125: over the default bound, fine under a raised one
    pres = parse_presentation(CLASS2_TEXT)
    p5 = SeriesParams(p=5, d=1)
    with pytest.raises(SizeLimitError):
        relators_in_third_series(pres, p5)
    assert relators_in_third_series(pres, p5, order_bound=4096).verdict == NOT_REALIZABLE


def test_corollary_consistent_with_principle():
    # not-realizable by the corollary forces G^[3] isomorphic to the free one
    pres = parse_presentation(CLASS2_TEXT)
    assert relators_in_third_series(pres, P2).verdict == NOT_REALIZABLE
    t1 = to_table(third_quotient(pres, P2))
    t2 = to_table(third_quotient(free_presentation(2), P2))
    ok, _ = is_isomorphic(t1, t2)
    assert ok


# -- dimension test -------------------------------------------------------------


def test_h1_vs_cd_cases():
    assert (
        h1_vs_cd_check(2, CdDescriptor(value=3, provenance="user-supplied"), 2, True).verdict
        == NOT_REALIZABLE
    )
    assert h1_vs_cd_check(5, CdDescriptor.free(), 2, True).verdict == NOT_APPLICABLE
    assert (
        h1_vs_cd_check(2, CdDescriptor(value=3, provenance="user-supplied"), 2, False).verdict
        == NOT_APPLICABLE
    )
    assert (
        h1_vs_cd_check(2, CdDescriptor(value=3, provenance="user-supplied"), 3, False).verdict
        == NOT_REALIZABLE
    )
    assert (
        h1_vs_cd_check(7, CdDescriptor(value=None, provenance="user-supplied"), 3, False).verdict
        == NOT_REALIZABLE
    )


def test_h1_vs_cd_refuses_a_negative_dimension():
    with pytest.raises(ValueError, match="dim H\\^1 must be nonnegative, not -1"):
        h1_vs_cd_check(-1, CdDescriptor(value=2, provenance="user-supplied"), 2, True)
    assert h1_vs_cd_check(0, CdDescriptor(value=2, provenance="user-supplied"), 2, True).verdict == NOT_REALIZABLE


# -- wreath construction ---------------------------------------------------------


def swap_spec(m: int, copies_action=None) -> WreathSpec:
    action = copies_action or [tuple(range(1, m)) + (0,)]  # cyclic shift
    return WreathSpec(
        k_pres=free_presentation(1),
        k_cd=CdDescriptor.free(),
        k_top_cohomology_finite=True,
        l_pres=free_presentation(1),
        l_cd=CdDescriptor.free(),
        copies=m,
        action=action,
    )


def test_wreath_two_copies_swap():
    verdict = wreath_construct(swap_spec(2, [(1, 0)]), 2)
    assert verdict.verdict == NOT_REALIZABLE
    w = verdict.witness
    assert w["dim_h1"] == 2 and w["dim_h1_parts"] == [1, 1]
    assert w["cd"]["value"] == 3 and w["cd"]["provenance"] == "wreath-formula"
    assert w["torsion_free"] is True
    assert w["sanity"]["matches_formula"]
    assert w["second_quotient_model_order"] == 4


def test_wreath_single_copy_not_applicable():
    verdict = wreath_construct(swap_spec(1, [(0,)]), 2)
    assert verdict.verdict == NOT_APPLICABLE
    assert verdict.witness["cd"]["value"] == 2


def test_wreath_rank2_base_needs_four_copies():
    # K free of rank 2 (cd 1), L = Z_p: dim H^1 = 3, so m copies give
    # cd = m + 1 and the test needs m >= 3; the least p-power is 4
    def spec(m, action):
        return WreathSpec(
            k_pres=free_presentation(2),
            k_cd=CdDescriptor.free(),
            k_top_cohomology_finite=True,
            l_pres=free_presentation(1),
            l_cd=CdDescriptor.free(),
            copies=m,
            action=action,
        )

    v2 = wreath_construct(spec(2, [(1, 0)]), 2)
    assert v2.verdict == NOT_APPLICABLE  # dim H^1 = 3 = cd
    v4 = wreath_construct(spec(4, [(1, 2, 3, 0)]), 2)
    assert v4.verdict == NOT_REALIZABLE
    assert v4.witness["dim_h1"] == 3
    assert v4.witness["cd"]["value"] == 5
    assert v4.witness["threshold_copies"] == 3


def former_threshold(h, cd_k, cd_l):
    """The former search for the least copy count that trips the dimension test."""
    for mm in range(1, 10 * (h + 2)):
        if h < mm * cd_k + cd_l:
            return mm
    return None


def test_threshold_copies_closed_form_matches_the_former_loop():
    for h, cd_k, cd_l in itertools.product(range(13), repeat=3):
        assert _threshold_copies(h, cd_k, cd_l) == former_threshold(h, cd_k, cd_l), (h, cd_k, cd_l)


def test_wreath_monotone_in_copies():
    verdicts = []
    for m in range(1, 6):
        action = [tuple(range(1, m)) + (0,)]
        verdicts.append(wreath_construct(swap_spec(m, action), 2).verdict)
    seen_positive = False
    for v in verdicts:
        if v == NOT_REALIZABLE:
            seen_positive = True
        if seen_positive:
            assert v == NOT_REALIZABLE


def test_wreath_torsion_flag_gates_p2():
    spec = swap_spec(2, [(1, 0)])
    spec.k_torsion_free = False
    verdict = wreath_construct(spec, 2)
    assert verdict.verdict == NOT_APPLICABLE


def test_wreath_intransitive_action_rejected():
    with pytest.raises(QcwError):
        wreath_construct(swap_spec(2, [(0, 1)]), 2)


def test_semidirect_table_is_a_group():
    from qcw.qcentral import abelian_table

    W = semidirect_power_table(abelian_table([2]), 2, [(1, 0)])
    validate_table(W)
    assert W.order == 8
    assert not W.is_abelian()  # dihedral of order 8
    step = series_step_oracle(W, set(range(W.order)), P2)
    assert W.order // len(step) == 4  # (Z/2)^2 mod-2 abelianization


@pytest.mark.parametrize("perms", [[(1, 0, 2), (1, 2, 0)], [(1, 0, 2), (0, 2, 1)]])
def test_semidirect_table_is_a_group_for_nonabelian_p(perms):
    # S3 acting on three copies of free2^[2]: P is not abelian, so the
    # product on P must be s' o s for (s.k')_i = k'_{s(i)} to act on the left
    base = second_quotient(free_presentation(2), P2)
    W = semidirect_power_table(base, 3, perms)
    assert W.order == 384
    validate_table(W)
    assert not W.is_abelian()


def reference_semidirect_power_table(base, m, perms, rows=None):
    """The former double loop behind ``semidirect_power_table``.

    Returns (order, identity, generators, mult) where mult holds only the
    table rows listed in ``rows``, in that order (all rows when None).
    """
    P = permutation_closure(perms, m)
    pidx = {s: i for i, s in enumerate(P)}
    nb = base.order
    ktuples = []
    for code in range(nb**m):
        k, cc = [], code
        for _ in range(m):
            cc, digit = divmod(cc, nb)
            k.append(digit)
        ktuples.append(tuple(k))
    index = {}
    flat = []
    for k in ktuples:
        for si in range(len(P)):
            index[(k, si)] = len(flat)
            flat.append((k, si))
    total = len(flat)
    rows = range(total) if rows is None else rows
    mult = np.zeros((len(rows), total), dtype=np.int64)
    for out, i in enumerate(rows):
        k, si = flat[i]
        s = P[si]
        for j, (k2, ti) in enumerate(flat):
            acted = tuple(k2[s[r]] for r in range(m))
            prod_k = tuple(int(base.mult[a, b]) for a, b in zip(k, acted))
            t = P[ti]
            prod_s = tuple(t[s[r]] for r in range(m))  # t o s: s acts first
            mult[out, j] = index[(prod_k, pidx[prod_s])]
    identity = index[(tuple([base.identity] * m), pidx[tuple(range(m))])]
    gens = []
    for g in base.generators:
        k = [base.identity] * m
        k[0] = int(g)
        gens.append(index[(tuple(k), pidx[tuple(range(m))])])
    for perm in perms:
        gens.append(index[(tuple([base.identity] * m), pidx[tuple(perm)])])
    return total, identity, tuple(gens), mult


def reference_permutation_group_table(P, gens):
    """The former double loop behind ``permutation_group_table``."""
    pidx = {s: i for i, s in enumerate(P)}
    m = len(P[0]) if P else 0
    mult = np.zeros((len(P), len(P)), dtype=np.int64)
    for i, s in enumerate(P):
        for j, t in enumerate(P):
            mult[i, j] = pidx[tuple(s[t[r]] for r in range(m))]
    return FiniteGroupTable(
        order=len(P),
        mult=mult,
        identity=pidx[tuple(range(m))],
        generators=tuple(pidx[g] for g in gens),
    )


def cyclic_action(m):
    return [tuple((r + 1) % m for r in range(m))]


def s3_action(m):
    # S3 on the first three copies, the others fixed
    rest = tuple(range(3, m))
    return [(1, 0, 2) + rest, (0, 2, 1) + rest]


# p = 3 with m = 4 is left out: its table has 9^4 * 4 = 26244 elements
# (5.5 GB of int64)
SEMIDIRECT_CASES = [
    (2, 2, cyclic_action(2)),
    (2, 3, cyclic_action(3)),
    (2, 4, cyclic_action(4)),
    (2, 3, s3_action(3)),
    (2, 4, s3_action(4)),
    (3, 2, cyclic_action(2)),
    (3, 3, cyclic_action(3)),
    (3, 3, s3_action(3)),
]


def assert_semidirect_matches_reference(base, m, perms):
    W = semidirect_power_table(base, m, perms)
    # the loop oracle costs |W| steps per row: compare every row of the small
    # tables and a random sample of rows of the large ones
    rows = list(range(W.order))
    if W.order > 400:
        rng = random.Random(W.order)
        rows = sorted(set(rng.sample(rows, 40)) | {0, W.identity, W.order - 1})
    order, identity, generators, mult = reference_semidirect_power_table(base, m, perms, rows)
    assert (W.order, W.identity, W.generators) == (order, identity, generators)
    assert W.mult.dtype == mult.dtype and W.mult.shape == (order, order)
    assert (W.mult[rows] == mult).all()


def test_semidirect_table_is_not_copied():
    # the order-1024 table of the wreath check free2, free1, 4 copies: the
    # products go straight into the table's C-order buffer, so the table is
    # built once and never copied by a reshape
    base = second_quotient(free_presentation(2), P2)
    tracemalloc.start()
    try:
        W = semidirect_power_table(base, 4, cyclic_action(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.mult.nbytes == 8 * 1024 * 1024
    assert peak < 1.5 * W.mult.nbytes


@pytest.mark.parametrize("p,m,perms", SEMIDIRECT_CASES)
def test_semidirect_table_matches_reference(p, m, perms):
    base = second_quotient(free_presentation(2), SeriesParams(p=p, d=1))  # K^[2] of free2
    assert_semidirect_matches_reference(base, m, perms)


@pytest.mark.parametrize("m,perms", [(2, cyclic_action(2)), (3, s3_action(3))])
def test_semidirect_table_matches_reference_on_relabelled_q8(quaternion_table, m, perms):
    # a nonabelian base whose identity is not element 0
    q8 = quaternion_table
    relabel = q8.order - 1 - np.arange(q8.order)  # an involution of the labels
    base = FiniteGroupTable(
        order=q8.order,
        mult=relabel[q8.mult][np.ix_(relabel, relabel)],
        identity=int(relabel[q8.identity]),
        generators=tuple(int(relabel[g]) for g in q8.generators),
    )
    assert_semidirect_matches_reference(base, m, perms)


@pytest.mark.parametrize(
    "m,perms",
    [(m, perms) for _, m, perms in SEMIDIRECT_CASES] + [(4, [(1, 0, 2, 3), (1, 2, 3, 0)])],
)
def test_permutation_group_table_matches_reference(m, perms):
    P = permutation_closure(perms, m)
    got = permutation_group_table(P, perms)
    want = reference_permutation_group_table(P, perms)
    assert (got.order, got.identity, got.generators) == (want.order, want.identity, want.generators)
    assert got.mult.dtype == want.mult.dtype and (got.mult == want.mult).all()
    # the table must not depend on P being sorted
    backwards = P[::-1]
    got, want = permutation_group_table(backwards, perms), reference_permutation_group_table(backwards, perms)
    assert (got.mult == want.mult).all()


def test_permutation_group_table_rejects_unclosed_list():
    with pytest.raises(ValueError):
        permutation_group_table([(0, 1, 2), (1, 2, 0)], [])


def test_dim_h1_mod_p():
    assert dim_h1_mod_p(free_presentation(3), 2) == 3
    assert dim_h1_mod_p(parse_presentation("group A { generators: x; relators: x^2; }"), 2) == 1
    assert dim_h1_mod_p(parse_presentation("group A { generators: x; relators: x; }"), 2) == 0


def test_dim_h1_mod_p_builds_no_table(monkeypatch):
    import qcw.qcentral

    def no_table(invariants):
        raise AssertionError("abelian_table called")

    monkeypatch.setattr(qcw.qcentral, "abelian_table", no_table)
    assert dim_h1_mod_p(free_presentation(40), 2) == 40  # 2^40: far over any table bound
    assert dim_h1_mod_p(parse_presentation(CLASS2_TEXT), 3) == 2
    assert dim_h1_mod_p(parse_presentation("group A { generators: x,y; relators: x^3 y; }"), 3) == 1
    spec = swap_spec(2, [(1, 0)])
    spec.k_pres = free_presentation(10)  # the stand-in is over the sanity bound
    w = wreath_construct(spec, 2).witness
    assert w["second_quotient_model_order"] == 2**11 and "sanity" not in w


def test_collector_triples_are_hall_basis():
    from qcw.lie import hall_basis

    for n in range(1, 5):
        col = _Class3Collector(n)
        assert col.triples == [e.tree for e in hall_basis(n, 3)]


# -- the former class-3 collector, kept as the oracle for magnus_terms --------
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


def reference_weight3_lie_vector(w: Word, n: int, p: int) -> np.ndarray | None:
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


def random_nested_word(rng, n, q, depth=2):
    """A run, a product, a power or a (nested) commutator of random words.

    Exponents are drawn from +-1, +-2, +-q and +-(q^2 + 1).
    """
    exps = [1, 2, q, q * q + 1]
    kind = rng.randrange(4) if depth else 0
    if kind == 0:
        return Word(((rng.randrange(n), rng.choice(exps) * rng.choice([-1, 1])),))
    a = random_nested_word(rng, n, q, depth - 1)
    if kind == 1:
        return concat(a, random_nested_word(rng, n, q, depth - 1))
    if kind == 2:
        return power(a, rng.choice([-2, -1, 2]))
    return commutator(a, random_nested_word(rng, n, q, depth - 1))


def random_gamma3_word(rng, n, q):
    """A product of (conjugated) commutators [[a, b], c] of random words,
    sometimes times a random word (which usually leaves gamma_3).

    a, b and c are mostly short products of runs, whose images in the
    abelianization are rarely zero mod p, so most Lie values are nonzero.
    """

    def factor():
        if rng.random() < 0.2:
            return random_nested_word(rng, n, q, 1)
        return concat(*(random_nested_word(rng, n, q, 0) for _ in range(rng.randint(1, 3))))

    parts = []
    for _ in range(rng.randint(1, 2)):
        c = commutator(commutator(factor(), factor()), factor())
        if rng.random() < 0.3:
            g = random_nested_word(rng, n, q, 0)
            c = concat(inverse(g), c, g)
        parts.append(c)
    if rng.random() < 0.25:
        parts.append(random_nested_word(rng, n, q, 1))
    return concat(*parts)


def test_weight3_matches_the_class3_collector():
    rng = random.Random(2024)
    checked = inside = nonzero = 0
    while checked < 2000:
        n, p = rng.choice([1, 2, 3, 3, 4, 4]), rng.choice([2, 3, 5])
        w = random_gamma3_word(rng, n, p) if rng.random() < 0.8 else random_nested_word(rng, n, p)
        if len(w) > 200:  # the collector takes one step per letter
            continue
        want = reference_weight3_lie_vector(w, n, p)
        got = weight3_lie_vector(w, n, p)
        if want is None:
            assert got is None, w
        else:
            assert got is not None and got.dtype == want.dtype and (got == want).all(), w
            inside += 1
            nonzero += bool(want.any())
        checked += 1
    assert inside > 1000 and nonzero > 300


def test_weight3_is_exact_for_huge_exponents():
    # [[x^N, y], z] = N [[x, y], z] in gamma_3/gamma_4; C(N, 3) overflows int64
    N = 10**9 + 7
    a, b, c = x(0), x(1), x(2)
    for p in (2, 3, 5, 7):
        big = weight3_lie_vector(commutator(commutator(Word(((0, N),)), b), c), 3, p)
        unit = weight3_lie_vector(commutator(commutator(a, b), c), 3, p)
        assert big is not None and unit is not None and unit.any()
        assert (big == (N * unit) % p).all()
    d1, d2, d3 = magnus_terms(Word(((0, -N),)), 1)
    assert (d1[0], d2[0, 0], d3[0, 0, 0]) == (-N, N * (N + 1) // 2, -N * (N + 1) * (N + 2) // 6)


BIG = 10**9 + 7


def _assert_same_terms(w: Word, n: int) -> None:
    for got, want in zip(magnus_terms(w, n), front_oracle.magnus_terms(w, n)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert [type(v) for v in got.flat] == [type(v) for v in want.flat]
        assert got.tolist() == want.tolist()


@st.composite
def _magnus_words(draw):
    n = draw(st.integers(1, 4))
    exponent = st.integers(-9, 9) | st.sampled_from([BIG, -BIG]) | st.integers(-(2**70), 2**70)
    runs = st.lists(st.tuples(st.integers(0, n - 1), exponent), max_size=10)
    return Word(tuple(draw(runs))), n


@settings(max_examples=500, deadline=None)
@given(_magnus_words())
def test_magnus_terms_match_the_object_array_recurrence(case):
    # zero exponents and repeated generators are drawn as they come: Word
    # keeps its runs as given
    _assert_same_terms(*case)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_magnus_terms_of_the_empty_word_and_huge_runs(n):
    _assert_same_terms(Word(()), n)
    if n:
        _assert_same_terms(Word(tuple((i, (-1) ** i * BIG) for i in range(n)) + ((0, 0), (n - 1, -BIG))), n)


def test_hall_matrix_is_injective_mod_p():
    from qcw.lie import witt_rank
    from qcw.realizability import _hall_matrix

    for n in range(1, 6):
        for p in (2, 3, 5):
            H = _hall_matrix(n)
            assert QuotientModule(H.T, [], n**3, p).rank == witt_rank(n, 3)
