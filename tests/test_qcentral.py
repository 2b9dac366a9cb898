import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcw import qcentral
from qcw.cohom import relator_pairing
from qcw.errors import DimensionMismatchError, NotAHomomorphismError, QcwError, SizeLimitError
from qcw.presentations import Presentation, Word, free_presentation, parse_file, parse_presentation
from qcw.qcentral import (
    ClassTwoElement,
    ClassTwoGroup,
    FiniteGroupTable,
    SeriesParams,
    _KernelForm,
    _build_hom,
    _collect_batch,
    _power_batch,
    _quotient_exponent,
    abelian_table,
    cyclic_table,
    direct_product_table,
    evaluate_word,
    group_record,
    induced_quotient_map,
    is_isomorphic,
    quotient_table,
    relator_order,
    second_quotient,
    second_quotient_record,
    series_step_oracle,
    third_quotient,
    third_quotient_relators,
    to_table,
    trivial_table,
    universal_class2,
    table_record,
    validate_table,
)
from qcw.realizability import semidirect_power_table
import front_oracle

P2 = SeriesParams(p=2, d=1)
P3 = SeriesParams(p=3, d=1)
P4 = SeriesParams(p=2, d=2)

CLASS2_TEXT = "group G { generators: x,y; relators: [x,[x,y]], [y,[x,y]]; }"
DEMUSHKIN3 = "group D { generators: s,t; relators: s t s^-1 t^-3; }"


def test_series_params():
    assert SeriesParams.from_q(4) == SeriesParams(p=2, d=2)
    with pytest.raises(ValueError):
        SeriesParams(p=4, d=1)
    with pytest.raises(ValueError):
        SeriesParams(p=2, d=0)


def test_universal_class2_orders():
    assert universal_class2(0, P2).order == 1
    assert universal_class2(1, P2).order == 4
    assert universal_class2(2, P2).order == 32
    assert universal_class2(1, P3).order == 9
    with pytest.raises(SizeLimitError):
        universal_class2(4, P2)  # 2^11 = 2048 > 512


def test_e12_is_cyclic_of_order_four():
    t = to_table(universal_class2(1, P2))
    validate_table(t)
    ok, _ = is_isomorphic(t, cyclic_table(4))
    assert ok


def test_e22_structure():
    E = universal_class2(2, P2)
    t = to_table(E)
    validate_table(t)
    assert t.order == 32
    assert t.nilpotency_class() == 2
    assert t.exponent() == 4
    # center = {a in (2Z/4)^2, c arbitrary}, order 8
    assert t.center_size() == 8
    assert t.abelian_invariants() == [4, 4]


def test_regular_permutation_representation():
    # the rows of the table are permutations and g -> row_g is multiplicative;
    # composing permutations is associative, so this certifies the collection
    # rule against an independent model of the order-32 group
    t = to_table(universal_class2(2, P2))
    perms = [t.mult[g] for g in range(t.order)]
    for g in range(t.order):
        for h in range(t.order):
            gh = int(t.mult[g, h])
            assert (perms[gh] == perms[g][perms[h]]).all()
    assert len({tuple(p) for p in perms}) == t.order


def test_collect_identity_inverse_and_commutator():
    E = universal_class2(2, P2)
    e = E.identity()
    x, y = E.generator(0), E.generator(1)
    assert E.mul(e, y) == y
    xy = E.mul(x, y)
    assert E.mul(xy, E.inverse(xy)) == e
    yx = E.mul(y, x)
    assert xy.a == yx.a
    assert xy.c != yx.c
    diff = [(cu - cv) % E.q for cu, cv in zip(yx.c, xy.c)]
    assert diff == [1]


def test_power_closed_form_matches_iteration():
    rng = random.Random(3)
    for params in (P2, P3, P4):
        E = universal_class2(2, params, order_bound=4096)
        for _ in range(30):
            u = ClassTwoElement(
                a=(rng.randrange(E.q2), rng.randrange(E.q2)),
                c=(rng.randrange(E.q),),
            )
            k = rng.randint(-7, 7)
            by_formula = E.power(u, k)
            acc = E.identity()
            base = u if k >= 0 else E.inverse(u)
            # the inverse itself comes from the formula; cross-check it first
            assert E.mul(u, E.power(u, -1)) == E.identity()
            for _ in range(abs(k)):
                acc = E.mul(acc, base)
            assert by_formula == acc


def test_evaluate_word_examples():
    E1 = universal_class2(1, P2)
    x = E1.generator(0)
    assert evaluate_word(Word(()), [x], E1) == E1.identity()
    assert evaluate_word(Word(((0, 4),)), [x], E1) == E1.identity()
    E2 = universal_class2(2, P2)
    pres = parse_presentation(CLASS2_TEXT)
    images = E2.generators()
    for rel in pres.relators:
        assert evaluate_word(rel, images, E2) == E2.identity()


def test_third_quotient_free_and_class2():
    assert third_quotient(free_presentation(2), P2).order == 32
    pres = parse_presentation(CLASS2_TEXT)
    q = third_quotient(pres, P2)
    assert q.order == 32
    assert q.kernel_basis == ()


def test_third_quotient_demushkin():
    pres = parse_presentation(DEMUSHKIN3)
    q = third_quotient(pres, P2)
    assert q.order == 16
    # relator image is t^-2 * commutator, central of order 2
    (r,) = q.kernel_basis
    assert r.a == (0, 2)
    t = to_table(q)
    validate_table(t)
    assert t.order == 16


@pytest.mark.parametrize(
    "n,params,expected",
    [(1, P2, 4), (2, P2, 32), (3, P2, 512), (1, P3, 9), (2, P3, 243)],
)
def test_free_quotient_order_formula(n, params, expected):
    q = params.q
    assert expected == q ** (2 * n + n * (n - 1) // 2)
    assert third_quotient(free_presentation(n), params).order == expected


def test_second_quotient_examples():
    t = second_quotient(free_presentation(3), P2)
    assert t.order == 8 and t.exponent() == 2
    t = second_quotient(parse_presentation("group A { generators: x; relators: x^2; }"), P2)
    assert t.order == 2
    t = second_quotient(
        parse_presentation("group A { generators: x,y; relators: x y^-1; }"), P3
    )
    assert t.order == 3
    # q = 4 with relator x^2: honest cyclic quotient Z/2, not (Z/4)^r
    t = second_quotient(parse_presentation("group A { generators: x; relators: x^2; }"), P4)
    assert t.order == 2


def test_series_step_oracle_on_cyclic():
    t = cyclic_table(4)
    step1 = series_step_oracle(t, set(range(4)), P2)
    assert step1 == {0, 2}
    step2 = series_step_oracle(t, step1, P2)
    assert step2 == {0}


def test_series_step_oracle_matches_construction():
    # G^(2) of E(2,2) has order q^n * q^(pairs) = 8; G^(3) is trivial
    E = universal_class2(2, P2)
    t = to_table(E)
    step1 = series_step_oracle(t, set(range(t.order)), P2)
    assert len(step1) == 8
    step2 = series_step_oracle(t, step1, P2)
    assert step2 == {t.identity}


@pytest.mark.parametrize(
    "text,params",
    [
        (CLASS2_TEXT, P2),
        (DEMUSHKIN3, P2),
        ("group A { generators: x; relators: x^2; }", P2),
        ("group A { generators: x,y; relators: x y x y; }", P2),
        ("group A { generators: x,y; relators: [x,y]; }", P3),
    ],
)
def test_g3_trivial_in_every_third_quotient(text, params):
    t = to_table(third_quotient(parse_presentation(text), params))
    step1 = series_step_oracle(t, set(range(t.order)), params)
    step2 = series_step_oracle(t, step1, params)
    assert step2 == {t.identity}


@pytest.mark.parametrize(
    "text,params",
    [
        (CLASS2_TEXT, P2),
        (DEMUSHKIN3, P2),
        ("group A { generators: x; relators: x^2; }", P4),
        ("group A { generators: x,y; relators: x^3 y^3; }", P3),
    ],
)
def test_second_quotient_agrees_with_series_step(text, params):
    pres = parse_presentation(text)
    direct = second_quotient(pres, params)
    t = to_table(third_quotient(pres, params))
    step = series_step_oracle(t, set(range(t.order)), params)
    viatable = quotient_table(t, step).table
    ok, _ = is_isomorphic(viatable, direct)
    assert ok


def test_quotient_table_z4_mod_2():
    res = quotient_table(cyclic_table(4), {0, 2})
    assert res.table.order == 2
    assert (res.mapping == np.array([0, 1, 0, 1])).all()


def test_is_isomorphic_negative_and_positive():
    ok, _ = is_isomorphic(cyclic_table(4), abelian_table([2, 2]))
    assert not ok
    E = to_table(universal_class2(2, P2))
    Q = to_table(third_quotient(parse_presentation(CLASS2_TEXT), P2))
    ok, witness = is_isomorphic(E, Q)
    assert ok
    # verify the witness really is a bijective homomorphism on generators
    assert witness is not None and len(witness) == 2


def test_is_isomorphic_self_identity_witness():
    t = to_table(universal_class2(2, P2))
    ok, witness = is_isomorphic(t, t)
    assert ok
    assert witness == [int(g) for g in t.generators]


def test_is_isomorphic_equivalence_on_pool():
    pool = [
        cyclic_table(4),
        abelian_table([2, 2]),
        abelian_table([4]),
        to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2)),
        abelian_table([2, 4]),
    ]
    rel = [[is_isomorphic(a, b)[0] for b in pool] for a in pool]
    for i in range(len(pool)):
        assert rel[i][i]
        for j in range(len(pool)):
            assert rel[i][j] == rel[j][i]
    assert rel[0][2] and rel[2][0]  # Z/4 both ways
    assert not rel[0][1]


def test_induced_map_identity_is_iso():
    free2 = free_presentation(2)
    res = induced_quotient_map(
        [Word(((0, 1),)), Word(((1, 1),))], free2, free2, P2
    )
    assert res.is_isomorphism


def test_induced_map_rank_drop():
    free2, free1 = free_presentation(2), free_presentation(1)
    res = induced_quotient_map([Word(((0, 1),)), Word(())], free2, free1, P2)
    assert not res.is_injective
    assert res.is_surjective


def test_induced_map_transvection_iso():
    free2 = free_presentation(2)
    res = induced_quotient_map(
        [Word(((0, 1), (1, 1))), Word(((1, 1),))], free2, free2, P2
    )
    assert res.is_isomorphism


def test_induced_map_not_defined():
    src = parse_presentation("group A { generators: x; relators: x^2; }")
    with pytest.raises(NotAHomomorphismError):
        induced_quotient_map([Word(((0, 1),))], src, free_presentation(1), P2)


def test_group_record_fields():
    rec = group_record(third_quotient(parse_presentation(DEMUSHKIN3), P2))
    assert list(rec.keys()) == [
        "order",
        "exponent",
        "class",
        "abelian_invariants",
        "generators",
        "kernel_basis",
    ]
    assert rec["order"] == 16
    assert rec["class"] == 2
    assert len(rec["kernel_basis"]) == 1


GROUPS = os.path.join(os.path.dirname(__file__), "data", "groups.grp")
ORACLE_QS = (2, 3, 4, 5, 8, 9)
ORACLE_BOUND = 4096


def _universal_order(n: int, q: int) -> int:
    return q ** (2 * n + n * (n - 1) // 2)


def _invariants(rec: dict) -> tuple:
    return rec["order"], rec["exponent"], rec["class"], rec["abelian_invariants"]


def _both_invariants(pres: Presentation, q: int) -> tuple[tuple, tuple]:
    """(order, exponent, class, abelian invariants) from the normal form and
    from the coset table of the same quotient."""
    g = third_quotient(pres, SeriesParams.from_q(q), ORACLE_BOUND)
    t = to_table(g, ORACLE_BOUND)
    table = t.order, t.exponent(), t.nilpotency_class(), t.abelian_invariants()
    return _invariants(group_record(g, ORACLE_BOUND)), table


with open(GROUPS, encoding="utf-8") as _fh:
    DATA_GROUPS = {pres.name: pres for pres in parse_file(_fh.read())}


@pytest.mark.parametrize(
    "name,q",
    [
        (name, q)
        for name, pres in DATA_GROUPS.items()
        for q in ORACLE_QS
        if _universal_order(pres.rank, q) <= ORACLE_BOUND
    ],
)
def test_group_record_matches_table_on_data_groups(name, q):
    normal_form, table = _both_invariants(DATA_GROUPS[name], q)
    assert normal_form == table


@pytest.mark.parametrize("q", ORACLE_QS)
@pytest.mark.parametrize("name", sorted(DATA_GROUPS))
def test_second_quotient_record_matches_table(name, q):
    pres, params = DATA_GROUPS[name], SeriesParams.from_q(q)
    try:
        want = table_record(second_quotient(pres, params))
    except SizeLimitError as err:
        with pytest.raises(SizeLimitError, match=str(err)):
            second_quotient_record(pres, params)
        return
    assert second_quotient_record(pres, params) == want


@st.composite
def _presentations(draw, bound=ORACLE_BOUND, max_rank=3):
    n = draw(st.integers(1, max_rank))
    q = draw(st.sampled_from([q for q in ORACLE_QS if _universal_order(n, q) <= bound]))
    p = SeriesParams.from_q(q).p
    # +-p and +-q give the non-unit Howell pivots at q = 4, 8 and 9
    exponent = st.integers(-4, 4).filter(bool) | st.sampled_from([p, -p, q, -q])
    letter = st.tuples(st.integers(0, n - 1), exponent)
    word = st.lists(letter, min_size=1, max_size=6).map(lambda ls: Word(tuple(ls)))
    relators = draw(st.lists(word, max_size=3))
    return Presentation(name="H", generator_names=tuple("xyzw"[:n]), relators=tuple(relators)), q


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_presentations())
def test_group_record_matches_table_on_random_presentations(case):
    normal_form, table = _both_invariants(*case)
    assert normal_form == table


@pytest.mark.parametrize(
    "text,q,expected",
    [
        # D4: both generators have order 2, yet the exponent is 4
        ("group d4 { generators: x,y; relators: x^2, y^2; }", 2, (8, 4, 2, [2, 2])),
        ("group a { generators: x,y; relators: [x,y]; }", 3, (81, 9, 1, [9, 9])),
        ("group t { generators: x; relators: x; }", 2, (1, 1, 0, [])),
        ("group i { generators: x; relators: x^2; }", 4, (2, 2, 1, [2])),
        (DEMUSHKIN3, 4, (64, 16, 2, [2, 16])),
    ],
)
def test_group_record_edge_cases(text, q, expected):
    g = third_quotient(parse_presentation(text), SeriesParams.from_q(q), ORACLE_BOUND)
    assert _invariants(group_record(g, ORACLE_BOUND)) == expected


def test_group_record_bounds_the_order_of_e():
    # the bound applies to |E(3, 3)| = 19683, as in third_quotient, though
    # the record's work no longer grows with |E|
    g = third_quotient(free_presentation(3), P3, order_bound=20000)
    with pytest.raises(SizeLimitError):
        group_record(g, order_bound=4096)


# -- the exponent from the generators and the u_ij, against the former route
# that powered every reduced form (front_oracle._quotient_exponent)

EXPONENT_BOUND = 2**17


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_presentations(EXPONENT_BOUND, 4))
def test_quotient_exponent_matches_the_powering_oracle(case):
    pres, q = case
    g = third_quotient(pres, SeriesParams.from_q(q), EXPONENT_BOUND)
    assert _quotient_exponent(g) == front_oracle._quotient_exponent(g)


def test_quotient_exponent_of_d4_needs_the_commutator_row():
    # x^2 and y^2 lie in N, but (x y)^2 = x^2 y^2 [y, x] does not
    g = third_quotient(parse_presentation("group d4 { generators: x,y; relators: x^2, y^2; }"), P2)
    assert all(g.contains_in_kernel(g.power(x, 2)) for x in g.generators())
    assert not g.contains_in_kernel(g.power(g.mul(*g.generators()), 2))
    assert _quotient_exponent(g) == 4


EXPONENT_CASES = [
    (name, q)
    for name, pres in sorted(DATA_GROUPS.items())
    for q in ORACLE_QS
    if _universal_order(pres.rank, q) <= EXPONENT_BOUND
]


@pytest.mark.parametrize("name,q", EXPONENT_CASES)
def test_group_record_lists_no_element(monkeypatch, name, q):
    # the oracle's exponent, with no call that lists the elements of E/N
    g = third_quotient(DATA_GROUPS[name], SeriesParams.from_q(q), EXPONENT_BOUND)
    want = front_oracle._quotient_exponent(g)

    def refuse(*args, **kwargs):
        raise AssertionError("group_record listed the elements of E/N")

    monkeypatch.setattr(ClassTwoGroup, "elements", refuse)
    monkeypatch.setattr(qcentral, "_decode_batch", refuse)
    assert group_record(g, EXPONENT_BOUND)["exponent"] == want


# ---------------------------------------------------------------------------
# the reduced form against the former enumeration of N
#
# reference_kernel_codes, reference_coset_table and reference_quotient_exponent
# are the former _kernel_codes, _coset_table and _quotient_exponent, verbatim:
# they take N from kernel_set(), the BFS over the subgroup generated by
# kernel_basis, and number E with the former single-modulus encoders.


def reference_encode_batch(A: np.ndarray, C: np.ndarray, q: int) -> np.ndarray:
    """Dense mixed-radix index of elements: a digits base q^2, c digits base q."""
    out = np.zeros(A.shape[:-1], dtype=np.int64)
    for i in range(A.shape[-1]):
        out = out * (q * q) + A[..., i]
    for k in range(C.shape[-1]):
        out = out * q + C[..., k]
    return out


def reference_decode_batch(codes: np.ndarray, q: int, n: int, npairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``reference_encode_batch``: the (a, c) digit arrays of dense codes."""
    codes = np.asarray(codes, dtype=np.int64)
    A = np.zeros(codes.shape + (n,), dtype=np.int64)
    C = np.zeros(codes.shape + (npairs,), dtype=np.int64)
    for k in reversed(range(npairs)):
        codes, C[..., k] = np.divmod(codes, q)
    for i in reversed(range(n)):
        codes, A[..., i] = np.divmod(codes, q * q)
    return A, C


def reference_kernel_codes(g: ClassTwoGroup) -> np.ndarray:
    """Dense codes of N, ascending (the order of the sorted (a, c) tuples)."""
    kernel = sorted(g.kernel_set())
    KA = np.array([k[0] for k in kernel], dtype=np.int64).reshape(len(kernel), g.n)
    KC = np.array([k[1] for k in kernel], dtype=np.int64).reshape(len(kernel), len(g.pairs))
    return reference_encode_batch(KA, KC, g.q)


def reference_coset_table(g: ClassTwoGroup, order_bound: int) -> tuple[FiniteGroupTable, np.ndarray, np.ndarray]:
    """The table of ``to_table`` together with its coset arrays.

    ``reps[i]`` is the dense code of the representative of table element i;
    ``coset_of[code]`` is the table element of every dense code of E(n, q).
    """
    q, n, pairs = g.q, g.n, g.pairs
    npairs = len(pairs)
    # dense codes enumerate E(n, q) lexicographically in (a, c)
    A, C = reference_decode_batch(np.arange(g.full_order), q, n, npairs)
    KA, KC = reference_decode_batch(reference_kernel_codes(g), q, n, npairs)
    # coset representative = element with minimal dense code in its coset
    rep_code = np.full(g.full_order, np.iinfo(np.int64).max, dtype=np.int64)
    for t in range(len(KA)):
        PA, PC = _collect_batch(A, C, KA[t][None, :], KC[t][None, :], q, pairs)
        rep_code = np.minimum(rep_code, reference_encode_batch(PA, PC, q))
    reps, coset_of = np.unique(rep_code, return_inverse=True)
    RA, RC = reference_decode_batch(reps, q, n, npairs)
    PA, PC = _collect_batch(RA[:, None, :], RC[:, None, :], RA[None, :, :], RC[None, :, :], q, pairs)
    mult = coset_of[reference_encode_batch(PA, PC, q)]
    gen_codes = reference_encode_batch(np.eye(n, dtype=np.int64), np.zeros((n, npairs), dtype=np.int64), q)
    table = FiniteGroupTable(
        order=len(reps),
        mult=mult,
        identity=int(coset_of[0]),
        generators=tuple(int(x) for x in coset_of[gen_codes]),
    )
    return table, reps, coset_of


def reference_quotient_exponent(g: ClassTwoGroup) -> int:
    """Least p^e with g^(p^e) in N for every g in E: the exponent of E/N."""
    q, n, pairs = g.q, g.n, g.pairs
    kernel = reference_kernel_codes(g)
    A, C = reference_decode_batch(np.arange(g.full_order), q, n, len(pairs))
    exponent = 1
    while True:
        codes = reference_encode_batch(A, C, q)
        pos = np.minimum(np.searchsorted(kernel, codes), len(kernel) - 1)
        outside = kernel[pos] != codes
        if not outside.any():
            return exponent
        A, C = _power_batch(A[outside], C[outside], g.params.p, q, pairs)
        exponent *= g.params.p


def reference_induced_mapping(images, source, target, params, order_bound=512) -> np.ndarray:
    """The former ``induced_quotient_map`` mapping, through the reference tables."""
    qs = third_quotient(source, params, order_bound)
    qt = third_quotient(target, params, order_bound)
    Et = universal_class2(target.rank, params, order_bound)
    image_elems = [evaluate_word(w, Et.generators(), Et) for w in images]
    _, reps, _ = reference_coset_table(qs, order_bound)
    _, _, target_coset_of = reference_coset_table(qt, order_bound)
    powers = image_elems + [Et.commutator(image_elems[j], image_elems[i]) for i, j in qs.pairs]
    RA, RC = reference_decode_batch(reps, qs.q, qs.n, len(qs.pairs))
    images = []
    for exps in np.hstack([RA, RC]):
        img = Et.identity()
        for base, k in zip(powers, exps):
            img = Et.mul(img, Et.power(base, int(k)))
        images.append(img)
    IA = np.array([e.a for e in images], dtype=np.int64).reshape(len(images), Et.n)
    IC = np.array([e.c for e in images], dtype=np.int64).reshape(len(images), len(Et.pairs))
    return target_coset_of[reference_encode_batch(IA, IC, Et.q)]


def _assert_matches_reference(g: ClassTwoGroup) -> None:
    kernel = g.kernel_set()
    assert g.order == g.full_order // len(kernel)
    # membership for every x in E: reduces to 0 exactly when x is in N
    A, C = reference_decode_batch(np.arange(g.full_order), g.q, g.n, len(g.pairs))
    RA, RC = g.reduce(A, C)
    reduces_to_zero = ~(RA.any(axis=-1) | RC.any(axis=-1))
    assert (reduces_to_zero == np.isin(np.arange(g.full_order), reference_kernel_codes(g))).all()
    sample = np.flatnonzero(reduces_to_zero)[:8].tolist() + np.flatnonzero(~reduces_to_zero)[:8].tolist()
    for x in sample:
        u = ClassTwoElement(a=tuple(map(int, A[x])), c=tuple(map(int, C[x])))
        assert g.contains_in_kernel(u) == ((u.a, u.c) in kernel)
    assert _quotient_exponent(g) == reference_quotient_exponent(g)
    t, reference = to_table(g, ORACLE_BOUND), reference_coset_table(g, ORACLE_BOUND)[0]
    assert (t.order, t.identity, t.generators) == (reference.order, reference.identity, reference.generators)
    assert np.array_equal(t.mult, reference.mult)


@pytest.mark.parametrize(
    "name,q",
    [
        (name, q)
        for name, pres in DATA_GROUPS.items()
        for q in ORACLE_QS
        if _universal_order(pres.rank, q) <= ORACLE_BOUND
    ],
)
def test_reduced_form_matches_reference_on_data_groups(name, q):
    _assert_matches_reference(third_quotient(DATA_GROUPS[name], SeriesParams.from_q(q), ORACLE_BOUND))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_presentations())
def test_reduced_form_matches_reference_on_random_presentations(case):
    pres, q = case
    _assert_matches_reference(third_quotient(pres, SeriesParams.from_q(q), ORACLE_BOUND))


INDUCED_MAP_CASES = [
    ([Word(((0, 1),)), Word(((1, 1),))], free_presentation(2), free_presentation(2), P2),
    ([Word(((0, 1),)), Word(())], free_presentation(2), free_presentation(1), P2),
    ([Word(((0, 1), (1, 1))), Word(((1, 1),))], free_presentation(2), free_presentation(2), P2),
    # into quotients with a kernel, and a non-unit pivot at q = 4
    ([Word(((0, 1),)), Word(((1, 1),))], free_presentation(2), parse_presentation(DEMUSHKIN3), P2),
    (
        [Word(((0, 1),)), Word(((0, 1), (1, -1)))],
        free_presentation(2),
        parse_presentation("group A { generators: x,y; relators: x^2, [x,y]^2; }"),
        P4,
    ),
]


@pytest.mark.parametrize("images,source,target,params", INDUCED_MAP_CASES)
def test_induced_map_matches_reference(images, source, target, params):
    res = induced_quotient_map(images, source, target, params, order_bound=1024)
    reference = reference_induced_mapping(images, source, target, params, order_bound=1024)
    assert np.array_equal(res.mapping, reference)


def test_nothing_enumerates_the_kernel(monkeypatch):
    # N is described by its two Howell forms; kernel_set is only an oracle
    def refuse(self):
        raise AssertionError("kernel_set was called")

    monkeypatch.setattr(ClassTwoGroup, "kernel_set", refuse)
    g = third_quotient(parse_presentation(DEMUSHKIN3), P4, ORACLE_BOUND)
    assert group_record(g, ORACLE_BOUND)["order"] == 64
    assert to_table(g).order == 64
    free2 = free_presentation(2)
    assert induced_quotient_map([Word(((0, 1),)), Word(((1, 1),))], free2, free2, P2).is_isomorphism
    # <x, y | x, y> at q = 8: |E| = |N| = 32768 and G is trivial
    q8 = SeriesParams.from_q(8)
    trivial = third_quotient(parse_presentation("group T { generators: x,y; relators: x, y; }"), q8, 40000)
    assert trivial.full_order == 32768
    t = to_table(trivial, 40000)
    assert (t.order, t.identity, t.generators) == (1, 0, (0, 0))
    assert np.array_equal(t.mult, [[0]])


def test_reduced_form_describes_the_normal_closure():
    # x and y generate E, yet the basis omits [x, y]: the commutator rows put
    # it back, as the subgroup closure does
    E = universal_class2(2, P2)
    g = ClassTwoGroup(P2, 2, kernel_basis=(E.generator(0), E.generator(1)))
    assert len(g.kernel_set()) == g.full_order
    assert g.order == 1
    assert g.contains_in_kernel(E.commutator(E.generator(1), E.generator(0)))


def test_abelian_invariants_examples():
    assert cyclic_table(6).abelian_invariants() == [2, 3]
    assert abelian_table([2, 2]).abelian_invariants() == [2, 2]
    assert abelian_table([2, 4]).abelian_invariants() == [2, 4]
    assert trivial_table().abelian_invariants() == []


def test_direct_product_table_valid():
    t = direct_product_table(cyclic_table(2), cyclic_table(3))
    validate_table(t)
    ok, _ = is_isomorphic(t, cyclic_table(6))
    assert ok


def test_second_quotient_agrees_with_series_step_rank3():
    pres = free_presentation(3)
    direct = second_quotient(pres, P2)
    t = to_table(third_quotient(pres, P2))
    step = series_step_oracle(t, set(range(t.order)), P2)
    viatable = quotient_table(t, step).table
    ok, _ = is_isomorphic(viatable, direct)
    assert ok


def test_is_isomorphic_d4_vs_q8(quaternion_table):
    # same order, exponent, center size, abelianization, derived size; the
    # element-order census tells them apart
    from qcw.realizability import semidirect_power_table

    d4 = semidirect_power_table(cyclic_table(2), 2, [(1, 0)])
    q8 = quaternion_table
    assert sorted(d4.abelian_invariants()) == sorted(q8.abelian_invariants())
    assert d4.center_size() == q8.center_size()
    assert d4.exponent() == q8.exponent()
    ok, _ = is_isomorphic(d4, q8)
    assert not ok


def test_third_quotient_of_involutions_is_dihedral():
    # <x, y | x^2, y^2> has third quotient E(2,2)/<x^2, y^2>, the dihedral
    # group of order 8; cross-check against the semidirect construction
    from qcw.realizability import semidirect_power_table

    pres = parse_presentation("group D { generators: x,y; relators: x^2, y^2; }")
    t = to_table(third_quotient(pres, P2))
    assert t.order == 8
    d4 = semidirect_power_table(cyclic_table(2), 2, [(1, 0)])
    ok, witness = is_isomorphic(t, d4)
    assert ok and witness is not None


def test_is_isomorphic_detects_relabelings():
    # a random relabeling of a table is isomorphic to it; the witness search
    # must find it every time
    import random as _random
    from qcw.realizability import semidirect_power_table

    rng = _random.Random(41)
    pool = [
        to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2)),
        semidirect_power_table(cyclic_table(2), 2, [(1, 0)]),
        abelian_table([2, 4]),
        to_table(third_quotient(parse_presentation(
            "group A { generators: x,y; relators: x^2, y^2; }"), P2)),
    ]
    for t in pool:
        for _ in range(5):
            perm = list(range(t.order))
            rng.shuffle(perm)
            perm = np.array(perm)
            inv = np.argsort(perm)
            mult2 = np.zeros_like(t.mult)
            mult2[np.ix_(perm, perm)] = perm[t.mult]
            t2 = type(t)(
                order=t.order,
                mult=mult2,
                identity=int(perm[t.identity]),
                generators=tuple(int(perm[g]) for g in t.generators),
            )
            ok, witness = is_isomorphic(t, t2)
            assert ok and witness is not None


# -- homomorphisms along the spanning tree ----------------------------------------


def reference_build_hom(t1, t2, gen_images):
    """The former ``_word_expressions`` and ``_build_hom``: BFS parents over
    the listing as given, resolved by a fixed-point loop."""
    expr = [None] * t1.order
    seen, frontier = {t1.identity}, [t1.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(t1.generators):
                y = int(t1.mult[x, g])
                if y not in seen:
                    seen.add(y)
                    expr[y] = (x, gi)
                    nxt.append(y)
        frontier = nxt
    phi = np.full(t1.order, -1, dtype=np.int64)
    phi[t1.identity] = t2.identity
    changed = True
    while changed:
        changed = False
        for x in range(t1.order):
            if phi[x] < 0 and expr[x] is not None and phi[expr[x][0]] >= 0:
                prev, gi = expr[x]
                phi[x] = t2.mult[phi[prev], gen_images[gi]]
                changed = True
    if (phi < 0).any() or not (phi[t1.mult] == t2.mult[np.ix_(phi, phi)]).all():
        return None
    return phi


def listed_as(t, generators):
    return FiniteGroupTable(order=t.order, mult=t.mult, identity=t.identity, generators=tuple(generators))


def permuted(t, seed):
    """t under a random relabelling, the identity moved too."""
    perm = np.random.default_rng(seed).permutation(t.order)
    inv = np.argsort(perm)
    return FiniteGroupTable(
        order=t.order,
        mult=perm[t.mult][np.ix_(inv, inv)],
        identity=int(perm[t.identity]),
        generators=tuple(int(perm[g]) for g in t.generators),
    )


def repeated_listing(t):
    """t listing its first generator twice and the identity once."""
    a, b = t.generators[0], t.generators[-1]
    return listed_as(t, (a, t.identity, a, b))


HOM_SOURCES = {
    "z4_x_z2": lambda: abelian_table([4, 2]),
    "d4": lambda: semidirect_power_table(cyclic_table(2), 2, [(1, 0)]),
    "z8": lambda: cyclic_table(8),
}


@pytest.mark.parametrize("name", sorted(HOM_SOURCES))
def test_build_hom_matches_the_former_fixed_point(name):
    # every choice of images, consistent or not at the repeated generator and
    # the identity: the layered build reads a repeated generator's image at
    # its first listing and ignores the identity's, as the former BFS did
    t = HOM_SOURCES[name]()
    t1 = repeated_listing(t)
    listing = [t1.generators.index(int(s)) for s in t1.spanning_tree().gens]
    for t2 in (t, permuted(t, 3)):
        for images in itertools.product(range(t2.order), repeat=len(t1.generators)):
            got = _build_hom(t1, t2, np.array(images)[listing])
            want = reference_build_hom(t1, t2, images)
            assert (got is None) == (want is None)
            assert want is None or np.array_equal(got, want)


@pytest.mark.parametrize(
    "name,seed,witness",
    [
        ("z4_x_z2", 0, [1, 2, 1, 0]),
        ("z4_x_z2", 2, [0, 6, 0, 4]),
        ("d4", 0, [3, 2, 3, 4]),
        ("d4", 2, [1, 6, 1, 3]),
        ("z8", 0, [0, 2, 0, 0]),
        ("z8", 4, [2, 1, 2, 2]),
    ],
)
def test_is_isomorphic_witness_with_a_repeated_generator_and_the_identity(name, seed, witness):
    # the witnesses the former BFS and fixed-point build returned
    t = HOM_SOURCES[name]()
    assert is_isomorphic(repeated_listing(t), permuted(t, seed)) == (True, witness)


# ---------------------------------------------------------------------------
# the closed-form front end against the former run-by-run routes

FRONT_QS = (2, 3, 4, 5, 8, 9)


@st.composite
def _class_two_groups(draw):
    return ClassTwoGroup(SeriesParams.from_q(draw(st.sampled_from(FRONT_QS))), draw(st.integers(1, 4)))


def _elements(group, n=None, npairs=None):
    """Normal forms with digits a little outside [0, q^2) and [0, q)."""
    n = group.n if n is None else n
    npairs = len(group.pairs) if npairs is None else npairs
    a = st.lists(st.integers(-group.q2, 2 * group.q2), min_size=n, max_size=n)
    c = st.lists(st.integers(-group.q, 2 * group.q), min_size=npairs, max_size=npairs)
    return st.builds(lambda a, c: ClassTwoElement(tuple(a), tuple(c)), a, c)


def _words(group, generators):
    bound = 3 * group.q2
    run = st.tuples(st.integers(0, generators - 1), st.integers(-bound, bound))
    return st.lists(run, max_size=12).map(lambda runs: Word(tuple(runs)))


def _outcome(f, *args):
    try:
        return f(*args)
    except DimensionMismatchError as err:
        return type(err).__name__, str(err)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_evaluate_word_matches_the_run_by_run_oracle(data):
    group = data.draw(_class_two_groups())
    if data.draw(st.booleans()):
        images = group.generators()
    else:
        images = data.draw(st.lists(_elements(group), min_size=group.n, max_size=group.n))
    w = data.draw(_words(group, group.n))
    assert evaluate_word(w, images, group) == front_oracle.evaluate_word(w, images, group)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_evaluate_word_raises_as_the_run_by_run_oracle(data):
    # some images missing, one maybe of the wrong dimension: the first run
    # that reaches either raises, with the same message
    group = data.draw(_class_two_groups())
    images = data.draw(st.lists(_elements(group), max_size=group.n))
    if images and data.draw(st.booleans()):
        wrong = data.draw(
            _elements(group, n=group.n + 1) | _elements(group, npairs=len(group.pairs) + 1)
        )
        images[data.draw(st.integers(0, len(images) - 1))] = wrong
    w = data.draw(_words(group, len(images) + 1))
    got = _outcome(evaluate_word, w, images, group)
    assert got == _outcome(front_oracle.evaluate_word, w, images, group)


def test_evaluate_word_of_the_empty_word_and_a_bad_image():
    E = ClassTwoGroup(P3, 2)
    assert evaluate_word(Word(()), [], E) == E.identity()
    with pytest.raises(DimensionMismatchError, match="word uses generator 2, only 2 images given"):
        evaluate_word(Word(((0, 1), (2, 1))), E.generators(), E)
    bad = ClassTwoElement((1, 0, 0), (0,))
    with pytest.raises(DimensionMismatchError, match="element has wrong dimensions for this group"):
        evaluate_word(Word(((0, 1), (1, 5))), [E.generator(0), bad], E)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_commutator_matches_the_mul_chain(data):
    group = data.draw(_class_two_groups())
    u, v = data.draw(_elements(group)), data.draw(_elements(group))
    assert group.commutator(u, v) == front_oracle.commutator(group, u, v)


def _data_cases():
    return [(name, q) for name in sorted(DATA_GROUPS) for q in FRONT_QS]


@pytest.mark.parametrize("name,q", _data_cases())
def test_kernel_basis_matches_the_former_pruning_loop(name, q):
    pres, params = DATA_GROUPS[name], SeriesParams.from_q(q)
    got = third_quotient(pres, params, 10**40)
    assert got.kernel_basis == front_oracle.third_quotient(pres, params, 10**40).kernel_basis


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_presentations())
def test_kernel_basis_matches_the_former_pruning_loop_on_random_presentations(case):
    pres, q = case
    params = SeriesParams.from_q(q)
    want = front_oracle.third_quotient(pres, params, ORACLE_BOUND).kernel_basis
    assert third_quotient(pres, params, ORACLE_BOUND).kernel_basis == want


# relators whose images, or their commutators with the generators, repeat
# what an earlier kept element already gives: the former loop built a form
# for each of them
REDUNDANT = parse_file(
    "group twice { generators: x, y; relators: x^2, x^-2 y^4, y^2; }\n"
    "group comm { generators: x, y; relators: [x, y], [x, y]^2, x [y, x]^3 x^-1; }\n"
    "group chain { generators: x, y, z; relators: x y, y z, x z^-1, x^2 y^2 z^2; }\n"
)
SPY_GROUPS = {**DATA_GROUPS, **{pres.name: pres for pres in REDUNDANT}}


@pytest.mark.parametrize("name,q", [(name, q) for name in sorted(SPY_GROUPS) for q in FRONT_QS])
def test_third_quotient_builds_one_kernel_form_per_kept_element(monkeypatch, name, q):
    built = []
    build = _KernelForm.build.__func__

    def spy(cls, g):
        built.append(g.kernel_basis)
        return build(cls, g)

    monkeypatch.setattr(_KernelForm, "build", classmethod(spy))
    g = third_quotient(SPY_GROUPS[name], SeriesParams.from_q(q), 10**40)
    g.order, g.contains_in_kernel(g.identity())  # the returned group's form
    assert len(built) <= max(1, len(g.kernel_basis))


def _into_f2q(letters, n, q):
    """The word of the runs, then one run per generator that brings its
    exponent sum to 0 mod q: a word of F^(2, q)."""
    sums = [0] * n
    for g, e in letters:
        sums[g] += e
    return Word(tuple(letters) + tuple((g, -(s % q)) for g, s in enumerate(sums) if s % q))


@st.composite
def _presentations_forced_into_f2q(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    n = draw(st.integers(1, 3))
    params = SeriesParams.from_q(q)
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1, 2, -3, q, -q, q * q + 1]))
    forced = st.lists(letter, min_size=1, max_size=6).map(lambda ls: _into_f2q(ls, n, q))
    # words of F^(3, q), where a relator adds nothing to N F^(3, q)
    third = st.sampled_from(third_quotient_relators(free_presentation(n), params))
    relators = tuple(draw(st.lists(st.one_of(forced, third), max_size=3)))
    return Presentation(name="H", generator_names=tuple("xyz"[:n]), relators=relators), params


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_presentations_forced_into_f2q())
def test_relator_order_is_the_third_quotient_order(case):
    # the order lemma of relator_order against the reduced forms of E / N
    pres, params = case
    assert relator_order(pres, params, 10**40) == third_quotient(pres, params, 10**40).order


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_relator_order_of_relators_in_f3q_is_the_order_of_e(n, q):
    params = SeriesParams.from_q(q)
    extra = third_quotient_relators(free_presentation(n), params)
    pres = Presentation(name="H", generator_names=tuple("xyz"[:n]), relators=extra)
    assert relator_order(pres, params, 10**40) == q ** (2 * n + n * (n - 1) // 2)
    assert relator_order(free_presentation(n), params, 10**40) == q ** (2 * n + n * (n - 1) // 2)


def test_relator_order_refuses_with_the_texts_of_e_and_relator_pairing():
    with pytest.raises(SizeLimitError) as got:
        relator_order(free_presentation(2), P2, 31)
    with pytest.raises(SizeLimitError) as want:
        universal_class2(2, P2, 31)
    assert str(got.value) == str(want.value) == "|E(2,2)| = 32 exceeds the order bound 31"
    # x^2 is not in F^(2, 4); the order bound is read first
    pres = parse_presentation("group C2 { generators: x; relators: x^4, x^2; }")
    with pytest.raises(QcwError) as got:
        relator_order(pres, SeriesParams.from_q(4), 16)
    with pytest.raises(QcwError) as want:
        relator_pairing(pres, 4)
    assert str(got.value) == str(want.value) == "relator 2 of C2 is not in F^(2, 4): an exponent sum is not 0 mod 4"
    with pytest.raises(SizeLimitError):
        relator_order(pres, SeriesParams.from_q(4), 15)
    assert relator_order(pres, P2) == third_quotient(pres, P2).order == 2
