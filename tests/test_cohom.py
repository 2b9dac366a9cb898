"""Cohomology engine tests.

The key oracle is exhaustive: for tiny groups every normalized 2-cochain is
enumerated, the cocycle identity is tested directly, coboundaries are
enumerated from all 1-cochains, and |H^2| = |Z^2| / |B^2| is compared with
the solver's invariants.  The solver never feeds the oracle.
"""

import contextlib
import functools
import io
import itertools
import math
import os
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcw import cohom
from qcw.cli import main
from qcw.cohom import (
    DEFAULT_H2_BOUND,
    GroupCohomology,
    _det_mod,
    _identity_witness,
    _is_module_iso,
    _module_automorphisms,
    _span_invariants,
    CohomologySpace,
    TableHom,
    decomposable_h2,
    h1,
    h2,
    induced_h_maps,
    pairing_gram,
    pairings_equivalent,
    PairingTensor,
    relator_pairing,
    cohomology_record,
)
from qcw.errors import DimensionMismatchError, NotAHomomorphismError, QcwError, SizeLimitError
from qcw.milnor import galois_model, parse_field
from qcw.presentations import Presentation, Word, concat, free_presentation, parse_file, parse_presentation
from qcw.qcentral import (
    FiniteGroupTable,
    SeriesParams,
    abelian_table,
    cyclic_table,
    induced_quotient_map,
    quotient_table,
    series_step_oracle,
    third_quotient,
    third_quotient_relators,
    to_action,
    to_table,
    trivial_table,
    universal_class2,
)
from qcw.realizability import semidirect_power_table
from qcw.zqlinalg import (
    QuotientModule,
    RowSpace,
    _as_matrix,
    cokernel_invariants,
    kernel_with_orders,
    prime_power,
    solve_mod_many,
)
from bar_oracle import (
    bar_z2,
    cup,
    cup_matrix,
    extend,
    extension_matrix,
    flat_of_matrix,
    former_induced_h_maps,
    generator_columns,
    inflation,
    is_coboundary,
    is_cocycle_matrix,
    matrix_of_flat,
    positions,
    reference_coboundary_rows,
    restrict,
    support_size,
)
from test_milnor import compare_tensors
from test_zqlinalg import ReferenceRowSpace, assert_same_module, reference_quotient_module

P2 = SeriesParams(p=2, d=1)
GROUPS_GRP = os.path.join(os.path.dirname(__file__), "data", "groups.grp")
DEMUSHKIN3 = "group D { generators: s,t; relators: s t s^-1 t^-3; }"


def brute_h2_order(t, q, cap=2**19):
    """|H^2(G, Z/q)| by exhaustive enumeration of normalized cochains."""
    n = t.order
    elems = [x for x in range(n) if x != t.identity]
    W = (n - 1) ** 2
    total = q**W
    assert total <= cap, "group too large for the brute-force oracle"
    m = t.mult
    ident = t.identity
    z2 = 0
    chunk = 1 << 15
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        flat = np.zeros((len(codes), W), dtype=np.int64)
        c = codes.copy()
        for pos in reversed(range(W)):
            c, digit = np.divmod(c, q)
            flat[:, pos] = digit
        F = np.zeros((len(codes), n, n), dtype=np.int64)
        ii, jj = np.ix_(elems, elems)
        F[:, ii, jj] = flat.reshape(len(codes), n - 1, n - 1)
        lhs = F[:, :, :, None] + F[:, m, :]
        rhs = F[:, None, :, :] + F[:, np.arange(n)[:, None, None], m[None, :, :]]
        good = (((lhs - rhs) % q) == 0).reshape(len(codes), -1).all(axis=1)
        z2 += int(good.sum())
    # coboundaries from all normalized 1-cochains
    seen = set()
    for code in range(q ** (n - 1)):
        u = np.zeros(n, dtype=np.int64)
        c = code
        for x in elems:
            c, digit = divmod(c, q)
            u[x] = digit
        F = (u[:, None] + u[None, :] - u[m]) % q
        F[ident, :] = 0
        F[:, ident] = 0
        seen.add(tuple(F[np.ix_(elems, elems)].reshape(-1)))
    b2 = len(seen)
    assert z2 % b2 == 0
    return z2 // b2


@pytest.mark.parametrize(
    "table,q,expected_invariants",
    [
        (cyclic_table(2), 2, [2]),
        (cyclic_table(3), 3, [3]),
        (cyclic_table(4), 2, [2]),
        (cyclic_table(4), 4, [4]),
        (abelian_table([2, 2]), 2, [2, 2, 2]),
    ],
)
def test_h2_against_brute_force(table, q, expected_invariants):
    space = h2(table, q)
    assert space.invariants == expected_invariants
    assert math.prod(space.invariants) == brute_h2_order(table, q)
    ctx = GroupCohomology(table, q)
    for F in extend(ctx, space.basis):
        assert is_cocycle_matrix(ctx, F)


def test_h2_dimensions_cyclic_family():
    # dim H^2(Z/q, Z/q) = 1 for q in {2, 3, 4}
    for q in (2, 3, 4):
        assert h2(cyclic_table(q), q).dimension == 1


def test_h1_examples():
    assert h1(cyclic_table(4), 2).dimension == 1
    assert h1(abelian_table([2, 2]), 2).dimension == 2
    E = to_table(universal_class2(2, P2))
    space = h1(E, 2)
    assert space.dimension == 2
    # representatives are homomorphisms vanishing on squares and commutators
    for f in space.basis:
        assert ((f[E.mult] - (f[:, None] + f[None, :])) % 2 == 0).all()


def test_h1_composite_modulus():
    # Hom(Z/2, Z/4) = Z/2: one generator of order 2
    space = h1(cyclic_table(2), 4)
    assert space.invariants == [2]


def test_cup_bilinear_zero():
    t = abelian_table([2, 2])
    zero = np.zeros(t.order, dtype=np.int64)
    x = h1(t, 2).basis[0]
    assert not cup(zero, x, t, 2).any()


def test_cup_nonzero_on_klein():
    t = abelian_table([2, 2])
    ctx = GroupCohomology(t, 2)
    x, y = ctx.h1_space().basis
    assert not is_coboundary(ctx, cup_matrix(ctx, x, y))


def test_cup_square_dies_on_z4():
    t = cyclic_table(4)
    ctx = GroupCohomology(t, 2)
    (x,) = ctx.h1_space().basis
    assert is_coboundary(ctx, cup_matrix(ctx, x, x))


def test_decomposable_dimensions():
    assert decomposable_h2(cyclic_table(4), 2).space.dimension == 0
    assert decomposable_h2(abelian_table([2, 2]), 2).space.dimension == 3
    dec = decomposable_h2(abelian_table([2, 2]), 2)
    # inclusion into H^2 is then an isomorphism: 3 independent columns
    assert dec.inclusion.shape == (3, 3)


def test_decomposable_vanishes_for_free_quotient():
    E = to_table(universal_class2(2, P2))
    ctx = GroupCohomology(E, 2)
    assert ctx.dec_module().rank == 0
    x, y = ctx.h1_space().basis
    for a, b in ((x, x), (x, y), (y, y)):
        assert is_coboundary(ctx, cup_matrix(ctx, a, b))


def test_dec_light_path_beats_h2_bound():
    # order 81 exceeds the default degree-2 bound, but the decomposable part
    # only needs coboundaries
    pres = parse_presentation("group D { generators: s,t; relators: s t s^-1 t^-7; }")
    t = to_table(third_quotient(pres, SeriesParams(p=3, d=1)))
    assert t.order == 81
    with pytest.raises(SizeLimitError):
        h2(t, 3)
    ctx = GroupCohomology(t, 3)
    assert ctx.dec_module().rank == 1


def test_graded_commutativity():
    for table, q in [
        (abelian_table([2, 2]), 2),
        (cyclic_table(9), 3),
        (to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2)), 2),
        (abelian_table([3, 3]), 3),
    ]:
        ctx = GroupCohomology(table, q)
        basis = ctx.h1_space().basis
        for a in basis:
            for b in basis:
                anti = (cup_matrix(ctx, a, b) + cup_matrix(ctx, b, a)) % q
                assert is_coboundary(ctx, anti)


def test_inflation_identity_and_pullbacks():
    t4, t2 = cyclic_table(4), cyclic_table(2)
    idmap = TableHom(source=t4, target=t4, mapping=np.arange(4))
    x4 = h1(t4, 2).basis[0]
    assert (inflation(idmap, x4) == x4).all()
    proj = TableHom(source=t4, target=t2, mapping=np.array([0, 1, 0, 1]))
    x2 = h1(t2, 2).basis[0]
    pulled = inflation(proj, x2)
    assert pulled.any()
    ctx4 = GroupCohomology(t4, 2)
    ctx2 = GroupCohomology(t2, 2)
    sq = cup_matrix(ctx2, x2, x2)
    assert not is_coboundary(ctx2, sq)  # x cup x generates H^2(Z/2)
    assert is_coboundary(ctx4, inflation(proj, sq))  # but dies on Z/4


def test_compose_requires_the_same_middle_table():
    t4, t2, v4 = cyclic_table(4), cyclic_table(2), abelian_table([2, 2])
    proj = TableHom(source=t4, target=t2, mapping=np.array([0, 1, 0, 1]))
    # Klein four has order 4 too, but it is not the source of proj
    with pytest.raises(DimensionMismatchError, match="do not compose"):
        proj.compose(TableHom(source=v4, target=v4, mapping=np.arange(4)))
    # an equal table built separately composes
    double = TableHom(source=t4, target=cyclic_table(4), mapping=np.array([0, 2, 0, 2]))
    assert (proj.compose(double).mapping == [0, 0, 0, 0]).all()


def test_a_mapping_entry_outside_the_target_is_refused():
    # checked before the identity and the products, which would index the
    # target table out of range (or wrap round at a negative entry)
    t4, t2 = cyclic_table(4), cyclic_table(2)
    for mapping in ([0, 1, 0, 5], [0, 1, 0, 2], [0, -1, 0, 1], [2, 1, 0, 1]):
        with pytest.raises(DimensionMismatchError, match="elements of the target"):
            TableHom(source=t4, target=t2, mapping=mapping)
    assert TableHom(source=t4, target=t2, mapping=[0, 1, 0, 1]).is_surjective()


def test_inflation_commutes_with_cup():
    t4, t2 = cyclic_table(4), cyclic_table(2)
    proj = TableHom(source=t4, target=t2, mapping=np.array([0, 1, 0, 1]))
    x2 = h1(t2, 2).basis[0]
    ctx2 = GroupCohomology(t2, 2)
    ctx4 = GroupCohomology(t4, 2)
    lhs = inflation(proj, cup_matrix(ctx2, x2, x2))
    rhs = cup_matrix(ctx4, inflation(proj, x2), inflation(proj, x2))
    assert (lhs % 2 == rhs % 2).all()


def test_inflation_requires_surjection():
    t2, t4 = cyclic_table(2), cyclic_table(4)
    embed = TableHom(source=t2, target=t4, mapping=np.array([0, 2]))
    with pytest.raises(NotAHomomorphismError):
        inflation(embed, h1(t4, 2).basis[0])


def test_induced_maps_identity():
    t = to_table(universal_class2(2, P2))
    idmap = TableHom(source=t, target=t, mapping=np.arange(t.order))
    res = induced_h_maps(idmap, 2)
    assert res.h1_bijective and res.dec_bijective
    assert (res.h1_matrix == np.eye(2, dtype=np.int64)).all()


def test_induced_maps_rank_drop():
    free2, free1 = free_presentation(2), free_presentation(1)
    qmap = induced_quotient_map([Word(((0, 1),)), Word(())], free2, free1, P2)
    pi = TableHom(source=qmap.source, target=qmap.target, mapping=qmap.mapping)
    res = induced_h_maps(pi, 2)
    assert not res.h1_bijective
    # pullback of the single target class is one nonzero column
    assert res.h1_matrix.shape == (2, 1)
    assert res.h1_matrix.any()


def test_induced_maps_iso_and_functorial():
    free2, free1 = free_presentation(2), free_presentation(1)
    rho_q = induced_quotient_map(
        [Word(((0, 1), (1, 1))), Word(((1, 1),))], free2, free2, P2
    )
    rho = TableHom(source=rho_q.source, target=rho_q.target, mapping=rho_q.mapping)
    res_rho = induced_h_maps(rho, 2)
    assert res_rho.h1_bijective and res_rho.dec_bijective
    pi_q = induced_quotient_map([Word(((0, 1),)), Word(())], free2, free1, P2)
    pi = TableHom(source=pi_q.source, target=pi_q.target, mapping=pi_q.mapping)
    m_comp = induced_h_maps(pi.compose(rho), 2)
    m_rho = induced_h_maps(rho, 2)
    m_pi = induced_h_maps(pi, 2)
    assert (
        m_comp.h1_matrix % 2 == (m_rho.h1_matrix @ m_pi.h1_matrix) % 2
    ).all()


def test_pairing_gram_examples():
    t = pairing_gram(cyclic_table(4), 2)
    assert t.m == 1 and t.target_dim == 0
    t = pairing_gram(abelian_table([2, 2]), 2)
    assert t.m == 2 and t.target_dim == 3
    demushkin = to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2))
    t = pairing_gram(demushkin, 2)
    assert t.m == 2 and t.target_dim == 1


def test_pairings_equivalent_basic():
    t = pairing_gram(abelian_table([2, 2]), 2)
    assert pairings_equivalent(t, t)
    zero = PairingTensor(q=2, m=1, target_orders=(), values=np.zeros((1, 1, 0), dtype=np.int64))
    rank1 = PairingTensor(q=2, m=1, target_orders=(2,), values=np.ones((1, 1, 1), dtype=np.int64))
    assert not pairings_equivalent(zero, rank1)
    assert pairings_equivalent(zero, zero)


def test_pairings_equivalent_detects_basis_change():
    # the hyperbolic form [[0,1],[1,0]] vs the form [[0,1],[1,1]] over F_2:
    # inequivalent (Arf-type distinction is visible to exhaustive search)
    hyp = PairingTensor(
        q=2, m=2, target_orders=(2,),
        values=np.array([[[0], [1]], [[1], [0]]], dtype=np.int64),
    )
    other = PairingTensor(
        q=2, m=2, target_orders=(2,),
        values=np.array([[[0], [1]], [[1], [1]]], dtype=np.int64),
    )
    assert pairings_equivalent(hyp, hyp)
    # sanity: a permuted version of `other` is equivalent to it
    perm = PairingTensor(
        q=2, m=2, target_orders=(2,),
        values=np.array([[[1], [1]], [[1], [0]]], dtype=np.int64),
    )
    assert pairings_equivalent(other, perm)
    assert not pairings_equivalent(hyp, other)


def test_h2_basis_all_cocycles_demushkin():
    t = to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2))
    ctx = GroupCohomology(t, 2)
    space = ctx.h2_space()
    for F in extend(ctx, space.basis):
        assert is_cocycle_matrix(ctx, F)
    dec = ctx.dec_module()
    assert dec.rank <= space.dimension


def test_dec_le_h2_and_elementary_abelian_equality():
    # decomposable dimension never exceeds dim H^2; for elementary abelian
    # 2-groups at q = 2 they coincide, while at odd p the degree-2 power
    # classes are indecomposable and the inequality is strict
    for table, q in [
        (abelian_table([2, 2]), 2),
        (abelian_table([2, 2, 2]), 2),
        (cyclic_table(2), 2),
    ]:
        ctx = GroupCohomology(table, q)
        assert ctx.dec_module().rank == ctx.h2_space().dimension
    ctx = GroupCohomology(abelian_table([3, 3]), 3)
    assert ctx.h2_space().dimension == 3
    assert ctx.dec_module().rank == 1
    for table, q in [(cyclic_table(4), 2), (abelian_table([2, 4]), 2)]:
        ctx = GroupCohomology(table, q)
        assert ctx.dec_module().rank <= ctx.h2_space().dimension


def test_h2_against_literature_order8(quaternion_table):
    # classical mod-2 cohomology rings: the dihedral group of order 8 has
    # H^* = F2[x,y,w]/(xy) (so dim H^2 = 3, decomposable part 2), the
    # quaternion group has H^* = F2[x,y,e]/(x^2+xy+y^2, x^2y+xy^2) (so
    # dim H^2 = 2, all of it decomposable)
    from qcw.qcentral import validate_table
    from qcw.realizability import semidirect_power_table

    d4 = semidirect_power_table(cyclic_table(2), 2, [(1, 0)])
    validate_table(d4)
    ctx = GroupCohomology(d4, 2)
    assert ctx.h1_space().dimension == 2
    assert ctx.h2_space().dimension == 3
    assert ctx.dec_module().rank == 2

    q8 = quaternion_table
    validate_table(q8)
    ctx = GroupCohomology(q8, 2)
    assert ctx.h1_space().dimension == 2
    assert ctx.h2_space().dimension == 2
    assert ctx.dec_module().rank == 2


def test_dec_vanishes_for_cyclic_q4():
    # H^1(Z/16, Z/4) = Z/4 and H^2 = Z/4, yet the cup square is a
    # coboundary: the decomposable part is zero, matching trivial k2 of a
    # finite field in the q = 4 comparison
    ctx = GroupCohomology(cyclic_table(16), 4)
    assert ctx.h1_space().invariants == [4]
    assert ctx.h2_space().invariants == [4]
    assert ctx.dec_module().rank == 0


def test_h2_brute_force_more_cases():
    # coprime coefficients kill cohomology; Klein four over Z/4 has three
    # order-2 classes (Ext part plus the multiplier)
    space = h2(cyclic_table(5), 2)
    assert space.invariants == []
    assert brute_h2_order(cyclic_table(5), 2) == 1
    space = h2(cyclic_table(3), 2)
    assert space.invariants == []
    space = h2(abelian_table([2, 2]), 4)
    assert space.invariants == [2, 2, 2]
    assert brute_h2_order(abelian_table([2, 2]), 4) == 8


def test_h2_symmetric_group_literature():
    # S3 has odd-index Sylow 2: mod-2 cohomology equals that of Z/2
    # (dim H^2 = 1); its mod-3 cohomology vanishes in degree 2
    from qcw.realizability import permutation_closure, permutation_group_table
    from qcw.qcentral import validate_table

    perms = permutation_closure([(1, 0, 2), (0, 2, 1)], 3)
    s3 = permutation_group_table(perms, [(1, 0, 2), (0, 2, 1)])
    validate_table(s3)
    assert s3.order == 6 and not s3.is_abelian()
    assert h2(s3, 2).dimension == 1
    assert h2(s3, 3).dimension == 0
    assert h1(s3, 2).dimension == 1  # sign character
    assert h1(s3, 3).dimension == 0


def test_level3_iso_agrees_with_degree2_iso():
    # for induced maps between third quotients, being an isomorphism at
    # level 3 coincides with inducing isomorphisms on H^1 and decomposable
    # H^2 (the degree <= 2 account of the correspondence)
    from qcw.presentations import free_presentation

    free2, free1 = free_presentation(2), free_presentation(1)
    cases = [
        ([Word(((0, 1),)), Word(((1, 1),))], free2, free2),          # identity
        ([Word(((0, 1), (1, 1))), Word(((1, 1),))], free2, free2),   # transvection
        ([Word(((0, 1),)), Word(((1, 2),))], free2, free2),          # y -> y^2
        ([Word(((0, 1),)), Word(())], free2, free1),                 # kill y
        ([Word(((0, 1),))], free1, free2),                           # inclusion
    ]
    for images, src, tgt in cases:
        qmap = induced_quotient_map(images, src, tgt, P2)
        pi = TableHom(source=qmap.source, target=qmap.target, mapping=qmap.mapping)
        res = induced_h_maps(pi, 2)
        assert (res.h1_bijective and res.dec_bijective) == qmap.is_isomorphism, images


def test_h1_matches_abelianization_hom_formula():
    # Hom(G, Z/q) invariants are gcd(d_i, q) over the abelianization's
    # cyclic invariants; two very different code paths must agree
    import math as _math

    pool = [
        (cyclic_table(4), 2),
        (cyclic_table(4), 4),
        (cyclic_table(6), 2),
        (cyclic_table(6), 3),
        (abelian_table([2, 4]), 4),
        (abelian_table([3, 9]), 3),
        (to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2)), 2),
        (to_table(universal_class2(2, P2)), 4),
    ]
    for table, q in pool:
        predicted = sorted(
            g for g in (_math.gcd(d, q) for d in table.abelian_invariants()) if g > 1
        )
        assert sorted(h1(table, q).invariants) == predicted, (table.order, q)


def test_pairings_equivalent_closed_under_transforms():
    # applying random invertible source/target transforms must always give
    # an equivalent tensor
    rng = np.random.default_rng(99)
    from qcw.cohom import _det_mod
    from qcw.zqlinalg import prime_power

    for q in (2, 3):
        p, _ = prime_power(q)
        for _ in range(20):
            m = int(rng.integers(1, 3))
            t = int(rng.integers(1, 3))
            vals = rng.integers(0, q, size=(m, m, t))
            T = PairingTensor(q=q, m=m, target_orders=(q,) * t, values=vals)
            while True:
                P = rng.integers(0, q, size=(m, m))
                if _det_mod(P, q) % p != 0:
                    break
            while True:
                Q = rng.integers(0, q, size=(t, t))
                if _det_mod(Q, q) % p != 0:
                    break
            newvals = np.einsum("ix,jy,ijt->xyt", P, P, vals) % q
            newvals = np.einsum("st,xyt->xys", Q, newvals) % q
            T2 = PairingTensor(q=q, m=m, target_orders=(q,) * t, values=newvals)
            assert pairings_equivalent(T, T2)


def transformed(T, P, Q=None):
    """The tensor Q T(P x, P y) with values reduced mod q (Q = I by default)."""
    vals = np.einsum("ix,jy,ijt->xyt", P, P, T.values) % T.q
    if Q is not None:
        vals = np.einsum("st,xyt->xys", Q, vals) % T.q
    return PairingTensor(q=T.q, m=T.m, target_orders=T.target_orders, values=vals)


def count_searches(monkeypatch) -> list:
    """Record each run of the GL_m source search."""
    calls, original = [], cohom._invertible_matrices

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cohom, "_invertible_matrices", spy)
    return calls


def former_pairings_equivalent(T1, T2, monkeypatch):
    """The verdict of the GL_m search alone, as before the identity witness."""
    with monkeypatch.context() as patch:
        patch.setattr(cohom, "_identity_witness", lambda T1, T2: False)
        return pairings_equivalent(T1, T2)


def test_fallback_finds_a_basis_swap(monkeypatch):
    milnor, _ = compare_tensors("Qp:3", 2, 512)
    swapped = transformed(milnor, np.array([[0, 1], [1, 0]]))
    assert not _identity_witness(milnor, swapped)
    calls = count_searches(monkeypatch)
    assert pairings_equivalent(milnor, swapped)
    assert calls


def test_diagonal_source_change_at_q4(monkeypatch):
    P = np.diag([1, 3])
    # the Kummer lemma of galois_model: on a graded-commutative tensor with
    # a target of rank 1, a diagonal unit change is one target scalar
    milnor, _ = compare_tensors("Qp:5", 4, 1024)
    assert _identity_witness(milnor, transformed(milnor, P))
    # a unit diagonal value breaks that, and only the search finds P
    T = PairingTensor(q=4, m=2, target_orders=(4,), values=np.array([[[1], [1]], [[3], [0]]]))
    assert not _identity_witness(T, transformed(T, P))
    calls = count_searches(monkeypatch)
    assert pairings_equivalent(T, transformed(T, P))
    assert calls


@pytest.mark.parametrize("field,q,order_bound", [("Qp:7", 3, 512), ("Qp:13", 3, 512), ("Qp:5", 4, 1024), ("Qp:11", 5, 4000)])
def test_transposed_milnor_value_keeps_the_former_verdict(field, q, order_bound, monkeypatch):
    milnor, group = compare_tensors(field, q, order_bound)
    assert milnor.values[0, 1, 0] != milnor.values[1, 0, 0]
    swapped = milnor.values.copy()
    swapped[0, 1], swapped[1, 0] = milnor.values[1, 0], milnor.values[0, 1]
    symmetric = milnor.values.copy()
    symmetric[1, 0] = milnor.values[0, 1]
    mutants = [PairingTensor(q=q, m=2, target_orders=milnor.target_orders, values=v) for v in (swapped, symmetric)]
    for mutant in mutants:
        assert pairings_equivalent(mutant, group) == former_pairings_equivalent(mutant, group, monkeypatch)
    # a symmetric tensor is not the antisymmetric cup tensor at odd q
    if q % 2:
        assert not pairings_equivalent(mutants[1], group)


@st.composite
def invertible(draw, n, q):
    M = np.array(draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n)), dtype=np.int64)
    M = M.reshape(n, n)
    assume(_det_mod(M, q) % prime_power(q)[0] != 0)
    return M


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_transforms_of_a_free_tensor_are_equivalent(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    m, t = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    vals = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=m * m * t, max_size=m * m * t)))
    T = PairingTensor(q=q, m=m, target_orders=(q,) * t, values=vals.reshape(m, m, t))
    P, Q = data.draw(invertible(m, q)), data.draw(invertible(t, q))
    assert pairings_equivalent(T, transformed(T, P, Q))


def test_identity_witness_answers_past_the_search_cap():
    # q^(m^2) = 3^16 is past the search cap: the witness still decides a
    # tensor against a target change of itself, the search refuses the rest
    rng = np.random.default_rng(5)
    T = PairingTensor(q=3, m=4, target_orders=(3, 3), values=rng.integers(0, 3, size=(4, 4, 2)))
    assert pairings_equivalent(T, transformed(T, np.eye(4, dtype=np.int64), np.array([[0, 1], [1, 0]])))
    swap = np.eye(4, dtype=np.int64)[[1, 0, 2, 3]]
    with pytest.raises(SizeLimitError):
        pairings_equivalent(T, transformed(T, swap))


def former_span_invariants(vectors, orders, q):
    """The former ``_span_invariants``: the span of the scaled rows as a
    ``QuotientModule`` with no relations, read at its orders."""
    t = len(orders)
    if t == 0:
        return []
    scale = np.array([q // o for o in orders], dtype=np.int64)
    rows = (np.asarray(vectors, dtype=np.int64).reshape(-1, t) * scale) % q
    return sorted(QuotientModule(rows, [], t, q).orders)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_span_invariants_match_the_former_module(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    p, d = prime_power(q)
    t = data.draw(st.integers(0, 4))
    orders = [p**e for e in data.draw(st.lists(st.integers(1, d), min_size=t, max_size=t))]
    n = data.draw(st.integers(0, 6))
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=n * t, max_size=n * t))
    vectors = np.array(entries, dtype=np.int64).reshape(n, t)
    assert _span_invariants(vectors, orders, q) == former_span_invariants(vectors, orders, q)


# -- Z^2 from the generator equations against the full cocycle system ----------


def full_cocycle_matrix(t, q):
    """All (|G|-1)^3 rows of f(g,h) + f(gh,k) - f(h,k) - f(g,hk) = 0."""
    n = t.order
    elems = np.array([x for x in range(n) if x != t.identity])
    pos = np.full(n, -1)
    pos[elems] = np.arange(n - 1)
    g, h, k = (a.reshape(-1) for a in np.meshgrid(elems, elems, elems, indexing="ij"))
    rows = np.zeros((len(g), (n - 1) ** 2), dtype=np.int64)
    idx = np.arange(len(g))
    for a, b, sign in ((g, h, 1), (t.mult[g, h], k, 1), (h, k, -1), (g, t.mult[h, k], -1)):
        alive = (a != t.identity) & (b != t.identity)
        np.add.at(rows, (idx[alive], pos[a[alive]] * (n - 1) + pos[b[alive]]), sign)
    return rows % q


def spans_inside(vectors, generators, q):
    """Is every vector a Z/q-combination of the generators?"""
    A = np.array(generators, dtype=np.int64).T
    return all(x is not None for x in solve_mod_many(A, np.array(vectors).T, q))


SMALL_TABLES = {
    "cyclic8": lambda: cyclic_table(8),
    "klein4": lambda: abelian_table([2, 2]),
    "d4": lambda: semidirect_power_table(cyclic_table(2), 2, [(1, 0)]),
    "q8": None,  # the quaternion_table fixture
    "demushkin3_q2": lambda: to_table(third_quotient(parse_presentation(DEMUSHKIN3), P2)),
}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES))
def test_z2_generator_equations_match_full_system(name, q, request):
    build = SMALL_TABLES[name]
    t = build() if build else request.getfixturevalue("quaternion_table")
    solved = bar_z2(GroupCohomology(t, q))
    full = kernel_with_orders(full_cocycle_matrix(t, q), q)
    assert sorted(o for _, o in solved) == sorted(o for _, o in full)
    assert spans_inside([v for v, _ in solved], [v for v, _ in full], q)
    assert spans_inside([v for v, _ in full], [v for v, _ in solved], q)


def test_z2_rejects_non_generating_generators():
    klein = abelian_table([2, 2])
    for gens in [klein.generators[:1], ()]:
        t = FiniteGroupTable(order=4, mult=klein.mult, identity=klein.identity, generators=gens)
        with pytest.raises(QcwError, match="do not generate"):
            GroupCohomology(t, 2).z2_generators()


# -- Z^2 and B^2 pinned to their former implementations -----------------------


def reference_kernel_of_rowspace(rs, width, q):
    """The former ``GroupCohomology._kernel_of_rowspace``."""
    if rs.nrows == 0:
        eye = np.eye(width, dtype=np.int64)
        return [(eye[i], q) for i in range(width)]
    if all(e == 0 for e in rs._exps):
        # unit-pivot RREF: read the kernel off the free columns
        piv_cols = list(rs._cols)
        piv_set = set(piv_cols)
        rows = rs.rows_matrix()
        out = []
        for j in range(width):
            if j in piv_set:
                continue
            v = np.zeros(width, dtype=np.int64)
            v[j] = 1
            v[piv_cols] = (-rows[:, j]) % q
            out.append((v, q))
        return out
    return kernel_with_orders(rs.rows_matrix(), q)


def canonical_read_off(ctx, z2):
    """The former read-off of ``z2_generators`` from bar-width generators (vector, order) of Z^2.

    When every pivot is a unit, the reduced echelon form of Z^2 with its
    columns reversed is the free-column kernel basis of the full generator
    system; otherwise the generators are returned as they are.
    """
    if not z2:
        return []
    canon = RowSpace(ctx.width, ctx.q)
    canon.add_rows(np.array([v for v, _ in z2])[:, ::-1])
    if not canon.unit_pivots:
        return z2
    return [(v, ctx.q) for v in np.ascontiguousarray(canon.rows_matrix()[::-1, ::-1])]


def relabelled(t):
    """t with its labels reversed, so that the identity moves."""
    perm = t.order - 1 - np.arange(t.order)
    return FiniteGroupTable(
        order=t.order,
        mult=perm[t.mult][np.ix_(perm, perm)],
        identity=int(perm[t.identity]),
        generators=tuple(int(perm[g]) for g in t.generators),
    )


def reference_equation_batches(ctx, chunk=1024):
    """The former ``GroupCohomology._equation_batches``.

    Rows of df(g, h, s) = 0 over all g, h != 1 and every listed generator s
    (deduplicated, identity dropped), (|G|-1)^2 wide, in fixed-size chunks.
    """
    t, q, pos = ctx.t, ctx.q, positions(ctx)
    w = t.order - 1
    gens = np.array([s for s in dict.fromkeys(t.generators) if s != t.identity], dtype=np.int64)
    total = len(gens) * w * w
    for start in range(0, total, chunk):
        eq = np.arange(start, min(start + chunk, total))
        si, rest = np.divmod(eq, w * w)
        gi, hi = np.divmod(rest, w)
        g, h, k = ctx.elems[gi], ctx.elems[hi], gens[si]
        rows = np.zeros((len(eq), ctx.width), dtype=np.int64)
        idx = np.arange(len(eq))

        def put(a, b, sign):
            alive = (a != t.identity) & (b != t.identity)
            np.add.at(rows, (idx[alive], pos[a[alive]] * w + pos[b[alive]]), sign)

        put(g, h, 1)
        put(t.mult[g, h], k, 1)
        put(h, k, -1)
        put(g, t.mult[h, k], -1)
        yield rows % q


def reference_z2_generators(ctx):
    """The former ``z2_generators``: Howell form of the whole generator system, then its kernel."""
    rs = RowSpace(ctx.width, ctx.q)
    for rows in reference_equation_batches(ctx):
        rs.add_rows(rows)
    return rs.unit_pivots, rs.kernel()


def assert_z2_matches_reference(t, q):
    """At bar width and read off canonically, bit-identical to the former
    solver under unit pivots, else the same module.

    Returns whether every pivot was a unit.
    """
    ctx = GroupCohomology(t, q)
    unit, want = reference_z2_generators(ctx)
    got = canonical_read_off(ctx, bar_z2(ctx))
    if unit:
        assert [o for _, o in got] == [o for _, o in want]
        assert all(v.dtype == w.dtype and (v == w).all() for (v, _), (w, _) in zip(got, want))
    else:
        assert sorted(o for _, o in got) == sorted(o for _, o in want)
        assert spans_inside([v for v, _ in got], [v for v, _ in want], q)
        assert spans_inside([v for v, _ in want], [v for v, _ in got], q)
    return unit


def z2_case_table(name, request):
    extra = {
        "free1_q5": lambda: to_table(third_quotient(free_presentation(1), SeriesParams(p=5, d=1))),
        "c4xc2": lambda: abelian_table([4, 2]),
        "c2cubed": lambda: abelian_table([2, 2, 2]),
        "demushkin3_q4": lambda: to_table(
            third_quotient(parse_presentation(DEMUSHKIN3), SeriesParams(p=2, d=2), 1024), 1024
        ),
    }
    if name in extra:
        return extra[name]()
    build = SMALL_TABLES[name]
    return build() if build else request.getfixturevalue("quaternion_table")


# every pivot of the full generator system is a unit: prime q, q prime to
# the group order, and cyclic8 at q = 4, 8
UNIT_CASES = (
    [(name, q) for name in ("cyclic8", "d4", "q8", "demushkin3_q2", "klein4") for q in (2, 3, 5)]
    + [("free1_q5", 5), ("cyclic8", 4), ("cyclic8", 8)]
    + [(name, 9) for name in sorted(SMALL_TABLES)]
)
NON_UNIT_CASES = [
    (name, q) for name in ("klein4", "d4", "demushkin3_q2", "c4xc2", "c2cubed") for q in (4, 8)
] + [("demushkin3_q4", 4)]


@pytest.mark.parametrize("name,q", UNIT_CASES)
def test_z2_generators_match_reference_rowspace(name, q, request):
    t = z2_case_table(name, request)
    ctx = GroupCohomology(t, q)
    ref = ReferenceRowSpace(ctx.width, q)
    for rows in reference_equation_batches(ctx):
        ref.add_rows(rows)
    assert all(e == 0 for e in ref._exps)
    want = reference_kernel_of_rowspace(ref, ctx.width, q)
    got = canonical_read_off(ctx, bar_z2(ctx))
    assert [o for _, o in got] == [o for _, o in want]
    assert all(v.dtype == w.dtype and (v == w).all() for (v, _), (w, _) in zip(got, want))


@pytest.mark.parametrize("name,q", NON_UNIT_CASES)
def test_z2_generators_span_reference_module_without_unit_pivots(name, q, request):
    assert not assert_z2_matches_reference(z2_case_table(name, request), q)


@pytest.mark.parametrize("name,q", UNIT_CASES + NON_UNIT_CASES)
def test_z2_depends_only_on_the_module(name, q, request):
    # the full bar-width generator system, pulled back through the tree
    # extension, spans the same equation module as the walks of the tree's
    # Schreier relators:
    # its Howell form, and so the kernel read off it, is the same
    ctx = GroupCohomology(z2_case_table(name, request), q)
    X = extension_matrix(ctx).astype(np.float64)
    pulled = RowSpace(X.shape[1], q)
    for rows in reference_equation_batches(ctx):
        # exact: each row has at most four nonzero entries, all small
        pulled.add_rows(np.rint(rows.astype(np.float64) @ X).astype(np.int64) % q)
    want, got = pulled.kernel(), ctx.z2_generators()
    assert [o for _, o in got] == [o for _, o in want]
    assert all(v.dtype == w.dtype and (v == w).all() for (v, _), (w, _) in zip(got, want))


def test_z2_trivial_group():
    t = trivial_table()
    for q in (2, 4):
        ctx = GroupCohomology(t, q)
        assert ctx.width == 0
        assert ctx.z2_generators() == []
        assert ctx.h2_space().invariants == []
        assert_z2_matches_reference(t, q)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("name", ["d4", "q8", "demushkin3_q2"])
def test_z2_repeated_generators_and_identity(name, q, request):
    t = z2_case_table(name, request)
    gens = tuple(t.generators)
    noisy = FiniteGroupTable(
        order=t.order, mult=t.mult, identity=t.identity,
        generators=(t.identity,) + gens + gens[::-1],
    )
    got = GroupCohomology(noisy, q).z2_generators()
    want = GroupCohomology(t, q).z2_generators()
    assert [o for _, o in got] == [o for _, o in want]
    assert all((v == w).all() for (v, _), (w, _) in zip(got, want))
    assert assert_z2_matches_reference(noisy, q) == (q != 4)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
@pytest.mark.parametrize("name", ["cyclic8", "d4", "q8", "demushkin3_q2"])
def test_z2_identity_not_first(name, q, request):
    t = relabelled(z2_case_table(name, request))
    assert t.identity != 0
    assert_z2_matches_reference(t, q)


def test_z2_stays_on_the_generator_values(monkeypatch):
    # every RowSpace behind H^2 is |S|(|G|-1) wide, none (|G|-1)^2
    t = to_table(third_quotient(free_presentation(2), P2))
    widths = []
    original = RowSpace.__init__

    def spy(self, width, q):
        widths.append(width)
        original(self, width, q)

    monkeypatch.setattr(RowSpace, "__init__", spy)
    ctx = GroupCohomology(t, 2)
    ctx.h2_space()
    assert widths == [2 * (t.order - 1)]
    assert ctx.width not in widths


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize(
    "name", sorted(SMALL_TABLES) + ["q8_relabelled", "c3_wr_c2_relabelled", "c3_cubed"]
)
def test_coboundary_rows_match_reference(name, q, quaternion_table):
    # the |S| gauge rows are d(K_j) of the reference B^2, K_j(k) the number of
    # letters s_j on the tree path to k; they vanish on the tree edges
    extra = {
        "q8_relabelled": lambda: relabelled(quaternion_table),
        "c3_wr_c2_relabelled": lambda: relabelled(
            semidirect_power_table(cyclic_table(3), 2, [(1, 0)])
        ),
        "c3_cubed": lambda: abelian_table([3, 3, 3]),
    }
    if name in extra:
        t = extra[name]()
    else:
        build = SMALL_TABLES[name]
        t = build() if build else quaternion_table
    ctx = GroupCohomology(t, q)
    gens = ctx.t.spanning_tree().gens
    K = np.zeros((t.order, len(gens)), dtype=np.int64)
    for parent, i, k in zip(*ctx.t.spanning_tree().edges):
        K[k] = K[parent] + np.eye(len(gens), dtype=np.int64)[i]
    full = K[ctx.elems].T @ reference_coboundary_rows(ctx)[:, generator_columns(ctx)] % q
    off = off_tree_columns(ctx)
    assert not np.delete(full, off, axis=1).any()
    got = ctx.coboundary_rows()
    want = full[:, off]
    assert got.shape == (len(set(t.generators) - {t.identity}), (len(gens) - 1) * (t.order - 1) + len(gens))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()


def off_tree_columns(ctx):
    """Restricted columns (g, s), g != 1, that are not tree edges k' -> k's."""
    gens, edges, pos = ctx.t.spanning_tree().gens, zip(*ctx.t.spanning_tree().edges), positions(ctx)
    tree = {pos[parent] * len(gens) + i for parent, i, _ in edges if parent != ctx.t.identity}
    return np.array([c for c in range(len(ctx.elems) * len(gens)) if c not in tree], dtype=np.int64)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES) + ["q8_relabelled", "d4_relabelled", "cyclic8_relabelled"])
def test_gauge_decides_coboundaries(name, q, request):
    # v is in B^2 (the reference (|G|-1)-row matrix on the generator values)
    # iff its gauge lies in the span of the |S| gauge rows; the gauge vanishes
    # on the tree edges, and it fixes the off-tree values of gauged vectors
    t = small_table(name, request)
    ctx = GroupCohomology(t, q)
    b2 = reference_coboundary_rows(ctx)[:, generator_columns(ctx)]
    rows = ctx.coboundary_rows()
    off = off_tree_columns(ctx)
    rng = np.random.default_rng(7 * t.order + q)
    vs = []
    for trial in range(30):
        v = rng.integers(0, q, len(b2)) @ b2 % q
        if trial % 3 == 1:
            v[rng.integers(v.size)] += rng.integers(1, q)
        elif trial % 3 == 2:
            v = rng.integers(0, q, v.size)
        vs.append(v % q)
    gauged = ctx.gauge(np.array(vs))
    assert gauged.shape == (len(vs), len(off))
    hits = 0
    for v, w in zip(vs, gauged):
        in_b2 = solve_mod_many(b2.T, v, q)[0] is not None
        assert in_b2 == (solve_mod_many(rows.T, w, q)[0] is not None)
        hits += in_b2
        embedded = np.zeros_like(v)
        embedded[off] = w
        assert (ctx.gauge(embedded[None])[0] == w).all()
        assert solve_mod_many(b2.T, (v - embedded) % q, q)[0] is not None
    # for cyclic8 at odd q every vector of generator values is a coboundary's
    assert 10 <= hits and (hits < 30 or not cokernel_invariants(b2, b2.shape[1], q))


def test_quotients_stay_on_the_generator_values(monkeypatch):
    # every QuotientModule behind H^2, the decomposable part, the pairing and
    # the inclusion is on the (|S|-1)(|G|-1) + |S| off-tree values, modulo the
    # |S| gauge rows, not on (|G|-1)^2 values modulo |G|-1 coboundary rows
    import qcw.cohom

    t = to_table(third_quotient(free_presentation(2), P2))
    shapes = []
    real = qcw.cohom.QuotientModule

    def spy(gens, rels, width, q):
        shapes.append((width, len(rels)))
        return real(gens, rels, width, q)

    monkeypatch.setattr(qcw.cohom, "QuotientModule", spy)
    decomposable_h2(t, 2)
    GroupCohomology(t, 2).pairing()
    assert shapes == [((2 - 1) * (t.order - 1) + 2, 2)] * 3


def small_table(name, request):
    if name.endswith("_relabelled"):
        return relabelled(small_table(name[: -len("_relabelled")], request))
    build = SMALL_TABLES[name]
    return build() if build else request.getfixturevalue("quaternion_table")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES) + ["q8_relabelled", "d4_relabelled"])
def test_quotients_match_the_bar_width_oracle(name, q, request):
    # H^2, decomposable H^2, the cup tensor and the inclusion, each also built
    # as a full-width QuotientModule on bar cochains from the reference B^2
    t = small_table(name, request)
    ctx = GroupCohomology(t, q)
    b2 = reference_coboundary_rows(ctx)
    ref_h2 = QuotientModule([v for v, _ in bar_z2(ctx)], b2, ctx.width, q)
    basis = ctx.h1_space().basis
    cups = [flat_of_matrix(ctx, cup_matrix(ctx, a, b)) for a in basis for b in basis]
    ref_dec = QuotientModule(cups, b2, ctx.width, q)
    h2mod, dec = ctx.h2_module(), ctx.dec_module()
    assert h2mod.orders == ref_h2.orders and dec.orders == ref_dec.orders
    for mod, ref, space in [(h2mod, ref_h2, ctx.h2_space()), (dec, ref_dec, ctx.dec_space())]:
        assert len(space.basis) == len(ref.basis)
        assert all((F == matrix_of_flat(ctx, v)).all() for F, v in zip(extend(ctx, space.basis), ref.basis))
    m = len(basis)
    want = ref_dec.generator_coords.reshape(m, m, ref_dec.rank)
    got = ctx.pairing()
    assert got.values.shape == want.shape and (got.values == want).all()
    assert got.target_orders == tuple(ref_dec.orders)
    inclusion = decomposable_h2(t, q).inclusion
    if ref_dec.rank:
        want = ref_h2.coords_batch(ref_dec.basis).T
    else:
        want = np.zeros((ref_h2.rank, 0), dtype=np.int64)
    assert inclusion.shape == want.shape and (inclusion == want).all()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES))
def test_is_coboundary_matches_the_bar_width_solve(name, q, request):
    t = small_table(name, request)
    ctx = GroupCohomology(t, q)
    b2 = reference_coboundary_rows(ctx)
    rng = np.random.default_rng(t.order * q)
    basis = ctx.h1_space().basis
    hits = 0
    for trial in range(24):
        u = rng.integers(0, q, t.order)
        u[t.identity] = 0
        F = (u[:, None] + u[None, :] - u[t.mult]) % q
        if trial % 3 == 1 and basis:
            F = F + cup_matrix(ctx, basis[trial % len(basis)], basis[-1])
        elif trial % 3 == 2:
            F[rng.integers(1, t.order), rng.integers(1, t.order)] += rng.integers(1, q)
        F[t.identity, :] = F[:, t.identity] = 0
        want = solve_mod_many(b2.T, flat_of_matrix(ctx, F), q)[0] is not None
        assert is_coboundary(ctx, F) == want
        hits += want
    assert 0 < hits < 24


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("name", ["cyclic8", "q8", "demushkin3_q2"])
def test_is_coboundary_rejects_a_non_cocycle_with_coboundary_generator_values(name, q, request):
    t = small_table(name, request)
    ctx = GroupCohomology(t, q)
    u = np.arange(t.order, dtype=np.int64) % q
    du = (u[:, None] + u[None, :] - u[t.mult]) % q
    du[t.identity, :] = du[:, t.identity] = 0
    assert is_coboundary(ctx, du)
    # change d(u) at one (g, h) with h neither 1 nor a listed generator
    off = [h for h in ctx.elems if h not in set(t.generators)]
    F = du.copy()
    F[ctx.elems[-1], off[-1]] = (F[ctx.elems[-1], off[-1]] + 1) % q
    assert (restrict(ctx, F) == restrict(ctx, du)).all()
    b2 = reference_coboundary_rows(ctx)[:, generator_columns(ctx)]
    assert solve_mod_many(b2.T, restrict(ctx, F), q)[0] is not None
    assert not is_cocycle_matrix(ctx, F)
    assert not is_coboundary(ctx, F)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES) + ["q8_relabelled", "d4_relabelled"])
def test_extend_inverts_restrict_on_cocycles(name, q, request):
    t = small_table(name, request)
    ctx = GroupCohomology(t, q)
    z2 = np.array([v for v, _ in ctx.z2_generators()])
    flats = np.array([v for v, _ in bar_z2(ctx)])
    cocycles = np.array([matrix_of_flat(ctx, v) for v in flats])
    assert all(is_cocycle_matrix(ctx, F) for F in cocycles)
    assert (flats[:, generator_columns(ctx)] == z2).all()
    assert (restrict(ctx, cocycles) == z2).all()
    assert (extend(ctx, restrict(ctx, cocycles)) == cocycles).all()


def reference_h1_rows(t, q):
    """The former loop behind ``h1_space``'s equations f(x g) = f(x) + f(g)."""
    rows = []
    for g in t.generators:
        for x in range(t.order):
            row = np.zeros(t.order, dtype=np.int64)
            row[x] += 1
            row[g] += 1
            row[t.mult[x, g]] -= 1
            rows.append(np.delete(row % q, t.identity))
    return np.array(rows)


def assert_h1_matches_the_dense_kernel(ctx):
    """``h1_space`` against the dense oracle, ``kernel_with_orders`` of the
    homomorphism conditions ``reference_h1_rows``: the same invariants in the
    same order, each span inside the other, and every basis vector a
    solution of the conditions."""
    t, q = ctx.t, ctx.q
    space = ctx.h1_space()
    rows = reference_h1_rows(t, q)
    want = kernel_with_orders(rows, q)
    assert space.invariants == [o for _, o in want]
    assert all(b.shape == (t.order,) and not b[t.identity] for b in space.basis)
    got = np.array([b[ctx.elems] for b in space.basis], dtype=np.int64).reshape(space.dimension, t.order - 1)
    dense = np.array([v for v, _ in want], dtype=np.int64).reshape(len(want), t.order - 1)
    assert not (rows @ got.T % q).any()
    if len(got):
        assert spans_inside(got, dense, q) and spans_inside(dense, got, q)
    return space


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize(
    "name", sorted(SMALL_TABLES) + [f"{name}_relabelled" for name in sorted(SMALL_TABLES)]
)
def test_h1_rows_match_the_former_loop(name, q, request):
    t = small_table(name, request)
    # the identity and a repeated generator each give their own rows
    noisy = FiniteGroupTable(
        order=t.order, mult=t.mult, identity=t.identity,
        generators=(t.identity,) + tuple(t.generators) + tuple(t.generators[:1]),
    )
    for table in (t, noisy):
        assert_h1_matches_the_dense_kernel(GroupCohomology(table, q))


H1_FIELDS = ["Fq:5", "Fq:17", "Fq:25", "Fq:29", "Fq:31", "Fq:997", "Qp:3", "Qp:5", "Qp:7", "Qp:17", "Qp:103", "R"]


def h1_sources():
    """{label: (q, presentation, order bound)}: groups.grp and the compare
    ladder's field models whose third quotient has order <= 256, at six q,
    and free3 at q = 2 (order 512).  Only the quotients' orders are computed."""
    sources = {}
    groups = parse_file(open(GROUPS_GRP).read())
    for q in (2, 3, 4, 5, 8, 9):
        params = SeriesParams.from_q(q)
        models = []
        for spec in H1_FIELDS:
            try:
                models.append((spec, galois_model(parse_field(spec, params))))
            except QcwError:
                continue
        for label, pres in [(pres.name, pres) for pres in groups] + models:
            try:
                order = third_quotient(pres, params, 4096).order
            except SizeLimitError:
                continue
            if order <= 256:
                sources[f"{label}-{q}"] = (q, pres, 256)
    sources["free3-2-order512"] = (2, next(p for p in groups if p.name == "free3"), 512)
    return sources


H1_SOURCES = h1_sources()


@functools.cache
def h1_table(label):
    q, pres, bound = H1_SOURCES[label]
    return to_table(third_quotient(pres, SeriesParams.from_q(q), 4096), bound)


def rowspace_kernel(rows, width, q):
    rs = RowSpace(width, q)
    rs.add_rows(rows)
    kernel = [v for v, _ in rs.kernel()]
    return np.array(kernel, dtype=np.int64).reshape(len(kernel), width)


@pytest.mark.parametrize("label", sorted(H1_SOURCES))
def test_h1_basis_is_the_dense_kernel(label):
    q, t = H1_SOURCES[label][0], h1_table(label)
    assert_h1_matches_the_dense_kernel(GroupCohomology(t, q))


def test_h1_basis_at_the_tree_generators_is_the_gauge_kernel():
    # K_j(s_i) = δ_ij, so each basis class takes its own kernel vector's
    # values at the tree generators; with vanishing gauge rows that is the
    # dual basis of the generators
    assert len(H1_SOURCES) == 61
    dual = 0
    for label, (q, _, _) in sorted(H1_SOURCES.items()):
        ctx = GroupCohomology(h1_table(label), q)
        gens = ctx.t.spanning_tree().gens
        b2 = ctx.coboundary_rows()
        kern = kernel_with_orders(b2.T, q)
        space = ctx.h1_space()
        assert space.invariants == [o for _, o in kern], label
        at_gens = np.array([b[gens] for b in space.basis], dtype=np.int64).reshape(len(kern), len(gens))
        want = np.array([v for v, _ in kern], dtype=np.int64).reshape(len(kern), len(gens))
        assert (at_gens == want).all(), label
        if not b2.any():
            assert (at_gens == np.eye(len(gens), dtype=np.int64)).all(), label
            dual += 1
    assert dual >= 10


def test_h1_rejects_non_generating_generators():
    # Z/4 listing only 2: the former dense route gave (Z/2)^2 with the
    # non-homomorphism [0 1 1 0] at q = 2
    t = cyclic_table(4)
    for q in (2, 4):
        for gens in [(2,), (0, 2)]:
            table = FiniteGroupTable(order=4, mult=t.mult, identity=0, generators=gens)
            with pytest.raises(QcwError, match="do not generate"):
                h1(table, q)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    q=st.sampled_from([2, 3, 4, 5, 8, 9]),
    relators=st.lists(
        st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), min_size=1, max_size=5),
        max_size=3,
    ),
)
def test_h1_on_drawn_presentations(n, q, relators):
    words = tuple(Word(tuple((a % n, e) for a, e in r if e)) for r in relators)
    pres = Presentation(name="drawn", generator_names=tuple(f"x{i}" for i in range(n)), relators=words)
    try:
        t = to_table(third_quotient(pres, SeriesParams.from_q(q), 4096), 256)
    except SizeLimitError:
        assume(False)
    ctx = GroupCohomology(t, q)
    space = assert_h1_matches_the_dense_kernel(ctx)
    got = np.array([b[ctx.elems] for b in space.basis], dtype=np.int64).reshape(space.dimension, t.order - 1)
    rk = rowspace_kernel(reference_h1_rows(t, q), t.order - 1, q)
    assert len(rk) >= len(got)
    if len(got):  # the RowSpace kernel spans the same module
        assert spans_inside(got, rk, q) and spans_inside(rk, got, q)


# -- the cup tensor read off the dec module's generators -------------------------


def pairing_cases():
    """(label, q, table): groups.grp at six q with |G| <= 128, field models, small groups."""
    cases = []
    groups = parse_file(open(GROUPS_GRP).read())
    for q in (2, 3, 4, 5, 8, 9):
        for pres in groups:
            try:
                t = to_table(third_quotient(pres, SeriesParams.from_q(q), 4096), 128)
            except SizeLimitError:
                continue
            cases.append((f"{pres.name}_q{q}", q, t))
    for field, q in [("Fq:5", 2), ("Fq:7", 3), ("Qp:3", 2), ("Qp:5", 2), ("Qp:7", 3), ("R", 2)]:
        params = SeriesParams.from_q(q)
        t = to_table(third_quotient(galois_model(parse_field(field, params)), params, 4096), 128)
        cases.append((f"{field}_q{q}", q, t))
    small = {
        "d4": semidirect_power_table(cyclic_table(2), 2, [(1, 0)]),
        "c2cubed": abelian_table([2, 2, 2]),
        "c4xc2": abelian_table([4, 2]),
        "c3_wr_c2": semidirect_power_table(cyclic_table(3), 2, [(1, 0)]),
    }
    for name, t in small.items():
        for q in (2, 3, 4, 8):
            cases.append((f"{name}_q{q}", q, t))
    return cases


def reference_pairing_values(ctx):
    """The former ``pairing``: a second solve for the coordinates of every cup product."""
    m = ctx.h1_space().dimension
    mod = ctx.dec_module()
    if m == 0:
        return np.zeros((0, 0, mod.rank), dtype=np.int64)
    return mod.coords_batch(ctx.gauge(ctx.cup_flats())).reshape(m, m, mod.rank)


def test_pairing_matches_coordinate_solve():
    cases = pairing_cases()
    assert len(cases) >= 45
    nonzero = 0
    for label, q, t in cases:
        ctx = GroupCohomology(t, q)
        got, want = ctx.pairing().values, reference_pairing_values(ctx)
        assert got.dtype == want.dtype and got.shape == want.shape, label
        assert (got == want).all(), label
        nonzero += bool(want.any())
    assert nonzero >= 10


def test_pairing_runs_no_diagonalization_after_dec_module(monkeypatch):
    import qcw.zqlinalg

    ctx = GroupCohomology(abelian_table([2, 2, 2]), 2)
    assert ctx.dec_module().rank == 6
    calls = []
    real = qcw.zqlinalg.diagonalize
    monkeypatch.setattr(
        qcw.zqlinalg, "diagonalize", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    tensor = ctx.pairing()
    assert calls == []
    assert tensor.values.shape == (3, 3, 6) and tensor.values.any()


def dense_basis_pairing(t, q):
    """The cup tensor in the former H^1 basis, the dense kernel of
    ``reference_h1_rows``, installed on a fresh context."""
    ctx = GroupCohomology(t, q)
    kern = kernel_with_orders(reference_h1_rows(t, q), q)
    basis = np.zeros((len(kern), t.order), dtype=np.int64)
    for row, (vec, _) in zip(basis, kern):
        row[ctx.elems] = vec
    ctx._h1 = CohomologySpace(
        degree=1,
        modulus=q,
        invariants=[o for _, o in kern],
        basis=list(basis),
        support_size=int(np.count_nonzero(basis)),
    )
    return ctx.pairing()


def test_pairing_is_equivalent_to_the_dense_basis_pairing():
    moved = 0
    for label, q, t in pairing_cases():
        got, dense = GroupCohomology(t, q).pairing(), dense_basis_pairing(t, q)
        assert pairings_equivalent(got, dense), label
        moved += not np.array_equal(got.values, dense.values)
    # the two bases differ on some cases, so the equivalence is not vacuous
    assert moved >= 1


def test_x1sq_pairing_is_chi1_cup_chi1():
    # the relator x1^2 at q = 2: in the basis dual to x0, x1, x2 the only
    # nonzero cup product is χ_1 ∪ χ_1
    pres = parse_presentation("group x1sq { generators: x0, x1, x2; relators: x1^2; }")
    t = to_table(third_quotient(pres, P2, 512), 512)
    T = GroupCohomology(t, 2).pairing()
    assert T.m == 3 and T.target_orders == (2,)
    nonzero = {(i, j) for i in range(3) for j in range(3) if T.values[i, j].any()}
    assert nonzero == {(1, 1)}


# -- the cocycle safety net ------------------------------------------------------


def reference_verify_kernel(ctx, vectors):
    """The former ``_verify_kernel``: the full |G|^3 identity, one extended cochain at a time."""
    return all(is_cocycle_matrix(ctx, F) for F in extend(ctx, vectors))


def df_vanishes(ctx, vectors, generators=None):
    """The safety net of ``z2_generators``: df(g, h, s) = 0 for all g, h and
    each s among the listed ``generators`` (indices; all by default)."""
    gens = ctx.t.spanning_tree().gens
    generators = range(len(gens)) if generators is None else generators
    h, i = (a.reshape(-1) for a in np.meshgrid(np.arange(ctx.t.order), generators, indexing="ij"))
    return not any(df.any() for df, _ in ctx._df_blocks(vectors, h, i))


@pytest.mark.parametrize("name,q", [("d4", 2), ("q8", 4), ("demushkin3_q2", 3), ("cyclic8", 8), ("klein4", 9)])
def test_verify_kernel_agrees_with_the_full_identity(name, q, request):
    t = z2_case_table(name, request)
    ctx = GroupCohomology(t, q)
    z2 = ctx.z2_generators()
    vectors = [v for v, _ in z2]
    assert df_vanishes(ctx, vectors) and reference_verify_kernel(ctx, vectors)
    # a Z^2 that is all of (Z/q)^(|S|(|G|-1)) (cyclic8 at q = 8) has no non-cocycle to find
    everything = len(z2) == len(vectors[0]) and all(o == q for _, o in z2)
    rng = random.Random(len(vectors) * q)
    caught = 0
    for _ in range(20):
        k, j = rng.randrange(len(vectors)), rng.randrange(len(vectors[0]))
        bad = [v.copy() for v in vectors]
        bad[k][j] = (bad[k][j] + rng.randrange(1, q)) % q
        want = reference_verify_kernel(ctx, bad[k : k + 1])
        assert df_vanishes(ctx, bad) == want
        caught += not want
    assert caught > 0 or everything


@pytest.mark.parametrize("name,q", [("klein4", 2), ("d4", 2), ("q8", 4), ("demushkin3_q2", 3)])
def test_verify_kernel_checks_every_generator(name, q, request):
    # generator values whose extension has df(g, h, s) = 0 for the first
    # generator s only: the full identity at s, pulled back through the
    # extension.  The tree equations of the other generators hold anyway, so
    # for klein4 at q = 2 and demushkin3_q2 at q = 3 these are all cocycles
    t = z2_case_table(name, request)
    ctx = GroupCohomology(t, q)
    gens = ctx.t.spanning_tree().gens
    w = t.order - 1
    on_first = full_cocycle_matrix(t, q).reshape(w, w, w, -1)[:, :, positions(ctx)[gens[0]]].reshape(w * w, -1)
    pulled = (on_first @ extension_matrix(ctx)) % q
    partial = [v for v, _ in kernel_with_orders(pulled, q)]
    assert df_vanishes(ctx, partial, [0])
    cocycle = [reference_verify_kernel(ctx, [v]) for v in partial]
    assert [df_vanishes(ctx, [v]) for v in partial] == cocycle
    assert all(cocycle) == ((name, q) in {("klein4", 2), ("demushkin3_q2", 3)})


@pytest.mark.parametrize("name", ["d4", "demushkin3_q2", "q8"])
def test_corrupted_kernel_raises(name, request, monkeypatch):
    t = z2_case_table(name, request)
    real = RowSpace.kernel

    def corrupted(self):
        kernel = real(self)
        v, o = kernel[0]
        v = v.copy()
        v[-1] = (v[-1] + 1) % self.q
        return [(v, o)] + kernel[1:]

    monkeypatch.setattr(RowSpace, "kernel", corrupted)
    ctx = GroupCohomology(t, 2)
    # a tripped net caches neither Z^2 nor H^2: the second call checks again
    for call in (ctx.z2_generators, ctx.h2_module):
        with pytest.raises(QcwError, match="non-cocycle"):
            call()


# -- Z^2 from a presentation's relators ------------------------------------------

with open(GROUPS_GRP, encoding="utf-8") as _fh:
    GRP = {pres.name: pres for pres in parse_file(_fh.read())}

# third_quotient only bounds |E(n, q)|, and computes in the normal form
NO_BOUND = 10**12


def relator_cases(bound=256):
    """(name, q) for every groups.grp group at q in {2, 3, 4, 5, 8, 9} with |G| <= bound."""
    return [
        (name, q)
        for name in sorted(GRP)
        for q in (2, 3, 4, 5, 8, 9)
        if third_quotient(GRP[name], SeriesParams.from_q(q), NO_BOUND).order <= bound
    ]


def assert_relators_give_the_off_tree_z2(pres, q, bound):
    """G^[3, q]'s relators give the off-tree Z^2: that of the tree's
    Schreier relators, one per off-tree pair, which a table given no
    relators walks."""
    params = SeriesParams.from_q(q)
    t = to_table(third_quotient(pres, params, NO_BOUND), bound)
    want = GroupCohomology(t, q, h2_bound=bound).z2_generators()
    rels = third_quotient_relators(pres, params)
    got = GroupCohomology(t, q, h2_bound=bound, relators=rels).z2_generators()
    assert [o for _, o in got] == [o for _, o in want]
    assert all(v.dtype == w.dtype and (v == w).all() for (v, _), (w, _) in zip(got, want))


@pytest.mark.parametrize("name,q", relator_cases())
def test_relator_walks_give_the_off_tree_z2(name, q):
    # two presentations of the same group, the Schreier relators of the tree
    # and those of G^[3, q]: the same Howell form, so the same vectors in
    # the same order
    assert_relators_give_the_off_tree_z2(GRP[name], q, 256)


def test_relator_cases_cover_the_data_groups():
    # every groups.grp group but free3 (|G| >= 512), trivialg and involution
    # among them, where the generators map to the identity or to each other
    cases = relator_cases()
    assert len(cases) == 36
    assert {name for name, _ in cases} == set(GRP) - {"free3"}


@st.composite
def _small_presentations(draw):
    n = draw(st.integers(1, 3))
    q = draw(st.sampled_from([2, 3, 4]))
    letter = st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1, 2, -2, q, -q]))
    word = st.lists(letter, min_size=1, max_size=4).map(lambda ls: Word(tuple(ls)))
    relators = tuple(draw(st.lists(word, min_size=1, max_size=2)))
    pres = Presentation(name="H", generator_names=tuple("xyz"[:n]), relators=relators)
    assume(third_quotient(pres, SeriesParams.from_q(q), NO_BOUND).order <= 64)
    return pres, q


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_small_presentations())
def test_relator_walks_give_the_off_tree_z2_on_random_presentations(case):
    assert_relators_give_the_off_tree_z2(*case, 64)


@st.composite
def _presentations_in_f2q(draw):
    # relators in F^(2, q): products of q-th powers and commutators
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    n = draw(st.integers(1, 3))
    gen = st.integers(0, n - 1)
    exponent = st.sampled_from([1, -1, 2, -2, 3])
    power = st.tuples(gen, exponent).map(lambda ge: Word(((ge[0], q * ge[1]),)))
    commutator = st.tuples(gen, exponent, gen, exponent).map(
        lambda c: Word(((c[0], -c[1]), (c[2], -c[3]), (c[0], c[1]), (c[2], c[3])))
    )
    factor = st.one_of(power, commutator)
    relator = st.lists(factor, min_size=1, max_size=3).map(lambda ws: concat(*ws))
    relators = tuple(draw(st.lists(relator, min_size=n, max_size=n + 2)))
    pres = Presentation(name="H", generator_names=tuple("xyz"[:n]), relators=relators)
    assume(third_quotient(pres, SeriesParams.from_q(q), NO_BOUND).order <= 3000)
    return pres, q


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_presentations_in_f2q())
def test_relator_pairing_is_the_cup_tensor_of_the_coset_action(case):
    # the relator lemma of relator_pairing: the tensor read off the Magnus
    # terms is the one GroupCohomology reads off the coset action, value
    # for value, in the same H^1 basis
    pres, q = case
    got = relator_pairing(pres, q)
    want = GroupCohomology(to_action(third_quotient(pres, SeriesParams.from_q(q), NO_BOUND), NO_BOUND), q).pairing()
    assert (got.q, got.m, got.target_orders) == (want.q, want.m, want.target_orders)
    assert np.array_equal(got.values, want.values)


def test_relator_pairing_refuses_a_relator_outside_f2q():
    # x^2 is not in F^(2, 4) = F^4 [F, F]: its exponent sum is 2 mod 4
    pres = parse_presentation("group C2 { generators: x; relators: x^2; }")
    with pytest.raises(QcwError, match="F\\^\\(2, 4\\)"):
        relator_pairing(pres, 4)
    assert relator_pairing(pres, 2).target_orders == (2,)


@pytest.mark.parametrize("field", ["R", "Qp:3", "Qp:7", "Qp:11", "Qp:19", "Qp:5", "Qp:13"])
def test_relator_pairing_reads_the_diagonal_term_at_q2(field):
    # at q = 2 the relator x^2 of R, and x y x^-1 y^-ell of Qp:ell with
    # ell = 3 mod 4, have d2[i, i] = C(a_i, 2) odd: the one term that the
    # class-2 image gives only through the identity d1_i^2 = 2 d2[i, i] + d1_i
    from qcw.presentations import magnus_terms

    pres = galois_model(parse_field(field, SeriesParams.from_q(2)))
    got = relator_pairing(pres, 2)
    m = pres.rank
    V = np.array([[-int(v) % 2 for v in magnus_terms(r, m)[1].flat] for r in pres.relators]).T
    mod = QuotientModule(V.reshape(m * m, -1), [], len(pres.relators), 2)
    assert got.target_orders == tuple(mod.orders)
    assert np.array_equal(got.values, mod.generator_coords.reshape(m, m, mod.rank))
    want = GroupCohomology(to_action(third_quotient(pres, SeriesParams.from_q(2), NO_BOUND), NO_BOUND), 2).pairing()
    assert (got.target_orders, got.values.tolist()) == (want.target_orders, want.values.tolist())
    diagonal = [int(magnus_terms(r, m)[1][i, i]) % 2 for r in pres.relators for i in range(m)]
    assert any(diagonal) == (field == "R" or int(field[3:]) % 4 == 3)


def _run(x, e, by_letter):
    """x^e as |e| one-letter runs, or as one run."""
    return ((x, 1 if e > 0 else -1),) * abs(e) if by_letter else ((x, e),)


def _walk_rows_of(t, q, word):
    return np.vstack(list(GroupCohomology(t, q)._walk_rows([word])))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_a_long_run_walks_its_period(q):
    # in the abelian G^[3, q] of <x, y | [x, y]>, ord(x) = q^2 and the
    # commutator [x^e, y] holds for every e; the walk of a run x^e covers
    # the coset of <x> at its prefix with multiplicities, so the run reads
    # the same equations as |e| single letters
    t = to_table(third_quotient(GRP["abelianized"], SeriesParams.from_q(q), NO_BOUND), 256)
    x = t.generators[0]
    o = int(t.element_orders()[x])
    assert o == q * q
    for e in (o - 1, o, o + 1, 3 * o + 2, -(2 * o + 1)):
        words = [
            Word(_run(0, e, by_letter) + ((1, 1),) + _run(0, -e, by_letter) + ((1, -1),))
            for by_letter in (True, False)
        ]
        letters, run = (_walk_rows_of(t, q, w) for w in words)
        assert letters.any() and (letters == run).all(), e


def test_a_relator_that_fails_in_the_table_is_refused():
    pres, params = GRP["free2"], SeriesParams(p=2, d=1)
    t = to_table(third_quotient(pres, params))
    rels = third_quotient_relators(pres, params) + (Word(((0, 1),)),)
    with pytest.raises(QcwError, match="does not hold"):
        GroupCohomology(t, 2, relators=rels).z2_generators()
    with pytest.raises(DimensionMismatchError, match="generator 2"):
        GroupCohomology(t, 2, relators=[Word(((2, 1),))]).z2_generators()


@pytest.mark.parametrize("q", [2, 4])
def test_relators_that_do_not_present_the_group_trip_the_safety_net(q):
    # without demushkin3's own relator the walks hold in its table but
    # present E(2, q): their solutions include non-cocycles.  (At odd q, s
    # maps to the identity of the cyclic table, and t^(q^2) alone presents it)
    pres, params = GRP["demushkin3"], SeriesParams.from_q(q)
    t = to_table(third_quotient(pres, params, NO_BOUND))
    universal = third_quotient_relators(pres, params)[len(pres.relators) :]
    ctx = GroupCohomology(t, q, relators=universal)
    for call in (ctx.z2_generators, ctx.h2_module):
        with pytest.raises(QcwError, match="non-cocycle"):
            call()


# -- one group interface: a generator action and its table --------------------


def both_shapes(g, q, relators=None, h2_bound=DEFAULT_H2_BOUND):
    """GroupCohomology on ``to_action(g)`` and on ``to_table(g)``."""
    shapes = (to_action(g, NO_BOUND), to_table(g, NO_BOUND))
    return [GroupCohomology(shape, q, h2_bound=h2_bound, relators=relators) for shape in shapes]


def assert_one_interface(on_action, on_table):
    """The same degree <= 2 records and basis classes, cup tensor and Z^2 on both shapes."""
    for space in ("h1_space", "h2_space", "dec_space"):
        a, b = getattr(on_action, space)(), getattr(on_table, space)()
        assert cohomology_record(a) == cohomology_record(b), space
        assert all(np.array_equal(x, y) for x, y in zip(a.basis, b.basis)), space
    assert np.array_equal(on_action.pairing().values, on_table.pairing().values)
    za, zt = on_action.z2_generators(), on_table.z2_generators()
    assert [o for _, o in za] == [o for _, o in zt]
    assert all(np.array_equal(v, w) for (v, _), (w, _) in zip(za, zt))


@pytest.mark.parametrize("route", ["relators", "off-tree"])
@pytest.mark.parametrize("name,q", relator_cases(DEFAULT_H2_BOUND))
def test_an_action_and_its_table_give_the_same_cohomology(name, q, route):
    # trivialg lists a generator equal to 1, and involution one that is 1
    # at odd q
    params = SeriesParams.from_q(q)
    relators = third_quotient_relators(GRP[name], params) if route == "relators" else None
    assert_one_interface(*both_shapes(third_quotient(GRP[name], params, NO_BOUND), q, relators))


EQUAL_GENERATORS = "group E { generators: x, y; relators: x y^-1; }"
INVERSE_RUNS = "group R { generators: x, y; relators: x^-3 y^-2 x y; }"


@pytest.mark.parametrize("route", ["relators", "off-tree"])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("text", [EQUAL_GENERATORS, INVERSE_RUNS])
def test_an_action_and_its_table_on_equal_generators_and_inverse_runs(text, q, route):
    pres, params = parse_presentation(text), SeriesParams.from_q(q)
    g = third_quotient(pres, params, NO_BOUND)
    if text == EQUAL_GENERATORS:
        x, y = to_action(g).generators
        assert x == y
    relators = third_quotient_relators(pres, params) if route == "relators" else None
    assert_one_interface(*both_shapes(g, q, relators, h2_bound=g.order))


@pytest.mark.parametrize("q", [2, 3])
def test_an_action_and_its_table_walk_long_and_negative_runs_alike(q):
    # ord(x) = q^2 in the abelian G^[3, q] of <x, y | [x, y]>, and
    # [x^e, y] holds for every e: runs past the order, negative ones
    # included, add no equation on either shape
    pres, params = GRP["abelianized"], SeriesParams.from_q(q)
    g = third_quotient(pres, params, NO_BOUND)
    o = q * q
    runs = tuple(Word(((0, e), (1, 1), (0, -e), (1, -1))) for e in (o + 1, 3 * o + 2, -(2 * o + 1)))
    on_action, on_table = both_shapes(g, q, third_quotient_relators(pres, params) + runs, g.order)
    assert_one_interface(on_action, on_table)
    off_tree = GroupCohomology(to_action(g, NO_BOUND), q, h2_bound=g.order).z2_generators()
    assert all(np.array_equal(v, w) for (v, _), (w, _) in zip(on_action.z2_generators(), off_tree))
    assert len(on_action.z2_generators()) == len(off_tree)


def test_a_failing_relator_gives_the_same_error_on_both_shapes():
    pres, params = GRP["free2"], SeriesParams(p=2, d=1)
    relators = third_quotient_relators(pres, params) + (Word(((0, 1),)),)
    for ctx in both_shapes(third_quotient(pres, params), 2, relators):
        with pytest.raises(QcwError, match=f"^relator {len(relators) - 1} does not hold in the table$"):
            ctx.z2_generators()


def test_safety_net_runs_on_the_h2_representatives(monkeypatch):
    # df is evaluated once, on the rank(H^2) = 5 vectors transform @ gens,
    # not on all the Z^2 generators
    calls, contexts = [], []
    df_blocks, init = GroupCohomology._df_blocks, GroupCohomology.__init__

    def record(self, vectors, h, i):
        calls.append(np.array(vectors))
        return df_blocks(self, vectors, h, i)

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(GroupCohomology, "_df_blocks", record)
    monkeypatch.setattr(GroupCohomology, "__init__", keep)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cohomology", GROUPS_GRP, "free2", "--q", "2"]) == 0
    (ctx,) = contexts
    module = ctx.h2_module()
    assert module.rank == 5 and len(ctx.z2_generators()) > 5
    assert len(calls) == 1 and len(calls[0]) == 5
    assert (calls[0] == module.transform @ ctx._z2_vectors() % 2).all()


# the compare-fields ladder of the benchmark, one field from each seeded band
COMPARE_FIELDS = [
    ("Fq:5", 2), ("Qp:3", 2), ("R", 2), ("Qp:7", 3), ("Qp:101", 2), ("Qp:103", 3),
    ("Fq:13", 4), ("Fq:31", 5), ("Fq:17", 8), ("Fq:25", 8), ("Fq:991", 2),
]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_command_quotient_modules_match_the_diagonalize_read_off(q, monkeypatch):
    # every QuotientModule that cohomology and compare build, on both
    # branches of its read-off, equals the former diagonalize read-off
    built, init = [], QuotientModule.__init__

    def record(self, gens, rels, width, q):
        init(self, gens, rels, width, q)
        built.append((self, gens, rels, width, q))

    monkeypatch.setattr(QuotientModule, "__init__", record)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for name in sorted(GRP):
            main(["cohomology", GROUPS_GRP, name, "--q", str(q)])
        for field, fq in COMPARE_FIELDS:
            if fq == q:
                assert main(["compare", field, "--q", str(q)]) == 0
    assert built
    rng = np.random.default_rng(q)
    for module, gens, rels, width, mq in built:
        stack = np.vstack([_as_matrix(gens, width, mq), _as_matrix(rels, width, mq)])
        members = rng.integers(0, mq, (3, len(stack))) @ stack % mq
        assert_same_module(module, reference_quotient_module(gens, rels, width, mq), members)


def test_cohomology_command_solves_z2_from_the_relators(monkeypatch):
    # RowSpace gets the |R| (|G|-1) walk rows, not the (|S||G|-|G|+1)(|G|-1)
    # rows of the Schreier relators, and df is evaluated once: the safety
    # net on every pair
    pres, params = GRP["free2"], SeriesParams(p=2, d=1)
    order = third_quotient(pres, params).order
    rows_in, df_pairs = [], []
    add_rows, df_blocks = RowSpace.add_rows, GroupCohomology._df_blocks

    def count_rows(self, block):
        rows_in.append(len(block))
        return add_rows(self, block)

    def record_pairs(self, vectors, h, i):
        df_pairs.append(len(h))
        return df_blocks(self, vectors, h, i)

    monkeypatch.setattr(RowSpace, "add_rows", count_rows)
    monkeypatch.setattr(GroupCohomology, "_df_blocks", record_pairs)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cohomology", GROUPS_GRP, "free2", "--q", "2"]) == 0
    assert 0 < sum(rows_in) <= len(third_quotient_relators(pres, params)) * (order - 1)
    assert df_pairs == [order * pres.rank]


def noisy_klein():
    """Klein four listing the identity, its generators and the first one again."""
    klein = abelian_table([2, 2])
    gens = (klein.identity,) + tuple(klein.generators) + tuple(klein.generators[:1])
    return FiniteGroupTable(order=4, mult=klein.mult, identity=klein.identity, generators=gens)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES) + ["klein4_noisy"])
def test_a_table_walks_its_schreier_presentation(name, q, request, monkeypatch):
    # given no relators, Z^2 is solved from the walks of the tree's
    # Schreier relators, one per off-tree pair: (|S|-1)|G|+1 of them, |S|
    # the deduplicated tree generators.  df is evaluated once, the safety
    # net on every pair
    t = noisy_klein() if name == "klein4_noisy" else small_table(name, request)
    walked, df_pairs = [], []
    walk_rows, df_blocks = GroupCohomology._walk_rows, GroupCohomology._df_blocks

    def record_walk(self, relators):
        walked.append(len(relators))
        return walk_rows(self, relators)

    def record_pairs(self, vectors, h, i):
        df_pairs.append(len(h))
        return df_blocks(self, vectors, h, i)

    monkeypatch.setattr(GroupCohomology, "_walk_rows", record_walk)
    monkeypatch.setattr(GroupCohomology, "_df_blocks", record_pairs)
    ctx = GroupCohomology(t, q)
    ctx.z2_generators()
    n, ns = t.order, len(t.spanning_tree().gens)
    assert walked == [(ns - 1) * n + 1]
    assert df_pairs == [n * ns]
    solved, full = bar_z2(ctx), kernel_with_orders(full_cocycle_matrix(t, q), q)
    assert sorted(o for _, o in solved) == sorted(o for _, o in full)
    assert spans_inside([v for v, _ in solved], [v for v, _ in full], q)
    assert spans_inside([v for v, _ in full], [v for v, _ in solved], q)


def test_no_relators_is_not_the_schreier_presentation():
    # relators=() is an empty presentation, whose walks give no equation:
    # every generator value solves it, and the net refuses the
    # non-cocycles.  relators=None walks the Schreier relators of the tree,
    # which give the Z^2 of G^[3, 2]'s own relators
    pres = parse_presentation(DEMUSHKIN3)
    t = to_table(third_quotient(pres, P2))
    with pytest.raises(QcwError, match="non-cocycle"):
        GroupCohomology(t, 2, relators=()).z2_generators()
    got = GroupCohomology(t, 2, relators=None).z2_generators()
    want = GroupCohomology(t, 2, relators=third_quotient_relators(pres, P2)).z2_generators()
    assert got and [o for _, o in got] == [o for _, o in want]
    assert all(np.array_equal(v, w) for (v, _), (w, _) in zip(got, want))


# -- degree 2 on the generator values against the bar-cochain oracle -------------


def assert_support_matches_the_bar_cochains(ctx):
    for space in (ctx.h2_space(), ctx.dec_space()):
        assert space.support_size == support_size(ctx, space)


@pytest.mark.parametrize("name,q", relator_cases(1024))
def test_support_size_matches_the_bar_cochains(name, q):
    # the count over row blocks equals np.count_nonzero of the extended
    # basis cochains, on the cohomology command's relator route
    params = SeriesParams.from_q(q)
    t = to_table(third_quotient(GRP[name], params, NO_BOUND), 1024)
    relators = third_quotient_relators(GRP[name], params)
    assert_support_matches_the_bar_cochains(GroupCohomology(t, q, h2_bound=1024, relators=relators))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("name", sorted(SMALL_TABLES))
def test_support_size_matches_the_bar_cochains_on_small_tables(name, q, request):
    assert_support_matches_the_bar_cochains(GroupCohomology(small_table(name, request), q))


def test_support_count_runs_over_row_blocks_within_the_budget(monkeypatch):
    # with a budget of a few rows, the safety net extends the H^2
    # representatives a block of rows g at a time and counts their support
    # on the way, and the decomposable count evaluates its cup cochains a
    # block of rows at a time with no tree walk: never all |G| rows at
    # once, and the counts over the blocks do not change
    import qcw.cohom

    q, budget = 3, 2000
    t = to_table(third_quotient(GRP["abelianized"], SeriesParams.from_q(q), NO_BOUND))
    whole = GroupCohomology(t, q, h2_bound=t.order)
    want = [whole.h2_space().support_size, whole.dec_space().support_size]
    ctx = GroupCohomology(t, q, h2_bound=t.order)
    ns = len(t.spanning_tree().gens)
    walks, blocks = [], []
    along_tree, row_blocks = GroupCohomology._along_tree, GroupCohomology._row_blocks

    def spy_walk(self, on_gens, rows):
        walks.append((len(rows), on_gens.shape[-1]))
        return along_tree(self, on_gens, rows)

    def spy_blocks(self, row_cells):
        for g in row_blocks(self, row_cells):
            blocks.append((len(g), row_cells))
            yield g

    monkeypatch.setattr(qcw.cohom, "_BLOCK_CELLS", budget)
    monkeypatch.setattr(GroupCohomology, "_along_tree", spy_walk)
    monkeypatch.setattr(GroupCohomology, "_row_blocks", spy_blocks)
    h2 = ctx.h2_space()
    # every walk along the tree is a block of the net, on the dim H^2
    # representatives: the equations are relator walks
    assert h2.dimension and len(walks) > 1
    assert all(m == h2.dimension for _, m in walks)
    assert all(rows * t.order * ns * m <= budget for rows, m in walks)
    assert sum(rows for rows, _ in walks) == t.order - 1
    walks.clear()
    blocks.clear()
    dec = ctx.dec_space()
    assert dec.dimension and not walks and len(blocks) > 1
    assert all(cells == dec.dimension * t.order and rows * cells <= budget for rows, cells in blocks)
    assert sum(rows for rows, _ in blocks) == t.order - 1
    got = [h2.support_size, dec.support_size]
    assert got == want and all(want)
    monkeypatch.undo()
    assert got == [support_size(ctx, h2), support_size(ctx, dec)]


def test_cohomology_command_walks_the_tree_only_in_the_safety_net(monkeypatch):
    # the H^2 support is counted on the net's own walk and the decomposable
    # support from H^1 (the cup lemma of the module docstring): every
    # _along_tree call of the run is one row block of the net, on the
    # rank(H^2) representatives, and the blocks cover the rows g != 1 once
    calls, contexts = [], []
    along_tree, init = GroupCohomology._along_tree, GroupCohomology.__init__

    def spy(self, on_gens, rows):
        calls.append((len(rows), on_gens.shape[-1]))
        return along_tree(self, on_gens, rows)

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(GroupCohomology, "_along_tree", spy)
    monkeypatch.setattr(GroupCohomology, "__init__", keep)
    argv = ["cohomology", GROUPS_GRP, "demushkin7", "--q", "3", "--order-bound", "2048", "--h2-bound", "256"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    run = list(calls)
    (ctx,) = contexts
    rank = ctx.h2_module().rank
    assert rank == 3 and ctx.dec_space().dimension == 1 and ctx.dec_space().support_size
    assert [m for _, m in run] == [rank] * len(run)
    assert sum(rows for rows, _ in run) == ctx.t.order - 1
    ns = len(ctx.t.spanning_tree().gens)
    assert len(run) == len(list(ctx._row_blocks(ctx.t.order * ns * rank)))


def test_cup_products_extend_to_the_bar_cup_cochains(request):
    # the cup lemma: along the tree the generator values a_i(g) a_j(s)
    # extend to a_i(g) a_j(k) on all of G x G, for every pair of H^1
    # classes, on the groups.grp quotients and the small tables
    cases = [(f"{n}_q{q}", to_table(third_quotient(GRP[n], SeriesParams.from_q(q), NO_BOUND), 256), q)
             for n, q in relator_cases()]
    cases += [(f"{n}_q{q}", small_table(n, request), q) for n in sorted(SMALL_TABLES) for q in (2, 3, 4, 5, 8, 9)]
    nonzero = 0
    for label, t, q in cases:
        ctx = GroupCohomology(t, q)
        a = np.array(ctx.h1_space().basis, dtype=np.int64).reshape(-1, t.order)
        m = len(a)
        walked = extend(ctx, ctx.cup_flats()).reshape(m, m, t.order, t.order)
        closed = a[:, None, :, None] * a[None, :, None, :] % q
        assert np.array_equal(walked, closed), label
        nonzero += bool(closed.any())
    # a 2-group at odd q, or a 3-group at even q, has no H^1
    assert nonzero >= 30


def _images(*words):
    return [Word(tuple(w)) for w in words]


# (source, target, images of the source generators) in groups.grp, each a
# homomorphism at level 3 for q in {2, 3, 4}
QUOTIENT_MAPS = [
    ("free2", "free2", _images([(0, 1)], [(1, 1)])),
    ("free2", "free2", _images([(0, 1), (1, 1)], [(1, 1)])),
    ("free2", "free2", _images([(0, 1)], [(1, 2)])),
    ("free2", "free1", _images([(0, 1)], [])),
    ("free1", "free2", _images([(0, 1)])),
    ("free2", "abelianized", _images([(0, 1)], [(1, 1)])),
    ("free2", "class2", _images([(0, 1)], [(1, 1)])),
    ("class2", "free2", _images([(0, 1)], [(1, 1)])),
    ("abelianized", "abelianized", _images([(0, 1), (1, 1)], [(1, 1)])),
    ("abelianized", "abelianized", _images([(1, 1)], [(0, 1)])),
    ("abelianized", "abelianized", _images([(0, 1)], [(1, 2)])),
    ("abelianized", "involution", _images([(0, 1)], [])),
    ("abelianized", "free1", _images([(0, 1)], [(0, 1)])),
    ("demushkin3", "demushkin3", _images([(0, 1), (1, 1)], [(1, 1)])),
    ("demushkin3", "demushkin3", _images([(0, -1)], [(1, 1)])),
    ("demushkin7", "demushkin7", _images([(0, 1), (1, 1)], [(1, 1)])),
    ("demushkin7", "demushkin7", _images([(0, 1)], [(1, 2)])),
    ("demushkin3", "involution", _images([(0, 1)], [])),
    ("involution", "involution", _images([(0, 1)])),
    ("free1", "involution", _images([(0, 1)])),
]


def induced_cases(q, request):
    """(label, TableHom) at q: the induced_h_maps cases above, QUOTIENT_MAPS,
    the Frattini quotients of the small tables and an automorphism of klein4."""
    free2, free1 = free_presentation(2), free_presentation(1)
    e = to_table(universal_class2(2, P2))
    cases = [("universal_class2_identity", TableHom(source=e, target=e, mapping=np.arange(e.order)))]
    params = SeriesParams.from_q(q)
    maps = [
        ("level3_identity", [Word(((0, 1),)), Word(((1, 1),))], free2, free2, P2),
        ("level3_transvection", [Word(((0, 1), (1, 1))), Word(((1, 1),))], free2, free2, P2),
        ("level3_y_squared", [Word(((0, 1),)), Word(((1, 2),))], free2, free2, P2),
        ("level3_kill_y", [Word(((0, 1),)), Word(())], free2, free1, P2),
        ("level3_inclusion", [Word(((0, 1),))], free1, free2, P2),
    ]
    maps += [(f"{a}_to_{b}_{k}", images, GRP[a], GRP[b], params) for k, (a, b, images) in enumerate(QUOTIENT_MAPS)]
    for label, images, src, tgt, at in maps:
        qmap = induced_quotient_map(images, src, tgt, at, 4096)
        cases.append((label, TableHom(source=qmap.source, target=qmap.target, mapping=qmap.mapping)))
    named = dict(cases)
    cases.append(("level3_kill_y_after_transvection", named["level3_kill_y"].compose(named["level3_transvection"])))
    for name in sorted(SMALL_TABLES):
        t = small_table(name, request)
        quot = quotient_table(t, series_step_oracle(t, set(range(t.order)), P2))
        cases.append((f"{name}_frattini", TableHom(source=t, target=quot.table, mapping=quot.mapping)))
    klein = abelian_table([2, 2])
    # Aut(Z/2 x Z/2) permutes the three involutions
    cases.append(("klein4_automorphism", TableHom(source=klein, target=klein, mapping=[0, 2, 3, 1])))
    return cases


@pytest.mark.parametrize("q", [2, 3, 4])
def test_induced_maps_match_the_bar_cochain_route(q, request):
    # h1_matrix from one batched solve and dec_matrix from the pairing, by
    # the lemma of induced_h_maps, against the former route: one solve per
    # class, and the dec basis cochains pulled back at |G| x |G|
    nonzero = 0
    for label, pi in induced_cases(q, request):
        res = induced_h_maps(pi, q)
        m1, m2 = former_induced_h_maps(pi, q)
        for got, want in ((res.h1_matrix, m1), (res.dec_matrix, m2)):
            assert got.dtype == want.dtype and got.shape == want.shape, label
            assert (got == want).all(), label
        nonzero += bool(m2.any())
    assert nonzero >= 4


# -- bijectivity from span invariants --------------------------------------------


def reference_is_module_iso(matrix: np.ndarray, src_orders, tgt_orders, q: int) -> bool:
    """The former breadth-first ``_is_module_iso``: enumerates the span."""
    if sorted(src_orders) != sorted(tgt_orders):
        return False
    if not src_orders:
        return True
    # surjective onto a finite module of the same order == bijective
    size = math.prod(src_orders)
    span = {tuple([0] * len(src_orders))}
    frontier = [np.zeros(len(src_orders), dtype=np.int64)]
    cols = [matrix[:, j] for j in range(matrix.shape[1])]
    while frontier:
        v = frontier.pop()
        for c in cols:
            wv = v + c
            wv = np.array([x % o for x, o in zip(wv, src_orders)], dtype=np.int64)
            key = tuple(int(x) for x in wv)
            if key not in span:
                span.add(key)
                frontier.append(wv)
    return len(span) == size


def reference_module_automorphisms(orders: tuple[int, ...], q: int, cap: int) -> list[np.ndarray]:
    """The former ``_module_automorphisms``: tests each candidate on every element."""
    t = len(orders)
    if t == 0:
        return [np.zeros((0, 0), dtype=np.int64)]
    choices = []
    for i in range(t):
        for j in range(t):
            g = math.gcd(orders[i], orders[j])
            step = orders[i] // g
            choices.append([k * step for k in range(g)])
    total = 1
    for ch in choices:
        total *= len(ch)
        if total > cap:
            raise SizeLimitError("target automorphism search space over bound")
    elements = list(itertools.product(*[range(o) for o in orders]))
    out = []
    for combo in itertools.product(*choices):
        Q = np.array(combo, dtype=np.int64).reshape(t, t)
        images = set()
        ok = True
        for e in elements:
            img = tuple(
                int((Q[i] @ np.array(e)) % orders[i]) for i in range(t)
            )
            if img in images:
                ok = False
                break
            images.add(img)
        if ok:
            out.append(Q)
    return out


MIXED_ORDERS = [
    (4, (2, 4)),
    (8, (2, 8, 4)),
    (8, (8, 8)),
    (9, (3, 9)),
    (9, (9, 3, 3)),
    (27, (27, 3)),
    (5, (5, 5)),
]


@pytest.mark.parametrize("q,orders", MIXED_ORDERS)
def test_is_module_iso_matches_enumeration(q, orders):
    rng = random.Random(q * 100 + len(orders))
    hits = 0
    for _ in range(150):
        cols = rng.choice([len(orders), len(orders), len(orders) + 1, max(0, len(orders) - 1)])
        M = np.array(
            [[rng.randrange(o) for _ in range(cols)] for o in orders], dtype=np.int64
        ).reshape(len(orders), cols)
        if rng.random() < 0.3:
            M = M + rng.choice(orders) * rng.randrange(3)  # unreduced entries
        tgt = list(orders) if rng.random() < 0.9 else list(orders[::-1]) + [q]
        want = reference_is_module_iso(M, list(orders), tgt, q)
        assert _is_module_iso(M, list(orders), tgt, q) == want
        hits += want
    assert hits > 0


@pytest.mark.parametrize("q,orders", [(4, (2, 4)), (4, (4, 2)), (8, (2, 8)), (9, (3, 9)), (3, (3, 3)), (4, (4,))])
def test_module_automorphisms_match_enumeration(q, orders):
    got = _module_automorphisms(orders, q, 10**6)
    want = reference_module_automorphisms(orders, q, 10**6)
    assert len(got) == len(want) > 0
    assert all((a == b).all() for a, b in zip(got, want))
