import contextlib
import importlib.util
import io
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from qcw import cohom
from qcw.cli import main
from qcw.cohom import GroupCohomology, _identity_witness, pairings_equivalent, relator_pairing
from qcw.errors import QcwError, UnsupportedFieldError
from qcw.milnor import (
    FieldDescriptor,
    SmallField,
    SymbolAlgebra,
    _poly_mul,
    _pow,
    galois_model,
    k1,
    k2,
    local_data,
    milnor_pairing_gram,
    parse_field,
    symbol_algebra,
)
from qcw.qcentral import SeriesParams, _KernelForm, relator_order, third_quotient, to_action
from qcw.zqlinalg import QuotientModule, RowSpace, is_prime, kernel_with_orders, prime_factors, prime_power

P2 = SeriesParams(p=2, d=1)
P3 = SeriesParams(p=3, d=1)


def test_parse_field():
    assert parse_field("Fq:5", P2).kind == "finite"
    assert parse_field("Qp:3", P2).ell == 3
    assert parse_field("R", P2).kind == "real"
    with pytest.raises(UnsupportedFieldError):
        parse_field("C", P2)


def test_descriptor_validation():
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor(kind="finite", params=P2, size=4)  # 4 != 1 mod 2
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor(kind="local", params=P2, ell=2)  # ell = p wild case
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor(kind="local", params=P3, ell=5)  # 3 does not divide 4
    with pytest.raises(UnsupportedFieldError):
        FieldDescriptor(kind="real", params=P3)


def test_small_field_tables():
    F = SmallField(5)
    assert F.generator == 2
    assert F.one_minus(F.one) is None
    F9 = SmallField(9)
    assert len(F9.dlog) == 8
    F16 = SmallField(16)
    assert len(F16.dlog) == 15


def table_one_minus_exp(F, i):
    """dlog(1 - g^i) read off the full tables."""
    a = F.powers[i]
    if F.k == 1:
        v = (1 - a) % F.ell
        return None if v == 0 else F.dlog[v]
    v = tuple((F.one[j] - a[j]) % F.ell for j in range(F.k))
    return None if not any(v) else F.dlog[v]


@pytest.mark.parametrize("s", [9, 25, 27, 49, 121, 125, 243] + [s for s in range(2, 300) if prime_factors(s) == [s]])
def test_stepped_powers_match_element_of_exp(s):
    # the gcd pass of _finite_symbol_algebra steps g^i by one multiplication
    F = SmallField(s)
    assert list(F.iter_powers()) == [F.element_of_exp(i) for i in range(s - 1)]


@pytest.mark.parametrize("s", [s for s in range(2, 300) if len(prime_factors(s)) == 1] + [991, 997, 1009])
def test_one_minus_exp_by_baby_steps_matches_the_table(s):
    F = SmallField(s)
    got = [F.one_minus(F.element_of_exp(i)) for i in range(s - 1)]
    # the baby-step giant-step logarithms build neither table
    assert "powers" not in vars(F) and "dlog" not in vars(F)
    assert got == [table_one_minus_exp(F, i) for i in range(s - 1)]


def reference_bilinearity_rows(q):
    """The 2 q^3 bilinearity rows of the former ``_finite_symbol_algebra``
    on the generators {g^a, g^b} (index a q + b), one Python loop per row."""
    gidx = {(a, b): a * q + b for a in range(q) for b in range(q)}
    rows = []
    for a in range(q):
        for a2 in range(q):
            for b in range(q):
                for key in (lambda x: (x, b), lambda x: (b, x)):
                    row = np.zeros(q * q, dtype=np.int64)
                    row[gidx[key((a + a2) % q)]] += 1
                    row[gidx[key(a)]] -= 1
                    row[gidx[key(a2)]] -= 1
                    rows.append(row % q)
    return rows


def reference_finite_relations(F, q):
    """The former ``_finite_symbol_algebra`` rows: the bilinearity rows and
    one Steinberg row per g^i != 1, with g^i by repeated squaring in the
    field."""
    if F.k == 1:
        mul = lambda x, y: x * y % F.ell
    else:
        mul = lambda x, y: _poly_mul(x, y, F.ell, F.modpoly)
    rows = reference_bilinearity_rows(q)
    for i in range(1, F.s - 1):
        assert F.element_of_exp(i) == _pow(F.generator, i, mul, F.one)
        row = np.zeros(q * q, dtype=np.int64)
        row[(i % q) * q + F.one_minus(F.element_of_exp(i)) % q] = 1
        rows.append(row)
    return rows


def former_finite_k2(size, q):
    """(k2_invariants, k2_values, k2_relations) of the former brute force:
    the q^2 symbol generators modulo every reference row, read at {g, g}."""
    rows = np.unique(np.array(reference_finite_relations(SmallField(size), q)), axis=0)
    module = QuotientModule(np.eye(q * q, dtype=np.int64), rows, q * q, q)
    coords = module.generator_coords[q + 1]
    order = 1
    for c, o in zip(coords, module.orders):
        if c:
            order = math.lcm(order, o // math.gcd(int(c), o))
    values = coords.reshape(1, -1) if module.rank else np.zeros((1, 0), dtype=np.int64)
    return list(module.orders), values.tolist(), [[order]]


def finite_k2(size, q):
    p, d = prime_power(q)
    S = symbol_algebra(FieldDescriptor(kind="finite", params=SeriesParams(p=p, d=d), size=size))
    return S.k2_invariants, S.k2_values.tolist(), S.k2_relations.tolist()


@pytest.mark.parametrize("size,q", [(5, 2), (5, 4), (9, 4), (13, 3), (13, 4), (17, 8), (25, 8), (27, 13), (49, 8), (997, 2)])
def test_finite_symbol_algebra_matches_the_former_loops(size, q):
    # the gcd of the Steinberg multiples gives the module that the former
    # bilinearity and Steinberg rows present; k2 of a finite field is 0
    assert finite_k2(size, q) == former_finite_k2(size, q) == ([], [[]], [[1]])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_finite_symbol_algebra_matches_the_former_loops_below_300(q):
    sizes = [s for s in range(3, 300) if s % q == 1 and len(prime_factors(s)) == 1]
    assert sizes
    for size in sizes:
        assert finite_k2(size, q) == former_finite_k2(size, q), size


def former_module_k2(d, q):
    """(k2_invariants, k2_values, k2_relations) of the former construction:
    the width-1 module Z/q / (d), read at {g, g} through an lcm of orders."""
    module = QuotientModule(np.eye(1, dtype=np.int64), [[d % q]], 1, q)
    order = 1
    for c, o in zip(module.generator_coords[0], module.orders):
        if c:
            order = math.lcm(order, o // math.gcd(int(c), o))
    return list(module.orders), module.generator_coords.tolist(), [[order]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16])
def test_finite_k2_closed_form_for_every_divisor(q, monkeypatch):
    # a wrong dlog table would show as d > 1; force every d | q through it
    p, e = prime_power(q)
    size = next(s for s in range(3, 300) if s % q == 1 and len(prime_factors(s)) == 1)
    for d in (p**k for k in range(e + 1)):
        monkeypatch.setattr(SmallField, "one_minus", lambda self, a, d=d: d)
        S = symbol_algebra(FieldDescriptor(kind="finite", params=SeriesParams(p=p, d=e), size=size))
        got = (S.k2_invariants, S.k2_values.tolist(), S.k2_relations.tolist())
        assert got == former_module_k2(d, q), d
        assert S.k2_values.dtype == S.k2_relations.dtype == np.int64
        T = S.pairing()
        assert T.target_orders == ((d,) if d > 1 else ())
        assert T.values.tolist() == [[[1] if d > 1 else []]]


def lemma_kernel_rows(q, sign=-1):
    """{e_ab - ab e_11 : (a, b) != (1, 1)}, a basis of the kernel of
    e_ab |-> ab mod q (with sign=1, the mutant e_ab + ab e_11)."""
    rows = []
    for a in range(q):
        for b in range(q):
            if (a, b) != (1, 1):
                row = np.zeros(q * q, dtype=np.int64)
                row[a * q + b] = 1
                row[q + 1] = sign * a * b
                rows.append(row % q)
    return rows


def howell_form(rows, q):
    rs = RowSpace(q * q, q)
    rs.add_rows(np.array(rows, dtype=np.int64))
    return rs.rows_matrix()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_bilinearity_rows_span_the_kernel_of_ab(q):
    # the lemma of _finite_symbol_algebra, by Howell uniqueness: the
    # bilinearity rows and the kernel basis span the same submodule
    want = howell_form(lemma_kernel_rows(q), q)
    assert np.array_equal(howell_form(reference_bilinearity_rows(q), q), want)
    # mutants: a dropped kernel row, and e_ab + ab e_11 (the same mod 2)
    kernel = lemma_kernel_rows(q)
    for k in (0, len(kernel) // 2, len(kernel) - 1):
        assert not np.array_equal(howell_form(kernel[:k] + kernel[k + 1 :], q), want)
    assert np.array_equal(howell_form(lemma_kernel_rows(q, sign=1), q), want) == (q == 2)


def test_k1_examples():
    names, orders = k1(FieldDescriptor(kind="finite", params=P2, size=5))
    assert names == ["2"] and orders == [2]
    names, orders = k1(FieldDescriptor(kind="local", params=P2, ell=3))
    assert names == ["-1", "3"] and orders == [2, 2]
    names, orders = k1(FieldDescriptor(kind="real", params=P2))
    assert names == ["-1"] and orders == [2]


def test_k2_finite_trivial_small():
    assert k2(FieldDescriptor(kind="finite", params=P2, size=5)) == []
    assert k2(FieldDescriptor(kind="finite", params=P3, size=7)) == []


@pytest.mark.parametrize("q,params", [(2, P2), (3, P3), (4, SeriesParams(p=2, d=2))])
def test_k2_finite_trivial_all_sizes_to_121(q, params):
    for s in range(3, 122):
        try:
            FieldDescriptor(kind="finite", params=params, size=s)
        except UnsupportedFieldError:
            continue
        assert k2(FieldDescriptor(kind="finite", params=params, size=s)) == []


def test_k2_local_q3():
    desc = FieldDescriptor(kind="local", params=P2, ell=3)
    assert k2(desc) == [2]
    S = symbol_algebra(desc)
    # Gram on basis {-1, 3}: {-1,-1} = 0, {-1,3} = 1, {3,3} = 1
    gram = {pair: int(v[0]) for pair, v in zip(S.k2_pairs, S.k2_values)}
    assert gram[(0, 0)] == 0
    assert gram[(0, 1)] == 1
    assert gram[(1, 1)] == 1


def test_k2_local_q7_mod3():
    desc = FieldDescriptor(kind="local", params=P3, ell=7)
    assert k2(desc) == [3]
    S = symbol_algebra(desc)
    gram = {pair: int(v[0]) for pair, v in zip(S.k2_pairs, S.k2_values)}
    assert gram[(0, 0)] == 0  # units pair to zero in the tame quotient
    assert gram[(0, 1)] != 0  # {u, 7} generates
    assert gram[(1, 1)] == 0  # {7,7} = {-1,7}: -1 is a cube mod 7


def test_k2_real():
    desc = FieldDescriptor(kind="real", params=P2)
    assert k2(desc) == [2]
    S = symbol_algebra(desc)
    assert int(S.k2_values[0][0]) == 1  # {-1,-1} != 0


def test_hilbert_symbol_against_square_classes():
    # for odd ell and units a, b: tame symbol is the Legendre symbol of
    # (-1)^{v v'} a^{v'} b^{-v}; cross-check on integers via explicit
    # square sets
    for ell in (3, 5, 7, 11, 13, 17, 19):
        desc = FieldDescriptor(kind="local", params=P2, ell=ell)
        L = local_data(desc)
        squares = {(x * x) % ell for x in range(1, ell)}
        for a_int in (-1, 2, 3, 5, ell, 2 * ell, -ell):
            for b_int in (-1, 2, 3, ell, -2 * ell):
                ca = L.class_of_integer(a_int)
                cb = L.class_of_integer(b_int)
                got = L.tame_exponent(ca, cb)
                va = 0
                aa = a_int
                while aa % ell == 0:
                    aa //= ell
                    va += 1
                vb = 0
                bb = b_int
                while bb % ell == 0:
                    bb //= ell
                    vb += 1
                tame = pow(-1, va * vb) * pow(aa, vb) * pow(bb, -va, ell) ** 1
                tame = (pow(-1, va * vb) * pow(aa % ell, vb, ell) * pow(pow(bb % ell, -1, ell), va, ell)) % ell
                want = 0 if tame in squares else 1
                assert got == want, (ell, a_int, b_int)


def test_symbol_antisymmetry_and_self_pairing():
    rng = np.random.default_rng(7)
    descs = [
        FieldDescriptor(kind="local", params=P2, ell=3),
        FieldDescriptor(kind="local", params=P2, ell=5),
        FieldDescriptor(kind="local", params=P3, ell=7),
        FieldDescriptor(kind="real", params=P2),
        FieldDescriptor(kind="finite", params=P2, size=9),
    ]
    for desc in descs:
        S = symbol_algebra(desc)
        q = S.q
        m = len(S.k1_basis)
        for _ in range(20):
            a = rng.integers(0, q, size=m)
            b = rng.integers(0, q, size=m)
            ab = S.symbol(a, b)
            ba = S.symbol(b, a)
            assert ((ab + ba) % np.array(S.k2_invariants, dtype=np.int64) == 0).all() if S.k2_invariants else True


def test_symbol_a_minus_a_vanishes_local():
    # {a, -a} = 0; -a = (-1) * a and the class of -1 is computable
    for ell, params in ((3, P2), (5, P2), (7, P3), (13, P3)):
        desc = FieldDescriptor(kind="local", params=params, ell=ell)
        S = symbol_algebra(desc)
        L = local_data(desc)
        minus1 = np.zeros(2, dtype=np.int64)
        alpha, v = L.class_of_integer(-1)
        minus1[0], minus1[1] = alpha, v
        rng = np.random.default_rng(ell)
        for _ in range(15):
            a = rng.integers(0, S.q, size=2)
            neg_a = (a + minus1) % S.q
            val = S.symbol(a, neg_a)
            assert (val % np.array(S.k2_invariants, dtype=np.int64) == 0).all()


def test_steinberg_units_local():
    # unit a with 1 - a also a unit: tame symbol {a, 1-a} lands in the
    # trivial class (two units pair to zero)
    for ell in (3, 5, 7, 11):
        desc = FieldDescriptor(kind="local", params=P2, ell=ell)
        L = local_data(desc)
        for a in range(2, ell):
            if (1 - a) % ell == 0:
                continue
            ca = L.class_of_integer(a)
            cb = L.class_of_integer(1 - a)
            assert L.tame_exponent(ca, cb) == 0


def former_symbol(S, a, b):
    """The former ``SymbolAlgebra.symbol``: one pair lookup per (i, j)."""
    a = np.asarray(a, dtype=np.int64) % S.q
    b = np.asarray(b, dtype=np.int64) % S.q
    out = np.zeros(len(S.k2_invariants), dtype=np.int64)
    pair_index = {pr: k for k, pr in enumerate(S.k2_pairs)}
    for i in range(len(S.k1_basis)):
        for j in range(len(S.k1_basis)):
            if a[i] and b[j]:
                if (i, j) in pair_index:
                    out = out + a[i] * b[j] * S.k2_values[pair_index[(i, j)]]
                else:
                    out = out - a[i] * b[j] * S.k2_values[pair_index[(j, i)]]
    for t, o in enumerate(S.k2_invariants):
        out[t] %= o
    return out


def synthetic_algebra(m, q, invariants, seed):
    """A symbol algebra over Z/q (q | 16) on k1 of rank m, with random
    values on every pair i <= j, listed in a shuffled order."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    rng.shuffle(pairs)
    values = np.array([[rng.randrange(-2 * q, 2 * q) for _ in invariants] for _ in pairs], dtype=np.int64)
    return SymbolAlgebra(
        field=FieldDescriptor(kind="local", params=SeriesParams.from_q(q), ell=17),
        k1_basis=[f"e{i}" for i in range(m)],
        k1_orders=[q] * m,
        k2_pairs=pairs,
        k2_relations=np.zeros((0, len(pairs)), dtype=np.int64),
        k2_invariants=list(invariants),
        k2_values=values.reshape(len(pairs), len(invariants)),
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7])
def test_symbol_tensor_matches_the_former_loops(m):
    # symbol contracts the tensor that pairing returns; any m for symbol,
    # m <= 4 for pairing
    q = 8
    rng = random.Random(m)
    for seed, invariants in enumerate([(8,), (8, 4), (8, 2, 2), ()]):
        S = synthetic_algebra(m, q, invariants, seed)
        eye = np.eye(m, dtype=np.int64)
        want = [[former_symbol(S, eye[i], eye[j]).tolist() for j in range(m)] for i in range(m)]
        if m <= 4:
            assert S.pairing().values.tolist() == want
        else:
            with pytest.raises(QcwError):
                S.pairing()
        for _ in range(10):
            a = [rng.randrange(-q, 2 * q) for _ in range(m)]
            b = [rng.randrange(-q, 2 * q) for _ in range(m)]
            assert S.symbol(a, b).tolist() == former_symbol(S, a, b).tolist()


@pytest.mark.parametrize("spec,q", [("Fq:5", 2), ("Fq:13", 4), ("Qp:3", 2), ("Qp:13", 4), ("Qp:37", 9), ("R", 2)])
def test_field_symbols_match_the_former_loops(spec, q):
    S = symbol_algebra(parse_field(spec, SeriesParams.from_q(q)))
    m = len(S.k1_basis)
    eye = np.eye(m, dtype=np.int64)
    want = [[former_symbol(S, eye[i], eye[j]).tolist() for j in range(m)] for i in range(m)]
    assert S.pairing().values.tolist() == want
    rng = random.Random(spec)
    for _ in range(20):
        a, b = [rng.randrange(q) for _ in range(m)], [rng.randrange(q) for _ in range(m)]
        assert S.symbol(a, b).tolist() == former_symbol(S, a, b).tolist()


def test_local_pairing_nondegenerate_all_odd_ell():
    for ell in (3, 5, 7, 11, 13, 17, 19):
        desc = FieldDescriptor(kind="local", params=P2, ell=ell)
        T = milnor_pairing_gram(desc)
        assert T.target_dim == 1
        # nondegenerate: for each basis vector some pairing with it is nonzero
        for i in range(T.m):
            assert T.values[i].any() or T.values[:, i].any()


def test_pairing_gram_shapes():
    T = milnor_pairing_gram(FieldDescriptor(kind="finite", params=P2, size=5))
    assert T.m == 1 and T.target_dim == 0
    T = milnor_pairing_gram(FieldDescriptor(kind="real", params=P2))
    assert T.m == 1 and T.target_dim == 1
    assert T.values[0, 0, 0] == 1


def test_galois_models():
    pres = galois_model(FieldDescriptor(kind="finite", params=P2, size=5))
    assert pres.rank == 1 and pres.relators == ()
    pres = galois_model(FieldDescriptor(kind="local", params=P2, ell=3))
    assert pres.rank == 2
    assert len(pres.relators) == 1
    pres = galois_model(FieldDescriptor(kind="real", params=P2))
    assert pres.rank == 1 and len(pres.relators[0]) == 2


def test_comparison_sweep_every_supported_field():
    # dim k1 = dim H^1 of the third quotient of the Galois model, and the
    # two pairing tensors are equivalent, across the supported families
    from qcw.cohom import GroupCohomology, pairings_equivalent
    from qcw.qcentral import third_quotient, to_table

    sweep = (
        [FieldDescriptor(kind="finite", params=P2, size=s) for s in (5, 9, 13)]
        + [FieldDescriptor(kind="finite", params=P3, size=s) for s in (7, 13)]
        + [FieldDescriptor(kind="local", params=P2, ell=l) for l in (3, 5, 7, 11, 13, 17, 19)]
        + [FieldDescriptor(kind="local", params=P3, ell=l) for l in (7, 13)]
        + [FieldDescriptor(kind="finite", params=SeriesParams(p=2, d=2), size=5)]
        + [FieldDescriptor(kind="real", params=P2)]
    )
    for desc in sweep:
        S = symbol_algebra(desc)
        table = to_table(third_quotient(galois_model(desc), desc.params))
        ctx = GroupCohomology(table, desc.params.q)
        assert ctx.h1_space().dimension == len(S.k1_basis), desc.label()
        assert sorted(ctx.h1_space().invariants) == sorted(S.k1_orders), desc.label()
        cohom_tensor = ctx.pairing()
        milnor_tensor = milnor_pairing_gram(desc)
        assert sorted(cohom_tensor.target_orders) == sorted(S.k2_invariants), desc.label()
        assert pairings_equivalent(cohom_tensor, milnor_tensor), desc.label()


ROOT = Path(__file__).resolve().parents[1]


def load_script(path):
    spec = importlib.util.spec_from_file_location(f"qcw_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


LADDER = load_script(ROOT / "tools" / "cli_matrix.py").field_ladder()
# Qp and Fq fields at prime-power q past the ladder's; the order bound is
# |E(2, q)| = q^5
BEYOND_LADDER = [
    (f, q)
    for q, fields in (
        (4, ["Qp:5", "Qp:13", "Fq:5", "Fq:9", "Fq:13"]),
        (5, ["Qp:11", "Qp:31", "Fq:11", "Fq:31"]),
        (8, ["Qp:17", "Qp:41", "Fq:17", "Fq:25"]),
        (9, ["Qp:19", "Qp:37", "Fq:19", "Fq:37"]),
        (16, ["Qp:17", "Fq:17", "Fq:97"]),
    )
    for f in fields
]


def compare_tensors(field, q, order_bound):
    """The Milnor and cup tensors that ``compare`` matches."""
    params = SeriesParams.from_q(q)
    desc = parse_field(field, params)
    action = to_action(third_quotient(galois_model(desc), params, order_bound), order_bound)
    return symbol_algebra(desc).pairing(), GroupCohomology(action, q).pairing()


@pytest.mark.parametrize("field,q", LADDER + BEYOND_LADDER)
def test_identity_witness_holds_on_every_compare_field(field, q):
    # the Kummer lemma of galois_model: the natural source basis is the
    # identity, up to one target change Q
    milnor, group = compare_tensors(field, q, order_bound=q**5)
    assert _identity_witness(milnor, group)
    assert pairings_equivalent(milnor, group)


# the three m = 2 compare runs of the CLI matrix past the ladder's q
MATRIX_FIELDS = [("Qp:5", 4, 1024), ("Qp:11", 5, 4000), ("Qp:37", 9, 60000)]


@pytest.mark.parametrize(
    "field,q,order_bound", [(f, q, q**5) for f, q in LADDER + BEYOND_LADDER] + MATRIX_FIELDS
)
def test_relator_pairing_is_the_compare_group_side(field, q, order_bound):
    # the relator lemma of cohom.relator_pairing: the same tensor, value
    # for value, as the cup tensor of the coset action of G^[3, q]
    _, group = compare_tensors(field, q, order_bound)
    got = relator_pairing(galois_model(parse_field(field, SeriesParams.from_q(q))), q)
    assert (got.q, got.m, got.target_orders) == (group.q, group.m, group.target_orders)
    assert got.values.shape == group.values.shape
    assert np.array_equal(got.values, group.values)


def test_compare_builds_no_coset_action(monkeypatch):
    import qcw.cli
    import qcw.qcentral

    def refuse(*args, **kwargs):
        raise AssertionError("compare enumerated G")

    monkeypatch.setattr(qcw.qcentral, "to_action", refuse)
    monkeypatch.setattr(qcw.cli, "to_action", refuse)
    monkeypatch.setattr(GroupCohomology, "__init__", refuse)
    for field, q in LADDER:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", field, "--q", str(q), "--output", "json"]) == 0, field


def test_field_ladder_holds_every_compare_fields_draw():
    jobs = load_script(ROOT / "bench" / "jobs.py")
    drawn = set()
    for seed in range(50):
        for job in jobs.build("compare-fields", seed, Path("unused.grp"))[0]:
            drawn.add((job.argv[1], int(job.argv[3])))
    assert drawn <= set(LADDER)


# compare runs of the CLI matrix at q past the ladder's, the last two past
# any |G| x |G| table
WIDE_FIELDS = [("Qp:5", 4), ("Qp:17", 16), ("Qp:97", 32)]


@pytest.mark.parametrize("field,q", LADDER + WIDE_FIELDS)
def test_relator_order_is_the_third_quotient_order_on_galois_models(field, q):
    # the order lemma of relator_order: the quotient_order that compare
    # prints is the order of the reduced forms of E / N
    params = SeriesParams.from_q(q)
    pres = galois_model(parse_field(field, params))
    assert relator_order(pres, params, 10**40) == third_quotient(pres, params, 10**40).order


def test_compare_builds_no_kernel_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare built the reduced forms of E / N")

    monkeypatch.setattr(_KernelForm, "build", refuse)
    golden = 0
    for field, q in LADDER:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compare", field, "--q", str(q), "--output", "json"]) == 0, field
        path = ROOT / "tests" / "golden" / f"compare_{field.replace(':', '').lower()}_q{q}.json"
        if path.exists():
            assert out.getvalue() == path.read_text(encoding="utf-8"), field
            golden += 1
    assert golden == 4


def test_compare_fields_never_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the GL_m search ran")

    monkeypatch.setattr(cohom, "_invertible_matrices", refuse)
    for field, q in LADDER:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", field, "--q", str(q), "--output", "json"]) == 0, field


# ---------------------------------------------------------------------------
# the former local route, kept as the oracle of the closed tame form


def former_least_primitive_root(ell):
    factors = prime_factors(ell - 1)
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // r, ell) != 1 for r in factors):
            return g
    raise AssertionError(f"no primitive root mod {ell}")


def former_dlog(x, g, ell):
    """The exponent of x to the base g by a linear scan of g^0, g^1, ..."""
    acc = 1
    for e in range(ell - 1):
        if acc == x % ell:
            return e
        acc = acc * g % ell
    raise AssertionError("dlog failure")


class FormerLocal:
    """The former ``_LocalData``: the tame symbol by exponentiation in
    F_ell, read back in mu_q by a scan of the powers of zeta."""

    def __init__(self, desc):
        q, ell, p = desc.params.q, desc.ell, desc.params.p
        self.q, self.ell = q, ell
        self.g0 = former_least_primitive_root(ell)
        if q == 2 and ell % 4 == 3:
            self.unit_rep = -1
        else:
            self.unit_rep = next(c for c in range(2, ell) if pow(c, (ell - 1) // p, ell) != 1)
        self.cu = former_dlog(self.unit_rep % ell, self.g0, ell) % q

    def dlog_mu(self, t):
        z = pow(self.g0, (self.ell - 1) // self.q, self.ell)
        acc = 1
        for e in range(self.q):
            if acc == t % self.ell:
                return e
            acc = acc * z % self.ell
        raise AssertionError("value not in mu_q")

    def tame_exponent(self, a, b):
        (aa, va), (ab, vb) = a, b
        ell = self.ell
        residue = pow(-1, (va * vb) % 2, ell) * pow(self.unit_rep % ell, (aa * vb - ab * va) % (ell - 1), ell)
        return self.dlog_mu(pow(residue % ell, (ell - 1) // self.q, ell))

    def class_of_integer(self, m):
        v = 0
        while m % self.ell == 0:
            m //= self.ell
            v += 1
        e = former_dlog(m % self.ell, self.g0, self.ell)
        return e * pow(self.cu, -1, self.q) % self.q, v % self.q

    def record(self, desc, unit_name):
        pairs = [(0, 0), (0, 1), (1, 1)]
        basis = [(1, 0), (0, 1)]
        values = np.array([[self.tame_exponent(basis[i], basis[j])] for i, j in pairs], dtype=np.int64)
        rels = kernel_with_orders(values.T, self.q)
        rows = np.array([r for r, _ in rels], dtype=np.int64) if rels else np.zeros((0, 3), dtype=np.int64)
        return {
            "field": desc.label(),
            "q": self.q,
            "k1_basis": [unit_name, str(self.ell)],
            "k1_orders": [self.q, self.q],
            "k2_pairs": [list(p) for p in pairs],
            "k2_relations": rows.tolist(),
            "k2_invariants": [self.q],
            "k2_values": (values % self.q).tolist(),
        }


ORACLE_MODULI = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 64)
ORACLE_PRIMES = [ell for ell in range(3, 4000) if is_prime(ell)]


def oracle_fields(q):
    params = SeriesParams.from_q(q)
    return [
        FieldDescriptor(kind="local", params=params, ell=ell)
        for ell in ORACLE_PRIMES
        if (ell - 1) % q == 0 and ell != params.p
    ]


def test_oracle_covers_1704_local_fields():
    assert sum(len(oracle_fields(q)) for q in ORACLE_MODULI) == 1704


@pytest.mark.parametrize("q", ORACLE_MODULI)
def test_closed_tame_form_matches_the_former_route(q):
    # every prime ell < 4000 with q | ell - 1: the record, the tame
    # exponent on random coordinates and the class of random integers
    rng = random.Random(q)
    for desc in oracle_fields(q):
        ell = desc.ell
        L, F = local_data(desc), FormerLocal(desc)
        assert (L.field.generator, L.unit_rep, L.cu) == (F.g0, F.unit_rep, F.cu), ell
        assert symbol_algebra(desc).to_record() == F.record(desc, str(L.unit_rep)), ell
        for _ in range(6):
            a = (rng.randrange(-3 * q, 3 * q), rng.randrange(-3 * q, 3 * q))
            b = (rng.randrange(-3 * q, 3 * q), rng.randrange(-3 * q, 3 * q))
            assert L.tame_exponent(a, b) == F.tame_exponent(a, b), (ell, a, b)
        for m in (-1, 2, rng.randrange(1, ell), -rng.randrange(1, ell), ell * rng.randrange(1, ell), -(ell**2)):
            assert L.class_of_integer(m) == F.class_of_integer(m), (ell, m)


@pytest.mark.parametrize("ell,q", [(1000000007, 2), (100000039, 3)])
def test_tame_form_at_a_large_residue_prime(ell, q):
    # no step is linear in ell: cu is a baby-step giant-step logarithm
    desc = FieldDescriptor(kind="local", params=SeriesParams.from_q(q), ell=ell)
    L = local_data(desc)
    g0 = L.field.generator
    assert all(pow(g0, (ell - 1) // r, ell) != 1 for r in prime_factors(ell - 1))
    zeta = pow(g0, (ell - 1) // q, ell)
    assert pow(L.unit_rep % ell, (ell - 1) // q, ell) == pow(zeta, L.cu, ell)
    S = symbol_algebra(desc)
    gram = {pair: int(v[0]) for pair, v in zip(S.k2_pairs, S.k2_values)}
    assert gram == {(0, 0): 0, (0, 1): L.cu, (1, 1): (ell - 1) // 2 % q}
    assert L.cu % desc.params.p != 0
