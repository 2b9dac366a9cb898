"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Every expected value here is either computed by an
in-repo oracle during the run or was derived independently (enumeration,
Witt counting, hand expansion) before being frozen.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import numpy as np

from qcw.cli import main
from qcw.cohom import GroupCohomology, PairingTensor, TableHom, pairings_equivalent, quadratic_hull
from qcw.lie import witt_rank
from qcw.milnor import FieldDescriptor, symbol_algebra
from qcw.presentations import Word, free_presentation, parse_presentation
from qcw.qcentral import (
    SeriesParams,
    abelian_table,
    cyclic_table,
    is_isomorphic,
    quotient_table,
    series_step_oracle,
    third_quotient,
    to_table,
)
from qcw.realizability import (
    AT_MOST_ONE,
    NOT_APPLICABLE,
    NOT_REALIZABLE,
    CdDescriptor,
    WreathSpec,
    principle_check,
    relators_in_third_series,
    wreath_construct,
)
from bar_oracle import cup_matrix, extend, is_coboundary, is_cocycle_matrix

P2 = SeriesParams(p=2, d=1)
CLASS2_TEXT = "group G { generators: x,y; relators: [x,[x,y]], [y,[x,y]]; }"


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.name}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        else:
            print(f"{self.name}: FAIL ({elapsed:.2f}s)")
        return False


def run_cli_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--output", "json"])
    return code, json.loads(buf.getvalue())


def verify_witness(t1, t2, witness):
    """Rebuild the map from generator images and check it is bijective."""
    phi = {t1.identity: t2.identity}
    frontier = [t1.identity]
    gen_pairs = list(zip(t1.generators, witness))
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in gen_pairs:
                y = int(t1.mult[x, g])
                if y not in phi:
                    phi[y] = int(t2.mult[phi[x], img])
                    nxt.append(y)
        frontier = nxt
    assert len(phi) == t1.order
    for a in range(t1.order):
        for b in range(t1.order):
            assert phi[int(t1.mult[a, b])] == int(t2.mult[phi[a], phi[b]])
    assert len(set(phi.values())) == t1.order == t2.order


def test_criterion_1_free_quotients():
    with Budget("criterion 1 (free-group quotients)", 5):
        for n, expected in ((1, 4), (2, 32), (3, 512)):
            g = third_quotient(free_presentation(n), P2)
            assert g.order == expected == 2 ** (2 * n + n * (n - 1) // 2)
            t = to_table(g)
            assert t.nilpotency_class() <= 2
            assert t.exponent() in (1, 2, 4)
            if n <= 2:
                step1 = series_step_oracle(t, set(range(t.order)), P2)
                step2 = series_step_oracle(t, step1, P2)
                assert step2 == {t.identity}


def test_criterion_2_three_fields():
    expected = {"Fq:5": (1, 0), "Qp:3": (2, 1), "R": (1, 1)}
    for field, (d1, d2) in expected.items():
        with Budget(f"criterion 2 (degree <= 2 comparison, {field})", 10):
            code, rep = run_cli_json("compare", field, "--q", "2")
            assert code == 0
            assert rep["verdict"] == "COMPARISON-CONSISTENT"
            assert rep["cohomology"]["dim1"] == d1
            assert len(rep["cohomology"]["dec_invariants"]) == d2
            assert rep["milnor"]["dim1"] == d1
            assert len(rep["milnor"]["k2_invariants"]) == d2
            assert rep["pairings_equivalent"]


def test_criterion_3_tame_odd():
    with Budget("criterion 3 (tame odd case Qp:7, q=3)", 10):
        code, rep = run_cli_json("compare", "Qp:7", "--q", "3")
        assert code == 0
        assert rep["verdict"] == "COMPARISON-CONSISTENT"
        assert rep["milnor"]["dim1"] == 2  # k1 rank 2
        assert rep["milnor"]["k2_invariants"] == [3]  # k2 of order 3


def test_criterion_4_free_vanishing():
    with Budget("criterion 4 (cup products vanish for the free quotient)", 10):
        t = to_table(third_quotient(free_presentation(2), P2))
        ctx = GroupCohomology(t, 2)
        assert ctx.dec_module().rank == 0
        basis = ctx.h1_space().basis
        assert len(basis) == 2
        for a in basis:
            for b in basis:
                assert is_coboundary(ctx, cup_matrix(ctx, a, b))


def test_criterion_5_class2_example():
    with Budget("criterion 5 (two-generator class-2 example)", 10):
        pres = parse_presentation(CLASS2_TEXT)
        free2 = free_presentation(2)
        # (a) corollary route
        v = relators_in_third_series(pres, P2)
        assert v.verdict == NOT_REALIZABLE
        # (b) third quotient isomorphic to the free one, witness verified
        t_free = to_table(third_quotient(free2, P2))
        t_pres = to_table(third_quotient(pres, P2))
        iso, witness = is_isomorphic(t_free, t_pres)
        assert iso
        verify_witness(t_free, t_pres, witness)
        # (c) relation ranks 0 vs 2 drive the principle
        assert witt_rank(2, 3) == 2
        verdict = principle_check(free2, pres, 2)
        assert verdict.verdict == AT_MOST_ONE
        assert verdict.witness["invariant"] == "dim_h2"
        assert verdict.witness["values"] == [0, 2]


def test_criterion_6_wreath_example():
    with Budget("criterion 6 (wreath construction, two copies)", 5):
        def spec(m, action):
            return WreathSpec(
                k_pres=free_presentation(1),
                k_cd=CdDescriptor.free(),
                k_top_cohomology_finite=True,
                l_pres=free_presentation(1),
                l_cd=CdDescriptor.free(),
                copies=m,
                action=action,
            )

        v2 = wreath_construct(spec(2, [(1, 0)]), 2)
        assert v2.verdict == NOT_REALIZABLE
        assert v2.witness["dim_h1"] == 2
        assert v2.witness["dim_h1_parts"] == [1, 1]
        assert v2.witness["cd"]["value"] == 3
        v1 = wreath_construct(spec(1, [(0,)]), 2)
        assert v1.verdict == NOT_APPLICABLE


def test_criterion_7_cohomology_oracles():
    with Budget("criterion 7 (cohomology engine oracle suite)", 30):
        assert GroupCohomology(abelian_table([2, 2]), 2).h2_space().dimension == 3
        ctx = GroupCohomology(cyclic_table(4), 2)
        assert ctx.h2_space().dimension == 1
        (x,) = ctx.h1_space().basis
        assert is_coboundary(ctx, cup_matrix(ctx, x, x))
        for q in (2, 3, 4):
            assert GroupCohomology(cyclic_table(q), q).h2_space().dimension == 1


def test_criterion_8_property_suites():
    with Budget("criterion 8 (randomized property suites)", 60):
        cases = 0
        rng = random.Random(20260808)

        # --- G^(3) = 1 in every computed third quotient -------------------
        pool_params = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]
        for _ in range(40):
            n, q = pool_params[rng.randrange(len(pool_params))]
            params = SeriesParams.from_q(q)
            relators = []
            for _ in range(rng.randint(0, 2)):
                word = Word(
                    tuple(
                        (rng.randrange(n), rng.choice([-2, -1, 1, 2]))
                        for _ in range(rng.randint(1, 4))
                    )
                )
                relators.append(word)
            pres = free_presentation(n)
            pres = type(pres)(
                name="R", generator_names=pres.generator_names, relators=tuple(relators)
            )
            t = to_table(third_quotient(pres, params))
            step1 = series_step_oracle(t, set(range(t.order)), params)
            step2 = series_step_oracle(t, step1, params)
            assert step2 == {t.identity}
            cases += 1

        # --- 2-cocycle identity on every H^2 basis element ----------------
        table_pool = [
            (cyclic_table(2), 2),
            (cyclic_table(3), 3),
            (cyclic_table(4), 2),
            (cyclic_table(4), 4),
            (cyclic_table(9), 3),
            (abelian_table([2, 2]), 2),
            (abelian_table([3, 3]), 3),
            (abelian_table([2, 4]), 2),
            (to_table(third_quotient(parse_presentation(
                "group D { generators: s,t; relators: s t s^-1 t^-3; }"), P2)), 2),
        ]
        for table, q in table_pool:
            ctx = GroupCohomology(table, q)
            for F in extend(ctx, ctx.h2_space().basis):
                assert is_cocycle_matrix(ctx, F)
                cases += 1

        # --- cup bilinearity and graded commutation -----------------------
        for table, q in table_pool:
            ctx = GroupCohomology(table, q)
            basis = ctx.h1_space().basis
            for _ in range(4):
                if not basis:
                    break
                coeffs = [rng.randrange(q) for _ in basis]
                coeffs2 = [rng.randrange(q) for _ in basis]
                a = sum(c * b for c, b in zip(coeffs, basis)) % q
                a2 = sum(c * b for c, b in zip(coeffs2, basis)) % q
                b1 = basis[rng.randrange(len(basis))]
                lhs = cup_matrix(ctx, (a + a2) % q, b1)
                rhs = (cup_matrix(ctx, a, b1) + cup_matrix(ctx, a2, b1)) % q
                assert is_coboundary(ctx, (lhs - rhs) % q)
                anti = (cup_matrix(ctx, a, b1) + cup_matrix(ctx, b1, a)) % q
                assert is_coboundary(ctx, anti)
                cases += 2

        # --- inflation-cup compatibility along G^[3] -> G^[2] --------------
        for text, q in [
            ("group D { generators: s,t; relators: s t s^-1 t^-3; }", 2),
            ("group F { generators: x,y; relators: ; }", 2),
            ("group F { generators: x; relators: ; }", 3),
        ]:
            params = SeriesParams.from_q(q)
            t3 = to_table(third_quotient(parse_presentation(text), params))
            step = series_step_oracle(t3, set(range(t3.order)), params)
            quot = quotient_table(t3, step)
            pi = TableHom(source=t3, target=quot.table, mapping=quot.mapping)
            ctx2 = GroupCohomology(quot.table, q)
            ctx3 = GroupCohomology(t3, q)
            basis = ctx2.h1_space().basis
            for a in basis:
                for b in basis:
                    lhs = cup_matrix(ctx2, a, b)[np.ix_(pi.mapping, pi.mapping)]
                    rhs = cup_matrix(ctx3, a[pi.mapping], b[pi.mapping])
                    assert (lhs % q == rhs % q).all()
                    cases += 1

        # --- quadratic hull idempotence ------------------------------------
        for _ in range(30):
            q = rng.choice([2, 3])
            dim1 = rng.randint(1, 3)
            dim2 = rng.randint(0, 3)
            vals = np.array(
                [[[rng.randrange(q) for _ in range(dim2)] for _ in range(dim1)] for _ in range(dim1)],
                dtype=np.int64,
            )
            for i in range(dim1):
                for j in range(i, dim1):
                    if q == 2:
                        vals[j, i] = vals[i, j]
                    else:
                        if i == j:
                            vals[i, i] = 0
                        vals[j, i] = (-vals[i, j]) % q
            T = PairingTensor(q=q, m=dim1, target_orders=(q,) * dim2, values=vals)
            H1 = quadratic_hull(T)
            H2 = quadratic_hull(H1)
            assert H1.q == H2.q == q
            assert pairings_equivalent(H1, H2)
            cases += 1

        # --- Steinberg and antisymmetry in every symbol algebra ------------
        field_pool = (
            [FieldDescriptor(kind="finite", params=P2, size=s) for s in (5, 9, 13, 17)]
            + [FieldDescriptor(kind="finite", params=SeriesParams(3, 1), size=s) for s in (7, 13)]
            + [FieldDescriptor(kind="local", params=P2, ell=l) for l in (3, 5, 7, 11, 13)]
            + [FieldDescriptor(kind="local", params=SeriesParams(3, 1), ell=l) for l in (7, 13)]
            + [FieldDescriptor(kind="real", params=P2)]
        )
        for desc in field_pool:
            S = symbol_algebra(desc)
            q = S.q
            orders = np.array(S.k2_invariants, dtype=np.int64)
            m = len(S.k1_basis)
            for _ in range(3):
                a = np.array([rng.randrange(q) for _ in range(m)])
                b = np.array([rng.randrange(q) for _ in range(m)])
                if orders.size:
                    assert ((S.symbol(a, b) + S.symbol(b, a)) % orders == 0).all()
                else:
                    assert S.symbol(a, b).size == 0
                cases += 1
            if desc.kind == "local":
                from qcw.milnor import local_data

                L = local_data(desc)
                for a_int in (2, 3, -1, desc.ell, 2 * desc.ell):
                    if a_int % desc.ell == 0 and (1 - a_int) % desc.ell == 0:
                        continue
                    if a_int != 1 and (1 - a_int) != 0:
                        ca = L.class_of_integer(a_int)
                        cb = L.class_of_integer(1 - a_int)
                        av = np.array(ca)
                        bv = np.array(cb)
                        val = S.symbol(av, bv)
                        assert (val % orders == 0).all()
                        cases += 1

        print(f"criterion 8 cases: {cases}")
        assert cases >= 200
