"""Brute-force cross-checks of the Z/q linear algebra kernel.

Every structural claim (kernel size, independence of generators, quotient
invariants) is compared against exhaustive enumeration on small instances,
and ``diagonalize`` is pinned field for field to its former dense
implementation, kept here as ``reference_diagonalize``.  ``RowSpace`` is
pinned to its former implementation, ``ReferenceRowSpace``, wherever every
pivot is a unit, and its Howell form is checked to be canonical.
``QuotientModule`` is pinned to its former ``diagonalize`` read-off,
``reference_quotient_module``, on both of its branches.  The bit-packed
F_2 sweep is pinned to the general sweep, its oracle, across word
boundaries, and the general sweep to its former column-by-column loop,
``former_general_sweep``, on wide matrices with few rows.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcw.zqlinalg import (
    Diagonalization,
    QuotientModule,
    RowSpace,
    _as_matrix,
    _general_sweep,
    _gf2_sweep,
    _howell_sweep,
    cokernel_invariants,
    diagonalize,
    kernel_with_orders,
    prime_power,
    solve_mod,
    solve_mod_many,
    sorted_unique,
    unit_inverse,
    valuation,
)


def span_enumerate(rows, q):
    """All elements of the subgroup of (Z/q)^w generated by the rows."""
    rows = [tuple(int(x) % q for x in r) for r in rows]
    w = len(rows[0]) if rows else 0
    seen = {tuple([0] * w)}
    frontier = [tuple([0] * w)]
    while frontier:
        v = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % q for a, b in zip(v, r))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def reference_diagonalize(A, q: int, want_Vinv: bool = False, carry=None) -> Diagonalization:
    """Dense per-pivot diagonalization: every pivot updates whole matrices.

    This is the former body of ``diagonalize``, kept as the oracle that the
    sparse-update version must match field for field.
    """
    p, d = prime_power(q)
    A = np.array(A, dtype=np.int64) % q
    if A.ndim == 1:
        A = A.reshape(1, -1)
    m, n = A.shape
    V = np.eye(n, dtype=np.int64)
    Vinv = np.eye(n, dtype=np.int64) if want_Vinv else None
    if carry is not None:
        carry = np.array(carry, dtype=np.int64) % q
        if carry.ndim == 1:
            carry = carry.reshape(-1, 1)
        if carry.shape[0] != m:
            raise ValueError("carry must have one row per matrix row")
    exps: list[int] = []
    r = 0
    while r < min(m, n):
        block = A[r:, r:]
        if not block.any():
            break
        # entry of minimal valuation in the remaining block
        if d == 1:
            nzr, nzc = np.nonzero(block)
            bi, bj = int(nzr[0]), int(nzc[0])
            e = 0
        else:
            nz = block != 0
            vals = np.full(block.shape, d, dtype=np.int64)
            rem = block.copy()
            e = 0
            mask = nz.copy()
            while mask.any() and e < d:
                vals[mask & (rem % p != 0)] = e
                mask &= rem % p == 0
                rem = rem // p
                e += 1
            flat = np.argmin(np.where(nz, vals, d + 1))
            bi, bj = divmod(int(flat), block.shape[1])
            e = int(vals[bi, bj])
        i, j = r + bi, r + bj
        if i != r:
            A[[r, i]] = A[[i, r]]
            if carry is not None:
                carry[[r, i]] = carry[[i, r]]
        if j != r:
            A[:, [r, j]] = A[:, [j, r]]
            V[:, [r, j]] = V[:, [j, r]]
            if Vinv is not None:
                Vinv[[r, j]] = Vinv[[j, r]]
        uinv = unit_inverse(A[r, r], p, d)
        A[r] = (A[r] * uinv) % q
        if carry is not None:
            carry[r] = (carry[r] * uinv) % q
        pe = p**e
        # clear the pivot column by row ops
        col = A[r + 1 :, r]
        if col.any():
            mult = col // pe
            A[r + 1 :] = (A[r + 1 :] - np.outer(mult, A[r])) % q
            if carry is not None:
                carry[r + 1 :] = (carry[r + 1 :] - np.outer(mult, carry[r])) % q
        # clear the pivot row by column ops
        row = A[r, r + 1 :]
        if row.any():
            mult = row // pe
            A[:, r + 1 :] = (A[:, r + 1 :] - np.outer(A[:, r], mult)) % q
            V[:, r + 1 :] = (V[:, r + 1 :] - np.outer(V[:, r], mult)) % q
            if Vinv is not None:
                Vinv[r] = (Vinv[r] + mult @ Vinv[r + 1 :]) % q
        exps.append(e)
        r += 1
    return Diagonalization(q=q, p=p, d=d, exps=exps, V=V, Vinv=Vinv, D=A, carry=carry)


def test_prime_power():
    assert prime_power(2) == (2, 1)
    assert prime_power(9) == (3, 2)
    assert prime_power(16) == (2, 4)
    with pytest.raises(ValueError):
        prime_power(12)
    with pytest.raises(ValueError):
        prime_power(1)


def test_valuation():
    assert valuation(0, 2, 3) == 3
    assert valuation(4, 2, 3) == 2
    assert valuation(6, 2, 3) == 1
    assert valuation(5, 2, 3) == 0


def random_matrix(rng, shape, q, density=1.0):
    """Entries uniform in Z/q, each kept with the given probability."""
    m, n = shape
    return np.array(
        [[rng.randrange(q) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)],
        dtype=np.int64,
    )


def diagonalize_cases(q, rng):
    """Small, tall, wide, sparse, low-rank and non-unit matrices over Z/q."""
    p, d = prime_power(q)
    cases = [random_matrix(rng, (rng.randint(1, 4), rng.randint(1, 4)), q) for _ in range(12)]
    cases += [
        random_matrix(rng, (120, 10), q),
        random_matrix(rng, (10, 120), q),
        random_matrix(rng, (40, 30), q, density=0.05),
        random_matrix(rng, (30, 40), q, density=0.02),
        (random_matrix(rng, (30, 4), q) @ random_matrix(rng, (4, 25), q)) % q,
        np.zeros((5, 7), dtype=np.int64),
        # column-major input, and a first candidate far down the rows
        random_matrix(rng, (12, 60), q).T,
        np.vstack([np.zeros((60, 6), dtype=np.int64), random_matrix(rng, (40, 6), q, density=0.1)]),
    ]
    # no unit entries: every entry is p times something, plus mixed valuations
    cases += [(p * random_matrix(rng, (110, 12), q)) % q, (p * random_matrix(rng, (12, 110), q)) % q]
    cases.append(
        np.array(
            [[p ** rng.randrange(d + 1) * rng.randrange(1, q) % q for _ in range(20)] for _ in range(25)],
            dtype=np.int64,
        )
    )
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
def test_diagonalize_reconstructs(q):
    rng = random.Random(q)
    for A in diagonalize_cases(q, rng):
        m, n = A.shape
        B = random_matrix(rng, (m, 3), q)
        # carry = U [I | B]: U itself, then U B
        dg = diagonalize(A, q, want_Vinv=True, carry=np.hstack([np.eye(m, dtype=np.int64), B]))
        p, d = dg.p, dg.d
        U, UB = dg.carry[:, :m], dg.carry[:, m:]
        D = (U @ A @ dg.V) % q
        expected = np.zeros_like(D)
        for i, e in enumerate(dg.exps):
            expected[i, i] = p**e % q
        assert (D == expected).all()
        assert (dg.D == expected).all()
        assert ((dg.V @ dg.Vinv) % q == np.eye(n, dtype=int)).all()
        assert (UB == (U @ B) % q).all()
        assert dg.exps == sorted(dg.exps), "pivot valuations must be non-decreasing"
        assert all(0 <= e < d for e in dg.exps)


def assert_same_diagonalization(got: Diagonalization, want: Diagonalization) -> None:
    assert (got.q, got.p, got.d, got.exps) == (want.q, want.p, want.d, want.exps)
    for field in ("V", "Vinv", "D", "carry"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert (a == b).all(), field


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
def test_diagonalize_matches_reference(q):
    rng = random.Random(1000 + q)
    for A in diagonalize_cases(q, rng):
        B = random_matrix(rng, (A.shape[0], 2), q)
        U = np.eye(A.shape[0], dtype=np.int64)
        for want_Vinv, carry in itertools.product([False, True], [None, B, U]):
            got = diagonalize(A, q, want_Vinv=want_Vinv, carry=carry)
            want = reference_diagonalize(A, q, want_Vinv=want_Vinv, carry=carry)
            assert_same_diagonalization(got, want)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_kernel_matches_enumeration(q):
    rng = random.Random(100 + q)
    for _ in range(15):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        A = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(m)])
        gens = kernel_with_orders(A, q)
        for v, order in gens:
            assert not ((A @ v) % q).any()
            assert (order * v % q == 0).all()
            assert order == 1 or ((order // prime_power(q)[0]) * v % q).any() or order == 1
        brute = {
            x
            for x in itertools.product(range(q), repeat=n)
            if not ((A @ np.array(x)) % q).any()
        }
        spanned = span_enumerate([v for v, _ in gens], q) if gens else {tuple([0] * n)}
        assert spanned == brute
        prod = 1
        for _, order in gens:
            prod *= order
        assert prod == len(brute), "generators must be independent"


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_solve_mod(q):
    rng = random.Random(7 * q)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(m)])
        x0 = np.array([rng.randrange(q) for _ in range(n)])
        b = (A @ x0) % q
        x = solve_mod(A, b, q)
        assert x is not None
        assert ((A @ x) % q == b).all()


def test_solve_mod_unsolvable():
    # x + y = 1, x + y = 0 has no solution mod 2
    A = np.array([[1, 1], [1, 1]])
    assert solve_mod(A, np.array([1, 0]), 2) is None
    # 2x = 1 has no solution mod 4
    assert solve_mod(np.array([[2]]), np.array([1]), 4) is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_solve_mod_many_is_solve_mod_per_column(data):
    # diagonalize picks its pivots from A alone, so the carried columns do
    # not change one another's solutions
    q = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    m, n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n))).reshape(m, n)
    B = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=m * k, max_size=m * k))).reshape(m, k)
    for col, x in enumerate(solve_mod_many(A, B, q)):
        y = solve_mod(A, B[:, col], q)
        assert (x is None) == (y is None)
        if x is not None:
            assert (x == y).all()


def quotient_order_census(gens, rels, q, w):
    """Order census of (span(gens)+span(rels))/span(rels) by enumeration."""
    big = span_enumerate(list(gens) + list(rels), q) if (len(gens) + len(rels)) else {tuple([0] * w)}
    sub = span_enumerate(rels, q) if len(rels) else {tuple([0] * w)}
    cosets = {}
    for v in big:
        key = min(tuple((np.array(v) - np.array(s)) % q) for s in sub)
        cosets.setdefault(key, v)
    # order of each coset in the quotient group
    census = {}
    for v in cosets.values():
        k = 1
        while tuple(np.array(v) * k % q) not in sub:
            k += 1
        census[k] = census.get(k, 0) + 1
    return len(cosets), census


def census_from_invariants(orders):
    total = 1
    for o in orders:
        total *= o
    census = {}
    for combo in itertools.product(*[range(o) for o in orders]) if orders else [()]:
        k = 1
        for c, o in zip(combo, orders):
            if c:
                k = np.lcm(k, o // np.gcd(c, o))
        k = int(k)
        census[k] = census.get(k, 0) + 1
    return total, census


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_quotient_module_invariants(q):
    rng = random.Random(13 * q)
    for _ in range(12):
        w = rng.randint(1, 3)
        gens = [[rng.randrange(q) for _ in range(w)] for _ in range(rng.randint(0, 3))]
        rels = [[rng.randrange(q) for _ in range(w)] for _ in range(rng.randint(0, 2))]
        module = QuotientModule(gens, rels, w, q)
        size, census = quotient_order_census(gens, rels, q, w)
        msize, mcensus = census_from_invariants(module.orders)
        assert msize == size
        assert mcensus == census
        # coords invert on random combinations of the generators
        for _ in range(5):
            if not gens:
                break
            v = np.zeros(w, dtype=np.int64)
            for g in gens:
                v = (v + rng.randrange(q) * np.array(g)) % q
            y = module.coords(v)
            recon = (y @ module.basis) % q if module.rank else np.zeros(w, dtype=np.int64)
            assert module.contains_in_rels((v - recon) % q)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27])
def test_generator_coords_match_coords_batch(q):
    rng = random.Random(31 * q)
    for _ in range(40):
        w = rng.randint(1, 5)
        gens = random_matrix(rng, (rng.randint(0, 6), w), q, density=rng.choice([0.4, 1.0]))
        rels = random_matrix(rng, (rng.randint(0, 3), w), q)
        gens, rels = gens.reshape(-1, w), rels.reshape(-1, w)
        if rng.random() < 0.3 and len(rels) and len(gens):
            gens[0] = (rng.randrange(q) * rels[0]) % q  # a generator inside the relations
        module = QuotientModule(gens, rels, w, q)
        got = module.generator_coords
        assert got.dtype == np.int64 and got.shape == (len(gens), module.rank)
        if len(gens):
            assert (got == module.coords_batch(gens)).all()


@pytest.mark.parametrize("q", [2, 4, 9])
def test_coords_of_a_zero_module_check_every_vector(q):
    # gens inside the relations: rank 0, and coords_batch only checks membership
    rels = [[1, 0, 0], [0, 2, 0]]
    module = QuotientModule([[3, 2, 0]], rels, 3, q)
    assert module.rank == 0
    inside = [[1, 0, 0], [0, 2, 0], [0, 0, 0], [2, 4, 0]]
    assert module.coords_batch(inside).shape == (4, 0)
    for outside in ([0, 0, 1], [0, 1, 0] if q % 2 == 0 else [0, 0, 2]):
        with pytest.raises(ValueError, match="not in the module"):
            module.coords_batch(inside + [outside])
        with pytest.raises(ValueError, match="not in the module"):
            module.coords(outside)
    empty = QuotientModule([], [], 2, q)
    assert empty.coords_batch([[0, 0], [q, 0]]).shape == (2, 0)
    with pytest.raises(ValueError, match="not in the module"):
        empty.coords_batch([[0, 0], [0, 1]])
    assert empty.contains_in_rels([0, 0]) and empty.contains_in_rels([q, -2 * q])
    assert not empty.contains_in_rels([0, 1])
    # no generators, nonempty relations: the zero module, every shape empty
    bare = QuotientModule([], rels, 3, q)
    assert bare.orders == []
    assert bare.transform.shape == (0, 0) and bare.generator_coords.shape == (0, 0)
    assert bare.basis.shape == (0, 3)
    assert bare.coords_batch(inside).shape == (4, 0)
    assert bare.coords_batch([]).shape == (0, 0)
    with pytest.raises(ValueError, match="not in the module"):
        bare.coords_batch(inside + [[0, 0, 1]])


def stacked_kernel_quotient_module(gens, rels, width, q):
    """The construction before the Howell read-off: the relations Λ on the
    generators from ``kernel_with_orders`` of the stacked [gens; rels].T.
    Returns (orders, basis, generator_coords)."""
    gens, rels = _as_matrix(gens, width, q), _as_matrix(rels, width, q)
    s = len(gens)
    lam = [k[:s] for k, _ in kernel_with_orders(np.vstack([gens, rels]).T, q)]
    dg = diagonalize(_as_matrix(lam, s, q), q, want_Vinv=True)
    p = dg.p
    kept = [i for i, e in enumerate(dg.exps) if e > 0] + list(range(len(dg.exps), s))
    orders = [p ** dg.exps[i] if i < len(dg.exps) else q for i in kept]
    basis = (dg.Vinv @ gens % q)[kept]
    return orders, basis, dg.V[:, kept] % np.array(orders, dtype=np.int64)


def reference_quotient_module(gens, rels, width, q) -> QuotientModule:
    """The former ``QuotientModule.__init__``: ``diagonalize`` of the Howell
    form of Λ, whatever its pivots, read off through V and Vinv.  The module
    returned has the class's own ``coords_batch``."""
    p, d = prime_power(q)
    gens, rels = _as_matrix(gens, width, q), _as_matrix(rels, width, q)
    module = QuotientModule.__new__(QuotientModule)
    module.q, module.p, module.d, module.width, module.rels = q, p, d, width, rels
    s = len(gens)
    M = np.zeros((s + len(rels), width + s), dtype=np.int64)
    M[:s, :width] = gens
    M[np.arange(s), width + np.arange(s)] = 1
    M[s:, :width] = rels
    rows, cols, _ = _howell_sweep(M, p, d)
    dg = diagonalize(rows[cols >= width, width:], q, want_Vinv=True)
    kept = [i for i, e in enumerate(dg.exps) if e > 0] + list(range(len(dg.exps), s))
    module.orders = [p ** dg.exps[i] if i < len(dg.exps) else q for i in kept]
    module.transform = dg.Vinv[kept] % q
    module.basis = (module.transform @ gens) % q
    module.generator_coords = dg.V[:, kept] % np.array(module.orders, dtype=np.int64)
    return module


def assert_same_module(got, want, members=()):
    """Field for field, and the coordinates of ``members`` (vectors of the module)."""
    assert got.orders == want.orders
    for name in ("transform", "basis", "generator_coords"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name
    if len(members):
        assert (got.coords_batch(members) == want.coords_batch(members)).all()


def in_span(vectors, rows, width, q):
    rs = RowSpace(width, q)
    rs.add_rows(rows)
    return all(rs.contains(v) for v in vectors)


def respanned(rng, rels, q):
    """Other rows with the same span: shuffled, recombined by a unit
    triangular matrix, with duplicates, zero rows and combinations added."""
    r, w = rels.shape
    U = np.tril(random_matrix(rng, (r, r), q), -1) + np.diag([rng.choice([u for u in range(1, q) if math.gcd(u, q) == 1]) for _ in range(r)])
    out = list(U @ rels % q)
    if r:
        out += [rels[rng.randrange(r)].copy(), random_matrix(rng, (1, r), q)[0] @ rels % q]
    out += [np.zeros(w, dtype=np.int64)] * rng.randint(0, 2)
    rng.shuffle(out)
    return _as_matrix(out, w, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_quotient_module_is_canonical(q):
    # orders, basis and generator_coords depend only on gens and span(rels),
    # and agree with the former stacked-kernel construction up to its choice of basis
    rng = random.Random(97 * q)
    p, _ = prime_power(q)
    for trial in range(30):
        w = rng.randint(1, 6)
        gens = random_matrix(rng, (rng.randint(0, 5), w), q, density=rng.choice([0.5, 1.0])).reshape(-1, w)
        rels = random_matrix(rng, (rng.randint(0, 4), w), q).reshape(-1, w)
        if trial % 3 == 0:
            rels = rels * p % q  # non-unit relations
        if trial % 4 == 1 and len(gens) and len(rels):
            gens[-1] = (gens[0] + rels[-1]) % q  # a generator that differs from another by a relation
        module = QuotientModule(gens, rels, w, q)
        for _ in range(3):
            other = QuotientModule(gens, respanned(rng, rels, q), w, q)
            assert other.orders == module.orders
            assert other.basis.shape == module.basis.shape and (other.basis == module.basis).all()
            assert (other.generator_coords == module.generator_coords).all()
        orders, basis, _ = stacked_kernel_quotient_module(gens, rels, w, q)
        assert module.orders == orders and module.basis.shape == basis.shape
        if len(gens):
            diff = (gens - module.generator_coords @ module.basis) % q
            assert in_span(diff, rels, w, q)
        assert in_span(module.basis, np.vstack([gens, rels]), w, q)
        assert (module.basis == module.transform @ gens % q).all()


def test_quotient_module_matches_the_diagonalize_read_off(monkeypatch):
    # unit-pivot relation modules skip diagonalize; both branches must give
    # the former read-off entry for entry, and both must be drawn
    import qcw.zqlinalg

    calls, real = [], qcw.zqlinalg.diagonalize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(qcw.zqlinalg, "diagonalize", counted)
    skipped = set()

    @settings(max_examples=300, deadline=None)
    @given(q=st.sampled_from([2, 3, 4, 5, 8, 9]), s=st.integers(0, 5), w=st.integers(1, 5), r=st.integers(0, 4), data=st.data())
    def check(q, s, w, r, data):
        p, _ = prime_power(q)
        entries = lambda k: np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k)), dtype=np.int64)
        gens = entries(s * w).reshape(s, w)
        rels = entries(r * w).reshape(r, w)
        if data.draw(st.booleans()):
            rels = rels * p % q  # non-unit relations
        coeffs = entries(3 * (s + r)).reshape(3, s + r)
        members = coeffs @ np.vstack([gens, rels]) % q
        calls.clear()
        module = QuotientModule(gens, rels, w, q)
        if s:
            skipped.add(not calls)
        assert_same_module(module, reference_quotient_module(gens, rels, w, q), members)

    check()
    assert skipped == {True, False}


def test_cokernel_invariants_examples():
    # (Z/4)^1 / <2> = Z/2
    assert sorted(cokernel_invariants([[2]], 1, 4)) == [2]
    # (Z/3)^2 / <(1,-1)> = Z/3
    assert sorted(cokernel_invariants([[1, 2]], 2, 3)) == [3]
    # no relations: free
    assert cokernel_invariants([], 3, 2) == [2, 2, 2]
    # unit pivot kills a coordinate
    assert sorted(cokernel_invariants([[1, 0], [0, 2]], 2, 4)) == [2]


class ReferenceRowSpace:
    """Accumulates the row space of streamed vectors over Z/q.

    This is the former ``RowSpace``, kept as the oracle that the
    column-sweep version must match wherever every pivot is a unit.

    Unit pivots are kept in reduced row echelon form so that incoming blocks
    can be reduced with one matrix product; the (rare, q non-prime only)
    p-power pivot rows are applied per row.  ``residual`` tells whether a
    vector lies in the accumulated span.
    """

    def __init__(self, width: int, q: int):
        self.q = q
        self.p, self.d = prime_power(q)
        self.width = width
        self._rows: list[np.ndarray] = []
        self._cols: list[int] = []
        self._exps: list[int] = []
        self._by_col: dict[int, int] = {}

    @property
    def nrows(self) -> int:
        return len(self._rows)

    def rows_matrix(self) -> np.ndarray:
        return _as_matrix(self._rows, self.width, self.q)

    def _reduce_one(self, v: np.ndarray) -> np.ndarray:
        v = v % self.q
        for idx in sorted(range(len(self._rows)), key=lambda k: self._cols[k]):
            c, e = self._cols[idx], self._exps[idx]
            x = int(v[c])
            if x == 0:
                continue
            if x % self.p**e == 0:
                v = (v - (x // self.p**e) * self._rows[idx]) % self.q
        return v

    def reduce_block(self, block: np.ndarray) -> np.ndarray:
        """Reduce a stack of rows against the current unit pivots (fast path)."""
        block = block % self.q
        unit = [i for i in range(len(self._rows)) if self._exps[i] == 0]
        if unit and block.size:
            cols = [self._cols[i] for i in unit]
            piv = np.stack([self._rows[i] for i in unit]).astype(np.float64)
            coeff = block[:, cols].astype(np.float64)
            block = (block - (coeff @ piv).astype(np.int64)) % self.q
        return block

    def add_row(self, v) -> bool:
        """Insert one vector; returns True if the row space grew."""
        v = np.asarray(v, dtype=np.int64) % self.q
        while True:
            v = self._reduce_one(v)
            nz = np.flatnonzero(v)
            if nz.size == 0:
                return False
            c = int(nz[0])
            e = valuation(int(v[c]), self.p, self.d)
            v = (v * unit_inverse(int(v[c]), self.p, self.d)) % self.q
            old = self._by_col.get(c)
            if old is None:
                self._insert(v, c, e)
                self._push_tail(v, e)
                return True
            # incoming has strictly smaller valuation at c (else reduced);
            # swap roles and push the old pivot row back through
            displaced = self._rows[old]
            self._rows[old] = v
            self._exps[old] = e
            self._rereduce_above(old)
            self._push_tail(v, e)
            v = displaced

    def _insert(self, v: np.ndarray, c: int, e: int) -> None:
        self._rows.append(v)
        self._cols.append(c)
        self._exps.append(e)
        self._by_col[c] = len(self._rows) - 1
        self._rereduce_above(len(self._rows) - 1)

    def _push_tail(self, v: np.ndarray, e: int) -> None:
        # p^(d-e) * v annihilates the pivot entry and exposes a new leading
        # column; the module element must be represented by its own row
        if e > 0:
            self.add_row((self.p ** (self.d - e) * v) % self.q)

    def _rereduce_above(self, idx: int) -> None:
        # keep earlier rows clear at this pivot column where divisibility allows
        c, e = self._cols[idx], self._exps[idx]
        pe = self.p**e
        row = self._rows[idx]
        for k in range(len(self._rows)):
            if k == idx:
                continue
            x = int(self._rows[k][c])
            if x and x % pe == 0:
                self._rows[k] = (self._rows[k] - (x // pe) * row) % self.q

    def add_rows(self, block) -> int:
        """Insert a block of rows; returns how many grew the space."""
        block = _as_matrix(block, self.width, self.q)
        block = self.reduce_block(block)
        grew = 0
        nonzero = np.flatnonzero(block.any(axis=1))
        for i in nonzero:
            if self.add_row(block[i]):
                grew += 1
        return grew

    def residual(self, v) -> np.ndarray:
        return self._reduce_one(np.asarray(v, dtype=np.int64) % self.q)

    def contains(self, v) -> bool:
        return not self.residual(v).any()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_rowspace_membership(q):
    rng = random.Random(99 + q)
    for _ in range(10):
        w = rng.randint(2, 5)
        while q**w > 5000:  # keep the enumeration of (Z/q)^w small
            w -= 1
        rows = [[rng.randrange(q) for _ in range(w)] for _ in range(rng.randint(1, 4))]
        rs = RowSpace(w, q)
        rs.add_rows(np.array(rows))
        spanned = span_enumerate(rows, q)
        for v in itertools.product(range(q), repeat=w):
            assert rs.contains(np.array(v)) == (v in spanned)


def test_rowspace_block_equals_single():
    rng = random.Random(5)
    q, w = 4, 6
    rows = np.array([[rng.randrange(q) for _ in range(w)] for _ in range(30)])
    rs1 = RowSpace(w, q)
    for r in rows:
        rs1.add_row(r)
    rs2 = RowSpace(w, q)
    rs2.add_rows(rows)
    for v in (rows[::3] * 3 + rows[1::3][: len(rows[::3])]) % q:
        assert rs1.contains(v) == rs2.contains(v)


def sparse_block(rng, rows, w, q, density):
    """rows x w over Z/q; each entry is nonzero with probability density."""
    return rng.integers(1, q, size=(rows, w)) * (rng.random((rows, w)) < density)


def unit_pivot_block(rng, rows, w, q):
    """Rows spanning a free module with unit pivots, shuffled among combinations."""
    p, _ = prime_power(q)
    k = int(rng.integers(1, min(rows, w) + 1))
    R = sparse_block(rng, k, w, q, 0.4)
    for i, c in enumerate(sorted(rng.choice(w, size=k, replace=False))):
        R[i, :c] = 0
        R[i, c] = p * int(rng.integers(0, q // p)) + int(rng.integers(1, p))
    combos = (sparse_block(rng, rows - k, k, q, 0.5) @ R) % q
    return np.vstack([R, combos])[rng.permutation(rows)]


def random_chunks(rng, block):
    """The rows of block in random order, cut into random consecutive chunks."""
    block = block[rng.permutation(len(block))]
    ncuts = int(rng.integers(0, len(block)))
    cuts = sorted(rng.choice(np.arange(1, len(block)), size=ncuts, replace=False)) if ncuts else []
    return np.split(block, cuts)


def assert_matches_reference(block_chunks, w, q):
    rs, ref = RowSpace(w, q), ReferenceRowSpace(w, q)
    for chunk in block_chunks:
        rs.add_rows(chunk)
        ref.add_rows(chunk)
    assert ref._exps == [0] * len(ref._exps)
    order = np.argsort(ref._cols)
    assert list(rs._cols) == [ref._cols[i] for i in order]
    assert list(rs._exps) == [0] * len(order)
    assert rs.rows_matrix().shape == (len(order), w)
    assert (rs.rows_matrix() == ref.rows_matrix()[order]).all()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_rowspace_matches_reference_at_prime_q(q):
    rng = np.random.default_rng(q)
    for _ in range(40):
        rows, w = int(rng.integers(1, 30)), int(rng.integers(1, 25))
        block = sparse_block(rng, rows, w, q, float(rng.choice([0.1, 0.3, 0.7])))
        assert_matches_reference(random_chunks(rng, block), w, q)


def test_rowspace_matches_reference_at_q2_across_words():
    # the oracle tests above draw widths under 25, inside one 64-bit word
    rng = np.random.default_rng(64)
    for w in (63, 64, 65, 127, 128, 129, 200):
        for _ in range(4):
            rows = int(rng.integers(1, 40))
            block = sparse_block(rng, rows, w, 2, float(rng.choice([0.02, 0.1, 0.5])))
            assert_matches_reference(random_chunks(rng, block), w, 2)


def _gf2_case(n, w, density, seed, zeros, copies):
    """n x w 0/1 rows with the rows in ``zeros`` zeroed and each (i, j) in
    ``copies`` making row j a copy of row i."""
    rng = np.random.default_rng(seed)
    M = (rng.random((n, w)) < density).astype(np.int64)
    if n:
        M[[z % n for z in zeros]] = 0
        for i, j in copies:
            M[j % n] = M[i % n]
    return M


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 80),
    w=st.sampled_from([63, 64, 65, 127, 128, 129]) | st.integers(1, 200),
    density=st.sampled_from([0.01, 0.05, 0.2, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.lists(st.integers(0, 79), max_size=4),
    copies=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79)), max_size=6),
)
@example(n=80, w=63, density=0.5, seed=1, zeros=[3], copies=[(0, 1)])
@example(n=80, w=64, density=0.05, seed=2, zeros=[], copies=[(5, 6), (6, 7)])
@example(n=70, w=65, density=0.2, seed=3, zeros=[0, 1], copies=[(2, 3)])
@example(n=80, w=127, density=0.5, seed=4, zeros=[], copies=[])
@example(n=40, w=128, density=0.9, seed=5, zeros=[7], copies=[(1, 2)])
@example(n=80, w=129, density=0.01, seed=6, zeros=[], copies=[(9, 10)])
@example(n=0, w=129, density=0.5, seed=7, zeros=[], copies=[])
def test_gf2_sweep_is_the_general_sweep(n, w, density, seed, zeros, copies):
    M = _gf2_case(n, w, density, seed, zeros, copies)
    want = _general_sweep(M.copy(), 2, 1)
    for got in (_gf2_sweep(M.copy()), _howell_sweep(M.copy(), 2, 1)):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64
            assert a.shape == b.shape and (a == b).all()
        assert got[0].flags.c_contiguous


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_howell_sweep_of_an_empty_matrix(shape, q):
    p, d = prime_power(q)
    rows, cols, exps = _howell_sweep(np.zeros(shape, dtype=np.int64), p, d)
    assert rows.shape == (0, shape[1]) and rows.dtype == np.int64
    assert cols.shape == exps.shape == (0,) and cols.dtype == exps.dtype == np.int64


@pytest.mark.parametrize("q", [4, 8, 9])
def test_rowspace_matches_reference_on_unit_pivot_blocks(q):
    rng = np.random.default_rng(q)
    for _ in range(40):
        rows, w = int(rng.integers(1, 30)), int(rng.integers(1, 25))
        assert_matches_reference(random_chunks(rng, unit_pivot_block(rng, rows, w, q)), w, q)


def assert_howell_form(rs):
    """Echelon rows with pivots p^e, entries above a pivot reduced, and the Howell property."""
    p, d, q = rs.p, rs.d, rs.q
    R = rs.rows_matrix()
    assert (np.diff(rs._cols) > 0).all()
    for i, (c, e) in enumerate(zip(rs._cols, rs._exps)):
        assert not R[i, :c].any() and R[i, c] == p**e and e < d
        assert (R[:i, c] < p**e).all() and not R[i + 1 :, c].any()
        below = RowSpace(rs.width, q)
        below.add_rows(R[i + 1 :])
        assert below.contains(R[i] * p ** (d - e) % q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
def test_rowspace_is_canonical_under_order_and_chunking(q):
    p, d = prime_power(q)
    rng = np.random.default_rng(1000 + q)
    for trial in range(30):
        rows, w = int(rng.integers(1, 12)), int(rng.integers(1, 9))
        block = sparse_block(rng, rows, w, q, float(rng.choice([0.2, 0.5, 0.9])))
        if trial % 2:  # p-scaled rows and entries give non-unit pivots and tails
            block = block * p ** rng.integers(0, d + 1, size=(rows, 1)) % q
            block = block * p ** rng.integers(0, d, size=(rows, w)) % q
        first = RowSpace(w, q)
        first.add_rows(block)
        assert_howell_form(first)
        for v in block:
            assert first.contains(v)
        if q**w <= 4096:
            size = math.prod(p ** (d - int(e)) for e in first._exps)
            assert size == len(span_enumerate(block, q))
        for _ in range(20):
            rs = RowSpace(w, q)
            for chunk in random_chunks(rng, block):
                rs.add_rows(chunk)
            assert list(rs._cols) == list(first._cols)
            assert list(rs._exps) == list(first._exps)
            assert (rs.rows_matrix() == first.rows_matrix()).all()


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_rowspace_kernel(q):
    rng = np.random.default_rng(2000 + q)
    p, d = prime_power(q)
    for trial in range(20):
        rows, w = int(rng.integers(1, 10)), int(rng.integers(1, 8))
        block = sparse_block(rng, rows, w, q, 0.5)
        if trial % 2:
            block = block * p ** rng.integers(0, d + 1, size=(rows, 1)) % q
        rs = RowSpace(w, q)
        rs.add_rows(block)
        gens = rs.kernel()
        want = kernel_with_orders(block, q)
        assert sorted(o for _, o in gens) == sorted(o for _, o in want)
        for v, o in gens:
            assert not (block @ v % q).any()
            assert not (o * v % q).any()
        A = np.array([v for v, _ in gens], dtype=np.int64).reshape(-1, w).T
        for v, _ in want:
            assert solve_mod(A, v, q) is not None
    assert [o for _, o in RowSpace(3, q).kernel()] == [q] * 3


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-5, 5), max_size=40),
    width=st.integers(1, 4),
)
def test_sorted_unique_matches_np_unique(values, width):
    a = np.array(values, dtype=np.int64)
    assert np.array_equal(sorted_unique(a), np.unique(a))
    got, inverse = sorted_unique(a, return_inverse=True)
    want, want_inverse = np.unique(a, return_inverse=True)
    assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse)
    assert inverse.dtype == want_inverse.dtype and inverse.shape == want_inverse.shape
    # rows, as np.unique(axis=0) sorts and numbers them
    rows = a[: len(a) // width * width].reshape(-1, width)
    got, inverse = sorted_unique(rows, return_inverse=True)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(got, want) and got.shape == want.shape
    assert np.array_equal(inverse, want_inverse.reshape(-1))


def former_general_sweep(M, p, d):
    """``_general_sweep`` as it was, one Python step per column."""
    q = p**d
    n, w = M.shape
    k = 0
    cols: list[int] = []
    exps: list[int] = []
    for c in range(w):
        if k == n:
            break
        nz = np.flatnonzero(M[:n, c])
        cand = nz[np.searchsorted(nz, k) :]
        if cand.size == 0:
            continue
        x = M[cand, c]
        e, pe = 0, 1
        hit = x % p != 0
        while not hit.any():
            e, pe = e + 1, pe * p
            hit = x % (pe * p) != 0
        r = int(cand[hit.argmax()])
        if r != k:
            M[[k, r]] = M[[r, k]]
            nz = np.where(nz == r, k, np.where(nz == k, r, nz))
        pc = np.flatnonzero(M[k])
        u = pow(int(M[k, c]) // pe, -1, q)
        if u != 1:
            M[k, pc] = M[k, pc] * u % q
        rest = nz[nz != k]
        if rest.size:
            cell = np.ix_(rest, pc)
            M[cell] = (M[cell] - np.outer(M[rest, c] // pe, M[k, pc])) % q
        cols.append(c)
        exps.append(e)
        if e:
            tail = M[k] * p ** (d - e) % q
            if tail.any():
                if n == len(M):
                    M = np.concatenate([M, np.zeros((max(16, n // 4), w), dtype=np.int64)])
                M[n] = tail
                n += 1
        k += 1
    return M[:k], np.array(cols, dtype=np.int64), np.array(exps, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([3, 4, 5, 8, 9, 27]),
    n=st.integers(1, 12),
    w=st.integers(1, 3000),
    nonzeros=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_general_sweep_skips_empty_columns_as_the_column_loop(q, n, w, nonzeros, seed):
    # a few rows and wide gaps of zero columns, some inside the span of
    # earlier pivots only, as in the decomposable part of a large compare
    rng = np.random.default_rng(seed)
    M = np.zeros((n, w), dtype=np.int64)
    M[rng.integers(0, n, nonzeros), rng.integers(0, w, nonzeros)] = rng.integers(1, q, nonzeros)
    p, d = prime_power(q)
    got = _general_sweep(M.copy(), p, d)
    want = former_general_sweep(M.copy(), p, d)
    for a, b in zip(got, want):
        assert a.shape == b.shape and (a == b).all()
